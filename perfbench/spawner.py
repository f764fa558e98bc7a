"""Spawn and reap the benchmark's children, one at a time, from a small process.

Protocol: one JSON request per stdin line, ``{"argv": [...], "cap_s": S,
"stdout": PATH, "stderr": PATH}``; one JSON reply per stdout line,
``{"wall_s", "exit_code", "rss_mb", "timed_out"}``.  Exits at end of input.

Linux carries the spawning process's peak RSS into a child's ``ru_maxrss``
across exec, so children started by the benchmark driver itself would report
at least the driver's peak.  This process stays small, so each child's
``os.wait4`` figure is its own peak.  The child is watched through a pidfd,
so the time cap can kill it without racing against pid reuse.
"""

import json
import os
import select
import signal
import sys
import time


def spawn(argv, cap_s, stdout, stderr):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(cap_s * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return {
        "wall_s": wall,
        "exit_code": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports kilobytes
        "timed_out": timed_out,
    }


def main():
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"rss_floor_mb": int(hwm.split()[1]) / 1024}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["cap_s"], req["stdout"], req["stderr"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
