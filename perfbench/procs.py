"""Run one child process at a time through ``spawner.py``, with a time cap and its own peak RSS."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

from inputs import HERE, SRC, WORK


@dataclass
class Outcome:
    wall_s: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float
    timed_out: bool

    def failure(self) -> str | None:
        """Why the run counts as failed, or ``None``: timeout, traceback, exit code."""
        if self.timed_out:
            return "timeout"
        if b"Traceback (most recent call last)" in self.stderr:
            return "traceback: " + self.stderr.strip().splitlines()[-1].decode(errors="replace")
        if self.exit_code != 0:
            return f"exit {self.exit_code}"
        return None


class Spawner:
    """A small helper process that starts and reaps every child (see ``spawner.py``).

    Start it before this process grows: a child's peak RSS can read no lower
    than the spawner's, reported as ``rss_floor_mb``.
    """

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.rss_floor_mb = json.loads(self._proc.stdout.readline())["rss_floor_mb"]

    def run(self, args: list[str], cap_s: float) -> Outcome:
        """Run ``python3 args...`` to completion or until ``cap_s`` seconds pass."""
        out, err = WORK / "child.stdout", WORK / "child.stderr"
        request = {"argv": [sys.executable, *args], "cap_s": cap_s,
                   "stdout": str(out), "stderr": str(err)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Outcome(stdout=out.read_bytes(), stderr=err.read_bytes(), **reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
