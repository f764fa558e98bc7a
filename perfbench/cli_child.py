"""Traced run of one CLI command: ``granlower.cli.main(argv)`` twice untraced, then traced.

Usage: python3 perfbench/cli_child.py SPANS_OUT STDOUT_OUT CLI_ARG...

All runs happen in this one process, with the same arguments; the traced
wall time minus the faster untraced one is the tracing overhead.  The traced
run's stdout goes to STDOUT_OUT for the caller's correctness checks, its
spans to SPANS_OUT, and one JSON summary line to stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import tracing


def run_main(main, argv):
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            outcome = main(argv)
    except Exception as exc:  # a crash is a result to report, not to propagate
        outcome = f"{type(exc).__name__}: {exc}"[:200]
    return time.perf_counter() - start, outcome, buf.getvalue().encode()


def main() -> int:
    spans_out, stdout_out, *argv = sys.argv[1:]
    from granlower import cli

    # the faster of two untraced runs, so first-call costs do not count as savings
    untraced_s = min(run_main(cli.main, argv)[0] for _ in range(2))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced_s, outcome, out = run_main(cli.main, argv)
    tracer.counters["cli.output_bytes"] += len(out)
    with open(stdout_out, "wb") as fh:
        fh.write(out)
    tracer.write(spans_out)
    summary = tracer.summary()
    summary.update(untraced_s=untraced_s, traced_s=traced_s, outcome=outcome)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
