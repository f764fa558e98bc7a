"""The ``hour_query`` workload, run in its own process so its RSS is its own.

Usage: python3 perfbench/hour_child.py CALENDAR SEED SECONDS TRACE SPANS_OUT

Like a constraint solver holding representations in memory: it converts
``month`` and ``year`` of an hour-bottom Gregorian calendar (P = 3,506,328),
then answers a seeded closed loop of ``up``/``expand`` queries, one at a
time, each checked against ``datetime``.  Prints one JSON line.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

import inputs

START = time.perf_counter()
from granlower import algebra, convert  # noqa: E402  (import time is part of set-up)

IMPORT_S = time.perf_counter() - START
SETUPS = 3
QUERIES = 5_000  # one pass, about a quarter of a second
MIN_PASSES = 3


def set_up(text: str):
    """Parse, validate and convert; then the first ``up`` and ``expand`` on each rep.

    The first query builds each rep's lazy cover index, so it is set-up work:
    every later query reuses it.
    """
    t0 = time.perf_counter()
    doc = algebra.parse_calendar(text)
    if not algebra.validate(doc).ok:
        raise RuntimeError("hour calendar fails validation")
    cache: dict = {}
    reps = {
        name: convert.convert_expression(algebra.rewrite_to_bottom(doc, name), cache=cache)
        for name in ("month", "year")
    }
    t1 = time.perf_counter()
    wrong = 0
    for name, rep in reps.items():
        wrong += rep.up(1) != inputs.expected_up_hour(name, 1)
        wrong += rep.expand(1) != inputs.expected_expand_hour(name, 1)
    t2 = time.perf_counter()
    return reps, t1 - t0, t2 - t1, wrong


def ask(reps, queries):
    """Answer the queries in order, one at a time; time each call alone and check it."""
    lat = {"up": array("q"), "expand": array("q")}
    wrong = 0
    clock = time.perf_counter_ns
    for kind, name, arg in queries:
        fn = getattr(reps[name], kind)
        t0 = clock()
        answer = fn(arg)
        t1 = clock()
        lat[kind].append(t1 - t0)
        if kind == "up":
            wrong += answer != inputs.expected_up_hour(name, arg)
        else:
            wrong += answer != inputs.expected_expand_hour(name, arg)
    return lat, wrong


def pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(text, seed, seconds):
    """Set up SETUPS times, then repeat one seeded query pass, all within ``seconds``.

    Other tenants of a shared host slow this process for seconds at a time,
    which moves medians by tens of percent between runs.  Every pass does
    identical work, so the fastest pass (and the fastest convert) estimates
    the uncontended cost.  A pass starts only if one more fits, but at least
    MIN_PASSES run.  The ``*_p50_us``/``*_p99_us`` details pool every pass.
    """
    start = time.perf_counter()
    setups, converts, firsts, probes, wrong = [], [], [], [], 0
    reps = None
    for _ in range(SETUPS):
        reps = None  # let the previous reps go before building the next
        reps, conv_s, first_s, bad = set_up(text)
        setups.append(IMPORT_S + conv_s + first_s)
        converts.append(conv_s)
        firsts.append(first_s)
        wrong += bad
        probes.append(inputs.probe_s())
    queries = inputs.hour_queries(seed, QUERIES)
    best, passes, pass_s = None, 0, 0.0
    pooled = {"up": array("q"), "expand": array("q")}
    while passes < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        lat, bad = ask(reps, queries)
        pass_s = time.perf_counter() - pass_start
        wrong += bad
        passes += 1
        for kind in pooled:
            pooled[kind].extend(lat[kind])
        probes.append(inputs.probe_s())
        busy_ns = sum(lat["up"]) + sum(lat["expand"])
        if best is None or busy_ns < best[0]:
            best = (busy_ns, lat)
    busy_ns, lat = best
    return {
        "setup_s": statistics.median(setups),
        "convert_s": min(converts),
        "first_query_s": min(firsts),
        "up_p50_us": pct(pooled["up"], 0.5) / 1e3,
        "up_p99_us": pct(pooled["up"], 0.99) / 1e3,
        "expand_p50_us": pct(pooled["expand"], 0.5) / 1e3,
        "expand_p99_us": pct(pooled["expand"], 0.99) / 1e3,
        "latency_ms": pct(lat["up"] + lat["expand"], 0.5) / 1e6,
        "ops_per_s": len(queries) / (busy_ns / 1e9),
        "up_n": len(pooled["up"]),
        "expand_n": len(pooled["expand"]),
        "passes": passes,
        "probe_min_s": min(probes),
        "setups": SETUPS,
        "periods": [rep.period for rep in reps.values()],
        "attempted": passes * len(queries) + 4 * SETUPS,
        "wrong": wrong,
    }


def traced(text, seed, spans_out):
    import tracing

    queries = inputs.hour_queries(seed, QUERIES)

    def once():
        start = time.perf_counter()
        reps, _, _, wrong = set_up(text)
        _, bad = ask(reps, queries)
        return time.perf_counter() - start, reps, wrong + bad

    # the faster of two untraced runs, so first-call costs do not count as savings
    untraced_s, wrong = [], 0
    for _ in range(2):
        elapsed, reps, bad = once()
        reps = None  # free before the next set-up
        untraced_s.append(elapsed)
        wrong += bad
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced_s, reps, bad = once()
    tracing.add_held(tracer.counters, reps.values())
    tracer.write(spans_out)
    summary = tracer.summary()
    summary.update(
        untraced_s=min(untraced_s),
        traced_s=traced_s,
        attempted=3 * (4 + len(queries)),
        wrong=wrong + bad,
        periods=[rep.period for rep in reps.values()],
    )
    return summary


def main() -> int:
    path, seed, seconds, trace, spans_out = sys.argv[1:]
    text = open(path).read()
    if trace == "1":
        result = traced(text, int(seed), spans_out)
    else:
        result = measure(text, int(seed), float(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
