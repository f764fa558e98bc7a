"""Spans around granlower's layer boundaries, installed from outside the package.

Each wrapper replaces a binding where its callers look it up: module globals
of ``granlower.convert``/``minimize``/``oracle``/``cli``/``algebra`` and
methods on ``PeriodicRep``.  A span is ``(name, start, end, parent)``; spans
live in flat arrays in memory and are written out once, at the end.  A
span's self time is its duration minus the durations of its direct children
(one thread, so children never overlap).  The wrapper's own cost lands in the
caller's self time and in the reported tracing overhead.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter_ns

CONVERT_OPS = (
    "group", "alter", "shift", "combine", "anchored", "subset",
    "select_down", "select_up", "select_intersect", "set_op",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span; ``after(args, result, before(args))`` counts."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            state = before(args) if before else None
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = perf_counter_ns()
            if after:
                after(args, result, state)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def summary(self) -> dict:
        """Calls and self nanoseconds per span name, plus the counters."""
        child = [0] * len(self.start)
        # a span left open (end 0) was cut short by an exception raised in the wrapper
        durations = [max(e - s, 0) for s, e in zip(self.start, self.end)]
        for d, p in zip(durations, self.parent):
            if p >= 0:
                child[p] += d
        calls, self_ns = Counter(), Counter()
        for nid, d, c in zip(self.name, durations, child):
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += d - c
        return {"calls": calls, "self_ns": self_ns, "counters": self.counters, "spans": len(durations)}

    def write(self, path) -> None:
        """One JSON header line, then the name/start/end/parent columns as raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent):
                col.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from granlower import algebra, cli, convert, core, oracle

    # the package re-exports the function minimize() under the module's name
    minimize = importlib.import_module("granlower.minimize")

    count = tracer.counters
    rep_cls = core.PeriodicRep

    def cover_built(args, result, was_empty):
        if was_empty:
            count["core.cover_index.entries"] += len(result)

    tracer.patch(rep_cls, "expand", "core.expand")
    tracer.patch(rep_cls, "up", "core.up")
    tracer.patch(rep_cls, "lhat", "core.lhat")
    tracer.patch(rep_cls, "_cover_index", "core.cover_index",
                 before=lambda a: a[0]._cover is None, after=cover_built)
    tracer.patch(convert, "normalize_alignment", "core.normalize_alignment")
    tracer.patch(convert, "mindist", "core.mindist")

    def produced(args, result, _):
        if isinstance(result, rep_cls):
            count["convert.explicit_granules"] += len(result.explicit)

    for op in CONVERT_OPS:
        tracer.patch(convert, f"convert_{op}", f"convert.{op}", after=produced)

    def driver_done(args, result, cache_size):
        # a miss always stores its result; an unchanged cache means a hit
        count["convert.cache_hits"] += len(args[2]) == cache_size

    tracer.patch(convert, "_convert", "convert.driver",
                 before=lambda a: len(a[2]), after=driver_done)

    def minimized(args, result, _):
        if isinstance(result, rep_cls):
            count["minimize.period_in_total"] += args[0].period
            count["minimize.period_out_total"] += result.period

    def reduction_checked(args, result, _):
        count["minimize.accepted"] += bool(result)

    tracer.patch(convert, "minimize_rep", "minimize.minimize", after=minimized)
    tracer.patch(minimize, "is_valid_reduction", "minimize.is_valid_reduction",
                 after=reduction_checked)

    for module in (cli, algebra):
        for fn in ("parse_calendar", "validate", "rewrite_to_bottom"):
            tracer.patch(module, fn, f"algebra.{fn}")
    tracer.patch(cli, "verify_against_oracle", "oracle.verify_against_oracle")
    tracer.patch(oracle, "eval_window", "oracle.eval_window")
    tracer.patch(oracle, "compare_with_periodic", "oracle.compare_with_periodic")

    def held(args, result, _):
        add_held(count, [rep for _, rep in result])

    tracer.patch(cli, "_convert_all", "cli.convert_all", after=held)
    tracer.patch(cli, "_render_json", "cli.render")
    tracer.patch(cli, "_render_text", "cli.render")


def add_held(count: Counter, reps) -> None:
    """Count the reps a command holds: bottom indices stored and their periods."""
    for rep in reps:
        for granule in getattr(rep, "explicit", {}).values():
            count["core.stored_indices"] += len(granule)


def layer_metrics(parts: list[dict]) -> dict[str, float]:
    """Fold the summaries of every traced operation into the per-layer metrics."""
    calls, self_ns, count = Counter(), Counter(), Counter()
    for part in parts:
        calls.update(part["calls"])
        self_ns.update(part["self_ns"])
        count.update(part["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    spans = ["core.expand", "core.up", "core.cover_index", "core.lhat",
             "core.normalize_alignment", "core.mindist", "convert.driver",
             "minimize.minimize", "minimize.is_valid_reduction",
             "algebra.parse_calendar", "algebra.validate", "algebra.rewrite_to_bottom",
             "oracle.eval_window", "oracle.compare_with_periodic", "cli.render"]
    spans += [f"convert.{op}" for op in CONVERT_OPS]
    for name in spans:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_ns[name] / 1e9
    m["core.cover_index.entries"] = count["core.cover_index.entries"]
    m["core.stored_indices"] = count["core.stored_indices"]
    m["convert.cache_hit_ratio"] = ratio(count["convert.cache_hits"], calls["convert.driver"])
    m["convert.explicit_granules"] = count["convert.explicit_granules"]
    m["minimize.accept_ratio"] = ratio(count["minimize.accepted"], calls["minimize.is_valid_reduction"])
    m["minimize.period_in_total"] = count["minimize.period_in_total"]
    m["minimize.period_out_total"] = count["minimize.period_out_total"]
    m["oracle.window_retries"] = calls["oracle.eval_window"] - calls["oracle.verify_against_oracle"]
    m["cli.output_bytes"] = count["cli.output_bytes"]
    m["trace.spans"] = sum(p["spans"] for p in parts)
    untraced = sum(p["untraced_s"] for p in parts)
    traced = sum(p["traced_s"] for p in parts)
    m["trace.untraced_s"] = untraced
    m["trace.traced_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    return m
