"""granlower benchmark: three closed-loop workloads, one operation at a time.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json and perfbench/README.md):
    gregorian_convert  ``granlower convert`` on the Gregorian fixtures, as subprocesses
    hour_query         hour-bottom Gregorian held in memory, seeded up/expand stream
    deep_defs          convert/verify of deep and shared definition chains

With ``--trace 0`` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` a separate traced run carries every
per-layer metric.  Lines before it give per-input rows and detail metrics.
Everything is single-threaded: there is no waited time to record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import inputs
import procs
import tracing

OP_CAP_S = 20  # per-command time cap, 3x the slowest seen; past it is a "timeout" failure
MIN_PASSES = 4  # each command's fastest run is taken over at least this many

SINGLE_THREADED = "single-threaded: every layer runs on the caller's thread, so no waited time exists"

# end-to-end times, scaled to the host speed at which the probe job takes
# inputs.PROBE_REF_S: +1 for a time, -1 for a rate
SCALED = {"setup_s": 1, "convert_s": 1, "latency_ms": 1, "ops_per_s": -1}


@dataclass
class Op:
    """One CLI invocation of a workload: its arguments and how to check its stdout."""

    id: str
    kind: str  # "convert" or "verify"
    cli_args: list[str]
    check: Callable[[bytes], str | None]
    known_defect: str | None = None  # a documented defect this input still shows


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.wrong = 0

    def record(self, op: Op, failure: str | None, wrong: bool = False) -> None:
        self.attempted += 1
        if failure is None:
            return
        if op.known_defect and not wrong:
            self.known.append(f"{op.id}: {failure} ({op.known_defect})")
        else:
            self.failures.append(f"{op.id}: {failure}")
            self.wrong += wrong


# ---------------------------------------------------------------------------
# output checks


def _convert_check(op_id: str, reference: Callable[[dict], str | None]):
    expected = inputs.digests().get(op_id)

    def check(stdout: bytes) -> str | None:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        problem = reference(doc)
        if problem is None and expected is not None and inputs.sha256(stdout) != expected:
            problem = "stdout differs from the recorded SHA-256"
        return problem

    return check


def _gregorian_reference(doc: dict) -> str | None:
    reps = {g["name"]: g["rep"] for g in doc["granularities"]}
    for name in ("month", "year"):
        if name not in reps:
            return f"no definition named {name}"
        problem = inputs.check_gregorian_rep(name, reps[name])
        if problem:
            return problem
    return None


def _defined_names(path) -> list[str]:
    # read the names straight from the text, without the package's parser
    return [
        line.split("=")[0].strip()
        for line in path.read_text().splitlines()
        if "=" in line and not line.lstrip().startswith("#")
    ]


def _verify_check(path):
    names = _defined_names(path)
    return lambda stdout: inputs.check_verify_output(stdout.decode(), names)


def _chain_check(defs: int):
    return lambda doc: inputs.check_chain_output(doc, defs)


def gregorian_ops() -> list[Op]:
    ops = []
    for fixture, extra in (
        ("gregorian.cal", []),
        ("gregorian_doubled.cal", []),
        ("gregorian_doubled.cal", ["--no-minimize"]),
    ):
        op_id = " ".join(["convert", fixture, *extra])
        path = str(inputs.FIXTURES / fixture)
        ops.append(Op(op_id, "convert", ["convert", path, *extra],
                      _convert_check(op_id, _gregorian_reference)))
    return ops


def deep_ops(seed: int) -> list[Op]:
    paths = inputs.write_inputs()
    verify_seed = str(seed)
    ops = []
    for key, defs in ((f"union{inputs.UNION_CONVERT}", inputs.UNION_CONVERT),
                      (f"linear{inputs.LINEAR_SHORT}", inputs.LINEAR_SHORT),
                      (f"linear{inputs.LINEAR_LONG}", inputs.LINEAR_LONG)):
        op_id = f"convert {key}"
        ops.append(Op(op_id, "convert", ["convert", str(paths[key])],
                      _convert_check(op_id, _chain_check(defs))))
    ops[-1].known_defect = "known RecursionError on a 5000-definition chain"
    for path in (paths[f"union{inputs.UNION_VERIFY}"], paths[f"linear{inputs.LINEAR_SHORT}"],
                 inputs.FIXTURES / "basic.cal", inputs.FIXTURES / "toyleap.cal"):
        ops.append(Op(f"verify {path.stem}", "verify",
                      ["verify", str(path), "--seed", verify_seed], _verify_check(path)))
    return ops


# ---------------------------------------------------------------------------
# workloads


def _import_s(sp: procs.Spawner) -> float:
    """Wall time of one interpreter start plus ``import granlower.cli``."""
    outcome = sp.run(["-c", "import granlower.cli"], OP_CAP_S)
    if outcome.failure():
        raise RuntimeError(f"cannot import granlower.cli: {outcome.failure()}")
    return outcome.wall_s


def _periods(stdout: bytes) -> list[int]:
    try:
        grans = json.loads(stdout)["granularities"]
        return [g["rep"]["P"] for g in grans if "P" in g["rep"]]
    except (ValueError, KeyError, TypeError):
        return []  # the check has already reported the malformed output


def cli_measure(
    sp: procs.Spawner, ops: list[Op], seed: int, seconds: float, tally: Tally, rows: list[str]
) -> dict:
    """Closed loop of whole passes over ``ops`` (seeded order) within ``seconds``.

    Other tenants of a shared host slow whole commands by tens of percent for
    seconds at a time, so times are each command's fastest run, and a pass
    starts only if one more fits (after the first MIN_PASSES).  Set-up is sampled after every command, so
    its median spans the whole run.
    """
    _import_s(sp)  # compiles the bytecode once, untimed
    setups, probes = [], []
    rng = random.Random(seed)
    walls, rss, out_bytes, periods = defaultdict(list), defaultdict(list), {}, {}
    checked: set[tuple[str, str]] = set()
    passes, start, pass_s = 0, time.perf_counter(), 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        order = ops[:]
        rng.shuffle(order)
        for op in order:
            outcome = sp.run(["-m", "granlower.cli", *op.cli_args], OP_CAP_S)
            failure = outcome.failure()
            digest = inputs.sha256(outcome.stdout)
            wrong = False
            if failure is None and (op.id, digest) not in checked:
                failure = op.check(outcome.stdout)
                wrong = failure is not None
                if not wrong:
                    checked.add((op.id, digest))
                if op.kind == "convert" and op.id not in periods:
                    periods[op.id] = _periods(outcome.stdout)
            tally.record(op, failure, wrong)
            walls[op.id].append(outcome.wall_s)
            rss[op.id].append(outcome.rss_mb)
            out_bytes[op.id] = len(outcome.stdout)
            rows.append(f"op {op.id}: wall_s={outcome.wall_s:.4f} rss_mb={outcome.rss_mb:.1f} "
                        f"stdout_bytes={len(outcome.stdout)} result={failure or 'ok'}")
            setups.append(_import_s(sp))
            probes.append(inputs.probe_s())
        passes += 1
        pass_s = time.perf_counter() - pass_start
    best = {op_id: min(ws) for op_id, ws in walls.items()}
    all_periods = [p for ps in periods.values() for p in ps]
    return {
        "setup_s": statistics.median(setups),
        "setups": len(setups),
        "convert_s": sum(best[op.id] for op in ops if op.kind == "convert"),
        "verify_s": sum(best[op.id] for op in ops if op.kind == "verify") or None,
        "latency_ms": statistics.geometric_mean(best.values()) * 1e3,
        "ops_per_s": len(best) / sum(best.values()),
        "peak_rss_mb": max(statistics.median(r) for r in rss.values()),
        "output_bytes": sum(out_bytes.values()),
        "period_total": sum(all_periods),
        "period_mean": statistics.fmean(all_periods) if all_periods else 0.0,
        "passes": passes,
        "commands": len(ops),
        "probe_min_s": min(probes),
    }


def cli_trace(sp: procs.Spawner, ops: list[Op], seed: int, tally: Tally, rows: list[str]) -> dict:
    """One traced pass: each command in-process through ``granlower.cli.main``."""
    order = ops[:]
    random.Random(seed).shuffle(order)
    parts = []
    for op in order:
        spans = inputs.WORK / f"spans-{op.id.replace(' ', '_')}.bin"
        stdout = inputs.WORK / "traced.stdout"
        child = sp.run([str(inputs.HERE / "cli_child.py"), str(spans), str(stdout), *op.cli_args],
                       3 * OP_CAP_S)
        failure = child.failure()
        wrong = False
        if failure is None:
            part = json.loads(child.stdout.splitlines()[-1])
            parts.append(part)
            if part["outcome"] != 0:
                failure = f"in-process: {part['outcome']}"
            else:
                failure = op.check(stdout.read_bytes())
                wrong = failure is not None
        tally.record(op, failure, wrong)
        rows.append(f"traced op {op.id}: result={failure or 'ok'}")
    return tracing.layer_metrics(parts)


def hour_run(
    sp: procs.Spawner, seed: int, seconds: float, trace: bool, tally: Tally, rows: list[str]
) -> dict:
    paths = inputs.write_inputs()
    child = sp.run(
        [str(inputs.HERE / "hour_child.py"), str(paths["gregorian_hour"]), str(seed),
         str(seconds), "1" if trace else "0", str(inputs.WORK / "spans-hour.bin")],
        170,
    )
    failure = child.failure()
    if failure:
        raise RuntimeError(f"hour_query child failed: {failure}\n{child.stderr.decode()[-2000:]}")
    result = json.loads(child.stdout.splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failures += ["hour_query: wrong answer"] * result["wrong"]
    tally.wrong += result["wrong"]
    rows.append(f"op hour_query: rss_mb={child.rss_mb:.1f} periods={result['periods']} "
                f"wrong={result['wrong']}")
    if trace:
        return tracing.layer_metrics([result])
    result.update(
        peak_rss_mb=child.rss_mb,
        queries_per_s=result["ops_per_s"],
        period_total=sum(result["periods"]),
        period_mean=statistics.fmean(result["periods"]),
    )
    return result


# ---------------------------------------------------------------------------
# reporting

DETAIL = [  # every end-to-end figure named for the workloads, "n/a" where it does not apply
    ("setup_s", "s"), ("convert_s", "s"), ("verify_s", "s"), ("first_query_s", "s"),
    ("up_p50_us", "us"), ("up_p99_us", "us"), ("expand_p50_us", "us"), ("expand_p99_us", "us"),
    ("queries_per_s", "1/s"), ("peak_rss_mb", "MB"), ("output_bytes", "bytes"),
    ("period_total", "count"), ("failed_ratio", "ratio"), ("probe_min_s", "s"),
]


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(inputs.SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = inputs.ROOT / "BENCHMARK.json"
    if not (inputs.SRC / "granlower" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: no granlower sources under {inputs.SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    inputs.WORK.mkdir(exist_ok=True)

    tally, rows = Tally(), []
    trace = bool(args.trace)
    with procs.Spawner() as sp:
        if args.workload == "hour_query":
            values = hour_run(sp, args.seed, args.seconds, trace, tally, rows)
        else:
            ops = gregorian_ops() if args.workload == "gregorian_convert" else deep_ops(args.seed)
            if trace:
                values = cli_trace(sp, ops, args.seed, tally, rows)
            else:
                values = cli_measure(sp, ops, args.seed, args.seconds, tally, rows)

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "src_loc": src_loc(),
        "rss_floor_mb": sp.rss_floor_mb,
        "threads": SINGLE_THREADED,
    }
    print("facts " + json.dumps(facts))
    for row in rows:
        print(row)
    for known, times in Counter(tally.known).items():
        print(f"known defect, {times}x (reported, not counted as failed): {known}")
    for failure, times in Counter(tally.failures).items():
        print(f"FAILED {times}x: {failure}")
    if not trace:
        all_failed = len(tally.failures) + len(tally.known)
        values["failed_ratio"] = all_failed / tally.attempted
        for name, unit in DETAIL:
            value = values.get(name)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"detail {name} = {shown} {unit}")
        if "up_n" in values:
            print(f"detail samples: up n={values['up_n']}, expand n={values['expand_n']} "
                  f"over {values['passes']} passes, set-up n={values['setups']}")
        else:
            print(f"detail samples: {values['passes']} passes of {values['commands']} commands, "
                  f"set-up n={values['setups']}")

    if not trace:
        scale = inputs.PROBE_REF_S / values["probe_min_s"]
        print(f"detail host_scale = {scale:.6g} (probe job fastest {values['probe_min_s'] * 1e3:.4g} ms "
              f"vs {inputs.PROBE_REF_S * 1e3:g} ms; gated times are the wall times above times this)")
        values.update({name: values[name] * scale ** sign for name, sign in SCALED.items()})

    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
