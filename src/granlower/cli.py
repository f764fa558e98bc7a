"""Command-line front end: convert calendar files, query and verify the results.

Commands
--------
``granlower convert FILE [--target NAME] [--minimize|--no-minimize] [--gstp]
[--format json|text]``
    Lower every definition (or one) to its periodic representation.
``granlower expand FILE NAME --labels A..B``
    Print the bottom indices of a granule range.
``granlower up FILE NAME --instant T``
    Print the label of the granule covering a bottom instant.
``granlower verify FILE [--window W] [--seed S]``
    Check every definition against the brute-force evaluator.

Exit codes: 0 ok, 1 usage or output pipe closed by its reader, 2
parse/validation, 3 conversion precondition, 4 verification mismatch.  The
environment variable ``GRANLOWER_MAX_PERIOD`` (default 10**9) caps result
periods so pathological lcm blowups fail fast.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra as ast

# rewrite_to_bottom is no longer called here; it stays bound in this module
# for callers that look it up, or wrap it, here
from .algebra import (
    CalendarSyntaxError,
    parse_calendar,
    rewrite_to_bottom,
    validate,
)
from .convert import DEFAULT_MAX_PERIOD, ConversionError, convert_calendar, gstp_relabel
from .core import EmptyRep, PeriodicRep, Rep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONVERT = 3
EXIT_VERIFY = 4


def __getattr__(name: str):
    # the oracle is compiled only when verify, or a caller that reads (or
    # wraps) these names here, needs it; a binding set here (a wrapper) wins
    if name not in ("Definitions", "verify_against_oracle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return globals().setdefault(name, getattr(oracle, name))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _max_period() -> int:
    raw = os.environ.get("GRANLOWER_MAX_PERIOD")
    if not raw:
        return DEFAULT_MAX_PERIOD
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        print(f"granlower: invalid GRANLOWER_MAX_PERIOD {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return value


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"granlower: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    try:
        doc = parse_calendar(text)
    except CalendarSyntaxError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    report = validate(doc)
    if not report.ok:
        print(f"{path}: validation failed\n{report}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return doc


def _convert_all(doc, names, minimize: bool, gstp: bool):
    # names None means every definition.  GRANLOWER_MAX_PERIOD is read only
    # once every name is known, so an unknown name is the error reported;
    # convert_calendar needs the cap before it can raise its KeyError
    unknown = () if names is None else set(names) - {doc.bottom, *doc.names}
    if unknown:
        print(f"granlower: no definition named {min(unknown)!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        reps = convert_calendar(doc, names, minimize=minimize, max_period=_max_period())
        for name in reps if gstp else ():
            reps[name] = gstp_relabel(reps[name])
    except ConversionError as exc:
        # convert_calendar names the failing definition; gstp fails on a requested name
        print(f"granlower: {exc.definition or name}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONVERT) from None
    return [(name, reps[name]) for name in (reps if names is None else names)]


class _Joiner:
    """Joins the indices of ``(start, end)`` runs with ``sep``.

    From 1000 up, the numbers of a block [1000k, 1000k + 999] all have the
    same width, so each run is sliced out of its blocks' text: Python-level
    work is per run or per 1,000 indices, not per index, and a run inside
    one block is one slice.  One joiner serves one render and holds only the
    block it built last.
    """

    def __init__(self, sep: str):
        self.sep = sep
        # the held block's first index, text and entry width; the loop in
        # join asks only for indices from 1000 up, so base 0 holds no block
        self.held = (0, "", 0)
        self.parts = None  # "", "000" + sep, ..., "999" + sep, built on first use

    def _hold(self, base: int) -> tuple[int, str, int]:
        if self.parts is None:
            self.parts = ["", *(f"{j:03d}{self.sep}" for j in range(1000))]
        block = str(base // 1000).join(self.parts)
        self.held = base, block, len(block) // 1000
        return self.held

    def join(self, runs) -> str:
        sep = self.sep
        base, block, width = self.held
        parts = []
        for s, e in runs:
            if s < 1000:  # below 1000, negatives too, widths vary: one str per index
                parts.append(sep.join(map(str, range(s, min(e, 999) + 1))))
                s = 1000
            while s <= e:
                if not base <= s < base + 1000:
                    base, block, width = self._hold(s - s % 1000)
                stop = e + 1 if e < base + 1000 else base + 1000
                parts.append(block[(s - base) * width : (stop - base) * width - len(sep)])
                s = stop
        return sep.join(parts)


def _stored_runs(rep: PeriodicRep):
    # (label, runs) of the explicit window, bounds ignored as in to_json_dict
    return ((label, rep._runs[label]) for label in rep.labels)


def _render_text(reps, out) -> None:
    # whole granules in batches, as _render_json writes them
    join = _Joiner(" ").join
    batch, size = [], 0
    for i, (name, rep) in enumerate(reps):
        batch.append(("\n\n" if i else "") + f"granularity {name}")
        if isinstance(rep, EmptyRep):
            batch.append("\nempty")
            continue
        if rep.bounds is None:
            bounds = "none"
        else:
            lo, hi = rep.bounds
            bounds = f"{'-inf' if lo is None else lo}..{'+inf' if hi is None else hi}"
        suffix = f" | P={rep.period} N={rep.step} bounds={bounds}"
        for label, runs in _stored_runs(rep):
            line = f"\n{label}: {join(runs)}{suffix}"
            batch.append(line)
            size += len(line)
            if size >= _BATCH_CHARS:
                out.write("".join(batch))
                batch, size = [], 0
    batch.append("\n")
    out.write("".join(batch))


# json.dumps(..., indent=2) layout: a granule's "bottoms" items sit 14
# spaces deep, inside granularities -> rep -> labels -> label object
_BOTTOMS_SEP = ",\n" + " " * 14
_BATCH_CHARS = 1 << 16


def _json_bounds(rep: PeriodicRep) -> str:
    if rep.bounds is None:
        return "null"
    lo, hi = rep.bounds
    first = '"-inf"' if lo is None else lo
    last = '"+inf"' if hi is None else hi
    return f'{{\n          "first": {first},\n          "last": {last}\n        }}'


def _render_json(doc, reps, out) -> None:
    """Write the bytes of ``json.dumps(payload, indent=2) + "\\n"``, where
    payload holds each rep's ``to_json_dict()``.

    The stdlib encoder is pure Python once ``indent`` is set and visits every
    bottom index; this writer formats each granule from its runs instead.  It
    writes whole granules in batches of about ``_BATCH_CHARS``, so a pipe
    stays fast and memory stays bounded by the largest granule.
    """
    # the parser admits only [A-Za-z_][A-Za-z0-9_-]* as a name, which JSON
    # quotes as it stands
    head = f'{{\n  "calendar": "{doc.name}",\n  "bottom": "{doc.bottom}",\n'
    if not reps:
        out.write(head + '  "granularities": []\n}\n')
        return
    join = _Joiner(_BOTTOMS_SEP).join
    batch, size = [head, '  "granularities": ['], 0
    for i, (name, rep) in enumerate(reps):
        batch.append(f'{"," if i else ""}\n    {{\n      "name": "{name}",\n      "rep": {{\n')
        if isinstance(rep, EmptyRep):
            batch.append('        "empty": true\n      }\n    }')
            continue
        batch.append(f'        "P": {rep.period},\n        "N": {rep.step},\n        "labels": [')
        for j, (label, runs) in enumerate(_stored_runs(rep)):
            granule = (
                f'{"," if j else ""}\n          {{\n            "label": {label},\n'
                f'            "bottoms": [\n              {join(runs)}\n'
                "            ]\n          }"
            )
            batch.append(granule)
            size += len(granule)
            if size >= _BATCH_CHARS:
                out.write("".join(batch))
                batch, size = [], 0
        batch.append(f'\n        ],\n        "bounds": {_json_bounds(rep)}\n      }}\n    }}')
    batch.append("\n  ]\n}\n")
    out.write("".join(batch))


def cmd_convert(args) -> int:
    doc = _load(args.file)
    names = [args.target] if args.target else None
    reps = _convert_all(doc, names, args.minimize, args.gstp)
    if args.format == "json":
        _render_json(doc, reps, sys.stdout)
    else:
        _render_text(reps, sys.stdout)
    return EXIT_OK


def _parse_label_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        print(f"granlower: bad label range {spec!r} (use A or A..B)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    if b < a:
        print(f"granlower: empty label range {spec!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return a, b


def cmd_expand(args) -> int:
    doc = _load(args.file)
    ((_, rep),) = _convert_all(doc, [args.name], True, False)
    lo, hi = _parse_label_range(args.labels)
    join = _Joiner(" ").join
    for label in range(lo, hi + 1):
        runs = rep.runs_of(label) if isinstance(rep, PeriodicRep) else ()
        print(f"{label}: {join(runs) if runs else 'empty'}")
    return EXIT_OK


def cmd_up(args) -> int:
    doc = _load(args.file)
    ((_, rep),) = _convert_all(doc, [args.name], True, False)
    label = rep.up(args.instant)
    print("none" if label is None else label)
    return EXIT_OK


def _spot_check(rep: Rep, rng: random.Random, lo: int, hi: int) -> str | None:
    # seeded up/expand round trips inside the verified window
    for _ in range(20):
        t = rng.randint(lo, hi)
        label = rep.up(t)
        if label is not None and t not in rep.expand(label):
            return f"up({t}) = {label} but granule does not contain {t}"
    return None


def cmd_verify(args) -> int:
    import random  # here, so the other commands do not load it

    doc = _load(args.file)
    reps = _convert_all(doc, None, True, False)
    periods = [r.period for _, r in reps if isinstance(r, PeriodicRep)]
    needed = 3 * max(periods, default=1)
    window = args.window or needed
    if window < needed:
        print(
            f"granlower: warning: window {window} below 3x max period; raised to {needed}",
            file=sys.stderr,
        )
        window = needed
    # window >= 3 * every period, so every definition is scored on the same
    # interior; verifying it by name evaluates each definition once per window
    base = window // 3
    definitions = __getattr__("Definitions")(doc.definitions)
    verify = __getattr__("verify_against_oracle")
    rng = random.Random(args.seed)
    failures = 0
    for name, rep in reps:
        issues = verify(ast.Name(name), rep, base, definitions=definitions)
        probe = _spot_check(rep, rng, 1, base)
        if probe:
            issues.append(probe)
        if issues:
            failures += 1
            print(f"FAIL {name}")
            for line in issues:
                print(f"  {line}")
        else:
            print(f"ok {name} (interior [1, {base}])")
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="granlower", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="lower definitions to periodic representations")
    p_convert.add_argument("file")
    p_convert.add_argument("--target", help="convert a single definition")
    p_convert.add_argument(
        "--minimize", default=True, action=argparse.BooleanOptionalAction,
        help="interleave period minimization (default on)",
    )
    p_convert.add_argument("--gstp", action="store_true", help="relabel for the constraint solver convention")
    p_convert.add_argument("--format", choices=("json", "text"), default="json")
    p_convert.set_defaults(run=cmd_convert)

    p_expand = sub.add_parser("expand", help="print granule contents for a label range")
    p_expand.add_argument("file")
    p_expand.add_argument("name")
    p_expand.add_argument("--labels", required=True, help="label or range A..B")
    p_expand.set_defaults(run=cmd_expand)

    p_up = sub.add_parser("up", help="label of the granule covering an instant")
    p_up.add_argument("file")
    p_up.add_argument("name")
    p_up.add_argument("--instant", type=int, required=True)
    p_up.set_defaults(run=cmd_up)

    p_verify = sub.add_parser("verify", help="compare conversions against the brute-force evaluator")
    p_verify.add_argument("file")
    p_verify.add_argument("--window", type=int, default=0, help="minimum window width in bottom granules")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for spot-check probes")
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:  # the reader left (say, `| head`); exit's flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
