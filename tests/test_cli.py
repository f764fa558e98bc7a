import contextlib
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granlower import cli
from granlower.algebra import MAX_NESTING, OPERATORS, parse_calendar
from granlower.cli import main
from granlower.core import EmptyRep, PeriodicRep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# "broken" fails to convert: group needs a full-integer labeled operand, and
# monday keeps one day label in seven
FAILING = (
    "calendar c bottom day;\n"
    "week = group(7, day);\n"
    "monday = selectdown(1, 1, day, week);\n"
    "broken = group(2, monday);\n"
)


class TestConvert:
    def test_week_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "week")
        assert code == 0
        payload = json.loads(out)
        assert payload["bottom"] == "day"
        (entry,) = payload["granularities"]
        assert entry["name"] == "week"
        assert entry["rep"]["P"] == 7 and entry["rep"]["N"] == 1
        assert entry["rep"]["labels"] == [{"label": 1, "bottoms": [1, 2, 3, 4, 5, 6, 7]}]

    def test_text_format(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "mid_weeks",
            "--format", "text",
        )
        assert code == 0
        assert out == "granularity mid_weeks\n1: 1 2 3 4 5 6 7 | P=7 N=1 bounds=2..5\n"

    def test_empty_granularity_rendering(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "never",
            "--format", "text",
        )
        assert code == 0 and out == "granularity never\nempty\n"
        code, out, _ = run(capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "never")
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"] == {"empty": True}

    def test_bottom_only_calendar(self, capsys, tmp_path):
        path = tmp_path / "empty.cal"
        path.write_text("calendar nothing bottom tick;\n")
        code, out, _ = run(capsys, "convert", str(path), "--target", "tick")
        assert code == 0
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"] == {"P": 1, "N": 1, "labels": [{"label": 1, "bottoms": [1]}], "bounds": None}

    def test_deterministic_output(self, capsys, fixtures_dir):
        _, first, _ = run(capsys, "convert", str(fixtures_dir / "basic.cal"))
        _, second, _ = run(capsys, "convert", str(fixtures_dir / "basic.cal"))
        assert first == second

    def test_no_minimize_flag(self, capsys, tmp_path):
        path = tmp_path / "c.cal"
        path.write_text(
            "calendar c bottom day;\n"
            "wk = alter(1, -1, 2, day, alter(1, 1, 2, day, group(7, day)));\n"
        )
        code, out, _ = run(capsys, "convert", str(path), "--no-minimize")
        assert code == 0
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"]["P"] == 14 and entry["rep"]["N"] == 2
        code, out, _ = run(capsys, "convert", str(path))
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"]["P"] == 7 and entry["rep"]["N"] == 1

    def test_gstp_flag(self, capsys, tmp_path):
        path = tmp_path / "c.cal"
        # us_week anchors weeks on sundays; its first granule covers day 0
        path.write_text(
            "calendar c bottom day;\n"
            "week = group(7, day);\n"
            "sunday = selectdown(7, 1, day, week);\n"
            "us_week = anchor(day, sunday);\n"
        )
        code, out, _ = run(capsys, "convert", str(path), "--target", "us_week", "--gstp")
        assert code == 0
        (entry,) = json.loads(out)["granularities"]
        rep = PeriodicRep.from_json_dict(entry["rep"])
        assert rep.expand(1) and min(rep.expand(1)) > 0
        assert rep.step == len(rep.explicit)  # full-integer after relabeling

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cal"
        path.write_text("calendar c bottom day;\nx = group(2, y);\n")
        code, _, err = run(capsys, "convert", str(path))
        assert code == 2 and "unknown granularity" in err

    def test_validation_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cal"
        path.write_text("calendar c bottom day;\ns = subset(1, 5, day);\nu = group(2, s);\n")
        code, out, err = run(capsys, "convert", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"{path}: validation failed\n"
            "u: [bounded-operand] 's' carries subset bounds and cannot be an operand\n"
        )

    def test_conversion_error_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.cal"
        path.write_text(
            "calendar c bottom day;\n"
            "week = group(7, day);\n"
            "monday = selectdown(1, 1, day, week);\n"
            "broken = group(2, monday);\n"
        )
        code, _, err = run(capsys, "convert", str(path))
        assert code == 3 and "full-integer" in err

    def test_unknown_target_exit_2(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "nope")
        assert code == 2 and "no definition" in err

    @pytest.mark.parametrize(
        "command, args",
        [
            ("convert", ["--target", "{}"]),
            ("expand", ["{}", "--labels", "1"]),
            ("up", ["{}", "--instant", "1"]),
        ],
    )
    def test_unknown_name_reported_before_bad_cap(
        self, capsys, fixtures_dir, monkeypatch, command, args
    ):
        monkeypatch.setenv("GRANLOWER_MAX_PERIOD", "zero")
        path = str(fixtures_dir / "basic.cal")
        nope = [a.format("nope") for a in args]
        week = [a.format("week") for a in args]
        assert run(capsys, command, path, *nope) == (
            2, "", "granlower: no definition named 'nope'\n"
        )
        assert run(capsys, command, path, *week) == (
            1, "", "granlower: invalid GRANLOWER_MAX_PERIOD 'zero'\n"
        )

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "convert", str(tmp_path / "absent.cal"))
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize(
        "command, args",
        [("convert", ()), ("up", ("x", "--instant", "1")),
         ("expand", ("x", "--labels", "1")), ("verify", ())],
    )
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, command, args):
        path = tmp_path / "bad.cal"
        path.write_bytes(b"calendar x bottom day;\n\xff\n")
        assert run(capsys, command, str(path), *args) == (
            2, "",
            f"granlower: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 23: invalid start byte\n",
        )

    @pytest.mark.parametrize("command", ["convert", "verify"])
    @pytest.mark.parametrize("digits", [1001, 4301])
    def test_overlong_literal_exit_2(self, capsys, tmp_path, command, digits):
        # past 4,300 digits the interpreter no longer converts the literal
        path = tmp_path / "big.cal"
        path.write_text(f"calendar c bottom day;\nx = shift({'9' * digits}, day);\n")
        assert run(capsys, command, str(path)) == (
            2, "", f"{path}:2:11: integer literal longer than 1000 digits\n"
        )

    def test_longest_literal_parses(self, capsys, tmp_path):
        # the sign is not a digit
        path = tmp_path / "big.cal"
        path.write_text(f"calendar c bottom day;\nx = shift(-{'9' * 1000}, day);\n")
        code, out, err = run(capsys, "convert", str(path))
        assert code == 0, err
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"]["labels"] == [{"label": 2 - 10**1000, "bottoms": [1]}]

    def test_usage_error_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["convert"]) == 1

    def test_period_cap_env(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setenv("GRANLOWER_MAX_PERIOD", "100")
        code, _, err = run(capsys, "convert", str(fixtures_dir / "basic.cal"), "--target", "b_month30")
        assert code == 3 and "cap" in err

    def test_json_matches_json_dumps(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "convert", str(fixtures_dir / "toyleap.cal"))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_target_ignores_unrelated_failing_definition(self, capsys, tmp_path):
        path = tmp_path / "bad.cal"
        path.write_text(FAILING + "later = group(3, week);\n")
        code, out, err = run(capsys, "convert", str(path), "--target", "later")
        assert code == 0, err
        (entry,) = json.loads(out)["granularities"]
        assert entry["name"] == "later" and entry["rep"]["P"] == 21
        code, out, _ = run(capsys, "up", str(path), "later", "--instant", "22")
        assert code == 0 and out == "2\n"
        assert run(capsys, "convert", str(path))[0] == 3

    def test_target_failing_dependency_names_it(self, capsys, tmp_path):
        path = tmp_path / "bad.cal"
        path.write_text(FAILING + "later = shift(1, broken);\n")
        code, _, err = run(capsys, "convert", str(path), "--target", "later")
        assert code == 3
        assert err.startswith("granlower: broken: ") and "full-integer" in err

    def test_gregorian_year(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "convert", str(fixtures_dir / "gregorian.cal"), "--target", "year"
        )
        assert code == 0
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"]["P"] == 146097 and entry["rep"]["N"] == 400


class TestExpand:
    def test_week_range(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "expand", str(fixtures_dir / "basic.cal"), "week", "--labels", "1..3"
        )
        assert code == 0
        assert out.splitlines() == [
            "1: 1 2 3 4 5 6 7",
            "2: 8 9 10 11 12 13 14",
            "3: 15 16 17 18 19 20 21",
        ]

    def test_bottom_label(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "expand", str(fixtures_dir / "basic.cal"), "day", "--labels", "42")
        assert code == 0 and out == "42: 42\n"

    def test_week_parts_sixth_granule(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "expand", str(fixtures_dir / "basic.cal"), "week_parts", "--labels", "6"
        )
        assert code == 0 and out == "6: 20 21\n"

    def test_outside_bounds_prints_empty(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "expand", str(fixtures_dir / "basic.cal"), "mid_weeks", "--labels", "1..2"
        )
        assert code == 0
        assert out.splitlines() == ["1: empty", "2: 8 9 10 11 12 13 14"]

    def test_matches_expand_per_instant(self, capsys, tmp_path):
        path = tmp_path / "edges.cal"
        path.write_text(EDGES)
        for name, rep in reference_reps(path)[1]:
            code, out, err = run(capsys, "expand", str(path), name, "--labels=-2..5")
            assert code == 0, err
            assert out == "".join(
                f"{label}: {' '.join(str(x) for x in rep.expand(label)) or 'empty'}\n"
                for label in range(-2, 6)
            )

    def test_negative_bottoms_match_per_index_join(self, capsys, tmp_path):
        path = tmp_path / "saturday_weeks.cal"
        path.write_text(SATURDAY_WEEKS)
        week = dict(reference_reps(path)[1])["week"]
        assert week.expand(-1) == tuple(range(-1, 6))
        # "=": argparse reads a bare -1..6 as an option
        code, out, err = run(capsys, "expand", str(path), "week", "--labels=-1..6")
        assert code == 0, err
        assert out == "".join(
            f"{label}: {' '.join(str(x) for x in week.expand(label)) or 'empty'}\n"
            for label in range(-1, 7)
        )

    def test_bad_range_exit_1(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "expand", str(fixtures_dir / "basic.cal"), "week", "--labels", "3..1"
        )
        assert code == 1 and "range" in err

    def test_gregorian_months_across_blocks(self, capsys, fixtures_dir):
        # months 30..40 hold days 878..1217, across the 999/1000 boundary
        path = fixtures_dir / "gregorian.cal"
        month = dict(reference_reps(path)[1])["month"]
        code, out, err = run(capsys, "expand", str(path), "month", "--labels", "30..40")
        assert code == 0, err
        assert out == "".join(
            f"{label}: {' '.join(str(x) for x in month.expand(label))}\n"
            for label in range(30, 41)
        )


class TestUp:
    def test_covering_label(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "up", str(fixtures_dir / "basic.cal"), "week", "--instant", "10")
        assert code == 0 and out == "2\n"

    def test_gap_prints_none(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "up", str(fixtures_dir / "basic.cal"), "sunday", "--instant", "8")
        assert code == 0 and out == "none\n"


class TestVerify:
    def test_all_pass(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "verify", str(fixtures_dir / "basic.cal"), "--seed", "3")
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 18 and all(line.startswith("ok ") for line in lines)

    def test_toyleap_fixture(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "verify", str(fixtures_dir / "toyleap.cal"))
        assert code == 0, err
        assert all(line.startswith("ok ") for line in out.splitlines())

    def test_undersized_window_warns_and_grows(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys, "verify", str(fixtures_dir / "basic.cal"), "--window", "10"
        )
        assert code == 0
        assert "raised" in err

    def test_fault_injection_fails(self, capsys, fixtures_dir, monkeypatch):
        import granlower.convert as convert

        real = convert.convert_expression

        def sabotaged(expr, **kwargs):
            rep = real(expr, **kwargs)
            if isinstance(rep, PeriodicRep) and rep.period == 7 and rep.step == 1:
                return PeriodicRep(7, 1, {1: tuple(range(2, 9))})
            return rep

        monkeypatch.setattr(convert, "convert_expression", sabotaged)
        code, out, _ = run(capsys, "verify", str(fixtures_dir / "basic.cal"))
        assert code == 4
        assert any(line.startswith("FAIL") for line in out.splitlines())


# an EmptyRep, each kind of subset bounds (one leaving the stored label out),
# a one-instant granule and a granule of two runs
EDGES = (
    "calendar edges bottom day;\n"
    "week = group(7, day);\n"
    "never = difference(week, week);\n"
    "early = subset(-inf, 5, week);\n"
    "late = subset(3, inf, week);\n"
    "middle = subset(2, 4, week);\n"
    "one = subset(4, 4, day);\n"
    "pair = combine(group(14, day), selectdown(1, 1, day, week));\n"
)

# weeks from Saturday: label -1 holds the bottoms -1..5, so output starts
# at indices of no fixed width below 0
SATURDAY_WEEKS = (
    "calendar saturdays bottom day;\n"
    "week = anchor(day, selectdown(6, 1, day, group(7, day)));\n"
)
GENERATED = {"edges": EDGES, "saturday_weeks": SATURDAY_WEEKS}


def chain(op: str, n: int) -> str:
    """``x_i = union(x_{i-1}, x_{i-1})`` or ``shift(1, x_{i-1})``, n deep."""
    body = "union(x{0}, x{0})" if op == "union" else "shift(1, x{0})"
    lines = ["calendar chain bottom day;", "x0 = group(3, day);"]
    lines += [f"x{i} = " + body.format(i - 1) + ";" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def sparse_chain(last_prime: int) -> str:
    """``i_p``: the days congruent to 1 modulo every prime up to ``p``, plus a
    selectdown, a combine and a selectintersect over the last ``i_p``."""
    primes = [p for p in range(2, last_prime + 1) if all(p % q for q in range(2, p))]
    lines = ["calendar sparse bottom day;"]
    for prev, p in zip([None] + primes, primes):
        lines += [f"g{p} = group({p}, day);", f"s{p} = selectdown(1, 1, day, g{p});"]
        lines.append(f"i{p} = intersect(i{prev}, s{p});" if prev else f"i{p} = s{p};")
    last = f"i{primes[-1]}"
    lines += [
        f"t = selectdown(1, 1, day, {last});",
        f"c = combine({last}, day);",
        f"v = selectintersect(1, 1, day, {last});",
    ]
    return "\n".join(lines) + "\n"


# Linux carries a process's peak RSS into the ru_maxrss of the children it
# starts, so the command runs under this small helper instead of under the
# test session, and the helper reports the command's own peak
SPAWN = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "granlower.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss(*argv) -> tuple[int, str, int]:
    """Exit code, standard output and peak RSS (KiB) of one CLI command in a fresh process."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    *out, report = proc.stdout.splitlines()
    code, rss = map(int, report.split())
    return code, "\n".join(out), rss


def reference_reps(path, *flags):
    doc = parse_calendar(path.read_text())
    reps = cli._convert_all(doc, list(doc.names), "--no-minimize" not in flags, "--gstp" in flags)
    return doc, reps


def reference_json(path, *flags) -> str:
    doc, reps = reference_reps(path, *flags)
    payload = {
        "calendar": doc.name,
        "bottom": doc.bottom,
        "granularities": [{"name": n, "rep": rep.to_json_dict()} for n, rep in reps],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_text(path, *flags) -> str:
    # one str() per bottom instant, read through the public explicit view
    blocks = []
    for name, rep in reference_reps(path, *flags)[1]:
        lines = [f"granularity {name}"]
        if isinstance(rep, EmptyRep):
            lines.append("empty")
        else:
            lo, hi = rep.bounds or (None, None)
            bounds = "none" if rep.bounds is None else (
                f"{'-inf' if lo is None else lo}..{'+inf' if hi is None else hi}"
            )
            for label in rep.labels:
                indices = " ".join(str(x) for x in rep.explicit[label])
                lines.append(f"{label}: {indices} | P={rep.period} N={rep.step} bounds={bounds}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


class Recording:
    """A stream that keeps each write."""

    def __init__(self):
        self.texts = []
        self.sizes = []

    def write(self, text):
        self.texts.append(text)
        self.sizes.append(len(text))


class TestOutputBytes:
    """The CLI writes JSON and text from runs; its bytes must stay those of
    ``json.dumps(..., indent=2)`` over ``to_json_dict()`` and of a
    per-instant text rendering."""

    FLAGS = [(), ("--no-minimize",), ("--gstp",), ("--no-minimize", "--gstp")]

    @pytest.mark.parametrize("flags", FLAGS, ids=" ".join)
    @pytest.mark.parametrize(
        "fixture", ["basic", "toyleap", "gregorian", "gregorian_doubled"]
    )
    def test_fixture_json(self, capsys, fixtures_dir, fixture, flags):
        path = fixtures_dir / f"{fixture}.cal"
        code, out, err = run(capsys, "convert", str(path), *flags)
        if fixture == "basic" and "--gstp" in flags:
            # basic.cal's empty granularity cannot be relabeled
            assert code == 3 and out == ""
            assert err == "granlower: never: cannot relabel an empty granularity\n"
            return
        assert code == 0, err
        assert out == reference_json(path, *flags)

    @pytest.mark.parametrize("flags", FLAGS[:3], ids=" ".join)
    @pytest.mark.parametrize("calendar", ["edges", "chain", "saturday_weeks"])
    def test_generated_json(self, capsys, tmp_path, calendar, flags):
        path = tmp_path / f"{calendar}.cal"
        path.write_text(GENERATED.get(calendar) or chain("shift", 300))
        code, out, err = run(capsys, "convert", str(path), *flags)
        if calendar == "edges" and "--gstp" in flags:
            assert code == 3 and out == "" and err.startswith("granlower: never: ")
            return
        assert code == 0, err
        assert out == reference_json(path, *flags)

    def test_edge_cases_are_covered(self, tmp_path):
        path = tmp_path / "edges.cal"
        path.write_text(EDGES)
        reps = dict(reference_reps(path)[1])
        assert isinstance(reps["never"], EmptyRep)
        assert reps["early"].bounds == (None, 5) and reps["late"].bounds == (3, None)
        assert reps["middle"].bounds == (2, 4)
        assert reps["late"].labels == (1,)  # stored, yet outside the bounds
        assert reps["one"].explicit[1] == (1,)
        assert reps["pair"].explicit[1] == (1, 8)
        path = tmp_path / "saturday_weeks.cal"
        path.write_text(SATURDAY_WEEKS)
        week = dict(reference_reps(path)[1])["week"]
        assert week.labels == (-1,) and week.explicit[-1] == tuple(range(-1, 6))

    def test_no_granularities(self, capsys, tmp_path):
        path = tmp_path / "bare.cal"
        path.write_text("calendar bare bottom tick;\n")
        code, out, _ = run(capsys, "convert", str(path))
        assert code == 0
        assert out == json.dumps(
            {"calendar": "bare", "bottom": "tick", "granularities": []}, indent=2
        ) + "\n"

    @pytest.mark.parametrize(
        "calendar", ["basic", "toyleap", "gregorian", "gregorian_doubled", "edges", "saturday_weeks"]
    )
    def test_text(self, capsys, fixtures_dir, tmp_path, calendar):
        if calendar in GENERATED:
            path = tmp_path / f"{calendar}.cal"
            path.write_text(GENERATED[calendar])
        else:
            path = fixtures_dir / f"{calendar}.cal"
        code, out, err = run(capsys, "convert", str(path), "--format", "text")
        assert code == 0, err
        assert out == reference_text(path)

    # SHA-256 of convert's stdout as a fresh process writes it, recorded
    # when the Gregorian fixtures were first benchmarked
    DIGESTS = {
        ("gregorian.cal",): "c753d9c07b391ac0ea55cd49024d6abc4b62c79e1b6ffc1fa13dc80e69650d0d",
        ("gregorian_doubled.cal",): "a86b336b83c4af12360981de79b9716fda8fca113b5edc663886c3503fe3286e",
        ("gregorian_doubled.cal", "--no-minimize"):
            "ebac9c50dcf4eb042b8347491d44e2f9a8454d5aaabfcd371903d44a1cfcbc22",
        # gregorian.cal plus weeks, weekdays, business days and anchored weeks
        ("gregorian_rich.cal",): "f15694ef6a7fdebea146d94682ab186edb137d64494cf3e0cddff13994e43333",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_recorded_digest(self, fixtures_dir, argv):
        src = str(pathlib.Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "granlower.cli", "convert", str(fixtures_dir / argv[0]), *argv[1:]],
            capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == self.DIGESTS[argv]

    def test_json_written_in_batches(self, fixtures_dir):
        # neither one write per token nor the whole document in one string
        doc, reps = reference_reps(fixtures_dir / "gregorian.cal")
        out = Recording()
        cli._render_json(doc, reps, out)
        granules = sum(len(rep.labels) for _, rep in reps)
        assert 1 < len(out.sizes) < granules // 10
        assert max(out.sizes) < sum(out.sizes) // 10

    def test_text_written_in_batches(self, fixtures_dir):
        out = Recording()
        doc, reps = reference_reps(fixtures_dir / "gregorian.cal")
        cli._render_text(reps, out)
        granules = sum(len(rep.labels) for _, rep in reps)
        assert 1 < len(out.sizes) < granules // 10
        assert max(out.sizes) < sum(out.sizes) // 10
        assert "".join(out.texts) == reference_text(fixtures_dir / "gregorian.cal")


def joined(runs, sep):
    """The text ``_Joiner(sep).join`` must produce, one ``str`` per index."""
    return sep.join(str(x) for s, e in runs for x in range(s, e + 1))


SEPARATORS = [" ", cli._BOTTOMS_SEP]


@st.composite
def run_lists(draw):
    """Sorted, disjoint runs starting near a change of width, with blocks crossed."""
    edge = draw(st.sampled_from([-20, 0, 999, 1000, 9999, 10000, 99999, 100000, 10**6]))
    start = edge + draw(st.integers(-30, 30))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        end = start + draw(st.one_of(st.just(0), st.integers(0, 40), st.integers(900, 3100)))
        runs.append((start, end))
        start = end + draw(st.integers(2, 1500))
    return runs


class TestJoinRuns:
    """``_Joiner`` slices runs out of per-1,000 text blocks; its text must be
    the per-index join for every separator, width and block boundary, also
    when one joiner, holding the block it built last, serves many calls."""

    @settings(max_examples=300, deadline=None)
    @given(run_seq=st.lists(run_lists(), min_size=1, max_size=3), sep=st.sampled_from(SEPARATORS))
    def test_matches_per_index_join(self, run_seq, sep):
        join = cli._Joiner(sep).join
        for runs in run_seq:
            assert join(runs) == joined(runs, sep)

    @pytest.mark.parametrize(
        "runs",
        [
            [(999, 1000)], [(1000, 1000)], [(9999, 10000)], [(99999, 100000)],
            [(10**6 - 1, 10**6)], [(-3, 2)], [(0, 0)], [(-1, -1)], [(-5, 1004)],
            [(1998, 5001)], [(7, 7), (9, 9), (1001, 1001)], [],
        ],
        ids=str,
    )
    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_edges(self, runs, sep):
        assert cli._Joiner(sep).join(runs) == joined(runs, sep)

    def test_alternating_separators_use_their_own_block(self):
        # the same block of indices asked for from each joiner in turn
        runs = [(1500, 1502)]
        joins = [cli._Joiner(sep).join for sep in SEPARATORS]
        for sep, join in list(zip(SEPARATORS, joins)) * 3:
            assert join(runs) == joined(runs, sep)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_one_render_holds_one_block(self, fixtures_dir, monkeypatch, fmt):
        made = []

        class Recorded(cli._Joiner):
            def __init__(self, sep):
                super().__init__(sep)
                made.append(self)

        monkeypatch.setattr(cli, "_Joiner", Recorded)
        doc, reps = reference_reps(fixtures_dir / "gregorian.cal")
        if fmt == "json":
            cli._render_json(doc, reps, Recording())
        else:
            cli._render_text(reps, Recording())
        # one joiner, holding only the last block the render reached: the
        # last year ends at day 146097
        (joiner,) = made
        sep = joiner.sep
        assert vars(joiner).keys() == {"sep", "held", "parts"}
        assert joiner.held == (146000, joined([(146000, 146999)], sep) + sep, 6 + len(sep))


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block after ``seconds``, rather than hang."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestDeepDefinitions:
    """Definitions convert and verify one at a time, so cost grows with the
    text of the calendar: shared names are not re-expanded per use and a
    long chain of names never deepens the recursion."""

    @pytest.mark.parametrize("command", ["convert", "verify"])
    @pytest.mark.parametrize("op, n", [("union", 300), ("shift", 5000)])
    def test_chain(self, capsys, tmp_path, command, op, n):
        path = tmp_path / "chain.cal"
        path.write_text(chain(op, n))
        start = time.perf_counter()
        with deadline(60):
            code, out, err = run(capsys, command, str(path))
        elapsed = time.perf_counter() - start
        assert code == 0, err
        if command == "verify":
            verdicts = out.splitlines()
            assert len(verdicts) == n + 1 and all(v.startswith("ok ") for v in verdicts)
        else:
            entries = json.loads(out)["granularities"]
            assert len(entries) == n + 1
            for i, entry in enumerate(entries):
                # a union of x with itself is x; each shift adds one to every label
                label = 1 if op == "union" else 1 + i
                assert entry["rep"] == {
                    "P": 3, "N": 1, "labels": [{"label": label, "bottoms": [1, 2, 3]}],
                    "bounds": None,
                }
        # a few tenths of a second on a 2-core machine; closed trees took
        # 2^n steps on the union chain and overflowed the stack on the shift chain
        assert elapsed < 20


    @pytest.mark.parametrize("command", ["convert", "verify"])
    def test_nesting_past_max_nesting_exits_2(self, capsys, tmp_path, command):
        # one operator more than the language allows is a syntax error at
        # that operator's keyword, after "x = " and MAX_NESTING "shift(1, "
        path = tmp_path / "nested.cal"
        path.write_text(nested_shifts(MAX_NESTING + 1))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}:2:{len('x = ') + len('shift(1, ') * MAX_NESTING + 1}: expression nested too deeply\n"

    def test_deep_nesting_converts(self, capsys, tmp_path):
        path = tmp_path / "nested.cal"
        path.write_text(nested_shifts(300))
        code, out, err = run(capsys, "convert", str(path))
        assert code == 0, err
        (entry,) = json.loads(out)["granularities"]
        assert entry["rep"]["labels"] == [{"label": 301, "bottoms": [1]}]

    @pytest.mark.parametrize("word", list(OPERATORS))
    def test_deepest_nestings_that_parse_convert(self, capsys, tmp_path, word):
        # every walk keeps its own stack, so each operator nested as deep as
        # the language allows converts, verifies and answers queries with the
        # Python stack already in use; one level more is a syntax error
        def under_frames(n, argv):
            return under_frames(n - 1, argv) if n else run(capsys, *argv)

        path = tmp_path / "nested.cal"
        path.write_text(f"calendar c bottom day;\nnone = difference(day, day);\nx = {nesting(word, MAX_NESTING)};\n")
        for command, extra in {"convert": [], "verify": [], "up": ["x", "--instant", "5"],
                               "expand": ["x", "--labels", "1..3"]}.items():
            code, out, err = under_frames(300, [command, str(path), *extra])
            assert (code, err) == (0, ""), command
            assert out and (command != "verify" or out.count("ok ") == 2)
        path.write_text(f"calendar c bottom day;\nnone = difference(day, day);\nx = {nesting(word, MAX_NESTING + 1)};\n")
        code, out, err = run(capsys, "convert", str(path))
        assert (code, out) == (2, "") and err.endswith(": expression nested too deeply\n")

    @pytest.mark.parametrize("command", ["convert", "verify"])
    @pytest.mark.parametrize("depth", [330, MAX_NESTING - 1], ids=["330", "max"])
    def test_definitions_sharing_a_deep_nesting(self, capsys, tmp_path, command, depth):
        # y's nesting equals x's but is another object: converting y finds
        # x's copy in the driver's cache and compares the two level by level
        shared = "shift(1, " * depth + "day" + ")" * depth
        path = tmp_path / "twin.cal"
        path.write_text(f"calendar twin bottom day;\nx = shift(1, {shared});\ny = group(2, {shared});\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 0, err
        if command == "verify":
            assert [line.split()[:2] for line in out.splitlines()] == [["ok", "x"], ["ok", "y"]]
        else:
            x, y = (entry["rep"] for entry in json.loads(out)["granularities"])
            assert x["labels"] == [{"label": depth + 2, "bottoms": [1]}]
            assert (y["P"], [len(g["bottoms"]) for g in y["labels"]]) == (2, [2])


def nested_shifts(n: int) -> str:
    """One definition, ``shift(1, ...)`` nested ``n`` deep around the bottom."""
    return "calendar nested bottom day;\nx = " + "shift(1, " * n + "day" + ")" * n + ";\n"


# keyword -> the text before and after one level of its nesting: each level
# keeps every granule of the level below (shift adds one to each label, alter
# lengthens each granule by a day, and "none" is empty)
NESTINGS = {
    "group": ("group(1, ", ")"),
    "alter": ("alter(1, 1, 1, day, ", ")"),
    "shift": ("shift(1, ", ")"),
    "combine": ("combine(", ", day)"),
    "anchor": ("anchor(", ", day)"),
    "selectdown": ("selectdown(1, 1, ", ", day)"),
    "selectup": ("selectup(", ", day)"),
    "selectintersect": ("selectintersect(1, 1, day, ", ")"),
    "union": ("union(", ", day)"),
    "intersect": ("intersect(", ", day)"),
    "difference": ("difference(", ", none)"),
}


def nesting(word: str, depth: int) -> str:
    """``word``'s operator nested ``depth`` deep around day; subset, which
    may only be outermost, bounds a group(1, ...) nesting one shallower."""
    if word == "subset":
        return "subset(1, inf, " + nesting("group", depth - 1) + ")"
    head, tail = NESTINGS[word]
    return head * depth + "day" + tail * depth


class TestSparseLcm:
    """A selection or combine over an operand with one granule per common
    period costs what that granule contains, not what the period holds."""

    def test_cost_follows_the_frame(self, tmp_path):
        path = tmp_path / "sparse.cal"
        path.write_text(sparse_chain(17))  # P = 510,510
        code, out, base = peak_rss("up", str(path), "i17", "--instant", "1")
        assert (code, out) == (0, "1")
        for name in ("t", "c", "v"):
            code, out, rss = peak_rss("up", str(path), name, "--instant", "1")
            assert (code, out) == (0, "1"), name
            # 27 MB each on a 2-core machine; a label set of the common
            # period would take 63 MB
            assert rss <= 1.25 * base, (name, rss, base)


def spawn_cli(*argv) -> subprocess.Popen:
    src = str(pathlib.Path(cli.__file__).parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "granlower.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )


class TestClosedPipe:
    """A reader that stops early, as ``| head`` does, ends the command with
    exit code 1 and an empty stderr: no ``BrokenPipeError`` traceback and
    no "Exception ignored" line from the flush at exit."""

    @pytest.mark.parametrize(
        "argv",
        [["convert", "gregorian.cal"], ["expand", "basic.cal", "week", "--labels", "1..999999"]],
        ids=["convert", "expand"],
    )
    def test_reader_closes_after_first_line(self, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".cal") else a for a in argv]
        proc = spawn_cli(*argv)
        with deadline(60):
            first = proc.stdout.readline()
            proc.stdout.close()  # both commands write far more than a pipe holds
            err = proc.stderr.read()
            code = proc.wait()
        assert first.strip()
        assert err == b""
        assert code == 1


class TestStartup:
    def test_cli_import_stays_lean(self):
        # each CLI command pays for its imports; these stdlib modules cost
        # milliseconds per start and granlower needs none of them
        src = str(pathlib.Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, granlower.cli; print(*sys.modules)"],
            capture_output=True, text=True, timeout=60, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        loaded = set(proc.stdout.split())
        assert "granlower.cli" in loaded
        assert loaded.isdisjoint(
            {"dataclasses", "inspect", "fractions", "decimal", "json", "random", "typing"}
        )

    def test_oracle_loads_on_first_use(self):
        script = (
            "import sys\n"
            "import granlower.cli\n"
            "from granlower import algebra, convert\n"
            "assert 'granlower.oracle' not in sys.modules\n"
            "import granlower\n"
            "try:\n"
            "    granlower.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown attribute resolved')\n"
            "assert 'granlower.oracle' not in sys.modules\n"
            "from granlower import Definitions, verify_against_oracle\n"
            "from granlower import oracle\n"
            "assert verify_against_oracle is oracle.verify_against_oracle\n"
            "assert Definitions is oracle.Definitions\n"
            "names = {}\n"
            "exec('from granlower import *', names)\n"
            "assert set(granlower.__all__) <= names.keys(), set(granlower.__all__) - names.keys()\n"
            "assert names['eval_window'] is oracle.eval_window\n"
            "print('ok')\n"
        )
        src = str(pathlib.Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "ok\n")


class TestTracerContract:
    """``perfbench/tracing.py`` wraps ``cli.verify_against_oracle`` and the
    renderers where ``cli`` looks them up; those spans must still be recorded
    although the oracle loads only in ``verify``."""

    def test_verify_and_render_spans(self, fixtures_dir):
        # the tracer patches module globals, so it runs in a process of its own
        root = pathlib.Path(__file__).parents[1]
        script = (
            "import contextlib, io, json, sys\n"
            "from perfbench import tracing\n"
            "from granlower import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            "calls = []\n"
            "for argv in (['verify', sys.argv[1]], ['convert', sys.argv[2]]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    summary = tracer.summary()\n"
            "    calls.append([code, summary['calls']['oracle.verify_against_oracle'],\n"
            "                  summary['calls']['cli.render']])\n"
            "print(json.dumps(calls))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(fixtures_dir / "toyleap.cal"),
             str(fixtures_dir / "gregorian.cal")],
            capture_output=True, text=True, timeout=120, cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])),
        )
        assert proc.returncode == 0, proc.stderr
        # toyleap.cal defines six granularities; the counts are cumulative
        assert json.loads(proc.stdout) == [[0, 6, 0], [0, 6, 1]]
