"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is exact integer equality and every runtime bound is
asserted here, not just observed.
"""

import random
import time

from granlower import algebra as ast
from granlower.algebra import parse_calendar, rewrite_to_bottom
from granlower.convert import (
    BOTTOM_REP,
    convert_alter,
    convert_anchored,
    convert_calendar,
    convert_combine,
    convert_expression,
    convert_group,
    convert_select_down,
    convert_select_intersect,
    convert_select_up,
    convert_set_op,
    convert_shift,
    relabel,
)
from granlower.core import PeriodicRep
from granlower.minimize import _prime_factors, is_valid_reduction, minimize
from granlower.oracle import verify_against_oracle

from .conftest import FIXTURES, scaled
from .exprgen import sample_convertible


class _Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_worked_examples():
    with _Stopwatch() as w:
        # grouping a shifted bottom by three
        grp = convert_group(convert_shift(BOTTOM_REP, -8), 3)
        ok = (grp.period, grp.step, grp.first_label) == (3, 1, -2)
        ok &= grp.expand(-2) == (0, 1, 2)

        # altering the second of every three granules
        alt = convert_alter(
            PeriodicRep(4, 2, {-10: (1,), -9: (3, 4)}),
            PeriodicRep(4, 1, {-5: (-1, 0, 1)}),
            slot=2, change=1, cycle=3,
        )
        ok &= (alt.step, alt.period, alt.first_label) == (6, 28, -4)

        # combining
        cmb = convert_combine(
            PeriodicRep(6, 2, {1: (-2, -1, 0, 1)}),
            PeriodicRep(4, 2, {0: (0, 1), 1: (3,)}),
        )
        ok &= (cmb.period, cmb.step) == (12, 4) and cmb.lhat(12) == [1, 3, 5]

        # anchored grouping
        anc = convert_anchored(
            PeriodicRep(1, 1, {11: (1,)}), PeriodicRep(7, 7, {14: (4,)})
        )
        ok &= anc.period == 7 and anc.lhat(7) == [7, 14]

        # select-down
        sdn = convert_select_down(
            PeriodicRep(4, 2, {-5: (0, 1), -4: (2,)}),
            PeriodicRep(6, 1, {-3: (-2, -1, 0, 1)}),
            2, 1,
        )
        ok &= sdn.labels == (-5, -2)

        # select-up
        sup = convert_select_up(
            PeriodicRep(6, 3, {-3: (0, 1), -2: (3,), -1: (4,)}),
            PeriodicRep(4, 2, {-4: (4,)}),
        )
        ok &= sup.lhat(12) == [-3, -1, 3]

        # select-by-intersect
        sin = convert_select_intersect(
            PeriodicRep(4, 2, {-5: (-1, 1), -4: (2,)}),
            PeriodicRep(6, 1, {-3: (-3, -2, 0, 2)}),
            2, 1,
        )
        ok &= sin.labels == (-2, 0) and sin.expand(-2) == (6,)

        # set operations
        uni = convert_set_op(
            PeriodicRep(6, 6, {1: (1,), 2: (3,)}),
            PeriodicRep(6, 6, {2: (3,), 3: (5,)}),
            "union",
        )
        ok &= uni.lhat(6) == [1, 2, 3]

        # relabeling
        rlb = relabel(PeriodicRep(4, 5, {6: (1,), 8: (3, 4)}), 33, 4)
        ok &= rlb.first_label == -7

        # arbitrary-granule expansion
        week_parts = PeriodicRep(7, 2, {3: tuple(range(8, 13)), 4: (13, 14)})
        ok &= week_parts.expand(6) == (20, 21)
    _report(1, "worked-example fixture suite", ok, w.elapsed, 1.0)


def test_criterion_2_minimization_regression():
    with _Stopwatch() as w:
        doc = parse_calendar(
            "calendar c bottom day;\n"
            "wk = alter(1, -1, 2, day, alter(1, 1, 2, day, group(7, day)));\n"
        )
        expr = rewrite_to_bottom(doc, "wk")
        raw = convert_expression(expr, minimize=False)
        mini = convert_expression(expr, minimize=True)
        week = convert_expression(ast.Group(7, ast.Bottom()))
        ok = (raw.period, raw.step) == (14, 2)
        ok &= (mini.period, mini.step) == (7, 1)
        labels = week.labels_within(1, 70)
        ok &= labels == mini.labels_within(1, 70)
        ok &= all(mini.expand(a) == week.expand(a) for a in labels)
    _report(2, "minimization regression", ok, w.elapsed, 1.0)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def test_criterion_3_gregorian():
    with _Stopwatch() as w:
        doc = parse_calendar((FIXTURES / "gregorian.cal").read_text())
        reps = convert_calendar(doc, ["month", "year"])
        month, year = reps["month"], reps["year"]
        days_in_cycle = sum(365 + _is_leap(y) for y in range(1, 401))
        ok = month.period == days_in_cycle == 146097
        ok &= year.period == days_in_cycle
        ok &= len(month.explicit) == 4800
        ok &= (year.step, len(year.explicit)) == (400, 400)
        # month boundaries against independent day counting, first 8 years
        pos = 1
        for index in range(1, 97):
            y, m = (index - 1) // 12 + 1, (index - 1) % 12 + 1
            if m in (1, 3, 5, 7, 8, 10, 12):
                length = 31
            elif m in (4, 6, 9, 11):
                length = 30
            else:
                length = 29 if _is_leap(y) else 28
            ok &= month.expand(index) == tuple(range(pos, pos + length))
            pos += length
    _report(3, "Gregorian desk-scale check", ok, w.elapsed, 60.0)


def test_criterion_4_oracle_equivalence():
    with _Stopwatch() as w:
        rng = random.Random(46097)
        mismatches = []
        for _ in range(200):
            expr, raw = sample_convertible(rng, depth=3, max_result_period=900)
            mini = convert_expression(expr, minimize=True)
            period = raw.period if isinstance(raw, PeriodicRep) else 24
            mismatches += verify_against_oracle(expr, raw, period)
            mismatches += verify_against_oracle(expr, mini, period)
        ok = mismatches == []
        if mismatches:
            print(mismatches[:5])
    _report(4, "200 random expressions vs oracle", ok, w.elapsed, 120.0)


def test_criterion_5_invariants():
    with _Stopwatch() as w:
        import math

        rng = random.Random(97)
        ok = True
        reps = []
        for _ in range(40):
            _, rep = sample_convertible(rng, depth=2, max_result_period=500)
            if isinstance(rep, PeriodicRep):
                reps.append(rep)
        for rep in reps:
            core = PeriodicRep(rep.period, rep.step, rep.explicit)
            for a in core.labels:
                # expansion periodicity
                ok &= core.expand(a + core.step) == tuple(
                    x + core.period for x in core.expand(a)
                )
                # up/expand round trip
                ok &= all(core.up(t) == a for t in core.expand(a))
            # scaling validity
            doubled = scaled(core, 2)
            ok &= all(
                doubled.expand(a) == core.expand(a)
                for a in core.lhat(2 * core.period)
            )
            # minimize idempotence and minimality certificate
            reduced = minimize(core)
            ok &= minimize(reduced) == reduced
            g = math.gcd(reduced.period, reduced.step, len(reduced.explicit))
            ok &= all(not is_valid_reduction(reduced, p) for p in _prime_factors(g))
        # ratio law on accepted set-operation operands
        for _ in range(25):
            shared, _ = sample_convertible(rng, depth=1, max_result_period=200, allow_subset=False)
            left = ast.SelectDown(1, 2, shared, ast.Group(rng.randint(2, 5), ast.Bottom()))
            right = ast.SelectIntersect(-1, 1, shared, ast.Group(rng.randint(2, 5), ast.Bottom()))
            l_rep = convert_expression(left, minimize=False)
            r_rep = convert_expression(right, minimize=False)
            if isinstance(l_rep, PeriodicRep) and isinstance(r_rep, PeriodicRep):
                merged = convert_set_op(l_rep, r_rep, "union")
                ok &= l_rep.step * r_rep.period == r_rep.step * l_rep.period
                if isinstance(merged, PeriodicRep):
                    ok &= merged.step * l_rep.period == l_rep.step * merged.period
        # Theorem-1 period composition for group chains: the period in operand
        # granules is alpha * step, so the bottom period is alpha * operand period
        for _ in range(25):
            inner, rep = sample_convertible(rng, depth=1, max_result_period=200, allow_subset=False)
            if not isinstance(rep, PeriodicRep) or len(rep.explicit) != rep.step:
                continue
            m = rng.randint(1, 8)
            grouped = convert_group(rep, m)
            alpha = m // math.gcd(m, rep.step)
            ok &= grouped.period == alpha * rep.period
    _report(5, "invariant suite", ok, w.elapsed, 30.0)


def _convert_calendar(path, minimize_flag):
    doc = parse_calendar(path.read_text())
    cache = {}
    start = time.perf_counter()
    for name in doc.names:
        convert_expression(
            rewrite_to_bottom(doc, name), minimize=minimize_flag, cache=cache
        )
    return time.perf_counter() - start


def test_criterion_6_relative_performance():
    with _Stopwatch() as w:
        minimal = FIXTURES / "gregorian.cal"
        doubled = FIXTURES / "gregorian_doubled.cal"
        t_min_on = _convert_calendar(minimal, True)
        t_min_off = _convert_calendar(minimal, False)
        within_5x = t_min_on <= 5 * t_min_off
        t_dbl_on = _convert_calendar(doubled, True)
        t_dbl_off = _convert_calendar(doubled, False)
        strictly_faster = t_dbl_on < t_dbl_off
        ok = within_5x and strictly_faster
        print(
            f"  minimal fixture: minimize on {t_min_on:.2f}s vs off {t_min_off:.2f}s; "
            f"doubled fixture: on {t_dbl_on:.2f}s vs off {t_dbl_off:.2f}s"
        )
    _report(6, "relative performance ordering", ok, w.elapsed, 300.0)
