"""Per-operation conversion tests over small hand-built configurations with
independently worked-out expected values, plus identity and failure cases."""

import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granlower import algebra as ast
from granlower import convert
from granlower.algebra import CalendarSyntaxError, parse_calendar, print_calendar, rewrite_to_bottom, validate
from granlower.convert import (
    BOTTOM_REP,
    ConversionError,
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
    convert_subset,
    delta_select,
    gstp_relabel,
    relabel,
)
from granlower.core import EmptyRep, GranularityError, PeriodicRep, mindist, normalize_alignment
from granlower.minimize import minimize

from .conftest import scaled
from .exprgen import ExprGen
from .test_algebra import _FRAGMENTS
from .test_cli import FAILING, chain, deadline
from .test_runs import raw_windows, runs_from


def expansion_equal(a, b, labels):
    return all(a.expand(j) == b.expand(j) for j in labels)


class TestDeltaSelect:
    def test_fourth_of_enough(self):
        assert delta_select([3, 10, 17, 24], 4, 1) == [24]

    def test_fourth_of_too_few(self):
        assert delta_select([3, 10, 17], 4, 1) == []

    def test_full_selection(self):
        assert delta_select([1, 5, 9], 1, 3) == [1, 5, 9]

    def test_negative_counts_from_end(self):
        assert delta_select([10, 20, 30], -1, 1) == [30]
        assert delta_select([10, 20, 30], -2, 2) == [20, 30]
        assert delta_select([10, 20, 30], -2, 5) == [20, 30]

    def test_positions_before_start_dropped(self):
        assert delta_select([10, 20, 30], -5, 3) == [10]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            delta_select([1], 0, 1)
        with pytest.raises(ValueError):
            delta_select([1], 1, 0)


class TestGroup:
    def test_shifted_bottom_by_three(self):
        g = convert_shift(BOTTOM_REP, -8)
        out = convert_group(g, 3)
        assert (out.period, out.step, out.first_label) == (3, 1, -2)
        assert out.expand(-2) == (0, 1, 2)

    def test_week(self):
        out = convert_group(BOTTOM_REP, 7)
        assert (out.period, out.step) == (7, 1)
        assert out.expand(1) == tuple(range(1, 8))

    def test_size_one_is_identity(self, week_rep):
        out = convert_group(week_rep, 1)
        assert expansion_equal(out, week_rep, range(-5, 6))

    def test_sparse_operand_rejected(self):
        sunday = ast.SelectDown(7, 1, ast.Bottom(), ast.Group(7, ast.Bottom()))
        with pytest.raises(ConversionError):
            convert_expression(ast.Group(2, sunday))

    def test_empty_propagates(self):
        assert convert_expression(ast.Group(3, EMPTY)) == EmptyRep()


class TestAlter:
    def test_worked_configuration(self):
        unit = PeriodicRep(4, 2, {-10: (1,), -9: (3, 4)})
        base = PeriodicRep(4, 1, {-5: (-1, 0, 1)})
        out = convert_alter(unit, base, slot=2, change=1, cycle=3)
        assert (out.period, out.step, out.first_label) == (28, 6, -4)
        assert out.expand(-4) == (-1, 0, 1, 3, 4)
        assert out.labels == tuple(range(-4, 2))

    def test_lengthened_then_shortened_week(self, week_rep):
        g1 = convert_alter(BOTTOM_REP, week_rep, 1, 1, 2)
        assert (g1.period, g1.step) == (15, 2)
        assert g1.expand(1) == tuple(range(1, 9))
        assert g1.expand(2) == tuple(range(9, 16))
        g2 = convert_alter(BOTTOM_REP, g1, 1, -1, 2)
        assert (g2.period, g2.step) == (14, 2)
        assert expansion_equal(g2, week_rep, range(-4, 8))

    def test_thirty_day_groups_march(self, day_rep):
        month30 = convert_group(day_rep, 30)
        out = convert_alter(day_rep, month30, 3, 1, 12)
        assert len(out.expand(3)) == 31 and len(out.expand(2)) == 30
        assert out.period == 361

    def test_empty_base_is_empty(self):
        assert convert_expression(ast.Alter(1, 1, 2, ast.Bottom(), EMPTY)) == EmptyRep()

    def test_change_zero_is_legal(self, week_rep):
        out = convert_alter(BOTTOM_REP, week_rep, 1, 0, 3)
        assert expansion_equal(out, week_rep, range(-3, 7))

    def test_shrink_limit_enforced(self, day_rep):
        pair = convert_group(day_rep, 2)
        with pytest.raises(ConversionError, match="mindist"):
            convert_alter(day_rep, pair, 1, -1, 2)

    def test_partition_violation(self, week_rep, day_rep):
        month30 = convert_group(day_rep, 30)
        with pytest.raises(ConversionError, match="partition"):
            convert_alter(week_rep, month30, 1, 1, 2)

    @given(
        p1=st.integers(1, 60), n1=st.integers(1, 12), p2=st.integers(1, 60),
        n2=st.integers(1, 12), change=st.integers(-30, 30), cycle=st.integers(1, 24),
        k=st.integers(1, 3), lcm_step=st.booleans(),
    )
    # a zero period and a negative one
    @example(p1=2, n1=1, p2=1, n2=1, change=-2, cycle=1, k=1, lcm_step=True)
    @example(p1=1, n1=1, p2=3, n2=1, change=-1, cycle=1, k=1, lcm_step=True)
    def test_period_matches_fraction_formula(self, p1, n1, p2, n2, change, cycle, k, lcm_step):
        # the period in integers, against the rational formula it replaced;
        # convert_alter's own step makes it an integer, other steps need not
        step = k * (
            math.lcm(
                n1, cycle, p2 * n1 // math.gcd(p2 * n1, p1),
                n2 * cycle // math.gcd(n2 * cycle, abs(change)),
            )
            if lcm_step
            else 5
        )
        exact = (
            Fraction(step * p1 * n2, n1 * p2) + Fraction(step * change, cycle)
        ) * Fraction(p2, n2)
        args = (step, p1, n1, p2, n2, change, cycle)
        if exact.denominator == 1 and exact >= 1:
            assert convert._alter_period(*args) == exact
        else:
            with pytest.raises(ConversionError) as info:
                convert._alter_period(*args)
            assert str(info.value) == f"alter produced an invalid period {exact}"


def alter_reference(unit, base, slot, change, cycle, label):
    """Granule ``label`` of the alter, instant by instant from the definition:
    the unit labels at the ends of base granule ``label``, moved by the
    changes of the cycles before it (and the slot's own change at its end)."""
    g = base.expand(label)
    b, t = unit.up(g[0]), unit.up(g[-1])
    h = (label - slot) // cycle + 1
    b2 = b + (h - 1) * change if (label - slot) % cycle == 0 else b + h * change
    t2 = t + h * change
    return tuple(x for j in range(b2, t2 + 1) for x in unit.expand(j))


def assert_alter_matches(unit, base, slot, change, cycle):
    out = convert_alter(unit, base, slot, change, cycle)
    for label in range(-2 * out.step, 3 * out.step + 1):
        assert out.expand(label) == alter_reference(unit, base, slot, change, cycle, label)
    return out


# unit granules of 1, 5, 2 and 4 days (P = 12) pair up into 6-day base
# granules (P = 6): one horizon of 12 days holds two base labels, so the
# table of unit labels is extended across horizons
UNEVEN = PeriodicRep(12, 4, {1: (1,), 2: (2, 3, 4, 5, 6), 3: (7, 8), 4: (9, 10, 11, 12)})
SIX = PeriodicRep(6, 1, {1: tuple(range(1, 7))})
# two-day units stored with P = 6, under four-day base granules (P = 4)
DAY2_BY_3 = scaled(PeriodicRep(2, 1, {1: (1, 2)}), 3)
FOUR = PeriodicRep(4, 1, {0: (-3, -2, -1, 0)})


class TestAlterTable:
    """``convert_alter`` reads each base granule's unit labels off one pass
    over a common period of unit and base, extended periodically."""

    @pytest.mark.parametrize(
        "unit, base", [(UNEVEN, SIX), (DAY2_BY_3, FOUR)], ids=["uneven", "day2"]
    )
    @pytest.mark.parametrize(
        "slot, change, cycle", [(1, 1, 2), (2, 3, 3), (3, 2, 5), (1, 0, 1)]
    )
    def test_unit_period_does_not_divide_base(self, unit, base, slot, change, cycle):
        assert base.period % unit.period
        assert_alter_matches(unit, base, slot, change, cycle)

    def test_change_at_the_limit(self):
        # week granules hold 7 days: the tightest legal change leaves 2
        week = PeriodicRep(7, 1, {1: tuple(range(1, 8))})
        assert mindist(week, BOTTOM_REP) == 7
        out = assert_alter_matches(BOTTOM_REP, week, 2, -5, 3)
        assert len(out.expand(2)) == 2 and len(out.expand(3)) == 7
        with pytest.raises(ConversionError) as err:
            convert_alter(BOTTOM_REP, week, 2, -6, 3)
        assert str(err.value) == "alter change -6 must exceed -(mindist-1) = -6"

    def test_limit_read_off_uneven_units(self):
        # UNEVEN has two units in every base granule, so mindist is 2
        assert_alter_matches(UNEVEN, SIX, 1, 0, 2)
        with pytest.raises(ConversionError) as err:
            convert_alter(UNEVEN, SIX, 1, -1, 2)
        assert str(err.value) == "alter change -1 must exceed -(mindist-1) = -1"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x = alter(1, 1, 2, combine(week, mon), week);",
             "alter unit does not partition the base: granule 1 is not covered "
             "by the unit granularity (at alter)"),
            ("x = alter(1, 1, 2, week, group(30, day));",
             "alter unit does not partition the base: granule 1 is not a union "
             "of consecutive unit granules (at alter)"),
            ("wm = combine(week, mon);\nx = alter(1, 1, 2, day, wm);",
             "alter unit does not partition the base: a unit granule falls "
             "between two granules of the coarser operand (at alter)"),
            ("x = alter(1, -6, 2, day, week);",
             "alter change -6 must exceed -(mindist-1) = -6 (at alter)"),
            ("x = alter(1, 1, 2, difference(day, day), week);",
             "alter unit is empty and cannot partition the base (at alter)"),
        ],
        ids=["not_covered", "not_consecutive", "unit_between", "mindist", "empty_unit"],
    )
    def test_messages(self, body, message):
        doc = parse_calendar(
            "calendar c bottom day;\nweek = group(7, day);\n"
            "mon = selectdown(1, 1, day, week);\n" + body + "\n"
        )
        with pytest.raises(ConversionError) as err:
            convert_calendar(doc)
        assert (str(err.value), err.value.definition) == (message, "x")

    def test_shrunk_away_message(self, monkeypatch):
        # unreachable once the mindist check passes; a table claiming base
        # granules 10 units apart but one unit long reaches it
        week = PeriodicRep(7, 1, {1: tuple(range(1, 8))})
        monkeypatch.setattr(
            convert, "consecutive_spans",
            lambda base, unit, horizon: [(lab, 10 * lab, 10 * lab) for lab in (1, 2)],
        )
        with pytest.raises(ConversionError) as err:
            convert_alter(BOTTOM_REP, week, 1, -4, 4)
        assert str(err.value) == "alter shrank granule 1 away entirely"

    @pytest.mark.parametrize(
        "unit, base, scalars, error",
        [
            # the base's bounds leave its granule 1 without runs
            ((1, 2, {6: (0,)}), (8, 3, {-4: (6,), -3: (8, 9), -2: (10, 11, 13)}, (5, 5)), (2, -1, 3),
             (IndexError, ("tuple index out of range",))),
            # a base short of full-integer labels: the table lacks a row
            ((2, 2, {4: (5,), 5: (6,)}), (1, 4, {6: (3,)}), (3, 3, 2),
             (IndexError, ("list index out of range",))),
            # a unit without label 6's residue fails at that row's span,
            # before a later row that the table lacks
            ((5, 6, {2: (0,), 3: (1, 2), 4: (3,), 5: (4,)}), (5, 5, {7: (-1, 0), 9: (1, 2, 3)}), (3, 3, 2),
             (KeyError, (6,))),
        ],
        ids=["bounded_base", "base_not_full", "unit_not_full"],
    )
    def test_direct_calls_fail_at_the_first_failing_row(self, unit, base, scalars, error):
        # past the driver's preconditions, alter fails where a walk of the
        # base labels and then the rows, one at a time, fails first
        with pytest.raises(error[0]) as err:
            convert_alter(PeriodicRep(*unit), PeriodicRep(*base), *scalars)
        assert err.value.args == error[1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_definition(self, data):
        # gapless units of 1-4 days, grouped into base granules of consecutive
        # units; minimizing the base can leave a period the unit's does not divide
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        offset = data.draw(st.integers(-5, 5))
        window, at = {}, offset
        for label, n in enumerate(lengths, start=data.draw(st.integers(-3, 3))):
            window[label] = ((at, at + n - 1),)
            at += n
        unit = normalize_alignment(window, sum(lengths), len(lengths))
        repeats = data.draw(st.integers(1, 3))
        units = len(lengths) * repeats
        cuts = sorted(c for c in data.draw(st.sets(st.integers(1, units), max_size=units)) if c < units)
        bounds = [0, *cuts, units]
        first = unit.first_label
        groups = {
            k: runs_from(x for j in range(first + lo, first + hi) for x in unit.expand(j))
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        }
        base = minimize(normalize_alignment(groups, unit.period * repeats, len(groups)))
        cycle = data.draw(st.integers(1, 4))
        slot = data.draw(st.integers(1, cycle))
        change = data.draw(st.integers(-(mindist(base, unit) - 2), 3))
        assert_alter_matches(unit, base, slot, change, cycle)


class TestShift:
    def test_offset_zero_identity(self, week_rep):
        assert convert_shift(week_rep, 0) == week_rep

    def test_inverse_pair(self, week_rep):
        back = convert_shift(convert_shift(week_rep, 5), -5)
        assert expansion_equal(back, week_rep, range(-5, 10))

    def test_labels_move_contents_stay(self, week_rep):
        out = convert_shift(week_rep, -3)
        assert out.expand(-2) == week_rep.expand(1)
        assert (out.period, out.step) == (7, 1)

    @given(raw_windows(), st.integers(-20, 20), st.booleans())
    @example((7, 2, {3: (8, 9, 10, 11, 12), 4: (13, 14)}), 5, False)  # anchored at label 1
    def test_matches_normalize_alignment(self, raw, offset, aligned):
        # aligned reps, as conversion makes them, and windows built by hand,
        # which need not start at their anchor label
        period, step, window = raw
        g = PeriodicRep(period, step, window)
        if aligned:
            g = normalize_alignment(g._runs, period, step)
        out = convert_shift(g, offset)
        expected = normalize_alignment({a + offset: r for a, r in g._runs.items()}, period, step)
        assert out == expected and repr(out) == repr(expected)
        assert out.anchor_label == g.anchor_label + offset
        assert out._anchor is out.first_label


class TestCombine:
    def test_worked_configuration(self):
        container = PeriodicRep(6, 2, {1: (-2, -1, 0, 1)})
        pieces = PeriodicRep(4, 2, {0: (0, 1), 1: (3,)})
        out = convert_combine(container, pieces)
        assert (out.period, out.step) == (12, 4)
        assert out.lhat(12) == [1, 3, 5]
        assert out.labels == (1, 3)
        assert out.expand(1) == (-1, 0, 1)
        assert out.expand(3) == (4, 5, 7)

    def test_self_combine_is_identity(self, week_rep):
        out = convert_combine(week_rep, week_rep)
        assert expansion_equal(out, week_rep, range(-3, 7))

    def test_business_month(self, day_rep):
        month30 = convert_group(day_rep, 30)
        week = convert_group(day_rep, 7)
        bday = convert_select_down(day_rep, week, 1, 5)
        out = convert_combine(month30, bday)
        first = out.expand(1)
        assert first[0] == 1 and first[-1] <= 30
        assert len(first) == len([d for d in range(1, 31) if (d - 1) % 7 < 5])

    def test_empty_operand(self):
        week = ast.Group(7, ast.Bottom())
        assert convert_expression(ast.Combine(EMPTY, week)) == EmptyRep()
        assert convert_expression(ast.Combine(week, EMPTY)) == EmptyRep()


class TestAnchored:
    def test_us_week(self):
        day = PeriodicRep(1, 1, {11: (1,)})
        sunday = PeriodicRep(7, 7, {14: (4,)})
        out = convert_anchored(day, sunday)
        assert out.period == 7
        assert out.lhat(7) == [7, 14]
        assert out.labels == (7,)
        assert out.expand(7) == tuple(range(-3, 4))

    def test_self_anchoring_is_identity(self, week_rep):
        out = convert_anchored(week_rep, week_rep)
        assert expansion_equal(out, week_rep, range(-3, 7))

    def test_misaligned_anchor_rejected(self, week_rep, day_rep):
        with pytest.raises(ConversionError, match="label-aligned"):
            convert_anchored(day_rep, week_rep)

    def test_empty_anchors(self):
        assert convert_expression(ast.AnchoredGroup(ast.Bottom(), EMPTY)) == EmptyRep()


class TestSubset:
    def test_unbounded_subset_is_same(self, week_rep):
        assert convert_subset(week_rep, None, None) == week_rep

    def test_century_years(self, day_rep):
        year360 = convert_group(day_rep, 360)
        out = convert_subset(year360, 1900, 1999)
        assert out.bounds == (1900, 1999)
        assert out.expand(1899) == () and out.expand(1900) != ()

    def test_single_granule_window(self, week_rep):
        out = convert_subset(week_rep, 5, 5)
        assert out.labels_within(-100, 100) == [5]

    def test_no_labels_in_range_is_empty(self):
        sunday = PeriodicRep(7, 7, {7: (7,)})
        assert convert_subset(sunday, 8, 13) == EmptyRep()

    def test_inverted_rejected(self):
        with pytest.raises(ConversionError):
            convert_expression(ast.Subset(9, 3, ast.Group(7, ast.Bottom())))


class TestSelectDown:
    def test_worked_configuration(self):
        source = PeriodicRep(4, 2, {-5: (0, 1), -4: (2,)})
        container = PeriodicRep(6, 1, {-3: (-2, -1, 0, 1)})
        out = convert_select_down(source, container, 2, 1)
        assert (out.period, out.step) == (12, 6)
        assert out.labels == (-5, -2)
        assert out.expand(-5) == (0, 1) and out.expand(-2) == (6,)

    def test_full_window_selects_everything(self, day_rep, week_rep):
        out = convert_select_down(day_rep, week_rep, 1, 7)
        assert expansion_equal(out, day_rep, range(-10, 11))

    def test_toy_thanksgiving(self, day_rep):
        week = convert_group(day_rep, 7)
        month30 = convert_group(day_rep, 30)
        thursday = convert_select_down(day_rep, week, 4, 1)
        out = convert_select_down(thursday, month30, 4, 1)
        # fourth thursday of each 30-day block, when it exists
        for label in out.labels_within(1, out.period):
            day = out.expand(label)[0]
            block_start = 30 * ((day - 1) // 30)
            thursdays = [d for d in range(block_start + 1, block_start + 31) if d % 7 == 4]
            assert day == thursdays[3]

    def test_no_match_is_empty(self, day_rep, week_rep):
        assert convert_select_down(week_rep, day_rep, 1, 1) == EmptyRep()


class TestSelectUp:
    def test_worked_configuration(self):
        source = PeriodicRep(6, 3, {-3: (0, 1), -2: (3,), -1: (4,)})
        witness = PeriodicRep(4, 2, {-4: (4,)})
        out = convert_select_up(source, witness)
        assert (out.period, out.step) == (12, 6)
        assert out.lhat(12) == [-3, -1, 3]
        assert out.expand(-3) == (0, 1) and out.expand(-1) == (4,)

    def test_self_witness_is_identity(self, week_rep):
        out = convert_select_up(week_rep, week_rep)
        assert expansion_equal(out, week_rep, range(-3, 7))

    def test_thanksgiving_week(self, day_rep):
        week = convert_group(day_rep, 7)
        month30 = convert_group(day_rep, 30)
        thursday = convert_select_down(day_rep, week, 4, 1)
        thx = convert_select_down(thursday, month30, 4, 1)
        out = convert_select_up(week, thx)
        horizon = out.period
        thx_days = {t for a in thx.labels_within(1, horizon) for t in thx.expand(a)}
        selected = out.labels_within(1, horizon)
        assert selected
        for label in selected:
            granule = out.expand(label)
            assert granule == week.expand(label)
            assert thx_days & set(granule)


class TestSelectIntersect:
    def test_worked_configuration(self):
        source = PeriodicRep(4, 2, {-5: (-1, 1), -4: (2,)})
        probe = PeriodicRep(6, 1, {-3: (-3, -2, 0, 2)})
        out = convert_select_intersect(source, probe, 2, 1)
        assert (out.period, out.step) == (12, 6)
        assert out.labels == (-2, 0)
        assert out.expand(-2) == (6,) and out.expand(0) == (10,)

    def test_first_week_of_month(self, day_rep):
        week = convert_group(day_rep, 7)
        month30 = convert_group(day_rep, 30)
        out = convert_select_intersect(week, month30, 1, 1)
        for label in out.labels_within(1, out.period):
            granule = out.expand(label)
            # the selected week contains the first day of some 30-block
            assert any((t - 1) % 30 == 0 for t in granule)

    def test_disjoint_probe_is_empty(self, day_rep):
        week = convert_group(day_rep, 7)
        monday = convert_select_down(day_rep, week, 1, 1)
        tuesday = convert_select_down(day_rep, week, 2, 1)
        assert convert_select_intersect(monday, tuesday, 1, 1) == EmptyRep()


class TestSetOps:
    def overlapping_operands(self):
        g1 = PeriodicRep(6, 6, {1: (1,), 2: (3,)})
        g2 = PeriodicRep(6, 6, {2: (3,), 3: (5,)})
        return g1, g2

    def test_union_merges_labels(self):
        g1, g2 = self.overlapping_operands()
        out = convert_set_op(g1, g2, "union")
        assert out.lhat(6) == [1, 2, 3]
        assert out.expand(3) == (5,)

    def test_intersection_and_difference(self):
        g1, g2 = self.overlapping_operands()
        assert convert_set_op(g1, g2, "intersection").labels == (2,)
        assert convert_set_op(g1, g2, "difference").labels == (1,)

    def test_set_identities(self, week_rep):
        assert expansion_equal(convert_set_op(week_rep, week_rep, "union"), week_rep, range(-3, 7))
        assert expansion_equal(convert_set_op(week_rep, week_rep, "intersection"), week_rep, range(-3, 7))
        assert convert_set_op(week_rep, week_rep, "difference") == EmptyRep()

    def test_weekend_days(self, day_rep):
        week = convert_group(day_rep, 7)
        saturday = convert_select_down(day_rep, week, 6, 1)
        sunday = convert_select_down(day_rep, week, 7, 1)
        out = convert_set_op(saturday, sunday, "union")
        days = [t for a in out.labels_within(1, 14) for t in out.expand(a)]
        assert days == [6, 7, 13, 14]

    def test_density_mismatch_rejected(self, week_rep, day_rep):
        month30 = convert_group(day_rep, 30)
        with pytest.raises(ConversionError, match="densities"):
            convert_set_op(week_rep, month30, "union")

    def test_shared_label_mismatch_rejected(self):
        a = PeriodicRep(7, 7, {1: (1,)})
        b = PeriodicRep(7, 7, {1: (2,)})
        with pytest.raises(ConversionError, match="shared label"):
            convert_set_op(a, b, "union")

    def test_interleaved_granules_rejected(self):
        a = PeriodicRep(6, 6, {1: (4,)})
        b = PeriodicRep(6, 6, {2: (2,)})
        with pytest.raises(ConversionError, match="interleave"):
            convert_set_op(a, b, "union")

    def test_granule_straddling_instant_one(self):
        # the US week's granule -3..3 and its copy 4..10 both meet [1, 7]
        us_week = PeriodicRep(7, 7, {-3: tuple(range(-3, 4))})
        assert convert_set_op(us_week, us_week, "union") == us_week
        assert convert_set_op(us_week, us_week, "intersection") == us_week
        assert convert_set_op(us_week, us_week, "difference") == EmptyRep()

    def test_empty_identities(self, week_rep):
        week = ast.Group(7, ast.Bottom())
        assert convert_expression(ast.Union(EMPTY, week)) == week_rep
        assert convert_expression(ast.Difference(week, EMPTY)) == week_rep
        assert convert_expression(ast.Intersection(week, EMPTY)) == EmptyRep()


# what an empty, a bounded or a sparse operand makes of each operator's result
EMPTY = ast.Difference(ast.Bottom(), ast.Bottom())
KINDS = {
    "empty": EMPTY,
    "bounded": ast.Name("bounded"),  # subset(1, 100, day)
    "sparse": ast.SelectDown(1, 1, ast.Bottom(), ast.Name("week")),  # monday
}

# keyword -> (scalars, operands that convert); each case swaps one operand
OPERANDS = {
    "group": ((2,), (ast.Bottom(),)),
    "alter": ((1, 1, 2), (ast.Bottom(), ast.Name("week"))),
    "shift": ((1,), (ast.Bottom(),)),
    "combine": ((), (ast.Name("week"), ast.Bottom())),
    "anchor": ((), (ast.Bottom(), ast.SelectDown(7, 1, ast.Bottom(), ast.Name("week")))),
    "subset": ((1, 5), (ast.Bottom(),)),
    "selectdown": ((1, 1), (ast.Bottom(), ast.Name("week"))),
    "selectup": ((), (ast.Name("week"), ast.Bottom())),
    "selectintersect": ((1, 1), (ast.Bottom(), ast.Name("week"))),
    "union": ((), (ast.Bottom(), ast.Bottom())),
    "intersect": ((), (ast.Bottom(), ast.Bottom())),
    "difference": ((), (ast.Bottom(), ast.Bottom())),
}

DAY = "P=1 N=1 1:1"
MONDAY = "P=7 N=7 1:1"


def not_full(op):
    return f"{op}: operand of {op} is not full-integer labeled (1 granules per window of 7)"


def bounds(op):
    return f"{op}: operand of {op} carries subset bounds"


# (keyword, operand position or "both", kind) -> outcome
OUTCOMES = {
    ("group", 0, "empty"): "empty",
    ("group", 0, "bounded"): bounds("group"),
    ("group", 0, "sparse"): not_full("group"),
    ("alter", 0, "empty"): "alter: alter unit is empty and cannot partition the base",
    ("alter", 0, "bounded"): bounds("alter"),
    ("alter", 0, "sparse"): not_full("alter"),
    ("alter", 1, "empty"): "empty",
    ("alter", 1, "bounded"): bounds("alter"),
    ("alter", 1, "sparse"): not_full("alter"),
    ("alter", "both", "empty"): "empty",
    ("shift", 0, "empty"): "empty",
    ("shift", 0, "bounded"): bounds("shift"),
    ("shift", 0, "sparse"): not_full("shift"),
    ("combine", 0, "empty"): "empty",
    ("combine", 0, "bounded"): bounds("combine"),
    ("combine", 0, "sparse"): MONDAY,
    ("combine", 1, "empty"): "empty",
    ("combine", 1, "bounded"): bounds("combine"),
    ("combine", 1, "sparse"): "P=7 N=1 1:1",
    ("combine", "both", "empty"): "empty",
    ("anchor", 0, "empty"): "anchor: anchor granularity is not a subgranularity of an empty filler",
    ("anchor", 0, "bounded"): bounds("anchor"),
    ("anchor", 0, "sparse"): not_full("anchor"),
    ("anchor", 1, "empty"): "empty",
    ("anchor", 1, "bounded"): bounds("anchor"),
    ("anchor", 1, "sparse"): "P=7 N=7 1:1,2,3,4,5,6,7",
    ("anchor", "both", "empty"): "empty",
    ("subset", 0, "empty"): "empty",
    ("subset", 0, "bounded"): bounds("subset"),
    ("subset", 0, "sparse"): MONDAY + " bounds=1..1",
    ("selectdown", 0, "empty"): "empty",
    ("selectdown", 0, "bounded"): bounds("selectdown"),
    ("selectdown", 0, "sparse"): MONDAY,
    ("selectdown", 1, "empty"): "empty",
    ("selectdown", 1, "bounded"): bounds("selectdown"),
    ("selectdown", 1, "sparse"): MONDAY,
    ("selectdown", "both", "empty"): "empty",
    ("selectup", 0, "empty"): "empty",
    ("selectup", 0, "bounded"): bounds("selectup"),
    ("selectup", 0, "sparse"): MONDAY,
    ("selectup", 1, "empty"): "empty",
    ("selectup", 1, "bounded"): bounds("selectup"),
    ("selectup", 1, "sparse"): "P=7 N=1 1:1,2,3,4,5,6,7",
    ("selectup", "both", "empty"): "empty",
    ("selectintersect", 0, "empty"): "empty",
    ("selectintersect", 0, "bounded"): bounds("selectintersect"),
    ("selectintersect", 0, "sparse"): MONDAY,
    ("selectintersect", 1, "empty"): "empty",
    ("selectintersect", 1, "bounded"): bounds("selectintersect"),
    ("selectintersect", 1, "sparse"): MONDAY,
    ("selectintersect", "both", "empty"): "empty",
    ("union", 0, "empty"): DAY,
    ("union", 0, "bounded"): bounds("union"),
    ("union", 0, "sparse"): DAY,
    ("union", 1, "empty"): DAY,
    ("union", 1, "bounded"): bounds("union"),
    ("union", 1, "sparse"): DAY,
    ("union", "both", "empty"): "empty",
    # the intersection keeps its set-operation name in messages
    ("intersect", 0, "empty"): "empty",
    ("intersect", 0, "bounded"): bounds("intersection"),
    ("intersect", 0, "sparse"): MONDAY,
    ("intersect", 1, "empty"): "empty",
    ("intersect", 1, "bounded"): bounds("intersection"),
    ("intersect", 1, "sparse"): MONDAY,
    ("intersect", "both", "empty"): "empty",
    ("difference", 0, "empty"): "empty",
    ("difference", 0, "bounded"): bounds("difference"),
    ("difference", 0, "sparse"): "empty",
    ("difference", 1, "empty"): DAY,
    ("difference", 1, "bounded"): bounds("difference"),
    ("difference", 1, "sparse"): "P=7 N=7 2:2 3:3 4:4 5:5 6:6 7:7",
    ("difference", "both", "empty"): "empty",
}

E, B, S = KINDS["empty"], KINDS["bounded"], KINDS["sparse"]

# the first check that fails picks the message: scalars, then empty operands
# (a result beats an error), then preconditions (alter's base before its unit),
# then the operands in order
ORDER = [
    (ast.Group(0, E), "group: grouping size must be positive, got 0"),
    (ast.Alter(0, 1, 2, ast.Bottom(), E), "alter: alter slot must be positive, got 0"),
    (ast.Alter(3, 1, 2, E, B), "alter: alter slot 3 exceeds cycle 2"),
    (ast.Subset(9, 3, E), "subset: subset bounds 9..3 are inverted"),
    (ast.Subset(9, 3, B), "subset: subset bounds 9..3 are inverted"),
    (ast.SelectDown(0, 1, E, B), "selectdown: selection start must be nonzero"),
    (ast.SelectIntersect(1, 0, B, E), "selectintersect: selection count must be positive, got 0"),
    (ast.Alter(1, 1, 2, E, E), "empty"),
    (ast.Alter(1, 1, 2, E, B), "alter: alter unit is empty and cannot partition the base"),
    (ast.Alter(1, 1, 2, B, S), not_full("alter")),
    (ast.Alter(1, 1, 2, S, B), bounds("alter")),
    (ast.AnchoredGroup(E, E), "empty"),
    (ast.AnchoredGroup(E, B), "anchor: anchor granularity is not a subgranularity of an empty filler"),
    (ast.AnchoredGroup(B, E), "empty"),
    (ast.AnchoredGroup(S, B), not_full("anchor")),
    (ast.Combine(B, S), bounds("combine")),
    (ast.Combine(S, B), bounds("combine")),
    (ast.Union(B, E), bounds("union")),
    (ast.Union(E, B), bounds("union")),
    (ast.Difference(B, E), bounds("difference")),
    (ast.Difference(E, B), "empty"),
    (ast.Intersection(B, E), "empty"),
    (ast.Intersection(E, B), "empty"),
    (ast.Group(2, ast.Subset(1, 5, ast.Group(0, ast.Bottom()))),
     "group > subset: subset may only appear as the outermost operation of a definition"),
    (ast.Union(ast.Group(0, ast.Bottom()), ast.Group(-1, ast.Bottom())),
     "union > group: grouping size must be positive, got 0"),
]


def convert_with_names(expr):
    """``expr`` converted as definition ``x`` after ``week = group(7, day)``
    and ``bounded = subset(1, 100, day)``."""
    day = ast.Bottom()
    doc = ast.CalendarDoc("c", "day", (
        ("week", ast.Group(7, day)),
        ("bounded", ast.Subset(1, 100, day)),
        ("x", expr),
    ))
    return convert_calendar(doc, ["x"])["x"]


def outcome(expr) -> str:
    """The result as ``P= N= label:bottoms...``, ``empty``, or the error."""
    try:
        rep = convert_with_names(expr)
    except ConversionError as exc:
        return f"{' > '.join(exc.path)}: {exc.message}"
    if isinstance(rep, EmptyRep):
        return "empty"
    d = rep.to_json_dict()
    text = f"P={d['P']} N={d['N']} " + " ".join(
        f"{e['label']}:{','.join(map(str, e['bottoms']))}" for e in d["labels"]
    )
    if d["bounds"]:
        text += f" bounds={d['bounds']['first']}..{d['bounds']['last']}"
    return text


class TestPreconditions:
    """Operand checks the parser or ``validate`` already rules out in calendar
    text, reached through a hand-built expression; the conversion driver is
    the one place that checks them."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda w: ast.Group(0, w), "grouping size must be positive, got 0"),
            (lambda w: ast.Alter(0, 1, 2, ast.Bottom(), w), "alter slot must be positive, got 0"),
            (lambda w: ast.Alter(3, 1, 2, ast.Bottom(), w), "alter slot 3 exceeds cycle 2"),
            (lambda w: ast.AnchoredGroup(EMPTY, w),
             "anchor granularity is not a subgranularity of an empty filler"),
            (lambda w: ast.Group(2, ast.Name("bounded")), "operand of group carries subset bounds"),
            (lambda w: ast.Union(w, ast.Name("bounded")), "operand of union carries subset bounds"),
        ],
        ids=["group_size", "alter_slot_low", "alter_slot_high", "empty_filler", "bounded_group",
             "bounded_union"],
    )
    def test_rejected(self, build, message):
        with pytest.raises(ConversionError) as err:
            convert_with_names(build(ast.Name("week")))
        assert err.value.message == message


class TestOperandRules:
    """Every operator's empty-operand rule and operand preconditions, reached
    through calendar conversion."""

    @pytest.mark.parametrize("word, at, kind", list(OUTCOMES), ids=lambda v: str(v))
    def test_outcome(self, word, at, kind):
        cls = ast.OPERATORS[word][0]
        scalars, operands = OPERANDS[word]
        operands = [KINDS[kind] if at in (i, "both") else e for i, e in enumerate(operands)]
        assert outcome(cls(*scalars, *operands)) == OUTCOMES[word, at, kind]

    def test_every_operand_position_covered(self):
        for word, (cls, _) in ast.OPERATORS.items():
            n = len(OPERANDS[word][1])
            assert n == len(cls.__match_args__) - len(OPERANDS[word][0])
            for at in range(n):
                assert all((word, at, kind) in OUTCOMES for kind in KINDS)
            assert n == 1 or (word, "both", "empty") in OUTCOMES

    @pytest.mark.parametrize("expr, expected", ORDER, ids=[ast.print_expr(e, "day") for e, _ in ORDER])
    def test_first_failing_check_wins(self, expr, expected):
        assert outcome(expr) == expected


class TestRelabel:
    def test_worked_configuration(self):
        g = PeriodicRep(4, 5, {6: (1,), 8: (3, 4)})
        out = relabel(g, 33, 4)
        assert (out.period, out.step, out.first_label) == (4, 2, -7)
        assert out.expand(-7) == (1,) and out.expand(-6) == (3, 4)

    def test_fixed_point(self, week_rep):
        assert relabel(week_rep, 1, 1) == week_rep

    def test_bad_label_rejected(self):
        sunday = PeriodicRep(7, 7, {7: (7,)})
        with pytest.raises(ConversionError):
            relabel(sunday, 8, 1)

    def test_bounds_follow_labels(self, week_rep):
        bounded = PeriodicRep(7, 1, week_rep.explicit, (3, 9))
        out = relabel(bounded, 1, 11)
        assert out.bounds == (13, 19)
        assert out.expand(13) == week_rep.expand(3)

    @given(
        raw_windows(),
        st.one_of(st.none(), st.integers(-12, 12)),
        st.one_of(st.none(), st.integers(0, 16)),
        st.integers(0, 30),
        st.integers(-20, 20),
    )
    def test_labels_keep_their_rank(self, raw, lo, width, pick, new):
        period, step, window = raw
        core = normalize_alignment({a: runs_from(g) for a, g in window.items()}, period, step)
        first = core.first_label
        bounds = (
            None if lo is None else first + lo,
            None if width is None else first + (lo or 0) + width,
        )
        bounded = PeriodicRep(period, step, core.explicit, bounds)
        # the label set, by rank, over a range holding the bounds and four windows
        span = range(first - 4 * step - 12, first + 4 * step + 30)
        ranked = [a for a in span if core.expand(a)]
        at = len(ranked) // 4 + pick % (len(ranked) // 2)
        old = ranked[at]
        inside = [a for a in ranked if bounded.expand(a)]
        if bounds[0] is not None and bounds[1] is not None and not inside:
            with pytest.raises(ConversionError, match="cannot relabel an empty granularity"):
                relabel(bounded, old, new)
            return
        out = relabel(bounded, old, new)
        assert (out.period, out.step) == (period, len(core.explicit))
        for rank, a in enumerate(ranked):
            assert out.expand(new + rank - at) == bounded.expand(a)


class TestGstpRelabel:
    def test_anchor_covering_zero_moves_to_next(self):
        day = PeriodicRep(1, 1, {11: (1,)})
        sunday = PeriodicRep(7, 7, {14: (4,)})
        usweek = convert_anchored(day, sunday)  # granule 7 covers -3..3
        out = gstp_relabel(usweek)
        assert out.expand(1) == tuple(range(4, 11))
        assert min(out.expand(1)) > 0

    def test_already_conforming_is_fixed_point(self, week_rep):
        assert gstp_relabel(week_rep) == week_rep

    def test_empty_rejected(self):
        with pytest.raises(ConversionError):
            gstp_relabel(EmptyRep())

    def test_bound_off_the_label_set(self):
        # bounds 3..20 hold sundays 7 and 14, which become labels 1 and 2
        out = gstp_relabel(PeriodicRep(7, 7, {7: (7,)}, (3, 20)))
        assert out == PeriodicRep(7, 1, {1: (7,)}, (1, 2))

    def test_bounds_without_a_label_rejected(self):
        with pytest.raises(ConversionError, match="cannot relabel an empty granularity"):
            gstp_relabel(PeriodicRep(7, 7, {7: (7,)}, (3, 5)))


class TestConvertExpression:
    def test_bottom(self):
        assert convert_expression(ast.Bottom()) == BOTTOM_REP

    def test_group_week_unminimized(self):
        out = convert_expression(ast.Group(7, ast.Bottom()), minimize=False)
        assert (out.period, out.step) == (7, 1)

    def test_minimize_flag_restores_week(self):
        expr = ast.Alter(
            1, -1, 2, ast.Bottom(), ast.Alter(1, 1, 2, ast.Bottom(), ast.Group(7, ast.Bottom()))
        )
        raw = convert_expression(expr, minimize=False)
        assert (raw.period, raw.step) == (14, 2)
        mini = convert_expression(expr, minimize=True)
        assert (mini.period, mini.step) == (7, 1)
        assert expansion_equal(mini, raw, range(-6, 9))

    def test_cache_transparency(self):
        expr = ast.Combine(ast.Group(6, ast.Bottom()), ast.Group(3, ast.Bottom()))
        cache = {}
        first = convert_expression(expr, cache=cache)
        again = convert_expression(expr, cache=cache)
        fresh = convert_expression(expr)
        assert first == again == fresh
        assert ast.Group(3, ast.Bottom()) in cache

    def test_unresolved_name_rejected(self):
        with pytest.raises(ConversionError, match="rewrite"):
            convert_expression(ast.Group(2, ast.Name("week")))

    def test_inner_subset_rejected(self):
        expr = ast.Group(2, ast.Subset(1, 5, ast.Bottom()))
        with pytest.raises(ConversionError, match="subset"):
            convert_expression(expr)

    def test_error_path_names_subexpression(self):
        sparse = ast.SelectDown(1, 1, ast.Bottom(), ast.Group(7, ast.Bottom()))
        with pytest.raises(ConversionError) as err:
            convert_expression(ast.Group(2, sparse))
        assert err.value.path == ("group",)

    def test_period_cap(self):
        expr = ast.Combine(ast.Group(997, ast.Bottom()), ast.Group(991, ast.Bottom()))
        with pytest.raises(ConversionError, match="cap"):
            convert_expression(expr, max_period=10_000)

    def test_nesting_too_deep_to_convert(self):
        # a hand-built tree skips the parser's nesting limit
        expr = ast.Bottom()
        for _ in range(2000):
            expr = ast.Shift(1, expr)
        with pytest.raises(ConversionError) as err:
            convert_expression(expr)
        assert str(err.value) == "expression nested too deeply to convert"
        assert (err.value.path, err.value.definition) == ((), None)


    def test_nesting_limit_holds_deep_in_the_stack(self):
        def shifts(n):
            expr = ast.Bottom()
            for _ in range(n):
                expr = ast.Shift(1, expr)
            return expr

        def under_frames(n, fn):
            return under_frames(n - 1, fn) if n else fn()

        deepest = convert.MAX_NESTING
        rep = under_frames(300, lambda: convert_expression(shifts(deepest)))
        assert rep == PeriodicRep(1, 1, {deepest + 1: (1,)})
        with pytest.raises(ConversionError) as err:
            under_frames(300, lambda: convert_expression(shifts(deepest + 1)))
        assert (err.value.message, err.value.path) == ("expression nested too deeply to convert", ())

    @pytest.mark.parametrize("call, error", [
        ("convert.convert_expression(expr)", "ConversionError: expression nested too deeply to convert"),
        ("oracle.eval_window(expr, 1, 30)", "OracleError: expression nested too deeply to evaluate"),
    ], ids=["convert", "oracle"])
    def test_chain_far_past_the_limit(self, call, error):
        # deep enough that hashing or comparing it recursively would overflow
        # the C stack: the nesting limit has to stop it before either happens
        script = (
            "from granlower import algebra, convert, oracle\n"
            "expr = algebra.Bottom()\n"
            "for _ in range(300_000):\n"
            "    expr = algebra.Shift(1, expr)\n"
            f"{call}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(convert.__file__).parents[1])),
        )
        assert proc.returncode == 1 and proc.stderr.splitlines()[-1].endswith(error), proc.stderr[-500:]


class TestConvertCalendar:
    @pytest.mark.parametrize("op, n", [("union", 300), ("shift", 5000)])
    def test_deep_chain(self, op, n):
        doc = parse_calendar(chain(op, n))
        start = time.perf_counter()
        with deadline(60):
            reps = convert_calendar(doc)
        elapsed = time.perf_counter() - start
        # a union of x with itself is x; each shift adds one to every label
        label = 1 if op == "union" else n + 1
        assert reps[f"x{n}"] == PeriodicRep(3, 1, {label: (1, 2, 3)})
        # hundredths of a second on a 2-core machine; closed trees took 2^n
        # steps on the union chain and overflowed the stack on the shift chain
        assert elapsed < 1

    def test_all_definitions_in_file_order(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        assert list(convert_calendar(doc)) == list(doc.names)

    def test_requested_names_in_given_order(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        last, first = doc.names[-1], doc.names[0]
        assert list(convert_calendar(doc, [last, first])) == [last, first]

    def test_bottom_name(self):
        doc = parse_calendar("calendar c bottom day;\nweek = group(7, day);\n")
        assert convert_calendar(doc, ["day"]) == {"day": BOTTOM_REP}

    def test_failing_dependency_named(self):
        doc = parse_calendar(FAILING + "later = shift(1, broken);\n")
        with pytest.raises(ConversionError) as err:
            convert_calendar(doc, ["later"])
        assert err.value.definition == "broken"
        assert err.value.path == ("group",)
        with pytest.raises(ConversionError) as closed:
            convert_expression(rewrite_to_bottom(doc, "broken"))
        assert str(err.value) == str(closed.value)

    @pytest.mark.parametrize("empty_source", [False, True])
    @pytest.mark.parametrize(
        "node, path, message",
        [
            (ast.SelectDown, ("selectdown",), "selection start must be nonzero"),
            (ast.SelectIntersect, ("selectintersect",), "selection count must be positive, got 0"),
        ],
    )
    def test_bad_selection_parameters(self, node, path, message, empty_source):
        # a built document skips the parser's checks; an empty source must not
        # hide them either
        day = ast.Bottom()
        source = ast.Difference(day, day) if empty_source else day
        start, count = (0, 1) if node is ast.SelectDown else (1, 0)
        doc = ast.CalendarDoc("c", "day", (
            ("week", ast.Group(7, day)),
            ("bad", node(start, count, source, ast.Name("week"))),
        ))
        with pytest.raises(ConversionError) as err:
            convert_calendar(doc)
        assert err.value.definition == "bad"
        assert err.value.path == path
        assert err.value.message == message

    def test_nesting_too_deep_to_convert(self):
        # a built document skips the parser's nesting limit
        expr = ast.Bottom()
        for _ in range(2000):
            expr = ast.Shift(1, expr)
        doc = ast.CalendarDoc("c", "day", (("x", expr),))
        with pytest.raises(ConversionError) as err:
            convert_calendar(doc)
        assert err.value.definition == "x"
        assert str(err.value) == "expression nested too deeply to convert"

    def test_conversion_builds_no_cover_index(self, fixtures_dir):
        # year groups month through span, which a gapless month answers
        # without the index; the first up builds it
        doc = parse_calendar((fixtures_dir / "gregorian.cal").read_text())
        month = convert_calendar(doc)["month"]
        assert month._cover is None
        assert month.up(1) == 1
        assert month._cover is not None

    def test_unknown_name(self):
        doc = parse_calendar("calendar c bottom day;\nweek = group(7, day);\n")
        with pytest.raises(KeyError):
            convert_calendar(doc, ["week", "month"])

    @pytest.mark.parametrize("minimize", [True, False])
    @pytest.mark.parametrize(
        "fixture", ["basic", "toyleap", "gregorian", "gregorian_doubled"]
    )
    def test_matches_closed_trees(self, fixtures_dir, fixture, minimize):
        doc = parse_calendar((fixtures_dir / f"{fixture}.cal").read_text())
        reps = convert_calendar(doc, minimize=minimize)
        cache = {}
        for name in doc.names:
            closed = convert_expression(
                rewrite_to_bottom(doc, name), minimize=minimize, cache=cache
            )
            assert reps[name] == closed, name


class TestStandingChecks:
    """Digests and counts that pin the converter's observable behaviour."""

    # SHA-256 over seeds 0-7,999, minimize on then off: one line per seed
    EXPRGEN_DIGEST = "bef2aa2d7b0fd8460f8a0e2b66773ef0f8eb301cf362b7dfbc174db6ef3efd81"

    def test_exprgen_digest(self):
        digest = hashlib.sha256()
        for minimize_flag in (True, False):
            for seed in range(8000):
                rng = random.Random(seed)
                expr = ExprGen(rng).top_level(rng.randint(1, 4))
                try:
                    rep = convert_expression(expr, minimize=minimize_flag, max_period=5000)
                    line = repr(rep.to_json_dict())
                except (ConversionError, GranularityError) as exc:
                    line = f"{type(exc).__name__}: {exc}"
                digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.EXPRGEN_DIGEST

    # SHA-256 over seeds 0-1,999: one line per seed, the parsed document and
    # its validation report, or the syntax error
    PARSE_DIGEST = "101e8d49fe3e97a3f9d2e3f08de3ef63b61fda09eb89ff45f44b4534a7c9ee27"

    def test_parse_digest(self):
        digest = hashlib.sha256()
        for seed in range(2000):
            rng = random.Random(seed)
            gen = ExprGen(rng)
            definitions = tuple(
                (f"d{i}", gen.top_level(rng.randint(1, 4))) for i in range(rng.randint(1, 4))
            )
            text = mutated(rng, print_calendar(ast.CalendarDoc("c", "day", definitions)))
            try:
                doc = parse_calendar(text)
                line = f"{doc!r} | {validate(doc)}"
            except CalendarSyntaxError as exc:
                line = f"CalendarSyntaxError: {exc}"
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == self.PARSE_DIGEST

    # span calls per fixture, and the driver calls that hit the cache
    SPANS = {
        "basic": ({"driver": 53, "alter": 2, "anchored": 1, "combine": 1, "group": 3,
                   "select_down": 6, "select_intersect": 1, "select_up": 1, "set_op": 3,
                   "shift": 1, "subset": 1}, 32),
        "toyleap": ({"driver": 16, "alter": 2, "group": 2, "select_down": 1,
                     "select_intersect": 1}, 9),
        "gregorian": ({"driver": 37, "alter": 11, "group": 2}, 23),
        # 50 definitions: x0 = group(3, day), then x_i = shift(1, x_{i-1});
        # each shift is one conversion and one cache hit on its operand
        "shift_chain": ({"driver": 100, "group": 1, "shift": 49}, 49),
    }

    @pytest.mark.parametrize("fixture", list(SPANS))
    def test_tracer_sees_the_driver(self, fixtures_dir, tmp_path, fixture):
        # the benchmark's tracer patches module globals, so it runs in a
        # process of its own
        path = fixtures_dir / f"{fixture}.cal"
        if fixture == "shift_chain":
            path = tmp_path / "chain.cal"
            path.write_text(chain("shift", 49))
        root = pathlib.Path(__file__).parents[1]
        script = (
            "import json, sys\n"
            "from perfbench import tracing\n"
            "from granlower.algebra import parse_calendar\n"
            "from granlower.convert import convert_calendar\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            "convert_calendar(parse_calendar(open(sys.argv[1]).read()))\n"
            "summary = tracer.summary()\n"
            "print(json.dumps([summary['calls'], summary['counters']['convert.cache_hits']]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, timeout=60, cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])),
        )
        assert proc.returncode == 0, proc.stderr
        calls, hits = json.loads(proc.stdout)
        spans = {name.split(".", 1)[1]: n for name, n in calls.items() if name.startswith("convert.")}
        assert (spans, hits) == self.SPANS[fixture]


def mutated(rng: random.Random, text: str) -> str:
    """``text`` with one token deleted, duplicated, swapped with the next one
    or replaced by a fragment of the tokenizer tests."""
    spans = [m.span() for m in re.finditer(r"[\w-]+|[(),;=]", text)]
    i = rng.randrange(len(spans))
    s, e = spans[i]
    kind = rng.randrange(4)
    if kind == 0:
        return text[:s] + text[e:]
    if kind == 1:
        return text[:e] + " " + text[s:e] + text[e:]
    if kind == 2 and i + 1 < len(spans):
        s2, e2 = spans[i + 1]
        return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]
    return text[:s] + rng.choice(_FRAGMENTS) + text[e:]
