"""Run-length storage against a brute-force, instant-level reference.

Every representation here is built straight from a raw window of index
sets, including granules with holes, and every answer is checked against
the same window enumerated instant by instant, with no run arithmetic.
"""

import datetime
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granlower.algebra import parse_calendar
from granlower.convert import convert_calendar, convert_subset
from granlower.core import (
    EmptyRep,
    GranularityError,
    PeriodicRep,
    consecutive_spans,
    normalize_alignment,
    shift_runs,
)
from granlower.minimize import minimize

from .conftest import scaled
from .test_cli import deadline


@st.composite
def raw_windows(draw, gapless=False):
    """``(period, step, {label: sorted indices})``: one valid window, any offset."""
    period = draw(st.integers(1, 16))
    covered = list(range(1, period + 1)) if gapless else sorted(
        draw(st.sets(st.integers(1, period), min_size=1, max_size=period))
    )
    count = draw(st.integers(1, min(4, len(covered))))
    cuts = sorted(draw(st.sets(st.integers(1, len(covered) - 1), min_size=count - 1,
                               max_size=count - 1))) if count > 1 else []
    step = draw(st.integers(count, count + 3))
    # distinct labels inside one window of ``step``, in time order
    slots = sorted(draw(st.sets(st.integers(0, step - 1), min_size=count, max_size=count)))
    first = draw(st.integers(-6, 6))
    shift = draw(st.integers(-2 * period, 2 * period))
    window, prev = {}, 0
    for slot, cut in zip(slots, cuts + [len(covered)]):
        window[first + slot] = tuple(x + shift for x in covered[prev:cut])
        prev = cut
    return period, step, window


class Brute:
    """The granularity a raw window describes, enumerated instant by instant."""

    def __init__(self, period, step, window):
        self.period, self.step, self.window = period, step, window

    def granule(self, label):
        for a, g in self.window.items():
            if (label - a) % self.step == 0:
                cycles = (label - a) // self.step
                return tuple(x + cycles * self.period for x in g)
        return ()

    def up(self, t):
        for a, g in self.window.items():
            for x in g:
                if (t - x) % self.period == 0:
                    return a + (t - x) // self.period * self.step
        return None

    def labels(self, lo, hi):
        """Every label whose granule meets ``[lo, hi]``."""
        return sorted({self.up(t) for t in range(lo, hi + 1)} - {None})


def reach(period):
    return 4 * period + 20


@given(raw_windows())
def test_expand_and_up_match_instants(raw):
    period, step, window = raw
    rep, brute = PeriodicRep(period, step, window), Brute(*raw)
    r = reach(period)
    for t in range(-r, r + 1):
        assert rep.up(t) == brute.up(t)
    for label in range(min(window) - 3 * step, max(window) + 3 * step + 1):
        assert rep.expand(label) == brute.granule(label)


@given(raw_windows(), st.integers(-3, 3), st.integers(0, 12))
def test_bounds_clip_up_and_expand(raw, lo_shift, width):
    period, step, window = raw
    lo = min(window) + lo_shift
    hi = lo + width
    rep, brute = PeriodicRep(period, step, window, (lo, hi)), Brute(*raw)
    for t in range(-reach(period), reach(period) + 1):
        label = brute.up(t)
        assert rep.up(t) == (label if label is not None and lo <= label <= hi else None)
    for label in range(lo - step, hi + step + 1):
        expected = brute.granule(label) if lo <= label <= hi else ()
        assert rep.expand(label) == expected


@given(raw_windows(), st.integers(1, 3))
def test_lhat_matches_instants(raw, k):
    period, step, window = raw
    rep, brute = PeriodicRep(period, step, window), Brute(*raw)
    assert rep.lhat(k * period) == brute.labels(1, k * period)


@given(raw_windows(gapless=True), st.integers(1, 3))
def test_consecutive_spans_walks_lhat_and_one_more(raw, k):
    # the bottom partitions any gapless granularity; the walk takes the
    # labels lhat finds, a granule straddling instant 1 among them, and the next
    period, step, window = raw
    rep, bottom = PeriodicRep(*raw), PeriodicRep(1, 1, {1: (1,)})
    labels = rep.lhat(k * period)
    spans = consecutive_spans(rep, bottom, k * period)
    assert [a for a, _, _ in spans] == labels + [rep.next_label(labels[-1])]
    assert all((b, t) == (rep.expand(a)[0], rep.expand(a)[-1]) for a, b, t in spans)


def outcome(call):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), exc.args


@given(
    st.one_of(raw_windows(), raw_windows(gapless=True)),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 6)), max_size=6),
    st.integers(-30, 30),
    st.integers(0, 6),
)
def test_spans_is_span_per_pair(raw, pairs, stray, where):
    # pairs of the label set, each checked against the instants it covers,
    # then a label that may lie outside the set: a gapless rep raises for
    # it what span raises, at the same pair
    period, step, window = raw
    rep, brute = PeriodicRep(*raw), Brute(*raw)
    firsts = [rep.next_label(x - 1) for x, _ in pairs]
    lasts = [rep._at(rep._rank(a) + w)[0] for a, (_, w) in zip(firsts, pairs)]
    expected = [
        runs_from(x for label in range(a, b + 1) for x in brute.granule(label))
        for a, b in zip(firsts, lasts)
    ]
    assert rep.spans(firsts, lasts) == expected
    assert rep.spans(iter(firsts), iter(lasts)) == [rep.span(a, b) for a, b in zip(firsts, lasts)]
    firsts.insert(min(where, len(firsts)), stray)
    lasts.insert(min(where, len(lasts)), stray + where)
    assert outcome(lambda: rep.spans(firsts, lasts)) == outcome(
        lambda: [rep.span(a, b) for a, b in zip(firsts, lasts)]
    )


@given(
    st.one_of(raw_windows(), raw_windows(gapless=True)),
    st.integers(0, 4),
    st.integers(-2, 2),
    st.integers(1, 3).flatmap(lambda k: st.sampled_from([k, -k])),
    st.integers(0, 3),
    st.booleans(),
)
def test_one_window_normalize_matches_the_general_path(raw, split, cycles, k, which, empty):
    # the window rotated at split (the labels before it moved up a step) and
    # moved by whole cycles, so that the anchor falls anywhere in it; a
    # consistent copy of one granule k steps away forces the general path.
    # A copy below its granule stands first for its residue, and so may come
    # first in the window's insertion order: equal, but another repr
    period, step, window = raw
    labels = sorted(window)
    one = {}
    for i, a in enumerate(labels):
        m = cycles + (i < split)
        one[a + m * step] = runs_from(x + m * period for x in window[a])
    if empty:
        one[max(one) + 1] = ()  # an empty granule is no granule
    lab = sorted(a for a in one if one[a])[which % len(labels)]
    copy = dict(one)
    copy[lab + k * step] = shift_runs(one[lab], k * period)
    fast, general = normalize_alignment(one, period, step), normalize_alignment(copy, period, step)
    assert fast == general and fast.anchor_label == general.anchor_label
    assert k < 0 or repr(fast) == repr(general)
    assert fast._anchor is fast.first_label and fast._runs is not one
    assert fast == normalize_alignment({a: runs_from(g) for a, g in window.items()}, period, step)
    # an inconsistent copy breaks the repetition, named by its two labels
    copy[lab + k * step] = shift_runs(one[lab], k * period + 1)
    low, high = sorted((lab, lab + k * step))
    with pytest.raises(GranularityError) as caught:
        normalize_alignment(copy, period, step)
    assert str(caught.value) == (
        f"granules at labels {low} and {high} break the stated (period={period}, step={step}) repetition"
    )


@given(raw_windows(), st.integers(-20, 20), st.integers(0, 30))
def test_labels_within_matches_instants(raw, lo, width):
    period, step, window = raw
    hi = lo + width
    rep, brute = PeriodicRep(period, step, window), Brute(*raw)
    r = reach(period) + abs(lo) + width
    expected = [
        a for a in brute.labels(-r, r)
        if lo <= brute.granule(a)[0] and brute.granule(a)[-1] <= hi
    ]
    assert rep.labels_within(lo, hi) == expected


@given(raw_windows())
def test_anchor_label_covers_smallest_positive_instant(raw):
    rep, brute = PeriodicRep(*raw), Brute(*raw)
    smallest = next(t for t in range(1, rep.period + 1) if brute.up(t) is not None)
    assert rep.anchor_label == brute.up(smallest)


@given(raw_windows(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_normalize_alignment_from_any_copies(raw, cycles):
    period, step, window = raw
    brute = Brute(*raw)
    # each granule handed in at some other copy
    moved = {
        a + c * step: runs_from(x + c * period for x in g)
        for (a, g), c in zip(sorted(window.items()), cycles)
    }
    rep = normalize_alignment(moved, period, step)
    assert rep.anchor_label == rep.first_label
    assert rep == normalize_alignment({a: runs_from(g) for a, g in window.items()}, period, step)
    for label in range(min(window) - 2 * step, max(window) + 2 * step + 1):
        assert rep.expand(label) == brute.granule(label)


def runs_from(instants):
    """Maximal ``(start, end)`` runs of a set of instants, by a plain scan."""
    runs = []
    for t in sorted(instants):
        if runs and runs[-1][1] == t - 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    return tuple((a, b) for a, b in runs)


@given(raw_windows(), st.integers(0, 6))
def test_span_matches_instants(raw, count):
    period, step, window = raw
    rep, brute = PeriodicRep(period, step, window), Brute(*raw)
    labels = brute.labels(1, 3 * period)
    first, last = labels[0], labels[min(count, len(labels) - 1)]
    union = {x for a in labels if first <= a <= last for x in brute.granule(a)}
    assert rep.span(first, last) == runs_from(union)


@given(raw_windows(), st.integers(-40, 40))
def test_next_and_prev_label_match_instants(raw, label):
    period, step, window = raw
    brute = Brute(*raw)
    # every residue of the label set recurs within step labels
    above = next(a for a in range(label + 1, label + step + 1) if brute.granule(a))
    below = next(a for a in range(label - 1, label - step - 1, -1) if brute.granule(a))
    # both answer for the unbounded core, whatever the bounds
    for bounds in (None, (label, label)):
        rep = PeriodicRep(period, step, window, bounds)
        assert (rep.next_label(label), rep.prev_label(label)) == (above, below)


@given(
    raw_windows(),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 12)), min_size=1, max_size=3),
)
@example((7, 1, {1: (1, 5)}), [(10, 1)])  # granule 2 straddles the frame [10, 11]
def test_walk_label_sets_match_instants(raw, pieces):
    # a frame granule of up to three pieces has gaps, and a source granule
    # with holes can straddle one; the walk asks for both label sets
    rep, brute = PeriodicRep(*raw), Brute(*raw)
    instants = {t for lo, width in pieces for t in range(lo, lo + width + 1)}
    frame = runs_from(instants)
    meeting = sorted({brute.up(t) for t in instants} - {None})
    inside = [a for a in meeting if set(brute.granule(a)) <= instants]
    assert rep._labels_in(frame, True) == meeting
    assert rep._labels_in(frame, False) == inside


def brute_minimal_period(period, step, brute):
    """The smallest ``period / alpha`` whose shifted window reproduces every granule."""
    best = period
    for alpha in range(2, math.gcd(period, step) + 1):
        if period % alpha or step % alpha:
            continue
        dp, dn = period // alpha, step // alpha
        labels = brute.labels(-period, 2 * period)
        if all(
            brute.granule(a + dn) == tuple(x + dp for x in brute.granule(a)) for a in labels
        ):
            best = min(best, dp)
    return best


@given(raw_windows(), st.integers(1, 4))
def test_minimize_matches_brute_force(raw, alpha):
    # scaling first gives minimize something to remove
    period, step, window = raw
    brute = Brute(*raw)
    rep = scaled(PeriodicRep(period, step, window), alpha)
    small = minimize(rep)
    assert small.period == brute_minimal_period(period * alpha, step * alpha, brute)
    assert small.period * rep.step == small.step * rep.period
    for label in range(min(window) - 2 * step, max(window) + 2 * step + 1):
        assert small.expand(label) == brute.granule(label)


@given(raw_windows(), st.booleans())
def test_json_round_trip(raw, bounded):
    period, step, window = raw
    bounds = (min(window) - 1, None) if bounded else None
    rep = PeriodicRep(period, step, window, bounds)
    assert PeriodicRep.from_json_dict(rep.to_json_dict()) == rep
    assert PeriodicRep.from_json_dict(EmptyRep().to_json_dict()) == EmptyRep()


@settings(max_examples=30)
@given(raw_windows())
def test_explicit_is_a_read_only_view(raw):
    period, step, window = raw
    rep = PeriodicRep(period, step, window)
    assert len(rep.explicit) == len(window) and list(rep.explicit) == sorted(window)
    assert dict(rep.explicit) == {a: tuple(sorted(set(g))) for a, g in window.items()}
    assert all(len(g) for g in rep.explicit.values())
    with pytest.raises(TypeError):
        rep.explicit[min(window)] = (1,)
    # the view rebuilds the same representation
    assert PeriodicRep(period, step, rep.explicit) == rep


@given(raw_windows(), st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(2, 3))
def test_coverage_and_anchor_known_from_construction(raw, cycles, alpha):
    period, step, window = raw
    rep = PeriodicRep(period, step, window)
    assert rep.gapless == all(rep.up(t) is not None for t in range(1, period + 1))

    def fresh_anchor(r):
        return PeriodicRep(r.period, r.step, dict(r.explicit)).anchor_label

    # normalize_alignment stores the anchor it computed, and minimize's
    # smaller window keeps it
    moved = {
        a + c * step: runs_from(x + c * period for x in g)
        for (a, g), c in zip(sorted(window.items()), cycles)
    }
    aligned = normalize_alignment(moved, period, step)
    assert aligned._anchor is not None and aligned._anchor == fresh_anchor(aligned)
    bounded = convert_subset(aligned, aligned.first_label, None)
    assert bounded.unbounded()._anchor == aligned._anchor
    wide = scaled(aligned, alpha)
    small = minimize(normalize_alignment(wide._runs, wide.period, wide.step))
    assert small.period <= period  # reduced at least by alpha
    assert small._anchor is not None and small._anchor == fresh_anchor(small)


def test_week_parts_holes():
    # week_parts = alter(1, 3, 2, day, group(2, day)): a 5-day and a 2-day part
    rep = PeriodicRep(7, 2, {1: (1, 2, 3, 4, 5), 2: (6, 7)})
    holes = PeriodicRep(7, 1, {1: (1, 3, 5, 7)})
    assert [holes.up(t) for t in range(1, 9)] == [1, None, 1, None, 1, None, 1, 2]
    assert holes.expand(2) == (8, 10, 12, 14)
    assert rep.expand(4) == (13, 14)
    assert len(holes._cover_index()) == 1  # one entry per granule, not per instant


class TestMinuteBottom:
    """The Gregorian fixture on a minute bottom: P = 400 years of minutes.

    Stored as runs, a month is one run whatever the bottom, so this converts
    in about as long as the day-bottom fixture instead of running out of
    memory on 210 million instants.
    """

    PERIOD = 146097 * 24 * 60

    @staticmethod
    def day_of(date):
        # day 1 is 0001-01-01; the 400-year cycle repeats every 146097 days
        return date.toordinal()

    def month_days(self, label):
        cycle, rest = divmod(label - 1, 4800)
        year, month = divmod(rest, 12)
        first = datetime.date(year + 1, month + 1, 1)
        nxt = datetime.date(year + 2, 1, 1) if month == 11 else datetime.date(year + 1, month + 2, 1)
        return self.day_of(first) + cycle * 146097, self.day_of(nxt) - 1 + cycle * 146097

    def test_month_and_year(self, fixtures_dir):
        text = (fixtures_dir / "gregorian.cal").read_text().replace(
            "calendar gregorian bottom day;",
            "calendar gregorian_minute bottom minute;\n"
            "hour = group(60, minute);\nday = group(24, hour);",
        )
        doc = parse_calendar(text)
        start = time.perf_counter()
        with deadline(60):
            reps = convert_calendar(doc, ["month", "year"])
        elapsed = time.perf_counter() - start
        month, year = reps["month"], reps["year"]
        assert (month.period, month.step) == (self.PERIOD, 4800)
        assert (year.period, year.step) == (self.PERIOD, 400)
        minute = lambda day: (day - 1) * 1440 + 1  # noqa: E731  first minute of a day
        for label in (1, 2, 14, 4800, 4801, -11):
            first, last = self.month_days(label)
            assert month.expand(label) == tuple(range(minute(first), minute(last + 1)))
            assert month.up(minute(first)) == label
            assert month.up(minute(last + 1) - 1) == label
        leap = self.day_of(datetime.date(2000, 2, 29))
        assert month.up(minute(leap) + 719) == 1999 * 12 + 2
        assert year.up(minute(leap)) == 2000
        assert year.up(minute(self.day_of(datetime.date(2001, 1, 1))) - 1) == 2000
        assert year.expand(401)[0] == self.PERIOD + 1
        # well under a second on a 2-core machine
        assert elapsed < 20
