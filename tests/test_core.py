import pytest
from hypothesis import given
from hypothesis import strategies as st

from granlower import minimize
from granlower.core import (
    EmptyRep,
    GranularityError,
    PeriodicRep,
    mindist,
    normalize_alignment,
)

from .conftest import scaled
from .test_runs import runs_from


@st.composite
def periodic_reps(draw):
    period = draw(st.integers(2, 14))
    covered = sorted(draw(st.sets(st.integers(1, period), min_size=1, max_size=period)))
    r = draw(st.integers(1, min(4, len(covered))))
    if r == 1:
        cuts = []
    else:
        cuts = sorted(
            draw(st.sets(st.integers(1, len(covered) - 1), min_size=r - 1, max_size=r - 1))
        )
    chunks, prev = [], 0
    for c in cuts + [len(covered)]:
        chunks.append(tuple(covered[prev:c]))
        prev = c
    step = draw(st.integers(r, r + 3))
    rep = normalize_alignment({i + 1: runs_from(chunk) for i, chunk in enumerate(chunks)}, period, step)
    assert isinstance(rep, PeriodicRep)
    return rep


class TestExpand:
    def test_week_parts_arbitrary_granule(self, week_parts_rep):
        assert week_parts_rep.expand(6) == (20, 21)

    def test_explicit_label_is_identity(self, week_parts_rep):
        assert week_parts_rep.expand(3) == tuple(range(8, 13))
        assert week_parts_rep.expand(4) == (13, 14)

    def test_week_third_granule(self, week_rep):
        assert week_rep.expand(3) == tuple(range(15, 22))

    def test_off_label_set_is_empty(self, week_parts_rep):
        # only labels congruent to 3 or 4 mod 2 exist; both residues do here,
        # so build a sparse rep instead
        sunday = PeriodicRep(7, 7, {7: (7,)})
        assert sunday.expand(8) == ()
        assert sunday.expand(14) == (14,)

    def test_bounds_clip_expansion(self, week_rep):
        bounded = PeriodicRep(7, 1, week_rep.explicit, (2, 5))
        assert bounded.expand(1) == ()
        assert bounded.expand(2) == tuple(range(8, 15))
        assert bounded.expand(6) == ()


class TestUp:
    def test_week_interior(self, week_rep):
        assert week_rep.up(10) == 2

    def test_week_parts_paper_value(self, week_parts_rep):
        assert week_parts_rep.up(13) == 4

    def test_gap_gives_none(self):
        sunday = PeriodicRep(7, 7, {7: (7,)})
        assert sunday.up(8) is None
        assert sunday.up(14) == 14

    def test_bounds_clip(self, week_rep):
        bounded = PeriodicRep(7, 1, week_rep.explicit, (2, 5))
        assert bounded.up(1) is None
        assert bounded.up(10) == 2


class TestLhat:
    def test_partial_window_without_wrap_label(self):
        g = PeriodicRep(4, 3, {6: (1, 2), 7: (3,)})
        assert g.lhat(4) == [6, 7]
        assert g.lhat(8) == [6, 7, 9, 10]

    def test_wrap_label_added_when_anchor_covers_zero(self):
        h = PeriodicRep(4, 3, {6: (0, 1), 7: (3,)})
        assert h.lhat(4) == [6, 7, 9]
        assert h.lhat(8) == [6, 7, 9, 10, 12]

    def test_plain_window_when_anchor_positive(self, week_rep):
        assert week_rep.lhat(7) == [1]

    def test_bad_horizon_rejected(self, week_rep):
        with pytest.raises(GranularityError):
            week_rep.lhat(10)
        with pytest.raises(GranularityError):
            week_rep.lhat(0)

    @given(periodic_reps(), st.integers(1, 4))
    def test_cover_count_rule(self, rep, k):
        covers_nonpositive = min(rep.explicit[rep.first_label]) <= 0
        expected = k * len(rep.explicit) + (1 if covers_nonpositive else 0)
        assert len(rep.lhat(k * rep.period)) == expected


class TestMindist:
    def test_week_over_day(self, week_rep, day_rep):
        assert mindist(week_rep, day_rep) == 7

    def test_self_distance_is_one(self, week_rep):
        assert mindist(week_rep, week_rep) == 1

    def test_thirty_day_groups(self, day_rep):
        month30 = PeriodicRep(30, 1, {1: tuple(range(1, 31))})
        assert mindist(month30, day_rep) == 30

    def test_non_consecutive_tile_raises(self, week_rep):
        month30 = PeriodicRep(30, 1, {1: tuple(range(1, 31))})
        with pytest.raises(GranularityError):
            mindist(month30, week_rep)


class TestNormalize:
    def test_reanchors_to_first_positive_instant(self):
        raw = {40 + i: ((7 * i + 1, 7 * i + 7),) for i in range(3)}
        rep = normalize_alignment(raw, 7, 1)
        assert rep.first_label == 40 and rep.labels == (40,)
        assert rep.expand(40) == tuple(range(1, 8))

    def test_idempotent_on_aligned(self, week_rep):
        assert normalize_alignment({1: week_rep.runs_of(1)}, 7, 1) == week_rep

    def test_inconsistent_duplicates_rejected(self):
        with pytest.raises(GranularityError):
            normalize_alignment({1: ((1, 2),), 3: ((4, 5),)}, 4, 2)

    def test_empty_input_is_empty_rep(self):
        assert normalize_alignment({}, 5, 2) == EmptyRep()


class TestValidation:
    def test_rejects_unordered_granules(self):
        with pytest.raises(GranularityError):
            PeriodicRep(7, 2, {1: (5, 6), 2: (4,)})

    def test_rejects_period_overlap(self):
        with pytest.raises(GranularityError):
            PeriodicRep(7, 1, {1: (1, 8)})

    def test_rejects_wide_window(self):
        with pytest.raises(GranularityError):
            PeriodicRep(7, 2, {1: (1,), 3: (3,)})

    def test_rejects_inverted_bounds(self, week_rep):
        with pytest.raises(GranularityError):
            PeriodicRep(7, 1, week_rep.explicit, (5, 2))

    def test_empty_rep_queries(self):
        e = EmptyRep()
        assert e.expand(3) == () and e.up(5) is None
        assert e.lhat(10) == [] and e.labels_within(-5, 5) == []


class TestJson:
    def test_round_trip(self, week_parts_rep):
        data = week_parts_rep.to_json_dict()
        assert data["P"] == 7 and data["N"] == 2
        assert PeriodicRep.from_json_dict(data) == week_parts_rep

    def test_bounds_spellings(self, week_rep):
        bounded = PeriodicRep(7, 1, week_rep.explicit, (None, 1999))
        data = bounded.to_json_dict()
        assert data["bounds"] == {"first": "-inf", "last": 1999}
        assert PeriodicRep.from_json_dict(data) == bounded

    def test_empty_rep(self):
        assert EmptyRep().to_json_dict() == {"empty": True}
        assert PeriodicRep.from_json_dict({"empty": True}) == EmptyRep()

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"P": 7, "N": 1, "labels": [{"label": "x", "bottoms": [1]}], "bounds": None},
            {"P": "a", "N": 1, "labels": [{"label": 1, "bottoms": [1]}], "bounds": None},
            {
                "P": 7,
                "N": 1,
                "labels": [{"label": 1, "bottoms": [1]}],
                "bounds": {"first": "z", "last": "+inf"},
            },
            [],
            {"P": 7.9, "N": 1, "labels": [{"label": 1.5, "bottoms": [1.5, 2]}], "bounds": None},
            {"P": 7.0, "N": 1, "labels": [{"label": 1, "bottoms": [1]}], "bounds": None},
            {"P": 7, "N": True, "labels": [{"label": 1, "bottoms": [1]}], "bounds": None},
            {"P": 7, "N": 1, "labels": [{"label": 1, "bottoms": [1.5]}], "bounds": None},
            {"P": 7, "N": 1, "labels": [{"label": 1, "bottoms": ["1"]}], "bounds": None},
            {"P": "7", "N": 1, "labels": [{"label": 1, "bottoms": [1]}], "bounds": None},
            {
                "P": 7,
                "N": 1,
                "labels": [{"label": 1, "bottoms": [1]}],
                "bounds": {"first": 1.5, "last": "+inf"},
            },
        ],
    )
    def test_malformed_input_raises_granularity_error(self, data):
        with pytest.raises(GranularityError):
            PeriodicRep.from_json_dict(data)

    def test_repeated_label_is_rejected(self):
        # a second entry for a label must not silently replace the first
        data = {
            "P": 7,
            "N": 2,
            "labels": [{"label": 1, "bottoms": [1, 2]}, {"label": 1, "bottoms": [5]}],
            "bounds": None,
        }
        with pytest.raises(GranularityError, match="label 1 is given twice"):
            PeriodicRep.from_json_dict(data)


class TestImmutable:
    def test_explicit_window_is_read_only(self, week_parts_rep):
        week_parts_rep.up(5)  # builds the lazy cover index
        with pytest.raises(TypeError):
            week_parts_rep.explicit[3] = (8, 9)
        with pytest.raises(TypeError):
            del week_parts_rep.explicit[4]
        assert week_parts_rep.up(9) == 3 and week_parts_rep.expand(3) == tuple(range(8, 13))

    @pytest.mark.parametrize(
        "name", ["period", "step", "bounds", "labels", "explicit", "first_label", "_runs"]
    )
    def test_attributes_cannot_be_reassigned(self, week_parts_rep, name):
        rep = week_parts_rep
        assert rep.up(15) == 5  # builds the lazy cover index
        before = getattr(rep, name)
        with pytest.raises(AttributeError):
            setattr(rep, name, 14)
        with pytest.raises(AttributeError):
            delattr(rep, name)
        assert getattr(rep, name) is before
        assert rep.period == 7 and rep.step == 2 and rep.labels == (3, 4)
        assert rep.up(15) == 5 and rep.up(22) == 7 and rep.expand(5) == tuple(range(15, 20))
        assert rep.lhat(14) == [1, 2, 3, 4] and rep == PeriodicRep(7, 2, {3: range(8, 13), 4: (13, 14)})

    def test_caches_cannot_be_set_from_outside(self):
        # a lowered rep: normalize_alignment hands its anchor to the constructor
        rep = normalize_alignment({40: ((1, 7),), 41: ((8, 14),), 42: ((15, 21),)}, 7, 1)
        assert rep.anchor_label == 40 and rep.up(8) == 41  # the cover index is built
        cover = rep._cover
        with pytest.raises(AttributeError):
            rep._anchor = 5
        with pytest.raises(AttributeError):
            rep._cover = None
        assert rep.anchor_label == 40 and rep._anchor is rep.first_label
        assert rep._cover is cover and rep.up(8) == 41

    def test_repr_shows_plain_window(self, week_rep):
        assert repr(week_rep) == "PeriodicRep(period=7, step=1, explicit={1: (1, 2, 3, 4, 5, 6, 7)})"


class TestProperties:
    @given(periodic_reps(), st.lists(st.sampled_from(("json", "unbounded", "minimize", "bounds", "doubled", "query")),
                                     max_size=8), st.integers(-3, 3))
    def test_public_calls_leave_every_rep_as_built(self, rep, calls, lo):
        # each rep made by a public call, with a copy of what defined it: a
        # period, step, window and bounds of the same granularity
        window = {a: list(rep.expand(a)) for a in rep.labels}
        made = [(PeriodicRep(rep.period, rep.step, window), (rep.period, rep.step, dict(rep.explicit), None))]
        handed = [window, *window.values()]  # the callers' own data, cleared at the end
        for call in calls:
            last = made[-1][0]
            source = (last.period, last.step, dict(last.explicit), last.bounds)
            if call == "json":
                data = last.to_json_dict()
                made.append((PeriodicRep.from_json_dict(data), source))
                handed.extend(e["bottoms"] for e in data["labels"])
            elif call == "unbounded":
                made.append((last.unbounded(), source[:3] + (None,)))
            elif call == "minimize":
                made.append((minimize(last), source))
            elif call == "bounds":
                made.append((PeriodicRep(*source[:3], (lo, lo + 3)), source[:3] + ((lo, lo + 3),)))
            elif call == "doubled" and last.period < 50:  # the same granules, two periods a window
                core = last.unbounded()
                twice = {a: g for a in range(last.first_label, last.first_label + 2 * last.step) if (g := core.expand(a))}
                made.append((PeriodicRep(2 * last.period, 2 * last.step, twice, last.bounds),
                             (2 * last.period, 2 * last.step, dict(twice), last.bounds)))
                handed.append(twice)
            else:  # fill the lazy caches
                last.up(lo), last.expand(lo), last.anchor_label
        for data in handed:
            data.clear()
        for r, source in made:
            fresh = PeriodicRep(*source)
            labels = range(fresh.labels[0] - 2 * fresh.step, fresh.labels[-1] + 2 * fresh.step)
            instants = range(-fresh.period, 3 * fresh.period)
            assert (r.gapless, r.anchor_label) == (fresh.gapless, fresh.anchor_label)
            assert [r.expand(a) for a in labels] == [fresh.expand(a) for a in labels]
            assert [r.up(t) for t in instants] == [fresh.up(t) for t in instants]

    @given(periodic_reps(), st.integers(-3, 3))
    def test_expansion_periodicity(self, rep, cycles):
        for a in rep.labels:
            shifted = rep.expand(a + cycles * rep.step)
            assert shifted == tuple(x + cycles * rep.period for x in rep.expand(a))

    @given(periodic_reps(), st.integers(-2, 2))
    def test_up_expand_round_trip(self, rep, cycles):
        for a in rep.labels:
            label = a + cycles * rep.step
            for t in rep.expand(label):
                assert rep.up(t) == label

    @given(periodic_reps())
    def test_expansion_monotone(self, rep):
        labels = rep.lhat(2 * rep.period)
        granules = [rep.expand(a) for a in labels]
        for g1, g2 in zip(granules, granules[1:]):
            assert g1[-1] < g2[0]

    @given(periodic_reps(), st.integers(1, 4))
    def test_scaling_validity(self, rep, alpha):
        wide = scaled(rep, alpha)
        assert wide.period == alpha * rep.period and wide.step == alpha * rep.step
        for a in rep.lhat(2 * rep.period):
            assert wide.expand(a) == rep.expand(a)

    @given(periodic_reps())
    def test_canonical_after_normalize(self, rep):
        assert rep.anchor_label == rep.first_label
