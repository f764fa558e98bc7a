import random

from granlower.convert import BOTTOM_REP, convert_alter
from granlower.core import EmptyRep, PeriodicRep
from granlower.minimize import _prime_factors, is_valid_reduction, minimize

from .conftest import scaled
from .exprgen import sample_convertible


class TestValidReduction:
    def test_inflated_week(self, week_rep):
        doubled = scaled(week_rep, 2)
        assert is_valid_reduction(doubled, 2)

    def test_lengthen_shorten_chain(self, week_rep):
        g1 = convert_alter(BOTTOM_REP, week_rep, 1, 1, 2)
        g2 = convert_alter(BOTTOM_REP, g1, 1, -1, 2)
        assert (g2.period, g2.step) == (14, 2)
        assert is_valid_reduction(g2, 2)

    def test_unequal_granules_not_reducible(self):
        rep = PeriodicRep(14, 2, {1: tuple(range(1, 9)), 2: tuple(range(9, 15))})
        assert not is_valid_reduction(rep, 2)

    def test_non_divisor_rejected(self, week_rep):
        assert not is_valid_reduction(scaled(week_rep, 2), 3)


class TestMinimize:
    def test_restores_week(self, week_rep):
        g1 = convert_alter(BOTTOM_REP, week_rep, 1, 1, 2)
        g2 = convert_alter(BOTTOM_REP, g1, 1, -1, 2)
        assert minimize(g2) == week_rep

    def test_already_minimal_untouched(self, week_rep):
        assert minimize(week_rep) == week_rep

    def test_scaled_unit_collapses(self, day_rep):
        inflated = scaled(day_rep, 5)
        assert (inflated.period, inflated.step) == (5, 5)
        assert minimize(inflated) == day_rep

    def test_composite_factors(self, day_rep):
        inflated = scaled(day_rep, 12)
        assert minimize(inflated) == day_rep

    def test_empty_passthrough(self):
        assert minimize(EmptyRep()) == EmptyRep()

    def test_bounds_preserved(self, week_rep):
        bounded = PeriodicRep(14, 2, scaled(week_rep, 2).explicit, (3, 9))
        out = minimize(bounded)
        assert out.bounds == (3, 9) and (out.period, out.step) == (7, 1)


class TestMinimizeProperties:
    def test_semantics_idempotence_certificate(self):
        rng = random.Random(20240817)
        for _ in range(25):
            _, rep = sample_convertible(rng, depth=2, max_result_period=400)
            if isinstance(rep, EmptyRep):
                continue
            reduced = minimize(rep)
            horizon = 2 * max(rep.period, reduced.period)
            window = rep.labels_within(-horizon, horizon)
            assert reduced.labels_within(-horizon, horizon) == window
            for label in window:
                assert reduced.expand(label) == rep.expand(label)
            assert minimize(reduced) == reduced
            import math

            g = math.gcd(reduced.period, reduced.step, len(reduced.explicit))
            assert all(not is_valid_reduction(reduced, p) for p in _prime_factors(g))

    def test_reinflation_round_trip(self):
        rng = random.Random(7)
        for _ in range(15):
            _, rep = sample_convertible(rng, depth=2, max_result_period=400)
            if isinstance(rep, EmptyRep):
                continue
            reduced = minimize(rep)
            alpha = rep.period // reduced.period
            if alpha > 1:
                again = scaled(reduced, alpha)
                for label in rep.labels_within(-rep.period, 2 * rep.period):
                    assert again.expand(label) == rep.expand(label)
