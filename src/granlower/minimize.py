"""Reduction of a periodic representation to its minimal period length.

Any two valid (period, step) pairs of one unbounded granularity differ by an
integer factor, because the translations they induce form a subgroup of the
plane generated by the minimal pair.  The minimal period therefore divides
the current one, and it is reached by repeatedly dividing out prime factors
of gcd(period, step, granule count) whenever the shrunken pattern still maps
the window onto itself.
"""

from __future__ import annotations

import math

from .core import EmptyRep, PeriodicRep, Rep, shift_runs


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_valid_reduction(rep: PeriodicRep, alpha: int) -> bool:
    """True when ``(period/alpha, step/alpha)`` still describes ``rep``.

    The check is the periodicity condition itself at the reduced pair: every
    explicit granule, translated by ``step/alpha`` labels, must reappear
    shifted by ``period/alpha`` bottom indices.
    """
    if alpha < 2:
        return False
    if rep.period % alpha or rep.step % alpha or len(rep.explicit) % alpha:
        return False
    # the repetition pattern lives on the unbounded core; bounds only clip
    rep = rep.unbounded()
    dn = rep.step // alpha
    dp = rep.period // alpha
    return all(
        rep.runs_of(a + dn) == shift_runs(g, dp) for a, g in rep._runs.items()
    )


def _reduce(rep: PeriodicRep, alpha: int) -> PeriodicRep:
    step = rep.step // alpha
    cutoff = rep.first_label + step
    runs = {a: g for a, g in rep._runs.items() if a < cutoff}
    return PeriodicRep._from_runs(rep.period // alpha, step, runs, rep.bounds, rep._anchor)


def minimize(rep: Rep) -> Rep:
    """An expansion-identical representation with the smallest period length.

    Idempotent; :class:`EmptyRep` passes through unchanged.  Labels, granule
    contents and bounds are untouched, only the stored window shrinks.
    """
    if isinstance(rep, EmptyRep):
        return rep
    while True:
        g = math.gcd(rep.period, rep.step, len(rep.labels))
        for p in _prime_factors(g):
            if is_valid_reduction(rep, p):
                rep = _reduce(rep, p)
                break
        else:
            return rep
