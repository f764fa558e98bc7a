"""Periodic-set representations of time granularities.

A granularity maps integer labels to disjoint, time-ordered sets of bottom
instants (its granules).  Most useful granularities repeat: after ``period``
bottom instants the grouping pattern recurs and labels advance by ``step``.
That makes one window of explicitly stored granules enough to answer any
query, which is what :class:`PeriodicRep` encodes.  This module also carries
the label-set machinery (the explicit window, the cover set of a horizon, the
anchor label) that the lowering formulas in :mod:`granlower.convert` consume.

All arithmetic is exact integer arithmetic; there are no floats anywhere.
Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping

Granule = tuple[int, ...]
Bounds = tuple[int | None, int | None]


class GranularityError(Exception):
    """A periodic representation, or a query against one, is malformed."""


def _ceil_div(a: int, b: int) -> int:
    # exact ceiling of a/b for positive b
    return -((-a) // b)


def as_granule(indices: Iterable[int]) -> Granule:
    """Normalize an iterable of bottom indices into a sorted, deduplicated granule."""
    g = tuple(sorted(set(indices)))
    if not g:
        raise GranularityError("a granule must contain at least one bottom index")
    return g


def shift_granule(g: Granule, delta: int) -> Granule:
    return tuple(x + delta for x in g)


def _json_int(value: object) -> int:
    # bool is an int subclass, but true and false are not labels or instants
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class PeriodicRep:
    """One explicit window of granules plus the (period, step) repetition rule.

    ``explicit`` maps each stored label to its granule; all labels lie in
    ``[first_label, first_label + step - 1]``.  Granule ``label + step`` is
    granule ``label`` shifted by ``period`` bottom indices, in both
    directions, so every label of the granularity is reachable from the
    window.  ``bounds`` optionally clips the label set to ``[first, last]``
    (``None`` on a side means unbounded); ``bounds=None`` is fully unbounded.

    Lowered representations are *aligned*: ``first_label`` is the label of
    the granule covering the smallest positive covered instant (see
    :meth:`is_canonical`).  Direct construction accepts any valid window.
    """

    __slots__ = (
        "period", "step", "explicit", "bounds", "first_label", "labels", "_cover", "_anchor"
    )

    def __init__(
        self,
        period: int,
        step: int,
        explicit: Mapping[int, Iterable[int]],
        bounds: Bounds | None = None,
    ):
        if period < 1:
            raise GranularityError(f"period must be positive, got {period}")
        if step < 1:
            raise GranularityError(f"step must be positive, got {step}")
        if not explicit:
            raise GranularityError("explicit window is empty (use EmptyRep)")
        granules = {int(lab): as_granule(g) for lab, g in explicit.items()}
        labels = sorted(granules)
        first = labels[0]
        if labels[-1] - first >= step:
            raise GranularityError(
                f"explicit labels {labels} do not fit in one window of {step}"
            )
        for a, b in zip(labels, labels[1:]):
            if granules[a][-1] >= granules[b][0]:
                raise GranularityError(
                    f"granules of labels {a} and {b} are not time-ordered"
                )
        # the window must also precede its own next copy
        if granules[labels[-1]][-1] >= granules[first][0] + period:
            raise GranularityError(
                "last explicit granule overlaps the next period's first granule"
            )
        if bounds is not None:
            lo, hi = bounds
            if lo is None and hi is None:
                bounds = None
            elif lo is not None and hi is not None and lo > hi:
                raise GranularityError(f"bounds {bounds} are inverted")
        self.period = period
        self.step = step
        # read-only, so the lazy caches below can never go stale
        self.explicit: Mapping[int, Granule] = MappingProxyType(granules)
        self.bounds = bounds
        self.first_label = first
        self.labels = tuple(labels)  # labels of the explicit window, ascending
        self._cover: dict[int, int] | None = None
        self._anchor: int | None = None

    def unbounded(self) -> "PeriodicRep":
        """The unbounded core: the same granularity without subset bounds."""
        if self.bounds is None:
            return self
        return PeriodicRep(self.period, self.step, self.explicit)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeriodicRep)
            and self.period == other.period
            and self.step == other.step
            and self.explicit == other.explicit
            and self.bounds == other.bounds
        )

    __hash__ = None  # equal by value; identity hashing would mislead

    def __repr__(self) -> str:
        b = f", bounds={self.bounds}" if self.bounds else ""
        return f"PeriodicRep(period={self.period}, step={self.step}, explicit={dict(self.explicit)}{b})"

    # -- queries -------------------------------------------------------

    def _in_bounds(self, label: int) -> bool:
        if self.bounds is None:
            return True
        lo, hi = self.bounds
        if lo is not None and label < lo:
            return False
        if hi is not None and label > hi:
            return False
        return True

    def expand(self, label: int) -> Granule | tuple[()]:
        """Bottom indices of the granule with this label; ``()`` off the label set."""
        if not self._in_bounds(label):
            return ()
        base = self.first_label
        jp = (label - 1) % self.step + 1
        k = ((base - 1) // self.step) * self.step + jp
        if k < base:
            k += self.step
        stored = self.explicit.get(k)
        if stored is None:
            return ()
        delta = self.period * ((label - 1) // self.step - (k - 1) // self.step)
        return shift_granule(stored, delta)

    def _cover_index(self) -> dict[int, int]:
        # covered instant in [1, period] -> covering label
        if self._cover is None:
            cover: dict[int, int] = {}
            for a, g in self.explicit.items():
                s_lo = _ceil_div(1 - g[-1], self.period)
                s_hi = (self.period - g[0]) // self.period
                for s in range(s_lo, s_hi + 1):
                    for x in g:
                        y = x + s * self.period
                        if 1 <= y <= self.period:
                            if y in cover:
                                raise GranularityError(
                                    f"instant {y} covered by two granules"
                                )
                            cover[y] = a + s * self.step
            self._cover = cover
        return self._cover

    def up(self, instant: int) -> int | None:
        """Label of the granule covering a bottom instant, or ``None`` in a gap."""
        cycles = (instant - 1) // self.period
        reduced = instant - cycles * self.period  # in [1, period]
        label = self._cover_index().get(reduced)
        if label is None:
            return None
        label += cycles * self.step
        return label if self._in_bounds(label) else None

    def next_label(self, label: int) -> int:
        """Smallest label of the (unbounded core) label set strictly above ``label``."""
        return min(
            a + _ceil_div(label + 1 - a, self.step) * self.step for a in self.explicit
        )

    def prev_label(self, label: int) -> int:
        """Greatest label of the (unbounded core) label set strictly below ``label``."""
        return max(
            a + ((label - 1 - a) // self.step) * self.step for a in self.explicit
        )

    def lhat(self, horizon: int) -> list[int]:
        """Labels of all granules covering some instant in ``[1, horizon]``.

        Works on the unbounded core (conversion math never sees bounds).
        ``horizon`` must be a positive multiple of ``period``.
        """
        if horizon < 1 or horizon % self.period:
            raise GranularityError(
                f"horizon {horizon} is not a positive multiple of period {self.period}"
            )
        out = []
        for a, g in self.explicit.items():
            s_lo = _ceil_div(1 - g[-1], self.period)
            s_hi = (horizon - g[0]) // self.period
            out.extend(a + s * self.step for s in range(s_lo, s_hi + 1))
        return sorted(out)

    def labels_within(self, lo: int, hi: int) -> list[int]:
        """Labels whose non-empty granules lie entirely inside ``[lo, hi]``."""
        out = []
        for a, g in self.explicit.items():
            s_lo = _ceil_div(lo - g[0], self.period)
            s_hi = (hi - g[-1]) // self.period
            out.extend(
                a + s * self.step
                for s in range(s_lo, s_hi + 1)
                if self._in_bounds(a + s * self.step)
            )
        return sorted(out)

    @property
    def anchor_label(self) -> int:
        """Label of the granule covering the smallest positive covered instant."""
        if self._anchor is None:
            self._anchor = _anchor_label(self.explicit.items(), self.period, self.step)
        return self._anchor

    @property
    def is_canonical(self) -> bool:
        """True when the explicit window starts at the anchor label."""
        return self.anchor_label == self.first_label

    # -- derived representations ----------------------------------------

    def scaled(self, alpha: int) -> "PeriodicRep":
        """The same granularity re-described with pair ``(alpha*period, alpha*step)``."""
        if alpha < 1:
            raise GranularityError("scale factor must be positive")
        explicit = {
            a + r * self.step: shift_granule(g, r * self.period)
            for a, g in self.explicit.items()
            for r in range(alpha)
        }
        return PeriodicRep(self.period * alpha, self.step * alpha, explicit, self.bounds)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.bounds is None:
            bounds = None
        else:
            lo, hi = self.bounds
            bounds = {
                "first": "-inf" if lo is None else lo,
                "last": "+inf" if hi is None else hi,
            }
        return {
            "P": self.period,
            "N": self.step,
            "labels": [
                {"label": a, "bottoms": list(self.explicit[a])} for a in self.labels
            ],
            "bounds": bounds,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Rep":
        """Inverse of :meth:`to_json_dict`; malformed input raises GranularityError.

        Every number must be a JSON integer: a float, a string or a boolean
        is rejected rather than coerced.
        """
        try:
            if data.get("empty"):
                return EmptyRep()
            explicit = {
                _json_int(e["label"]): [_json_int(t) for t in e["bottoms"]]
                for e in data["labels"]
            }
            raw = data.get("bounds")
            if raw is None:
                bounds = None
            else:
                lo, hi = raw["first"], raw["last"]
                bounds = (
                    None if lo == "-inf" else _json_int(lo),
                    None if hi == "+inf" else _json_int(hi),
                )
            return PeriodicRep(_json_int(data["P"]), _json_int(data["N"]), explicit, bounds)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GranularityError(f"malformed representation: {exc!r}") from None


class EmptyRep:
    """A granularity with no non-empty granules.

    Difference, intersection and selection can legitimately come out empty;
    this marker keeps the query surface total: every lookup yields nothing.
    """

    __slots__ = ()

    def expand(self, label: int) -> tuple[()]:
        return ()

    def up(self, instant: int) -> None:
        return None

    def lhat(self, horizon: int) -> list[int]:
        return []

    def labels_within(self, lo: int, hi: int) -> list[int]:
        return []

    def to_json_dict(self) -> dict:
        return {"empty": True}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmptyRep)

    def __hash__(self) -> int:
        return hash(EmptyRep)

    def __repr__(self) -> str:
        return "EmptyRep()"


Rep = PeriodicRep | EmptyRep


def _anchor_label(granules: Iterable[tuple[int, Granule]], period: int, step: int) -> int:
    """Label of the granule covering the smallest positive covered instant,
    among the ``(label, granule)`` pairs and their (period, step) copies."""
    best: tuple[int, int] | None = None  # (instant, label)
    for lab, g in granules:
        s = _ceil_div(1 - g[-1], period)
        instant = min(x + s * period for x in g if x + s * period >= 1)
        if best is not None and instant == best[0]:
            raise GranularityError("two granules cover the same instant")
        if best is None or instant < best[0]:
            best = (instant, lab + s * step)
    assert best is not None
    return best[1]


def normalize_alignment(
    granules: Mapping[int, Iterable[int]],
    period: int,
    step: int,
    bounds: Bounds | None = None,
) -> Rep:
    """Re-anchor raw labeled granules into a canonical :class:`PeriodicRep`.

    The input may place its explicit granules at any labels, as long as every
    populated residue class modulo ``step`` appears at least once; duplicate
    representatives must be consistent with the stated periodicity.  The
    result's window starts at the label of the granule covering the smallest
    positive covered instant.  An empty input yields :class:`EmptyRep`.
    """
    cleaned = {int(lab): as_granule(g) for lab, g in granules.items() if g}
    if not cleaned:
        return EmptyRep()
    families: dict[int, tuple[int, Granule]] = {}
    for lab in sorted(cleaned):
        g = cleaned[lab]
        res = lab % step
        if res in families:
            lab0, g0 = families[res]
            cycles = (lab - lab0) // step
            if lab0 + cycles * step != lab or shift_granule(g0, cycles * period) != g:
                raise GranularityError(
                    f"granules at labels {lab0} and {lab} break the stated "
                    f"(period={period}, step={step}) repetition"
                )
        else:
            families[res] = (lab, g)
    anchor = _anchor_label(families.values(), period, step)
    explicit = {}
    for lab, g in families.values():
        s = (anchor + step - 1 - lab) // step
        new_label = lab + s * step
        if new_label < anchor:
            raise GranularityError("incomplete period window")  # unreachable for sane input
        explicit[new_label] = shift_granule(g, s * period)
    return PeriodicRep(period, step, explicit, bounds)


def up_label(g: Rep, h: Rep, label: int) -> int | None:
    """Label of the ``h`` granule containing granule ``label`` of ``g``, if any."""
    source = g.expand(label)
    if not source:
        return None
    target = h.up(source[0])
    if target is None:
        return None
    if not set(source) <= set(h.expand(target)):
        return None
    return target


def down_label(g: Rep, h: Rep, label: int) -> tuple[int, ...]:
    """Labels of ``g`` whose granules exactly assemble granule ``label`` of ``h``.

    Raises :class:`GranularityError` when some covered instant has no ``g``
    granule, or the assembled union disagrees (``g`` does not group into ``h``
    at this granule).  Non-contiguous granules are fine.
    """
    target = h.expand(label)
    if not target:
        return ()
    found = set()
    for t in target:
        j = g.up(t)
        if j is None:
            raise GranularityError(f"instant {t} of granule {label} is not covered")
        found.add(j)
    labels = tuple(sorted(found))
    assembled = sorted(x for j in labels for x in g.expand(j))
    if assembled != list(target):
        raise GranularityError(
            f"granule {label} is not a union of whole granules of the finer operand"
        )
    return labels


def consecutive_spans(
    base: PeriodicRep, unit: PeriodicRep, horizon: int
) -> list[tuple[int, int, int]]:
    """Tile each ``base`` granule over ``[1, horizon]`` with consecutive ``unit`` granules.

    Returns ``(base label, first unit label, last unit label)`` for every base
    label covering the horizon plus one wrap-around label, verifying along the
    way that ``unit`` partitions ``base``: each base granule must be a union
    of consecutive unit granules, with no unit granule left between two base
    granules.
    """
    labels = base.lhat(horizon)
    labels.append(base.next_label(labels[-1]))
    spans = []
    for lab in labels:
        g = base.expand(lab)
        b = unit.up(g[0])
        t = unit.up(g[-1])
        if b is None or t is None:
            raise GranularityError(
                f"granule {lab} is not covered by the unit granularity"
            )
        tile = sorted(x for j in range(b, t + 1) for x in unit.expand(j))
        if tile != list(g):
            raise GranularityError(
                f"granule {lab} is not a union of consecutive unit granules"
            )
        spans.append((lab, b, t))
    for (_, _, t_cur), (_, b_nxt, _) in zip(spans, spans[1:]):
        if b_nxt != t_cur + 1:
            raise GranularityError(
                "a unit granule falls between two granules of the coarser operand"
            )
    return spans


def mindist(g1: PeriodicRep, g2: PeriodicRep) -> int:
    """Minimum start-to-start distance of consecutive ``g1`` granules, in ``g2`` granules.

    ``g2`` must partition ``g1``; one common period plus a wrap-around pair is
    a sufficient witness thanks to periodicity.
    """
    horizon = math.lcm(g1.period, g2.period)
    spans = consecutive_spans(g1, g2, horizon)
    return min(b_nxt - b_cur for (_, b_cur, _), (_, b_nxt, _) in zip(spans, spans[1:]))
