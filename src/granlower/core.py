"""Periodic-set representations of time granularities.

A granularity maps integer labels to disjoint, time-ordered sets of bottom
instants (its granules).  Most useful granularities repeat: after ``period``
bottom instants the grouping pattern recurs and labels advance by ``step``.
That makes one window of explicitly stored granules enough to answer any
query, which is what :class:`PeriodicRep` encodes.  Its queries (the granule
covering an instant, the labels meeting a horizon or lying in a frame
granule, the neighbours of a label) all go through one label-position rule,
and the lowering formulas in :mod:`granlower.convert` consume them.

Granules are stored run-length encoded: sorted, disjoint, non-adjacent
``(start, end)`` runs of bottom indices, both ends inclusive.  Every internal
operation works on runs, so cost grows with the number of granules and runs,
not with the number of bottom instants they cover; index tuples are built
only where the public surface hands them out.

All arithmetic is exact integer arithmetic; there are no floats anywhere.
Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain

Granule = tuple[int, ...]
Runs = tuple[tuple[int, int], ...]
Bounds = tuple[int | None, int | None]


class GranularityError(Exception):
    """A periodic representation, or a query against one, is malformed."""


def _encode(indices: Iterable[int]) -> Runs:
    """Runs of an iterable of bottom indices; an empty one raises GranularityError."""
    out: list[tuple[int, int]] = []
    for x in sorted(set(indices)):
        if out and x == out[-1][1] + 1:
            out[-1] = (out[-1][0], x)
        else:
            out.append((x, x))
    if not out:
        raise GranularityError("a granule must contain at least one bottom index")
    return tuple(out)


def join_runs(granules: Iterable[Runs]) -> Runs:
    """The union of several granules' runs, merged back into canonical runs."""
    out: list[tuple[int, int]] = []
    for s, e in sorted(chain.from_iterable(granules)):
        if out and s <= out[-1][1] + 1:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return tuple(out)


def shift_runs(runs: Runs, delta: int) -> Runs:
    return tuple((s + delta, e + delta) for s, e in runs)


def _reaches(runs: Runs, x: int, y: int) -> bool:
    # whether the run with the greatest start at or below x ends at or above
    # y; exactly the runs starting at or below x sort before (x + 1,)
    i = bisect_left(runs, (x + 1,))
    return i > 0 and runs[i - 1][1] >= y


def _indices(runs: Runs, delta: int = 0) -> Granule:
    if len(runs) == 1:
        s, e = runs[0]
        return tuple(range(s + delta, e + delta + 1))
    return tuple(chain.from_iterable(range(s + delta, e + delta + 1) for s, e in runs))


def _json_int(value: object) -> int:
    # bool is an int subclass, but true and false are not labels or instants
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


class _Granules(Mapping):
    """Read-only ``label -> granule`` view of a window's runs.

    Length, iteration and membership read the labels only; a granule's index
    tuple is built on each access.
    """

    __slots__ = ("_runs",)

    def __init__(self, runs: dict[int, Runs]):
        self._runs = runs

    def __getitem__(self, label: int) -> Granule:
        return _indices(self._runs[label])

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._runs)

    def __contains__(self, label: object) -> bool:
        return label in self._runs


class _CoverIndex:
    """The window's granules in label order, with their first starts and last ends."""

    __slots__ = ("runs", "starts", "ends")

    def __init__(self, runs: list[Runs]):
        self.runs = runs
        self.starts = [g[0][0] for g in runs]
        self.ends = [g[-1][1] for g in runs]

    def __len__(self) -> int:
        return len(self.runs)


class PeriodicRep:
    """One explicit window of granules plus the (period, step) repetition rule.

    ``explicit`` maps each stored label to its granule; all labels lie in
    ``[first_label, first_label + step - 1]``.  Granule ``label + step`` is
    granule ``label`` shifted by ``period`` bottom indices, in both
    directions, so every label of the granularity is reachable from the
    window.  ``bounds`` optionally clips the label set to ``[first, last]``
    (``None`` on a side means unbounded); ``bounds=None`` is fully unbounded.

    ``explicit`` is a read-only view over run-length storage: it builds a
    granule's index tuple when the granule is read, so memory grows with the
    number of runs rather than with the instants they cover.

    Lowered representations are *aligned*: ``first_label`` is the label of
    the granule covering the smallest positive covered instant, which
    :attr:`anchor_label` names.  Direct construction accepts any valid window.
    ``gapless`` says whether the granules cover every bottom instant.
    After construction no attribute can be set or deleted.  The caches
    ``_cover`` and ``_anchor`` are filled in once, lazily or (for the anchor)
    by :meth:`_from_runs`, through ``object.__setattr__``.
    """

    __slots__ = (
        "period", "step", "explicit", "bounds", "first_label", "labels",
        "gapless", "_runs", "_cover", "_anchor",
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
        if isinstance(explicit, _Granules):
            runs = explicit._runs  # already canonical, and never mutated
        else:
            runs = {int(lab): _encode(g) for lab, g in explicit.items()}
            explicit = _Granules(runs)
        if not runs:
            raise GranularityError("explicit window is empty (use EmptyRep)")
        labels = sorted(runs)
        first = labels[0]
        if labels[-1] - first >= step:
            raise GranularityError(
                f"explicit labels {labels} do not fit in one window of {step}"
            )
        covered = 0  # instants the window's granules hold
        end = runs[first][0][0] - 1  # last instant of the previous granule
        for a in labels:
            g = runs[a]
            if g[0][0] <= end:
                raise GranularityError(
                    f"granules of labels {prev} and {a} are not time-ordered"
                )
            for s, e in g:
                covered += e - s + 1
            prev, end = a, g[-1][1]
        # the window must also precede its own next copy
        if end >= runs[first][0][0] + period:
            raise GranularityError(
                "last explicit granule overlaps the next period's first granule"
            )
        if bounds is not None:
            lo, hi = bounds
            if lo is None and hi is None:
                bounds = None
            elif lo is not None and hi is not None and lo > hi:
                raise GranularityError(f"bounds {bounds} are inverted")
        # stored as an _Unsealed (_from_runs builds one), whose slot stores skip __setattr__
        if type(self) is PeriodicRep:
            object.__setattr__(self, "__class__", _Unsealed)
        self.period = period
        self.step = step
        self._runs = runs
        # read-only, so the lazy caches below can never go stale
        self.explicit: Mapping[int, Granule] = explicit
        self.bounds = bounds
        self.first_label = first
        self.labels = tuple(labels)  # labels of the explicit window, ascending
        # the window lies inside one period's span, so its granules cover
        # every instant exactly when their sizes add up to the period
        self.gapless = covered == period
        self._cover: _CoverIndex | None = None
        self._anchor: int | None = None
        self.__class__ = PeriodicRep

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PeriodicRep is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PeriodicRep is immutable; cannot delete {name!r}")

    @staticmethod
    def _from_runs(
        period: int,
        step: int,
        runs: dict[int, Runs],
        bounds: Bounds | None = None,
        anchor: int | None = None,
    ) -> "PeriodicRep":
        """Package-private: build from canonical runs; the dict is kept, not copied.

        ``anchor``, when given, must be the granularity's :attr:`anchor_label`;
        when it is the first label, the rep keeps the key object
        :attr:`first_label` holds rather than a second int.
        """
        rep = _Unsealed(period, step, _Granules(runs), bounds)
        object.__setattr__(rep, "_anchor", rep.first_label if anchor == rep.first_label else anchor)
        return rep

    def unbounded(self) -> "PeriodicRep":
        """The unbounded core: the same granularity without subset bounds."""
        if self.bounds is None:
            return self
        return PeriodicRep._from_runs(self.period, self.step, self._runs, anchor=self._anchor)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeriodicRep)
            and self.period == other.period
            and self.step == other.step
            and self._runs == other._runs
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

    def _locate(self, label: int) -> tuple[Runs, int] | None:
        # the stored runs of this label's residue and the shift to reach it
        if self.bounds is not None and not self._in_bounds(label):
            return None
        # k: the label of the window [first_label, first_label + step - 1]
        # congruent to label modulo step
        k = self.first_label + (label - self.first_label) % self.step
        stored = self._runs.get(k)
        if stored is None:
            return None
        return stored, self.period * ((label - k) // self.step)

    def runs_of(self, label: int) -> Runs:
        """Runs of the granule with this label; ``()`` off the label set."""
        found = self._locate(label)
        if found is None:
            return ()
        stored, delta = found
        return shift_runs(stored, delta) if delta else stored

    def expand(self, label: int) -> Granule | tuple[()]:
        """Bottom indices of the granule with this label; ``()`` off the label set."""
        found = self._locate(label)
        if found is None:
            return ()
        return _indices(*found)

    # -- the label-position rule ------------------------------------------
    # Window labels are time-ordered, so position n of the label set is
    # window label n % m moved by n // m steps (m the window size), and its
    # granule is that window granule moved by n // m periods.  Labels, first
    # starts and last ends all increase with n, so every query below is one
    # bisect for a position and index arithmetic from there.

    def _rank(self, label: int) -> int:
        # position of the smallest label of the set at or above label
        cycles, offset = divmod(label - self.first_label, self.step)
        return cycles * len(self.labels) + bisect_left(self.labels, self.first_label + offset)

    def _at(self, n: int) -> tuple[int, Runs, int]:
        # label, stored runs and shift of position n
        cycles, i = divmod(n, len(self.labels))
        return self.labels[i] + cycles * self.step, self._runs[self.labels[i]], cycles * self.period

    def _cover_index(self) -> _CoverIndex:
        if self._cover is None:
            object.__setattr__(self, "_cover", _CoverIndex([self._runs[a] for a in self.labels]))
        return self._cover

    def _seek(self, x: int, ends: bool = False, above: bool = False) -> int:
        # first position whose first start (with ends, last end) is at or
        # above x (with above, strictly above)
        cover = self._cover_index()
        edges = cover.ends if ends else cover.starts
        cycles = (x - edges[0]) // self.period
        find = bisect_right if above else bisect_left
        return cycles * len(edges) + find(edges, x - cycles * self.period)

    def up(self, instant: int) -> int | None:
        """Label of the granule covering a bottom instant, or ``None`` in a gap."""
        cover = self._cover
        if cover is None:
            cover = self._cover_index()
        # the last position starting at or before instant, as in _seek
        starts, p = cover.starts, self.period
        cycles = (instant - starts[0]) // p
        t = instant - cycles * p
        i = bisect_right(starts, t) - 1
        # granules that cover every instant need no check that one covers t
        if not self.gapless and not _reaches(cover.runs[i], t, t):
            return None
        label = self.labels[i] + cycles * self.step
        if self.bounds is None or self._in_bounds(label):
            return label
        return None

    def _labels_in(self, frame: Runs, touch: bool) -> list[int]:
        # labels of the unbounded core's granules inside frame (with touch,
        # meeting it): a range of positions by hull, checked run by run only
        # where the frame or the granule has a gap
        lo, hi = frame[0][0], frame[-1][1]
        cover, m, found = self._cover_index(), len(self.labels), []
        for n in range(self._seek(lo, ends=touch), self._seek(hi, ends=not touch, above=True)):
            cycles, i = divmod(n, m)  # _at's arithmetic, inline on this hot loop
            runs = cover.runs[i]
            if len(runs) > 1 or len(frame) > 1:
                runs = shift_runs(runs, cycles * self.period)
                if touch and not any(_reaches(frame, e, s) for s, e in runs):
                    continue
                if not touch and not all(_reaches(frame, s, e) for s, e in runs):
                    continue
            found.append(self.labels[i] + cycles * self.step)
        return found

    def spans(self, firsts: Iterable[int], lasts: Iterable[int]) -> list[Runs]:
        """:meth:`span` of each pair of ``firsts`` and ``lasts``, in order."""
        if not self.gapless:
            return [
                join_runs(shift_runs(g, d) for _, g, d in map(self._at, range(self._rank(a), self._rank(b) + 1)))
                for a, b in zip(firsts, lasts)
            ]
        # the two endpoints only, as _locate finds them: f + (a - f) % n is
        # the window label of a's residue
        f, n, p, runs = self.first_label, self.step, self.period, self._runs
        if n == 1:  # one residue: granule a is the window's moved by a - f periods
            lo, hi = runs[f][0][0] - f * p, runs[f][-1][1] - f * p
            return [((lo + a * p, hi + b * p),) for a, b in zip(firsts, lasts)]
        return [((runs[f + (a - f) % n][0][0] + (a - f) // n * p, runs[f + (b - f) % n][-1][1] + (b - f) // n * p),)
                for a, b in zip(firsts, lasts)]

    def span(self, first: int, last: int) -> Runs:
        """Runs of the union of granules ``first`` to ``last``, both in the label set.

        Granules are time-ordered, so the union is every covered instant from
        the start of ``first`` to the end of ``last``.
        """
        return self.spans((first,), (last,))[0]

    def next_label(self, label: int) -> int:
        """Smallest label of the (unbounded core) label set strictly above ``label``."""
        return self._at(self._rank(label + 1))[0]

    def prev_label(self, label: int) -> int:
        """Greatest label of the (unbounded core) label set strictly below ``label``."""
        return self._at(self._rank(label) - 1)[0]

    def lhat(self, horizon: int) -> list[int]:
        """Labels of all granules covering some instant in ``[1, horizon]``.

        Works on the unbounded core (conversion math never sees bounds).
        ``horizon`` must be a positive multiple of ``period``.
        """
        if horizon < 1 or horizon % self.period:
            raise GranularityError(
                f"horizon {horizon} is not a positive multiple of period {self.period}"
            )
        return self._labels_in(((1, horizon),), True)

    def labels_within(self, lo: int, hi: int) -> list[int]:
        """Labels whose non-empty granules lie entirely inside ``[lo, hi]``."""
        return list(filter(self._in_bounds, self._labels_in(((lo, hi),), False)))

    @property
    def anchor_label(self) -> int:
        """Label of the granule covering the smallest positive covered instant."""
        if self._anchor is None:
            object.__setattr__(self, "_anchor", _anchor_label(self._runs.items(), self.period, self.step))
        return self._anchor

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
            explicit = {}
            for e in data["labels"]:
                if (label := _json_int(e["label"])) in explicit:
                    raise GranularityError(f"malformed representation: label {label} is given twice")
                explicit[label] = [_json_int(t) for t in e["bottoms"]]
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


class _Unsealed(PeriodicRep):
    # a PeriodicRep while its constructor stores the fields
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


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


def _anchor_label(granules: Iterable[tuple[int, Runs]], period: int, step: int) -> int:
    """Label of the granule covering the smallest positive covered instant,
    among the ``(label, runs)`` pairs and their (period, step) copies.

    Granules are time-ordered by label, so that is the smallest label of a
    copy that ends at a positive instant."""
    return min(lab - (runs[-1][1] - 1) // period * step for lab, runs in granules)


def normalize_alignment(granules: Mapping[int, Runs], period: int, step: int) -> Rep:
    """Re-anchor raw labeled granules into a canonical :class:`PeriodicRep`.

    Each granule is given as canonical runs.  The input may place its
    explicit granules at any labels, as long as every populated residue class
    modulo ``step`` appears at least once; duplicate representatives must be
    consistent with the stated periodicity.  The result's window starts at
    the label of the granule covering the smallest positive covered instant,
    which the result keeps as its :attr:`~PeriodicRep.anchor_label`.  An
    empty input yields :class:`EmptyRep`.
    """
    labels = sorted(granules)
    if not all(granules.values()):
        labels = [lab for lab in labels if granules[lab]]
    if not labels:
        return EmptyRep()
    if labels[-1] - labels[0] < step:
        # one window: no residue repeats, so a sorted copy holds every family
        families = dict(granules) if list(granules) == labels else {lab: granules[lab] for lab in labels}
    else:
        seen: dict[int, tuple[int, Runs]] = {}
        for lab in labels:
            g = granules[lab]
            res = lab % step
            if res in seen:
                lab0, g0 = seen[res]
                cycles = (lab - lab0) // step
                if lab0 + cycles * step != lab or shift_runs(g0, cycles * period) != g:
                    raise GranularityError(
                        f"granules at labels {lab0} and {lab} break the stated "
                        f"(period={period}, step={step}) repetition"
                    )
            else:
                seen[res] = (lab, g)
        families = dict(seen.values())
    anchor = _anchor_label(families.items(), period, step)
    explicit = families
    if anchor != labels[0] or labels[-1] - anchor >= step:  # some label moves
        explicit = {}
        for lab, g in families.items():
            s = -((lab - anchor) // step)  # the copy at or just above the anchor
            explicit[lab + s * step] = shift_runs(g, s * period) if s else g
    return PeriodicRep._from_runs(period, step, explicit, anchor=anchor)


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
    if horizon < 1 or horizon % base.period:
        raise GranularityError(f"horizon {horizon} is not a positive multiple of period {base.period}")
    # lhat's positions, from the first granule ending at a positive instant
    # (the one straddling instant 1 recurs at the horizon's end), and the next
    n0 = base._rank(base.anchor_label)
    _, g, d = base._at(n0)
    positions = range(n0, n0 + horizon // base.period * len(base.labels) + 1 + (g[0][0] + d < 1))
    labels, firsts, lasts, granules = [], [], [], []
    bounded = base.bounds is not None
    for lab, g, d in map(base._at, positions):
        g = shift_runs(g, d) if d else g
        b, t = unit.up(g[0][0]), unit.up(g[-1][1])
        if b is None or t is None or bounded and not base._in_bounds(lab):
            break
        labels.append(lab)
        firsts.append(b)
        lasts.append(t)
        granules.append(g)
    # a granule before the first uncovered one fails first, as it comes first
    for a, g, runs in zip(labels, granules, unit.spans(firsts, lasts)):
        if runs != g:
            raise GranularityError(f"granule {a} is not a union of consecutive unit granules")
    if len(labels) < len(positions):
        base.runs_of(lab)[0]  # a label off the bounds has no runs to index: IndexError
        raise GranularityError(f"granule {lab} is not covered by the unit granularity")
    if any(b != t + 1 for t, b in zip(lasts, firsts[1:])):
        raise GranularityError("a unit granule falls between two granules of the coarser operand")
    return list(zip(labels, firsts, lasts))


def mindist(g1: PeriodicRep, g2: PeriodicRep) -> int:
    """Minimum start-to-start distance of consecutive ``g1`` granules, in ``g2`` granules.

    ``g2`` must partition ``g1``; one common period plus a wrap-around pair is
    a sufficient witness thanks to periodicity.
    """
    horizon = math.lcm(g1.period, g2.period)
    spans = consecutive_spans(g1, g2, horizon)
    return min(b_nxt - b_cur for (_, b_cur, _), (_, b_nxt, _) in zip(spans, spans[1:]))
