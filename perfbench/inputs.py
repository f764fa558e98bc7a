"""Benchmark inputs and the references their outputs are checked against.

Every reference here is independent of the converter: Gregorian labels come
from ``datetime``, chain results are derived by hand from the operator
definitions, and the recorded SHA-256 digests pin the exact output bytes.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = HERE / "work"

# one Gregorian leap cycle: 400 years of 146097 days, 4800 months
CYCLE_DAYS, CYCLE_MONTHS, CYCLE_YEARS = 146097, 4800, 400
# the hour-bottom fixture's period: one leap cycle counted in hours
HOUR_PERIOD = 24 * CYCLE_DAYS

UNION_CONVERT, UNION_VERIFY = 18, 12
LINEAR_SHORT, LINEAR_LONG = 300, 5000


def digests() -> dict[str, str]:
    """SHA-256 of each convert command's stdout, recorded at the baseline commit."""
    return json.loads((HERE / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# generated calendars


def union_chain(n: int) -> str:
    """``x_i = union(x_{i-1}, x_{i-1})``: every name shared twice, 2^n tree leaves."""
    lines = ["calendar union_chain bottom day;", "x0 = group(3, day);"]
    lines += [f"x{i} = union(x{i - 1}, x{i - 1});" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def linear_chain(n: int) -> str:
    """``x_i = shift(1, x_{i-1})``: a definition chain n deep with no sharing."""
    lines = ["calendar linear_chain bottom day;", "x0 = group(3, day);"]
    lines += [f"x{i} = shift(1, x{i - 1});" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def gregorian_hour() -> str:
    """The Gregorian fixture re-rooted on an hour bottom (``day = group(24, hour)``)."""
    text = (FIXTURES / "gregorian.cal").read_text()
    header = "calendar gregorian bottom day;"
    if header not in text:
        raise RuntimeError(f"{FIXTURES / 'gregorian.cal'} no longer declares {header!r}")
    return text.replace(
        header, "calendar gregorian_hour bottom hour;\nday = group(24, hour);"
    )


def write_inputs() -> dict[str, Path]:
    """Write the generated calendars into the work directory; return them by key."""
    WORK.mkdir(exist_ok=True)
    texts = {
        f"union{UNION_CONVERT}": union_chain(UNION_CONVERT),
        f"union{UNION_VERIFY}": union_chain(UNION_VERIFY),
        f"linear{LINEAR_SHORT}": linear_chain(LINEAR_SHORT),
        f"linear{LINEAR_LONG}": linear_chain(LINEAR_LONG),
        "gregorian_hour": gregorian_hour(),
    }
    paths = {}
    for key, text in texts.items():
        path = WORK / f"{key}.cal"
        path.write_text(text)
        paths[key] = path
    return paths


def hour_queries(seed: int, count: int) -> list[tuple[str, str, int]]:
    """Seeded ``(kind, granularity, argument)`` stream: 90% ``up``, 10% ``expand``.

    The mix is exact, and split evenly between ``month`` and ``year``, so the
    seed moves only the arguments and the order, not the amount of work.
    ``up`` instants and ``expand`` labels are spread over +-50 leap cycles, so
    most fall outside years 1-9999 and exercise the periodic extension.
    """
    rng = random.Random(seed)
    expands = count // 10
    kinds = [("up", n) for n in ("month", "year") for _ in range((count - expands) // 2)]
    kinds += [("expand", n) for n in ("month", "year") for _ in range(expands // 2)]
    rng.shuffle(kinds)
    span = 50 * HOUR_PERIOD
    out = []
    for kind, name in kinds:
        if kind == "up":
            out.append((kind, name, rng.randint(-span + 1, span)))
        else:
            per_cycle = LABELS_PER_CYCLE[name]
            out.append((kind, name, rng.randint(-50 * per_cycle + 1, 50 * per_cycle)))
    return out


# ---------------------------------------------------------------------------
# Gregorian reference (datetime), day indices start at 0001-01-01 = 1


def _date_of_day(day: int) -> tuple[int, datetime.date]:
    cycle, rest = divmod(day - 1, CYCLE_DAYS)
    return cycle, datetime.date.fromordinal(rest + 1)


def month_of_day(day: int) -> int:
    cycle, d = _date_of_day(day)
    return cycle * CYCLE_MONTHS + (d.year - 1) * 12 + d.month


def year_of_day(day: int) -> int:
    cycle, d = _date_of_day(day)
    return cycle * CYCLE_YEARS + d.year


def month_days(label: int) -> tuple[int, int]:
    """First and last day index of Gregorian month ``label``."""
    cycle, rest = divmod(label - 1, CYCLE_MONTHS)
    year, month = divmod(rest, 12)
    first = datetime.date(year + 1, month + 1, 1).toordinal()
    if month == 11:
        last = datetime.date(year + 1, 12, 31).toordinal()
    else:
        last = datetime.date(year + 1, month + 2, 1).toordinal() - 1
    return first + cycle * CYCLE_DAYS, last + cycle * CYCLE_DAYS


def year_days(label: int) -> tuple[int, int]:
    cycle, rest = divmod(label - 1, CYCLE_YEARS)
    offset = cycle * CYCLE_DAYS
    return (
        datetime.date(rest + 1, 1, 1).toordinal() + offset,
        datetime.date(rest + 1, 12, 31).toordinal() + offset,
    )


LABEL_OF_DAY = {"month": month_of_day, "year": year_of_day}
DAYS_OF_LABEL = {"month": month_days, "year": year_days}
LABELS_PER_CYCLE = {"month": CYCLE_MONTHS, "year": CYCLE_YEARS}


def expected_up_hour(name: str, instant: int) -> int:
    return LABEL_OF_DAY[name]((instant - 1) // 24 + 1)


def expected_expand_hour(name: str, label: int) -> tuple[int, ...]:
    first, last = DAYS_OF_LABEL[name](label)
    return tuple(range((first - 1) * 24 + 1, last * 24 + 1))


def check_gregorian_rep(name: str, rep: dict) -> str | None:
    """Compare a day-bottom JSON rep of ``month`` or ``year`` with the calendar."""
    per_cycle = LABELS_PER_CYCLE[name]
    if rep.get("bounds") is not None or rep["P"] * per_cycle != rep["N"] * CYCLE_DAYS:
        return f"{name}: P={rep['P']} N={rep['N']} bounds={rep.get('bounds')}"
    if len(rep["labels"]) != rep["N"]:
        return f"{name}: {len(rep['labels'])} explicit granules for N={rep['N']}"
    for entry in rep["labels"]:
        first, last = DAYS_OF_LABEL[name](entry["label"])
        if entry["bottoms"] != list(range(first, last + 1)):
            return f"{name}: label {entry['label']} differs from the calendar"
    return None


# ---------------------------------------------------------------------------
# hand-derived chain results

# group(3, day): label j covers days 3j-2..3j, aligned at label 1
GROUP3 = {"P": 3, "N": 1, "labels": [{"label": 1, "bottoms": [1, 2, 3]}], "bounds": None}


def expected_chain_rep(chain: str, i: int) -> dict:
    """``x_i`` of a union chain is ``x0``; of a linear chain, ``x0`` relabeled by +i.

    ``shift(m, g)`` gives label ``j`` the granule of label ``j - m``, so after
    i shifts the granule holding days 1..3 carries label ``1 + i``.
    """
    if chain == "union_chain":
        return GROUP3
    return {**GROUP3, "labels": [{"label": 1 + i, "bottoms": [1, 2, 3]}]}


def check_chain_output(doc: dict, defs: int) -> str | None:
    grans = doc["granularities"]
    if [g["name"] for g in grans] != [f"x{i}" for i in range(defs + 1)]:
        return f"{doc['calendar']}: unexpected definition list"
    for i, g in enumerate(grans):
        if g["rep"] != expected_chain_rep(doc["calendar"], i):
            return f"{doc['calendar']}: x{i} = {g['rep']}"
    return None


def check_verify_output(text: str, names: list[str]) -> str | None:
    lines = text.splitlines()
    verdicts = [line.split()[:2] for line in lines]
    if verdicts != [["ok", n] for n in names]:
        bad = next((line for line in lines if not line.startswith("ok ")), lines[:1])
        return f"verify verdicts differ: {bad}"
    return None


# about the probe job's fastest time on the 2-core host the benchmark was built on;
# any fixed value would do, since only ratios between runs matter
PROBE_REF_S = 0.005


def probe_s() -> float:
    """Fastest of 3 runs of a fixed pure-Python job (dict of tuples, sum, sort): the host speed now.

    Other tenants of a shared host can slow every process on it by half or
    more for a whole run.  The fastest probe of a run measures the host speed
    that run had, and end-to-end times are scaled by PROBE_REF_S over it.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter()
        table = {i: (i, i + 1, i + 2) for i in range(20000)}
        sum(v[1] for v in table.values())
        sorted(table, key=lambda k: -k)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best
