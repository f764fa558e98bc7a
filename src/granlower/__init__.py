"""granlower: lower calendar-algebra definitions to minimal periodic sets."""

from .algebra import (
    CalendarDoc,
    CalendarSyntaxError,
    ValidationReport,
    needed_definitions,
    parse_calendar,
    print_calendar,
    rewrite_to_bottom,
    validate,
)
from .convert import (
    ConversionError,
    convert_calendar,
    convert_expression,
    delta_select,
    gstp_relabel,
    relabel,
)
from .core import (
    EmptyRep,
    GranularityError,
    PeriodicRep,
    Rep,
    mindist,
    normalize_alignment,
)
from .minimize import is_valid_reduction, minimize

_ORACLE_NAMES = ("Definitions", "WindowEval", "compare_with_periodic", "eval_window", "verify_against_oracle")


def __getattr__(name: str):
    # the oracle's names load on first use, so only its callers compile it
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return globals().setdefault(name, getattr(oracle, name))


__all__ = [
    "CalendarDoc",
    "CalendarSyntaxError",
    "ConversionError",
    "Definitions",
    "EmptyRep",
    "GranularityError",
    "PeriodicRep",
    "Rep",
    "ValidationReport",
    "WindowEval",
    "compare_with_periodic",
    "convert_calendar",
    "convert_expression",
    "delta_select",
    "eval_window",
    "gstp_relabel",
    "is_valid_reduction",
    "mindist",
    "minimize",
    "needed_definitions",
    "normalize_alignment",
    "parse_calendar",
    "print_calendar",
    "relabel",
    "rewrite_to_bottom",
    "validate",
    "verify_against_oracle",
]
