"""Calendar-algebra expression trees and the textual calendar format.

A calendar file names one bottom granularity and then derives further
granularities from it, one definition per line::

    calendar toy bottom day;
    week = group(7, day);
    monday = selectdown(1, 1, day, week);

Twelve operators build new granularities from existing ones.  Parsing keeps
exact integer literals, resolves every reference to an earlier definition,
and rejects `subset` anywhere but the outermost position of a definition,
since bounds must stay out of all inner conversion math.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import itemgetter


# ---------------------------------------------------------------------------
# expression tree


class _RecordType(type):
    # a class of this type is a tuple of the fields it annotates, in order
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns.update({f: property(itemgetter(i)) for i, f in enumerate(fields)})
        return super().__new__(mcls, name, bases, {**ns, "__slots__": (), "__match_args__": fields})


class Record(tuple, metaclass=_RecordType):
    """An immutable tuple of the fields its class annotates, in order, which
    read as attributes and may be passed by name; records of different classes
    never compare equal, nor does a record equal a plain tuple, and all are truthy."""

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(f) for f in cls.__match_args__[len(args) :] if f in kwargs)
        if kwargs or len(args) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes the fields {cls.__match_args__}")
        return tuple.__new__(cls, args)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self):
        return True

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self))
        return f"{type(self).__qualname__}({fields})"


class Bottom(Record):
    """Reference to the calendar's bottom granularity."""


class Name(Record):
    name: str


class Group(Record):
    size: int
    operand: "CalExpr"


class Alter(Record):
    """Grow or shrink the ``slot``-th of every ``cycle`` granules of ``base``
    by ``change`` granules of ``unit``."""

    slot: int
    change: int
    cycle: int
    unit: "CalExpr"
    base: "CalExpr"


class Shift(Record):
    offset: int
    operand: "CalExpr"


class Combine(Record):
    """Merge the ``pieces`` granules lying inside each ``container`` granule."""

    container: "CalExpr"
    pieces: "CalExpr"


class AnchoredGroup(Record):
    """Merge the ``filler`` granules between consecutive ``anchors`` granules."""

    filler: "CalExpr"
    anchors: "CalExpr"


class Subset(Record):
    """Keep only labels in ``[lo, hi]``; ``None`` means unbounded on that side."""

    lo: int | None
    hi: int | None
    operand: "CalExpr"


class SelectDown(Record):
    """Positionally pick ``count`` of the ``source`` granules contained in each
    ``container`` granule, starting at position ``start`` (negative counts
    from the end)."""

    start: int
    count: int
    source: "CalExpr"
    container: "CalExpr"


class SelectUp(Record):
    """Keep the ``source`` granules that contain at least one ``witness`` granule."""

    source: "CalExpr"
    witness: "CalExpr"


class SelectIntersect(Record):
    """Positionally pick among the ``source`` granules intersecting each
    ``probe`` granule."""

    start: int
    count: int
    source: "CalExpr"
    probe: "CalExpr"


class Union(Record):
    left: "CalExpr"
    right: "CalExpr"


class Intersection(Record):
    left: "CalExpr"
    right: "CalExpr"


class Difference(Record):
    left: "CalExpr"
    right: "CalExpr"


CalExpr = (
    Bottom | Name | Group | Alter | Shift | Combine | AnchoredGroup | Subset
    | SelectDown | SelectUp | SelectIntersect | Union | Intersection | Difference
)


_SELECTION = (("nonzero", "selection start"), ("positive", "selection count"))

# keyword -> (node class, scalar parameter kinds).  The scalars are the
# class's leading fields and always precede the operands in the source text;
# each kind names a _Parser method and its extra arguments.
OPERATORS: dict[str, tuple[type, tuple[tuple[str, ...], ...]]] = {
    "group": (Group, (("positive", "grouping size"),)),
    "alter": (Alter, (("positive", "alter slot"), ("integer",), ("positive", "alter cycle"))),
    "shift": (Shift, (("integer",),)),
    "combine": (Combine, ()),
    "anchor": (AnchoredGroup, ()),
    "subset": (Subset, (("bound", "lo"), ("bound", "hi"))),
    "selectdown": (SelectDown, _SELECTION),
    "selectup": (SelectUp, ()),
    "selectintersect": (SelectIntersect, _SELECTION),
    "union": (Union, ()),
    "intersect": (Intersection, ()),
    "difference": (Difference, ()),
}

# node class -> (keyword, scalar parameter kinds)
_SIGNATURES = {cls: (word, kinds) for word, (cls, kinds) in OPERATORS.items()}


def _split(expr: CalExpr) -> tuple[str, tuple, tuple, tuple[CalExpr, ...]]:
    """An operator node's keyword, scalar kinds, scalar values and operands."""
    signature = _SIGNATURES.get(type(expr))
    if signature is None:
        raise TypeError(f"not a calendar expression: {expr!r}")
    word, kinds = signature
    return word, kinds, expr[: len(kinds)], expr[len(kinds) :]


def children(expr: CalExpr) -> tuple[CalExpr, ...]:
    return () if isinstance(expr, (Bottom, Name)) else _split(expr)[3]


class CalendarDoc(Record):
    """A named calendar: one bottom granularity and ordered definitions."""

    name: str
    bottom: str
    definitions: tuple[tuple[str, CalExpr], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.definitions)


# ---------------------------------------------------------------------------
# parsing

KEYWORDS = {"calendar", "bottom", "inf", *OPERATORS}

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
    |(?P<int>-?[0-9]+)
    |(?P<neg_inf>-inf\b)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
    |(?P<punct>[(),;=])
    """,
    re.VERBOSE,
)


class CalendarSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# a token is (kind, text, offset): kind is "int", "ident", "neg_inf", the
# punctuation itself or "eof"; offset indexes the source text
_Token = tuple[str, str, int]


def _syntax_error(text: str, offset: int, message: str) -> CalendarSyntaxError:
    # line and column (both 1-based) are worked out only when an error is raised
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return CalendarSyntaxError(message, line, column)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        start = m.start()
        if start != pos:  # finditer skipped what no token matches
            break
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            tokens.append((value if kind == "punct" else kind, value, start))
    if pos != len(text):
        raise _syntax_error(text, pos, f"unexpected character {text[pos]!r}")
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            found = repr(tok[1]) if tok[1] else "end of input"
            raise self.error(f"expected {what or kind}, found {found}", tok)
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> CalendarSyntaxError:
        """The error at ``tok``, by default the next token."""
        return _syntax_error(self.text, (tok or self.peek())[2], message)

    def fresh_name(self, seen: set[str]) -> str:
        tok = self.take("ident", "a name")
        name = tok[1]
        if name in KEYWORDS:
            raise self.error(f"{name!r} is reserved and cannot name a granularity", tok)
        if name in seen:
            raise self.error(f"duplicate name {name!r}", tok)
        return name

    def integer(self) -> int:
        return int(self.take("int", "an integer")[1])

    def positive(self, what: str) -> int:
        tok = self.peek()
        value = self.integer()
        if value < 1:
            raise self.error(f"{what} must be positive, got {value}", tok)
        return value

    def nonzero(self, what: str) -> int:
        tok = self.peek()
        value = self.integer()
        if value == 0:
            raise self.error(f"{what} must be nonzero", tok)
        return value

    def bound(self, side: str) -> int | None:
        kind, text, _ = tok = self.peek()
        if kind == "neg_inf":
            if side != "lo":
                raise self.error("-inf is only valid as a lower bound", tok)
            self.pos += 1
            return None
        if kind == "ident" and text == "inf":
            if side != "hi":
                raise self.error("inf is only valid as an upper bound", tok)
            self.pos += 1
            return None
        return self.integer()

    def document(self) -> CalendarDoc:
        self.take_keyword("calendar")
        seen: set[str] = set()
        cal_name = self.fresh_name(seen)
        self.take_keyword("bottom")
        bottom = self.fresh_name(seen)
        seen.add(bottom)
        self.take(";")
        defs: list[tuple[str, CalExpr]] = []
        while self.peek()[0] != "eof":
            name = self.fresh_name(seen)
            self.take("=")
            expr = self.expression(bottom, seen, outermost=True)
            self.take(";")
            seen.add(name)
            defs.append((name, expr))
        return CalendarDoc(cal_name, bottom, tuple(defs))

    def take_keyword(self, word: str) -> None:
        kind, text, _ = self.peek()
        if kind != "ident" or text != word:
            raise self.error(f"expected {word!r}")
        self.pos += 1

    def expression(self, bottom: str, seen: set[str], outermost: bool = False) -> CalExpr:
        tok = self.take("ident", "a granularity expression")
        word = tok[1]
        if word not in KEYWORDS:
            if word == bottom:
                return Bottom()
            if word not in seen:
                raise self.error(f"unknown granularity {word!r}", tok)
            return Name(word)
        if word not in OPERATORS:
            raise self.error(f"unexpected keyword {word!r}", tok)
        if word == "subset" and not outermost:
            raise self.error(
                "subset may only appear as the outermost operation of a definition", tok
            )
        self.take("(")
        expr = self._operator_body(word, tok, bottom, seen)
        self.take(")")
        return expr

    def _operator_body(self, word: str, tok: _Token, bottom: str, seen: set[str]) -> CalExpr:
        cls, kinds = OPERATORS[word]
        args: list = []
        for kind, *extra in kinds:
            if args:
                self.take(",")
            args.append(getattr(self, kind)(*extra))
        # cross-checks of the scalars run before any operand is parsed
        if cls is Alter and args[0] > args[2]:
            raise self.error(f"alter slot {args[0]} exceeds cycle {args[2]}", tok)
        if cls is Subset and None not in args and args[0] > args[1]:
            raise self.error(f"subset bounds {args[0]}..{args[1]} are inverted", tok)
        for _ in cls.__match_args__[len(kinds):]:
            if args:
                self.take(",")
            args.append(self.expression(bottom, seen))
        return cls(*args)


def parse_calendar(text: str) -> CalendarDoc:
    """Parse calendar source text; raises :class:`CalendarSyntaxError` with position."""
    parser = _Parser(text)
    try:
        return parser.document()
    except RecursionError:  # the parser recurses once per nesting level
        raise parser.error("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# printing (canonical form; parse . print == identity)


def print_expr(expr: CalExpr, bottom: str) -> str:
    if isinstance(expr, Bottom):
        return bottom
    if isinstance(expr, Name):
        return expr.name
    word, kinds, scalars, operands = _split(expr)
    # only subset bounds are ever None: unbounded on that side
    texts = [
        str(x) if x is not None else "-inf" if kind == ("bound", "lo") else "inf"
        for x, kind in zip(scalars, kinds)
    ]
    texts.extend(print_expr(e, bottom) for e in operands)
    return f"{word}({', '.join(texts)})"


def print_calendar(doc: CalendarDoc) -> str:
    lines = [f"calendar {doc.name} bottom {doc.bottom};"]
    lines.extend(
        f"{name} = {print_expr(expr, doc.bottom)};" for name, expr in doc.definitions
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static validation


class Finding(Record):
    definition: str
    rule: str
    message: str


class ValidationReport(Record):
    findings: tuple[Finding, ...]

    def __new__(cls, findings: tuple[Finding, ...] = ()):
        return tuple.__new__(cls, (findings,))

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{f.definition}: [{f.rule}] {f.message}" for f in self.findings)


def validate(doc: CalendarDoc) -> ValidationReport:
    """Static checks on a document, mirroring what the parser enforces.

    Useful for documents assembled programmatically.  Semantic operand checks
    that need converted representations (partitions, label alignment, the
    alter lower bound) are performed by the converter and reported there.
    """
    findings: list[Finding] = []
    known = {doc.bottom}
    bounded: set[str] = set()

    def walk(name: str, expr: CalExpr, outermost: bool) -> None:
        match expr:
            case Name(n):
                if n not in known:
                    findings.append(Finding(name, "unresolved-name", f"{n!r} is not defined earlier"))
                elif n in bounded:
                    findings.append(
                        Finding(
                            name,
                            "bounded-operand",
                            f"{n!r} carries subset bounds and cannot be an operand",
                        )
                    )
            case Subset(lo, hi, _) if not outermost:
                findings.append(
                    Finding(name, "subset-not-outermost", "subset must be the outermost operation")
                )
            case Subset(lo, hi, _) if lo is not None and hi is not None and lo > hi:
                findings.append(Finding(name, "parameter-range", f"subset bounds {lo}..{hi} inverted"))
            case Group(m, _) if m < 1:
                findings.append(Finding(name, "parameter-range", f"group size {m} must be positive"))
            case Alter(slot, _, cycle, _, _) if not 1 <= slot <= cycle:
                findings.append(
                    Finding(name, "parameter-range", f"alter needs 1 <= slot <= cycle, got {slot}, {cycle}")
                )
            case SelectDown(k, l, _, _) | SelectIntersect(k, l, _, _) if k == 0 or l < 1:
                findings.append(
                    Finding(name, "parameter-range", f"selection needs start != 0 and count > 0, got {k}, {l}")
                )
        for child in children(expr):
            walk(name, child, outermost=False)

    seen: set[str] = set()
    for name, expr in doc.definitions:
        if name in seen or name == doc.bottom:
            findings.append(Finding(name, "duplicate-name", f"{name!r} defined twice"))
        walk(name, expr, outermost=True)
        if isinstance(expr, Subset):
            bounded.add(name)
        seen.add(name)
        known.add(name)
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# rewriting


def references(expr: CalExpr) -> set[str]:
    """The names ``expr`` mentions in its own syntax, found with an explicit stack."""
    found = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            found.add(node.name)
        else:
            stack.extend(children(node))
    return found


def needed_definitions(
    doc: CalendarDoc, targets: Iterable[str]
) -> list[tuple[str, CalExpr]]:
    """The definitions ``targets`` depend on, themselves included, in file order.

    Names only refer to earlier definitions, so one backward pass over the
    document, walking each needed definition's own syntax, finds them all;
    its cost is linear in the document's size.  The bottom needs no
    definition.  Raises :class:`KeyError` for a target that is neither.
    """
    needed = set(targets)
    unknown = needed - {doc.bottom, *doc.names}
    if unknown:
        raise KeyError(min(unknown))
    found = []
    for name, expr in reversed(doc.definitions):
        if name in needed:
            found.append((name, expr))
            needed |= references(expr)
    found.reverse()
    return found


def rewrite_to_bottom(doc: CalendarDoc, target: str) -> CalExpr:
    """Close the definition of ``target`` over the bottom granularity.

    Definitions are closed in file order, so every name is replaced by its
    already closed definition and recursion never leaves one definition's
    syntax.  The same object is reused wherever a name recurs, so
    structurally identical subexpressions are shared and the conversion
    cache sees each once.  Raises :class:`KeyError` for an unknown target.
    """
    if target == doc.bottom:
        return Bottom()
    closed: dict[str, CalExpr] = {}

    def close(expr: CalExpr) -> CalExpr:
        if isinstance(expr, Name):
            return closed[expr.name]
        if isinstance(expr, Bottom):
            return expr
        _, _, scalars, operands = _split(expr)
        return type(expr)(*scalars, *map(close, operands))

    for name, expr in doc.definitions:
        closed[name] = close(expr)
        if name == target:
            return closed[name]
    raise KeyError(target)
