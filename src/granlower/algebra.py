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
from itertools import islice
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
        if not _ARITY.get(type(self)):  # a leaf, or a record that is no expression
            return type(self) is type(other) and tuple.__eq__(self, other)
        # operand pairs queue up in a list, so deep trees compare without recursion
        pairs = [(self, other)]
        for a, b in pairs:
            n = _ARITY.get(type(a))
            if a is b:
                continue
            if type(a) is not type(b) or (a[: len(a) - n] != b[: len(b) - n] if n else a != b):
                return False
            if n:
                pairs += zip(a[len(a) - n :], b[len(b) - n :])
        return True

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


# a scalar rule: a value -> its error message, or a false value when in range
def _positive(what: str):
    return lambda value: value < 1 and f"{what} must be positive, got {value}"


_SELECTION = (("ranged", lambda start: start == 0 and "selection start must be nonzero"),
              ("ranged", _positive("selection count")))

# keyword -> (node class, scalar parameter kinds).  The scalars are the
# class's leading fields and always precede the operands in the source text;
# each kind names a _Parser method and its extra arguments ("ranged": a rule).
OPERATORS: dict[str, tuple[type, tuple[tuple, ...]]] = {
    "group": (Group, (("ranged", _positive("grouping size")),)),
    "alter": (Alter, (("ranged", _positive("alter slot")), ("integer",), ("ranged", _positive("alter cycle")))),
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

# node class -> the rule of all its scalars, checked after each one's own
_CROSS_CHECKS = {
    Alter: lambda slot, change, cycle: slot > cycle and f"alter slot {slot} exceeds cycle {cycle}",
    Subset: lambda lo, hi: None not in (lo, hi) and lo > hi and f"subset bounds {lo}..{hi} are inverted",
}

# node class -> (keyword, scalar parameter kinds)
_SIGNATURES = {cls: (word, kinds) for word, (cls, kinds) in OPERATORS.items()}


def _scalar_rules(kinds: tuple, cross):
    ranged = [(i, kind[1]) for i, kind in enumerate(kinds) if kind[0] == "ranged"]
    def check(node):
        for i, rule in ranged:
            if message := rule(node[i]):
                return message
        return cross and cross(*node[: len(kinds)])
    return check if ranged or cross else None


# node class -> None, or (node) -> its first broken scalar rule's message or a false value
SCALAR_RULES = {cls: _scalar_rules(kinds, _CROSS_CHECKS.get(cls)) for cls, kinds in OPERATORS.values()}
# the one structural rule; the parser, validate and the convert driver all word it so
SUBSET_NOT_OUTERMOST = "subset may only appear as the outermost operation of a definition"


# node class -> how many operands it has, which are its last fields
_ARITY = {Bottom: 0, Name: 0, **{cls: len(cls.__match_args__) - len(kinds) for cls, kinds in OPERATORS.values()}}
MAX_NESTING = 1000  # the most operators one path down an expression may pass
_CLOSE = object()  # on walk's stack, above the operator whose operands are done


def walk(expr: CalExpr, leave=None, enter=None, too_deep=None):
    """Walk ``expr`` depth first, operands left to right, from an explicit stack.

    ``enter(node)`` sees each node on the way down; a result other than None
    is the node's value, and its operands are skipped.  Otherwise ``leave(node,
    values)`` turns its operands' values into its own, and the walk returns
    the value of ``expr``.  With ``too_deep``, a path down ``expr`` through more
    than :data:`MAX_NESTING` operators raises ``too_deep()`` first, found by a
    pass that reaches each distinct node object once and hashes none."""
    # an operator's operands are its last one or two fields: with no operator there, expr is one deep
    if too_deep is not None and type(expr) in _SIGNATURES and (
            type(expr[-1]) in _SIGNATURES or type(expr[-2]) in _SIGNATURES):
        heights: dict[int, int] = {}  # id of an operator node -> the most operators on a path down from it
        if walk(expr, lambda node, below: heights.setdefault(id(node), 1 + max(below)),
                lambda node: heights.get(id(node)) if _ARITY.get(type(node)) else 0) > MAX_NESTING:
            raise too_deep()
    values: list = []  # each operand's value, until its operator's leave takes them
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            node = stack.pop()
            n = _ARITY[type(node)]
            value = leave(node, values[-n:])
            del values[-n:]
        elif enter is None or (value := enter(node)) is None:
            n = _ARITY.get(type(node))
            if n:
                if leave is not None:
                    stack += (node, _CLOSE)
                stack += node[-1 : -n - 1 : -1]  # the operands, last first
                continue
            if n is None:
                raise TypeError(f"not a calendar expression: {node!r}")
            value = leave and leave(node, ())
        values.append(value)
    return values[0] if leave is not None else None


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
MAX_LITERAL_DIGITS = 1000  # the most digits an integer literal may have, sign aside

_TOKENS = r"[A-Za-z_][A-Za-z0-9_-]*|[(),;=]|-?[0-9]+|-inf\b"

# Each match skips whitespace and comments, then captures one token; where no
# token starts, it captures the rest of the text, and at the end of the text
# it captures "".  So findall yields the tokens, then at most one bad token,
# then one or two "" (the end of input).
_TOKEN = re.compile(rf"\s*(?:\#[^\n]*\s*)*({_TOKENS}|[\s\S]+|)")
_VALID_TOKEN = re.compile(_TOKENS)

# the first characters of the token kinds take() reads: a valid token's kind
# follows from its first character, except that "-inf" is no integer
_IDENT_FIRST = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_FIRST = {"ident": _IDENT_FIRST, "int": frozenset("-0123456789")}
_new = tuple.__new__  # a Record from fields the parser has checked


class CalendarSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def _syntax_error(text: str, index: int, message: str) -> CalendarSyntaxError:
    # the offset of token ``index``, and so its line and column (both
    # 1-based), are worked out by scanning the text again, only on an error
    offset = next(islice(_TOKEN.finditer(text), index, None)).start(1)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return CalendarSyntaxError(message, line, column)


def _tokenize(text: str) -> list[str]:
    """The token texts, ending with "" for the end of input; a character no
    token starts with is an error, reported before any syntax error."""
    # Without comments and with punctuation spaced out, valid tokens split at
    # whitespace (as \s finds it), for half the cost of findall.
    spaced = re.sub(r"\#[^\n]*", "", text)
    for mark in "(),;=":
        spaced = spaced.replace(mark, f" {mark} ")
    tokens = spaced.split()
    if all(map(_VALID_TOKEN.fullmatch, set(tokens))):
        tokens.append("")
        return tokens
    tokens = _TOKEN.findall(text)
    last = tokens[-2] if len(tokens) > 1 else ""
    if last and not _VALID_TOKEN.fullmatch(last):
        raise _syntax_error(text, len(tokens) - 2, f"unexpected character {last[0]!r}")
    return tokens


class _Parser:
    """Reads token texts left to right; an expression's open operators wait
    on a stack, so nesting costs no recursion."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str) -> str:
        """The next token, which must be an "ident" or an "int"."""
        tok = self.peek()
        if tok[:1] not in _FIRST[kind] or tok == "-inf":
            found = repr(tok) if tok else "end of input"
            raise self.error(f"expected {what}, found {found}")
        self.pos += 1
        return tok

    def punct(self, mark: str) -> None:
        tok = self.tokens[self.pos]
        if tok != mark:
            found = repr(tok) if tok else "end of input"
            raise self.error(f"expected {mark}, found {found}")
        self.pos += 1

    def error(self, message: str, at: int | None = None) -> CalendarSyntaxError:
        """The error at token index ``at``, by default the next token."""
        return _syntax_error(self.text, self.pos if at is None else at, message)

    def fresh_name(self, seen: set[str]) -> str:
        at = self.pos
        name = self.take("ident", "a name")
        if name in KEYWORDS:
            raise self.error(f"{name!r} is reserved and cannot name a granularity", at)
        if name in seen:
            raise self.error(f"duplicate name {name!r}", at)
        return name

    def integer(self) -> int:
        tok = self.take("int", "an integer")
        if len(tok) > MAX_LITERAL_DIGITS and len(tok.lstrip("-")) > MAX_LITERAL_DIGITS:
            raise self.error(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", self.pos - 1)
        return int(tok)

    def ranged(self, rule) -> int:
        value = self.integer()
        if message := rule(value):
            raise self.error(message, self.pos - 1)
        return value

    def bound(self, side: str) -> int | None:
        tok = self.peek()
        if tok == "-inf":
            if side != "lo":
                raise self.error("-inf is only valid as a lower bound")
            self.pos += 1
            return None
        if tok == "inf":
            if side != "hi":
                raise self.error("inf is only valid as an upper bound")
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
        self.punct(";")
        defs: list[tuple[str, CalExpr]] = []
        tokens = self.tokens
        while name := tokens[self.pos]:
            if name in seen or name in KEYWORDS or name[0] not in _IDENT_FIRST or tokens[self.pos + 1] != "=":
                self.fresh_name(seen)  # not a fresh name and "=": this or punct raises the error
                self.punct("=")
            self.pos += 2
            expr = self.expression(bottom, seen)
            if tokens[self.pos] != ";":
                self.punct(";")
            self.pos += 1
            seen.add(name)
            defs.append((name, expr))
        return _new(CalendarDoc, (cal_name, bottom, tuple(defs)))

    def take_keyword(self, word: str) -> None:
        if self.peek() != word:
            raise self.error(f"expected {word!r}")
        self.pos += 1

    def expression(self, bottom: str, seen: set[str]) -> CalExpr:
        """One definition's expression; an operator past :data:`MAX_NESTING`
        open ones is an error at its keyword."""
        opened: list[tuple[type, list, int]] = []  # per open operator: class, fields so far, field count
        while True:
            at = self.pos
            word = self.take("ident", "a granularity expression")
            if word in OPERATORS:
                if word == "subset" and opened:
                    raise self.error(SUBSET_NOT_OUTERMOST, at)
                if len(opened) == MAX_NESTING:
                    raise self.error("expression nested too deeply", at)
                self.punct("(")
                cls, readers, count = _BODIES[word]
                args: list = []
                for read, extra in readers:
                    if args:
                        self.punct(",")
                    args.append(read(self) if extra is None else read(self, extra))
                if cls in _CROSS_CHECKS and (message := _CROSS_CHECKS[cls](*args)):
                    raise self.error(message, at)
                if args:
                    self.punct(",")
                opened.append((cls, args, count))
                continue
            if word in KEYWORDS:
                raise self.error(f"unexpected keyword {word!r}", at)
            if word != bottom and word not in seen:
                raise self.error(f"unknown granularity {word!r}", at)
            expr = _new(Bottom, ()) if word == bottom else _new(Name, (word,))
            # expr is the next operand of the innermost open operator, which
            # it may complete, and so on outwards
            while opened:
                cls, args, count = opened[-1]
                args.append(expr)
                if len(args) < count:
                    self.punct(",")
                    break
                self.punct(")")
                opened.pop()
                expr = _new(cls, args)
            else:
                return expr


# keyword -> (node class, per scalar its _Parser method and argument or None, its field count)
_BODIES = {word: (cls, tuple((getattr(_Parser, kind), extra[0] if extra else None) for kind, *extra in kinds),
                  len(cls.__match_args__)) for word, (cls, kinds) in OPERATORS.items()}


def parse_calendar(text: str) -> CalendarDoc:
    """Parse calendar source text; raises :class:`CalendarSyntaxError` with position."""
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# printing (canonical form; parse . print == identity)


def print_expr(expr: CalExpr, bottom: str) -> str:
    def leave(node: CalExpr, texts: list[str]) -> str:
        word, kinds = _SIGNATURES[type(node)]
        # only subset bounds are ever None: unbounded on that side
        texts[:0] = [
            str(x) if x is not None else "-inf" if kind == ("bound", "lo") else "inf"
            for x, kind in zip(node, kinds)
        ]
        return f"{word}({', '.join(texts)})"

    return walk(expr, leave, lambda node: bottom if type(node) is Bottom else node[0] if type(node) is Name else None)


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
    """Static checks on a document, such as one assembled programmatically.

    They cover what the parser enforces (names defined earlier and only
    once, ``subset`` only outermost, and the first scalar rule a node breaks,
    as its one ``parameter-range`` finding) and one rule it does not: a name
    bound to a ``subset`` may not be an operand (``bounded-operand``).
    Findings come per definition in file order, and within one in pre-order
    of its syntax.  Operand checks that need converted representations
    (partitions, label alignment, the alter lower bound) are the converter's.
    """
    findings: list[Finding] = []
    known = {doc.bottom}
    bounded: set[str] = set()

    def check(node: CalExpr) -> None:
        kind = type(node)
        if kind is Name:
            n = node[0]
            if n not in known:
                findings.append(Finding(name, "unresolved-name", f"{n!r} is not defined earlier"))
            elif n in bounded:
                findings.append(
                    Finding(name, "bounded-operand", f"{n!r} carries subset bounds and cannot be an operand")
                )
        elif kind is Subset and node is not expr:  # no node contains itself
            findings.append(Finding(name, "subset-not-outermost", SUBSET_NOT_OUTERMOST))
        elif (rule := SCALAR_RULES.get(kind)) and (message := rule(node)):
            findings.append(Finding(name, "parameter-range", message))

    for name, expr in doc.definitions:
        if name in known:
            findings.append(Finding(name, "duplicate-name", f"{name!r} defined twice"))
        walk(expr, enter=check)
        if isinstance(expr, Subset):
            bounded.add(name)
        known.add(name)
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# rewriting


def references(expr: CalExpr) -> set[str]:
    """The names ``expr`` mentions in its own syntax."""
    found: set[str] = set()
    walk(expr, enter=lambda node: found.add(node[0]) if type(node) is Name else None)
    return found


def needed_definitions(
    doc: CalendarDoc, targets: Iterable[str]
) -> list[tuple[str, CalExpr]]:
    """The definitions ``targets`` depend on, themselves included, in file order.

    Names only refer to earlier definitions, so one backward pass over the
    document, walking each needed definition's own syntax, finds them all;
    its cost is linear in the document's size.  When every definition is a
    target, there is nothing to walk.  The bottom needs no definition.
    Raises :class:`KeyError` for a target that is neither.
    """
    needed = set(targets)
    defined = set(doc.names)
    unknown = needed - defined - {doc.bottom}
    if unknown:
        raise KeyError(min(unknown))
    if needed >= defined:
        return list(doc.definitions)
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
    already closed definition and the walk never leaves one definition's
    syntax.  The same object is reused wherever a name recurs, so
    structurally identical subexpressions are shared and the conversion
    cache sees each once.  Raises :class:`KeyError` for an unknown target.
    """
    if target == doc.bottom:
        return Bottom()
    closed: dict[str, CalExpr] = {}

    def close(node: CalExpr, operands: list[CalExpr]) -> CalExpr:
        return _new(type(node), (*node[: len(node) - len(operands)], *operands)) if operands else node

    for name, expr in doc.definitions:
        closed[name] = walk(expr, close, lambda node: closed[node[0]] if type(node) is Name else None)
        if name == target:
            return closed[name]
    raise KeyError(target)
