import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from granlower import algebra as ast
from granlower.algebra import (
    MAX_NESTING,
    CalendarDoc,
    CalendarSyntaxError,
    needed_definitions,
    parse_calendar,
    print_calendar,
    references,
    rewrite_to_bottom,
    validate,
)


class TestParse:
    def test_group_definition(self):
        doc = parse_calendar("calendar c bottom day;\nweek = group(7, day);\n")
        assert doc.definitions == (("week", ast.Group(7, ast.Bottom())),)

    def test_zero_shift_parses(self):
        doc = parse_calendar("calendar c bottom day;\nx = shift(0, day);\n")
        assert doc.definitions[0][1] == ast.Shift(0, ast.Bottom())

    def test_selectdown_references(self):
        doc = parse_calendar(
            "calendar c bottom day;\nweek = group(7, day);\n"
            "monday = selectdown(1, 1, day, week);\n"
        )
        assert doc.definitions[1][1] == ast.SelectDown(1, 1, ast.Bottom(), ast.Name("week"))

    def test_subset_infinities(self):
        doc = parse_calendar(
            "calendar c bottom day;\nw = group(7, day);\ns = subset(-inf, 1999, w);\n"
        )
        assert doc.definitions[1][1] == ast.Subset(None, 1999, ast.Name("w"))

    def test_comments_and_hyphenated_names(self):
        doc = parse_calendar(
            "calendar c bottom day; # trailing comment\n"
            "b-day = group(2, day);\nx = group(3, b-day);\n"
        )
        assert doc.names == ("b-day", "x")

    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("calendar c bottom d;\nx = group(0, d);", "positive"),
            ("calendar c bottom d;\nx = group(2 d);", "expected"),
            ("calendar c bottom d;\nx = alter(3, 1, 2, d, d);", "exceeds"),
            ("calendar c bottom d;\nx = group(2, subset(1, 2, d));", "outermost"),
            ("calendar c bottom d;\nx = group(2, y);", "unknown"),
            ("calendar c bottom d;\nx = selectdown(0, 1, d, d);", "nonzero"),
            ("calendar c bottom d;\nx = selectdown(1, 0, d, d);", "positive"),
            ("calendar c bottom d;\nx = d;\nx = d;", "duplicate"),
            ("calendar c bottom d;\ngroup = d;", "reserved"),
            ("calendar c bottom d;\nx = frobnicate(2, d);", "unknown"),
            ("calendar c bottom d;\nx = subset(5, 2, d);", "inverted"),
            ("calendar c bottom d;\nx = subset(inf, 2, d);", "upper bound"),
            ("calendar c bottom d;\nx = group(2, d)", "expected"),
        ],
    )
    def test_rejects(self, source, fragment):
        with pytest.raises(CalendarSyntaxError) as err:
            parse_calendar(source)
        assert fragment in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(CalendarSyntaxError) as err:
            parse_calendar("calendar c bottom d;\nx = group(2, y);")
        assert err.value.line == 2 and err.value.column == 14

    # (id, source, message, line, column); a tab, a "\r" and a comment each
    # count as ordinary characters of their line
    POSITIONED = [
        (
            'tab_indent', 'calendar c bottom day;\n\tweek = group(7, day) ;\n\tbad = group(0, day);\n',
            '3:14: grouping size must be positive, got 0', 3, 14,
        ),
        (
            'comment_then_bad_char', '# comment\ncalendar c bottom day; # trailing\nweek = group(7, day);\n@\n',
            "4:1: unexpected character '@'", 4, 1,
        ),
        (
            'crlf_unknown_name', 'calendar c bottom day;\r\nweek = group(7, day);\r\nx = group(7, month);\r\n',
            "3:14: unknown granularity 'month'", 3, 14,
        ),
        (
            'missing_semicolon_at_eof', 'calendar c bottom day;\nweek = group(7, day)',
            '2:21: expected ;, found end of input', 2, 21,
        ),
        (
            'tabs_then_bad_char', 'calendar c bottom day;\n\t\t$',
            "2:3: unexpected character '$'", 2, 3,
        ),
        (
            'inf_as_lower_bound', 'calendar c bottom day;\nw = subset(inf, 3, day);\n',
            '2:12: inf is only valid as an upper bound', 2, 12,
        ),
        (
            'crlf_comment_alter_slot', 'calendar c bottom day;\r\n  # note\r\n  w = alter(5, 1, 3, day, day);\r\n',
            '3:7: alter slot 5 exceeds cycle 3', 3, 7,
        ),
        (
            'eof_after_comment', 'calendar c bottom day;\nweek = # c\n',
            '3:1: expected a granularity expression, found end of input', 3, 1,
        ),
        (
            'non_ascii', 'calendar c bottom day;\nwéek = group(7, day);\n',
            "2:2: unexpected character 'é'", 2, 2,
        ),
        (
            'duplicate_after_blank_lines', 'calendar c bottom day;\n\n\nweek = group(7, day);\n\tweek = group(2, day);',
            "5:2: duplicate name 'week'", 5, 2,
        ),
        (
            'empty_text', '',
            "1:1: expected 'calendar'", 1, 1,
        ),
        (
            'reserved_name', 'calendar c bottom day;\n# group is a keyword\ngroup = group(2, day);',
            "3:1: 'group' is reserved and cannot name a granularity", 3, 1,
        ),
        (
            'neg_inf_as_upper_bound', 'calendar c bottom day;\nx = subset(1, -inf, day);\n',
            '2:15: -inf is only valid as a lower bound', 2, 15,
        ),
        (
            'bare_cr', 'calendar c bottom day;\rweek = group(0, day);',
            '1:37: grouping size must be positive, got 0', 1, 37,
        ),
        (
            'inverted_subset_crlf', 'calendar c bottom day;\r\n\r\nx = subset(5, 2, day);',
            '3:5: subset bounds 5..2 are inverted', 3, 5,
        ),
        (
            'zero_select_start', 'calendar c bottom day;\n# a\n# b\n  x = selectdown(0, 1, day, day);\n',
            '4:18: selection start must be nonzero', 4, 18,
        ),
        (
            'unexpected_keyword', 'calendar c bottom day;\r\n\tx = bottom;',
            "2:6: unexpected keyword 'bottom'", 2, 6,
        ),
        (
            'missing_bottom', '# c\n  calendar c\tday;',
            "2:14: expected 'bottom'", 2, 14,
        ),
    ]

    @pytest.mark.parametrize(
        "source, message, line, column",
        [case[1:] for case in POSITIONED],
        ids=[case[0] for case in POSITIONED],
    )
    def test_error_message_and_position(self, source, message, line, column):
        with pytest.raises(CalendarSyntaxError) as err:
            parse_calendar(source)
        assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


# The tokenizer the parser used before it took token texts from one
# findall: one finditer match per token or run of whitespace, each token kept
# as (kind, text, offset), then ("eof", "", offset).  It is the reference the
# findall tokenizer is checked against.
_REFERENCE_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
    |(?P<int>-?[0-9]+)
    |(?P<neg_inf>-inf\b)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
    |(?P<punct>[(),;=])
    """,
    re.VERBOSE,
)


def _reference_position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    for m in _REFERENCE_TOKEN.finditer(text):
        start = m.start()
        if start != pos:  # finditer skipped what no token matches
            break
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            tokens.append((value if kind == "punct" else kind, value, start))
    if pos != len(text):
        raise CalendarSyntaxError(f"unexpected character {text[pos]!r}", *_reference_position(text, pos))
    tokens.append(("eof", "", pos))
    return tokens


_FRAGMENTS = [
    "calendar", "bottom", "day", "b-day", "_x1", "group", "inf", "-inf", "-infinity",
    "-inf-", "-", "-7", "12", "0", "(", ")", ",", ";", "=", " ", "\t", "\n", "\r\n", "\r",
    "# note", "#", "\u00e9", "@", "$", "\x0b", "\u00a0",
]

calendar_texts = st.lists(
    st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.text(alphabet="abz_-09(),;=# \t\n\r\u00e9@$", max_size=3),
    ),
    max_size=25,
).map("".join)


class TestTokenize:
    @settings(max_examples=400)
    @given(calendar_texts)
    @example("")
    @example("  \n")
    @example("day # c")
    @example("x @ y")
    @example("- 1")
    @example("-inf")
    def test_matches_the_reference(self, text):
        try:
            expected = reference_tokenize(text)
        except CalendarSyntaxError as exc:
            with pytest.raises(CalendarSyntaxError) as err:
                ast._tokenize(text)
            assert (str(err.value), err.value.line, err.value.column) == (str(exc), exc.line, exc.column)
            return
        tokens = ast._tokenize(text)
        body = expected[:-1]
        # the end of input is "", once or twice
        assert tokens[: len(body)] == [value for _, value, _ in body]
        assert tokens[len(body) :] in ([""], ["", ""])
        for index, (kind, value, offset) in enumerate(expected):
            # the parser's kind test, and the position it reports at each token
            if kind in ("ident", "int"):
                assert value[:1] in ast._FIRST[kind] and value != "-inf"
            else:
                assert value[:1] not in ast._FIRST["ident"]
                assert value[:1] not in ast._FIRST["int"] or value == "-inf"
            err = ast._syntax_error(text, index, "m")
            assert (err.line, err.column) == _reference_position(text, offset)


class TestPrint:
    def test_round_trip_fixture(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        assert parse_calendar(print_calendar(doc)) == doc

    def test_round_trip_all_operators(self):
        src = (
            "calendar c bottom d;\n"
            "a = group(3, d);\n"
            "b = alter(1, -1, 2, d, a);\n"
            "c2 = shift(-4, b);\n"
            "e = combine(a, d);\n"
            "f = selectdown(-2, 1, d, a);\n"
            "g = anchor(d, f);\n"
            "h = selectup(a, f);\n"
            "i = selectintersect(2, 3, a, c2);\n"
            "j = union(f, f);\n"
            "k = intersect(f, f);\n"
            "l = difference(f, f);\n"
            "m = subset(-inf, inf, a);\n"
        )
        # a new operator must join this round trip
        assert set(re.findall(r"\b([a-z]+)\(", src)) == set(ast.OPERATORS)
        doc = parse_calendar(src)
        assert parse_calendar(print_calendar(doc)) == doc


    def test_round_trip_at_max_nesting(self):
        day = "shift(1, " * (MAX_NESTING - 1) + "d" + ")" * (MAX_NESTING - 1)
        doc = parse_calendar(f"calendar c bottom d;\nx = subset(1, inf, {day});\ny = union({day}, x);\n")
        assert parse_calendar(print_calendar(doc)) == doc


class TestWalk:
    def test_entry_exit_and_skipped_operands(self):
        events = []

        def enter(node):
            events.append(("enter", type(node).__name__))
            return "skipped" if type(node) is ast.Group else None

        def leave(node, values):
            events.append(("leave", type(node).__name__, *values))
            return type(node).__name__

        expr = ast.Union(ast.Shift(1, ast.Bottom()), ast.Group(2, ast.Name("w")))
        assert ast.walk(expr, leave, enter) == "Union"
        assert events == [
            ("enter", "Union"), ("enter", "Shift"), ("enter", "Bottom"), ("leave", "Bottom"),
            ("leave", "Shift", "Bottom"), ("enter", "Group"), ("leave", "Union", "Shift", "skipped"),
        ]

    def test_nesting_limit_counts_paths_not_nodes(self):
        # each level holds the one below twice: 2**depth paths, depth + 1 nodes
        def doubled(depth):
            expr = ast.Bottom()
            for _ in range(depth):
                expr = ast.Union(expr, expr)
            return expr

        class TooDeep(Exception):
            pass

        seen = set()
        # entering a node met before skips its operands
        ast.walk(doubled(MAX_NESTING), enter=lambda node: id(node) in seen or seen.add(id(node)), too_deep=TooDeep)
        assert len(seen) == MAX_NESTING + 1
        with pytest.raises(TooDeep):  # before any node is entered
            ast.walk(doubled(MAX_NESTING + 1), enter=pytest.fail, too_deep=TooDeep)


class TestValidate:
    def test_clean_document(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "gregorian.cal").read_text())
        assert validate(doc).ok

    def test_inner_subset_flagged(self):
        doc = CalendarDoc(
            "c", "d", (("x", ast.Group(2, ast.Subset(1, 5, ast.Bottom()))),)
        )
        report = validate(doc)
        assert [f.rule for f in report.findings] == ["subset-not-outermost"]

    def test_bounded_reference_flagged(self):
        doc = CalendarDoc(
            "c",
            "d",
            (
                ("s", ast.Subset(1, 5, ast.Bottom())),
                ("u", ast.Group(2, ast.Name("s"))),
            ),
        )
        report = validate(doc)
        assert [f.rule for f in report.findings] == ["bounded-operand"]

    def test_parameter_range_flagged(self):
        doc = CalendarDoc("c", "d", (("x", ast.Alter(3, 1, 2, ast.Bottom(), ast.Bottom())),))
        report = validate(doc)
        assert [f.rule for f in report.findings] == ["parameter-range"]

    def test_unresolved_and_duplicate(self):
        doc = CalendarDoc(
            "c", "d", (("x", ast.Name("nope")), ("x", ast.Bottom()))
        )
        rules = {f.rule for f in validate(doc).findings}
        assert rules == {"unresolved-name", "duplicate-name"}

    def test_findings_in_order(self):
        B, N = ast.Bottom(), ast.Name
        doc = CalendarDoc(
            "c",
            "d",
            (
                ("s", ast.Subset(5, 2, B)),
                ("x", ast.Union(ast.Group(0, N("nope")), ast.Subset(1, 2, N("s")))),
                ("x", ast.Alter(3, 1, 2, B, ast.SelectDown(0, 1, N("x"), B))),
                (
                    "d",
                    ast.SelectIntersect(
                        1, 0, N("later"), ast.Difference(N("s"), ast.Subset(None, None, B))
                    ),
                ),
            ),
        )
        # per definition in file order, then in pre-order of its syntax
        assert [tuple(f) for f in validate(doc).findings] == [
            ("s", "parameter-range", "subset bounds 5..2 are inverted"),
            ("x", "parameter-range", "grouping size must be positive, got 0"),
            ("x", "unresolved-name", "'nope' is not defined earlier"),
            ("x", "subset-not-outermost", "subset may only appear as the outermost operation of a definition"),
            ("x", "bounded-operand", "'s' carries subset bounds and cannot be an operand"),
            ("x", "duplicate-name", "'x' defined twice"),
            ("x", "parameter-range", "alter slot 3 exceeds cycle 2"),
            ("x", "parameter-range", "selection start must be nonzero"),
            ("d", "duplicate-name", "'d' defined twice"),
            ("d", "parameter-range", "selection count must be positive, got 0"),
            ("d", "unresolved-name", "'later' is not defined earlier"),
            ("d", "bounded-operand", "'s' carries subset bounds and cannot be an operand"),
            ("d", "subset-not-outermost", "subset may only appear as the outermost operation of a definition"),
        ]

    def test_deep_nesting_is_no_recursion(self):
        # far deeper than the interpreter's recursion limit
        expr = ast.Group(0, ast.Name("nope"))
        for _ in range(5000):
            expr = ast.Shift(1, expr)
        doc = CalendarDoc("c", "d", (("x", ast.Subset(1, 2, expr)),))
        assert [f.rule for f in validate(doc).findings] == ["parameter-range", "unresolved-name"]


# nodes whose scalars sit on and around every scalar rule's boundary, two bad
# scalars in one node and unbounded subset sides among them
_DAY, _WEEK = ast.Bottom(), ast.Name("week")
BOUNDARY_NODES = [ast.Group(n, _DAY) for n in (-5, -1, 0, 1, 2)]
BOUNDARY_NODES += [
    ast.Alter(slot, 1, cycle, _DAY, _WEEK)
    for slot, cycle in ((-1, 2), (0, 2), (1, 2), (2, 2), (3, 2), (1, 1), (2, 1), (1, 0), (0, 0), (0, -1), (3, 3))
]
BOUNDARY_NODES += [
    cls(start, count, _DAY, _WEEK)
    for cls in (ast.SelectDown, ast.SelectIntersect) for start in (-1, 0, 1) for count in (-1, 0, 1)
]
BOUNDARY_NODES += [
    ast.Subset(lo, hi, _WEEK)
    for lo, hi in ((None, None), (None, 0), (0, None), (5, None), (None, -5), (1, 1), (1, 2), (2, 1), (-1, -2), (0, -1))
]


class TestScalarRules:
    def test_parser_validate_and_driver_agree(self):
        """The parser (its message without the position), validate (its one
        parameter-range finding) and the conversion driver reject the same
        nodes, each with the same message."""
        from granlower.convert import ConversionError, convert_calendar

        disagreements = []
        for node in BOUNDARY_NODES:
            doc = CalendarDoc("c", "day", (("week", ast.Group(7, ast.Bottom())), ("x", node)))
            parsed = validated = converted = None
            try:
                parse_calendar(print_calendar(doc))
            except CalendarSyntaxError as exc:
                parsed = str(exc).split(": ", 1)[1]
            findings = validate(doc).findings
            assert [f.rule for f in findings] in ([], ["parameter-range"])
            if findings:
                validated = findings[0].message
            try:
                convert_calendar(doc, ["x"])
            except ConversionError as exc:
                converted = exc.message
            if not parsed == validated == converted:
                disagreements.append((node, parsed, validated, converted))
        assert len(BOUNDARY_NODES) == 44 and disagreements == []


class TestRewrite:
    def test_monday_over_hour_bottom(self):
        doc = parse_calendar(
            "calendar c bottom hour;\n"
            "day = group(24, hour);\n"
            "week = group(7, day);\n"
            "monday = selectdown(1, 1, day, week);\n"
        )
        closed = rewrite_to_bottom(doc, "monday")
        assert closed == ast.SelectDown(
            1, 1, ast.Group(24, ast.Bottom()), ast.Group(7, ast.Group(24, ast.Bottom()))
        )
        # structural sharing: the inlined day subtree is one object
        assert closed.source is closed.container.operand

    def test_bottom_target(self):
        doc = parse_calendar("calendar c bottom day;\nweek = group(7, day);\n")
        assert rewrite_to_bottom(doc, "day") == ast.Bottom()

    def test_single_inline(self):
        doc = parse_calendar("calendar c bottom day;\nweek = group(7, day);\n")
        assert rewrite_to_bottom(doc, "week") == ast.Group(7, ast.Bottom())

    def test_idempotent_on_closed_expressions(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        for name in doc.names:
            closed = rewrite_to_bottom(doc, name)
            wrapper = CalendarDoc("w", doc.bottom, ((name, closed),))
            assert rewrite_to_bottom(wrapper, name) == closed

    def test_long_name_chain_converts(self):
        # closing one definition at a time keeps recursion within one
        # definition's syntax, so only the converter's depth limits the chain
        from granlower.convert import convert_expression
        from granlower.core import PeriodicRep

        lines = ["calendar c bottom d;", "x0 = group(3, d);"]
        lines += [f"x{i} = shift(1, x{i - 1});" for i in range(1, 450)]
        doc = parse_calendar("\n".join(lines) + "\n")
        rep = convert_expression(rewrite_to_bottom(doc, "x449"))
        assert rep == PeriodicRep(3, 1, {450: (1, 2, 3)})

    def test_needed_definitions_in_file_order(self):
        doc = parse_calendar(
            "calendar c bottom d;\n"
            "w = group(7, d);\n"
            "unused = group(5, d);\n"
            "m = selectdown(1, 1, d, w);\n"
            "pair = union(m, shift(7, m));\n"
            "later = group(2, unused);\n"
        )
        found = needed_definitions(doc, ["pair"])
        assert [name for name, _ in found] == ["w", "m", "pair"]
        assert found == [d for d in doc.definitions if d[0] in {"w", "m", "pair"}]
        assert needed_definitions(doc, ["d"]) == []
        with pytest.raises(KeyError):
            needed_definitions(doc, ["pair", "nope"])

    def test_needed_definitions_of_every_name_walk_nothing(self, fixtures_dir, monkeypatch):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        monkeypatch.setattr(ast, "references", None)  # a walk would call it
        assert needed_definitions(doc, [doc.bottom, *reversed(doc.names)]) == list(doc.definitions)

    def test_references_are_direct(self):
        doc = parse_calendar(
            "calendar c bottom d;\n"
            "w = group(7, d);\n"
            "m = selectdown(1, 1, d, w);\n"
            "pair = union(m, shift(7, selectup(m, w)));\n"
        )
        body = dict(doc.definitions)
        assert references(body["pair"]) == {"m", "w"}
        assert references(body["m"]) == {"w"}
        assert references(body["w"]) == set()

    def test_unknown_target(self):
        doc = parse_calendar("calendar c bottom day;\n")
        with pytest.raises(KeyError):
            rewrite_to_bottom(doc, "nope")

    def test_rewrite_preserves_oracle_semantics(self):
        from granlower.oracle import eval_window

        doc = parse_calendar(
            "calendar c bottom d;\nw = group(7, d);\nm = selectdown(1, 1, d, w);\n"
        )
        closed = rewrite_to_bottom(doc, "m")
        manual = ast.SelectDown(1, 1, ast.Bottom(), ast.Group(7, ast.Bottom()))
        assert eval_window(closed, -20, 41, guard=0).granules == (
            eval_window(manual, -20, 41, guard=0).granules
        )


# one node of each class with its field names and repr; the reprs are those
# earlier versions printed, and callers may have recorded them
_B, _M = ast.Bottom(), ast.Name("m")
NODES = [
    (_B, (), "Bottom()"),
    (_M, ("name",), "Name(name='m')"),
    (ast.Group(7, _B), ("size", "operand"), "Group(size=7, operand=Bottom())"),
    (
        ast.Alter(1, -1, 4, _B, _M),
        ("slot", "change", "cycle", "unit", "base"),
        "Alter(slot=1, change=-1, cycle=4, unit=Bottom(), base=Name(name='m'))",
    ),
    (ast.Shift(-3, _M), ("offset", "operand"), "Shift(offset=-3, operand=Name(name='m'))"),
    (
        ast.Combine(_M, _B),
        ("container", "pieces"),
        "Combine(container=Name(name='m'), pieces=Bottom())",
    ),
    (
        ast.AnchoredGroup(_B, _M),
        ("filler", "anchors"),
        "AnchoredGroup(filler=Bottom(), anchors=Name(name='m'))",
    ),
    (
        ast.Subset(None, 5, _M),
        ("lo", "hi", "operand"),
        "Subset(lo=None, hi=5, operand=Name(name='m'))",
    ),
    (
        ast.SelectDown(-1, 2, _B, _M),
        ("start", "count", "source", "container"),
        "SelectDown(start=-1, count=2, source=Bottom(), container=Name(name='m'))",
    ),
    (
        ast.SelectUp(_B, _M),
        ("source", "witness"),
        "SelectUp(source=Bottom(), witness=Name(name='m'))",
    ),
    (
        ast.SelectIntersect(1, 1, _B, _M),
        ("start", "count", "source", "probe"),
        "SelectIntersect(start=1, count=1, source=Bottom(), probe=Name(name='m'))",
    ),
    (ast.Union(_B, _M), ("left", "right"), "Union(left=Bottom(), right=Name(name='m'))"),
    (
        ast.Intersection(_M, _B),
        ("left", "right"),
        "Intersection(left=Name(name='m'), right=Bottom())",
    ),
    (
        ast.Difference(_M, _M),
        ("left", "right"),
        "Difference(left=Name(name='m'), right=Name(name='m'))",
    ),
]
NODE_IDS = [type(node).__name__ for node, _, _ in NODES]


class TestNodeValues:
    """Syntax nodes and the other records are immutable values: equal when
    their class and fields are, hashable, truthy and printed field by field."""

    @pytest.mark.parametrize("node, fields, text", NODES, ids=NODE_IDS)
    def test_fields_and_repr(self, node, fields, text):
        assert type(node).__match_args__ == fields
        assert repr(node) == text
        assert [getattr(node, f) for f in fields] == list(node)

    @pytest.mark.parametrize("node, fields, text", NODES, ids=NODE_IDS)
    def test_equal_copies_hash_alike(self, node, fields, text):
        copy = type(node)(*(getattr(node, f) for f in fields))
        assert copy == node and not copy != node and copy is not node
        assert hash(copy) == hash(node)
        assert {node: 1}[copy] == 1
        assert eval(text, vars(ast)) == node

    def test_classes_never_compare_equal(self):
        nodes = [node for node, _, _ in NODES]
        nodes += [ast.Union(_M, _B), ast.Intersection(_B, _M), ast.Difference(_B, _M)]
        for a in nodes:
            for b in nodes:
                assert (a == b) == (a is b)
                assert (a != b) == (a is not b)
        # same fields, different operator
        assert ast.Union(_B, _M) != ast.Intersection(_B, _M)
        assert len({ast.Union(_B, _M), ast.Intersection(_B, _M), ast.Difference(_B, _M)}) == 3

    def test_deep_trees_compare_and_hash_without_recursion(self):
        def shifts(leaf):
            for _ in range(MAX_NESTING):
                leaf = ast.Shift(1, leaf)
            return leaf

        def under_frames(n, fn):
            return under_frames(n - 1, fn) if n else fn()

        def check():
            a, b, c = shifts(_B), shifts(_B), shifts(_M)
            assert a == b and not a != b and a is not b
            assert hash(a) == hash(b) and {a: 1}[b] == 1 and b in {a}
            assert a != c and not a == c and c not in {a: 1}

        under_frames(300, check)

    @pytest.mark.parametrize("node, fields, text", NODES, ids=NODE_IDS)
    def test_never_equal_to_a_tuple(self, node, fields, text):
        plain = tuple(getattr(node, f) for f in fields)
        assert node != plain and plain != node
        assert not node == plain and not plain == node

    @pytest.mark.parametrize("node, fields, text", NODES, ids=NODE_IDS)
    def test_truthy(self, node, fields, text):
        assert node

    @pytest.mark.parametrize("node, fields, text", NODES, ids=NODE_IDS)
    def test_immutable(self, node, fields, text):
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.__dict__

    def test_wrong_field_count_rejected(self):
        with pytest.raises(TypeError):
            ast.Group(7)
        with pytest.raises(TypeError):
            ast.Shift(1, _B, _B)
        with pytest.raises(TypeError):
            ast.Shift(1, operand=_B, extra=2)

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        for node, _, _ in NODES:
            assert copy.deepcopy(node) == node
            assert pickle.loads(pickle.dumps(node)) == node

    def test_other_records(self):
        doc = CalendarDoc("c", "day", (("w", ast.Group(7, _B)),))
        assert repr(doc) == (
            "CalendarDoc(name='c', bottom='day', "
            "definitions=(('w', Group(size=7, operand=Bottom())),))"
        )
        assert doc.names == ("w",)
        report = ast.ValidationReport()
        assert report.ok and report.findings == () and str(report) == "ok"
        assert repr(report) == "ValidationReport(findings=())"
        finding = ast.Finding("x", "rule", "message")
        assert repr(finding) == "Finding(definition='x', rule='rule', message='message')"
        assert not ast.ValidationReport((finding,)).ok

    def test_window_eval_keywords(self):
        from granlower.oracle import WindowEval

        fields = dict(lo=1, hi=3, granules={1: (1,)}, trusted=frozenset({1}), interior=(1, 3))
        window = WindowEval(**fields)
        assert window == WindowEval(**fields) == WindowEval(*fields.values())
        assert window != WindowEval(**{**fields, "hi": 4})
        assert window.granules == {1: (1,)} and window.interior == (1, 3)
        assert repr(window) == (
            "WindowEval(lo=1, hi=3, granules={1: (1,)}, trusted=frozenset({1}), interior=(1, 3))"
        )
