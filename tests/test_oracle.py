import pathlib
import random

import pytest

from granlower import algebra as ast
from granlower.convert import convert_expression, delta_select
from granlower.core import PeriodicRep
from granlower.algebra import parse_calendar, rewrite_to_bottom
from granlower.oracle import (
    Definitions,
    OracleError,
    _positions,
    compare_with_periodic,
    eval_window,
    verify_against_oracle,
)

from .exprgen import sample_convertible


class TestEvalWindow:
    def test_group_blocks(self):
        w = eval_window(ast.Group(7, ast.Bottom()), 1, 28, guard=0)
        assert w.granules[2] == tuple(range(8, 15))
        assert {1, 2, 3, 4} <= w.trusted

    def test_edge_granules_untrusted(self):
        w = eval_window(ast.Group(7, ast.Bottom()), 3, 30, guard=0)
        assert 1 in w.granules and 1 not in w.trusted

    def test_alter_shrinks_second_of_two(self):
        # five-blocks with the second of every two shortened by one
        expr = ast.Alter(2, -1, 2, ast.Bottom(), ast.Group(5, ast.Bottom()))
        w = eval_window(expr, -49, 100)
        lo, hi = w.interior
        sizes = {
            j: len(g)
            for j, g in w.granules.items()
            if j in w.trusted and lo <= g[0] and g[-1] <= hi
        }
        assert sizes
        for j, size in sizes.items():
            assert size == (4 if (j - 2) % 2 == 0 else 5), (j, size)

    def test_select_down_second_contained(self):
        # pick the second two-block inside each six-block
        source = ast.Group(2, ast.Bottom())
        container = ast.Group(3, source)
        expr = ast.SelectDown(2, 1, source, container)
        w = eval_window(expr, -59, 120)
        rep = convert_expression(expr)
        assert not compare_with_periodic(w, rep)

    def test_anchored_needs_next_anchor(self):
        expr = ast.AnchoredGroup(
            ast.Bottom(), ast.SelectDown(3, 1, ast.Bottom(), ast.Group(5, ast.Bottom()))
        )
        w = eval_window(expr, 1, 40, guard=0)
        # the right-most anchor has no successor in the window
        assert max(w.granules) < 38

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            eval_window(ast.Bottom(), 1, 10, guard=5)

    def test_alter_tiling_violation_raises(self):
        expr = ast.Alter(1, 1, 2, ast.Group(7, ast.Bottom()), ast.Group(30, ast.Bottom()))
        with pytest.raises(OracleError):
            eval_window(expr, -299, 600)


class TestCompare:
    def test_week_passes(self, week_rep):
        w = eval_window(ast.Group(7, ast.Bottom()), -69, 140)
        assert compare_with_periodic(w, week_rep) == []

    def test_single_perturbed_granule_caught(self):
        w = eval_window(ast.Group(7, ast.Bottom()), -69, 140)
        shifted = PeriodicRep(7, 1, {1: tuple(range(2, 9))})
        issues = compare_with_periodic(w, shifted)
        assert issues and all("label" in i for i in issues)

    def test_missing_label_caught(self, week_rep):
        # oracle for mondays only, rep claims every week granule
        expr = ast.SelectDown(1, 1, ast.Bottom(), ast.Group(7, ast.Bottom()))
        w = eval_window(expr, -69, 140)
        issues = compare_with_periodic(w, week_rep)
        assert any("missing" in i for i in issues)

    def test_minimized_and_raw_both_pass(self):
        expr = ast.Alter(
            1, -1, 2, ast.Bottom(), ast.Alter(1, 1, 2, ast.Bottom(), ast.Group(7, ast.Bottom()))
        )
        w = eval_window(expr, -69, 140)
        for flag in (False, True):
            rep = convert_expression(expr, minimize=flag)
            assert compare_with_periodic(w, rep) == []


class TestIndependence:
    def test_no_converter_import(self):
        import ast as pyast

        source = (pathlib.Path(__file__).parent.parent / "src/granlower/oracle.py").read_text()
        imported = set()
        for node in pyast.walk(pyast.parse(source)):
            if isinstance(node, pyast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, pyast.ImportFrom):
                imported.update(alias.name for alias in node.names)
                module = node.module or ""
                if node.level:  # relative to the package
                    module = f"granlower.{module}" if module else "granlower"
                if module == "granlower":
                    imported.update(f"granlower.{alias.name}" for alias in node.names)
                else:
                    imported.add(module)
        assert not any("convert" in name or "minimize" in name for name in imported), imported
        # of the package, the oracle reads only the syntax tree and the rep type
        ours = {name for name in imported if name.split(".")[0] == "granlower"}
        assert ours == {"granlower.algebra", "granlower.core"}, ours

    def test_runs_where_conversion_would_blow_the_cap(self):
        # converted period would be 997 * 991; the window logic never sees it
        expr = ast.Combine(ast.Group(997, ast.Bottom()), ast.Group(991, ast.Bottom()))
        w = eval_window(expr, 1, 300, guard=0)
        assert w.granules == {} or all(j not in w.trusted for j in w.granules)

    def test_positions_agrees_with_delta_select(self):
        rng = random.Random(5)
        for _ in range(300):
            items = sorted(rng.sample(range(-50, 50), rng.randint(0, 8)))
            start = rng.choice([x for x in range(-9, 10) if x != 0])
            count = rng.randint(1, 9)
            assert _positions(items, start, count) == delta_select(items, start, count)


class TestWindowGrowth:
    def test_nested_anchoring_widens_the_window(self, monkeypatch):
        # each anchoring drops the granule of the last anchor it sees, so four
        # nested levels reach past the first guard into the interior
        import granlower.oracle as oracle

        windows = []
        real = oracle.eval_window

        def recorded(expr, lo, hi, **kwargs):
            windows.append((lo, hi))
            return real(expr, lo, hi, **kwargs)

        monkeypatch.setattr(oracle, "eval_window", recorded)
        day = ast.Bottom()
        weeks = ast.Group(7, day)
        for _ in range(4):
            weeks = ast.AnchoredGroup(day, ast.SelectDown(1, 1, day, weeks))
        rep = convert_expression(weeks)
        assert rep.period == 7
        first = compare_with_periodic(real(weeks, -14, 22, guard=15), rep)
        assert first and all("missing from oracle" in line for line in first)
        assert verify_against_oracle(weeks, rep, 7) == []
        assert windows == [(-14, 22), (-29, 37)]


class TestTranslationStability:
    def test_interior_labels_stable_under_window_growth(self):
        rng = random.Random(11)
        for _ in range(10):
            expr, rep = sample_convertible(rng, depth=2, max_result_period=300)
            period = getattr(rep, "period", 30)
            lo, hi = 1 - 3 * period, 6 * period
            small = eval_window(expr, lo, hi)
            big = eval_window(expr, lo - period, hi + period, guard=(hi - lo + 1) // 3 + period)
            ilo, ihi = small.interior
            for j, g in small.granules.items():
                if j in small.trusted and ilo <= g[0] and g[-1] <= ihi:
                    assert big.granules.get(j) == g


class TestDefinitions:
    def test_names_match_closed_trees(self, fixtures_dir):
        doc = parse_calendar((fixtures_dir / "basic.cal").read_text())
        definitions = Definitions(doc.definitions)
        for name, expr in doc.definitions:
            closed = eval_window(rewrite_to_bottom(doc, name), -69, 140)
            assert eval_window(ast.Name(name), -69, 140, definitions=definitions) == closed
            assert eval_window(expr, -69, 140, definitions=definitions) == closed

    def test_each_definition_evaluated_once_per_window(self):
        # closed, the last name would be a tree of 2^40 leaves
        lines = ["calendar c bottom d;", "x0 = group(3, d);"]
        lines += [f"x{i} = union(x{i - 1}, x{i - 1});" for i in range(1, 41)]
        doc = parse_calendar("\n".join(lines) + "\n")
        definitions = Definitions(doc.definitions)
        rep = PeriodicRep(3, 1, {1: (1, 2, 3)})
        assert verify_against_oracle(ast.Name("x40"), rep, 3, definitions=definitions) == []
        w = eval_window(ast.Name("x20"), -29, 33, definitions=definitions)
        assert w.granules[2] == (4, 5, 6)

    def test_bottom_map_built_once_per_window(self, fixtures_dir, monkeypatch):
        import granlower.oracle as oracle

        built = []
        real = oracle._bottom_map
        monkeypatch.setattr(
            oracle, "_bottom_map", lambda lo, hi: built.append((lo, hi)) or real(lo, hi)
        )
        doc = parse_calendar((fixtures_dir / "toyleap.cal").read_text())
        definitions = Definitions(doc.definitions)
        for name, _ in doc.definitions:
            eval_window(ast.Name(name), -69, 140, definitions=definitions)
        eval_window(ast.Name(doc.definitions[0][0]), -10, 20, definitions=definitions)
        assert built == [(-69, 140), (-10, 20)]
        assert definitions.bottom(-69, 140) is definitions.bottom(-69, 140)
        # without definitions, one map per call however often the bottom appears
        eval_window(rewrite_to_bottom(doc, doc.definitions[-1][0]), 1, 30)
        assert built[2:] == [(1, 30)]

    def test_unbound_name_rejected(self):
        with pytest.raises(ValueError, match="references 'week'"):
            eval_window(ast.Group(2, ast.Name("week")), 1, 30)
        with pytest.raises(ValueError, match="references 'week'"):
            eval_window(ast.Name("week"), 1, 30, definitions=Definitions(()))
