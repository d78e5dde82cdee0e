"""Generic AST traversal: ``walk`` and ``link_parents`` must keep the
order and the parents of their recursive definitions, on every golden
program's source unit and on its translated RCCE unit."""

import pytest

from repro.bench.programs import BENCHMARKS, EXAMPLE_4_1
from repro.cfront import c_ast
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework

GOLDEN_SIZES = {
    "pi": {"steps": 256},
    "sum35": {"limit": 256},
    "primes": {"limit": 128},
    "stream": {"n": 64},
    "dot": {"n": 64},
    "lu": {"batch": 4, "dim": 6},
}


def _recursive_walk(root):
    """The reference order: pre-order over ``children()``."""
    yield root
    for _, child in root.children():
        yield from _recursive_walk(child)


def _recursive_parents(root, parents):
    for _, child in root.children():
        parents[id(child)] = root
        _recursive_parents(child, parents)
    return parents


def _golden_units(name):
    source = EXAMPLE_4_1 if name == "example_4_1" else \
        BENCHMARKS[name](nthreads=8, **GOLDEN_SIZES[name])
    result = TranslationFramework(
        partition_policy="off-chip-only").translate(source)
    return [parse_program(source), result.unit,
            parse_program(result.rcce_source)]


GOLDEN_NAMES = sorted(GOLDEN_SIZES) + ["example_4_1"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_walk_matches_recursive_order(name):
    for unit in _golden_units(name):
        assert [id(node) for node in c_ast.walk(unit)] == \
            [id(node) for node in _recursive_walk(unit)]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_link_parents_matches_recursive_parents(name):
    for unit in _golden_units(name):
        expected = _recursive_parents(unit, {})
        for node in c_ast.walk(unit):
            node.parent = None
        c_ast.link_parents(unit)
        for node in c_ast.walk(unit):
            if node is unit:
                assert node.parent is None
            else:
                assert node.parent is expected[id(node)]


def test_walk_descends_into_fields_rewritten_mid_walk():
    unit = parse_program("int f(void);\nint main(void) { f(); return 0; }")
    seen = []
    for node in c_ast.walk(unit):
        seen.append(type(node).__name__)
        if isinstance(node, c_ast.FuncCall):
            node.args = [c_ast.Constant("int", 7, "7")]
    assert seen.count("Constant") == 2   # the new argument and the 0


def test_walk_and_link_parents_handle_deep_trees():
    expr = c_ast.Id("x")
    for _ in range(5000):
        expr = c_ast.UnaryOp("-", expr)
    c_ast.link_parents(expr)
    nodes = list(c_ast.walk(expr))
    assert len(nodes) == 5001
    assert nodes[-1].parent is nodes[-2]
