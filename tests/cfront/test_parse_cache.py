"""The parse memoization layer: repeat parses of one source must come
from cache, callers must get independent (or explicitly shared) ASTs,
and differing predefines/headers must not collide."""

import pytest

from repro.cfront.frontend import (
    parse_cache_clear,
    parse_cache_info,
    parse_program,
)

SOURCE = "int x = 3;\nint main(void) { return x; }"


@pytest.fixture(autouse=True)
def _fresh_cache():
    parse_cache_clear()
    yield
    parse_cache_clear()


def test_repeat_parse_hits_cache():
    parse_program(SOURCE)
    before = parse_cache_info()
    parse_program(SOURCE)
    after = parse_cache_info()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


def test_default_returns_are_independent_copies():
    first = parse_program(SOURCE)
    second = parse_program(SOURCE)
    assert first is not second
    # mutating one caller's AST must not leak into the next caller's
    first.decls[0].name = "mutated"
    assert parse_program(SOURCE).decls[0].name != "mutated"


def test_share_returns_the_master_copy():
    shared_one = parse_program(SOURCE, share=True)
    shared_two = parse_program(SOURCE, share=True)
    assert shared_one is shared_two


def test_predefines_are_part_of_the_key():
    with_a = parse_program("int main(void) { return N; }",
                           predefined={"N": 1})
    with_b = parse_program("int main(void) { return N; }",
                           predefined={"N": 2})
    assert parse_cache_info()["misses"] == 2
    assert with_a is not with_b


def test_cache_is_bounded():
    for index in range(80):
        parse_program("int main(void) { return %d; }" % index)
    info = parse_cache_info()
    assert info["entries"] <= info["max"]


def _nodes(unit):
    from repro.cfront import c_ast
    return list(c_ast.walk(unit))


def test_clones_are_isolated_from_master_and_each_other():
    master = parse_program(SOURCE, share=True)
    first = parse_program(SOURCE)
    second = parse_program(SOURCE)
    master_ids = {id(node) for node in _nodes(master)}
    first_ids = {id(node) for node in _nodes(first)}
    second_ids = {id(node) for node in _nodes(second)}
    assert not master_ids & first_ids
    assert not master_ids & second_ids
    assert not first_ids & second_ids
    # every clone is linked within itself
    for node in _nodes(first)[1:]:
        assert id(node.parent) in first_ids
    first.decls[0].name = "mutated"
    first.functions()[0].body.items.clear()
    assert master.decls[0].name == "x"
    assert master.functions()[0].body.items
    third = parse_program(SOURCE)
    assert third.decls[0].name == "x"
    assert third.functions()[0].body.items


def test_clones_share_immutable_types_and_coords():
    master = parse_program(SOURCE, share=True)
    clone = parse_program(SOURCE)
    for original, copied in zip(_nodes(master), _nodes(clone)):
        assert type(original) is type(copied)
        assert copied.coord is original.coord
        if hasattr(original, "ctype"):
            assert copied.ctype is original.ctype
    assert clone.decls[0].ctype is master.decls[0].ctype


def test_clones_leave_out_the_compiled_form():
    from repro.sim.compile import compile_unit
    master = parse_program(SOURCE, share=True)
    compiled = compile_unit(master)
    clone = parse_program(SOURCE)
    assert clone.compiled is None
    assert compile_unit(clone) is not compiled
    assert master.compiled is compiled
