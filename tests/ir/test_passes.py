"""Pass infrastructure tests."""

import pytest

from repro.cfront import c_ast
from repro.cfront.parser import parse
from repro.ir.passes import (
    AnalysisPass,
    Driver,
    PassError,
    ProgramContext,
    TransformPass,
)


class _Recorder(AnalysisPass):
    name = "recorder"
    provides = ("record",)

    def run(self, context):
        context.provide("record", 42)


class _Consumer(AnalysisPass):
    name = "consumer"
    requires = ("record",)

    def run(self, context):
        context.provide("consumed", context.require("record") + 1)


class TestProgramContext:
    def test_provide_and_require(self):
        context = ProgramContext(parse("int x;"))
        context.provide("k", "v")
        assert context.require("k") == "v"

    def test_require_missing_raises(self):
        context = ProgramContext(parse("int x;"))
        with pytest.raises(PassError):
            context.require("nope")


class TestDriver:
    def test_passes_run_in_order(self):
        context = Driver([_Recorder(), _Consumer()]).run(parse("int x;"))
        assert context.facts["consumed"] == 43
        assert context.pass_log == ["recorder", "consumer"]

    def test_missing_requirement_fails(self):
        with pytest.raises(PassError):
            Driver([_Consumer()]).run(parse("int x;"))

    def test_promised_fact_enforced(self):
        class Liar(AnalysisPass):
            name = "liar"
            provides = ("something",)

            def run(self, context):
                pass

        with pytest.raises(PassError):
            Driver([Liar()]).run(parse("int x;"))

    def test_driver_accepts_existing_context(self):
        context = ProgramContext(parse("int x;"))
        Driver([_Recorder()]).run(context)
        assert context.facts["record"] == 42

    def test_add_chained(self):
        driver = Driver().add(_Recorder()).add(_Consumer())
        assert len(driver.passes) == 2


class TestTransformConsistency:
    def test_transform_relinks_parents(self):
        class AddDecl(TransformPass):
            name = "add-decl"

            def run(self, context):
                decl = c_ast.Decl("added", __import__(
                    "repro.cfront.ctypes", fromlist=["INT"]).INT)
                context.unit.decls.append(decl)

        context = Driver([AddDecl()]).run(parse("int x;"))
        added = context.unit.decls[-1]
        assert added.parent is context.unit

    def test_transform_detects_none_in_list(self):
        class Corrupt(TransformPass):
            name = "corrupt"

            def run(self, context):
                context.unit.decls.append(None)

        with pytest.raises(PassError):
            Driver([Corrupt()]).run(parse("int x;"))

    def test_none_reported_in_walk_order_after_full_relink(self):
        class CorruptTwice(TransformPass):
            name = "corrupt-twice"

            def run(self, context):
                first, second = context.unit.functions()
                second.body.items.append(None)
                call = first.body.items[0].expr
                call.args.append(None)
                call.args.append(c_ast.Id("late"))

        unit = parse("void g(int a, int b);\n"
                     "void f(void) { g(1, 2); }\n"
                     "void h(void) { }")
        context = Driver([CorruptTwice()], strict=False).run(unit)
        [diagnostic] = context.diagnostics
        assert "None left inside list field 'args' of FuncCall" in \
            diagnostic.message
        call = unit.functions()[0].body.items[0].expr
        assert call.args[-1].parent is call

    def test_transform_detects_lost_body(self):
        class LoseBody(TransformPass):
            name = "lose-body"

            def run(self, context):
                context.unit.functions()[0].body = None

        with pytest.raises(PassError):
            Driver([LoseBody()]).run(parse("void f(void) { }"))
