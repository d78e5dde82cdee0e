"""Tree-walking C interpreter with cycle accounting.

Every arithmetic operation is charged from :data:`OP_COSTS` (P54C-class
latencies: integer divide ≫ multiply > add; FDIV ≈ 39 cycles) and every
memory access is priced by the :class:`~repro.scc.SCCChip` timing model,
so runtimes reflect where data lives — private cacheable DRAM, shared
uncacheable DRAM, or on-die MPB.
"""

import math

from repro.cfront import c_ast, ctypes
from repro.sim import builtins as sim_builtins
from repro.sim.machine import StackAllocator
from repro.sim.values import (
    NULL,
    FunctionRef,
    Pointer,
    coerce,
    default_value,
    pointer_for,
)

# P54C-flavoured operation latencies, in core cycles.
OP_COSTS = {
    "int_alu": 1,       # add/sub/logic/shift/compare
    "int_mul": 9,
    "int_div": 41,
    "float_alu": 3,     # FADD/FSUB
    "float_mul": 3,
    "float_div": 39,    # the famous P5 FDIV latency class
    "branch": 1,
    "call": 10,
    "cast": 1,
}

_INT_DIV_OPS = {"/", "%"}
_MUL_OPS = {"*"}


class InterpreterError(Exception):
    """Runtime error inside the simulated program."""


class StepLimitExceeded(InterpreterError):
    """The program exceeded its instruction budget (likely an infinite
    loop, or a workload too large for simulation)."""


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class ThreadExit(Exception):
    """pthread_exit from inside a simulated thread."""

    def __init__(self, value=None):
        self.value = value


# Stack size reserved per core inside its private window.
STACK_BYTES = 1024 * 1024

# Interpreter steps per traced "retire_batch" span (power of two: the
# batch check is a single mask on the hot path).
RETIRE_BATCH = 4096


class Interpreter:
    """Executes one simulated core's view of a program."""

    def __init__(self, unit, chip, core_id=0, memory=None, runtime=None,
                 max_steps=200_000_000, tracer=None, engine="compiled"):
        self.unit = unit
        self.chip = chip
        self.core_id = core_id
        self.tracer = tracer
        if memory is None:
            from repro.sim.machine import Memory
            memory = Memory()
        self.memory = memory
        self.runtime = runtime
        self.max_steps = max_steps

        self.cycles = 0
        self.steps = 0
        self._batch_start_cycles = 0
        self.output = []
        self.functions = {f.name: f for f in unit.functions()}
        self.globals_env = {}
        self.scopes = []
        self.current_function = None
        self._rand_state = 12345 + core_id  # deterministic per core

        # fast-path state shared by both engines (the compiled engine's
        # closures reach these attributes directly)
        self._mem_get = memory.get
        self._mem_set = memory.put
        self._global_addr = {}
        self._site_cache = {}   # site id -> (lo, hi, cost fn)
        self.site_fills = 0     # inline-cache misses (diagnostics)
        # fault injection (repro.faults): the chip-attached injector,
        # or None — in which case the read/tick hooks are dead branches
        faults = getattr(chip, "faults", None)
        self._faults = faults if faults is not None and faults.active \
            else None
        # ECC scrubbing (repro.recovery.ecc) only matters when a read
        # can actually be flipped, so it rides the fault gate
        self._ecc = getattr(chip, "ecc", None) \
            if self._faults is not None else None
        # race detection (repro.race): the chip-attached detector, or
        # None — in which case every hook is a dead branch and cycles,
        # output, and traces are byte-identical to an unaudited run
        self._race = getattr(chip, "race", None)
        # cycle attribution (repro.obs.attribution): same contract.
        # The load/store hot path carries NO per-op hook — memory-op
        # counts come from the chip's own per-core access counters,
        # which both engines already maintain identically
        self._attr = getattr(chip, "attribution", None)
        # lax clock sync (repro.sim.parallel): a quantum hook fires at
        # the next retire-batch boundary after ``cycles`` crosses
        # ``_quantum_deadline``; None costs one attribute check per
        # RETIRE_BATCH steps, keeping un-sharded runs byte-identical
        self._quantum_hook = None
        self._quantum_deadline = 0

        stack_segment = chip.address_space.alloc_private(
            core_id, STACK_BYTES, "stack-core%d" % core_id)
        self.stack = StackAllocator(stack_segment.base, STACK_BYTES)

        self.builtins = sim_builtins.default_builtins()
        if runtime is not None:
            self.builtins.update(runtime.builtins())

        self.load_globals()

        if engine == "compiled":
            from repro.sim import compile as sim_compile
            self._compiled = sim_compile.compile_unit(unit)
            self._invoke = sim_compile.invoke
            chip.register_site_cache_holder(self)
            # Builtins evaluate their arguments through eval_expr; in
            # compiled mode those arguments arrive as pre-compiled
            # BoundArg thunks, while tree-fallback function bodies
            # still pass raw AST nodes.  An instance-level override
            # routes each to the right evaluator.
            tree_eval = Interpreter.eval_expr
            bound_arg = sim_compile.BoundArg

            def eval_expr(node, _self=self, _thunk=bound_arg,
                          _tree=tree_eval):
                if node.__class__ is _thunk:
                    return node.fn(node.I, node.F)
                return _tree(_self, node)
            self.eval_expr = eval_expr
        elif engine == "tree":
            self._compiled = None
            self._invoke = None
        else:
            raise ValueError("unknown engine %r (use 'compiled' or"
                             " 'tree')" % engine)
        self.engine = engine

    # -- setup --------------------------------------------------------------

    def load_globals(self):
        """Allocate and statically initialize file-scope variables in
        this core's private window (shared data only becomes shared via
        the explicit RCCE allocations the translator inserted)."""
        for decl in self.unit.global_decls():
            if decl.is_typedef:
                continue
            size = max(decl.ctype.sizeof(), 4)
            segment = self.chip.address_space.alloc_private(
                self.core_id, size, decl.name)
            self.globals_env[decl.name] = (segment.base, decl.ctype)
            self._global_addr[decl.name] = segment.base
            if self.tracer is not None:
                self.tracer.register(decl.name, segment.base, size,
                                     "global")
            if self._race is not None:
                self._race.register(decl.name, segment.base, size,
                                    "global")
            self._static_init(segment.base, decl.ctype, decl.init)

    def _static_init(self, addr, ctype, init):
        """Static initialization: free of cycle charges, zero default."""
        if isinstance(ctype, ctypes.ArrayType):
            element = ctype.base
            stride = element.sizeof() or 4
            length = ctype.length or 0
            values = []
            if isinstance(init, c_ast.InitList):
                values = [self._const_expr(e) for e in init.exprs]
            for index in range(length):
                if index < len(values):
                    value = coerce(element, values[index])
                else:
                    value = (coerce(element, values[-1])
                             if values and len(values) == 1 and length > 1
                             and isinstance(init, c_ast.InitList)
                             and len(init.exprs) == 1
                             else default_value(element))
                self.memory.store(addr + index * stride, value)
            return
        if init is None:
            self.memory.store(addr, default_value(ctype))
        else:
            self.memory.store(addr, coerce(ctype, self._const_expr(init)))

    def _const_expr(self, expr):
        """Evaluate a constant initializer without charging cycles."""
        if isinstance(expr, c_ast.Constant):
            return expr.value
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "-":
            return -self._const_expr(expr.operand)
        if isinstance(expr, c_ast.StringLiteral):
            return expr.value
        if isinstance(expr, c_ast.Cast):
            return coerce(expr.ctype, self._const_expr(expr.expr))
        if isinstance(expr, c_ast.SizeofType):
            return expr.ctype.sizeof()
        if isinstance(expr, c_ast.BinaryOp):
            left = self._const_expr(expr.left)
            right = self._const_expr(expr.right)
            return self._apply_binop(expr.op, left, right, charge=False)
        raise InterpreterError(
            "unsupported constant initializer: %r" % expr)

    # -- cycle accounting helpers ------------------------------------------------

    def charge(self, cycles):
        self.cycles += cycles

    def charge_op(self, kind):
        self.cycles += OP_COSTS[kind]

    def load(self, addr, ctype=None):
        self.cycles += self.chip.access_cost(self.core_id, addr, "read",
                                             4, self.cycles)
        if self.tracer is not None:
            self.tracer.record(self, addr, "read")
        if self._race is not None:
            self._race.record(self, addr, "read")
        value = self.memory.load(addr)
        if self._faults is not None:
            raw = value
            value = self._faults.filter_load(self, addr, value)
            if self._ecc is not None and value is not raw:
                value = self._ecc.scrub(self, addr, value, raw)
        if ctype is not None and isinstance(value, int) and \
                isinstance(ctype, ctypes.PrimitiveType) and \
                ctype.is_floating:
            return float(value)
        return value

    def store(self, addr, value, ctype=None):
        self.cycles += self.chip.access_cost(self.core_id, addr,
                                             "write", 4, self.cycles)
        if self.tracer is not None:
            self.tracer.record(self, addr, "write")
        if self._race is not None:
            self._race.record(self, addr, "write")
        if ctype is not None:
            value = coerce(ctype, value)
        self.memory.store(addr, value)
        return value

    def _step(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(
                "exceeded %d interpreter steps on core %d"
                % (self.max_steps, self.core_id))
        if self._faults is not None and not self.steps & 255:
            # scheduled core stalls/crashes, checked every 256 steps
            # (fault runs always use this tree-walking engine)
            self._faults.core_tick(self)
        if not self.steps & (RETIRE_BATCH - 1):
            self._batch_tick()

    def _batch_tick(self):
        """Flush one retire batch: cycles accumulated locally since the
        last batch boundary become a traced "retire_batch" span.  Both
        engines hit this every RETIRE_BATCH steps (the compiled
        engine's closures inline the mask check and call here).  The
        parallel backend's quantum checkpoint also anchors here: the
        hook publishes this core's clock (never blocking) and returns
        the next quantum deadline."""
        hook = self._quantum_hook
        if hook is not None and self.cycles >= self._quantum_deadline:
            self._quantum_deadline = hook(self)
        events = self.chip.events
        if events.enabled:
            events.complete(
                self.core_id, self._batch_start_cycles,
                self.cycles - self._batch_start_cycles,
                "retire_batch", "cpu", {"steps": RETIRE_BATCH},
                pid=self.chip.trace_pid)
            self._batch_start_cycles = self.cycles

    def _fill_site(self, site, addr):
        """Inline-cache miss: rebuild one load/store site's entry from
        the chip.  Entries carry no version stamp — the chip clears the
        whole ``_site_cache`` dict when address translation changes
        (see ``SCCChip._bump_mem_epoch``), so presence means valid."""
        entry = self.chip.cached_fastpath(self.core_id, addr)
        self._site_cache[site] = entry
        self.site_fills += 1
        return entry

    # -- variable binding -----------------------------------------------------------

    def bind_local(self, name, ctype):
        size = max(ctype.sizeof(), 4)
        addr = self.stack.alloc(size)
        self.scopes[-1][name] = (addr, ctype)
        if self.tracer is not None:
            self.tracer.register(name, addr, size, "local",
                                 self.current_function)
        if self._race is not None:
            self._race.register(name, addr, size, "local",
                                self.current_function)
        return addr

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals_env:
            return self.globals_env[name]
        return None

    # -- function execution -----------------------------------------------------------

    def call_function(self, name, args=()):
        """Call a user-defined function by name with Python values."""
        if self._compiled is not None:
            cf = self._compiled.functions.get(name)
            if cf is None:
                raise InterpreterError("undefined function %r" % name)
            return self._invoke(self, cf, args)
        return self._call_function_tree(name, args)

    def _call_function_tree(self, name, args=()):
        """The tree-walking call path (also the fallback the compiled
        engine uses for functions it could not lower)."""
        func = self.functions.get(name)
        if func is None:
            raise InterpreterError("undefined function %r" % name)
        self.charge_op("call")
        saved_scopes = self.scopes
        saved_function = self.current_function
        self.scopes = [{}]
        self.current_function = name
        try:
            with self.stack.frame():
                for param, value in zip(func.params, args):
                    if param.name is None:
                        continue
                    addr = self.bind_local(param.name, param.ctype)
                    self.memory.store(addr, coerce(param.ctype, value))
                try:
                    self.exec_stmt(func.body)
                except _Return as ret:
                    return coerce(func.return_type, ret.value) \
                        if ret.value is not None else None
                return None
        finally:
            self.scopes = saved_scopes
            self.current_function = saved_function

    def run_main(self, argv=()):
        """Run main / RCCE_APP; returns its exit value."""
        for entry in ("RCCE_APP", "main"):
            if entry in self.functions:
                func = self.functions[entry]
                args = []
                if len(func.params) >= 2:
                    args = [len(argv) + 1, NULL]
                return self.call_function(entry, args)
        raise InterpreterError("program has no main or RCCE_APP")

    # -- statements ----------------------------------------------------------------------

    def exec_stmt(self, stmt):
        self._step()
        method = self._STMT_DISPATCH.get(type(stmt))
        if method is None:
            raise InterpreterError("cannot execute %s"
                                   % type(stmt).__name__)
        method(self, stmt)

    def _exec_compound(self, stmt):
        self.scopes.append({})
        try:
            for item in stmt.items:
                self.exec_stmt(item)
        finally:
            self.scopes.pop()

    def _exec_declstmt(self, stmt):
        for decl in stmt.decls:
            if decl.is_typedef:
                continue
            addr = self.bind_local(decl.name, decl.ctype)
            if isinstance(decl.ctype, ctypes.ArrayType):
                if isinstance(decl.init, c_ast.InitList):
                    element = decl.ctype.base
                    stride = element.sizeof() or 4
                    values = [self.eval_expr(e) for e in decl.init.exprs]
                    length = decl.ctype.length or len(values)
                    for index in range(length):
                        value = (values[index] if index < len(values)
                                 else default_value(element))
                        self.store(addr + index * stride, value, element)
            elif decl.init is not None:
                value = self.eval_expr(decl.init)
                self.store(addr, value, decl.ctype)

    def _exec_exprstmt(self, stmt):
        self.eval_expr(stmt.expr)

    def _exec_if(self, stmt):
        self.charge_op("branch")
        if self._truthy(self.eval_expr(stmt.cond)):
            self.exec_stmt(stmt.then)
        elif stmt.els is not None:
            self.exec_stmt(stmt.els)

    def _exec_while(self, stmt):
        while True:
            self._step()
            self.charge_op("branch")
            if not self._truthy(self.eval_expr(stmt.cond)):
                break
            try:
                self.exec_stmt(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_dowhile(self, stmt):
        while True:
            self._step()
            try:
                self.exec_stmt(stmt.body)
            except _Break:
                break
            except _Continue:
                pass
            self.charge_op("branch")
            if not self._truthy(self.eval_expr(stmt.cond)):
                break

    def _exec_for(self, stmt):
        self.scopes.append({})
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while True:
                self._step()
                if stmt.cond is not None:
                    self.charge_op("branch")
                    if not self._truthy(self.eval_expr(stmt.cond)):
                        break
                try:
                    self.exec_stmt(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self.eval_expr(stmt.step)
        finally:
            self.scopes.pop()

    def _exec_return(self, stmt):
        value = self.eval_expr(stmt.expr) if stmt.expr is not None else None
        raise _Return(value)

    def _exec_break(self, stmt):
        raise _Break()

    def _exec_continue(self, stmt):
        raise _Continue()

    def _exec_empty(self, stmt):
        pass

    def _exec_switch(self, stmt):
        self.charge_op("branch")
        value = self.eval_expr(stmt.cond)
        matched = False
        try:
            for item in stmt.body.items:
                if not matched:
                    if isinstance(item, c_ast.Case):
                        if self._const_expr(item.expr) == value:
                            matched = True
                    elif isinstance(item, c_ast.Default):
                        matched = True
                if matched:
                    for inner in item.stmts:
                        self.exec_stmt(inner)
        except _Break:
            pass

    def _exec_label(self, stmt):
        self.exec_stmt(stmt.stmt)

    def _exec_goto(self, stmt):
        raise InterpreterError("goto is not supported by the simulator")

    def _exec_structdecl(self, stmt):
        pass

    _STMT_DISPATCH = {}

    # -- expressions ------------------------------------------------------------------------

    def eval_expr(self, expr):
        self._step()
        method = self._EXPR_DISPATCH.get(type(expr))
        if method is None:
            raise InterpreterError("cannot evaluate %s"
                                   % type(expr).__name__)
        return method(self, expr)

    # Environment constants declared by the modelled headers.
    ENV_CONSTANTS = {
        "NULL": NULL,
        "RCCE_COMM_WORLD": 0,
        "RCCE_SUCCESS": 0,
        "PTHREAD_MUTEX_INITIALIZER": 0,
        "stdout": 1,
        "stderr": 2,
        "RAND_MAX": (1 << 31) - 1,
        # RCCE reduction ops and element types
        "RCCE_SUM": 0,
        "RCCE_MAX": 1,
        "RCCE_MIN": 2,
        "RCCE_PROD": 3,
        "RCCE_INT": 0,
        "RCCE_DOUBLE": 1,
        "RCCE_FLAG_SET": 1,
        "RCCE_FLAG_UNSET": 0,
    }

    def _eval_id(self, expr):
        binding = self.lookup(expr.name)
        if binding is None:
            if expr.name in self.functions or expr.name in self.builtins:
                return FunctionRef(expr.name)
            if expr.name in self.ENV_CONSTANTS:
                return self.ENV_CONSTANTS[expr.name]
            raise InterpreterError("undefined identifier %r" % expr.name)
        addr, ctype = binding
        if isinstance(ctype, ctypes.ArrayType):
            return pointer_for(ctype, addr)  # array decay, no load
        return self.load(addr, ctype)

    def _eval_constant(self, expr):
        return expr.value

    def _eval_string(self, expr):
        return expr.value

    def _eval_binop(self, expr):
        op = expr.op
        if op == "&&":
            self.charge_op("branch")
            if not self._truthy(self.eval_expr(expr.left)):
                return 0
            return 1 if self._truthy(self.eval_expr(expr.right)) else 0
        if op == "||":
            self.charge_op("branch")
            if self._truthy(self.eval_expr(expr.left)):
                return 1
            return 1 if self._truthy(self.eval_expr(expr.right)) else 0
        left = self.eval_expr(expr.left)
        right = self.eval_expr(expr.right)
        return self._apply_binop(op, left, right, charge=True)

    def _apply_binop(self, op, left, right, charge=True):
        # pointer arithmetic
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return self._pointer_binop(op, left, right, charge)
        is_float = isinstance(left, float) or isinstance(right, float)
        if charge:
            if op in _INT_DIV_OPS:
                self.charge_op("float_div" if is_float else "int_div")
            elif op in _MUL_OPS:
                self.charge_op("float_mul" if is_float else "int_mul")
            elif is_float:
                self.charge_op("float_alu")
            else:
                self.charge_op("int_alu")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpreterError("division by zero")
            if is_float:
                return left / right
            quotient = abs(left) // abs(right)
            return quotient if (left < 0) == (right < 0) else -quotient
        if op == "%":
            if right == 0:
                raise InterpreterError("modulo by zero")
            if is_float:
                return math.fmod(left, right)
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == "<<":
            return int(left) << int(right)
        if op == ">>":
            return int(left) >> int(right)
        raise InterpreterError("unsupported binary operator %r" % op)

    def _pointer_binop(self, op, left, right, charge):
        if charge:
            self.charge_op("int_alu")
        if op == "+":
            if isinstance(left, Pointer):
                return left.offset(int(right))
            return right.offset(int(left))
        if op == "-":
            if isinstance(left, Pointer) and isinstance(right, Pointer):
                return (left.addr - right.addr) // left.stride
            if isinstance(left, Pointer):
                return left.offset(-int(right))
            raise InterpreterError("cannot subtract pointer from int")
        left_key = left.addr if isinstance(left, Pointer) else left
        right_key = right.addr if isinstance(right, Pointer) else right
        comparisons = {
            "==": left_key == right_key, "!=": left_key != right_key,
            "<": left_key < right_key, ">": left_key > right_key,
            "<=": left_key <= right_key, ">=": left_key >= right_key,
        }
        if op in comparisons:
            return 1 if comparisons[op] else 0
        raise InterpreterError("unsupported pointer operator %r" % op)

    def _eval_unaryop(self, expr):
        op = expr.op
        if op == "&":
            if isinstance(expr.operand, c_ast.Id) and \
                    self.lookup(expr.operand.name) is None:
                if expr.operand.name in self.functions:
                    return FunctionRef(expr.operand.name)
                if expr.operand.name in self.ENV_CONSTANTS:
                    return NULL  # e.g. &RCCE_COMM_WORLD: an opaque handle
            addr, ctype = self.resolve_lvalue(expr.operand)
            stride = ctype.sizeof() or 4
            return Pointer(addr, stride, ctype)
        if op == "*":
            pointer = self.eval_expr(expr.operand)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("dereference of non-pointer")
            if pointer.addr == 0:
                raise InterpreterError("NULL pointer dereference")
            return self.load(pointer.addr, pointer.pointee)
        if op in ("++", "--", "p++", "p--"):
            addr, ctype = self.resolve_lvalue(expr.operand)
            old = self.load(addr, ctype)
            delta = 1 if "+" in op else -1
            self.charge_op("int_alu")
            if isinstance(old, Pointer):
                new = old.offset(delta)
            else:
                new = old + delta
            self.store(addr, new, ctype)
            return old if op.startswith("p") else new
        if op == "sizeof":
            return self._sizeof_expr(expr.operand)
        value = self.eval_expr(expr.operand)
        self.charge_op("int_alu")
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "!":
            return 0 if self._truthy(value) else 1
        if op == "~":
            return ~int(value)
        raise InterpreterError("unsupported unary operator %r" % op)

    def _sizeof_expr(self, operand):
        if isinstance(operand, c_ast.Id):
            binding = self.lookup(operand.name)
            if binding is not None:
                return binding[1].sizeof() or 4
        return 4

    def _eval_assignment(self, expr):
        addr, ctype = self.resolve_lvalue(expr.lvalue)
        if expr.op == "=":
            value = self.eval_expr(expr.rvalue)
        else:
            old = self.load(addr, ctype)
            rhs = self.eval_expr(expr.rvalue)
            value = self._apply_binop(expr.op[:-1], old, rhs, charge=True)
        return self.store(addr, value, ctype)

    def _eval_ternary(self, expr):
        self.charge_op("branch")
        if self._truthy(self.eval_expr(expr.cond)):
            return self.eval_expr(expr.then)
        return self.eval_expr(expr.els)

    def _eval_funccall(self, expr):
        name = expr.callee_name
        if name is None:
            target = self.eval_expr(expr.func)
            if isinstance(target, FunctionRef):
                name = target.name
            else:
                raise InterpreterError("call through non-function value")
        if name not in self.functions and name not in self.builtins:
            # maybe a variable holding a function pointer
            binding = self.lookup(name)
            if binding is not None:
                value = self.load(binding[0], binding[1])
                if isinstance(value, FunctionRef):
                    name = value.name
        if name in self.functions:
            args = [self.eval_expr(arg) for arg in expr.args]
            return self.call_function(name, args)
        builtin = self.builtins.get(name)
        if builtin is None:
            raise InterpreterError("call to unknown function %r" % name)
        return builtin(self, expr.args)

    def _eval_arrayref(self, expr):
        addr, ctype = self.resolve_lvalue(expr)
        if isinstance(ctype, ctypes.ArrayType):
            return pointer_for(ctype, addr)  # row of a 2-D array decays
        return self.load(addr, ctype)

    def _eval_memberref(self, expr):
        addr, ctype = self.resolve_lvalue(expr)
        if isinstance(ctype, ctypes.ArrayType):
            return pointer_for(ctype, addr)
        return self.load(addr, ctype)

    def _eval_cast(self, expr):
        value = self.eval_expr(expr.expr)
        self.charge_op("cast")
        return coerce(expr.ctype, value)

    def _eval_sizeoftype(self, expr):
        return expr.ctype.sizeof()

    def _eval_comma(self, expr):
        value = None
        for item in expr.exprs:
            value = self.eval_expr(item)
        return value

    _EXPR_DISPATCH = {}

    # -- lvalue resolution ----------------------------------------------------------------------

    def resolve_lvalue(self, expr):
        """Return (address, ctype) for an assignable expression."""
        if isinstance(expr, c_ast.Id):
            binding = self.lookup(expr.name)
            if binding is None:
                raise InterpreterError("undefined identifier %r"
                                       % expr.name)
            return binding
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "*":
            pointer = self.eval_expr(expr.operand)
            if not isinstance(pointer, Pointer):
                raise InterpreterError("dereference of non-pointer")
            pointee = pointer.pointee or ctypes.INT
            return pointer.addr, pointee
        if isinstance(expr, c_ast.ArrayRef):
            base = self.eval_expr(expr.base)
            index = self.eval_expr(expr.index)
            if not isinstance(base, Pointer):
                raise InterpreterError("subscript of non-pointer")
            self.charge_op("int_alu")  # address computation
            element = base.pointee or ctypes.INT
            addr = base.addr + int(index) * base.stride
            return addr, element
        if isinstance(expr, c_ast.MemberRef):
            if expr.arrow:
                base_ptr = self.eval_expr(expr.base)
                if not isinstance(base_ptr, Pointer):
                    raise InterpreterError("-> on non-pointer")
                struct = base_ptr.pointee
                base_addr = base_ptr.addr
            else:
                base_addr, struct = self.resolve_lvalue(expr.base)
            struct = ctypes.strip_arrays(struct)
            if not isinstance(struct, ctypes.StructType):
                raise InterpreterError("member access on non-struct")
            offset = struct.field_offset(expr.member)
            return base_addr + offset, struct.field_type(expr.member)
        if isinstance(expr, c_ast.Cast):
            return self.resolve_lvalue(expr.expr)
        raise InterpreterError("expression is not an lvalue: %s"
                               % type(expr).__name__)

    # -- misc ----------------------------------------------------------------------------------------

    @staticmethod
    def _truthy(value):
        if isinstance(value, Pointer):
            return value.addr != 0
        return bool(value)

    def rand(self):
        """Deterministic LCG (glibc constants)."""
        self._rand_state = (self._rand_state * 1103515245 + 12345) \
            % (1 << 31)
        return self._rand_state

    def write_output(self, text):
        self.output.append(text)


Interpreter._STMT_DISPATCH = {
    c_ast.Compound: Interpreter._exec_compound,
    c_ast.DeclStmt: Interpreter._exec_declstmt,
    c_ast.ExprStmt: Interpreter._exec_exprstmt,
    c_ast.If: Interpreter._exec_if,
    c_ast.While: Interpreter._exec_while,
    c_ast.DoWhile: Interpreter._exec_dowhile,
    c_ast.For: Interpreter._exec_for,
    c_ast.Return: Interpreter._exec_return,
    c_ast.Break: Interpreter._exec_break,
    c_ast.Continue: Interpreter._exec_continue,
    c_ast.EmptyStmt: Interpreter._exec_empty,
    c_ast.Switch: Interpreter._exec_switch,
    c_ast.Label: Interpreter._exec_label,
    c_ast.Goto: Interpreter._exec_goto,
    c_ast.StructDecl: Interpreter._exec_structdecl,
}

Interpreter._EXPR_DISPATCH = {
    c_ast.Id: Interpreter._eval_id,
    c_ast.Constant: Interpreter._eval_constant,
    c_ast.StringLiteral: Interpreter._eval_string,
    c_ast.BinaryOp: Interpreter._eval_binop,
    c_ast.UnaryOp: Interpreter._eval_unaryop,
    c_ast.Assignment: Interpreter._eval_assignment,
    c_ast.TernaryOp: Interpreter._eval_ternary,
    c_ast.FuncCall: Interpreter._eval_funccall,
    c_ast.ArrayRef: Interpreter._eval_arrayref,
    c_ast.MemberRef: Interpreter._eval_memberref,
    c_ast.Cast: Interpreter._eval_cast,
    c_ast.SizeofType: Interpreter._eval_sizeoftype,
    c_ast.Comma: Interpreter._eval_comma,
}
