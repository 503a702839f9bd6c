"""Reference interpreter for kernel IR, with exact op counts.

:class:`Interpreter` runs host code (the OpenACC baseline's sequential
C, and tests) and single work-items of barrier-free kernels.  It does
not walk the tree on every execution: the first call of a function
compiles its body into nested Python closures, one per statement and
expression node, and every later call reuses them.  Variables live in a
flat ``env`` dict per call.

Op counting
-----------
``Interpreter.ops`` counts primitive operations.  The OpenACC runtime
prices host code from it (``HOST_OPS_PER_NS``), so these rules shape
figure bars:

* ``Const`` and ``Var`` cost 0; every other expression node costs 1.
* ``&&`` / ``||`` skip the right operand's cost when they short-circuit;
  ``?:`` charges its condition plus the taken arm only.
* A call costs 1 plus its arguments plus the callee's body.
* ``Decl``, ``Assign`` and ``Store`` cost 1 plus their expressions; a
  ``local`` array ``Decl`` evaluates its size only when the name is
  unbound.  ``ExprStmt`` costs its expression, ``If`` its condition.
* ``For`` costs its bounds once plus 2 per iteration.  ``While`` costs 1
  plus its condition per test, including the final failing test.

Every cost that does not depend on the path taken is summed when the
body is compiled.  A run of statements that control flow cannot leave
early pays its summed cost in one charge before it starts; a loop folds
that charge into its per-iteration charge.  Only ``&&``, ``||``, ``?:``,
calls and loop headers charge as they execute.  The totals equal a
node-by-node count; only the order of the charges differs.  After an
error, the count is undefined.

Semantics
---------
* ``int`` division and modulo follow C (truncation toward zero).
* Out-of-bounds array access raises :class:`KirRuntimeError` (a real GPU
  would silently corrupt memory; we prefer loud failure).
* Errors stay lazy: an unknown function, a work-item builtin outside a
  kernel or a zero-step ``for`` raises only when it executes.
* A barrier raises :class:`KirRuntimeError` when it executes.  Barrier
  kernels run on :mod:`repro.kir.pycodegen`'s group generator, which
  resumes the items of a work-group in lock-step.
"""

from __future__ import annotations

import math
import operator
import weakref
from typing import Any, Callable, Optional, Sequence

from ..errors import KirRuntimeError
from . import ir

#: A compiled statement or expression: called with the variable dict.
#: A statement returns None, ``_BREAK``, ``_CONTINUE`` or a ``(value,)``
#: tuple for ``return``; an expression returns its value.
Code = Callable[[dict], Any]

_BREAK = object()
_CONTINUE = object()

#: ``env`` keys of the running work-item and the group's local memory.
#: The space keeps them apart from every C identifier.
_WI = " wi"
_LOCAL = " local"


def c_idiv(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    if b == 0:
        raise KirRuntimeError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def c_imod(a: int, b: int) -> int:
    """C-style integer remainder (sign follows the dividend)."""
    return a - c_idiv(a, b) * b


class WorkItem:
    """Identity of one work-item inside an NDRange dispatch."""

    __slots__ = ("gid", "lid", "group", "gsize", "lsize", "ngroups", "dim")

    def __init__(
        self,
        gid: Sequence[int],
        lid: Sequence[int],
        group: Sequence[int],
        gsize: Sequence[int],
        lsize: Sequence[int],
    ) -> None:
        self.gid = tuple(gid)
        self.lid = tuple(lid)
        self.group = tuple(group)
        self.gsize = tuple(gsize)
        self.lsize = tuple(lsize)
        self.ngroups = tuple(g // l for g, l in zip(gsize, lsize))
        self.dim = len(self.gsize)


_MATH_IMPL = {
    "sqrt": math.sqrt,
    "fabs": abs,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "atan2": math.atan2,
    "pow": math.pow,
    "floor": lambda x: float(math.floor(x)),
    "ceil": lambda x: float(math.ceil(x)),
    "fmin": min,
    "fmax": max,
    "min": min,
    "max": max,
    "abs": abs,
    "clamp": lambda x, lo, hi: min(max(x, lo), hi),
}

#: work-item builtin -> the :class:`WorkItem` field it indexes
_WI_FIELDS = {
    "get_global_id": "gid",
    "get_local_id": "lid",
    "get_group_id": "group",
    "get_global_size": "gsize",
    "get_local_size": "lsize",
    "get_num_groups": "ngroups",
}


def _both_int(lv: Any, rv: Any) -> bool:
    return isinstance(lv, int) and isinstance(rv, int) and not (
        isinstance(lv, bool) or isinstance(rv, bool)
    )


def _div(lv: Any, rv: Any) -> Any:
    if type(lv) is int and type(rv) is int and lv >= 0 and rv > 0:
        return lv // rv  # C and Python agree on non-negative operands
    if _both_int(lv, rv):
        return c_idiv(lv, rv)
    if rv == 0:
        raise KirRuntimeError("float division by zero")
    return lv / rv


def _mod(lv: Any, rv: Any) -> Any:
    if type(lv) is int and type(rv) is int and lv >= 0 and rv > 0:
        return lv % rv
    if _both_int(lv, rv):
        return c_imod(lv, rv)
    return math.fmod(lv, rv)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
}

_UNARY = {"-": operator.neg, "!": operator.not_, "~": operator.invert}


def _unbound(exc: KeyError) -> KirRuntimeError:
    return KirRuntimeError(f"unbound variable {exc.args[0]!r}")


def _out_of_range(what: str, idx: Any, arr: Any) -> KirRuntimeError:
    return KirRuntimeError(
        f"{what} index {idx} out of range (len {len(arr)})"
    )


def _fail(message: str) -> Code:
    """Code that raises *message* when it executes (errors stay lazy)."""

    def fail(env: dict) -> Any:
        raise KirRuntimeError(message)

    return fail


def _lookup(name: str) -> Code:
    def var(env: dict) -> Any:
        try:
            return env[name]
        except KeyError:
            raise KirRuntimeError(f"unbound variable {name!r}") from None

    return var


def _binary(
    f: Callable, left: ir.Expr, right: ir.Expr, l: Code, r: Code
) -> Code:
    """``f(left, right)``, reading ``Var`` and ``Const`` operands inline."""
    if isinstance(left, ir.Var):
        a = left.name
        if isinstance(right, ir.Var):
            b = right.name

            def var_var(env: dict) -> Any:
                try:
                    return f(env[a], env[b])
                except KeyError as exc:
                    raise _unbound(exc) from None

            return var_var
        if isinstance(right, ir.Const):
            c = right.value

            def var_const(env: dict) -> Any:
                try:
                    return f(env[a], c)
                except KeyError as exc:
                    raise _unbound(exc) from None

            return var_const

        def var_expr(env: dict) -> Any:
            try:
                lv = env[a]
            except KeyError as exc:
                raise _unbound(exc) from None
            return f(lv, r(env))

        return var_expr
    if isinstance(right, ir.Const):
        c = right.value
        return lambda env: f(l(env), c)
    if isinstance(right, ir.Var):
        b = right.name

        def expr_var(env: dict) -> Any:
            lv = l(env)
            try:
                return f(lv, env[b])
            except KeyError as exc:
                raise _unbound(exc) from None

        return expr_var
    return lambda env: f(l(env), r(env))


def _new_array(element: ir.ScalarType, size: Any) -> list:
    if not isinstance(size, int) or size < 0:
        raise KirRuntimeError(f"bad array size {size!r}")
    return [_zero(element)] * size


def _zero(typ: ir.Type) -> Any:
    if isinstance(typ, ir.ScalarType):
        if typ.kind == ir.INT:
            return 0
        if typ.kind == ir.FLOAT:
            return 0.0
        return False
    return None


class Interpreter:
    """Closure-compiling evaluator for a :class:`~repro.kir.ir.Module`.

    The ``ops`` attribute accumulates the number of primitive operations
    executed (see the module docstring for the rules); the cost model
    prices host code from these counts.  Function bodies compile lazily,
    once per interpreter.  Compiled code reaches the interpreter only
    through a weak reference, so dropping the interpreter frees it
    without waiting for the cycle collector.
    """

    def __init__(self, module: ir.Module) -> None:
        self.module = module
        self._count = [0]
        self._ref = weakref.ref(self)
        #: function name -> (function, head cost, compiled body)
        self._bodies: dict[str, tuple[ir.Function, int, Code]] = {}
        self._compiling = ""

    @property
    def ops(self) -> int:
        """Primitive operations executed so far."""
        return self._count[0]

    @ops.setter
    def ops(self, value: int) -> None:
        self._count[0] = value

    # -- host entry points ---------------------------------------------

    def call(self, name: str, args: Sequence[Any]) -> Any:
        """Call a non-kernel function as host code and return its value."""
        fn = self.module.functions.get(name)
        if fn is None:
            raise KirRuntimeError(f"no function {name!r}")
        if fn.is_kernel:
            raise KirRuntimeError(f"{name!r} is a kernel; use run_workitem")
        return self._call_function(fn, list(args))

    def run_workitem(
        self, kernel: ir.Function, args: Sequence[Any], wi: WorkItem,
        local_mem: Optional[dict[str, list]] = None,
    ) -> None:
        """Run one work-item of *kernel* to completion.

        ``local_mem`` maps the names of ``local`` arrays (shared across
        the group) to their backing lists; a ``local`` array the kernel
        declares and ``local_mem`` lacks is allocated and added to it.
        A kernel that reaches a barrier raises :class:`KirRuntimeError`.
        """
        env: dict[str, Any] = dict(zip(kernel.param_names(), args))
        if local_mem is not None:
            env.update(local_mem)
            env[_LOCAL] = local_mem
        env[_WI] = wi
        self._run_body(kernel, env)

    # -- function calls --------------------------------------------------

    def _call_named(self, name: str, args: list[Any]) -> Any:
        fn = self.module.functions.get(name)
        if fn is None:
            raise KirRuntimeError(f"call to unknown function {name!r}")
        return self._call_function(fn, args)

    def _call_function(self, fn: ir.Function, args: list[Any]) -> Any:
        if len(args) != len(fn.params):
            raise KirRuntimeError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(args)}"
            )
        return self._run_body(fn, dict(zip(fn.param_names(), args)))

    def _run_body(self, fn: ir.Function, env: dict) -> Any:
        entry = self._bodies.get(fn.name)
        if entry is None or entry[0] is not fn:
            entry = self._bodies[fn.name] = self._compile_function(fn)
        self._count[0] += entry[1]
        signal = entry[2](env)
        if signal is None:
            return None
        if signal is _BREAK or signal is _CONTINUE:
            raise KirRuntimeError(
                f"{fn.name}: break or continue outside a loop"
            )
        return signal[0]

    def _compile_function(
        self, fn: ir.Function
    ) -> tuple[ir.Function, int, Code]:
        self._compiling = fn.name
        head, body, _ = self._block(fn.body)
        return fn, head, body or _nop

    # -- statements --------------------------------------------------------

    def _block(self, stmts: list[ir.Stmt]) -> tuple[int, Optional[Code], bool]:
        """Compile *stmts* into ``(head, code, signals)``.

        The caller charges ``head`` before running ``code`` (None for an
        empty block); ``signals`` says whether ``code`` can return a
        control signal.  Costs of statements after one that can signal
        are charged only once that statement completes normally.
        """
        head = 0
        codes: list[Code] = []
        last: Optional[int] = None  # index of the last statement that signals
        pending = 0  # static cost of the statements after it
        for st in stmts:
            cost, code, signal = self._compile_stmt(st)
            if last is None:
                head += cost
            else:
                pending += cost
            codes.append(code)
            if signal:
                self._charge_after(codes, last, pending)
                last, pending = len(codes) - 1, 0
        self._charge_after(codes, last, pending)
        signals = last is not None
        if not codes:
            return head, None, False
        if len(codes) == 1:
            return head, codes[0], signals
        steps = tuple(codes)
        if signals:

            def block(env: dict) -> Any:
                for step in steps:
                    signal = step(env)
                    if signal is not None:
                        return signal
                return None

        elif len(steps) == 2:
            first, second = steps

            def block(env: dict) -> Any:
                first(env)
                second(env)

        else:

            def block(env: dict) -> Any:
                for step in steps:
                    step(env)

        return head, block, signals

    def _charge_after(
        self, codes: list[Code], last: Optional[int], cost: int
    ) -> None:
        """Charge *cost* once ``codes[last]`` completes without a signal."""
        if last is None or not cost:
            return
        count = self._count
        code = codes[last]

        def then_charge(env: dict) -> Any:
            signal = code(env)
            if signal is None:
                count[0] += cost
            return signal

        codes[last] = then_charge

    def _charged(self, cost: int, code: Optional[Code]) -> Code:
        """*code* preceded by a charge of *cost* ops."""
        count = self._count
        if code is None:
            code = _nop
        if not cost:
            return code

        def charged(env: dict) -> Any:
            count[0] += cost
            return code(env)

        return charged

    def _compile_stmt(self, st: ir.Stmt) -> tuple[int, Code, bool]:
        """Compile one statement into ``(static cost, code, signals)``.

        Subclasses override this to replace annotated statements.
        """
        if isinstance(st, ir.Decl):
            return self._decl(st)
        if isinstance(st, ir.Assign):
            cost, value = self._expr(st.value)
            return 1 + cost, _bind(st.name, value), False
        if isinstance(st, ir.Store):
            return self._store(st)
        if isinstance(st, ir.If):
            return self._if(st)
        if isinstance(st, ir.For):
            return self._for(st)
        if isinstance(st, ir.While):
            return self._while(st)
        if isinstance(st, ir.Break):
            return 0, lambda env: _BREAK, True
        if isinstance(st, ir.Continue):
            return 0, lambda env: _CONTINUE, True
        if isinstance(st, ir.Return):
            if st.value is None:
                return 0, lambda env: (None,), True
            cost, value = self._expr(st.value)
            return cost, lambda env: (value(env),), True
        if isinstance(st, ir.ExprStmt):
            cost, expr = self._expr(st.expr)

            def expr_stmt(env: dict) -> None:
                expr(env)

            return cost, expr_stmt, False
        if isinstance(st, ir.Barrier):
            return 0, _fail(
                f"{self._compiling}: barrier reached; the interpreter runs "
                "no work-group in lock-step (barrier kernels run on "
                "pycodegen's group generator)"
            ), False
        return 0, _fail(f"unknown statement {type(st).__name__}"), False

    def _decl(self, st: ir.Decl) -> tuple[int, Code, bool]:
        name = st.name
        if isinstance(st.type, ir.ArrayType):
            element = st.type.element
            size_cost, size = self._expr(st.size)
            if st.type.space != ir.LOCAL:

                def private_array(env: dict) -> None:
                    env[name] = _new_array(element, size(env))

                return 1 + size_cost, private_array, False
            count = self._count

            def local_array(env: dict) -> None:
                # Normally allocated by the group driver: then just bound.
                if name not in env:
                    count[0] += size_cost
                    arr = _new_array(element, size(env))
                    env[name] = arr
                    local_mem = env.get(_LOCAL)
                    if local_mem is not None:
                        local_mem[name] = arr

            return 1, local_array, False
        if st.init is None:
            zero = _zero(st.type)

            def decl_zero(env: dict) -> None:
                env[name] = zero

            return 1, decl_zero, False
        cost, init = self._expr(st.init)
        return 1 + cost, _bind(name, init), False

    def _store(self, st: ir.Store) -> tuple[int, Code, bool]:
        base_cost, base = self._expr(st.base)
        index_cost, index = self._expr(st.index)
        value_cost, value = self._expr(st.value)

        def store(env: dict) -> None:
            arr = base(env)
            idx = index(env)
            val = value(env)
            if idx >= 0:
                try:
                    arr[idx] = val
                    return
                except IndexError:
                    pass
            raise _out_of_range("store", idx, arr)

        return 1 + base_cost + index_cost + value_cost, store, False

    def _if(self, st: ir.If) -> tuple[int, Code, bool]:
        cond_cost, cond = self._expr(st.cond)
        then_head, then_code, then_signals = self._block(st.then)
        else_head, else_code, else_signals = self._block(st.orelse)
        then = self._charged(then_head, then_code)
        if else_code is None and not else_head:

            def if_(env: dict) -> Any:
                if cond(env):
                    return then(env)
                return None

        else:
            orelse = self._charged(else_head, else_code)

            def if_(env: dict) -> Any:
                if cond(env):
                    return then(env)
                return orelse(env)

        return cond_cost, if_, then_signals or else_signals

    def _for(self, st: ir.For) -> tuple[int, Code, bool]:
        start_cost, start = self._expr(st.start)
        stop_cost, stop = self._expr(st.stop)
        step_cost, step = self._expr(st.step)
        head, body, signals = self._block(st.body)
        per_iter = 2 + head
        var = st.var
        count = self._count
        # A body that never rebinds the loop variable lets ``range`` step
        # it; otherwise each step re-reads it, as C does.
        rebinds = any(
            isinstance(s, (ir.Assign, ir.Decl)) and s.name == var
            for s in ir.walk_stmts(st.body)
        )

        def for_(env: dict) -> Any:
            i = start(env)
            end = stop(env)
            inc = step(env)
            if inc == 0:
                raise KirRuntimeError("for loop with zero step")
            outer = var in env
            saved = env.get(var)
            if (
                not rebinds
                and type(i) is int
                and type(end) is int
                and type(inc) is int
            ):
                steps = range(i, end, inc)
                if not signals:
                    count[0] += per_iter * len(steps)
                    if body is not None:
                        for v in steps:
                            env[var] = v
                            body(env)
                else:
                    for v in steps:
                        count[0] += per_iter
                        env[var] = v
                        signal = body(env)
                        if signal is not None:
                            if signal is _BREAK:
                                break
                            if signal is not _CONTINUE:
                                return signal
            else:
                up = inc > 0
                while (i < end) if up else (i > end):
                    count[0] += per_iter
                    env[var] = i
                    if body is not None:
                        signal = body(env)
                        if signal is not None:
                            if signal is _BREAK:
                                break
                            if signal is not _CONTINUE:
                                return signal
                    i = env[var] + inc
            if outer:
                env[var] = saved
            else:
                env.pop(var, None)
            return None

        return start_cost + stop_cost + step_cost, for_, signals

    def _while(self, st: ir.While) -> tuple[int, Code, bool]:
        cond_cost, cond = self._expr(st.cond)
        head, body_code, signals = self._block(st.body)
        body = self._charged(head, body_code)
        test_cost = 1 + cond_cost
        count = self._count

        def while_(env: dict) -> Any:
            while True:
                count[0] += test_cost
                if not cond(env):
                    return None
                signal = body(env)
                if signal is not None:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal

        return 0, while_, signals

    # -- expressions -------------------------------------------------------

    def _expr(self, e: ir.Expr) -> tuple[int, Code]:
        """Compile *e* into ``(static cost, code)``.

        ``code(env)`` returns the value and charges only the costs that
        depend on the path taken: short-circuited operands, ``?:`` arms
        and callee bodies.  The caller charges the static cost.
        """
        if isinstance(e, ir.Const):
            value = e.value
            return 0, lambda env: value
        if isinstance(e, ir.Var):
            return 0, _lookup(e.name)
        if isinstance(e, ir.BinOp):
            return self._binop(e)
        if isinstance(e, ir.UnOp):
            cost, operand = self._expr(e.operand)
            f = _UNARY.get(e.op)
            if f is None:
                return 1 + cost, _fail(f"bad unary op {e.op!r}")
            return 1 + cost, lambda env: f(operand(env))
        if isinstance(e, ir.Index):
            return self._load(e)
        if isinstance(e, ir.Cast):
            cost, operand = self._expr(e.operand)
            convert = {ir.INT: int, ir.FLOAT: float}.get(e.target.kind, bool)
            return 1 + cost, lambda env: convert(operand(env))
        if isinstance(e, ir.Select):
            return self._select(e)
        if isinstance(e, ir.Call):
            return self._call(e)
        return 1, _fail(f"unknown expression {type(e).__name__}")

    def _binop(self, e: ir.BinOp) -> tuple[int, Code]:
        left_cost, left = self._expr(e.left)
        right_cost, right = self._expr(e.right)
        op = e.op
        if op in ("&&", "||"):
            count = self._count
            if op == "&&":

                def and_(env: dict) -> bool:
                    if not left(env):
                        return False
                    count[0] += right_cost
                    return bool(right(env))

                return 1 + left_cost, and_

            def or_(env: dict) -> bool:
                if left(env):
                    return True
                count[0] += right_cost
                return bool(right(env))

            return 1 + left_cost, or_
        f = _BINARY.get(op)
        if f is None:
            return 1 + left_cost + right_cost, _fail(f"bad binary op {op!r}")
        return (
            1 + left_cost + right_cost,
            _binary(f, e.left, e.right, left, right),
        )

    def _load(self, e: ir.Index) -> tuple[int, Code]:
        base_cost, base = self._expr(e.base)
        index_cost, index = self._expr(e.index)
        cost = 1 + base_cost + index_cost
        if isinstance(e.base, ir.Var) and isinstance(e.index, ir.Var):
            a, i = e.base.name, e.index.name

            def load_var(env: dict) -> Any:
                try:
                    arr = env[a]
                    idx = env[i]
                except KeyError as exc:
                    raise _unbound(exc) from None
                if idx >= 0:
                    try:
                        return arr[idx]
                    except IndexError:
                        pass
                raise _out_of_range("load", idx, arr)

            return cost, load_var
        if isinstance(e.base, ir.Var):
            a = e.base.name

            def load_expr(env: dict) -> Any:
                try:
                    arr = env[a]
                except KeyError as exc:
                    raise _unbound(exc) from None
                idx = index(env)
                if idx >= 0:
                    try:
                        return arr[idx]
                    except IndexError:
                        pass
                raise _out_of_range("load", idx, arr)

            return cost, load_expr

        def load(env: dict) -> Any:
            arr = base(env)
            idx = index(env)
            if idx >= 0:
                try:
                    return arr[idx]
                except IndexError:
                    pass
            raise _out_of_range("load", idx, arr)

        return cost, load

    def _select(self, e: ir.Select) -> tuple[int, Code]:
        cond_cost, cond = self._expr(e.cond)
        if_true = self._charged(*self._expr(e.if_true))
        if_false = self._charged(*self._expr(e.if_false))

        def select(env: dict) -> Any:
            if cond(env):
                return if_true(env)
            return if_false(env)

        return 1 + cond_cost, select

    def _call(self, e: ir.Call) -> tuple[int, Code]:
        name = e.name
        if name in ir.WORKITEM_BUILTINS:
            return self._workitem_call(e)
        compiled = [self._expr(a) for a in e.args]
        cost = 1 + sum(c for c, _ in compiled)
        args = tuple(code for _, code in compiled)
        impl = _MATH_IMPL.get(name)
        if impl is not None:

            def math_call(env: dict) -> Any:
                values = [a(env) for a in args]
                try:
                    return impl(*values)
                except ValueError as exc:
                    raise KirRuntimeError(f"{name}: {exc}") from None

            return cost, math_call
        interp = self._ref

        def user_call(env: dict) -> Any:
            return interp()._call_named(name, [a(env) for a in args])

        return cost, user_call

    def _workitem_call(self, e: ir.Call) -> tuple[int, Code]:
        name = e.name
        outside = f"{name} called outside a kernel"
        if name == "get_work_dim":

            def work_dim(env: dict) -> int:
                wi = env.get(_WI)
                if wi is None:
                    raise KirRuntimeError(outside)
                return wi.dim

            return 1, work_dim
        cost, dim = self._expr(e.args[0])
        field = _WI_FIELDS[name]
        default = 0 if name == "get_global_id" else 1

        def workitem(env: dict) -> int:
            wi = env.get(_WI)
            if wi is None:
                raise KirRuntimeError(outside)
            d = dim(env)
            if not 0 <= d < wi.dim:
                return default
            return getattr(wi, field)[d]

        return 1 + cost, workitem


def _nop(env: dict) -> None:
    return None


def _bind(name: str, value: Code) -> Code:
    def bind(env: dict) -> None:
        env[name] = value(env)

    return bind

