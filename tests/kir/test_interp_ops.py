"""Exact op counts of :class:`repro.kir.Interpreter`, construct by construct.

The OpenACC baseline prices its sequential host code from these counts
(``HOST_OPS_PER_NS``), so every rule below feeds a figure bar.  The
counting rules:

* ``Const`` and ``Var`` cost 0; every other expression node costs 1;
* ``&&`` / ``||`` skip the right operand's cost when they short-circuit;
  ``?:`` charges its condition plus the taken arm only;
* a call costs 1 plus its arguments plus the callee's body;
* ``Decl``, ``Assign`` and ``Store`` cost 1 plus their expressions (a
  local-array ``Decl`` evaluates its size only when the name is unbound);
  ``ExprStmt`` costs its expression; ``If`` costs its condition;
* ``For`` costs its bounds once plus 2 per iteration; ``While`` costs 1
  plus its condition per test, including the final failing test;
* an OpenACC reduction's host combine costs 2 per partial.
"""

import pytest

from repro import kir
from repro.errors import AccUnsupportedError, KirRuntimeError
from repro.harness.figures import figure_spec, scaled_devices
from repro.openacc import AccProgram, runtime

C, V = kir.Const, kir.Var
INT, FLOAT = kir.INT_T, kir.FLOAT_T


def B(op, left, right):
    return kir.BinOp(op, left, right)


def _module(*fns):
    module = kir.Module()
    for fn in fns:
        module.add(fn)
    return module


def _ops(body, args=(), params=None, helpers=()):
    """Run ``f(x, arr, ...)`` built from *body*; return (value, ops)."""
    params = params or [
        kir.Param("x", INT), kir.Param("arr", kir.ArrayType(INT)),
    ]
    fn = kir.Function("f", params, INT, body)
    interp = kir.Interpreter(_module(fn, *helpers))
    value = interp.call("f", list(args) or [3, [10, 20, 30, 40, 50]])
    return value, interp.ops


def _double():
    """``int g(int y) { return y * 2; }`` — body costs 1."""
    return kir.Function(
        "g", [kir.Param("y", INT)], INT,
        [kir.Return(B("*", V("y"), C(2)))],
    )


class TestExpressions:
    def test_const_and_var_are_free(self):
        assert _ops([kir.Return(V("x"))]) == (3, 0)
        assert _ops([kir.Return(C(7))]) == (7, 0)
        assert _ops([kir.Return()]) == (None, 0)

    def test_every_other_node_costs_one(self):
        expr = B(
            "*",
            kir.UnOp("-", B("+", V("x"), C(1))),
            kir.Index(V("arr"), V("x")),
        )
        assert _ops([kir.Return(expr)]) == (-160, 4)
        cast = kir.Cast(FLOAT, B("+", V("x"), V("x")))
        assert _ops([kir.Return(cast)]) == (6.0, 2)

    @pytest.mark.parametrize("x, want", [(1, (True, 2)), (0, (False, 1))])
    def test_and_skips_right_cost_when_short_circuiting(self, x, want):
        expr = B("&&", V("x"), B("<", V("x"), C(3)))
        assert _ops([kir.Return(expr)], [x, []]) == want

    @pytest.mark.parametrize("x, want", [(1, (True, 1)), (0, (True, 2))])
    def test_or_skips_right_cost_when_short_circuiting(self, x, want):
        expr = B("||", V("x"), B("<", V("x"), C(3)))
        assert _ops([kir.Return(expr)], [x, []]) == want

    @pytest.mark.parametrize("x, want", [(1, (2, 2)), (0, (0, 3))])
    def test_select_charges_condition_and_taken_arm(self, x, want):
        expr = kir.Select(
            V("x"),
            B("+", V("x"), C(1)),
            B("*", B("*", V("x"), C(2)), C(3)),
        )
        assert _ops([kir.Return(expr)], [x, []]) == want

    def test_user_call_costs_one_plus_args_plus_body(self):
        call = kir.Call("g", [B("+", V("x"), C(1))])
        assert _ops([kir.Return(call)], helpers=[_double()]) == (8, 3)

    def test_math_builtin_costs_one_plus_args(self):
        call = kir.Call("max", [B("+", V("x"), C(1)), V("x")])
        assert _ops([kir.Return(call)]) == (4, 2)

    def test_nested_user_calls(self):
        call = kir.Call("g", [kir.Call("g", [V("x")])])
        assert _ops([kir.Return(call)], helpers=[_double()]) == (12, 4)


class TestStatements:
    def test_decl_assign_store_cost_one_plus_expressions(self):
        body = [
            kir.Decl("y", INT, init=B("+", V("x"), C(1))),  # 2
            kir.Decl("z", INT),  # 1
            kir.Assign("z", B("*", V("y"), V("y"))),  # 2
            kir.Store(
                V("arr"), B("+", V("x"), C(1)), B("*", V("z"), C(2))
            ),  # 3
            kir.Return(kir.Index(V("arr"), C(4))),  # 1
        ]
        assert _ops(body) == (32, 9)

    def test_private_array_decl_evaluates_size(self):
        body = [
            kir.Decl(
                "t", kir.ArrayType(INT, kir.PRIVATE),
                size=B("+", V("x"), C(1)),
            ),
            kir.Return(kir.Index(V("t"), C(3))),
        ]
        assert _ops(body) == (0, 3)

    def test_expr_stmt_costs_its_expression_only(self):
        body = [
            kir.ExprStmt(kir.Call("g", [V("x")])),  # 1 + 0 + 1
            kir.ExprStmt(B("+", V("x"), C(1))),  # 1
        ]
        assert _ops(body, helpers=[_double()]) == (None, 3)

    @pytest.mark.parametrize("x, want", [(1, (2, 4)), (5, (5, 3))])
    def test_if_costs_its_condition_only(self, x, want):
        body = [
            kir.Decl("y", INT),  # 1
            kir.If(
                B("<", V("x"), C(3)),  # 1
                [kir.Assign("y", B("+", V("x"), C(1)))],  # 2
                [kir.Assign("y", V("x"))],  # 1
            ),
            kir.Return(V("y")),
        ]
        assert _ops(body, [x, []]) == want

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_for_costs_bounds_once_plus_two_per_iteration(self, n):
        plain = [kir.For("i", C(0), V("x"), C(1), []), kir.Return(C(0))]
        assert _ops(plain, [n, []]) == (0, 2 * n)
        priced_bounds = [
            kir.For(
                "i",
                B("-", V("x"), V("x")),
                B("+", V("x"), C(0)),
                B("-", C(2), C(1)),
                [],
            ),
            kir.Return(C(0)),
        ]
        assert _ops(priced_bounds, [n, []]) == (0, 3 + 2 * n)

    def test_for_counting_down(self):
        body = [
            kir.Decl("s", INT, init=C(0)),  # 1
            kir.For(
                "i", V("x"), C(0), C(-1),
                [kir.Assign("s", B("+", V("s"), V("i")))],  # 2 per iteration
            ),
            kir.Return(V("s")),
        ]
        assert _ops(body, [4, []]) == (10, 1 + 4 * (2 + 2))

    def test_for_break_stops_charging(self):
        body = [
            kir.For(
                "i", C(0), C(10), C(1),
                [kir.If(B("==", V("i"), C(3)), [kir.Break()])],
            ),
            kir.Return(C(0)),
        ]
        # iterations i = 0..3 each cost 2 + the condition
        assert _ops(body) == (0, 4 * 3)

    def test_for_continue_skips_rest_of_body(self):
        body = [
            kir.Decl("s", INT, init=C(0)),  # 1
            kir.For(
                "i", C(0), C(4), C(1),
                [
                    kir.If(B("<", V("i"), C(2)), [kir.Continue()]),
                    kir.Assign("s", B("+", V("s"), C(1))),
                ],
            ),
            kir.Return(V("s")),
        ]
        assert _ops(body) == (2, 1 + 4 * (2 + 1) + 2 * 2)

    def test_return_inside_loop_stops_charging(self):
        body = [
            kir.For(
                "i", C(0), C(10), C(1),
                [
                    kir.If(
                        B("==", V("i"), C(2)),
                        [kir.Return(B("*", V("i"), C(5)))],
                    ),
                    kir.ExprStmt(B("+", V("i"), C(1))),
                ],
            ),
            kir.Return(C(0)),
        ]
        assert _ops(body) == (10, 3 * (2 + 1) + 2 * 1 + 1)

    def test_while_charges_every_test_including_the_last(self):
        body = [
            kir.Decl("i", INT, init=C(0)),  # 1
            kir.While(
                B("<", V("i"), C(3)),  # 1 + 1 per test, 4 tests
                [kir.Assign("i", B("+", V("i"), C(1)))],  # 2, 3 times
            ),
            kir.Return(V("i")),
        ]
        assert _ops(body) == (3, 1 + 4 * 2 + 3 * 2)

    def test_while_break(self):
        body = [
            kir.Decl("i", INT, init=C(0)),  # 1
            kir.While(
                C(True),  # 1 per test
                [
                    kir.Assign("i", B("+", V("i"), C(1))),  # 2
                    kir.If(B(">=", V("i"), C(2)), [kir.Break()]),  # 1
                ],
            ),
            kir.Return(V("i")),
        ]
        assert _ops(body) == (2, 1 + 2 * 1 + 2 * 3)


class TestKernels:
    def _kernel(self):
        local = kir.ArrayType(INT, kir.LOCAL)
        return kir.Function(
            "k", [kir.Param("out", kir.ArrayType(INT))], kir.VOID,
            [
                kir.Decl("t", local, size=B("+", C(2), C(2))),  # 1 (+1)
                kir.Store(
                    V("out"),
                    kir.Call("get_global_id", [C(0)]),  # 1
                    kir.Call("get_local_size", [B("-", C(1), C(1))]),  # 2
                ),  # 1
            ],
            is_kernel=True,
        )

    def _run(self, local_mem):
        fn = self._kernel()
        interp = kir.Interpreter(_module(fn))
        out = [0, 0]
        wi = kir.WorkItem((1,), (1,), (0,), (2,), (2,))
        interp.run_workitem(fn, [out], wi, local_mem)
        return out, interp.ops

    def test_local_array_decl_skips_size_when_bound(self):
        assert self._run({"t": [0] * 4}) == ([0, 2], 1 + 4)

    def test_local_array_decl_evaluates_size_when_unbound(self):
        assert self._run(None) == ([0, 2], 2 + 4)


class TestLazyErrors:
    """Errors raise only when the faulty construct executes."""

    def _guarded(self, stmt):
        fn = kir.Function(
            "f", [kir.Param("x", INT)], INT,
            [kir.If(V("x"), [stmt]), kir.Return(C(1))],
        )
        return kir.Interpreter(_module(fn))

    def test_unknown_function(self):
        interp = self._guarded(kir.ExprStmt(kir.Call("nope", [])))
        assert interp.call("f", [0]) == 1
        with pytest.raises(
            KirRuntimeError, match="call to unknown function 'nope'"
        ):
            interp.call("f", [1])

    def test_workitem_builtin_outside_kernel(self):
        interp = self._guarded(
            kir.ExprStmt(kir.Call("get_global_id", [C(0)]))
        )
        assert interp.call("f", [0]) == 1
        with pytest.raises(
            KirRuntimeError, match="get_global_id called outside a kernel"
        ):
            interp.call("f", [1])

    def test_zero_step_for(self):
        interp = self._guarded(kir.For("i", C(0), C(3), C(0), []))
        assert interp.call("f", [0]) == 1
        with pytest.raises(KirRuntimeError, match="for loop with zero step"):
            interp.call("f", [1])

    def test_unbound_variable(self):
        interp = self._guarded(kir.Assign("y", V("nope")))
        assert interp.call("f", [0]) == 1
        with pytest.raises(KirRuntimeError, match="unbound variable 'nope'"):
            interp.call("f", [1])


class TestOpenAccHostOps:
    REDUCE = """
    float sumof(__global float *a, int n, int k) {
        float s = 0.0;
        #pragma acc parallel loop reduction(+:s) copyin(a) num_gangs(4)
        for (int i = k + 1; i < n; i++) { s = s + a[i]; }
        return s;
    }
    """

    def test_reduction_combine_costs_two_per_partial(self):
        result = AccProgram(self.REDUCE).run("sumof", [[1.0] * 16, 16, -1])
        assert result.value == 16.0
        # decl 1 + region start bound 1 + 4 partials * 2
        assert result.host_ops == 1 + 1 + 4 * 2

    #: ``AccResult.host_ops`` of every Figure 3a-3e OpenACC variant.
    FIGURE_HOST_OPS = {
        ("3a", "GPU"): 114824, ("3a", "CPU"): 114824,
        ("3b", "GPU"): 18435, ("3b", "CPU"): 18435,
        ("3c", "GPU"): 48483, ("3c", "CPU"): 48483,
        ("3d", "GPU"): 32778, ("3d", "CPU"): 32778,
        ("3e", "GPU"): None, ("3e", "CPU"): 64507,
    }

    @pytest.mark.parametrize("figure, device", sorted(FIGURE_HOST_OPS))
    def test_figure_variant_host_ops(self, figure, device, monkeypatch):
        results = []
        run = runtime.AccProgram.run

        def capture(self, *args, **kwargs):
            results.append(run(self, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(runtime.AccProgram, "run", capture)
        spec = figure_spec(figure)
        want = self.FIGURE_HOST_OPS[figure, device]
        with scaled_devices(
            spec.compute_scale, spec.size_ratio, spec.fixed_ratio
        ):
            if want is None:
                with pytest.raises(AccUnsupportedError):
                    spec.openacc(device_type=device, **spec.params)
                return
            spec.openacc(device_type=device, **spec.params)
        assert [r.host_ops for r in results] == [want]
