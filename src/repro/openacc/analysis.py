"""Static analysis helpers over kernel IR for the pragma compiler."""

from __future__ import annotations

import copy
from typing import Iterable

from .. import kir


def declared_names(stmts: Iterable[kir.Stmt]) -> set[str]:
    """Names declared anywhere inside *stmts* (incl. loop variables)."""
    out: set[str] = set()
    for st in kir.walk_stmts(list(stmts)):
        if isinstance(st, kir.Decl):
            out.add(st.name)
        elif isinstance(st, kir.For):
            out.add(st.var)
    return out


def used_vars(stmts: Iterable[kir.Stmt]) -> dict[str, "kir.Type | None"]:
    """Every Var name referenced in *stmts*, with its annotated type."""
    out: dict[str, kir.Type | None] = {}
    for st in kir.walk_stmts(list(stmts)):
        for e in kir.walk_exprs(st):
            if isinstance(e, kir.Var):
                if e.name not in out or out[e.name] is None:
                    out[e.name] = e.type
    return out


def free_vars(stmts: list[kir.Stmt]) -> dict[str, "kir.Type | None"]:
    """Variables read by *stmts* but not declared within them."""
    declared = declared_names(stmts)
    return {
        name: typ
        for name, typ in used_vars(stmts).items()
        if name not in declared
    }


def assigned_scalars(stmts: list[kir.Stmt]) -> set[str]:
    """Names scalar-assigned anywhere inside *stmts*."""
    out: set[str] = set()
    for st in kir.walk_stmts(list(stmts)):
        if isinstance(st, kir.Assign):
            out.add(st.name)
    return out


def written_array_names(stmts: list[kir.Stmt]) -> set[str]:
    """Names of arrays stored into (``a[i] = ...``) anywhere in *stmts*."""
    out: set[str] = set()
    for st in kir.walk_stmts(list(stmts)):
        if isinstance(st, kir.Store) and isinstance(st.base, kir.Var):
            out.add(st.base.name)
    return out


def read_array_names(stmts: list[kir.Stmt]) -> set[str]:
    """Names of arrays loaded from (``... = a[i]``) anywhere in *stmts*."""
    out: set[str] = set()
    for st in kir.walk_stmts(list(stmts)):
        for e in kir.walk_exprs(st):
            if isinstance(e, kir.Index) and isinstance(e.base, kir.Var):
                out.add(e.base.name)
    return out


def has_break(stmts: list[kir.Stmt]) -> bool:
    """True when a ``break`` would leave the *outermost* loop level.

    Breaks inside nested loops are fine; a top-level break makes the
    iteration count data-dependent, so the loop cannot be a kernel.
    """

    def scan(block: list[kir.Stmt]) -> bool:
        for st in block:
            if isinstance(st, kir.Break):
                return True
            if isinstance(st, kir.If):
                if scan(st.then) or scan(st.orelse):
                    return True
            # For/While bodies swallow their own breaks.
        return False

    return scan(stmts)


def calls_user_functions(
    stmts: list[kir.Stmt], module: kir.Module
) -> list[str]:
    """User-defined functions invoked inside *stmts*."""
    found: list[str] = []
    for st in kir.walk_stmts(list(stmts)):
        for e in kir.walk_exprs(st):
            if isinstance(e, kir.Call) and e.name in module.functions:
                found.append(e.name)
    return found


def rename_vars(stmts: list[kir.Stmt], mapping: dict[str, str]) -> list[kir.Stmt]:
    """Deep-copy *stmts* with variable names substituted per *mapping*.

    Used by the reduction transform to redirect the reduction variable
    onto a private accumulator.
    """
    cloned = copy.deepcopy(stmts)
    for st in kir.walk_stmts(cloned):
        if isinstance(st, kir.Decl) and st.name in mapping:
            st.name = mapping[st.name]
        elif isinstance(st, kir.Assign) and st.name in mapping:
            st.name = mapping[st.name]
        elif isinstance(st, kir.For) and st.var in mapping:
            st.var = mapping[st.var]
        for e in kir.walk_exprs(st):
            if isinstance(e, kir.Var) and e.name in mapping:
                e.name = mapping[e.name]
    return cloned
