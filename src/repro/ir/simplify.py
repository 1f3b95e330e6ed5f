"""Algebraic simplification of index expressions.

Lowering builds index reconstructions mechanically (``((i0*4 + i1)*1 +
0)``...), so the generated kernels are full of no-op arithmetic.  This
pass performs the standard local rewrites — constant folding, additive and
multiplicative identities, multiplication re-association with constants —
and is verified by property tests to preserve the value of every
expression on random environments.

Only integer-valued index arithmetic is targeted; floating-point bodies
are left untouched except for trivial identities (no re-association of
float math, which could change rounding).
"""

from __future__ import annotations

from .expr import (
    Add,
    BinaryOp,
    Div,
    Expr,
    FloorDiv,
    IntImm,
    Max,
    Min,
    Mod,
    Mul,
    Select,
    Sub,
    TensorRef,
)
from .unary import Unary


def _const(expr) -> bool:
    return isinstance(expr, IntImm)


def simplify(expr: Expr) -> Expr:
    """Return an equivalent, syntactically smaller expression."""
    if isinstance(expr, TensorRef):
        return TensorRef(expr.tensor, tuple(simplify(i) for i in expr.indices))
    if isinstance(expr, Unary):
        return Unary(expr.fn, simplify(expr.a))
    if isinstance(expr, Select):
        return Select(expr.condition, simplify(expr.then_value), simplify(expr.else_value))
    if not isinstance(expr, BinaryOp):
        return expr

    a = simplify(expr.a)
    b = simplify(expr.b)

    if isinstance(expr, Add):
        return _simplify_add(a, b)
    if isinstance(expr, Sub):
        if _const(b) and b.value == 0:
            return a
        if _const(a) and _const(b):
            return IntImm(a.value - b.value)
        return Sub(a, b)
    if isinstance(expr, Mul):
        return _simplify_mul(a, b)
    if isinstance(expr, FloorDiv):
        if _const(b):
            if b.value == 1:
                return a
            if _const(a):
                return IntImm(a.value // b.value)
        return FloorDiv(a, b)
    if isinstance(expr, Mod):
        if _const(b):
            if b.value == 1:
                return IntImm(0)
            if _const(a):
                return IntImm(a.value % b.value)
        return Mod(a, b)
    if isinstance(expr, Min) and _const(a) and _const(b):
        return IntImm(min(a.value, b.value))
    if isinstance(expr, Max) and _const(a) and _const(b):
        return IntImm(max(a.value, b.value))
    if isinstance(expr, Div):
        return Div(a, b)  # float division: fold nothing
    return type(expr)(a, b)


def _simplify_add(a: Expr, b: Expr) -> Expr:
    if _const(a) and a.value == 0:
        return b
    if _const(b) and b.value == 0:
        return a
    if _const(a) and _const(b):
        return IntImm(a.value + b.value)
    # (x + c1) + c2 -> x + (c1 + c2)
    if isinstance(a, Add) and _const(a.b) and _const(b):
        return _simplify_add(a.a, IntImm(a.b.value + b.value))
    return Add(a, b)


def _simplify_mul(a: Expr, b: Expr) -> Expr:
    for first, second in ((a, b), (b, a)):
        if _const(first):
            if first.value == 0:
                return IntImm(0)
            if first.value == 1:
                return second
    if _const(a) and _const(b):
        return IntImm(a.value * b.value)
    # (x * c1) * c2 -> x * (c1 * c2)
    if isinstance(a, Mul) and _const(a.b) and _const(b):
        return _simplify_mul(a.a, IntImm(a.b.value * b.value))
    if isinstance(b, Mul) and _const(b.b) and _const(a):
        return _simplify_mul(b.a, IntImm(b.b.value * a.value))
    return Mul(a, b)


def node_count(expr: Expr) -> int:
    """Number of AST nodes — the metric simplification shrinks."""
    from .visitors import walk

    return sum(1 for _ in walk(expr))
