"""Traversal utilities over the expression AST."""

from __future__ import annotations

from typing import Iterator, List

from .expr import (
    And,
    BinaryOp,
    Compare,
    Condition,
    Expr,
    FloatImm,
    IntImm,
    IterVar,
    Or,
    Reduce,
    Select,
    TensorRef,
    Var,
)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every expression node in ``expr``, pre-order."""
    stack: List[Expr] = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))  # left-to-right pre-order


def _children(node) -> List[Expr]:
    from .unary import Unary

    if isinstance(node, BinaryOp):
        return [node.a, node.b]
    if isinstance(node, Unary):
        return [node.a]
    if isinstance(node, Reduce):
        return [node.body]
    if isinstance(node, TensorRef):
        return list(node.indices)
    if isinstance(node, Select):
        return _condition_exprs(node.condition) + [node.then_value, node.else_value]
    return []


def _condition_exprs(cond: Condition) -> List[Expr]:
    if isinstance(cond, Compare):
        return [cond.a, cond.b]
    if isinstance(cond, (And, Or)):
        return _condition_exprs(cond.a) + _condition_exprs(cond.b)
    raise TypeError(f"unknown condition node {cond!r}")


def collect_tensor_refs(expr: Expr) -> List[TensorRef]:
    """All tensor-element reads in ``expr``, in traversal order."""
    return [node for node in walk(expr) if isinstance(node, TensorRef)]


def collect_iter_vars(expr: Expr) -> List[IterVar]:
    """Distinct iteration variables used in ``expr``, first-use order."""
    seen: List[IterVar] = []
    for node in walk(expr):
        if isinstance(node, IterVar) and all(node is not v for v in seen):
            seen.append(node)
    return seen


def count_flops_per_point(expr: Expr) -> int:
    """Arithmetic operations needed to produce one output point *per
    reduction iteration* (multiply-add counts as 2, matching the paper's
    FLOPs accounting).

    Only value-level arithmetic counts: index expressions inside tensor
    reads and select conditions are address computation, not FLOPs.
    """

    from .unary import Unary

    def value_ops(node) -> int:
        if isinstance(node, TensorRef):
            return 0  # indices are address arithmetic
        if isinstance(node, Select):
            return value_ops(node.then_value) + value_ops(node.else_value)
        if isinstance(node, BinaryOp):
            return 1 + value_ops(node.a) + value_ops(node.b)
        if isinstance(node, Unary):
            return 1 + value_ops(node.a)  # one transcendental op
        return 0

    body = expr.body if isinstance(expr, Reduce) else expr
    ops = value_ops(body)
    if isinstance(expr, Reduce):
        ops += 1  # the combining add/max itself
    return max(ops, 1)


def same_structure(a: Expr, b: Expr) -> bool:
    """Structural equality of two expressions (identity for leaves that
    carry identity, like tensors and iter vars)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, IntImm):
        return a.value == b.value
    if isinstance(a, FloatImm):
        return a.value == b.value
    if isinstance(a, (Var, IterVar)):
        return a is b
    if isinstance(a, BinaryOp):
        return same_structure(a.a, b.a) and same_structure(a.b, b.b)
    if isinstance(a, TensorRef):
        return a.tensor is b.tensor and all(
            same_structure(x, y) for x, y in zip(a.indices, b.indices)
        )
    from .unary import Unary

    if isinstance(a, Unary):
        return a.fn == b.fn and same_structure(a.a, b.a)
    if isinstance(a, Reduce):
        return (
            a.combiner == b.combiner
            and a.axes == b.axes
            and same_structure(a.body, b.body)
        )
    if isinstance(a, Select):
        return (
            _same_condition(a.condition, b.condition)
            and same_structure(a.then_value, b.then_value)
            and same_structure(a.else_value, b.else_value)
        )
    raise TypeError(f"unknown expression node {a!r}")


def _same_condition(a: Condition, b: Condition) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Compare):
        return a.op == b.op and same_structure(a.a, b.a) and same_structure(a.b, b.b)
    return _same_condition(a.a, b.a) and _same_condition(a.b, b.b)
