"""Human-readable printing of expressions and compute definitions."""

from __future__ import annotations

from .expr import (
    And,
    BinaryOp,
    Compare,
    Condition,
    Expr,
    FloatImm,
    IntImm,
    IterVar,
    Max,
    Min,
    Or,
    Reduce,
    Select,
    TensorRef,
    Var,
)
from .tensor import ComputeOp, PlaceholderOp, Tensor


def format_expr(expr: Expr) -> str:
    """Render an expression as compact, math-like text."""
    if isinstance(expr, IntImm):
        return str(expr.value)
    if isinstance(expr, FloatImm):
        return repr(expr.value)
    if isinstance(expr, (Var, IterVar)):
        return expr.name
    from .unary import Unary

    if isinstance(expr, Unary):
        return f"{expr.fn}({format_expr(expr.a)})"
    if isinstance(expr, Min):
        return f"min({format_expr(expr.a)}, {format_expr(expr.b)})"
    if isinstance(expr, Max):
        return f"max({format_expr(expr.a)}, {format_expr(expr.b)})"
    if isinstance(expr, BinaryOp):
        return f"({format_expr(expr.a)} {expr.symbol} {format_expr(expr.b)})"
    if isinstance(expr, TensorRef):
        indices = ", ".join(format_expr(i) for i in expr.indices)
        return f"{expr.tensor.name}[{indices}]"
    if isinstance(expr, Reduce):
        axes = ", ".join(f"{a.name}:{a.extent}" for a in expr.axes)
        return f"{expr.combiner}[{axes}]({format_expr(expr.body)})"
    if isinstance(expr, Select):
        return (
            f"select({format_condition(expr.condition)}, "
            f"{format_expr(expr.then_value)}, {format_expr(expr.else_value)})"
        )
    raise TypeError(f"unknown expression node {expr!r}")


def format_condition(cond: Condition) -> str:
    """Render a boolean condition as readable text."""
    if isinstance(cond, Compare):
        return f"{format_expr(cond.a)} {cond.op} {format_expr(cond.b)}"
    if isinstance(cond, And):
        return f"({format_condition(cond.a)} and {format_condition(cond.b)})"
    if isinstance(cond, Or):
        return f"({format_condition(cond.a)} or {format_condition(cond.b)})"
    raise TypeError(f"unknown condition node {cond!r}")


def format_operation(op) -> str:
    """Render a compute definition as pseudo-code nested loops."""
    if isinstance(op, PlaceholderOp):
        return f"placeholder {op.name}{list(op.output.shape)}"
    if not isinstance(op, ComputeOp):
        raise TypeError(f"unknown operation {op!r}")
    lines = []
    indent = ""
    for axis in op.axes:
        lines.append(f"{indent}for {axis.name} in range({axis.extent}):  # spatial")
        indent += "  "
    for axis in op.reduce_axes:
        lines.append(f"{indent}for {axis.name} in range({axis.extent}):  # reduce")
        indent += "  "
    out_idx = ", ".join(a.name for a in op.axes)
    body = op.body.body if isinstance(op.body, Reduce) else op.body
    combine = "+=" if isinstance(op.body, Reduce) else "="
    lines.append(f"{indent}{op.name}[{out_idx}] {combine} {format_expr(body)}")
    return "\n".join(lines)


def format_tensor(tensor: Tensor) -> str:
    """Render a tensor signature: name, dtype, shape."""
    return f"{tensor.name}: {tensor.dtype}{list(tensor.shape)}"
