"""Reference (uncached) analysis queries: the ground truth the memoized
performance-model helpers are property-tested against.

* :func:`reference_tile_footprint` is the per-tile affine footprint
  formula evaluated straight from ``access_coefficients``, with every
  axis term (zero coefficients included) — what
  ``repro.codegen.tile_footprint`` computed before it read per-(op,
  tensor) footprint plans.
* :func:`reference_gather_penalty` is the uncached loop over every
  tensor read (duplicates included) behind
  ``CpuModel._gather_penalty``.

Nothing in the library uses these; they live with the tests to keep the
memoized paths honest.
"""

from __future__ import annotations

from typing import Dict

from repro.codegen import tensor_reads
from repro.codegen.features import access_coefficients
from repro.ir import IterVar, stride_of


def reference_tile_footprint(op, tensor, tile: Dict[IterVar, int]) -> int:
    per_dim = access_coefficients(op, tensor)
    if per_dim is None:
        return 0
    axes = list(op.all_axes)
    footprint = 1
    for size, coeffs in zip(tensor.shape, per_dim):
        if coeffs is None:
            footprint *= size
            continue
        reach = 1
        for axis, coeff in zip(axes, coeffs[:-1]):
            extent = tile.get(axis, 1)
            reach += abs(coeff) * (extent - 1)
        footprint *= min(reach, size)
    return footprint


def reference_gather_penalty(op, axis) -> float:
    worst = 1.0
    for ref in tensor_reads(op):
        stride = stride_of(ref.indices, ref.tensor.shape, axis)
        if stride is None:
            worst = min(worst, 0.3)
        elif abs(stride) > 1:
            worst = min(worst, 0.45)
    return worst
