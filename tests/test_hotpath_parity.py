"""Golden parity suite for the vectorized hot path (ISSUE #7).

Every fast path introduced by the per-point hot-path work must be
*bit-identical* to the scalar code it replaces:

* the array-compiled GBT (``repro.learn.gbt``) against the retained
  scalar implementation in ``tests/gbt_reference.py``;
* ``batch_point_features`` against per-point ``point_features``;
* memoized structural lowering against fresh lowering (index maps,
  loops, primitives, and the numerics of interpretation and codegen),
  including neighbor walks that reuse all but one per-axis split recipe;
* the memoized footprint plans and CPU gather penalty against the
  uncached formulas in ``tests/analysis_reference.py``;
* the four tuners' trajectories with the fast paths on versus off, on
  every target.

Equality discipline: predictions and features are compared with
``np.array_equal`` (exact), fitted states with recursive ``==`` — which
is exact for every float except that it identifies ``-0.0`` with
``0.0``.  That one identification is deliberate: with mixed-sign zero
*ties* in a feature column, ``np.quantile``'s internal partition may
place ``-0.0``/``0.0`` in either order, so a threshold can differ in
zero sign only.  A zero-sign flip never changes a comparison
(``x <= -0.0`` iff ``x <= 0.0``), so splits, masks and predictions stay
bit-identical either way.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import batch_point_features, point_features, tile_footprint
from repro.codegen.features import footprint_plan
from repro.codegen.interp import execute_reference, execute_scheduled, random_inputs
from repro.codegen.pycodegen import run_generated
from repro.explore import (
    FlexTensorTuner,
    PMethodTuner,
    RandomSampleTuner,
    RandomWalkTuner,
    SurrogateScreen,
)
from repro.learn import GradientBoostedTrees
from repro.model import V100, VU9P, XEON_E5_2699V4, CpuModel
from repro.ops import (
    block_circulant_matmul_compute,
    conv2d_compute,
    conv2d_transposed_compute,
    gemm_compute,
)
from repro.runtime import Evaluator
from repro.schedule import LoweringMemo, lower, validate_schedule
from repro.space import build_space

from .analysis_reference import reference_gather_penalty, reference_tile_footprint
from .gbt_reference import ReferenceGradientBoostedTrees

GBT_KWARGS = dict(num_rounds=8, max_depth=3, learning_rate=0.3)


def states_equal(a, b):
    """Recursive equality; float compares use ``==`` (see module doc)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(states_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(states_equal(p, q) for p, q in zip(a, b))
    return a == b


def training_matrix(seed, ties, discrete):
    """A small regression problem; optionally with tied / discrete
    columns (the regimes where shortlist-vs-exact split scoring and
    quantile interpolation have to agree on exact ties)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 120))
    f = int(rng.integers(1, 40))
    x = rng.normal(size=(n, f))
    if ties:
        x = np.round(x * 2) / 2  # coarse grid: many ties, mixed-sign zeros
    if discrete and f > 2:
        x[:, 0] = rng.integers(0, 3, size=n)
        x[:, 1] = 1.0  # constant column: never splittable
    y = rng.normal(size=n)
    if ties:
        y = np.round(y)
    return x, y, rng.normal(size=(16, f))


def surrogate_like_matrix(seed, n, duplicated, affine, constant):
    """A problem shaped like the surrogate's refits: n in [12, 64] rows of
    70 features, log1p GFLOPS targets.  Its feature matrices carry
    duplicated columns, positively-affine copies (the same row partitions
    at different thresholds) and constant columns — the regime where the
    split shortlist holds many candidates over few distinct partitions."""
    rng = np.random.default_rng(seed)
    width = 70
    extra = 12 * duplicated + 12 * affine + 10 * constant
    base = rng.integers(0, 5, size=(n, width - extra)).astype(np.float64)
    base[:, ::3] = rng.normal(size=base[:, ::3].shape)
    blocks = [base]
    if duplicated:
        blocks.append(base[:, rng.integers(0, base.shape[1], size=12)])
    if affine:
        picked = base[:, rng.integers(0, base.shape[1], size=12)]
        blocks.append(picked * rng.uniform(0.25, 4.0, size=12) + rng.normal(size=12))
    if constant:
        blocks.append(np.broadcast_to(rng.normal(size=10), (n, 10)))
    x = np.concatenate(blocks, axis=1)[:, rng.permutation(width)]
    gflops = rng.gamma(2.0, 3.0, size=n)
    gflops[rng.random(n) < 0.1] = 0.0  # failed measurements score zero
    return x, np.log1p(gflops), rng.normal(size=(16, width))


class TestGBTParity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.booleans(), st.booleans())
    def test_fit_and_predict_match_reference(self, seed, ties, discrete):
        x, y, queries = training_matrix(seed, ties, discrete)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(queries), slow.predict(queries))
        assert np.array_equal(fast.predict(x), slow.predict(x))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.booleans())
    def test_state_roundtrip_is_byte_exact(self, seed, ties):
        x, y, queries = training_matrix(seed, ties, False)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        clone = GradientBoostedTrees(**GBT_KWARGS)
        clone.set_state(json.loads(json.dumps(fast.get_state())))
        assert json.dumps(clone.get_state(), sort_keys=True) == json.dumps(
            fast.get_state(), sort_keys=True
        )
        # The restored ensemble walks the same compiled forest.
        assert np.array_equal(clone.predict(queries), fast.predict(queries))

    def test_mixed_sign_zero_ties_still_predict_identically(self):
        # Regression: columns holding both -0.0 and 0.0 are the one case
        # where fitted thresholds may differ from the reference in zero
        # sign; predictions must not.
        rng = np.random.default_rng(7)
        x = np.round(rng.normal(size=(60, 6)) * 2) / 2
        x[x == 0] = np.where(rng.random(np.count_nonzero(x == 0)) < 0.5, -0.0, 0.0)
        y = rng.normal(size=60)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(x), slow.predict(x))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(12, 64),
           st.booleans(), st.booleans(), st.booleans())
    def test_surrogate_shaped_matrices_match_reference(
        self, seed, n, duplicated, affine, constant
    ):
        x, y, queries = surrogate_like_matrix(seed, n, duplicated, affine, constant)
        fast = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(queries), slow.predict(queries))
        assert np.array_equal(fast.predict(x), slow.predict(x))

    def test_real_conv2d_features_match_reference(self):
        # The surrogate's own inputs: batch_point_features rows of a
        # conv2d space, log1p GFLOPS targets, the default 30-round model.
        ev = Evaluator(WORKLOADS["conv2d"](), V100)
        rng = np.random.default_rng(23)
        points = []
        while len(points) < 48:
            p = ev.space.random_point(rng)
            if p not in points:
                points.append(p)
        x = batch_point_features(ev.space, points)
        y = np.log1p([ev.evaluate(p) for p in points[:40]])
        fast = GradientBoostedTrees().fit(x[:40], y)
        slow = ReferenceGradientBoostedTrees().fit(x[:40], y)
        assert len(fast.get_state()["trees"]) > 1
        assert states_equal(fast.get_state(), slow.get_state())
        assert np.array_equal(fast.predict(x), slow.predict(x))

    def test_split_stats_memo_is_scoped_to_one_fit(self):
        # The per-row-set memo is only valid for one x.  Refitting the same
        # model on a different x of the same shape (every row set repeats)
        # must equal a fresh model's fit and the oracle's, and no fitted
        # tree keeps the memo.
        rng = np.random.default_rng(29)
        model = GradientBoostedTrees(**GBT_KWARGS)
        for _ in range(2):
            x = rng.normal(size=(40, 12))
            y = rng.normal(size=40)
            model.fit(x, y)
            fresh = GradientBoostedTrees(**GBT_KWARGS).fit(x, y)
            slow = ReferenceGradientBoostedTrees(**GBT_KWARGS).fit(x, y)
            assert json.dumps(model.get_state()) == json.dumps(fresh.get_state())
            assert states_equal(model.get_state(), slow.get_state())
            assert np.array_equal(model.predict(x), fresh.predict(x))
            assert np.array_equal(model.predict(x), slow.predict(x))
            held = [
                name for obj in (model, *model._trees)
                for name, value in vars(obj).items()
                if isinstance(value, (dict, tuple))
            ]
            assert held == []

    def test_unfitted_and_tiny_inputs(self):
        fast = GradientBoostedTrees(**GBT_KWARGS)
        slow = ReferenceGradientBoostedTrees(**GBT_KWARGS)
        for x, y in (([[1.0]], [2.0]), ([[1.0], [1.0]], [2.0, 2.0])):
            fast.fit(x, y)
            slow.fit(x, y)
            assert states_equal(fast.get_state(), slow.get_state())
            assert np.array_equal(fast.predict(x), slow.predict(x))


WORKLOADS = {
    "gemm": lambda: gemm_compute(16, 16, 16, name="g"),
    "conv2d": lambda: conv2d_compute(1, 8, 8, 8, 8, 3, padding=1, name="c"),
}


class TestBatchFeatureParity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_rows_match_point_features(self, workload, target):
        space = build_space(WORKLOADS[workload](), target)
        rng = np.random.default_rng(3)
        points = [space.random_point(rng) for _ in range(12)]
        batch = batch_point_features(space, points)
        assert batch.shape[0] == len(points)
        for row, point in zip(batch, points):
            assert np.array_equal(row, point_features(space, point))


class TestMemoizedLoweringParity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_memoized_equals_fresh(self, workload, target):
        out = WORKLOADS[workload]()
        space = build_space(out, target)
        rng = np.random.default_rng(5)
        memo = LoweringMemo()
        for _ in range(10):
            config = space.decode(space.random_point(rng))
            memoized = lower(out, config, target, memo=memo)
            fresh = lower(out, config, target)
            assert str(dict(memoized.index_map)) == str(dict(fresh.index_map))
            assert [
                (l.var.name, l.extent, l.role, l.annotation) for l in memoized.loops
            ] == [(l.var.name, l.extent, l.role, l.annotation) for l in fresh.loops]
            assert memoized.primitives == fresh.primitives
        assert memo.hits + memo.misses == 10

    def test_interp_and_codegen_numerics_through_memo(self):
        out = WORKLOADS["gemm"]()
        space = build_space(out, "gpu")
        rng = np.random.default_rng(11)
        memo = LoweringMemo()
        inputs = random_inputs(out, seed=0)
        expected = execute_reference(out, inputs)
        for _ in range(3):
            config = space.decode(space.random_point(rng))
            scheduled = lower(out, config, "gpu", memo=memo)
            np.testing.assert_allclose(execute_scheduled(scheduled, inputs), expected)
            np.testing.assert_allclose(run_generated(scheduled, inputs), expected)

    def test_index_map_writes_do_not_leak_across_schedules(self):
        # Scheduled objects built from one memoized structure share the
        # lazy index map; a write through one must stay private to it.
        out = WORKLOADS["gemm"]()
        space = build_space(out, "gpu")
        rng = np.random.default_rng(13)
        from repro.ir import IntImm

        memo = LoweringMemo()
        config = space.decode(space.random_point(rng))
        first = lower(out, config, "gpu", memo=memo)
        second = lower(out, config, "gpu", memo=memo)
        axis = first.op.axes[0]
        before = str(second.index_map[axis])
        corrupted = IntImm(0)
        first.index_map[axis] = corrupted
        assert first.index_map[axis] is corrupted
        assert str(second.index_map[axis]) == before


def lowered_view(scheduled):
    return (
        str(dict(scheduled.index_map)),
        [(l.var.name, l.extent, l.role, l.annotation) for l in scheduled.loops],
        scheduled.primitives,
    )


class TestNeighborWalkLoweringParity:
    """Consecutive configs of a neighbor walk differ in one split knob, so
    each structural miss rebuilds one axis and reuses every other
    per-axis split recipe (and its ``Var`` objects) from the memo."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_walk_memoized_equals_fresh(self, workload, target):
        out = WORKLOADS[workload]()
        space = build_space(out, target)
        split_knobs = {
            ki for ki, knob in enumerate(space.knobs) if knob.name[:2] in ("sp", "re")
        }
        rng = np.random.default_rng(19)
        memo = LoweringMemo()
        point = space.random_point(rng)
        inputs = random_inputs(out, seed=1)
        expected = execute_reference(out, inputs)
        for step in range(30):
            config = space.decode(point)
            memoized = lower(out, config, target, memo=memo)
            fresh = lower(out, config, target)
            assert lowered_view(memoized) == lowered_view(fresh)
            if step % 10 == 0:
                validate_schedule(memoized)
                np.testing.assert_allclose(run_generated(memoized, inputs), expected)
                if workload == "gemm":  # the interpreter is slow on conv2d
                    np.testing.assert_allclose(
                        execute_scheduled(memoized, inputs), expected
                    )
            moves = [
                moved for d, moved in space.neighbors(point)
                if space.directions[d][0] in split_knobs
            ]
            point = moves[int(rng.integers(len(moves)))]
        assert memo.hits + memo.misses == 30
        # Recipes are per (kind, axis, factors): far fewer than 30 walks
        # times the number of axes.
        num_axes = len(out.op.axes) + len(out.op.reduce_axes)
        assert num_axes <= len(memo.split_recipes) < 30 * num_axes

    def test_structures_share_split_vars(self):
        out = WORKLOADS["gemm"]()
        space = build_space(out, "cpu")
        rng = np.random.default_rng(21)
        memo = LoweringMemo()
        point = space.random_point(rng)
        first = lower(out, space.decode(point), "cpu", memo=memo)
        reduce_knob = next(
            ki for ki, knob in enumerate(space.knobs) if knob.name == "re0"
        )
        moved = next(
            p for d, p in space.neighbors(point) if space.directions[d][0] == reduce_knob
        )
        second = lower(out, space.decode(moved), "cpu", memo=memo)
        assert memo.misses == 2

        def split_vars(scheduled, kind):
            return {l.var for l in scheduled.loops if l.role[0] == kind}

        assert split_vars(first, "spatial") == split_vars(second, "spatial")
        assert not split_vars(first, "reduce") & split_vars(second, "reduce")

    def test_failed_split_is_not_memoized(self):
        out = WORKLOADS["gemm"]()
        space = build_space(out, "cpu")
        config = space.decode(space.random_point(np.random.default_rng(2)))
        bad = config.with_(spatial_factors=((1, 1, 1),) + config.spatial_factors[1:])
        memo = LoweringMemo()
        for _ in range(2):
            with pytest.raises(ValueError, match="do not multiply"):
                lower(out, bad, "cpu", memo=memo)
        assert not any(key[1] == 0 and key[0] == "spatial" for key in memo.split_recipes)
        assert memo.stats()["entries"] == 0


ORACLE_OPS = {
    "gemm": lambda: gemm_compute(12, 10, 14, name="og").op,
    "conv2d": lambda: conv2d_compute(1, 6, 7, 7, 8, 3, padding=1, name="oc").op,
    "grouped": lambda: conv2d_compute(
        1, 8, 6, 6, 8, 3, stride=2, padding=1, groups=4, name="ogrp"
    ).op,
    "bcm": lambda: block_circulant_matmul_compute(2, 16, 24, 4, name="obcm").op,
    # Its weight reads carry negative coefficients (W[.., 2 - rx, ..]).
    "transposed": lambda: conv2d_transposed_compute(
        1, 4, 5, 5, 4, 3, stride=2, padding=1, name="ot2d"
    ).op,
}
_ORACLE_CACHE = {}
STRANGER = gemm_compute(3, 3, 3, name="ostranger").op.input_tensors[0]


def oracle_op(name):
    # One op object per name, so repeated examples exercise memo hits.
    if name not in _ORACLE_CACHE:
        _ORACLE_CACHE[name] = ORACLE_OPS[name]()
    return _ORACLE_CACHE[name]


class TestAnalysisOracles:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ORACLE_OPS)), st.data())
    def test_tile_footprint_matches_reference(self, name, data):
        op = oracle_op(name)
        tile = {}
        for axis in op.all_axes:
            if data.draw(st.booleans(), label=f"has {axis.name}"):
                tile[axis] = data.draw(st.integers(1, axis.extent), label=axis.name)
        for tensor in tuple(op.input_tensors) + (STRANGER,):
            got = tile_footprint(op, tensor, tile)
            assert got == reference_tile_footprint(op, tensor, tile)
            assert type(got) is int
        assert tile_footprint(op, STRANGER, tile) == 0

    @pytest.mark.parametrize("name", sorted(ORACLE_OPS))
    def test_non_affine_ops_have_full_dimensions(self, name):
        op = oracle_op(name)
        plans = [footprint_plan(op, t) for t in op.input_tensors]
        non_affine = any(
            terms is None for plan in plans if plan for _, terms in plan
        )
        assert non_affine == (name in ("grouped", "bcm"))

    @pytest.mark.parametrize("name", sorted(ORACLE_OPS))
    def test_gather_penalty_matches_reference(self, name):
        op = oracle_op(name)
        model = CpuModel(XEON_E5_2699V4)
        for axis in op.all_axes:
            expected = reference_gather_penalty(op, axis)
            assert model._gather_penalty(op, axis) == expected  # miss
            assert model._gather_penalty(op, axis) == expected  # hit


DEVICES = {"gpu": V100, "cpu": XEON_E5_2699V4, "fpga": VU9P}


TUNERS = {
    "q": FlexTensorTuner,
    "p": PMethodTuner,
    "random-walk": RandomWalkTuner,
    "random-sample": RandomSampleTuner,
}


def run_tuner(tuner_cls, fast, workload="gemm", device=V100):
    ev = Evaluator(WORKLOADS[workload](), device)
    if not fast:
        ev.lowering_memo = None
    result = tuner_cls(ev, seed=0).tune(trials=3, num_seeds=3)
    return (
        result.best_performance,
        result.num_measurements,
        tuple(result.best_point) if result.best_point else None,
    )


class TestTunerTrajectoryParity:
    @pytest.mark.parametrize("method", sorted(TUNERS))
    def test_trajectory_unchanged_by_fast_path(self, method):
        assert run_tuner(TUNERS[method], fast=True) == run_tuner(
            TUNERS[method], fast=False
        )

    # gemm on the GPU is the case pinned by the test above.
    @pytest.mark.parametrize("method", sorted(TUNERS))
    @pytest.mark.parametrize("target,workload", [
        (target, workload)
        for target in sorted(DEVICES)
        for workload in sorted(WORKLOADS)
        if (target, workload) != ("gpu", "gemm")
    ])
    def test_trajectory_unchanged_on_every_target(self, method, target, workload):
        device = DEVICES[target]
        assert run_tuner(TUNERS[method], True, workload, device) == run_tuner(
            TUNERS[method], False, workload, device
        )

    def test_surrogate_decisions_unchanged_by_batch_features(self):
        ev = Evaluator(WORKLOADS["conv2d"](), V100)
        rng = np.random.default_rng(17)
        points = []
        while len(points) < 28:
            p = ev.space.random_point(rng)
            if p not in points:
                points.append(p)
        arms = []
        for batch_features in (True, False):
            screen = SurrogateScreen(ev.space, min_train=8, seed=0)
            screen.use_batch_features = batch_features
            for p in points[:20]:
                screen.observe(p, ev.evaluate(p))
            decision = screen.screen(points[20:])
            arms.append(
                (decision.forward, decision.screened, decision.scores,
                 json.dumps(screen.model.get_state(), sort_keys=True))
            )
        assert arms[0] == arms[1]
