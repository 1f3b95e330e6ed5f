"""Gradient-boosted regression trees, from scratch in numpy.

A small XGBoost stand-in shared by the AutoTVM baseline's cost model [9]
and the online surrogate screen (``repro.explore.surrogate``):
least-squares boosting over depth-limited CART trees with quantile-sampled
split thresholds.  Deterministic given its inputs, and — because the
surrogate checkpoints alongside the Q-network — exactly serializable:
:meth:`GradientBoostedTrees.get_state` / :meth:`set_state` roundtrip the
fitted ensemble bit-identically through JSON.

Both halves of the hot path are array programs rather than Python loops:

* :meth:`RegressionTree.predict` flattens the fitted tree into parallel
  arrays (feature / threshold / left / right / value) and walks **all
  rows at once**, one tree level per iteration, instead of chasing nodes
  row by row.
* :meth:`RegressionTree.fit` replaces the feature x threshold double loop
  (one ``np.quantile`` + two ``mean()`` passes per candidate) with one
  stable argsort per *ensemble fit*, filtered down each tree by the split
  masks (stable filtering of a stable sort is the per-node stable sort):
  candidate thresholds come from an exact
  re-implementation of numpy's linear-interpolation quantile over the
  sorted columns, and split SSEs come from cumulative sums.  Thresholds
  and counts depend only on x, so one fit memoizes them per node row set
  and every boosting round that reaches the same rows reuses them.

The contract — enforced by ``tests/test_hotpath_parity.py`` against the
scalar implementation kept in ``tests/gbt_reference.py`` — is that the
fitted trees, the predictions and the checkpoints are **bit-identical**
to the original code.  Cumulative-sum SSEs round differently than the
scalar two-pass formula, so they are used only to *shortlist* candidate
splits: every candidate within a conservative error band of the
vectorized maximum is re-scored with the scalar formula verbatim, and the
scalar first-strictly-greater scan picks the winner.  On the surrogate's
data the band is wide but shallow: over the 135 fits of the benchmark's
op-screened workload (seed 1) it held 15.9 candidates per split search
on average, covering only 1.44 distinct row partitions (duplicate and
affinely related feature columns, and thresholds that fall between the
same pair of values).  So only the first candidate of each distinct
partition is re-scored; the others cannot win the strict scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _node_to_dict(node: _Node) -> Dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "value": node.value,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: Dict) -> _Node:
    node = _Node(value=payload["value"])
    if "feature" in payload:
        node.feature = payload["feature"]
        node.threshold = payload["threshold"]
        node.left = _node_from_dict(payload["left"])
        node.right = _node_from_dict(payload["right"])
    return node


@dataclass
class _FlatTree:
    """The fitted tree compiled to parallel arrays for batched predict.

    ``feature[i] < 0`` marks node ``i`` as a leaf; internal nodes route
    rows with ``x[:, feature] <= threshold`` to ``left`` and the rest to
    ``right``.  ``depth`` bounds the level-by-level walk.
    """

    feature: np.ndarray     # intp, -1 for leaves
    threshold: np.ndarray   # float64
    left: np.ndarray        # intp, self-loop for leaves
    right: np.ndarray       # intp, self-loop for leaves
    value: np.ndarray       # float64
    depth: int


def _flatten(root: _Node) -> _FlatTree:
    nodes: List[_Node] = []
    depths: List[int] = []
    left: List[int] = []
    right: List[int] = []

    def build(node: _Node, depth: int) -> int:
        index = len(nodes)
        nodes.append(node)
        depths.append(depth)
        left.append(index)
        right.append(index)
        if not node.is_leaf:
            left[index] = build(node.left, depth + 1)
            right[index] = build(node.right, depth + 1)
        return index

    build(root, 0)
    feature = np.array(
        [n.feature if not n.is_leaf else -1 for n in nodes], dtype=np.intp
    )
    threshold = np.array([n.threshold for n in nodes], dtype=np.float64)
    value = np.array([n.value for n in nodes], dtype=np.float64)
    return _FlatTree(
        feature=feature,
        threshold=threshold,
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=value,
        depth=max(depths) if depths else 0,
    )


def _column_quantiles(sorted_columns: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """numpy's default (linear / Hyndman-Fan 7) quantiles of pre-sorted
    columns, bit-identical to ``np.quantile(column, fractions)`` per
    column.  ``sorted_columns`` is (n, F); returns (T, F).

    Replicates numpy's ``_quantile`` arithmetic exactly: virtual index
    ``q * (n - 1)``, floor/ceil gather, and the two-sided ``_lerp``
    (``a + (b - a) * g`` below g = 0.5, ``b - (b - a) * (1 - g)`` above).
    """
    n = sorted_columns.shape[0]
    virtual = fractions * (n - 1)
    previous = np.floor(virtual)
    nxt = previous + 1
    above = virtual >= n - 1
    previous[above] = n - 1
    nxt[above] = n - 1
    previous = previous.astype(np.intp)
    nxt = nxt.astype(np.intp)
    gamma = (virtual - previous)[:, None]
    a = sorted_columns[previous, :]
    b = sorted_columns[nxt, :]
    diff = b - a
    result = a + diff * gamma
    upper = gamma >= 0.5
    np.subtract(b, diff * (1 - gamma), out=result, where=upper)
    return result


class RegressionTree:
    """CART regression tree with greedy variance-reduction splits."""

    def __init__(self, max_depth: int = 3, min_samples: int = 4, num_thresholds: int = 8):
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.num_thresholds = num_thresholds
        self._root: Optional[_Node] = None
        self._flat: Optional[_FlatTree] = None
        self._fractions: Optional[np.ndarray] = None

    def _x_split_stats(self, xs: np.ndarray, n: int) -> Tuple:
        """Candidate thresholds and left-side counts for sorted columns.

        Depends only on x restricted to the node's rows — not on the
        regression target — so every round of a boosting fit that reaches
        the same row set reuses them (see ``xstats_memo`` in :meth:`fit`).
        """
        if self._fractions is None or len(self._fractions) != self.num_thresholds:
            self._fractions = np.linspace(0.1, 0.9, self.num_thresholds)
        thresholds = _column_quantiles(xs, self._fractions)    # (T, F)
        counts = (xs[:, None, :] <= thresholds[None, :, :]).sum(axis=0)
        valid = (counts > 0) & (counts < n)
        k = np.clip(counts, 1, n - 1)
        return thresholds, counts, valid, k

    def fit(self, x: np.ndarray, y: np.ndarray,
            order: Optional[np.ndarray] = None,
            xstats_memo: Optional[Dict[bytes, Tuple]] = None) -> "RegressionTree":
        """Fit on ``(x, y)``.

        ``order`` is an optional (n, F) stable per-column argsort of ``x``
        — boosting fits every round on the same ``x``, so the ensemble
        computes it once and shares it across rounds.  Per-node sorted
        orders are then maintained by *filtering* the parent's order with
        the split mask: stable filtering of a stable sort keeps equal
        elements in ascending-row order, exactly what a fresh per-node
        stable argsort would produce, so the fitted tree is bit-identical
        to sorting from scratch at every node.

        ``xstats_memo`` maps a node's row set (its ascending row indices,
        as bytes) to that node's :meth:`_x_split_stats`.  It is only valid
        for one ``x`` and one ``num_thresholds``: the ensemble passes one
        memo to all trees of a single fit and drops it afterwards; the
        tree never keeps it.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if order is None:
            order = np.argsort(x, axis=0, kind="stable")
        if xstats_memo is None:
            xstats_memo = {}
        rows = np.arange(len(y), dtype=np.intp)
        self._root = self._build_levels(x, y, rows, order, xstats_memo)
        self._flat = _flatten(self._root)
        return self

    def _build_levels(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
                      order: np.ndarray,
                      xstats_memo: Dict[bytes, Tuple]) -> _Node:
        """Level-order tree construction.

        Bit-identical to depth-first recursion — node values, split
        choices and child partitions only depend on each node's own rows
        — but iterative, so the hot loop stays flat.  (A fully padded
        sibling-batched split search was tried here and *lost*: at the
        row counts the surrogate trains on, the dense (siblings, rows,
        features) broadcasts cost more than the numpy dispatch they
        save.)
        """
        root = _Node()
        level = [(root, rows, order)]
        depth = 0
        n_features = x.shape[1]
        while level:
            nxt_level = []
            for node, node_rows, node_order in level:
                yv = y[node_rows]
                n = len(yv)
                node.value = float(np.add.reduce(yv) / n) if n else float(yv.mean())
                if depth >= self.max_depth or n < self.min_samples or np.ptp(yv) == 0:
                    continue
                best = self._find_split(x, y, node_rows, node_order, yv, xstats_memo)
                if best is None:
                    continue
                feature, threshold = best
                mask = x[node_rows, feature] <= threshold
                node.feature = feature
                node.threshold = threshold
                node.left = _Node()
                node.right = _Node()
                member = np.zeros(x.shape[0], dtype=bool)
                member[node_rows[mask]] = True
                picked = member[node_order.T]
                left_order = node_order.T[picked].reshape(n_features, -1).T
                right_order = node_order.T[~picked].reshape(n_features, -1).T
                nxt_level.append((node.left, node_rows[mask], left_order))
                nxt_level.append((node.right, node_rows[~mask], right_order))
            level = nxt_level
            depth += 1
        return root

    def _pick_from_band(self, x: np.ndarray, rows: np.ndarray, yv: np.ndarray,
                        n: int, base_sse: float, thresholds: np.ndarray,
                        gains: np.ndarray, max_gain: float,
                        tolerance: float) -> Optional[Tuple[int, float]]:
        """Reference-exact winner among the shortlisted candidates: every
        candidate within ``tolerance`` of the vectorized maximum is
        re-scored with the scalar two-pass formula, scanned in the
        reference's (feature, then ascending threshold) order.

        Only the first candidate of each distinct row partition is
        re-scored.  Equal masks give bitwise-equal ``yv[mask]`` /
        ``yv[~mask]`` and hence equal exact SSEs, and under the strictly
        greater scan a later equal gain never displaces an earlier one.

        ``np.add.reduce(v) / n`` below is numpy's own ``mean`` kernel
        (``_methods._mean`` is exactly ``umr_sum`` then a divide) minus
        the python-level dispatch, so the re-scored SSEs match the
        reference bit for bit.
        """
        band = np.argwhere(gains >= max_gain - tolerance)
        features = band[:, 0]
        band_thresholds = thresholds[band[:, 1], features]
        masks = x[rows[None, :], features[:, None]] <= band_thresholds[:, None]
        insides = np.count_nonzero(masks, axis=1)
        seen: Set[bytes] = set()
        best_gain = 0.0
        best: Optional[Tuple[int, float]] = None
        for feature, threshold, mask, inside in zip(
            features.tolist(), band_thresholds.tolist(), masks, insides.tolist()
        ):
            if inside == 0 or inside == n:
                continue
            key = mask.tobytes()
            if key in seen:
                continue
            seen.add(key)
            left, right = yv[mask], yv[~mask]
            ld = left - np.add.reduce(left) / inside
            rd = right - np.add.reduce(right) / (n - inside)
            exact = float(np.add.reduce(ld * ld)) + float(np.add.reduce(rd * rd))
            gain = base_sse - exact
            if gain > best_gain:
                best_gain = gain
                best = (feature, threshold)
        return best

    def _find_split(self, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
                    order: np.ndarray, yv: np.ndarray,
                    xstats_memo: Dict[bytes, Tuple]) -> Optional[Tuple[int, float]]:
        """Best (feature, threshold) by variance reduction, or None.

        Vectorized shortlist + scalar re-score: cumulative-sum SSEs over
        stably argsorted columns rank all feature x quantile candidates
        at once; every candidate within an error band of the maximum is
        then re-scored with the reference two-pass formula, and the
        reference's first-strictly-positive-improvement scan (feature
        order, then ascending threshold) picks among exact ties.
        """
        n = len(yv)
        dv = yv - np.add.reduce(yv) / n
        base_sse = float(np.add.reduce(dv * dv))
        columns = np.arange(x.shape[1], dtype=np.intp)[None, :]
        key = rows.tobytes()
        xstats = xstats_memo.get(key)
        if xstats is None:
            xstats = xstats_memo[key] = self._x_split_stats(x[order, columns], n)
        thresholds, counts, valid, k = xstats
        if not valid.any():
            return None
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys * ys, axis=0)
        left_sum = csum[k - 1, columns]
        left_sum2 = csum2[k - 1, columns]
        right_count = n - k
        right_sum = csum[-1] - left_sum
        sse = (
            left_sum2
            - left_sum * left_sum / k
            + (csum2[-1] - left_sum2)
            - right_sum * right_sum / right_count
        )
        gains = np.where(valid, base_sse - sse, -np.inf).T     # (F, T)
        max_gain = gains.max()
        # Error band: cumulative sums accumulate O(n * eps) of the y**2
        # scale per candidate, so anything this close to the maximum (or
        # to the strict > 0 acceptance bound) must be settled by the
        # scalar formula.
        scale = float(csum2[-1].max()) + base_sse + 1.0
        tolerance = 1e-12 * n * scale + 1e-9 * base_sse
        if max_gain <= -tolerance:
            return None
        return self._pick_from_band(
            x, rows, yv, n, base_sse, thresholds, gains, max_gain, tolerance,
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            self._flat = _flatten(self._root)
        flat = self._flat
        x = np.asarray(x)
        index = np.zeros(len(x), dtype=np.intp)
        rows = np.arange(len(x))
        for _ in range(flat.depth):
            feature = flat.feature[index]
            internal = feature >= 0
            if not internal.any():
                break
            goes_left = x[rows, np.maximum(feature, 0)] <= flat.threshold[index]
            index = np.where(
                internal,
                np.where(goes_left, flat.left[index], flat.right[index]),
                index,
            )
        return flat.value[index]

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of the fitted tree structure."""
        return {
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "num_thresholds": self.num_thresholds,
            "root": _node_to_dict(self._root) if self._root is not None else None,
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state` bit-exactly
        (thresholds and leaf values survive a JSON roundtrip unchanged)."""
        self.max_depth = state["max_depth"]
        self.min_samples = state["min_samples"]
        self.num_thresholds = state["num_thresholds"]
        root = state.get("root")
        self._root = _node_from_dict(root) if root is not None else None
        self._flat = _flatten(self._root) if self._root is not None else None


class GradientBoostedTrees:
    """Least-squares gradient boosting (the XGBoost role in AutoTVM)."""

    def __init__(self, num_rounds: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, min_samples: int = 4):
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples = min_samples
        self._trees: List[RegressionTree] = []
        self._base: float = 0.0
        self._forest: Optional[_FlatTree] = None
        self._roots: Optional[np.ndarray] = None

    def _compile_forest(self) -> Optional[_FlatTree]:
        """Concatenate every tree's flat arrays into one forest.

        ``predict`` then routes all rows through all trees at once — one
        level-step per iteration over (rows x trees) index matrices —
        instead of walking the ensemble tree by tree.  Per-tree leaf
        values are still accumulated in boosting order, so predictions
        stay bit-identical to the sequential loop.
        """
        if self._forest is None and self._trees:
            flats = []
            for tree in self._trees:
                if tree._flat is None:
                    tree._flat = _flatten(tree._root)
                flats.append(tree._flat)
            offsets = np.cumsum([0] + [len(f.feature) for f in flats[:-1]])
            self._forest = _FlatTree(
                feature=np.concatenate([f.feature for f in flats]),
                threshold=np.concatenate([f.threshold for f in flats]),
                left=np.concatenate([f.left + o for f, o in zip(flats, offsets)]),
                right=np.concatenate([f.right + o for f, o in zip(flats, offsets)]),
                value=np.concatenate([f.value for f in flats]),
                depth=max(f.depth for f in flats),
            )
            self._roots = offsets.astype(np.intp)
        return self._forest

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees) or self._base != 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._trees = []
        self._forest = None
        self._base = float(y.mean()) if len(y) else 0.0
        residual = y - self._base
        # Every round fits on the same x: one stable argsort and one memo
        # of per-row-set threshold stats serve all trees of this fit (each
        # tree filters the order down its nodes, see RegressionTree.fit).
        order = np.argsort(x, axis=0, kind="stable") if x.size else None
        xstats_memo: Dict[bytes, Tuple] = {}
        for _ in range(self.num_rounds):
            if np.allclose(residual, 0):
                break
            tree = RegressionTree(self.max_depth, self.min_samples).fit(
                x, residual, order=order, xstats_memo=xstats_memo
            )
            update = tree.predict(x)
            residual = residual - self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.full(len(x), self._base)
        forest = self._compile_forest()
        if forest is None:
            return out
        index = np.broadcast_to(self._roots, (len(x), len(self._roots))).copy()
        rows = np.arange(len(x))[:, None]
        for _ in range(forest.depth):
            feature = forest.feature[index]
            internal = feature >= 0
            if not internal.any():
                break
            goes_left = (
                x[rows, np.maximum(feature, 0)] <= forest.threshold[index]
            )
            index = np.where(
                internal,
                np.where(goes_left, forest.left[index], forest.right[index]),
                index,
            )
        leaf_values = forest.value[index]
        # Accumulate in boosting order — float addition is not
        # associative, so a vectorized row-sum would drift from the
        # sequential reference by ULPs.
        for t in range(leaf_values.shape[1]):
            out += self.learning_rate * leaf_values[:, t]
        return out

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of the whole fitted ensemble."""
        return {
            "num_rounds": self.num_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "base": self._base,
            "trees": [tree.get_state() for tree in self._trees],
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`; predictions
        of the restored model are bit-identical to the original's."""
        self.num_rounds = state["num_rounds"]
        self.learning_rate = state["learning_rate"]
        self.max_depth = state["max_depth"]
        self.min_samples = state["min_samples"]
        self._base = state["base"]
        self._forest = None
        self._trees = []
        for tree_state in state["trees"]:
            tree = RegressionTree()
            tree.set_state(tree_state)
            self._trees.append(tree)
