"""Gradient-aware regression trees (the GBDT building block).

Implements XGBoost-style exact greedy splitting [5]: each node stores the
Newton leaf weight ``-G / (H + lambda)`` and splits on the feature
threshold maximising the regularized gain

    0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)) - gamma.

Like XGBoost's pre-sorted column blocks, a training matrix is sorted once
(:func:`presort`): one stable ``argsort`` per column, kept as an order
table whose row lists the rows by ascending value, ties by ascending row
index.  A boosting fit that trains every round on the same matrix shares
one :class:`Presorted` among all its trees.  A split partitions every
row of the table with the same go-left mask (``order[go_left[order]]``,
per row).  Selecting with a mask keeps relative order, so each child's
table is again the stable argsort of the child's own columns, and no
node below the root sorts.

Only representative columns are searched.  A column without a candidate
cut (all values equal) is dropped, and so is a column whose stable order
and tie pattern both equal those of an earlier column: mask selection
keeps both properties in every child, so such twins score bit-equal
gains at every node and the earlier one would win anyway.  A chosen
split maps back to its original feature index.

At a node the search covers all representatives at once, a block of
table rows at a time (``_BLOCK_ENTRIES`` bounds the temporaries).  It
gathers gradients and feature values through the table and takes the
gradient prefix sums along each row.  A cut after sorted position ``i``
is a candidate only when ``x[i] != x[i + 1]``; the gain formula above,
with the same IEEE operations in the same order as a per-feature loop,
is evaluated at every candidate, and candidates leaving either child
under ``min_child_weight`` hessian mass score ``-inf``.  Squared loss
has unit hessians, passed as ``h=None``: the left hessian mass at
position ``i`` is then exactly ``i + 1`` and a node's total is its row
count, with no hessian gathers or prefix sums; other losses gather and
sum their hessians like the gradients.

Tie-breaks: each feature's best cut is its first maximum (the leftmost
cut), and the node splits on the feature with the highest best gain
strictly above ``gamma``, the lowest feature index on ties.  Candidates
are listed by feature, then by cut, so the first maximum of that list
is exactly this choice; a feature whose gains include a NaN has a NaN
best gain, which never splits.  The threshold is the midpoint of the
two values around the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError, NotFittedError

#: Order-table entries searched together: a node of ``n_rows`` rows takes
#: its features ``_BLOCK_ENTRIES // n_rows`` at a time, so temporaries stay
#: near 16k floats (8 features at the root of a 2,000-row fit) while small
#: nodes search every feature in one block.  Budgets from 8k to 64k entries
#: fit a 2,000-row, 31-feature predictor equally fast; peak memory grows
#: with the budget.
_BLOCK_ENTRIES = 16384


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int
    threshold: float
    left: int
    right: int
    value: float


class RegressionTree:
    """A single gradient/hessian-fitted regression tree.

    Parameters
    ----------
    max_depth:
        Maximum node depth (root is depth 0).
    min_child_weight:
        Minimum sum of hessians per child (XGBoost's pruning guard).
    reg_lambda:
        L2 regularization on leaf weights.
    gamma:
        Minimum gain to accept a split.
    min_samples_split:
        Minimum rows required to attempt a split.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_samples_split: int = 2,
    ):
        self.max_depth = int(max_depth)
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        self.min_samples_split = int(min_samples_split)
        self._nodes: list[_Node] = []
        # Columns predict() needs: 1 + the largest feature split on.
        self._width = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "RegressionTree":
        """Grow the tree on gradients/hessians of the boosting objective."""
        X = np.asarray(X, dtype=np.float64)
        g = np.asarray(grad, dtype=np.float64).ravel()
        h = np.asarray(hess, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != g.shape[0] or g.shape != h.shape:
            raise ModelError(
                f"inconsistent shapes: X{X.shape}, grad{g.shape}, hess{h.shape}"
            )
        return self._fit_sorted(presort(X), g, h)

    def _fit_sorted(
        self, data: "Presorted", g: np.ndarray, h: "np.ndarray | None"
    ) -> "RegressionTree":
        """Grow the tree on a presorted matrix; ``h=None`` means every
        hessian is 1 (squared loss)."""
        self._nodes = []
        self._grow(data, g, h, np.arange(data.XT.shape[1]), data.order, depth=0)
        self._width = 1 + max(node.feature for node in self._nodes)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _grow(
        self,
        data: "Presorted",
        g: np.ndarray,
        h: "np.ndarray | None",
        idx: np.ndarray,
        order: "np.ndarray | None",
        depth: int,
    ) -> int:
        """Grow the subtree over rows *idx* (ascending) and return its id.

        *order* is the subtree's order table; it is ``None`` only for
        nodes at ``max_depth``, which are leaves and never searched.
        """
        node_id = len(self._nodes)
        g_sum = float(g[idx].sum())
        h_sum = float(idx.size) if h is None else float(h[idx].sum())
        # Reserve the slot; children fill in after recursion.
        self._nodes.append(_Node(-1, 0.0, -1, -1, self._leaf_value(g_sum, h_sum)))

        if depth >= self.max_depth or idx.size < max(self.min_samples_split, 2):
            return node_id
        split = self._best_split(data, g, h, order, g_sum, h_sum)
        if split is None:
            return node_id
        feature, threshold = split
        go_left = data.XT[feature] <= threshold
        mask = go_left[idx]
        if depth + 1 < self.max_depth:
            left_order, right_order = _partition(order, go_left)
        else:
            left_order = right_order = None
        left = self._grow(data, g, h, idx[mask], left_order, depth + 1)
        right = self._grow(data, g, h, idx[~mask], right_order, depth + 1)
        node = self._nodes[node_id]
        node.feature = feature
        node.threshold = threshold
        node.left = left
        node.right = right
        return node_id

    def _best_split(
        self,
        data: "Presorted",
        g: np.ndarray,
        h: "np.ndarray | None",
        order: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, float] | None:
        lam = self.reg_lambda
        parent_score = g_sum * g_sum / (h_sum + lam)
        XT, columns = data.XT, data.columns
        n_feats, n_rows = order.shape
        best_gain, pos = self.gamma, -1
        step = max(1, _BLOCK_ENTRIES // n_rows)
        for lo in range(0, n_feats, step):
            rows = order[lo : lo + step]
            xs = np.take(XT, rows + columns[lo : lo + step, None] * XT.shape[1])
            gs = np.cumsum(g[rows], axis=1)
            # Candidate cut after sorted position i requires xs[i] != xs[i+1].
            f, i = np.nonzero(xs[:, :-1] != xs[:, 1:])
            gl = gs[f, i]
            if h is None:
                hl = i + 1.0
            else:
                hl = np.cumsum(h[rows], axis=1)[f, i]
            gr, hr = g_sum - gl, h_sum - hl
            valid = (hl >= self.min_child_weight) & (hr >= self.min_child_weight)
            gain = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score
            )
            gain[~valid] = -np.inf
            nan = np.isnan(gain)
            if nan.any():
                # A NaN is its feature's best gain, which never beats gamma.
                gain[np.isin(f, f[nan])] = -np.inf
            if gain.size:
                # Candidates run by feature, then cut: the first maximum is
                # the lowest feature's leftmost cut among the best.
                k = int(np.argmax(gain))
                if gain[k] > best_gain:
                    best_gain, pos, cut = gain[k], lo + int(f[k]), int(i[k])
        if pos < 0:
            return None
        feature = int(columns[pos])
        x_lo, x_hi = XT[feature, order[pos, cut : cut + 2]]
        return feature, float(0.5 * (x_lo + x_hi))

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weights for each row of *X*."""
        if not self._nodes:
            raise NotFittedError("RegressionTree.predict before fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < self._width:
            raise ModelError(
                f"X has shape {X.shape}; the tree splits on feature "
                f"{self._width - 1}, so it needs 2-D rows of >= {self._width} features"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        # Vectorized level traversal: route index sets through the tree.
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            if rows.size == 0:
                continue
            node = self._nodes[node_id]
            if node.feature < 0:
                out[rows] = node.value
                continue
            mask = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
        return out

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree."""
        if not self._nodes:
            return 0

        def d(node_id: int) -> int:
            node = self._nodes[node_id]
            if node.feature < 0:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(0)

    # ------------------------------------------------------------------
    # serialization hooks (see repro.ml.serialize)
    # ------------------------------------------------------------------
    def to_arrays(self) -> "dict[str, np.ndarray]":
        """Export the node table as parallel arrays.

        Thresholds and leaf values stay float64 end to end, so a tree
        rebuilt by :meth:`from_arrays` predicts bit-identically.
        """
        n = len(self._nodes)
        feature = np.empty(n, dtype=np.int64)
        threshold = np.empty(n, dtype=np.float64)
        left = np.empty(n, dtype=np.int64)
        right = np.empty(n, dtype=np.int64)
        value = np.empty(n, dtype=np.float64)
        for i, node in enumerate(self._nodes):
            feature[i] = node.feature
            threshold[i] = node.threshold
            left[i] = node.left
            right[i] = node.right
            value[i] = node.value
        return {
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "value": value,
        }

    @classmethod
    def from_arrays(
        cls, arrays: "dict[str, np.ndarray]", **params
    ) -> "RegressionTree":
        """Rebuild a fitted tree from :meth:`to_arrays` output."""
        tree = cls(**params)
        n = int(arrays["feature"].shape[0])
        if n == 0:
            raise ModelError("empty node table")
        tree._nodes = [
            _Node(
                feature=int(arrays["feature"][i]),
                threshold=float(arrays["threshold"][i]),
                left=int(arrays["left"][i]),
                right=int(arrays["right"][i]),
                value=float(arrays["value"][i]),
            )
            for i in range(n)
        ]
        tree._width = 1 + max(node.feature for node in tree._nodes)
        return tree


def _partition(order: np.ndarray, go_left: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The children's order tables: each row of *order* split by *go_left*,
    relative order kept."""
    side = go_left[order].ravel()
    n_feats = order.shape[0]
    left = np.compress(side, order).reshape(n_feats, -1)
    right = np.compress(~side, order).reshape(n_feats, -1)
    return left, right


@dataclass(frozen=True)
class Presorted:
    """A training matrix sorted once, shareable by every tree fit on it.

    ``XT`` is the ``(n_features, n_rows)`` transpose of the matrix;
    ``columns`` lists, ascending, the representative features the split
    search covers, and row ``k`` of ``order`` is the stable argsort of
    feature ``columns[k]``.
    """

    XT: np.ndarray
    columns: np.ndarray
    order: np.ndarray


def presort(X: np.ndarray) -> Presorted:
    """Sort every column of *X* once and keep the representative ones.

    A column is dropped when it has no candidate cut (all values equal),
    or when its stable order and tie pattern both equal those of an
    earlier column: selecting rows with a mask keeps both, so at every
    node the two columns score bit-equal gains and the earlier one wins.
    """
    XT = np.ascontiguousarray(np.asarray(X).T, dtype=np.float64)
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    distinct = xs[:, :-1] != xs[:, 1:]
    first: dict[bytes, int] = {}
    for f in np.flatnonzero(distinct.any(axis=1)):
        first.setdefault(order[f].tobytes() + distinct[f].tobytes(), int(f))
    columns = np.array(list(first.values()), dtype=np.intp)
    return Presorted(XT, columns, order[columns])
