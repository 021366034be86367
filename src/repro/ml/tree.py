"""CART decision trees (binary splits, Gini impurity).

The paper trains a Random Forest [7] in Weka; this is the from-scratch
substrate it rests on.  Numeric features only (the feature extractor
one-hot-encodes categoricals), binary classification with class-probability
leaves so the forest can expose calibrated-ish ``predict_proba`` scores --
the quantity RichNote turns into content utility ``U_c``.

The implementation vectorizes split search with numpy: for each candidate
feature the samples are sorted once and all thresholds are evaluated with
prefix sums, giving ``O(f * n log n)`` per node for ``f`` candidate
features.

A fitted tree is a flat preorder node table: parallel arrays ``feature``,
``threshold``, ``left``, ``right``, ``probability`` and ``samples``,
root at index 0.  A leaf's ``left`` and ``right`` point at itself (and its
``feature`` is 0, so reading it stays in bounds), which lets
:func:`walk_to_leaves` move every row down one level per step with no
branch for leaves: after ``depth()`` steps each row sits on its leaf.  The
forest concatenates its trees into one such table and walks them all at
once.
"""

from __future__ import annotations

import numpy as np


def walk_to_leaves(
    x: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Leaf index of every row under every root, shape ``(len(roots), n)``.

    ``x`` is a C-contiguous ``(n, f)`` float matrix whose width the caller
    has checked.  Each level is one flat gather of the split feature, one
    ``<=`` against the threshold (NaN goes right, as ``row[f] <= t``
    does) and one select between the children; leaves point at
    themselves, so ``depth`` levels settle every row.
    """
    n, width = x.shape
    flat = x.ravel()
    row_base = np.arange(n) * width
    node = np.repeat(roots[:, None], n, axis=1)
    for _ in range(depth):
        go_left = flat[row_base + feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return node


def _gini(positive: float, total: float) -> float:
    """Gini impurity of a node with ``positive`` of ``total`` class-1."""
    if total <= 0:
        return 0.0
    p = positive / total
    return 2.0 * p * (1.0 - p)


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, weighted-impurity) over candidate features.

    Returns ``None`` when no valid split exists (pure node or too few
    samples on one side for every threshold).
    """
    n = len(y)
    total_pos = float(y.sum())
    parent = _gini(total_pos, n)
    best: tuple[int, float, float] | None = None
    best_score = parent - 1e-12  # require strict improvement

    for feature in feature_indices:
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_y = y[order]
        # Candidate split positions: between distinct consecutive values.
        distinct = np.nonzero(np.diff(sorted_values) > 0)[0]
        if distinct.size == 0:
            continue
        left_counts = distinct + 1  # samples on the left of each candidate
        pos_prefix = np.cumsum(sorted_y)
        left_pos = pos_prefix[distinct].astype(float)
        right_counts = n - left_counts
        right_pos = total_pos - left_pos

        valid = (left_counts >= min_samples_leaf) & (
            right_counts >= min_samples_leaf
        )
        if not valid.any():
            continue
        lc = left_counts[valid].astype(float)
        rc = right_counts[valid].astype(float)
        lp = left_pos[valid]
        rp = right_pos[valid]
        left_gini = 2.0 * (lp / lc) * (1.0 - lp / lc)
        right_gini = 2.0 * (rp / rc) * (1.0 - rp / rc)
        weighted = (lc * left_gini + rc * right_gini) / n
        idx = int(np.argmin(weighted))
        score = float(weighted[idx])
        if score < best_score:
            positions = distinct[valid]
            split_at = int(positions[idx])
            threshold = 0.5 * (
                float(sorted_values[split_at]) + float(sorted_values[split_at + 1])
            )
            best_score = score
            best = (int(feature), threshold, score)
    return best


class DecisionTreeClassifier:
    """Binary CART classifier with probability leaves.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0); ``None`` for unbounded.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples each child must receive.
    max_features:
        Number of features examined per split; ``None`` = all, ``"sqrt"`` =
        ``ceil(sqrt(f))`` (the Random Forest default).
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._n_features = 0
        # The fitted preorder node table (None until fit()).
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.probability: np.ndarray | None = None  # P(class == 1) per node
        self.samples: np.ndarray | None = None

    # -- fitting --------------------------------------------------------------

    def fit(self, x, y) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D matrix")
        if y.ndim != 1 or len(y) != len(x):
            raise ValueError("y must be a vector aligned with x")
        if not set(np.unique(y)) <= {0, 1}:
            raise ValueError("labels must be binary 0/1")
        if len(x) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = x.shape[1]
        rng = np.random.default_rng(self.random_state)
        rows: list[list] = []
        self._grow(x, y, depth=0, rng=rng, rows=rows)
        feature, threshold, left, right, probability, samples = zip(*rows)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.probability = np.array(probability, dtype=float)
        self.samples = np.array(samples, dtype=np.intp)
        return self

    def _candidate_features(self, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self._n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.ceil(np.sqrt(self._n_features))))
        else:
            k = int(self.max_features)
            if not 1 <= k <= self._n_features:
                raise ValueError(
                    f"max_features must be in [1, {self._n_features}], got {k}"
                )
        return rng.choice(self._n_features, size=k, replace=False)

    def _grow(
        self,
        x: np.ndarray,
        y: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        rows: list[list],
    ) -> int:
        """Append the subtree on ``(x, y)`` to ``rows`` in preorder.

        Each row is ``[feature, threshold, left, right, probability,
        samples]``; a node starts as a self-pointing leaf and becomes a
        split once its children exist.  Returns the subtree's root index.
        """
        index = len(rows)
        probability = float(y.mean())
        row = [0, 0.0, index, index, probability, len(y)]
        rows.append(row)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(y) < self.min_samples_split
            or probability in (0.0, 1.0)
        ):
            return index
        split = _best_split(
            x, y, self._candidate_features(rng), self.min_samples_leaf
        )
        if split is None:
            return index
        feature, threshold, _ = split
        mask = x[:, feature] <= threshold
        row[0] = feature
        row[1] = threshold
        row[2] = self._grow(x[mask], y[mask], depth + 1, rng, rows)
        row[3] = self._grow(x[~mask], y[~mask], depth + 1, rng, rows)
        return index

    # -- prediction -----------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.feature is None:
            raise RuntimeError("tree is not fitted; call fit() first")

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities, shape ``(n, 2)``; column 1 = P(clicked)."""
        self._check_fitted()
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._n_features:
            raise ValueError(
                f"expected matrix with {self._n_features} features, got {x.shape}"
            )
        leaves = walk_to_leaves(
            x, self.feature, self.threshold, self.left, self.right,
            np.zeros(1, dtype=np.intp), self.depth(),
        )
        p1 = self.probability[leaves[0]]
        return np.column_stack([1.0 - p1, p1])

    def predict(self, x) -> np.ndarray:
        """Hard class predictions at the 0.5 threshold."""
        return (self.predict_proba(x)[:, 1] >= 0.5).astype(int)

    def depth(self) -> int:
        """Realized depth of the fitted tree (levels below the root)."""
        self._check_fitted()
        frontier = np.zeros(1, dtype=np.intp)
        depth = 0
        while True:
            frontier = frontier[self.left[frontier] != frontier]
            if frontier.size == 0:
                return depth
            frontier = np.concatenate([self.left[frontier], self.right[frontier]])
            depth += 1

    def node_count(self) -> int:
        self._check_fitted()
        return len(self.feature)
