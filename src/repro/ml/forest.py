"""Random Forest classifier (Breiman 2001), built on the CART trees.

The paper: "we train a binary classifier using the well-known Random Forest
(RF) classification method [7].  RF is an ensemble of many decision trees
that determines the class of a notification along with a confidence score in
the form of probability Pr(x_i) for the predicted class."

The forest bootstraps the training set per tree, subsamples ``sqrt(f)``
features per split, and averages leaf probabilities across trees --
``predict_proba`` is the mean of tree probabilities, which is what
:class:`repro.core.utility.LearnedContentUtility` converts into ``U_c``.
Out-of-bag scoring is included as a cheap generalization check.

After fitting, the trees' preorder node tables are concatenated into one
table (child indices offset per tree, one root index per tree), and
``predict_proba`` walks every tree at once over fixed blocks of rows with
:func:`repro.ml.tree.walk_to_leaves`.  Blocking bounds the walk's
``(trees, rows)`` temporaries to about a megabyte; one walk over every row
of a week of notifications would hold tens of megabytes at once.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, walk_to_leaves

#: Rows scored per level-synchronous walk over the whole forest.
_BLOCK_ROWS = 1024


class RandomForestClassifier:
    """Bagged ensemble of probability-leaf CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_split / min_samples_leaf:
        Passed through to each tree.
    max_features:
        Per-split feature subsample; defaults to ``"sqrt"`` per Breiman.
    bootstrap:
        Draw a bootstrap sample per tree (True, standard RF) or train every
        tree on the full set (feature-subsampling-only ensemble).
    random_state:
        Master seed; per-tree seeds are derived deterministically.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("need at least one tree")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._trees: list[DecisionTreeClassifier] = []
        self._oob_indices: list[np.ndarray] = []
        self._n_features = 0
        # The fitted forest as one node table (see the module docstring).
        self._feature = self._threshold = self._left = self._right = None
        self._probability = self._samples = self._roots = None
        self._depth = 0

    def fit(self, x, y) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D matrix")
        if len(x) != len(y):
            raise ValueError("x and y must align")
        self._n_features = x.shape[1]
        n = len(x)
        rng = np.random.default_rng(self.random_state)
        trees: list[DecisionTreeClassifier] = []
        self._oob_indices = []
        for tree_index in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                oob = np.setdiff1d(np.arange(n), np.unique(sample))
            else:
                sample = np.arange(n)
                oob = np.array([], dtype=int)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )
            tree.fit(x[sample], y[sample])
            trees.append(tree)
            self._oob_indices.append(oob)
        sizes = [tree.node_count() for tree in trees]
        self._roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        self._feature = np.concatenate([tree.feature for tree in trees])
        self._threshold = np.concatenate([tree.threshold for tree in trees])
        self._left = np.concatenate(
            [tree.left + root for tree, root in zip(trees, self._roots)]
        )
        self._right = np.concatenate(
            [tree.right + root for tree, root in zip(trees, self._roots)]
        )
        self._probability = np.concatenate([tree.probability for tree in trees])
        self._samples = np.concatenate([tree.samples for tree in trees])
        self._depth = max(tree.depth() for tree in trees)
        self._trees = trees
        self._train_x = x
        self._train_y = y
        return self

    def _check_fitted(self) -> None:
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")

    def _leaf_probabilities(self, x: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """P(class == 1) of each row under each root, shape ``(len(roots), n)``."""
        leaves = walk_to_leaves(
            x, self._feature, self._threshold, self._left, self._right,
            roots, self._depth,
        )
        return self._probability[leaves]

    def predict_proba(self, x) -> np.ndarray:
        """Mean of per-tree class probabilities, shape ``(n, 2)``."""
        self._check_fitted()
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._n_features:
            raise ValueError(
                f"expected matrix with {self._n_features} features, got {x.shape}"
            )
        total = np.zeros((len(x), 2))
        for start in range(0, len(x), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            p1 = self._leaf_probabilities(x[rows], self._roots)
            # A running sum down the tree axis adds tree by tree in fit
            # order: the same floats as accumulating each tree's
            # [1 - p1, p1] into a zeroed total.
            total[rows, 1] = np.cumsum(p1, axis=0)[-1]
            total[rows, 0] = np.cumsum(1.0 - p1, axis=0)[-1]
        return total / len(self._roots)

    def predict(self, x) -> np.ndarray:
        """Majority-probability class at the 0.5 threshold."""
        return (self.predict_proba(x)[:, 1] >= 0.5).astype(int)

    def oob_score(self) -> float:
        """Out-of-bag accuracy (requires ``bootstrap=True``).

        Each sample is scored only by trees that did not see it; samples
        never out-of-bag are skipped.
        """
        self._check_fitted()
        if not self.bootstrap:
            raise RuntimeError("OOB score requires bootstrap sampling")
        n = len(self._train_x)
        votes = np.zeros(n)
        counts = np.zeros(n)
        for tree_index, oob in enumerate(self._oob_indices):
            if oob.size == 0:
                continue
            roots = self._roots[tree_index : tree_index + 1]
            votes[oob] += self._leaf_probabilities(self._train_x[oob], roots)[0]
            counts[oob] += 1
        seen = counts > 0
        if not seen.any():
            raise RuntimeError("no out-of-bag samples; add trees or data")
        predictions = (votes[seen] / counts[seen]) >= 0.5
        return float((predictions.astype(int) == self._train_y[seen]).mean())

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances (normalized to sum to 1).

        A lightweight proxy for impurity-decrease importances: how often
        each feature is chosen for a split across the forest, weighted by
        the number of samples at the split node.
        """
        self._check_fitted()
        importances = np.zeros(self._n_features)
        internal = self._left != np.arange(len(self._left))
        np.add.at(importances, self._feature[internal], self._samples[internal])
        total = importances.sum()
        return importances / total if total > 0 else importances
