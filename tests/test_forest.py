"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.ml.forest import _BLOCK_ROWS, RandomForestClassifier


def noisy_data(n=400, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 5))
    logit = 4 * (x[:, 0] - 0.5) + 2 * (x[:, 1] - 0.5)
    p = 1 / (1 + np.exp(-logit))
    y = (rng.uniform(size=n) < p).astype(int)
    return x, y


class TestValidation:
    def test_needs_at_least_one_tree(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict([[1.0]])

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit([[1.0], [2.0]], [0])

    def test_predict_rejects_wrong_shape(self):
        x, y = noisy_data(n=100)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(x, y)
        for bad in (x[:, :4], np.hstack([x, x[:, :1]]), x[0], x[None]):
            with pytest.raises(ValueError):
                forest.predict_proba(bad)

    def test_predict_zero_rows(self):
        x, y = noisy_data(n=100)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(x, y)
        proba = forest.predict_proba(np.empty((0, 5)))
        assert proba.shape == (0, 2)


class TestLearning:
    def test_beats_chance_on_noisy_data(self):
        x, y = noisy_data()
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=6, random_state=0
        ).fit(x, y)
        assert (forest.predict(x) == y).mean() > 0.7

    def test_probabilities_valid(self):
        x, y = noisy_data()
        proba = (
            RandomForestClassifier(n_estimators=10, max_depth=4, random_state=0)
            .fit(x, y)
            .predict_proba(x)
        )
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_deterministic_under_seed(self):
        x, y = noisy_data()
        p1 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        p2 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        assert np.array_equal(p1, p2)

    def test_different_seeds_differ(self):
        x, y = noisy_data()
        p1 = (
            RandomForestClassifier(n_estimators=5, random_state=3)
            .fit(x, y)
            .predict_proba(x)
        )
        p2 = (
            RandomForestClassifier(n_estimators=5, random_state=4)
            .fit(x, y)
            .predict_proba(x)
        )
        assert not np.array_equal(p1, p2)

    def test_ensemble_smoother_than_single_tree(self):
        """Forest probabilities take more distinct values than one tree's."""
        x, y = noisy_data()
        single = RandomForestClassifier(n_estimators=1, max_depth=3, random_state=0)
        many = RandomForestClassifier(n_estimators=30, max_depth=3, random_state=0)
        p_single = single.fit(x, y).predict_proba(x)[:, 1]
        p_many = many.fit(x, y).predict_proba(x)[:, 1]
        assert len(np.unique(p_many)) > len(np.unique(p_single))


class TestOob:
    def test_oob_score_reasonable(self):
        x, y = noisy_data(n=500)
        forest = RandomForestClassifier(
            n_estimators=25, max_depth=6, random_state=0
        ).fit(x, y)
        assert 0.6 < forest.oob_score() <= 1.0

    def test_oob_requires_bootstrap(self):
        x, y = noisy_data(n=100)
        forest = RandomForestClassifier(
            n_estimators=3, bootstrap=False, random_state=0
        ).fit(x, y)
        with pytest.raises(RuntimeError):
            forest.oob_score()


class TestFeatureImportances:
    def test_informative_features_rank_highest(self):
        x, y = noisy_data(n=600)
        forest = RandomForestClassifier(
            n_estimators=20, max_depth=5, random_state=0
        ).fit(x, y)
        importances = forest.feature_importances()
        assert importances.shape == (5,)
        assert importances.sum() == pytest.approx(1.0)
        # Feature 0 carries twice the signal of feature 1; 2-4 are noise.
        assert importances[0] == max(importances)
        assert importances[0] > importances[2]
        assert importances[0] > importances[3]


def reference_proba(forest, x):
    """Scalar walk of each tree's node table, summed as the forest sums."""
    total = np.zeros((len(x), 2))
    for tree in forest._trees:
        for i, row in enumerate(x):
            node = 0
            while tree.left[node] != node:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            p1 = tree.probability[node]
            total[i] += (1.0 - p1, p1)
    return total / len(forest._trees)


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLevelWalk:
    """The blocked whole-forest walk against a scalar per-row walk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unbounded_depth_trees_of_unequal_depth(self, seed):
        x, y = noisy_data(n=300, seed=seed)
        forest = RandomForestClassifier(n_estimators=6, random_state=seed).fit(x, y)
        assert len({tree.depth() for tree in forest._trees}) > 1
        queries = np.random.default_rng(seed).uniform(0, 1, size=(500, 5))
        assert_bit_identical(forest.predict_proba(queries), reference_proba(forest, queries))

    def test_single_tree_and_single_row(self):
        x, y = noisy_data(n=200, seed=4)
        forest = RandomForestClassifier(n_estimators=1, max_depth=5, random_state=4).fit(x, y)
        queries = np.random.default_rng(4).uniform(0, 1, size=(200, 5))
        assert_bit_identical(forest.predict_proba(queries), reference_proba(forest, queries))
        row = queries[:1]
        assert_bit_identical(forest.predict_proba(row), reference_proba(forest, row))

    def test_rows_on_a_threshold_go_left_and_nan_goes_right(self):
        x, y = noisy_data(n=300, seed=5)
        forest = RandomForestClassifier(n_estimators=1, max_depth=1, random_state=5).fit(x, y)
        (tree,) = forest._trees
        assert tree.node_count() == 3
        row = np.full((1, 5), 0.5)
        row[0, tree.feature[0]] = tree.threshold[0]
        assert forest.predict_proba(row)[0, 1] == tree.probability[tree.left[0]]
        row[0, tree.feature[0]] = np.nan
        assert forest.predict_proba(row)[0, 1] == tree.probability[tree.right[0]]

    @pytest.mark.parametrize("seed", [6, 7])
    def test_thresholds_nans_and_several_blocks(self, seed):
        rng = np.random.default_rng(seed)
        x, y = noisy_data(n=250, seed=seed)
        forest = RandomForestClassifier(n_estimators=4, max_depth=6, random_state=seed).fit(x, y)
        queries = rng.uniform(0, 1, size=(2 * _BLOCK_ROWS + 17, 5))
        # Put cells exactly on split thresholds of the forest's own trees.
        for tree in forest._trees:
            internal = np.flatnonzero(tree.left != np.arange(tree.node_count()))
            rows = rng.integers(0, len(queries), size=(len(internal), 40))
            queries[rows, tree.feature[internal][:, None]] = tree.threshold[internal][:, None]
        queries[rng.uniform(size=queries.shape) < 0.05] = np.nan
        assert_bit_identical(forest.predict_proba(queries), reference_proba(forest, queries))
