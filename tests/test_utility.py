"""Tests for the utility models (Eq. 1, learned U_c, aging)."""

import math

import pytest

from repro.core.content import ContentItem, ContentKind
from repro.core.presentations import build_audio_ladder
from repro.core.utility import (
    CombinedUtilityModel,
    ExponentialAging,
    LearnedContentUtility,
    OracleContentUtility,
)


def make_item(content_utility=0.5, clicked=False, created_at=0.0):
    return ContentItem(
        item_id=1,
        user_id=1,
        kind=ContentKind.FRIEND_FEED,
        created_at=created_at,
        ladder=build_audio_ladder(),
        content_utility=content_utility,
        clicked=clicked,
    )


class TestOracleContentUtility:
    def test_scores_by_ground_truth(self):
        oracle = OracleContentUtility(high=0.9, low=0.1)
        assert oracle.content_utility(make_item(clicked=True)) == 0.9
        assert oracle.content_utility(make_item(clicked=False)) == 0.1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            OracleContentUtility(high=0.2, low=0.5)


class _StubClassifier:
    """predict_proba returning a fixed clicked-probability."""

    def __init__(self, p):
        self.p = p

    def predict_proba(self, x):
        return [[1 - self.p, self.p] for _ in x]


class _StubFeaturizer:
    def features_for_item(self, item):
        return [0.0]


class TestLearnedContentUtility:
    def test_returns_clicked_probability(self):
        model = LearnedContentUtility(_StubClassifier(0.7), _StubFeaturizer())
        assert model.content_utility(make_item()) == pytest.approx(0.7)

    def test_paper_mapping_equivalence(self):
        """U_c = Pr(x=1) if predicted clicked else 1 - Pr(x=0).

        Both branches equal the clicked-class probability; check at a value
        below and above the 0.5 decision threshold.
        """
        for p in (0.2, 0.8):
            model = LearnedContentUtility(_StubClassifier(p), _StubFeaturizer())
            predicted_clicked = p >= 0.5
            expected = p if predicted_clicked else 1 - (1 - p)
            assert model.content_utility(make_item()) == pytest.approx(expected)

    def test_rejects_out_of_range_probability(self):
        model = LearnedContentUtility(_StubClassifier(1.5), _StubFeaturizer())
        with pytest.raises(ValueError):
            model.content_utility(make_item())

    def test_annotate_batch(self):
        model = LearnedContentUtility(_StubClassifier(0.3), _StubFeaturizer())
        items = [make_item(), make_item()]
        model.annotate(items)
        assert all(item.content_utility == pytest.approx(0.3) for item in items)

    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
    def test_annotate_rejects_out_of_range_probability(self, p):
        model = LearnedContentUtility(_StubClassifier(p), _StubFeaturizer())
        items = [make_item(), make_item()]
        with pytest.raises(ValueError):
            model.annotate(items)
        assert [item.content_utility for item in items] == [0.5, 0.5]

    def test_annotate_checks_every_row_before_writing(self):
        class _LastRowBad(_StubClassifier):
            def predict_proba(self, x):
                rows = super().predict_proba(x)
                rows[-1] = [-1.0, 2.0]
                return rows

        model = LearnedContentUtility(_LastRowBad(0.3), _StubFeaturizer())
        items = [make_item(), make_item(), make_item()]
        with pytest.raises(ValueError):
            model.annotate(items)
        assert [item.content_utility for item in items] == [0.5, 0.5, 0.5]

    def test_annotate_empty_is_noop(self):
        model = LearnedContentUtility(_StubClassifier(0.3), _StubFeaturizer())
        model.annotate([])  # must not raise


class TestExponentialAging:
    def test_no_decay_at_zero_age(self):
        aging = ExponentialAging(tau_seconds=3600)
        assert aging.decay(0.8, 0.0) == pytest.approx(0.8)

    def test_one_tau_decays_to_1_over_e(self):
        aging = ExponentialAging(tau_seconds=3600)
        assert aging.decay(1.0, 3600.0) == pytest.approx(math.exp(-1))

    def test_negative_age_rejected(self):
        aging = ExponentialAging(tau_seconds=3600)
        with pytest.raises(ValueError):
            aging.decay(1.0, -1.0)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            ExponentialAging(tau_seconds=0)


class TestCombinedUtilityModel:
    def test_eq1_product(self):
        model = CombinedUtilityModel()
        item = make_item(content_utility=0.5)
        assert model.utility(item, 6) == pytest.approx(0.5 * 1.0)
        assert model.utility(item, 0) == 0.0

    def test_aging_applied_to_content_component(self):
        model = CombinedUtilityModel(aging=ExponentialAging(tau_seconds=3600))
        item = make_item(content_utility=0.5, created_at=0.0)
        fresh = model.utility(item, 6, now=0.0)
        stale = model.utility(item, 6, now=3600.0)
        assert stale == pytest.approx(fresh * math.exp(-1))

    def test_no_now_skips_aging(self):
        model = CombinedUtilityModel(aging=ExponentialAging(tau_seconds=1.0))
        item = make_item(content_utility=0.5)
        assert model.utility(item, 6) == pytest.approx(0.5)

    def test_ladder_profile(self):
        model = CombinedUtilityModel()
        item = make_item(content_utility=1.0)
        profile = model.utilities_for_ladder(item)
        assert len(profile) == 7
        assert profile[0] == 0.0
        assert profile[-1] == pytest.approx(1.0)
        assert profile == sorted(profile)
