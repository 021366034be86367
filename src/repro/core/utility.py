"""Utility models: content utility, presentation utility and their blend.

Section III-A defines the utility of a notification as

    U(i, j) = U_c(i) x U_p(i, j)                                   (Eq. 1)

where ``U_c`` is the *content utility* -- the probability that the user
consumes item *i* given its features -- and ``U_p`` is the *presentation
utility* of showing the item at level *j*.

Content utility is learned: the paper trains a Random Forest on Spotify
click/hover logs and maps the classifier's confidence into a probability:

    U_c(i) = Pr(x_i = 1)      if the predicted class is "clicked"
    U_c(i) = 1 - Pr(x_i = 0)  otherwise

Both branches equal the predicted probability of the "clicked" class, which
is how :class:`LearnedContentUtility` computes it.

Presentation utility comes from user surveys; this module consumes any
callable or ladder-backed model (see :mod:`repro.core.presentations` and
:mod:`repro.survey`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.core.content import ContentItem


class ContentUtilityModel(Protocol):
    """Anything that can score ``U_c(i)`` for a content item."""

    def content_utility(self, item: ContentItem) -> float:
        """Return ``U_c(i)`` in [0, 1]."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class OracleContentUtility:
    """Ground-truth-backed utility for ablation experiments.

    Scores clicked items at ``high`` and unclicked at ``low``.  Useful to
    separate scheduling effects from classifier error.
    """

    high: float = 0.9
    low: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")

    def content_utility(self, item: ContentItem) -> float:
        return self.high if item.clicked else self.low


class LearnedContentUtility:
    """``U_c`` backed by a trained classifier with ``predict_proba``.

    Parameters
    ----------
    classifier:
        Any object exposing ``predict_proba(X) -> array of shape (n, 2)``
        with column 1 the probability of the "clicked" class (the interface
        of :class:`repro.ml.forest.RandomForestClassifier`).
    featurizer:
        Maps a :class:`ContentItem` to its feature vector, matching the
        feature layout the classifier was trained with (see
        :class:`repro.ml.dataset.FeatureExtractor`).
    """

    def __init__(self, classifier, featurizer) -> None:
        self._classifier = classifier
        self._featurizer = featurizer

    def content_utility(self, item: ContentItem) -> float:
        features = self._featurizer.features_for_item(item)
        proba = self._classifier.predict_proba([features])[0]
        clicked_probability = float(proba[1])
        if not 0.0 <= clicked_probability <= 1.0:
            raise ValueError(
                f"classifier produced probability {clicked_probability} outside [0, 1]"
            )
        return clicked_probability

    def annotate(self, items: Sequence[ContentItem]) -> None:
        """Batch-score items, writing ``item.content_utility`` in place."""
        if not items:
            return
        matrix = [self._featurizer.features_for_item(item) for item in items]
        clicked = np.asarray(self._classifier.predict_proba(matrix), dtype=float)[:, 1]
        outside = ~((clicked >= 0.0) & (clicked <= 1.0))
        if outside.any():
            raise ValueError(
                f"classifier produced probability {clicked[outside][0]} outside [0, 1]"
            )
        for item, probability in zip(items, clicked):
            item.content_utility = float(probability)


@dataclass(frozen=True)
class ExponentialAging:
    """Recency decay of content utility (the paper's "aging factor").

    ``U_c`` is multiplied by ``exp(-age / tau)`` where ``age`` is the time
    since the item was created.  ``tau`` is the mean lifetime in seconds.
    Section III-A lists recency among the content-utility features; we expose
    it as an explicit post-hoc decay so schedulers can re-age queued items
    every round.
    """

    tau_seconds: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.tau_seconds <= 0:
            raise ValueError("tau must be positive")

    def decay(self, base_utility: float, age_seconds: float) -> float:
        if age_seconds < 0:
            raise ValueError("age must be >= 0")
        return base_utility * math.exp(-age_seconds / self.tau_seconds)


class AgingPolicy(Protocol):
    """Any recency-decay rule: exponential, linear, step-deadline..."""

    def decay(self, base_utility: float, age_seconds: float) -> float:
        """Return the decayed utility of ``base_utility`` at ``age_seconds``."""
        ...  # pragma: no cover - protocol


@dataclass
class CombinedUtilityModel:
    """Blends content and presentation utility per Eq. 1, with optional aging.

    This is the object the schedulers consult.  ``utility(item, level, now)``
    returns ``U(i, j)`` -- when ``aging`` is set the content component is
    decayed by the item's age at time ``now``.
    """

    aging: AgingPolicy | None = None

    def utility(self, item: ContentItem, level: int, now: float | None = None) -> float:
        content = item.content_utility
        if self.aging is not None and now is not None:
            age = max(0.0, now - item.created_at)
            content = self.aging.decay(content, age)
        return content * item.ladder.utility(level)

    def utilities_for_ladder(
        self, item: ContentItem, now: float | None = None
    ) -> list[float]:
        """``[U(i, 0), U(i, 1), ..., U(i, k_i)]`` for MCKP construction."""
        return [
            self.utility(item, level, now)
            for level in range(item.ladder.max_level + 1)
        ]


@dataclass(frozen=True)
class LinearAging:
    """Linear recency decay: utility reaches zero at ``lifetime_seconds``.

    A harsher alternative to :class:`ExponentialAging` for content whose
    value expires outright (e.g. "friend is listening right now" feeds).
    Interchangeable with the other aging policies via ``decay()``.
    """

    lifetime_seconds: float = 24 * 3600.0

    def __post_init__(self) -> None:
        if self.lifetime_seconds <= 0:
            raise ValueError("lifetime must be positive")

    def decay(self, base_utility: float, age_seconds: float) -> float:
        if age_seconds < 0:
            raise ValueError("age must be >= 0")
        remaining = max(0.0, 1.0 - age_seconds / self.lifetime_seconds)
        return base_utility * remaining


@dataclass(frozen=True)
class StepDeadlineAging:
    """Full utility until a deadline, a residual fraction afterwards.

    Models the real-time/batch split of Section II: a friend-feed
    notification is worth full value while the friend is plausibly still
    listening, and only archival value afterwards.
    """

    deadline_seconds: float = 2 * 3600.0
    residual_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 <= self.residual_fraction <= 1.0:
            raise ValueError("residual fraction must be in [0, 1]")

    def decay(self, base_utility: float, age_seconds: float) -> float:
        if age_seconds < 0:
            raise ValueError("age must be >= 0")
        if age_seconds <= self.deadline_seconds:
            return base_utility
        return base_utility * self.residual_fraction
