"""Seeded data generators shared across the test modules."""

from __future__ import annotations

import numpy as np

from scorescope.ingest import PairedPredictions, ScoreRecord, dataset_from_arrays


def bimodal_scores(n: int, seed: int) -> np.ndarray:
    """Well separated two-class shape: equal mix of Beta(2,8) and Beta(8,2)."""
    rng = np.random.default_rng(seed)
    low = rng.beta(2, 8, n)
    high = rng.beta(8, 2, n)
    return np.where(rng.random(n) < 0.5, low, high)


def central_scores(n: int, seed: int) -> np.ndarray:
    """Indecisive model: Beta(5,5), a single hump at 0.5."""
    return np.random.default_rng(seed).beta(5, 5, n)


def spike_scores(n: int, seed: int, spike_value: float = 0.0, share: float = 0.95) -> np.ndarray:
    """A dominant point mass over a thin uniform background."""
    rng = np.random.default_rng(seed)
    k = int(round(share * n))
    scores = np.concatenate([np.full(k, spike_value), rng.random(n - k)])
    rng.shuffle(scores)
    return scores


def noise_scores(seed: int, n: int = 200) -> np.ndarray:
    """Sparse-model look: too few uniform samples for 100 bins."""
    return np.random.default_rng(seed).random(n)


def score_records(scores, model_id: str = "m1", **extra) -> list[ScoreRecord]:
    return [ScoreRecord(model_id, ts, float(s), **extra) for ts, s in enumerate(scores)]


def separable_dataset(n: int = 100, seed: int = 0, margin: float = 1.0):
    """Linearly separable on x1 with the given margin; x2 is noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(int)
    if y.sum() in (0, n):  # keep both classes for tiny n
        y[0] = 1 - y[0]
    sign = np.where(y == 1, 1.0, -1.0)
    x1 = sign * (margin / 2 + rng.exponential(1.0, n))
    x2 = rng.normal(size=n)
    return dataset_from_arrays(("x1", "x2"), np.column_stack([x1, x2]), y)


def null_dataset(n: int = 200, seed: int = 0):
    """Labels independent of both features."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (rng.random(n) < 0.5).astype(int)
    if y.sum() in (0, n):
        y[0] = 1 - y[0]
    return dataset_from_arrays(("x1", "x2"), x, y)


def independent_availability(n: int, seed: int):
    """Features plus a coin-flip availability flag (no selection bias)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    has = (rng.random(n) < 0.5).astype(int)
    while has.sum() in (0, n):
        has = (rng.random(n) < 0.5).astype(int)
    return x, has


def median_split_availability(n: int, seed: int):
    """Availability deterministically follows feature 1 (severe bias)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    has = (x[:, 0] > np.median(x[:, 0])).astype(int)
    return x, has


def paired(pred_a, pred_b, labels=None) -> PairedPredictions:
    """Paired-prediction columns, unlabeled (-1) unless ``labels`` is given."""
    n = len(pred_a)
    return PairedPredictions(
        np.asarray(pred_a, dtype=np.float64),
        np.asarray(pred_b, dtype=np.float64),
        np.full(n, -1, dtype=np.int8) if labels is None else np.asarray(labels, dtype=np.int8),
    )


def corrected_pairs(n: int = 1000, wrong_a: float = 0.2, wrong_b_given_a_right: float = 0.125) -> PairedPredictions:
    """Pairs where model B fixes all of A's errors and errs on a slice A gets right.

    With wrong_a = 0.2 and B wrong on 100 of A's 800 correct cases, exactly
    30% of pairs disagree and the accuracies are 0.8 and 0.9.
    """
    n_a_wrong = int(round(wrong_a * n))
    n_b_wrong = int(round(wrong_b_given_a_right * (n - n_a_wrong)))
    pred_a, pred_b = [], []
    for i in range(n):
        if i < n_a_wrong:
            a, b = 0.0, 1.0  # A wrong, B corrects it
        elif i < n_a_wrong + n_b_wrong:
            a, b = 1.0, 0.0  # A right, B wrong
        else:
            a, b = 1.0, 1.0
        pred_a.append(a)
        pred_b.append(b)
    return paired(pred_a, pred_b, labels=[1] * n)
