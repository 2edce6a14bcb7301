"""Scoring candidate problem constructions before any model ships.

Three checks: how much traffic the positive class can ever touch, whether a
simple learner beats trivial baselines on the constructed target, and
whether the labeled subpopulation is distinguishable from the rest of the
observation space (selection bias). The learners here are deliberately
small and fully deterministic: standardized full-batch logistic regression,
a depth-1 decision stump, and the two trivial baselines.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .ingest import TabularDataset, _ArrayFieldsEq


@dataclass(frozen=True)
class LogisticConfig:
    epochs: int = 500
    learning_rate: float = 0.1

    def __post_init__(self) -> None:
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral) or self.epochs < 1:
            raise PreconditionError(f"logistic epochs must be an integer >= 1, got {self.epochs!r}")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0.0 < rate < math.inf:
            raise PreconditionError(f"logistic learning_rate must be a finite number > 0, got {rate!r}")


DEFAULT_LOGISTIC = LogisticConfig()


@dataclass(frozen=True, eq=False)
class LogisticModel(_ArrayFieldsEq):
    """Logistic regression trained on standardized features.

    Standardization statistics are stored so prediction accepts raw
    features; constant columns are dropped at fit time and ignored after.
    """

    weights: np.ndarray  # one weight per kept feature
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    kept: np.ndarray  # boolean mask over the original feature columns

    def decision_values(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)[:, self.kept]
        z = (x - self.feature_means) / self.feature_stds
        return z @ self.weights + self.bias

    def predict_proba(self, features) -> np.ndarray:
        return 0.5 + 0.5 * np.tanh(self.decision_values(features) / 2)


@dataclass(frozen=True)
class DecisionStump:
    """Single-feature threshold rule: predict 1 when polarity * x exceeds polarity * threshold."""

    feature: int
    threshold: float
    polarity: int  # +1 or -1

    def predict_proba(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)[:, self.feature]
        return (self.polarity * x > self.polarity * self.threshold).astype(np.float64)


@dataclass(frozen=True)
class ClassBalance:
    positive_proportion: float
    n: int
    note: str


def class_balance(target) -> ClassBalance:
    """Positive-class proportion, the ceiling on treatable traffic."""
    y = np.asarray(target)
    if y.size == 0:
        raise PreconditionError("target vector is empty")
    if not np.isin(y, (0, 1)).all():
        raise PreconditionError("target must be binary {0, 1}")
    p = float(y.mean())
    if p == 0.0:
        note = "no impacted traffic: no observation would ever be treated"
    elif p == 1.0:
        note = "every observation treated: a constant treatment needs no model"
    else:
        note = (
            f"at most {p:.1%} of traffic is impacted; feed this rate into the "
            "experiment power calculator to size the validating test"
        )
    return ClassBalance(p, int(y.size), note)


def auc(scores, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic, ties counted half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise PreconditionError("scores and labels must be equal-length vectors")
    if not np.isin(y, (0, 1)).all():
        raise PreconditionError("labels must be binary {0, 1}")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise PreconditionError("both classes must be present to compute AUC")
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    boundary = np.empty(len(xs), dtype=bool)
    boundary[0] = True
    boundary[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, len(xs)))
    group_rank = starts + (sizes - 1) / 2.0 + 1.0
    ranks = np.empty(len(xs), dtype=np.float64)
    ranks[order] = np.repeat(group_rank, sizes)
    return ranks


def _columnwise_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mann-Whitney AUC per column of (scores, labels).

    Returns the AUC vector plus a mask of columns where both classes were
    present (elsewhere the AUC is reported as 0.5 but masked out).
    """
    m, c = scores.shape
    ranks = np.empty((m, c), dtype=np.float64)
    for j in range(c):
        ranks[:, j] = _average_ranks(scores[:, j].astype(np.float64))
    y = labels.astype(np.float64)
    n_pos = y.sum(axis=0)
    n_neg = m - n_pos
    defined = (n_pos > 0) & (n_neg > 0)
    denom = np.where(defined, n_pos * n_neg, 1.0)
    u = (ranks * y).sum(axis=0) - n_pos * (n_pos + 1) / 2.0
    return np.where(defined, u / denom, 0.5), defined


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    kept = stds > 0.0
    z = (x[:, kept] - means[kept]) / stds[kept]
    return z, means[kept], stds[kept], kept


def _check_training_input(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise PreconditionError("features must be (n, d) with one label per row")
    if x.shape[0] < 2:
        raise PreconditionError("training needs at least 2 rows")
    if not np.isfinite(x).all():
        raise PreconditionError("features must be finite")
    if len(np.unique(y)) < 2:
        raise PreconditionError("training needs both classes present")


def _with_ones(z: np.ndarray, dtype) -> np.ndarray:
    """Design matrix: standardized features plus a trailing ones column for the bias."""
    return np.hstack([z, np.ones((z.shape[0], 1))]).astype(dtype)


def _fit_logistic(xb: np.ndarray, ys: np.ndarray, logistic: LogisticConfig) -> np.ndarray:
    """Full-batch gradient descent on log loss, one model per label column.

    ``xb`` is a design matrix from ``_with_ones`` (the last weight is the
    bias); ``ys`` holds one {0,1} label vector per column. Weights start at
    zero and training runs in the dtype of the inputs with preallocated
    buffers: float32 for the bias probe's hundreds of permutation refits,
    float64 for a single model. Returns the weight matrix, one column per
    label column.
    """
    # with sigmoid(t) = 1/2 + tanh(t/2)/2 the gradient xb.T @ (sigmoid(xb @ w) - ys)
    # is half.T @ tanh(half @ w) + xb.T @ (1/2 - ys), whose second term is fixed
    w = np.zeros((xb.shape[1], ys.shape[1]), dtype=xb.dtype)
    z = np.empty((xb.shape[0], ys.shape[1]), dtype=xb.dtype)
    half = xb * 0.5  # exact for normal floats: halving only lowers the exponent
    const = xb.T @ np.subtract(0.5, ys, out=z)  # z is free until the loop
    step = xb.dtype.type(logistic.learning_rate / xb.shape[0])
    for _ in range(logistic.epochs):
        np.matmul(half, w, out=z)
        np.tanh(z, out=z)
        g = half.T @ z
        g += const
        w -= step * g
    return w


def train_logistic(dataset: TabularDataset, config: LogisticConfig = DEFAULT_LOGISTIC) -> LogisticModel:
    """Full-batch gradient descent on log loss, zero-initialized, standardized features."""
    x, y = dataset.rows, dataset.target
    _check_training_input(x, y)
    z, means, stds, kept = _standardize(x)
    w = _fit_logistic(_with_ones(z, np.float64), y[:, None].astype(np.float64), config)[:, 0]
    return LogisticModel(w[:-1], w[-1], means, stds, kept)


def train_stump(dataset: TabularDataset) -> DecisionStump:
    """Best single-feature threshold split by training accuracy.

    Ties break to the lowest feature index, then the lowest threshold, then
    polarity +1. With no splittable feature the stump degenerates to a
    constant majority prediction.
    """
    x, y = dataset.rows, dataset.target
    _check_training_input(x, y)
    n = len(y)
    n_pos = int(y.sum())
    # constant-majority fallback for the no-splittable-feature case
    best_acc = max(n_pos, n - n_pos) / n
    best = (0, -np.inf, 1 if n_pos >= n - n_pos else -1)
    best_is_split = False
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        pos_left = np.cumsum(y[order])  # positives with value <= xs[i]
        for i in np.flatnonzero(xs[1:] > xs[:-1]):
            thr = (xs[i] + xs[i + 1]) / 2.0
            # polarity +1: predict 1 for x > thr
            correct_hi = (n_pos - pos_left[i]) + ((i + 1) - pos_left[i])
            for polarity, correct in ((1, correct_hi), (-1, n - correct_hi)):
                acc = correct / n
                if acc > best_acc or (not best_is_split and acc == best_acc):
                    best_acc = acc
                    best = (j, thr, polarity)
                    best_is_split = True
    return DecisionStump(best[0], float(best[1]), best[2])


def _fold_indices(n: int, folds: int, seed) -> list[np.ndarray]:
    """Seeded shuffle split; ``seed`` may also be an existing Generator."""
    if folds < 2:
        raise PreconditionError("folds must be >= 2")
    if folds > n:
        raise PreconditionError(f"cannot split {n} rows into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def _out_of_fold_aucs(
    x: np.ndarray, labels: np.ndarray, folds: list[np.ndarray], logistic: LogisticConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Fit every label column on each fold's training rows and score its test rows.

    Each training split is standardized on its own statistics; fitting and
    scoring run in the dtype of ``labels``. Returns the per-column AUCs of
    the test decision values and the both-classes-present mask (see
    ``_columnwise_auc``), one row per fold.
    """
    aucs, defined = [], []
    for test_idx in folds:
        train = np.ones(len(x), dtype=bool)
        train[test_idx] = False
        z, means, stds, kept = _standardize(x[train])
        w = _fit_logistic(_with_ones(z, labels.dtype), labels[train], logistic)
        z_test = (x[np.ix_(test_idx, np.flatnonzero(kept))] - means) / stds
        fold_auc, both = _columnwise_auc(_with_ones(z_test, labels.dtype) @ w, labels[test_idx])
        aucs.append(fold_auc)
        defined.append(both)
    return np.array(aucs), np.array(defined)


@dataclass(frozen=True)
class LearnabilityReport:
    """Out-of-fold performance of the simple model against trivial baselines."""

    logistic_auc: float  # mean out-of-fold AUC
    gap: float  # logistic_auc - 0.5 (random baseline AUC)
    random_baseline_auc: float
    majority_accuracy: float
    stump_auc: float | None
    fold_aucs: tuple[float, ...]
    skipped_folds: tuple[dict, ...]
    folds: int
    seed: int


def learnability_gap(
    dataset: TabularDataset,
    folds: int = 5,
    seed: int = 0,
    logistic: LogisticConfig = DEFAULT_LOGISTIC,
) -> LearnabilityReport:
    """Cross-validated edge of the simple model over the trivial baselines.

    Folds are a seeded shuffle split. A fold whose train or test part is
    single-class is reported and skipped; if every fold is skipped the
    dataset cannot support the check and an error is raised.
    """
    x, y = dataset.rows, dataset.target
    _check_training_input(x, y)
    fitted: list[np.ndarray] = []
    stump_aucs: list[float] = []
    skipped: list[dict] = []
    for k, test_idx in enumerate(_fold_indices(len(y), folds, seed)):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        y_train, y_test = y[train_mask], y[test_idx]
        if len(np.unique(y_train)) < 2 or len(np.unique(y_test)) < 2:
            skipped.append({"fold": k, "reason": "single-class train or test split"})
            continue
        fitted.append(test_idx)
        stump = train_stump(TabularDataset(dataset.feature_names, x[train_mask], y_train))
        stump_aucs.append(auc(stump.predict_proba(x[test_idx]), y_test))
    if not fitted:
        raise PreconditionError("every fold was single-class; cannot estimate learnability")
    fold_aucs = _out_of_fold_aucs(x, y[:, None].astype(np.float64), fitted, logistic)[0][:, 0].tolist()
    mean_auc = float(np.mean(fold_aucs))
    positive_rate = float(y.mean())
    return LearnabilityReport(
        logistic_auc=mean_auc,
        gap=mean_auc - 0.5,
        random_baseline_auc=0.5,
        majority_accuracy=max(positive_rate, 1.0 - positive_rate),
        stump_auc=float(np.mean(stump_aucs)),
        fold_aucs=tuple(fold_aucs),
        skipped_folds=tuple(skipped),
        folds=folds,
        seed=seed,
    )


class BiasSeverity(enum.Enum):
    NONE = "NONE"
    MILD = "MILD"
    SEVERE = "SEVERE"


@dataclass(frozen=True)
class BiasCutoffs:
    """Decision rule mapping (AUC, permutation p) to a severity level.

    These cutoffs are conventions; they surface in every report that uses
    them.
    """

    severe_auc: float = 0.75
    severe_p: float = 0.01
    mild_auc: float = 0.60
    mild_p: float = 0.05


DEFAULT_BIAS_CUTOFFS = BiasCutoffs()


@dataclass(frozen=True)
class BiasReport:
    auc: float
    permutation_p: float
    n_labeled: int
    n_unlabeled: int
    severity: BiasSeverity
    permutations: int
    folds: int
    seed: int
    fold_aucs: tuple[float, ...] = field(default=())


def check_probe_settings(permutations: int) -> None:
    """Raise PreconditionError unless ``bias_severity`` can run this many permutations."""
    if permutations < 1:
        raise PreconditionError("permutations must be >= 1")


def bias_severity(
    features,
    has_label,
    folds: int = 5,
    permutations: int = 200,
    seed: int = 0,
    cutoffs: BiasCutoffs = DEFAULT_BIAS_CUTOFFS,
    logistic: LogisticConfig = DEFAULT_LOGISTIC,
) -> BiasReport:
    """Probe how separable the labeled subpopulation is from the rest.

    A logistic classifier predicts label availability from the features;
    its out-of-fold AUC (mean over folds, matching ``learnability_gap``) is
    compared against refits on ``permutations`` shuffled availability
    vectors. The permutation p-value is (b + 1) / (m + 1), where b of the m
    scorable shuffled refits reach the observed AUC (Phipson & Smyth 2010):
    it is never 0, and never below 1 / (permutations + 1), so a cutoff under
    that floor cannot be met. High AUC with a small p-value means the
    labeled rows are systematically different, so metrics computed on them
    will not transfer.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(has_label).astype(np.int8)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise PreconditionError("features must be (n, d) with one availability flag per row")
    if not np.isfinite(x).all():
        raise PreconditionError("features must be finite")
    n = len(y)
    n_labeled = int(y.sum())
    if n_labeled == 0 or n_labeled == n:
        raise PreconditionError("need both labeled and unlabeled observations")
    check_probe_settings(permutations)

    rng = np.random.default_rng(seed)
    fold_idx = _fold_indices(n, folds, rng)  # consumes the first draw of the stream
    labels = np.empty((n, permutations + 1), dtype=np.float32)
    labels[:, 0] = y
    for j in range(1, permutations + 1):
        labels[:, j] = y[rng.permutation(n)]

    aucs, defined = _out_of_fold_aucs(x, labels, fold_idx, logistic)
    # a permuted column with no valid fold cannot be scored; drop it from the null
    valid = defined.any(axis=0)
    if not valid[0]:
        raise PreconditionError("no fold had both availability classes; cannot estimate the probe AUC")
    scored = np.where(defined, aucs, 0.0).sum(axis=0)[valid] / defined.sum(axis=0)[valid]
    observed, null = float(scored[0]), scored[1:]
    p_value = (int((null >= observed).sum()) + 1) / (null.size + 1)
    if observed >= cutoffs.severe_auc and p_value <= cutoffs.severe_p:
        severity = BiasSeverity.SEVERE
    elif observed >= cutoffs.mild_auc and p_value <= cutoffs.mild_p:
        severity = BiasSeverity.MILD
    else:
        severity = BiasSeverity.NONE
    return BiasReport(
        auc=observed,
        permutation_p=p_value,
        n_labeled=n_labeled,
        n_unlabeled=n - n_labeled,
        severity=severity,
        permutations=permutations,
        folds=folds,
        seed=seed,
        fold_aucs=tuple(aucs[defined[:, 0], 0].tolist()),
    )

