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
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .ingest import TabularDataset


_MAX_EPOCHS = 500  # the most updates a fit runs; only a fit that never meets _TOL runs them all
_TOL = 1e-4  # a column stops once its max |gradient| / rows is below this (scikit-learn's default)
_CUTOFF = 1e-6  # _bound_step drops Gram eigenvalues below this times the largest: near-duplicate features
_INF_KEY = 0x7F800000  # +inf's float32 bits, its sort key in _tie_split_rank_sums; NaN's bits lie past it


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
    value, defined = _columnwise_auc(s[:, None], y[:, None])
    if not defined[0]:
        raise PreconditionError("both classes must be present to compute AUC")
    return float(value[0])


def _columnwise_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mann-Whitney AUC per column of (scores, labels), ranking every column at once.

    Returns the AUC vector plus a mask of columns where both classes were
    present (elsewhere the AUC is reported as 0.5 but masked out).
    """
    m = len(scores)
    n_pos = labels.sum(axis=0, dtype=np.float64)
    n_neg = m - n_pos
    defined = (n_pos > 0) & (n_neg > 0)
    denom = np.where(defined, n_pos * n_neg, 1.0)
    # 0-based ranks, ties averaged; every sum is exact in float64
    u = _tie_split_rank_sums(scores, labels) - n_pos * (n_pos - 1) / 2.0
    return np.where(defined, u / denom, 0.5), defined


def _tie_split_rank_sums(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per column, the sum of the 0/1 labels times their 0-based ranks, ties averaged, from two plain sorts.

    A cell's key is an int64 in the order of its column's scores: a float32
    score's bits as an order-preserving integer, any other score's dense
    rank over the block. Either way -0.0 shares 0.0's key, and each NaN
    gets a key of its own past the rest, in row order, where a stable sort
    puts it. The key is shifted up one bit to hold the label. Sorted with
    negatives first within a tie, a tie's positives take its last
    positions; sorted with positives first, its first ones. The mean of the
    two position sums is the sum of their averaged ranks.
    """
    m = len(scores)
    if scores.dtype == np.float32:
        key = np.add(scores.T, np.float32(0.0), order="C").view(np.int32).astype(np.int64)  # -0.0 + 0.0 is 0.0
        nan = (key & 0x7FFFFFFF) > _INF_KEY  # magnitude bits past inf's
        key ^= (key >> 31) & 0x7FFFFFFF  # a negative score's magnitude bits reversed, so larger is lower
        past = _INF_KEY + 1
    else:
        distinct, key = np.unique(scores.T, return_inverse=True)  # -0.0 == 0.0; every NaN takes the last key
        key = key.reshape(scores.T.shape)
        nan = np.isnan(scores.T)
        past = len(distinct)
    if nan.any():
        key[nan] = past + nan.nonzero()[1]
    key <<= 1
    key |= labels.T.astype(np.int64)
    negatives_first = np.sort(key, axis=1) & 1
    key ^= 1
    positives_first = np.sort(key, axis=1) & 1  # a positive's bit is 0 here
    # sum of p over positives_first's 0 bits = sum of all p - sum over its 1 bits
    return ((negatives_first - positives_first) @ np.arange(m) + m * (m - 1) // 2) / 2.0


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


def _bound_step(xb: np.ndarray) -> np.ndarray:
    """4 (xb.T @ xb)^+ in the dtype of ``xb``, worked out in float64 from the Gram eigenvalues above ``_CUTOFF``.

    The log-loss Hessian never exceeds xb.T @ xb / 4, so a step ``-P @ g``
    lowers the loss whatever the data, separable too (Böhning & Lindsay
    1988); a dropped eigenvalue leaves the weights alone along its direction.
    """
    x = xb.astype(np.float64)
    vals, vecs = np.linalg.eigh(x.T @ x)
    kept = vals > _CUTOFF * vals[-1]
    return ((vecs[:, kept] * (4.0 / vals[kept])) @ vecs[:, kept].T).astype(xb.dtype)


def _fit_logistic(xb: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch log-loss fits, one model per label column, each update ``w -= _bound_step(xb) @ g``.

    ``xb`` is a design matrix from ``_with_ones`` (the last weight is the
    bias); ``ys`` holds one {0,1} label vector per column. Weights start at
    zero and training runs in the dtype of the inputs with preallocated
    buffers: float32 for the bias probe's hundreds of permutation refits,
    float64 for a single model. A column stops before the first update at
    which its gradient's largest entry is below ``_TOL`` times the row count,
    and leaves the batch; the others run on, to ``_MAX_EPOCHS`` at most. With
    ``_TOL`` 0 no column stops early. Returns the weight matrix, one column
    per label column, and the number of updates each column ran.
    """
    n, c = ys.shape
    # with sigmoid(t) = 1/2 + tanh(t/2)/2 the gradient xb.T @ (sigmoid(xb @ w) - ys)
    # is half.T @ tanh(half @ w) + xb.T @ (1/2 - ys), whose second term is fixed
    weights = np.empty((xb.shape[1], c), dtype=xb.dtype)
    ran = np.full(c, _MAX_EPOCHS)
    w = np.zeros_like(weights)
    buf = np.empty(n * c, dtype=xb.dtype)  # the live columns use its first n * k elements
    z = buf.reshape(n, c)
    half = xb * 0.5  # exact for normal floats: halving only lowers the exponent
    const = xb.T @ np.subtract(0.5, ys, out=z)  # z is free until the loop
    step = _bound_step(xb)
    limit = _TOL * n
    live = np.arange(c)  # the batch's columns, as columns of ``ys``
    for epoch in range(_MAX_EPOCHS):
        np.matmul(half, w, out=z)
        np.tanh(z, out=z)
        g = half.T @ z
        g += const
        flat = np.abs(g).max(axis=0) < limit
        if flat.any():
            weights[:, live[flat]] = w[:, flat]
            ran[live[flat]] = epoch
            live, w, g, const = live[~flat], w[:, ~flat], g[:, ~flat], const[:, ~flat]
            if not live.size:
                break
            z = buf[: n * live.size].reshape(n, live.size)
        w -= step @ g
    weights[:, live] = w
    return weights, ran


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
        splits = np.flatnonzero(xs[1:] > xs[:-1])
        if not splits.size:
            continue
        # polarity +1 predicts 1 for x > thr; each split's +1 count precedes its -1 count
        correct_hi = (n_pos - pos_left[splits]) + ((splits + 1) - pos_left[splits])
        correct = np.column_stack([correct_hi, n - correct_hi]).ravel()
        k = int(np.argmax(correct))  # the first best in that order
        acc = correct[k] / n
        if acc > best_acc or (not best_is_split and acc == best_acc):
            i = splits[k // 2]
            best_acc = acc
            best = (j, (xs[i] + xs[i + 1]) / 2.0, 1 - 2 * (k % 2))
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
    x: np.ndarray,
    labels: np.ndarray,
    folds: list[np.ndarray],
    floor: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit every label column on each fold's training rows and score its test rows.

    Each training split is standardized on its own statistics; fitting and
    scoring run in the dtype of ``labels``. Returns the per-column AUCs of
    the test decision values, the both-classes-present mask (see
    ``_columnwise_auc``) and the epochs each fit ran (0 where a column was
    not fitted), one row per fold.

    With a ``floor``, a column is fitted no further once its mean AUC cannot
    reach the floor even if every fold left scores 1: after each fold, with
    S the sum of its defined fold AUCs, C their count and r folds left, it
    drops out when (S + r) / (C + r) < floor - 1e-9; the margin keeps a
    column whose bound ties the floor but for rounding, since a tie can
    still reach it. Its later folds come back as not defined, so its mean
    over the defined folds is below the floor, as its mean over every fold
    would have been.
    """
    aucs = np.full((len(folds), labels.shape[1]), 0.5)
    defined = np.zeros(aucs.shape, dtype=bool)
    epochs = np.zeros(aucs.shape, dtype=int)
    cols = np.arange(labels.shape[1])  # the columns still fitted
    for k, test_idx in enumerate(folds):
        train = np.ones(len(x), dtype=bool)
        train[test_idx] = False
        z, means, stds, kept = _standardize(x[train])
        w, epochs[k, cols] = _fit_logistic(_with_ones(z, labels.dtype), labels[train][:, cols])
        z_test = (x[np.ix_(test_idx, np.flatnonzero(kept))] - means) / stds
        scores = _with_ones(z_test, labels.dtype) @ w
        aucs[k, cols], defined[k, cols] = _columnwise_auc(scores, labels[test_idx][:, cols])
        left = len(folds) - 1 - k
        if floor is not None and left:
            done = defined[:, cols]
            reach = (np.where(done, aucs[:, cols], 0.0).sum(axis=0) + left) / (done.sum(axis=0) + left)
            cols = cols[reach >= floor - 1e-9]
            if not cols.size:
                break
    return aucs, defined, epochs


@dataclass(frozen=True)
class LearnabilityReport:
    """Out-of-fold performance of the simple model against trivial baselines."""

    logistic_auc: float  # mean out-of-fold AUC
    gap: float  # logistic_auc - 0.5 (random baseline AUC)
    random_baseline_auc: float
    majority_accuracy: float
    stump_auc: float | None
    fold_aucs: tuple[float, ...]
    fold_epochs: tuple[int, ...]  # epochs each fold's fit ran; ``_MAX_EPOCHS`` means it never met ``_TOL``
    skipped_folds: tuple[dict, ...]
    folds: int
    seed: int


def learnability_gap(
    dataset: TabularDataset,
    folds: int = 5,
    seed: int = 0,
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
    aucs, _, epochs = _out_of_fold_aucs(x, y[:, None].astype(np.float64), fitted)
    fold_aucs = aucs[:, 0].tolist()
    mean_auc = float(np.mean(fold_aucs))
    positive_rate = float(y.mean())
    return LearnabilityReport(
        logistic_auc=mean_auc,
        gap=mean_auc - 0.5,
        random_baseline_auc=0.5,
        majority_accuracy=max(positive_rate, 1.0 - positive_rate),
        stump_auc=float(np.mean(stump_aucs)),
        fold_aucs=tuple(fold_aucs),
        fold_epochs=tuple(epochs[:, 0].tolist()),
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
    fold_epochs: tuple[int, ...] = field(default=())  # the observed column's, fold by fold as ``fold_aucs``


# a bound on rows x (permutations + 1), the cells of the probe's label matrix; its buffers peak at
# about 17 bytes a cell, so the cap is under 1 GB, and 200 permutations take up to 248 756 rows
MAX_PROBE_CELLS = 50_000_000


def check_probe_settings(permutations: int, rows: int = 0) -> None:
    """Raise PreconditionError unless ``bias_severity`` can run this many permutations on ``rows`` rows."""
    if permutations < 1:
        raise PreconditionError("permutations must be >= 1")
    if rows * (permutations + 1) > MAX_PROBE_CELLS:
        raise PreconditionError(
            f"the bias probe needs rows x (permutations + 1) <= {MAX_PROBE_CELLS} label cells, "
            f"got {rows} x ({permutations} + 1)"
        )


def bias_severity(
    features,
    has_label,
    folds: int = 5,
    permutations: int = 200,
    seed: int = 0,
    cutoffs: BiasCutoffs = DEFAULT_BIAS_CUTOFFS,
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
    check_probe_settings(permutations, n)

    rng = np.random.default_rng(seed)
    fold_idx = _fold_indices(n, folds, rng)  # consumes the first draw of the stream
    labels = np.empty((n, permutations + 1), dtype=np.float32)
    labels[:, 0] = y
    for j in range(1, permutations + 1):
        labels[:, j] = y[rng.permutation(n)]

    aucs, defined, epochs = _out_of_fold_aucs(x, labels[:, :1], fold_idx)
    if not defined.any():
        raise PreconditionError("no fold had both availability classes; cannot estimate the probe AUC")
    observed = float(aucs[defined].sum() / defined.sum())
    # a shuffled column that can no longer reach the observed AUC cannot count in b, so its
    # later folds are skipped; it keeps a defined fold, so it still counts in m
    null_aucs, null_defined, _ = _out_of_fold_aucs(x, labels[:, 1:], fold_idx, floor=observed)
    # a permuted column with no valid fold cannot be scored; drop it from the null
    valid = null_defined.any(axis=0)
    null = np.where(null_defined, null_aucs, 0.0).sum(axis=0)[valid] / null_defined.sum(axis=0)[valid]
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
        fold_epochs=tuple(epochs[defined[:, 0], 0].tolist()),
    )

