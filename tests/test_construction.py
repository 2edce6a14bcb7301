"""Class balance, the internal learners, learnability gap, and the bias probe."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from generators import (
    independent_availability,
    median_split_availability,
    null_dataset,
    separable_dataset,
)
from scorescope import construction
from scorescope.construction import (
    MAX_PROBE_CELLS,
    BiasSeverity,
    _columnwise_auc,
    _fit_logistic,
    _fold_indices,
    _out_of_fold_aucs,
    _standardize,
    _with_ones,
    auc,
    bias_severity,
    check_probe_settings,
    class_balance,
    learnability_gap,
    train_stump,
)
from scorescope.errors import PreconditionError
from scorescope.ingest import dataset_from_arrays


class TestClassBalance:
    def test_proportion(self):
        assert class_balance([1, 0, 0, 0]).positive_proportion == 0.25

    def test_all_zeros_warns(self):
        result = class_balance([0, 0, 0])
        assert result.positive_proportion == 0.0
        assert "no impacted traffic" in result.note

    def test_all_ones(self):
        assert class_balance([1, 1, 1]).positive_proportion == 1.0

    def test_links_to_power_calculator(self):
        assert "power calculator" in class_balance([1, 0]).note

    def test_empty_input(self):
        with pytest.raises(PreconditionError):
            class_balance([])

    def test_non_binary(self):
        with pytest.raises(PreconditionError):
            class_balance([0, 1, 2])


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_ties_is_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(PreconditionError):
            auc([0.1, 0.9], [1, 1])

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=40), st.data())
    @settings(max_examples=60)
    def test_invariant_under_increasing_transform(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)).filter(
                lambda y: 0 < sum(y) < len(y)
            )
        )
        s = np.array(scores)
        base = auc(s, labels)
        distinct = len(np.unique(s))
        for transformed in (3.0 * s + 2.0, np.exp(s / 10.0)):
            # the premise needs the float map to stay injective on these values
            assume(len(np.unique(transformed)) == distinct)
            assert auc(transformed, labels) == pytest.approx(base)

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=40), st.data())
    @settings(max_examples=60)
    def test_label_flip_complement(self, scores, data):
        labels = np.array(
            data.draw(
                st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)).filter(
                    lambda y: 0 < sum(y) < len(y)
                )
            )
        )
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0)


def _fit(ds):
    """One float64 fit of the engine on ``ds``'s standardized features: the design and its weights, bias last."""
    xb = _with_ones(_standardize(ds.rows)[0], np.float64)
    return xb, _fit_logistic(xb, ds.target[:, None].astype(np.float64))[0][:, 0]


class TestLogistic:
    def test_separable_training_auc(self):
        ds = separable_dataset(100, seed=0, margin=1.0)
        xb, w = _fit(ds)
        assert auc(xb @ w, ds.target) >= 0.99

    def test_null_training_auc_near_chance(self):
        ds = null_dataset(200, seed=0)
        xb, w = _fit(ds)
        assert 0.4 <= auc(xb @ w, ds.target) <= 0.7

    def test_duplicated_rows_same_weights(self):
        ds = separable_dataset(60, seed=1)
        doubled = dataset_from_arrays(
            ds.feature_names, np.vstack([ds.rows, ds.rows]), np.concatenate([ds.target, ds.target])
        )
        w1, w2 = _fit(ds)[1], _fit(doubled)[1]
        assert np.allclose(w1[:-1], w2[:-1], rtol=1e-10)
        assert w1[-1] == pytest.approx(w2[-1], rel=1e-10)  # the bias

    def test_single_class_rejected(self):
        ds = dataset_from_arrays(("a",), [[1.0], [2.0]], [1, 1])
        with pytest.raises(PreconditionError, match="both classes"):
            learnability_gap(ds)

    def test_constant_features_predict_base_rate(self):
        ds = dataset_from_arrays(("a",), [[3.0]] * 10, [1, 0, 0, 0, 0] * 2)
        xb, w = _fit(ds)
        assert xb.shape == (10, 1)  # no usable feature: the bias alone
        assert 0.5 + 0.5 * np.tanh(w[-1] / 2) == pytest.approx(0.2, abs=1e-3)

    def test_deterministic(self):
        ds = null_dataset(80, seed=5)
        assert np.array_equal(_fit(ds)[1], _fit(ds)[1])


def _pinv_step(xb):
    """The engine's step matrix 4 (X'X)^+ from numpy's pseudo-inverse, with the engine's eigenvalue cutoff."""
    x = xb.astype(np.float64)
    return (4 * np.linalg.pinv(x.T @ x, rtol=construction._CUTOFF, hermitian=True)).astype(xb.dtype)


def _reference_fit(xb, ys, step):
    """Preconditioned descent on log loss with the sigmoid written as 1 / (1 + exp(-t))."""
    w = np.zeros((xb.shape[1], ys.shape[1]), dtype=xb.dtype)
    for _ in range(construction._MAX_EPOCHS):
        p = np.reciprocal(1 + np.exp(-(xb @ w)))
        w -= step @ (xb.T @ (p - ys))
    return w


def _fixed_epoch_fit(xb, ys, step):
    """The engine's tanh-form loop as it was before a column could stop early: every column runs every epoch.

    Also returns, for each epoch, the weights and the largest gradient entry per column before its update.
    """
    w = np.zeros((xb.shape[1], ys.shape[1]), dtype=xb.dtype)
    z = np.empty((xb.shape[0], ys.shape[1]), dtype=xb.dtype)
    half = xb * 0.5
    const = xb.T @ np.subtract(0.5, ys, out=z)
    path, steepest = [], []
    for _ in range(construction._MAX_EPOCHS):
        np.matmul(half, w, out=z)
        np.tanh(z, out=z)
        g = half.T @ z
        g += const
        path.append(w.copy())
        steepest.append(np.abs(g).max(axis=0))
        w -= step @ g
    return w, np.array(path), np.array(steepest)


def _probe_batch(make, n):
    """The float32 batch of a bias probe on ``make(n)``: a design matrix and the observed flags plus 200 shuffles."""
    x, has = make(n, seed=0)
    rng = np.random.default_rng(0)
    ys = np.column_stack([has] + [rng.permutation(has) for _ in range(200)]).astype(np.float32)
    return _with_ones(_standardize(x)[0], np.float32), ys


class TestEngineAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make", [separable_dataset, null_dataset])
    def test_float64_single_column(self, make, seed):
        ds = make(200, seed=seed)
        xb = _with_ones(_standardize(ds.rows)[0], np.float64)
        ys = ds.target[:, None].astype(np.float64)
        got, _ = _fit_logistic(xb, ys, tol=0)
        assert got.dtype == np.float64
        assert np.abs(got - _reference_fit(xb, ys, _pinv_step(xb))).max() <= 1e-12

    def test_float32_permuted_label_batch(self):
        xb, ys = _probe_batch(median_split_availability, 400)
        got, _ = _fit_logistic(xb, ys, tol=0)
        assert got.dtype == np.float32 and got.shape == (3, 201)
        assert np.abs(got - _reference_fit(xb, ys, _pinv_step(xb))).max() <= 1e-5


class TestEarlyStop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tol_zero_is_the_fixed_epoch_loop_bit_for_bit(self, dtype):
        if dtype is np.float32:
            xb, ys = _probe_batch(independent_availability, 600)
        else:
            ds = null_dataset(200, seed=0)
            xb, ys = _with_ones(_standardize(ds.rows)[0], dtype), ds.target[:, None].astype(dtype)
        got, ran = _fit_logistic(xb, ys, tol=0)
        want = _fixed_epoch_fit(xb, ys, construction._bound_step(xb))[0]
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        assert (ran == construction._MAX_EPOCHS).all()

    @pytest.mark.parametrize("make, n", [(independent_availability, 600), (median_split_availability, 400)])
    def test_a_column_stops_once_its_gradient_is_flat(self, make, n):
        xb, ys = _probe_batch(make, n)
        got, ran = _fit_logistic(xb, ys)
        tol, epochs = construction._TOL, construction._MAX_EPOCHS
        stopped = ran < epochs
        assert stopped.any()
        x64 = xb.astype(np.float64)
        p = 1 / (1 + np.exp(-(x64 @ got.astype(np.float64))))
        flat = np.abs(x64.T @ (p - ys)).max(axis=0) / n  # the float64 gradient of the weights returned
        assert (flat[stopped] < tol * (1 + 1e-3)).all()
        # against the fixed-epoch loop: a column stops at the first epoch that meets tol, with that epoch's weights
        _, path, steepest = _fixed_epoch_fit(xb, ys, construction._bound_step(xb))
        steepest /= n
        for j in range(ys.shape[1]):
            assert (steepest[: ran[j], j] >= tol * (1 - 1e-3)).all()
            if ran[j] < epochs:
                assert steepest[ran[j], j] < tol * (1 + 1e-3)
                assert np.abs(got[:, j] - path[ran[j], :, j]).max() <= 1e-6

    def test_reports_give_the_epochs_of_each_fold(self):
        report = bias_severity(*median_split_availability(400, seed=0), permutations=20, seed=0)
        assert report.fold_epochs == (construction._MAX_EPOCHS,) * 5  # no MLE: the gradient never flattens
        learn = learnability_gap(null_dataset(200, seed=0), seed=0)
        assert len(learn.fold_epochs) == len(learn.fold_aucs) == 5
        assert all(0 < e < construction._MAX_EPOCHS for e in learn.fold_epochs)


def _log_loss(xb, ys, w):
    """Summed log loss, each term as log(1 + exp(-margin)) so that a small loss keeps its digits."""
    return float(np.logaddexp(0.0, np.where(ys == 1, -1.0, 1.0) * (xb @ w)).sum())


@st.composite
def _designs(draw):
    """A float64 design and labels: coin-flip labels, a separable split, or coin flips with a duplicated column."""
    n, d, seed = draw(st.integers(4, 40)), draw(st.integers(1, 4)), draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["coin", "separable", "duplicate"]))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x[:, 0] > np.median(x[:, 0]) if kind == "separable" else rng.random(n) < 0.5
    if kind == "duplicate":
        x = np.column_stack([x, x[:, 0]])
    return _with_ones(_standardize(x)[0], np.float64), y[:, None].astype(np.float64)


class TestBoundStep:
    @given(_designs())
    @settings(max_examples=60, deadline=None)
    def test_every_update_lowers_the_log_loss(self, design):
        xb, ys = design
        losses = [_log_loss(xb, ys, np.zeros((xb.shape[1], 1)))]
        with pytest.MonkeyPatch.context() as mp:  # the monkeypatch fixture is not undone between Hypothesis examples
            for epochs in range(1, 13):  # a fit of k + 1 updates makes the k updates of a fit of k first
                mp.setattr(construction, "_MAX_EPOCHS", epochs)
                w, ran = _fit_logistic(xb, ys, tol=0)
                assert ran[0] == epochs
                losses.append(_log_loss(xb, ys, w))
        assert all(after <= before * (1 + 1e-12) for before, after in zip(losses, losses[1:]))

    @pytest.mark.parametrize("noise", [1e-6, 0.0])  # 0: an exact duplicate, whose Gram matrix is singular
    def test_a_near_duplicate_feature_leaves_the_probe_alone(self, noise):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 3))
        has = (rng.random(2000) < 1 / (1 + np.exp(-0.68 * x[:, 0]))).astype(int)
        twin = np.column_stack([x, x[:, 0] + noise * rng.normal(size=2000)])
        base, report = bias_severity(x, has, seed=0), bias_severity(twin, has, seed=0)
        assert report.severity is base.severity is BiasSeverity.MILD
        assert report.auc == pytest.approx(base.auc, abs=1e-3)
        ys = np.column_stack([has] + [rng.permutation(has) for _ in range(20)]).astype(np.float32)
        w, _ = _fit_logistic(_with_ones(_standardize(twin)[0], np.float32), ys)
        assert np.isfinite(w).all()

    def test_the_learnability_fit_converges_on_a_setup_table(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 6))
        y = (rng.random(2000) < 1 / (1 + np.exp(-(1.5 * x[:, 1] - x[:, 2])))).astype(int)
        report = learnability_gap(dataset_from_arrays(tuple("abcdef"), x, y), seed=0)
        assert all(e < construction._MAX_EPOCHS for e in report.fold_epochs)


class TestStump:
    def test_learns_separating_feature(self):
        ds = separable_dataset(100, seed=0)
        stump = train_stump(ds)
        assert stump.feature == 0
        preds = stump.predict_proba(ds.rows)
        assert (preds == ds.target).mean() == 1.0

    def test_polarity_handles_inverted_signal(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 1, 0, 0])  # low values are positive
        stump = train_stump(dataset_from_arrays(("a",), x, y))
        assert (stump.predict_proba(x) == y).all()


# The per-column rank loop and the per-split stump loop that the array forms
# replaced; the array forms must reproduce them bit for bit.


def _reference_average_ranks(x):
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


def _reference_columnwise_auc(scores, labels):
    m, c = scores.shape
    ranks = np.empty((m, c), dtype=np.float64)
    for j in range(c):
        ranks[:, j] = _reference_average_ranks(scores[:, j].astype(np.float64))
    y = labels.astype(np.float64)
    n_pos = y.sum(axis=0)
    n_neg = m - n_pos
    defined = (n_pos > 0) & (n_neg > 0)
    denom = np.where(defined, n_pos * n_neg, 1.0)
    u = (ranks * y).sum(axis=0) - n_pos * (n_pos + 1) / 2.0
    return np.where(defined, u / denom, 0.5), defined


def _reference_auc(scores, labels):
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    u = _reference_average_ranks(s)[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _reference_stump(x, y):
    n = len(y)
    n_pos = int(y.sum())
    best_acc = max(n_pos, n - n_pos) / n
    best = (0, -np.inf, 1 if n_pos >= n - n_pos else -1)
    best_is_split = False
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        pos_left = np.cumsum(y[order])
        for i in np.flatnonzero(xs[1:] > xs[:-1]):
            thr = (xs[i] + xs[i + 1]) / 2.0
            correct_hi = (n_pos - pos_left[i]) + ((i + 1) - pos_left[i])
            for polarity, correct in ((1, correct_hi), (-1, n - correct_hi)):
                acc = correct / n
                if acc > best_acc or (not best_is_split and acc == best_acc):
                    best_acc = acc
                    best = (j, thr, polarity)
                    best_is_split = True
    return best[0], float(best[1]), best[2]


@st.composite
def _tied_matrices(draw, max_rows=60, max_cols=6):
    """A score matrix drawing each cell from a few values, so runs of ties are long, and a 0/1 label matrix."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols)))
    pool = draw(st.lists(st.floats(width=32), min_size=1, max_size=4))  # NaN, infinities and -0.0 included
    scores = draw(arrays(dtype, shape, elements=st.sampled_from(pool)))
    labels = draw(arrays(dtype, shape, elements=st.sampled_from([0.0, 1.0])))
    single = draw(st.sampled_from([None, 0.0, 1.0]))
    if single is not None:
        labels[:, ::2] = single  # every other column single-class
    return scores, labels


class TestRankingAgainstReference:
    @given(_tied_matrices())
    @settings(max_examples=400, deadline=None)
    def test_columnwise_auc_is_the_per_column_loop_bit_for_bit(self, drawn):
        scores, labels = drawn
        got, defined = _columnwise_auc(scores, labels)
        if scores.shape[0] == 0:  # the loop cannot rank an empty column; no column has both classes
            assert not defined.any() and (got == 0.5).all()
            return
        want, want_defined = _reference_columnwise_auc(scores, labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (defined == want_defined).all()

    def test_columnwise_auc_at_the_probe_shape_is_the_per_column_loop_bit_for_bit(self):
        """One fold of the bias probe (400 test rows, 200 label columns) is past the property's 60 x 6 draws,
        where numpy may sort with other kernels."""
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((400, 200)).round(1).astype(np.float32)  # about 50 values: long ties
        special = np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45], np.float32)
        cells = rng.random(scores.shape) < 0.05
        scores[cells] = rng.choice(special, cells.sum())
        labels = (rng.random(scores.shape) < 0.3).astype(np.float32)
        labels[:, 0], labels[:, 1] = 0.0, 1.0  # single-class columns
        got, defined = _columnwise_auc(scores, labels)
        want, want_defined = _reference_columnwise_auc(scores, labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (defined == want_defined).all() and defined[2:].all() and not defined[:2].any()

    @pytest.mark.parametrize("shape", [(2000, 1), (400, 3)])
    def test_float64_columnwise_auc_at_scale_is_the_per_column_loop_bit_for_bit(self, shape):
        """Float64 blocks past the property's float32-valued 60 x 6 draws: values that are equal in float32 but
        not in float64 (1.0 and 1.0 + 2**-52, 5e-324 and 0.0), and sizes where numpy may sort with other kernels."""
        rng = np.random.default_rng(28)
        scores = rng.standard_normal(shape).round(1)  # about 50 values: long ties
        special = np.array([np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.0, 1.0 + 2**-52])
        cells = rng.random(shape) < 0.05
        scores[cells] = rng.choice(special, cells.sum())
        scores[: len(special)] = special[:, None]  # every column holds each one
        labels = (rng.random(shape) < 0.3).astype(np.float64)
        if shape[1] > 1:
            labels[:, 0] = 1.0  # a single-class column
        got, defined = _columnwise_auc(scores, labels)
        want, want_defined = _reference_columnwise_auc(scores, labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert (defined == want_defined).all() and defined.sum() == min(shape[1], 2)

    @given(_tied_matrices(max_cols=1))
    @settings(max_examples=300, deadline=None)
    def test_auc_is_the_rank_formula_bit_for_bit(self, drawn):
        scores, labels = drawn[0][:, :1].ravel(), drawn[1][:, :1].ravel()
        if 0 < labels.sum() < labels.size:
            assert np.float64(auc(scores, labels)).tobytes() == np.float64(_reference_auc(scores, labels)).tobytes()
        else:
            with pytest.raises(PreconditionError, match="both classes must be present"):
                auc(scores, labels)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_train_stump_is_the_per_split_loop(self, data):
        n = data.draw(st.integers(2, 30))
        d = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.floats(-100, 100), min_size=1, max_size=5))
        x = data.draw(arrays(np.float64, (n, d), elements=st.sampled_from(pool)))
        if data.draw(st.booleans()):
            x[:, data.draw(st.integers(0, d - 1))] = pool[0]  # a constant feature
        positives = data.draw(st.integers(1, n - 1))  # unbalanced targets too
        y = np.array([1] * positives + [0] * (n - positives))[data.draw(st.permutations(range(n)))]
        stump = train_stump(dataset_from_arrays(tuple(f"f{j}" for j in range(d)), x, y))
        feature, threshold, polarity = _reference_stump(x, y.astype(np.int8))
        assert (stump.feature, stump.polarity) == (feature, polarity)
        assert np.float64(stump.threshold).tobytes() == np.float64(threshold).tobytes()


class TestBaselines:
    def test_majority_accuracy(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        for positives, rate, accuracy in ((6, 0.3, 0.7), (16, 0.8, 0.8)):
            y = np.array([1] * positives + [0] * (20 - positives))
            assert y.mean() == rate
            report = learnability_gap(dataset_from_arrays(("a", "b"), x, y), folds=2, seed=0)
            assert report.majority_accuracy == accuracy


class TestLearnability:
    def test_separable_gap(self):
        report = learnability_gap(separable_dataset(100, seed=0), seed=0)
        assert report.gap >= 0.45
        assert report.stump_auc >= 0.9
        assert report.random_baseline_auc == 0.5

    def test_null_gap_near_zero(self):
        report = learnability_gap(null_dataset(200, seed=0), seed=0)
        assert abs(report.gap) <= 0.1

    def test_deterministic_for_fixed_seed(self):
        ds = separable_dataset(80, seed=2)
        r1 = learnability_gap(ds, seed=7)
        r2 = learnability_gap(ds, seed=7)
        assert r1.fold_aucs == r2.fold_aucs and r1.gap == r2.gap

    def test_single_class_folds_reported_and_skipped(self):
        x = np.random.default_rng(0).normal(size=(9, 2))
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
        report = learnability_gap(dataset_from_arrays(("a", "b"), x, y), folds=3, seed=4)
        assert report.skipped_folds
        assert len(report.fold_aucs) + len(report.skipped_folds) == 3

    def test_all_folds_skipped_is_error(self):
        x = np.random.default_rng(1).normal(size=(6, 2))
        ds = dataset_from_arrays(("a", "b"), x, np.array([1, 0, 0, 0, 0, 0]))
        with pytest.raises(PreconditionError, match="every fold"):
            learnability_gap(ds, folds=3, seed=0)

    def test_majority_accuracy_reported(self):
        report = learnability_gap(null_dataset(100, seed=3), seed=0)
        assert 0.5 <= report.majority_accuracy <= 1.0


class TestBiasSeverity:
    def test_independent_availability_is_none(self):
        x, has = independent_availability(2000, seed=0)
        report = bias_severity(x, has, seed=0)
        assert report.severity is BiasSeverity.NONE
        assert abs(report.auc - 0.5) < 0.1

    def test_median_split_is_severe(self):
        x, has = median_split_availability(800, seed=0)
        report = bias_severity(x, has, seed=0)
        assert report.severity is BiasSeverity.SEVERE
        assert report.auc >= 0.95
        assert report.permutation_p <= 0.01

    def test_constant_feature_is_chance(self):
        has = (np.random.default_rng(2).random(400) < 0.5).astype(int)
        report = bias_severity(np.ones((400, 1)), has, permutations=30, seed=0)
        assert report.auc == 0.5
        assert report.severity is BiasSeverity.NONE

    def test_all_labeled_rejected(self):
        with pytest.raises(PreconditionError, match="both labeled and unlabeled"):
            bias_severity(np.zeros((10, 1)), np.ones(10, dtype=int))

    def test_a_probe_past_the_cell_cap_is_refused(self):
        k = MAX_PROBE_CELLS // 10  # 10 x (k + 1) cells, just past the cap
        message = rf"<= {MAX_PROBE_CELLS} label cells, got 10 x \({k} \+ 1\)$"
        with pytest.raises(PreconditionError, match=message):
            bias_severity(np.zeros((10, 1)), np.arange(10) % 2, permutations=k)

    def test_the_cell_cap_is_inclusive(self):
        check_probe_settings(MAX_PROBE_CELLS // 2 - 1, rows=2)  # the check alone: nothing is allocated
        with pytest.raises(PreconditionError, match="label cells, got 2 x"):
            check_probe_settings(MAX_PROBE_CELLS // 2, rows=2)

    def test_counts_partition(self):
        x, has = independent_availability(500, seed=4)
        report = bias_severity(x, has, permutations=20, seed=4)
        assert report.n_labeled + report.n_unlabeled == 500
        assert report.n_labeled == int(has.sum())

    def test_bit_for_bit_deterministic(self):
        x, has = independent_availability(400, seed=9)
        r1 = bias_severity(x, has, permutations=40, seed=11)
        r2 = bias_severity(x, has, permutations=40, seed=11)
        assert r1 == r2

    def test_invariant_under_feature_rescaling(self):
        x, has = median_split_availability(500, seed=6)
        r1 = bias_severity(x, has, permutations=40, seed=6)
        r2 = bias_severity(x * 3.0 + 7.0, has, permutations=40, seed=6)
        assert r1.severity is r2.severity
        assert r1.auc == pytest.approx(r2.auc, abs=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_severity_monotone_in_signal(self, seed):
        def flip_family(rho):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(600, 2))
            base = (x[:, 0] > np.median(x[:, 0])).astype(int)
            return x, np.where(rng.random(600) < rho, 1 - base, base)

        order = list(BiasSeverity)  # NONE, MILD, SEVERE
        ranks = [
            order.index(bias_severity(*flip_family(rho), permutations=60, seed=seed).severity)
            for rho in (0.5, 0.35, 0.0)
        ]
        assert ranks[0] <= ranks[1] <= ranks[2]


def test_permutation_p_is_never_zero():
    report = bias_severity(*median_split_availability(800, seed=0), permutations=20, seed=0)
    assert report.auc >= 0.95
    assert report.permutation_p == 1 / 21  # no shuffled refit reaches the observed AUC
    assert report.severity is not BiasSeverity.SEVERE  # 1/21 cannot meet the 0.01 cutoff


@given(st.integers(1, 12), st.integers(0, 2**16), st.floats(0.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_permutation_p_never_below_its_floor(permutations, seed, signal):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, 2))
    has = (signal * x[:, 0] + rng.normal(size=40) > 0).astype(int)
    assume(0 < has.sum() < 40)
    report = bias_severity(x, has, permutations=permutations, seed=seed)
    assert 1 / (permutations + 1) <= report.permutation_p <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make", [separable_dataset, null_dataset])
def test_bias_and_learnability_share_folds(make, seed):
    ds = make(200, seed=seed)
    learn = learnability_gap(ds, seed=seed)
    bias = bias_severity(ds.rows, ds.target, permutations=20, seed=seed)
    assert not learn.skipped_folds and len(bias.fold_aucs) == len(learn.fold_aucs) == 5
    assert bias.fold_aucs == pytest.approx(learn.fold_aucs, abs=1e-3)  # float32 vs float64 fits


def _recorded_probe(x, has, permutations, seed):
    """``bias_severity``'s report, the label columns it fitted and what each of its fold loops returned."""
    fitted, returned = [], []

    def fit(xb, ys):
        fitted.append(ys.shape[1])
        return _fit_logistic(xb, ys)

    def fold_loop(*args, **kwargs):
        returned.append(_out_of_fold_aucs(*args, **kwargs))
        return returned[-1]

    with mock.patch.object(construction, "_fit_logistic", fit):
        with mock.patch.object(construction, "_out_of_fold_aucs", fold_loop):
            report = bias_severity(x, has, permutations=permutations, seed=seed)
    return report, fitted, returned


@given(
    st.integers(60, 300),
    st.integers(1, 3),
    st.integers(10, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_a_pruned_null_gives_the_full_fit_verdict(n, d, permutations, signal, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    # each row follows the median split of the first feature with chance ``signal``, else a coin
    has = np.where(rng.random(n) < signal, x[:, 0] > np.median(x[:, 0]), rng.random(n) < 0.5).astype(int)
    assume(0 < has.sum() < n)
    report, _, (_, (null_aucs, null_defined, _)) = _recorded_probe(x, has, permutations, seed)

    # every column on every fold in one batch, with the probe's folds and shuffles
    rng = np.random.default_rng(seed)
    folds = _fold_indices(n, 5, rng)
    labels = np.column_stack([has] + [has[rng.permutation(n)] for _ in range(permutations)]).astype(np.float32)
    aucs, defined, _ = _out_of_fold_aucs(x, labels, folds)
    valid = defined[:, 1:].any(axis=0)
    assert np.array_equal(null_defined.any(axis=0), valid)  # the same m scorable shuffles
    null = (np.where(defined, aucs, 0.0).sum(axis=0) / np.maximum(defined.sum(axis=0), 1))[1:][valid]
    p_value = (int((null >= report.auc).sum()) + 1) / (valid.sum() + 1)
    assert report.permutation_p == p_value
    observed = aucs[defined[:, 0], 0]
    pairs = [labels[k, 0].sum() * (len(k) - labels[k, 0].sum()) for k, both in zip(folds, defined[:, 0]) if both]
    assert len(report.fold_aucs) == len(observed)  # the observed column's own batch moves it by a swapped pair at most
    assert all(abs(a - b) <= 1 / pair for a, b, pair in zip(report.fold_aucs, observed, pairs))
    cutoffs = construction.DEFAULT_BIAS_CUTOFFS
    if observed.mean() >= cutoffs.severe_auc and p_value <= cutoffs.severe_p:
        assert report.severity is BiasSeverity.SEVERE
    elif observed.mean() >= cutoffs.mild_auc and p_value <= cutoffs.mild_p:
        assert report.severity is BiasSeverity.MILD
    else:
        assert report.severity is BiasSeverity.NONE
    # a shuffle that stops early scores below the observed AUC on the folds it kept
    stopped = ~null_defined[-1] & defined[-1, 1:]
    kept = np.where(null_defined, null_aucs, 0.0).sum(axis=0) / np.maximum(null_defined.sum(axis=0), 1)
    assert (kept[stopped] < report.auc).all()


def test_a_median_split_fits_its_shuffles_on_one_fold():
    report, fitted, _ = _recorded_probe(*median_split_availability(400, seed=0), permutations=40, seed=0)
    assert report.permutation_p == 1 / 41
    null_fits = sum(fitted) - report.folds  # the observed column is fitted once a fold
    assert null_fits < report.folds * report.permutations / 2


def test_an_observed_auc_below_chance_stops_no_shuffle():
    report, fitted, _ = _recorded_probe(*independent_availability(300, seed=1), permutations=40, seed=1)
    assert report.auc < 0.5
    assert sum(fitted) - report.folds == report.folds * report.permutations
