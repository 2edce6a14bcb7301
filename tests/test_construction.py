"""Class balance, the internal learners, learnability gap, and the bias probe."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from generators import (
    independent_availability,
    median_split_availability,
    null_dataset,
    separable_dataset,
)
from scorescope.construction import (
    DEFAULT_LOGISTIC,
    BiasSeverity,
    LogisticConfig,
    MajorityBaseline,
    _fit_logistic,
    _standardize,
    _with_ones,
    auc,
    bias_severity,
    class_balance,
    learnability_gap,
    train_logistic,
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


class TestLogistic:
    def test_separable_training_auc(self):
        ds = separable_dataset(100, seed=0, margin=1.0)
        model = train_logistic(ds)
        assert auc(model.decision_values(ds.rows), ds.target) >= 0.99

    def test_null_training_auc_near_chance(self):
        ds = null_dataset(200, seed=0)
        model = train_logistic(ds)
        assert 0.4 <= auc(model.decision_values(ds.rows), ds.target) <= 0.7

    def test_duplicated_rows_same_weights(self):
        ds = separable_dataset(60, seed=1)
        doubled = dataset_from_arrays(
            ds.feature_names, np.vstack([ds.rows, ds.rows]), np.concatenate([ds.target, ds.target])
        )
        m1, m2 = train_logistic(ds), train_logistic(doubled)
        assert np.allclose(m1.weights, m2.weights, rtol=1e-10)
        assert m1.bias == pytest.approx(m2.bias, rel=1e-10)

    def test_single_class_rejected(self):
        ds = dataset_from_arrays(("a",), [[1.0], [2.0]], [1, 1])
        with pytest.raises(PreconditionError, match="both classes"):
            train_logistic(ds)

    def test_constant_features_predict_base_rate(self):
        ds = dataset_from_arrays(("a",), [[3.0]] * 10, [1, 0] * 5)
        model = train_logistic(ds)
        probs = model.predict_proba(ds.rows)
        assert len(set(probs.tolist())) == 1  # no usable feature: constant output

    def test_deterministic(self):
        ds = null_dataset(80, seed=5)
        m1, m2 = train_logistic(ds), train_logistic(ds)
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def _reference_fit(xb, ys, logistic):
    """Gradient descent on log loss with the sigmoid written as 1 / (1 + exp(-t))."""
    w = np.zeros((xb.shape[1], ys.shape[1]), dtype=xb.dtype)
    step = xb.dtype.type(logistic.learning_rate / xb.shape[0])
    for _ in range(logistic.epochs):
        p = np.reciprocal(1 + np.exp(-(xb @ w)))
        w -= step * (xb.T @ (p - ys))
    return w


class TestEngineAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("make", [separable_dataset, null_dataset])
    def test_float64_single_column(self, make, seed):
        ds = make(200, seed=seed)
        xb = _with_ones(_standardize(ds.rows)[0], np.float64)
        ys = ds.target[:, None].astype(np.float64)
        got = _fit_logistic(xb, ys, DEFAULT_LOGISTIC)
        assert got.dtype == np.float64
        assert np.abs(got - _reference_fit(xb, ys, DEFAULT_LOGISTIC)).max() <= 1e-12

    def test_float32_permuted_label_batch(self):
        x, has = median_split_availability(400, seed=0)  # the bias probe's batch: observed plus 200 shuffles
        rng = np.random.default_rng(0)
        ys = np.column_stack([has] + [rng.permutation(has) for _ in range(200)]).astype(np.float32)
        xb = _with_ones(_standardize(x)[0], np.float32)
        got = _fit_logistic(xb, ys, DEFAULT_LOGISTIC)
        assert got.dtype == np.float32 and got.shape == (3, 201)
        assert np.abs(got - _reference_fit(xb, ys, DEFAULT_LOGISTIC)).max() <= 1e-5


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


class TestBaselines:
    def test_majority_accuracy(self):
        assert MajorityBaseline(0.3).accuracy == 0.7
        assert MajorityBaseline(0.8).accuracy == 0.8


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

    def test_workers_do_not_change_the_verdict(self):
        x, has = median_split_availability(400, seed=3)
        r1 = bias_severity(x, has, permutations=40, seed=5, workers=1)
        r2 = bias_severity(x, has, permutations=40, seed=5, workers=2)
        assert r1.severity is r2.severity

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

        severities = [
            bias_severity(*flip_family(rho), permutations=60, seed=seed).severity
            for rho in (0.5, 0.35, 0.0)
        ]
        assert severities[0] <= severities[1] <= severities[2]


def test_logistic_config_is_tunable():
    ds = separable_dataset(60, seed=0)
    quick = train_logistic(ds, LogisticConfig(epochs=5, learning_rate=0.5))
    long = train_logistic(ds)
    assert not np.array_equal(quick.weights, long.weights)


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
