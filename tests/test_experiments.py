"""Disagreement math, the impacted-traffic bound, power sizing, and the simulator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import corrected_pairs, paired
from scorescope._stats import z_quantile
from scorescope.errors import PreconditionError
from scorescope.experiments import (
    PairedSimConfig,
    disagreement,
    impacted_traffic_curve,
    max_disagreement,
    required_sample_size,
    simulate_paired_experiment,
)


def brute_force_max_disagreement(a: float, b: float, grid: int = 201) -> float:
    """Independent oracle: scan joint correctness distributions directly.

    P(exactly one correct) = a + b - 2 * P(both correct), with P(both)
    ranging over [max(0, a+b-1), min(a, b)].
    """
    lo, hi = max(0.0, a + b - 1.0), min(a, b)
    p_both = np.linspace(lo, hi, grid)
    return float(np.max(a + b - 2.0 * p_both))


class TestDisagreement:
    def test_identical_predictions(self):
        pairs = paired([0.9] * 10, [0.9] * 10)
        assert disagreement(pairs).rate == 0.0

    def test_opposite_predictions(self):
        pairs = paired([0.9] * 10, [0.1] * 10)
        assert disagreement(pairs).rate == 1.0

    def test_corrected_model_reaches_thirty_percent(self):
        # B fixes all 200 of A's errors and misses 100 A got right: 30% disagree
        report = disagreement(corrected_pairs(1000))
        assert report.rate == pytest.approx(0.30)
        assert report.accuracy_a == pytest.approx(0.8)
        assert report.accuracy_b == pytest.approx(0.9)

    def test_threshold_binarizes_scores(self):
        pairs = paired([0.45], [0.55])
        assert disagreement(pairs, threshold=0.5).rate == 1.0
        assert disagreement(pairs, threshold=0.4).rate == 0.0

    def test_accuracies_absent_without_labels(self):
        report = disagreement(paired([1.0], [0.0]))
        assert report.accuracy_a is None and report.accuracy_b is None

    def test_empty_input(self):
        with pytest.raises(PreconditionError):
            disagreement(paired([], []))


class TestMaxDisagreement:
    def test_worked_example(self):
        assert max_disagreement(Fraction("0.8"), Fraction("0.9")) == Fraction("0.3")
        assert max_disagreement(0.8, 0.9) == pytest.approx(0.30, abs=1e-15)

    def test_both_perfect(self):
        assert max_disagreement(1.0, 1.0) == 0.0

    def test_low_accuracy_pair_against_oracle(self):
        assert max_disagreement(0.6, 0.7) == pytest.approx(0.70, abs=1e-12)
        assert max_disagreement(0.6, 0.7) == pytest.approx(brute_force_max_disagreement(0.6, 0.7), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            max_disagreement(1.2, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=120)
    def test_symmetric_and_bounded(self, a, b):
        d = max_disagreement(a, b)
        assert d == max_disagreement(b, a)
        assert 0.0 <= d <= 1.0

    @given(st.floats(0.5, 1), st.floats(0.5, 1))
    @settings(max_examples=60)
    def test_matches_brute_force(self, a, b):
        assert max_disagreement(a, b) == pytest.approx(brute_force_max_disagreement(a, b), abs=1e-12)


class TestImpactedTrafficCurve:
    def test_baseline_point_eight(self):
        series = impacted_traffic_curve(0.8, [0.8, 0.9, 1.0])
        assert [b for _, b in series] == pytest.approx([0.4, 0.3, 0.2])

    def test_perfect_models_agree(self):
        assert impacted_traffic_curve(1.0, [1.0]) == [(1.0, 0.0)]

    def test_strictly_decreasing_above_half(self):
        for baseline in (0.5, 0.65, 0.8, 0.95):
            grid = np.round(np.arange(baseline, 1.0001, 0.01), 10)
            bounds = [b for _, b in impacted_traffic_curve(baseline, grid)]
            assert all(x > y for x, y in zip(bounds, bounds[1:]))

    def test_grid_below_baseline_rejected(self):
        with pytest.raises(PreconditionError):
            impacted_traffic_curve(0.8, [0.7])


class TestRequiredSampleSize:
    def test_full_disagreement_is_undiluted(self):
        report = required_sample_size(0.10, 0.02, disagreement_rate=1.0)
        assert report.total_traffic_required == 2 * report.n_per_arm

    def test_halving_disagreement_doubles_traffic(self):
        full = required_sample_size(0.10, 0.02, disagreement_rate=1.0)
        half = required_sample_size(0.10, 0.02, disagreement_rate=0.5)
        assert half.total_traffic_required == 2 * full.total_traffic_required
        assert half.n_per_arm == full.n_per_arm

    def test_reference_size(self):
        # frozen from the normal-approximation formula at these parameters
        assert required_sample_size(0.10, 0.02).n_per_arm == 3841

    def test_zero_disagreement_impossible(self):
        with pytest.raises(PreconditionError, match="models identical"):
            required_sample_size(0.10, 0.02, disagreement_rate=0.0)

    def test_degenerate_rates(self):
        with pytest.raises(PreconditionError):
            required_sample_size(0.0, 0.02)
        with pytest.raises(PreconditionError):
            required_sample_size(0.99, 0.02)

    @pytest.mark.parametrize("power", [0.025, 0.02, 1e-6])
    def test_power_at_or_below_half_alpha_rejected(self, power):
        with pytest.raises(PreconditionError, match="must exceed alpha/2"):
            required_sample_size(0.10, 0.02, alpha=0.05, power=power)

    @given(
        st.floats(1e-3, 0.9),
        st.floats(1e-4, 0.09),
        st.floats(1e-6, 0.5),
        st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), min_size=2, max_size=2),
    )
    @settings(max_examples=300)
    def test_n_per_arm_never_falls_as_power_rises(self, p_control, mde, alpha, powers):
        low, high = sorted(powers)
        try:
            smaller = required_sample_size(p_control, mde, alpha=alpha, power=low).n_per_arm
        except PreconditionError:
            return  # low at or below alpha/2: refused
        assert required_sample_size(p_control, mde, alpha=alpha, power=high).n_per_arm >= smaller

    def test_monte_carlo_calibration(self):
        # oracle: simulate the pooled z-test at the computed per-arm size
        report = required_sample_size(0.10, 0.02, alpha=0.05, power=0.8)
        n = report.n_per_arm
        rng = np.random.default_rng(42)
        reps = 20_000
        x_a = rng.binomial(n, 0.10, reps)
        x_b = rng.binomial(n, 0.12, reps)
        pooled = (x_a + x_b) / (2 * n)
        z = (x_b / n - x_a / n) / np.sqrt(pooled * (1 - pooled) * (2 / n))
        rejection = np.mean(np.abs(z) >= z_quantile(0.975))
        assert abs(rejection - 0.80) <= 0.02


def null_config(seed: int, n_users: int = 20_000) -> PairedSimConfig:
    return PairedSimConfig(n_users, 0.55, 0.15, 0.15, 0.15, 0.10, 0.10, seed=seed)


class TestSimulator:
    def test_identical_models_cannot_be_tested(self):
        config = PairedSimConfig(1000, 0.6, 0.0, 0.0, 0.4, 0.12, 0.10, seed=0)
        outcome = simulate_paired_experiment(config)
        assert outcome.enrolled == 0
        assert "no experiment possible" in outcome.note

    def test_invalid_probability_vector(self):
        with pytest.raises(PreconditionError):
            simulate_paired_experiment(PairedSimConfig(100, 0.5, 0.5, 0.5, 0.5, 0.1, 0.1))

    def test_ci_brackets_estimate(self):
        outcome = simulate_paired_experiment(null_config(3))
        assert outcome.ci_low <= outcome.effect_estimate <= outcome.ci_high

    def test_deterministic_per_seed(self):
        a = simulate_paired_experiment(null_config(9))
        b = simulate_paired_experiment(null_config(9))
        assert a == b

    def test_enrollment_matches_binomial(self):
        enrolled = [simulate_paired_experiment(null_config(s, 10_000)).enrolled for s in range(40)]
        expect = 10_000 * 0.3
        sigma = np.sqrt(10_000 * 0.3 * 0.7)
        assert all(abs(e - expect) <= 4 * sigma for e in enrolled)
        assert abs(np.mean(enrolled) - expect) <= 3 * sigma / np.sqrt(40)

    def test_power_matches_sizing(self):
        # B corrects A on 30% of traffic; effect per enrolled user is 0.02
        report = required_sample_size(0.10, 0.02, alpha=0.05, power=0.8, disagreement_rate=0.3)
        rejections = 0
        runs = 400
        for seed in range(runs):
            config = PairedSimConfig(
                report.total_traffic_required, 0.70, 0.0, 0.30, 0.0, 0.12, 0.10, seed=seed
            )
            rejections += simulate_paired_experiment(config).rejected_null
        assert abs(rejections / runs - 0.80) <= 0.05

    def test_more_correlation_never_more_enrollment(self):
        # shrink p_only_a + p_only_b holding accuracies fixed
        def mean_enrolled(p_only):
            config_base = dict(n_users=5_000, conversion_correct=0.1, conversion_incorrect=0.1)
            values = []
            for seed in range(30):
                config = PairedSimConfig(
                    p_both=0.7 - p_only / 2,
                    p_only_a=p_only / 2,
                    p_only_b=p_only / 2,
                    p_neither=0.3 - p_only / 2,
                    alpha=0.05,
                    seed=seed,
                    **config_base,
                )
                values.append(simulate_paired_experiment(config).enrolled)
            return np.mean(values)

        levels = [mean_enrolled(p) for p in (0.3, 0.2, 0.1, 0.0)]
        assert all(x >= y for x, y in zip(levels, levels[1:]))
