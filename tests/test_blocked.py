"""Blocked-experiment simulation and effect disentanglement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorescope.blocked import (
    BlockedDesign,
    BlockedOutcomes,
    BlockedSimConfig,
    analyze_blocked,
    read_blocked_csv,
    simulate_blocked,
    write_blocked_csv,
)
from scorescope.errors import InputError, PreconditionError


def outcomes_with_rates(per_variant: int, rates) -> BlockedOutcomes:
    """Exact conversion counts per variant, no randomness."""
    variants, converted = [], []
    for v, rate in enumerate(rates):
        k = int(round(rate * per_variant))
        variants += [v] * per_variant
        converted += [True] * k + [False] * (per_variant - k)
    return BlockedOutcomes(np.array(variants), np.array(converted))


class TestDesign:
    def test_default_is_equal_thirds(self):
        assert sum(BlockedDesign().allocation) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            BlockedDesign((-0.1, 0.6, 0.5))

    def test_rejects_bad_sum(self):
        with pytest.raises(PreconditionError):
            BlockedDesign((0.5, 0.5, 0.5))


class TestSimulate:
    def test_null_configuration_rates_within_three_sigma(self):
        config = BlockedSimConfig(90_000, 0.10, 0.0, 0.0, seed=0)
        users, conversions = simulate_blocked(config).counts()
        for n, c in zip(users, conversions):
            sigma = np.sqrt(0.10 * 0.90 / n)
            assert abs(c / n - 0.10) <= 3 * sigma

    def test_configured_effects_show_up(self):
        config = BlockedSimConfig(1_000_000, 0.10, -0.005, 0.010, seed=1)
        users, conversions = simulate_blocked(config).counts()
        rates = conversions / users
        for rate, expected in zip(rates, (0.100, 0.095, 0.105)):
            sigma = np.sqrt(expected * (1 - expected) / users[0] * 3)
            assert abs(rate - expected) <= 3 * sigma

    def test_degenerate_allocation_all_base(self):
        config = BlockedSimConfig(500, 0.2, design=BlockedDesign((1.0, 0.0, 0.0)), seed=2)
        outcomes = simulate_blocked(config)
        users, _ = outcomes.counts()
        assert users.tolist() == [500, 0, 0]

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(PreconditionError, match="outside"):
            simulate_blocked(BlockedSimConfig(100, 0.99, 0.0, 0.02))

    def test_deterministic_per_seed(self):
        config = BlockedSimConfig(1000, 0.1, -0.01, 0.02, seed=7)
        a, b = simulate_blocked(config), simulate_blocked(config)
        assert a._variants.tolist() == b._variants.tolist()
        assert a._converted.tolist() == b._converted.tolist()


class TestAnalyze:
    def test_exact_rates_give_exact_effects(self):
        outcomes = outcomes_with_rates(1000, (0.10, 0.095, 0.105))
        analysis = analyze_blocked(outcomes)
        assert analysis.perf_effect == pytest.approx(-0.005)
        assert analysis.feature_effect == pytest.approx(0.010)
        assert analysis.total_effect == pytest.approx(0.005)
        assert analysis.rates == {"base": 0.10, "v1": 0.095, "v2": 0.105}

    def test_saturated_conversion_flags_degenerate(self):
        outcomes = outcomes_with_rates(50, (1.0, 1.0, 1.0))
        analysis = analyze_blocked(outcomes)
        assert analysis.perf_effect == 0.0 and analysis.feature_effect == 0.0
        for contrast in analysis.contrasts.values():
            assert contrast.degenerate
            assert contrast.ci_low == contrast.ci_high == contrast.effect == 0.0

    def test_empty_variant_rejected(self):
        outcomes = BlockedOutcomes(np.array([0, 0, 1]), np.array([True, False, True]))
        with pytest.raises(PreconditionError, match="v2 has no users"):
            analyze_blocked(outcomes)

    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=3).filter(
        lambda rows: {v for v, _ in rows} == {0, 1, 2}
    ))
    @settings(max_examples=60)
    def test_additivity_exact_and_order_free(self, rows):
        variants = np.array([v for v, _ in rows])
        converted = np.array([c for _, c in rows])
        analysis = analyze_blocked(BlockedOutcomes(variants, converted))
        assert analysis.total_effect == analysis.perf_effect + analysis.feature_effect
        perm = np.random.default_rng(0).permutation(len(rows))
        shuffled = analyze_blocked(BlockedOutcomes(variants[perm], converted[perm]))
        assert shuffled.perf_effect == analysis.perf_effect
        assert shuffled.feature_effect == analysis.feature_effect
        assert shuffled.contrasts == analysis.contrasts

    def test_estimator_unbiased_over_replications(self):
        # mean of perf_effect across seeded runs within 3 standard errors
        effects = []
        for seed in range(1000):
            outcomes = simulate_blocked(BlockedSimConfig(6_000, 0.10, -0.005, 0.010, seed=seed))
            effects.append(analyze_blocked(outcomes).perf_effect)
        se = np.std(effects, ddof=1) / np.sqrt(len(effects))
        assert abs(np.mean(effects) - (-0.005)) <= 3 * se


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        outcomes = simulate_blocked(BlockedSimConfig(300, 0.2, -0.01, 0.05, seed=3))
        path = tmp_path / "outcomes.csv"
        write_blocked_csv(outcomes, path)
        back = read_blocked_csv(path)
        assert len(back) == 300
        assert analyze_blocked(back).rates == analyze_blocked(outcomes).rates

    def test_bad_header(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,clicked\nbase,1\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            read_blocked_csv(path)

    def test_unknown_variant(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,converted\nv3,1\n", encoding="utf-8")
        with pytest.raises(InputError, match="unknown variant"):
            read_blocked_csv(path)

    def test_error_names_file_row_after_blank_row(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,converted\nbase,1\n\nv1,2\n", encoding="utf-8")
        with pytest.raises(InputError, match="^row 4: converted"):
            read_blocked_csv(path)
