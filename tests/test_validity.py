"""Validity of the statistics across the settings the CLI accepts, with fixed seeds.

The acceptance criteria check each statistic at one setting; these tests
check it at several, so a change that keeps criterion 7 or 6 but breaks
the sizing or the probe elsewhere fails here.
"""

import numpy as np
import pytest

from scorescope._stats import z_critical
from scorescope.construction import BiasSeverity, bias_severity
from scorescope.experiments import required_sample_size

# (p_control, minimum detectable effect, alpha, power)
_POWER_SETTINGS = [
    (0.001, 0.002, 0.05, 0.8),
    (0.005, 0.005, 0.01, 0.9),
    (0.01, 0.005, 0.05, 0.9),
    (0.02, 0.01, 0.01, 0.8),
    (0.05, 0.01, 0.05, 0.8),
    (0.10, 0.02, 0.05, 0.8),
    (0.10, 0.03, 0.01, 0.9),
    (0.20, 0.05, 0.01, 0.8),
    (0.30, 0.05, 0.05, 0.9),
]
_PAIRS = 40_000


def _rejection_rate(n: int, p_a: float, p_b: float, alpha: float, rng) -> float:
    """Share of ``_PAIRS`` simulated arm pairs of ``n`` users each that the pooled two-sided z-test rejects."""
    x_a = rng.binomial(n, p_a, _PAIRS)
    x_b = rng.binomial(n, p_b, _PAIRS)
    pooled = (x_a + x_b) / (2 * n)
    se = np.sqrt(pooled * (1 - pooled) * (2 / n))
    diff = np.abs(x_b - x_a) / n
    # a pair with no conversion (or all) in both arms has no spread and is not rejected
    return float(np.mean((se > 0) & (diff >= z_critical(alpha) * se)))


@pytest.mark.parametrize("p_control, mde, alpha, power", _POWER_SETTINGS)
def test_sized_experiments_reach_their_power_and_keep_their_alpha(p_control, mde, alpha, power):
    report = required_sample_size(p_control, mde, alpha=alpha, power=power)
    rng = np.random.default_rng(8)
    achieved = _rejection_rate(report.n_per_arm, p_control, p_control + mde, alpha, rng)
    type_one = _rejection_rate(report.n_per_arm, p_control, p_control, alpha, rng)
    assert achieved >= power - 0.02, f"power {achieved:.4f} at n = {report.n_per_arm}"
    assert type_one <= alpha + 0.01, f"type-I {type_one:.4f} at n = {report.n_per_arm}"


_SEEDS = 300


@pytest.mark.parametrize("n, rate, features", [(60, 0.5, 2), (200, 0.5, 10)])
def test_the_bias_probe_is_calibrated_under_independence(n, rate, features):
    """Availability drawn apart from the features: the probe should rarely flag bias, and its p-values
    should be uniform, so that P(p <= 0.05) is about 0.05 and their mean about 1/2."""
    flagged, p_values = 0, []
    for seed in range(_SEEDS):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, features))
        has = rng.random(n) < rate
        while has.sum() in (0, n):
            has = rng.random(n) < rate
        report = bias_severity(x, has, seed=seed)
        flagged += report.severity is not BiasSeverity.NONE
        p_values.append(report.permutation_p)
    p = np.array(p_values)
    # 3 standard errors over 300 seeds: 0.013 for a share near 0.05, 0.017 for the mean of a uniform
    assert flagged / _SEEDS <= 0.08, f"{flagged} of {_SEEDS} seeds flagged"
    assert (p <= 0.05).mean() <= 0.05 + 3 * 0.013, f"P(p <= 0.05) = {(p <= 0.05).mean():.3f}"
    assert abs(p.mean() - 0.5) <= 3 * 0.017, f"mean p = {p.mean():.3f}"
