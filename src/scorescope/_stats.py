"""Normal-approximation helpers shared by the experiment-analysis modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

_STD_NORMAL = NormalDist()


def z_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution."""
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class ZTestResult:
    """Two-proportion comparison: pooled z decision, unpooled normal CI."""

    effect: float
    reject: bool
    ci_low: float
    ci_high: float
    degenerate: bool


def two_proportion_ztest(
    successes_a: int,
    n_a: int,
    successes_b: int,
    n_b: int,
    alpha: float = 0.05,
) -> ZTestResult:
    """Compare conversion rates of two arms (b minus a).

    The rejection decision uses the pooled-variance z statistic; the
    confidence interval uses the unpooled variance of the rate difference.
    With an empty arm or zero variance the result is flagged degenerate:
    the null is not rejected and the interval collapses to the point estimate.
    """
    if n_a <= 0 or n_b <= 0:
        return ZTestResult(0.0, False, 0.0, 0.0, True)
    p_a = successes_a / n_a
    p_b = successes_b / n_b
    effect = p_b - p_a
    pooled = (successes_a + successes_b) / (n_a + n_b)
    var_pooled = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    var_unpooled = p_a * (1.0 - p_a) / n_a + p_b * (1.0 - p_b) / n_b
    z_crit = z_quantile(1.0 - alpha / 2.0)
    if var_pooled <= 0.0 or var_unpooled <= 0.0:
        return ZTestResult(effect, False, effect, effect, True)
    z = effect / math.sqrt(var_pooled)
    half = z_crit * math.sqrt(var_unpooled)
    return ZTestResult(effect, abs(z) >= z_crit, effect - half, effect + half, False)
