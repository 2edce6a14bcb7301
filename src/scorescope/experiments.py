"""Comparing two models that solve the same task.

When a challenger disagrees with the incumbent on only a sliver of traffic,
only that sliver carries any signal: agreeing users experience the same
product either way. These tools quantify the sliver (observed disagreement
and its accuracy-implied upper bound), translate it into the traffic an
experiment must ingest, and simulate the disagreement-routed test itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._stats import two_proportion_ztest, z_quantile
from .errors import PreconditionError
from .ingest import PairedPredictions


@dataclass(frozen=True)
class DisagreementReport:
    n_pairs: int
    n_disagree: int
    rate: float
    n_labeled: int = 0
    accuracy_a: float | None = None
    accuracy_b: float | None = None


def disagreement(pairs: PairedPredictions, threshold: float = 0.5) -> DisagreementReport:
    """Fraction of entities the two models would treat differently.

    Scores are binarized at ``threshold`` (applied to both sides); binary
    inputs pass through unchanged at the default. Accuracies are reported
    over the labeled subset when labels are present.
    """
    if not pairs:
        raise PreconditionError("no prediction pairs provided")
    if not 0.0 < threshold < 1.0:
        raise PreconditionError("threshold must lie strictly inside (0, 1)")
    a = pairs.pred_a >= threshold
    b = pairs.pred_b >= threshold
    n_disagree = int((a != b).sum())
    labeled = pairs.labels >= 0
    n_labeled = int(labeled.sum())
    accuracy_a = accuracy_b = None
    if n_labeled:
        y = pairs.labels[labeled] == 1
        accuracy_a = float((a[labeled] == y).mean())
        accuracy_b = float((b[labeled] == y).mean())
    return DisagreementReport(
        n_pairs=len(pairs),
        n_disagree=n_disagree,
        rate=n_disagree / len(pairs),
        n_labeled=n_labeled,
        accuracy_a=accuracy_a,
        accuracy_b=accuracy_b,
    )


def max_disagreement(accuracy_a, accuracy_b):
    """Largest possible disagreement rate given the two accuracies.

    On a binary task the models disagree exactly when one of them is right
    and the other wrong, so the bound maximizes P(exactly one correct) over
    all joint correctness distributions with the given marginals:
    min(1 - a, b) + min(1 - b, a). Works on any numeric type that supports
    arithmetic and comparison (floats, Fractions, Decimals).
    """
    for v in (accuracy_a, accuracy_b):
        if not 0 <= v <= 1:
            raise PreconditionError(f"accuracy {v} outside [0, 1]")
    return min(1 - accuracy_a, accuracy_b) + min(1 - accuracy_b, accuracy_a)


def impacted_traffic_curve(
    baseline_accuracy: float, new_accuracies: Sequence[float]
) -> list[tuple[float, float]]:
    """Upper bound of testable traffic versus challenger accuracy.

    Each grid point pairs the challenger accuracy with
    ``max_disagreement(baseline, it)``; for a baseline at or above 0.5 the
    bound falls as the challenger improves, which is the whole problem.
    """
    if not 0 <= baseline_accuracy <= 1:
        raise PreconditionError("baseline accuracy outside [0, 1]")
    grid = [float(v) for v in new_accuracies]
    if not grid:
        raise PreconditionError("empty accuracy grid")
    for v in grid:
        if v < baseline_accuracy or v > 1.0:
            raise PreconditionError(f"grid accuracy {v} outside [{baseline_accuracy}, 1]")
    return [(v, max_disagreement(baseline_accuracy, v)) for v in grid]


@dataclass(frozen=True)
class PowerReport:
    p_control: float
    p_treatment: float
    alpha: float
    power: float
    n_per_arm: int
    disagreement_rate: float
    total_traffic_required: int


def required_sample_size(
    p_control: float,
    minimum_detectable_effect: float,
    alpha: float = 0.05,
    power: float = 0.8,
    disagreement_rate: float = 1.0,
) -> PowerReport:
    """Two-proportion z-test sizing, diluted by the disagreement rate.

    ``n_per_arm`` is the classic normal-approximation sample size for
    detecting ``minimum_detectable_effect`` on top of ``p_control``. Only
    disagreeing users enroll, so the traffic that must flow through the
    experiment is 2 * n_per_arm / disagreement_rate, rounded up.
    """
    if disagreement_rate == 0.0:
        raise PreconditionError("experiment impossible: models identical (disagreement rate 0)")
    if not 0.0 < disagreement_rate <= 1.0:
        raise PreconditionError("disagreement rate must lie in (0, 1]")
    if minimum_detectable_effect <= 0.0:
        raise PreconditionError("minimum detectable effect must be positive")
    p_treatment = p_control + minimum_detectable_effect
    if not 0.0 < p_control < 1.0 or not p_treatment < 1.0:
        raise PreconditionError("conversion rates must lie strictly inside (0, 1)")
    if not 0.0 < alpha < 1.0 or not 0.0 < power < 1.0:
        raise PreconditionError("alpha and power must lie strictly inside (0, 1)")
    z_alpha = z_quantile(1.0 - alpha / 2.0)
    z_power = z_quantile(power)
    p_bar = (p_control + p_treatment) / 2.0
    numerator = z_alpha * math.sqrt(2.0 * p_bar * (1.0 - p_bar)) + z_power * math.sqrt(
        p_control * (1.0 - p_control) + p_treatment * (1.0 - p_treatment)
    )
    n_per_arm = math.ceil((numerator / minimum_detectable_effect) ** 2)
    total = math.ceil(2 * n_per_arm / disagreement_rate)
    return PowerReport(
        p_control=p_control,
        p_treatment=p_treatment,
        alpha=alpha,
        power=power,
        n_per_arm=n_per_arm,
        disagreement_rate=disagreement_rate,
        total_traffic_required=total,
    )


@dataclass(frozen=True)
class PairedSimConfig:
    """Generator for a disagreement-routed A/B test.

    Each user falls into one joint-correctness cell (both models right,
    only A right, only B right, neither). Only the two "only" cells enroll;
    enrolled users split 50/50 between the arms, and convert at
    ``conversion_correct`` or ``conversion_incorrect`` depending on whether
    the model they were shown got them right.
    """

    n_users: int
    p_both: float
    p_only_a: float
    p_only_b: float
    p_neither: float
    conversion_correct: float
    conversion_incorrect: float
    alpha: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class SimOutcome:
    enrolled: int
    effect_estimate: float
    ci_low: float
    ci_high: float
    rejected_null: bool
    note: str = ""


def simulate_paired_experiment(config: PairedSimConfig) -> SimOutcome:
    """One seeded run of the disagreement-routed experiment.

    The reported effect is treatment minus control conversion among
    enrolled users, tested with the pooled two-proportion z statistic at
    ``config.alpha`` (two-sided).
    """
    probs = (config.p_both, config.p_only_a, config.p_only_b, config.p_neither)
    if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
        raise PreconditionError("joint correctness probabilities must be non-negative and sum to 1")
    for rate in (config.conversion_correct, config.conversion_incorrect):
        if not 0.0 <= rate <= 1.0:
            raise PreconditionError("conversion rates must lie in [0, 1]")
    if config.n_users < 1:
        raise PreconditionError("need at least one user")

    rng = np.random.default_rng(config.seed)
    cells = rng.choice(4, size=config.n_users, p=np.array(probs) / sum(probs))
    enrolled_mask = (cells == 1) | (cells == 2)
    enrolled = int(enrolled_mask.sum())
    if enrolled == 0:
        return SimOutcome(0, 0.0, 0.0, 0.0, False, "no experiment possible: the models never disagree")

    only_b = cells[enrolled_mask] == 2
    in_treatment = rng.random(enrolled) < 0.5
    # control shows model A, treatment shows model B
    shown_correct = np.where(in_treatment, only_b, ~only_b)
    p_convert = np.where(shown_correct, config.conversion_correct, config.conversion_incorrect)
    converted = rng.random(enrolled) < p_convert

    n_c = int((~in_treatment).sum())
    n_t = enrolled - n_c
    if n_c == 0 or n_t == 0:
        return SimOutcome(enrolled, 0.0, 0.0, 0.0, False, "degenerate randomization: an arm is empty")
    x_c = int(converted[~in_treatment].sum())
    x_t = int(converted[in_treatment].sum())
    test = two_proportion_ztest(x_c, n_c, x_t, n_t, config.alpha)
    note = "degenerate: zero variance in both arms" if test.degenerate else ""
    return SimOutcome(enrolled, test.effect, test.ci_low, test.ci_high, test.reject, note)
