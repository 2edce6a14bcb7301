"""Three-variant blocked experiment separating compute cost from feature value.

The base variant runs neither the new model nor the new feature, v1 pays
the model's computation (and its latency) without exposing any change, and
v2 pays the computation and shows the feature. The v1-base contrast prices
the slowdown, v2-v1 prices the feature itself.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._stats import two_proportion_ztest
from .errors import InputError, PreconditionError
from .ingest import csv_rows


class Variant(enum.Enum):
    BASE = "base"
    V1 = "v1"  # model computed, change hidden
    V2 = "v2"  # model computed, change shown


_VARIANTS = (Variant.BASE, Variant.V1, Variant.V2)


@dataclass(frozen=True)
class BlockedDesign:
    """Traffic allocation over (base, v1, v2); must sum to 1."""

    allocation: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self) -> None:
        if len(self.allocation) != 3 or not all(math.isfinite(a) and a >= 0.0 for a in self.allocation):
            raise PreconditionError("allocation needs three finite non-negative proportions")
        if abs(sum(self.allocation) - 1.0) > 1e-12:
            raise PreconditionError("allocation must sum to 1")


# the row text of each outcome code, 2 * variant index + conversion flag, and the header above them
_ROWS = tuple(f"{variant.value},{flag}" for variant in _VARIANTS for flag in (0, 1))
_HEADER = "variant,converted"


class BlockedOutcomes:
    """Per-user outcomes as one column of codes: 2 * variant index + conversion flag."""

    def __init__(self, codes: np.ndarray):
        codes = np.asarray(codes)
        if not np.isin(codes, range(len(_ROWS))).all():  # before the cast, where 258 would wrap to 2
            raise PreconditionError(f"outcome codes must be integers in 0..{len(_ROWS) - 1}")
        self.codes = codes.astype(np.uint8)

    def __len__(self) -> int:
        return len(self.codes)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-variant (users, conversions) in (base, v1, v2) order."""
        table = np.bincount(self.codes, minlength=len(_ROWS)).reshape(len(_VARIANTS), 2)
        return table.sum(axis=1), table[:, 1]


@dataclass(frozen=True)
class BlockedSimConfig:
    n_users: int
    base_cvr: float
    latency_penalty: float = 0.0  # additive delta applied to v1 and v2
    feature_effect: float = 0.0  # additive delta applied to v2 only
    design: BlockedDesign = field(default_factory=BlockedDesign)
    seed: int = 0


def simulate_blocked(config: BlockedSimConfig) -> BlockedOutcomes:
    """Seeded draw of variant assignments and Bernoulli conversions."""
    if config.n_users < 1:
        raise PreconditionError("need at least one user")
    rates = (
        config.base_cvr,
        config.base_cvr + config.latency_penalty,
        config.base_cvr + config.latency_penalty + config.feature_effect,
    )
    for variant, rate in zip(_VARIANTS, rates):
        if not 0.0 <= rate <= 1.0:
            raise PreconditionError(f"conversion rate for {variant.value} is {rate}, outside [0, 1]")
    rng = np.random.default_rng(config.seed)
    variants = rng.choice(3, size=config.n_users, p=config.design.allocation).astype(np.uint8)
    converted = rng.random(config.n_users) < np.asarray(rates)[variants]
    return BlockedOutcomes(2 * variants + converted)


@dataclass(frozen=True)
class Contrast:
    effect: float
    ci_low: float
    ci_high: float
    degenerate: bool


@dataclass(frozen=True)
class BlockedAnalysis:
    """Per-variant rates and the two disentangled effects.

    ``total_effect`` is defined as perf_effect + feature_effect so the
    additivity identity holds exactly; it equals rate(v2) - rate(base) up
    to one floating-point rounding.
    """

    rates: dict
    users: dict
    conversions: dict
    perf_effect: float  # rate(v1) - rate(base): cost of computing the model
    feature_effect: float  # rate(v2) - rate(v1): value of showing the change
    total_effect: float
    contrasts: dict  # name -> Contrast, 95% unpooled normal CIs by default
    alpha: float


def analyze_blocked(outcomes: BlockedOutcomes, alpha: float = 0.05) -> BlockedAnalysis:
    """Estimate the slowdown cost and the feature value from per-user outcomes.

    Order of the users never matters. Every variant must have at least one
    user.
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("alpha must lie strictly inside (0, 1)")
    users, conversions = outcomes.counts()
    for variant, n in zip(_VARIANTS, users):
        if n == 0:
            raise PreconditionError(f"variant {variant.value} has no users")
    rates = conversions / users
    perf = float(rates[1] - rates[0])
    feature = float(rates[2] - rates[1])
    pairs = {"perf": (0, 1), "feature": (1, 2), "total": (0, 2)}
    contrasts = {}
    for name, (i, j) in pairs.items():
        t = two_proportion_ztest(int(conversions[i]), int(users[i]), int(conversions[j]), int(users[j]), alpha)
        contrasts[name] = Contrast(t.effect, t.ci_low, t.ci_high, t.degenerate)
    return BlockedAnalysis(
        rates={v.value: float(r) for v, r in zip(_VARIANTS, rates)},
        users={v.value: int(n) for v, n in zip(_VARIANTS, users)},
        conversions={v.value: int(c) for v, c in zip(_VARIANTS, conversions)},
        perf_effect=perf,
        feature_effect=feature,
        total_effect=perf + feature,
        contrasts=contrasts,
        alpha=alpha,
    )


_WRITE_ROWS = 1 << 16  # rows per write, so memory stays flat in the row count


def write_blocked_csv(outcomes: BlockedOutcomes, path: str | Path) -> None:
    """Write outcomes as ``variant,converted`` rows, each line ending in ``\\r\\n`` as ``csv.writer`` ends it."""
    lines = [f"{row}\r\n".encode() for row in _ROWS]
    with Path(path).open("wb") as fh:
        fh.write(f"{_HEADER}\r\n".encode())
        for start in range(0, len(outcomes), _WRITE_ROWS):
            fh.write(b"".join(map(lines.__getitem__, outcomes.codes[start : start + _WRITE_ROWS].tolist())))


# each row text write_blocked_csv writes, ending in \r\n, in \n or (the last row) in nothing, mapped to its code
_CANONICAL_ROWS = {f"{row}{end}".encode(): code for code, row in enumerate(_ROWS) for end in ("\r\n", "\n", "")}
_CANONICAL_HEADERS = {f"{_HEADER}{end}".encode() for end in ("\r\n", "\n", "")}
_BATCH_BYTES = 1 << 16  # per readlines call, so memory stays flat in the file size


def read_blocked_csv(path: str | Path) -> BlockedOutcomes:
    """Read ``variant,converted`` outcome rows.

    A file made only of the row texts ``write_blocked_csv`` writes is mapped
    line by line; any other file, or one that cannot be opened, is parsed as
    CSV, which gives every error text and row number.
    """
    path = Path(path)
    codes = _canonical_codes(path)
    if codes is None:
        return _parse_blocked_csv(path)
    return BlockedOutcomes(np.frombuffer(codes, dtype=np.uint8))


def _canonical_codes(path: Path) -> array | None:
    """Per-row outcome codes of a file of canonical rows, else None."""
    codes = array("B")
    try:
        with path.open("rb") as fh:
            if fh.readline(64) not in _CANONICAL_HEADERS:  # a longer first line is not canonical either
                return None
            while batch := fh.readlines(_BATCH_BYTES):
                codes.extend(map(_CANONICAL_ROWS.__getitem__, batch))
    except (OSError, KeyError):  # unreadable, or a row that is not canonical
        return None
    return codes


def _parse_blocked_csv(path: Path) -> BlockedOutcomes:
    """``read_blocked_csv`` through ``csv_rows``: any valid CSV, and every error with its row number."""
    rows = csv_rows(path, "outcomes CSV")
    _, header = next(rows)
    if header != _HEADER.split(","):
        raise InputError(f"{path}: header must be {_HEADER}, got {','.join(header)}")
    by_value = {v.value: i for i, v in enumerate(_VARIANTS)}
    codes = array("B")
    for row_no, row in rows:
        if len(row) != 2:
            raise InputError(f"row {row_no}: expected 2 fields, got {len(row)}")
        value = row[0].strip().lower()
        if value not in by_value:
            raise InputError(f"row {row_no}: unknown variant {row[0]!r}")
        flag = row[1].strip()
        if flag not in ("0", "1"):
            raise InputError(f"row {row_no}: converted must be 0 or 1, got {flag!r}")
        codes.append(2 * by_value[value] + (flag == "1"))
    return BlockedOutcomes(np.frombuffer(codes, dtype=np.uint8))
