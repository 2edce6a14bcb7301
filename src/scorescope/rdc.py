"""Response distribution charts: histogram construction, smoothing, mode
structure, and the shape heuristics that flag model pathologies.

The chart is a fixed-width histogram of a scoring classifier's outputs over
[0, 1]. A well separated model piles mass near 0 and near 1 with a quiet
region in between; departures from that shape (a central hump, a dominant
single-bin spike, bin-to-bin noise) are flagged by ``diagnose`` together
with the measurements that triggered the call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .ingest import ArrayFieldsEq, ScoreColumns


class RdcPattern(enum.Enum):
    HEALTHY_BIMODAL = "HEALTHY_BIMODAL"
    CENTRAL_UNIMODAL = "CENTRAL_UNIMODAL"
    EXTREME_SPIKE = "EXTREME_SPIKE"
    NOISY = "NOISY"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
class Rdc(ArrayFieldsEq):
    """Histogram of model scores over [0, 1]."""

    edges: np.ndarray  # bin_count + 1 ascending edges, edges[0] = 0, edges[-1] = 1
    counts: np.ndarray  # bin_count non-negative int64
    n: int

    @property
    def bin_count(self) -> int:
        return len(self.counts)

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def frequencies(self) -> np.ndarray:
        """Counts normalized to sum 1."""
        return self.counts / self.n

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "Rdc":
        """Build directly from per-bin counts on the uniform [0, 1] grid."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or len(counts) < 2:
            raise PreconditionError("counts must be a vector of at least 2 bins")
        if (counts < 0).any():
            raise PreconditionError("counts must be non-negative")
        n = int(counts.sum())
        if n == 0:
            raise PreconditionError("histogram must contain at least one sample")
        edges = np.linspace(0.0, 1.0, len(counts) + 1)
        return cls(edges, counts, n)


def build_rdc(scores, bin_count: int = 100) -> Rdc:
    """Histogram scores into ``bin_count`` equal-width bins over [0, 1].

    Bins are half-open [lo, hi) except the last, which is closed so a score
    of exactly 1.0 lands in the top bin.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise PreconditionError("at least one score is required")
    if bin_count < 2:
        raise PreconditionError("bin_count must be >= 2")
    if not np.isfinite(scores).all() or scores.min() < 0.0 or scores.max() > 1.0:
        raise PreconditionError("scores must lie in [0, 1]")
    counts, edges = np.histogram(scores, bins=bin_count, range=(0.0, 1.0))
    return Rdc(edges, counts.astype(np.int64), int(scores.size))


def log_view(rdc: Rdc) -> np.ndarray:
    """Per-bin log frequencies, log(1 + count), for reading rare-class cues."""
    return np.log1p(rdc.counts.astype(np.float64))


@dataclass(frozen=True, eq=False)
class SmoothedRdc(ArrayFieldsEq):
    """Moving-average view of an Rdc plus how far the raw shape sits from it.

    ``roughness`` is the L1 residual sum |f_i - heights_i| between the raw
    normalized frequencies and the smoothed heights; 0 for any histogram the
    window reproduces exactly, approaching 2 for shapes the window cannot
    represent at all.
    """

    base: Rdc
    window: int
    heights: np.ndarray  # renormalized moving average, sums to 1
    roughness: float


def smooth(rdc: Rdc, window: int = 5) -> SmoothedRdc:
    """Centered moving average of the normalized frequencies.

    The window shrinks at the boundaries (edge truncation: each height is
    the mean over the in-range part of the window) and the result is
    renormalized to unit mass.
    """
    if window < 1 or window % 2 == 0 or window > rdc.bin_count:
        raise PreconditionError(f"window must be odd and within [1, {rdc.bin_count}], got {window}")
    freqs = rdc.frequencies
    if window == 1:
        return SmoothedRdc(rdc, window, freqs, 0.0)
    half = window // 2
    k = rdc.bin_count
    # per-window means (not a cumsum sweep): windows holding the same values
    # produce bit-identical heights, which mode plateaus rely on
    averaged = np.empty(k)
    averaged[half : k - half] = sliding_window_view(freqs, window).mean(axis=1)
    for i in (*range(half), *range(k - half, k)):  # truncated windows at the edges
        averaged[i] = freqs[max(i - half, 0) : min(i + half + 1, k)].mean()
    heights = averaged / averaged.sum()
    roughness = float(np.abs(freqs - heights).sum())
    return SmoothedRdc(rdc, window, heights, roughness)


@dataclass(frozen=True)
class Mode:
    """A retained histogram peak."""

    bin_index: int
    location: float  # bin center
    height: float
    prominence: float
    mass: float  # smoothed mass of the basin this mode dominates
    basin: tuple[int, int]  # inclusive bin range of that basin


def _plateau_maxima(h: list[float]) -> list[int]:
    """Indices of local maxima; plateaus collapse to their center bin.

    Boundary bins count as maxima when the inward neighbor is lower, so the
    ideal peak-at-0 / peak-at-1 shape is detected.
    """
    out: list[int] = []
    k = len(h)
    i = 0
    while i < k:
        j = i
        while j + 1 < k and h[j + 1] == h[i]:
            j += 1
        left_ok = i == 0 or h[i - 1] < h[i]
        right_ok = j == k - 1 or h[j + 1] < h[i]
        if left_ok and right_ok:
            out.append((i + j) // 2)
        i = j + 1
    return out


def _prominence(h: list[float], peak: int) -> float:
    """Topographic prominence: height above the highest saddle toward a
    strictly higher point, with the array boundary acting as a sea wall."""
    top = h[peak]
    left = peak - 1
    while left >= 0 and h[left] <= top:
        left -= 1
    right, k = peak + 1, len(h)
    while right < k and h[right] <= top:
        right += 1
    # the lowest point on each side before a higher one (or the boundary)
    bases = [min(side) for side in (h[left + 1 : peak], h[peak + 1 : right]) if side]
    if not bases:
        return top
    return top - max(bases)


def detect_modes(smoothed: SmoothedRdc, prominence_min: float = 0.10) -> tuple[Mode, ...]:
    """Find the modes of the smoothed heights.

    A local maximum is kept when its prominence is at least
    ``prominence_min`` times the tallest height. Each retained mode owns the
    basin delimited by the (leftmost) minimum bins between it and its
    neighbors; the basin mass is what ``diagnose`` ranks modes by.
    """
    h = smoothed.heights
    heights = h.tolist()  # the walks below index one float at a time
    centers = smoothed.base.centers
    cutoff = prominence_min * float(h.max())

    peaks: list[tuple[int, float]] = []
    for p in _plateau_maxima(heights):
        prom = _prominence(heights, p)
        if prom >= cutoff and prom > 0.0:
            peaks.append((p, prom))

    # basin boundaries: leftmost argmin between each adjacent pair of peaks
    bounds: list[int] = []
    for (a, _), (b, _) in zip(peaks, peaks[1:]):
        gap = h[a + 1 : b]
        bounds.append(a + 1 + int(np.argmin(gap)))

    modes: list[Mode] = []
    for idx, (p, prom) in enumerate(peaks):
        start = 0 if idx == 0 else bounds[idx - 1] + 1
        end = len(h) - 1 if idx == len(peaks) - 1 else bounds[idx]
        mass = float(h[start : end + 1].sum())
        modes.append(Mode(p, float(centers[p]), heights[p], prom, mass, (start, end)))
    return tuple(modes)


@dataclass(frozen=True)
class ThresholdBand:
    """Score interval between the two modes that is all valley floor.

    Any point inside is a workable decision threshold: pick ``lower`` to
    maximize recall of the positive class, ``upper`` to maximize precision,
    or ``recommended`` (the band center) absent a preference.
    """

    lower: float
    upper: float
    recommended: float


MAX_BINS = 10_000  # a bound on --bins, so a typo cannot size a histogram past memory


@dataclass(frozen=True)
class DiagnosisConfig:
    """Tunable thresholds behind ``diagnose``.

    The defaults are conventions, not measured constants; every report
    carries them so a verdict can be audited.
    """

    bins: int = 100
    window: int = 5
    prominence_min: float = 0.10
    min_samples: int = 100
    spike_share: float = 0.25  # single raw bin share that counts as a spike
    roughness_max: float = 0.35
    central_lo: float = 0.20
    central_hi: float = 0.80
    valley_depth_floor: float = 0.20  # fraction of the lower adjacent mode height
    band_tolerance: float = 0.10  # band accepts heights up to (1 + this) * valley min
    second_mode_mass: float = 0.10  # mass that lets a second mode veto the spike rule

    def __post_init__(self) -> None:
        # checked here, not first when a chart is built, so a run that charts nothing still rejects them
        if self.bins < 2:
            raise PreconditionError("bin_count must be >= 2")
        if self.bins > MAX_BINS:
            raise PreconditionError(f"bin_count must be <= {MAX_BINS}, got {self.bins}")
        if self.window < 1 or self.window % 2 == 0:
            raise PreconditionError(f"diagnosis window must be an odd integer >= 1, got {self.window}")
        if self.window > self.bins:
            raise PreconditionError(f"diagnosis window must be at most bin_count {self.bins}, got {self.window}")
        if self.min_samples < 1:
            raise PreconditionError(f"diagnosis min_samples must be >= 1, got {self.min_samples}")


DEFAULT_DIAGNOSIS = DiagnosisConfig()


@dataclass(frozen=True)
class RdcDiagnosis:
    pattern: RdcPattern
    evidence: dict
    threshold_band: ThresholdBand | None = None


def _mode_summary(mode: Mode) -> dict:
    return {
        "bin_index": mode.bin_index,
        "location": mode.location,
        "height": mode.height,
        "prominence": mode.prominence,
        "mass": mode.mass,
    }


def _valley_band(edges: np.ndarray, start: int, gap: np.ndarray, tolerance: float) -> ThresholdBand:
    """Threshold band in the valley ``gap``, the smoothed heights of bins ``start`` onward.

    The band is the maximal contiguous run of valley bins whose heights stay
    within ``tolerance`` of the valley minimum, anchored at the minimum itself.
    """
    cutoff = (1.0 + tolerance) * float(gap.min())
    anchor = int(np.argmin(gap))  # leftmost minimum
    lo = anchor
    while lo > 0 and gap[lo - 1] <= cutoff:
        lo -= 1
    hi = anchor
    while hi + 1 < len(gap) and gap[hi + 1] <= cutoff:
        hi += 1
    lower = float(edges[start + lo])
    upper = float(edges[start + hi + 1])
    return ThresholdBand(lower, upper, (lower + upper) / 2.0)


def diagnose(rdc: Rdc, config: DiagnosisConfig = DEFAULT_DIAGNOSIS) -> RdcDiagnosis:
    """Classify the chart shape into one pathology pattern.

    Rules fire in a fixed order: noisy, healthy bimodal, extreme spike,
    central unimodal, else indeterminate. The noisy rule stands down when a
    single bin dominates the histogram: a point mass inflates the smoothing
    residual by construction, and that shape belongs to the spike rule. The
    spike rule runs after the bimodal rule so that the ideal
    peak-at-0/peak-at-1 shape is not misread as a defect.
    """
    if rdc.n < config.min_samples:
        raise PreconditionError(f"need at least {config.min_samples} samples, got {rdc.n}")
    smoothed = smooth(rdc, config.window)
    modes = detect_modes(smoothed, config.prominence_min)

    spike_bin = int(np.argmax(rdc.counts))
    spike_share = float(rdc.counts[spike_bin] / rdc.n)
    evidence: dict = {
        "n": rdc.n,
        "roughness": smoothed.roughness,
        "spike_bin": spike_bin,
        "spike_share": spike_share,
        "modes": [_mode_summary(m) for m in modes],
    }

    if smoothed.roughness > config.roughness_max and spike_share < config.spike_share:
        return RdcDiagnosis(RdcPattern.NOISY, evidence)

    if len(modes) >= 2:
        ranked = sorted(modes, key=lambda m: (-m.mass, m.bin_index))
        left, right = sorted(ranked[:2], key=lambda m: m.bin_index)
        gap = smoothed.heights[left.bin_index + 1 : right.bin_index]
        vmin = float(gap.min())
        depth = min(left.height, right.height) - vmin
        evidence["valley"] = {
            "between": [left.bin_index, right.bin_index],
            "min_height": vmin,
            "depth": depth,
        }
        if len(modes) > 2:
            evidence["extra_modes"] = [
                _mode_summary(m) for m in modes if m not in (left, right)
            ]
        if depth >= config.valley_depth_floor * min(left.height, right.height):
            band = _valley_band(rdc.edges, left.bin_index + 1, gap, config.band_tolerance)
            return RdcDiagnosis(RdcPattern.HEALTHY_BIMODAL, evidence, band)

    if spike_share >= config.spike_share:
        second = any(
            m.mass >= config.second_mode_mass and not (m.basin[0] <= spike_bin <= m.basin[1])
            for m in modes
        )
        if not second:
            return RdcDiagnosis(RdcPattern.EXTREME_SPIKE, evidence)

    if len(modes) == 1 and config.central_lo <= modes[0].location <= config.central_hi:
        return RdcDiagnosis(RdcPattern.CENTRAL_UNIMODAL, evidence)

    return RdcDiagnosis(RdcPattern.INDETERMINATE, evidence)


def diagnose_or_skip(rdc: Rdc, config: DiagnosisConfig = DEFAULT_DIAGNOSIS) -> RdcDiagnosis | str:
    """``diagnose`` the chart, or return why it has too few samples for it."""
    try:
        return diagnose(rdc, config)
    except PreconditionError as exc:
        if rdc.n >= config.min_samples:
            raise
        return str(exc)


def group_by(columns: ScoreColumns, field: str) -> dict[str, np.ndarray]:
    """Row indices per value of ``"model_id"`` or ``"class_label"``, in key order.

    Every record must carry the field. Each group is a slice of a stable sort
    by code, so its rows keep file order.
    """
    coded = {"model_id": (columns.model, columns.model_ids), "class_label": (columns.class_code, columns.class_ids)}
    codes, keys = coded[field]
    missing = int((codes < 0).sum())
    if missing:
        raise PreconditionError(f"{missing} of {len(codes)} records have no {field.replace('_', ' ')}")
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(len(keys) + 1)).tolist()
    return {key: order[lo:hi] for key, lo, hi in zip(keys, bounds, bounds[1:]) if hi > lo}


def charts_by(columns: ScoreColumns, field: str, bin_count: int = 100) -> dict[str, Rdc]:
    """One chart per value of ``"model_id"`` or ``"class_label"``, in key order."""
    return {key: build_rdc(columns.score[rows], bin_count) for key, rows in group_by(columns, field).items()}


def one_vs_rest(columns: ScoreColumns, bin_count: int = 100) -> dict[str, Rdc]:
    """One chart per class from multi-class one-vs-rest score records."""
    return charts_by(columns, "class_label", bin_count)


def rdc_distance(a: Rdc, b: Rdc) -> float:
    """Total variation distance between the two normalized histograms."""
    if a.bin_count != b.bin_count or not np.array_equal(a.edges, b.edges):
        raise PreconditionError("incompatible binning: charts must share bin edges")
    return float(0.5 * np.abs(a.frequencies - b.frequencies).sum())
