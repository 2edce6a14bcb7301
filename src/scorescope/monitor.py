"""Windowed chart monitoring over prediction streams.

Records are grouped per model into tumbling count-based windows; each
completed window gets its own chart and diagnosis, and is compared against
a reference chart for drift. Output overrides let testers force a model's
score for matching records to stage scenarios end to end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .ingest import ScoreRecord, parse_score_lines, read_log_lines, read_score_log
from .rdc import DEFAULT_DIAGNOSIS, DiagnosisConfig, Rdc, RdcDiagnosis, RdcPattern, build_rdc, charts_by, diagnose
from .rdc import diagnose_or_skip, rdc_distance


@dataclass(frozen=True)
class MonitorConfig:
    window_size: int = 1000
    tv_threshold: float = 0.15
    diagnosis: DiagnosisConfig = field(default_factory=lambda: DEFAULT_DIAGNOSIS)

    @property
    def bins(self) -> int:
        """Chart bin count: the diagnosis's, so windows and references share it."""
        return self.diagnosis.bins

    def __post_init__(self) -> None:
        floor = max(100, self.diagnosis.min_samples)
        if self.window_size < floor:
            raise PreconditionError(f"window_size must be >= {floor}")
        if not 0.0 <= self.tv_threshold <= 1.0:
            raise PreconditionError("tv_threshold must lie in [0, 1]")


class AlertKind(enum.Enum):
    PATTERN_CHANGE = "PATTERN_CHANGE"
    DRIFT = "DRIFT"
    PATHOLOGY = "PATHOLOGY"


@dataclass(frozen=True)
class AlertEvent:
    model_id: str
    window_index: int
    kind: AlertKind
    detail: dict


@dataclass(frozen=True)
class WindowResult:
    model_id: str
    window_index: int
    rdc: Rdc
    diagnosis: RdcDiagnosis
    partial: bool = False


def check_drift(window: WindowResult, reference: tuple[Rdc, RdcDiagnosis], config: MonitorConfig) -> list[AlertEvent]:
    """Compare a window against its reference chart and diagnosis; zero to three alerts.

    One alert per kind at most, emitted in a fixed order: pattern change
    (the diagnoses differ), drift (total variation strictly above the
    threshold), pathology (the current pattern is anything but healthy
    bimodal).
    """
    ref_rdc, ref_diagnosis = reference
    current, prior = window.diagnosis.pattern, ref_diagnosis.pattern
    distance = rdc_distance(window.rdc, ref_rdc)
    found: list[tuple[AlertKind, dict]] = []
    if current != prior:
        found.append((AlertKind.PATTERN_CHANGE, {"prior": prior.value, "current": current.value}))
    if distance > config.tv_threshold:
        found.append((AlertKind.DRIFT, {"distance": distance, "threshold": config.tv_threshold}))
    if current is not RdcPattern.HEALTHY_BIMODAL:
        found.append((AlertKind.PATHOLOGY, {"pattern": current.value}))
    return [AlertEvent(window.model_id, window.window_index, kind, detail) for kind, detail in found]


class WindowedMonitor:
    """Incremental per-model windowing; feed scores, collect window results.

    Windows tumble every ``config.window_size`` records per model. On
    ``finish`` a trailing partial window is still emitted (flagged) when it
    reaches the diagnosis sample floor; smaller remainders are dropped and
    counted in ``dropped``.
    """

    def __init__(self, config: MonitorConfig | None = None):
        self.config = config or MonitorConfig()
        self._buffers: dict[str, list[float]] = {}
        self._window_counts: dict[str, int] = {}
        self.dropped: dict[str, int] = {}
        self._finished = False

    def _emit(self, model_id: str, scores: list[float], partial: bool) -> WindowResult:
        index = self._window_counts.get(model_id, 0)
        self._window_counts[model_id] = index + 1
        rdc = build_rdc(scores, self.config.diagnosis.bins)
        return WindowResult(model_id, index, rdc, diagnose(rdc, self.config.diagnosis), partial)

    def feed(self, model_id: str, score: float) -> list[WindowResult]:
        """Add one record's score; returns the windows it completed (0 or 1)."""
        if self._finished:
            raise PreconditionError("monitor already finished")
        buf = self._buffers.setdefault(model_id, [])
        buf.append(score)
        if len(buf) >= self.config.window_size:
            self._buffers[model_id] = []
            return [self._emit(model_id, buf, partial=False)]
        return []

    def finish(self) -> list[WindowResult]:
        """Flush trailing partial windows (sorted by model id for determinism)."""
        if self._finished:
            raise PreconditionError("monitor already finished")
        self._finished = True
        out: list[WindowResult] = []
        for model_id in sorted(self._buffers):
            buf = self._buffers[model_id]
            if not buf:
                continue
            if len(buf) >= self.config.diagnosis.min_samples:
                out.append(self._emit(model_id, buf, partial=True))
            else:
                self.dropped[model_id] = self.dropped.get(model_id, 0) + len(buf)
        self._buffers = {}
        return out


def windowed_rdcs(
    records: Iterable[ScoreRecord], config: MonitorConfig | None = None
) -> tuple[list[WindowResult], dict[str, int]]:
    """Window an entire record sequence in one pass.

    Returns the window results in completion order (trailing partials
    last) plus the per-model count of records too few to diagnose.
    """
    monitor = WindowedMonitor(config)
    results: list[WindowResult] = []
    for record in records:
        results.extend(monitor.feed(record.model_id, record.score))
    results.extend(monitor.finish())
    return results, monitor.dropped


@dataclass(frozen=True)
class OverrideRule:
    """Force the score of records matching on model and/or entity id."""

    forced_score: float
    model_id: str | None = None
    entity_id: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.forced_score <= 1.0:
            raise PreconditionError("forced_score must lie in [0, 1]")
        if self.model_id is None and self.entity_id is None:
            raise PreconditionError("a rule must match on model_id or entity_id")


def apply_overrides(
    models: Sequence[str], scores: Sequence[float], entities: Sequence[str | None], rules: Sequence[OverrideRule]
) -> tuple[list[float], int]:
    """Force each record's score to that of the first rule it matches.

    The records are given field by field, in order. Returns a copy of
    ``scores`` with the forced ones in place, and how many records were
    overridden. Entity ids are read only when a rule names an entity.
    """
    scores = list(scores)
    free = np.ones(len(scores), dtype=bool)  # records no earlier rule matched
    model = np.array(models, dtype=object)
    entity = np.array(entities, dtype=object) if any(rule.entity_id is not None for rule in rules) else None
    for rule in rules:
        hit = free.copy()
        if rule.model_id is not None:
            hit &= model == rule.model_id
        if rule.entity_id is not None:
            hit &= entity == rule.entity_id
        for i in np.flatnonzero(hit).tolist():
            scores[i] = rule.forced_score
        free &= ~hit
    return scores, len(scores) - int(free.sum())


@dataclass
class WatchSummary:
    """Counters of one ``watch`` run; the fields of the CLI report."""

    windows: int = 0
    partial_windows: int = 0
    alerts: dict[str, int] = field(default_factory=dict)  # alert kind -> count
    alert_count: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    overridden: int = 0
    malformed_lines: int = 0
    skipped_references: dict[str, str] = field(default_factory=dict)  # model -> why it has no reference chart


def watch(
    path: str | Path,
    config: MonitorConfig,
    on_alert: Callable[[AlertEvent], None],
    *,
    reference: str | Path | None = None,
    rules: Sequence[OverrideRule] = (),
    follow: bool = False,
    poll_interval: float = 1.0,
) -> WatchSummary:
    """Window a score log per model and check every window for drift.

    Each window is compared with its model's chart from the ``reference``
    log, or else with the model's first window; a model the reference log
    has no records for, or too few to diagnose, is named with the reason in
    ``skipped_references``. Overrides apply before windowing; malformed
    lines, out-of-range scores included, are counted in ``malformed_lines``
    and skipped. The tailed log has no malformed-line limit, unlike a log
    ``read_score_log`` reads whole: a live tail never knows its final share
    of bad lines, so it keeps going however many there are. ``on_alert``
    sees each alert as its window completes. With ``follow`` the log is
    tailed and the call never returns.
    """
    if not 0.0 < poll_interval < math.inf:
        raise PreconditionError(f"poll_interval must be a finite number > 0, got {poll_interval!r}")
    summary = WatchSummary()
    references: dict[str, tuple[Rdc, RdcDiagnosis]] = {}
    if reference:
        for model_id, rdc in charts_by(read_score_log(reference).columns, "model_id", config.diagnosis.bins).items():
            diagnosis = diagnose_or_skip(rdc, config.diagnosis)
            if isinstance(diagnosis, str):
                summary.skipped_references[model_id] = diagnosis
            else:
                references[model_id] = (rdc, diagnosis)

    monitor = WindowedMonitor(config)
    malformed: list[tuple[int, str]] = []  # one batch's bad lines; a tail of any length holds no more

    def handle(result: WindowResult) -> None:
        summary.windows += 1
        summary.partial_windows += result.partial
        if reference and result.model_id not in references:  # its first window becomes its reference
            summary.skipped_references.setdefault(result.model_id, "no records in the reference log")
        reference_pair = references.setdefault(result.model_id, (result.rdc, result.diagnosis))
        for alert in check_drift(result, reference_pair, config):
            summary.alerts[alert.kind.value] = summary.alerts.get(alert.kind.value, 0) + 1
            summary.alert_count += 1
            on_alert(alert)

    lines = read_log_lines(path, follow=follow, poll_interval=poll_interval)
    for models, scores, entities, _ in parse_score_lines(lines, malformed, out_of_range="skip"):
        summary.malformed_lines += len(malformed)
        malformed.clear()
        if rules:
            scores, overridden = apply_overrides(models, scores, entities, rules)
            summary.overridden += overridden
        for model_id, score in zip(models, scores):
            for result in monitor.feed(model_id, score):
                handle(result)
    for result in monitor.finish():
        handle(result)
    summary.dropped = monitor.dropped
    return summary
