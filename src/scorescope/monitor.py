"""Windowed chart monitoring over prediction streams.

Records are grouped per model into tumbling count-based windows; each
completed window gets its own chart and diagnosis, and is compared against
a reference chart for drift. Output overrides let testers force a model's
score for matching records to stage scenarios end to end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


def check_drift(
    current: Rdc,
    reference: Rdc,
    config: MonitorConfig,
    *,
    model_id: str = "",
    window_index: int = 0,
    current_diagnosis: RdcDiagnosis | None = None,
    reference_diagnosis: RdcDiagnosis | None = None,
) -> list[AlertEvent]:
    """Compare a window against its reference; zero to three alerts.

    One alert per kind at most, emitted in a fixed order: pattern change
    (the diagnoses differ), drift (total variation strictly above the
    threshold), pathology (the current pattern is anything but healthy
    bimodal).
    """
    distance = rdc_distance(current, reference)
    if current_diagnosis is None:
        current_diagnosis = diagnose(current, config.diagnosis)
    if reference_diagnosis is None:
        reference_diagnosis = diagnose(reference, config.diagnosis)
    found: list[tuple[AlertKind, dict]] = []
    if current_diagnosis.pattern != reference_diagnosis.pattern:
        found.append(
            (
                AlertKind.PATTERN_CHANGE,
                {"prior": reference_diagnosis.pattern.value, "current": current_diagnosis.pattern.value},
            )
        )
    if distance > config.tv_threshold:
        found.append((AlertKind.DRIFT, {"distance": distance, "threshold": config.tv_threshold}))
    if current_diagnosis.pattern is not RdcPattern.HEALTHY_BIMODAL:
        found.append((AlertKind.PATHOLOGY, {"pattern": current_diagnosis.pattern.value}))
    return [AlertEvent(model_id, window_index, kind, detail) for kind, detail in found]


class WindowedMonitor:
    """Incremental per-model windowing; feed records, collect window results.

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

    def feed(self, record: ScoreRecord) -> list[WindowResult]:
        """Add one record; returns the windows it completed (0 or 1)."""
        if self._finished:
            raise PreconditionError("monitor already finished")
        buf = self._buffers.setdefault(record.model_id, [])
        buf.append(record.score)
        if len(buf) >= self.config.window_size:
            self._buffers[record.model_id] = []
            return [self._emit(record.model_id, buf, partial=False)]
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
        results.extend(monitor.feed(record))
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

    def matches(self, record: ScoreRecord) -> bool:
        if self.model_id is not None and record.model_id != self.model_id:
            return False
        if self.entity_id is not None and record.entity_id != self.entity_id:
            return False
        return True


def apply_overrides(
    records: Iterable[ScoreRecord], rules: Sequence[OverrideRule]
) -> tuple[list[ScoreRecord], int]:
    """Apply the first matching rule to each record; order and count preserved.

    Returns the transformed records and how many were overridden.
    """
    out: list[ScoreRecord] = []
    overridden = 0
    for record in records:
        for rule in rules:
            if rule.matches(record):
                out.append(replace(record, score=rule.forced_score))
                overridden += 1
                break
        else:
            out.append(record)
    return out, overridden


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
    skipped_references: dict[str, str] = field(default_factory=dict)  # model -> why its chart went unused


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
    log, or else with the model's first window; a reference chart too small
    to diagnose is left out and named in ``skipped_references``. Overrides
    apply before windowing; malformed lines, out-of-range scores included,
    are counted and skipped. ``on_alert`` sees each alert as its window
    completes. With ``follow`` the log is tailed and the call never returns.
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
    malformed: list[tuple[int, str]] = []

    def handle(result: WindowResult) -> None:
        summary.windows += 1
        summary.partial_windows += result.partial
        ref_rdc, ref_diagnosis = references.setdefault(result.model_id, (result.rdc, result.diagnosis))
        alerts = check_drift(
            result.rdc,
            ref_rdc,
            config,
            model_id=result.model_id,
            window_index=result.window_index,
            current_diagnosis=result.diagnosis,
            reference_diagnosis=ref_diagnosis,
        )
        for alert in alerts:
            summary.alerts[alert.kind.value] = summary.alerts.get(alert.kind.value, 0) + 1
            summary.alert_count += 1
            on_alert(alert)

    lines = read_log_lines(path, follow=follow, poll_interval=poll_interval)
    for batch in parse_score_lines(lines, malformed, out_of_range="skip"):
        for record in batch.records:
            if rules:
                [record], overridden = apply_overrides([record], rules)
                summary.overridden += overridden
            for result in monitor.feed(record):
                handle(result)
    for result in monitor.finish():
        handle(result)
    summary.dropped = monitor.dropped
    summary.malformed_lines = len(malformed)
    return summary
