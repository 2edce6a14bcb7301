"""Windowing, drift alerts, and output overrides."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import bimodal_scores, central_scores, score_records, spike_scores
from scorescope.errors import PreconditionError
from scorescope.ingest import ScoreRecord, write_score_log
from scorescope.monitor import (
    AlertKind,
    MonitorConfig,
    OverrideRule,
    WindowedMonitor,
    apply_overrides,
    check_drift,
    watch,
    windowed_rdcs,
)
from scorescope.rdc import DiagnosisConfig, Rdc, RdcPattern, build_rdc, diagnose, rdc_distance


class TestWindowing:
    def test_window_arithmetic_with_trailing_partial(self):
        records = score_records(np.random.default_rng(0).random(2500))
        results, dropped = windowed_rdcs(records, MonitorConfig(window_size=1000))
        assert [(r.window_index, r.partial, r.rdc.n) for r in results] == [
            (0, False, 1000),
            (1, False, 1000),
            (2, True, 500),
        ]
        assert dropped == {}

    def test_bins_come_from_the_diagnosis_config(self):
        assert "bins" not in {f.name for f in fields(MonitorConfig)}
        config = MonitorConfig(window_size=1000, diagnosis=DiagnosisConfig(bins=50))
        assert config.bins == 50
        results, _ = windowed_rdcs(score_records(bimodal_scores(1000, 0)), config)
        assert results[0].rdc.bin_count == 50

    def test_small_remainder_dropped_and_counted(self):
        records = score_records(np.random.default_rng(1).random(1050))
        results, dropped = windowed_rdcs(records, MonitorConfig(window_size=1000))
        assert len(results) == 1
        assert dropped == {"m1": 50}

    def test_models_window_independently(self):
        a = score_records(np.random.default_rng(2).random(1500), model_id="a")
        b = score_records(np.random.default_rng(3).random(700), model_id="b")
        interleaved = [r for pair in zip(a[:700], b) for r in pair] + a[700:]
        results, dropped = windowed_rdcs(interleaved, MonitorConfig(window_size=1000))
        by_model = {}
        for r in results:
            by_model.setdefault(r.model_id, []).append(r)
        assert [r.rdc.n for r in by_model["a"]] == [1000, 500]
        assert [r.rdc.n for r in by_model["b"]] == [700]
        assert dropped == {}

    def test_partition_covers_every_record(self):
        records = score_records(np.random.default_rng(4).random(3279))
        results, dropped = windowed_rdcs(records, MonitorConfig(window_size=1000))
        assert sum(r.rdc.n for r in results) + dropped.get("m1", 0) == 3279

    def test_stationary_bimodal_stream_stays_healthy(self):
        records = score_records(bimodal_scores(8000, 5))
        results, _ = windowed_rdcs(records, MonitorConfig(window_size=2000))
        assert len(results) == 4
        assert all(r.diagnosis.pattern is RdcPattern.HEALTHY_BIMODAL for r in results)

    def test_streaming_matches_batch(self):
        scores = bimodal_scores(10_000, 6)
        records = score_records(scores)
        config = MonitorConfig(window_size=1000)
        results, _ = windowed_rdcs(records, config)
        for r in results:
            chunk = scores[r.window_index * 1000 : (r.window_index + 1) * 1000]
            batch = diagnose(build_rdc(chunk, config.bins), config.diagnosis)
            assert r.diagnosis.pattern is batch.pattern
            assert r.diagnosis.evidence == batch.evidence
            assert np.array_equal(r.rdc.counts, build_rdc(chunk, config.bins).counts)

    def test_window_size_floor(self):
        with pytest.raises(PreconditionError, match="window_size"):
            MonitorConfig(window_size=50)

    def test_feed_after_finish_rejected(self):
        monitor = WindowedMonitor(MonitorConfig(window_size=100))
        monitor.finish()
        with pytest.raises(PreconditionError):
            monitor.feed(ScoreRecord("m1", 0, 0.5))


class TestCheckDrift:
    def test_identical_charts_no_alerts(self):
        rdc = build_rdc(bimodal_scores(5000, 0))
        assert check_drift(rdc, rdc, MonitorConfig()) == []

    def test_pathological_shift_raises_all_three(self):
        reference = build_rdc(bimodal_scores(10_000, 1))
        current = build_rdc(np.full(1000, 0.5))
        alerts = check_drift(current, reference, MonitorConfig(), model_id="m1", window_index=4)
        kinds = [a.kind for a in alerts]
        assert kinds == [AlertKind.PATTERN_CHANGE, AlertKind.DRIFT, AlertKind.PATHOLOGY]
        # analytic oracle: the point mass shares one bin with reference mass b50,
        # so the total variation distance is exactly 1 - b50
        b50 = reference.counts[50] / reference.n
        drift = alerts[1]
        assert drift.detail["distance"] == pytest.approx(1.0 - b50, abs=1e-12)
        assert drift.detail["distance"] > 0.15
        assert all(a.model_id == "m1" and a.window_index == 4 for a in alerts)

    def test_distance_exactly_at_threshold_is_quiet(self):
        reference = Rdc.from_counts([100, 0])
        current = Rdc.from_counts([75, 25])
        config = MonitorConfig(tv_threshold=0.25)
        assert rdc_distance(current, reference) == 0.25
        kinds = [a.kind for a in check_drift(current, reference, config,
                                             current_diagnosis=_dummy_diag(), reference_diagnosis=_dummy_diag())]
        assert AlertKind.DRIFT not in kinds
        just_over = Rdc.from_counts([74, 26])
        kinds = [a.kind for a in check_drift(just_over, reference, config,
                                             current_diagnosis=_dummy_diag(), reference_diagnosis=_dummy_diag())]
        assert AlertKind.DRIFT in kinds

    def test_incompatible_binning(self):
        with pytest.raises(PreconditionError, match="binning"):
            check_drift(Rdc.from_counts([1, 1]), Rdc.from_counts([1, 1, 1]), MonitorConfig())


class TestWatch:
    def test_first_window_becomes_the_reference(self, tmp_path):
        scores = np.concatenate([spike_scores(1000, 1), bimodal_scores(1000, 2)])
        path = tmp_path / "log.jsonl"
        write_score_log(score_records(scores), path)
        alerts = []
        summary = watch(path, MonitorConfig(window_size=1000), alerts.append)
        assert [(a.window_index, a.kind) for a in alerts] == [
            (0, AlertKind.PATHOLOGY),
            (1, AlertKind.PATTERN_CHANGE),
            (1, AlertKind.DRIFT),
        ]
        assert alerts[0].detail == {"pattern": RdcPattern.EXTREME_SPIKE.value}
        assert alerts[1].detail == {"prior": "EXTREME_SPIKE", "current": "HEALTHY_BIMODAL"}
        assert summary.windows == 2 and summary.alert_count == 3
        assert summary.alerts == {"PATHOLOGY": 1, "PATTERN_CHANGE": 1, "DRIFT": 1}

    def test_too_small_reference_falls_back_to_the_first_window(self, tmp_path):
        reference = tmp_path / "ref.jsonl"
        write_score_log(score_records(central_scores(50, 3)), reference)
        path = tmp_path / "log.jsonl"
        write_score_log(score_records(np.concatenate([spike_scores(1000, 1), bimodal_scores(1000, 2)])), path)
        alerts = []
        summary = watch(path, MonitorConfig(window_size=1000), alerts.append, reference=reference)
        assert summary.skipped_references == {"m1": "need at least 100 samples, got 50"}
        assert [(a.window_index, a.kind) for a in alerts] == [
            (0, AlertKind.PATHOLOGY),
            (1, AlertKind.PATTERN_CHANGE),
            (1, AlertKind.DRIFT),
        ]


def _dummy_diag():
    return diagnose(build_rdc(bimodal_scores(5000, 2)))


class TestOverrides:
    def test_empty_rule_list_is_identity(self):
        records = score_records([0.1, 0.2, 0.3])
        out, n = apply_overrides(records, [])
        assert out == records and n == 0

    def test_model_rule_rewrites_scores(self):
        records = score_records([0.1, 0.2], model_id="m1") + score_records([0.3], model_id="m2")
        rule = OverrideRule(0.99, model_id="m1")
        out, n = apply_overrides(records, [rule])
        assert [r.score for r in out] == [0.99, 0.99, 0.3]
        assert n == 2

    def test_first_matching_rule_wins(self):
        records = score_records([0.5], model_id="m1")
        rules = [OverrideRule(0.2, model_id="m1"), OverrideRule(0.8, model_id="m1")]
        out, _ = apply_overrides(records, rules)
        assert out[0].score == 0.2

    def test_entity_rule(self):
        records = [ScoreRecord("m1", 0, 0.4, entity_id="e1"), ScoreRecord("m1", 1, 0.4, entity_id="e2")]
        out, n = apply_overrides(records, [OverrideRule(1.0, entity_id="e1")])
        assert [r.score for r in out] == [1.0, 0.4] and n == 1

    def test_rule_requires_a_predicate(self):
        with pytest.raises(PreconditionError):
            OverrideRule(0.5)

    def test_forced_score_validated(self):
        with pytest.raises(PreconditionError):
            OverrideRule(1.5, model_id="m1")

    @given(st.lists(st.tuples(st.sampled_from(["m1", "m2", "m3"]), st.floats(0, 1)), max_size=60))
    @settings(max_examples=40)
    def test_never_changes_count_or_order(self, rows):
        records = [ScoreRecord(m, i, s) for i, (m, s) in enumerate(rows)]
        out, n = apply_overrides(records, [OverrideRule(0.7, model_id="m2")])
        assert len(out) == len(records)
        assert [r.ts for r in out] == [r.ts for r in records]
        assert [r.model_id for r in out] == [r.model_id for r in records]
        assert n == sum(1 for r in records if r.model_id == "m2")
