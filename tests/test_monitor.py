"""Windowing, drift alerts, and output overrides."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import bimodal_scores, central_scores, score_records, spike_scores
from scorescope.errors import PreconditionError
from scorescope.ingest import ScoreColumns, ScoreRecord, write_score_log
from scorescope.monitor import (
    AlertKind,
    MonitorConfig,
    OverrideRule,
    WindowedMonitor,
    WindowResult,
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

    def test_window_results_compare_by_value(self):
        records = score_records(bimodal_scores(2000, 0))
        first, _ = windowed_rdcs(records, MonitorConfig(window_size=1000))
        again, _ = windowed_rdcs(records, MonitorConfig(window_size=1000))
        assert first == again
        assert first[0] != first[1]  # same model, config and shape: only the chart arrays differ

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
            monitor.feed("m1", 0.5)


class TestCheckDrift:
    def test_identical_charts_no_alerts(self):
        rdc = build_rdc(bimodal_scores(5000, 0))
        diagnosis = diagnose(rdc)
        assert check_drift(WindowResult("m1", 0, rdc, diagnosis), (rdc, diagnosis), MonitorConfig()) == []

    def test_pathological_shift_raises_all_three(self):
        reference = build_rdc(bimodal_scores(10_000, 1))
        current = build_rdc(np.full(1000, 0.5))
        window = WindowResult("m1", 4, current, diagnose(current))
        alerts = check_drift(window, (reference, diagnose(reference)), MonitorConfig())
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
        healthy = _dummy_diag()  # two-bin charts are too coarse to diagnose
        kinds = [a.kind for a in check_drift(WindowResult("m1", 0, current, healthy), (reference, healthy), config)]
        assert AlertKind.DRIFT not in kinds
        just_over = Rdc.from_counts([74, 26])
        kinds = [a.kind for a in check_drift(WindowResult("m1", 0, just_over, healthy), (reference, healthy), config)]
        assert AlertKind.DRIFT in kinds

    def test_incompatible_binning(self):
        healthy = _dummy_diag()  # charts of two and three records are too small to diagnose
        with pytest.raises(PreconditionError, match="binning"):
            check_drift(
                WindowResult("m1", 0, Rdc.from_counts([1, 1]), healthy),
                (Rdc.from_counts([1, 1, 1]), healthy),
                MonitorConfig(),
            )


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

    def test_alerts_are_check_drift_over_the_windowing(self, tmp_path):
        config = MonitorConfig(window_size=500)
        streams = {
            "a": np.concatenate([bimodal_scores(1000, 4), spike_scores(500, 5), bimodal_scores(300, 6)]),
            "b": np.concatenate([bimodal_scores(1200, 7), central_scores(500, 8)]),
            "c": spike_scores(1100, 9, spike_value=1.0),
        }
        # interleaved at random, each model's records in order
        order = np.random.default_rng(10).permutation(np.repeat(list(streams), [len(v) for v in streams.values()]))
        position = dict.fromkeys(streams, 0)
        records = []
        for model_id in order.tolist():
            records.append(ScoreRecord(model_id, len(records), float(streams[model_id][position[model_id]])))
            position[model_id] += 1
        path, reference = tmp_path / "log.jsonl", tmp_path / "ref.jsonl"
        write_score_log(records, path)
        ref_scores = central_scores(800, 11)
        write_score_log(score_records(ref_scores, model_id="b"), reference)

        alerts = []
        summary = watch(path, config, alerts.append, reference=reference)

        results, dropped = windowed_rdcs(records, config)
        ref_rdc = build_rdc(ref_scores, config.bins)
        references = {"b": (ref_rdc, diagnose(ref_rdc, config.diagnosis))}
        expected = []
        for result in results:  # a model without a reference chart is compared with its first window
            against = references.setdefault(result.model_id, (result.rdc, result.diagnosis))
            expected += check_drift(result, against, config)
        assert alerts == expected
        assert {a.model_id for a in alerts} == set(streams)
        assert {a.kind for a in alerts} == set(AlertKind)
        assert (summary.windows, summary.alert_count, summary.dropped) == (len(results), len(expected), dropped)


def _dummy_diag():
    return diagnose(build_rdc(bimodal_scores(5000, 2)))


class TestOverrides:
    def test_empty_rule_list_is_identity(self):
        columns = ScoreColumns.from_records(score_records([0.1, 0.2, 0.3]))
        out, n = apply_overrides(columns, [])
        assert out == columns and n == 0

    def test_model_rule_rewrites_scores(self):
        columns = ScoreColumns.from_records(score_records([0.1, 0.2], model_id="m1") + score_records([0.3], model_id="m2"))
        rule = OverrideRule(0.99, model_id="m1")
        out, n = apply_overrides(columns, [rule])
        assert out.score.tolist() == [0.99, 0.99, 0.3]
        assert n == 2

    def test_first_matching_rule_wins(self):
        columns = ScoreColumns.from_records(score_records([0.5], model_id="m1"))
        rules = [OverrideRule(0.2, model_id="m1"), OverrideRule(0.8, model_id="m1")]
        out, _ = apply_overrides(columns, rules)
        assert out.score[0] == 0.2

    def test_entity_rule(self):
        records = [ScoreRecord("m1", 0, 0.4, entity_id="e1"), ScoreRecord("m1", 1, 0.4, entity_id="e2")]
        out, n = apply_overrides(ScoreColumns.from_records(records), [OverrideRule(1.0, entity_id="e1")])
        assert out.score.tolist() == [1.0, 0.4] and n == 1

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
        out, n = apply_overrides(ScoreColumns.from_records(records), [OverrideRule(0.7, model_id="m2")])
        assert len(out) == len(records)
        assert out.score.tolist() == [0.7 if r.model_id == "m2" else r.score for r in records]
        assert [out.model_ids[code] for code in out.model.tolist()] == [r.model_id for r in records]
        assert n == sum(1 for r in records if r.model_id == "m2")


def _first_match(records, rules):
    """apply_overrides record by record: each record takes the score of the first rule it matches."""
    out, overridden = [], 0
    for record in records:
        for rule in rules:
            if rule.model_id not in (None, record.model_id) or rule.entity_id not in (None, record.entity_id):
                continue
            out.append(replace(record, score=rule.forced_score))
            overridden += 1
            break
        else:
            out.append(record)
    return out, overridden


_SCORES = st.floats(0, 1) | st.just(-0.0)
_ENTITIES = st.sampled_from([None, "", "e1", "e2"])
_RULES = st.tuples(
    _SCORES,
    st.sampled_from([None, "m1", "m2", "m3", "m4", "absent"]),
    st.sampled_from([None, "", "e1", "e2", "absent"]),
).filter(lambda rule: rule[1:] != (None, None)).map(lambda rule: OverrideRule(*rule))


@given(st.data(), st.lists(st.sampled_from(["m1", "m2", "m3", "m4"]), min_size=1, max_size=4, unique=True))
@settings(max_examples=300)
def test_override_masks_match_the_first_match_per_record(data, models):
    record = st.builds(
        ScoreRecord,
        st.sampled_from(models),
        st.integers(0, 10**6),
        _SCORES,
        _ENTITIES,
        st.sampled_from([None, "a"]),
        st.sampled_from([None, 0, 1]),
    )
    records = data.draw(st.lists(record, max_size=40))
    rules = data.draw(st.lists(_RULES, max_size=4))
    columns = ScoreColumns.from_records(records)
    out, n = apply_overrides(columns, rules)
    expected, expected_n = _first_match(records, rules)
    assert out.score.tobytes() == ScoreColumns.from_records(expected).score.tobytes()  # -0.0 and every bit
    assert n == expected_n
    assert replace(out, score=columns.score) == columns  # every other column as it was
