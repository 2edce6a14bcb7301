"""End-to-end command behavior: reports, exit codes, charts, determinism."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, is_dataclass, replace
from enum import Enum
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import bimodal_scores, central_scores, median_split_availability, score_records
import scorescope
from scorescope import cli
from scorescope.charts import _text
from scorescope.cli import _emit, _emit_alert, main
from scorescope.construction import MAX_PROBE_CELLS, BiasSeverity
from scorescope.errors import InputError
from scorescope.ingest import ScoreRecord, read_score_log, write_score_log
from scorescope.monitor import AlertEvent, AlertKind
from scorescope.rdc import RdcPattern, build_rdc


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_log(path, scores, model_id="m1"):
    write_score_log(score_records(scores, model_id=model_id), path)
    return str(path)


def write_csv(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def bimodal_log(tmp_path):
    return write_log(tmp_path / "bimodal.jsonl", bimodal_scores(5000, 0))


@pytest.fixture
def central_log(tmp_path):
    return write_log(tmp_path / "central.jsonl", central_scores(5000, 0))


class TestRdcCommand:
    def test_bimodal_fixture_is_healthy(self, bimodal_log, capsys):
        code, out, _ = run(["rdc", "--input", bimodal_log], capsys)
        assert code == 0
        report = json.loads(out)
        model = report["results"]["models"]["m1"]
        assert model["pattern"] == "HEALTHY_BIMODAL"
        assert model["threshold_band"] is not None
        assert report["decisions"]["roughness_max"] == 0.35
        assert report["tool_version"] == "0.1.0"

    def test_strict_on_pathology_exits_three(self, central_log, capsys):
        code, out, _ = run(["rdc", "--input", central_log, "--strict"], capsys)
        assert code == 3
        assert json.loads(out)["results"]["models"]["m1"]["pattern"] == "CENTRAL_UNIMODAL"

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(["rdc", "--input", str(tmp_path / "nope.jsonl")], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_invalid_utf8_line_is_skipped(self, bimodal_log, capsys):
        with open(bimodal_log, "ab") as fh:
            fh.write(b'{"model_id":"m\xff","ts":0,"score":0.5}\n')
        code, out, _ = run(["rdc", "--input", bimodal_log], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["skipped_lines"] == 1
        assert list(report["results"]["models"]) == ["m1"]

    def test_huge_integer_score_is_skipped(self, bimodal_log, capsys):
        with open(bimodal_log, "ab") as fh:
            fh.write(b'{"model_id":"m1","ts":0,"score":1' + b"0" * 400 + b"}\n")
        code, out, _ = run(["rdc", "--input", bimodal_log], capsys)
        assert code == 0
        assert json.loads(out)["results"]["skipped_lines"] == 1

    def test_model_flag_charts_one_model(self, tmp_path, capsys):
        records = score_records(bimodal_scores(600, 1), model_id="a") + score_records(
            central_scores(400, 2), model_id="b"
        )
        path = tmp_path / "two.jsonl"
        write_score_log(records, path)
        code, out, _ = run(["rdc", "--input", str(path), "--model", "b"], capsys)
        assert code == 0
        models = json.loads(out)["results"]["models"]
        assert list(models) == ["b"]
        assert models["b"]["counts"] == build_rdc(central_scores(400, 2)).counts.tolist()
        code, _, err = run(["rdc", "--input", str(path), "--model", "c"], capsys)
        assert code == 2 and "no score records" in err

    def test_rescale_charts_the_min_max_rescaled_scores(self, tmp_path, capsys):
        scores = bimodal_scores(2000, 3) * 4.0 - 1.5
        path = write_log(tmp_path / "wide.jsonl", scores)
        code, out, _ = run(["rdc", "--input", path, "--rescale"], capsys)
        assert code == 0
        rescaled = (scores - scores.min()) / (scores.max() - scores.min())
        assert json.loads(out)["results"]["models"]["m1"]["counts"] == build_rdc(rescaled).counts.tolist()

    def test_rescale_charts_a_range_wider_than_the_largest_float(self, tmp_path, capsys):
        path = write_log(tmp_path / "wide.jsonl", [-1.5e308, 1.5e308] + [0.5] * 200)
        code, out, _ = run(["rdc", "--input", path, "--rescale"], capsys)
        assert code == 0
        counts = json.loads(out)["results"]["models"]["m1"]["counts"]
        assert (counts[0], counts[-1], sum(counts)) == (1, 1, 202)

    def test_too_few_records_exits_two(self, tmp_path, capsys):
        path = write_log(tmp_path / "tiny.jsonl", [0.5] * 10)
        code, _, err = run(["rdc", "--input", path], capsys)
        assert code == 2

    def test_small_model_is_skipped_not_fatal(self, tmp_path, capsys):
        records = score_records(bimodal_scores(2000, 1), model_id="big") + score_records(
            bimodal_scores(50, 2), model_id="small"
        )
        path = tmp_path / "models.jsonl"
        write_score_log(records, path)
        code, out, _ = run(["rdc", "--input", str(path), "--svg", str(tmp_path / "chart.svg")], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["models"]["small"] == {"n": 50, "skipped": "need at least 100 samples, got 50"}
        assert results["models"]["big"]["pattern"] == "HEALTHY_BIMODAL"
        assert "small" not in results.get("unhealthy", [])
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == ["chart_big.svg"]

    def test_every_model_too_small_exits_two(self, tmp_path, capsys):
        records = score_records(bimodal_scores(50, 1), model_id="a") + score_records(bimodal_scores(60, 2), model_id="b")
        path = tmp_path / "models.jsonl"
        write_score_log(records, path)
        code, out, err = run(["rdc", "--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert "a: need at least 100 samples, got 50; b: need at least 100 samples, got 60" in err

    def test_svg_emitted_and_valid(self, bimodal_log, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        code, _, _ = run(["rdc", "--input", bimodal_log, "--svg", str(svg)], capsys)
        assert code == 0
        root = ET.fromstring(svg.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "800" and root.attrib["height"] == "400"

    def test_svg_names_that_collide_exit_two_before_writing(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a chart was built although two models would write it to one file")

        monkeypatch.setattr(cli, "build_rdc", fail)
        records = score_records(bimodal_scores(2000, 1), model_id="m/1") + score_records(
            bimodal_scores(2000, 2), model_id="m_1"
        )
        path = tmp_path / "two.jsonl"
        write_score_log(records, path)
        code, out, err = run(["rdc", "--input", str(path), "--svg", str(tmp_path / "out.svg")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: models 'm/1' and 'm_1' both chart to {tmp_path / 'out_m_1.svg'}\n"
        assert not list(tmp_path.glob("*.svg"))

    def test_chart_titles_are_escaped_text(self, tmp_path, capsys):
        # a lone surrogate reaches the model id through a JSON \ud800 escape, and UTF-8 cannot encode it
        records = score_records(bimodal_scores(1200, 1), model_id="A&B<x>") + score_records(
            bimodal_scores(1200, 2), model_id="m\ud800"
        )
        path = tmp_path / "odd.jsonl"
        write_score_log(records, path)
        code, _, err = run(["rdc", "--input", str(path), "--svg", str(tmp_path / "chart.svg")], capsys)
        assert (code, err) == (0, "")
        titles = {}
        for name in ("chart_A_B_x_.svg", "chart_m_.svg"):
            root = ET.parse(tmp_path / name).getroot()
            titles[name] = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if "counts" in t.text]
        assert titles == {
            "chart_A_B_x_.svg": ["A&B<x> (counts, n=1200)"],
            "chart_m_.svg": ["m\\ud800 (counts, n=1200)"],
        }

    def test_per_class_reports(self, tmp_path, capsys):
        records = score_records(bimodal_scores(1000, 1), class_label="a") + score_records(
            bimodal_scores(1000, 2), class_label="b"
        )
        path = tmp_path / "classes.jsonl"
        write_score_log(records, path)
        code, out, _ = run(["rdc", "--input", str(path), "--per-class"], capsys)
        assert code == 0
        classes = json.loads(out)["results"]["models"]["m1"]["classes"]
        assert set(classes) == {"a", "b"}

    def test_per_class_small_class_is_skipped(self, tmp_path, capsys):
        records = score_records(bimodal_scores(50, 1), class_label="small") + score_records(
            bimodal_scores(550, 2), class_label="big"
        )
        path = tmp_path / "classes.jsonl"
        write_score_log(records, path)
        code, out, _ = run(["rdc", "--input", str(path), "--per-class"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        classes = results["models"]["m1"]["classes"]
        assert classes["small"] == {"n": 50, "skipped": "need at least 100 samples, got 50"}
        assert classes["big"]["n"] == 550 and classes["big"]["pattern"] == "HEALTHY_BIMODAL"
        assert "m1/small" not in results.get("unhealthy", [])

    def test_per_class_names_the_model_whose_records_lack_a_class(self, tmp_path, capsys):
        scores = bimodal_scores(400, 3)
        records = [ScoreRecord(f"m{i % 2}", i, float(s), class_label="a") for i, s in enumerate(scores)]
        records[301] = replace(records[301], class_label=None)  # line 302, the 151st record of m1
        path = tmp_path / "classes.jsonl"
        write_score_log(records, path)
        code, out, err = run(["rdc", "--input", str(path), "--per-class"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: model 'm1': 1 of 200 records have no class label\n"

    def test_config_file_overrides_thresholds(self, tmp_path, capsys):
        path = write_log(tmp_path / "small.jsonl", list(np.random.default_rng(0).beta(5, 5, 60)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"diagnosis": {"min_samples": 50}}), encoding="utf-8")
        code, out, _ = run(["rdc", "--input", path, "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["decisions"]["min_samples"] == 50

    def test_unknown_config_key_exits_one(self, bimodal_log, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"diagnosis": {"bogus": 1}}), encoding="utf-8")
        code, _, err = run(["rdc", "--input", bimodal_log, "--config", str(config)], capsys)
        assert code == 1
        assert "unknown keys" in err


class TestPowerCommand:
    def test_dilution_doubles_traffic(self, capsys):
        _, out1, _ = run(["power", "--p-control", "0.1", "--mde", "0.02", "--disagreement", "1.0"], capsys)
        _, out2, _ = run(["power", "--p-control", "0.1", "--mde", "0.02", "--disagreement", "0.5"], capsys)
        r1 = json.loads(out1)["results"]
        r2 = json.loads(out2)["results"]
        assert r2["total_traffic_required"] == 2 * r1["total_traffic_required"]

    def test_zero_disagreement_exits_two(self, capsys):
        code, _, err = run(["power", "--p-control", "0.1", "--mde", "0.02", "--disagreement", "0"], capsys)
        assert code == 2
        assert "models identical" in err

    @pytest.mark.parametrize("alpha", ["1e-17", "1.1e-16", "5e-324"])
    def test_alpha_too_small_for_a_critical_value_exits_two(self, capsys, alpha):
        code, out, err = run(["power", "--p-control", "0.1", "--mde", "0.02", "--alpha", alpha], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: alpha {alpha} is too small: 1 - alpha/2 rounds to 1\n"

    def test_smallest_alpha_with_a_critical_value_is_accepted(self, capsys):
        alpha = 2.0**-52  # 1 - alpha/2 is the largest float below 1
        code, out, _ = run(["power", "--p-control", "0.1", "--mde", "0.02", f"--alpha={alpha!r}"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["alpha"] == alpha

    @pytest.mark.parametrize(  # at 1e-154, n_per_arm fits in a float but 2 * n_per_arm does not
        "mde, disagreement", [("1e-170", "1.0"), ("1e-160", "1.0"), ("1e-154", "1.0"), ("0.02", "5e-324")]
    )
    def test_sample_size_too_large_for_a_float_exits_two(self, capsys, mde, disagreement):
        code, out, err = run(["power", "--p-control", "0.1", "--mde", mde, "--disagreement", disagreement], capsys)
        assert (code, out) == (2, "")
        message = f"the sample size overflows at minimum detectable effect {mde} and disagreement rate {disagreement}"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("power", ["0.025", "0.02", "1e-6"])
    def test_power_at_or_below_half_alpha_exits_two(self, capsys, power):
        code, out, err = run(["power", "--p-control", "0.1", "--mde", "0.02", "--power", power], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: power {float(power)!r} must exceed alpha/2, 0.025 at alpha 0.05\n"

    def test_conventional_power_report_is_unchanged(self, capsys):
        code, out, _ = run(["power", "--p-control", "0.1", "--mde", "0.02", "--power", "0.8"], capsys)
        assert code == 0
        assert json.loads(out)["results"] == {
            "p_control": 0.1,
            "p_treatment": 0.12000000000000001,
            "alpha": 0.05,
            "power": 0.8,
            "n_per_arm": 3841,
            "disagreement_rate": 1.0,
            "total_traffic_required": 7682,
        }

    def test_tiny_disagreement_still_sizes_the_traffic(self, capsys):
        _, full, _ = run(["power", "--p-control", "0.1", "--mde", "0.02"], capsys)
        code, tiny, _ = run(["power", "--p-control", "0.1", "--mde", "0.02", "--disagreement", "1e-300"], capsys)
        assert code == 0
        n_per_arm = json.loads(full)["results"]["n_per_arm"]
        assert json.loads(tiny)["results"]["n_per_arm"] == n_per_arm
        assert json.loads(tiny)["results"]["total_traffic_required"] == math.ceil(2 * n_per_arm / 1e-300)


class TestCurveCommand:
    def test_worked_series(self, capsys):
        code, out, _ = run(["curve", "--baseline", "0.8", "--grid", "0.8:1.0:0.1"], capsys)
        assert code == 0
        series = json.loads(out)["results"]["series"]
        assert [p["upper_bound"] for p in series] == pytest.approx([0.4, 0.3, 0.2])

    def test_svg(self, tmp_path, capsys):
        svg = tmp_path / "curve.svg"
        code, _, _ = run(["curve", "--baseline", "0.8", "--grid", "0.8:1.0:0.05", "--svg", str(svg)], capsys)
        assert code == 0
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_bad_grid_exits_one(self, capsys):
        code, _, err = run(["curve", "--baseline", "0.8", "--grid", "nope"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "grid, code",
        [
            ("0.8:inf:0.1", 1),
            ("nan:1.0:0.1", 1),
            ("0.8:1.0:nan", 1),
            ("0.8:1.0:-inf", 1),
            ("-0.1:1.0:0.1", 2),
            ("0.8:1.5:0.1", 2),
            ("0.5:0.5:1e-300", 2),  # the step cannot move 0.5: the loop would never end
            ("0.8:1.0:1e-5", 2),  # 20 001 points
        ],
    )
    def test_grid_that_would_not_end_or_leaves_the_unit_interval_is_rejected(self, capsys, grid, code):
        got, out, err = run(["curve", "--baseline", "0.0", f"--grid={grid}"], capsys)
        assert (got, out) == (code, "")
        assert err.startswith("error: grid ") and grid in err

    def test_grid_of_the_largest_size_is_accepted(self, capsys):
        code, out, _ = run(["curve", "--baseline", "0.0", "--grid", "0:1:0.0001"], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]["series"]) == 10_001


class TestDisagreeCommand:
    def test_all_agree_note(self, tmp_path, capsys):
        path = write_csv(tmp_path / "p.csv", "entity_id,pred_a,pred_b", [f"e{i},1.0,1.0" for i in range(5)])
        code, out, _ = run(["disagree", "--input", path], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rate"] == 0.0
        assert "no testable difference" in results["note"]

    def test_rate_and_accuracies(self, tmp_path, capsys):
        rows = ["e1,1.0,0.0,1", "e2,0.0,1.0,1", "e3,1.0,1.0,1", "e4,0.0,0.0,0"]
        path = write_csv(tmp_path / "p.csv", "entity_id,pred_a,pred_b,label", rows)
        _, out, _ = run(["disagree", "--input", path], capsys)
        results = json.loads(out)["results"]
        assert results["rate"] == 0.5
        assert results["accuracy_a"] == 0.75


class TestBiasCommand:
    def make_csv(self, tmp_path, n=200, biased=True):
        x, has = median_split_availability(n, seed=0)
        if not biased:
            has = (np.random.default_rng(1).random(n) < 0.5).astype(int)
        rows = [f"{a:.6f},{b:.6f},{h}" for (a, b), h in zip(x, has)]
        return write_csv(tmp_path / "bias.csv", "f1,f2,has_label", rows)

    def test_severe_detected_and_strict_exits_three(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, biased=True)
        # SEVERE needs p <= 0.01, and p is at least 1/(permutations + 1)
        code, out, _ = run(
            ["bias", "--input", path, "--availability-column", "has_label",
             "--permutations", "100", "--strict"],
            capsys,
        )
        assert code == 3
        results = json.loads(out)["results"]
        assert results["severity"] == "SEVERE"
        assert results["auc"] >= 0.9

    def test_unbiased_is_none(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, biased=False)
        code, out, _ = run(
            ["bias", "--input", path, "--availability-column", "has_label", "--permutations", "30"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["severity"] == "NONE"
        assert report["decisions"]["cutoffs"]["severe_auc"] == 0.75

    def test_logistic_seed_is_gone(self, tmp_path, capsys):
        """The fit has no settings at all: no ``logistic`` decisions, and a ``logistic`` config section exits 1."""
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{int(b > 0)},{h}" for (a, b), h in zip(x, has)]
        path = write_csv(tmp_path / "t.csv", "f1,f2,target,has_label", rows)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"logistic": {"epochs": 500}}), encoding="utf-8")
        for command in (["bias"], ["setup", "--target", "target"]):
            argv = [*command, "--input", path, "--availability-column", "has_label", "--permutations", "5"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert "logistic" not in json.loads(out)["decisions"]
            code, out, err = run(argv + ["--config", str(config)], capsys)
            assert code == 1 and out == ""
            assert err == "error: unknown config sections: logistic\n"

    @pytest.mark.parametrize(
        "command, permutations, noted",
        [("bias", 20, True), ("bias", 200, False), ("setup", 20, True)],
    )
    def test_note_when_severe_is_unreachable(self, tmp_path, capsys, command, permutations, noted):
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{int(b > 0)},{h}" for (a, b), h in zip(x, has)]
        path = write_csv(tmp_path / "t.csv", "f1,f2,target,has_label", rows)
        argv = [command, "--input", path, "--availability-column", "has_label", "--permutations", str(permutations)]
        code, out, _ = run(argv + (["--target", "target"] if command == "setup" else []), capsys)
        assert code == 0
        results = json.loads(out)["results"]
        probe = results["bias"] if command == "setup" else results
        assert ("severe_unreachable" in probe) is noted
        if noted:
            assert probe["severe_unreachable"] == (
                "SEVERE needs p <= 0.01; 20 permutations give p >= 1/21"
            )

    @pytest.mark.parametrize("command", ["bias", "setup"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_two(self, tmp_path, capsys, command, workers):
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{int(b > 0)},{h}" for (a, b), h in zip(x, has)]
        path = write_csv(tmp_path / "t.csv", "f1,f2,target,has_label", rows)
        argv = [command, "--input", path, "--availability-column", "has_label", "--permutations", "5"]
        argv += ["--workers", workers] + (["--target", "target"] if command == "setup" else [])
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: workers must be >= 1\n"

    @pytest.mark.parametrize("command", ["bias", "setup"])
    def test_workers_flag_leaves_the_report_byte_identical(self, tmp_path, capsys, command):
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{int(b > 0)},{h}" for (a, b), h in zip(x, has)]
        path = write_csv(tmp_path / "t.csv", "f1,f2,target,has_label", rows)
        argv = [command, "--input", path, "--availability-column", "has_label", "--permutations", "20"]
        argv += ["--target", "target"] if command == "setup" else []
        runs = [run(argv + workers, capsys) for workers in ([], ["--workers", "1"], ["--workers", "2"])]
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestSetupCommand:
    def test_full_construction_report(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(120, 2))
        y = (x[:, 0] > 0).astype(int)
        has = (x[:, 1] > 0).astype(int)
        rows = [f"{a:.6f},{b:.6f},{t},{h}" for (a, b), t, h in zip(x, y, has)]
        path = write_csv(tmp_path / "setup.csv", "f1,f2,target,avail", rows)
        code, out, _ = run(
            ["setup", "--input", path, "--target", "target",
             "--availability-column", "avail", "--permutations", "20"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert 0.4 <= results["balance"]["positive_proportion"] <= 0.6
        assert results["learnability"]["gap"] > 0.3  # target is linearly separable
        assert results["bias"]["severity"] in ("NONE", "MILD", "SEVERE")

    @pytest.mark.parametrize("probe", [False, True], ids=["without-probe", "with-probe"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--permutations", "0"], "permutations must be >= 1"),
            (["--workers", "-3", "--permutations", "0"], "permutations must be >= 1"),
        ],
    )
    def test_probe_flags_are_checked_with_or_without_the_probe(self, tmp_path, capsys, probe, flags, message):
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{int(b > 0)},{h}" for (a, b), h in zip(x, has)]
        path = write_csv(tmp_path / "t.csv", "f1,f2,target,has_label", rows)
        argv = ["setup", "--input", path, "--target", "target", *flags]
        code, out, err = run(argv + (["--availability-column", "has_label"] if probe else []), capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["bias"], ["setup", "--target", "y"]], ids=["bias", "setup"])
def test_permutations_past_the_cell_cap_are_one_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "learnability_gap", None)  # setup refuses before its learnability folds
    k = MAX_PROBE_CELLS // 60  # 60 x (k + 1) cells, just past the cap
    path = write_csv(tmp_path / "t.csv", "a,b,flag,y", _table_rows(60))
    code, out, err = run([*argv, "--input", path, "--availability-column", "flag", f"--permutations={k}"], capsys)
    message = f"the bias probe needs rows x (permutations + 1) <= {MAX_PROBE_CELLS} label cells, got 60 x ({k} + 1)"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["bias"], ["setup", "--target", "y"]], ids=["bias", "setup"])
def test_a_column_named_twice_is_one_error_line(tmp_path, capsys, argv):
    rows = [f"{i % 2},{i % 3},{i % 2},{i % 5}" for i in range(60)]  # the first a is binary, the second is not
    path = write_csv(tmp_path / "t.csv", "a,b,y,a", rows)
    code, out, err = run([*argv, "--input", path, "--availability-column", "a", "--permutations", "5"], capsys)
    assert (code, out, err) == (1, "", f"error: {path}: column 'a' appears more than once in the header\n")


class TestBlockedCommands:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        outcomes = tmp_path / "outcomes.csv"
        code, out, _ = run(
            ["blocked", "simulate", "--n-users", "30000", "--base-cvr", "0.1",
             "--latency-penalty", "-0.01", "--feature-effect", "0.03",
             "--outcomes", str(outcomes), "--seed", "5"],
            capsys,
        )
        assert code == 0
        sim = json.loads(out)["results"]
        assert sim["n_users"] == 30000
        code, out, _ = run(["blocked", "analyze", "--input", str(outcomes)], capsys)
        assert code == 0
        analysis = json.loads(out)["results"]
        assert analysis["perf_effect"] == pytest.approx(-0.01, abs=0.01)
        assert analysis["feature_effect"] == pytest.approx(0.03, abs=0.012)
        assert analysis["total_effect"] == analysis["perf_effect"] + analysis["feature_effect"]

    def test_bad_allocation_exits_one(self, capsys):
        code, _, err = run(
            ["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.1", "--allocation", "1,2"],
            capsys,
        )
        assert code == 1

    def test_nan_allocation_exits_two(self, capsys):
        code, out, err = run(
            ["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.1", "--allocation", "nan,0.5,0.5"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: allocation needs three finite non-negative proportions\n"

    def test_impossible_rate_exits_two(self, capsys):
        code, _, _ = run(
            ["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.99", "--feature-effect", "0.05"],
            capsys,
        )
        assert code == 2

    def test_alpha_too_small_for_a_critical_value_exits_two(self, tmp_path, capsys):
        outcomes = str(tmp_path / "outcomes.csv")
        argv = ["blocked", "simulate", "--n-users", "300", "--base-cvr", "0.2", "--outcomes", outcomes]
        assert run(argv, capsys)[0] == 0
        code, out, err = run(["blocked", "analyze", "--input", outcomes, "--alpha", "1e-17"], capsys)
        assert (code, out, err) == (2, "", "error: alpha 1e-17 is too small: 1 - alpha/2 rounds to 1\n")


class TestWatchCommand:
    def test_drifted_stream_alerts_and_strict_exits_three(self, tmp_path, capsys):
        reference = write_log(tmp_path / "ref.jsonl", bimodal_scores(3000, 0))
        drifted = write_log(tmp_path / "drift.jsonl", central_scores(1200, 1))
        report_path = tmp_path / "watch.json"
        code, out, _ = run(
            ["watch", "--input", drifted, "--reference", reference, "--once",
             "--strict", "--output", str(report_path)],
            capsys,
        )
        assert code == 3
        alerts = [json.loads(line) for line in out.strip().splitlines()]
        kinds = {a["kind"] for a in alerts}
        assert {"PATTERN_CHANGE", "DRIFT", "PATHOLOGY"} <= kinds
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["results"]["windows"] == 2  # one full, one partial
        assert report["results"]["partial_windows"] == 1
        assert report["results"]["alert_count"] == len(alerts)

    def test_alert_lines_match_the_asdict_lines(self, tmp_path, capsys, monkeypatch):
        reference = write_log(tmp_path / "ref.jsonl", bimodal_scores(3000, 0))
        drifted = write_log(tmp_path / "drift.jsonl", central_scores(1200, 1))
        alerts = []
        watch = cli.watch
        monkeypatch.setattr(cli, "watch", lambda path, config, emit, **kw: watch(
            path, config, lambda alert: (alerts.append(alert), emit(alert)), **kw
        ))
        argv = ["watch", "--input", drifted, "--reference", reference, "--once", "--window", "300"]
        code, out, err = run([*argv, "--output", str(tmp_path / "watch.json")], capsys)
        assert (code, err) == (0, "")
        assert {alert.kind for alert in alerts} == set(AlertKind)
        assert out == "".join(json.dumps(_reference_jsonable(alert), sort_keys=True) + "\n" for alert in alerts)

    def test_healthy_stream_is_quiet(self, tmp_path, capsys):
        # 2000-record windows keep the total-variation sampling floor (~0.09)
        # safely under the 0.15 drift threshold
        reference = write_log(tmp_path / "ref.jsonl", bimodal_scores(6000, 2))
        stream = write_log(tmp_path / "ok.jsonl", bimodal_scores(4000, 3))
        code, out, _ = run(
            ["watch", "--input", stream, "--reference", reference, "--once", "--strict",
             "--window", "2000", "--output", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 0
        assert out.strip() == ""

    def test_override_forces_spike(self, tmp_path, capsys):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(1000, 4))
        report_path = tmp_path / "r.json"
        code, out, _ = run(
            ["watch", "--input", stream, "--once", "--override", "model=m1:score=0.99",
             "--output", str(report_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["results"]["overridden"] == 1000
        alerts = [json.loads(line) for line in out.strip().splitlines()]
        assert any(a["kind"] == "PATHOLOGY" for a in alerts)  # forced point mass

    @pytest.mark.parametrize("model_rule", [False, True], ids=["entity-alone", "entity-then-model"])
    def test_entity_override_alerts_as_the_log_rewritten_by_hand(self, tmp_path, capsys, model_rule):
        records = [
            ScoreRecord(f"m{i % 2 + 1}", i, float(s), entity_id=f"e{i % 7}")
            for i, s in enumerate(bimodal_scores(3000, 7))
        ]
        rules = ["--override", "entity=e3:score=0.99"] + (["--override", "model=m2:score=0.01"] if model_rule else [])

        def forced(r):  # the rules, first match wins
            if r.entity_id == "e3":
                return 0.99
            return 0.01 if model_rule and r.model_id == "m2" else None

        write_score_log(records, tmp_path / "s.jsonl")
        by_hand = [r if forced(r) is None else replace(r, score=forced(r)) for r in records]
        write_score_log(by_hand, tmp_path / "by_hand.jsonl")
        argv = ["watch", "--once", "--window", "500", "--output", str(tmp_path / "r.json")]
        code, out, err = run([*argv, "--input", str(tmp_path / "s.jsonl"), *rules], capsys)
        assert (code, err) == (0, "")
        overridden = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["results"]["overridden"]
        assert overridden == sum(forced(r) is not None for r in records)
        if not model_rule:
            assert overridden == sum(r.entity_id == "e3" for r in records) == 429
        code, want, _ = run([*argv, "--input", str(tmp_path / "by_hand.jsonl")], capsys)
        assert code == 0 and out == want and "PATHOLOGY" in out

    def test_bad_override_syntax_exits_one(self, tmp_path, capsys):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(200, 5))
        code, _, err = run(["watch", "--input", stream, "--once", "--override", "wat"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "rule, why",
        [
            ("model=:score=0.5", "has an empty model id"),
            ("model= :entity=e1:score=0.5", "has an empty model id"),
            ("model=m1:model=m2:score=0.5", "gives model= twice"),
            ("entity=e1:score=0.5:score=0.9", "gives score= twice"),
        ],
        ids=["empty-model", "blank-model", "model-twice", "score-twice"],
    )
    def test_a_rule_no_line_can_match_or_with_a_key_twice_exits_one(self, tmp_path, capsys, rule, why):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(200, 5))
        code, out, err = run(["watch", "--input", stream, "--once", "--override", rule], capsys)
        assert (code, out, err) == (1, "", f"error: override {rule!r} {why}\n")

    def test_an_empty_entity_rule_forces_the_lines_with_an_empty_entity_id(self, tmp_path, capsys):
        scores = bimodal_scores(400, 6)
        records = [ScoreRecord("m1", i, float(s), entity_id="" if i % 4 else "e1") for i, s in enumerate(scores)]
        write_score_log(records, tmp_path / "s.jsonl")
        report = tmp_path / "r.json"
        argv = ["watch", "--input", str(tmp_path / "s.jsonl"), "--once", "--override", "entity=:score=0.5"]
        code, _, err = run([*argv, "--output", str(report)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(report.read_text(encoding="utf-8"))["results"]["overridden"] == 300

    @pytest.mark.parametrize(
        "bad_line",
        [
            b'{"model_id":"m\xff","ts":0,"score":0.5}',
            b'{"model_id":"m1","ts":0,"score":1.5}',
            b'{"model_id":"m1","ts":0,"score":1' + b"0" * 400 + b"}",
        ],
        ids=["invalid-utf8", "out-of-range", "huge-integer-score"],
    )
    def test_bad_line_is_counted_not_fatal(self, tmp_path, capsys, bad_line):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(1200, 6))
        with open(stream, "ab") as fh:
            fh.write(bad_line + b"\n")
        report_path = tmp_path / "r.json"
        code, _, _ = run(["watch", "--input", stream, "--once", "--output", str(report_path)], capsys)
        assert code == 0
        results = json.loads(report_path.read_text(encoding="utf-8"))["results"]
        assert results["malformed_lines"] == 1
        assert results["windows"] == 2
        assert results["dropped"] == {}

    def test_tail_has_no_malformed_line_limit(self, tmp_path, capsys):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(1200, 6))
        bad = [b"not json", b'{"model_id":"m1","ts":0}', b"\xff"] * 100
        with open(stream, "ab") as fh:
            fh.write(b"".join(line + b"\n" for line in bad))  # 300 of 1500 lines: 20%
        with pytest.raises(InputError, match="malformed"):
            read_score_log(stream)  # the same log read whole is rejected above 10%
        report_path = tmp_path / "r.json"
        code, _, _ = run(["watch", "--input", stream, "--once", "--output", str(report_path)], capsys)
        assert code == 0
        results = json.loads(report_path.read_text(encoding="utf-8"))["results"]
        assert results["malformed_lines"] == 300
        assert results["windows"] == 2

    def test_small_reference_model_falls_back_to_first_window(self, tmp_path, capsys):
        reference = tmp_path / "ref.jsonl"
        write_score_log(
            score_records(bimodal_scores(3000, 1), model_id="m1") + score_records(central_scores(50, 2), model_id="m2"),
            reference,
        )
        stream = tmp_path / "s.jsonl"
        write_score_log(
            score_records(bimodal_scores(1000, 3), model_id="m1") + score_records(bimodal_scores(1000, 4), model_id="m2"),
            stream,
        )
        report_path = tmp_path / "r.json"
        argv = ["watch", "--input", str(stream), "--once", "--output", str(report_path)]
        code, out, _ = run(argv + ["--reference", str(reference)], capsys)
        assert code == 0
        results = json.loads(report_path.read_text(encoding="utf-8"))["results"]
        assert results["skipped_references"] == {"m2": "need at least 100 samples, got 50"}
        assert results["windows"] == 2
        # m2's healthy window is compared with itself: no alert
        assert [line for line in out.splitlines() if '"m2"' in line] == []
        run(argv + ["--reference", str(stream)], capsys)
        assert "skipped_references" not in json.loads(report_path.read_text(encoding="utf-8"))["results"]

    def test_a_model_missing_from_the_reference_log_is_named(self, tmp_path, capsys):
        reference = write_log(tmp_path / "ref.jsonl", bimodal_scores(3000, 1), model_id="other")
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(250, 3), model_id="m")
        report_path = tmp_path / "r.json"
        argv = ["watch", "--input", stream, "--once", "--window", "100", "--output", str(report_path)]
        assert run(argv + ["--reference", reference], capsys)[0] == 0
        results = json.loads(report_path.read_text(encoding="utf-8"))["results"]
        assert results["skipped_references"] == {"m": "no records in the reference log"}
        assert results["windows"] == 2
        assert run(argv, capsys)[0] == 0  # with no reference log, no model is named
        assert "skipped_references" not in json.loads(report_path.read_text(encoding="utf-8"))["results"]

    @pytest.mark.parametrize("interval", ["-1", "0", "nan", "inf"])
    def test_poll_interval_must_be_finite_and_positive(self, tmp_path, capsys, interval):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(200, 5))
        code, out, err = run(["watch", "--input", stream, "--poll-interval", interval], capsys)  # follow mode
        assert (code, out) == (2, "")
        assert err == f"error: poll_interval must be a finite number > 0, got {float(interval)!r}\n"

    def test_monitor_reference_is_not_a_config_key(self, tmp_path, capsys):
        stream = write_log(tmp_path / "s.jsonl", bimodal_scores(200, 5))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"monitor": {"reference": [1, 2, 3]}}), encoding="utf-8")
        code, _, err = run(["watch", "--input", stream, "--once", "--config", str(config)], capsys)
        assert code == 1
        assert "reference" in err


@given(st.lists(st.integers(90, 110), min_size=1, max_size=4))  # around the default min_samples of 100
@settings(max_examples=40, deadline=None)
def test_rdc_skips_exactly_the_models_below_min_samples(sizes):
    records = []
    for k, n in enumerate(sizes):
        records += score_records(bimodal_scores(n, k), model_id=f"m{k}")
    small = {f"m{k}": n for k, n in enumerate(sizes) if n < 100}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        write_score_log(records, log)
        report = Path(tmp) / "rdc.json"
        code = main(["rdc", "--input", str(log), "--output", str(report)])
        if len(small) == len(sizes):
            assert code == 2 and not report.exists()
            return
        assert code == 0
        models = json.loads(report.read_text(encoding="utf-8"))["results"]["models"]
    assert list(models) == [f"m{k}" for k in range(len(sizes))]
    skipped = {model_id: entry for model_id, entry in models.items() if "skipped" in entry}
    assert skipped == {m: {"n": n, "skipped": f"need at least 100 samples, got {n}"} for m, n in small.items()}


@given(st.lists(st.integers(90, 110), min_size=1, max_size=4))  # around the default min_samples of 100
@settings(max_examples=40, deadline=None)
def test_rdc_per_class_skips_exactly_the_classes_below_min_samples(sizes):
    records = []
    for k, n in enumerate(sizes):
        records += score_records(bimodal_scores(n, k), class_label=f"c{k}")
    small = {f"c{k}": n for k, n in enumerate(sizes) if n < 100}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        write_score_log(records, log)
        report = Path(tmp) / "rdc.json"
        code = main(["rdc", "--input", str(log), "--per-class", "--output", str(report)])
        if sum(sizes) < 100:  # one small class: the model itself is too small to chart
            assert code == 2 and not report.exists()
            return
        assert code == 0
        results = json.loads(report.read_text(encoding="utf-8"))["results"]
    classes = results["models"]["m1"]["classes"]
    assert list(classes) == [f"c{k}" for k in range(len(sizes))]
    skipped = {label: entry for label, entry in classes.items() if "skipped" in entry}
    assert skipped == {c: {"n": n, "skipped": f"need at least 100 samples, got {n}"} for c, n in small.items()}
    charted = {label: entry for label, entry in classes.items() if label not in small}
    assert all(entry["n"] >= 100 and "pattern" in entry for entry in charted.values())
    unhealthy = {name for name in results.get("unhealthy", []) if "/" in name}
    assert unhealthy == {f"m1/{c}" for c, entry in charted.items() if entry["pattern"] != "HEALTHY_BIMODAL"}


_VALID_LINES = st.builds(
    lambda model, ts, score: json.dumps({"model_id": model, "ts": ts, "score": score}).encode(),
    st.sampled_from(["m1", "m2"]),
    st.integers(0, 10**6),
    st.floats(0, 1),
)
_BAD_LINES = st.sampled_from(
    [
        b"not json",
        b"[1, 2]",
        b'{"model_id": "m1", "ts": -1, "score": 0.5}',
        b'{"model_id": "m1", "ts": 0, "score": "high"}',
        b"\xff\xfe",
        b'{"model_id": "m\xff", "ts": 0, "score": 0.5}',
        b'{"model_id": "m1", "ts": 0, "score": 0.5, "class": "\xc3"}',
    ]
)
_BLANK_LINES = st.sampled_from([b"", b"   ", b"\t", b"\r"])


@given(
    st.data(),
    st.lists(_VALID_LINES, min_size=40, max_size=60),
    st.lists(_BAD_LINES, max_size=4),  # at most 4 of 44: under the read_score_log abort limit
    st.lists(_BLANK_LINES, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_watch_counts_the_lines_read_score_log_skips(data, valid, bad, blank):
    lines = data.draw(st.permutations(valid + bad + blank))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_bytes(b"".join(line + b"\n" for line in lines))
        report = Path(tmp) / "watch.json"
        assert main(["watch", "--input", str(log), "--once", "--output", str(report)]) == 0
        results = json.loads(report.read_text(encoding="utf-8"))["results"]
        assert results["malformed_lines"] == read_score_log(log).skipped == len(bad)


_OUT_OF_RANGE_LINES = st.builds(
    lambda ts, score: json.dumps({"model_id": "m1", "ts": ts, "score": score}).encode(),
    st.integers(0, 10**6),
    st.floats(-1e6, -1e-9) | st.floats(1 + 1e-9, 1e6),
)


@given(st.data(), st.lists(_VALID_LINES, max_size=250), st.lists(_OUT_OF_RANGE_LINES, max_size=60))
@settings(max_examples=40, deadline=None)
def test_watch_counts_each_out_of_range_score_once(data, valid, out_of_range):
    lines = data.draw(st.permutations(valid + out_of_range))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_bytes(b"".join(line + b"\n" for line in lines))
        report = Path(tmp) / "watch.json"
        assert main(["watch", "--input", str(log), "--once", "--window", "100", "--output", str(report)]) == 0
        results = json.loads(report.read_text(encoding="utf-8"))["results"]
    assert results["malformed_lines"] == len(out_of_range)
    per_model = [sum(json.loads(line)["model_id"] == m for line in valid) for m in ("m1", "m2")]
    assert results["windows"] == sum(n // 100 for n in per_model)  # no out-of-range score entered a window


@pytest.mark.parametrize(
    "command, section, code, message",
    [
        ("rdc", {"diagnosis": {"window": "5"}}, 2, "error: diagnosis window must be an integer, got '5'"),
        ("rdc", {"diagnosis": {"min_samples": 100.0}}, 2, "error: diagnosis min_samples must be an integer, got 100.0"),
        ("bias", {"bias_cutoffs": {"severe_auc": "x"}}, 2, "error: bias_cutoffs severe_auc must be a number, got 'x'"),
        ("bias", {"logistic": {"learning_rate": 0.1}}, 1, "error: unknown config sections: logistic"),
        ("watch", {"monitor": {"window_size": "abc"}}, 2, "error: monitor window_size must be an integer, got 'abc'"),
        ("watch", {"monitor": {"diagnosis": {}}}, 1, "error: config section 'monitor' has unknown keys: diagnosis"),
        ("watch", {"monitor": {"bins": 50}}, 1, "error: config section 'monitor' has unknown keys: bins"),
        ("watch", {"monitor": {"tv_threshold": 1}}, 0, ""),
        ("bias", {"bias_cutoffs": {"severe_auc": float("nan")}}, 2,
         "error: bias_cutoffs severe_auc must be a finite number, got nan"),
        ("rdc", {"diagnosis": {"roughness_max": float("inf")}}, 2,
         "error: diagnosis roughness_max must be a finite number, got inf"),
    ],
)
def test_config_value_of_the_wrong_type_is_an_error_line(tmp_path, capsys, command, section, code, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section), encoding="utf-8")
    if command == "bias":
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{h}" for (a, b), h in zip(x, has)]
        argv = ["bias", "--input", write_csv(tmp_path / "t.csv", "f1,f2,avail", rows), "--availability-column", "avail"]
        argv += ["--permutations", "5"]
    else:
        argv = [command, "--input", write_log(tmp_path / "s.jsonl", bimodal_scores(1000, 0))]
        argv += ["--once"] if command == "watch" else []
    got, _, err = run(argv + ["--config", str(config), "--output", str(tmp_path / "r.json")], capsys)
    assert (got, err.strip()) == (code, message)


@pytest.mark.parametrize("command", ["rdc", "bias"])
def test_the_readme_config_example_runs(tmp_path, capsys, bimodal_log, command):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n### Config file\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "settings.json"
    config.write_text(example, encoding="utf-8")
    if command == "bias":
        x, has = median_split_availability(200, seed=0)
        rows = [f"{a:.6f},{b:.6f},{h}" for (a, b), h in zip(x, has)]
        argv = ["bias", "--input", write_csv(tmp_path / "t.csv", "f1,f2,avail", rows), "--availability-column", "avail"]
        argv += ["--permutations", "5"]
    else:
        argv = ["rdc", "--input", bimodal_log]
    code, out, err = run(argv + ["--config", str(config)], capsys)
    assert (code, err) == (0, "")
    decisions = json.loads(out)["decisions"]
    section, applied = ("diagnosis", decisions) if command == "rdc" else ("bias_cutoffs", decisions["cutoffs"])
    assert applied.items() >= json.loads(example)[section].items()


@pytest.mark.parametrize("command", ["rdc", "watch"])
def test_zero_bins_exits_two(bimodal_log, capsys, command):
    argv = [command, "--input", bimodal_log, "--bins", "0"] + (["--once"] if command == "watch" else [])
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == "error: bin_count must be >= 2\n"


@pytest.mark.parametrize(
    "bins, diagnosis, message",
    [
        (1, {}, "bin_count must be >= 2"),
        (100, {"min_samples": -5}, "diagnosis min_samples must be >= 1, got -5"),
        (100, {"window": 0}, "diagnosis window must be an odd integer >= 1, got 0"),
        (100, {"window": 4}, "diagnosis window must be an odd integer >= 1, got 4"),
        (3, {}, "diagnosis window must be at most bin_count 3, got 5"),
        (100, {"window": 101}, "diagnosis window must be at most bin_count 100, got 101"),
        (10_001, {}, "bin_count must be <= 10000, got 10001"),
    ],
)
def test_diagnosis_config_is_checked_when_no_window_completes(tmp_path, capsys, bins, diagnosis, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"diagnosis": diagnosis}), encoding="utf-8")
    stream = write_log(tmp_path / "s.jsonl", bimodal_scores(50, 0))  # under one window: nothing is charted
    argv = ["watch", "--input", stream, "--once", "--bins", str(bins), "--config", str(config)]
    assert run(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["rdc", "watch"])
def test_bins_below_the_default_window_run_with_a_config_window_that_fits(tmp_path, capsys, bimodal_log, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"diagnosis": {"window": 3}}), encoding="utf-8")
    report = tmp_path / "r.json"
    argv = [command, "--input", bimodal_log, "--bins", "3", "--config", str(config), "--output", str(report)]
    code, _, err = run(argv + (["--once"] if command == "watch" else []), capsys)
    decisions = json.loads(report.read_text())["decisions"]
    assert (code, err) == (0, "") and decisions.get("diagnosis", decisions)["bins"] == 3  # watch nests it


@pytest.mark.parametrize(
    "flags, config, err, decided",
    [
        (["--window", "50"], {"monitor": {"window_size": 500}}, "", {"window_size": 500}),
        (["--tv-threshold", "2"], {"monitor": {"tv_threshold": 0.1}}, "", {"tv_threshold": 0.1}),
        (["--window", "5000"], {"diagnosis": {"min_samples": 2000}}, "", {"window_size": 5000}),
        (["--window", "50"], {}, "error: window_size must be >= 100\n", None),
        (["--tv-threshold", "2"], {}, "error: tv_threshold must lie in [0, 1]\n", None),
    ],
    ids=["config-window", "config-tv-threshold", "window-above-min-samples", "small-window", "large-tv-threshold"],
)
def test_watch_checks_its_flags_after_the_config_overrides_them(tmp_path, capsys, bimodal_log, flags, config, err, decided):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report = tmp_path / "r.json"
    argv = ["watch", "--input", bimodal_log, "--once", "--config", str(path), "--output", str(report), *flags]
    assert run(argv, capsys)[::2] == (2 if err else 0, err)
    if decided:
        assert json.loads(report.read_text())["decisions"].items() >= decided.items()


class TestReportEnvelope:
    def test_inputs_carry_digests(self, bimodal_log, capsys):
        _, out, _ = run(["rdc", "--input", bimodal_log], capsys)
        report = json.loads(out)
        assert len(report["inputs"]["input"]["sha256"]) == 64
        assert report["command"] == "rdc"

    def test_output_flag_writes_file(self, bimodal_log, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["rdc", "--input", bimodal_log, "--output", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "rdc"

    def test_byte_identical_reruns(self, bimodal_log, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["rdc", "--input", bimodal_log, "--seed", "3", "--output", str(a)], capsys)
        run(["rdc", "--input", bimodal_log, "--seed", "3", "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


def _reference_jsonable(obj):
    """The copy-then-dump conversion the ``json.dumps`` hook replaced."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _reference_jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class _Inner:
    counts: np.ndarray
    severity: BiasSeverity
    band: tuple


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    flag: np.bool_
    rates: dict


class TestJsonHook:
    def report(self):
        inner = _Inner(np.arange(4, dtype=np.int32), BiasSeverity.MILD, (np.float64(0.1), (1, "x")))
        return {
            "outer": _Outer(inner, np.bool_(True), {"base": np.float64(1 / 3), "v1": None}),
            "pattern": RdcPattern.HEALTHY_BIMODAL,
            "ints": np.array([[1, 2], [3, 4]], dtype=np.int64),
            "floats": np.array([0.1, 1 / 3, -0.0, 1e300], dtype=np.float64),
            "float32": np.array([0.1, 2.5], dtype=np.float32),
            "bools": np.array([True, False]),
            "scalars": [np.int64(-7), np.float64(2 / 3), np.bool_(False), np.float32(0.1), np.uint8(200)],
            "tuple": (1, 2.5, "three", None, True),
            "nested": {"a": [np.int64(1), {"b": np.float64(2.0), "c": (np.int8(3),)}]},
        }

    def test_report_text_matches_the_copy_then_dump_conversion(self, capsys):
        _emit(self.report(), None)
        want = json.dumps(_reference_jsonable(self.report()), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want

    def test_alert_line_matches_the_field_by_field_line(self, capsys):
        detail = {"tv": np.float64(0.25), "bins": np.int64(100), "from": RdcPattern.NOISY, "modes": np.array([3, 70])}
        alert = AlertEvent("m1", 4, AlertKind.DRIFT, detail)
        _emit_alert(alert)
        line = {"model_id": "m1", "window_index": 4, "kind": "DRIFT", "detail": _reference_jsonable(detail)}
        assert capsys.readouterr().out == json.dumps(line, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [object(), {1, 2}, 1j, _Inner])
    def test_unsupported_object_is_a_type_error_not_a_string(self, value, capsys):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _emit({"results": {"x": value}}, None)
        assert capsys.readouterr().out == ""


@given(st.text(st.sampled_from("&<>;#\"'amp lté")))
def test_chart_text_is_escaped_as_xml_sax_escapes_it(text):
    assert _text(text) == escape(text)


def _modules_loaded_by(module: str) -> list[str]:
    """The modules a fresh interpreter holds after importing ``module`` alone."""
    src = Path(scorescope.__file__).parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; print(*sys.modules)"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()


def test_importing_the_cli_loads_no_network_or_xml_module():
    loaded = _modules_loaded_by("scorescope.cli")
    heavy = ("xml", "urllib.request", "http.client", "ssl", "email")
    assert [m for m in loaded if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


def test_importing_the_ingest_module_loads_no_other_package_module():
    loaded = _modules_loaded_by("scorescope.ingest")
    assert sorted(m for m in loaded if m.partition(".")[0] == "scorescope") == [
        "scorescope",
        "scorescope.errors",
        "scorescope.ingest",
    ]


def test_every_command_help_lists_defaults(capsys):
    for argv in (
        ["rdc", "--help"],
        ["bias", "--help"],
        ["setup", "--help"],
        ["disagree", "--help"],
        ["power", "--help"],
        ["curve", "--help"],
        ["blocked", "simulate", "--help"],
        ["blocked", "analyze", "--help"],
        ["watch", "--help"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out
        if argv[0] in ("power", "watch"):
            assert "default" in out


def test_power_defaults_match_convention(capsys):
    with pytest.raises(SystemExit):
        main(["power", "--help"])
    out = capsys.readouterr().out
    assert "0.05" in out and "0.8" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(argv, flag, id=f"{' '.join(argv[:2] if argv[0] == 'blocked' else argv[:1])} {flag}")
        for argv, flags in (
            (["setup", "--input", "t.csv", "--target", "y"], ["--strict"]),
            (["disagree", "--input", "p.csv"], ["--config", "--strict"]),
            (["power", "--p-control", "0.1", "--mde", "0.02"], ["--config", "--strict"]),
            (["curve", "--baseline", "0.8", "--grid", "0.8:1.0:0.1"], ["--config", "--strict"]),
            (["blocked", "simulate", "--n-users", "300", "--base-cvr", "0.1"], ["--config", "--strict"]),
            (["blocked", "analyze", "--input", "o.csv"], ["--config", "--strict"]),
        )
        for flag in flags
    ],
)
def test_flag_a_command_does_not_read_is_refused(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    rows = [f"{i % 7},{(i * 3) % 5},{i % 2}" for i in range(200)]
    write_csv(tmp_path / "t.csv", "a,b,y", rows)
    write_csv(tmp_path / "p.csv", "entity_id,pred_a,pred_b", [f"e{i},{i % 2},{i % 3 % 2}" for i in range(20)])
    outcomes = [f"{variant},{i % 2}" for i in range(10) for variant in ("base", "v1", "v2")]
    write_csv(tmp_path / "o.csv", "variant,converted", outcomes)
    extra = [flag, "missing.json"] if flag == "--config" else [flag]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + extra)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


# numbers the CLI parses: signed zeros, subnormals, huge, NaN and infinities, then ordinary ones
_NUMBERS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-170, 1e-17, 1.1e-16,
         1e300, -1e300, math.nan, math.inf, -math.inf, 0.02, 0.1, 0.5, 0.8, 1.0]
    ),
    st.floats(),
    st.floats(0, 1),
)


def _flags(**values):
    """``--name=value`` arguments: the ``=`` keeps a value such as -1e+300 from reading as a flag."""
    return st.fixed_dictionaries(values).map(
        lambda drawn: [f"--{name.replace('_', '-')}={value!r}" for name, value in drawn.items()]
    )


_SEEDS = st.integers(-3, -1) | st.integers(0, 2**64)  # a negative seed half the time
_BINS = st.integers(-2, 200) | st.sampled_from([10_001, 10**9])  # in range, or past MAX_BINS
# in range, or past MAX_PROBE_CELLS on the 60-row TABLE
_PERMUTATIONS = st.integers(-2, 4) | st.sampled_from([MAX_PROBE_CELLS // 60, 10**18])

_TINY_ARGVS = st.one_of(
    _flags(p_control=_NUMBERS, mde=_NUMBERS, alpha=_NUMBERS, power=_NUMBERS, disagreement=_NUMBERS).map(
        lambda flags: ["power", *flags]
    ),
    st.builds(
        lambda baseline, lo, hi, step: ["curve", f"--baseline={baseline!r}", f"--grid={lo!r}:{hi!r}:{step!r}"],
        _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS,
    ),
    _flags(threshold=_NUMBERS).map(lambda flags: ["disagree", "--input", "PAIRS", *flags]),
    _flags(alpha=_NUMBERS).map(lambda flags: ["blocked", "analyze", "--input", "OUTCOMES", *flags]),
    st.builds(
        lambda n_users, flags, allocation: ["blocked", "simulate", f"--n-users={n_users}", *flags, allocation],
        st.integers(max_value=200),  # never a size that allocates
        _flags(base_cvr=_NUMBERS, latency_penalty=_NUMBERS, feature_effect=_NUMBERS),
        st.tuples(_NUMBERS, _NUMBERS, _NUMBERS).map(lambda p: f"--allocation={p[0]!r},{p[1]!r},{p[2]!r}"),
    ),
    # the integer flags around their minimums, and a report under a missing directory
    st.builds(
        lambda seed, bins, output: ["rdc", "--input", "LOG", f"--seed={seed}", f"--bins={bins}", *output],
        _SEEDS, _BINS, st.sampled_from([[], ["--output", "MISSING"]]),
    ),
    st.builds(
        lambda seed, folds, permutations: [
            "bias", "--input", "TABLE", "--availability-column", "flag",
            f"--seed={seed}", f"--folds={folds}", f"--permutations={permutations}",
        ],
        _SEEDS, st.integers(-2, 8), _PERMUTATIONS,
    ),
    st.builds(
        lambda seed, folds, permutations, probe: [
            "setup", "--input", "TABLE", "--target", "y",
            f"--seed={seed}", f"--folds={folds}", f"--permutations={permutations}", *probe,
        ],
        _SEEDS, st.integers(-2, 8), _PERMUTATIONS,
        st.sampled_from([[], ["--availability-column", "flag"]]),
    ),
    st.builds(
        lambda seed, bins, window, output: [
            "watch", "--input", "LOG", "--once", f"--seed={seed}", f"--bins={bins}", f"--window={window}", *output,
        ],
        _SEEDS, _BINS, st.integers(-2, 3000),
        st.sampled_from([[], ["--output", "MISSING"]]),
    ),
    st.builds(
        lambda seed: ["blocked", "simulate", "--n-users=20", "--base-cvr=0.1", f"--seed={seed}"],
        _SEEDS,
    ),
)


def _table_rows(n: int = 60) -> list[str]:
    """``a,b,flag,y`` rows: two features, an availability flag that follows ``a``, a target that follows ``b``."""
    return [f"{i % 7},{(i * 3) % 5},{int(i % 7 > 3)},{int((i * 3) % 5 > 1)}" for i in range(n)]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    pairs = ["e1,0.2,0.7,1", "e2,0.9,0.4,0", "e3,0.5,0.5,1"]
    outcomes = [f"{variant},{i % 2}" for i in range(4) for variant in ("base", "v1", "v2")]
    return {
        "PAIRS": write_csv(tmp / "pairs.csv", "entity_id,pred_a,pred_b,label", pairs),
        "OUTCOMES": write_csv(tmp / "outcomes.csv", "variant,converted", outcomes),
        "LOG": write_log(tmp / "log.jsonl", bimodal_scores(300, 0)),
        "TABLE": write_csv(tmp / "t.csv", "a,b,flag,y", _table_rows()),
        "MISSING": str(tmp / "missing" / "report.json"),
    }


@given(_TINY_ARGVS)
@settings(max_examples=500, deadline=None)
def test_no_traceback_at_any_number_the_cli_accepts(tiny_inputs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([tiny_inputs.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


_PAST_FIELD_LIMIT = "e" * 140_000  # the csv module's default field limit is 131 072 characters


# each command that reads an input file, with the first line of a file it accepts
_FILE_COMMANDS = [
    (["disagree"], b"entity_id,pred_a,pred_b,label\n"),
    (["bias", "--availability-column", "flag", "--folds=2", "--permutations=2"], b"a,b,flag,y\n"),
    (["setup", "--target", "y", "--folds=2", "--permutations=2"], b"a,b,flag,y\n"),
    (["blocked", "analyze"], b"variant,converted\n"),
    (["rdc"], b'{"model_id": "m", "ts": 0, "score": 0.5}\n'),
    (["watch", "--once", "--window=20"], b'{"model_id": "m", "ts": 0, "score": 0.5}\n'),
]
# written as a cell past the csv module's field limit: a short stand-in keeps a falsifying example readable
_LONG_CELL = b"<long cell>"
# pieces of the four formats: rows and lines that read, separators, quotes, numbers the readers refuse,
# text that is not UTF-8, and a long cell
_FILE_PIECES = st.sampled_from(
    [
        b"e1,0.25,0.75,1\n", b"1,0,1,0\n", b"0,1,0,1\n", b"base,1\n", b"v1,0\n", b"v2,1\n",
        b'{"model_id": "m", "ts": 1, "score": 0.25}\n', b'{"model_id": "n", "ts": 2, "score": 1, "class": "c"}\n',
        b",", b"\n", b"\r\n", b"\r", b'"', b" ", b"\t", b"0", b"1", b"0.5", b"-0.0", b"1e400", b"nan", b"inf", b"2",
        b"{", b"}", b"[", b"]", b":", b'"score"', b'"model_id"', b'"ts"', b"null", b"true", b"-1",
        b"\xef\xbb\xbf", b"\xff", b"\xed\xa0\x80", b"\x00", b"\x0b", b"\x1c", "\u2028".encode(), b".", b"e",
        _LONG_CELL,
    ]
)


@given(st.sampled_from(_FILE_COMMANDS), st.booleans(), st.lists(_FILE_PIECES, max_size=30))
@example(_FILE_COMMANDS[0], False, [b"0", b"\x0b", b"e1,0.25,0.75,1\n"])  # a header echoed into the error line
@settings(max_examples=400, deadline=None)
def test_no_traceback_at_any_input_file(command, with_header, pieces):
    argv, header = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes((header * with_header + b"".join(pieces)).replace(_LONG_CELL, _PAST_FIELD_LIMIT.encode()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))


@pytest.mark.parametrize(
    "argv",
    [
        ["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.1"],
        ["bias", "--input", "TABLE", "--availability-column", "flag"],
        ["setup", "--input", "TABLE", "--target", "y"],
    ],
    ids=["blocked-simulate", "bias", "setup"],
)
def test_negative_seed_exits_two(tmp_path, capsys, argv):
    table = write_csv(tmp_path / "t.csv", "a,b,flag,y", _table_rows())
    code, out, err = run([table if arg == "TABLE" else arg for arg in argv] + ["--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["power", "--p-control", "0.1", "--mde", "0.02", "--output", "OUT"],
        ["rdc", "--input", "LOG", "--svg", "OUT"],
        ["curve", "--baseline", "0.8", "--grid", "0.8:0.9:0.05", "--svg", "OUT"],
        ["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.1", "--outcomes", "OUT"],
    ],
    ids=["output", "rdc-svg", "curve-svg", "outcomes"],
)
def test_unwritable_output_path_exits_one(tmp_path, bimodal_log, capsys, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run([{"OUT": str(target), "LOG": bimodal_log}.get(arg, arg) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(target) in err


def test_missing_output_directory_is_refused_before_the_handler_runs(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the probe ran although its report cannot be written")

    monkeypatch.setattr(cli, "bias_severity", fail)
    table = write_csv(tmp_path / "t.csv", "a,b,flag,y", _table_rows())
    target = tmp_path / "missing" / "r.json"
    for extra in ([], ["--permutations", "0"]):  # before a bad flag too, as a bad seed is
        code, out, err = run(["bias", "--input", table, "--availability-column", "flag", "-o", str(target), *extra], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write output: [Errno 2] No such file or directory: '{target}'\n"


@pytest.mark.parametrize(
    "argv, step",
    [
        (["bias", "--input", "TABLE", "--availability-column", "flag", "-o", "DIR"], "bias_severity"),
        (["blocked", "simulate", "--n-users", "10", "--base-cvr", "0.1", "--outcomes", "DIR"], "simulate_blocked"),
        (["curve", "--baseline", "0.8", "--grid", "0.8:0.9:0.05", "--svg", "DIR"], "curve_chart"),
        (["rdc", "--input", "LOG", "--svg", "DIR"], "build_rdc"),  # one model: --svg names its chart file
    ],
    ids=["bias-output", "simulate-outcomes", "curve-svg", "rdc-svg"],
)
def test_output_that_is_a_directory_is_refused_before_the_handler_runs(
    tmp_path, bimodal_log, capsys, monkeypatch, argv, step
):
    def fail(*args, **kwargs):
        raise AssertionError("the handler ran although its output cannot be written")

    monkeypatch.setattr(cli, step, fail)
    table = write_csv(tmp_path / "t.csv", "a,b,flag,y", _table_rows())
    target = tmp_path / "reports"
    target.mkdir()
    paths = {"TABLE": table, "LOG": bimodal_log, "DIR": f"{target}/"}
    code, out, err = run([paths.get(arg, arg) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 21] Is a directory: '{target}'\n"
    assert list(target.iterdir()) == []


def test_rdc_per_model_chart_that_is_a_directory_is_refused_before_any_chart(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a chart was built although one cannot be written")

    monkeypatch.setattr(cli, "build_rdc", fail)
    records = score_records(bimodal_scores(50, 0), model_id="a")  # too small to chart, so its file is never written
    for k, model_id in enumerate("bc", start=1):
        records += score_records(bimodal_scores(2000, k), model_id=model_id)
    path = tmp_path / "models.jsonl"
    write_score_log(records, path)
    for name in ("chart_a.svg", "chart_c.svg"):
        (tmp_path / name).mkdir()
    code, out, err = run(["rdc", "--input", str(path), "--svg", str(tmp_path / "chart.svg")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output: [Errno 21] Is a directory: '{tmp_path / 'chart_c.svg'}'\n"
    assert not (tmp_path / "chart_b.svg").exists()


@pytest.mark.parametrize(
    "argv, header, rows, kind",
    [
        (["disagree"], "entity_id,pred_a,pred_b,label", ["e1,0.2,0.7,1", _PAST_FIELD_LIMIT + ",0.5,0.5,1"], "paired"),
        (["bias", "--availability-column", "flag"], "a,b,flag,y", ["1,2,0,1", _PAST_FIELD_LIMIT + ",1,0,1"], "tabular"),
        (["setup", "--target", "y"], "a,b,flag,y", ["1,2,0,1", _PAST_FIELD_LIMIT + ",1,0,1"], "tabular"),
        (["blocked", "analyze"], "variant,converted", ["base,1", _PAST_FIELD_LIMIT + ",1"], "outcomes"),
    ],
    ids=["disagree", "bias", "setup", "blocked-analyze"],
)
def test_cell_past_the_csv_field_limit_is_one_error_line(tmp_path, capsys, argv, header, rows, kind):
    path = write_csv(tmp_path / "in.csv", header, rows)
    code, out, err = run([*argv, "--input", path], capsys)
    assert (code, out) == (1, "")
    limit = csv.field_size_limit()
    assert err == f"error: cannot read {kind} CSV {path}: line 3: field larger than field limit ({limit})\n"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 8.00 TiB"), MemoryError()], ids=["message", "bare"])
def test_memory_error_in_a_handler_is_one_error_line_and_exit_two(capsys, monkeypatch, exc):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_power", exhausted)
    code, out, err = run(["power", "--p-control", "0.1", "--mde", "0.02"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert str(exc) in err
