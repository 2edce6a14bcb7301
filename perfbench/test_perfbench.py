"""Self-checks for the benchmark: its output checks catch wrong results, its
inputs are seeded, and its tracer leaves the program as it found it.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import measure  # noqa: E402


def _problems(result: dict) -> dict[str, list[str]]:
    return {op["group"]: op["problems"] for p in result["passes"] for op in p["ops"] if op["problems"]}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    work = tmp_path_factory.mktemp("experiment")
    return work, workloads.generate("experiment-csv", work, seed=5, scale=0.01)


def test_seed_code_passes_every_check(experiment):
    work, expect = experiment
    result = measure("experiment-csv", work, 5, expect, seconds=0, trace=False)
    assert _problems(result) == {}
    assert [op["group"] for op in result["passes"][0]["ops"]] == ["disagree", "blocked", "blocked", "power", "curve"]


def test_wrong_pinned_expectation_is_a_failure(experiment, monkeypatch):
    work, expect = experiment
    monkeypatch.setattr(workloads, "POWER_N_PER_ARM", workloads.POWER_N_PER_ARM + 1)
    problems = _problems(measure("experiment-csv", work, 5, expect, seconds=0, trace=False))
    assert list(problems) == ["power"]
    assert "n_per_arm" in problems["power"][0]


def test_wrong_recomputed_expectation_is_a_failure(experiment):
    work, expect = experiment
    part = expect["parts"]["experiment-csv"]
    wrong = {**expect, "parts": {"experiment-csv": {**part, "n_disagree": part["n_disagree"] + 1}}}
    problems = _problems(measure("experiment-csv", work, 5, wrong, seconds=0, trace=False))
    assert list(problems) == ["disagree"]


def test_workload_runs_its_parts_in_order(tmp_path):
    expect = {"parts": {"log-stream": {}, "experiment-csv": {"n_users": 10}}}
    ops = workloads.operations("stream-experiment", tmp_path, 0, expect)
    assert [op.group for op in ops] == ["watch", "disagree", "blocked", "blocked", "power", "curve"]
    assert len({op.output for op in ops}) == len(ops)


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.generate("log-batch", tmp_path / "a", seed=3, scale=0.01)
    again = workloads.generate("log-batch", tmp_path / "b", seed=3, scale=0.01)
    other = workloads.generate("log-batch", tmp_path / "c", seed=4, scale=0.01)
    assert first == again
    assert first["inputs"] != other["inputs"]


def test_traced_run_counts_calls_and_restores_the_program(tmp_path):
    import scorescope.cli as cli
    import scorescope.monitor as monitor

    originals = (cli.parse_score_line, monitor.diagnose, monitor.WindowedMonitor.feed)
    expect = workloads.generate("log-stream", tmp_path, seed=2, scale=0.05)
    result = measure("log-stream", tmp_path, 2, expect, seconds=0, trace=True)
    assert _problems(result) == {}
    assert (cli.parse_score_line, monitor.diagnose, monitor.WindowedMonitor.feed) == originals

    metrics = {name: value for name, (value, _unit) in per_layer(result).items()}
    stream = expect["parts"]["log-stream"]
    assert metrics["monitor.windows"] == stream["windows"]
    # every window is diagnosed once, plus one reference chart per model
    assert metrics["rdc.diagnose.calls"] == stream["windows"] + workloads.STREAM_MODELS
    lines = expect["records"] - workloads.STREAM_REFERENCE * workloads.STREAM_MODELS
    assert metrics["monitor.WindowedMonitor.feed.calls"] == lines - stream["malformed_lines"]
    shares = [value for name, value in metrics.items() if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"cli.main", "ingest.read_score_log", "monitor.WindowedMonitor.finish"}


def test_tracer_uninstall_is_exact():
    import scorescope.ingest as ingest

    before = dict(vars(ingest))
    tracer = Tracer()
    tracer.install()
    assert ingest.parse_score_line is not before["parse_score_line"]
    tracer.uninstall()
    assert dict(vars(ingest)) == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "batch-construction", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
