"""One-command benchmark for scorescope's file-driven CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run generates the workload's
inputs from ``--seed`` under ``.perfbench/`` (set-up, repeated
``SETUP_REPEATS`` times and timed), then starts ``worker.py`` in a fresh
interpreter, which runs closed-loop passes of the workload's CLI ops for
``--seconds`` and checks every report. It prints each metric by name and
unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
A full record (environment, input digests, per-command times, problems)
goes to ``.perfbench/results/``. The exit code is 0 only when every op
passed its check. Workloads are listed in ``workloads.WORKLOADS``; see
README.md for what each measures. ``--workload all`` runs each of them in
turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKER_GRACE_S = 150  # beyond --seconds: the last pass and interpreter start

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict form
        pass
    commit = None
    if (ROOT / ".git").exists():  # never let git search the directories above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")},
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _setup(workload: str, work: Path, seed: int) -> tuple[list[float], dict, list[str]]:
    """Generate the inputs and load the program, ``SETUP_REPEATS`` times."""
    from workloads import generate

    times, expect, problems = [], None, []
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import scorescope.cli"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        got = generate(workload, work, seed)
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
        times.append(perf_counter() - start)
        if expect is not None and got != expect:
            problems.append("set-up is not deterministic: inputs differ between repeats")
        expect = got
    (work / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    return times, expect, problems


def _mean_pass(passes: list[dict], group: str | None = None) -> float:
    """Op seconds per pass (of one op group, or all), averaged over the run.

    A mean, not a median: on a shared 2-vCPU VM the speed of Python-heavy
    code switches between levels about 30% apart for seconds to minutes at
    a time, and over a run's handful of passes the median jumps from one
    level to the other where the mean moves smoothly. Over ten 27 s runs of
    the log-stream ops there, the spread (IQR over median) of the run
    medians was 0.28 and that of the run means 0.18.
    """
    return statistics.fmean(
        sum(op["seconds"] for op in p["ops"] if group is None or op["group"] == group) for p in passes
    )


def end_to_end(result: dict, expect: dict, setups: list[float]) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and the per-command times (``<op group>_s``) reported beside them."""
    passes = [p for p in result["passes"] if not p["traced"]]
    wall = _mean_pass(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "records_per_s": (expect["records"] / wall, "1/s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    groups = dict.fromkeys(op["group"] for op in passes[0]["ops"])
    commands = {f"{group}_s": (_mean_pass(passes, group), "s") for group in groups}
    return metrics, commands


def per_layer(result: dict) -> dict:
    """Per-function, per-layer and derived metrics, averaged per traced pass."""
    from tracer import OP_SPAN, TRACED

    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    per_pass = 1.0 / len(traced)
    stats = result["trace"]["stats"]
    counters = result["trace"]["counters"]

    def stat(name):  # calls, errors, total seconds, self seconds
        return stats.get(name, (0, 0, 0.0, 0.0))

    op_total = stat(OP_SPAN)[2]
    metrics = {}
    layer_self = {"cli": stat(OP_SPAN)[3]}
    for layer, names in TRACED.items():
        layer_self[layer] = 0.0
        for attr in names:
            calls, _errors, total, self_s = stat(f"{layer}.{attr}")
            metrics[f"{layer}.{attr}.calls"] = (calls * per_pass, "count")
            metrics[f"{layer}.{attr}.total_s"] = (total * per_pass, "s")
            metrics[f"{layer}.{attr}.self_s"] = (self_s * per_pass, "s")
            layer_self[layer] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s * per_pass, "s")
        metrics[f"{layer}.share"] = (self_s / op_total if op_total else 0.0, "ratio")

    parse_calls, parse_errors, _, _ = stat("ingest.parse_score_line")
    rows = counters.get("ingest.csv_rows", 0)
    lines = parse_calls + rows
    metrics["ingest.kept_ratio"] = ((lines - parse_errors) / lines if lines else 0.0, "ratio")
    diag_calls, _, diag_total, _ = stat("rdc.diagnose")
    metrics["rdc.diagnoses_per_s"] = (diag_calls / diag_total if diag_total else 0.0, "1/s")
    for key in ("windows", "alerts", "dropped_records"):
        value = sum(op.get("monitor", {}).get(key, 0) for p in traced for op in p["ops"])
        metrics[f"monitor.{key}"] = (value * per_pass, "count")
    refits = counters.get("construction.refits", 0)
    fit_time = stat("construction.bias_severity")[2] + stat("construction.learnability_gap")[2]
    metrics["construction.refits"] = (refits * per_pass, "count")
    metrics["construction.refits_per_s"] = (refits / fit_time if fit_time else 0.0, "1/s")
    metrics["trace.overhead_ratio"] = (_mean_pass(traced) / _mean_pass(untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scorescope" / "cli.py").is_file():
        print(f"perfbench: no scorescope sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":  # one run per workload, each in its own process
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        runs = [subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, *rest]) for w in WORKLOADS]
        return max(run.returncode for run in runs)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / tag
    setups, expect, problems = _setup(args.workload, work, args.seed)
    result_path = work / "worker.json"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work)]
    worker += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker += ["--result", str(result_path)]
    completed = subprocess.run(worker, timeout=args.seconds + WORKER_GRACE_S)
    if completed.returncode != 0:
        print(f"perfbench: worker exited with {completed.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    ops = [op for p in result["passes"] for op in p["ops"]]
    problems += [f"{op['group']}: {msg}" for op in ops for msg in op["problems"]]
    failed = sum(bool(op["problems"]) for op in ops)
    correct = not problems
    e2e, commands = end_to_end(result, expect, setups)
    shown = per_layer(result) if args.trace else e2e

    print(f"perfbench {tag}: {len(result['passes'])} passes, {len(ops)} ops, {failed} failed")
    for name, (value, unit) in {**e2e, **commands, "failed_ratio": (failed / len(ops), "ratio")}.items():
        print(f"  {name:<16} {value:>14.6f} {unit}")
    if args.trace:
        print(f"  traced run: {len(shown)} per-layer metrics, spans in {work / 'spans.jsonl'}")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    environment = _environment()
    print(f"  environment {json.dumps(environment)}")
    print(f"  inputs {json.dumps(expect['inputs'])}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "inputs": expect["inputs"],
        "setup_s": setups,
        "passes": [[(op["group"], op["seconds"]) for op in p["ops"]] for p in result["passes"] if not p["traced"]],
        "end_to_end": e2e,
        "commands": commands,
        "per_layer": shown if args.trace else None,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
    }
    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    (WORK_ROOT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for path in work.iterdir():  # keep the spans, drop the inputs and reports
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name != "spans.jsonl":
            path.unlink()

    print(json.dumps(
        {
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
        }
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
