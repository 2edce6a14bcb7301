"""Seeded inputs, CLI operations and output checks for the benchmark workloads.

Inputs come from this module's own generators, never from the test suite's,
so an edit to the tests cannot move the benchmark. ``generate`` writes one
workload's input files and returns the expectations the output checks
compare against; ``operations`` turns the same workload into the list of
``scorescope.cli.main`` invocations one pass runs. Both also take a single
part's name.

Every expectation is an integer or enum field that holds for any seed: the
generators fix per-model, per-class and per-variant counts exactly and pick
score shapes whose diagnosis never flips at the sizes used (each shape was
checked on thousands of fresh draws). Seed-dependent integers, such as bin
counts or the disagreeing pairs, are recomputed here from the generated
values. Floats are left out so that a change in floating-point precision is
not counted as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The four parts are the unit of input generation and output checking. A
# workload runs two of them in one pass, so that each run fits twice the
# measuring time into the benchmark's time budget. The pairing keeps every
# optimisation's "moves" and "stays" sides apart: a faster diagnose or
# monitor moves stream-experiment only (log-batch diagnoses 32 charts a
# pass, log-stream about 1000 windows); a faster logistic engine moves
# batch-construction only; a shared CSV reader moves stream-experiment
# (200k paired rows, 500k outcome rows) and leaves batch-construction (a
# 2000-row table) as it was; a columnar score-log ingest moves both.
PARTS = ("log-batch", "log-stream", "construction", "experiment-csv")
WORKLOADS = {
    "batch-construction": ("log-batch", "construction"),
    "stream-experiment": ("log-stream", "experiment-csv"),
}

BINS = 100
HEALTHY, CENTRAL, SPIKE = "HEALTHY_BIMODAL", "CENTRAL_UNIMODAL", "EXTREME_SPIKE"

# log-batch: 8 models x 25k records, three classes each, 1000 malformed lines
BATCH_SHAPES = ("bimodal", "central", "spike0", "bimodal", "central", "spike1", "bimodal", "central")
BATCH_PER_MODEL = 25_000
BATCH_CLASSES = ("c0", "c1", "c2")
MALFORMED = 1_000

# log-stream: 20 interleaved models whose counts leave varied remainders, so
# the final flush emits partial windows (remainder >= 100) and drops others
STREAM_MODELS = 20
STREAM_BASE = 9_800
STREAM_WINDOW = 200
STREAM_REFERENCE = 2_000
STREAM_OVERRIDE_MODEL = "s03"
STREAM_OVERRIDE_SCORE = 0.99
# Windows of 100-200 records read EXTREME_SPIKE for a spike shape whatever
# the draw; smooth shapes do not (a bimodal window reads NOISY but, about
# once in 500 windows, HEALTHY_BIMODAL). Each stream shape gets a reference
# of another shape or spike position, so every window drifts. The Beta(2,8)
# mix misreads once in 10^4 charts of 2k records, so references use "edges".
STREAM_SHAPES = ("spike0", "spike1")
STREAM_REFERENCE_SHAPE = {"spike0": "edges", "spike1": "spike0"}

# construction: availability depends on x1 with an out-of-fold AUC near
# 0.675, six standard deviations from both MILD cutoffs (0.60 and 0.75)
TAB_ROWS = 2_000
TAB_FEATURES = 6
TAB_AVAILABILITY_SLOPE = 0.68

# experiment-csv
PAIRS = 200_000
PAIRS_LABELED = 150_000
BLOCKED_USERS = 500_000
POWER_ARGS = ["--p-control", "0.1", "--mde", "0.01", "--disagreement", "0.25"]
# pinned from the seed commit: the sizing is closed-form in its arguments
POWER_N_PER_ARM = 14_751
POWER_TOTAL_TRAFFIC = 118_008
CURVE_GRID = "0.8:1.0:0.02"
CURVE_POINTS = 11


def _shape(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if name == "bimodal":  # Beta(2,8) / Beta(8,2) mix: HEALTHY_BIMODAL from 8k records up
        return np.where(rng.random(n) < 0.5, rng.beta(2, 8, n), rng.beta(8, 2, n))
    if name == "edges":  # Beta(3,30) / Beta(30,3) mix: HEALTHY_BIMODAL from 2k records up
        return np.where(rng.random(n) < 0.5, rng.beta(3, 30, n), rng.beta(30, 3, n))
    if name == "central":  # narrow hump: CENTRAL_UNIMODAL from 8k records up (Beta(5,5) is not)
        return rng.beta(60, 60, n)
    if name in ("spike0", "spike1"):  # 95% point mass over a uniform floor: EXTREME_SPIKE at any size
        k = round(0.95 * n)
        scores = np.concatenate([np.full(k, 0.0 if name == "spike0" else 1.0), rng.random(n - k)])
        return rng.permutation(scores)
    raise ValueError(name)


_MALFORMED_LINES = (
    '{"model_id": "m0", "ts": 1, "sco',
    "[1, 2, 3]",
    '{"ts": 5, "score": 0.5}',
    '{"model_id": "m1", "ts": -3, "score": 0.5}',
    '{"model_id": "m1", "ts": 7, "score": "0.5"}',
    '{"model_id": "m1", "ts": 9, "score": 0.5, "label": 2}',
)


def _interleave(models: list[str], scores: list[np.ndarray], rng, extra: Callable[[int, int], str] | None = None):
    """Score-log lines for all models in a seeded interleaving."""
    order = rng.permutation(np.repeat(np.arange(len(models)), [len(s) for s in scores]))
    cursors = [0] * len(models)
    values = [s.tolist() for s in scores]
    lines = []
    for ts, m in enumerate(order.tolist()):
        score = values[m][cursors[m]]
        tail = extra(m, cursors[m]) if extra else ""
        cursors[m] += 1
        lines.append(f'{{"model_id": "{models[m]}", "ts": {ts}, "score": {score!r}{tail}}}')
    return lines


def _with_malformed(lines: list[str], count: int, rng) -> list[str]:
    total = len(lines) + count
    bad = set(rng.choice(total, size=count, replace=False).tolist())
    out, it, k = [], iter(lines), 0
    for i in range(total):
        if i in bad:
            out.append(_MALFORMED_LINES[k % len(_MALFORMED_LINES)])
            k += 1
        else:
            out.append(next(it))
    return out


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _histogram(scores: np.ndarray) -> list[int]:
    return np.histogram(scores, bins=BINS, range=(0.0, 1.0))[0].tolist()


def _pattern(shape: str) -> str:
    return {"bimodal": HEALTHY, "edges": HEALTHY, "central": CENTRAL}.get(shape, SPIKE)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _gen_log_batch(work: Path, rng, scale: float) -> dict:
    n = _scaled(BATCH_PER_MODEL, scale)
    models = [f"m{i}" for i in range(len(BATCH_SHAPES))]
    scores = [_shape(shape, n, rng) for shape in BATCH_SHAPES]
    class_counts = [n // 3 + (i < n % 3) for i in range(3)]
    classes = [rng.permutation(np.repeat(np.arange(3), class_counts)).tolist() for _ in models]
    lines = _interleave(
        models, scores, rng, lambda m, i: f', "entity_id": "e{m}-{i}", "class": "{BATCH_CLASSES[classes[m][i]]}"'
    )
    _write_lines(work / "batch.jsonl", _with_malformed(lines, _scaled(MALFORMED, scale), rng))
    return {
        "skipped_lines": _scaled(MALFORMED, scale),
        "models": {
            m: {"n": n, "pattern": _pattern(shape), "counts": _histogram(s)}
            for m, shape, s in zip(models, BATCH_SHAPES, scores)
        },
        "class_n": dict(zip(BATCH_CLASSES, class_counts)),
        "records": 2 * (n * len(models) + _scaled(MALFORMED, scale)),  # both rdc ops read the log
    }


def _gen_log_stream(work: Path, rng, scale: float) -> dict:
    models = [f"s{i:02d}" for i in range(STREAM_MODELS)]
    shapes = [STREAM_SHAPES[i % len(STREAM_SHAPES)] for i in range(STREAM_MODELS)]
    counts = [_scaled(STREAM_BASE, scale) + (i * 53) % STREAM_WINDOW for i in range(STREAM_MODELS)]
    lines = _interleave(models, [_shape(s, n, rng) for s, n in zip(shapes, counts)], rng)
    _write_lines(work / "stream.jsonl", _with_malformed(lines, _scaled(MALFORMED, scale), rng))
    ref_shapes = [STREAM_REFERENCE_SHAPE[s] for s in shapes]
    ref = _interleave(models, [_shape(s, STREAM_REFERENCE, rng) for s in ref_shapes], rng)
    _write_lines(work / "reference.jsonl", ref)

    windows = partials = 0
    alerts: Counter = Counter()
    dropped = {}
    for model, ref_shape, n in zip(models, ref_shapes, counts):
        full, rest = divmod(n, STREAM_WINDOW)
        partial = rest >= 100  # the diagnosis sample floor
        if 0 < rest < 100:
            dropped[model] = rest
        k = full + partial
        windows += k
        partials += partial
        # every window is a spike (the override forces one at 0.99) and drifts
        if _pattern(ref_shape) != SPIKE:
            alerts["PATTERN_CHANGE"] += k
        alerts["DRIFT"] += k
        alerts["PATHOLOGY"] += k
    return {
        "windows": windows,
        "partial_windows": partials,
        "alerts": dict(sorted(alerts.items())),
        "alert_count": sum(alerts.values()),
        "dropped": dropped,
        "overridden": counts[models.index(STREAM_OVERRIDE_MODEL)],
        "malformed_lines": _scaled(MALFORMED, scale),
        "records": sum(counts) + _scaled(MALFORMED, scale) + STREAM_REFERENCE * STREAM_MODELS,
    }


def _gen_construction(work: Path, rng, scale: float) -> dict:
    n = _scaled(TAB_ROWS, scale)
    x = rng.normal(size=(n, TAB_FEATURES))
    target = (rng.random(n) < 1 / (1 + np.exp(-(1.5 * x[:, 1] - x[:, 2])))).astype(int)
    avail = (rng.random(n) < 1 / (1 + np.exp(-TAB_AVAILABILITY_SLOPE * x[:, 0]))).astype(int)
    names = [f"x{j + 1}" for j in range(TAB_FEATURES)]
    with (work / "table.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, "y", "avail"])
        for row, t, a in zip(x.tolist(), target.tolist(), avail.tolist()):
            writer.writerow([*map(repr, row), t, a])
    labeled = int(avail.sum())
    return {"n": n, "n_labeled": labeled, "n_unlabeled": n - labeled, "severity": "MILD", "records": 3 * n}


def _gen_experiment(work: Path, rng, scale: float) -> dict:
    n = _scaled(PAIRS, scale)
    labeled = _scaled(PAIRS_LABELED, scale)
    y = rng.random(n) < 0.4
    center = np.where(y, 0.65, 0.35)
    pred_a = np.clip(rng.normal(center, 0.2), 0.0, 1.0)
    pred_b = np.clip(rng.normal(center, 0.2), 0.0, 1.0)
    has_label = rng.permutation(np.arange(n) < labeled)
    with (work / "pairs.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("entity_id,pred_a,pred_b,label\n")
        for i, (a, b, lab, has) in enumerate(zip(pred_a.tolist(), pred_b.tolist(), y.tolist(), has_label.tolist())):
            fh.write(f"e{i},{a!r},{b!r},{int(lab) if has else ''}\n")
    users = _scaled(BLOCKED_USERS, scale)
    return {
        "n_pairs": n,
        "n_labeled": labeled,
        "n_disagree": int(((pred_a >= 0.5) != (pred_b >= 0.5)).sum()),
        "n_users": users,
        "records": n + users,
    }


_GENERATORS = {
    "log-batch": _gen_log_batch,
    "log-stream": _gen_log_stream,
    "construction": _gen_construction,
    "experiment-csv": _gen_experiment,
}


def generate(name: str, work: Path, seed: int, scale: float = 1.0) -> dict:
    """Write the inputs of a workload (or of one part) under ``work``.

    Returns the expectations per part, the ``records`` (input lines and
    rows) one pass reads, and each input's size and sha256.
    """
    work.mkdir(parents=True, exist_ok=True)
    expect: dict = {"parts": {}, "records": 0}
    for part in WORKLOADS.get(name, (name,)):
        rng = np.random.default_rng([seed, PARTS.index(part)])
        expect["parts"][part] = _GENERATORS[part](work, rng, scale)
        expect["records"] += expect["parts"][part].pop("records")
    expect["inputs"] = {
        p.name: {"bytes": p.stat().st_size, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for p in sorted(work.iterdir())
        if p.is_file()
    }
    return expect


# ---------------------------------------------------------------------------
# operations and their output checks
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop CLI invocation and the check its report must pass.

    ``group`` names the per-command metric the op's time counts toward.
    ``check(report, stdout, state)`` returns a list of problems; ``state``
    carries values between the ops of one pass.
    """

    group: str
    argv: list[str]
    output: Path
    check: Callable[[dict, str, dict], list[str]]
    produces: tuple[Path, ...] = ()


def _expect_equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _svg_ok(path: Path) -> bool:
    try:
        return ET.parse(path).getroot().tag.endswith("svg")
    except (OSError, ET.ParseError):
        return False


def _check_rdc(expect: dict, per_class: bool, svg: Path | None):
    def check(report, _stdout, _state):
        problems: list[str] = []
        results = report["results"]
        _expect_equal(problems, "skipped_lines", results["skipped_lines"], expect["skipped_lines"])
        _expect_equal(problems, "models", sorted(results["models"]), sorted(expect["models"]))
        unhealthy = []
        for model, want in expect["models"].items():
            got = results["models"].get(model, {})
            _expect_equal(problems, f"{model}.n", got.get("n"), want["n"])
            _expect_equal(problems, f"{model}.bins", got.get("bins"), BINS)
            _expect_equal(problems, f"{model}.pattern", got.get("pattern"), want["pattern"])
            _expect_equal(problems, f"{model}.counts", got.get("counts"), want["counts"])
            if want["pattern"] != HEALTHY:
                unhealthy.append(model)
            if per_class:
                classes = got.get("classes", {})
                _expect_equal(problems, f"{model}.classes", sorted(classes), sorted(expect["class_n"]))
                for label, n in expect["class_n"].items():
                    entry = classes.get(label, {})
                    _expect_equal(problems, f"{model}/{label}.n", entry.get("n"), n)
                    _expect_equal(problems, f"{model}/{label}.pattern", entry.get("pattern"), want["pattern"])
                    if want["pattern"] != HEALTHY:
                        unhealthy.append(f"{model}/{label}")
        _expect_equal(problems, "unhealthy", results.get("unhealthy"), sorted(unhealthy) or None)
        if svg is not None:
            charts = sorted(svg.parent.glob(f"{svg.stem}_*.svg"))
            _expect_equal(problems, "svg charts", len(charts), len(expect["models"]))
            bad = [c.name for c in charts if not _svg_ok(c)]
            _expect_equal(problems, "invalid svg charts", bad, [])
        return problems

    return check


def _check_watch(expect: dict):
    def check(report, stdout, _state):
        problems: list[str] = []
        results = report["results"]
        for key in ("windows", "partial_windows", "alerts", "alert_count", "dropped", "overridden", "malformed_lines"):
            _expect_equal(problems, key, results.get(key), expect[key])
        streamed = Counter(json.loads(line)["kind"] for line in stdout.splitlines() if line)
        _expect_equal(problems, "alert lines by kind", dict(sorted(streamed.items())), expect["alerts"])
        return problems

    return check


def _check_bias(expect: dict, results_key: str | None):
    def check(report, _stdout, _state):
        problems: list[str] = []
        results = report["results"] if results_key is None else report["results"][results_key]
        _expect_equal(problems, "severity", results["severity"], expect["severity"])
        _expect_equal(problems, "n_labeled", results["n_labeled"], expect["n_labeled"])
        _expect_equal(problems, "n_unlabeled", results["n_unlabeled"], expect["n_unlabeled"])
        _expect_equal(problems, "permutations", results["permutations"], 200)
        _expect_equal(problems, "folds", results["folds"], 5)
        return problems

    return check


def _check_setup(expect: dict):
    bias_check = _check_bias(expect, "bias")

    def check(report, stdout, state):
        results = report["results"]
        problems = bias_check(report, stdout, state)
        _expect_equal(problems, "balance.n", results["balance"]["n"], expect["n"])
        learn = results["learnability"]
        _expect_equal(problems, "learnability.folds", learn["folds"], 5)
        _expect_equal(problems, "learnability.fold_aucs", len(learn["fold_aucs"]), 5)
        _expect_equal(problems, "learnability.skipped_folds", learn["skipped_folds"], [])
        return problems

    return check


def _check_disagree(expect: dict):
    def check(report, _stdout, _state):
        problems: list[str] = []
        results = report["results"]
        for key in ("n_pairs", "n_disagree", "n_labeled"):
            _expect_equal(problems, key, results[key], expect[key])
        return problems

    return check


def _count_outcomes(path: Path) -> tuple[dict, dict]:
    users: Counter = Counter()
    conversions: Counter = Counter()
    with path.open(encoding="utf-8") as fh:
        next(fh)
        for (variant, flag), k in Counter(tuple(line.rstrip("\r\n").split(",")) for line in fh).items():
            users[variant] += k
            conversions[variant] += k * int(flag)
    return dict(users), dict(conversions)


def _check_simulate(expect: dict, outcomes: Path):
    def check(report, _stdout, state):
        problems: list[str] = []
        results = report["results"]
        _expect_equal(problems, "n_users", results["n_users"], expect["n_users"])
        _expect_equal(problems, "users total", sum(results["users"].values()), expect["n_users"])
        users, conversions = _count_outcomes(outcomes)
        _expect_equal(problems, "users in outcome CSV", users, results["users"])
        _expect_equal(problems, "conversions in outcome CSV", conversions, results["conversions"])
        state["simulated"] = (results["users"], results["conversions"])
        return problems

    return check


def _check_analyze(report, _stdout, state):
    problems: list[str] = []
    users, conversions = state.get("simulated", (None, None))
    _expect_equal(problems, "analyzed users", report["results"]["users"], users)
    _expect_equal(problems, "analyzed conversions", report["results"]["conversions"], conversions)
    return problems


def _check_power(report, _stdout, _state):
    problems: list[str] = []
    _expect_equal(problems, "n_per_arm", report["results"]["n_per_arm"], POWER_N_PER_ARM)
    _expect_equal(problems, "total_traffic_required", report["results"]["total_traffic_required"], POWER_TOTAL_TRAFFIC)
    return problems


def _check_curve(svg: Path):
    def check(report, _stdout, _state):
        problems: list[str] = []
        _expect_equal(problems, "curve points", len(report["results"]["series"]), CURVE_POINTS)
        _expect_equal(problems, "curve svg valid", _svg_ok(svg), True)
        return problems

    return check


def operations(name: str, work: Path, seed: int, expect: dict) -> list[Op]:
    """The CLI invocations of one pass over a workload (or one part), in order."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    ops: list[Op] = []

    def op(group, argv, check, produces=()):
        output = out / f"{group}-{len(ops)}.json"
        ops.append(Op(group, [*argv, "--output", str(output)], output, check, tuple(produces)))

    for part in WORKLOADS.get(name, (name,)):
        want = expect["parts"][part]
        if part == "log-batch":
            log = str(work / "batch.jsonl")
            svg = out / "chart.svg"
            charts = tuple(out / f"chart_m{i}.svg" for i in range(len(BATCH_SHAPES)))
            op("rdc", ["rdc", "--input", log, "--svg", str(svg)], _check_rdc(want, False, svg), charts)
            op("rdc", ["rdc", "--input", log, "--per-class"], _check_rdc(want, True, None))
        elif part == "log-stream":
            argv = ["watch", "--input", str(work / "stream.jsonl"), "--reference", str(work / "reference.jsonl")]
            argv += ["--once", "--window", str(STREAM_WINDOW)]
            argv += ["--override", f"model={STREAM_OVERRIDE_MODEL}:score={STREAM_OVERRIDE_SCORE}"]
            op("watch", argv, _check_watch(want))
        elif part == "construction":
            table = str(work / "table.csv")
            bias = ["bias", "--input", table, "--availability-column", "avail"]
            op("bias", bias, _check_bias(want, None))
            op("bias_w2", [*bias, "--workers", "2"], _check_bias(want, None))
            setup = ["setup", "--input", table, "--target", "y", "--availability-column", "avail"]
            op("setup_cmd", setup, _check_setup(want))
        elif part == "experiment-csv":
            outcomes = out / "outcomes.csv"
            curve_svg = out / "curve.svg"
            op("disagree", ["disagree", "--input", str(work / "pairs.csv")], _check_disagree(want))
            simulate = ["blocked", "simulate", "--n-users", str(want["n_users"]), "--base-cvr", "0.1"]
            simulate += ["--latency-penalty", "-0.004", "--feature-effect", "0.01", "--seed", str(seed)]
            op("blocked", [*simulate, "--outcomes", str(outcomes)], _check_simulate(want, outcomes), (outcomes,))
            op("blocked", ["blocked", "analyze", "--input", str(outcomes)], _check_analyze)
            op("power", ["power", *POWER_ARGS], _check_power)
            op("curve", ["curve", "--baseline", "0.8", "--grid", CURVE_GRID, "--svg", str(curve_svg)],
               _check_curve(curve_svg), (curve_svg,))
        else:
            raise ValueError(f"unknown workload {name!r}")
    return ops
