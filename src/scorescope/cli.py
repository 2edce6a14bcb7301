"""Command-line interface.

Every command emits one structured JSON report carrying the tool version,
input digests, results, and the exact thresholds that influenced any
verdict, so heuristic calls can be audited after the fact. Exit codes: 0
ok, 1 input or output error, 2 precondition violation, 3 strict-mode finding.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .blocked import (
    BlockedDesign,
    BlockedSimConfig,
    Variant,
    analyze_blocked,
    read_blocked_csv,
    simulate_blocked,
    write_blocked_csv,
)
from .charts import curve_chart, rdc_chart
from .construction import (
    DEFAULT_BIAS_CUTOFFS,
    DEFAULT_LOGISTIC,
    BiasSeverity,
    bias_severity,
    check_probe_settings,
    class_balance,
    learnability_gap,
)
from .errors import InputError, PreconditionError
from .experiments import disagreement, impacted_traffic_curve, required_sample_size
from .ingest import dataset_from_arrays, read_paired, read_score_log, read_tabular
from .ingest import parse_score_line  # noqa: F401  only perfbench/test_perfbench.py reads cli.parse_score_line
from .monitor import MonitorConfig, OverrideRule, watch
from .rdc import DEFAULT_DIAGNOSIS, RdcPattern, build_rdc, diagnose_or_skip, group_by, one_vs_rest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_STRICT = 3

MAX_GRID_POINTS = 10_001


def _json_default(obj):
    """``json.dumps`` hook: a dataclass as its fields, an Enum as its value, numpy as Python values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _digest(path: Path) -> dict:
    sha = hashlib.sha256()
    try:
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return {"path": str(path), "sha256": sha.hexdigest()}


def _envelope(command: str, inputs: dict, results: dict, decisions: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": {name: _digest(Path(p)) for name, p in inputs.items()},
        "results": results,
        "decisions": decisions,
    }


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_overrides(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config {path} must be a JSON object of sections")
    return data


def _apply_section(instance, section: str, overrides: dict, **flags):
    data = overrides.get(section, {})
    if not isinstance(data, dict):
        raise InputError(f"config section {section!r} must be an object")
    # a nested config (monitor.diagnosis) is set through its own section only
    settable = {key: value for key, value in vars(instance).items() if not is_dataclass(value)}
    unknown = sorted(set(data) - set(settable))
    if unknown:
        raise InputError(f"config section {section!r} has unknown keys: {', '.join(unknown)}")
    known_sections = {"diagnosis", "monitor", "bias_cutoffs", "logistic"}
    stray = sorted(set(overrides) - known_sections)
    if stray:
        raise InputError(f"unknown config sections: {', '.join(stray)}")
    for key, value in data.items():  # an int field takes an int, a float field either; a bool is never a number
        number = isinstance(settable[key], float)
        if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
            raise PreconditionError(f"{section} {key} must be {'a number' if number else 'an integer'}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # json.loads accepts NaN and Infinity
            raise PreconditionError(f"{section} {key} must be a finite number, got {value!r}")
    changes = {**flags, **data}  # flags and config keys checked together, a config key overriding its flag
    return replace(instance, **changes) if changes else instance


def _diagnosis_config(args, overrides: dict):
    return _apply_section(DEFAULT_DIAGNOSIS, "diagnosis", overrides, bins=args.bins)


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs, results, decisions, exit_code)
# ---------------------------------------------------------------------------


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def cmd_rdc(args):
    overrides = _load_overrides(args.config)
    dconf = _diagnosis_config(args, overrides)
    log = read_score_log(args.input, rescale=args.rescale)
    columns = log.columns
    if args.model is not None:
        wanted = columns.model_ids.index(args.model) if args.model in columns.model_ids else -1
        columns = columns.take(columns.model == wanted)
    if not len(columns):
        raise PreconditionError("no score records to chart (check --model and the input log)")

    results: dict = {"models": {}, "skipped_lines": log.skipped}
    charts: dict[str, str] = {}
    unhealthy = []

    def chart_entry(name: str, rdc):
        """Diagnosis and report entry of one chart; a chart too small to diagnose is skipped."""
        diag = diagnose_or_skip(rdc, dconf)
        if isinstance(diag, str):
            return None, {"n": rdc.n, "skipped": diag}
        if diag.pattern is not RdcPattern.HEALTHY_BIMODAL:
            unhealthy.append(name)
        entry = {"n": rdc.n, "pattern": diag.pattern, "evidence": diag.evidence, "threshold_band": diag.threshold_band}
        return diag, entry

    by_model = group_by(columns, "model_id")
    svg_targets: dict[Path, str] = {}  # charted model per chart file, named before any chart is built
    if args.svg:
        svg = Path(args.svg)
        for model_id, rows in by_model.items():
            if len(rows) < dconf.min_samples:  # skipped, not charted
                continue
            target = svg if len(by_model) == 1 else svg.with_name(f"{svg.stem}_{_safe_name(model_id)}{svg.suffix}")
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            if target in svg_targets:
                raise PreconditionError(f"models {svg_targets[target]!r} and {model_id!r} both chart to {target}")
            svg_targets[target] = model_id
    for model_id, rows in by_model.items():
        rdc = build_rdc(columns.score[rows], dconf.bins)
        diag, entry = chart_entry(model_id, rdc)
        results["models"][model_id] = entry
        if diag is None:
            continue
        entry.update(bins=rdc.bin_count, counts=rdc.counts)
        if args.per_class:
            try:
                classes = one_vs_rest(columns.take(rows), dconf.bins)
            except PreconditionError as exc:  # else the error counts records of this model alone, unnamed
                raise PreconditionError(f"model {model_id!r}: {exc}") from None
            entry["classes"] = {label: chart_entry(f"{model_id}/{label}", c)[1] for label, c in classes.items()}
        if args.svg:
            locations = tuple(m["location"] for m in diag.evidence["modes"])
            charts[model_id] = rdc_chart(rdc, diag.threshold_band, locations, title=model_id)
    if all("skipped" in entry for entry in results["models"].values()):
        reasons = "; ".join(f"{model_id}: {entry['skipped']}" for model_id, entry in results["models"].items())
        raise PreconditionError(f"no model has enough records to diagnose ({reasons})")

    for target, model_id in svg_targets.items():
        target.write_text(charts[model_id], encoding="utf-8")

    code = EXIT_STRICT if args.strict and unhealthy else EXIT_OK
    if unhealthy:
        results["unhealthy"] = sorted(unhealthy)
    results["note"] = "pattern verdicts are heuristics; the thresholds behind them are conventions, listed under decisions"
    return {"input": args.input}, results, asdict(dconf), code


def _check_probe_flags(args) -> None:
    """Refuse bad probe flags before any input is read."""
    check_probe_settings(args.permutations)
    if args.workers < 1:  # --workers is otherwise ignored: every fit runs on one thread
        raise PreconditionError("workers must be >= 1")


def _bias_probe(args, features, flags, cutoffs, logistic) -> dict:
    """The selection-bias probe's results, noting when the p-value floor put SEVERE out of reach."""
    k = args.permutations
    results = asdict(bias_severity(features, flags, args.folds, k, args.seed, cutoffs, logistic))
    if 1 / (k + 1) > cutoffs.severe_p:
        results["severe_unreachable"] = f"SEVERE needs p <= {cutoffs.severe_p}; {k} permutations give p >= 1/{k + 1}"
    return results


def cmd_bias(args):
    _check_probe_flags(args)
    overrides = _load_overrides(args.config)
    cutoffs = _apply_section(DEFAULT_BIAS_CUTOFFS, "bias_cutoffs", overrides)
    logistic = _apply_section(DEFAULT_LOGISTIC, "logistic", overrides)
    dataset = read_tabular(args.input, args.availability_column, impute=args.impute)
    results = _bias_probe(args, dataset.rows, dataset.target, cutoffs, logistic)
    results["note"] = (
        "severity cutoffs are heuristic conventions; a separable availability "
        "flag means metrics on labeled rows will not transfer to serving traffic"
    )
    decisions = {
        "cutoffs": asdict(cutoffs),
        "folds": args.folds,
        "permutations": args.permutations,
        "seed": args.seed,
        "logistic": asdict(logistic),
    }
    code = EXIT_STRICT if args.strict and results["severity"] is not BiasSeverity.NONE else EXIT_OK
    return {"input": args.input}, results, decisions, code


def _split_availability(dataset, availability_column: str):
    if availability_column not in dataset.feature_names:
        raise InputError(f"availability column {availability_column!r} not found")
    idx = dataset.feature_names.index(availability_column)
    flags = dataset.rows[:, idx]
    if not np.isin(flags, (0.0, 1.0)).all():
        raise InputError(f"availability column {availability_column!r} must be binary")
    features = np.delete(dataset.rows, idx, axis=1)
    names = tuple(n for n in dataset.feature_names if n != availability_column)
    return dataset_from_arrays(names, features, dataset.target), flags.astype(np.int8)


def cmd_setup(args):
    _check_probe_flags(args)  # checked even when the probe does not run
    overrides = _load_overrides(args.config)
    cutoffs = _apply_section(DEFAULT_BIAS_CUTOFFS, "bias_cutoffs", overrides)
    logistic = _apply_section(DEFAULT_LOGISTIC, "logistic", overrides)
    dataset = read_tabular(args.input, args.target, impute=args.impute)
    flags = None
    if args.availability_column:
        dataset, flags = _split_availability(dataset, args.availability_column)
        check_probe_settings(args.permutations, len(flags))  # before the learnability folds run
    balance = class_balance(dataset.target)
    learnability = learnability_gap(dataset, folds=args.folds, seed=args.seed, logistic=logistic)
    results = {"balance": asdict(balance), "learnability": asdict(learnability), "bias": None}
    if flags is not None:
        results["bias"] = _bias_probe(args, dataset.rows, flags, cutoffs, logistic)
    decisions = {
        "folds": args.folds,
        "seed": args.seed,
        "logistic": asdict(logistic),
        "cutoffs": asdict(cutoffs),
    }
    return {"input": args.input}, results, decisions, EXIT_OK


def cmd_disagree(args):
    pairs = read_paired(args.input)
    report = disagreement(pairs, threshold=args.threshold)
    results = asdict(report)
    if report.rate == 0.0:
        results["note"] = "no testable difference: the models agree on every pair"
    return {"input": args.input}, results, {"threshold": args.threshold}, EXIT_OK


def cmd_power(args):
    report = required_sample_size(
        args.p_control,
        args.mde,
        alpha=args.alpha,
        power=args.power,
        disagreement_rate=args.disagreement,
    )
    decisions = {"alpha": args.alpha, "power": args.power}
    return {}, asdict(report), decisions, EXIT_OK


def _parse_grid(raw: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in raw.split(":"))
    except ValueError as exc:
        raise InputError(f"grid must be lo:hi:step, got {raw!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise InputError(f"grid must be finite and ascend with positive step, got {raw!r}")
    if lo < 0 or hi > 1:
        raise PreconditionError(f"grid must lie in [0, 1], got {raw!r}")
    out = []
    v = lo
    while v <= hi + 1e-9:
        if len(out) == MAX_GRID_POINTS:  # also ends a step too small to move v
            raise PreconditionError(f"grid has more than {MAX_GRID_POINTS} points, got {raw!r}")
        out.append(round(v, 12))
        v += step
    return out


def cmd_curve(args):
    grid = _parse_grid(args.grid)
    series = impacted_traffic_curve(args.baseline, grid)
    if args.svg:
        Path(args.svg).write_text(curve_chart(series), encoding="utf-8")
    results = {
        "baseline_accuracy": args.baseline,
        "series": [{"accuracy": a, "upper_bound": b} for a, b in series],
        "alleviating_factors": [
            "larger output spaces raise the chance of disagreement",
            "finer-grained observation spaces (e.g. per-search predictions) do too",
            "models reused across many tasks make each disputed prediction count more",
        ],
    }
    return {}, results, {"grid": args.grid}, EXIT_OK


def _parse_allocation(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise InputError(f"allocation must be three comma-separated proportions, got {raw!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"allocation proportions must be numeric: {raw!r}") from exc
    return values


def cmd_blocked_simulate(args):
    design = BlockedDesign(_parse_allocation(args.allocation)) if args.allocation else BlockedDesign()
    config = BlockedSimConfig(
        n_users=args.n_users,
        base_cvr=args.base_cvr,
        latency_penalty=args.latency_penalty,
        feature_effect=args.feature_effect,
        design=design,
        seed=args.seed,
    )
    outcomes = simulate_blocked(config)
    if args.outcomes:
        write_blocked_csv(outcomes, args.outcomes)
    users, conversions = outcomes.counts()
    names = [variant.value for variant in Variant]
    results = {
        "n_users": len(outcomes),
        "users": dict(zip(names, users)),
        "conversions": dict(zip(names, conversions)),
        "empirical_rates": {v: (c / n if n else None) for v, c, n in zip(names, conversions, users)},
        "outcomes_csv": args.outcomes,
    }
    decisions = {
        "base_cvr": args.base_cvr,
        "latency_penalty": args.latency_penalty,
        "feature_effect": args.feature_effect,
        "allocation": list(design.allocation),
        "seed": args.seed,
    }
    return {}, results, decisions, EXIT_OK


def cmd_blocked_analyze(args):
    outcomes = read_blocked_csv(args.input)
    analysis = analyze_blocked(outcomes, alpha=args.alpha)
    return {"input": args.input}, asdict(analysis), {"alpha": args.alpha}, EXIT_OK


def _parse_override(raw: str) -> OverrideRule:
    # forms: model=<id>:score=<v>  |  entity=<id>:score=<v>  |  model=<id>:entity=<id>:score=<v>
    parts = dict()
    for piece in raw.split(":"):
        if "=" not in piece:
            raise InputError(f"override piece {piece!r} must be key=value")
        key, _, value = piece.partition("=")
        parts[key.strip()] = value.strip()
    unknown = set(parts) - {"model", "entity", "score"}
    if unknown or "score" not in parts:
        raise InputError(f"override {raw!r} must use model=/entity=/score= with score required")
    try:
        score = float(parts["score"])
    except ValueError as exc:
        raise InputError(f"override score must be numeric: {raw!r}") from exc
    try:
        return OverrideRule(score, model_id=parts.get("model"), entity_id=parts.get("entity"))
    except PreconditionError as exc:
        raise InputError(str(exc)) from exc


def _emit_alert(alert) -> None:
    # the fields as asdict gives them, without its deep copy of detail
    line = {"detail": alert.detail, "kind": alert.kind.value, "model_id": alert.model_id, "window_index": alert.window_index}
    sys.stdout.write(json.dumps(line, sort_keys=True, default=_json_default) + "\n")
    sys.stdout.flush()


def cmd_watch(args):
    overrides = _load_overrides(args.config)
    dconf = _diagnosis_config(args, overrides)
    mconf = MonitorConfig(window_size=args.window, tv_threshold=args.tv_threshold, diagnosis=dconf)
    mconf = _apply_section(mconf, "monitor", overrides)
    rules = [_parse_override(rule) for rule in args.override or []]
    summary = watch(
        args.input,
        mconf,
        _emit_alert,
        reference=args.reference,
        rules=rules,
        follow=not args.once,
        poll_interval=args.poll_interval,
    )
    results = asdict(summary)
    if not summary.skipped_references:
        del results["skipped_references"]
    decisions = {
        "window_size": mconf.window_size,
        "tv_threshold": mconf.tv_threshold,
        "diagnosis": asdict(mconf.diagnosis),
    }
    code = EXIT_STRICT if args.strict and summary.alert_count else EXIT_OK
    inputs = {"input": args.input}
    if args.reference:
        inputs["reference"] = args.reference
    return inputs, results, decisions, code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorescope",
        description="Label-free scoring-model diagnostics and experiment design toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"scorescope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", default=None, help="write the JSON report here instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized step")

    # only the commands whose handlers read them take these two
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON file overriding threshold defaults")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="exit 3 when a finding fires")

    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--impute", action="store_true", help="mean-impute missing feature cells")
    probe.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    probe.add_argument("--permutations", type=int, default=200, help="label-shuffled refits of the bias probe")
    probe.add_argument("--workers", type=int, default=1, help="ignored; must be >= 1 (fits run on one thread)")

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("rdc", parents=[common, config, strict], formatter_class=fmt,
                       help="chart and diagnose a score log")
    p.add_argument("--input", "-i", required=True, help="line-delimited score log")
    p.add_argument("--model", default=None, help="restrict to one model id")
    p.add_argument("--per-class", action="store_true", help="one-vs-rest chart per class label")
    p.add_argument("--rescale", action="store_true", help="min-max rescale out-of-range scores")
    p.add_argument("--bins", type=int, default=100, help="histogram bins")
    p.add_argument("--svg", default=None, help="write an SVG chart here")
    p.set_defaults(handler=cmd_rdc)

    p = sub.add_parser("bias", parents=[common, config, strict, probe], formatter_class=fmt,
                       help="selection-bias severity probe")
    p.add_argument("--input", "-i", required=True, help="tabular CSV")
    p.add_argument("--availability-column", required=True, help="binary column: 1 when a label can be computed")
    p.set_defaults(handler=cmd_bias)

    p = sub.add_parser("setup", parents=[common, config, probe], formatter_class=fmt,
                       help="score a problem construction")
    p.add_argument("--input", "-i", required=True, help="tabular CSV")
    p.add_argument("--target", required=True, help="binary target column")
    p.add_argument("--availability-column", default=None, help="also run the bias probe on this flag column")
    p.set_defaults(handler=cmd_setup)

    p = sub.add_parser("disagree", parents=[common], formatter_class=fmt, help="disagreement rate of paired predictions")
    p.add_argument("--input", "-i", required=True, help="paired-prediction CSV")
    p.add_argument("--threshold", type=float, default=0.5, help="binarization threshold for score inputs")
    p.set_defaults(handler=cmd_disagree)

    p = sub.add_parser("power", parents=[common], formatter_class=fmt, help="sample size diluted by disagreement")
    p.add_argument("--p-control", type=float, required=True, help="control conversion rate")
    p.add_argument("--mde", type=float, required=True, help="minimum detectable effect (absolute)")
    p.add_argument("--alpha", type=float, default=0.05, help="two-sided significance level")
    p.add_argument("--power", type=float, default=0.8, help="target power")
    p.add_argument("--disagreement", type=float, default=1.0, help="fraction of traffic the models dispute")
    p.set_defaults(handler=cmd_power)

    p = sub.add_parser("curve", parents=[common], formatter_class=fmt, help="impacted-traffic upper bound curve")
    p.add_argument("--baseline", type=float, required=True, help="baseline model accuracy")
    p.add_argument("--grid", required=True, help="challenger accuracies as lo:hi:step")
    p.add_argument("--svg", default=None, help="write an SVG chart here")
    p.set_defaults(handler=cmd_curve)

    blocked = sub.add_parser("blocked", help="3-variant blocked experiment")
    blocked_sub = blocked.add_subparsers(dest="subcommand", required=True)

    p = blocked_sub.add_parser("simulate", parents=[common], formatter_class=fmt, help="simulate outcomes")
    p.add_argument("--n-users", type=int, required=True, help="users to draw")
    p.add_argument("--base-cvr", type=float, required=True, help="base conversion rate")
    p.add_argument("--latency-penalty", type=float, default=0.0, help="additive rate delta on v1 and v2")
    p.add_argument("--feature-effect", type=float, default=0.0, help="additive rate delta on v2 only")
    p.add_argument("--allocation", default=None, help="base,v1,v2 proportions (default equal thirds)")
    p.add_argument("--outcomes", default=None, help="write the outcome CSV here")
    p.set_defaults(handler=cmd_blocked_simulate)

    p = blocked_sub.add_parser("analyze", parents=[common], formatter_class=fmt, help="analyze an outcome CSV")
    p.add_argument("--input", "-i", required=True, help="outcomes CSV (variant,converted)")
    p.add_argument("--alpha", type=float, default=0.05, help="CI significance level")
    p.set_defaults(handler=cmd_blocked_analyze)

    p = sub.add_parser("watch", parents=[common, config, strict], formatter_class=fmt,
                       help="tail a score log and alert")
    p.add_argument("--input", "-i", required=True, help="score log to tail")
    p.add_argument("--reference", default=None, help="score log providing per-model reference charts")
    p.add_argument("--window", type=int, default=1000, help="records per tumbling window")
    p.add_argument("--bins", type=int, default=100, help="histogram bins")
    p.add_argument("--tv-threshold", type=float, default=0.15, help="total variation drift threshold")
    p.add_argument("--poll-interval", type=float, default=1.0, help="seconds between polls for new lines")
    p.add_argument("--once", action="store_true", help="process current contents and exit")
    p.add_argument(
        "--override",
        action="append",
        metavar="RULE",
        help="force scores, e.g. model=m1:score=0.99 or entity=e7:score=0.5 (first match wins)",
    )
    p.set_defaults(handler=cmd_watch)

    return parser


def _check_output_dirs(args) -> None:
    """Refuse a report, chart or outcome file in a missing directory, or a report, outcome or curve chart
    file that is a directory, before the handler runs, as writing it would."""
    for value in (args.output, getattr(args, "svg", None), getattr(args, "outcomes", None)):
        if value and not Path(value).parent.is_dir():
            Path(value).touch()  # cannot create it, so it raises the error the write would give
    # rdc --svg may name a stem for per-model files, so cmd_rdc checks its own
    for value in (args.output, getattr(args, "outcomes", None), args.svg if args.command == "curve" else None):
        if value and Path(value).is_dir():  # touch() would not raise here
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(Path(value)))


# the characters str.splitlines breaks at, escaped so that an error echoing input text stays one line
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command if not hasattr(args, "subcommand") else f"{args.command} {args.subcommand}"
    try:
        if args.seed < 0:  # numpy seeds only non-negative integers
            raise PreconditionError(f"seed must be >= 0, got {args.seed}")
        _check_output_dirs(args)
        inputs, results, decisions, code = args.handler(args)
        _emit(_envelope(command, inputs, results, decisions), args.output)
        return code
    except InputError as exc:
        message, code = str(exc), EXIT_INPUT
    except PreconditionError as exc:
        message, code = str(exc), EXIT_PRECONDITION
    except OSError as exc:  # every read raises InputError, so this is a report, chart or outcome file
        message, code = f"cannot write output: {exc}", EXIT_INPUT
    except MemoryError as exc:  # a flag such as --permutations or --bins sized an allocation past free memory
        message, code = f"out of memory: {exc or 'lower --permutations, --bins or the input size'}", EXIT_PRECONDITION
    print(f"error: {message}".translate(_LINE_BREAKS), file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
