"""Measurement process for one workload: closed-loop passes over its CLI ops.

``run.py`` starts this file in a fresh interpreter for every run, so the
peak resident set is the workload's own and no earlier workload warms or
fragments the process. One pass runs each op through ``scorescope.cli.main``
after the previous one returned, times it, and checks its report. Passes
repeat until the time budget is spent; with tracing on, untraced and traced
passes alternate so the tracing overhead can be measured.

    python3 perfbench/worker.py --workload NAME --work DIR --seed N --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import operations  # noqa: E402


def _run_op(cli, op, tracer: Tracer | None, state: dict) -> dict:
    for path in (op.output, *op.produces):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = tracer.op(lambda: cli.main(op.argv)) if tracer else cli.main(op.argv)
        except Exception:  # a crashing op fails alone; the run goes on
            traceback.print_exc()
            code = "uncaught exception"
        seconds = perf_counter() - start
    entry = {"group": op.group, "seconds": seconds, "problems": []}
    if code != 0:
        entry["problems"] = [f"exit code {code}: {stderr.getvalue().strip()[-300:]}"]
        return entry
    try:
        report = json.loads(op.output.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        entry["problems"] = [f"no report: {exc}"]
        return entry
    try:
        entry["problems"] = op.check(report, stdout.getvalue(), state)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        entry["problems"] = [f"report lacks an expected field: {exc!r}"]
    if report.get("command") == "watch":
        results = report["results"]
        entry["monitor"] = {
            "windows": results["windows"],
            "alerts": results["alert_count"],
            "dropped_records": sum(results["dropped"].values()),
        }
    return entry


def _run_pass(cli, ops, tracer: Tracer | None) -> dict:
    state: dict = {}  # values handed between the ops of one pass
    return {"traced": tracer is not None, "ops": [_run_op(cli, op, tracer, state) for op in ops]}


def measure(workload: str, work: Path, seed: int, expect: dict, seconds: float, trace: bool) -> dict:
    """Run passes within ``seconds``: at least one (with ``trace``, one pair),
    and no further one once the last pass's duration would overrun."""
    import scorescope.cli as cli

    ops = operations(workload, work, seed, expect)
    tracer = Tracer() if trace else None
    passes = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        passes.append(_run_pass(cli, ops, None))
        if tracer is not None:
            tracer.install()
            try:
                passes.append(_run_pass(cli, ops, tracer))
            finally:
                tracer.uninstall()
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    result = {"passes": passes, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.write_spans(work / "spans.jsonl")
        result["trace"] = {
            "stats": {name: [s.calls, s.errors, s.total, s.self] for name, s in tracer.stats.items()},
            "counters": tracer.counters,
            "spans": len(tracer.spans),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    expect = json.loads((args.work / "expect.json").read_text(encoding="utf-8"))
    result = measure(args.workload, args.work, args.seed, expect, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
