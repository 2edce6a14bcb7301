"""Span tracing around calls into scorescope's modules, from outside them.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``scorescope`` module namespace that holds it (the defining
module and each module that imported it by name), and each traced method on
its class; ``uninstall`` puts the originals back. The program's own code is
untouched.

Every call adds to a per-function count, total time and self time (total
minus the time of traced calls nested inside it). Calls that happen once per
record or per window keep only those sums; all other calls also keep a span
(name, start, end, parent span, op), held in memory until ``write_spans``.
Wrapped functions must run on one thread: the nesting stack is shared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# layer -> traced functions, as "<attribute>" or "<Class>.<method>"
TRACED = {
    "ingest": ("read_score_log", "parse_score_line", "read_tabular", "read_paired"),
    "rdc": ("build_rdc", "diagnose", "one_vs_rest"),
    "monitor": ("WindowedMonitor.feed", "WindowedMonitor.finish", "check_drift", "apply_overrides"),
    "construction": ("bias_severity", "learnability_gap", "class_balance"),
    "experiments": ("disagreement", "required_sample_size", "impacted_traffic_curve"),
    "blocked": ("simulate_blocked", "write_blocked_csv", "read_blocked_csv", "analyze_blocked"),
    "charts": ("rdc_chart", "curve_chart"),
}
LAYERS = ("cli", *TRACED)
OP_SPAN = "cli.main"

# called once per record or per window: aggregated, no span kept
AGGREGATE_ONLY = frozenset(
    {
        "ingest.parse_score_line",
        "rdc.build_rdc",
        "rdc.diagnose",
        "monitor.WindowedMonitor.feed",
        "monitor.check_drift",
        "monitor.apply_overrides",
    }
)


def _refits(report) -> int:
    # bias_severity: one logistic fit per fold for the observed flags and each permutation
    return report.folds * (report.permutations + 1)


# counters read from a traced function's result, at the layer boundary; score
# logs need none, since every line passes through parse_score_line once
RESULT_COUNTERS = {
    "ingest.read_tabular": lambda data: {"ingest.csv_rows": data.n},
    "ingest.read_paired": lambda pairs: {"ingest.csv_rows": len(pairs)},
    "blocked.read_blocked_csv": lambda outcomes: {"ingest.csv_rows": len(outcomes)},
    "construction.bias_severity": lambda report: {"construction.refits": _refits(report)},
    "construction.learnability_gap": lambda report: {"construction.refits": report.folds - len(report.skipped_folds)},
}


class Stat:
    __slots__ = ("calls", "errors", "total", "self")

    def __init__(self) -> None:
        self.calls = self.errors = 0
        self.total = self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, own or nearest kept span id, parent span id]
        self._patched: list[tuple[object, str, object]] = []
        self._op = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, keep: bool) -> list:
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, len(self.spans) if keep else parent, parent]
        if keep:
            self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float, failed: bool) -> None:
        self._stack.pop()
        elapsed = end - start
        stat = self.stats.setdefault(name, Stat())
        stat.calls += 1
        stat.errors += failed
        stat.total += elapsed
        stat.self += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if name not in AGGREGATE_ONLY:
            self.spans[frame[1]] = (frame[1], frame[2], name, start, end, self._op)

    def op(self, run):
        """Run one CLI op as the root span; returns its result."""
        self._op += 1
        frame = self._enter(True)
        start = perf_counter()
        failed = True
        try:
            result = run()
            failed = False
            return result
        finally:
            self._exit(OP_SPAN, frame, start, perf_counter(), failed)

    def _wrap(self, name: str, fn):
        keep = name not in AGGREGATE_ONLY
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(keep)
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(name, frame, start, perf_counter(), failed)
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "scorescope" or n.startswith("scorescope.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"scorescope.{layer}"]
            for attr in names:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        fields = ("id", "parent", "name", "start", "end", "op")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
