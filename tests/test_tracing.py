"""The benchmark's tracer (perfbench/tracer.py) still fits the program.

The tracer looks up every traced name and reads a row count from the result
of each CSV reader. A renamed function, or a reader whose result has no
``len()``, would otherwise only show up in a ``perfbench/run.py --trace 1``
run. This test loads the tracer from its file and leaves it unedited.
"""

import importlib.util
from pathlib import Path

import scorescope.blocked as blocked
import scorescope.cli as cli
import scorescope.ingest as ingest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_csv_rows_and_restores_the_program(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("entity_id,pred_a,pred_b,label\ne1,0.9,0.1,1\ne2,0.2,0.3,\n", encoding="utf-8")
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("variant,converted\nbase,1\nv1,0\n\nv2,1\n", encoding="utf-8")
    originals = (ingest.read_paired, cli.read_paired, blocked.read_blocked_csv, cli.read_blocked_csv)

    tracer = load_tracer().Tracer()
    tracer.install()  # looks up every traced name
    try:
        assert cli.read_paired is not originals[1]
        ingest.read_paired(pairs)
        blocked.read_blocked_csv(outcomes)
    finally:
        tracer.uninstall()

    assert tracer.counters == {"ingest.csv_rows": 2 + 3}
    assert tracer.stats["ingest.read_paired"].calls == 1
    assert tracer.stats["blocked.read_blocked_csv"].calls == 1
    assert (ingest.read_paired, cli.read_paired, blocked.read_blocked_csv, cli.read_blocked_csv) == originals
