"""scorescope: label-free scoring-model diagnostics and experiment design.

Five capability areas, one module each:

- ``ingest``: parse score logs, paired predictions and tabular datasets
- ``rdc``: response distribution charts, pathology heuristics, threshold bands
- ``construction``: class balance, learnability gap, selection-bias probe
- ``experiments``: disagreement analysis, impacted-traffic bound, power math
- ``blocked``: the 3-variant experiment separating compute cost from value
- ``monitor``: windowed charts over streams with drift and pathology alerts
"""

__version__ = "0.1.0"

from .blocked import (
    BlockedAnalysis,
    BlockedDesign,
    BlockedOutcomes,
    BlockedSimConfig,
    analyze_blocked,
    simulate_blocked,
)
from .construction import (
    BiasReport,
    BiasSeverity,
    LearnabilityReport,
    auc,
    bias_severity,
    class_balance,
    learnability_gap,
    train_stump,
)
from .errors import InputError, PreconditionError, ScorescopeError
from .experiments import (
    DisagreementReport,
    PairedSimConfig,
    PowerReport,
    SimOutcome,
    disagreement,
    impacted_traffic_curve,
    max_disagreement,
    required_sample_size,
    simulate_paired_experiment,
)
from .ingest import (
    PairedPredictions,
    ScoreRecord,
    TabularDataset,
    read_paired,
    read_score_log,
    read_tabular,
    write_score_log,
)
from .monitor import (
    AlertEvent,
    AlertKind,
    MonitorConfig,
    OverrideRule,
    WindowedMonitor,
    apply_overrides,
    check_drift,
    windowed_rdcs,
)
from .rdc import (
    DiagnosisConfig,
    Rdc,
    RdcDiagnosis,
    RdcPattern,
    SmoothedRdc,
    ThresholdBand,
    build_rdc,
    detect_modes,
    diagnose,
    log_view,
    one_vs_rest,
    rdc_distance,
    smooth,
)
