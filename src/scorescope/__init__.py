"""scorescope: label-free scoring-model diagnostics and experiment design.

Six capability areas, one module each:

- ``ingest``: parse score logs, paired predictions and tabular datasets
- ``rdc``: response distribution charts, pathology heuristics, threshold bands
- ``construction``: class balance, learnability gap, selection-bias probe
- ``experiments``: disagreement analysis, impacted-traffic bound, power math
- ``blocked``: the 3-variant experiment separating compute cost from value
- ``monitor``: windowed charts over streams with drift and pathology alerts

The package binds no other name: each is imported from its module.
"""

__version__ = "0.1.0"
