"""Readers, writers and core record types for the three input file formats.

Score logs are line-delimited JSON (one prediction event per line), paired
predictions and tabular datasets are CSV with a header row. All readers are
pure functions over files: order preserving, deterministic, and safe to call
concurrently on distinct inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence, TypeVar

import numpy as np

from .errors import InputError

_T = TypeVar("_T")

# cell spellings treated as a missing value in tabular CSVs
_MISSING_TOKENS = frozenset({"", "na", "nan", "null"})

# fraction of malformed score-log lines tolerated before the whole read aborts
MALFORMED_LINE_LIMIT = 0.10

# bytes of complete lines read from a score log per batch
_BATCH_BYTES = 1 << 20
# leading bytes of a tailed log kept to notice it being rewritten in place
_HEAD_BYTES = 256

_scan = json.JSONDecoder().scan_once  # the scanner json.loads runs, at its defaults
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value

# A line in the layout write_score_log writes: json.dumps's default separators, model_id, ts and
# score, then an optional entity_id, class and label, in that order. Its strings hold no `"`, `\`
# or control character, ts has at most 18 digits and score a fraction or an exponent, so a match's
# groups (model_id, score text, entity_id, class) are what json.loads gives, float(score) included.
# Every quantifier is possessive, so a line that nearly matches fails without backtracking.
_TEXT = r'[^"\\\x00-\x1f]'
_CANONICAL = re.compile(
    r'\{"model_id": "(' + _TEXT + r'++)", "ts": (?:0|[1-9][0-9]{0,17}+), '
    r'"score": (-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][+-]?+[0-9]++)?+|[eE][+-]?+[0-9]++))'
    r'(?:, "entity_id": "(' + _TEXT + r'*+)")?+(?:, "class": "(' + _TEXT + r'*+)")?+'
    r'(?:, "label": [01])?+\}[ \t\n\r]*+'
).fullmatch


@dataclass(frozen=True)
class ScoreRecord:
    """One serving-time prediction event emitted by a scoring model."""

    model_id: str
    ts: int
    score: float
    entity_id: str | None = None
    class_label: str | None = None
    true_label: int | None = None


class ArrayFieldsEq:
    """Value ``==`` for dataclasses with ndarray fields, whose generated ``==`` raises."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class PairedPredictions(ArrayFieldsEq):
    """Entities scored by two models, as columns: the input of disagreement analysis."""

    pred_a: np.ndarray  # (n,) float64
    pred_b: np.ndarray  # (n,) float64
    labels: np.ndarray  # (n,) int8: 0, 1, or -1 where unlabeled

    def __len__(self) -> int:
        return len(self.pred_a)


@dataclass(frozen=True, eq=False)
class TabularDataset(ArrayFieldsEq):
    """Numeric feature matrix plus a binary target vector."""

    feature_names: tuple[str, ...]
    rows: np.ndarray  # (n, arity) float64
    target: np.ndarray  # (n,) int8, values in {0, 1}

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class ScoreColumns(ArrayFieldsEq):
    """Score-log records as columns, in file order: the fields some caller reads.

    Model ids and class labels are codes into tables sorted by id. A line's
    ``entity_id``, ``ts`` and ``label`` are validated but not kept.
    """

    model_ids: tuple[str, ...]
    model: np.ndarray  # (n,) int32 codes into model_ids
    score: np.ndarray  # (n,) float64
    class_ids: tuple[str, ...]
    class_code: np.ndarray  # (n,) int32 codes into class_ids, -1 where absent

    def __len__(self) -> int:
        return len(self.score)

    @classmethod
    def from_records(cls, records: Iterable[ScoreRecord]) -> ScoreColumns:
        """The records as columns, in order."""
        models, scores, _, classes = columns = [], [], [], []
        for r in records:
            _append_record(columns, r)
        return _score_columns(models, scores, classes)

    @classmethod
    def concat(cls, batches: Sequence[ScoreColumns]) -> ScoreColumns:
        """The batches' records in order, under merged code tables."""
        if not batches:
            return cls.from_records(())
        coded = {}
        for codes, table in (("model", "model_ids"), ("class_code", "class_ids")):
            ids = tuple(sorted(set().union(*(getattr(b, table) for b in batches))))
            rank = {v: i for i, v in enumerate(ids)}
            # each batch's codes through a lookup to the merged ones, whose trailing -1 keeps code -1
            lookups = [np.array([rank[v] for v in getattr(b, table)] + [-1], dtype=np.int32) for b in batches]
            coded[table] = ids
            coded[codes] = np.concatenate([lookup[getattr(b, codes)] for lookup, b in zip(lookups, batches)])
        return cls(score=np.concatenate([b.score for b in batches]), **coded)

    def take(self, rows) -> ScoreColumns:
        """The records at ``rows`` (indices or a boolean mask), under the same code tables."""
        return replace(
            self,
            model=self.model[rows],
            score=self.score[rows],
            class_code=self.class_code[rows],
        )


def _append_record(columns: tuple[list, list, list, list], r: ScoreRecord) -> None:
    """Append ``r``'s model id, score, entity id and class label to four lists."""
    for column, value in zip(columns, (r.model_id, r.score, r.entity_id, r.class_label)):
        column.append(value)


def _encode(values: Sequence) -> tuple[tuple[str, ...], np.ndarray]:
    """Codes of ``values`` into the sorted table of their distinct values; None is -1."""
    table = tuple(sorted(v for v in dict.fromkeys(values) if v is not None))
    rank = {v: i for i, v in enumerate(table)}
    rank[None] = -1
    return table, np.fromiter(map(rank.__getitem__, values), dtype=np.int32, count=len(values))


def _score_columns(models: list, scores: list, classes: list) -> ScoreColumns:
    """Columns of records given field by field, in order."""
    model_ids, model = _encode(models)
    class_ids, class_code = _encode(classes)
    return ScoreColumns(model_ids, model, np.array(scores, dtype=np.float64), class_ids, class_code)


@dataclass
class ScoreLog:
    """Parsed score log: validated records as columns plus the skipped lines."""

    columns: ScoreColumns
    skipped_lines: list[tuple[int, str]]  # (line_no, reason), in file order

    @property
    def skipped(self) -> int:
        return len(self.skipped_lines)

    def __len__(self) -> int:
        return len(self.columns)


class _MalformedLine(ValueError):
    pass


class _OutOfRange(_MalformedLine):
    pass


def _parse_optional_label(value) -> int | None:
    if value is None:
        return None
    if value in (0, 1):
        return int(value)
    raise _MalformedLine(f"label must be 0 or 1, got {value!r}")


def parse_score_line(line: str, *, allow_out_of_range: bool = False) -> ScoreRecord:
    """Parse one score-log line.

    Raises _OutOfRange when the score is a number outside [0, 1] and
    ``allow_out_of_range`` is off, and _MalformedLine for anything else
    wrong with the line.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _MalformedLine(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, nesting past the depth limit
        raise _MalformedLine(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _MalformedLine("line is not an object")
    model_id = obj.get("model_id")
    if not isinstance(model_id, str) or not model_id:
        raise _MalformedLine("missing or invalid model_id")
    ts = obj.get("ts")
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise _MalformedLine("ts must be a non-negative integer")
    score = obj.get("score")
    try:
        finite = isinstance(score, (int, float)) and not isinstance(score, bool) and math.isfinite(score)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise _MalformedLine("score must be a finite number")
    score = float(score)
    if not allow_out_of_range and not 0.0 <= score <= 1.0:
        raise _OutOfRange(f"score {score} outside [0, 1]")
    entity_id = obj.get("entity_id")
    if entity_id is not None and not isinstance(entity_id, str):
        raise _MalformedLine("entity_id must be a string")
    class_label = obj.get("class")
    if class_label is not None and not isinstance(class_label, str):
        raise _MalformedLine("class must be a string")
    label = _parse_optional_label(obj.get("label"))
    return ScoreRecord(model_id, ts, score, entity_id, class_label, label)


def read_log_lines(
    path: str | Path, *, follow: bool = False, poll_interval: float = 1.0
) -> Iterator[list[bytes]]:
    """Yield the raw lines of a score log in batches, each line split at ``\\n``.

    A batch holds about ``_BATCH_BYTES`` of complete lines, or what one poll
    finds. Without ``follow`` the file is read once to its end. With
    ``follow`` the reader never ends: it holds back an incomplete trailing
    line until the writer finishes it with a newline, and at end of file it
    sleeps ``poll_interval`` seconds before looking again. The held back line
    is dropped and reading starts again from the top of the log when, before
    a read, the first bytes read from it (up to ``_HEAD_BYTES``) have changed
    (truncated and refilled, even past the read offset), or when, at end of
    file, the file is found shorter than the read offset (truncated) or
    ``path`` names another file (rotated: renamed, and a new file created
    under the old name), as ``tail -F`` does. A file refilled with the same
    first bytes is not noticed.
    """
    try:
        while True:  # once per file found at ``path``
            with open(path, "rb") as fh:
                pending = head = b""  # head: the file's first bytes, as read
                while True:
                    if follow and os.pread(fh.fileno(), len(head), 0) != head:
                        pending = head = b""
                        fh.seek(0)
                    batch = fh.readlines(_BATCH_BYTES)
                    if batch:
                        if follow and len(head) < _HEAD_BYTES:
                            head = (head + b"".join(batch[:_HEAD_BYTES]))[:_HEAD_BYTES]
                        batch[0] = pending + batch[0]
                        pending = b"" if batch[-1].endswith(b"\n") else batch.pop()
                        if batch:
                            yield batch
                    elif not follow:
                        if pending:
                            yield [pending]
                        return
                    elif os.fstat(fh.fileno()).st_size < fh.tell():
                        pending = head = b""
                        fh.seek(0)
                    elif _rotated(path, fh):
                        break
                    else:
                        time.sleep(poll_interval)
    except OSError as exc:
        raise InputError(f"cannot read score log {path}: {exc}") from exc


def _rotated(path: str | Path, fh) -> bool:
    """Whether ``path`` now names a file other than the open ``fh``."""
    try:
        return not os.path.samestat(os.stat(path), os.fstat(fh.fileno()))
    except FileNotFoundError:  # renamed away, and no new file yet
        return False


def parse_score_lines(
    batches: Iterable[list[bytes]],
    malformed: list[tuple[int, str]],
    *,
    out_of_range: Literal["raise", "keep", "skip"] = "raise",
) -> Iterator[tuple[list[str], list[float], list[str | None], list[str | None]]]:
    """Parse batches of raw score-log lines, numbering lines from 1 across
    batches, and yield each batch's kept lines as four lists in file order:
    model ids, scores, entity ids and class labels (None where absent).

    Blank lines are passed over; a line that is not UTF-8 or fails
    validation is skipped and appends ``(line_no, reason)`` to
    ``malformed``. A score outside [0, 1] raises InputError naming the line,
    is kept, or is skipped as malformed, as ``out_of_range`` says.

    ``parse_score_line`` defines a valid line. A line is decoded as strict
    UTF-8 and read by the first of three tiers that takes it. A line in
    ``write_score_log``'s layout (``_CANONICAL``) with its score in range
    goes straight into the lists. Else json.loads's own scanner reads it,
    and a line that is one JSON object whose fields ``parse_score_line``
    takes as they are (str model_id, int ts, float score in range, str or
    absent entity and class, int 0/1 or absent label) goes into the
    lists too. Every other line goes to ``parse_score_line`` for its
    record, reason or error. The first line of a batch that the scanner
    takes turns the layout pattern off for the rest of that batch, so a
    log in another layout is not matched twice.
    """
    keep = out_of_range == "keep"
    lo, hi = (-sys.float_info.max, sys.float_info.max) if keep else (0.0, 1.0)  # NaN fails both
    line_no = 0
    for batch in batches:
        columns = models, scores, entities, classes = [], [], [], []  # one entry per kept line
        canonical = _CANONICAL  # None for the rest of the batch once a valid line in another layout is seen
        for raw in batch:
            line_no += 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                malformed.append((line_no, "invalid UTF-8"))
                continue
            match = canonical and canonical(line)
            if match:
                m, s, e, c = match.groups()
                s = float(s)
                if lo <= s <= hi:
                    models.append(m)
                    scores.append(s)
                    entities.append(e)
                    classes.append(c)
                    continue
            try:
                obj, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):  # parse_score_line says what is wrong
                obj = None
            if type(obj) is dict and not line[end:].strip(_JSON_SPACE):
                get = obj.get
                m, t, s = get("model_id"), get("ts"), get("score")
                e, c, k = get("entity_id"), get("class"), get("label")
                if (
                    type(m) is str and m
                    and type(t) is int and t >= 0
                    and type(s) is float and lo <= s <= hi
                    and (e is None or type(e) is str)
                    and (c is None or type(c) is str)
                    and (k is None or (type(k) is int and 0 <= k <= 1))
                ):
                    models.append(m)
                    scores.append(s)
                    entities.append(e)
                    classes.append(c)
                    canonical = None
                    continue
            if not line.strip():
                continue
            try:
                _append_record(columns, parse_score_line(line, allow_out_of_range=keep))
            except _MalformedLine as exc:
                if out_of_range == "raise" and isinstance(exc, _OutOfRange):
                    raise InputError(f"line {line_no}: {exc} (use rescale to min-max rescale the file)") from None
                malformed.append((line_no, str(exc)))
        yield columns


def read_score_log(path: str | Path, *, rescale: bool = False) -> ScoreLog:
    """Read a line-delimited score log into columns.

    Malformed lines, undecodable ones included, are skipped and counted. A
    single bad line is always tolerated (a writer may have been interrupted
    mid-record); beyond that, more than ``MALFORMED_LINE_LIMIT`` of the
    lines being malformed aborts the read. Scores outside [0, 1] are an
    error unless ``rescale`` is set, in which case the whole file is min-max
    rescaled onto [0, 1] after parsing.
    """
    path = Path(path)
    skipped: list[tuple[int, str]] = []
    batches = parse_score_lines(read_log_lines(path), skipped, out_of_range="keep" if rescale else "raise")
    columns = ScoreColumns.concat([_score_columns(models, scores, classes) for models, scores, _, classes in batches])
    total = len(columns) + len(skipped)
    if len(skipped) > 1 and len(skipped) / total > MALFORMED_LINE_LIMIT:
        raise InputError(
            f"{path}: {len(skipped)} of {total} lines malformed "
            f"(limit {MALFORMED_LINE_LIMIT:.0%}); first: line {skipped[0][0]}: {skipped[0][1]}"
        )
    if rescale and len(columns):
        columns = replace(columns, score=_rescaled(columns.score))
    return ScoreLog(columns, skipped)


def _rescaled(scores: np.ndarray) -> np.ndarray:
    lo, hi = float(scores.min()), float(scores.max())
    if not hi > lo:
        return np.full_like(scores, 0.5)  # constant file: midpoint
    if math.isfinite(hi - lo):
        return (scores - lo) / (hi - lo)
    return (scores / 2 - lo / 2) / (hi / 2 - lo / 2)  # hi - lo overflows: halve each term first


def write_score_log(records: Iterable[ScoreRecord], path: str | Path) -> None:
    """Write records in the same line-delimited format ``read_score_log`` accepts."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            obj: dict = {"model_id": r.model_id, "ts": r.ts, "score": r.score}
            if r.entity_id is not None:
                obj["entity_id"] = r.entity_id
            if r.class_label is not None:
                obj["class"] = r.class_label
            if r.true_label is not None:
                obj["label"] = r.true_label
            fh.write(json.dumps(obj) + "\n")


def csv_rows(path: str | Path, kind: str) -> Iterator[tuple[int, list[str]]]:
    """Lazily yield a CSV file's stripped header as ``(1, header)``, then
    ``(row_no, cells)`` for each non-blank row, numbered as in the file.

    A non-blank row must have as many cells as the header. A UTF-8
    byte-order mark at the start, as spreadsheet exports write, is dropped.
    A cell past the csv module's field limit is an InputError naming its line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file, expected a header row")
            yield 1, [h.strip() for h in header]
            for row_no, row in enumerate(reader, start=2):
                if any(cell.strip() for cell in row):
                    if len(row) != len(header):
                        raise InputError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
                    yield row_no, row
    except OSError as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {kind} {path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # a cell past the csv module's field limit
        raise InputError(f"cannot read {kind} {path}: line {reader.line_num}: {exc}") from exc


# bytes of lines per batch on a CSV fast path; small, so memory stays flat
_CSV_BATCH_BYTES = 1 << 16


def read_csv(path: str | Path, fast: Callable[[bytes, Iterator[list[bytes]]], _T], slow: Callable[[Path], _T]) -> _T:
    """Read a CSV file through ``fast`` when it can, else through ``slow(path)``.

    A regular file goes to ``fast(first, batches)``: its first line, then its
    other lines in batches of about ``_CSV_BATCH_BYTES``, as bytes. ``fast``
    takes a file whole or not at all: when it gives up (a ValueError or
    LookupError) on any line, or the file cannot be read, ``slow`` reads it
    from the start and gives every error text and row number. A pipe goes
    straight to ``slow``, as it cannot be read twice.
    """
    path = Path(path)
    if path.is_file():
        try:
            with path.open("rb") as fh:
                return fast(fh.readline(), iter(lambda: fh.readlines(_CSV_BATCH_BYTES), []))
        except (OSError, ValueError, LookupError):
            pass
    return slow(path)


_PAIRED_HEADERS = (["entity_id", "pred_a", "pred_b"], ["entity_id", "pred_a", "pred_b", "label"])
_LABEL_CODES = {"": -1, "0": 0, "1": 1}  # the code of a paired label cell; the column path reads it unstripped


def _canonical_cells(lines: list[bytes], commas: int) -> list[str]:
    """The cells of ``lines``, row after row, when each line ends in ``\\n``
    and holds ``commas`` commas, no ``"`` and no ``\\r``, and is no longer
    than the csv module's field limit; else raise ValueError.

    Such lines split at their commas into the cells ``csv.reader`` gives,
    since it ends a row only at ``\\r`` or ``\\n``.
    """
    data = b"".join(lines)
    limit = csv.field_size_limit()
    if (
        not data.endswith(b"\n")
        or b'"' in data
        or b"\r" in data
        or set(map(bytes.count, lines, repeat(b","))) != {commas}
        or (len(data) > limit and max(map(len, lines)) > limit)
    ):
        raise ValueError("not a canonical CSV batch")
    return data[:-1].replace(b"\n", b",").decode("utf-8").split(",")


def _parse_unit_score(value: str, row_no: int, column: str) -> float:
    try:
        score = float(value)
    except ValueError as exc:
        raise InputError(f"row {row_no}: column {column!r} is not numeric: {value!r}") from exc
    if not 0.0 <= score <= 1.0:
        raise InputError(f"row {row_no}: column {column!r} value {score} outside [0, 1]")
    return score


def read_paired(path: str | Path) -> PairedPredictions:
    """Read a paired-prediction CSV with header ``entity_id,pred_a,pred_b[,label]``.

    Through ``read_csv``: a canonical file (see ``_paired_columns``) is
    converted a column at a time, batch by batch, and any other file is read
    through ``csv_rows``, which gives the same arrays and every error text
    and row number.
    """
    return read_csv(path, _paired_columns, _parse_paired_csv)


def _paired_columns(first: bytes, batches: Iterator[list[bytes]]) -> PairedPredictions:
    """The fast path of ``read_paired``, all or nothing: the columns of a file
    of canonical rows, else a ValueError or KeyError.

    A file whose header and lines all pass ``_canonical_cells`` splits at its
    commas into the rows ``csv_rows`` yields. A row is canonical when its id
    is not blank (so a whitespace-only row is not), ``float`` reads each score
    into [0, 1] and its unstripped label cell is in ``_LABEL_CODES``.
    """
    header = [cell.strip() for cell in _canonical_cells([first], first.count(b","))]
    if header not in _PAIRED_HEADERS:  # a byte-order mark or an empty line fails here too
        raise ValueError("not a paired CSV header")
    width = len(header)
    # grown in place and wrapped without a copy: no batch arrays left behind in the heap
    pred_a, pred_b, labels = array("d"), array("d"), array("b")
    for lines in batches:
        cells = _canonical_cells(lines, width - 1)
        ids, a, b, *label = [cells[j::width] for j in range(width)]
        if not all(map(str.strip, ids)):
            raise ValueError("a blank entity_id")
        labels.extend(map(_LABEL_CODES.__getitem__, label[0]) if label else repeat(-1, len(ids)))
        for column, scores in ((a, pred_a), (b, pred_b)):
            values = np.fromiter(map(float, column), dtype=np.float64, count=len(column))
            if not ((values >= 0.0) & (values <= 1.0)).all():  # NaN fails too
                raise ValueError("a score outside [0, 1]")
            scores.frombytes(values.tobytes())
    return PairedPredictions(np.frombuffer(pred_a), np.frombuffer(pred_b), np.frombuffer(labels, dtype=np.int8))


def _parse_paired_csv(path: Path) -> PairedPredictions:
    """``read_paired`` through ``csv_rows``: any valid CSV, and every error with its row number."""
    rows = csv_rows(path, "paired CSV")
    _, header = next(rows)
    if header not in _PAIRED_HEADERS:
        raise InputError(
            f"{path}: header must be entity_id,pred_a,pred_b[,label], got {','.join(header)}"
        )
    has_label = len(header) == 4
    pred_a, pred_b, labels = array("d"), array("d"), array("b")
    for row_no, row in rows:
        if not row[0].strip():
            raise InputError(f"row {row_no}: empty entity_id")
        pred_a.append(_parse_unit_score(row[1].strip(), row_no, "pred_a"))
        pred_b.append(_parse_unit_score(row[2].strip(), row_no, "pred_b"))
        cell = row[3].strip() if has_label else ""
        if cell not in _LABEL_CODES:
            raise InputError(f"row {row_no}: label must be 0 or 1, got {cell!r}")
        labels.append(_LABEL_CODES[cell])
    return PairedPredictions(np.frombuffer(pred_a), np.frombuffer(pred_b), np.frombuffer(labels, dtype=np.int8))


def read_tabular(path: str | Path, target_column: str, *, impute: bool = False) -> TabularDataset:
    """Read a feature CSV; features are all non-target columns in header order.

    The target column must be binary {0, 1} with no missing values. Missing
    feature cells are an error unless ``impute`` is set, in which case they
    are replaced by the column mean of the observed values.
    """
    path = Path(path)
    rows = csv_rows(path, "tabular CSV")
    _, header = next(rows)
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:  # else a column named twice is read as whichever copy a caller finds first
        raise InputError(f"{path}: column {repeated[0]!r} appears more than once in the header")
    if target_column not in header:
        raise InputError(f"{path}: target column {target_column!r} not in header {header}")
    target_idx = header.index(target_column)
    feature_names = tuple(name for i, name in enumerate(header) if i != target_idx)

    values = array("d")  # row-major feature cells, NaN where missing
    labels = array("b")
    for row_no, row in rows:
        cell = row[target_idx].strip()
        if cell not in ("0", "1"):
            raise InputError(f"row {row_no}: target {target_column!r} must be 0 or 1, got {cell!r}")
        labels.append(int(cell))
        j = 0
        for k, raw in enumerate(row):
            if k == target_idx:
                continue
            cell = raw.strip()
            if cell.lower() in _MISSING_TOKENS:
                if not impute:
                    raise InputError(
                        f"row {row_no}: missing value in column {feature_names[j]!r} (use impute to mean-fill)"
                    )
                values.append(math.nan)
            else:
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise InputError(
                        f"row {row_no}: column {feature_names[j]!r} is not numeric: {cell!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise InputError(f"row {row_no}: non-finite value in column {feature_names[j]!r}")
                values.append(value)
            j += 1

    n = len(labels)
    features = np.array(values, dtype=np.float64).reshape(n, len(feature_names))
    if impute and n > 0:
        for j in range(features.shape[1]):
            col = features[:, j]
            mask = np.isnan(col)
            if mask.all():
                raise InputError(f"column {feature_names[j]!r} has no observed values to impute from")
            if mask.any():
                with np.errstate(over="ignore"):  # an overflowing mean is refused just below
                    col[mask] = col[~mask].mean()
                if not np.isfinite(col).all():
                    raise InputError(f"column {feature_names[j]!r}: mean of observed values is not finite")
    return TabularDataset(feature_names, features, np.array(labels, dtype=np.int8))


def dataset_from_arrays(feature_names: Sequence[str], rows, target) -> TabularDataset:
    """Build a validated TabularDataset from in-memory arrays."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise InputError("rows must be a 2-d matrix")
    target = np.asarray(target)
    if target.shape != (rows.shape[0],):
        raise InputError("target length must match row count")
    if not np.isin(target, (0, 1)).all():
        raise InputError("target must be binary {0, 1}")
    if rows.size and not np.isfinite(rows).all():
        raise InputError("features must be finite")
    if len(feature_names) != rows.shape[1]:
        raise InputError("feature_names arity mismatch")
    return TabularDataset(tuple(feature_names), rows, target.astype(np.int8))
