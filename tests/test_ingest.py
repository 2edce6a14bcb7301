"""Parsing, validation and round-trip behavior of the input readers."""

import json
import re
import tempfile
import threading
import time
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorescope import ingest
from scorescope.blocked import read_blocked_csv
from scorescope.errors import InputError
from scorescope.ingest import (
    MALFORMED_LINE_LIMIT,
    ScoreColumns,
    ScoreRecord,
    _MalformedLine,
    _OutOfRange,
    parse_score_line,
    read_log_lines,
    read_paired,
    read_score_log,
    read_tabular,
    write_score_log,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestScoreLog:
    def test_single_line(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", ['{"model_id":"m1","ts":0,"score":0.7}'])
        log = read_score_log(path)
        assert log.records == [ScoreRecord("m1", 0, 0.7)]
        assert log.skipped == 0

    def test_optional_fields(self, tmp_path):
        line = '{"model_id":"m1","ts":5,"score":0.2,"entity_id":"e9","class":"cat","label":1}'
        log = read_score_log(write_lines(tmp_path / "log.jsonl", [line]))
        assert log.records == [ScoreRecord("m1", 5, 0.2, "e9", "cat", 1)]

    def test_out_of_range_score_names_line(self, tmp_path):
        lines = ['{"model_id":"m1","ts":0,"score":0.5}', '{"model_id":"m1","ts":1,"score":1.3}']
        with pytest.raises(InputError, match="line 2"):
            read_score_log(write_lines(tmp_path / "log.jsonl", lines))

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        lines = [
            '{"model_id":"m1","ts":0,"score":0.5}',
            "not json at all {{{",
            '{"model_id":"m1","ts":2,"score":0.6}',
        ]
        # ...three lines but only one malformed: under the skip budget
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines))
        assert len(log.records) == 2
        assert log.skipped == 1
        assert log.skipped_lines[0][0] == 2

    def test_too_many_malformed_aborts(self, tmp_path):
        lines = ['{"model_id":"m1","ts":0,"score":0.5}'] * 8 + ["junk"] * 2
        with pytest.raises(InputError, match="malformed"):
            read_score_log(write_lines(tmp_path / "log.jsonl", lines))

    def test_negative_ts_is_malformed(self, tmp_path):
        lines = ['{"model_id":"m1","ts":-1,"score":0.5}'] + [
            '{"model_id":"m1","ts":%d,"score":0.5}' % i for i in range(20)
        ]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines))
        assert log.skipped == 1

    def test_rescale_min_max(self, tmp_path):
        lines = [
            '{"model_id":"m1","ts":0,"score":-1.0}',
            '{"model_id":"m1","ts":1,"score":0.0}',
            '{"model_id":"m1","ts":2,"score":3.0}',
        ]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines), rescale=True)
        assert [r.score for r in log.records] == [0.0, 0.25, 1.0]
        assert log.rescaled

    def test_rescale_constant_file_maps_to_midpoint(self, tmp_path):
        lines = ['{"model_id":"m1","ts":%d,"score":7.5}' % i for i in range(3)]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines), rescale=True)
        assert [r.score for r in log.records] == [0.5, 0.5, 0.5]

    def test_round_trip_identity(self, tmp_path):
        records = [
            ScoreRecord("m1", 0, 0.123456789012345, "e1", "a", 1),
            ScoreRecord("m2", 1, 1.0),
            ScoreRecord("m1", 2, 0.0, None, None, 0),
        ]
        path = tmp_path / "log.jsonl"
        write_score_log(records, path)
        assert read_score_log(path).records == records

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_score_log(tmp_path / "absent.jsonl")

    def test_invalid_utf8_line_is_malformed(self, tmp_path):
        good = b'{"model_id":"m1","ts":0,"score":0.5}\n'
        path = tmp_path / "log.jsonl"
        path.write_bytes(good * 5 + b'{"model_id":"m\xff","ts":1,"score":0.5}\n' + good * 5)
        log = read_score_log(path)
        assert len(log.records) == 10
        assert log.skipped_lines == [(6, "invalid UTF-8")]


    def test_huge_integer_score_is_skipped(self, tmp_path):
        good = [f'{{"model_id":"m1","ts":{i},"score":0.5}}' for i in range(20)]
        path = write_lines(tmp_path / "log.jsonl", good + ['{"model_id":"m1","ts":20,"score":1' + "0" * 400 + "}"])
        log = read_score_log(path)
        assert len(log) == 20
        assert log.skipped_lines == [(21, "score must be a finite number")]

    def test_undecodable_json_is_skipped_not_raised(self, tmp_path):
        good = [f'{{"model_id":"m1","ts":{i},"score":0.5}}' for i in range(20)]
        digits = '{"model_id":"m1","ts":0,"score":1' + "0" * 5000 + "}"  # past the int digit limit
        path = write_lines(tmp_path / "log.jsonl", good + [digits, "[" * 100_000])
        log = read_score_log(path)
        assert [line_no for line_no, _ in log.skipped_lines] == [21, 22]
        assert all(reason.startswith("invalid JSON: ") for _, reason in log.skipped_lines)

    def test_timestamp_past_int64_still_reads(self, tmp_path):
        lines = ['{"model_id":"m1","ts":%d,"score":0.5}' % ts for ts in (0, 2**63, 10**30)]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines))
        assert [r.ts for r in log.records] == [0, 2**63, 10**30]
        assert log.columns.ts.dtype == object

    def test_columns_and_cached_record_view(self, tmp_path):
        lines = [
            '{"model_id":"m2","ts":0,"score":0.25,"class":"b","label":1}',
            '{"model_id":"m1","ts":1,"score":0.5,"entity_id":"e1"}',
            '{"model_id":"m2","ts":2,"score":0.75,"class":"a","label":0}',
        ]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines))
        columns = log.columns
        assert (columns.model_ids, columns.model.tolist()) == (("m1", "m2"), [1, 0, 1])
        assert (columns.class_ids, columns.class_code.tolist()) == (("a", "b"), [1, -1, 0])
        assert columns.model.dtype == columns.class_code.dtype == np.int32
        assert columns.ts.dtype == np.int64 and columns.score.dtype == np.float64
        assert columns.entity_id.tolist() == [None, "e1", None] and columns.label.tolist() == [1, -1, 0]
        assert log.records is log.records
        assert log.records[0] == ScoreRecord("m2", 0, 0.25, None, "b", 1)
        assert ScoreColumns.from_records(log.records) == columns

    def test_batches_merge_code_tables(self, tmp_path):
        lines = ['{"model_id":"m%d","ts":%d,"score":0.5,"class":"c%d"}' % (9 - i % 4, i, i % 3) for i in range(40)]
        path = write_lines(tmp_path / "log.jsonl", lines)
        with mock.patch.object(ingest, "_BATCH_BYTES", 100):  # a few lines per batch
            log = read_score_log(path)
        assert log.columns.model_ids == ("m6", "m7", "m8", "m9")
        assert ScoreColumns.from_records(log.records) == log.columns
        assert [r.model_id for r in log.records] == [f"m{9 - i % 4}" for i in range(40)]

    def test_take_keeps_the_code_tables(self, tmp_path):
        lines = ['{"model_id":"m%d","ts":%d,"score":0.5}' % (i % 2, i) for i in range(6)]
        columns = read_score_log(write_lines(tmp_path / "log.jsonl", lines)).columns
        picked = columns.take(columns.model == 1)
        assert picked.model_ids == ("m0", "m1") and picked.ts.tolist() == [1, 3, 5]


class TestArrayDataclassEquality:
    def test_readers_compare_by_value(self, tmp_path):
        table = write_lines(tmp_path / "t.csv", ["a,y", "1.5,1", "2.5,0"])
        assert read_tabular(table, "y") == read_tabular(table, "y")
        assert read_tabular(table, "y") != read_tabular(write_lines(tmp_path / "u.csv", ["a,y", "1.5,1"]), "y")
        pairs = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b,label", "e1,0.9,0.1,1", "e2,0.2,0.3,"])
        assert read_paired(pairs) == read_paired(pairs)
        other = read_paired(pairs)
        other.pred_b[0] = 0.5
        assert read_paired(pairs) != other
        log = write_lines(tmp_path / "log.jsonl", ['{"model_id":"m1","ts":0,"score":0.7}'])
        assert read_score_log(log).columns == read_score_log(log).columns
        assert read_score_log(log) == read_score_log(log)

    def test_different_types_are_unequal(self, tmp_path):
        table = write_lines(tmp_path / "t.csv", ["a,y", "1.5,1"])
        assert read_tabular(table, "y") != "not a dataset"


class TestFollow:
    def test_incomplete_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"first\nsec")
        batches = read_log_lines(path, follow=True, poll_interval=0.01)
        lines = chain.from_iterable(batches)
        assert next(lines) == b"first\n"

        def finish_line():
            time.sleep(0.2)
            with path.open("ab") as fh:
                fh.write(b"ond\n")

        writer = threading.Thread(target=finish_line)
        writer.start()
        assert next(lines) == b"second\n"
        writer.join(timeout=5)
        assert not writer.is_alive()
        batches.close()

    def test_truncated_log_is_reread_from_the_top(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"old 1\nold 2\nhalf")
        batches = read_log_lines(path, follow=True, poll_interval=0.01)
        lines = chain.from_iterable(batches)
        assert [next(lines), next(lines)] == [b"old 1\n", b"old 2\n"]

        def truncate_then_append():
            time.sleep(0.2)
            with path.open("r+b") as fh:
                fh.truncate(0)
            with path.open("ab") as fh:
                fh.write(b"new 1\nnew 2\n")  # shorter than the old read offset

        got = []
        # the reader runs in its own thread so that a reader stuck past the end cannot hang the test
        reader = threading.Thread(target=lambda: got.extend([next(lines), next(lines)]), daemon=True)
        writer = threading.Thread(target=truncate_then_append)
        reader.start()
        writer.start()
        writer.join(timeout=5)
        reader.join(timeout=5)
        assert not writer.is_alive() and not reader.is_alive()
        assert got == [b"new 1\n", b"new 2\n"]  # the held-back "half" is dropped
        batches.close()


    def test_rotated_log_is_followed_to_the_new_file(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"old 1\nold 2\nhalf")
        batches = read_log_lines(path, follow=True, poll_interval=0.01)
        lines = chain.from_iterable(batches)
        assert [next(lines), next(lines)] == [b"old 1\n", b"old 2\n"]

        def rotate():
            time.sleep(0.2)
            path.rename(tmp_path / "live.jsonl.1")
            path.write_bytes(b"new 1\nnew 2\n")

        got = []
        # the reader runs in its own thread so that a reader stuck on the old file cannot hang the test
        reader = threading.Thread(target=lambda: got.extend([next(lines), next(lines)]), daemon=True)
        writer = threading.Thread(target=rotate)
        reader.start()
        writer.start()
        writer.join(timeout=5)
        reader.join(timeout=5)
        assert not writer.is_alive() and not reader.is_alive()
        assert got == [b"new 1\n", b"new 2\n"]  # the held-back "half" of the old file is dropped
        batches.close()


class TestPaired:
    def test_basic_row(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b,label", "e1,0.9,0.1,1"])
        pairs = read_paired(path)
        assert pairs.entity_ids == ["e1"]
        assert pairs.pred_a.dtype == pairs.pred_b.dtype == np.float64 and pairs.labels.dtype == np.int8
        assert (pairs.pred_a.tolist(), pairs.pred_b.tolist(), pairs.labels.tolist()) == ([0.9], [0.1], [1])

    def test_header_only_is_empty(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b"])
        assert len(read_paired(path)) == 0

    def test_missing_pred_b_errors(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b", "e1,0.9"])
        with pytest.raises(InputError, match="row 2"):
            read_paired(path)

    def test_missing_required_column(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a", "e1,0.9"])
        with pytest.raises(InputError, match="header"):
            read_paired(path)

    def test_non_numeric_score(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b", "e1,high,0.2"])
        with pytest.raises(InputError, match="not numeric"):
            read_paired(path)

    def test_label_optional_per_row(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b,label", "e1,0.9,0.1,", "e2,0.2,0.3,0"])
        assert read_paired(path).labels.tolist() == [-1, 0]  # -1: unlabeled

    def test_order_preserved(self, tmp_path):
        lines = ["entity_id,pred_a,pred_b"] + [f"e{i},0.{i},0.{i}" for i in range(1, 8)]
        pairs = read_paired(write_lines(tmp_path / "p.csv", lines))
        assert pairs.entity_ids == [f"e{i}" for i in range(1, 8)]

    def test_error_names_file_row_after_blank_row(self, tmp_path):
        lines = ["entity_id,pred_a,pred_b", "e1,0.1,0.2", "", "e2,0.1,x"]
        with pytest.raises(InputError, match="^row 4: .*not numeric"):
            read_paired(write_lines(tmp_path / "p.csv", lines))


class TestTabular:
    def test_basic_parse(self, tmp_path):
        lines = ["a,b,y"] + [f"{i},{i * 2},{i % 2}" for i in range(5)]
        ds = read_tabular(write_lines(tmp_path / "t.csv", lines), "y")
        assert ds.n == 5 and ds.arity == 2
        assert ds.feature_names == ("a", "b")
        assert ds.rows[3, 1] == 6.0

    def test_target_position_free(self, tmp_path):
        lines = ["y,a,b", "1,2.0,3.0", "0,4.0,5.0"]
        ds = read_tabular(write_lines(tmp_path / "t.csv", lines), "y")
        assert ds.feature_names == ("a", "b")
        assert list(ds.target) == [1, 0]

    def test_non_binary_target(self, tmp_path):
        lines = ["a,y", "1.0,2"]
        with pytest.raises(InputError, match="must be 0 or 1"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "y")

    def test_missing_cell_without_impute(self, tmp_path):
        lines = ["a,b,y", "1.0,,1", "2.0,3.0,0"]
        with pytest.raises(InputError, match="missing value"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "y")

    def test_mean_impute(self, tmp_path):
        lines = ["a,b,y", "1.0,,1", "2.0,2.0,0", "3.0,4.0,1"]
        ds = read_tabular(write_lines(tmp_path / "t.csv", lines), "y", impute=True)
        assert ds.rows[0, 1] == 3.0  # mean of 2.0 and 4.0

    def test_missing_target_column(self, tmp_path):
        lines = ["a,b", "1.0,2.0"]
        with pytest.raises(InputError, match="target column"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "y")

    def test_non_numeric_feature(self, tmp_path):
        lines = ["a,y", "red,1"]
        with pytest.raises(InputError, match="not numeric"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "y")

    @pytest.mark.parametrize("cell, reason", [("x", "not numeric"), ("inf", "non-finite")])
    def test_error_names_file_row_after_blank_row(self, tmp_path, cell, reason):
        lines = ["a,target", "1,0", "", "2,1", f"{cell},1"]
        with pytest.raises(InputError, match=f"^row 5: .*{reason}"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "target")


def test_parsing_is_deterministic(tmp_path):
    rng = np.random.default_rng(11)
    lines = [
        json.dumps({"model_id": f"m{i % 3}", "ts": i, "score": float(round(rng.random(), 6))})
        for i in range(50)
    ]
    path = write_lines(tmp_path / "log.jsonl", lines)
    assert read_score_log(path).records == read_score_log(path).records


@pytest.mark.parametrize(
    "read, header",
    [
        (read_paired, b"entity_id,pred_a,pred_b"),
        (lambda path: read_tabular(path, "y"), b"a,y"),
        (read_blocked_csv, b"variant,converted"),
    ],
)
def test_non_utf8_csv_is_an_input_error(tmp_path, read, header):
    path = tmp_path / "latin1.csv"
    path.write_bytes(header + b"\ncaf\xe9,1\n")
    with pytest.raises(InputError, match=re.escape(f"{path}: not UTF-8")):
        read(path)


def _oracle(path, data: bytes, rescale: bool):
    """read_score_log as ``parse_score_line`` on each line: (records, skipped lines) or the InputError text."""
    parts = data.split(b"\n")
    records, skipped = [], []
    for line_no, raw in enumerate([p + b"\n" for p in parts[:-1]] + [parts[-1]] * bool(parts[-1]), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            skipped.append((line_no, "invalid UTF-8"))
            continue
        if not line.strip():
            continue
        try:
            records.append(parse_score_line(line, allow_out_of_range=rescale))
        except _OutOfRange as exc:
            return f"line {line_no}: {exc} (use rescale to min-max rescale the file)"
        except _MalformedLine as exc:
            skipped.append((line_no, str(exc)))
    total = len(records) + len(skipped)
    if len(skipped) > 1 and len(skipped) / total > MALFORMED_LINE_LIMIT:
        return (
            f"{path}: {len(skipped)} of {total} lines malformed "
            f"(limit {MALFORMED_LINE_LIMIT:.0%}); first: line {skipped[0][0]}: {skipped[0][1]}"
        )
    if rescale and records:
        scores = np.array([r.score for r in records], dtype=np.float64)
        lo, hi = float(scores.min()), float(scores.max())
        scaled = (scores - lo) / (hi - lo) if hi > lo else np.full_like(scores, 0.5)
        records = [replace(r, score=float(s)) for r, s in zip(records, scaled)]
    return [repr(r) for r in records], skipped


_RECORD_LINES = st.fixed_dictionaries(
    {
        "model_id": st.sampled_from(["m1", "m2", "é", "\ud800", ""]),
        "ts": st.integers(0, 2**70) | st.sampled_from([2**63 - 1, 2**63, 2**64]),
        "score": st.floats(0, 1) | st.sampled_from([0, 1, True, False, -0.0, 1.0]),
    },
    optional={
        "entity_id": st.sampled_from(["e1", "e2", None, 7]),
        "class": st.sampled_from(["a", "b", None, ["a"]]),
        "label": st.sampled_from([0, 1, None, True, 1.0, 2]),
    },
).map(lambda obj: [json.dumps(obj).encode()])

_ODD_LINES = st.sampled_from(
    [
        # the six malformed kinds of the benchmark's logs
        [b'{"model_id": "m0", "ts": 1, "sco'],
        [b"[1, 2, 3]"],
        [b'{"ts": 5, "score": 0.5}'],
        [b'{"model_id": "m1", "ts": -3, "score": 0.5}'],
        [b'{"model_id": "m1", "ts": 7, "score": "0.5"}'],
        [b'{"model_id": "m1", "ts": 9, "score": 0.5, "label": 2}'],
        # blank, and only Unicode whitespace
        [b""], [b"   "], [b"\r"], [b"\x0c"], ["\x85".encode()], ["\u2028\u3000".encode()],
        # not UTF-8, and an encoded lone surrogate
        [b"\xff\xfe"],
        [b'{"model_id": "m\xff", "ts": 0, "score": 0.5}'],
        [b"\xed\xa0\x80"],
        [b'{"model_id": "\xed\xa0\x80", "ts": 0, "score": 0.5}'],
        # non-finite and out-of-range scores
        [b'{"model_id": "m1", "ts": 0, "score": NaN}'],
        [b'{"model_id": "m1", "ts": 0, "score": Infinity}'],
        [b'{"model_id": "m1", "ts": 0, "score": -Infinity}'],
        [b'{"model_id": "m1", "ts": 0, "score": 1e400}'],
        [b'{"model_id": "m1", "ts": 0, "score": 1' + b"0" * 400 + b"}"],
        [b'{"model_id": "m1", "ts": 0, "score": 1.5}'],
        [b'{"model_id": "m2", "ts": 0, "score": -0.25}'],
        [b'{"model_id": "m1", "ts": 0, "score": 2}'],
        # two objects on a line, and three lines that only decode as one array
        [b'{"model_id": "m1", "ts": 1, "score": 0.5} {"model_id": "m1", "ts": 2, "score": 0.5}'],
        [b'{"model_id": "m1", "ts": 1, "score": 0.5}, {"model_id": "m1", "ts": 2, "score": 0.5}'],
        [b'{"model_id": "m", "ts": 1, "score": 0.5, "a": [[', b"]]}", b"{}],[{}"],
        # valid only after json.loads's own whitespace rule, a BOM, a repeated key
        [b' \t{"model_id": "m1", "ts": 3, "score": 0.25}\r'],
        [b'{"model_id": "m1", "ts": 3, "score": 0.25}\x0c'],
        ['\ufeff{"model_id": "m1", "ts": 3, "score": 0.25}'.encode()],
        [b'{"model_id": "m1", "ts": 3, "score": 7.0, "score": 0.75}'],
    ]
)


@given(
    st.lists(st.one_of(_RECORD_LINES, _RECORD_LINES, _ODD_LINES), max_size=40),
    st.booleans(),
    st.booleans(),
    st.integers(1, 400),
)
@settings(max_examples=300, deadline=None)
def test_reader_matches_parse_score_line_line_by_line(groups, final_newline, rescale, batch_bytes):
    data = b"\n".join(line for group in groups for line in group) + b"\n" * final_newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        expected = _oracle(path, data, rescale)
        with mock.patch.object(ingest, "_BATCH_BYTES", batch_bytes):
            try:
                log = read_score_log(path, rescale=rescale)
            except InputError as exc:
                got = str(exc)
            else:
                got = [repr(r) for r in log.records], log.skipped_lines
                assert log.skipped == len(log.skipped_lines)
                assert ScoreColumns.from_records(log.records) == log.columns
    assert got == expected
