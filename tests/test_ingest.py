"""Parsing, validation and round-trip behavior of the input readers."""

import csv
import io
import json
import math
import os
import re
import tempfile
import threading
import time
from dataclasses import fields, replace
from itertools import chain, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorescope import blocked, ingest
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
from test_blocked import _CANONICAL_ROWS as _BLOCKED_ROWS
from test_blocked import _HEADERS as _BLOCKED_HEADERS
from test_blocked import _ODD_ROW_GROUPS


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestScoreLog:
    def test_single_line(self, tmp_path):
        path = write_lines(tmp_path / "log.jsonl", ['{"model_id":"m1","ts":0,"score":0.7}'])
        log = read_score_log(path)
        assert log.columns == ScoreColumns.from_records([ScoreRecord("m1", 0, 0.7)])
        assert log.skipped == 0

    def test_optional_fields(self, tmp_path):
        line = '{"model_id":"m1","ts":5,"score":0.2,"entity_id":"e9","class":"cat","label":1}'
        log = read_score_log(write_lines(tmp_path / "log.jsonl", [line]))
        assert log.columns == ScoreColumns.from_records([ScoreRecord("m1", 5, 0.2, "e9", "cat", 1)])

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
        assert len(log) == 2
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
        assert log.columns.score.tolist() == [0.0, 0.25, 1.0]

    def test_rescale_survives_a_range_past_the_largest_float(self, tmp_path):
        scores = [-1.5e308, 1.5e308] + [0.5] * 200  # hi - lo overflows to inf
        lines = ['{"model_id":"m1","ts":%d,"score":%r}' % (i, s) for i, s in enumerate(scores)]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines), rescale=True)
        assert log.columns.score[:3].tolist() == [0.0, 1.0, 0.5]

    def test_rescale_constant_file_maps_to_midpoint(self, tmp_path):
        lines = ['{"model_id":"m1","ts":%d,"score":7.5}' % i for i in range(3)]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines), rescale=True)
        assert log.columns.score.tolist() == [0.5, 0.5, 0.5]

    def test_round_trip_identity(self, tmp_path):
        records = [
            ScoreRecord("m1", 0, 0.123456789012345, "e1", "a", 1),
            ScoreRecord("m2", 1, 1.0),
            ScoreRecord("m1", 2, 0.0, None, None, 0),
        ]
        path = tmp_path / "log.jsonl"
        write_score_log(records, path)
        assert read_score_log(path).columns == ScoreColumns.from_records(records)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_score_log(tmp_path / "absent.jsonl")

    def test_invalid_utf8_line_is_malformed(self, tmp_path):
        good = b'{"model_id":"m1","ts":0,"score":0.5}\n'
        path = tmp_path / "log.jsonl"
        path.write_bytes(good * 5 + b'{"model_id":"m\xff","ts":1,"score":0.5}\n' + good * 5)
        log = read_score_log(path)
        assert len(log) == 10
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

    @pytest.mark.parametrize("value", [b"7", b"true", b'["e1"]', b'{"id": "e1"}'])
    @pytest.mark.parametrize("field", ["entity_id", "class"])
    def test_a_non_string_entity_or_class_is_skipped_with_its_reason(self, tmp_path, field, value):
        reason = f"{field} must be a string"
        good = [b'{"model_id": "m1", "ts": %d, "score": 0.5}' % i for i in range(20)]
        bad = b'{"model_id": "m1", "ts": 20, "score": 0.5, "%s": %s}' % (field.encode(), value)
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"\n".join(good + [bad]) + b"\n")
        log = read_score_log(path)
        assert len(log) == 20 and log.skipped_lines == [(21, reason)]
        skipped = []
        ((models, scores, entities, classes),) = ingest.parse_score_lines([good + [bad]], skipped, out_of_range="skip")
        assert len(models) == len(scores) == len(entities) == len(classes) == 20 and skipped == [(21, reason)]
        with pytest.raises(_MalformedLine, match=f"^{reason}$"):
            parse_score_line(bad.decode())

    def test_timestamp_past_int64_still_reads(self, tmp_path):
        lines = ['{"model_id":"m1","ts":%d,"score":0.5}' % ts for ts in (0, 2**63, 10**30)]
        log = read_score_log(write_lines(tmp_path / "log.jsonl", lines))
        assert len(log) == 3 and log.skipped == 0

    def test_columns_hold_the_records(self, tmp_path):
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
        assert columns.score.dtype == np.float64
        # entity_id, ts and label are validated, not kept
        assert [f.name for f in fields(columns)] == ["model_ids", "model", "score", "class_ids", "class_code"]
        expected = [
            ScoreRecord("m2", 0, 0.25, None, "b", 1),
            ScoreRecord("m1", 1, 0.5, "e1"),
            ScoreRecord("m2", 2, 0.75, None, "a", 0),
        ]
        assert columns == ScoreColumns.from_records(expected)

    def test_batches_merge_code_tables(self, tmp_path):
        lines = ['{"model_id":"m%d","ts":%d,"score":0.5,"class":"c%d"}' % (9 - i % 4, i, i % 3) for i in range(40)]
        path = write_lines(tmp_path / "log.jsonl", lines)
        with mock.patch.object(ingest, "_BATCH_BYTES", 100):  # a few lines per batch
            log = read_score_log(path)
        assert log.columns.model_ids == ("m6", "m7", "m8", "m9")
        expected = [ScoreRecord(f"m{9 - i % 4}", i, 0.5, None, f"c{i % 3}") for i in range(40)]
        assert log.columns == ScoreColumns.from_records(expected)

    def test_lines_parse_score_line_takes_keep_their_place_between_fast_path_lines(self):
        fast = [
            b'{"model_id": "m%d", "ts": %d, "score": 0.%d, "entity_id": "e%d"}\n' % (i % 2, i, i, i) for i in range(4)
        ]
        slow = [
            b'{"model_id": "m9", "ts": 7, "score": 1, "class": "c1"}\n',  # an int score
            b'  {"model_id": "m0", "ts": 8, "score": 0.5, "label": 1}  \r\n',  # padded
            b'{"model_id": "m\\u00e9", "ts": 9, "score": 0, "entity_id": "e\\"q", "class": "c\\n"}\n',
        ]
        batch = [fast[0], slow[0], fast[1], slow[1], fast[2], slow[2], fast[3]]
        malformed = []
        with mock.patch.object(ingest, "parse_score_line", wraps=parse_score_line) as slow_parse:
            ((models, scores, entities, classes),) = ingest.parse_score_lines([batch], malformed)
        assert [c.args[0] for c in slow_parse.call_args_list] == [line.decode() for line in slow]
        assert malformed == []
        assert models == ["m0", "m9", "m1", "m0", "m0", "m\u00e9", "m1"]
        assert scores == [0.0, 1.0, 0.1, 0.5, 0.2, 0.0, 0.3] and all(type(s) is float for s in scores)
        assert entities == ["e0", None, "e1", None, "e2", 'e"q', "e3"]
        assert classes == [None, "c1", None, None, None, "c\n", None]

    def test_the_writer_layout_is_read_without_the_scanner(self, tmp_path):
        records = [
            ScoreRecord(f"m{i % 3}", ts, score, *optional)
            for i, optional in enumerate(product(["e1", None], ["c1", None], [1, None]))
            for ts, score in enumerate([0.0, 1.0, 5e-324, 1e-05, 0.1], start=10**17 * i)
        ]
        path = tmp_path / "log.jsonl"
        write_score_log(records, path)
        with mock.patch.object(ingest, "_scan", side_effect=AssertionError("the scanner read a writer line")):
            log = read_score_log(path)
        assert log.columns == ScoreColumns.from_records(records) and log.skipped == 0
        assert log.columns.score.tobytes() == np.array([r.score for r in records]).tobytes()

    def test_a_valid_line_in_another_layout_turns_the_layout_pattern_off_for_its_batch(self):
        writer = b'{"model_id": "m1", "ts": 0, "score": 0.5}\n'
        malformed = b'{"model_id": "m1", "ts": 1, "sco\n'
        shuffled = b'{"ts": 2, "model_id": "m2", "score": 0.25}\n'
        batches = [[writer, malformed, writer, shuffled, writer, writer], [writer, writer]]
        skipped = []
        with mock.patch.object(ingest, "_CANONICAL", wraps=ingest._CANONICAL) as pattern:
            (_, first, _, _), (_, second, _, _) = ingest.parse_score_lines(batches, skipped)
        # a malformed line fails both tiers and leaves the pattern on; the next batch starts with it on
        assert [c.args[0] for c in pattern.call_args_list] == [
            line.decode() for line in [writer, malformed, writer, shuffled, writer, writer]
        ]
        assert first == [0.5, 0.5, 0.25, 0.5, 0.5] and len(second) == 2
        assert [line_no for line_no, _ in skipped] == [2]

    def test_take_keeps_the_code_tables(self, tmp_path):
        lines = ['{"model_id":"m%d","ts":%d,"score":0.5}' % (i % 2, i) for i in range(6)]
        columns = read_score_log(write_lines(tmp_path / "log.jsonl", lines)).columns
        picked = columns.take(columns.model == 1)
        assert picked.model_ids == ("m0", "m1") and picked.model.tolist() == [1, 1, 1]


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

    @pytest.mark.parametrize(
        "change",
        [
            # refilled past the old read offset: a read from that offset would find lines
            lambda path: path.write_bytes(b"newer 1\nnewer 2\nnewer 3\n"),
            lambda path: path.write_bytes(b"new 1\n"),  # truncated below the read offset
            lambda path: (path.rename(path.with_suffix(".1")), path.write_bytes(b"new 1\n")),  # rotated
        ],
        ids=["refilled-past-offset", "truncated", "rotated"],
    )
    def test_rewritten_log_is_reread_from_the_top(self, tmp_path, change):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"old 1\nold 2\nhalf")
        batches = read_log_lines(path, follow=True, poll_interval=0.01)
        assert next(batches) == [b"old 1\n", b"old 2\n"]
        change(path)  # between two polls, while the reader holds "half" back
        new = path.read_bytes()
        assert next(batches) == new.splitlines(keepends=True)
        batches.close()


class TestPaired:
    def test_basic_row(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b,label", "e1,0.9,0.1,1"])
        pairs = read_paired(path)
        assert len(pairs) == 1
        assert pairs.pred_a.dtype == pairs.pred_b.dtype == np.float64 and pairs.labels.dtype == np.int8
        assert (pairs.pred_a.tolist(), pairs.pred_b.tolist(), pairs.labels.tolist()) == ([0.9], [0.1], [1])

    def test_empty_entity_id_errors(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b", "e1,0.9,0.1", " ,0.2,0.3"])
        with pytest.raises(InputError, match="^row 3: empty entity_id$"):
            read_paired(path)

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
        assert pairs.pred_a.tolist() == [float(f"0.{i}") for i in range(1, 8)]

    def test_error_names_file_row_after_blank_row(self, tmp_path):
        lines = ["entity_id,pred_a,pred_b", "e1,0.1,0.2", "", "e2,0.1,x"]
        with pytest.raises(InputError, match="^row 4: .*not numeric"):
            read_paired(write_lines(tmp_path / "p.csv", lines))


class TestTabular:
    def test_basic_parse(self, tmp_path):
        lines = ["a,b,y"] + [f"{i},{i * 2},{i % 2}" for i in range(5)]
        ds = read_tabular(write_lines(tmp_path / "t.csv", lines), "y")
        assert ds.n == 5 and ds.rows.shape[1] == 2
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

    def test_impute_refuses_a_mean_that_overflows_without_a_warning(self, tmp_path):
        lines = ["a,y", "1e308,1", "1.5e308,0", ",1"]
        with pytest.raises(InputError, match="^column 'a': mean of observed values is not finite$"):
            read_tabular(write_lines(tmp_path / "t.csv", lines), "y", impute=True)

    @pytest.mark.parametrize("header", ["a,b,y,a", "y,a,y", "a, a ,y"])
    def test_a_column_named_twice_is_refused(self, tmp_path, header):
        path = write_lines(tmp_path / "t.csv", [header, ",".join(["1"] * header.count(",")) + ",1"])
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: column '(a|y)' appears more than once"):
            read_tabular(path, "y")

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
    assert read_score_log(path).columns == read_score_log(path).columns


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


@pytest.mark.parametrize(
    "read, text",
    [
        (read_paired, b"entity_id,pred_a,pred_b\r\ne1,0.25,0.5\r\ne2,1,0.75\r\n"),
        (lambda path: read_tabular(path, "x"), b"x,y\r\n0,0.25\r\n1,0.75\r\n"),
    ],
    ids=["read_paired", "read_tabular"],
)
def test_csv_byte_order_mark_is_dropped(tmp_path, read, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)  # as spreadsheet exports write UTF-8
    assert read(marked) == read(plain)


@pytest.mark.parametrize(
    "read, text",
    [
        (read_paired, b"entity_id,pred_a,pred_b,label\r\ne1,0.25,0.5,1\r\ne2,1,0.75,\r\n"),
        (read_paired, b"entity_id,pred_a,pred_b,label\ne1,0.25,0.5,1\ne2,1,0.75, 1\n"),
        (lambda path: read_tabular(path, "y"), b"x,y\r\n0.25,0\r\n0.75,1\r\n"),
        (lambda path: read_blocked_csv(path).codes.tolist(), b"variant,converted\r\nbase,1\r\nv1, 0\r\n"),
    ],
    ids=["paired-crlf", "paired-padded-label", "tabular-crlf", "blocked-padded-flag"],
)
def test_a_pipe_reads_as_a_regular_file(tmp_path, read, text):
    """Each file is one that a first, quicker pass gives up on; a second read of a pipe would find it drained."""
    path = tmp_path / "input.csv"
    path.write_bytes(text)
    r, w = os.pipe()
    try:
        os.write(w, text)  # far below a pipe's buffer, so no writer thread is needed
        os.close(w)
        assert read(f"/dev/fd/{r}") == read(path)
    finally:
        os.close(r)


def _oracle(path, data: bytes, rescale: bool):
    """read_score_log as ``parse_score_line`` on each line: (columns, skipped lines) or the InputError text."""
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
        if not hi > lo:
            scaled = np.full_like(scores, 0.5)
        elif math.isfinite(hi - lo):
            scaled = (scores - lo) / (hi - lo)
        else:  # hi - lo overflows
            scaled = (scores / 2 - lo / 2) / (hi / 2 - lo / 2)
        records = [replace(r, score=float(s)) for r, s in zip(records, scaled)]
    return ScoreColumns.from_records(records), skipped


_RECORDS = st.fixed_dictionaries(
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
)
# in the writer's layout; raw non-ASCII too, where a lone surrogate becomes bytes that are not UTF-8
_RECORD_LINES = st.builds(
    lambda obj, ascii: [json.dumps(obj, ensure_ascii=ascii).encode("utf-8", "surrogatepass")], _RECORDS, st.booleans()
)

_ODD_GROUPS = [
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
    # a score range whose width overflows a float, for rescale
    [b'{"model_id": "m1", "ts": 0, "score": -1.5e+308}', b'{"model_id": "m1", "ts": 1, "score": 1.5e+308}'],
    # near misses of the writer's layout: an empty id, raw control characters and DEL, escapes, an escaped key
    [b'{"model_id": "", "ts": 0, "score": 0.5}'],
    [b'{"model_id": "m\t1", "ts": 0, "score": 0.5}'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "entity_id": "e\x1f"}'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "class": "c\x7f"}'],
    [b'{"model_id": "m\\"1", "ts": 0, "score": 0.5}'],
    [b'{"model_id": "m\\u0041", "ts": 0, "score": 0.5}'],
    [b'{"model\\u005fid": "m1", "ts": 0, "score": 0.5}'],
    # timestamps of 18, 19 and 5000 digits, and a leading zero
    [b'{"model_id": "m1", "ts": ' + b"9" * 18 + b', "score": 0.5}'],
    [b'{"model_id": "m1", "ts": ' + b"9" * 19 + b', "score": 0.5}'],
    [b'{"model_id": "m1", "ts": 1' + b"0" * 4999 + b', "score": 0.5}'],
    [b'{"model_id": "m1", "ts": 01, "score": 0.5}'],
    # score spellings: exponents, and numbers JSON refuses, an integer and a negative zero
    *([b'{"model_id": "m1", "ts": 0, "score": %s}' % s] for s in [
        b"5e-1", b"1E0", b"0.5E+0", b"00.5", b".5", b"1.", b"0.5e", b"+0.5", b"-0", b"-0.0",
    ]),
    # trailing whitespace, labels, and keys out of the writer's order or beyond it
    [b'{"model_id": "m1", "ts": 0, "score": 0.5}\r'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5}   '],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "label": 1}'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "label": true}'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "label": 0, "class": "a"}'],
    [b'{"model_id": "m1", "ts": 0, "score": 0.5, "class": "a", "x": 1}'],
]
_ODD_LINES = st.sampled_from(_ODD_GROUPS)


def _assert_reads_as_the_oracle(path, data: bytes, rescale: bool, batch_bytes: int):
    path.write_bytes(data)
    expected = _oracle(path, data, rescale)
    with mock.patch.object(ingest, "_BATCH_BYTES", batch_bytes):
        try:
            log = read_score_log(path, rescale=rescale)
        except InputError as exc:
            got = str(exc)
        else:
            got = log.columns, log.skipped_lines
    assert got == expected
    if not isinstance(got, str):
        assert got[0].score.tobytes() == expected[0].score.tobytes()  # == takes -0.0 for 0.0; the bytes do not


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
        _assert_reads_as_the_oracle(Path(tmp) / "log.jsonl", data, rescale, batch_bytes)


@pytest.mark.parametrize("rescale", [False, True])
def test_every_odd_line_reads_as_parse_score_line_reads_it(tmp_path, rescale):
    """Each odd group among writer-layout lines, whether or not the property above draws it."""
    writer = [json.dumps({"model_id": "m1", "ts": 0, "score": 0.25}).encode()] * 20
    for i, group in enumerate(_ODD_GROUPS):
        _assert_reads_as_the_oracle(tmp_path / f"{i}.jsonl", b"\n".join([*writer, *group, *writer]), rescale, 1 << 20)


# the layout pattern as Python 3.10 could spell it, each atomic part a capturing lookahead and its backreference
_TEXT = r'[^"\\\x00-\x1f]'
_LOOKAHEAD_LAYOUT = re.compile(
    r'\{"model_id": "(?=(' + _TEXT + r'+))\1", "ts": (?:0|[1-9][0-9]{0,17}), '
    r'"score": (?=(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)))\2'
    r'(?:, "entity_id": "(?=(' + _TEXT + r'*))\3")?(?:, "class": "(?=(' + _TEXT + r'*))\4")?'
    r'(?:, "label": [01])?\}[ \t\n\r]*'
).fullmatch


def _writer_line(model_id, ts, score, entity_id, class_label, label):
    """A line as write_score_log writes it, of fields it need not accept."""
    obj = {"model_id": model_id, "ts": ts, "score": score}
    obj.update((k, v) for k, v in [("entity_id", entity_id), ("class", class_label), ("label", label)] if v is not None)
    return json.dumps(obj)


_WRITER_LINES = st.builds(
    _writer_line,
    st.text("m1", min_size=1, max_size=3) | st.sampled_from(["", 'm"', "m\\", "m\x1f", "é"]),
    st.integers(0, 10**17) | st.sampled_from([10**18 - 1, 10**18]),
    st.floats(0, 1) | st.floats() | st.integers(-1, 2),
    st.none() | st.text("e1", max_size=2),
    st.none() | st.text("c", max_size=2),
    st.none() | st.integers(0, 2),
)


@st.composite
def _edited_writer_lines(draw):
    """A writer line with 0-3 characters inserted, deleted or replaced."""
    line = draw(_WRITER_LINES)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 1))
        line = line[:at] + draw(st.sampled_from('0123456789.eE+-"\\{}:, \t\r\n\x01') | st.just("")) + line[at + cut :]
    return line


@given(_edited_writer_lines())
@settings(max_examples=2000, deadline=None)
def test_the_layout_pattern_matches_and_captures_as_its_lookahead_spelling(line):
    got, want = ingest._CANONICAL(line), _LOOKAHEAD_LAYOUT(line)
    assert (got and got.groups()) == (want and want.groups())


# ---------------------------------------------------------------------------
# the column path of read_paired against its csv_rows loop
# ---------------------------------------------------------------------------


def _csv_outcome(read, path):
    """What a CSV reader gives: each field's dtype, shape and bytes (or value), or the error type and text."""
    try:
        result = read(path)
    except (InputError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    values = [getattr(result, f.name) for f in fields(result)]
    return [(v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]


def _assert_reads_as_csv_rows(path, batch_bytes, read, parse):
    """``read`` gives what its ``csv_rows`` loop ``parse`` gives, its column path reading ``batch_bytes`` at a time."""
    with mock.patch.object(ingest, "_CSV_BATCH_BYTES", batch_bytes):
        assert _csv_outcome(read, path) == _csv_outcome(parse, path)


_PAIRED_READERS = (read_paired, ingest._parse_paired_csv)


_PAIRED_HEADER = b"entity_id,pred_a,pred_b,label"
_UNIT_CELLS = st.floats(0, 1).map(repr) | st.sampled_from(["0", "1", "-0.0", "1e-320", "5e-1", " 0.25", "0_0.5", ".5"])
_IDS = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), min_size=1, max_size=4)
_PAIRED_ROWS = st.tuples(_IDS, _UNIT_CELLS, _UNIT_CELLS, st.sampled_from(["", "0", "1"])).map(
    lambda cells: ",".join(cells).encode()
)
# each line one that only the csv_rows loop reads right, or one it reads as an error
_ODD_PAIRED_LINES = [
    b'"e1",0.5,0.5,1', b'e1,"0.5",0.5,', b'e1,0.5,0.5,"1', b'"e1,0.5,0.5,', b'e2",0.25,0.75,1',
    b"e1,0.5\r,0.5,1", b"e1,0.5,0.5,1\r", b"e1\x0b0.25\x0b0.75\x0b1\x0be2,0.5,0.5,0",
    b"", b" , , , ", b",,,", b"\t",
    b"e1,0.5,0.5", b"e1,0.5,0.5,1,", b"e1,0.5,0.5,1,x", b"e1",
    b"e1,nan,0.5,", b"e1,0.5,NaN,1", b"e1,inf,0.5,", b"e1,0.5,-Infinity,", b"e1,1e400,0.5,", b"e1,1.5,0.5,",
    b"e1,0.5,-0.25,0", b"e1,1_0,0.5,", b"e1,0.5,x,1", b"e1,,0.5,1",
    b"e1,0.5,0.5,2", b"e1,0.5,0.5, 1", b"e1,0.5,0.5,1 ", b"e1,0.5,0.5,true", b"e1,0.5,0.5,1.0",
    "e1,\u30000.5\u3000,0.5,".encode(), "e1,\x850.5,0.5\x85,1".encode(), b"e1,\x1c0.5,0.5,", b"e1,0.5,0.5,\x1c1",
    b"e\x0b1,0.5,0.5,1", b"e1,0.5\x0b,0.5,", b"e1,0.5,0.5,\x0b",
    b",0.5,0.5,1", b" ,0.5,0.5,1", "\u3000,0.5,0.5,".encode(), b"\x1c,0.5,0.5,0",
    "\ufeffe1,0.5,0.5,1".encode(), b"caf\xe9,0.5,0.5,", b"\xed\xa0\x80,0.5,0.5,",
    b"e\x001,0.5,0.5,", b"e1,0.5\x00,0.5,",
]
_ODD_PAIRED_HEADERS = [
    b"",
    b"\xef\xbb\xbf" + _PAIRED_HEADER,
    b" entity_id , pred_a,pred_b,label\t",
    b'"entity_id",pred_a,pred_b,label',
    _PAIRED_HEADER + b",",
    b"entity_id,pred_a",
    b"Entity_id,pred_a,pred_b,label",
    _PAIRED_HEADER + b"\r",
    b"entity_id,pred_a,pred_b,lab\xe9l",
]


def _mostly(common, rare, one_in: int):
    """``common``, except one time in ``one_in``, when ``rare``; shrinks towards ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == one_in else common)


def _without_label(line: bytes) -> bytes:
    return line.rsplit(b",", 1)[0] if line.count(b",") == 3 else line


@st.composite
def _csv_files(draw, header: bytes, rows: list[bytes]) -> bytes:
    """The header and rows as a file: mostly ``\\n`` endings and a final newline, else some ``\\r\\n`` or none."""
    lines = [header, *rows]
    mixed = st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines), max_size=len(lines))
    endings = draw(_mostly(st.just([b"\n"] * len(lines)), mixed, 10))
    if draw(_mostly(st.just(False), st.just(True), 10)):
        endings[-1] = b""
    return b"".join(line + end for line, end in zip(lines, endings))


# most examples are canonical files, so most take the column path
@given(
    st.data(),
    _mostly(st.sampled_from([_PAIRED_HEADER, b"entity_id,pred_a,pred_b"]), st.sampled_from(_ODD_PAIRED_HEADERS), 5),
    st.lists(_PAIRED_ROWS, max_size=30),
    _mostly(st.just([]), st.lists(st.sampled_from(_ODD_PAIRED_LINES), min_size=1, max_size=2), 5),
    st.integers(1, 200),
)
@settings(max_examples=300, deadline=None)
def test_read_paired_matches_the_csv_rows_loop(data, header, canonical, odd, batch_bytes):
    rows = data.draw(st.permutations(canonical + odd))
    if header.count(b",") == 2:
        rows = [_without_label(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        path.write_bytes(data.draw(_csv_files(header, rows)))
        _assert_reads_as_csv_rows(path, batch_bytes, *_PAIRED_READERS)


_ROWS_BEFORE, _ROWS_AFTER = [b"e1,0.25,0.5,1", b"e2,0.75,0.125,"], [b"e3,1,0,0", b"e4,0.5,0.5,"]
_LIMIT = csv.field_size_limit()


def _paired_file(*lines: bytes) -> bytes:
    return b"".join(line + b"\n" for line in [_PAIRED_HEADER, *_ROWS_BEFORE, *lines, *_ROWS_AFTER])


_PAIRED_CASES = {
    "quotes": _paired_file(b'"e5",0.5,0.5,1'),
    "quoted-comma": _paired_file(b'"e,5",0.5,0.5,1'),
    "quoted-newline": _paired_file(b'"e5,0.5,0.5,', b'e6",0.25,0.75,1'),  # one row to csv.reader, two split at \n
    "lone-cr": _paired_file(b"e5,0.5\r0.5,0.5,1"),
    "lone-cr-before-a-comma": _paired_file(b"e5,0.5\r,0.5,1"),  # float() takes "0.5\r"; csv.reader ends the row there
    "crlf-endings": _paired_file().replace(b"\n", b"\r\n"),
    "blank-line": _paired_file(b""),
    "whitespace-line": _paired_file(b" , , , "),
    "short-and-long-lines": _paired_file(b"e5,0.5,0.5", b"e6,0.5,0.5,1,"),
    "short-and-long-lines-that-realign": _paired_file(b"e5,0.5,0.5", b",e6,0.25,0.75,1"),
    "nan": _paired_file(b"e5,NaN,0.5,1"),
    "inf": _paired_file(b"e5,0.5,inf,1"),
    "1e400": _paired_file(b"e5,1e400,0.5,"),
    "out-of-range": _paired_file(b"e5,0.5,1.0000001,0"),
    "underscore": _paired_file(b"e5,1_0,0.5,0"),
    "underscore-in-range": _paired_file(b"e5,0_0.5,0.5,0"),
    "label-2": _paired_file(b"e5,0.5,0.5,2"),
    "label-space-1": _paired_file(b"e5,0.5,0.5, 1"),
    "ideographic-space": _paired_file("e5,\u30000.5,0.5,1".encode()),
    "next-line": _paired_file("e5,0.5\x85,0.5,1".encode()),
    "file-separator": _paired_file(b"e5,\x1c0.5,0.5,1"),
    "vertical-tab-in-id": _paired_file(b"e\x0b5,0.5,0.5,1"),
    "vertical-tab-in-score": _paired_file(b"e5,0.5\x0b,0.5,1"),
    "line-separator-in-id": _paired_file("e\u20285,0.5,0.5,1".encode()),
    # one row to csv.reader, two to str.splitlines
    "vertical-tabs-in-id": _paired_file(b"e5\x0b0.25\x0b0.75\x0b1\x0be6,0.5,0.5,0"),
    "line-separators-in-id": _paired_file("e5\u20280.25\u20280.75\u20281\u2028e6,0.5,0.5,0".encode()),
    "no-final-newline": _paired_file()[:-1],
    "bom": b"\xef\xbb\xbf" + _paired_file(),
    "empty-id": _paired_file(b",0.5,0.5,1"),
    "whitespace-id": _paired_file(b"  ,0.5,0.5,1"),
    "not-utf8": _paired_file(b"caf\xe9,0.5,0.5,1"),
    "id-at-field-limit": _paired_file(b"e" * _LIMIT + b",0.5,0.5,1"),
    "id-past-field-limit": _paired_file(b"e" * (_LIMIT + 1) + b",0.5,0.5,1"),
    "header-only": _PAIRED_HEADER + b"\n",
    "header-only-no-newline": _PAIRED_HEADER,
    "blank-header": b"\n" + _paired_file()[len(_PAIRED_HEADER) + 1 :],
    "three-column-header": _paired_file().replace(b",label\n", b"\n", 1),
    "empty-file": b"",
    "missing-file": None,
}


@pytest.mark.parametrize("batch_bytes", [7, 1 << 16])
@pytest.mark.parametrize("content", _PAIRED_CASES.values(), ids=_PAIRED_CASES.keys())
def test_odd_paired_file_reads_as_the_csv_rows_loop_reads_it(tmp_path, content, batch_bytes):
    path = tmp_path / "pairs.csv"
    if content is not None:
        path.write_bytes(content)
    _assert_reads_as_csv_rows(path, batch_bytes, *_PAIRED_READERS)


class TestColumnPathIsTaken:
    """Canonical files read without the csv_rows loop, so a column path that always fell back would fail here."""

    def test_benchmark_shaped_pairs(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 5000
        pred_a, pred_b = rng.random(n), rng.random(n)
        labels = np.where(rng.random(n) < 0.75, rng.integers(0, 2, n), -1)
        path = tmp_path / "pairs.csv"
        with path.open("w", encoding="utf-8") as fh:  # as perfbench writes pairs.csv
            fh.write("entity_id,pred_a,pred_b,label\n")
            for i, (a, b, label) in enumerate(zip(pred_a.tolist(), pred_b.tolist(), labels.tolist())):
                fh.write(f"e{i},{a!r},{b!r},{label if label >= 0 else ''}\n")
        with mock.patch.object(ingest, "csv_rows", side_effect=AssertionError("csv_rows used")):
            pairs = read_paired(path)
        assert pairs.pred_a.tobytes() == pred_a.tobytes() and pairs.pred_b.tobytes() == pred_b.tobytes()
        assert pairs.labels.dtype == np.int8 and pairs.labels.tolist() == labels.tolist()

    def test_header_only_file(self, tmp_path):
        with mock.patch.object(ingest, "csv_rows", side_effect=AssertionError("csv_rows used")):
            assert len(read_paired(write_lines(tmp_path / "p.csv", ["entity_id,pred_a,pred_b"]))) == 0


def test_a_file_with_odd_cells_and_a_whitespace_row_is_read_whole_through_csv_rows(tmp_path):
    lines = ["entity_id,pred_a,pred_b,label"] + [f"e{i},0.25,0.5,{i % 2}" for i in range(3000)]
    lines[-1] = "e2999,0.25, 0.75 , 1"  # in the last batch: the column path gives up late, and the file is read again
    lines.insert(1500, " , , , ")
    path = write_lines(tmp_path / "pairs.csv", lines)
    with mock.patch.object(ingest, "csv_rows", wraps=ingest.csv_rows) as rows:
        pairs = read_paired(path)
    rows.assert_called_once_with(path, "paired CSV")
    assert len(pairs) == 3000 and pairs.pred_b[-1] == 0.75 and pairs.labels.tolist() == [0, 1] * 1500
    assert pairs == ingest._parse_paired_csv(path)


def _in_batches(data, lines: list[bytes]) -> list[list[bytes]]:
    """``lines`` cut into consecutive batches of drawn sizes."""
    batches = []
    while lines:
        size = data.draw(st.integers(1, len(lines)))
        batches.append(lines[:size])
        lines = lines[size:]
    return batches


_FAST_PATH_INPUTS = st.one_of(
    st.tuples(
        st.just(ingest._paired_columns),
        _mostly(st.sampled_from([_PAIRED_HEADER, b"entity_id,pred_a,pred_b"]), st.sampled_from(_ODD_PAIRED_HEADERS), 5),
        st.lists(st.one_of(_PAIRED_ROWS, _PAIRED_ROWS, st.sampled_from(_ODD_PAIRED_LINES)), max_size=20),
    ),
    st.tuples(
        st.just(blocked._canonical_outcomes),
        _BLOCKED_HEADERS,
        st.lists(st.one_of(_BLOCKED_ROWS, _BLOCKED_ROWS, *map(st.sampled_from, _ODD_ROW_GROUPS)), max_size=20),
    ),
)


@given(st.data(), _FAST_PATH_INPUTS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_a_csv_fast_path_returns_or_gives_up(data, inputs, final_newline):
    """A fast path reads a file whole or gives up with an exception ``read_csv`` catches, never a row error."""
    fast, header, rows = inputs
    if fast is ingest._paired_columns and header.count(b",") == 2:
        rows = [_without_label(row) for row in rows]
    text = b"".join(line + b"\n" for line in [header, *rows])
    file = io.BytesIO(text if final_newline else text[:-1])
    first = file.readline()  # as read_csv reads the file
    try:
        fast(first, iter(_in_batches(data, file.readlines())))
    except (ValueError, LookupError):
        pass
