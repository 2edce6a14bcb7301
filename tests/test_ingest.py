"""Parsing, validation and round-trip behavior of the input readers."""

import json
import re
import threading
import time

import numpy as np
import pytest

from scorescope.blocked import read_blocked_csv
from scorescope.errors import InputError
from scorescope.ingest import (
    ScoreRecord,
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


class TestFollow:
    def test_incomplete_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"first\nsec")
        lines = read_log_lines(path, follow=True, poll_interval=0.01)
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
        lines.close()

    def test_truncated_log_is_reread_from_the_top(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"old 1\nold 2\nhalf")
        lines = read_log_lines(path, follow=True, poll_interval=0.01)
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
        lines.close()


    def test_rotated_log_is_followed_to_the_new_file(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_bytes(b"old 1\nold 2\nhalf")
        lines = read_log_lines(path, follow=True, poll_interval=0.01)
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
        lines.close()


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
