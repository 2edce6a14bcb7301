"""Blocked-experiment simulation and effect disentanglement."""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorescope import blocked
from scorescope.blocked import (
    BlockedDesign,
    BlockedOutcomes,
    BlockedSimConfig,
    analyze_blocked,
    read_blocked_csv,
    simulate_blocked,
    write_blocked_csv,
)
from scorescope.errors import InputError, PreconditionError


def outcomes_with_rates(per_variant: int, rates) -> BlockedOutcomes:
    """Exact conversion counts per variant, no randomness."""
    codes = []
    for v, rate in enumerate(rates):
        k = int(round(rate * per_variant))
        codes += [2 * v + 1] * k + [2 * v] * (per_variant - k)
    return BlockedOutcomes(np.array(codes))


class TestOutcomeCodes:
    @pytest.mark.parametrize("code", [-1, 6, 258])
    def test_code_outside_the_six_rejected(self, code):
        with pytest.raises(PreconditionError, match="outcome codes"):
            BlockedOutcomes(np.array([0, 1, code, 5]))

    @given(st.lists(st.integers(0, 5), max_size=60))
    @settings(max_examples=60)
    def test_counts_match_a_per_variant_loop(self, codes):
        users, conversions = BlockedOutcomes(np.array(codes, dtype=np.int64)).counts()
        assert users.tolist() == [sum(1 for c in codes if c // 2 == v) for v in range(3)]
        assert conversions.tolist() == [sum(1 for c in codes if c == 2 * v + 1) for v in range(3)]


class TestDesign:
    def test_default_is_equal_thirds(self):
        assert sum(BlockedDesign().allocation) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            BlockedDesign((-0.1, 0.6, 0.5))

    def test_rejects_bad_sum(self):
        with pytest.raises(PreconditionError):
            BlockedDesign((0.5, 0.5, 0.5))

    @pytest.mark.parametrize("at", range(3))
    def test_rejects_nan(self, at):
        allocation = [0.5, 0.5, 0.0]
        allocation[at] = float("nan")  # a NaN compares false both to 0 and in the sum check
        with pytest.raises(PreconditionError, match="finite"):
            BlockedDesign(tuple(allocation))


class TestSimulate:
    def test_null_configuration_rates_within_three_sigma(self):
        config = BlockedSimConfig(90_000, 0.10, 0.0, 0.0, seed=0)
        users, conversions = simulate_blocked(config).counts()
        for n, c in zip(users, conversions):
            sigma = np.sqrt(0.10 * 0.90 / n)
            assert abs(c / n - 0.10) <= 3 * sigma

    def test_configured_effects_show_up(self):
        config = BlockedSimConfig(1_000_000, 0.10, -0.005, 0.010, seed=1)
        users, conversions = simulate_blocked(config).counts()
        rates = conversions / users
        for rate, expected in zip(rates, (0.100, 0.095, 0.105)):
            sigma = np.sqrt(expected * (1 - expected) / users[0] * 3)
            assert abs(rate - expected) <= 3 * sigma

    def test_degenerate_allocation_all_base(self):
        config = BlockedSimConfig(500, 0.2, design=BlockedDesign((1.0, 0.0, 0.0)), seed=2)
        outcomes = simulate_blocked(config)
        users, _ = outcomes.counts()
        assert users.tolist() == [500, 0, 0]

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(PreconditionError, match="outside"):
            simulate_blocked(BlockedSimConfig(100, 0.99, 0.0, 0.02))

    def test_deterministic_per_seed(self):
        config = BlockedSimConfig(1000, 0.1, -0.01, 0.02, seed=7)
        a, b = simulate_blocked(config), simulate_blocked(config)
        assert a.codes.tolist() == b.codes.tolist()


class TestAnalyze:
    def test_exact_rates_give_exact_effects(self):
        outcomes = outcomes_with_rates(1000, (0.10, 0.095, 0.105))
        analysis = analyze_blocked(outcomes)
        assert analysis.perf_effect == pytest.approx(-0.005)
        assert analysis.feature_effect == pytest.approx(0.010)
        assert analysis.total_effect == pytest.approx(0.005)
        assert analysis.rates == {"base": 0.10, "v1": 0.095, "v2": 0.105}

    def test_saturated_conversion_flags_degenerate(self):
        outcomes = outcomes_with_rates(50, (1.0, 1.0, 1.0))
        analysis = analyze_blocked(outcomes)
        assert analysis.perf_effect == 0.0 and analysis.feature_effect == 0.0
        for contrast in analysis.contrasts.values():
            assert contrast.degenerate
            assert contrast.ci_low == contrast.ci_high == contrast.effect == 0.0

    def test_empty_variant_rejected(self):
        outcomes = BlockedOutcomes(np.array([1, 0, 3]))
        with pytest.raises(PreconditionError, match="v2 has no users"):
            analyze_blocked(outcomes)

    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=3).filter(
        lambda rows: {v for v, _ in rows} == {0, 1, 2}
    ))
    @settings(max_examples=60)
    def test_additivity_exact_and_order_free(self, rows):
        codes = np.array([2 * v + c for v, c in rows])
        analysis = analyze_blocked(BlockedOutcomes(codes))
        assert analysis.total_effect == analysis.perf_effect + analysis.feature_effect
        perm = np.random.default_rng(0).permutation(len(rows))
        shuffled = analyze_blocked(BlockedOutcomes(codes[perm]))
        assert shuffled.perf_effect == analysis.perf_effect
        assert shuffled.feature_effect == analysis.feature_effect
        assert shuffled.contrasts == analysis.contrasts

    def test_estimator_unbiased_over_replications(self):
        # mean of perf_effect across seeded runs within 3 standard errors
        effects = []
        for seed in range(1000):
            outcomes = simulate_blocked(BlockedSimConfig(6_000, 0.10, -0.005, 0.010, seed=seed))
            effects.append(analyze_blocked(outcomes).perf_effect)
        se = np.std(effects, ddof=1) / np.sqrt(len(effects))
        assert abs(np.mean(effects) - (-0.005)) <= 3 * se


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        outcomes = simulate_blocked(BlockedSimConfig(300, 0.2, -0.01, 0.05, seed=3))
        path = tmp_path / "outcomes.csv"
        write_blocked_csv(outcomes, path)
        back = read_blocked_csv(path)
        assert len(back) == 300
        assert analyze_blocked(back).rates == analyze_blocked(outcomes).rates

    def test_bad_header(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,clicked\nbase,1\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            read_blocked_csv(path)

    def test_unknown_variant(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,converted\nv3,1\n", encoding="utf-8")
        with pytest.raises(InputError, match="unknown variant"):
            read_blocked_csv(path)

    def test_error_names_file_row_after_blank_row(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("variant,converted\nbase,1\n\nv1,2\n", encoding="utf-8")
        with pytest.raises(InputError, match="^row 4: converted"):
            read_blocked_csv(path)

    def test_written_file_takes_the_fast_path(self, tmp_path):
        outcomes = simulate_blocked(BlockedSimConfig(5000, 0.2, -0.01, 0.05, seed=4))
        path = tmp_path / "outcomes.csv"
        write_blocked_csv(outcomes, path)
        with mock.patch.object(blocked, "_parse_blocked_csv", side_effect=AssertionError("CSV parser used")):
            back = read_blocked_csv(path)
        assert np.array_equal(back.codes, outcomes.codes)

    def test_byte_order_mark_falls_back_to_the_csv_parser(self, tmp_path):
        outcomes = simulate_blocked(BlockedSimConfig(300, 0.2, -0.01, 0.05, seed=5))
        path = tmp_path / "outcomes.csv"
        write_blocked_csv(outcomes, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as spreadsheet exports write UTF-8
        with mock.patch.object(blocked, "_parse_blocked_csv", wraps=blocked._parse_blocked_csv) as parse:
            back = read_blocked_csv(path)
        parse.assert_called_once_with(path)
        assert np.array_equal(back.codes, outcomes.codes)

    def test_missing_file_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="^cannot read outcomes CSV"):
            read_blocked_csv(tmp_path / "absent.csv")


_CANONICAL_ROWS = st.sampled_from([b"base,0", b"base,1", b"v1,0", b"v1,1", b"v2,0", b"v2,1"])
_ODD_ROW_GROUPS = [
    [b"", b"  ", b","],
    [b"BASE,1", b"V2,0", b" v1 , 1 ", b"v1,1 "],
    [b'"base","0"', b'"v1",1', b'"v2\n",1'],
    [b"base,1,", b"v2,0,x", b"base"],
    [b"v3,1", b"base,2", b"base,"],
    [b"base,1\r", b"v1\r,0", b"\xff,1", b"caf\xe9,0", b"\xef\xbb\xbfbase,0"],
]
_OTHER_ROWS = st.one_of(*map(st.sampled_from, _ODD_ROW_GROUPS))
_HEADER = b"variant,converted"
# the canonical header three times in four
_HEADERS = st.just(_HEADER) | st.just(_HEADER) | st.just(_HEADER) | st.sampled_from(
    [
        b"",
        b"\xef\xbb\xbfvariant,converted",
        b"Variant,converted",
        b" variant , converted",
        b'"variant","converted"',
        b"variant,converted,",
        b"variant;converted",
        b"variant,clicked",
        b"variant,converted\r",
        b"variant,conv\xe9rted",
    ]
)


def _read_or_error(read, path):
    try:
        outcomes = read(path)
    except InputError as exc:
        return str(exc)
    return outcomes.codes.tolist()


@given(
    st.data(),
    _HEADERS,
    st.lists(_CANONICAL_ROWS, max_size=40),
    st.lists(_OTHER_ROWS, max_size=2),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_reader_matches_the_csv_parser(data, header, canonical, other, final_newline):
    rows = data.draw(st.permutations(canonical + other))
    endings = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = b"".join(line + end for line, end in zip([header, *rows], endings))
    if not final_newline:
        text = text[: -len(endings[-1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outcomes.csv"
        path.write_bytes(text)
        assert _read_or_error(read_blocked_csv, path) == _read_or_error(blocked._parse_blocked_csv, path)


@pytest.mark.parametrize("odd", [row for group in _ODD_ROW_GROUPS for row in group])
@pytest.mark.parametrize("end", [b"\n", b"\r\n"])
def test_one_odd_row_among_canonical_rows_reads_as_csv(tmp_path, odd, end):
    path = tmp_path / "outcomes.csv"
    path.write_bytes(end.join([_HEADER, b"base,1", odd, b"v2,0", b"v1,1"]))
    assert _read_or_error(read_blocked_csv, path) == _read_or_error(blocked._parse_blocked_csv, path)


def _csv_writer_reference(codes, path):
    """``write_blocked_csv`` as it was through ``csv.writer``, the reference for the bytes it writes."""
    names = ["base", "v1", "v2"]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "converted"])
        writer.writerows((names[code // 2], code % 2) for code in codes)


@given(st.lists(st.integers(0, 5), max_size=50), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_writer_matches_csv_writer_and_reads_back_through_the_fast_path(codes, write_rows):
    with tempfile.TemporaryDirectory() as tmp:
        written, reference = Path(tmp) / "written.csv", Path(tmp) / "reference.csv"
        with mock.patch.object(blocked, "_WRITE_ROWS", write_rows):  # several chunks per file
            write_blocked_csv(BlockedOutcomes(np.array(codes, dtype=np.uint8)), written)
        _csv_writer_reference(codes, reference)
        assert written.read_bytes() == reference.read_bytes()
        with mock.patch.object(blocked, "_parse_blocked_csv", side_effect=AssertionError("CSV parser used")):
            assert read_blocked_csv(written).codes.tolist() == codes
