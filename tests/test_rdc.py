"""Chart construction, smoothing, mode structure and the pathology rules."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import bimodal_scores, central_scores, noise_scores, score_records, spike_scores
from scorescope.errors import PreconditionError
from scorescope import rdc as rdc_module
from scorescope.ingest import ScoreColumns
from scorescope.rdc import (
    DEFAULT_DIAGNOSIS,
    DiagnosisConfig,
    Mode,
    Rdc,
    RdcPattern,
    SmoothedRdc,
    build_rdc,
    charts_by,
    detect_modes,
    diagnose,
    diagnose_or_skip,
    log_view,
    one_vs_rest,
    rdc_distance,
    smooth,
)

counts_arrays = st.lists(st.integers(0, 1000), min_size=5, max_size=60).filter(lambda c: sum(c) > 0)
windows = st.integers(0, 5).map(lambda k: 2 * k + 1)


class TestBuild:
    def test_point_mass_lands_in_its_bin(self):
        rdc = build_rdc([0.5] * 10, bin_count=10)
        assert rdc.counts.tolist() == [0, 0, 0, 0, 0, 10, 0, 0, 0, 0]
        assert rdc.n == 10

    def test_boundary_scores(self):
        rdc = build_rdc([0.0, 1.0], bin_count=2)
        assert rdc.counts.tolist() == [1, 1]

    def test_uniform_counts_within_binomial_bounds(self):
        # Binomial(10^4, 1/100): +-5 sigma is [50, 150], miss chance ~1e-6 per bin
        scores = np.random.default_rng(123).random(10_000)
        rdc = build_rdc(scores, bin_count=100)
        assert rdc.counts.min() >= 50 and rdc.counts.max() <= 150
        assert rdc.counts.sum() == rdc.n == 10_000

    def test_empty_input(self):
        with pytest.raises(PreconditionError):
            build_rdc([])

    def test_out_of_range_score(self):
        with pytest.raises(PreconditionError):
            build_rdc([0.5, 1.5])

    def test_edges_span_unit_interval(self):
        rdc = build_rdc([0.3], bin_count=7)
        assert rdc.edges[0] == 0.0 and rdc.edges[-1] == 1.0
        assert (np.diff(rdc.edges) > 0).all()


HISTOGRAM_BINS = st.sampled_from([2, 3, 7, 10, 100, 333, 10_000])


@st.composite
def edge_scores(draw, bins: int):
    """Scores on a bin edge k / bins or one ulp either side of it, the ends of [0, 1], and uniform floats."""
    edge = draw(st.integers(0, bins)) / bins
    return draw(
        st.sampled_from([edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 1.0))])
        | st.sampled_from([0.0, -0.0, 5e-324, 1.0, float(np.nextafter(1.0, 0.0))])
        | st.floats(0.0, 1.0)
    )


class TestBuildMatchesNumpyHistogram:
    @given(st.data(), HISTOGRAM_BINS)
    @settings(max_examples=300, deadline=None)
    def test_counts_and_edges_are_np_histograms_bit_for_bit(self, data, bins):
        scores = data.draw(st.lists(edge_scores(bins), min_size=1, max_size=60))
        rdc = build_rdc(scores, bins)
        counts, edges = np.histogram(np.array(scores), bins, range=(0.0, 1.0))
        assert rdc.counts.dtype == np.int64 and rdc.counts.tolist() == counts.tolist()
        assert rdc.edges.tobytes() == edges.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5e-324, float(np.nextafter(1.0, 2.0))])
    def test_a_score_outside_the_unit_interval_is_refused(self, bad):
        with pytest.raises(PreconditionError, match=r"scores must lie in \[0, 1\]"):
            build_rdc([0.0, 0.5, bad, 1.0], 10)


class TestLogView:
    def test_definition(self):
        lv = log_view(Rdc.from_counts([0, 9]))
        assert lv[0] == 0.0
        assert lv[1] == pytest.approx(math.log(10.0))

    def test_equal_counts_equal_outputs(self):
        lv = log_view(Rdc.from_counts([4, 4, 4]))
        assert len(set(lv.tolist())) == 1

    @given(counts_arrays)
    def test_preserves_argmax_and_order(self, counts):
        rdc = Rdc.from_counts(counts)
        lv = log_view(rdc)
        assert int(np.argmax(lv)) == int(np.argmax(rdc.counts))
        assert np.array_equal(np.argsort(lv, kind="stable"), np.argsort(rdc.counts, kind="stable"))


class TestSmooth:
    def test_window_one_is_identity(self):
        rdc = Rdc.from_counts([1, 5, 2, 2])
        sm = smooth(rdc, window=1)
        assert np.array_equal(sm.heights, rdc.frequencies)
        assert sm.roughness == 0.0

    def test_edge_truncation_rule(self):
        # raw means of [0,1,0] with window 3: [1/2, 1/3, 1/2]; renormalized by 3/4
        sm = smooth(Rdc.from_counts([0, 1, 0]), window=3)
        assert sm.heights == pytest.approx([0.375, 0.25, 0.375])
        assert sm.roughness == pytest.approx(0.375 + 0.75 + 0.375)

    def test_constant_histogram_has_zero_roughness(self):
        for window in (1, 3, 5):
            sm = smooth(Rdc.from_counts([7] * 9), window=window)
            assert sm.roughness == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("window", [0, 2, 4, 101])
    def test_invalid_window(self, window):
        with pytest.raises(PreconditionError):
            smooth(Rdc.from_counts([1] * 100), window=window)

    @given(counts_arrays, windows)
    def test_mass_conservation(self, counts, window):
        rdc = Rdc.from_counts(counts)
        if window > rdc.bin_count:
            window = rdc.bin_count if rdc.bin_count % 2 == 1 else rdc.bin_count - 1
        sm = smooth(rdc, window=window)
        assert abs(sm.heights.sum() - 1.0) < 1e-9
        assert sm.roughness >= 0.0


class TestDetectModes:
    def test_bimodal_mixture_structure(self):
        sm = smooth(build_rdc(bimodal_scores(10_000, 0)), window=5)
        modes = detect_modes(sm, prominence_min=0.10)
        assert len(modes) == 2
        left, right = modes
        assert 0.0 <= left.location <= 0.3
        assert 0.7 <= right.location <= 1.0

    def test_strictly_increasing_single_mode_at_last_bin(self):
        sm = smooth(Rdc.from_counts(list(range(1, 11))), window=1)
        modes = detect_modes(sm)
        assert len(modes) == 1
        assert modes[0].bin_index == 9

    def test_spike_on_flat_background(self):
        counts = np.ones(100, dtype=int)
        counts[37] = 100
        modes = detect_modes(smooth(Rdc.from_counts(counts), window=1))
        assert [m.bin_index for m in modes] == [37]

    def test_plateau_collapses_to_center(self):
        modes = detect_modes(smooth(Rdc.from_counts([0, 5, 5, 5, 0]), window=1))
        assert [m.bin_index for m in modes] == [2]

    def test_modes_sorted_and_masses_partition(self):
        sm = smooth(build_rdc(bimodal_scores(10_000, 7)), window=5)
        modes = detect_modes(sm)
        locations = [m.location for m in modes]
        assert locations == sorted(locations)
        assert sum(m.mass for m in modes) == pytest.approx(1.0, abs=1e-9)
        assert all(m.prominence >= 0 for m in modes)


class TestDiagnose:
    def test_central_unimodal(self):
        diag = diagnose(build_rdc(central_scores(10_000, 0)))
        assert diag.pattern is RdcPattern.CENTRAL_UNIMODAL
        assert diag.threshold_band is None

    def test_extreme_spike(self):
        diag = diagnose(build_rdc(spike_scores(10_000, 0)))
        assert diag.pattern is RdcPattern.EXTREME_SPIKE
        assert diag.evidence["spike_share"] >= 0.25
        assert diag.evidence["spike_bin"] == 0

    def test_healthy_bimodal_with_band(self):
        diag = diagnose(build_rdc(bimodal_scores(10_000, 0)))
        assert diag.pattern is RdcPattern.HEALTHY_BIMODAL
        assert diag.threshold_band is not None
        assert diag.threshold_band.lower < 0.5 < diag.threshold_band.upper

    def test_noisy_from_uniform_count_draws(self):
        counts = np.random.default_rng(5).integers(0, 5, size=100)
        diag = diagnose(Rdc.from_counts(counts))
        assert diag.pattern is RdcPattern.NOISY
        assert diag.evidence["roughness"] > DEFAULT_DIAGNOSIS.roughness_max

    def test_noisy_from_sparse_uniform_sample(self):
        diag = diagnose(build_rdc(noise_scores(0, 200)))
        assert diag.pattern is RdcPattern.NOISY

    def test_too_few_samples(self):
        with pytest.raises(PreconditionError, match="at least 100"):
            diagnose(build_rdc([0.5] * 99))

    def test_evidence_carries_measurements(self):
        diag = diagnose(build_rdc(bimodal_scores(5_000, 2)))
        for key in ("roughness", "spike_share", "modes", "n"):
            assert key in diag.evidence

    def test_band_present_iff_bimodal(self):
        for gen, seed in ((bimodal_scores, 4), (central_scores, 4), (spike_scores, 4)):
            diag = diagnose(build_rdc(gen(10_000, seed)))
            assert (diag.threshold_band is not None) == (diag.pattern is RdcPattern.HEALTHY_BIMODAL)


class TestThresholdBand:
    def test_symmetric_mixture_band_centers_near_half(self):
        diag = diagnose(build_rdc(bimodal_scores(10_000, 1)))
        band = diag.threshold_band
        assert band is not None
        assert 0.45 <= band.recommended <= 0.55
        assert band.lower <= band.recommended <= band.upper

    def test_two_delta_spikes_band_spans_the_gap(self):
        scores = np.concatenate([np.full(500, 0.105), np.full(500, 0.905)])
        diag = diagnose(build_rdc(scores))
        assert [m["bin_index"] for m in diag.evidence["modes"]] == [10, 90]
        band = diag.threshold_band
        # smoothing spreads each spike over two neighbor bins; the zero-height
        # floor runs from bin 13 through bin 87
        assert band.lower == pytest.approx(0.13)
        assert band.upper == pytest.approx(0.88)
        assert band.recommended == pytest.approx(0.505)

    def test_band_inside_open_mode_interval(self):
        for seed in range(5):
            rdc = build_rdc(bimodal_scores(10_000, seed))
            diag = diagnose(rdc)
            assert diag.pattern is RdcPattern.HEALTHY_BIMODAL
            locations = [m["location"] for m in diag.evidence["modes"]]
            band = diag.threshold_band
            assert locations[0] < band.lower <= band.upper < locations[-1]
            assert 0.0 < band.lower and band.upper < 1.0


class TestOneVsRest:
    def test_groups_by_class(self):
        records = []
        for label in ("a", "b", "c"):
            records += score_records(np.full(100, 0.5), class_label=label)
        charts = one_vs_rest(ScoreColumns.from_records(records))
        assert sorted(charts) == ["a", "b", "c"]
        assert all(chart.n == 100 for chart in charts.values())

    def test_single_class_matches_plain_build(self):
        scores = central_scores(500, 9)
        records = score_records(scores, class_label="only")
        charts = one_vs_rest(ScoreColumns.from_records(records))
        assert np.array_equal(charts["only"].counts, build_rdc(scores).counts)

    def test_disjoint_supports_diagnose_independently(self):
        low = score_records(np.random.default_rng(1).uniform(0.0, 0.2, 300), class_label="a")
        high = score_records(np.random.default_rng(2).uniform(0.8, 1.0, 300), class_label="b")
        charts = one_vs_rest(ScoreColumns.from_records(low + high))
        solo_a = diagnose(build_rdc([r.score for r in low]))
        assert diagnose(charts["a"]).pattern is solo_a.pattern

    def test_missing_class_label(self):
        with pytest.raises(PreconditionError, match="class label"):
            one_vs_rest(ScoreColumns.from_records(score_records([0.5, 0.6])))

    def test_charts_by_model_in_key_order(self):
        records = score_records(np.full(100, 0.5), model_id="b") + score_records(np.full(30, 0.2), model_id="a")
        charts = charts_by(ScoreColumns.from_records(records), "model_id", 10)
        assert list(charts) == ["a", "b"]
        assert (charts["a"].n, charts["b"].n) == (30, 100)
        assert charts["a"].bin_count == charts["b"].bin_count == 10


class TestDiagnoseOrSkip:
    def test_too_small_chart_gives_the_reason(self):
        assert diagnose_or_skip(build_rdc(np.full(50, 0.5))) == "need at least 100 samples, got 50"
        assert diagnose_or_skip(build_rdc(np.full(50, 0.5)), DiagnosisConfig(min_samples=50)).pattern is not None

    def test_large_enough_chart_is_diagnosed(self):
        rdc = build_rdc(bimodal_scores(1000, 0))
        assert diagnose_or_skip(rdc) == diagnose(rdc)

    def test_other_precondition_errors_still_raise(self):
        with pytest.raises(PreconditionError, match="window"):
            diagnose_or_skip(build_rdc(bimodal_scores(1000, 0), 3), DiagnosisConfig(window=5))


class TestDistance:
    def test_identity(self):
        a = Rdc.from_counts([5, 5, 0])
        b = Rdc.from_counts([10, 10, 0])  # same normalized shape
        assert rdc_distance(a, b) == 0.0

    def test_disjoint_supports(self):
        a = Rdc.from_counts([10, 0])
        b = Rdc.from_counts([0, 10])
        assert rdc_distance(a, b) == 1.0

    def test_incompatible_binning(self):
        with pytest.raises(PreconditionError, match="binning"):
            rdc_distance(Rdc.from_counts([1, 1]), Rdc.from_counts([1, 1, 1]))

    @given(st.tuples(counts_arrays, counts_arrays, counts_arrays))
    @settings(max_examples=60)
    def test_metric_axioms(self, triple):
        size = min(len(c) for c in triple)
        a, b, c = (Rdc.from_counts(np.asarray(counts[:size]) + 1) for counts in triple)
        dab, dba = rdc_distance(a, b), rdc_distance(b, a)
        assert dab == dba
        assert 0.0 <= dab <= 1.0
        assert rdc_distance(a, a) == 0.0
        assert rdc_distance(a, c) <= dab + rdc_distance(b, c) + 1e-12


class TestInvariance:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_duplicating_samples_changes_nothing(self, k):
        scores = bimodal_scores(2_000, 3)
        base = diagnose(build_rdc(scores))
        dup = diagnose(build_rdc(np.repeat(scores, k)))
        assert dup.pattern is base.pattern
        assert [m["location"] for m in dup.evidence["modes"]] == [
            m["location"] for m in base.evidence["modes"]
        ]
        assert dup.threshold_band == base.threshold_band

    def test_determinism_bit_identical(self):
        scores = bimodal_scores(5_000, 8)
        r1, r2 = build_rdc(scores), build_rdc(scores)
        assert np.array_equal(r1.counts, r2.counts) and r1.n == r2.n
        s1, s2 = smooth(r1), smooth(r2)
        assert np.array_equal(s1.heights, s2.heights) and s1.roughness == s2.roughness
        m1, m2 = detect_modes(s1), detect_modes(s2)
        assert m1 == m2
        d1, d2 = diagnose(r1), diagnose(r2)
        assert d1.pattern is d2.pattern and d1.evidence == d2.evidence
        assert d1.threshold_band == d2.threshold_band


def test_config_thresholds_are_overridable():
    config = DiagnosisConfig(min_samples=10)
    diag = diagnose(build_rdc([0.5] * 50), config)
    assert diag.pattern in (RdcPattern.CENTRAL_UNIMODAL, RdcPattern.EXTREME_SPIKE)


class TestArrayFieldsCompareByValue:
    def test_equal_charts_compare_equal(self):
        assert build_rdc(np.full(10, 0.5)) == build_rdc(np.full(10, 0.5))
        assert smooth(build_rdc(np.full(10, 0.5)), 3) == smooth(build_rdc(np.full(10, 0.5)), 3)

    def test_one_differing_array_compares_unequal(self):
        a = Rdc.from_counts([1, 2, 3, 4])
        assert a != Rdc(a.edges, np.array([1, 2, 4, 3]), a.n)
        assert a != Rdc(np.array([0.0, 0.3, 0.5, 0.75, 1.0]), a.counts, a.n)
        sm = smooth(a, 3)
        assert sm != SmoothedRdc(a, 3, sm.heights[::-1], sm.roughness)
        assert sm != smooth(Rdc.from_counts([1, 2, 4, 3]), 3)


def _reference_smooth(rdc: Rdc, window: int) -> SmoothedRdc:
    """``smooth`` as one slice mean per bin, the definition the vectorised form must match bit for bit."""
    freqs = rdc.frequencies
    if window == 1:
        return SmoothedRdc(rdc, window, freqs, 0.0)
    half, k = window // 2, rdc.bin_count
    averaged = np.empty(k)
    for i in range(k):
        averaged[i] = freqs[max(i - half, 0) : min(i + half + 1, k)].mean()
    heights = averaged / averaged.sum()
    return SmoothedRdc(rdc, window, heights, float(np.abs(freqs - heights).sum()))


def _reference_plateau_maxima(h: np.ndarray) -> list[int]:
    out, k, i = [], len(h), 0
    while i < k:
        j = i
        while j + 1 < k and h[j + 1] == h[i]:
            j += 1
        if (i == 0 or h[i - 1] < h[i]) and (j == k - 1 or h[j + 1] < h[i]):
            out.append((i + j) // 2)
        i = j + 1
    return out


def _reference_prominence(h: np.ndarray, peak: int) -> float:
    bases = []
    for step in (-1, 1):
        i, base = peak + step, None
        while 0 <= i < len(h):
            if h[i] > h[peak]:
                break
            base = h[i] if base is None else min(base, h[i])
            i += step
        if base is not None:
            bases.append(base)
    return float(h[peak]) if not bases else float(h[peak] - max(bases))


def _reference_detect_modes(smoothed: SmoothedRdc, prominence_min: float = 0.10) -> tuple[Mode, ...]:
    """``detect_modes`` walking the ndarray of heights one element at a time."""
    h, centers = smoothed.heights, smoothed.base.centers
    cutoff = prominence_min * float(h.max())
    peaks = []
    for p in _reference_plateau_maxima(h):
        prom = _reference_prominence(h, p)
        if prom >= cutoff and prom > 0.0:
            peaks.append((p, prom))
    bounds = [a + 1 + int(np.argmin(h[a + 1 : b])) for (a, _), (b, _) in zip(peaks, peaks[1:])]
    modes = []
    for idx, (p, prom) in enumerate(peaks):
        start = 0 if idx == 0 else bounds[idx - 1] + 1
        end = len(h) - 1 if idx == len(peaks) - 1 else bounds[idx]
        modes.append(Mode(p, float(centers[p]), float(h[p]), prom, float(h[start : end + 1].sum()), (start, end)))
    return tuple(modes)


@st.composite
def run_counts(draw, max_bins=200):
    """Per-bin counts of 2..max_bins bins built from runs, so plateaus and zero stretches are common."""
    bins = draw(st.integers(2, max_bins))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 40) | st.just(0) | st.integers(0, 10**6), st.integers(1, 30)),
            min_size=1,
            max_size=40,
        )
    )
    counts = [value for value, length in runs for _ in range(length)][:bins]
    counts += [0] * (bins - len(counts))
    if not any(counts):
        counts[draw(st.integers(0, bins - 1))] = 1
    return counts


@st.composite
def spike_over_floor(draw, max_bins=200):
    """Per-bin counts of a uniform floor of a few scores a bin under one tall bin, as a spike window reads."""
    bins = draw(st.integers(2, max_bins))
    counts = draw(st.lists(st.integers(0, 4), min_size=bins, max_size=bins))
    counts[draw(st.integers(0, bins - 1))] += draw(st.integers(1, 200))
    return counts


def odd_windows(bins: int):
    """Odd windows 1..31 that fit in ``bins``."""
    return st.integers(0, min(15, (bins - 1) // 2)).map(lambda k: 2 * k + 1)


class TestVectorisedAgainstReference:
    @given(run_counts(), st.data())
    @settings(max_examples=500, deadline=None)
    def test_smooth_matches_slice_means_bit_for_bit(self, counts, data):
        rdc = Rdc.from_counts(counts)
        window = data.draw(odd_windows(rdc.bin_count))
        got, want = smooth(rdc, window), _reference_smooth(rdc, window)
        assert np.array_equal(got.heights, want.heights)
        assert got.roughness == want.roughness

    @given(run_counts() | spike_over_floor(), st.data(), st.sampled_from([0.0, 0.05, 0.10, 0.3, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_modes_and_diagnosis_match_the_element_walk(self, counts, data, prominence_min):
        rdc = Rdc.from_counts(counts)
        window = data.draw(odd_windows(rdc.bin_count))
        smoothed = smooth(rdc, window)
        assert repr(detect_modes(smoothed, prominence_min)) == repr(_reference_detect_modes(smoothed, prominence_min))
        config = DiagnosisConfig(window=window, prominence_min=prominence_min, min_samples=1)
        got = diagnose(rdc, config)
        with mock.patch.object(rdc_module, "smooth", _reference_smooth), mock.patch.object(
            rdc_module, "detect_modes", _reference_detect_modes
        ):
            want = diagnose(rdc, config)
        assert (got.pattern, repr(got.evidence), got.threshold_band) == (
            want.pattern,
            repr(want.evidence),
            want.threshold_band,
        )
