import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import get_window

from respiradar import RateSeries, StftParams, compare_rates, extract_rate, stft
from respiradar.errors import EmptyBandError, NoOverlapError, TraceTooShortError
from respiradar import spectral
from respiradar.spectral import (
    RateComparison,
    Spectrogram,
    comparison_to_json,
    cosine_window,
    rate_series_from_csv,
    rate_series_to_csv,
    spectrogram_to_csv,
)


def tone(freq_hz, duration_s, rate_hz=20.0, amplitude=1.0):
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return amplitude * np.sin(2 * np.pi * freq_hz * t), t


# --- parameters ----------------------------------------------------------------


def test_default_params_give_1bpm_bins_and_1_sample_hop():
    assert StftParams().samples(20.0) == (1200, 1)
    spec = stft(np.zeros(1200), 20.0)
    np.testing.assert_allclose(spec.freq_axis_bpm, np.arange(601.0), rtol=0, atol=1e-9)


def test_param_validation():
    with pytest.raises(ValueError):
        StftParams(overlap_s=60.0)  # overlap must stay below the window
    with pytest.raises(ValueError):
        StftParams(window_shape="hamming")
    with pytest.raises(ValueError, match="hop must be at least one sample"):
        StftParams(window_s=60.0, overlap_s=59.99999).samples(20.0)  # hop rounds to zero


@pytest.mark.parametrize("window_s", [np.inf, np.nan, 0.0, -1.0])
def test_params_reject_window_that_is_not_positive_and_finite(window_s):
    with pytest.raises(ValueError):
        StftParams(window_s=window_s, overlap_s=0.0)


@pytest.mark.parametrize("rate_hz", [0.0, -20.0, np.inf, np.nan])
def test_samples_rejects_rate_that_is_not_positive_and_finite(rate_hz):
    with pytest.raises(ValueError, match="sample rate must be positive and finite"):
        StftParams().samples(rate_hz)
    with pytest.raises(ValueError, match="sample rate must be positive and finite"):
        stft(np.zeros(2400), rate_hz)


def test_samples_checks_whole_window_at_the_given_rate():
    params = StftParams(window_s=60.025, overlap_s=59.975)
    assert params.samples(40.0) == (2401, 2)
    with pytest.raises(ValueError, match="whole number of samples"):
        params.samples(20.0)


def test_reduced_window_params():
    assert StftParams(window_s=30.0, overlap_s=29.5).samples(20.0) == (600, 10)
    spec = stft(np.zeros(600), 20.0, StftParams(window_s=30.0, overlap_s=29.5))
    np.testing.assert_allclose(spec.freq_axis_bpm, np.arange(0.0, 601.0, 2.0), rtol=0, atol=1e-9)


# --- stft ------------------------------------------------------------------------


def test_stft_frame_count_and_axes():
    x, _ = tone(0.25, 360.0)
    spec = stft(x, 20.0, StftParams())
    assert spec.magnitudes.shape[0] == (7200 - 1200) // 1 + 1 == 6001
    assert spec.freq_axis_bpm[0] == 0.0
    assert spec.freq_axis_bpm[-1] == 600.0
    assert np.allclose(np.diff(spec.freq_axis_bpm), 1.0)
    assert not spec.is_signed


def test_stft_pure_tone_argmax_at_15bpm():
    x, _ = tone(0.25, 360.0)
    spec = stft(x, 20.0)
    assert np.all(np.argmax(spec.magnitudes, axis=1) == 15)


def test_stft_zero_trace():
    spec = stft(np.zeros(2000), 20.0)
    assert np.allclose(spec.magnitudes, 0.0)


def test_stft_trace_too_short():
    with pytest.raises(TraceTooShortError):
        stft(np.zeros(1199), 20.0)


def test_stft_reads_the_rate_it_is_given():
    # 0.25 Hz at 25 Hz: a 1500-sample window, still 1 bpm bins, peak at 15 bpm
    x, _ = tone(0.25, 120.0, rate_hz=25.0)
    spec = stft(x, 25.0)
    np.testing.assert_allclose(spec.freq_axis_bpm, np.arange(751.0), rtol=0, atol=1e-9)
    assert np.all(np.argmax(spec.magnitudes, axis=1) == 15)
    assert spec.time_axis_s[0] == pytest.approx(30.0 - 0.5 / 25.0)


def test_stft_complex_signed_axis():
    t = np.arange(2400) / 20.0
    spec = stft(np.exp(1j * 2 * np.pi * 0.25 * t), 20.0)
    assert spec.is_signed
    assert spec.freq_axis_bpm[0] == -600.0
    assert spec.freq_axis_bpm[-1] == 599.0
    peak_bpm = spec.freq_axis_bpm[np.argmax(spec.magnitudes, axis=1)]
    assert np.all(peak_bpm == 15.0)


def stft_reference(trace, params):
    """The serial loop stft ran before its batches went to a thread pool:
    2048 windows a batch, and an fftshift copy of the complex spectrum."""
    x = np.asarray(trace)
    complex_input = np.iscomplexobj(x)
    length, hop = params.samples(20.0)
    segments = sliding_window_view(x, length)[::hop]
    out = []
    for lo in range(0, segments.shape[0], 2048):
        block = segments[lo : lo + 2048].astype(np.complex128 if complex_input else np.float64)
        block -= block.mean(axis=1, keepdims=True)
        block *= cosine_window(params.window_shape, length, periodic=True)
        if complex_input:
            spectrum = np.fft.fftshift(np.fft.fft(block, axis=1), axes=1)
        else:
            spectrum = np.fft.rfft(block, axis=1)
        out.append(np.abs(spectrum))
    return np.concatenate(out)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "params, n_samples, fft_chunk",
    [
        (StftParams(), 7200, spectral._FFT_CHUNK),  # 1200-sample window, 6001 windows
        (StftParams(window_s=30.05, overlap_s=30.0), 3000, spectral._FFT_CHUNK),  # 601, 2400
        (StftParams(window_s=3.05, overlap_s=2.0, window_shape="hann"), 542, 7),  # 61, hop 21, 23
    ],
    ids=["even", "odd", "hop21"],
)
def test_stft_does_not_depend_on_worker_count(monkeypatch, fast_thread_switching, workers,
                                              complex_input, params, n_samples, fft_chunk):
    rng = np.random.default_rng(11)
    trace = rng.standard_normal(n_samples)
    if complex_input:
        trace = trace + 1j * rng.standard_normal(n_samples)
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_FFT_CHUNK", fft_chunk)
    length, hop = params.samples(20.0)
    n_windows = (n_samples - length) // hop + 1
    assert n_windows % max(1, fft_chunk // workers) != 0  # a short last batch
    assert np.array_equal(stft(trace, 20.0, params).magnitudes, stft_reference(trace, params))


def test_rectangular_window_bin_centred_single_bin():
    x, _ = tone(0.25, 120.0)
    spec = stft(x, 20.0, StftParams(window_shape="rectangular"))
    row = spec.magnitudes[0]
    peak = row[15]
    others = np.delete(row, 15)
    assert others.max() / peak < 1e-6


def test_blackman_widens_lobe_but_keeps_argmax():
    x, _ = tone(0.25, 120.0)
    rect = stft(x, 20.0, StftParams(window_shape="rectangular"))
    blackman = stft(x, 20.0, StftParams(window_shape="blackman"))
    assert np.argmax(blackman.magnitudes[0]) == np.argmax(rect.magnitudes[0]) == 15
    width = lambda row: np.sum(row > row.max() * 0.01)
    assert width(blackman.magnitudes[0]) > width(rect.magnitudes[0])


@pytest.mark.parametrize("n", [1, 2, 21, 256, 1200])
@pytest.mark.parametrize("shape,scipy_name", [
    ("blackman", "blackman"), ("hann", "hann"), ("rectangular", "boxcar"),
])
def test_windows_match_scipy(shape, scipy_name, n):
    for periodic in (True, False):
        np.testing.assert_array_equal(
            cosine_window(shape, n, periodic=periodic),
            get_window(scipy_name, n, fftbins=periodic),
        )


def test_segment_mean_removal_suppresses_dc():
    x, _ = tone(0.25, 120.0, amplitude=0.2)
    spec = stft(x + 5.0, 20.0)  # large offset
    assert np.all(np.argmax(spec.magnitudes, axis=1) == 15)


# --- extract_rate -----------------------------------------------------------------


def test_extract_rate_constant_15():
    x, _ = tone(0.25, 200.0)
    rates = extract_rate(stft(x, 20.0))
    assert np.all(rates.rates_bpm == 15.0)
    assert rates.times_s.size == rates.magnitudes.size


def test_extract_rate_prefers_fundamental_over_half_amplitude_harmonic():
    t = np.arange(4000) / 20.0
    x = np.sin(2 * np.pi * 0.2 * t) + 0.5 * np.sin(2 * np.pi * 0.4 * t)  # 12 + 24 bpm
    rates = extract_rate(stft(x, 20.0))
    assert np.all(rates.rates_bpm == 12.0)


def test_extract_rate_tie_breaks_to_band_low_edge():
    spec = Spectrogram(
        magnitudes=np.ones((4, 601)),
        freq_axis_bpm=np.arange(601.0),
        time_axis_s=np.arange(4.0),
    )
    rates = extract_rate(spec, (6.0, 60.0))
    assert np.all(rates.rates_bpm == 6.0)


def test_extract_rate_band_outside_axis():
    spec = Spectrogram(
        magnitudes=np.ones((2, 601)),
        freq_axis_bpm=np.arange(601.0),
        time_axis_s=np.arange(2.0),
    )
    with pytest.raises(EmptyBandError):
        extract_rate(spec, (700.0, 800.0))


def test_extract_rate_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    spec = stft(x, 20.0)
    base = extract_rate(spec)
    scaled = Spectrogram(spec.magnitudes * 123.4, spec.freq_axis_bpm, spec.time_axis_s)
    again = extract_rate(scaled)
    assert np.array_equal(base.rates_bpm, again.rates_bpm)


@pytest.mark.parametrize("bpm", [8, 10, 15, 20, 30])
def test_frequency_calibration_integer_bpm(bpm):
    x, _ = tone(bpm / 60.0, 150.0)
    rates = extract_rate(stft(x, 20.0))
    assert np.all(rates.rates_bpm == bpm)


def test_frequency_calibration_half_bin():
    x, _ = tone(12.5 / 60.0, 150.0)
    rates = extract_rate(stft(x, 20.0))
    assert np.all(np.abs(rates.rates_bpm - 12.5) <= 0.5)


def test_rate_step_crossed_within_half_window():
    # phase-continuous 12 -> 20 bpm switch at t0
    rate_hz, t0, duration = 20.0, 300.0, 600.0
    t = np.arange(int(duration * rate_hz)) / rate_hz
    freq = np.where(t < t0, 0.2, 1.0 / 3.0)
    phase = 2 * np.pi * np.cumsum(freq) / rate_hz
    rates = extract_rate(stft(np.sin(phase), 20.0))
    below = rates.times_s[rates.rates_bpm <= 13.0]
    above = rates.times_s[rates.rates_bpm >= 19.0]
    crossing_lo = below.max()
    crossing_hi = above.min()
    assert t0 - 30.0 <= crossing_lo <= t0 + 30.0
    assert t0 - 30.0 <= crossing_hi <= t0 + 30.0


def test_extract_rate_complex_band_on_magnitude():
    t = np.arange(2400) / 20.0
    x = np.exp(-1j * 2 * np.pi * 0.25 * t)  # negative 15 bpm line only
    rates = extract_rate(stft(x, 20.0))
    assert np.all(rates.rates_bpm == 15.0)


# --- the signed readout: harmonic comb of the folded spectrum ------------------------


def signed_axis(n, rate_hz=20.0):
    """stft's bpm axis for an n-sample complex window: 1 bpm bins for 1200 at 20 Hz."""
    return np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / rate_hz)) * 60.0


def signed_spectrogram(plus, minus=None, n=1200, instants=3, base=0.0):
    """|S| at each signed bin: plus[k] at +k, minus[k] at -k (plus again if
    None), base elsewhere, the same at every instant."""
    row = np.full(n, base)
    for levels, sign in ((plus, 1), (plus if minus is None else minus, -1)):
        for k, level in levels.items():
            row[(n // 2 + sign * k) % n] = level
    return Spectrogram(np.tile(row, (instants, 1)), signed_axis(n), np.arange(float(instants)))


def comb_reference(spec, band):
    """The signed readout as its docstring states it, one instant and one
    candidate at a time, with its sums formed in the same order."""
    axis = spec.freq_axis_bpm
    n = axis.size
    ny = n // 2
    candidates = sorted({abs(i - ny) for i in range(n) if band[0] <= abs(axis[i]) <= band[1]})
    rates, magnitudes = [], []
    for row in spec.magnitudes:
        def fold(k):
            k = abs(k)
            return 0.0 if k > ny else row[ny - k] + row[(ny + k) % n]

        median = np.median([fold(c) for c in candidates])
        best, best_score = None, -np.inf
        for c in candidates:
            score = 0.0
            for h in range(1, spectral._COMB_HARMONICS + 1):
                mid = (2 * h - 1) * c
                score -= fold(mid // 2) + fold((mid + 1) // 2)
                score += fold(h * c) + fold(h * c)
            level = fold(c)
            if level >= fold(c - 1) and level >= fold(c + 1) and level > spectral._COMB_FLOOR * median:
                if score > best_score:
                    best, best_score = c, score
        if best is None:
            best = max(candidates, key=lambda c: (fold(c), -c))
        rates.append(abs(axis[ny - best]))
        magnitudes.append(max(row[(ny + best) % n], row[ny - best]))
    return np.array(rates), np.array(magnitudes)


@pytest.mark.parametrize("n, band_bins", [
    (n, band) for n in (8, 9, 16, 17, 64, 1200) for band in ((0, 3), (1, 2), (2, 4), (3, 8), (6, 60))
    if band[0] <= n // 2  # the band starts on the axis
] + [
    # the shortest axes and an odd one as long as the README's; then one-bin bands
    (n, band) for n in (3, 4, 1201) for band in ((0, 3), (1, 2), (2, 4), (3, 8), (6, 60))
    if band[0] <= n // 2
] + [(n, band) for n in (3, 4, 8, 9, 1200, 1201) for band in sorted({(0, 0), (1, 1), (n // 2, n // 2)})])
def test_signed_readout_matches_its_definition(n, band_bins):
    # small integer levels: every sum is exact, and ties and flat runs are common
    band = tuple(float(b) * signed_axis(n)[n // 2 + 1] for b in band_bins)
    rng = np.random.default_rng(n * 100 + band_bins[0])
    levels = rng.integers(0, 4, size=(200, n)).astype(float)
    levels[rng.random((200, n)) < 0.2] *= 10  # lines that clear the floor
    spec = Spectrogram(levels, signed_axis(n), np.arange(200.0))
    rates = extract_rate(spec, band)
    expected_rates, expected_magnitudes = comb_reference(spec, band)
    assert np.array_equal(rates.rates_bpm, expected_rates)
    assert np.array_equal(rates.magnitudes, expected_magnitudes)


def test_signed_readout_reads_the_fundamental_of_a_bessel_comb():
    # the README B instant: e^{j beta sin} at 1 mm holds lines at f, 2f, 3f and 4f
    # of 0.52, 1, 0.72 and 0.34 of the peak, and the argmax read 2f
    plus = {15: 0.52, 30: 1.0, 45: 0.72, 60: 0.34}
    spec = signed_spectrogram(plus, minus={**plus, 15: 0.4}, base=1e-3)
    assert np.all(np.argmax(spec.magnitudes[:, 600:], axis=1) == 30)
    rates = extract_rate(spec)
    assert np.all(rates.rates_bpm == 15.0)
    assert np.all(rates.magnitudes == 0.52)  # the larger of the bins at +-15 bpm


@pytest.mark.parametrize("seed", range(5))
def test_signed_readout_never_reads_half_the_rate_off_noise(seed):
    # a comb at 30 bpm whose 15 bpm bin holds noise only, a local peak of it
    # at some instants: the floor keeps 15 bpm out, though its comb holds
    # the lines at 30 and 60 bpm
    rng = np.random.default_rng(seed)
    spec = signed_spectrogram({30: 1.0, 60: 0.8}, instants=400)
    spec.magnitudes += rng.uniform(0.0, 0.05, spec.magnitudes.shape)
    rates = extract_rate(spec)
    assert np.all(rates.rates_bpm == 30.0)


def test_flat_signed_spectrum_reads_the_band_low_edge():
    spec = Spectrogram(np.ones((4, 1200)), signed_axis(1200), np.arange(4.0))
    assert np.all(extract_rate(spec, (6.0, 60.0)).rates_bpm == 6.0)
    assert np.all(extract_rate(spec, (11.0, 20.0)).rates_bpm == 11.0)


def test_signed_readout_without_a_peak_over_the_floor_reads_the_argmax():
    spec = signed_spectrogram({20: 1.5}, base=1.0)  # 1.5 of a median of 1: under the floor
    assert np.all(extract_rate(spec).rates_bpm == 20.0)


def test_band_edge_is_no_peak_under_a_higher_neighbour_outside_the_band():
    # 15 bpm falls off the line at 14 bpm, outside the band; the weaker line at
    # 30 bpm is the band's only local peak
    spec = signed_spectrogram({14: 1.0, 15: 0.9, 16: 0.5, 30: 0.3}, base=1e-3)
    assert np.all(extract_rate(spec, (15.0, 40.0)).rates_bpm == 30.0)


def test_bin_0_is_one_column_counted_twice():
    # F(0) = 2 |S(0)| = 2 is a peak over F(1) = 1.5 + 0: the band from 0 bpm reads 0
    spec = signed_spectrogram({0: 1.0, 1: 1.5}, minus={0: 1.0})
    rates = extract_rate(spec, (0.0, 3.0))
    assert np.all(rates.rates_bpm == 0.0)
    assert np.all(rates.magnitudes == 1.0)


@pytest.mark.parametrize("n", [16, 17])
def test_nyquist_end_reads_its_bin_and_has_no_harmonics(n):
    # the end bin's only neighbour is below it, and its harmonics lie beyond the
    # axis; for even n the end is the one column of -n/2 bins, counted twice
    end = n // 2
    spec = signed_spectrogram({end: 1.0, end - 1: 0.5}, minus={}, n=n)
    step = signed_axis(n)[end + 1]
    rates = extract_rate(spec, (4 * step, 60.0 * n))
    assert np.all(rates.rates_bpm == end * step)
    assert np.all(rates.magnitudes == 1.0)


@pytest.mark.parametrize("penalty_bin, expected", [(None, 15.0), (22, 16.0), (23, 16.0)])
def test_odd_candidate_midway_level_is_the_mean_of_the_two_bins_around_it(penalty_bin, expected):
    # equal combs at 15 and 16 bpm tie, and the tie reads the lower rate; a
    # level at 22 or at 23 bpm, either side of 15's midway point 22.5, costs
    # 15 half that level and leaves 16's midway points (8, 24, 40, 56) alone
    lines = {c * h: 1.0 for c in (15, 16) for h in range(1, 5)}
    if penalty_bin is not None:
        lines[penalty_bin] = 1.0
    assert np.all(extract_rate(signed_spectrogram(lines)).rates_bpm == expected)


@pytest.mark.parametrize("axis", [[0.0, 2.0, 1.0, 3.0], [3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 2.0],
                                  [0.0, np.nan, 2.0, 3.0]], ids=["unsorted", "descending", "repeated", "nan"])
def test_real_readout_needs_an_ascending_axis(axis):
    spec = Spectrogram(np.ones((2, 4)), np.array(axis), np.arange(2.0))
    with pytest.raises(ValueError, match="ascending frequency axis"):
        extract_rate(spec, (0.0, 3.0))


def test_signed_readout_needs_a_dft_axis():
    spec = Spectrogram(np.ones((2, 5)), np.array([-2.0, -1.0, 0.0, 1.0, 3.0]), np.arange(2.0))
    with pytest.raises(ValueError, match="fftshift-ordered axis"):
        extract_rate(spec, (1.0, 3.0))


@pytest.mark.parametrize("workers, block", [(1, 7), (3, 7), (2, spectral._COMB_BLOCK)])
def test_signed_readout_does_not_depend_on_workers_or_blocks(monkeypatch, fast_thread_switching,
                                                             workers, block):
    rng = np.random.default_rng(5)
    spec = stft(rng.standard_normal(2000) + 1j * rng.standard_normal(2000), 20.0)
    expected = extract_rate(spec)
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_COMB_BLOCK", block)
    rates = extract_rate(spec)
    assert np.array_equal(rates.rates_bpm, expected.rates_bpm)
    assert np.array_equal(rates.magnitudes, expected.magnitudes)


# --- compare_rates -----------------------------------------------------------------


def series(times, rates):
    rates = np.asarray(rates, dtype=float)
    return RateSeries(np.asarray(times, dtype=float), rates, np.ones_like(rates))


def test_compare_identical():
    a = series(np.arange(100) * 0.05, np.full(100, 15.0))
    cmp = compare_rates(a, a)
    assert cmp.mae_bpm == 0.0
    assert cmp.rmse_bpm == 0.0
    assert cmp.within_2bpm_fraction == 1.0
    assert cmp.n_instants == 100


def test_compare_constant_offset():
    t = np.arange(50) * 0.05
    cmp = compare_rates(series(t, np.full(50, 18.0)), series(t, np.full(50, 15.0)))
    assert cmp.mae_bpm == pytest.approx(3.0)
    assert cmp.rmse_bpm == pytest.approx(3.0)
    assert cmp.within_2bpm_fraction == 0.0


def test_compare_no_overlap():
    a = series([0.0, 0.05], [15.0, 15.0])
    b = series([100.0, 100.05], [15.0, 15.0])
    with pytest.raises(NoOverlapError):
        compare_rates(a, b)


def test_compare_nearest_neighbour_gating():
    a = series([0.0, 1.0, 2.0], [10.0, 11.0, 12.0])
    b = series([0.3, 10.0], [10.0, 99.0])
    cmp = compare_rates(a, b)  # only the 0.0 <-> 0.3 pair is within 0.5 s
    assert cmp.n_instants == 1
    assert cmp.mae_bpm == 0.0


def test_compare_radar_against_simulator_truth(config):
    from conftest import breathing_scene
    from respiradar import process_radar_cube, synth_cube
    from respiradar.simulate import scene_truth

    scene = breathing_scene(seed=14)
    cube = synth_cube(scene, config, 120.0)
    radar = process_radar_cube(cube).rates
    times, _, rates = scene_truth(scene, config, 120.0)
    truth = series(times, rates)
    cmp = compare_rates(radar, truth)
    assert cmp.mae_bpm <= 1.0
    assert cmp.within_2bpm_fraction == 1.0


@pytest.mark.parametrize("rates, name", [((1e308, -1e308), "mae_bpm"), ((1e200, 0.0), "rmse_bpm")],
                         ids=["difference-overflows", "square-overflows"])
def test_compare_of_rates_too_far_apart_names_the_metric_without_a_warning(rates, name):
    # the subtraction overflowed with a RuntimeWarning, and inf reached the JSON writer
    a, b = (series([0.0, 0.05], [15.0, rate]) for rate in rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} is inf, not a finite number$"):
            compare_rates(a, b)


def test_comparison_json_single_line():
    a = series(np.arange(10) * 0.05, np.full(10, 15.0))
    text = comparison_to_json(compare_rates(a, a))
    assert "\n" not in text
    assert '"mae_bpm"' in text


def test_comparison_json_has_no_nan_or_infinity():
    # json.dumps wrote NaN and Infinity, which no JSON parser accepts
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            comparison_to_json(RateComparison(mae_bpm=value, rmse_bpm=value, within_2bpm_fraction=0.0,
                                              n_instants=1))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_rate_csv_with_a_non_finite_cell_names_its_column(tmp_path, cell, column):
    path = tmp_path / "rates.csv"
    row = ["1", "15", "0.5"]
    row[column] = cell
    path.write_text(f"{spectral.RATE_CSV_HEADER}\n0,15,0.5\n{','.join(row)}\n", encoding="utf-8")
    name = spectral.RATE_CSV_HEADER.split(",")[column]
    with pytest.raises(ValueError, match=f"rates.csv: column {name} holds {cell}, not a finite number"):
        rate_series_from_csv(path)


@pytest.mark.parametrize("body", ["", "\n", "\n# a comment\n  \n"], ids=["none", "blank", "comment"])
def test_rate_csv_with_only_its_header_holds_no_rates(tmp_path, body, recwarn):
    # loadtxt warned "input contained no data", and the error then blamed the columns
    path = tmp_path / "rates.csv"
    path.write_text(spectral.RATE_CSV_HEADER + "\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match="holds no rates, only its header"):
        rate_series_from_csv(path)
    assert not recwarn.list


def test_rate_series_csv_round_trip(tmp_path):
    a = series(np.arange(10) * 0.05, np.linspace(10, 20, 10))
    path = tmp_path / "rates.csv"
    rate_series_to_csv(a, path)
    back = rate_series_from_csv(path)
    assert np.allclose(back.times_s, a.times_s)
    assert np.allclose(back.rates_bpm, a.rates_bpm)


# --- %.7e CSV writer -----------------------------------------------------------


def savetxt_7e(path, header, table):
    """The reference: what the spectrogram and range-map CSVs must hold."""
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.7e")
    return path.read_bytes()


def write_7e(path, header, table):
    """The writer with the table's first column as its first_column."""
    spectral._write_csv_7e(path, header, table[:, 1:], first_column=table[:, 0])
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.one_of(st.floats(), st.floats(-1e9, 1e9), st.sampled_from([0.0, -0.0])),
    )
)
def test_csv_writer_matches_savetxt_on_any_table(tmp_path_factory, table):
    base = tmp_path_factory.getbasetemp()
    assert write_7e(base / "e7.csv", "h", table) == savetxt_7e(base / "ref.csv", "h", table)


def adversarial_cells():
    """Cells next to every decision the writer makes: powers of ten, exact
    and near ties at the 8th digit, carries into a 9th digit, the edges of
    the exact-scale range, zeros of both signs, subnormals and non-finite;
    and at every exponent the doubles at and either side of the decimal
    midpoints of 8-digit mantissas, which a scale that is not exact rounds
    the wrong way."""
    mantissas = np.random.default_rng(6).integers(10**7, 10**8, 40)
    midpoints = np.array([float(f"{m // 10**7}.{m % 10**7:07d}5e{e}") for e in range(-20, 36) for m in mantissas])
    rng = np.random.default_rng(5)
    powers = 10.0 ** np.arange(-30, 31)
    carries = 9.99999995 * powers
    ties = (rng.integers(10**7, 10**8, 5000) * 10 + 5).astype(float)  # 9 digits ending in 5
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e22, 1e23, 1e-22, 1e-23, 0.5, 0.0001, 99999999.5,
               1.5e-300]
    cells = np.concatenate([
        *(np.nextafter(v, t) for v in (powers, carries) for t in (0.0, np.inf)),
        *(np.nextafter(midpoints, t) for t in (0.0, np.inf)), midpoints,
        powers, carries, *(ties * 2.0**-k for k in range(4)), special,
        rng.standard_normal(20000) * 10.0 ** rng.uniform(-20, 35, 20000),
        np.round(rng.random(5000), 4),
    ])
    return np.concatenate([cells, -cells])


@pytest.mark.parametrize("n_cols", [1, 7, 602, 40000])
def test_csv_writer_matches_savetxt_on_adversarial_cells(tmp_path, n_cols):
    cells = adversarial_cells()
    table = cells[: cells.size // n_cols * n_cols].reshape(-1, n_cols)
    assert write_7e(tmp_path / "e7.csv", "a,b", table) == savetxt_7e(tmp_path / "ref.csv", "a,b", table)


def readme_shaped_spectrogram(signed):
    """A breathing spectrogram with the README's axes: a 20 Hz trace and the
    default 60 s window, so 601 real (or 1200 signed) bins, over 80 s."""
    rng = np.random.default_rng(8)
    t = np.arange(1600) / 20.0
    trace = 1e-3 * np.sin(2 * np.pi * 0.25 * t) + 1e-5 * rng.standard_normal(t.size)
    return stft(np.exp(1j * 40.0 * trace) if signed else trace, 20.0)


@pytest.mark.parametrize("source", ["adversarial", "real", "signed"])
def test_csv_writer_reads_back_the_floats_of_8g_cells(tmp_path, source):
    # '%.7e' and '%.8g' round to the same 8 significant digits, so a cell
    # of either format parses to one double: the format changed, no value did
    if source == "adversarial":
        cells = adversarial_cells()
        table = cells[: cells.size // 7 * 7].reshape(-1, 7)
        write_7e(tmp_path / "e7.csv", "a,b", table)
    else:
        spec = readme_shaped_spectrogram(source == "signed")
        assert spec.magnitudes.shape[1] == (1200 if source == "signed" else 601)
        table = np.column_stack([spec.time_axis_s, spec.magnitudes])
        spectrogram_to_csv(spec, tmp_path / "e7.csv")
    np.savetxt(tmp_path / "g8.csv", table, delimiter=",", header="a,b", comments="", fmt="%.8g")
    written = np.loadtxt(tmp_path / "e7.csv", delimiter=",", skiprows=1)
    as_8g = np.loadtxt(tmp_path / "g8.csv", delimiter=",", skiprows=1)
    assert written.shape == table.shape
    assert np.array_equal(written.view(np.uint64), as_8g.view(np.uint64))  # bit for bit, NaN and -0 too


def test_zero_spectrogram_csv_never_formats_per_cell(tmp_path, monkeypatch):
    spec = stft(np.zeros(2000), 20.0)
    header = "time_s," + ",".join(f"bpm_{f:g}" for f in spec.freq_axis_bpm)
    expected = savetxt_7e(tmp_path / "ref.csv", header, np.column_stack([spec.time_axis_s, spec.magnitudes]))

    def per_cell(values):
        raise AssertionError(f"{values.size} cells took the per-cell path")

    monkeypatch.setattr(spectral, "_printf_7e", per_cell)
    spectrogram_to_csv(spec, tmp_path / "spectrogram.csv")
    assert (tmp_path / "spectrogram.csv").read_bytes() == expected
    signed = write_7e(tmp_path / "signed.csv", "h", np.array([[0.0, -0.0], [-0.0, 0.0]]))
    assert signed == b"h\n0.0000000e+00,-0.0000000e+00\n-0.0000000e+00,0.0000000e+00\n"


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_cols, chunk_cells", [(7, 70), (30, 70), (602, spectral._CSV_CHUNK_CELLS)])
def test_csv_writer_does_not_depend_on_worker_count(tmp_path, monkeypatch, fast_thread_switching,
                                                    workers, n_cols, chunk_cells):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", chunk_cells)
    cells = adversarial_cells()
    table = cells[: cells.size // n_cols * n_cols].reshape(-1, n_cols)
    assert table.shape[0] % max(1, chunk_cells // n_cols) != 0  # a short last batch
    assert write_7e(tmp_path / "e7.csv", "a,b", table) == savetxt_7e(tmp_path / "ref.csv", "a,b", table)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_cols, chunk_cells", [(7, 70), (602, spectral._CSV_CHUNK_CELLS)])
def test_csv_writer_joins_a_first_column_per_batch(tmp_path, monkeypatch, workers, n_cols, chunk_cells):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", chunk_cells)
    cells = adversarial_cells()
    table = cells[: cells.size // n_cols * n_cols].reshape(-1, n_cols)
    first = np.arange(table.shape[0]) * 0.05 + 29.975
    path = tmp_path / "e7.csv"
    spectral._write_csv_7e(path, "a,b", table, first_column=first)
    expected = savetxt_7e(tmp_path / "ref.csv", "a,b", np.column_stack([first, table]))
    assert path.read_bytes() == expected


def edge_cells():
    """The longest cells, those at the ends of the exponent range the tables
    cover, and the cells printf treats apart."""
    longest = [-4.9406564584124654e-324, -2.2250738585072014e-308, -1.7976931348623157e308,
               1.7976931348623157e308, -1.2345678e29, -1.2345678e-15, -0.00012345678,
               -0.00098765432, -1234567.8, -99999999.0, 0.00012345678, -9.9999999e29, 1e-16]
    special = [5e-324, 1e-310, -0.0, 0.0, np.nan, np.inf, -np.inf]
    return np.array(longest + special)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("first_column", [False, True], ids=["table", "first-column"])
def test_csv_writer_edge_cells_in_every_column(tmp_path, monkeypatch, workers, first_column):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", 64)  # several batches per worker
    cells = edge_cells()
    # each row rotates the cells by one, so every cell lands in every column, the last one too
    table = np.array([np.roll(cells, k) for k in range(cells.size)] * 3)
    if not first_column:  # the edge cells in the table only, after a column of times
        table = np.column_stack([np.arange(len(table)) * 0.05 + 29.975, table])
    expected = savetxt_7e(tmp_path / "ref.csv", "a,b", table)
    assert write_7e(tmp_path / "e7.csv", "a,b", table) == expected
    assert b"-4.9406565e-324," in expected and b"-1.7976931e+308\n" in expected
    assert b"-1.2345678e-04," in expected and b"-1.2345678e+29\n" in expected
    assert b"-9.9999999e+29," in expected and b"1.0000000e-16\n" in expected
    # 8 columns make 8-row batches, which alternate: nonnegative cells only (one strided
    # slice), then cells that hold one sign or per-cell text (the mask), in each cell column
    rng = np.random.default_rng(3)
    batches = []
    for i, cell in enumerate([-1.5, -0.0, np.nan, np.inf, 5e-324, 1e30, 123456785.0]):
        plain, marked = np.round(rng.random((2, 8, 7)) * 10.0 ** rng.integers(-3, 4, (2, 8, 7)), 3)
        marked[(5 * i) % 8, i] = cell
        batches += [plain, marked]
    cells = np.concatenate(batches)
    times = np.arange(len(cells)) * 0.05 + 29.975
    mixed = np.column_stack([cells, times] if first_column else [times, cells])
    assert write_7e(tmp_path / "mixed.csv", "a,b", mixed) == savetxt_7e(tmp_path / "mixed_ref.csv", "a,b", mixed)


def test_format_7e_slices_a_batch_with_no_sign_and_no_per_cell_text():
    cells = np.concatenate([[0.0, 0.0], np.random.default_rng(4).random(98) * 1e3])
    sep = np.full(cells.size, np.uint64(ord(",") << 48))
    fast = spectral._format_7e(cells, sep)
    assert fast.shape == (cells.size, 14) and fast.flags.c_contiguous
    assert fast.tobytes() == b"".join(b"%.7e," % v for v in cells)
    cells[17] = -0.0  # a sign takes the batch to the mask: 14 bytes a cell and its "-"
    masked = spectral._format_7e(cells, sep)
    assert masked.size == 14 * cells.size + 1
    assert masked.tobytes() == b"".join(b"%.7e," % v for v in cells)


def every_class_cells():
    """Cells at every exponent the tables cover, of both signs: one with no
    zero digit, one with zeros inside and one with 7 trailing zeros; and
    both zeros."""
    cells = np.array([float(f"{digits}e{e}") for e in range(spectral._E7_EXP_LO, spectral._E7_EXP_HI + 1)
                      for digits in ("9.7531864", "1.0000003", "1")])
    return np.concatenate([cells, -cells, [0.0, -0.0]])


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_writer_matches_savetxt_on_every_class(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", 256)  # several batches per worker
    cells = every_class_cells()
    # (sign, exponent) of each nonzero cell, from its d.ddddddde+XX form
    classes = {(text[0] == "-", int(text[-3:])) for text in (f"{v:.7e}" for v in cells if v)}
    assert classes == set(itertools.product([False, True], range(spectral._E7_EXP_LO, spectral._E7_EXP_HI + 1)))
    # the per-cell path formats none of them: every cell is built from the tables
    monkeypatch.setattr(spectral, "_printf_7e", lambda values: pytest.fail(f"{values} took the per-cell path"))
    # a second column, the cells rolled by one, puts each cell before both separators
    table = np.column_stack([cells, np.roll(cells, 1)])
    assert write_7e(tmp_path / "e7.csv", "a,b", table) == savetxt_7e(tmp_path / "ref.csv", "a,b", table)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing_block", [None, 0, 5, 12], ids=["none", "0", "5", "12"])
def test_map_blocks_reuses_one_work_object_per_thread_and_sinks_in_order(
        monkeypatch, fast_thread_switching, workers, failing_block):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    made = []  # (thread, work object) for each call of work()
    ran = []  # (block, thread, the work object the block received)

    def work():
        w = object()
        made.append((threading.get_ident(), w))
        return w

    def fn(block, w):
        ran.append((block, threading.get_ident(), w))
        if block.start // 8 == failing_block:
            raise RuntimeError("block failed")
        return list(range(100)[block])

    sunk = []
    threads = threading.active_count()
    if failing_block is None:
        spectral._map_blocks(fn, 100, 8, work=work, sink=sunk.extend)  # 13 blocks, the last of 4
        assert sunk == list(range(100)) and len(ran) == 13
    else:
        with pytest.raises(RuntimeError, match="block failed"):
            spectral._map_blocks(fn, 100, 8, work=work, sink=sunk.extend)
        assert sunk == list(range(8 * failing_block))[: len(sunk)]
    assert threading.active_count() == threads
    owner = dict(made)
    assert len(owner) == len(made) <= workers  # work() ran at most once per thread
    assert all(w is owner[thread] for _, thread, w in ran)
    # without work, each block receives None
    spectral._map_blocks(lambda block, w: ran.append(w), 20, 8)
    assert ran[-3:] == [None] * 3


@pytest.mark.parametrize("failing_batch", [0, 5, 12])
def test_csv_writer_batch_failure_propagates_and_ends_its_threads(tmp_path, monkeypatch,
                                                                  failing_batch):
    calls = itertools.count()
    format_7e = spectral._format_7e

    def format_or_fail(*args):
        if next(calls) == failing_batch:
            raise RuntimeError("batch failed")
        return format_7e(*args)

    monkeypatch.setattr(spectral, "_format_7e", format_or_fail)
    monkeypatch.setattr(spectral, "_worker_count", lambda: 3)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", 64)  # 13 batches of 8 rows
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="batch failed"):
        spectral._write_csv_7e(tmp_path / "e7.csv", "h", np.ones((100, 7)), first_column=np.ones(100))
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers, bound_mb", [(1, 5.84), (2, 10.3)])
def test_csv_writer_memory_stays_per_batch(tmp_path, monkeypatch, workers, bound_mb):
    # each batch allocates its own temporaries; the bounds are the traced peaks on
    # a table of this shape of the writer that kept a set of work arrays per thread
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    rng = np.random.default_rng(9)
    table = sliding_window_view(rng.random(12002 + 1199), 1200)  # rows a cell apart in one vector
    times = np.arange(12002) * 0.05
    spectral._e7_tables()
    peaks = []
    for rows in (6001, 12002):
        tracemalloc.start()
        try:
            spectral._write_csv_7e(tmp_path / "e7.csv", "h", table[:rows], first_column=times[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound_mb * 1e6
    # twice the rows: the peak moves by at most the 16-byte cells of two batches
    # in flight, where a writer that held its output would add tens of MB
    assert peaks[1] <= peaks[0] + 2 * spectral._CSV_CHUNK_CELLS * spectral._E7_CELL_BYTES


# --- %.10g CSV writer ----------------------------------------------------------


def savetxt_10g(path, header, table):
    """The reference: what the rate, phase, envelope and truth CSVs must hold."""
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.10g")
    return path.read_bytes()


@pytest.mark.parametrize("n_cols", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [0, 1, spectral._CSV_10G_ROWS - 1, spectral._CSV_10G_ROWS + 1,
                                    3 * spectral._CSV_10G_ROWS + 5, 6001])
def test_csv_10g_writer_matches_savetxt(tmp_path, n_rows, n_cols):
    rng = np.random.default_rng(n_rows + n_cols)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 1e22, 1e23, 5e-324,
               0.1, 1 / 3, 123456789.0, 1234567890123.0]
    n = n_rows * n_cols
    cells = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
    cells[: len(special)] = special[:n]
    table = rng.permutation(cells).reshape(n_rows, n_cols)
    path = tmp_path / "g10.csv"
    spectral._write_csv_10g(path, "time_s,rate_bpm", table)
    assert path.read_bytes() == savetxt_10g(tmp_path / "ref.csv", "time_s,rate_bpm", table)
