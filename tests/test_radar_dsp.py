import tracemalloc

import numpy as np
import pytest
from scipy.signal import detrend

from conftest import breathing_scene, random_iq_counts, sine_amplitude, static_scene
from respiradar import (
    MotionSpec,
    RadarConfig,
    RadarCube,
    SceneSpec,
    clutter_remove,
    extract_unwrapped_phase,
    load_capture,
    range_fft,
    select_target_bin,
    static_profile,
    synth_cube,
    write_capture,
)
from respiradar import spectral
from respiradar.ingest import IQ_COUNTS
from respiradar.errors import (
    EmptyCubeError,
    TooFewFramesError,
    WindowEmptyError,
    ZeroMagnitudeError,
)
from respiradar.radar_dsp import RangeTimeMap, detrend_linear
from respiradar.spectral import StftParams, extract_rate, stft


def expected_bin(range_m, config):
    return int(round(range_m / config.range_bin_spacing_m))


# --- range_fft ---------------------------------------------------------------


def test_range_fft_zero_cube(config):
    cube = RadarCube(
        config=config,
        data=np.zeros((3, 1, config.samples_per_chirp), IQ_COUNTS),
        frame_timestamps=np.arange(3) / config.frame_rate_hz,
    )
    rmap = range_fft(cube)
    assert rmap.values.shape == (3, config.samples_per_chirp)
    assert np.all(rmap.values == 0)
    assert rmap.bin_spacing_m == config.range_bin_spacing_m


def test_range_fft_empty_cube(config):
    cube = RadarCube(
        config=config,
        data=np.zeros((0, 1, config.samples_per_chirp), IQ_COUNTS),
        frame_timestamps=np.zeros(0),
    )
    with pytest.raises(EmptyCubeError):
        range_fft(cube)


def test_range_fft_point_target_argmax(config):
    cube = synth_cube(static_scene([(0.50, 1.0)]), config, 2.0)
    rmap = range_fft(cube)
    want = expected_bin(0.50, config)
    assert want == 10
    assert np.all(np.argmax(np.abs(rmap.values), axis=1) == want)


def test_range_fft_two_reflectors_two_maxima(config):
    cube = synth_cube(static_scene([(0.5, 1.0), (3.0, 1.0)]), config, 2.0)
    profile = np.mean(np.abs(range_fft(cube).values) ** 2, axis=0)
    for r in (0.5, 3.0):
        k = expected_bin(r, config)
        local = profile[k - 2 : k + 3]
        peak = k - 2 + int(np.argmax(local))
        assert abs(peak - k) <= 1
        assert profile[peak] > 10 * np.median(profile)


def test_range_axis_calibration_sweep(config):
    for r in (0.2, 0.35, 0.5, 0.65):
        cube = synth_cube(static_scene([(r, 1.0)]), config, 1.0)
        rmap = range_fft(cube)
        k = int(np.argmax(np.mean(np.abs(rmap.values) ** 2, axis=0)))
        assert abs(k * rmap.bin_spacing_m - r) <= rmap.bin_spacing_m / 2


def test_load_capture_and_range_fft_peak_below_a_complex_copy_of_the_cube(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "_worker_count", lambda: 2)
    config = RadarConfig(samples_per_chirp=64, chirps_per_frame=4)
    n_frames = 16 * spectral._FRAME_BLOCK
    shape = (n_frames, config.chirps_per_frame, config.samples_per_chirp)
    cube = RadarCube(config=config, data=random_iq_counts(shape, seed=34),
                     frame_timestamps=np.arange(n_frames) / config.frame_rate_hz)
    path = tmp_path / "capture.rvsc"
    write_capture(cube, path)
    del cube
    tracemalloc.start()
    try:
        range_fft(load_capture(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_frames * config.chirps_per_frame * config.samples_per_chirp * 16  # 33.6 MB


# --- static_profile ----------------------------------------------------------


def test_static_profile_constant_map(config):
    values = np.ones((5, 8), dtype=complex) * (2 + 1j)
    rmap = RangeTimeMap(values, 0.05, 20.0, np.arange(5) / 20.0)
    prof = static_profile(rmap)
    assert np.allclose(prof.cov, 0.0)
    assert np.allclose(prof.mean_power_db, 10 * np.log10(5.0))


def test_static_profile_needs_two_frames(config):
    rmap = RangeTimeMap(np.ones((1, 4), dtype=complex), 0.05, 20.0, np.zeros(1))
    with pytest.raises(TooFewFramesError):
        static_profile(rmap)


def test_static_profile_noisy_static_scene(config):
    cube = synth_cube(static_scene([(0.5, 1.0)], snr_db=20.0, seed=31), config, 30.0)
    prof = static_profile(range_fft(cube))
    assert prof.cov[expected_bin(0.5, config)] < 0.15


def test_breathing_raises_cov_over_static(config):
    # same seed so the noise realisation is shared between the paired runs
    static = synth_cube(
        breathing_scene(amplitude_m=0.0, snr_db=20.0, seed=32), config, 30.0
    )
    breathing = synth_cube(
        breathing_scene(amplitude_m=0.003, snr_db=20.0, seed=32), config, 30.0
    )
    k = expected_bin(0.5, config)
    cov_static = static_profile(range_fft(static)).cov[k]
    cov_breathing = static_profile(range_fft(breathing)).cov[k]
    assert cov_breathing > cov_static


# --- select_target_bin --------------------------------------------------------


def test_select_single_target(config):
    cube = synth_cube(static_scene([(0.50, 1.0)]), config, 2.0)
    assert select_target_bin(range_fft(cube)) == 10


def test_select_ignores_stronger_out_of_window(config):
    cube = synth_cube(static_scene([(0.50, 1.0), (3.0, 5.0)]), config, 2.0)
    assert select_target_bin(range_fft(cube)) == 10


def test_select_window_empty(config):
    cube = synth_cube(static_scene([(0.5, 1.0)]), config, 1.0)
    with pytest.raises(WindowEmptyError):
        select_target_bin(range_fft(cube), 0.10, 0.12)


def test_select_scale_invariance(config):
    cube = synth_cube(
        static_scene([(0.3, 1.0), (0.6, 0.8)], snr_db=25.0, seed=4), config, 5.0
    )
    rmap = range_fft(cube)
    k = select_target_bin(rmap)
    scaled = RangeTimeMap(rmap.values * 37.5, rmap.bin_spacing_m, rmap.frame_rate_hz, rmap.frame_times_s)
    assert select_target_bin(scaled) == k


# --- clutter_remove -----------------------------------------------------------


def test_clutter_remove_constant():
    series = np.full(64, 3.0 - 2.0j)
    assert np.allclose(clutter_remove(series), 0.0)


def test_clutter_remove_whole_period_phasor():
    n = np.arange(200)
    series = np.exp(1j * 2 * np.pi * 5 * n / 200)  # 5 whole periods
    assert abs(series.mean()) < 1e-10
    assert np.allclose(clutter_remove(series), series, atol=1e-9)


def test_clutter_removal_unbiases_small_motion(config):
    # breathing target sharing its bin with a much stronger static return
    motion = MotionSpec(base_range_m=0.5, resp_rate_bpm=15.0, resp_amplitude_m=0.0002)
    scene = SceneSpec(
        targets=((motion, 1.0),),
        static_reflectors=((0.5, 5.0),),
        snr_db=35.0,
        seed=8,
    )
    cube = synth_cube(scene, config, 120.0)
    rmap = range_fft(cube)
    series = rmap.bin_series(select_target_bin(rmap))

    with_removal = extract_unwrapped_phase(clutter_remove(series), 20.0)
    without_removal = extract_unwrapped_phase(series, 20.0)

    spec = stft(detrend_linear(with_removal.samples), 20.0, StftParams())
    rates = extract_rate(spec)
    assert np.all(np.abs(rates.rates_bpm - 15.0) <= 1.0)

    amp_with = sine_amplitude(detrend_linear(with_removal.samples))
    amp_without = sine_amplitude(detrend_linear(without_removal.samples))
    assert amp_without < 0.5 * amp_with


# --- extract_unwrapped_phase ----------------------------------------------------


def test_phase_ramp_unwraps_monotonically():
    theta = np.arange(0.0, 4 * np.pi, 0.1)
    trace = extract_unwrapped_phase(np.exp(1j * theta), 20.0)
    assert np.allclose(trace.samples, theta, atol=1e-12)
    assert np.all(np.diff(trace.samples) > 0)


def test_phase_constant_series():
    trace = extract_unwrapped_phase(np.ones(50, dtype=complex), 20.0)
    assert np.allclose(trace.samples, 0.0)


def test_phase_all_zero_series():
    with pytest.raises(ZeroMagnitudeError, match="all zero"):
        extract_unwrapped_phase(np.zeros(10, dtype=complex), 20.0)


def test_wrap_then_unwrap_recovers_any_subpi_sequence():
    rng = np.random.default_rng(12)
    for _ in range(20):
        steps = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6, size=300)
        theta = rng.uniform(-50, 50) + np.cumsum(steps)
        unwrapped = extract_unwrapped_phase(np.exp(1j * theta), 20.0).samples
        offset = unwrapped[0] - theta[0]
        assert abs(offset / (2 * np.pi) - round(offset / (2 * np.pi))) < 1e-9
        assert np.allclose(unwrapped - offset, theta, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 1200, 7200])
def test_detrend_linear_matches_scipy(n):
    rng = np.random.default_rng(n)
    x = 3.0 + 0.01 * np.arange(n) + rng.standard_normal(n).cumsum()
    expected = detrend(x, type="linear")
    np.testing.assert_allclose(detrend_linear(x), expected, rtol=0, atol=1e-12 * np.abs(x).max())


def test_phase_recovery_matches_displacement_oracle(config):
    cube = synth_cube(breathing_scene(seed=1), config, 120.0)
    rmap = range_fft(cube)
    trace = extract_unwrapped_phase(rmap.bin_series(select_target_bin(rmap)), 20.0)
    recovered = detrend_linear(trace.samples)

    beta = 4 * np.pi * 0.001 / config.wavelength_m
    assert beta == pytest.approx(3.23, abs=0.01)
    oracle = detrend_linear(beta * np.sin(2 * np.pi * 0.25 * cube.frame_timestamps))
    assert np.max(np.abs(recovered - oracle)) < 0.05
    assert sine_amplitude(recovered) == pytest.approx(beta, rel=0.02)


def test_phase_amplitude_scales_linearly(config):
    amplitudes = {}
    for alpha in (0.5, 1.0, 2.0):
        cube = synth_cube(
            breathing_scene(amplitude_m=alpha * 0.001, snr_db=40.0, seed=2), config, 60.0
        )
        rmap = range_fft(cube)
        trace = extract_unwrapped_phase(rmap.bin_series(select_target_bin(rmap)), 20.0)
        amplitudes[alpha] = sine_amplitude(detrend_linear(trace.samples))
    base = amplitudes[1.0]
    for alpha in (0.5, 2.0):
        assert amplitudes[alpha] / base == pytest.approx(alpha, rel=0.02)


# --- variant B -----------------------------------------------------------------


def test_variant_b_dominant_pair_and_rate(config):
    cube = synth_cube(breathing_scene(amplitude_m=0.0005, seed=3), config, 180.0)
    rmap = range_fft(cube)
    series = clutter_remove(rmap.bin_series(select_target_bin(rmap)))
    spec = stft(series, 20.0, StftParams())
    assert spec.is_signed

    mean_mag = spec.magnitudes.mean(axis=0)
    axis = spec.freq_axis_bpm
    pos_peak = axis[axis > 0][np.argmax(mean_mag[axis > 0])]
    neg_peak = axis[axis < 0][np.argmax(mean_mag[axis < 0])]
    assert pos_peak == pytest.approx(15.0, abs=1.0)
    assert neg_peak == pytest.approx(-15.0, abs=1.0)

    rates = extract_rate(spec)
    assert np.all(np.abs(rates.rates_bpm - 15.0) <= 1.0)


def test_variants_agree_on_clean_single_target(config):
    from respiradar import process_radar_cube

    cube = synth_cube(breathing_scene(amplitude_m=0.0005, seed=13), config, 180.0)
    rates_a = process_radar_cube(cube, variant="A").rates
    rates_b = process_radar_cube(cube, variant="B").rates
    assert np.all(np.abs(rates_a.rates_bpm - rates_b.rates_bpm) <= 1.0)
