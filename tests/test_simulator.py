import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy.signal import butter, get_window, sosfilt

from conftest import breathing_scene, same_bits, sine_amplitude, static_scene
from respiradar import (
    BreathAudioSpec,
    MotionSpec,
    RadarConfig,
    SceneSpec,
    chest_displacement,
    datagram_stream,
    encode_cube,
    load_capture,
    range_fft,
    reassemble,
    select_target_bin,
    synth_audio,
    synth_cube,
    write_capture,
)
from respiradar import audio_dsp, radar_dsp
from respiradar.errors import DurationTooShortError
from respiradar.audio_dsp import AudioTrace, load_wav, save_wav
from respiradar.ingest import IQ_COUNTS, RadarCube
from respiradar.pipeline import process_audio, process_radar_cube
from respiradar.radar_dsp import detrend_linear, extract_unwrapped_phase
from respiradar.simulate import _burst_filter, beat_planes
from respiradar.spectral import StftParams, extract_rate, stft


# --- chest displacement ---------------------------------------------------------


def test_displacement_zero_amplitude():
    spec = MotionSpec(base_range_m=0.5, resp_rate_bpm=15.0, resp_amplitude_m=0.0)
    t = np.linspace(0, 100, 500)
    assert np.all(chest_displacement(spec, t) == 0.0)


def test_displacement_quarter_period_value():
    spec = MotionSpec(base_range_m=0.5, resp_rate_bpm=15.0, resp_amplitude_m=0.001)
    assert chest_displacement(spec, 1.0) == pytest.approx(0.001)  # sin(pi/2)


def test_displacement_periodicity():
    spec = MotionSpec(
        base_range_m=0.5, resp_rate_bpm=13.0, resp_amplitude_m=0.002, harmonic_2_frac=0.4
    )
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 500, size=100)
    period = 60.0 / 13.0
    assert np.allclose(chest_displacement(spec, t), chest_displacement(spec, t + period))


def test_motion_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(base_range_m=-1.0, resp_rate_bpm=15.0)
    with pytest.raises(ValueError):
        MotionSpec(base_range_m=0.5, resp_rate_bpm=15.0, heart_rate_bpm=60.0)


def test_scene_rejects_ranges_beyond_chamber():
    with pytest.raises(ValueError):
        SceneSpec(static_reflectors=((7.0, 1.0),))


def scene_with(**fields):
    chest = MotionSpec(base_range_m=0.5, resp_rate_bpm=15.0)
    return SceneSpec(**{"targets": ((chest, 1.0),), "static_reflectors": ((3.0, 2.0),),
                        "snr_db": 30.0, **fields})


# one field of a spec or config set to the value; the rest are valid
NON_FINITE_CASES = {
    "motion.base_range_m": lambda v: MotionSpec(base_range_m=v, resp_rate_bpm=15.0),
    "motion.resp_rate_bpm": lambda v: MotionSpec(base_range_m=0.5, resp_rate_bpm=v),
    "motion.resp_amplitude_m": lambda v: MotionSpec(0.5, 15.0, resp_amplitude_m=v),
    "motion.harmonic_2_frac": lambda v: MotionSpec(0.5, 15.0, harmonic_2_frac=v),
    "motion.heart_rate_bpm": lambda v: MotionSpec(0.5, 15.0, heart_rate_bpm=v, heart_amplitude_m=1e-4),
    "motion.heart_amplitude_m": lambda v: MotionSpec(0.5, 15.0, heart_rate_bpm=70.0, heart_amplitude_m=v),
    "scene.target_reflectivity": lambda v: scene_with(targets=((MotionSpec(0.5, 15.0), v),)),
    "scene.reflector_range": lambda v: scene_with(static_reflectors=((v, 2.0),)),
    "scene.reflector_reflectivity": lambda v: scene_with(static_reflectors=((3.0, v),)),
    "scene.snr_db": lambda v: scene_with(snr_db=v),
    "scene.seed": lambda v: scene_with(seed=v),
    "scene.chamber_extent_m": lambda v: scene_with(chamber_extent_m=v),
    "scene.from_dict_seed": lambda v: SceneSpec.from_dict({**scene_with().to_dict(), "seed": v}),
    "breath.resp_rate_bpm": lambda v: BreathAudioSpec(resp_rate_bpm=v),
    "breath.burst_duration_s": lambda v: BreathAudioSpec(15.0, burst_duration_s=v),
    "breath.noise_db": lambda v: BreathAudioSpec(15.0, noise_db=v),
    "breath.seed": lambda v: BreathAudioSpec(15.0, seed=v),
    "breath.burst_amplitude": lambda v: BreathAudioSpec(15.0, burst_amplitude=v),
    **{f"config.{name}": (lambda v, name=name: RadarConfig(**{name: v}))
       for name in RadarConfig.__dataclass_fields__},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_specs_and_configs_reject_non_finite_fields(case, value):
    # a NaN rate made synth_audio loop for ever; other NaNs wrote zero captures
    # or silent WAVs with exit 0.  An integer too large for a float raised
    # OverflowError where a field was converted or multiplied.
    with pytest.raises(ValueError, match="must be finite"):
        NON_FINITE_CASES[case](value)
    # None leaves an optional field out
    MotionSpec(0.5, 15.0, heart_rate_bpm=None, heart_amplitude_m=None)
    scene_with(snr_db=None)
    BreathAudioSpec(15.0, noise_db=None)


SEEDED_SPECS = {
    "scene": lambda seed: scene_with(seed=seed),
    "scene.from_dict": lambda seed: SceneSpec.from_dict({**scene_with().to_dict(), "seed": seed}),
    "breath": lambda seed: BreathAudioSpec(15.0, seed=seed),
}


@pytest.mark.parametrize("spec", list(SEEDED_SPECS))
def test_seed_is_a_nonnegative_integer(spec):
    # a scene seed of 7.9 was simulated as seed 7
    for seed in (7.9, -1, -1.0, 0.5):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SEEDED_SPECS[spec](seed)
    for seed in (7, 7.0, np.int64(7)):
        kept = SEEDED_SPECS[spec](seed).seed
        assert kept == 7 and type(kept) is int


# each field of a motion, scene, radar config and breath spec at +-1e308, each pair
# member too, and malformed pairs: a document either simulates 2 s or is a ValueError
HOSTILE_MOTION = {"base_range_m": 0.5, "resp_rate_bpm": 15.0, "heart_rate_bpm": 70.0, "heart_amplitude_m": 1e-4}
HOSTILE_SCENE = {"targets": [[HOSTILE_MOTION, 1.0]], "static_reflectors": [[3.0, 2.0]], "snr_db": 30.0, "seed": 7}
HOSTILE_BREATH = {"resp_rate_bpm": 60.0, "exhale_only": False, "noise_db": -20.0, "seed": 7}


def _hostile_documents():
    """(id, kind, document) for the sweep, the valid documents first."""
    yield "valid-scene", "scene", HOSTILE_SCENE
    yield "valid-breath", "breath", HOSTILE_BREATH
    for value in (1e308, -1e308):
        for name in MotionSpec.__dataclass_fields__:
            motion = {**HOSTILE_MOTION, name: value}
            yield f"motion.{name}={value}", "scene", {**HOSTILE_SCENE, "targets": [[motion, 1.0]]}
        for name in SceneSpec.__dataclass_fields__:
            yield f"scene.{name}={value}", "scene", {**HOSTILE_SCENE, name: value}
        yield f"scene.reflectivity={value}", "scene", {**HOSTILE_SCENE, "targets": [[HOSTILE_MOTION, value]]}
        yield f"scene.reflector_range_m={value}", "scene", {**HOSTILE_SCENE, "static_reflectors": [[value, 2.0]]}
        yield f"scene.reflector_reflectivity={value}", "scene", {**HOSTILE_SCENE, "static_reflectors": [[3.0, value]]}
        for name in RadarConfig.__dataclass_fields__:
            yield f"config.{name}={value}", "config", {name: value}
        for name in BreathAudioSpec.__dataclass_fields__:
            yield f"breath.{name}={value}", "breath", {**HOSTILE_BREATH, name: value}
    yield "scene.snr_db=-4000", "scene", {**HOSTILE_SCENE, "snr_db": -4000}
    yield "breath.noise_db=1e300", "breath", {**HOSTILE_BREATH, "noise_db": 1e300}
    for name, first in (("targets", HOSTILE_MOTION), ("static_reflectors", 3.0)):
        for entry in ([first], [first, 1.0, 2.0], 5):
            yield f"scene.{name}=[{entry!r}]", "scene", {**HOSTILE_SCENE, name: [entry]}


HOSTILE_DOCUMENTS = list(_hostile_documents())


# an amplitude of 1e308 overflows to inf as it is summed, and simulates with a RuntimeWarning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, doc", [pytest.param(kind, doc, id=case) for case, kind, doc in HOSTILE_DOCUMENTS])
def test_hostile_value_simulates_or_is_value_error(kind, doc):
    # an OverflowError once snr_db, noise_db or a reflectivity met a float's **,
    # and a TypeError for a target that is a number, not a pair
    try:
        if kind == "breath":
            synth_audio(BreathAudioSpec.from_dict(doc), 2.0)
        else:
            scene = SceneSpec.from_dict(doc if kind == "scene" else HOSTILE_SCENE)
            synth_cube(scene, RadarConfig.from_dict(doc if kind == "config" else {}), 2.0)
    except ValueError:
        assert doc not in (HOSTILE_SCENE, HOSTILE_BREATH)  # the valid documents simulate


# --- cube synthesis ---------------------------------------------------------------


def test_empty_scene_snr_off_zero_cube(config):
    cube = synth_cube(SceneSpec(), config, 1.0)
    assert np.all(cube.samples == 0)


def test_empty_scene_with_snr_rejected(config):
    with pytest.raises(ValueError):
        synth_cube(SceneSpec(snr_db=30.0), config, 1.0)


def test_duration_too_short(config):
    with pytest.raises(DurationTooShortError):
        synth_cube(SceneSpec(), config, 0.01)


def test_determinism_same_seed_bit_identical(config):
    scene = breathing_scene(seed=77)
    a = synth_cube(scene, config, 10.0)
    b = synth_cube(scene, config, 10.0)
    assert encode_cube(a) == encode_cube(b)
    other = synth_cube(breathing_scene(seed=78), config, 10.0)
    assert encode_cube(a) != encode_cube(other)


def test_static_reflector_matches_closed_form(config):
    sp = config.range_bin_spacing_m
    r = 10 * sp  # bin-centred so the beat lands exactly on bin 10
    scene = static_scene([(r, 1.0)])
    assert np.all(np.argmax(np.abs(range_fft(synth_cube(scene, config, 2.0)).values), axis=1) == 10)

    # the beat signal before quantisation, through the range FFT: chirp mean,
    # Hann window, DFT, and the chirp-centre phase reference
    n = config.samples_per_chirp
    window = get_window("hann", n, fftbins=False)
    centre_ref = np.exp(1j * np.pi * np.arange(n) * (n - 1) / n)
    (i_plane, q_plane), peak = beat_planes(scene, config, 2.0)
    assert peak == max(np.abs(i_plane).max(), np.abs(q_plane).max())
    signal = i_plane + 1j * q_plane
    values = np.fft.fft(signal.mean(axis=1) * window, axis=1) * centre_ref
    assert np.all(np.argmax(np.abs(values), axis=1) == 10)

    # bin phase reads 4*pi*R/lambda and stays constant
    expected = np.angle(np.exp(1j * 4 * np.pi * r / config.wavelength_m))
    phases = np.angle(values[:, 10])
    assert np.max(np.abs(np.angle(np.exp(1j * (phases - expected))))) < 1e-9

    # bin magnitude equals reflectivity times the window sum (on-bin tone)
    assert np.abs(values[:, 10]) == pytest.approx(window.sum(), rel=1e-9)


def test_breathing_cube_full_chain_phase_and_rate(config):
    cube = synth_cube(breathing_scene(seed=21), config, 180.0)
    rmap = range_fft(cube)
    trace = extract_unwrapped_phase(rmap.bin_series(select_target_bin(rmap)), 20.0)
    recovered = detrend_linear(trace.samples)
    beta = 4 * np.pi * 0.001 / config.wavelength_m
    assert sine_amplitude(recovered) == pytest.approx(beta, rel=0.02)
    rates = extract_rate(stft(recovered, 20.0, StftParams()))
    assert np.all(np.abs(rates.rates_bpm - 15.0) <= 1.0)


def test_small_motion_phase_fidelity_2pct_rms(config):
    for amplitude_m in (0.0005, 0.001, 0.002):
        scene = breathing_scene(amplitude_m=amplitude_m, snr_db=30.0, seed=9)
        cube = synth_cube(scene, config, 120.0)
        rmap = range_fft(cube)
        trace = extract_unwrapped_phase(rmap.bin_series(select_target_bin(rmap)), 20.0)
        recovered = detrend_linear(trace.samples)
        oracle = detrend_linear(
            4 * np.pi * chest_displacement(scene.targets[0][0], cube.frame_timestamps) / config.wavelength_m
        )
        rel_rms = np.sqrt(np.mean((recovered - oracle) ** 2)) / np.sqrt(np.mean(oracle**2))
        assert rel_rms < 0.02


def test_snr_calibration_within_1db(config):
    sp = config.range_bin_spacing_m
    scene = static_scene([(10 * sp, 1.0)], snr_db=20.0, seed=11)
    cube = synth_cube(scene, config, 60.0)  # 1200 frames
    rmap = range_fft(cube)
    window = get_window("hann", config.samples_per_chirp, fftbins=False)
    coherent_gain_db = 10 * np.log10(window.sum() ** 2 / np.sum(window**2))
    signal_power = np.mean(np.abs(rmap.values[:, 10]) ** 2)
    noise_power = np.mean(np.abs(rmap.values[:, 100]) ** 2)  # signal-free bin
    measured = 10 * np.log10(signal_power / noise_power) - coherent_gain_db
    assert measured == pytest.approx(20.0, abs=1.0)


# --- breath audio -----------------------------------------------------------------


def test_audio_silence_is_zero():
    spec = BreathAudioSpec(resp_rate_bpm=15.0, burst_amplitude=0.0, noise_db=None, seed=0)
    audio = synth_audio(spec, 10.0)
    assert np.all(audio.samples == 0)


def test_audio_duration_too_short():
    spec = BreathAudioSpec(resp_rate_bpm=15.0)
    with pytest.raises(DurationTooShortError):
        synth_audio(spec, 2.0)


def test_audio_determinism():
    spec = BreathAudioSpec(resp_rate_bpm=15.0, noise_db=-30.0, seed=4)
    a = synth_audio(spec, 20.0)
    b = synth_audio(spec, 20.0)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("burst_len", [1, 5, 441, 22050])
def test_burst_filter_matches_scipy_butterworth(burst_len):
    noise = np.random.default_rng(burst_len).standard_normal(burst_len)
    sos = butter(4, (200.0, 2000.0), btype="bandpass", fs=44100, output="sos")
    expected = sosfilt(sos, noise)
    np.testing.assert_allclose(_burst_filter(burst_len)(noise), expected,
                               rtol=0, atol=1e-12 * np.abs(expected).max())


def test_audio_burst_spec_validation():
    with pytest.raises(ValueError):
        BreathAudioSpec(resp_rate_bpm=15.0, burst_duration_s=4.0)  # >= one period


def test_exhale_only_reads_true_rate(config):
    spec = BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=True, noise_db=-40.0, seed=6)
    result = process_audio(synth_audio(spec, 180.0))
    assert np.mean(np.abs(result.rates.rates_bpm - 15.0) <= 1.0) > 0.95


def test_both_sounds_doubles_dominant_rate(config):
    spec = BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=False, noise_db=-40.0, seed=6)
    result = process_audio(synth_audio(spec, 180.0))
    assert np.mean(np.abs(result.rates.rates_bpm - 30.0) <= 1.0) > 0.95


def test_process_audio_stft_runs_at_envelope_rate():
    # an STFT at 40 Hz on the 20 Hz envelope once read 12 bpm as 24
    trace = synth_audio(BreathAudioSpec(resp_rate_bpm=12.0, noise_db=-40.0, seed=6), 180.0)
    result = process_audio(trace)
    assert result.envelope.rate_hz == 20.0
    np.testing.assert_allclose(result.spectrogram.freq_axis_bpm, np.arange(601.0), rtol=0, atol=1e-9)
    assert np.all(np.abs(result.rates.rates_bpm - 12.0) <= 1.0)


def never_called(*args, **kwargs):
    raise AssertionError("a bad window reached the heavy stages")


@pytest.mark.parametrize("params, message", [
    (StftParams(window_s=60.01), "whole number of samples"),
    (StftParams(window_s=60.0, overlap_s=59.99), "hop must be at least one sample"),
])
def test_process_audio_checks_the_window_before_decimating(monkeypatch, params, message):
    monkeypatch.setattr(audio_dsp, "decimate_to_frame_rate", never_called)
    audio = AudioTrace(np.zeros(70 * 44100, dtype=np.int16))
    with pytest.raises(ValueError, match=message):
        process_audio(audio, stft_params=params)


@pytest.mark.parametrize("frame_rate_hz, params, message", [
    (20.0, StftParams(window_s=60.01), "whole number of samples"),
    (10.0, StftParams(), "hop must be at least one sample"),
])
def test_process_radar_checks_the_window_before_the_range_fft(monkeypatch, config, frame_rate_hz,
                                                              params, message):
    monkeypatch.setattr(radar_dsp, "range_fft", never_called)
    cfg = dataclasses.replace(config, frame_rate_hz=frame_rate_hz)
    cube = synth_cube(breathing_scene(seed=3), cfg, 2.0)
    with pytest.raises(ValueError, match=message):
        process_radar_cube(cube, stft_params=params)


# --- capture writers ---------------------------------------------------------------


def test_write_then_load_round_trip(tmp_path, config):
    cube = synth_cube(breathing_scene(seed=3), config, 5.0)
    path = tmp_path / "sim.rvsc"
    write_capture(cube, path)
    loaded = load_capture(path)
    assert loaded.data.tobytes() == cube.data.tobytes()
    assert np.allclose(loaded.frame_timestamps, cube.frame_timestamps)


@pytest.mark.parametrize("duration_s, config, scene, sha256", [
    # the README scene, over a frame-block boundary (600 frames)
    (30.0, RadarConfig(), SceneSpec(targets=((MotionSpec(0.5, 15.0, 0.001), 1.0),),
                                    static_reflectors=((3.0, 2.0),), snr_db=30.0, seed=7),
     "381a99d9059cfd732c832d2ca7da84602c735cf8381e571d85c239b9966ed418"),
    # three chirps a frame and no noise (520 frames)
    (26.0, RadarConfig(chirps_per_frame=3),
     SceneSpec(targets=((MotionSpec(0.4, 18.0, 0.0005, harmonic_2_frac=0.2), 1.0),),
               static_reflectors=((1.5, 0.5),)),
     "d8fb071e6a1bd79074d2a978fbfa8fbd65e2202ce76ca4091703feada74898a6"),
], ids=["readme", "three-chirps-no-noise"])
def test_capture_bytes_are_pinned(tmp_path, duration_s, config, scene, sha256):
    # the cube is summed in frame blocks on the worker pool; these are the bytes of
    # one whole-array pass
    path = tmp_path / "capture.rvsc"
    write_capture(synth_cube(scene, config, duration_s), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_datagram_stream_round_trip(config):
    cube = synth_cube(breathing_scene(seed=3), config, 5.0)
    stream, report = reassemble(datagram_stream(cube))
    assert report.gaps == ()
    assert stream == cube.data.tobytes()


def test_empty_cube_header_only_file(tmp_path, config):
    zero = RadarCube(
        config=config,
        data=np.zeros((0, 1, config.samples_per_chirp), IQ_COUNTS),
        frame_timestamps=np.zeros(0),
    )
    path = tmp_path / "empty.rvsc"
    write_capture(zero, path)
    loaded = load_capture(path)
    assert loaded.n_frames == 0


def test_scene_spec_json_round_trip(tmp_path):
    scene = breathing_scene(static_reflectors=((3.0, 5.0),), seed=42)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene.to_dict()), encoding="utf-8")
    loaded = SceneSpec.from_json_file(path)
    assert loaded == scene


# --- in-process runs equal CLI runs -------------------------------------------------


@pytest.mark.parametrize("variant", ["A", "B"])
def test_in_process_radar_run_equals_the_run_on_its_capture(tmp_path, config, variant):
    # the simulator delivers the counts a capture holds, so a run on the
    # simulated cube and a run on its written capture are the same run
    cube = synth_cube(breathing_scene(seed=5, static_reflectors=((3.0, 2.0),)), config, 75.0)
    path = tmp_path / "capture.rvsc"
    write_capture(cube, path)
    params = StftParams(window_s=30.0, overlap_s=29.0)
    direct = process_radar_cube(cube, variant=variant, stft_params=params)
    loaded = process_radar_cube(load_capture(path), variant=variant, stft_params=params)
    assert direct.target_bin == loaded.target_bin
    assert same_bits(direct.range_map.values, loaded.range_map.values)
    assert same_bits(direct.spectrogram.magnitudes, loaded.spectrogram.magnitudes)
    for field in ("times_s", "rates_bpm", "magnitudes"):
        assert same_bits(getattr(direct.rates, field), getattr(loaded.rates, field))
    if variant == "A":
        assert same_bits(direct.phase.samples, loaded.phase.samples)


def test_in_process_audio_run_equals_the_run_on_its_wav(tmp_path):
    trace = synth_audio(BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=False, noise_db=-20.0, seed=7), 75.0)
    path = tmp_path / "breath.wav"
    save_wav(path, trace)
    params = StftParams(window_s=30.0, overlap_s=29.0)
    for multistage in (False, True):
        direct = process_audio(trace, stft_params=params, multistage=multistage)
        loaded = process_audio(load_wav(path), stft_params=params, multistage=multistage)
        assert same_bits(direct.envelope.samples, loaded.envelope.samples)
        assert same_bits(direct.spectrogram.magnitudes, loaded.spectrogram.magnitudes)
        for field in ("times_s", "rates_bpm", "magnitudes"):
            assert same_bits(getattr(direct.rates, field), getattr(loaded.rates, field))
