import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import firwin, freqz, get_window, kaiser_beta, kaiserord, resample_poly

from respiradar import (
    AudioTrace,
    BreathAudioSpec,
    decimate_to_frame_rate,
    envelope,
    load_wav,
    save_wav,
    synth_audio,
)
from respiradar.audio_dsp import (
    AUDIO_RATE_HZ,
    DECIMATION_FACTOR,
    MULTISTAGE_FACTORS,
    design_antialias_taps,
    design_envelope_taps,
    design_stage_taps,
    _decimate_stage,
)
from respiradar import simulate
from respiradar.errors import AudioTooShortError, UnsupportedWavError
from respiradar.pipeline import process_audio
from respiradar.spectral import StftParams, extract_rate, stft


def pcm(x) -> AudioTrace:
    """A trace of float samples in [-1, 1] as 16-bit PCM, rounded from sample * 32767."""
    return AudioTrace(np.rint(np.clip(x, -1.0, 1.0) * 32767.0).astype(np.int16))


def fit_sine_amplitude(x, freq_hz, rate_hz):
    t = np.arange(x.size) / rate_hz
    basis = np.column_stack([np.sin(2 * np.pi * freq_hz * t), np.cos(2 * np.pi * freq_hz * t)])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(*coef))


# --- decimation ---------------------------------------------------------------


def test_decimate_zero_audio_length():
    n = 5 * DECIMATION_FACTOR + 123
    out = decimate_to_frame_rate(AudioTrace(np.zeros(n, np.int16)))
    assert out.shape == (5,)
    assert np.all(out == 0)


# 400_000 samples span two blocks of polyphase rows in the first multistage stage
@pytest.mark.parametrize(
    "n", [21, DECIMATION_FACTOR, 44100, 100_000, 7 * DECIMATION_FACTOR - 1, 400_000]
)
def test_decimate_output_length_is_floor(n):
    audio = pcm(0.3 * np.random.default_rng(n).standard_normal(n))
    out = decimate_to_frame_rate(audio)
    assert out.size == n // DECIMATION_FACTOR
    # the default path is the order-20 FIR of the samples at every 2205th one, to rounding
    taps = design_antialias_taps()
    full = np.convolve(audio.samples, taps)[10 : 10 + n : DECIMATION_FACTOR][: n // DECIMATION_FACTOR]
    np.testing.assert_allclose(out, full, rtol=0, atol=1e-13 * np.abs(full).max(initial=0))
    # the multistage chain is resample_poly(., 1, f) at each stage, to rounding
    reference = audio.samples
    for factor in MULTISTAGE_FACTORS:
        reference = resample_poly(reference, 1, factor)
    reference = reference[: n // DECIMATION_FACTOR]
    out = decimate_to_frame_rate(audio, multistage=True)
    assert out.size == reference.size == n // DECIMATION_FACTOR
    atol = 1e-13 * np.abs(reference).max(initial=0)
    np.testing.assert_allclose(out, reference, rtol=0, atol=atol)


def test_decimate_too_short():
    for multistage in (False, True):
        with pytest.raises(AudioTooShortError, match="at least 21 samples, got 20"):
            decimate_to_frame_rate(AudioTrace(np.zeros(20, np.int16)), multistage=multistage)
        assert decimate_to_frame_rate(AudioTrace(np.zeros(21, np.int16)), multistage=multistage).size == 0


def test_decimate_dc_gain():
    out = decimate_to_frame_rate(AudioTrace(np.full(10 * DECIMATION_FACTOR, 16384, np.int16)))
    assert np.allclose(out[1:-1], 0.5, atol=1e-6)


@pytest.mark.parametrize("multistage", [False, True])
def test_decimate_passband_sinusoid_against_resampled_oracle(multistage):
    duration = 20.0
    t_in = np.arange(int(duration * AUDIO_RATE_HZ)) / AUDIO_RATE_HZ
    audio = pcm(0.9 * np.sin(2 * np.pi * 0.25 * t_in))
    out = decimate_to_frame_rate(audio, multistage=multistage)

    t_out = np.arange(out.size) / 20.0
    oracle = 0.9 * np.sin(2 * np.pi * 0.25 * t_out)
    core = slice(40, out.size - 40)  # skip filter edge transients
    amp_out = fit_sine_amplitude(out[core], 0.25, 20.0)
    amp_ref = fit_sine_amplitude(oracle[core], 0.25, 20.0)
    assert amp_out == pytest.approx(amp_ref, rel=0.05)
    assert np.corrcoef(out[core], oracle[core])[0, 1] > 0.999


def pcm_counts(n, seed):
    """n int16 counts that include both ends of the range."""
    counts = np.random.default_rng(seed).integers(-32768, 32768, n).astype(np.int16)
    counts[::7] = -32768
    counts[3::11] = 32767
    return counts


@pytest.mark.parametrize("multistage", [False, True], ids=["default", "multistage"])
@pytest.mark.parametrize("n", [21, 22, DECIMATION_FACTOR - 1, DECIMATION_FACTOR, DECIMATION_FACTOR + 1,
                               6 * DECIMATION_FACTOR - 1, 6 * DECIMATION_FACTOR, 400_001])
def test_int16_counts_decimate_bit_identically_to_their_floats(n, multistage):
    # the decimators filter the counts and scale the output; filtering the
    # float samples count / 32768 through the same filters gives the same bits
    counts = pcm_counts(n, n)
    from_counts = decimate_to_frame_rate(AudioTrace(counts), multistage=multistage)
    floats = counts / 32768.0
    if multistage:
        for factor in MULTISTAGE_FACTORS:
            floats = _decimate_stage(floats, factor)
        from_floats = floats[: n // DECIMATION_FACTOR]
    else:
        idx = DECIMATION_FACTOR * np.arange(n // DECIMATION_FACTOR)[:, None] + np.arange(10, -11, -1)
        from_floats = np.where(idx >= 0, floats[np.maximum(idx, 0)], 0.0) @ design_antialias_taps()
    assert from_counts.dtype == from_floats.dtype == np.float64
    assert from_counts.tobytes() == from_floats.tobytes()


def test_int16_counts_too_short():
    with pytest.raises(AudioTooShortError):
        decimate_to_frame_rate(AudioTrace(np.zeros(20, dtype=np.int16)))


class NoScan(np.ndarray):
    """An array on which any ufunc, a min or max included, fails."""

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("the counts were scanned")


def test_audio_trace_keeps_int16_counts_unconverted_and_unscanned():
    counts = pcm_counts(1000, 0)
    guarded = counts.view(NoScan)
    with pytest.raises(AssertionError, match="scanned"):
        guarded.max()
    assert AudioTrace(guarded).data is guarded
    trace = AudioTrace(counts)
    assert trace.data is counts
    assert trace.samples.dtype == np.float64
    np.testing.assert_array_equal(trace.samples, counts / 32768.0)
    assert trace.samples.min() == -1.0


def test_audio_trace_takes_only_mono_int16_counts():
    for samples in (np.array([0.0, 0.5]), np.array([0.0, 1.5]), np.zeros(4, np.int32),
                    np.zeros(4, np.complex128), [0, 1]):
        with pytest.raises(ValueError, match="int16 PCM counts"):
            AudioTrace(samples)
    with pytest.raises(ValueError, match="mono"):
        AudioTrace(np.zeros((2, 2), dtype=np.int16))


def test_multistage_rejects_aliases_where_default_leaks():
    t = np.arange(20 * AUDIO_RATE_HZ) / AUDIO_RATE_HZ
    tone = pcm(0.5 * np.sin(2 * np.pi * 1502.3 * t))
    leaked = decimate_to_frame_rate(tone)
    clean = decimate_to_frame_rate(tone, multistage=True)
    assert np.std(clean[40:-40]) < 0.05 * np.std(leaked[40:-40])


# --- filter designs -----------------------------------------------------------


def test_antialias_filter_shape():
    taps = design_antialias_taps()
    assert taps.size == 21  # order 20
    assert np.allclose(taps, taps[::-1])  # linear phase
    assert taps.sum() == pytest.approx(1.0, abs=1e-9)  # unity DC gain
    expected = firwin(21, 10.0, window=("kaiser", kaiser_beta(60.0)), fs=AUDIO_RATE_HZ)
    np.testing.assert_allclose(taps, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("factor", sorted(set(MULTISTAGE_FACTORS)))
def test_stage_taps_match_firwin(factor):
    expected = firwin(20 * factor + 1, 1.0 / factor, window=("kaiser", 5.0))
    np.testing.assert_allclose(design_stage_taps(factor), expected, rtol=0, atol=1e-15)


def test_envelope_filter_meets_design_targets():
    taps = design_envelope_taps()
    assert np.allclose(taps, taps[::-1])
    numtaps, beta = kaiserord(65.0, 1.5 / 10.0)
    numtaps += 1 - numtaps % 2
    expected = firwin(numtaps, 2.25, window=("kaiser", beta), fs=20.0)
    assert taps.size == expected.size
    np.testing.assert_allclose(taps, expected, rtol=0, atol=1e-15)
    w, h = freqz(taps, worN=8192, fs=20.0)
    mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-12))
    assert mag_db[w >= 3.0].max() <= -60.0
    assert mag_db[w <= 1.5].min() >= -1.0


# --- envelope -------------------------------------------------------------------


def test_envelope_zero_input():
    env = envelope(np.zeros(100))
    assert np.all(env.samples == 0)


def test_envelope_constant_dc_gain():
    env = envelope(np.full(200, 0.4))
    mid = env.samples[60:-60]
    assert np.allclose(mid, 0.4, atol=0.004)


def test_envelope_nonnegative_and_square_option():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    env_abs = envelope(x)
    env_sq = envelope(x, square=True)
    assert env_abs.samples.min() >= 0
    assert env_sq.samples.min() >= 0
    # squaring tracks power, rectification tracks amplitude
    assert env_sq.samples.mean() == pytest.approx(np.mean(x**2), rel=0.2)
    assert env_abs.samples.mean() == pytest.approx(np.mean(np.abs(x)), rel=0.2)


def test_envelope_peak_aligns_with_burst_centre():
    series = np.zeros(400)
    bump = get_window("hann", 21, fftbins=False)
    series[190:211] = 0.8 * bump
    env = envelope(series)
    assert abs(int(np.argmax(env.samples)) - 200) <= 2


def test_full_chain_burst_alignment_at_audio_rate():
    n = 20 * AUDIO_RATE_HZ
    audio = np.zeros(n)
    burst_len = AUDIO_RATE_HZ // 2
    centre = 10 * AUDIO_RATE_HZ
    audio[centre - burst_len // 2 : centre + burst_len // 2] = 0.5 * get_window(
        "hann", burst_len, fftbins=False
    )
    env = envelope(decimate_to_frame_rate(pcm(audio)))
    assert abs(int(np.argmax(env.samples)) - 200) <= 2


def test_breath_audio_envelope_rate(config):
    spec = BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=True, noise_db=-40.0, seed=5)
    audio = synth_audio(spec, 180.0)
    env = envelope(decimate_to_frame_rate(audio))
    rates = extract_rate(stft(env.samples, 20.0, StftParams()))
    assert np.median(rates.rates_bpm) == pytest.approx(15.0, abs=1.0)
    assert np.mean(np.abs(rates.rates_bpm - 15.0) <= 1.0) > 0.95


# --- WAV I/O --------------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    trace = AudioTrace(pcm_counts(44100, 1))
    path = tmp_path / "x.wav"
    save_wav(path, trace)
    loaded = load_wav(path)
    assert loaded.rate_hz == 44100
    np.testing.assert_array_equal(loaded.data, trace.data)

    # byte-identical to scipy's writer, and reads back what scipy reads
    reference = tmp_path / "ref.wav"
    wavfile.write(reference, 44100, trace.data)
    assert path.read_bytes() == reference.read_bytes()
    np.testing.assert_array_equal(load_wav(reference).samples, wavfile.read(reference)[1] / 32768.0)

    # a loaded WAV saves back byte for byte
    again = tmp_path / "again.wav"
    save_wav(again, load_wav(reference))
    assert again.read_bytes() == reference.read_bytes()


def test_wav_rejects_wrong_rate(tmp_path):
    path = tmp_path / "slow.wav"
    wavfile.write(path, 22050, np.zeros(100, dtype=np.int16))
    with pytest.raises(UnsupportedWavError, match="44100"):
        load_wav(path)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 44100, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(UnsupportedWavError, match="mono"):
        load_wav(path)


def test_wav_rejects_non_pcm16(tmp_path):
    for dtype in (np.float32, np.uint8):
        path = tmp_path / f"{np.dtype(dtype).name}.wav"
        wavfile.write(path, 44100, np.zeros(100, dtype=dtype))
        with pytest.raises(UnsupportedWavError, match="16-bit"):
            load_wav(path)


def _extensible_wav(samples, subformat_tag=1):
    """16-bit mono 44.1 kHz WAV bytes with a WAVE_FORMAT_EXTENSIBLE header."""
    guid = struct.pack("<H", subformat_tag) + bytes.fromhex("000000001000800000aa00389b71")
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 44100, 88200, 2, 16, 22, 16, 0x4) + guid
    data = samples.astype("<i2").tobytes()
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_wav_reads_extensible_pcm_like_scipy(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "extensible.wav"
    path.write_bytes(_extensible_wav(rng.integers(-32768, 32768, 4410)))
    rate, reference = wavfile.read(path)
    assert rate == 44100
    np.testing.assert_array_equal(load_wav(path).samples, reference / 32768.0)


def test_wav_rejects_extensible_float(tmp_path):
    path = tmp_path / "float.wav"
    path.write_bytes(_extensible_wav(np.zeros(100), subformat_tag=3))
    with pytest.raises(UnsupportedWavError, match="16-bit"):
        load_wav(path)


def test_load_wav_keeps_the_data_chunk_as_int16_counts(tmp_path):
    counts = pcm_counts(4410, 1)
    path = tmp_path / "counts.wav"
    wavfile.write(path, 44100, counts)
    trace = load_wav(path)
    assert trace.data.dtype == np.int16
    assert not trace.data.flags.writeable
    np.testing.assert_array_equal(trace.data, counts)
    np.testing.assert_array_equal(trace.samples, counts / 32768.0)
    wavfile.write(path, 44100, np.zeros(0, dtype=np.int16))
    assert load_wav(path).data.size == 0


def wav_with_data_chunk(declared: int, present: bytes) -> bytes:
    fmt = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", declared)
    return b"RIFF" + struct.pack("<I", len(body) + declared) + body + present


@pytest.mark.parametrize("declared, present, message", [
    (2000, 1900, "truncated WAV file: 1900 bytes of samples, 2000 declared"),
    (2000, 0, "truncated WAV file: 0 bytes of samples, 2000 declared"),
    (2001, 2002, "truncated WAV file: 2001 bytes of samples, 2001 declared"),
    (2001, 2000, "truncated WAV file: 2000 bytes of samples, 2001 declared"),
], ids=["short", "empty", "odd", "odd-and-short"])
def test_wav_rejects_short_or_odd_data_chunk(tmp_path, declared, present, message):
    path = tmp_path / "data.wav"
    path.write_bytes(wav_with_data_chunk(declared, bytes(present)))
    with pytest.raises(UnsupportedWavError) as info:
        load_wav(path)
    assert str(info.value) == message


@pytest.mark.parametrize("multistage", [False, True], ids=["default", "multistage"])
def test_process_audio_peaks_below_a_float_copy_of_its_wav(tmp_path, multistage):
    n = 120 * AUDIO_RATE_HZ
    path = tmp_path / "long.wav"
    wavfile.write(path, AUDIO_RATE_HZ, pcm_counts(n, 6))
    tracemalloc.start()
    try:
        process_audio(load_wav(path), multistage=multistage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8  # 42 MB


# (duration_s, spec, sha256 of its WAV)
BREATH_WAV_PINS = [
    (20.0, dict(resp_rate_bpm=15.0, exhale_only=False, burst_duration_s=0.5, noise_db=-20.0, seed=7),
     "077a16d5634d841be946670708d6dd3c02130451a03cdd21d91d47a01db13d84"),
    (13.0, dict(resp_rate_bpm=12.0, exhale_only=True, noise_db=-6.0, seed=3),
     "c1cebece1b82971e822e784b600d9e520040a530ccc0d92d686fb63aed51831a"),
    # loud enough that about a quarter of the samples clip
    (10.0, dict(resp_rate_bpm=20.0, exhale_only=False, burst_amplitude=0.8, noise_db=0.0, seed=11),
     "08a314ef04308fafcb6f441d233fa8f8a46532a420b5c96eaccb0dc4f7102088"),
    # the first inhale starts at sample -1575: it is left out, but its draw is still consumed
    (12.0, dict(resp_rate_bpm=70.0, exhale_only=False, burst_duration_s=0.5, noise_db=-20.0, seed=5),
     "72a441ada4bf529a35577b8e97528d866d63ee03a0917a2481adec720c22101c"),
    # no background noise, and a burst straddles the first block boundary
    (14.0, dict(resp_rate_bpm=15.0, exhale_only=False, burst_duration_s=0.5, noise_db=None, seed=2),
     "16258507c50519b3119e03bd269c10b7831015a11c136be28046d407408c8409"),
]
NOISY_BREATH_WAV_PINS = [pin for pin in BREATH_WAV_PINS if pin[1]["noise_db"] is not None]


def breath_wav_sha256(tmp_path, duration_s, spec) -> str:
    path = tmp_path / "breath.wav"
    save_wav(path, synth_audio(BreathAudioSpec(**spec), duration_s))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("duration_s, spec, sha256", BREATH_WAV_PINS)
def test_breath_wav_bytes_are_pinned(tmp_path, duration_s, spec, sha256):
    # the noise is drawn and the WAV quantised in blocks, the bursts shaped on a
    # helper thread; these are the bytes of one full-length draw and one
    # full-length quantisation, all on one thread
    assert breath_wav_sha256(tmp_path, duration_s, spec) == sha256


def slow_burst_filter(monkeypatch, before_each):
    """Patch simulate._burst_filter so that each burst runs before_each() first."""
    burst_filter = simulate._burst_filter

    def slow(burst_len):
        band_pass = burst_filter(burst_len)

        def run(x):
            before_each()
            return band_pass(x)
        return run

    monkeypatch.setattr(simulate, "_burst_filter", slow)


@pytest.mark.parametrize("duration_s, spec, sha256", BREATH_WAV_PINS)
def test_breath_wav_bytes_do_not_depend_on_thread_switching(tmp_path, fast_thread_switching,
                                                             duration_s, spec, sha256):
    assert breath_wav_sha256(tmp_path, duration_s, spec) == sha256


@pytest.mark.parametrize("duration_s, spec, sha256", BREATH_WAV_PINS)
def test_breath_wav_bytes_hold_while_the_calling_thread_waits_on_each_burst(
        tmp_path, monkeypatch, duration_s, spec, sha256):
    slow_burst_filter(monkeypatch, lambda: time.sleep(0.005))
    assert breath_wav_sha256(tmp_path, duration_s, spec) == sha256


@pytest.mark.parametrize("duration_s, spec, sha256", NOISY_BREATH_WAV_PINS)
def test_breath_wav_bytes_hold_when_noise_is_drawn_before_any_burst_is_shaped(
        tmp_path, monkeypatch, duration_s, spec, sha256):
    # the first burst waits until the calling thread has drawn a block's noise, the
    # seed's second draw after every burst's raw noise
    drawn = threading.Event()
    seen = []
    default_rng = np.random.default_rng

    class SignallingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            self.draws = 0

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                numbers = getattr(self.rng, name)(*args, **kwargs)
                self.draws += 1
                if self.draws == 2:
                    drawn.set()
                return numbers
            return draw

    def wait_for_noise():
        seen.append(drawn.wait(timeout=10))
        drawn.set()  # a failure waits once, not once per burst

    monkeypatch.setattr(np.random, "default_rng", SignallingGenerator)
    slow_burst_filter(monkeypatch, wait_for_noise)
    assert breath_wav_sha256(tmp_path, duration_s, spec) == sha256
    assert seen and all(seen)


def test_a_burst_filter_error_is_raised_after_the_helper_has_ended(monkeypatch, fast_thread_switching):
    raised = []

    def third_burst_fails():
        if len(raised) == 2:
            raised.append(RuntimeError("the third burst"))
            raise raised[-1]
        raised.append(None)

    slow_burst_filter(monkeypatch, third_burst_fails)
    threads = threading.active_count()
    spec = BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=False, noise_db=-20.0, seed=7)
    with pytest.raises(RuntimeError) as info:
        synth_audio(spec, 60.0)
    assert info.value is raised[2]
    assert threading.active_count() == threads


def test_synth_and_save_peak_near_one_float_copy(tmp_path):
    spec = BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=False, noise_db=-20.0, seed=7)
    n = 60 * AUDIO_RATE_HZ
    tracemalloc.start()
    try:
        trace = synth_audio(spec, 60.0)
        save_wav(tmp_path / "breath.wav", trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * 8


@pytest.mark.parametrize("cut", [0, 20, 44 + 100])  # not RIFF; inside the header; inside the data
def test_wav_rejects_unreadable(tmp_path, cut):
    path = tmp_path / "cut.wav"
    save_wav(path, AudioTrace(np.zeros(1000, np.int16)))
    path.write_bytes(path.read_bytes()[:cut] if cut else b"not a wav at all, just some bytes")
    with pytest.raises(UnsupportedWavError):
        load_wav(path)


def test_a_wav_truncated_while_its_trace_is_in_use_still_decimates(tmp_path):
    # in a fresh interpreter, so that a crash (SIGBUS, had the trace mapped
    # the file) fails this test alone: the trace holds its counts, so cutting
    # the file after load_wav leaves the decimated outputs as they were
    path = tmp_path / "cut-later.wav"
    wavfile.write(path, AUDIO_RATE_HZ, pcm_counts(70 * AUDIO_RATE_HZ, 9))
    code = (
        "import sys\n"
        "from respiradar.audio_dsp import decimate_to_frame_rate, load_wav\n"
        "trace = load_wav(sys.argv[1])\n"
        "before = [decimate_to_frame_rate(trace, multistage=m) for m in (False, True)]\n"
        "with open(sys.argv[1], 'r+b') as fh:\n"
        "    fh.truncate(44)\n"
        "for want, multistage in zip(before, (False, True)):\n"
        "    got = decimate_to_frame_rate(trace, multistage=multistage)\n"
        "    print(got.size, got.tobytes() == want.tobytes())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1400", "True", "1400", "True"]
    assert path.stat().st_size == 44
