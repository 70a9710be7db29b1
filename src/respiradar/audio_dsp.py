"""Microphone reference pipeline: decimation to the radar frame rate and
extraction of a breathing envelope from the decimated amplitude.

A recording is held as the headset delivers it, 16-bit PCM counts; the
decimators read the counts they need and scale their output to full
scale.
"""

from __future__ import annotations

import math
import os
import struct
import wave
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AudioTooShortError, UnsupportedWavError
from .spectral import _write_csv_10g

AUDIO_RATE_HZ = 44100
FRAME_RATE_HZ = 20.0
DECIMATION_FACTOR = 2205  # 44100 / 20
MULTISTAGE_FACTORS = (21, 21, 5)
_STAGE_CHUNK = 1 << 14  # outputs per block of polyphase rows, about 3 MB at factor 21

ANTIALIAS_ORDER = 20
ANTIALIAS_CUTOFF_HZ = 10.0

ENVELOPE_PASSBAND_HZ = 1.5
ENVELOPE_STOPBAND_HZ = 3.0
ENVELOPE_ATTENUATION_DB = 60.0

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2..15 of every WAVE_FORMAT_EXTENSIBLE subformat GUID; bytes 0..1 hold the format tag
_WAVE_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


class AudioTrace:
    """Mono microphone recording at AUDIO_RATE_HZ: ``data`` holds its int16 PCM
    counts, each the sample times 32768; any other dtype is a ValueError.

    The counts are kept as given, neither converted nor range-checked
    (every count / 32768 lies in [-1, 1)), so a stage reads only the
    samples it uses.
    """

    rate_hz = AUDIO_RATE_HZ

    def __init__(self, samples: np.ndarray) -> None:
        if not (isinstance(samples, np.ndarray) and samples.dtype.type is np.int16):
            got = getattr(samples, "dtype", type(samples).__name__)
            raise ValueError(f"audio must be an array of int16 PCM counts, got {got}")
        if samples.ndim != 1:
            raise ValueError("audio must be a mono 1-D array")
        self.data = samples

    @property
    def samples(self) -> np.ndarray:
        """The samples as float64 in [-1, 1), a new array."""
        return self.data / 32768.0


@dataclass
class EnvelopeTrace:
    """Nonnegative breathing-power surrogate at the radar frame rate."""

    samples: np.ndarray
    rate_hz: ClassVar[float] = FRAME_RATE_HZ

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size and self.samples.min() < 0:
            raise ValueError("envelope samples must be nonnegative")


def _kaiser_beta(atten_db: float) -> float:
    """Kaiser's window parameter for a stopband attenuation in dB."""
    if atten_db > 50:
        return 0.1102 * (atten_db - 8.7)
    if atten_db > 21:
        return 0.5842 * (atten_db - 21) ** 0.4 + 0.07886 * (atten_db - 21)
    return 0.0


def _kaiser_lowpass(numtaps: int, cutoff_hz: float, beta: float, fs: float) -> np.ndarray:
    """Windowed-sinc low-pass, Kaiser window, scaled to unity DC gain."""
    cutoff = cutoff_hz / (fs / 2.0)
    m = np.arange(numtaps) - (numtaps - 1) / 2.0
    taps = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, beta)
    return taps / taps.sum()


def design_antialias_taps() -> np.ndarray:
    """Order-20 Kaiser low-pass (10 Hz cutoff, unity DC gain) used before
    the single-stage 2205x decimation."""
    beta = _kaiser_beta(ENVELOPE_ATTENUATION_DB)
    return _kaiser_lowpass(ANTIALIAS_ORDER + 1, ANTIALIAS_CUTOFF_HZ, beta, AUDIO_RATE_HZ)


def design_stage_taps(factor: int) -> np.ndarray:
    """resample_poly's low-pass for one 1/factor stage: Kaiser (beta 5), 20 * factor + 1 taps."""
    return _kaiser_lowpass(20 * factor + 1, 1.0 / factor, 5.0, 2.0)


def design_envelope_taps() -> np.ndarray:
    """Kaiser low-pass for the rectified signal: passband to 1.5 Hz,
    at least 60 dB down from 3 Hz at the 20 Hz rate."""
    nyq = FRAME_RATE_HZ / 2.0
    width = (ENVELOPE_STOPBAND_HZ - ENVELOPE_PASSBAND_HZ) / nyq
    # design 5 dB past the requirement: the Kaiser ripple estimate is exact,
    # leaving no margin at precisely the stopband edge
    atten_db = ENVELOPE_ATTENUATION_DB + 5.0
    numtaps = math.ceil((atten_db - 7.95) / 2.285 / (np.pi * width) + 1)  # Kaiser's order
    numtaps += 1 - numtaps % 2  # symmetric type-I for integer group delay
    cutoff = (ENVELOPE_PASSBAND_HZ + ENVELOPE_STOPBAND_HZ) / 2.0
    return _kaiser_lowpass(numtaps, cutoff, _kaiser_beta(atten_db), FRAME_RATE_HZ)


def _fir_centered(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # symmetric taps; full convolution re-centred so y[n] lines up with x[n]
    delay = (len(taps) - 1) // 2
    y = np.convolve(x, taps, mode="full")
    return y[delay : delay + len(x)]


def _decimate_stage(x: np.ndarray, factor: int) -> np.ndarray:
    # y[n] = sum_j taps[j] * x[factor*n + 10*factor - j] for ceil(len(x)/factor) outputs, x read
    # as 0 outside: rows of `factor` samples meet the reversed taps' 21 phases, y[n] sums row n + a
    phases = np.r_[design_stage_taps(factor)[::-1], np.zeros(factor - 1)].reshape(21, factor)
    y = np.empty(-(-x.size // factor))
    for k0 in range(0, y.size, _STAGE_CHUNK):
        k1 = min(k0 + _STAGE_CHUNK, y.size)
        lo, hi = factor * (k0 - 10), factor * (k1 + 10)
        rows = np.zeros(hi - lo)
        rows[max(-lo, 0) : min(x.size, hi) - lo] = x[max(lo, 0) : hi]
        p = rows.reshape(-1, factor) @ phases.T
        y[k0:k1] = sum(p[a : a + k1 - k0, a] for a in range(21))
    return y


def decimate_to_frame_rate(audio: AudioTrace, *, multistage: bool = False) -> np.ndarray:
    """Reduce 44.1 kHz audio to a 20 Hz series, output length floor(n/2205).

    The default path is the deliberately light order-20 FIR followed by
    keeping every 2205th sample; its alias rejection is weak, which lets
    wideband breath sounds fold into the 20 Hz band as an amplitude trace.
    ``multistage=True`` switches to a clean polyphase chain (21 * 21 * 5)
    for alias-free references, equal to ``resample_poly(x, 1, f)`` per stage.

    Only the kept outputs of the default FIR are computed, each from the
    input samples around it, and only those samples are read.  Both paths
    filter the counts and scale the output by 1/32768, which gives the bits
    of filtering the float samples: the filters are linear, and scaling by
    a power of two commutes with every rounding.
    """
    x = audio.data
    if x.size < ANTIALIAS_ORDER + 1:
        raise AudioTooShortError(
            f"need at least {ANTIALIAS_ORDER + 1} samples, got {x.size}"
        )
    out_len = x.size // DECIMATION_FACTOR
    if multistage:
        for factor in MULTISTAGE_FACTORS:
            x = _decimate_stage(x, factor)
        return x[:out_len] / 32768.0
    taps = design_antialias_taps()
    delay = (len(taps) - 1) // 2
    # y[n] = sum_j taps[j] * x[n + delay - j] at the kept n; x reads 0 before its start
    idx = DECIMATION_FACTOR * np.arange(out_len)[:, None] + np.arange(delay, -delay - 1, -1)
    return (np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0) @ taps) / 32768.0


def envelope(series: np.ndarray, *, square: bool = False) -> EnvelopeTrace:
    """Rectify a 20 Hz series and low-pass it into a breathing envelope.

    Rectification is |x| by default; ``square=True`` uses x**2 for a true
    power reading.  The low-pass group delay is compensated and residual
    negatives are clamped to zero.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty series")
    rectified = x**2 if square else np.abs(x)
    smoothed = _fir_centered(rectified, design_envelope_taps())
    return EnvelopeTrace(samples=np.maximum(smoothed, 0.0))


def load_wav(path) -> AudioTrace:
    """Read a WAV file, accepting only PCM 16-bit mono at 44.1 kHz.

    The header may be plain PCM or WAVE_FORMAT_EXTENSIBLE with the PCM
    subformat; chunks other than ``fmt `` and ``data`` are skipped.  The
    data chunk is read once into a read-only int16 array, which the trace
    holds as its counts.
    """
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise UnsupportedWavError("unreadable WAV file (need 16-bit PCM): not a RIFF WAVE file")
        fmt = b""
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise UnsupportedWavError("truncated WAV file: no data chunk")
            chunk_id, size = struct.unpack("<4sI", head)
            if chunk_id == b"data":
                break
            body = fh.read(size + (size & 1))  # chunks are word-aligned
            if chunk_id == b"fmt ":
                fmt = body[:size]
        if len(fmt) < 16:
            raise UnsupportedWavError("unreadable WAV file (need 16-bit PCM): no complete fmt chunk")
        tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
        if tag == _WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 40 and fmt[26:40] == _WAVE_GUID_TAIL:
            tag = struct.unpack_from("<H", fmt, 24)[0]  # the subformat GUID starts with its tag
        if tag != _WAVE_FORMAT_PCM:
            raise UnsupportedWavError(f"expected 16-bit PCM samples, got format tag {tag:#x}")
        if (bits + 7) // 8 != 2:
            raise UnsupportedWavError(f"expected 16-bit PCM samples, got {bits}-bit")
        if channels != 1:
            raise UnsupportedWavError(f"expected mono audio, got {channels} channels")
        if rate != AUDIO_RATE_HZ:
            raise UnsupportedWavError(f"expected {AUDIO_RATE_HZ} Hz, got {rate} Hz")
        present = min(size, os.fstat(fh.fileno()).st_size - fh.tell())
        if present == size and not size % 2:
            counts = np.empty(size // 2, "<i2")
            present = fh.readinto(counts)  # fewer only if the file shrank since fstat
        if present != size or size % 2:
            raise UnsupportedWavError(f"truncated WAV file: {present} bytes of samples, {size} declared")
    counts.flags.writeable = False
    return AudioTrace(counts)


def save_wav(path, trace: AudioTrace) -> None:
    """Write the trace's counts as 16-bit PCM."""
    with open(path, "wb") as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(trace.rate_hz))
        wav.writeframesraw(np.ascontiguousarray(trace.data, "<i2"))


def envelope_to_csv(env: EnvelopeTrace, path) -> None:
    times = np.arange(env.samples.size) / env.rate_hz
    _write_csv_10g(path, "time_s,envelope", np.column_stack([times, env.samples]))
