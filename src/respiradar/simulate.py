"""Synthetic chamber scenes: FMCW beat-signal cubes and breath-sound audio.

Scenes are declarative (targets with chest motion, static reflectors, an
SNR and a seed) and fully deterministic under their seed, so simulated
captures serve as ground truth for the processing chain.  Like the radar
and the headset, the simulators deliver integer counts: int16 I/Q pairs
and 16-bit PCM, quantised here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import NUMBER, SPEED_OF_LIGHT_M_S, JsonDocument, RadarConfig, json_value
from .errors import DurationTooShortError
from .spectral import _FRAME_BLOCK, _map_blocks, cosine_window

if TYPE_CHECKING:  # imported where used: `simulate` needs no audio_dsp, `simulate-audio` no ingest
    from .audio_dsp import AudioTrace
    from .ingest import Datagram, RadarCube

DEFAULT_CHAMBER_EXTENT_M = 6.0

_BURST_BAND_HZ = (200.0, 2000.0)
_AUDIO_BLOCK = 1 << 18  # samples summed, drawn and quantised at a time, 2 MB of float64


@dataclass(frozen=True)
class MotionSpec(JsonDocument, kind="motion"):
    """Chest-motion model: sinusoidal displacement plus optional second
    harmonic and heart component, around a fixed base range."""

    base_range_m: float
    resp_rate_bpm: float
    resp_amplitude_m: float = 0.001
    harmonic_2_frac: float = 0.0
    heart_rate_bpm: float | None = None
    heart_amplitude_m: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base_range_m <= 0:
            raise ValueError("base_range_m must be positive")
        if self.resp_amplitude_m < 0:
            raise ValueError("resp_amplitude_m must be nonnegative")
        if self.resp_rate_bpm < 0:
            raise ValueError("resp_rate_bpm must be nonnegative")
        if not 0.0 <= self.harmonic_2_frac <= 1.0:
            raise ValueError("harmonic_2_frac must lie in [0, 1]")
        if (self.heart_rate_bpm is None) != (self.heart_amplitude_m is None):
            raise ValueError("heart rate and amplitude must be given together")


@dataclass(frozen=True)
class SceneSpec(JsonDocument, kind="scene"):
    """Declarative scene: breathing targets and static reflectors inside the
    chamber, white noise at snr_db relative to the strongest scatterer.

    In JSON a target is a [motion object, reflectivity] pair.
    """

    targets: tuple[tuple[MotionSpec, float], ...] = ()
    static_reflectors: tuple[tuple[float, float], ...] = ()
    snr_db: float | None = None
    seed: int = 0
    chamber_extent_m: float = DEFAULT_CHAMBER_EXTENT_M

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("targets", "static_reflectors"):
            for pair in getattr(self, name):
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ValueError(f"each entry of {name} must be a pair, got {pair!r}")
        object.__setattr__(self, "targets", tuple(
            (m if isinstance(m, MotionSpec) else MotionSpec.from_dict(m),
             float(json_value("reflectivity", a, NUMBER))) for m, a in self.targets))
        object.__setattr__(self, "static_reflectors", tuple(
            (float(json_value("reflector_range_m", r, NUMBER)), float(json_value("reflectivity", a, NUMBER)))
            for r, a in self.static_reflectors))
        object.__setattr__(self, "chamber_extent_m", float(self.chamber_extent_m))
        for motion, _ in self.targets:
            if motion.base_range_m > self.chamber_extent_m:
                raise ValueError("target range exceeds the chamber extent")
        for range_m, _ in self.static_reflectors:
            if not 0 < range_m <= self.chamber_extent_m:
                raise ValueError("reflector range outside the chamber extent")


@dataclass(frozen=True)
class BreathAudioSpec(JsonDocument, kind="breath audio"):
    """Breath-sound model: noise bursts at each exhalation (and inhalation
    unless exhale_only) over optional white background noise."""

    resp_rate_bpm: float
    exhale_only: bool = True
    burst_duration_s: float = 0.5
    noise_db: float | None = None  # background level relative to burst amplitude
    seed: int = 0
    burst_amplitude: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resp_rate_bpm <= 0:
            raise ValueError("resp_rate_bpm must be positive")
        if self.burst_duration_s >= 60.0 / self.resp_rate_bpm:
            raise ValueError("burst_duration_s must be shorter than one breath period")
        if self.burst_duration_s <= 0:
            raise ValueError("burst_duration_s must be positive")
        if self.burst_amplitude < 0:
            raise ValueError("burst_amplitude must be nonnegative")


def _finite(compute, message: str) -> float:
    """compute(), a float; ValueError(message) where it is NaN or overflows."""
    try:
        value = compute()
    except OverflowError:  # a float's ** overflows with this error, its * to inf
        value = np.inf
    if not abs(value) < np.inf:
        raise ValueError(message)
    return value


def _sample_count(duration_s: float, rate_hz: float, item_bytes: int, unit: str) -> int:
    """round(duration_s * rate_hz): the length of an array of item_bytes-byte
    items; ValueError naming duration_s where it is not finite or too long
    for any array."""
    count = int(round(_finite(lambda: duration_s * rate_hz,
                              f"duration_s {duration_s} s at {rate_hz} Hz gives no finite {unit} count")))
    if count > np.iinfo(np.intp).max // item_bytes:
        raise ValueError(f"duration_s {duration_s} s at {rate_hz} Hz gives {count:.3g} {unit}s, "
                         "more than an array can hold")
    return count


def chest_displacement(spec: MotionSpec, t) -> np.ndarray:
    """Chest displacement in metres at time(s) t (seconds, >= 0)."""
    t = np.asarray(t, dtype=np.float64)
    resp_hz = spec.resp_rate_bpm / 60.0
    d = spec.resp_amplitude_m * (
        np.sin(2.0 * np.pi * resp_hz * t)
        + spec.harmonic_2_frac * np.sin(4.0 * np.pi * resp_hz * t)
    )
    if spec.heart_rate_bpm is not None:
        heart_hz = spec.heart_rate_bpm / 60.0
        d = d + spec.heart_amplitude_m * np.sin(2.0 * np.pi * heart_hz * t)
    return d


def beat_planes(scene: SceneSpec, config: RadarConfig,
                duration_s: float) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The I and Q planes of a scene's beat signal, two float64 arrays
    [frame][chirp][sample], and its peak I/Q component.

    Each scatterer at instantaneous range R contributes a fast-time tone at
    the beat frequency 2 * slope * R / c with slow-time phase 4*pi*R/lambda.
    Fast time is referenced to the chirp centre, so the carrier phase of a
    range bin reads the two-way path length directly.  Range is held
    constant within a chirp (stop-and-hop) and scatterer amplitude is the
    specified reflectivity, with no range-law decay.

    Complex white Gaussian noise is added at snr_db below the strongest
    scatterer; generation is deterministic under the scene seed.  The two
    noise draws, real parts first, are made whole and become the planes.
    Then each block of frames sums its signal, which is the same in every
    chirp of a frame, in a one-chirp work array on the worker pool, adds
    it to the planes and takes its peak while it is fresh.  Each sample is
    one IEEE addition of signal and noise in either order, so no complex
    copy of the recording is made.
    """
    n_fast = config.samples_per_chirp
    n_frames = _sample_count(duration_s, config.frame_rate_hz, 16 * config.chirps_per_frame * n_fast, "frame")
    if n_frames < 1:
        raise DurationTooShortError("duration covers no complete frame")

    frame_times = np.arange(n_frames) / config.frame_rate_hz
    fast_index = np.arange(n_fast) - (n_fast - 1) / 2.0  # chirp-centre reference
    shape = (n_frames, config.chirps_per_frame, n_fast)
    wavelength = config.wavelength_m

    def tones(ranges: np.ndarray, reflectivity: float, phase: np.ndarray, wave: np.ndarray) -> np.ndarray:
        """The fast-time row of a scatterer at each of the ranges, in wave."""
        beat_hz = 2.0 * config.chirp_slope_hz_per_s * ranges / SPEED_OF_LIGHT_M_S
        slow_phase = 4.0 * np.pi * ranges / wavelength
        np.multiply(2.0 * np.pi * beat_hz[:, None], fast_index, out=phase)
        phase /= config.adc_rate_hz
        phase += slow_phase[:, None]
        np.multiply(1j, phase, out=wave)
        np.exp(wave, out=wave)
        wave *= reflectivity
        return wave

    targets = [(motion.base_range_m + chest_displacement(motion, frame_times), reflectivity)
               for motion, reflectivity in scene.targets]
    far = max([ranges.max() for ranges, _ in targets] + [r for r, _ in scene.static_reflectors], default=0.0)
    _finite(lambda: 2.0 * config.chirp_slope_hz_per_s * far / SPEED_OF_LIGHT_M_S,
            f"chirp_slope_hz_per_s {config.chirp_slope_hz_per_s} gives no finite beat frequency at {far} m")
    # a static reflector's row is the same in every frame: it is made once
    rows = [tones(np.array([range_m]), reflectivity, np.empty((1, n_fast)),
                  np.empty((1, n_fast), np.complex128))[0]
            for range_m, reflectivity in scene.static_reflectors]

    if scene.snr_db is None:
        planes = np.zeros(shape), np.zeros(shape)
    else:
        reflectivities = [abs(a) for _, a in (*scene.targets, *scene.static_reflectors)]
        if not reflectivities:
            raise ValueError("snr_db is relative to the strongest scatterer; scene is empty")
        strongest = max(reflectivities)
        noise_power = _finite(lambda: strongest**2 * 10.0 ** (-scene.snr_db / 10.0),
                              f"snr_db {scene.snr_db} below reflectivity {strongest} "
                              "gives no finite noise power")
        rng = np.random.default_rng(scene.seed)
        sigma = np.sqrt(noise_power / 2.0)
        planes = rng.normal(scale=sigma, size=shape), rng.normal(scale=sigma, size=shape)

    @np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the peak, checked below
    def synth(frames: slice, work: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
        n = len(planes[0][frames])
        signal, phase, wave = (w[:n] for w in work)
        signal[...] = 0
        for ranges, reflectivity in targets:
            signal += tones(ranges[frames], reflectivity, phase, wave)
        for row in rows:
            signal += row
        extremes = []
        for plane, part in zip(planes, (signal.real, signal.imag)):
            block = plane[frames]
            block += part[:, None, :]
            extremes += [block.max(), -block.min()]
        return np.max(extremes)  # np.max: a NaN stays NaN

    peaks: list[float] = []
    _map_blocks(synth, n_frames, _FRAME_BLOCK, sink=peaks.append,
                work=lambda: (np.empty((_FRAME_BLOCK, n_fast), np.complex128),
                              np.empty((_FRAME_BLOCK, n_fast)),
                              np.empty((_FRAME_BLOCK, n_fast), np.complex128)))
    peak = float(np.max(peaks))  # np.max: a NaN peak stays NaN
    if not peak < np.inf:
        raise ValueError(f"the beat signal peaks at {peak}, not a finite value: carrier_hz "
                         f"{config.carrier_hz} at {far} m or a reflectivity is too large")
    return planes, peak


def synth_cube(scene: SceneSpec, config: RadarConfig, duration_s: float) -> RadarCube:
    """Simulate the cube a radar delivers for a scene: beat_planes' samples
    as int16 I/Q counts.

    Full scale is 4x the peak I/Q component, for noise headroom; each
    component is scaled, rounded and clipped, one block of frames at a
    time on the worker pool.
    """
    from .ingest import IQ_COUNTS, RadarCube

    planes, peak = beat_planes(scene, config, duration_s)
    scale = 32767.0 / (4.0 * peak if peak > 0 else 1.0)
    counts = np.empty(planes[0].shape, IQ_COUNTS)

    def quantize(frames: slice, _) -> None:
        for plane, part in zip(planes, ("i", "q")):
            block = plane[frames]  # the planes are not read again: scaled in place
            np.multiply(block, scale, out=block)
            np.rint(block, out=block)
            counts[part][frames] = np.clip(block, -32768, 32767, out=block)

    _map_blocks(quantize, len(counts), _FRAME_BLOCK)
    return RadarCube(config=config, data=counts,
                     frame_timestamps=np.arange(len(counts)) / config.frame_rate_hz)


def _burst_filter(burst_len: int):
    """scipy's order-4 Butterworth ``butter`` + ``sosfilt`` over _BURST_BAND_HZ for bursts
    of burst_len samples: the analog prototype at the bilinear transform's prewarped
    frequencies, applied as a zero-padded FFT product."""
    from .audio_dsp import AUDIO_RATE_HZ

    n = burst_len + int(0.1 * AUDIO_RATE_HZ)  # impulse response < 1e-16 of peak after 3,850 samples
    s = 2j * AUDIO_RATE_HZ * np.tan(np.pi * np.arange(n // 2 + 1) / n)[:, None]
    w1, w2 = 2 * AUDIO_RATE_HZ * np.tan(np.pi * np.array(_BURST_BAND_HZ) / AUDIO_RATE_HZ)
    poles = -np.exp(1j * np.pi * np.arange(-3, 4, 2) / 8)  # analog Butterworth, order 4
    # 1 / prod(lp - p) with lp = (s^2 + w1*w2) / (s*(w2 - w1)), cleared of the pole at s = 0
    sb = s * (w2 - w1)
    response = np.prod(sb / (s * s + w1 * w2 - poles * sb), axis=1)
    return lambda x: np.fft.irfft(np.fft.rfft(x, n) * response, n)[:burst_len]


def synth_audio(spec: BreathAudioSpec, duration_s: float) -> AudioTrace:
    """Simulate a headset recording of breath sounds as 16-bit PCM counts.

    Exhalations are band-limited (200-2000 Hz) noise bursts spaced one
    breath period apart; in both-sounds mode inhalation bursts of equal
    amplitude sit midway between them, which doubles the dominant acoustic
    rate.  White background noise is added at noise_db relative to the
    burst amplitude.  Each sample is clipped to [-1, 1] and rounded from
    sample * 32767.  Deterministic under the spec seed.

    The seed's stream is drawn in one order on the calling thread: every
    burst's raw noise in time order, a burst that starts before the
    recording included, then the background noise one block at a time.
    One helper thread shapes the bursts meanwhile, in time order and in
    place: band-pass, normalise, window, amplitude.  Each block is summed
    once the bursts that overlap it are shaped, bursts first and then its
    noise, and quantised, so no float copy of the recording is held.  The
    helper has ended when this returns or raises, and an exception it
    meets is raised here.
    """
    # imported here, as in _map_blocks: a caller that only reads a spec loads no thread pool
    from concurrent.futures import ThreadPoolExecutor

    from .audio_dsp import AUDIO_RATE_HZ, AudioTrace

    period_s = 60.0 / spec.resp_rate_bpm
    if duration_s < period_s:
        raise DurationTooShortError("duration covers less than one breath period")

    n = _sample_count(duration_s, AUDIO_RATE_HZ, 2, "sample")
    # made before the bursts: a duration too long for memory fails here, not after a breath loop as long
    counts = np.empty(n, np.int16)
    rng = np.random.default_rng(spec.seed)

    centres = []
    burst_len = int(round(spec.burst_duration_s * AUDIO_RATE_HZ))
    if burst_len >= 1 and spec.burst_amplitude > 0:
        band_pass = _burst_filter(burst_len)
        burst_window = cosine_window("hann", burst_len, periodic=False)

        k = 0
        while True:
            exhale = (k + 0.75) * period_s
            if exhale * AUDIO_RATE_HZ + burst_len / 2 >= n:
                break
            centres.append(exhale)
            if not spec.exhale_only:
                centres.append((k + 0.25) * period_s)
            k += 1
    # the same numbers as one standard_normal(burst_len) per burst in time order
    raw = rng.standard_normal((len(centres), burst_len))

    background_std = 0.0
    if spec.noise_db is not None:
        background_std = _finite(lambda: spec.burst_amplitude * 10.0 ** (spec.noise_db / 20.0),
                                 f"noise_db {spec.noise_db} over burst_amplitude {spec.burst_amplitude} "
                                 "gives no finite noise level")

    def shape(row: np.ndarray) -> None:
        shaped = band_pass(row)
        shaped /= max(shaped.std(), 1e-300)
        np.multiply(burst_window, shaped, out=row)
        row *= spec.burst_amplitude

    helper = ThreadPoolExecutor(1)
    try:
        # (first sample, samples, its shaping's future), in time order: both starts and ends
        # ascend; the helper shapes them in the order they are submitted
        bursts = []
        for row, centre_s in zip(raw, sorted(centres)):
            start = int(round(centre_s * AUDIO_RATE_HZ - burst_len / 2))
            stop = min(start + burst_len, n)
            if start >= 0 and stop > start:
                bursts.append((start, row[: stop - start], helper.submit(shape, row)))

        x = np.empty(min(n, _AUDIO_BLOCK))
        z = np.empty_like(x)
        first = 0  # the first burst that ends inside or after the current block
        for lo in range(0, n, _AUDIO_BLOCK):
            hi = min(lo + _AUDIO_BLOCK, n)
            if background_std > 0:
                # drawn while the helper shapes: rng.normal(scale=background_std) over one draw
                # of n after the bursts, but for the sign of a zero, which the sum below drops
                noise = rng.standard_normal(out=z[: hi - lo])
                noise *= background_std
            block = x[: hi - lo]
            block[...] = 0
            while first < len(bursts) and bursts[first][0] + len(bursts[first][1]) <= lo:
                first += 1
            for start, burst, shaping in bursts[first:]:
                if start >= hi:
                    break
                shaping.result()
                a = max(start, lo)
                block[a - lo : start + len(burst) - lo] += burst[a - start : hi - start]
            if background_std > 0:
                block += noise
            np.clip(block, -1.0, 1.0, out=block)
            block *= 32767.0
            counts[lo:hi] = np.rint(block, out=block)
    finally:
        helper.shutdown(cancel_futures=True)
    return AudioTrace(counts)


def datagram_stream(cube: RadarCube) -> list[Datagram]:
    """The cube's raw sample stream chunked into wire datagrams."""
    from .ingest import encode_cube, stream_to_datagrams

    return stream_to_datagrams(encode_cube(cube))


def scene_truth(scene: SceneSpec, config: RadarConfig, duration_s: float):
    """Per-frame ground truth (times, displacement, rate) of the first target."""
    n_frames = int(round(duration_s * config.frame_rate_hz))
    times = np.arange(n_frames) / config.frame_rate_hz
    if scene.targets:
        motion = scene.targets[0][0]
        displacement = chest_displacement(motion, times)
        rates = np.full(n_frames, motion.resp_rate_bpm)
    else:
        displacement = np.zeros(n_frames)
        rates = np.zeros(n_frames)
    return times, displacement, rates
