"""End-to-end processing chains shared by the CLI and the test suite.

Each chain imports its DSP modules when it runs, so a radar run loads no
audio_dsp and an audio run neither ingest nor radar_dsp.

Neither chain holds a whole-recording array it does not return: the radar
chain keeps only the target window's range bins, and the STFT is read out
one block of windows at a time (see spectral._stft_rates).  The
spectrogram and the range map of a result are computed on first access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spectral import DEFAULT_BAND_BPM, RateSeries, Spectrogram, StftParams, _stft_rates, stft

if TYPE_CHECKING:
    from .audio_dsp import AudioTrace, EnvelopeTrace
    from .ingest import RadarCube
    from .radar_dsp import PhaseTrace, RangeTimeMap

VARIANTS = ("A", "B")


@dataclass
class RadarRunResult:
    """A radar run's rates and target.  The spectrogram and the range map are
    computed on first access from the cube and the STFT input the result
    holds, bit for bit what the run read its rates from, and then kept;
    each costs a pass over the recording and its whole array."""

    rates: RateSeries
    target_bin: int
    target_range_m: float
    phase: PhaseTrace | None  # variant A only
    cube: RadarCube
    stft_input: np.ndarray  # the detrended phase (A) or the clutter-free bin series (B)
    stft_params: StftParams

    @functools.cached_property
    def spectrogram(self) -> Spectrogram:
        return stft(self.stft_input, self.cube.config.frame_rate_hz, self.stft_params)

    @functools.cached_property
    def range_map(self) -> RangeTimeMap:
        from .radar_dsp import range_fft

        return range_fft(self.cube)


def process_radar_cube(
    cube: RadarCube,
    *,
    variant: str = "A",
    stft_params: StftParams | None = None,
    band_bpm: tuple[float, float] = DEFAULT_BAND_BPM,
    min_range_m: float = 0.10,
    max_range_m: float = 0.80,
    detrend: bool = True,
    spectrogram_csv=None,
) -> RadarRunResult:
    """Cube -> range FFT -> target bin -> clutter removal -> rate series.

    Variant A unwraps the bin phase (optionally removing a linear drift)
    before the STFT; variant B hands the complex slow-time series to the
    STFT directly.  The STFT runs at the cube's frame rate.  With
    spectrogram_csv, a path, the spectrogram is written there as
    spectrogram_to_csv writes it, in the pass that reads the rates.
    """
    from .radar_dsp import clutter_remove, detrend_linear, extract_unwrapped_phase, target_series

    variant = variant.upper()
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    stft_params = stft_params or StftParams()
    frame_rate_hz = cube.config.frame_rate_hz
    stft_params.samples(frame_rate_hz)  # a bad window fails before the range FFT
    target_bin, series = target_series(cube, min_range_m, max_range_m)
    series = clutter_remove(series)

    phase: PhaseTrace | None = None
    if variant == "A":
        phase = extract_unwrapped_phase(series, frame_rate_hz)
        trace = detrend_linear(phase.samples) if detrend else phase.samples
    else:
        trace = series

    return RadarRunResult(
        rates=_stft_rates(trace, frame_rate_hz, stft_params, band_bpm, spectrogram_csv),
        target_bin=target_bin,
        target_range_m=target_bin * cube.config.range_bin_spacing_m,
        phase=phase,
        cube=cube,
        stft_input=trace,
        stft_params=stft_params,
    )


@dataclass
class AudioRunResult:
    """An audio run's rates and envelope.  The spectrogram is computed on
    first access from the envelope, as RadarRunResult's is."""

    rates: RateSeries
    envelope: EnvelopeTrace
    stft_params: StftParams

    @functools.cached_property
    def spectrogram(self) -> Spectrogram:
        return stft(self.envelope.samples, self.envelope.rate_hz, self.stft_params)


def process_audio(
    audio: AudioTrace,
    *,
    stft_params: StftParams | None = None,
    band_bpm: tuple[float, float] = DEFAULT_BAND_BPM,
    multistage: bool = False,
    square: bool = False,
    spectrogram_csv=None,
) -> AudioRunResult:
    """Audio -> 20 Hz decimation -> breathing envelope -> rate series.

    The STFT runs at the envelope's rate; spectrogram_csv is written as
    process_radar_cube writes it.
    """
    from .audio_dsp import FRAME_RATE_HZ, decimate_to_frame_rate, envelope

    stft_params = stft_params or StftParams()
    stft_params.samples(FRAME_RATE_HZ)  # a bad window fails before the decimation
    env = envelope(decimate_to_frame_rate(audio, multistage=multistage), square=square)
    rates = _stft_rates(env.samples, env.rate_hz, stft_params, band_bpm, spectrogram_csv)
    return AudioRunResult(rates=rates, envelope=env, stft_params=stft_params)
