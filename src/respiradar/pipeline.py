"""End-to-end processing chains shared by the CLI and the test suite.

Each chain imports its DSP modules when it runs, so a radar run loads no
audio_dsp and an audio run neither ingest nor radar_dsp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spectral import DEFAULT_BAND_BPM, RateSeries, Spectrogram, StftParams, extract_rate, stft

if TYPE_CHECKING:
    from .audio_dsp import AudioTrace, EnvelopeTrace
    from .ingest import RadarCube
    from .radar_dsp import PhaseTrace, RangeTimeMap

VARIANTS = ("A", "B")


@dataclass
class RadarRunResult:
    rates: RateSeries
    spectrogram: Spectrogram
    range_map: RangeTimeMap
    target_bin: int
    target_range_m: float
    phase: PhaseTrace | None  # variant A only


def process_radar_cube(
    cube: RadarCube,
    *,
    variant: str = "A",
    stft_params: StftParams | None = None,
    band_bpm: tuple[float, float] = DEFAULT_BAND_BPM,
    min_range_m: float = 0.10,
    max_range_m: float = 0.80,
    detrend: bool = True,
) -> RadarRunResult:
    """Cube -> range FFT -> target bin -> clutter removal -> rate series.

    Variant A unwraps the bin phase (optionally removing a linear drift)
    before the STFT; variant B hands the complex slow-time series to the
    STFT directly.  The STFT runs at the cube's frame rate.
    """
    from .radar_dsp import (clutter_remove, detrend_linear, extract_unwrapped_phase, range_fft,
                            select_target_bin)

    variant = variant.upper()
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    stft_params = stft_params or StftParams()
    stft_params.samples(cube.config.frame_rate_hz)  # a bad window fails before the range FFT
    rmap = range_fft(cube)
    target_bin = select_target_bin(rmap, min_range_m, max_range_m)
    series = clutter_remove(rmap.bin_series(target_bin))

    phase: PhaseTrace | None = None
    if variant == "A":
        phase = extract_unwrapped_phase(series, rmap.frame_rate_hz)
        trace = detrend_linear(phase.samples) if detrend else phase.samples
    else:
        trace = series

    spectrogram = stft(trace, rmap.frame_rate_hz, stft_params)
    rates = extract_rate(spectrogram, band_bpm)
    return RadarRunResult(
        rates=rates,
        spectrogram=spectrogram,
        range_map=rmap,
        target_bin=target_bin,
        target_range_m=target_bin * rmap.bin_spacing_m,
        phase=phase,
    )


@dataclass
class AudioRunResult:
    rates: RateSeries
    spectrogram: Spectrogram
    envelope: EnvelopeTrace


def process_audio(
    audio: AudioTrace,
    *,
    stft_params: StftParams | None = None,
    band_bpm: tuple[float, float] = DEFAULT_BAND_BPM,
    multistage: bool = False,
    square: bool = False,
) -> AudioRunResult:
    """Audio -> 20 Hz decimation -> breathing envelope -> rate series.

    The STFT runs at the envelope's rate.
    """
    from .audio_dsp import FRAME_RATE_HZ, decimate_to_frame_rate, envelope

    stft_params = stft_params or StftParams()
    stft_params.samples(FRAME_RATE_HZ)  # a bad window fails before the decimation
    env = envelope(decimate_to_frame_rate(audio, multistage=multistage), square=square)
    spectrogram = stft(env.samples, env.rate_hz, stft_params)
    rates = extract_rate(spectrogram, band_bpm)
    return AudioRunResult(rates=rates, spectrogram=spectrogram, envelope=env)
