"""Respiration-rate estimation from FMCW radar captures.

Ingest parses the capture wire/file formats into a raw cube; radar_dsp
reduces the cube to the unwrapped phase of the strongest chest reflection;
audio_dsp turns a reference microphone recording into a breathing envelope;
spectral extracts per-instant rates from either trace; simulate provides
the synthetic scenes used as ground truth.
"""

from .audio_dsp import AudioTrace, EnvelopeTrace, decimate_to_frame_rate, envelope, load_wav, save_wav
from .config import SPEED_OF_LIGHT_M_S, RadarConfig
from .ingest import (
    Datagram,
    LossReport,
    RadarCube,
    decode_cube,
    encode_cube,
    load_capture,
    parse_datagram,
    reassemble,
    receive_datagrams,
    serialize_datagram,
    write_capture,
)
from .pipeline import AudioRunResult, RadarRunResult, process_audio, process_radar_cube
from .radar_dsp import (
    PhaseTrace,
    RangeTimeMap,
    StaticProfile,
    clutter_remove,
    detrend_linear,
    extract_unwrapped_phase,
    range_fft,
    select_target_bin,
    static_profile,
)
from .simulate import (
    BreathAudioSpec,
    MotionSpec,
    SceneSpec,
    chest_displacement,
    datagram_stream,
    synth_audio,
    synth_cube,
)
from .spectral import (
    RateComparison,
    RateSeries,
    Spectrogram,
    StftParams,
    compare_rates,
    extract_rate,
    stft,
)

__all__ = [
    "AudioRunResult",
    "AudioTrace",
    "BreathAudioSpec",
    "Datagram",
    "EnvelopeTrace",
    "LossReport",
    "MotionSpec",
    "PhaseTrace",
    "RadarConfig",
    "RadarCube",
    "RadarRunResult",
    "RangeTimeMap",
    "RateComparison",
    "RateSeries",
    "SceneSpec",
    "SPEED_OF_LIGHT_M_S",
    "Spectrogram",
    "StaticProfile",
    "StftParams",
    "chest_displacement",
    "clutter_remove",
    "compare_rates",
    "datagram_stream",
    "decimate_to_frame_rate",
    "decode_cube",
    "detrend_linear",
    "encode_cube",
    "envelope",
    "extract_rate",
    "extract_unwrapped_phase",
    "load_capture",
    "load_wav",
    "parse_datagram",
    "process_audio",
    "process_radar_cube",
    "range_fft",
    "reassemble",
    "receive_datagrams",
    "save_wav",
    "select_target_bin",
    "serialize_datagram",
    "static_profile",
    "stft",
    "synth_audio",
    "synth_cube",
    "write_capture",
]
