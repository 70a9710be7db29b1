"""Respiration-rate estimation from FMCW radar captures.

Ingest parses the capture wire/file formats into a raw cube; radar_dsp
reduces the cube to the unwrapped phase of the strongest chest reflection;
audio_dsp turns a reference microphone recording into a breathing envelope;
spectral extracts per-instant rates from either trace; simulate provides
the synthetic scenes used as ground truth.

The public names below are looked up lazily (PEP 562): `import respiradar`
loads neither numpy nor any submodule, and `respiradar.stft` imports only
the module that defines it.  A cold `respiradar --help` imports this
package, so everything imported here is paid by every CLI start.
"""

import importlib

# public name -> the submodule that defines it
_HOME = {
    "AudioTrace": "audio_dsp",
    "EnvelopeTrace": "audio_dsp",
    "decimate_to_frame_rate": "audio_dsp",
    "envelope": "audio_dsp",
    "load_wav": "audio_dsp",
    "save_wav": "audio_dsp",
    "SPEED_OF_LIGHT_M_S": "config",
    "RadarConfig": "config",
    "Datagram": "ingest",
    "LossReport": "ingest",
    "RadarCube": "ingest",
    "decode_cube": "ingest",
    "encode_cube": "ingest",
    "load_capture": "ingest",
    "parse_datagram": "ingest",
    "reassemble": "ingest",
    "receive_datagrams": "ingest",
    "serialize_datagram": "ingest",
    "write_capture": "ingest",
    "AudioRunResult": "pipeline",
    "RadarRunResult": "pipeline",
    "process_audio": "pipeline",
    "process_radar_cube": "pipeline",
    "PhaseTrace": "radar_dsp",
    "RangeTimeMap": "radar_dsp",
    "StaticProfile": "radar_dsp",
    "clutter_remove": "radar_dsp",
    "detrend_linear": "radar_dsp",
    "extract_unwrapped_phase": "radar_dsp",
    "range_fft": "radar_dsp",
    "select_target_bin": "radar_dsp",
    "static_profile": "radar_dsp",
    "BreathAudioSpec": "simulate",
    "MotionSpec": "simulate",
    "SceneSpec": "simulate",
    "chest_displacement": "simulate",
    "datagram_stream": "simulate",
    "synth_audio": "simulate",
    "synth_cube": "simulate",
    "RateComparison": "spectral",
    "RateSeries": "spectral",
    "Spectrogram": "spectral",
    "StftParams": "spectral",
    "compare_rates": "spectral",
    "extract_rate": "spectral",
    "stft": "spectral",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    # not cached in the namespace: the name always reads its home module's
    # current binding
    try:
        home = _HOME[name]
    except KeyError:
        # AttributeError, so that hasattr works and `from respiradar import
        # cli` falls back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
