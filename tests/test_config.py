import dataclasses
import json

import numpy as np
import pytest

from respiradar import SPEED_OF_LIGHT_M_S, BreathAudioSpec, MotionSpec, RadarConfig, SceneSpec, StftParams
from respiradar.cli import RunManifest
from respiradar.config import JsonDocument


def test_default_geometry():
    config = RadarConfig()
    assert config.bandwidth_hz == pytest.approx(3.072e9)
    assert config.range_bin_spacing_m == pytest.approx(0.0488, abs=1e-4)
    assert config.frame_period_s == 0.05


def test_wavelength_at_77ghz_in_expected_band():
    wavelength = RadarConfig().wavelength_m
    assert 0.0038 <= wavelength <= 0.0040
    assert wavelength == SPEED_OF_LIGHT_M_S / 77e9


def test_positivity_validation():
    with pytest.raises(ValueError):
        RadarConfig(adc_rate_hz=0)
    with pytest.raises(ValueError):
        RadarConfig(samples_per_chirp=-1)


def test_frames_must_fit_their_period():
    # 200k samples at 5 MHz = 40 ms per chirp; two chirps cannot fit 50 ms
    with pytest.raises(ValueError):
        RadarConfig(samples_per_chirp=200_000, chirps_per_frame=2)


def test_dict_round_trip():
    config = RadarConfig(samples_per_chirp=128, frame_rate_hz=25.0)
    assert RadarConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        RadarConfig.from_dict({"carrier_hz": 1.0, "bogus": 2})


# --- one JSON type per field, read off its annotation ------------------------------

# a valid document of each JsonDocument subclass, as keyword arguments
VALID_DOCUMENTS = {
    RadarConfig: RadarConfig().to_dict(),
    MotionSpec: MotionSpec(0.5, 15.0, heart_rate_bpm=70.0, heart_amplitude_m=1e-4).to_dict(),
    SceneSpec: SceneSpec(targets=((MotionSpec(0.5, 15.0), 1.0),), static_reflectors=((3.0, 2.0),),
                         snr_db=30.0, seed=7).to_dict(),
    BreathAudioSpec: BreathAudioSpec(15.0, noise_db=-20.0, seed=7).to_dict(),
    StftParams: StftParams().to_dict(),
    RunManifest: RunManifest("process-radar", {"capture": "capture.rvsc"}, "out",
                             stft=StftParams().to_dict(), band_bpm=[6.0, 60.0], variant="A",
                             options={"min_range_m": 0.1, "max_range_m": 0.8, "detrend": True,
                                      "export_range_map": False, "export_phase": False}).to_dict(),
}

# a value of each JSON type, and the JSON type of each annotation (without `| None`, `[...]`)
JSON_SAMPLES = {"number": 1, "boolean": True, "string": "x", "array": [], "object": {}}
ANNOTATED = {"float": "number", "int": "number", "bool": "boolean", "str": "string",
             "dict": "object", "tuple": "array", "list": "array"}


def _wrong_values(annotation):
    optional = annotation.endswith(" | None")
    json_type = ANNOTATED[annotation.removesuffix(" | None").split("[")[0]]
    wrong = [value for name, value in JSON_SAMPLES.items() if name != json_type]
    return wrong if optional else [*wrong, None]


FIELD_CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in VALID_DOCUMENTS
    for f in dataclasses.fields(cls)
    for value in _wrong_values(f.type)
]


def test_every_json_document_is_in_the_field_table():
    import respiradar.simulate  # noqa: F401  (defines the specs)

    assert set(JsonDocument.__subclasses__()) == set(VALID_DOCUMENTS)
    for cls, valid in VALID_DOCUMENTS.items():
        assert cls(**valid).to_dict() == valid


@pytest.mark.parametrize("cls, name, value", FIELD_CASES)
def test_field_of_another_json_type_is_rejected_by_name(cls, name, value):
    # "resp_rate_bpm": true simulated a 1 bpm diver, "exhale_only": 0 a
    # breath spec with both sounds, and "rx_channels": 1.0 ended in a struct.error
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{**VALID_DOCUMENTS[cls], name: value})


def test_integer_field_stores_an_integral_float_or_numpy_integer_as_int():
    integers = [f.name for f in dataclasses.fields(RadarConfig) if f.type == "int"]
    for value in (float, np.int64, np.float64):
        config = RadarConfig(**{name: value(getattr(RadarConfig(), name)) for name in integers})
        assert config == RadarConfig()
        assert all(type(getattr(config, name)) is int for name in integers)
    with pytest.raises(ValueError, match="^rx_channels must be a nonnegative integer, got 1.5"):
        RadarConfig(rx_channels=1.5)


def test_number_field_keeps_its_json_integer():
    # the scene embedded in a manifest keeps "resp_rate_bpm": 15 as written
    motion = MotionSpec.from_dict({"base_range_m": 1, "resp_rate_bpm": 15})
    assert json.dumps(motion.to_dict()["resp_rate_bpm"]) == "15"
    assert StftParams.from_dict({"window_s": 60, "overlap_s": 59}).to_dict()["window_s"] == 60


def test_numpy_scalar_reads_as_the_python_value_it_holds():
    rate = MotionSpec(0.5, np.float32(15.0)).resp_rate_bpm
    assert rate == 15.0 and type(rate) is float
    assert BreathAudioSpec(15.0, exhale_only=np.bool_(False)).exhale_only is False
    with pytest.raises(ValueError, match="^resp_rate_bpm must be a number, got bool"):
        MotionSpec(0.5, np.bool_(True))
    with pytest.raises(ValueError, match="^resp_rate_bpm must be finite, got inf"):
        MotionSpec(0.5, np.float32(np.inf))


@pytest.mark.parametrize("name, pair", [("targets", [[{"base_range_m": 0.5, "resp_rate_bpm": 15.0}, True]]),
                                        ("static_reflectors", [[True, 0.5]]),
                                        ("static_reflectors", [[3.0, "2"]])])
def test_scene_pair_members_are_numbers(name, pair):
    # [[true, 0.5]] put a reflector at 1 m
    with pytest.raises(ValueError, match="^(reflectivity|reflector_range_m) must be a number"):
        SceneSpec.from_dict({name: pair})
