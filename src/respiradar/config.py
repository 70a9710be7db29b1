"""Radar chirp/frame geometry and the derived range axis, and the one
reader and writer of the JSON documents (configs, specs, manifests)."""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields

SPEED_OF_LIGHT_M_S = 299_792_458.0

# a JSON type: its name in messages, and the Python types that hold it
BOOLEAN, STRING, OBJECT = ("a boolean", (bool,)), ("a string", (str,)), ("a JSON object", (dict,))
NUMBER, INTEGER = ("a number", (int, float)), ("a nonnegative integer", (int, float))
ARRAY = ("a JSON array", (list, tuple))
# the JSON type of a field, by its annotation without "| None" and any "[...]"
_ANNOTATED = {"float": NUMBER, "int": INTEGER, "bool": BOOLEAN, "str": STRING,
              "dict": OBJECT, "tuple": ARRAY, "list": ARRAY}


def json_value(name: str, value, json_type):
    """value as `name` of json_type, an integral float as an int.  ValueError
    for a value of another JSON type (true is not a number), and for a number
    that is NaN, infinite or too large for a float, or not a whole number
    >= 0 where an integer belongs."""
    what, types = json_type
    if type(value).__module__ == "numpy":  # a numpy scalar reads as the Python value it holds
        value = value.item()
    if not isinstance(value, types) or isinstance(value, bool) != (bool in types):
        raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
    if float not in types:
        return value
    if not abs(value) <= sys.float_info.max:  # false for NaN, and an int too large for a float
        raise ValueError(f"{name} must be finite, got {value}")
    if json_type is INTEGER and not (value >= 0 and value == int(value)):
        raise ValueError(f"{name} must be {what}, got {value}")
    return int(value) if json_type is INTEGER else value


def json_object(kind: str, given, known, required=()) -> dict:
    """given, if it is a JSON object whose fields all lie in known and
    include all of required; else ValueError naming what it is or the
    fields that are unknown or missing."""
    json_value(kind, given, OBJECT)
    unknown = set(given) - set(known)
    if unknown:
        raise ValueError(f"unknown {kind} fields: {sorted(unknown)}")
    missing = set(required) - set(given)
    if missing:
        raise ValueError(f"missing {kind} fields: {sorted(missing)}")
    return given


class JsonDocument:
    """Base of the dataclasses read from and written to JSON, which name
    their kind for error messages: ``class C(JsonDocument, kind="scene")``.

    ``from_dict`` takes one JSON object of its dataclass's fields only, each
    field without a default among them, ``from_json_file`` reads one such
    object from a file, and ``to_dict`` is ``dataclasses.asdict``;
    ``__post_init__`` checks each field's JSON type, named by its annotation
    (``_ANNOTATED``; ``| None`` lets null through), and a subclass's calls it
    first, then checks the values' domain.
    """

    def __init_subclass__(cls, kind: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = kind

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or not f.type.endswith(" | None"):
                json_type = _ANNOTATED[f.type.removesuffix(" | None").split("[")[0]]
                object.__setattr__(self, f.name, json_value(f.name, value, json_type))

    @classmethod
    def from_dict(cls, d):
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        return cls(**json_object(cls.kind, d, cls.__dataclass_fields__, required))

    @classmethod
    def from_json_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RadarConfig(JsonDocument, kind="radar config"):
    """Chirp and frame geometry that fixes the range axis and slow-time rate.

    Defaults describe a 77 GHz module streaming one 256-sample chirp per
    frame at 20 frames/s: bandwidth 3.072 GHz, range bins of roughly 4.9 cm.
    Only the carrier and frame rate are tied to the target hardware; the
    chirp parameters are configurable.

    The field order is on-disk: the capture container header stores these
    fields in declaration order, so reordering, adding or removing a field
    changes the file format.
    """

    carrier_hz: float = 77.0e9
    chirp_slope_hz_per_s: float = 60.0e12
    adc_rate_hz: float = 5.0e6
    samples_per_chirp: int = 256
    chirps_per_frame: int = 1
    frame_rate_hz: float = 20.0
    rx_channels: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be strictly positive")
        if self.frame_rate_hz * self.active_frame_duration_s > 1.0:
            raise ValueError("frames do not fit their repetition period")

    @property
    def bandwidth_hz(self) -> float:
        """Swept bandwidth covered by one chirp's sampled portion."""
        return self.chirp_slope_hz_per_s * self.samples_per_chirp / self.adc_rate_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @property
    def range_bin_spacing_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / (2.0 * self.bandwidth_hz)

    @property
    def chirp_duration_s(self) -> float:
        return self.samples_per_chirp / self.adc_rate_hz

    @property
    def active_frame_duration_s(self) -> float:
        return self.chirps_per_frame * self.chirp_duration_s

    @property
    def frame_period_s(self) -> float:
        return 1.0 / self.frame_rate_hz
