import sys

import numpy as np
import pytest

from respiradar import MotionSpec, RadarConfig, SceneSpec


@pytest.fixture(scope="session")
def config():
    return RadarConfig()


def breathing_scene(
    range_m=0.5,
    rate_bpm=15.0,
    amplitude_m=0.001,
    snr_db=30.0,
    seed=0,
    harmonic_2_frac=0.0,
    static_reflectors=(),
):
    motion = MotionSpec(
        base_range_m=range_m,
        resp_rate_bpm=rate_bpm,
        resp_amplitude_m=amplitude_m,
        harmonic_2_frac=harmonic_2_frac,
    )
    return SceneSpec(
        targets=((motion, 1.0),),
        static_reflectors=tuple(static_reflectors),
        snr_db=snr_db,
        seed=seed,
    )


def static_scene(ranges_and_refl, snr_db=None, seed=0):
    return SceneSpec(static_reflectors=tuple(ranges_and_refl), snr_db=snr_db, seed=seed)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_npz_holds_range_map(path, rmap) -> None:
    """The .npz at path holds rmap's four RangeTimeMap fields, bit for bit."""
    from respiradar import RangeTimeMap

    with np.load(path) as npz:
        saved = RangeTimeMap(**npz)
    for field in ("values", "frame_times_s", "bin_spacing_m", "frame_rate_hz"):
        assert same_bits(getattr(saved, field), np.asarray(getattr(rmap, field))), field


def random_iq_counts(shape, seed=0) -> np.ndarray:
    """Uniform int16 I/Q counts of the given [frame][chirp][sample] shape,
    as a RadarCube holds them."""
    from respiradar.ingest import IQ_COUNTS

    values = np.random.default_rng(seed).integers(-32768, 32768, tuple(shape) + (2,), dtype=np.int16)
    return values.view(IQ_COUNTS)[..., 0]


def sine_amplitude(x: np.ndarray) -> float:
    """Amplitude of a zero-mean sinusoid-like trace (sqrt(2) * RMS)."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(2.0) * x.std())


@pytest.fixture
def fast_thread_switching():
    """Switch threads every microsecond, so pool workers interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
