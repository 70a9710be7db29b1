"""The radar stages that run in frame blocks on the worker pool (simulate
and quantise, range FFT) give the same bits as one whole-array pass, at
any worker count and on either side of a block boundary.  Decoding, which
keeps a view of the stream and converts nothing, is checked beside them."""

import dataclasses

import numpy as np
import pytest

from conftest import breathing_scene, random_iq_counts, same_bits
from respiradar import RadarCube, RadarConfig, decode_cube, encode_cube, range_fft, synth_cube
from respiradar import spectral
from respiradar.config import SPEED_OF_LIGHT_M_S
from respiradar.simulate import chest_displacement
from respiradar.spectral import cosine_window

FRAME_COUNTS = [1, spectral._FRAME_BLOCK - 1, spectral._FRAME_BLOCK, spectral._FRAME_BLOCK + 1]


def synth_reference(scene, config, n_frames):
    """The cube as one whole-array pass computes it: every scatterer summed
    over all frames, then both noise draws added at once."""
    frame_times = np.arange(n_frames) / config.frame_rate_hz
    n_fast = config.samples_per_chirp
    fast_index = np.arange(n_fast) - (n_fast - 1) / 2.0
    shape = (n_frames, config.chirps_per_frame, n_fast)
    data = np.zeros(shape, dtype=np.complex128)
    scatterers = [(m.base_range_m + chest_displacement(m, frame_times), a) for m, a in scene.targets]
    scatterers += [(np.full(n_frames, r), a) for r, a in scene.static_reflectors]
    for ranges, reflectivity in scatterers:
        beat_hz = 2.0 * config.chirp_slope_hz_per_s * ranges / SPEED_OF_LIGHT_M_S
        slow_phase = 4.0 * np.pi * ranges / config.wavelength_m
        phase = (
            2.0 * np.pi * beat_hz[:, None] * fast_index[None, :] / config.adc_rate_hz
            + slow_phase[:, None]
        )
        data += reflectivity * np.exp(1j * phase)[:, None, :]
    if scene.snr_db is not None:
        strongest = max(abs(a) for _, a in scatterers)
        rng = np.random.default_rng(scene.seed)
        sigma = np.sqrt(strongest**2 * 10.0 ** (-scene.snr_db / 10.0) / 2.0)
        data += rng.normal(scale=sigma, size=shape) + 1j * rng.normal(scale=sigma, size=shape)
    return data


def range_fft_reference(samples):
    """The range FFT of complex samples [frame][chirp][sample] in one pass."""
    n = samples.shape[-1]
    window = cosine_window("hann", n, periodic=False)
    centre_ref = np.exp(1j * np.pi * np.arange(n) * (n - 1) / n)
    return np.fft.fft(samples.mean(axis=1) * window, axis=1) * centre_ref


def decode_reference(stream, config, n_frames):
    iq = np.frombuffer(stream, dtype="<i2").reshape(
        n_frames, config.chirps_per_frame, config.rx_channels, config.samples_per_chirp, 2
    )[:, :, 0]
    samples = np.empty(iq.shape[:-1], dtype=np.complex128)
    samples.real = iq[..., 0]
    samples.imag = iq[..., 1]
    return samples


def encode_reference(samples):
    """The int16 stream of one whole-array quantisation: 4x the peak I/Q
    component is full scale."""
    peak = max(np.abs(samples.real).max(), np.abs(samples.imag).max())
    scale = 32767.0 / (4.0 * peak)
    interleaved = np.empty(samples.shape + (2,), dtype="<i2")
    interleaved[..., 0] = np.clip(np.rint(samples.real * scale), -32768, 32767)
    interleaved[..., 1] = np.clip(np.rint(samples.imag * scale), -32768, 32767)
    return interleaved.tobytes()


def random_stream(config, n_frames, seed):
    n = n_frames * config.chirps_per_frame * config.rx_channels * config.samples_per_chirp * 2
    counts = np.random.default_rng(seed).integers(-32768, 32768, n).astype("<i2")
    counts[:4] = [-32768, 32767, 0, -1]
    return counts.tobytes()


def full_scale_stream(config, n_frames, seed):
    """Every count -32768 or 32767: 4 chirps sum to as much as 4 * -32768."""
    n = n_frames * config.chirps_per_frame * config.rx_channels * config.samples_per_chirp * 2
    counts = np.random.default_rng(seed).choice(np.array([-32768, 32767], "<i2"), n)
    counts[: 2 * config.samples_per_chirp * config.rx_channels * config.chirps_per_frame] = -32768
    return counts.tobytes()


def short_config(chirps):
    # a short chirp keeps a 513-frame cube small; 4 chirps of 64 samples fit a 20 Hz frame
    return RadarConfig(samples_per_chirp=64, chirps_per_frame=chirps)


SCENES = {
    "noisy": breathing_scene(seed=4, static_reflectors=((1.5, 2.0),)),
    "clean": breathing_scene(snr_db=None, harmonic_2_frac=0.3, static_reflectors=((0.3, 0.7),)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chirps", [1, 3, 4])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@pytest.mark.parametrize("scene", list(SCENES))
def test_synth_cube_does_not_depend_on_blocks_or_workers(monkeypatch, fast_thread_switching,
                                                         workers, chirps, n_frames, scene):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    config = short_config(chirps)
    cube = synth_cube(SCENES[scene], config, n_frames / config.frame_rate_hz)
    assert cube.data.shape == (n_frames, chirps, config.samples_per_chirp)
    assert cube.data.tobytes() == encode_reference(synth_reference(SCENES[scene], config, n_frames))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chirps", [1, 3, 4])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_range_fft_does_not_depend_on_blocks_or_workers(monkeypatch, fast_thread_switching,
                                                        workers, chirps, n_frames):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    config = short_config(chirps)
    # three chirps make the mean divide by 3, which is not exact
    data = random_iq_counts((n_frames, chirps, config.samples_per_chirp), seed=n_frames + chirps)
    cube = RadarCube(config=config, data=data, frame_timestamps=np.arange(n_frames) / 20.0)
    assert same_bits(range_fft(cube).values, range_fft_reference(cube.samples))


@pytest.mark.parametrize("chirps", [1, 3, 4])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_decode_cube_reads_rx_0_of_a_multi_channel_stream(chirps, n_frames):
    # decoding runs no block loop: it views the stream on the calling thread
    config = dataclasses.replace(short_config(chirps), rx_channels=2)
    stream = random_stream(config, n_frames, seed=n_frames)
    cube = decode_cube(stream, config)
    assert same_bits(cube.samples, decode_reference(stream, config, n_frames))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rx", [1, 4])
@pytest.mark.parametrize("chirps", [1, 3, 4])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_range_fft_of_decoded_counts_matches_the_complex_cube(monkeypatch, fast_thread_switching,
                                                              workers, rx, chirps, n_frames):
    # each frame block sums its chirps' int16 counts in float64 straight into
    # its output rows; at full scale the sums are far beyond int16
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    config = dataclasses.replace(short_config(chirps), rx_channels=rx)
    for make_stream in (random_stream, full_scale_stream):
        stream = make_stream(config, n_frames, seed=n_frames + chirps + rx)
        counts = decode_cube(stream, config)
        assert same_bits(range_fft(counts).values,
                         range_fft_reference(decode_reference(stream, config, n_frames)))


@pytest.mark.parametrize("chirps", [1, 3])
def test_range_fft_of_a_cube_with_strided_samples(chirps):
    # the counts are read as int16 pairs, which needs the samples side by side
    config = short_config(chirps)
    data = random_iq_counts((5, chirps, 2 * config.samples_per_chirp), seed=chirps)[:, :, ::-2]
    cube = RadarCube(config=config, data=data, frame_timestamps=np.arange(5) / 20.0)
    assert same_bits(range_fft(cube).values, range_fft_reference(cube.samples))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chirps", [1, 3])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
def test_encode_cube_does_not_depend_on_blocks_or_workers(monkeypatch, fast_thread_switching,
                                                          workers, chirps, n_frames):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    config = short_config(chirps)
    stream = encode_cube(synth_cube(SCENES["noisy"], config, n_frames / config.frame_rate_hz))
    assert stream == encode_reference(synth_reference(SCENES["noisy"], config, n_frames))
    # a decoded cube encodes its counts as they are
    assert encode_cube(decode_cube(stream, config)) == stream

