"""The chains read their rates, and write the spectrogram CSV and the range
map's .npz, one block at a time, with no whole-recording array held: the
same rates and bytes as the whole-array stages at any worker count and on
either side of a block boundary, a result's spectrogram and range map
computed on access bit for bit as the eager stages compute them, and a
traced peak that stays below one whole spectrogram on a long recording."""

import tracemalloc

import numpy as np
import pytest

from conftest import assert_npz_holds_range_map, breathing_scene, random_iq_counts, same_bits
from respiradar import (AudioTrace, RadarConfig, RadarCube, StftParams, extract_rate, process_audio,
                        process_radar_cube, range_fft, select_target_bin, stft, synth_audio, synth_cube)
from respiradar import spectral
from respiradar.errors import EmptyBandError
from respiradar.radar_dsp import clutter_remove, detrend_linear, extract_unwrapped_phase, range_map_npz
from respiradar.simulate import BreathAudioSpec
from respiradar.spectral import spectrogram_to_csv

# a 10 s window on a 30 s recording: 401 instants, which no block size below 401 divides
PARAMS = StftParams(window_s=10.0, overlap_s=9.95)
N_INSTANTS = 401
# (workers, _FFT_CHUNK, _CSV_CHUNK_CELLS): the default blocks, and blocks of a few windows
CSV_CELLS = spectral._CSV_CHUNK_CELLS
BLOCKINGS = [(1, spectral._FFT_CHUNK, CSV_CELLS), (2, spectral._FFT_CHUNK, CSV_CELLS),
             (1, 14, 1000), (2, 14, 1000), (2, 14, 500)]


@pytest.fixture(scope="module")
def cube():
    config = RadarConfig()
    return synth_cube(breathing_scene(seed=3, static_reflectors=((3.0, 2.0),)), config, 30.0)


@pytest.fixture(scope="module")
def audio():
    return synth_audio(BreathAudioSpec(resp_rate_bpm=15.0, exhale_only=False, noise_db=-20.0, seed=7), 30.0)


def eager_radar(cube, variant):
    """The radar chain as whole-array stages: the full range map, then the
    whole spectrogram, then its rates."""
    rmap = range_fft(cube)
    target_bin = select_target_bin(rmap)
    series = clutter_remove(rmap.bin_series(target_bin))
    trace = detrend_linear(extract_unwrapped_phase(series, 20.0).samples) if variant == "A" else series
    spectrogram = stft(trace, 20.0, PARAMS)
    return rmap, target_bin, spectrogram, extract_rate(spectrogram)


def same_rates(a, b):
    return all(same_bits(getattr(a, name), getattr(b, name))
               for name in ("times_s", "rates_bpm", "magnitudes"))


@pytest.mark.parametrize("variant", ["A", "B"])
def test_radar_result_equals_the_eager_stages(cube, variant):
    rmap, target_bin, spectrogram, rates = eager_radar(cube, variant)
    result = process_radar_cube(cube, variant=variant, stft_params=PARAMS)
    assert result.target_bin == target_bin
    assert result.target_range_m == target_bin * rmap.bin_spacing_m
    assert same_rates(result.rates, rates)
    assert result.rates.times_s.size == N_INSTANTS
    # computed on first access, then kept
    assert "spectrogram" not in vars(result) and "range_map" not in vars(result)
    assert same_bits(result.spectrogram.magnitudes, spectrogram.magnitudes)
    assert same_bits(result.spectrogram.freq_axis_bpm, spectrogram.freq_axis_bpm)
    assert same_bits(result.spectrogram.time_axis_s, spectrogram.time_axis_s)
    assert same_bits(result.range_map.values, rmap.values)
    assert same_bits(result.range_map.frame_times_s, rmap.frame_times_s)
    assert result.spectrogram is result.spectrogram and result.range_map is result.range_map


def test_audio_result_equals_the_eager_stages(audio):
    result = process_audio(audio, stft_params=PARAMS)
    spectrogram = stft(result.envelope.samples, 20.0, PARAMS)
    assert same_rates(result.rates, extract_rate(spectrogram))
    assert "spectrogram" not in vars(result)
    assert same_bits(result.spectrogram.magnitudes, spectrogram.magnitudes)


@pytest.mark.parametrize("workers, fft_chunk, csv_cells", BLOCKINGS)
@pytest.mark.parametrize("chain", ["A", "B", "audio"])
def test_rates_and_spectrogram_csv_do_not_depend_on_workers_or_blocks(
        tmp_path, monkeypatch, fast_thread_switching, cube, audio, chain, workers, fft_chunk, csv_cells):
    # the reference: the whole spectrogram's rates and its CSV from the whole-table writer
    if chain == "audio":
        reference = process_audio(audio, stft_params=PARAMS)
    else:
        reference = process_radar_cube(cube, variant=chain, stft_params=PARAMS)
    spectrogram_to_csv(reference.spectrogram, tmp_path / "eager.csv")
    expected_rates = extract_rate(reference.spectrogram)

    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    monkeypatch.setattr(spectral, "_FFT_CHUNK", fft_chunk)
    monkeypatch.setattr(spectral, "_CSV_CHUNK_CELLS", csv_cells)
    steps = []
    map_blocks = spectral._map_blocks

    def recording_map_blocks(fn, n, step, *args, **kwargs):
        steps.append((n, step))
        return map_blocks(fn, n, step, *args, **kwargs)

    monkeypatch.setattr(spectral, "_map_blocks", recording_map_blocks)
    path = tmp_path / "out" / "spectrogram.csv"  # its directory is made once the inputs are checked
    if chain == "audio":
        result = process_audio(audio, stft_params=PARAMS, spectrogram_csv=path)
    else:
        result = process_radar_cube(cube, variant=chain, stft_params=PARAMS, spectrogram_csv=path)
    # one pass over the windows, in several blocks, the last one short
    (n, step), = [(n, step) for n, step in steps if n == N_INSTANTS]
    assert step < N_INSTANTS and N_INSTANTS % step != 0
    if csv_cells < CSV_CELLS:
        assert 3 * step < N_INSTANTS
    assert same_rates(result.rates, expected_rates)
    assert path.read_bytes() == (tmp_path / "eager.csv").read_bytes()


def test_a_run_that_fails_makes_no_spectrogram_directory(tmp_path, cube):
    path = tmp_path / "out" / "spectrogram.csv"
    with pytest.raises(EmptyBandError):
        process_radar_cube(cube, stft_params=PARAMS, band_bpm=(700.0, 800.0), spectrogram_csv=path)
    assert not (tmp_path / "out").exists()


def short_config(chirps):
    return RadarConfig(samples_per_chirp=64, chirps_per_frame=chirps)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_frames", [1, spectral._FRAME_BLOCK - 1, spectral._FRAME_BLOCK + 1,
                                      2 * spectral._FRAME_BLOCK + 3])
def test_range_map_npz_of_the_cube_holds_the_whole_map(tmp_path, monkeypatch, fast_thread_switching, workers,
                                                       n_frames):
    monkeypatch.setattr(spectral, "_worker_count", lambda: workers)
    config = short_config(3)
    data = random_iq_counts((n_frames, 3, config.samples_per_chirp), seed=n_frames)
    data[0] = np.zeros((), data.dtype)  # a frame of zero counts: every bin is 0
    cube = RadarCube(config=config, data=data, frame_timestamps=np.arange(n_frames) / 20.0)
    range_map_npz(cube, tmp_path / "range_map.npz")
    assert_npz_holds_range_map(tmp_path / "range_map.npz", range_fft(cube))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 20 minutes: 24,000 frames and 22,801 instants
LONG_FRAMES = 24000


@pytest.mark.parametrize("variant", ["A", "B"])
def test_radar_chain_holds_no_whole_recording_array(tmp_path, monkeypatch, variant):
    # the blocks in flight grow with the worker count: the bound is set for 2
    monkeypatch.setattr(spectral, "_worker_count", lambda: 2)
    config = RadarConfig()
    cube = RadarCube(config=config, data=random_iq_counts((LONG_FRAMES, 1, config.samples_per_chirp), seed=1),
                     frame_timestamps=np.arange(LONG_FRAMES) / config.frame_rate_hz)
    bins = config.samples_per_chirp
    length, _ = StftParams().samples(config.frame_rate_hz)
    spectrogram_bytes = (LONG_FRAMES - length + 1) * (length // 2 + 1 if variant == "A" else length) * 8
    range_map_bytes = LONG_FRAMES * bins * 16
    peak = traced_peak(lambda: process_radar_cube(cube, variant=variant,
                                                  spectrogram_csv=tmp_path / "spectrogram.csv"))
    # a whole spectrogram or range map is 98-219 MB here; the target window's
    # 15 range bins and the blocks in flight take about 14 MB
    assert peak < min(spectrogram_bytes, range_map_bytes) / 5, peak
    peak = traced_peak(lambda: range_map_npz(cube, tmp_path / "range_map.npz"))
    assert peak < range_map_bytes / 5, peak


def test_audio_chain_holds_no_whole_recording_array(tmp_path):
    n = LONG_FRAMES * 2205
    audio = AudioTrace(np.random.default_rng(2).integers(-3000, 3000, n, dtype=np.int16))
    length, _ = StftParams().samples(20.0)
    spectrogram_bytes = (LONG_FRAMES - length + 1) * (length // 2 + 1) * 8
    peak = traced_peak(lambda: process_audio(audio, spectrogram_csv=tmp_path / "spectrogram.csv"))
    assert peak < spectrogram_bytes / 5, peak
