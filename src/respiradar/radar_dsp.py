"""Range compression and slow-time phase extraction for chest-motion sensing."""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCubeError,
    TooFewFramesError,
    WindowEmptyError,
    ZeroMagnitudeError,
)
from .ingest import RadarCube
from .spectral import _FRAME_BLOCK, _map_blocks, _write_csv_10g, cosine_window


@dataclass
class RangeTimeMap:
    """Complex range profile per frame; bin k sits at k * bin_spacing_m."""

    values: np.ndarray  # (frames, bins)
    bin_spacing_m: float
    frame_rate_hz: float
    frame_times_s: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def bin_ranges_m(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_spacing_m

    def bin_series(self, bin_index: int) -> np.ndarray:
        """Slow-time complex series of one range bin."""
        return self.values[:, bin_index]


@dataclass
class StaticProfile:
    """Time-averaged power and its relative spread, per range bin."""

    mean_power_db: np.ndarray
    cov: np.ndarray  # std/mean of linear power over frames


@dataclass
class PhaseTrace:
    """Unwrapped phase of one range bin, sampled at the frame rate."""

    samples: np.ndarray
    frame_rate_hz: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size >= 2:
            if np.max(np.abs(np.diff(self.samples))) > np.pi + 1e-9:
                raise ValueError("phase trace is not unwrapped: step exceeds pi")


def range_fft(cube: RadarCube) -> RangeTimeMap:
    """Compress fast time into a complex range profile for every frame.

    Chirps within a frame are averaged coherently, a symmetric Hann window
    is applied over fast time and the full-length FFT is taken, one block
    of frames at a time on the worker pool.  The cube's int16 I/Q counts
    are summed over chirps in float64 straight into the output rows, whose
    complex128 layout interleaves I and Q as the counts do: integer sums
    are exact, so the mean matches that of the complex samples bit for
    bit, and the cube is never held as complex.  The beat signal is
    complex, so all samples_per_chirp bins are retained and bin k maps to
    range k * c / (2 * bandwidth).

    The DFT is referenced to the window centre (a fixed per-bin rotation),
    so together with a chirp-centre beat reference the bin phase reads the
    two-way carrier phase 4*pi*R/lambda directly.
    """
    compress = _range_compressor(cube)
    values = np.empty((cube.n_frames, cube.config.samples_per_chirp), np.complex128)
    _map_blocks(lambda frames, _: compress(frames, values[frames]), cube.n_frames, _FRAME_BLOCK)
    return RangeTimeMap(
        values=values,
        bin_spacing_m=cube.config.range_bin_spacing_m,
        frame_rate_hz=cube.config.frame_rate_hz,
        frame_times_s=cube.frame_timestamps.copy(),
    )


def _range_compressor(cube: RadarCube):
    """range_fft's kernel: compress(frames, rows) writes the range profiles of
    a slice of frames into the leading rows of rows, a complex128 array of
    samples_per_chirp columns, and returns those rows."""
    if cube.n_frames == 0 or cube.data.size == 0:
        raise EmptyCubeError("cube holds no frames")
    n = cube.config.samples_per_chirp
    window = cosine_window("hann", n, periodic=False)
    centre_ref = np.exp(1j * np.pi * np.arange(n) * (n - 1) / n)
    data = cube.data
    if data.strides[-1] != data.itemsize:  # an int16 view needs the samples side by side
        data = data.copy()
    iq = data.view("<i2")  # [frame][chirp][I, Q of each sample]

    def compress(frames: slice, rows: np.ndarray) -> np.ndarray:
        counts = iq[frames]
        rows = rows[: len(counts)]
        np.add.reduce(counts, axis=1, dtype=np.float64, out=rows.view(np.float64))
        rows /= cube.config.chirps_per_frame  # coherent average over chirps
        rows *= window
        np.multiply(np.fft.fft(rows, axis=1), centre_ref, out=rows)
        return rows

    return compress


def target_series(cube: RadarCube, min_m: float = 0.10, max_m: float = 0.80) -> tuple[int, np.ndarray]:
    """The bin select_target_bin(range_fft(cube), min_m, max_m) picks, and the
    slow-time series range_fft gives that bin, bit for bit.

    Each block of frames goes through range_fft's transform, and only the
    columns of the target window are kept: about 15 of 256 bins, so the
    memory is a small part of the range map's.
    """
    compress = _range_compressor(cube)
    n = cube.config.samples_per_chirp
    candidates = _window_bins(np.arange(n) * cube.config.range_bin_spacing_m, min_m, max_m)
    columns = slice(candidates[0], candidates[-1] + 1)  # the window is one run of bins
    kept = np.empty((cube.n_frames, candidates.size), np.complex128)

    def keep(frames: slice, rows: np.ndarray) -> None:
        kept[frames] = compress(frames, rows)[:, columns]

    _map_blocks(keep, cube.n_frames, _FRAME_BLOCK, work=lambda: np.empty((_FRAME_BLOCK, n), np.complex128))
    target_bin = _strongest(kept, candidates)
    return target_bin, kept[:, target_bin - candidates[0]]


def static_profile(rmap: RangeTimeMap) -> StaticProfile:
    """Characterise how stationary each range bin is over the recording."""
    if rmap.n_frames < 2:
        raise TooFewFramesError("static profile needs at least two frames")
    power = np.abs(rmap.values) ** 2
    mean_power = power.mean(axis=0)
    std_power = power.std(axis=0)
    with np.errstate(divide="ignore"):
        mean_power_db = 10.0 * np.log10(mean_power)
    cov = np.divide(
        std_power,
        mean_power,
        out=np.zeros_like(mean_power),
        where=mean_power > 0,
    )
    return StaticProfile(mean_power_db=mean_power_db, cov=cov)


def select_target_bin(rmap: RangeTimeMap, min_m: float = 0.10, max_m: float = 0.80) -> int:
    """Pick the strongest bin whose centre lies in [min_m, max_m].

    The window keeps distant multipath out of the selection.  Ties break
    toward the smaller bin index (the nearer, direct-path reflection).
    """
    candidates = _window_bins(rmap.bin_ranges_m(), min_m, max_m)
    return _strongest(rmap.values[:, candidates], candidates)


def _window_bins(centres: np.ndarray, min_m: float, max_m: float) -> np.ndarray:
    """The bins whose centres lie in [min_m, max_m], in ascending order."""
    if not min_m <= max_m:
        raise ValueError(f"target window [{min_m}, {max_m}] m needs min <= max")
    in_window = (centres >= min_m) & (centres <= max_m)
    if not in_window.any():
        raise WindowEmptyError(f"no bin centre falls inside [{min_m}, {max_m}] m")
    return np.nonzero(in_window)[0]


def _strongest(columns: np.ndarray, candidates: np.ndarray) -> int:
    """The candidate whose column of columns, (frames, candidates), has the
    highest mean power; the first on a tie."""
    mean_power = np.mean(np.abs(columns) ** 2, axis=0)
    return int(candidates[np.argmax(mean_power)])


def clutter_remove(series: np.ndarray) -> np.ndarray:
    """Subtract the complex arithmetic mean (the static/multipath component)."""
    series = np.asarray(series)
    if series.size == 0:
        raise ValueError("empty slow-time series")
    return series - series.mean()


def extract_unwrapped_phase(series: np.ndarray, frame_rate_hz: float) -> PhaseTrace:
    """Per-sample argument, unwrapped across 2*pi discontinuities.

    Assumes the true phase moves less than pi per frame, which holds for
    chest motion at a 20 Hz frame rate.  Zero-magnitude samples have no
    phase and raise ZeroMagnitudeError.
    """
    series = np.asarray(series, dtype=np.complex128)
    if series.size == 0:
        raise ValueError("empty slow-time series")
    if np.any(series == 0):
        if np.all(series == 0):
            raise ZeroMagnitudeError("series is all zero; no reflection to track")
        raise ZeroMagnitudeError("zero-magnitude sample: phase undefined")
    unwrapped = np.unwrap(np.angle(series))
    return PhaseTrace(samples=unwrapped, frame_rate_hz=frame_rate_hz)


def detrend_linear(samples: np.ndarray) -> np.ndarray:
    """Remove the least-squares line; suppresses slow phase drift before STFT."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
    return samples - design @ coef


def range_map_npz(cube: RadarCube, path) -> None:
    """Write range_fft(cube) to path as an .npz of RangeTimeMap's fields, so
    RangeTimeMap(**np.load(path)) equals it bit for bit, with no range map
    held: each block of frames is transformed by one worker into a new array,
    and the blocks' bytes follow the values header in order."""
    compress = _range_compressor(cube)
    n = cube.config.samples_per_chirp
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.complex128)),
              "fortran_order": False, "shape": (cube.n_frames, n)}
    # members opened for writing are stamped 1980-01-01, as np.savez's are: the bytes repeat
    with zipfile.ZipFile(path, "w") as npz:
        with npz.open("values.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            _map_blocks(lambda frames, _: compress(frames, np.empty((_FRAME_BLOCK, n), np.complex128)),
                        cube.n_frames, _FRAME_BLOCK, sink=fh.write)
        for name, value in (("frame_times_s", cube.frame_timestamps),
                            ("bin_spacing_m", cube.config.range_bin_spacing_m),
                            ("frame_rate_hz", cube.config.frame_rate_hz)):
            with npz.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(value, np.float64))


def phase_trace_to_csv(trace: PhaseTrace, path) -> None:
    times = np.arange(trace.samples.size) / trace.frame_rate_hz
    _write_csv_10g(path, "frame_time_s,phase_rad", np.column_stack([times, trace.samples]))
