"""Sliding-window spectra of sampled traces and per-instant rate readout.

The trace brings its own sample rate; the window and overlap are given in
seconds.  The default analysis window is 60 s with a 59.95 s overlap,
which on a 20 Hz trace gives a one-sample hop and exactly 1 bpm of
frequency resolution.

The processing chains read rates without holding a spectrogram: each block
of windows is transformed, read out and, when asked, written as CSV text
by one worker (_stft_rates).  stft, extract_rate and spectrogram_to_csv run
the same per-block kernels over a whole spectrogram.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import JsonDocument
from .errors import EmptyBandError, NoOverlapError, TraceTooShortError

# cosine-sum coefficients of each window shape
_WINDOW_COEFFS = {"blackman": (0.42, 0.50, 0.08), "hann": (0.5, 0.5), "rectangular": (1.0,)}

DEFAULT_BAND_BPM = (6.0, 60.0)

_FFT_CHUNK = 128  # windows in flight over all FFT batches: a block's spectra, readout and CSV
# text stay under a few MB, which glibc keeps for the next block instead of trimming it
_FRAME_BLOCK = 512  # frames per block of the radar stages (simulate, quantise, range FFT)
_COMB_BLOCK = 512  # instants per block of extract_rate's readout
_COMB_HARMONICS = 4  # harmonics h*f scored for each candidate rate f
_COMB_FLOOR = 4.0  # a candidate's line must exceed this many band medians


@dataclass(frozen=True)
class StftParams(JsonDocument, kind="stft"):
    """Sliding-window DFT parameters in seconds, for a trace of any rate."""

    window_s: float = 60.0
    overlap_s: float = 59.95
    window_shape: str = "blackman"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window_shape not in _WINDOW_COEFFS:
            raise ValueError(
                f"window_shape must be one of {sorted(_WINDOW_COEFFS)}, got {self.window_shape!r}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if not 0 <= self.overlap_s < self.window_s:
            raise ValueError("overlap must be nonnegative and below the window length")

    def samples(self, rate_hz: float) -> tuple[int, int]:
        """(window length, hop) in samples of a trace sampled at rate_hz."""
        if not 0 < rate_hz < np.inf:
            raise ValueError(f"sample rate must be positive and finite, got {rate_hz}")
        exact = self.window_s * rate_hz
        if not exact < np.inf:
            raise ValueError(f"window_s {self.window_s} s at {rate_hz} Hz gives no finite sample count")
        if abs(exact - round(exact)) > 1e-6:
            raise ValueError("window_s must span a whole number of samples")
        hop = int(round((self.window_s - self.overlap_s) * rate_hz))
        if hop < 1:
            raise ValueError("hop must be at least one sample")
        return int(round(exact)), hop


def cosine_window(shape: str, n: int, *, periodic: bool) -> np.ndarray:
    """Blackman, Hann or rectangular window of n samples, symmetric or
    periodic (the first n samples of the n + 1 symmetric window).

    The cosines are summed over an n-point (n + 1 when periodic) grid from
    -pi to pi, the same sums as scipy.signal.get_window forms.
    """
    if n == 1:
        return np.ones(1)
    grid = np.linspace(-np.pi, np.pi, n + periodic)
    return sum(a * np.cos(k * grid) for k, a in enumerate(_WINDOW_COEFFS[shape]))[:n]


@dataclass
class Spectrogram:
    """Time-frequency magnitude map with a bpm frequency axis.

    Real input keeps bins 0..Nyquist; complex input keeps the full signed
    axis (negative bpm = approaching phase rotation).
    """

    magnitudes: np.ndarray  # (time frames, freq bins), nonnegative
    freq_axis_bpm: np.ndarray
    time_axis_s: np.ndarray

    @property
    def is_signed(self) -> bool:
        return _is_signed(self.freq_axis_bpm)

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]


def _is_signed(freq_axis_bpm: np.ndarray) -> bool:
    return bool(freq_axis_bpm.size) and float(freq_axis_bpm[0]) < 0.0


@dataclass
class RateSeries:
    """Dominant rate per STFT instant, with the winning peak magnitude."""

    times_s: np.ndarray
    rates_bpm: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=np.float64)
        self.rates_bpm = np.asarray(self.rates_bpm, dtype=np.float64)
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        if not (self.times_s.size == self.rates_bpm.size == self.magnitudes.size):
            raise ValueError("times, rates and magnitudes must have equal length")


@dataclass(frozen=True)
class RateComparison:
    """Agreement metrics between two rate series on common instants."""

    mae_bpm: float
    rmse_bpm: float
    within_2bpm_fraction: float
    n_instants: int

    def __post_init__(self) -> None:
        if self.mae_bpm > self.rmse_bpm + 1e-12:
            raise ValueError("MAE cannot exceed RMSE")
        if not 0.0 <= self.within_2bpm_fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, n: int, step: int, work=None, sink=lambda result: None) -> None:
    """Apply fn(block, w) to the slices of `step` items covering range(n) on
    _worker_count() threads, and pass the results to sink in block order, in
    the calling thread.

    w is work(), built once per worker thread and reused by each of that
    thread's blocks (None without work); the STFT and the beat-signal sum use
    it.  Work memory allocated per block came from fresh pages each time,
    whose faults cost a quarter to a third of a real STFT's time.  numpy's
    FFTs, ufuncs, gathers and compress release the GIL, so blocks of array
    work overlap.  At most two blocks per worker are in flight, so the
    results waiting for sink stay bounded whatever the block count.  An
    exception in fn is raised here, after the pool's threads have ended.
    """
    # imported here: at module top it would add to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def run(block: slice):
        if not hasattr(local, "w"):
            local.w = None if work is None else work()
        return fn(block, local.w)

    workers = _worker_count()
    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for lo in range(0, n, step):
            pending.append(pool.submit(run, slice(lo, lo + step)))
            if len(pending) >= 2 * workers:
                sink(pending.popleft().result())
        while pending:
            sink(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


class _Windows:
    """The analysis windows of one trace: the STFT's axes, and the magnitudes
    of one block of windows at a time.  stft and _stft_rates share it."""

    def __init__(self, trace: np.ndarray, rate_hz: float, params: StftParams | None) -> None:
        if params is None:
            params = StftParams()
        x = np.asarray(trace)
        if x.ndim != 1:
            raise ValueError("trace must be 1-D")
        length, hop = params.samples(rate_hz)
        if x.size < length:
            raise TraceTooShortError(
                f"trace of {x.size} samples is shorter than the {length}-sample window"
            )
        self.length = length
        self.complex_input = np.iscomplexobj(x)
        self.dtype = np.complex128 if self.complex_input else np.float64
        self.window = cosine_window(params.window_shape, length, periodic=True)
        starts = np.arange(0, x.size - length + 1, hop)
        if self.complex_input:
            self.freq_bpm = np.fft.fftshift(np.fft.fftfreq(length, d=1.0 / rate_hz)) * 60.0
        else:
            self.freq_bpm = np.fft.rfftfreq(length, d=1.0 / rate_hz) * 60.0
        self.times_s = (starts + (length - 1) / 2.0) / rate_hz
        self.n = starts.size
        self.segments = sliding_window_view(x, length)[::hop]
        self.batch = max(1, _FFT_CHUNK // _worker_count())  # windows per block

    def transform(self, windows: slice, block: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The magnitudes of the windows, in the leading rows of rows, which
        are returned; block is work memory of at least as many rows."""
        segment = self.segments[windows]
        block, rows = block[: len(segment)], rows[: len(segment)]
        block[...] = segment
        block -= block.mean(axis=1, keepdims=True)
        block *= self.window
        if self.complex_input:
            shift = self.length // 2  # fftshift moves bin k to column (k + shift) % length
            spectrum = np.fft.fft(block, axis=1)
            np.abs(spectrum[:, : self.length - shift], out=rows[:, shift:])
            np.abs(spectrum[:, self.length - shift :], out=rows[:, :shift])
        else:
            np.abs(np.fft.rfft(block, axis=1), out=rows)
        return rows


def stft(trace: np.ndarray, rate_hz: float, params: StftParams | None = None) -> Spectrogram:
    """Sliding-window DFT magnitudes of a real or complex trace sampled at rate_hz.

    Each segment has its mean removed before windowing so that DC never
    competes with the breathing line.  Real traces produce a 0..Nyquist
    bpm axis; complex traces produce the full signed axis.

    Raises TraceTooShortError when the trace does not fill one window;
    callers with short recordings should reduce window_s explicitly.
    """
    windows = _Windows(trace, rate_hz, params)
    magnitudes = np.empty((windows.n, windows.freq_bpm.size))
    _map_blocks(lambda block, w: windows.transform(block, w, magnitudes[block]), windows.n, windows.batch,
                work=lambda: np.empty((windows.batch, windows.length), windows.dtype))
    return Spectrogram(magnitudes=magnitudes, freq_axis_bpm=windows.freq_bpm, time_axis_s=windows.times_s)


def extract_rate(
    spectrogram: Spectrogram, band_bpm: tuple[float, float] = DEFAULT_BAND_BPM
) -> RateSeries:
    """Rate per time instant within a bpm search band.

    A real spectrogram, whose axis must ascend, reads the argmax bin in the
    band.  A signed (complex-input) one reads the harmonic comb of its
    folded spectrum (see _comb_readout): the band applies to |frequency|,
    the rate is the winning |bin| and the magnitude the larger of its two
    signed bins.  Either way ties break toward the lower bpm, which plays
    conservatively against harmonics.  The instants are read in blocks, so
    the memory stays small and the result does not depend on the worker
    count.
    """
    read = _readout(spectrogram.freq_axis_bpm, band_bpm)
    rates, magnitudes = np.empty((2, spectrogram.n_frames))

    def fill(instants: slice, _) -> None:
        rates[instants], magnitudes[instants] = read(spectrogram.magnitudes[instants])

    _map_blocks(fill, spectrogram.n_frames, _COMB_BLOCK)
    return RateSeries(times_s=spectrogram.time_axis_s.copy(), rates_bpm=rates, magnitudes=magnitudes)


def _stft_rates(trace: np.ndarray, rate_hz: float, params: StftParams | None,
                band_bpm: tuple[float, float], csv_path=None) -> RateSeries:
    """extract_rate(stft(trace, rate_hz, params), band_bpm) with no spectrogram
    held: a worker transforms a block of windows and reads its rates out.

    With csv_path, the same worker also formats the block as
    spectrogram_to_csv writes it, and the blocks are written in order.
    Every input is checked before csv_path's directory is made and the file
    opened, so a run that fails leaves neither behind.
    """
    windows = _Windows(trace, rate_hz, params)
    read = _readout(windows.freq_bpm, band_bpm)
    rates, magnitudes = np.empty((2, windows.n))
    n_bins = windows.freq_bpm.size
    step = windows.batch
    if csv_path is not None:  # whole CSV batches: a short batch costs as many calls as a full one
        batch = _batch_rows(n_bins + 1)
        step = batch * max(1, round(step / batch))

    def block(instants: slice, work: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        rows = windows.transform(instants, *work)
        rates[instants], magnitudes[instants] = read(rows)
        return windows.times_s[instants], rows

    def work() -> tuple[np.ndarray, np.ndarray]:
        return np.empty((step, windows.length), windows.dtype), np.empty((step, n_bins))

    if csv_path is None:
        _map_blocks(block, windows.n, step, work=work)
    else:
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        _write_blocks_7e(csv_path, _spectrogram_header(windows.freq_bpm), windows.n, step, block, work)
    return RateSeries(times_s=windows.times_s, rates_bpm=rates, magnitudes=magnitudes)


def _readout(freq_axis_bpm: np.ndarray, band_bpm: tuple[float, float]):
    """extract_rate's reading of spectra on this axis: a function from a block
    of spectra, one a row, to their (rates, magnitudes).  The band and the
    axis are checked here, before any spectrum is read."""
    low, high = band_bpm
    if not low <= high:
        raise ValueError(f"band [{low}, {high}] bpm needs low <= high")
    abs_bpm = np.abs(freq_axis_bpm)
    in_band = (abs_bpm >= low) & (abs_bpm <= high)
    if not in_band.any():
        raise EmptyBandError(f"band [{low}, {high}] bpm misses the frequency axis")
    if _is_signed(freq_axis_bpm):
        return _comb_readout(freq_axis_bpm, in_band)
    if not np.all(np.diff(freq_axis_bpm) > 0):
        raise ValueError("a real spectrogram needs an ascending frequency axis")
    lo, hi = np.flatnonzero(in_band)[[0, -1]]

    def read(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sub = block[:, lo : hi + 1]
        best = np.argmax(sub, axis=1)  # the first hit, the lowest rate
        return abs_bpm[lo + best], sub[np.arange(len(sub)), best]

    return read


def _comb_readout(axis: np.ndarray, in_band: np.ndarray):
    """Subharmonic summation (Hermes, JASA 1988) over signed spectra.

    Chest motion of A metres phase-modulates the complex return by
    beta = 4*pi*A/lambda, so its spectrum holds Bessel lines |J_h(beta)| at
    every multiple h*f, and from beta of about 2.6 rad the line at 2f
    outgrows the one at f.  The readout therefore scores whole combs:

    - F(k) = |S(+k)| + |S(-k)| folds bin k, from 0 to the Nyquist end
      n // 2 of n columns; at k = 0, and at n / 2 for even n, +k and -k are
      one column, counted twice.  F is 0 beyond the Nyquist end;
    - candidate bin c scores the sum over h = 1.._COMB_HARMONICS of F(h*c)
      less the level midway to the previous harmonic, F((h - 1/2) * c),
      which for odd c is the mean of the two bins around it;
    - c is admissible only if F(c) is a local peak, no lower than its
      neighbours (bin 0 and the Nyquist end have one), and exceeds
      _COMB_FLOOR times the median F over the band's bins;
    - the best admissible score wins, ties to the lower rate; an instant
      with no admissible candidate reads the band's argmax of F instead.

    The midway levels keep 2f, whose midway points are the odd harmonics
    of f, from winning on the lines of f.  The peak test keeps f/2, whose
    comb holds every line of f, from winning when its own bin is noise.
    Each instant is read from its own spectrum alone.
    """
    n = axis.size
    nyquist = n // 2
    step = -axis[0] / nyquist if nyquist else 0.0
    if not (step > 0 and np.allclose(axis, (np.arange(n) - nyquist) * step, rtol=0, atol=1e-9 * step)):
        raise ValueError("a signed spectrogram needs the fftshift-ordered axis of a DFT")
    candidates = np.unique(np.abs(np.flatnonzero(in_band) - nyquist))  # in-band |bin|s, one unbroken run
    lo, hi = int(candidates[0]), int(candidates[-1])
    # the bins of F read by the comb (to _COMB_HARMONICS * hi) and the peak test (to hi + 1)
    k = np.arange(min(_COMB_HARMONICS * hi + 1, nyquist) + 1)  # those up to the Nyquist end
    middle = [(hi - lo) // 2, (hi - lo + 1) // 2]  # the band's middle bin, or its two middle bins

    def read(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fold = block[:, nyquist - k] + block[:, (nyquist + k) % n]
        # the median along each instant's row, where a partition is fastest
        floor = np.partition(fold[:, lo : hi + 1], middle, axis=1)[:, middle].sum(axis=1)
        floor *= _COMB_FLOOR / 2
        folded = np.zeros((_COMB_HARMONICS * hi + 2, len(block)))  # F(k) in row k
        folded[: k.size] = fold.T
        # twice the score: twice F(h*c), less twice its midway level F((h - 1/2) * c)
        score = np.zeros((candidates.size, len(block)))
        for h in range(1, _COMB_HARMONICS + 1):
            mid = (2 * h - 1) * candidates  # twice the midway point
            score -= folded[mid // 2] + folded[(mid + 1) // 2]
            score += 2 * folded[h * candidates]
        line = folded[candidates]
        # a local peak is no lower than F(c - 1) and F(c + 1); F(-1) is F(1)
        peak = (line >= folded[np.abs(candidates - 1)]) & (line >= folded[candidates + 1])
        admissible = peak & (line > floor)
        np.copyto(score, -np.inf, where=~admissible)
        np.copyto(score, line, where=~admissible.any(axis=0))  # no admissible candidate: F's argmax
        best = lo + np.argmax(score, axis=0)
        at = np.arange(len(block))
        magnitudes = np.maximum(block[at, (nyquist + best) % n], block[at, nyquist - best])
        return np.abs(axis[nyquist - best]), magnitudes

    return read


def compare_rates(
    a: RateSeries, b: RateSeries, *, max_gap_s: float = 0.5
) -> RateComparison:
    """Metrics over instants of `a` matched to the nearest instant of `b`.

    Pairs further apart than max_gap_s are discarded; no interpolation is
    performed.  Raises NoOverlapError when nothing pairs up, and a
    ValueError that names the metric when one is not finite.
    """
    if a.times_s.size == 0 or b.times_s.size == 0:
        raise NoOverlapError("empty rate series")
    order = np.argsort(b.times_s)
    tb = b.times_s[order]
    rb = b.rates_bpm[order]

    idx = np.searchsorted(tb, a.times_s)
    left = np.clip(idx - 1, 0, tb.size - 1)
    right = np.clip(idx, 0, tb.size - 1)
    pick = np.where(
        np.abs(tb[left] - a.times_s) <= np.abs(tb[right] - a.times_s), left, right
    )
    gap = np.abs(tb[pick] - a.times_s)
    keep = gap <= max_gap_s + 1e-12
    if not keep.any():
        raise NoOverlapError(f"no instants within {max_gap_s} s of each other")

    # rates far enough apart overflow to inf: an error that names the metric, no warning
    with np.errstate(over="ignore"):
        diff = a.rates_bpm[keep] - rb[pick[keep]]
        mae = float(np.mean(np.abs(diff)))
        rmse = float(np.sqrt(np.mean(diff**2)))
    for name, value in (("mae_bpm", mae), ("rmse_bpm", rmse)):
        if not np.isfinite(value):
            raise ValueError(f"{name} is {value}, not a finite number")
    fraction = float(np.mean(np.abs(diff) <= 2.0))
    return RateComparison(
        mae_bpm=mae,
        rmse_bpm=rmse,
        within_2bpm_fraction=fraction,
        n_instants=int(keep.sum()),
    )


RATE_CSV_HEADER = "time_s,rate_bpm,magnitude"


def rate_series_to_csv(series: RateSeries, path) -> None:
    table = np.column_stack([series.times_s, series.rates_bpm, series.magnitudes])
    _write_csv_10g(path, RATE_CSV_HEADER, table)


def rate_series_from_csv(path) -> RateSeries:
    # the header is checked by name: another three-column CSV (a truth file
    # has time_s,displacement_m,rate_bpm) would otherwise read as rates
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != RATE_CSV_HEADER:
            raise ValueError(f"rate CSV must start with the header {RATE_CSV_HEADER}, "
                             f"got {header[:80]!r}")
        rows = [line for line in fh if line.partition("#")[0].strip()]  # the lines loadtxt reads
    if not rows:  # loadtxt would warn on stderr, then read one empty column
        raise ValueError(f"rate CSV {path} holds no rates, only its header")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    if table.shape[1] != 3:
        raise ValueError(f"rate CSV must have columns {RATE_CSV_HEADER}")
    bad = np.argwhere(~np.isfinite(table))  # loadtxt reads nan and inf cells as floats
    if bad.size:
        row, column = bad[0]
        raise ValueError(f"rate CSV {path}: column {RATE_CSV_HEADER.split(',')[column]} holds "
                         f"{table[row, column]}, not a finite number")
    return RateSeries(times_s=table[:, 0], rates_bpm=table[:, 1], magnitudes=table[:, 2])


def _spectrogram_header(freq_axis_bpm: np.ndarray) -> str:
    return "time_s," + ",".join(f"bpm_{f:g}" for f in freq_axis_bpm)


def spectrogram_to_csv(spectrogram: Spectrogram, path) -> None:
    _write_csv_7e(path, _spectrogram_header(spectrogram.freq_axis_bpm), spectrogram.magnitudes,
                  first_column=spectrogram.time_axis_s)


# --- printf %.7e CSV writer ------------------------------------------------
#
# np.savetxt(fmt="%.7e") formats one cell at a time in Python, about 330 ns a
# cell.  _write_blocks_7e writes the same bytes from array operations: each
# block of rows, as its maker hands it over, is formatted one batch of
# _CSV_CHUNK_CELLS cells at a time, whose temporaries go with the batch.
# Each cell is built in 16 bytes: a sign at byte 0, then its text and separator
# (a per-cell text from byte 0).  A batch with neither a sign nor a per-cell
# text is one strided slice, 14 bytes a cell; any other drops its zero bytes.
# '%.7e' rounds to the 8 significant digits of '%.8g': a cell reads back the same.

_CSV_CHUNK_CELLS = 1 << 14  # cells per batch: its temporaries peak at 1.3 MB, under glibc's
# trim threshold (twice the largest array freed so far) once a 1 MB array has been freed; a
# batch twice as large went back to the system and was faulted in again in process-audio
_CSV_10G_ROWS = 1 << 10  # rows per % operation of the '%.10g' writer
_E7_EXP_LO, _E7_EXP_HI = -15, 29  # exponents e for which 10**(7 - e) is an exact double
_E7_CELL_BYTES = 16  # the longest text, "-4.9406565e-324", and a separator fit
_U64 = np.uint64  # every shift and OR operand: numpy 1.x casts uint64 with int64 to float64


@functools.cache
def _e7_tables() -> tuple[np.ndarray, ...]:
    """The writer's tables, built on first use: importing the module costs nothing."""
    n = np.arange(10000)
    quad = sum(((n // 10 ** (3 - i)) % 10 + ord("0")).astype(np.uint64) << _U64(8 * i) for i in range(4))
    exps = range(_E7_EXP_LO, _E7_EXP_HI + 1)
    return (
        quad,  # 4-digit ASCII word of n, its first digit in the low byte
        # the same digits as "d.ddd", at bytes 1-5 of a cell
        (quad & _U64(0xFF)) << _U64(8) | _U64(ord(".") << 16) | (quad >> _U64(8)) << _U64(24),
        # "e+XX" of e = _E7_EXP_HI - i, at bytes 10-13 of a cell
        np.frombuffer("".join(f"\0\0e{e:+03d}\0\0" for e in reversed(exps)).encode(), np.uint64),
        # the scale 10**(7 - e) as a factor and a divisor, one of them 1.0, of e = _E7_EXP_HI - i
        np.array([10.0 ** (7 - e) if e < 7 else 1.0 for e in reversed(exps)]),
        np.array([10.0 ** (e - 7) if e > 7 else 1.0 for e in reversed(exps)]),
    )


def _printf_7e(values: np.ndarray) -> list[bytes]:
    """The per-cell path: Python's '%.7e', as np.savetxt applies it."""
    return [b"%.7e" % v for v in values.tolist()]


def _format_7e(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Bytes of '%.7e' of each cell of x, each followed by the separator in
    bits 48-55 of its word in sep.  A cell is scaled by an exact power of ten to
    its 8-digit mantissa; one whose rounding is not proven here goes to '%.7e'."""
    quad, lead, exponent, pow_mul, pow_div = _e7_tables()
    a = np.abs(x)
    fast = (a >= 10.0**_E7_EXP_LO) & (a < 10.0 ** (_E7_EXP_HI + 1))  # false for 0, nan, inf
    a = np.where(fast, a, 1.0)  # these have e = 0
    k = _E7_EXP_HI - np.clip(np.floor(np.log10(a)), _E7_EXP_LO, _E7_EXP_HI).astype(np.intp)  # e's index
    # y is the double nearest the exact product (one factor is 1.0), and each n + 0.5
    # below 2**52 is a double: y may land on a midpoint, never cross it, so only a tie is in doubt
    y = a * pow_mul.take(k) / pow_div.take(k)
    m = np.rint(y)
    tie = np.abs(y - m) == 0.5
    # log10 can miss by one next to a power of ten, and rounding can carry into a ninth
    # digit: move e by one and scale again, to an m within 0.05 of 1e7 or 1e8, never a tie
    off = np.flatnonzero((m < 1e7) | (m >= 1e8))
    if off.size:
        k[off] -= np.where(m[off] >= 1e8, 1, -1)
        fast[off] &= (k[off] >= 0) & (k[off] <= _E7_EXP_HI - _E7_EXP_LO)
        k[off[~fast[off]]] = _E7_EXP_HI
        m[off] = np.rint(a[off] * pow_mul.take(k[off]) / pow_div.take(k[off]))
        fast[off] &= (m[off] >= 1e7) & (m[off] < 1e8)
    slow = np.flatnonzero(((x != 0) & ~fast) | tie)
    m = np.where(fast, m, 0.0)  # zeros print as 0.0000000e+00
    hi = np.floor(m / 1e4)
    lo = quad.take((m - hi * 1e4).astype(np.intp))
    # the sign, "d.ddd" and two digits in bytes 0-7; two digits, "e+XX" and the separator in bytes 8-14
    words = np.empty((x.size, 2), np.uint64)
    np.bitwise_or(lead.take(hi.astype(np.intp)), lo << _U64(48), out=words[:, 0])
    np.bitwise_or(lo >> _U64(16) | sep, exponent.take(k), out=words[:, 1])
    signed = np.signbit(x)
    if negative := signed.any():
        words[:, 0] |= signed * _U64(ord("-"))
    cells = words.view(np.uint8)
    if not (negative or slow.size):  # every cell is "d.ddddddde+XX" and its separator
        # bytes 1-14 of each cell, copied as one 14-byte item: a byte copy takes twice as long
        texts = np.ndarray(x.size, "V14", words, offset=1, strides=(_E7_CELL_BYTES,))
        return texts.copy().view(np.uint8).reshape(x.size, 14)
    if slow.size:  # each text and its separator over the cell's 16 bytes
        texts = zip(_printf_7e(x[slow]), cells[slow, 14].tolist())
        joined = b"".join((text + bytes([end])).ljust(_E7_CELL_BYTES, b"\0") for text, end in texts)
        cells[slow] = np.frombuffer(joined, np.uint8).reshape(slow.size, -1)
    return cells[cells != 0]  # a mask, not np.compress, whose index array takes 8 bytes a byte


def _write_csv_10g(path, header: str, table: np.ndarray) -> None:
    """Write a one-line header and a 2-D table as comma-separated '%.10g'
    cells (the rate, phase, envelope and truth CSVs), byte for byte what
    np.savetxt(path, table, delimiter=",", header=header, comments="",
    fmt="%.10g") writes, with one % operation per block of rows."""
    table = np.asarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    row = b",".join([b"%.10g"] * n_cols) + b"\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n_rows, _CSV_10G_ROWS):
            block = table[lo : lo + _CSV_10G_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_csv_7e(path, header: str, table: np.ndarray, first_column: np.ndarray) -> None:
    """Write a one-line header, then first_column and the 2-D table's columns
    as comma-separated '%.7e' cells, byte for byte what np.savetxt(path,
    np.column_stack([first_column, table]), delimiter=",", header=header,
    comments="", fmt="%.7e") writes; the column is joined one batch at a time."""
    _write_blocks_7e(path, header, table.shape[0], _batch_rows(table.shape[1] + 1),
                     lambda rows, _: (first_column[rows], table[rows]))


def _write_blocks_7e(path, header: str, n_rows: int, step: int, block, work=None) -> None:
    """Write a one-line header, then n_rows rows of '%.7e' cells: for each slice
    of step rows, block(rows, w) = (first_column, table) of those rows, with w
    as _map_blocks gives it.  A worker formats the block it made, and the
    blocks are written in order, so no more than the blocks in flight is held."""
    _e7_tables()  # built once here, not raced for by the workers
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        _map_blocks(lambda rows, w: _format_rows_7e(*block(rows, w)), n_rows, step, work=work,
                    sink=fh.writelines)


def _batch_rows(n_cols: int) -> int:
    """Rows of n_cols cells in one batch of the '%.7e' writer."""
    return max(1, _CSV_CHUNK_CELLS // n_cols)


@functools.lru_cache(maxsize=8)
def _row_separators(n_cols: int, rows: int) -> np.ndarray:
    """The separator of each cell of `rows` rows of n_cols cells, in bits 48-55:
    a comma, or a newline after a row's last cell.  Read-only, for every thread."""
    last = np.arange(rows * n_cols) % n_cols == n_cols - 1
    sep = np.where(last, _U64(ord("\n") << 48), _U64(ord(",") << 48))
    sep.flags.writeable = False
    return sep


def _format_rows_7e(first_column: np.ndarray, table: np.ndarray) -> list[np.ndarray]:
    """The bytes of the rows [first_column[i], *table[i]] as '%.7e' cells, one
    array per batch of _batch_rows rows."""
    n_cols = table.shape[1] + 1
    rows = _batch_rows(n_cols)
    sep = _row_separators(n_cols, rows)
    batches = []
    for lo in range(0, len(table), rows):
        joined = np.column_stack([first_column[lo : lo + rows], table[lo : lo + rows]])
        batches.append(_format_7e(joined.reshape(-1), sep[: joined.size]))
    return batches


def comparison_to_json(comparison: RateComparison) -> str:
    """Single-line JSON summary of a comparison; a non-finite metric is a
    ValueError, as JSON has no NaN or Infinity."""
    return json.dumps(asdict(comparison), sort_keys=True, allow_nan=False)
