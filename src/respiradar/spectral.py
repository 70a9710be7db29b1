"""Sliding-window spectra of sampled traces and per-instant rate readout.

The trace brings its own sample rate; the window and overlap are given in
seconds.  The default analysis window is 60 s with a 59.95 s overlap,
which on a 20 Hz trace gives a one-sample hop and exactly 1 bpm of
frequency resolution.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import threading
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import JsonDocument
from .errors import EmptyBandError, NoOverlapError, TraceTooShortError

# cosine-sum coefficients of each window shape
_WINDOW_COEFFS = {"blackman": (0.42, 0.50, 0.08), "hann": (0.5, 0.5), "rectangular": (1.0,)}

DEFAULT_BAND_BPM = (6.0, 60.0)

_FFT_CHUNK = 512  # windows in flight over all FFT batches: caps memory, stays in cache
_FRAME_BLOCK = 512  # frames per block of the radar stages (simulate, quantise, range FFT)


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
        return bool(self.freq_axis_bpm.size) and float(self.freq_axis_bpm[0]) < 0.0

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]


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
    thread's blocks (None without work): work memory allocated per block came
    from fresh pages each time, whose faults cost a quarter to a third of a
    real STFT's time.  numpy's FFTs, ufuncs, gathers and compress release the
    GIL, so blocks of array work overlap.  At most two blocks per worker are
    in flight, so the results waiting for sink stay bounded whatever the
    block count.  An exception in fn is raised here, after the pool's threads
    have ended.
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


def stft(trace: np.ndarray, rate_hz: float, params: StftParams | None = None) -> Spectrogram:
    """Sliding-window DFT magnitudes of a real or complex trace sampled at rate_hz.

    Each segment has its mean removed before windowing so that DC never
    competes with the breathing line.  Real traces produce a 0..Nyquist
    bpm axis; complex traces produce the full signed axis.

    Raises TraceTooShortError when the trace does not fill one window;
    callers with short recordings should reduce window_s explicitly.
    """
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
    complex_input = np.iscomplexobj(x)
    window = cosine_window(params.window_shape, length, periodic=True)

    starts = np.arange(0, x.size - length + 1, hop)
    if complex_input:
        freq_bpm = np.fft.fftshift(np.fft.fftfreq(length, d=1.0 / rate_hz)) * 60.0
    else:
        freq_bpm = np.fft.rfftfreq(length, d=1.0 / rate_hz) * 60.0
    magnitudes = np.empty((starts.size, freq_bpm.size))

    segments = sliding_window_view(x, length)[::hop]
    shift = length // 2  # fftshift moves bin k to column (k + shift) % length
    batch = max(1, _FFT_CHUNK // _worker_count())
    dtype = np.complex128 if complex_input else np.float64

    def transform(windows: slice, block: np.ndarray) -> None:
        segment = segments[windows]
        block = block[: len(segment)]
        block[...] = segment
        block -= block.mean(axis=1, keepdims=True)
        block *= window
        rows = magnitudes[windows]
        if complex_input:
            spectrum = np.fft.fft(block, axis=1)
            np.abs(spectrum[:, : length - shift], out=rows[:, shift:])
            np.abs(spectrum[:, length - shift :], out=rows[:, :shift])
        else:
            np.abs(np.fft.rfft(block, axis=1), out=rows)

    _map_blocks(transform, starts.size, batch, work=lambda: np.empty((batch, length), dtype))

    times = (starts + (length - 1) / 2.0) / rate_hz
    return Spectrogram(magnitudes=magnitudes, freq_axis_bpm=freq_bpm, time_axis_s=times)


def extract_rate(
    spectrogram: Spectrogram, band_bpm: tuple[float, float] = DEFAULT_BAND_BPM
) -> RateSeries:
    """Argmax rate per time instant within a bpm search band.

    For signed (complex-input) spectrograms the band applies to |frequency|
    and the reported rate is the magnitude of the winning bin.  Ties break
    toward the lower bpm, which plays conservatively against harmonics.
    """
    low, high = band_bpm
    if not low <= high:
        raise ValueError(f"band [{low}, {high}] bpm needs low <= high")
    abs_bpm = np.abs(spectrogram.freq_axis_bpm)
    in_band = (abs_bpm >= low) & (abs_bpm <= high)
    if not in_band.any():
        raise EmptyBandError(f"band [{low}, {high}] bpm misses the frequency axis")
    candidates = np.nonzero(in_band)[0]
    # scan order: |bpm| ascending, so the first argmax hit is the lowest rate
    order = np.lexsort((spectrogram.freq_axis_bpm[candidates], abs_bpm[candidates]))
    candidates = candidates[order]

    sub = spectrogram.magnitudes[:, candidates]
    best = np.argmax(sub, axis=1)
    rows = np.arange(sub.shape[0])
    return RateSeries(
        times_s=spectrogram.time_axis_s.copy(),
        rates_bpm=abs_bpm[candidates][best],
        magnitudes=sub[rows, best],
    )


def compare_rates(
    a: RateSeries, b: RateSeries, *, max_gap_s: float = 0.5
) -> RateComparison:
    """Metrics over instants of `a` matched to the nearest instant of `b`.

    Pairs further apart than max_gap_s are discarded; no interpolation is
    performed.  Raises NoOverlapError when nothing pairs up.
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

    diff = a.rates_bpm[keep] - rb[pick[keep]]
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff**2)))
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
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != 3:
        raise ValueError(f"rate CSV must have columns {RATE_CSV_HEADER}")
    return RateSeries(times_s=table[:, 0], rates_bpm=table[:, 1], magnitudes=table[:, 2])


def spectrogram_to_csv(spectrogram: Spectrogram, path) -> None:
    header = "time_s," + ",".join(f"bpm_{f:g}" for f in spectrogram.freq_axis_bpm)
    _write_csv_8g(path, header, spectrogram.magnitudes, first_column=spectrogram.time_axis_s)


# --- printf %.8g CSV writer ------------------------------------------------
#
# np.savetxt(fmt="%.8g") formats one cell at a time in Python, about 330 ns a
# cell.  _write_csv_8g writes the same bytes from array operations.  A finite
# nonzero cell with decimal exponent e is scaled by an exact power of ten to
# its 8-digit mantissa m in [1e7, 1e8), whose digits come from a table of
# 4-digit ASCII words.  Every other byte of the cell depends only on its class
# (e, significant digits, sign, last column) and is taken from Python's own
# '%.8g' of one number of that class.  A cell is assembled in 16 bytes, two
# little-endian uint64 words holding its text and then zero bytes (the longest,
# "-4.9406565e-324,", fits), and dropping the zero bytes joins the cells.
# Cells whose correct rounding is not proven here are formatted by '%.8g'.

_CSV_CHUNK_CELLS = 1 << 15  # cells per batch; larger batches fall out of cache
_CSV_10G_ROWS = 1 << 10  # rows per % operation of the '%.10g' writer
_G8_EXP_LO, _G8_EXP_HI = -15, 29  # exponents e for which 10**(7 - e) is an exact double
_G8_CELL_BYTES = 16
_DIGITS_TO_NUL = str.maketrans("0123456789", "\0" * 10)


class _G8Tables(NamedTuple):
    quad_lo: np.ndarray  # 4-digit ASCII word of n, in the low half of a uint64
    quad_hi: np.ndarray  # the same word in the high half
    # m = hi * 10**4 + lo has max(sig_lo[lo], sig_hi[hi]) significant digits,
    # stored times 4, their stride in the class index
    sig_lo: np.ndarray
    sig_hi: np.ndarray
    pattern_lo: np.ndarray  # per class: bytes 0-7 of the cell without its digits
    pattern_hi: np.ndarray  # per class: bytes 8-15
    int_mask: np.ndarray  # per class: keeps the digits before the point
    frac_mask: np.ndarray  # per class: keeps the digits after it
    int_shift: np.ndarray  # per class: bit length of the lead
    # the scale 10**(7 - e) as a factor and a divisor, one of them 1.0;
    # indexed by _G8_EXP_HI - e
    pow_mul: np.ndarray
    pow_div: np.ndarray


@functools.cache
def _g8_tables() -> _G8Tables:
    """The writer's lookup tables, built on first use so that importing the
    module (and so every CLI command) does not pay for them.

    Each class's layout is read off '%.8g' of 12345678 cut to the class's
    significant digits (0 for none), at its exponent: the lead ("0." and
    zeros), the digit counts before and after the point, and every byte that
    is not one of those digits.  The sign is a "-" prefix, the separator a
    "," or "\\n" suffix.  Classes run over exponent, significant digits, sign
    and last column, the last fastest."""
    n = np.arange(10000)
    quad = sum(((n // 10 ** (3 - i)) % 10 + ord("0")).astype(np.uint64) << np.uint64(8 * i) for i in range(4))
    zeros = (n % 10 == 0).astype(np.intp) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)

    cells, layout = [], []
    exps = range(_G8_EXP_LO, _G8_EXP_HI + 1)
    for e in exps:
        for sig in range(9):
            text = "%.8g" % float(f"{'12345678'[:sig] or 0}e{e - sig + 1}")
            mantissa = text.partition("e")[0]
            lead = mantissa.find("1") if sig else 0  # the lead ends at the first digit, 1
            whole, _, fraction = mantissa[lead:].partition(".")
            pattern = text[:lead] + mantissa[lead:].translate(_DIGITS_TO_NUL) + text[len(mantissa):]
            cells += [f"{sign}{pattern}{sep}".ljust(_G8_CELL_BYTES, "\0") for sign in ("", "-") for sep in ",\n"]
            layout.append((lead, len(whole), len(whole) + len(fraction)))
    patterns = np.frombuffer("".join(cells).encode(), np.uint64).reshape(-1, 2).T.copy()
    # each pair's layout, for its four sign and last-column classes
    lead, n_int, n_digits = np.repeat(layout, 4, axis=0).T
    low = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
    neg = np.tile([0, 0, 1, 1], len(layout))

    return _G8Tables(
        quad_lo=quad,
        quad_hi=quad << np.uint64(32),
        sig_lo=4 * np.where(n == 0, 0, 8 - zeros),
        sig_hi=4 * (4 - zeros),
        pattern_lo=patterns[0],
        pattern_hi=patterns[1],
        int_mask=low[n_int],
        frac_mask=low[n_digits] ^ low[n_int],
        int_shift=(8 * (lead + neg)).astype(np.uint64),
        pow_mul=np.array([10.0 ** (7 - e) if e < 7 else 1.0 for e in reversed(exps)]),
        pow_div=np.array([10.0 ** (e - 7) if e > 7 else 1.0 for e in reversed(exps)]),
    )


def _printf_8g(values: np.ndarray) -> list[bytes]:
    """The per-cell path: Python's '%.8g', as np.savetxt applies it."""
    return [b"%.8g" % v for v in values.tolist()]


class _G8Work:
    """_format_8g's work arrays for up to `size` cells, one set per worker
    thread of _write_csv_8g."""

    def __init__(self, size: int) -> None:
        self.a, self.y, self.g, self.m = np.empty((4, size))
        self.e, self.i, self.lo, self.cls = np.empty((4, size), np.intp)
        self.digits, self.integer, self.shift, self.tmp = np.empty((4, size), np.uint64)
        self.fast, self.tie, self.flag, self.flag2 = np.empty((4, size), bool)
        self.words = np.empty((size, 2), np.uint64)
        self.nonzero = np.empty(size * _G8_CELL_BYTES, bool)


def _g8_mantissa(t: _G8Tables, a: np.ndarray, e: np.ndarray,
                 w: _G8Work) -> tuple[np.ndarray, np.ndarray]:
    """round(a * 10**(7 - e)) and whether that rounding is not proven, in w.m and w.tie.

    y is the double nearest the exact product (one of the two factors is
    1.0), and every n + 0.5 below 2**52 is a double, so y can land on the
    midpoint between two mantissas but never cross it.  A y exactly on it
    may have been rounded there, so only those cells are in doubt.
    """
    k = a.size
    # every index is in range: "clip" only spares take the buffered copy "raise" makes
    i = np.subtract(_G8_EXP_HI, e, out=w.i[:k])
    y = np.multiply(a, t.pow_mul.take(i, out=w.g[:k], mode="clip"), out=w.y[:k])
    y /= t.pow_div.take(i, out=w.g[:k], mode="clip")
    m = np.rint(y, out=w.m[:k])
    y -= m
    return m, np.equal(np.abs(y, out=y), 0.5, out=w.tie[:k])


def _format_8g(x: np.ndarray, last: np.ndarray, w: _G8Work) -> np.ndarray:
    """Bytes of '%.8g' of each cell of x, each followed by "\\n" where last
    is 1 and by "," elsewhere.  Every temporary is one of the work arrays
    w; only the returned bytes are allocated."""
    t = _g8_tables()
    n = x.size
    a = np.abs(x, out=w.a[:n])
    fast = np.greater_equal(a, 10.0**_G8_EXP_LO, out=w.fast[:n])
    fast &= np.less(a, 10.0 ** (_G8_EXP_HI + 1), out=w.flag[:n])  # false for 0, nan, inf
    np.copyto(a, 1.0, where=np.logical_not(fast, out=w.flag[:n]))
    y = np.log10(a, out=w.y[:n])
    np.clip(np.floor(y, out=y), _G8_EXP_LO, _G8_EXP_HI, out=y)
    e = w.e[:n]
    np.copyto(e, y, casting="unsafe")
    m, tie = _g8_mantissa(t, a, e, w)
    # log10 can miss by one next to a power of ten, and rounding can carry
    # into a ninth digit: move e by one and scale again.  The new mantissa
    # then lies within 0.05 of 1e7 or 1e8, so never on a midpoint.
    off = np.less(m, 1e7, out=w.flag[:n])
    off |= np.greater_equal(m, 1e8, out=w.flag2[:n])
    off = np.flatnonzero(off)
    if off.size:
        e[off] += np.where(m[off] >= 1e8, 1, -1)
        fast[off] &= (e[off] >= _G8_EXP_LO) & (e[off] <= _G8_EXP_HI)
        e[off[~fast[off]]] = 0
        m[off] = _g8_mantissa(t, a[off], e[off], _G8Work(off.size))[0]
        fast[off] &= (m[off] >= 1e7) & (m[off] < 1e8)
    not_fast = np.logical_not(fast, out=w.flag2[:n])
    slow = np.not_equal(x, 0, out=w.flag[:n])
    slow &= not_fast
    slow |= tie
    slow = np.flatnonzero(slow)
    # zeros (and the slow cells, overwritten below) print as m = 0, e = 0: "0"
    np.copyto(m, 0.0, where=not_fast)
    np.copyto(e, 0, where=not_fast)

    hi_float = np.floor(np.divide(m, 1e4, out=w.y[:n]), out=w.y[:n])
    lo_float = np.subtract(m, np.multiply(hi_float, 1e4, out=w.g[:n]), out=w.g[:n])
    lo, hi = w.lo[:n], w.i[:n]
    np.copyto(lo, lo_float, casting="unsafe")
    np.copyto(hi, hi_float, casting="unsafe")
    digits = t.quad_lo.take(hi, out=w.digits[:n], mode="clip")
    digits |= t.quad_hi.take(lo, out=w.tmp[:n], mode="clip")
    cls = t.sig_lo.take(lo, out=w.cls[:n], mode="clip")
    np.maximum(cls, t.sig_hi.take(hi, out=lo, mode="clip"), out=cls)
    e -= _G8_EXP_LO
    e *= 36
    cls += e
    cls += last
    np.add(cls, 2, out=cls, where=np.signbit(x, out=w.flag[:n]))
    shift = t.int_shift.take(cls, out=w.shift[:n], mode="clip")
    integer = w.integer[:n]
    np.bitwise_and(digits, t.int_mask.take(cls, out=integer, mode="clip"), out=integer)
    fraction = digits
    fraction &= t.frac_mask.take(cls, out=w.tmp[:n], mode="clip")
    words = w.words[:n]
    low_word, high_word = words[:, 0], words[:, 1]
    # low: pattern_lo | integer << shift | fraction << (shift + 8)
    np.left_shift(integer, shift, out=low_word)
    low_word |= t.pattern_lo.take(cls, out=w.tmp[:n], mode="clip")
    low_word |= np.left_shift(fraction, np.add(shift, np.uint64(8), out=w.tmp[:n]), out=w.tmp[:n])
    # high: pattern_hi | integer >> (64 - shift) | fraction >> (56 - shift); numpy
    # defines a shift by 64 as 0: nothing spills when there is no lead
    np.right_shift(integer, np.subtract(np.uint64(64), shift, out=w.tmp[:n]), out=high_word)
    high_word |= t.pattern_hi.take(cls, out=integer, mode="clip")
    high_word |= np.right_shift(fraction, np.subtract(np.uint64(56), shift, out=shift), out=fraction)
    cells = words.view(np.uint8).reshape(n, _G8_CELL_BYTES)
    if slow.size:
        seps = [b"\n" if end else b"," for end in last[slow].tolist()]
        texts = [(t + s).ljust(_G8_CELL_BYTES, b"\0") for t, s in zip(_printf_8g(x[slow]), seps)]
        cells[slow] = np.frombuffer(b"".join(texts), np.uint8).reshape(slow.size, _G8_CELL_BYTES)
    flat = cells.reshape(-1)
    # a boolean mask, not np.compress, whose index array takes 8 bytes per byte kept
    return flat[np.not_equal(flat, 0, out=w.nonzero[: flat.size])]


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


def _write_csv_8g(path, header: str, table: np.ndarray, first_column: np.ndarray | None = None) -> None:
    """Write a one-line header and a 2-D table as comma-separated '%.8g'
    cells, byte for byte what np.savetxt(path, table, delimiter=",",
    header=header, comments="", fmt="%.8g") writes.  A first_column is
    written before the table's columns, joined to it one batch at a time."""
    table = np.asarray(table, dtype=np.float64)
    n_rows, n_cols = table.shape
    n_cols += first_column is not None
    rows = max(1, _CSV_CHUNK_CELLS // n_cols)
    last = np.tile(np.arange(n_cols) == n_cols - 1, rows).astype(np.intp)
    _g8_tables()  # built once here, not raced for by the workers

    def format_rows(batch: slice, w: tuple[_G8Work, np.ndarray]) -> bytes:
        g8, joined = w
        block = table[batch]
        if first_column is not None:
            joined = joined[: len(block)]
            joined[:, 0] = first_column[batch]
            joined[:, 1:] = block
            block = joined
        return _format_8g(block.reshape(-1), last[: block.size], g8)

    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        # the joined block is left untouched, and so costs no memory, without a first_column
        _map_blocks(format_rows, n_rows, rows, sink=fh.write,
                    work=lambda: (_G8Work(rows * n_cols), np.empty((rows, n_cols))))


def comparison_to_json(comparison: RateComparison) -> str:
    """Single-line JSON summary of a comparison."""
    return json.dumps(asdict(comparison), sort_keys=True)
