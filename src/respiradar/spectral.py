"""Sliding-window spectra of 20 Hz traces and per-instant rate readout.

The default analysis window is 60 s with a 59.95 s overlap, giving a
one-sample hop and exactly 1 bpm of frequency resolution at the 20 Hz
trace rate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyBandError, NoOverlapError, TraceTooShortError

# cosine-sum coefficients of each window shape
_WINDOW_COEFFS = {"blackman": (0.42, 0.50, 0.08), "hann": (0.5, 0.5), "rectangular": (1.0,)}

DEFAULT_BAND_BPM = (6.0, 60.0)

_FFT_CHUNK = 2048  # windows per FFT batch, caps peak memory


@dataclass(frozen=True)
class StftParams:
    """Sliding-window DFT parameters for 20 Hz traces."""

    window_s: float = 60.0
    overlap_s: float = 59.95
    window_shape: str = "blackman"
    sample_rate_hz: float = 20.0

    def __post_init__(self) -> None:
        if self.window_shape not in _WINDOW_COEFFS:
            raise ValueError(
                f"window_shape must be one of {sorted(_WINDOW_COEFFS)}, got {self.window_shape!r}"
            )
        if self.sample_rate_hz <= 0 or self.window_s <= 0:
            raise ValueError("window and sample rate must be positive")
        if not 0 <= self.overlap_s < self.window_s:
            raise ValueError("overlap must be nonnegative and below the window length")
        exact = self.window_s * self.sample_rate_hz
        if abs(exact - round(exact)) > 1e-6:
            raise ValueError("window_s must span a whole number of samples")
        if self.hop_samples < 1:
            raise ValueError("hop must be at least one sample")

    @property
    def window_len(self) -> int:
        return int(round(self.window_s * self.sample_rate_hz))

    @property
    def hop_samples(self) -> int:
        return int(round((self.window_s - self.overlap_s) * self.sample_rate_hz))

    @property
    def bin_spacing_bpm(self) -> float:
        return 60.0 * self.sample_rate_hz / self.window_len

    def window_array(self) -> np.ndarray:
        return cosine_window(self.window_shape, self.window_len, periodic=True)


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


def stft(trace: np.ndarray, params: StftParams | None = None) -> Spectrogram:
    """Sliding-window DFT magnitudes of a real or complex 20 Hz trace.

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
    length = params.window_len
    if x.size < length:
        raise TraceTooShortError(
            f"trace of {x.size} samples is shorter than the {length}-sample window"
        )
    hop = params.hop_samples
    fs = params.sample_rate_hz
    complex_input = np.iscomplexobj(x)
    window = params.window_array()

    starts = np.arange(0, x.size - length + 1, hop)
    if complex_input:
        freq_bpm = np.fft.fftshift(np.fft.fftfreq(length, d=1.0 / fs)) * 60.0
    else:
        freq_bpm = np.fft.rfftfreq(length, d=1.0 / fs) * 60.0
    magnitudes = np.empty((starts.size, freq_bpm.size))

    segments = sliding_window_view(x, length)[::hop]
    for lo in range(0, starts.size, _FFT_CHUNK):
        hi = min(lo + _FFT_CHUNK, starts.size)
        block = segments[lo:hi].astype(np.complex128 if complex_input else np.float64)
        block -= block.mean(axis=1, keepdims=True)
        block *= window
        if complex_input:
            spectrum = np.fft.fftshift(np.fft.fft(block, axis=1), axes=1)
        else:
            spectrum = np.fft.rfft(block, axis=1)
        magnitudes[lo:hi] = np.abs(spectrum)

    times = (starts + (length - 1) / 2.0) / fs
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
    if low > high:
        raise ValueError("band lower edge exceeds upper edge")
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


def rate_series_to_csv(series: RateSeries, path) -> None:
    table = np.column_stack([series.times_s, series.rates_bpm, series.magnitudes])
    np.savetxt(
        path,
        table,
        delimiter=",",
        header="time_s,rate_bpm,magnitude",
        comments="",
        fmt="%.10g",
    )


def rate_series_from_csv(path) -> RateSeries:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != 3:
        raise ValueError("rate CSV must have columns time_s,rate_bpm,magnitude")
    return RateSeries(times_s=table[:, 0], rates_bpm=table[:, 1], magnitudes=table[:, 2])


def spectrogram_to_csv(spectrogram: Spectrogram, path) -> None:
    header = "time_s," + ",".join(f"bpm_{f:g}" for f in spectrogram.freq_axis_bpm)
    table = np.column_stack([spectrogram.time_axis_s, spectrogram.magnitudes])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.8g")


def comparison_to_json(comparison: RateComparison) -> str:
    """Single-line JSON summary of a comparison."""
    return json.dumps(
        {
            "mae_bpm": comparison.mae_bpm,
            "rmse_bpm": comparison.rmse_bpm,
            "within_2bpm_fraction": comparison.within_2bpm_fraction,
            "n_instants": comparison.n_instants,
        },
        sort_keys=True,
    )
