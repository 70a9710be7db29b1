"""Exception types raised across the package."""


class RespiradarError(Exception):
    """Base class for all library errors."""


# wire format / capture container


class DatagramTooShortError(RespiradarError):
    """Raw datagram shorter than header plus one payload byte."""


class PayloadTooLargeError(RespiradarError):
    """Datagram payload exceeds the 1456-byte wire limit."""


class DuplicateSeqError(RespiradarError):
    """Same sequence number seen twice with differing byte offsets or payloads."""


class NonMonotonicByteCountError(RespiradarError):
    """Cumulative byte offsets inconsistent with sequence order."""


class LengthMismatchError(RespiradarError):
    """Sample stream not aligned to whole int16 I/Q pairs."""


class TruncatedFrameError(RespiradarError):
    """Sample stream ends inside a frame."""


class BadMagicError(RespiradarError):
    """Capture file does not start with the container magic."""


class UnsupportedVersionError(RespiradarError):
    """Capture container version not understood by this reader."""


class HeaderCubeMismatchError(RespiradarError):
    """Capture header disagrees with the stored sample stream."""


# radar DSP


class EmptyCubeError(RespiradarError):
    """Operation requires at least one frame of data."""


class TooFewFramesError(RespiradarError):
    """Statistics over time need at least two frames."""


class WindowEmptyError(RespiradarError):
    """No range-bin centre falls inside the selection window."""


class ZeroMagnitudeError(RespiradarError):
    """Phase is undefined for zero-magnitude samples."""


# audio DSP


class AudioTooShortError(RespiradarError):
    """Recording shorter than the decimation filter."""


class UnsupportedWavError(RespiradarError):
    """WAV file is not 16-bit PCM mono at 44.1 kHz."""


# spectral


class TraceTooShortError(RespiradarError):
    """Trace shorter than one analysis window."""


class EmptyBandError(RespiradarError):
    """Search band does not intersect the frequency axis."""


class NoOverlapError(RespiradarError):
    """Rate series share no common time instants."""


# simulator


class DurationTooShortError(RespiradarError):
    """Requested duration too short to synthesise anything."""
