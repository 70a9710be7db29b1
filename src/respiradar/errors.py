"""Exception types raised across the package.  An ``InputError`` (a
``ValueError`` too) means the input is at fault; any other
``RespiradarError`` means the inputs are valid but give no reading."""


class RespiradarError(Exception):
    """Base class for all library errors."""


class InputError(RespiradarError, ValueError):
    """A file or stream not in its format, or a parameter that cannot apply."""


# wire format / capture container


class DatagramTooShortError(InputError):
    """Raw datagram shorter than header plus one payload byte."""


class PayloadTooLargeError(InputError):
    """Datagram payload exceeds the 1456-byte wire limit."""


class DuplicateSeqError(InputError):
    """Same sequence number seen twice with differing byte offsets or payloads."""


class NonMonotonicByteCountError(InputError):
    """Cumulative byte offsets inconsistent with sequence order."""


class LengthMismatchError(InputError):
    """Sample stream not aligned to whole int16 I/Q pairs."""


class TruncatedFrameError(InputError):
    """Sample stream ends inside a frame where whole frames are required.
    decode_cube does not raise it: a cut stream decodes to its whole frames."""


class BadMagicError(InputError):
    """Capture file does not start with the container magic."""


class UnsupportedVersionError(InputError):
    """Capture container version not understood by this reader."""


class HeaderCubeMismatchError(InputError):
    """Capture header disagrees with the stored sample stream."""


# radar DSP


class EmptyCubeError(RespiradarError):
    """Operation requires at least one frame of data."""


class TooFewFramesError(RespiradarError):
    """Statistics over time need at least two frames."""


class WindowEmptyError(InputError):
    """No range-bin centre falls inside the selection window."""


class ZeroMagnitudeError(RespiradarError):
    """Phase is undefined for zero-magnitude samples."""


# audio DSP


class AudioTooShortError(RespiradarError):
    """Recording shorter than the decimation filter."""


class UnsupportedWavError(InputError):
    """WAV file is not 16-bit PCM mono at 44.1 kHz."""


# spectral


class TraceTooShortError(RespiradarError):
    """Trace shorter than one analysis window."""


class EmptyBandError(InputError):
    """Search band does not intersect the frequency axis."""


class NoOverlapError(RespiradarError):
    """Rate series share no common time instants."""


# simulator


class DurationTooShortError(InputError):
    """Requested duration too short to synthesise anything."""
