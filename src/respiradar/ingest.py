"""Capture-card wire format, on-disk capture container and raw-cube decoding.

The capture card emits UDP datagrams carrying a 10-byte header (u32 LE
sequence number, u48 LE cumulative payload byte offset) followed by up to
1456 payload bytes.  Concatenated payloads form the raw sample stream:
interleaved signed 16-bit little-endian I/Q pairs, sample-major within a
chirp, rx-channel blocks within a chirp, chirp-major within a frame.

Captures are stored in a small binary container: one ``_CAPTURE_HEADER``
(magic ``RVSC``, u16 LE version, the ``RadarConfig`` fields in declaration
order, the f64 bandwidth, a u64 frame count), the raw sample stream, then
one f64 timestamp per frame.

A cube holds int16 I/Q counts only, as the radar sends them: a decoded
capture or wire stream keeps rx 0's counts as a read-only view of the
stream, and encoding writes a cube's counts as they are, so decoding and
encoding are exact inverses.  The range FFT reads the counts as they are.

The stream is held once on its way in.  A datagram parsed from a read-only
packet holds the packet and reads its payload as a view of it, and
``reassemble`` copies each payload once, into a stream allocated at its
final size: the card's maximal packets in blocks, any other datagram on its
own.
"""

from __future__ import annotations

import io
import os
import socket
import struct
from dataclasses import astuple, dataclass
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .config import RadarConfig
from .errors import (
    BadMagicError,
    DatagramTooShortError,
    DuplicateSeqError,
    HeaderCubeMismatchError,
    LengthMismatchError,
    NonMonotonicByteCountError,
    PayloadTooLargeError,
    UnsupportedVersionError,
)

_DATAGRAM_HEADER = struct.Struct("<IIH")  # seq, then the u48 byte offset as lo32, hi16
DATAGRAM_HEADER_BYTES = _DATAGRAM_HEADER.size
MAX_PAYLOAD_BYTES = 1456
_MAX_DATAGRAM_BYTES = DATAGRAM_HEADER_BYTES + MAX_PAYLOAD_BYTES
BYTES_PER_SAMPLE = 4  # int16 I + int16 Q

CAPTURE_MAGIC = b"RVSC"
CAPTURE_VERSION = 1
DEFAULT_UDP_PORT = 4098

# magic, version, the RadarConfig fields in declaration order, bandwidth, frame count
_CAPTURE_HEADER = struct.Struct("<4sHdddQQdQdQ")

# one sample of the raw stream, as a RadarCube keeps it: int16 I and Q counts
IQ_COUNTS = np.dtype([("i", "<i2"), ("q", "<i2")])


class Datagram(NamedTuple):
    """One wire packet: sequence number, cumulative byte offset, payload.

    A Datagram built from its fields holds them as given.  parse_datagram
    gives one of two kinds.  From a read-only packet (``bytes``) it gives a
    Datagram that is the tuple (seq, byte_count, packet): its payload is a
    read-only memoryview of the packet, made each time it is read, so a
    list of parsed datagrams holds no second copy of the stream and each
    datagram is one object for the cyclic GC to track.  From a writable
    packet it gives the fields, with the payload copied to ``bytes``.
    Either kind compares and hashes by its fields, so a parsed datagram
    equals the Datagram built from its packet's fields.  A view compares
    equal to the bytes it shows, but cannot be pickled: ``bytes(payload)``
    can.
    """

    seq: int
    byte_count: int
    payload: bytes | memoryview


class _ParsedDatagram(Datagram):
    """A Datagram that is the tuple (seq, byte_count, packet) of its
    read-only packet."""

    __slots__ = ()

    @property
    def payload(self) -> memoryview:
        return memoryview(self[2])[DATAGRAM_HEADER_BYTES:]

    def _fields_tuple(self) -> tuple:
        return (self.seq, self.byte_count, self.payload)

    def __eq__(self, other):
        return self._fields_tuple() == other

    def __ne__(self, other):
        return self._fields_tuple() != other

    def __hash__(self):
        return hash(self._fields_tuple())

    def __repr__(self):
        return repr(Datagram(*self._fields_tuple()))

    def _replace(self, **fields) -> Datagram:
        return Datagram(*self._fields_tuple())._replace(**fields)


@dataclass(frozen=True)
class LossReport:
    """Accounting of received versus missing datagrams in one session."""

    expected_datagrams: int
    received: int
    gaps: tuple[tuple[int, int], ...]  # (first missing seq, run length)
    zero_filled_bytes: int


def parse_datagram(buf) -> Datagram:
    """Parse one raw wire packet (any bytes-like object); the only place a
    packet is validated.

    A read-only packet (``bytes``) is held as it is, and the payload is
    read as a read-only memoryview of it whose ``obj`` is the packet:
    nothing is copied.  A writable packet (a bytearray, a writable
    memoryview) is not aliased: its payload is copied to bytes, so a later
    write into the packet cannot change the datagram.

    Raises DatagramTooShortError below 11 bytes and PayloadTooLargeError
    above header + 1456 bytes; any other byte content is accepted.
    """
    if not DATAGRAM_HEADER_BYTES < len(buf) <= _MAX_DATAGRAM_BYTES:
        if len(buf) <= DATAGRAM_HEADER_BYTES:
            raise DatagramTooShortError(
                f"datagram of {len(buf)} bytes is shorter than header + 1 payload byte"
            )
        raise PayloadTooLargeError(
            f"payload of {len(buf) - DATAGRAM_HEADER_BYTES} bytes exceeds {MAX_PAYLOAD_BYTES}"
        )
    seq, offset_lo, offset_hi = _DATAGRAM_HEADER.unpack_from(buf)
    byte_count = offset_lo | offset_hi << 32
    # tuple.__new__ skips the Python-level __new__ that NamedTuple generates;
    # the type test spares a bytes packet, the common case, a memoryview
    if type(buf) is bytes or memoryview(buf).readonly:
        return tuple.__new__(_ParsedDatagram, (seq, byte_count, buf))
    payload = bytes(memoryview(buf)[DATAGRAM_HEADER_BYTES:])
    return tuple.__new__(Datagram, (seq, byte_count, payload))


def serialize_datagram(dgram: Datagram) -> bytes:
    offset = dgram.byte_count
    return _DATAGRAM_HEADER.pack(dgram.seq, offset & 0xFFFFFFFF, offset >> 32) + dgram.payload


def stream_to_datagrams(stream) -> list[Datagram]:
    """Chunk a byte stream into maximal datagrams with consistent seq/offsets.

    By parse_datagram's rule, the payloads are read-only memoryviews of a
    read-only stream (``bytes``), and of one bytes copy of a writable one.
    """
    view = memoryview(stream)
    if not view.readonly:
        view = memoryview(bytes(view))
    return [
        Datagram(seq, offset, view[offset : offset + MAX_PAYLOAD_BYTES])
        for seq, offset in enumerate(range(0, len(stream), MAX_PAYLOAD_BYTES))
    ]


_BLOCK_PACKETS = 128  # maximal packets per join: 188 KB held beside the stream


def reassemble(datagrams) -> tuple[bytes, LossReport]:
    """Rebuild the byte stream from datagrams in any arrival order.

    Missing sequence ranges are zero-filled using the cumulative byte
    offsets, so downstream frame indexing stays aligned; a gap must hold
    between 1 and 1456 bytes per missing datagram, or the offsets are
    inconsistent.  Duplicate packets are tolerated when they are the same
    datagram: offset and payload.

    The payloads are copied once, into a stream allocated at its final
    size.  Parsed maximal packets (1456 payload bytes at an offset that is
    a multiple of 1456), as the card sends them, are copied in blocks: one
    join of the packets, whose payload rows are copied to their place in
    the stream at once.  Any other datagram is copied on its own.
    """
    arrivals = list(datagrams)
    if not arrivals:
        raise ValueError("no datagrams to reassemble")
    n = len(arrivals)
    seqs = np.fromiter(map(attrgetter("seq"), arrivals), np.int64, n)
    byte_counts = np.fromiter(map(attrgetter("byte_count"), arrivals), np.int64, n)
    parsed = np.fromiter(map(type, arrivals), object, n) == _ParsedDatagram
    # item 2 is a parsed datagram's packet, and any other's payload
    sizes = np.fromiter(map(len, map(itemgetter(2), arrivals)), np.int64, n)
    sizes -= DATAGRAM_HEADER_BYTES * parsed

    order = np.argsort(seqs, kind="stable")
    repeat_of_previous = seqs[order[1:]] == seqs[order[:-1]]
    if repeat_of_previous.any():
        # the first arrival that differs from the one of its seq before it
        differing = [
            int(order[i + 1])
            for i in np.flatnonzero(repeat_of_previous).tolist()
            if arrivals[order[i]] != arrivals[order[i + 1]]
        ]
        if differing:
            seq = arrivals[min(differing)].seq
            raise DuplicateSeqError(f"seq {seq} received twice with differing contents")
        order = order[np.concatenate(([True], ~repeat_of_previous))]
    seqs, byte_counts, sizes, parsed = seqs[order], byte_counts[order], sizes[order], parsed[order]

    ends = byte_counts + sizes
    prev_ends = np.concatenate(([0], ends[:-1]))
    missing = seqs - np.concatenate(([0], seqs[:-1] + 1))
    fills = byte_counts - prev_ends
    # 1 to MAX_PAYLOAD_BYTES bytes per missing datagram: none missing leaves no gap,
    # and an offset that goes back (a negative gap) fails whatever the count
    bad = np.flatnonzero((fills < missing) | (fills > missing * MAX_PAYLOAD_BYTES))
    if bad.size:
        i = bad[0]
        raise NonMonotonicByteCountError(
            f"seq {seqs[i]} at byte offset {byte_counts[i]} leaves a {fills[i]}-byte gap after "
            f"byte {prev_ends[i]}, which {missing[i]} missing datagrams cannot carry"
        )
    gap_at = np.flatnonzero(missing)
    report = LossReport(
        expected_datagrams=int(seqs[-1]) + 1,
        received=seqs.size,
        gaps=tuple(zip((seqs[gap_at] - missing[gap_at]).tolist(), missing[gap_at].tolist())),
        zero_filled_bytes=int(fills[gap_at].sum()),
    )

    total = int(ends[-1])
    # the zeroed stream: as the only holder of these bytes, the BytesIO lends
    # them to getbuffer, and hands them over in getvalue, without a copy
    out = io.BytesIO(bytes(total))
    maximal = parsed & (sizes == MAX_PAYLOAD_BYTES) & (byte_counts % MAX_PAYLOAD_BYTES == 0)
    with out.getbuffer() as view:
        stream = np.frombuffer(view, np.uint8)
        rows = stream[: total - total % MAX_PAYLOAD_BYTES].reshape(-1, MAX_PAYLOAD_BYTES)
        in_blocks = np.flatnonzero(maximal)
        for start in range(0, in_blocks.size, _BLOCK_PACKETS):
            block = in_blocks[start : start + _BLOCK_PACKETS]
            joined = b"".join([arrivals[i][2] for i in order[block].tolist()])
            packets = np.frombuffer(joined, np.uint8).reshape(block.size, _MAX_DATAGRAM_BYTES)
            rows[byte_counts[block] // MAX_PAYLOAD_BYTES] = packets[:, DATAGRAM_HEADER_BYTES:]
        for i in np.flatnonzero(~maximal).tolist():
            view[byte_counts[i] : ends[i]] = arrivals[order[i]].payload
        del stream, rows  # numpy's exports of the view, which must end before it is released
    return out.getvalue(), report


@dataclass
class RadarCube:
    """Raw capture of rx channel 0, indexed [frame][chirp][sample].

    ``data`` holds the int16 I/Q counts as an IQ_COUNTS array, kept as
    given; any other dtype is a ValueError.  ``samples`` is the cube as
    complex128, for code that wants it; the range FFT reads ``data``.
    """

    config: RadarConfig
    data: np.ndarray
    frame_timestamps: np.ndarray

    def __post_init__(self) -> None:
        if not (isinstance(self.data, np.ndarray) and self.data.dtype == IQ_COUNTS):
            got = getattr(self.data, "dtype", type(self.data).__name__)
            raise ValueError(f"cube data must be an array of int16 I/Q counts, got {got}")
        self.frame_timestamps = np.asarray(self.frame_timestamps, dtype=np.float64)
        expected = (
            self.data.shape[0],
            self.config.chirps_per_frame,
            self.config.samples_per_chirp,
        )
        if self.data.ndim != 3 or self.data.shape != expected:
            raise ValueError(f"cube shape {self.data.shape} does not match config {expected}")
        if self.frame_timestamps.shape != (self.data.shape[0],):
            raise ValueError("one timestamp per frame required")
        dt = np.diff(self.frame_timestamps)
        if not (np.all(np.isfinite(self.frame_timestamps)) and np.all(dt > 0)):
            raise ValueError("frame timestamps must be finite and strictly increasing")
        if self.n_frames >= 2 and not abs(float(np.mean(dt)) * self.config.frame_rate_hz - 1.0) <= 0.01:
            raise ValueError("mean frame spacing deviates >1% from the frame rate")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> np.ndarray:
        """The cube as complex128, a new array."""
        out = np.empty(self.data.shape, np.complex128)
        out.real = self.data["i"]
        out.imag = self.data["q"]
        return out


def frame_stream_bytes(config: RadarConfig) -> int:
    """Byte size of one frame on the wire (all rx channels)."""
    return (
        config.chirps_per_frame
        * config.rx_channels
        * config.samples_per_chirp
        * BYTES_PER_SAMPLE
    )


def decode_cube(stream, config: RadarConfig, frame_timestamps=None) -> RadarCube:
    """Decode the whole frames of a raw sample stream (any bytes-like object)
    into a cube of rx channel 0.

    The cube holds rx 0's int16 I/Q counts as a read-only IQ_COUNTS view of
    the stream: nothing is converted, and the other rx blocks are never
    read.  A writable stream (a bytearray, a writable memoryview) is not
    aliased: rx 0's counts are copied out of it.

    A stream cut inside a frame, as a lost last datagram leaves it, gives
    its n_frames = len(stream) // frame_stream_bytes(config) whole frames;
    the cut tail, len(stream) - n_frames * frame_stream_bytes(config)
    bytes, is not decoded.  Raises LengthMismatchError when the stream is
    not aligned to whole I/Q pairs.
    """
    if len(stream) % BYTES_PER_SAMPLE:
        raise LengthMismatchError(
            f"stream of {len(stream)} bytes is not a whole number of I/Q pairs"
        )
    frame_bytes = frame_stream_bytes(config)
    n_frames = len(stream) // frame_bytes

    whole_frames = np.frombuffer(stream, dtype=IQ_COUNTS)[: n_frames * frame_bytes // BYTES_PER_SAMPLE]
    counts = whole_frames.reshape(
        n_frames, config.chirps_per_frame, config.rx_channels, config.samples_per_chirp
    )[:, :, 0]
    if counts.flags.writeable:
        counts = counts.copy()
        counts.flags.writeable = False

    if frame_timestamps is None:
        frame_timestamps = np.arange(n_frames) / config.frame_rate_hz
    return RadarCube(config=config, data=counts, frame_timestamps=frame_timestamps)


def encode_cube(cube: RadarCube) -> bytes:
    """The raw int16 I/Q stream of a single-channel cube: its counts as they are."""
    if cube.config.rx_channels != 1:
        raise ValueError("only single-channel cubes can be encoded")
    return cube.data.tobytes()


def write_capture(cube: RadarCube, path) -> None:
    """Write the capture container for a single-channel cube."""
    payload = encode_cube(cube)
    cfg = cube.config
    header = _CAPTURE_HEADER.pack(
        CAPTURE_MAGIC, CAPTURE_VERSION, *astuple(cfg), cfg.bandwidth_hz, cube.n_frames
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(cube.frame_timestamps.astype("<f8").tobytes())


def _read_capture_header(fh) -> tuple[RadarConfig, int]:
    """Read and check the header at the start of fh: its config and frame
    count.  The file must be as long as the header says."""
    head = fh.read(_CAPTURE_HEADER.size)
    if head[:4] != CAPTURE_MAGIC:
        raise BadMagicError("not a capture container (bad magic)")
    version = int.from_bytes(head[4:6], "little")
    if len(head) >= 6 and version != CAPTURE_VERSION:
        raise UnsupportedVersionError(f"container version {version} not supported")
    if len(head) < _CAPTURE_HEADER.size:
        raise HeaderCubeMismatchError(
            f"container of {len(head)} bytes ends inside its {_CAPTURE_HEADER.size}-byte header"
        )

    fields = _CAPTURE_HEADER.unpack(head)
    config = RadarConfig(*fields[2:9])
    declared_bw, n_frames = fields[9:]
    if abs(declared_bw - config.bandwidth_hz) > 1e-6 * config.bandwidth_hz:
        raise HeaderCubeMismatchError("declared bandwidth disagrees with chirp parameters")

    size = os.fstat(fh.fileno()).st_size
    expected_size = _CAPTURE_HEADER.size + n_frames * (frame_stream_bytes(config) + 8)
    if size != expected_size:
        raise HeaderCubeMismatchError(
            f"container holds {size} bytes, header implies {expected_size}"
        )
    return config, n_frames


def capture_config(path) -> RadarConfig:
    """The radar config of a capture container, from its header alone.

    Raises what load_capture raises for a file that is not a whole
    container, without reading its samples.
    """
    with open(path, "rb") as fh:
        return _read_capture_header(fh)[0]


def load_capture(path) -> RadarCube:
    """Read a capture container back into a cube with its embedded timestamps.

    The body is read once into a read-only buffer, and the cube holds rx
    0's I/Q counts as decode_cube returns them, a view of that buffer: the
    samples are neither copied again nor converted here.

    Raises BadMagicError, UnsupportedVersionError or HeaderCubeMismatchError
    for a file that is not a whole container, however short.
    """
    with open(path, "rb") as fh:
        config, n_frames = _read_capture_header(fh)
        sample_bytes = n_frames * frame_stream_bytes(config)
        body = np.empty(sample_bytes + 8 * n_frames, np.uint8)
        if fh.readinto(body) != body.size:
            raise HeaderCubeMismatchError("container ended while its body was read")
    body.flags.writeable = False
    stamps = np.frombuffer(body, dtype="<f8", offset=sample_bytes).copy()
    return decode_cube(body[:sample_bytes], config, frame_timestamps=stamps)


def receive_datagrams(
    sock: socket.socket | None = None,
    *,
    port: int = DEFAULT_UDP_PORT,
    host: str = "0.0.0.0",
    idle_timeout_s: float = 1.0,
    max_datagrams: int | None = None,
) -> list[Datagram]:
    """Collect datagrams from a UDP socket until idle or a count is reached.

    Pass an already-bound socket to control the address, otherwise one is
    bound to (host, port).  No real-time guarantees: packets are parsed as
    they arrive and returned in arrival order for reassemble().  A packet
    that parse_datagram() rejects is skipped, so it shows up as a gap in
    reassemble()'s LossReport like a lost one.
    """
    owned = sock is None
    if owned:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host, port))
    try:
        sock.settimeout(idle_timeout_s)
        received: list[Datagram] = []
        while max_datagrams is None or len(received) < max_datagrams:
            try:
                buf, _ = sock.recvfrom(65536)
            except socket.timeout:
                break
            try:
                received.append(parse_datagram(buf))
            except (DatagramTooShortError, PayloadTooLargeError):
                continue
        return received
    finally:
        if owned:
            sock.close()
