import gc
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import breathing_scene, random_iq_counts
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from respiradar import (
    Datagram,
    RadarConfig,
    RadarCube,
    decode_cube,
    encode_cube,
    load_capture,
    parse_datagram,
    process_radar_cube,
    reassemble,
    receive_datagrams,
    serialize_datagram,
    synth_cube,
    write_capture,
)
from respiradar.errors import (
    BadMagicError,
    DatagramTooShortError,
    DuplicateSeqError,
    HeaderCubeMismatchError,
    LengthMismatchError,
    NonMonotonicByteCountError,
    PayloadTooLargeError,
    UnsupportedVersionError,
)
from respiradar.ingest import (
    BYTES_PER_SAMPLE,
    IQ_COUNTS,
    MAX_PAYLOAD_BYTES,
    LossReport,
    frame_stream_bytes,
    stream_to_datagrams,
)


def make_raw(seq, byte_count, payload):
    return struct.pack("<I", seq) + byte_count.to_bytes(6, "little") + payload


def random_cube(config, n_frames, seed=0):
    data = random_iq_counts((n_frames, config.chirps_per_frame, config.samples_per_chirp), seed)
    return RadarCube(config=config, data=data, frame_timestamps=np.arange(n_frames) / config.frame_rate_hz)


def reassemble_reference(datagrams) -> bytes:
    """Reference reassembly into a growing bytearray: distinct datagrams in seq
    order, each preceded by zeros up to its byte offset."""
    out = bytearray()
    for dgram in sorted({d.seq: d for d in datagrams}.values(), key=lambda d: d.seq):
        out += bytes(dgram.byte_count - len(out))
        out += dgram.payload
    return bytes(out)


def decode_reference(stream, config):
    """Reference decode in float64: every rx block converted to float and to
    complex, then rx 0 kept."""
    n_frames = len(stream) // frame_stream_bytes(config)
    raw = np.frombuffer(stream, dtype="<i2").astype(np.float64)
    samples = raw[0::2] + 1j * raw[1::2]
    return samples.reshape(
        n_frames, config.chirps_per_frame, config.rx_channels, config.samples_per_chirp
    )[:, :, 0, :].copy()


# --- datagram parsing -------------------------------------------------------


def test_parse_first_packet():
    dgram = parse_datagram(make_raw(0, 0, b"\x01\x02\x03\x04"))
    assert dgram.seq == 0
    assert dgram.byte_count == 0
    assert dgram.payload == b"\x01\x02\x03\x04"


def test_parse_header_only_too_short():
    with pytest.raises(DatagramTooShortError) as err:
        parse_datagram(b"\x00" * 10)
    assert str(err.value) == "datagram of 10 bytes is shorter than header + 1 payload byte"


def test_parse_oversized_payload():
    with pytest.raises(PayloadTooLargeError) as err:
        parse_datagram(make_raw(1, 0, b"x" * 1457))
    assert str(err.value) == "payload of 1457 bytes exceeds 1456"


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dgram = Datagram(
            seq=int(rng.integers(0, 2**32)),
            byte_count=int(rng.integers(0, 2**48)),
            payload=rng.bytes(int(rng.integers(1, 1457))),
        )
        assert parse_datagram(serialize_datagram(dgram)) == dgram
    full = Datagram(seq=7, byte_count=1456 * 7, payload=b"q" * 1456)
    assert parse_datagram(serialize_datagram(full)) == full
    # the u48 offset travels as lo32 + hi16: cover both halves and their seam
    for seq in (0, 2**32 - 1):
        for byte_count in (0, 2**32 - 1, 2**32, 2**48 - 1):
            for payload in (b"\x00", b"\xff" * MAX_PAYLOAD_BYTES):
                dgram = Datagram(seq=seq, byte_count=byte_count, payload=payload)
                raw = serialize_datagram(dgram)
                assert raw == make_raw(seq, byte_count, payload)
                assert parse_datagram(raw) == dgram


def test_parse_fuzz_is_total():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        buf = rng.bytes(int(rng.integers(0, 2000)))
        try:
            dgram = parse_datagram(buf)
        except (DatagramTooShortError, PayloadTooLargeError):
            continue
        assert 1 <= len(dgram.payload) <= 1456
        assert 0 <= dgram.seq < 2**32
        assert 0 <= dgram.byte_count < 2**48


def test_parse_keeps_a_read_only_view_of_a_bytes_packet():
    packet = make_raw(3, 4368, bytes(range(200)))
    dgram = parse_datagram(packet)
    assert type(dgram.payload) is memoryview
    assert dgram.payload.obj is packet
    assert dgram.payload.readonly
    assert dgram.payload == packet[10:]


def test_parsing_a_read_only_packet_leaves_one_object_for_the_gc():
    # the datagram, its payload memoryview and the view's managed buffer were
    # three GC-tracked objects per packet, which set off most of the parse's
    # collections
    n = 1000
    packets = [make_raw(seq, seq * MAX_PAYLOAD_BYTES, bytes(MAX_PAYLOAD_BYTES)) for seq in range(n)]
    parsed = []
    gc.disable()
    try:
        before = len(gc.get_objects())
        parsed.extend(map(parse_datagram, packets))
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added <= n
    assert all(d.payload.obj is packet for d, packet in zip(parsed, packets))


def test_a_parsed_datagram_is_the_datagram_of_its_fields():
    packet = make_raw(3, 4368, bytes(range(200)))
    parsed = parse_datagram(packet)
    built = Datagram(3, 4368, bytes(range(200)))
    assert parsed == built and built == parsed and not parsed != built
    assert hash(parsed) == hash(built)
    assert repr(parsed).startswith("Datagram(seq=3, byte_count=4368, payload=<memory at ")
    assert parsed._replace(seq=4) == built._replace(seq=4)
    assert parse_datagram(make_raw(3, 4368, bytes(200))) != parsed


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "writable-memoryview"])
def test_parse_copies_the_payload_out_of_a_writable_packet(wrap):
    raw = make_raw(3, 4368, bytes(range(200)))
    packet = wrap(raw)
    dgram = parse_datagram(packet)
    packet[:] = bytes(len(raw))
    assert type(dgram.payload) is bytes
    assert dgram.payload == raw[10:]
    assert dgram == (3, 4368, raw[10:])


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview, lambda b: memoryview(bytearray(b))],
                         ids=["bytes", "bytearray", "read-only-memoryview", "writable-memoryview"])
def test_serialize_of_a_parsed_packet_is_the_packet(wrap):
    rng = np.random.default_rng(43)
    for byte_count, size in [(0, 1), (2**32 - 1, 700), (2**48 - 1, MAX_PAYLOAD_BYTES)]:
        raw = make_raw(int(rng.integers(0, 2**32)), byte_count, rng.bytes(size))
        again = serialize_datagram(parse_datagram(wrap(raw)))
        assert type(again) is bytes
        assert again == raw


def test_stream_to_datagrams_views_a_bytes_stream_and_copies_a_writable_one():
    source = np.random.default_rng(44).bytes(3 * MAX_PAYLOAD_BYTES + 10)
    views = stream_to_datagrams(source)
    assert [len(d.payload) for d in views] == [MAX_PAYLOAD_BYTES] * 3 + [10]
    assert all(d.payload.obj is source and d.payload.readonly for d in views)
    writable = bytearray(source)
    copies = stream_to_datagrams(writable)
    writable[:] = bytes(len(source))
    assert copies == views
    assert b"".join(d.payload for d in copies) == source


# --- reassembly -------------------------------------------------------------


def test_reassemble_single_datagram():
    stream, report = reassemble([Datagram(seq=0, byte_count=0, payload=b"ABCD")])
    assert stream == b"ABCD"
    assert report.gaps == ()
    assert report.zero_filled_bytes == 0
    assert report.expected_datagrams == report.received == 1


def test_reassemble_one_gap_zero_filled():
    p0 = bytes(range(256)) * 5 + b"x" * 176  # 1456 bytes
    p2 = p0[::-1]
    datagrams = [
        Datagram(seq=0, byte_count=0, payload=p0),
        Datagram(seq=2, byte_count=2912, payload=p2),
    ]
    stream, report = reassemble(datagrams)
    assert stream == p0 + bytes(1456) + p2
    assert report.gaps == ((1, 1),)
    assert report.zero_filled_bytes == 1456
    assert report.expected_datagrams == 3
    assert report.received == 2


def test_reassemble_arrival_permutation():
    rng = np.random.default_rng(3)
    source = rng.bytes(99 * 1456 + 500)  # 100 datagrams, short tail
    datagrams = stream_to_datagrams(source)
    assert len(datagrams) == 100
    order = rng.permutation(len(datagrams))
    stream, report = reassemble([datagrams[i] for i in order])
    assert stream == source
    assert report.gaps == ()
    assert report.received == 100


def test_reassemble_duplicates():
    base = Datagram(seq=0, byte_count=0, payload=b"same")
    stream, report = reassemble([base, base])
    assert stream == b"same"
    assert report.received == 1
    with pytest.raises(DuplicateSeqError):
        reassemble([base, Datagram(seq=0, byte_count=0, payload=b"diff")])


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3)], ids=["offset-8-first", "offset-16-first"])
def test_reassemble_duplicate_seq_at_another_offset(order):
    # same seq and payload, another byte offset: whichever copy came last used
    # to win, so one order raised NonMonotonicByteCountError and the other
    # returned a 40-byte stream
    arrivals = [Datagram(0, 0, b"a" * 8), Datagram(1, 8, b"b" * 8),
                Datagram(1, 16, b"b" * 8), Datagram(3, 32, b"d" * 8)]
    with pytest.raises(DuplicateSeqError):
        reassemble([arrivals[i] for i in order])


def test_reassemble_rejects_inconsistent_byte_counts():
    with pytest.raises(NonMonotonicByteCountError):
        reassemble(
            [
                Datagram(seq=0, byte_count=0, payload=b"aaaa"),
                Datagram(seq=1, byte_count=2, payload=b"bbbb"),  # should be 4
            ]
        )
    with pytest.raises(NonMonotonicByteCountError):
        reassemble(
            [
                Datagram(seq=0, byte_count=100, payload=b"aaaa"),
                Datagram(seq=1, byte_count=0, payload=b"bbbb"),
            ]
        )


def test_reassemble_rejects_a_gap_smaller_than_its_missing_datagrams():
    # each missing datagram carried at least one byte: two cannot fit in one
    stream, report = reassemble([Datagram(0, 0, b"aaaa"), Datagram(3, 6, b"d")])
    assert stream == b"aaaa\0\0d" and report.gaps == ((1, 2),)
    with pytest.raises(NonMonotonicByteCountError,
                       match=r"seq 3 at byte offset 5 leaves a 1-byte gap after byte 4, "
                             r"which 2 missing datagrams cannot carry"):
        reassemble([Datagram(0, 0, b"aaaa"), Datagram(3, 5, b"d")])


def test_reassemble_accepts_a_duplicate_as_bytes_and_as_a_view():
    packet = make_raw(1, 4, b"bbbb")
    view = parse_datagram(packet)
    copy = Datagram(1, 4, b"bbbb")
    assert type(view.payload) is memoryview
    for arrivals in ([Datagram(0, 0, b"aaaa"), view, copy], [copy, Datagram(0, 0, b"aaaa"), view]):
        stream, report = reassemble(arrivals)
        assert stream == b"aaaabbbb"
        assert report.received == 2
    with pytest.raises(DuplicateSeqError):
        reassemble([view, Datagram(1, 4, b"bbbc")])


def test_reassemble_rejects_a_gap_its_missing_datagrams_cannot_carry():
    full = b"a" * MAX_PAYLOAD_BYTES
    # one missing datagram carries at most MAX_PAYLOAD_BYTES
    stream, report = reassemble([Datagram(0, 0, full), Datagram(2, 2 * MAX_PAYLOAD_BYTES, b"c")])
    assert len(stream) == 2 * MAX_PAYLOAD_BYTES + 1
    assert report.zero_filled_bytes == MAX_PAYLOAD_BYTES
    with pytest.raises(NonMonotonicByteCountError):
        reassemble([Datagram(0, 0, full), Datagram(2, 2 * MAX_PAYLOAD_BYTES + 1, b"c")])
    # an offset near the top of the u48 field raises before any zero-fill is allocated
    tracemalloc.start()
    try:
        for arrivals in ([Datagram(0, 0, b"a"), Datagram(2, 2**48 - 1, b"b")],
                         [Datagram(0, 0, b"a"), Datagram(2, 3 * 10**8, b"b")],
                         [Datagram(5, 2**48 - 1, b"b")]):
            with pytest.raises(NonMonotonicByteCountError):
                reassemble(arrivals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_and_reassemble_hold_the_stream_about_once():
    # a parsed datagram holds its packet, so beside the packets only the
    # stream, one block's join and the per-datagram arrays are allocated
    stream = np.random.default_rng(45).bytes(2000 * MAX_PAYLOAD_BYTES)
    packets = [serialize_datagram(d) for d in stream_to_datagrams(stream)]
    tracemalloc.start()
    try:
        joined, report = reassemble([parse_datagram(p) for p in packets])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joined == stream
    assert report.received == 2000
    assert peak <= 1.5 * len(stream)


def test_reassemble_leading_gap():
    stream, report = reassemble([Datagram(seq=1, byte_count=8, payload=b"tail")])
    assert stream == bytes(8) + b"tail"
    assert report.gaps == ((0, 1),)
    assert report.zero_filled_bytes == 8
    assert report.expected_datagrams == 2


def test_reassembly_conservation_under_random_loss():
    rng = np.random.default_rng(17)
    for trial in range(5):
        source = rng.bytes(int(rng.integers(10_000, 80_000)))
        datagrams = stream_to_datagrams(source)
        keep = [d for d in datagrams if rng.random() > 0.1]
        if not keep or keep[-1] is not datagrams[-1]:
            keep.append(datagrams[-1])
        dropped = {d.seq for d in datagrams} - {d.seq for d in keep}
        stream, report = reassemble(keep)
        last = max(keep, key=lambda d: d.seq)
        assert len(stream) == last.byte_count + len(last.payload)
        assert report.zero_filled_bytes == sum(
            len(d.payload) for d in datagrams if d.seq in dropped
        )
        assert report.received + sum(n for _, n in report.gaps) == report.expected_datagrams
        # zero-filled bytes really are zero, the rest are intact
        expected = bytearray(source)
        for d in datagrams:
            if d.seq in dropped:
                expected[d.byte_count : d.byte_count + len(d.payload)] = bytes(len(d.payload))
        assert stream == bytes(expected)


# a stream cut into datagrams piece by piece: a maximal one at an offset that is a
# multiple of 1456; two that fill one such row; or a maximal one between two
# short ones, at an unaligned offset
PIECES = st.one_of(
    st.just((MAX_PAYLOAD_BYTES,)),
    st.integers(1, MAX_PAYLOAD_BYTES - 1).map(lambda k: (k, MAX_PAYLOAD_BYTES - k)),
    st.integers(1, MAX_PAYLOAD_BYTES - 1).map(lambda k: (k, MAX_PAYLOAD_BYTES, MAX_PAYLOAD_BYTES - k)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    maximal=st.integers(0, 300),
    pieces=st.lists(PIECES, max_size=6),
    last=st.integers(0, MAX_PAYLOAD_BYTES - 1),
    kind=st.sampled_from(["parsed", "constructed", "mixed"]),
)
def test_reassemble_matches_bytearray_build(seed, maximal, pieces, last, kind):
    # parsed maximal packets are copied in blocks, across block boundaries and
    # around gaps; every other datagram on its own, parsed or constructed
    sizes = [MAX_PAYLOAD_BYTES] * maximal + [size for piece in pieces for size in piece] + [last] * (last > 0)
    assume(sizes)
    rng = np.random.default_rng(seed)
    source = rng.bytes(sum(sizes))
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).tolist()
    datagrams = [Datagram(seq, offset, source[offset : offset + size])
                 for seq, (offset, size) in enumerate(zip(offsets, sizes))]
    kept = [d for d in datagrams if rng.integers(4) != 0]
    assume(kept)
    duplicates = [d for d in kept if rng.integers(2)]
    parse = {"parsed": np.ones, "constructed": np.zeros, "mixed": lambda n: rng.integers(2, size=n)}[kind]
    arrivals = [parse_datagram(serialize_datagram(d)) if as_packet else d
                for d, as_packet in zip(kept + duplicates, parse(len(kept) + len(duplicates)))]
    arrivals = [arrivals[i] for i in rng.permutation(len(arrivals))]

    stream, report = reassemble(arrivals)
    assert type(stream) is bytes
    assert stream == reassemble_reference(arrivals)
    seqs = [d.seq for d in kept]
    missing = sorted(set(range(seqs[-1] + 1)) - set(seqs))
    gaps = []
    for seq in missing:
        if gaps and sum(gaps[-1]) == seq:
            gaps[-1][1] += 1
        else:
            gaps.append([seq, 1])
    assert report == LossReport(expected_datagrams=seqs[-1] + 1, received=len(kept),
                                gaps=tuple(map(tuple, gaps)),
                                zero_filled_bytes=len(stream) - sum(len(d.payload) for d in kept))


# --- cube decode/encode -----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    rx=st.integers(1, 4),
    chirps=st.integers(1, 4),
    samples=st.integers(1, 8),
    n_frames=st.integers(0, 4),
    data=st.data(),
)
def test_decode_matches_float64_reference(rx, chirps, samples, n_frames, data):
    config = RadarConfig(samples_per_chirp=samples, chirps_per_frame=chirps, rx_channels=rx)
    extremes = st.sampled_from([-32768, -1, 0, 32767])
    values = data.draw(
        arrays(
            np.int16,
            n_frames * frame_stream_bytes(config) // 2,
            elements=st.one_of(extremes, st.integers(-32768, 32767)),
        )
    )
    if values.size:
        values[0], values[-1] = -32768, 32767
    stream = values.astype("<i2").tobytes()

    decoded = decode_cube(stream, config).samples
    reference = decode_reference(stream, config)
    assert decoded.shape == reference.shape
    assert np.array_equal(decoded, reference)
    assert decoded.tobytes() == reference.tobytes()


def test_decode_peak_memory_is_the_output():
    config = RadarConfig(samples_per_chirp=64, chirps_per_frame=4, rx_channels=4)
    n_values = 50 * frame_stream_bytes(config) // 2
    values = np.random.default_rng(31).integers(-32768, 32768, size=n_values)
    stream = values.astype("<i2").tobytes()
    tracemalloc.start()
    try:
        output_bytes = decode_cube(stream, config).data.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * output_bytes


def test_decode_keeps_a_read_only_view_of_a_bytes_stream():
    config = RadarConfig(samples_per_chirp=64, chirps_per_frame=4, rx_channels=4)
    stream = np.random.default_rng(32).bytes(400 * frame_stream_bytes(config))
    tracemalloc.start()
    try:
        cube = decode_cube(stream, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * len(stream)
    assert np.shares_memory(cube.data, np.frombuffer(stream, np.uint8))
    assert not cube.data.flags.writeable
    # size counts complex samples: one 4-byte I/Q pair each, rx 0 only
    assert cube.data.size * 4 == len(stream) // 4


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "writable-memoryview"])
def test_decode_copies_rx0_out_of_a_writable_stream(wrap):
    config = RadarConfig(samples_per_chirp=8, chirps_per_frame=2, rx_channels=2)
    raw = np.random.default_rng(33).bytes(3 * frame_stream_bytes(config))
    stream = wrap(raw)
    cube = decode_cube(stream, config)
    before = cube.samples.copy()
    stream[:] = bytes(len(raw))
    assert np.array_equal(cube.samples, before)
    assert np.array_equal(before, decode_reference(raw, config))
    assert not cube.data.flags.writeable


def test_decode_zero_frame_bytes(config):
    frame = bytes(4 * config.samples_per_chirp)
    cube = decode_cube(frame, config)
    assert cube.samples.shape == (1, 1, config.samples_per_chirp)
    assert np.all(cube.samples == 0)


def test_decode_constant_iq(config):
    one = struct.pack("<hh", 1, -1)
    cube = decode_cube(one * config.samples_per_chirp * 3, config)
    assert cube.n_frames == 3
    assert np.all(cube.samples == 1 - 1j)


def test_decode_alignment_errors(config):
    with pytest.raises(LengthMismatchError):
        decode_cube(b"\x00" * 6, config)


def test_a_stream_cut_inside_a_frame_decodes_to_its_whole_frames(config):
    # a lost last datagram is invisible to reassembly: the stream ends with
    # the datagram before it, inside a frame, and its whole frames are decoded
    cube = synth_cube(breathing_scene(), config, 70.0)
    stream = encode_cube(cube)
    frame_bytes = frame_stream_bytes(config)
    received, report = reassemble(stream_to_datagrams(stream)[:-1])
    assert not report.gaps and len(received) % frame_bytes  # no gap seen, a frame cut
    n_frames = len(received) // frame_bytes
    whole = stream[: n_frames * frame_bytes]
    cut = decode_cube(received, config)
    assert cut.n_frames == n_frames == cube.n_frames - 1
    assert cut.data.tobytes() == whole
    # a cut at any I/Q pair of the last frame leaves the frames before it
    for end in range(n_frames * frame_bytes, len(stream), BYTES_PER_SAMPLE):
        assert decode_cube(memoryview(stream)[:end], config).data.tobytes() == whole
    for variant in ("A", "B"):
        rates = process_radar_cube(cut, variant=variant).rates.rates_bpm
        assert np.all(np.abs(rates - 15.0) <= 1.0), variant


def test_decode_selects_channel_zero():
    config = RadarConfig(samples_per_chirp=4, rx_channels=2)
    ch0 = struct.pack("<hh", 5, 0) * 4
    ch1 = struct.pack("<hh", 9, 0) * 4
    cube = decode_cube(ch0 + ch1, config)
    assert cube.samples.shape == (1, 1, 4)
    assert np.all(cube.samples == 5)


def test_encode_decode_round_trip(config):
    cube = random_cube(config, n_frames=4, seed=5)
    decoded = decode_cube(encode_cube(cube), config)
    assert decoded.data.tobytes() == cube.data.tobytes()
    with pytest.raises(ValueError, match="single-channel"):
        encode_cube(decode_cube(bytes(8 * config.samples_per_chirp), RadarConfig(rx_channels=2)))


def exact_inverse_streams(config):
    n = config.samples_per_chirp
    extremes = np.random.default_rng(36).integers(-32768, 32768, 5 * 2 * n).astype("<i2")
    extremes[:4] = [-32768, 32767, 0, -1]
    return {
        "empty": b"",
        # one peak of 1000 among small counts: a rescale to 4x the peak would show
        "lone-peak": struct.pack("<hh", 1000, -4) + struct.pack("<hh", -3, 2) * (n - 1),
        "extremes": extremes.tobytes(),
    }


@pytest.mark.parametrize("name", ["empty", "lone-peak", "extremes"])
def test_decode_and_encode_are_exact_inverses(tmp_path, config, name):
    # a cube keeps its counts as they are, so a single-rx stream and a
    # container both come back byte for byte
    stream = exact_inverse_streams(config)[name]
    assert encode_cube(decode_cube(stream, config)) == stream

    n_frames = len(stream) // frame_stream_bytes(config)
    path = tmp_path / "capture.rvsc"
    write_capture(decode_cube(stream, config, 0.25 + np.arange(n_frames) / config.frame_rate_hz), path)
    again = tmp_path / "again.rvsc"
    write_capture(load_capture(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_cube_takes_only_iq_counts(config):
    shape = (2, 1, config.samples_per_chirp)
    stamps = np.arange(2) / config.frame_rate_hz
    assert RadarCube(config=config, data=np.zeros(shape, IQ_COUNTS), frame_timestamps=stamps).n_frames == 2
    for data in (np.zeros(shape), np.zeros(shape, np.complex128), np.zeros(shape + (2,), np.int16),
                 np.zeros(shape, np.int16), np.zeros(shape).tolist()):
        with pytest.raises(ValueError, match="int16 I/Q counts"):
            RadarCube(config=config, data=data, frame_timestamps=stamps)


def test_cube_timestamp_validation(config):
    n = config.samples_per_chirp
    data = np.zeros((2, 1, n), IQ_COUNTS)
    with pytest.raises(ValueError):
        RadarCube(config=config, data=data, frame_timestamps=np.array([0.0, 0.2]))
    with pytest.raises(ValueError):
        RadarCube(config=config, data=data, frame_timestamps=np.array([0.1, 0.05]))


@pytest.mark.parametrize("stamps", [[0.0, np.nan, 0.1, 0.15], [np.nan] * 4, [np.nan], [np.inf]],
                         ids=["one", "all", "one-frame-nan", "one-frame-inf"])
def test_cube_rejects_nan_timestamps(tmp_path, config, stamps):
    # NaN compares false both to "<= 0" and to "> 1% off": such stamps used to
    # build a cube, and a one-frame cube's stamp was not checked at all
    n = len(stamps)
    data = np.zeros((n, 1, config.samples_per_chirp), IQ_COUNTS)
    with pytest.raises(ValueError, match="strictly increasing|frame spacing"):
        RadarCube(config=config, data=data, frame_timestamps=np.array(stamps))
    path = tmp_path / "capture.rvsc"
    write_capture(RadarCube(config=config, data=data, frame_timestamps=np.arange(n) / 20.0), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: -n * 8] + np.array(stamps, "<f8").tobytes())
    with pytest.raises(ValueError, match="strictly increasing|frame spacing"):
        load_capture(path)


# --- capture container ------------------------------------------------------


def test_capture_round_trip(tmp_path, config):
    cube = random_cube(config, n_frames=6, seed=9)
    path = tmp_path / "capture.rvsc"
    write_capture(cube, path)
    loaded = load_capture(path)
    assert loaded.config == config
    assert loaded.data.tobytes() == cube.data.tobytes()
    assert np.allclose(loaded.frame_timestamps, cube.frame_timestamps)


def test_capture_bad_magic(tmp_path, config):
    path = tmp_path / "capture.rvsc"
    write_capture(random_cube(config, 1), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_capture(path)


def test_capture_unsupported_version(tmp_path, config):
    path = tmp_path / "capture.rvsc"
    write_capture(random_cube(config, 1), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_capture(path)


def test_capture_truncated_body(tmp_path, config):
    path = tmp_path / "capture.rvsc"
    write_capture(random_cube(config, 2), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(HeaderCubeMismatchError):
        load_capture(path)


# the container header as the README documents it: magic, version, the seven
# RadarConfig fields, bandwidth, frame count
README_CAPTURE_HEADER = struct.Struct("<4sHdddQQdQdQ")


def test_capture_header_is_readme_layout(tmp_path):
    # distinct values in every field, so a field written out of order shows
    config = RadarConfig(
        carrier_hz=60.0e9, chirp_slope_hz_per_s=30.0e12, adc_rate_hz=4.0e6,
        samples_per_chirp=64, chirps_per_frame=2, frame_rate_hz=25.0,
    )
    path = tmp_path / "capture.rvsc"
    write_capture(random_cube(config, 3), path)
    expected = README_CAPTURE_HEADER.pack(
        b"RVSC", 1, 60.0e9, 30.0e12, 4.0e6, 64, 2, 25.0, 1, 30.0e12 * 64 / 4.0e6, 3
    )
    assert path.read_bytes()[: README_CAPTURE_HEADER.size] == expected


def test_capture_every_header_prefix_is_a_container_error(tmp_path, config):
    path = tmp_path / "capture.rvsc"
    write_capture(random_cube(config, 2), path)
    blob = path.read_bytes()
    for n in range(README_CAPTURE_HEADER.size + 9):
        path.write_bytes(blob[:n])
        with pytest.raises((BadMagicError, UnsupportedVersionError, HeaderCubeMismatchError)):
            load_capture(path)


def test_capture_zero_frames(tmp_path, config):
    empty = RadarCube(
        config=config,
        data=np.zeros((0, 1, config.samples_per_chirp), IQ_COUNTS),
        frame_timestamps=np.zeros(0),
    )
    path = tmp_path / "empty.rvsc"
    write_capture(empty, path)
    loaded = load_capture(path)
    assert loaded.n_frames == 0
    assert loaded.samples.shape == (0, 1, config.samples_per_chirp)


# --- UDP listener -----------------------------------------------------------


def _send_over_loopback(packets):
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    addr = receiver.getsockname()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for packet in packets:
            sender.sendto(packet, addr)
        return receive_datagrams(receiver, idle_timeout_s=0.25)
    finally:
        sender.close()
        receiver.close()


def test_receive_datagrams_loopback():
    rng = np.random.default_rng(23)
    source = rng.bytes(5000)
    received = _send_over_loopback(serialize_datagram(d) for d in stream_to_datagrams(source))

    stream, report = reassemble(received)
    assert stream == source
    assert report.gaps == ()


def test_receive_datagrams_skips_malformed_packet():
    rng = np.random.default_rng(24)
    packets = [serialize_datagram(d) for d in stream_to_datagrams(rng.bytes(4 * 1456 + 500))]
    packets[2] = packets[2][:5]
    received = _send_over_loopback(packets)

    assert len(received) == 4
    _, report = reassemble(received)
    assert report.gaps == ((2, 1),)
