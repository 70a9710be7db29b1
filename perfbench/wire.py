"""wire-ingest workload: the capture card's UDP stream, in-process.

The README scene is simulated with four chirps per frame, encoded as a
single-rx stream, and each chirp block is copied into four rx blocks in
the layout `decode_cube` documents (chirp-major within a frame, rx blocks
within a chirp).  The stream is cut into wire packets by this module, from
the documented format, so the input does not depend on the package's own
encoder.  A seeded network then loses, delays and duplicates packets.

One operation hands every arrival to `parse_datagram`, then calls
`reassemble`, `decode_cube` and `process_radar_cube`; `ingest_s` times
that span.  A round is one lossless control operation followed by
`LOSSY_PER_ROUND` lossy ones, each with its own network draw, and a run
repeats whole rounds, so that the failed and rate-ok fractions depend on
the seed only.

Run as a script, this module is the worker the untraced run starts, so
that the worker's peak RSS is that of the operations:

    python3 perfbench/wire.py WORK_DIR SEED SECONDS

The worker measures a long-lived receiver in its steady state.  It runs
one untimed control operation first, and glibc keeps the memory freed by
an operation in the heap (`WORKER_MALLOC_ENV`), so the next operation
reuses it.  Otherwise every operation maps about 1.4 GB of fresh pages,
and the kernel's page faults and huge-page compaction take about 40% of
its time and swing from run to run with the state of a shared host.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import TRUTH_BPM, new_op, rate_ok, require_sources, scene_json, sha256_file

HEADER = struct.Struct("<IIH")  # seq, byte offset low 32 bits, high 16 bits
MAX_PAYLOAD = 1456
BYTES_PER_SAMPLE = 4
CHIRPS = 4
RX = 4
LOSS = 0.01  # uniform, the last packet included
DUPLICATES = 0.005
JITTER = 8  # an arrival lands at most this many positions early or late
LOSSY_PER_ROUND = 3

# Serve every allocation from the heap and never shrink it.
WORKER_MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}

STREAM_FILE = "wire-stream.bin"
REFERENCE_FILE = "wire-reference.npy"
RESULT_FILE = "wire-result.json"


def wire_config():
    from respiradar import RadarConfig

    return RadarConfig(chirps_per_frame=CHIRPS, rx_channels=RX)


def build_inputs(work: Path, seed: int, duration_s: float) -> dict[str, str]:
    """Write the 4-rx stream and the single-rx container path's rates for
    the same scene into `work`; return the sha256 of what was generated."""
    import numpy as np
    from respiradar import (RadarConfig, SceneSpec, encode_cube, load_capture,
                            process_radar_cube, synth_cube, write_capture)

    scene = SceneSpec.from_dict(scene_json(seed))
    cube = synth_cube(scene, RadarConfig(chirps_per_frame=CHIRPS), duration_s)
    capture = work / "wire-capture.rvsc"
    write_capture(cube, capture)
    single = np.frombuffer(encode_cube(cube), dtype="<i2")
    del cube
    rates = process_radar_cube(load_capture(capture)).rates
    np.save(work / REFERENCE_FILE, np.stack([rates.times_s, rates.rates_bpm, rates.magnitudes]))

    blocks = single.reshape(-1, CHIRPS, 1, 2 * wire_config().samples_per_chirp)
    stream = np.broadcast_to(blocks, blocks.shape[:2] + (RX, blocks.shape[3])).tobytes()
    (work / STREAM_FILE).write_bytes(stream)
    return {
        "wire-capture.rvsc": sha256_file(capture),
        STREAM_FILE: hashlib.sha256(stream).hexdigest(),
    }


def build_packets(stream: bytes) -> list[bytes]:
    view = memoryview(stream)
    return [
        HEADER.pack(seq, offset & 0xFFFFFFFF, offset >> 32) + view[offset:offset + MAX_PAYLOAD]
        for seq, offset in enumerate(range(0, len(stream), MAX_PAYLOAD))
    ]


def arrival_order(n_packets: int, seed: int, realization: int):
    """Sequence numbers in arrival order for one network draw; draw 0 is
    the lossless control."""
    import numpy as np

    rng = np.random.default_rng([seed, realization])
    loss = 0.0 if realization == 0 else LOSS
    kept = np.flatnonzero(rng.random(n_packets) >= loss)
    seqs = np.concatenate([kept, kept[rng.random(kept.size) < DUPLICATES]])
    keys = seqs + rng.uniform(0.0, JITTER, seqs.size)
    return seqs[np.argsort(keys, kind="stable")]


class WireInputs:
    """Everything one process needs to run and check wire operations."""

    def __init__(self, work: Path, seed: int) -> None:
        import numpy as np

        self.stream = (work / STREAM_FILE).read_bytes()
        self.packets = build_packets(self.stream)
        self.config = wire_config()
        self.reference = np.load(work / REFERENCE_FILE)
        self.orders = [arrival_order(len(self.packets), seed, r)
                       for r in range(1 + LOSSY_PER_ROUND)]
        self.frame_bytes = CHIRPS * RX * self.config.samples_per_chirp * BYTES_PER_SAMPLE

    def order_digests(self) -> list[str]:
        return [hashlib.sha256(o.astype("<u4").tobytes()).hexdigest() for o in self.orders]

    def arrivals(self, realization: int) -> list[bytes]:
        packets = self.packets
        return [packets[i] for i in self.orders[realization].tolist()]

    def expected(self, realization: int) -> dict:
        """What reassembly must report and return for one network draw.

        Loss after the last packet received cannot be seen on the wire, so
        the expected stream ends with that packet.
        """
        import numpy as np

        received = np.unique(self.orders[realization])
        last = int(received[-1])
        lost = np.setdiff1d(np.arange(last + 1), received)
        gaps = []
        for seq in lost.tolist():
            if gaps and gaps[-1][0] + gaps[-1][1] == seq:
                gaps[-1][1] += 1
            else:
                gaps.append([seq, 1])
        end = min((last + 1) * MAX_PAYLOAD, len(self.stream))
        return {
            "received": int(received.size),
            "expected_datagrams": last + 1,
            "gaps": [tuple(g) for g in gaps],
            "zero_filled_bytes": int(lost.size) * MAX_PAYLOAD,
            "end": end,
            "whole_frames": end % self.frame_bytes == 0,
        }

    def expected_stream(self, exp: dict) -> bytearray:
        out = bytearray(memoryview(self.stream)[: exp["end"]])
        for first, count in exp["gaps"]:
            lo = first * MAX_PAYLOAD
            out[lo:lo + count * MAX_PAYLOAD] = bytes(count * MAX_PAYLOAD)
        return out


def ingest(arrivals: list[bytes], config):
    """The timed operation: arrivals to a RateSeries.

    Functions are looked up on their modules at call time, so the traced
    run's wrappers apply.
    """
    from respiradar import ingest as ing
    from respiradar import pipeline

    parse = ing.parse_datagram
    datagrams = [parse(buf) for buf in arrivals]
    stream, report = ing.reassemble(datagrams)
    cube = ing.decode_cube(stream, config)
    rates = pipeline.process_radar_cube(cube).rates
    return stream, report, rates


def run_op(inputs: WireInputs, realization: int, around=nullcontext) -> dict:
    """One timed, checked operation; failures are recorded, never raised.

    `around` is a context manager factory entered just outside the timed
    region; the traced run uses it to turn tracing on.
    """
    import numpy as np
    from respiradar.errors import TruncatedFrameError

    arrivals = inputs.arrivals(realization)
    exp = inputs.expected(realization)
    record = new_op()
    try:
        with around():
            start = time.perf_counter()
            stream, report, rates = ingest(arrivals, inputs.config)
            record["walls"]["ingest"] = time.perf_counter() - start
    except TruncatedFrameError as exc:
        record["errors"].append(f"TruncatedFrameError: {exc}")
        # a lost tail is invisible to reassembly (a known defect); any
        # other truncation means reassembly went wrong
        record["incorrect"] = exp["whole_frames"]
        return record
    except Exception as exc:  # any other failure is counted, never fatal
        record["errors"].append(f"{type(exc).__name__}: {exc}")
        record["incorrect"] = True
        return record
    del arrivals

    seen = {"received": report.received, "expected_datagrams": report.expected_datagrams,
            "gaps": [tuple(g) for g in report.gaps],
            "zero_filled_bytes": report.zero_filled_bytes}
    for key, value in seen.items():
        if value != exp[key]:
            record["errors"].append(f"loss report {key}={value}, expected {exp[key]}")
    if realization == 0:
        if stream != inputs.stream:
            record["errors"].append("control stream differs from the stream sent")
        ref = inputs.reference
        if not (np.array_equal(rates.times_s, ref[0]) and np.array_equal(rates.rates_bpm, ref[1])
                and np.allclose(rates.magnitudes, ref[2], rtol=1e-12, atol=0)):
            record["errors"].append("control rates differ from the single-rx container path")
    elif stream != inputs.expected_stream(exp):
        record["errors"].append("reassembled stream differs from the sent stream with losses zeroed")
    record["incorrect"] = bool(record["errors"])
    record["rate_ok"] = {"a": rate_ok(rates.rates_bpm.tolist(), TRUTH_BPM)}
    return record


def run_rounds(seconds: float, run_round) -> list:
    """Whole rounds, as many as fit in `seconds` at the pace of the last
    one (at least one), so that the seed alone fixes the failure counts."""
    ops = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        ops += run_round()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return ops


def main(argv: list[str]) -> int:
    work, seed, seconds = Path(argv[0]), int(argv[1]), float(argv[2])
    require_sources()
    inputs = WireInputs(work, seed)
    run_op(inputs, 0)  # warm-up: grows the heap to an operation's peak
    ops = run_rounds(seconds, lambda: [run_op(inputs, r) for r in range(len(inputs.orders))])
    result = {"ops": ops, "arrival_order_sha256": inputs.order_digests()}
    (work / RESULT_FILE).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
