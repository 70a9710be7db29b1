"""Spans around the package's public functions, recorded from outside.

`install` wraps the functions in `TRACED` and rebinds every name under
which a `respiradar` module holds them (so calls that `pipeline` and `cli`
make through names they imported are seen too).  Each call becomes a span
with its name, start, end, parent and operation id; the spans in `PEAKS`
also carry the `tracemalloc` peak of the memory allocated inside them.
Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its child spans cover;
calls are sequential, so that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from common import child_env, median

TRACED = {
    "ingest": ("load_capture", "write_capture", "parse_datagram", "reassemble", "decode_cube"),
    "radar_dsp": ("range_fft", "select_target_bin", "extract_unwrapped_phase", "detrend_linear"),
    "pipeline": ("process_radar_cube", "process_audio"),
    "spectral": ("stft", "extract_rate", "spectrogram_to_csv", "rate_series_to_csv"),
    "audio_dsp": ("load_wav", "save_wav", "decimate_to_frame_rate", "envelope", "envelope_to_csv"),
    "simulate": ("synth_cube", "synth_audio"),
}
CLI_COMMANDS = ("simulate", "simulate-audio", "process-radar", "process-audio")
LAYERS = ("cli", "ingest", "radar_dsp", "spectral", "audio_dsp", "simulate", "pipeline")
# command timings compared traced against untraced, by workload
OVERHEAD_LABELS = ("simulate", "radar_a", "radar_b", "simulate_audio", "audio", "ingest")

TIMED = (
    ["cli.import", "cli.import_scipy"]
    + [f"cli.{c}" for c in CLI_COMMANDS]
    + [f"{m}.{f}" for m, names in TRACED.items() for f in names]
)

# name -> unit of every per-layer metric a traced run prints
PER_LAYER = {}
for _span in TIMED:
    PER_LAYER[f"{_span}_s"] = "s"
    PER_LAYER[f"{_span}.self_s"] = "s"
PER_LAYER.update({
    "ingest.parse_datagram.calls": "count",
    "ingest.reassemble.gaps": "count",
    "ingest.reassemble.zero_filled_bytes": "bytes",
    "ingest.decode_cube.peak_mb": "MB",
    "ingest.decode_cube.kept_ratio": "ratio",
    "spectral.stft.real_s": "s",
    "spectral.stft.complex_s": "s",
    "spectral.stft.windows": "count",
    "spectral.stft.peak_mb": "MB",
    "spectral.stft.bins_used_ratio": "ratio",
    "spectral.spectrogram_to_csv.bytes": "bytes",
    "audio_dsp.decimate_to_frame_rate.peak_mb": "MB",
    "audio_dsp.decimate_to_frame_rate.kept_ratio": "ratio",
})
PER_LAYER.update({f"{layer}.self_share": "fraction" for layer in LAYERS})
PER_LAYER.update({f"trace.overhead.{label}": "ratio" for label in OVERHEAD_LABELS})

# spans that carry a tracemalloc peak
PEAKS = ("ingest.decode_cube", "spectral.stft", "audio_dsp.decimate_to_frame_rate")


def _stft_attrs(args, kwargs, result):
    import numpy as np

    kind = "complex" if np.iscomplexobj(args[0]) else "real"
    return {"kind": kind, "windows": result.n_frames}


def _extract_rate_attrs(args, kwargs, result):
    import numpy as np
    from respiradar.spectral import DEFAULT_BAND_BPM

    spectrogram = args[0]
    low, high = args[1] if len(args) > 1 else kwargs.get("band_bpm", DEFAULT_BAND_BPM)
    abs_bpm = np.abs(spectrogram.freq_axis_bpm)
    used = int(np.count_nonzero((abs_bpm >= low) & (abs_bpm <= high)))
    return {"bins_used": used, "bins": int(abs_bpm.size)}


def _reassemble_attrs(args, kwargs, result):
    report = result[1]
    return {"gaps": len(report.gaps), "zero_filled_bytes": report.zero_filled_bytes}


def _decode_attrs(args, kwargs, result):
    # bytes of the I/Q pairs kept (rx 0) over bytes converted (the stream)
    return {"kept": result.data.size * 4, "converted": len(args[0])}


def _decimate_attrs(args, kwargs, result):
    return {"kept": int(len(result)), "filtered": int(args[0].samples.size)}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


ATTRS = {
    "spectral.stft": _stft_attrs,
    "spectral.extract_rate": _extract_rate_attrs,
    "spectral.spectrogram_to_csv": _csv_attrs,
    "ingest.reassemble": _reassemble_attrs,
    "ingest.decode_cube": _decode_attrs,
    "audio_dsp.decimate_to_frame_rate": _decimate_attrs,
}

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end", "peak_bytes", "attrs")
ID, PARENT, OP, NAME, START, END, PEAK, ATTR = range(len(SPAN_FIELDS))


class Tracer:
    """Spans of one run, kept in memory.

    `tracemalloc` runs only inside the spans named in `PEAKS`: under it,
    Python-heavy code such as the CSV writers runs many times slower, which
    would distort every other span's time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []  # [id, name, start, traces memory]
        self.op: str | None = None

    def begin(self, name: str) -> None:
        measure = name in PEAKS and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        self._open.append([len(self.spans) + len(self._open), name, time.perf_counter(), measure])

    def end(self, attrs: dict | None = None) -> list:
        end = time.perf_counter()
        span_id, name, start, measure = self._open.pop()
        peak = None
        if measure:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        parent = self._open[-1][0] if self._open else None
        span = [span_id, parent, self.op, name, start, end, peak, attrs]
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end({"error": True})
            raise
        span = tracer.end()
        if attrs_of is not None:
            span[ATTR] = attrs_of(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the traced functions wherever a respiradar module binds them;
    returns a function that restores the originals."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"respiradar.{module}")
        for fname in names:
            fn = getattr(mod, fname)
            wrappers[id(fn)] = _wrap(tracer, f"{module}.{fname}", fn)
    rebound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "respiradar" and not mod_name.startswith("respiradar."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
                rebound.append((mod, attr, value))

    def restore() -> None:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)

    return restore


@contextmanager
def traced_op(tracer: Tracer, op: str):
    """Trace one operation: wrappers in place and a root span `bench.op`
    that self shares are measured against."""
    restore = install(tracer)
    tracer.op = op
    tracer.begin("bench.op")
    try:
        yield
    finally:
        tracer.end()
        restore()


_IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import scipy.signal
t1 = time.perf_counter()
import respiradar.cli
t2 = time.perf_counter()
print(json.dumps([t0, t1, t2]))
"""


def probe_imports(tracer: Tracer, probes: int) -> None:
    """Time `import scipy.signal`, then `import respiradar.cli`, each in a
    fresh interpreter; spans cli.import (both) and cli.import_scipy."""
    for k in range(probes):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        t0, t1, t2 = json.loads(out.stdout.strip().splitlines()[-1])
        tracer.op = f"import-{k}"
        parent_id = len(tracer.spans)
        tracer.spans.append([parent_id, None, tracer.op, "cli.import", t0, t2, None, None])
        tracer.spans.append([parent_id + 1, parent_id, tracer.op, "cli.import_scipy", t0, t1,
                             None, None])


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one operation (or one import probe)."""
    covered = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    root = [s for s in spans if s[NAME] == "bench.op"]
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        own = dur - covered[s[ID]]
        if name == "bench.op":
            continue
        out[f"{name}_s"] += dur
        out[f"{name}.self_s"] += own
        out[f"{name.split('.')[0]}.self_share"] += own
        attrs = s[ATTR] or {}
        if s[PEAK] is not None:
            out[f"{name}.peak_mb"] = max(out[f"{name}.peak_mb"], s[PEAK] / 1e6)
        if name == "ingest.parse_datagram":
            out["ingest.parse_datagram.calls"] += 1
        elif name == "ingest.reassemble":
            out["ingest.reassemble.gaps"] += attrs.get("gaps", 0)
            out["ingest.reassemble.zero_filled_bytes"] += attrs.get("zero_filled_bytes", 0)
        elif name == "ingest.decode_cube":
            out["_decode.kept"] += attrs.get("kept", 0)
            out["_decode.converted"] += attrs.get("converted", 0)
        elif name == "spectral.stft" and "kind" in attrs:
            out[f"spectral.stft.{attrs['kind']}_s"] += dur
            out["spectral.stft.windows"] += attrs["windows"]
        elif name == "spectral.extract_rate":
            out["_rate.used"] += attrs.get("bins_used", 0)
            out["_rate.bins"] += attrs.get("bins", 0)
        elif name == "spectral.spectrogram_to_csv":
            out["spectral.spectrogram_to_csv.bytes"] += attrs.get("bytes", 0)
        elif name == "audio_dsp.decimate_to_frame_rate":
            out["_decimate.kept"] += attrs.get("kept", 0)
            out["_decimate.filtered"] += attrs.get("filtered", 0)
    for key, num, den in (("ingest.decode_cube.kept_ratio", "_decode.kept", "_decode.converted"),
                          ("spectral.stft.bins_used_ratio", "_rate.used", "_rate.bins"),
                          ("audio_dsp.decimate_to_frame_rate.kept_ratio",
                           "_decimate.kept", "_decimate.filtered")):
        if out[den]:
            out[key] = out[num] / out[den]
    wall = root[0][END] - root[0][START] if root else 0.0
    for layer in LAYERS:
        key = f"{layer}.self_share"
        out[key] = out[key] / wall if wall else 0.0
    return {k: v for k, v in out.items() if not k.startswith("_")}


def per_layer_metrics(tracer: Tracer, overheads: dict[str, float]) -> dict[str, float]:
    """Median over operations of each per-layer metric; 0 for layers the
    workload leaves idle.  Import probes give the cli.import* metrics."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s[OP]].append(s)
    op_values = [aggregate(spans) for op, spans in by_op.items() if op.startswith("op-")]
    import_values = [aggregate(spans) for op, spans in by_op.items() if op.startswith("import-")]
    metrics = {}
    for name in PER_LAYER:
        source = import_values if name.startswith("cli.import") else op_values
        values = [v.get(name, 0.0) for v in source]
        if name.startswith("trace.overhead."):
            values = [overheads.get(name.removeprefix("trace.overhead."), 0.0)]
        metrics[name] = median(values) if values else 0.0
    return metrics
