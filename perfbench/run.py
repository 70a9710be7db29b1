"""respiradar benchmark: three seeded workloads, one client in a closed loop.

    python3 perfbench/run.py --workload radar-cli --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is the result: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  The line before it is the run's detail record (per-command
timings with sample counts, failure and rate fractions, run identity and
input digests), which is also written to `perfbench/out/`.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    WORK_ROOT,
    BenchError,
    cli_argv,
    identity,
    measure_setup,
    median,
    new_op,
    pin_threads,
    require_sources,
    run_child,
    summary,
)

WORKLOADS = ("radar-cli", "audio-cli", "wire-ingest")
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "process_s": "s",
    "peak_rss_mb": "MB",
    "rate_ok_frac": "fraction",
}
SETUP_PROBES = 4
IMPORT_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure operations for this long (at least one operation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=360.0,
                        help="scene length in seconds (the smoke test shortens it)")
    return parser.parse_args(argv)


def check_into(op: dict, session) -> None:
    try:
        errors, counts = session.check()
    except Exception as exc:  # a broken output must not abort the run
        errors, counts = [f"check raised {type(exc).__name__}: {exc}"], {}
    op["errors"] += errors
    op["incorrect"] = bool(errors)
    op["rate_ok"] = counts


# --------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def untraced_cli(session, seconds: float) -> list[dict]:
    """Each command a cold `respiradar` subprocess, timed spawn to reap."""
    import respiradar  # noqa: F401  (for the checks; imported before the clock starts)

    log = session.work / "cli.log"
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        session.reset()
        op = new_op()
        for cmd in session.commands():
            res = run_child(cli_argv(*cmd.args), log)
            op["rss"].append(res["peak_rss_mb"])
            if res["exit"] != 0:
                op["errors"].append(f"{cmd.args[0]} exited {res['exit']}")
                break
            op["walls"][cmd.label] = res["wall_s"]
        else:
            check_into(op, session)
        ops.append(op)
    return ops


def untraced_wire(work: Path, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Operations in one worker process, whose peak RSS is theirs."""
    import wire

    res = run_child([sys.executable, str(BENCH_DIR / "wire.py"), str(work), str(seed),
                     str(seconds)], work / "wire.log", env=wire.WORKER_MALLOC_ENV)
    if res["exit"] != 0:
        raise BenchError(f"wire worker exited {res['exit']}; see {work / 'wire.log'}")
    data = json.loads((work / wire.RESULT_FILE).read_text(encoding="utf-8"))
    ops = data["ops"]
    for op in ops:
        op["rss"] = [res["peak_rss_mb"]]
    return ops, {"wire_arrival_order_sha256": data["arrival_order_sha256"]}


def rate_ok_frac(ops: list[dict], series: str | None = None) -> float:
    """Share of instants within tolerance over the successful operations,
    for one series or pooled over all."""
    counts = [c for op in ops if not op["errors"]
              for name, c in op["rate_ok"].items() if series in (None, name)]
    instants = sum(c[1] for c in counts)
    return sum(c[0] for c in counts) / instants if instants else 0.0


def end_to_end(ops: list[dict], processing: set[str], setup: list[float]) -> dict:
    good = [op for op in ops if not op["errors"]]
    if not good:
        raise BenchError("no operation succeeded: " + "; ".join(ops[0]["errors"]))
    return {
        "setup_s": median(setup),
        "op_s": median([sum(op["walls"].values()) for op in good]),
        "process_s": median([sum(w for k, w in op["walls"].items() if k in processing)
                             for op in good]),
        "peak_rss_mb": max(r for op in ops for r in op["rss"]),
        "rate_ok_frac": rate_ok_frac(ops),
    }


# --------------------------------------------------------------------------
# traced runs: per-layer metrics


def traced_cli(session, seconds: float, tracer) -> tuple[list[dict], dict]:
    """Pairs of operations in this process through click: one untraced,
    one traced.  Returns the operations and traced/untraced wall ratios."""
    import respiradar.cli  # noqa: F401  (imported before the clock starts)
    from sessions import run_in_process
    from tracing import traced_op

    ops = []
    walls = {True: {}, False: {}}
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for traced in (False, True):
            session.reset()
            op = new_op()
            op_id = f"op-{len(ops)}"
            with (traced_op(tracer, op_id) if traced else nullcontext()):
                for cmd in session.commands():
                    t0 = time.perf_counter()
                    with (tracer.span(f"cli.{cmd.args[0]}") if traced else nullcontext()):
                        err = run_in_process(cmd.args)
                    if err:
                        op["errors"].append(f"{cmd.args[0]}: {err}")
                        break
                    op["walls"][cmd.label] = time.perf_counter() - t0
            if not op["errors"]:
                check_into(op, session)
            if not op["errors"]:
                for label, wall in op["walls"].items():
                    walls[traced].setdefault(label, []).append(wall)
            ops.append(op)
    return ops, _ratios(walls)


def traced_wire(work: Path, seed: int, seconds: float, tracer) -> tuple[list[dict], dict]:
    """Whole rounds in this process, each realization untraced then traced."""
    import wire
    from tracing import traced_op

    inputs = wire.WireInputs(work, seed)
    walls = {True: {}, False: {}}
    count = itertools.count()

    def one(realization: int, traced: bool) -> dict:
        op_id = f"op-{next(count)}"
        around = (lambda: traced_op(tracer, op_id)) if traced else nullcontext
        op = wire.run_op(inputs, realization, around)
        if not op["errors"]:
            walls[traced].setdefault("ingest", []).append(op["walls"]["ingest"])
        return op

    ops = wire.run_rounds(seconds, lambda: [one(r, traced) for r in range(len(inputs.orders))
                                            for traced in (False, True)])
    return ops, _ratios(walls)


def _ratios(walls: dict) -> dict[str, float]:
    return {label: median(walls[True][label]) / median(values)
            for label, values in walls[False].items() if walls[True].get(label)}


# --------------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    from sessions import SESSIONS

    require_sources()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "duration_s": args.duration, "identity": identity()}
    session = None
    try:
        if args.workload == "wire-ingest":
            import wire

            detail["digests"] = wire.build_inputs(work, args.seed, args.duration)
        else:
            session = SESSIONS[args.workload](work, args.seed, args.duration)
        if args.trace:
            from tracing import PER_LAYER, Tracer, per_layer_metrics, probe_imports

            tracer = Tracer()
            if session is None:
                ops, overhead = traced_wire(work, args.seed, args.seconds, tracer)
            else:
                probe_imports(tracer, IMPORT_PROBES)
                ops, overhead = traced_cli(session, args.seconds, tracer)
            values, units = per_layer_metrics(tracer, overhead), PER_LAYER
            detail["trace_overhead_ratio"] = overhead
            detail["spans"] = len(tracer.spans)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        else:
            setup = measure_setup(work, SETUP_PROBES)
            detail["setup_s"] = summary(setup, "s")
            if session is None:
                ops, extra = untraced_wire(work, args.seed, args.seconds)
                detail["digests"].update(extra)
                processing = {"ingest"}
            else:
                ops = untraced_cli(session, args.seconds)
                processing = {c.label for c in session.commands() if c.processing}
            values, units = end_to_end(ops, processing, setup), END_TO_END
        if session is not None:
            detail["digests"] = {k: sorted(v) for k, v in session.digests.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op["errors"])
    good = [op for op in ops if not op["errors"]]
    labels = sorted({label for op in ops for label in op["walls"]})
    detail["timings"] = {f"{label}_s": summary([op["walls"][label] for op in good
                                                if label in op["walls"]], "s")
                         for label in labels}
    detail["failed_frac"] = failed / len(ops)
    detail["rate_ok_frac"] = {k: rate_ok_frac(ops, k)
                              for k in sorted({k for op in good for k in op["rate_ok"]})}
    detail["errors"] = sorted({e for op in ops for e in op["errors"]})[:20]
    result = {
        "correct": not any(op["incorrect"] for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        result, detail = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
