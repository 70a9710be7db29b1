"""Shared pieces of the benchmark: checkout paths, child processes, inputs,
statistics, run identity and the rate checks every workload applies.

This module imports only the standard library at the top, so that the
traced run can time the package's imports in a process that has not
loaded numpy yet.
"""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"

# The README scene and breath spec; only the noise seed comes from --seed.
SCENE = {
    "targets": [[{"base_range_m": 0.5, "resp_rate_bpm": 15.0,
                  "resp_amplitude_m": 0.001}, 1.0]],
    "static_reflectors": [[3.0, 2.0]],
    "snr_db": 30.0,
}
BREATH = {"resp_rate_bpm": 15.0, "exhale_only": False, "burst_duration_s": 0.5,
          "noise_db": -20.0}
TRUTH_BPM = 15.0
# Both breath sounds per period: the acoustic rate is twice the breathing rate.
ACOUSTIC_TRUTH_BPM = 2.0 * TRUTH_BPM
RATE_TOLERANCE_BPM = 1.0

# The console script `respiradar` is exactly this entry point.
CLI_ENTRY = "import sys; from respiradar.cli import main; sys.exit(main())"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The run cannot produce a result (no sources, a broken environment,
    or no operation that succeeded)."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread for this process and every child."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def require_sources() -> None:
    if not (SRC / "respiradar" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'respiradar'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout()


def run_child(argv: list[str], log_path: Path, cwd: Path | None = None,
              env: dict | None = None) -> dict:
    """Run one child to completion; wall time, exit code and peak RSS.

    The wall time runs from the spawn to the reaping of the child, so it
    includes interpreter start.  Peak RSS comes from ``os.wait4``.  `env`
    adds variables to the child's environment.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=dict(child_env(), **(env or {})),
                                cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def new_op() -> dict:
    """The record of one operation, as every workload reports it."""
    return {"walls": {}, "rss": [], "errors": [], "incorrect": False, "rate_ok": {}}


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *args]


def measure_setup(work: Path, probes: int) -> list[float]:
    """Wall times of cold `respiradar --help` runs, after one warm-up run
    that fills the bytecode cache as an installed package would have it."""
    log = work / "help.log"
    run_child(cli_argv("--help"), log)
    times = []
    for _ in range(probes):
        res = run_child(cli_argv("--help"), log)
        if res["exit"] != 0:
            raise BenchError(f"`respiradar --help` exited {res['exit']}; see {log}")
        times.append(res["wall_s"])
    return times


def scene_json(seed: int) -> dict:
    return dict(SCENE, seed=seed)


def breath_json(seed: int) -> dict:
    return dict(BREATH, seed=seed)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else None


def summary(values, unit: str) -> dict:
    """Median, quartiles and sample count of one measured quantity."""
    out = {"unit": unit, "n": len(values), "median": median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4, method="inclusive")
        out["q1"], out["q3"] = q[0], q[2]
    return out


def rate_ok(rates, truth_bpm: float) -> tuple[int, int]:
    """(instants within the tolerance of truth, instants)."""
    ok = sum(1 for r in rates if abs(r - truth_bpm) <= RATE_TOLERANCE_BPM)
    return ok, len(rates)


def read_rates(csv_path: Path):
    """The (instants, 3) table of a rates.csv, or an error string."""
    import numpy as np

    try:
        return np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return f"unreadable {csv_path}: {exc}"


def rates_mismatch(table, reference) -> str | None:
    """Why a rates.csv table differs from the library's RateSeries for the
    same input, or None when they agree to the CSV's 10 printed digits."""
    import numpy as np

    if table.shape != (reference.times_s.size, 3):
        return f"rates.csv has shape {table.shape}, library {reference.times_s.size} rows"
    for col, name, values in ((0, "times", reference.times_s),
                              (1, "rates", reference.rates_bpm),
                              (2, "magnitudes", reference.magnitudes)):
        if not np.allclose(table[:, col], values, rtol=1e-9, atol=0):
            return f"rates.csv {name} differ from the library"
    return None


def identity() -> dict:
    """What code, interpreter and machine produced a result."""
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "respiradar").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
