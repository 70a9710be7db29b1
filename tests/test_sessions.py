"""Whole sessions as a user runs them: the README's library quick start, run
as written, and a radar and audio CLI session whose every run reads the
simulated rate and writes the same bytes on one CPU as on every CPU the
process may use.

These tests import only numpy, pytest and the package, and run the CLI
through the package they import, so they also run against an installed
package in an environment without the test extras:
``python -m pytest tests/test_sessions.py``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import respiradar

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_reads_15_bpm():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert abs(namespace["result"].rates.rates_bpm.mean() - 15.0) <= 1.0


# run in a fresh interpreter, held to one CPU when argv[1] is "pinned": each
# CLI run of the JSON list argv[2], then the number of CPUs it could use (0
# where the platform cannot tell)
RUN_SESSION = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from respiradar.cli import main
for args in json.loads(sys.argv[2]):
    try:
        main(args)
    except SystemExit as exc:
        if exc.code:
            raise
print(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0)
"""

INPUTS = {
    "breath.json": {"resp_rate_bpm": 15.0, "exhale_only": False, "noise_db": -20.0, "seed": 7},
    # 70 bpm: the first inhale starts before the recording, so its burst is
    # left out while its draw is still consumed
    "breath70.json": {"resp_rate_bpm": 70.0, "exhale_only": False, "burst_duration_s": 0.5,
                      "noise_db": -20.0, "seed": 5},
    "scene.json": {"targets": [[{"base_range_m": 0.5, "resp_rate_bpm": 15.0, "resp_amplitude_m": 0.001}, 1.0]],
                   "snr_db": 30.0, "seed": 7},
    "chirps4.json": {"chirps_per_frame": 4},
}

# each run writes into {out}/<its name> and reads the recordings of the
# unpinned session in run/.  70 s: 1,400 frames in 512-frame blocks, the last
# one partial, and 201 STFT instants; 90 s: 601 instants, which no block of
# windows divides, over at least 3 blocks at any worker count.  Four chirps a
# frame make the range FFT sum the int16 counts over chirps.
SESSION = {
    "wav": ["simulate-audio", "breath.json", "--duration", "70"],
    "wav70": ["simulate-audio", "breath70.json", "--duration", "70"],
    "audio": ["process-audio", "run/wav/breath.wav", "--multistage"],
    "audioD": ["process-audio", "run/wav/breath.wav"],
    "sim": ["simulate", "scene.json", "--duration", "70"],
    "radar": ["process-radar", "run/sim/capture.rvsc", "--export-range-map", "--export-phase"],
    "radarB": ["process-radar", "run/sim/capture.rvsc", "--variant", "B"],
    "sim4": ["simulate", "scene.json", "--config", "chirps4.json", "--duration", "70"],
    "radar4": ["process-radar", "run/sim4/capture.rvsc", "--export-range-map", "--export-phase"],
    "radar4B": ["process-radar", "run/sim4/capture.rvsc", "--variant", "B", "--export-range-map"],
    "sim90": ["simulate", "scene.json", "--duration", "90"],
    "radar90": ["process-radar", "run/sim90/capture.rvsc", "--export-range-map"],
    "radar90B": ["process-radar", "run/sim90/capture.rvsc", "--variant", "B"],
    "wav90": ["simulate-audio", "breath.json", "--duration", "90"],
    "audio90": ["process-audio", "run/wav90/breath.wav"],
}

# the files each run must write, besides its manifest
WRITTEN = {
    "wav": ["breath.wav", "truth.csv"],
    "wav70": ["breath.wav", "truth.csv"],
    "audio": ["envelope.csv", "rates.csv", "spectrogram.csv"],
    "audioD": ["envelope.csv", "rates.csv", "spectrogram.csv"],
    "sim": ["capture.rvsc", "truth.csv"],
    "radar": ["rates.csv", "spectrogram.csv", "range_map.npz", "phase.csv"],
    "radarB": ["rates.csv", "spectrogram.csv"],
    "sim4": ["capture.rvsc", "truth.csv"],
    "radar4": ["rates.csv", "spectrogram.csv", "range_map.npz", "phase.csv"],
    "radar4B": ["rates.csv", "spectrogram.csv", "range_map.npz"],
    "sim90": ["capture.rvsc", "truth.csv"],
    "radar90": ["rates.csv", "spectrogram.csv", "range_map.npz"],
    "radar90B": ["rates.csv", "spectrogram.csv"],
    "wav90": ["breath.wav", "truth.csv"],
    "audio90": ["envelope.csv", "rates.csv", "spectrogram.csv"],
}

# the breath spec sounds inhale and exhale, so the audio chain reads twice
# the breathing rate: only the radar runs are held to the diver's rate
RADAR_RUNS = [name for name, args in SESSION.items() if args[0] == "process-radar"]


def run_session(root, out) -> int:
    """Run SESSION into root / out; the number of CPUs the runs could use."""
    runs = [args + ["--out", f"{out}/{name}"] for name, args in SESSION.items()]
    # the package this test imported, whether from a checkout or installed
    path = os.pathsep.join(filter(None, [str(Path(respiradar.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RUN_SESSION, out, json.dumps(runs)], cwd=root,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The session's directory, after one unpinned run into run/."""
    root = tmp_path_factory.mktemp("session")
    for name, document in INPUTS.items():
        (root / name).write_text(json.dumps(document), encoding="utf-8")
    run_session(root, "run")
    return root


@pytest.fixture(scope="module")
def pinned(session):
    """The session's directory, after one more run into pinned/ on one CPU."""
    # one CPU means one pool worker, other blocks of windows, and the helper
    # thread of simulate-audio sharing that CPU
    assert run_session(session, "pinned") == 1
    return session


@pytest.mark.parametrize("name", RADAR_RUNS)
def test_every_radar_run_of_the_session_reads_the_15_bpm_diver(session, name):
    # variant B reads the 15 bpm diver, not the 2f line of its 1 mm chest
    # motion (it read 30 bpm at every instant while it took the argmax)
    rates = np.loadtxt(session / "run" / name / "rates.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    assert rates.size >= 201
    within = np.mean(np.abs(rates - 15.0) <= 1.0)
    assert within >= 0.99, (name, within, np.median(rates))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is missing on this platform: no run can be held to one CPU")
@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="this process may use one CPU only, so every run is already a one-CPU run")
@pytest.mark.parametrize("name", list(SESSION))
def test_a_run_on_one_cpu_writes_the_bytes_of_a_run_on_every_cpu(pinned, name):
    run, on_one_cpu = (pinned / out / name for out in ("run", "pinned"))
    written = sorted(path.name for path in run.iterdir())
    assert written == sorted(WRITTEN[name] + ["manifest.json"])
    assert written == sorted(path.name for path in on_one_cpu.iterdir())
    for file in written:
        assert (run / file).stat().st_size > 0, file
        if file == "manifest.json":  # the same run, written to another directory
            recorded, replayed = (json.loads((out / file).read_text(encoding="utf-8")) for out in (run, on_one_cpu))
            assert dict(replayed, output_dir=recorded["output_dir"]) == recorded
        else:
            assert (on_one_cpu / file).read_bytes() == (run / file).read_bytes(), file
