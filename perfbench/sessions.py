"""The two CLI workloads: the README radar and audio sessions.

One operation is the session's `respiradar` commands in order.  The
untraced run starts each command as a cold subprocess; the traced run
calls the same commands in-process through click.  Either way the
operation is then checked: every rates.csv must equal the library result
for the same input file.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from common import (
    ACOUSTIC_TRUTH_BPM,
    TRUTH_BPM,
    breath_json,
    rate_ok,
    rates_mismatch,
    read_rates,
    scene_json,
    sha256_file,
)


@dataclass(frozen=True)
class Command:
    label: str  # names the command's timing: `<label>_s` in the detail record
    args: tuple[str, ...]
    processing: bool  # False for the simulator that makes the session's input


class CliSession:
    """Inputs, commands and output checks of one CLI workload."""

    name = ""

    def __init__(self, work: Path, seed: int, duration_s: float) -> None:
        self.work = work
        self.duration = f"{duration_s:g}"
        self._references: dict[str, dict] = {}
        self.digests: dict[str, set[str]] = {}

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def output_dirs(self) -> list[Path]:
        raise NotImplementedError

    def reset(self) -> None:
        """Remove the previous operation's outputs, so that a failed command
        cannot leave stale files that pass the check."""
        for path in self.output_dirs():
            shutil.rmtree(path, ignore_errors=True)

    def _record_digest(self, path: Path) -> str:
        digest = sha256_file(path)
        self.digests.setdefault(path.name, set()).add(digest)
        return digest

    def _check_outputs(self, out: Path, reference, truth_bpm: float, extra: tuple[str, ...]):
        """(errors, (instants within tolerance, instants)) for one output dir."""
        errors = []
        table = read_rates(out / "rates.csv")
        if isinstance(table, str):
            return [table], None
        why = rates_mismatch(table, reference)
        if why:
            errors.append(f"{out.name}: {why}")
        for name in extra:
            path = out / name
            if not path.is_file() or path.stat().st_size == 0:
                errors.append(f"{out.name}: missing {name}")
        return errors, rate_ok(table[:, 1].tolist(), truth_bpm)

    def check(self) -> tuple[list[str], dict[str, tuple[int, int]]]:
        """(errors, per-series rate counts) for the last operation."""
        raise NotImplementedError


class RadarSession(CliSession):
    """README radar session: simulate, then process-radar A and B."""

    name = "radar-cli"

    def __init__(self, work: Path, seed: int, duration_s: float) -> None:
        super().__init__(work, seed, duration_s)
        self.scene = work / "scene.json"
        self.scene.write_text(json.dumps(scene_json(seed)), encoding="utf-8")
        self.sim = work / "sim"
        self.capture = self.sim / "capture.rvsc"
        self.out = {"a": work / "radar-a", "b": work / "radar-b"}

    def commands(self) -> list[Command]:
        return [
            Command("simulate", ("simulate", str(self.scene), "--duration", self.duration,
                                 "--out", str(self.sim)), False),
            Command("radar_a", ("process-radar", str(self.capture),
                                "--out", str(self.out["a"])), True),
            Command("radar_b", ("process-radar", str(self.capture), "--variant", "B",
                                "--out", str(self.out["b"])), True),
        ]

    def output_dirs(self) -> list[Path]:
        return [self.sim, *self.out.values()]

    def check(self):
        from respiradar import load_capture, process_radar_cube

        digest = self._record_digest(self.capture)
        if digest not in self._references:
            cube = load_capture(self.capture)
            self._references[digest] = {
                v: process_radar_cube(cube, variant=v.upper()).rates for v in self.out
            }
        errors, counts = [], {}
        for variant, out in self.out.items():
            errs, counts[variant] = self._check_outputs(
                out, self._references[digest][variant], TRUTH_BPM, ("spectrogram.csv",))
            errors += errs
        return errors, {k: v for k, v in counts.items() if v is not None}


class AudioSession(CliSession):
    """README audio session: simulate-audio, then process-audio (default FIR)."""

    name = "audio-cli"

    def __init__(self, work: Path, seed: int, duration_s: float) -> None:
        super().__init__(work, seed, duration_s)
        self.spec = work / "breath.json"
        self.spec.write_text(json.dumps(breath_json(seed)), encoding="utf-8")
        self.wav_dir = work / "wav"
        self.wav = self.wav_dir / "breath.wav"
        self.out = work / "audio"

    def commands(self) -> list[Command]:
        return [
            Command("simulate_audio", ("simulate-audio", str(self.spec), "--duration",
                                       self.duration, "--out", str(self.wav_dir)), False),
            Command("audio", ("process-audio", str(self.wav), "--out", str(self.out)), True),
        ]

    def output_dirs(self) -> list[Path]:
        return [self.wav_dir, self.out]

    def check(self):
        from respiradar import load_wav, process_audio

        digest = self._record_digest(self.wav)
        if digest not in self._references:
            self._references[digest] = process_audio(load_wav(self.wav)).rates
        errors, counts = self._check_outputs(
            self.out, self._references[digest], ACOUSTIC_TRUTH_BPM,
            ("spectrogram.csv", "envelope.csv"))
        return errors, ({"audio": counts} if counts else {})


SESSIONS = {cls.name: cls for cls in (RadarSession, AudioSession)}


def run_in_process(args: tuple[str, ...]) -> str | None:
    """One command through click in this process; None on success."""
    from respiradar import cli

    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            cli.main.main(args=list(args), prog_name="respiradar", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"exited {exc.code}: {sink.getvalue().strip()[-300:]}"
    except Exception as exc:  # a failed operation is counted, never fatal
        return f"{type(exc).__name__}: {exc}"
    return None
