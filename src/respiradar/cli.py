"""Command-line front end tying simulation, both pipelines, rate extraction
and comparison into reproducible runs that emit CSV/JSON.

Each command is one row of the ``COMMANDS`` table: the input files, the
optional manifest fields and the options it records, and its runner.  A
command only turns its flags into a ``RunManifest``, which checks itself
against that row; a missing, unknown or stray name, or an option value of
the wrong JSON type, is an input error.
``_command`` hands the manifest to the row's runner, which reads every
parameter and input from the manifest alone; it then maps errors to exit
codes and saves the manifest beside the outputs as ``manifest.json``.
``rerun`` loads a saved manifest and goes through the same path, so a
replay runs the code of the original run and reproduces its outputs
bit-identically.  It reads only the files the runner reads: a
``simulate`` manifest embeds its scene, and replays without the scene
file.

Exit codes follow the error's class: 2 for an ``OSError`` or a ``ValueError``,
which every ``errors.InputError`` is (the input is at fault), 3 for any other
``RespiradarError`` (the inputs give no reading); any other exception is a bug
and ends in a traceback with exit 1.

Only click, the standard library, ``config`` and ``errors`` are imported
at the top.  Each runner, and each command that reads a spec file, imports
the modules it uses when it is called, so ``--help`` and a flag error
return without loading numpy or any DSP module, and ``compare`` loads only
``spectral``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click

from .config import BOOLEAN, NUMBER, OBJECT, STRING, JsonDocument, RadarConfig, json_object, json_value
from .errors import RespiradarError

EXIT_INPUT_ERROR = 2
EXIT_PROCESSING_ERROR = 3

MANIFEST_NAME = "manifest.json"

@dataclass
class RunManifest(JsonDocument, kind="manifest"):
    """Everything needed to replay one CLI run.  Beyond its fields' JSON types,
    each input is a string, each option has its row's type, band_bpm two numbers."""

    command: str
    inputs: dict[str, str]
    output_dir: str | None  # None: `compare` without --out writes nothing
    # the optional fields: each is set if and only if the command's row records it
    radar_config: dict | None = None
    stft: dict | None = None
    band_bpm: list | None = None
    variant: str | None = None
    seed: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.command not in COMMANDS:
            raise ValueError(f"manifest for unknown command {self.command!r}")
        row = COMMANDS[self.command]
        for kind, given, json_types in (("input", self.inputs, dict.fromkeys(row.inputs, STRING)),
                                        ("option", self.options, row.options)):
            json_object(f"manifest {kind}s", given, json_types, required=json_types)
            for name, json_type in json_types.items():
                json_value(f"manifest {kind} {name}", given[name], json_type)
        recorded = [f.name for f in dataclasses.fields(self)
                    if f.default is None and getattr(self, f.name) is not None]
        json_object(f"{self.command} manifest", dict.fromkeys(recorded), row.fields, required=row.fields)
        if self.band_bpm is not None and len(self.band_bpm) != 2:
            raise ValueError(f"band_bpm must hold two bounds [low, high], got {len(self.band_bpm)}")
        for bound in self.band_bpm or ():
            json_value("band_bpm bound", bound, NUMBER)
        if self.variant is not None and self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")

    def save(self, directory: Path) -> None:
        path = directory / MANIFEST_NAME
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolved(path) -> str:
    return str(Path(path).resolve())


def _out_dir(manifest: RunManifest) -> Path:
    path = Path(manifest.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _simulation(m: RunManifest, spec_type, name: str):
    """A simulate run's embedded scene or breath spec and its --duration.  A
    spec seed other than the manifest's seed is an input error; the simulator
    rejects a duration too short to synthesise, before any output is made."""
    spec = spec_type.from_dict(m.options[name])
    if spec.seed != m.seed:
        raise ValueError(f"manifest seed {m.seed} differs from its {spec.kind} seed {spec.seed}")
    return spec, m.options["duration_s"]


# --------------------------------------------------------------------------
# runners: manifest -> outputs in manifest.output_dir and a one-line report


def _run_simulate(m: RunManifest) -> str:
    import numpy as np

    from .ingest import write_capture
    from .simulate import SceneSpec, scene_truth, synth_cube
    from .spectral import _write_csv_10g

    scene, duration_s = _simulation(m, SceneSpec, "scene")
    config = RadarConfig.from_dict(m.radar_config)
    if config.rx_channels != 1:  # a capture container holds one channel
        raise ValueError(f"simulate writes one channel: rx_channels must be 1, got {config.rx_channels}")
    cube = synth_cube(scene, config, duration_s)
    out = _out_dir(m)
    write_capture(cube, out / "capture.rvsc")
    _write_csv_10g(out / "truth.csv", "time_s,displacement_m,rate_bpm",
                   np.column_stack(scene_truth(scene, config, duration_s)))
    return f"wrote {out / 'capture.rvsc'} ({cube.n_frames} frames)"


def _run_simulate_audio(m: RunManifest) -> str:
    import numpy as np

    from .audio_dsp import FRAME_RATE_HZ, save_wav
    from .simulate import BreathAudioSpec, synth_audio
    from .spectral import _write_csv_10g

    spec, duration_s = _simulation(m, BreathAudioSpec, "spec")
    trace = synth_audio(spec, duration_s)
    out = _out_dir(m)
    save_wav(out / "breath.wav", trace)
    times = np.arange(int(round(duration_s * FRAME_RATE_HZ))) / FRAME_RATE_HZ
    _write_csv_10g(out / "truth.csv", "time_s,rate_bpm",
                   np.column_stack([times, np.full(times.size, spec.resp_rate_bpm)]))
    return f"wrote {out / 'breath.wav'}"


def _run_process_radar(m: RunManifest) -> str:
    from .ingest import capture_config, load_capture
    from .pipeline import process_radar_cube
    from .radar_dsp import phase_trace_to_csv, range_map_npz
    from .spectral import StftParams, rate_series_to_csv

    if m.options["export_phase"] and m.variant == "B":
        raise ValueError("export_phase needs variant A: variant B has no phase trace")
    stft_params = StftParams.from_dict(m.stft)
    # a window off the grid of the capture's frame rate fails on the header alone
    stft_params.samples(capture_config(m.inputs["capture"]).frame_rate_hz)
    cube = load_capture(m.inputs["capture"])
    # the spectrogram is written as its rates are read; the directory is made
    # once every input has been checked
    result = process_radar_cube(
        cube,
        variant=m.variant,
        stft_params=stft_params,
        band_bpm=tuple(m.band_bpm),
        min_range_m=m.options["min_range_m"],
        max_range_m=m.options["max_range_m"],
        detrend=m.options["detrend"],
        spectrogram_csv=Path(m.output_dir) / "spectrogram.csv",
    )
    out = _out_dir(m)
    rate_series_to_csv(result.rates, out / "rates.csv")
    if m.options["export_range_map"]:
        range_map_npz(cube, out / "range_map.npz")
    if m.options["export_phase"]:
        phase_trace_to_csv(result.phase, out / "phase.csv")
    return f"target bin at {result.target_range_m:.3f} m; wrote {out / 'rates.csv'}"


def _run_process_audio(m: RunManifest) -> str:
    from .audio_dsp import FRAME_RATE_HZ, envelope_to_csv, load_wav
    from .pipeline import process_audio
    from .spectral import StftParams, rate_series_to_csv

    stft_params = StftParams.from_dict(m.stft)
    # the STFT runs at the envelope's rate: a bad window fails before the WAV is read
    stft_params.samples(FRAME_RATE_HZ)
    audio = load_wav(m.inputs["wav"])
    result = process_audio(
        audio,
        stft_params=stft_params,
        band_bpm=tuple(m.band_bpm),
        multistage=m.options["multistage"],
        square=m.options["square"],
        spectrogram_csv=Path(m.output_dir) / "spectrogram.csv",
    )
    out = _out_dir(m)
    rate_series_to_csv(result.rates, out / "rates.csv")
    envelope_to_csv(result.envelope, out / "envelope.csv")
    return f"wrote {out / 'rates.csv'}"


def _run_compare(m: RunManifest) -> str:
    from .spectral import compare_rates, comparison_to_json, rate_series_from_csv

    series_a, series_b = (rate_series_from_csv(m.inputs[name]) for name in ("rates_a", "rates_b"))
    summary = comparison_to_json(compare_rates(series_a, series_b))
    if m.output_dir is not None:
        (_out_dir(m) / "comparison.json").write_text(summary + "\n", encoding="utf-8")
    return summary


class Command:
    """A command's row in ``COMMANDS``: the input files, the optional
    RunManifest fields and the options its manifest records, each with its
    JSON type, and its runner, RunManifest -> one-line report.  Not a
    dataclass, which would cost every cold start about a millisecond to build."""

    def __init__(self, inputs, fields, options, run) -> None:
        self.inputs, self.fields, self.options, self.run = inputs, fields, options, run


COMMANDS = {
    "simulate": Command(("scene",), ("radar_config", "seed"),
                        {"duration_s": NUMBER, "scene": OBJECT}, _run_simulate),
    "simulate-audio": Command(("audio_spec",), ("seed",),
                              {"duration_s": NUMBER, "spec": OBJECT}, _run_simulate_audio),
    "process-radar": Command(
        ("capture",), ("stft", "band_bpm", "variant"),
        {"min_range_m": NUMBER, "max_range_m": NUMBER, "detrend": BOOLEAN,
         "export_range_map": BOOLEAN, "export_phase": BOOLEAN},
        _run_process_radar,
    ),
    "process-audio": Command(("wav",), ("stft", "band_bpm"),
                             {"multistage": BOOLEAN, "square": BOOLEAN}, _run_process_audio),
    "compare": Command(("rates_a", "rates_b"), (), {}, _run_compare),
}


# --------------------------------------------------------------------------
# commands: flags -> RunManifest


@click.group()
def main() -> None:
    """Respiration-rate estimation from radar captures and reference audio."""


def _command(name: str):
    """Register a function from flags to a RunManifest as command `name`.
    Every command and `rerun` ends here: build the manifest, run it through
    its row's runner, save the manifest and print the runner's report."""

    def register(build):
        @functools.wraps(build)
        def command(**flags) -> None:
            try:
                manifest = build(**flags)
                report = COMMANDS[manifest.command].run(manifest)
            except (OSError, ValueError) as exc:
                _fail(EXIT_INPUT_ERROR, str(exc))
            except RespiradarError as exc:
                _fail(EXIT_PROCESSING_ERROR, str(exc))
            if manifest.output_dir is not None:
                manifest.save(Path(manifest.output_dir))
            click.echo(report)

        return main.command(name)(command)

    return register


def _stft_and_band_flags(fn):
    fn = click.option("--band-low", type=float, default=6.0, show_default=True,
                      help="Lower edge of the rate search band (bpm).")(fn)
    fn = click.option("--band-high", type=float, default=60.0, show_default=True,
                      help="Upper edge of the rate search band (bpm).")(fn)
    fn = click.option("--window-s", type=float, default=60.0, show_default=True,
                      help="STFT window length in seconds.")(fn)
    fn = click.option("--overlap-s", type=float, default=59.95, show_default=True,
                      help="STFT window overlap in seconds.")(fn)
    fn = click.option("--window-shape", type=click.Choice(["blackman", "hann", "rectangular"]),
                      default="blackman", show_default=True)(fn)
    return fn


def _manifest(command: str, flags: dict) -> RunManifest:
    """A processing or compare run's manifest from its flags: --out and the
    inputs resolved, the STFT and band flags grouped, every other flag an option."""
    out_dir = flags.pop("out_dir")
    inputs = {name: _resolved(flags.pop(name)) for name in COMMANDS[command].inputs}
    recorded = {}
    if "window_s" in flags:
        recorded["stft"] = {name: flags.pop(name) for name in ("window_s", "overlap_s", "window_shape")}
        recorded["band_bpm"] = [flags.pop("band_low"), flags.pop("band_high")]
    if "variant" in flags:
        recorded["variant"] = flags.pop("variant").upper()
    return RunManifest(command, inputs, None if out_dir is None else _resolved(out_dir),
                       options=flags, **recorded)


@_command("simulate")
@click.argument("scene_json", type=click.Path())
@click.option("--config", "config_json", type=click.Path(), default=None,
              help="Radar config JSON; defaults to the built-in 77 GHz profile.")
@click.option("--duration", "duration_s", type=float, required=True,
              help="Capture duration in seconds.")
@click.option("--seed", type=int, default=None, help="Override the scene seed.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_simulate(scene_json, config_json, duration_s, seed, out_dir) -> RunManifest:
    """Generate a synthetic capture plus its ground-truth CSV."""
    from .simulate import SceneSpec

    scene = SceneSpec.from_json_file(scene_json)
    if seed is not None:
        scene = dataclasses.replace(scene, seed=seed)
    config = RadarConfig.from_json_file(config_json) if config_json else RadarConfig()
    return RunManifest("simulate", {"scene": _resolved(scene_json)}, _resolved(out_dir),
                       radar_config=config.to_dict(), seed=scene.seed,
                       options={"duration_s": duration_s, "scene": scene.to_dict()})


@_command("simulate-audio")
@click.argument("audio_json", type=click.Path())
@click.option("--duration", "duration_s", type=float, required=True)
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_simulate_audio(audio_json, duration_s, seed, out_dir) -> RunManifest:
    """Generate a synthetic breath-sound WAV plus its ground-truth CSV."""
    from .simulate import BreathAudioSpec

    spec = BreathAudioSpec.from_json_file(audio_json)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return RunManifest("simulate-audio", {"audio_spec": _resolved(audio_json)}, _resolved(out_dir),
                       seed=spec.seed, options={"duration_s": duration_s, "spec": spec.to_dict()})


@_command("process-radar")
@click.argument("capture", type=click.Path())
@_stft_and_band_flags
@click.option("--variant", type=click.Choice(["A", "B"], case_sensitive=False),
              default="A", show_default=True,
              help="A: unwrapped phase; B: complex slow-time signal.")
@click.option("--min-range-m", type=float, default=0.10, show_default=True)
@click.option("--max-range-m", type=float, default=0.80, show_default=True)
@click.option("--detrend/--no-detrend", default=True, show_default=True,
              help="Remove a linear drift from the unwrapped phase.")
@click.option("--export-range-map", is_flag=True, help="Also write range_map.npz, the complex range map.")
@click.option("--export-phase", is_flag=True, help="Also write phase.csv (variant A).")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_process_radar(**flags) -> RunManifest:
    """Run the radar chain on a capture and write rate/spectrogram CSVs."""
    return _manifest("process-radar", flags)


@_command("process-audio")
@click.argument("wav", type=click.Path())
@_stft_and_band_flags
@click.option("--multistage", is_flag=True,
              help="Use the clean multistage decimator instead of the order-20 FIR.")
@click.option("--square", is_flag=True,
              help="Square instead of rectify before the envelope filter.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_process_audio(**flags) -> RunManifest:
    """Run the audio chain on a WAV file and write rate/envelope CSVs."""
    return _manifest("process-audio", flags)


@_command("compare")
@click.argument("rates_a", type=click.Path())
@click.argument("rates_b", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Also write comparison.json (and a manifest) here.")
def cmd_compare(**flags) -> RunManifest:
    """Compare two rate CSVs and print a single-line JSON summary."""
    return _manifest("compare", flags)


@_command("rerun")
@click.argument("manifest_path", type=click.Path())
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Directory for the reproduced outputs.")
def cmd_rerun(manifest_path, out_dir) -> RunManifest:
    """Replay a recorded run; outputs are bit-identical to the original."""
    manifest = RunManifest.from_json_file(manifest_path)
    return dataclasses.replace(manifest, output_dir=_resolved(out_dir))


if __name__ == "__main__":
    main()
