import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import breathing_scene
from respiradar import RadarConfig, audio_dsp, ingest
from respiradar.cli import COMMANDS, main
from respiradar.ingest import load_capture
from respiradar.spectral import RateSeries, rate_series_from_csv, rate_series_to_csv

# PYTHONPATH for a fresh interpreter that runs this checkout's sources
SRC_PATH = os.pathsep.join(
    filter(None, [os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def scene_json(tmp_path):
    scene = breathing_scene(amplitude_m=0.0005, seed=1)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene.to_dict()), encoding="utf-8")
    return path


@pytest.fixture()
def audio_json(tmp_path):
    spec = {
        "resp_rate_bpm": 15.0,
        "exhale_only": True,
        "burst_duration_s": 0.5,
        "noise_db": -40.0,
        "seed": 2,
    }
    path = tmp_path / "audio.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def simulate(runner, scene_json, out, duration="90", extra=()):
    result = runner.invoke(
        main, ["simulate", str(scene_json), "--duration", duration, "--out", str(out), *extra]
    )
    assert result.exit_code == 0, result.output
    return out / "capture.rvsc"


def test_simulate_writes_capture_truth_manifest(runner, scene_json, tmp_path):
    out = tmp_path / "run"
    capture = simulate(runner, scene_json, out, duration="360")
    assert capture.exists()
    assert load_capture(capture).n_frames == 7200  # 360 s at 20 Hz
    truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)
    assert truth.shape == (7200, 3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"


def assert_input_error(result):
    """Exit 2 with an "error:" line, not an uncaught exception's exit 1."""
    text = result.output + (result.stderr or "")
    assert result.exit_code == 2, text
    assert isinstance(result.exception, SystemExit)
    assert "error: " in text
    assert "Traceback" not in text


@pytest.mark.parametrize("duration", ["0", "inf", "nan"])
def test_simulate_zero_duration_is_input_error(runner, scene_json, tmp_path, duration):
    result = runner.invoke(
        main,
        ["simulate", str(scene_json), "--duration", duration, "--out", str(tmp_path / "x")],
    )
    assert_input_error(result)
    assert not (tmp_path / "x" / "capture.rvsc").exists()


@pytest.mark.parametrize("duration", ["0", "inf", "nan"])
def test_simulate_audio_bad_duration_is_input_error(runner, audio_json, tmp_path, duration):
    result = runner.invoke(
        main,
        ["simulate-audio", str(audio_json), "--duration", duration, "--out", str(tmp_path / "x")],
    )
    assert_input_error(result)
    assert not (tmp_path / "x" / "breath.wav").exists()


NAN = float("nan")
VALID_SCENE = breathing_scene().to_dict()


@pytest.mark.parametrize(
    "command, spec, config, written",
    [
        ("simulate", {**VALID_SCENE, "targets": [[{"base_range_m": NAN, "resp_rate_bpm": 15.0}, 1.0]]},
         None, "capture.rvsc"),
        ("simulate", VALID_SCENE, {"carrier_hz": NAN}, "capture.rvsc"),
        ("simulate-audio", {"resp_rate_bpm": NAN}, None, "breath.wav"),
        # 401 digits: an OverflowError once it met a float
        ("simulate", VALID_SCENE, {"samples_per_chirp": 10**400}, "capture.rvsc"),
    ],
    ids=["simulate-nan-range", "simulate-config-nan-carrier", "simulate-audio-nan-rate",
         "simulate-config-int-beyond-float"],
)
def test_non_finite_spec_or_config_value_is_input_error(tmp_path, command, spec, config, written):
    # a subprocess with a timeout: a NaN breath rate used to make synth_audio loop for ever
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")  # NaN is written as the literal NaN
    args = [command, str(spec_path), "--duration", "5", "--out", str(tmp_path / "x")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    out = subprocess.run([sys.executable, "-m", "respiradar.cli", *args],
                         env=dict(os.environ, PYTHONPATH=SRC_PATH), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:") and "must be finite" in out.stderr
    assert not (tmp_path / "x" / written).exists()


@pytest.mark.parametrize("command", ["simulate", "simulate-audio"])
def test_fractional_seed_is_input_error(runner, scene_json, audio_json, tmp_path, command):
    # a scene seed of 7.9 was simulated as seed 7, with exit 0
    path = scene_json if command == "simulate" else audio_json
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), "seed": 7.9}),
                    encoding="utf-8")
    result = runner.invoke(main, [command, str(path), "--duration", "5", "--out", str(tmp_path / "x")])
    assert_input_error(result)
    assert "seed must be a nonnegative integer" in result.output + (result.stderr or "")
    assert not any((tmp_path / "x").glob("*"))


def test_capture_with_nan_timestamps_is_input_error(runner, tmp_path):
    cube = ingest.RadarCube(config=RadarConfig(), frame_timestamps=np.arange(4) / 20.0,
                            data=np.zeros((4, 1, 256), ingest.IQ_COUNTS))
    capture = tmp_path / "capture.rvsc"
    ingest.write_capture(cube, capture)
    capture.write_bytes(capture.read_bytes()[: -4 * 8] + np.full(4, np.nan, "<f8").tobytes())
    result = runner.invoke(main, ["process-radar", str(capture), "--out", str(tmp_path / "o")])
    assert_input_error(result)
    assert "strictly increasing" in result.output + (result.stderr or "")


def test_simulate_same_seed_byte_identical(runner, scene_json, tmp_path):
    cap1 = simulate(runner, scene_json, tmp_path / "a", duration="30")
    cap2 = simulate(runner, scene_json, tmp_path / "b", duration="30")
    assert cap1.read_bytes() == cap2.read_bytes()


def test_simulate_bad_scene_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    result = runner.invoke(
        main, ["simulate", str(bad), "--duration", "10", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2


def test_process_radar_constant_15bpm(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim")
    out = tmp_path / "proc"
    result = runner.invoke(main, ["process-radar", str(capture), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rates = rate_series_from_csv(out / "rates.csv")
    assert np.all(np.abs(rates.rates_bpm - 15.0) <= 1.0)
    assert (out / "spectrogram.csv").exists()
    assert (out / "manifest.json").exists()


def test_process_radar_variants_agree(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert runner.invoke(main, ["process-radar", str(capture), "--out", str(out_a)]).exit_code == 0
    assert (
        runner.invoke(
            main, ["process-radar", str(capture), "--variant", "B", "--out", str(out_b)]
        ).exit_code
        == 0
    )
    rates_a = rate_series_from_csv(out_a / "rates.csv")
    rates_b = rate_series_from_csv(out_b / "rates.csv")
    assert np.all(np.abs(rates_a.rates_bpm - rates_b.rates_bpm) <= 1.0)


def test_process_radar_empty_scene_clean_error(runner, tmp_path):
    scene = tmp_path / "empty.json"
    scene.write_text(json.dumps({"targets": [], "seed": 0}), encoding="utf-8")
    capture = simulate(runner, scene, tmp_path / "sim", duration="90")
    result = runner.invoke(
        main, ["process-radar", str(capture), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 3
    assert "zero" in (result.output + (result.stderr or "")).lower()


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """A 61 s capture and a 61 s WAV: one window's worth of each."""
    runner = CliRunner()
    tmp = tmp_path_factory.mktemp("recordings")
    scene = tmp / "scene.json"
    scene.write_text(json.dumps(breathing_scene(seed=1).to_dict()), encoding="utf-8")
    capture = simulate(runner, scene, tmp / "sim", duration="61")
    spec = tmp / "audio.json"
    spec.write_text(json.dumps({"resp_rate_bpm": 15.0, "seed": 2}), encoding="utf-8")
    result = runner.invoke(main, ["simulate-audio", str(spec), "--duration", "61",
                                  "--out", str(tmp / "wav")])
    assert result.exit_code == 0, result.output
    return {"process-radar": capture, "process-audio": tmp / "wav" / "breath.wav"}


@pytest.mark.parametrize("command, flags", [
    ("process-radar", ("--window-s", "inf")),
    ("process-audio", ("--window-s", "inf")),
    ("process-radar", ("--band-high", "nan")),
    ("process-audio", ("--band-high", "nan")),
    ("process-radar", ("--band-low", "70", "--band-high", "60")),
    ("process-radar", ("--min-range-m", "0.9", "--max-range-m", "0.1")),
    ("process-radar", ("--min-range-m", "nan")),
], ids=["radar-window-inf", "audio-window-inf", "radar-band-nan",
        "audio-band-nan", "radar-band-reversed", "radar-range-reversed", "radar-range-nan"])
def test_process_bad_number_flags_are_input_errors(runner, recordings, tmp_path, command, flags):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, str(recordings[command]), *flags, "--out", str(out)])
    assert_input_error(result)
    assert not (out / "rates.csv").exists()


@pytest.mark.parametrize("command", ["process-radar", "process-audio"])
def test_process_window_off_the_sample_grid_is_input_error(runner, recordings, tmp_path, command):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, str(recordings[command]), "--window-s", "60.01",
                                  "--out", str(out)])
    assert_input_error(result)
    assert "error: window_s must span a whole number of samples" in result.output + (result.stderr or "")
    assert not out.exists()


def test_process_radar_checks_the_window_on_the_capture_header(runner, recordings, tmp_path,
                                                               monkeypatch):
    # the frame rate comes from the container's header: no sample is decoded
    def never_decoded(*args, **kwargs):
        raise AssertionError("the capture's samples were decoded")

    monkeypatch.setattr(ingest, "decode_cube", never_decoded)
    out = tmp_path / "out"
    result = runner.invoke(main, ["process-radar", str(recordings["process-radar"]),
                                  "--window-s", "60.01", "--out", str(out)])
    assert_input_error(result)
    assert "error: window_s must span a whole number of samples" in result.output + (result.stderr or "")
    assert not out.exists()


def test_process_audio_checks_the_window_before_reading_the_wav(runner, recordings, tmp_path,
                                                                 monkeypatch):
    # the STFT runs at the envelope's fixed 20 Hz: no sample of the WAV is needed
    def never_read(*args, **kwargs):
        raise AssertionError("the WAV was read")

    monkeypatch.setattr(audio_dsp, "load_wav", never_read)
    out = tmp_path / "out"
    result = runner.invoke(main, ["process-audio", str(recordings["process-audio"]),
                                  "--window-s", "60.01", "--out", str(out)])
    assert_input_error(result)
    assert "error: window_s must span a whole number of samples" in result.output + (result.stderr or "")
    assert not out.exists()


def test_process_radar_missing_capture(runner, tmp_path):
    result = runner.invoke(
        main, ["process-radar", str(tmp_path / "nope.rvsc"), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2


def test_process_radar_corrupt_capture_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.rvsc"
    bad.write_bytes(b"JUNKJUNKJUNK")
    result = runner.invoke(
        main, ["process-radar", str(bad), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2


def test_process_radar_header_cut_short_is_input_error(tmp_path):
    short = tmp_path / "short.rvsc"
    short.write_bytes(b"RVSC\x01")
    out = subprocess.run(
        [sys.executable, "-m", "respiradar.cli", "process-radar", str(short),
         "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=SRC_PATH), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_process_radar_short_capture_is_processing_error(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim", duration="30")
    result = runner.invoke(
        main, ["process-radar", str(capture), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 3  # 600 samples < one 60 s window


def test_process_radar_exports(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "process-radar", str(capture), "--out", str(out),
            "--export-range-map", "--export-phase",
        ],
    )
    assert result.exit_code == 0
    assert (out / "range_map.csv").exists()
    assert (out / "phase.csv").exists()


def test_process_audio_and_compare(runner, scene_json, audio_json, tmp_path):
    wav_out = tmp_path / "wav"
    result = runner.invoke(
        main,
        ["simulate-audio", str(audio_json), "--duration", "90", "--out", str(wav_out)],
    )
    assert result.exit_code == 0, result.output

    audio_proc = tmp_path / "aproc"
    result = runner.invoke(
        main, ["process-audio", str(wav_out / "breath.wav"), "--out", str(audio_proc)]
    )
    assert result.exit_code == 0, result.output
    rates = rate_series_from_csv(audio_proc / "rates.csv")
    assert np.median(rates.rates_bpm) == pytest.approx(15.0, abs=1.0)
    assert (audio_proc / "envelope.csv").exists()

    # identical files compare to zero error
    cmp_out = tmp_path / "cmp"
    result = runner.invoke(
        main,
        [
            "compare",
            str(audio_proc / "rates.csv"),
            str(audio_proc / "rates.csv"),
            "--out", str(cmp_out),
        ],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["mae_bpm"] == 0.0
    assert summary["within_2bpm_fraction"] == 1.0
    assert json.loads((cmp_out / "comparison.json").read_text())["mae_bpm"] == 0.0


def test_compare_radar_vs_doubled_audio(runner, scene_json, tmp_path):
    # both-sounds audio doubles the dominant rate, so radar and audio runs
    # disagree at every instant
    doubled = {
        "resp_rate_bpm": 15.0,
        "exhale_only": False,
        "burst_duration_s": 0.5,
        "noise_db": -40.0,
        "seed": 3,
    }
    audio_json = tmp_path / "doubled.json"
    audio_json.write_text(json.dumps(doubled), encoding="utf-8")

    capture = simulate(runner, scene_json, tmp_path / "sim")
    radar_out = tmp_path / "radar"
    assert runner.invoke(main, ["process-radar", str(capture), "--out", str(radar_out)]).exit_code == 0
    wav_out = tmp_path / "wav"
    assert (
        runner.invoke(
            main, ["simulate-audio", str(audio_json), "--duration", "90", "--out", str(wav_out)]
        ).exit_code
        == 0
    )
    audio_out = tmp_path / "audio"
    assert (
        runner.invoke(
            main, ["process-audio", str(wav_out / "breath.wav"), "--out", str(audio_out)]
        ).exit_code
        == 0
    )
    result = runner.invoke(
        main, ["compare", str(radar_out / "rates.csv"), str(audio_out / "rates.csv")]
    )
    assert result.exit_code == 0
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["within_2bpm_fraction"] <= 0.05
    assert summary["mae_bpm"] > 10.0


def test_compare_rejects_a_file_without_the_rate_header(runner, scene_json, tmp_path):
    # a truth CSV also has three columns; read as rates it compared as a
    # 15 bpm error with exit 0
    sim = tmp_path / "sim"
    simulate(runner, scene_json, sim)
    rates = tmp_path / "rates.csv"
    rate_series_to_csv(RateSeries(np.arange(3.0), np.full(3, 15.0), np.ones(3)), rates)
    result = runner.invoke(main, ["compare", str(rates), str(sim / "truth.csv")])
    assert_input_error(result)
    assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
        "error: rate CSV must start with the header time_s,rate_bpm,magnitude, "
        "got 'time_s,displacement_m,rate_bpm'"
    ]


def test_process_audio_rejects_bad_wav(runner, tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a wav at all")
    result = runner.invoke(
        main, ["process-audio", str(bad), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2


def test_rerun_reproduces_outputs_bit_identically(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim")
    out = tmp_path / "first"
    assert runner.invoke(main, ["process-radar", str(capture), "--out", str(out)]).exit_code == 0

    replay = tmp_path / "replay"
    result = runner.invoke(
        main, ["rerun", str(out / "manifest.json"), "--out", str(replay)]
    )
    assert result.exit_code == 0, result.output
    for name in ("rates.csv", "spectrogram.csv"):
        assert (replay / name).read_bytes() == (out / name).read_bytes()


def test_rerun_simulate_bit_identical(runner, scene_json, tmp_path):
    out = tmp_path / "sim"
    capture = simulate(runner, scene_json, out, duration="30")
    replay = tmp_path / "replay"
    result = runner.invoke(main, ["rerun", str(out / "manifest.json"), "--out", str(replay)])
    assert result.exit_code == 0, result.output
    assert (replay / "capture.rvsc").read_bytes() == capture.read_bytes()
    assert (replay / "truth.csv").read_bytes() == (out / "truth.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "simulate-audio"])
def test_rerun_of_a_simulation_needs_no_spec_file(runner, scene_json, audio_json, tmp_path, command):
    # the manifest embeds the scene or breath spec; a replay used to stop at
    # "manifest input 'scene' does not exist"
    spec = scene_json if command == "simulate" else audio_json
    out = tmp_path / "sim"
    assert runner.invoke(main, [command, str(spec), "--duration", "5", "--out", str(out)]).exit_code == 0
    spec.unlink()
    replay = tmp_path / "replay"
    result = runner.invoke(main, ["rerun", str(out / "manifest.json"), "--out", str(replay)])
    assert result.exit_code == 0, result.output
    names = sorted(path.name for path in out.iterdir())
    assert sorted(path.name for path in replay.iterdir()) == names
    for name in names:
        if name != "manifest.json":
            assert (replay / name).read_bytes() == (out / name).read_bytes(), name


def test_rerun_unreadable_capture_is_input_error(runner, scene_json, tmp_path):
    capture = simulate(runner, scene_json, tmp_path / "sim")
    out = tmp_path / "first"
    assert runner.invoke(main, ["process-radar", str(capture), "--out", str(out)]).exit_code == 0
    capture.write_bytes(b"JUNKJUNKJUNK")
    direct = runner.invoke(main, ["process-radar", str(capture), "--out", str(tmp_path / "d")])
    replay = runner.invoke(main, ["rerun", str(out / "manifest.json"), "--out", str(tmp_path / "r")])
    assert direct.exit_code == replay.exit_code == 2


def test_rerun_audio_and_compare_bit_identical(runner, audio_json, tmp_path):
    wav_out = tmp_path / "wav"
    args = ["simulate-audio", str(audio_json), "--duration", "70", "--out", str(wav_out)]
    assert runner.invoke(main, args).exit_code == 0
    audio = tmp_path / "audio"
    args = ["process-audio", str(wav_out / "breath.wav"), "--square", "--out", str(audio)]
    assert runner.invoke(main, args).exit_code == 0
    cmp_out = tmp_path / "cmp"
    rates = str(audio / "rates.csv")
    assert runner.invoke(main, ["compare", rates, rates, "--out", str(cmp_out)]).exit_code == 0
    for out, names in ((wav_out, ("breath.wav", "truth.csv")),
                       (audio, ("rates.csv", "envelope.csv", "spectrogram.csv")),
                       (cmp_out, ("comparison.json",))):
        replay = tmp_path / f"re-{out.name}"
        result = runner.invoke(main, ["rerun", str(out / "manifest.json"), "--out", str(replay)])
        assert result.exit_code == 0, result.output
        for name in names:
            assert (replay / name).read_bytes() == (out / name).read_bytes()
        recorded = json.loads((out / "manifest.json").read_text())
        replayed = json.loads((replay / "manifest.json").read_text())
        assert replayed == dict(recorded, output_dir=str(replay.resolve()))


def test_rerun_unknown_command_is_input_error(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "launch", "inputs": {}, "output_dir": "x"}))
    result = runner.invoke(main, ["rerun", str(manifest), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


@pytest.fixture(scope="module")
def manifests(recordings, tmp_path_factory):
    """The recorded manifests of a simulate, a simulate-audio, a process-radar
    and a process-audio run."""
    paths = {"simulate": recordings["process-radar"].parent,
             "simulate-audio": recordings["process-audio"].parent}
    for command in ("process-radar", "process-audio"):
        paths[command] = tmp_path_factory.mktemp(command)
        result = CliRunner().invoke(main, [command, str(recordings[command]), "--out", str(paths[command])])
        assert result.exit_code == 0, result.output
    return {command: json.loads((path / "manifest.json").read_text(encoding="utf-8"))
            for command, path in paths.items()}


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rerun_with(command, *keys):
    """Arguments that replay `command`'s manifest with the document at keys corrupted."""

    def args(tmp_path, manifests, corrupt):
        holder = {"manifest": json.loads(json.dumps(manifests[command]))}
        path = ("manifest", *keys)
        parent = functools.reduce(dict.__getitem__, path[:-1], holder)
        parent[path[-1]] = corrupt(parent[path[-1]])
        return ["rerun", _write_json(tmp_path / "manifest.json", holder["manifest"])]

    return args


JSON_DOCUMENTS = {
    "scene": lambda tmp_path, manifests, corrupt: [
        "simulate", _write_json(tmp_path / "scene.json", corrupt(VALID_SCENE)), "--duration", "5"],
    "config": lambda tmp_path, manifests, corrupt: [
        "simulate", _write_json(tmp_path / "scene.json", VALID_SCENE), "--duration", "5",
        "--config", _write_json(tmp_path / "config.json", corrupt({"frame_rate_hz": 20.0}))],
    "breath-spec": lambda tmp_path, manifests, corrupt: [
        "simulate-audio", _write_json(tmp_path / "breath.json", corrupt({"resp_rate_bpm": 15.0})),
        "--duration", "5"],
    "manifest": _rerun_with("process-radar"),
    "manifest-inputs": _rerun_with("process-radar", "inputs"),
    "manifest-options": _rerun_with("process-radar", "options"),
    "manifest-scene": _rerun_with("simulate", "options", "scene"),
    "manifest-spec": _rerun_with("simulate-audio", "options", "spec"),
    "manifest-stft": _rerun_with("process-radar", "stft"),
    "manifest-radar-config": _rerun_with("simulate", "radar_config"),
}

# corruption: (what it does to a document, what the error line says)
CORRUPTIONS = {
    "array": (lambda doc: [], "must be a JSON object"),
    "string": (lambda doc: json.dumps(doc), "must be a JSON object"),
    "unknown-field": (lambda doc: {**doc, "bogus": 1}, "error: unknown "),
    # drops the first name: only a manifest's inputs and options must hold every name
    "missing-field": (lambda doc: dict(list(doc.items())[1:]), "error: missing "),
}


@pytest.mark.parametrize("document, corruption", [
    *[(document, corruption) for document in JSON_DOCUMENTS for corruption in CORRUPTIONS
      if corruption != "missing-field"],
    ("manifest-inputs", "missing-field"),
    ("manifest-options", "missing-field"),
])
def test_json_document_that_is_not_an_object_of_known_fields_is_input_error(
        manifests, tmp_path, document, corruption):
    # a subprocess: a scene file or embedded scene holding an array, or a
    # manifest whose inputs were one, ended in an AttributeError and exit 1;
    # a manifest with an unknown option replayed with exit 0, and one without
    # its capture input or an option printed only the KeyError text
    corrupt, message = CORRUPTIONS[corruption]
    args = JSON_DOCUMENTS[document](tmp_path, manifests, corrupt)
    out = subprocess.run([sys.executable, "-m", "respiradar.cli", *args, "--out", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=SRC_PATH), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert message in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name, value, message", [
    ("process-radar", "radar_config", RadarConfig().to_dict(), "unknown process-radar manifest fields"),
    ("process-radar", "seed", 7, "unknown process-radar manifest fields"),
    ("simulate", "radar_config", None, "missing simulate manifest fields"),
], ids=["process-radar-radar_config", "process-radar-seed", "simulate-no-radar_config"])
def test_stray_or_missing_manifest_field_is_input_error(
        runner, manifests, tmp_path, command, name, value, message):
    # a process-radar manifest with a radar_config or a seed replayed with exit 0
    manifest = _write_json(tmp_path / "manifest.json", {**manifests[command], name: value})
    result = runner.invoke(main, ["rerun", manifest, "--out", str(tmp_path / "out")])
    assert_input_error(result)
    assert f"{message}: [{name!r}]" in result.output + (result.stderr or "")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "simulate-audio"])
def test_manifest_seed_other_than_its_spec_seed_is_input_error(runner, manifests, tmp_path, command):
    # the embedded scene or breath spec's seed used to win silently, with exit 0
    manifest = _write_json(tmp_path / "manifest.json", {**manifests[command], "seed": 99})
    result = runner.invoke(main, ["rerun", manifest, "--out", str(tmp_path / "out")])
    assert_input_error(result)
    assert "manifest seed 99 differs" in result.output + (result.stderr or "")
    assert not (tmp_path / "out").exists()


# values of another JSON type than each option's: a number option must not
# take true, nor a flag 1
WRONG_JSON_VALUES = {"a boolean": ["false", 1, None], "a number": [True, "0.1", None],
                     "a JSON object": [[], "{}", None]}


@pytest.mark.parametrize("command, name, value", [
    (command, name, value)
    for command, row in COMMANDS.items()
    for name, (json_type, _) in row.options.items()
    for value in WRONG_JSON_VALUES[json_type]
])
def test_manifest_option_of_the_wrong_json_type_is_input_error(runner, manifests, tmp_path,
                                                               command, name, value):
    # a process-radar manifest with "detrend": "false" replayed with exit 0 and
    # detrended rates: a runner tested the string for truth
    manifest = manifests[command]
    path = _write_json(tmp_path / "manifest.json",
                       {**manifest, "options": {**manifest["options"], name: value}})
    result = runner.invoke(main, ["rerun", path, "--out", str(tmp_path / "out")])
    assert_input_error(result)
    json_type = COMMANDS[command].options[name][0]
    assert (f"error: manifest option {name} must be {json_type}, got {type(value).__name__}\n"
            in result.output + (result.stderr or ""))
    assert not (tmp_path / "out").exists()


def test_number_option_takes_a_json_integer(runner, manifests, tmp_path):
    # json.load reads 61 as an int: the replay is the recorded float run
    manifest = manifests["simulate"]
    assert manifest["options"]["duration_s"] == 61.0
    path = _write_json(tmp_path / "manifest.json",
                       {**manifest, "options": {**manifest["options"], "duration_s": 61}})
    result = runner.invoke(main, ["rerun", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    recorded = (Path(manifest["output_dir"]) / "capture.rvsc").read_bytes()
    assert (tmp_path / "out" / "capture.rvsc").read_bytes() == recorded


def _without(doc, names):
    return {k: v for k, v in doc.items() if k not in names}


@pytest.mark.parametrize("document, names, message", [
    ("manifest", ["output_dir"], "missing manifest fields: ['output_dir']"),
    ("manifest", ["command", "inputs"], "missing manifest fields: ['command', 'inputs']"),
    ("motion", ["resp_rate_bpm"], "missing motion fields: ['resp_rate_bpm']"),
    ("motion", ["base_range_m"], "missing motion fields: ['base_range_m']"),
    ("breath-spec", ["resp_rate_bpm"], "missing breath audio fields: ['resp_rate_bpm']"),
])
def test_json_document_missing_a_field_without_default_names_it(runner, manifests, tmp_path,
                                                                 document, names, message):
    # these printed the TypeError of the dataclass's __init__, which names
    # only the positional arguments it lacks
    if document == "manifest":
        args = ["rerun", _write_json(tmp_path / "manifest.json", _without(manifests["process-radar"], names))]
    elif document == "motion":
        (motion, amplitude), = VALID_SCENE["targets"]
        scene = {**VALID_SCENE, "targets": [[_without(motion, names), amplitude]]}
        args = ["simulate", _write_json(tmp_path / "scene.json", scene), "--duration", "5"]
    else:
        spec = _without({"resp_rate_bpm": 15.0, "seed": 3}, names)
        args = ["simulate-audio", _write_json(tmp_path / "breath.json", spec), "--duration", "5"]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert_input_error(result)
    assert f"error: {message}\n" in result.output + (result.stderr or "")
    assert not (tmp_path / "out").exists()


def _with_motion(field, value):
    (motion, amplitude), = VALID_SCENE["targets"]
    return {**VALID_SCENE, "targets": [[{**motion, field: value}, amplitude]]}


# a document whose field has another JSON type or shape, and the one error line it gives
WRONG_FIELDS = {
    "scene-true-rate": (lambda tmp_path, manifests: [
        "simulate", _write_json(tmp_path / "scene.json", _with_motion("resp_rate_bpm", True)),
        "--duration", "5"], "resp_rate_bpm must be a number, got bool"),
    "scene-true-reflector": (lambda tmp_path, manifests: [
        "simulate", _write_json(tmp_path / "scene.json", {**VALID_SCENE, "static_reflectors": [[True, 0.5]]}),
        "--duration", "5"], "reflector_range_m must be a number, got bool"),
    "breath-exhale-only-0": (lambda tmp_path, manifests: [
        "simulate-audio", _write_json(tmp_path / "breath.json", {"resp_rate_bpm": 15.0, "exhale_only": 0}),
        "--duration", "5"], "exhale_only must be a boolean, got int"),
    "manifest-true-overlap": (lambda tmp_path, manifests: _rerun_with("process-radar", "stft", "overlap_s")(
        tmp_path, manifests, lambda _: True), "overlap_s must be a number, got bool"),
    "manifest-true-band": (lambda tmp_path, manifests: _rerun_with("process-radar", "band_bpm")(
        tmp_path, manifests, lambda _: [True, 60]), "band_bpm bound must be a number, got bool"),
    "manifest-three-bounds": (lambda tmp_path, manifests: _rerun_with("process-radar", "band_bpm")(
        tmp_path, manifests, lambda _: [6, 60, 90]), "band_bpm must hold two bounds [low, high], got 3"),
    "manifest-int-input": (lambda tmp_path, manifests: _rerun_with("process-radar", "inputs", "capture")(
        tmp_path, manifests, lambda _: 5), "manifest input capture must be a string, got int"),
}


@pytest.mark.parametrize("case", list(WRONG_FIELDS))
def test_field_of_another_json_type_is_input_error(runner, manifests, tmp_path, case):
    # each ran with exit 0 as another run (a 1 bpm diver, a reflector at 1 m,
    # both breath sounds, other STFT or band parameters), or printed a
    # TypeError or unpacking message that named no field
    build, message = WRONG_FIELDS[case]
    result = runner.invoke(main, [*build(tmp_path, manifests), "--out", str(tmp_path / "out")])
    assert_input_error(result)
    # click's output holds what was written to stderr
    assert result.output.endswith(f"error: {message}\n") and result.output.count("error:") == 1, result.output
    assert not (tmp_path / "out").exists()


# the errors whose inputs are valid but whose recording gives no reading: exit 3
PROCESSING_ERRORS = {"EmptyCubeError", "TooFewFramesError", "ZeroMagnitudeError", "AudioTooShortError",
                     "TraceTooShortError", "NoOverlapError"}


def test_every_error_class_says_whether_the_input_is_at_fault():
    # a new error class must be classified: an InputError (exit 2) or one of these
    from respiradar import errors

    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.RespiradarError)}
    assert issubclass(errors.InputError, ValueError)
    processing = {name for name, cls in classes.items() if not issubclass(cls, errors.InputError)}
    assert processing == PROCESSING_ERRORS | {"RespiradarError"}


def _simulate_scene(tmp_path, duration="5", **fields):
    return ["simulate", _write_json(tmp_path / "scene.json", {**VALID_SCENE, **fields}), "--duration", duration]


def _simulate_breath(tmp_path, duration="5", **fields):
    return ["simulate-audio", _write_json(tmp_path / "breath.json", {"resp_rate_bpm": 15.0, **fields}),
            "--duration", duration]


def _process(command, *flags):
    return lambda tmp_path, recordings: [command, str(recordings[command]), *flags]


def _inputs(command, make):
    """command on input files that make(path) leaves missing or makes directories."""
    names = {"process-radar": ["capture.rvsc"], "process-audio": ["breath.wav"], "compare": ["a.csv", "b.csv"]}

    def args(tmp_path, recordings):
        paths = [tmp_path / name for name in names[command]]
        for path in paths:
            make(path)
        return [command, *map(str, paths)]

    return args


# a flag, spec or file at fault, and its one error line: the band, range-window and
# short-duration cases exited 3 as processing errors, the malformed pairs printed an
# unpacking message or a TypeError, and the finite numbers whose arithmetic overflows
# ended in an OverflowError traceback with exit 1
INPUT_FAULTS = {
    "radar-band-above-nyquist": (_process("process-radar", "--band-low", "700", "--band-high", "800"),
                                 "band [700.0, 800.0] bpm misses the frequency axis"),
    "audio-band-above-nyquist": (_process("process-audio", "--band-low", "700", "--band-high", "800"),
                                 "band [700.0, 800.0] bpm misses the frequency axis"),
    "radar-range-window-empty": (_process("process-radar", "--min-range-m", "20", "--max-range-m", "30"),
                                 "no bin centre falls inside [20.0, 30.0] m"),
    "simulate-duration-0.01": (lambda tmp_path, _: _simulate_scene(tmp_path, "0.01"),
                               "duration covers no complete frame"),
    "simulate-duration-0": (lambda tmp_path, _: _simulate_scene(tmp_path, "0"), "duration covers no complete frame"),
    "simulate-duration-negative": (lambda tmp_path, _: _simulate_scene(tmp_path, "-1"),
                                   "duration covers no complete frame"),
    "simulate-audio-duration-2": (lambda tmp_path, _: _simulate_breath(tmp_path, "2"),
                                  "duration covers less than one breath period"),
    "simulate-audio-duration-negative": (lambda tmp_path, _: _simulate_breath(tmp_path, "-1"),
                                         "duration covers less than one breath period"),
    "scene-reflector-single": (lambda tmp_path, _: _simulate_scene(tmp_path, static_reflectors=[[3.0]]),
                               "each entry of static_reflectors must be a pair, got [3.0]"),
    "scene-reflector-triple": (lambda tmp_path, _: _simulate_scene(tmp_path, static_reflectors=[[3.0, 1.0, 2.0]]),
                               "each entry of static_reflectors must be a pair, got [3.0, 1.0, 2.0]"),
    "scene-target-number": (lambda tmp_path, _: _simulate_scene(tmp_path, targets=[5]),
                            "each entry of targets must be a pair, got 5"),
    "simulate-duration-1e308": (lambda tmp_path, _: _simulate_scene(tmp_path, "1e308"),
                                "duration_s 1e+308 s at 20.0 Hz gives no finite frame count"),
    "simulate-duration--1e308": (lambda tmp_path, _: _simulate_scene(tmp_path, "-1e308"),
                                 "duration_s -1e+308 s at 20.0 Hz gives no finite frame count"),
    "simulate-audio-duration-1e308": (lambda tmp_path, _: _simulate_breath(tmp_path, "1e308"),
                                      "duration_s 1e+308 s at 44100 Hz gives no finite sample count"),
    "radar-window-1e308": (_process("process-radar", "--window-s", "1e308"),
                           "window_s 1e+308 s at 20.0 Hz gives no finite sample count"),
    "audio-window-1e308": (_process("process-audio", "--window-s", "1e308"),
                           "window_s 1e+308 s at 20.0 Hz gives no finite sample count"),
    "scene-snr--4000": (lambda tmp_path, _: _simulate_scene(tmp_path, snr_db=-4000),
                        "snr_db -4000 below reflectivity 1.0 gives no finite noise power"),
    "scene-reflectivity-1e308": (
        lambda tmp_path, _: _simulate_scene(tmp_path, targets=[[VALID_SCENE["targets"][0][0], 1e308]]),
        "snr_db 30.0 below reflectivity 1e+308 gives no finite noise power"),
    "breath-noise-1e300": (lambda tmp_path, _: _simulate_breath(tmp_path, noise_db=1e300),
                           "noise_db 1e+300 over burst_amplitude 0.3 gives no finite noise level"),
    **{f"{command}-missing": (_inputs(command, lambda path: None), "[Errno 2] No such file or directory: ")
       for command in ("process-radar", "process-audio", "compare")},
    **{f"{command}-directory": (_inputs(command, Path.mkdir), "Is a directory: ")
       for command in ("process-radar", "process-audio", "compare")},
}


@pytest.mark.parametrize("case", list(INPUT_FAULTS))
def test_input_at_fault_exits_2_with_one_error_line(runner, recordings, tmp_path, case):
    build, message = INPUT_FAULTS[case]
    out = tmp_path / "out"
    result = runner.invoke(main, [*build(tmp_path, recordings), "--out", str(out)])
    assert_input_error(result)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], result.output
    assert not out.exists()


def test_a_bug_in_a_runner_is_no_input_error(runner, recordings, tmp_path, monkeypatch):
    # any TypeError counted as bad input, so a bug printed as one line with exit 2
    from respiradar import pipeline

    def bug(*args, **kwargs):
        raise TypeError("a bug in the radar chain")

    monkeypatch.setattr(pipeline, "process_radar_cube", bug)
    result = runner.invoke(main, ["process-radar", str(recordings["process-radar"]),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, TypeError) and str(result.exception) == "a bug in the radar chain"


def test_simulate_rejects_a_multi_channel_config_before_any_work(runner, tmp_path, monkeypatch):
    # rx_channels 2 synthesised the whole cube, then failed in the capture
    # writer and left an empty output directory behind
    from respiradar import simulate as simulate_module

    def never_synthesised(*args, **kwargs):
        raise AssertionError("the cube was synthesised")

    monkeypatch.setattr(simulate_module, "synth_cube", never_synthesised)
    result = runner.invoke(main, ["simulate", _write_json(tmp_path / "scene.json", VALID_SCENE),
                                  "--duration", "5", "--config",
                                  _write_json(tmp_path / "config.json", {"rx_channels": 2}),
                                  "--out", str(tmp_path / "out")])
    assert_input_error(result)
    assert "error: simulate writes one channel: rx_channels must be 1, got 2\n" in result.output + (
        result.stderr or "")
    assert not (tmp_path / "out").exists()


def test_config_with_integral_floats_simulates_the_default_capture(runner, tmp_path):
    # "rx_channels": 1.0 ended in a struct.error, "samples_per_chirp": 256.0 in
    # "'float' object cannot be interpreted as an integer"
    scene = _write_json(tmp_path / "scene.json", VALID_SCENE)
    config = _write_json(tmp_path / "config.json", {"samples_per_chirp": 256.0, "rx_channels": 1.0})
    default = simulate(runner, scene, tmp_path / "default", duration="5")
    floats = simulate(runner, scene, tmp_path / "floats", duration="5", extra=("--config", config))
    assert floats.read_bytes() == default.read_bytes()
    recorded = json.loads((tmp_path / "floats" / "manifest.json").read_text(encoding="utf-8"))
    assert recorded["radar_config"] == RadarConfig().to_dict()


def run_python(code, *, timeout):
    """Standard output of `code` run by a fresh interpreter on this checkout's sources."""
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC_PATH),
                         capture_output=True, text=True, check=True, timeout=timeout)
    return out.stdout


def test_import_loads_no_scipy(audio_json, tmp_path):
    # the import loads no scipy, and the audio commands run with scipy blocked
    wav = tmp_path / "wav" / "breath.wav"
    runs = [
        ["simulate-audio", str(audio_json), "--duration", "65", "--out", str(wav.parent)],
        ["process-audio", str(wav), "--out", str(tmp_path / "audio")],
        ["process-audio", str(wav), "--multistage", "--out", str(tmp_path / "multistage")],
    ]
    code = (
        "import sys, respiradar, respiradar.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        "codes = []\n"
        f"for args in {runs!r}:\n"
        "    try:\n"
        "        respiradar.cli.main(args)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes)\n"
    )
    lines = run_python(code, timeout=300).splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[0, 0, 0]"


def test_import_loads_no_thread_pool():
    # concurrent.futures costs every CLI start, --help included; spectral
    # imports it when it first maps batches
    code = "import sys, respiradar.cli\nprint(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    assert run_python(code, timeout=60).strip() == "[]"


def modules_loaded_by(runs):
    """[exit code, numpy and the respiradar DSP modules loaded so far] after
    each CLI run in `runs`, all in one fresh interpreter; the first two
    entries are the modules loaded by `import respiradar` and by
    `import respiradar.cli`."""
    code = (
        "import contextlib, io, json, sys\n"
        "HEAVY = ['numpy'] + ['respiradar.' + m for m in\n"
        "    ('spectral', 'ingest', 'radar_dsp', 'audio_dsp', 'simulate', 'pipeline')]\n"
        "def loaded():\n"
        "    return [m for m in HEAVY if m in sys.modules]\n"
        "import respiradar\n"
        "print(json.dumps(loaded()))\n"
        "import respiradar.cli\n"
        "print(json.dumps(loaded()))\n"
        f"for args in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            respiradar.cli.main(args)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(json.dumps([code, loaded()]))\n"
    )
    return [json.loads(line) for line in run_python(code, timeout=120).splitlines()]


def test_help_and_usage_errors_load_no_numpy_or_dsp_module(tmp_path):
    # --help and a flag error return before any runner, so they pay for
    # neither numpy nor the DSP modules; compare needs spectral alone
    rates = str(tmp_path / "rates.csv")
    with open(rates, "w", encoding="utf-8") as fh:
        fh.write("time_s,rate_bpm,magnitude\n0,15,1\n1,15,1\n")
    runs = [["--help"], ["process-radar", "--help"], ["compare"], ["compare", rates, rates]]
    assert modules_loaded_by(runs) == [
        [],  # import respiradar
        [],  # import respiradar.cli
        [0, []],  # --help
        [0, []],  # process-radar --help
        [2, []],  # compare without its arguments: a usage error
        [0, ["numpy", "respiradar.spectral"]],
    ]


@pytest.mark.parametrize("command, modules", [
    ("simulate", ["ingest", "simulate"]),
    ("simulate-audio", ["audio_dsp", "simulate"]),
    ("process-radar", ["ingest", "radar_dsp", "pipeline"]),
    ("process-audio", ["audio_dsp", "pipeline"]),
], ids=["simulate", "simulate-audio", "process-radar", "process-audio"])
def test_each_command_loads_only_the_modules_it_runs(recordings, scene_json, audio_json, tmp_path,
                                                     command, modules):
    # a radar run loads no audio_dsp, an audio run neither ingest nor radar_dsp
    inputs = {"simulate": [str(scene_json), "--duration", "5"],
              "simulate-audio": [str(audio_json), "--duration", "5"],
              "process-radar": [str(recordings["process-radar"])],
              "process-audio": [str(recordings["process-audio"])]}
    args = [command, *inputs[command], "--out", str(tmp_path / "out")]
    expected = ["numpy", "respiradar.spectral"] + [
        f"respiradar.{m}" for m in ("ingest", "radar_dsp", "audio_dsp", "simulate", "pipeline") if m in modules
    ]
    assert modules_loaded_by([args])[-1] == [0, expected]


def test_namespace_resolves_every_public_name_lazily():
    import importlib

    import respiradar

    for name in respiradar.__all__:
        home = importlib.import_module(f"respiradar.{respiradar._HOME[name]}")
        assert getattr(respiradar, name) is getattr(home, name), name
        assert name in dir(respiradar)
    star = {}
    exec("from respiradar import *", star)
    assert set(respiradar.__all__) <= set(star)
    assert all(star[name] is getattr(respiradar, name) for name in respiradar.__all__)
    assert not hasattr(respiradar, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        respiradar.no_such_name  # noqa: B018
    from respiradar import cli

    assert cli is sys.modules["respiradar.cli"]


def simulate_at_frame_rate(runner, tmp_path, frame_rate_hz):
    """The README scene, 360 s at the given frame rate."""
    readme_scene = breathing_scene(seed=7, static_reflectors=((3.0, 2.0),))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(readme_scene.to_dict()), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"frame_rate_hz": frame_rate_hz}), encoding="utf-8")
    return simulate(runner, scene, tmp_path / "sim", duration="360",
                    extra=("--config", str(config)))


@pytest.mark.parametrize("frame_rate_hz, flags, window_s", [
    (25.0, (), 60.0),
    (40.0, (), 60.0),
    # 2401 frames at 40 Hz, but no whole number of samples at 20 Hz
    (40.0, ("--window-s", "60.025", "--overlap-s", "59.975"), 60.025),
])
def test_process_radar_stft_runs_at_capture_frame_rate(runner, tmp_path, frame_rate_hz,
                                                       flags, window_s):
    capture = simulate_at_frame_rate(runner, tmp_path, frame_rate_hz)
    out = tmp_path / "proc"
    result = runner.invoke(main, ["process-radar", str(capture), *flags, "--out", str(out)])
    assert result.exit_code == 0, result.output
    rates = rate_series_from_csv(out / "rates.csv")
    assert np.mean(np.abs(rates.rates_bpm - 15.0) <= 1.0) >= 0.99
    assert rates.times_s[0] == pytest.approx(window_s / 2 - 0.5 / frame_rate_hz)


def test_process_radar_hop_under_one_frame_is_input_error(runner, tmp_path):
    # at 10 Hz the default 0.05 s hop rounds to zero frames
    capture = simulate_at_frame_rate(runner, tmp_path, 10.0)
    out = tmp_path / "proc"
    result = runner.invoke(main, ["process-radar", str(capture), "--out", str(out)])
    assert result.exit_code == 2
    assert "hop must be at least one sample" in result.output + (result.stderr or "")
    assert not (out / "rates.csv").exists()
