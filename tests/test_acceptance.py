"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside pytest's own status.
"""

import dataclasses
import time

import numpy as np

from conftest import breathing_scene, sine_amplitude, static_scene
from respiradar import (
    BreathAudioSpec,
    MotionSpec,
    SceneSpec,
    chest_displacement,
    datagram_stream,
    decode_cube,
    encode_cube,
    parse_datagram,
    process_audio,
    process_radar_cube,
    range_fft,
    reassemble,
    select_target_bin,
    static_profile,
    synth_audio,
    synth_cube,
)
from respiradar.errors import DatagramTooShortError, PayloadTooLargeError
from respiradar.ingest import stream_to_datagrams
from respiradar.radar_dsp import detrend_linear, extract_unwrapped_phase
from respiradar.spectral import StftParams, stft


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_end_to_end_radar_recovery(config):
    started = time.perf_counter()
    scene = breathing_scene(
        range_m=0.5, rate_bpm=15.0, amplitude_m=0.001, snr_db=30.0, seed=101
    )
    cube = synth_cube(scene, config, 360.0)
    result = process_radar_cube(cube, variant="A")
    elapsed = time.perf_counter() - started

    within = np.mean(np.abs(result.rates.rates_bpm - 15.0) <= 1.0)
    assert result.rates.rates_bpm.size == 6001
    assert within >= 0.99
    assert elapsed < 30.0
    report(
        1,
        f"rate within +-1 bpm at {within:.1%} of {result.rates.rates_bpm.size} "
        f"instants in {elapsed:.1f} s",
    )


def test_criterion_2_stft_parameter_fidelity():
    params = StftParams()
    assert params.samples(20.0) == (1200, 1)
    assert params.window_shape == "blackman"
    # the axis stft builds on a 20 Hz trace is integer bpm with unit spacing
    freqs = stft(np.zeros(1200), 20.0, params).freq_axis_bpm
    assert freqs[0] == 0.0 and freqs[-1] == 600.0
    assert np.allclose(np.diff(freqs), 1.0)
    report(2, "default window is 1200 samples, hop 1 sample, bins exactly 1 bpm")


def test_criterion_3_phase_physics(config):
    worst = 0.0
    for amplitude_m in (0.0005, 0.001, 0.002):
        scene = breathing_scene(amplitude_m=amplitude_m, snr_db=30.0, seed=103)
        cube = synth_cube(scene, config, 120.0)
        rmap = range_fft(cube)
        trace = extract_unwrapped_phase(rmap.bin_series(select_target_bin(rmap)), 20.0)
        recovered = detrend_linear(trace.samples)

        oracle_amp = 4 * np.pi * amplitude_m / config.wavelength_m
        oracle = detrend_linear(
            4 * np.pi * chest_displacement(scene.targets[0][0], cube.frame_timestamps)
            / config.wavelength_m
        )
        rel_rms = np.sqrt(np.mean((recovered - oracle) ** 2)) / np.sqrt(np.mean(oracle**2))
        amp_err = abs(sine_amplitude(recovered) / oracle_amp - 1.0)
        assert rel_rms < 0.02
        assert amp_err < 0.02
        worst = max(worst, rel_rms)
    report(3, f"phase matches 4*pi*A/lambda, worst relative RMS {worst:.2%} (< 2%)")


def test_criterion_4_bin_selection_window(config):
    spacing = config.range_bin_spacing_m
    checked = 0
    for range_m in np.arange(0.15, 0.7501, 0.05):
        motion = MotionSpec(
            base_range_m=float(range_m), resp_rate_bpm=15.0, resp_amplitude_m=0.0005
        )
        scene = SceneSpec(
            targets=((motion, 1.0),),
            static_reflectors=((3.0, 5.0),),  # stronger, outside the window
            snr_db=30.0,
            seed=104,
        )
        cube = synth_cube(scene, config, 5.0)
        selected = select_target_bin(range_fft(cube))
        assert abs(selected * spacing - range_m) <= spacing / 2
        assert abs(selected * spacing - 3.0) > 1.0
        checked += 1
    report(4, f"{checked} ranges in 0.15-0.75 m selected within half a bin; 3 m never steals")


def test_criterion_5_audio_doubling_vs_radar(config):
    audio_spec = BreathAudioSpec(
        resp_rate_bpm=15.0, exhale_only=False, burst_duration_s=0.5,
        noise_db=-40.0, seed=105,
    )
    audio_result = process_audio(synth_audio(audio_spec, 240.0))
    audio_within = np.mean(np.abs(audio_result.rates.rates_bpm - 30.0) <= 1.0)

    radar_scene = breathing_scene(rate_bpm=15.0, snr_db=30.0, seed=105)
    radar_result = process_radar_cube(synth_cube(radar_scene, config, 240.0))
    radar_within = np.mean(np.abs(radar_result.rates.rates_bpm - 15.0) <= 1.0)

    assert audio_within >= 0.95
    assert radar_within >= 0.99
    report(
        5,
        f"both-sounds audio reads 30 bpm ({audio_within:.1%}), "
        f"radar reads the true 15 bpm ({radar_within:.1%})",
    )


def test_criterion_6_radar_more_consistent_than_noisy_audio(config):
    audio_spec = BreathAudioSpec(
        resp_rate_bpm=15.0, exhale_only=True, burst_duration_s=0.5,
        noise_db=-10.0, seed=106,
    )
    audio_rates = process_audio(synth_audio(audio_spec, 240.0)).rates.rates_bpm

    radar_scene = breathing_scene(rate_bpm=15.0, snr_db=30.0, seed=106)
    radar_rates = process_radar_cube(synth_cube(radar_scene, config, 240.0)).rates.rates_bpm

    assert radar_rates.std() < audio_rates.std()
    report(
        6,
        f"radar rate std {radar_rates.std():.3f} bpm < audio rate std "
        f"{audio_rates.std():.3f} bpm",
    )


def test_criterion_7_ingest_robustness(config):
    rng = np.random.default_rng(107)

    # 10^4-datagram fuzz: parsing is total
    for _ in range(10_000):
        buf = rng.bytes(int(rng.integers(0, 1600)))
        try:
            parse_datagram(buf)
        except (DatagramTooShortError, PayloadTooLargeError):
            pass

    # 1% random loss over a 10^4-datagram stream: exact accounting
    source = rng.bytes(9_999 * 1456 + 700)
    datagrams = stream_to_datagrams(source)
    assert len(datagrams) == 10_000
    drop = set(rng.choice(np.arange(1, len(datagrams) - 1), size=100, replace=False).tolist())
    kept = [d for d in datagrams if d.seq not in drop]
    kept = [kept[i] for i in rng.permutation(len(kept))]
    stream, loss = reassemble(kept)
    assert len(stream) == len(source)
    assert loss.expected_datagrams == 10_000
    assert loss.received == 9_900
    assert sum(n for _, n in loss.gaps) == 100
    assert loss.zero_filled_bytes == 100 * 1456
    expected = bytearray(source)
    for d in datagrams:
        if d.seq in drop:
            expected[d.byte_count : d.byte_count + len(d.payload)] = bytes(len(d.payload))
    assert stream == bytes(expected)

    # loss-free permutation and cube round trips are bit-identical
    perm = [datagrams[i] for i in rng.permutation(len(datagrams))]
    stream2, loss2 = reassemble(perm)
    assert stream2 == source and loss2.gaps == ()

    cube = synth_cube(breathing_scene(seed=107), config, 5.0)
    wire = encode_cube(cube)
    rebuilt, _ = reassemble(datagram_stream(cube))
    assert rebuilt == wire
    assert decode_cube(rebuilt, config).data.tobytes() == cube.data.tobytes()
    report(7, "10k-datagram fuzz clean; 1% loss accounted exactly; round trips bit-identical")


def test_criterion_8_empty_chamber_static_profile(config):
    ranges = (0.5, 1.2, 2.0, 3.0, 4.5)
    scene = static_scene([(r, 1.0) for r in ranges], snr_db=20.0, seed=108)
    cube = synth_cube(scene, config, 60.0)
    profile = static_profile(range_fft(cube))
    covs = []
    for r in ranges:
        k = int(round(r / config.range_bin_spacing_m))
        covs.append(profile.cov[k])
        assert profile.cov[k] < 0.15
    report(8, f"all {len(ranges)} reflector bins stationary, max cov {max(covs):.3f} (< 0.15)")


def test_criterion_9_both_variants_read_the_rate_at_every_chest_amplitude(config):
    # from about 0.8 mm (beta = 4 pi A / lambda near 2.6 rad) the 2f line of the
    # complex return outgrows the f line: variant B must read the comb, not its peak
    started = time.perf_counter()
    worst = {"A": 1.0, "B": 1.0}
    cases = [(rate_bpm, amplitude_mm, seed, config) for rate_bpm in (15.0, 30.0)
             for amplitude_mm in (0.3, 0.5, 1.0, 1.2, 2.0, 3.0, 5.0) for seed in (901, 902)]
    # four chirps a frame: the range FFT sums each frame's chirps before the bin is read
    cases.append((15.0, 1.0, 901, dataclasses.replace(config, chirps_per_frame=4)))
    for rate_bpm, amplitude_mm, seed, radar_config in cases:
        scene = breathing_scene(rate_bpm=rate_bpm, amplitude_m=amplitude_mm * 1e-3, snr_db=30.0,
                                seed=seed, static_reflectors=((3.0, 2.0),))
        cube = synth_cube(scene, radar_config, 120.0)
        for variant in worst:
            rates = process_radar_cube(cube, variant=variant).rates.rates_bpm
            within = np.mean(np.abs(rates - rate_bpm) <= 1.0)
            assert within >= 0.99, (variant, rate_bpm, amplitude_mm, seed, radar_config.chirps_per_frame,
                                    np.median(rates))
            worst[variant] = min(worst[variant], within)
    report(
        9,
        f"A and B within +-1 bpm at >= {min(worst.values()):.1%} of instants over 0.3-5 mm, "
        f"15 and 30 bpm, two seeds, and on a 4-chirp frame, in {time.perf_counter() - started:.1f} s",
    )
