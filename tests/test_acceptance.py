"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold (run with ``pytest -s`` to see them).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from stereorig.cloud import PointCloud, accuracy_report
from stereorig.geometry import (
    CameraIntrinsics,
    depth_resolution_mm,
    depth_width_ratio,
    parallax_px,
    screen_intervals,
    triangulate_depth,
    CubeProbe,
)
from stereorig.mechanics import (
    ActuationCalibration,
    apply_command,
    pulses_for_baseline_delta,
    pulses_for_rotation,
    RigState,
    Axis,
    Direction,
    PwmCommand,
)
from stereorig.planner import CapturePolicy, TargetRatio, baseline_setpoint, rotation_schedule, run_scan
from stereorig.scene import RangeReading, RigPose, load_scene, range_reading, render_stereo_pair
from stereorig.vision import compensation_shift, match_correlation, pixel_to_world

# 60 degree horizontal field of view at 256 px width
INTR = CameraIntrinsics(focal_px=128.0 * math.sqrt(3.0), image_width_px=256, image_height_px=192)
CAL = ActuationCalibration()
POLICY = CapturePolicy(mode=TargetRatio(0.05), overlap_fraction=0.3)
ROOM = "room 4000 3000 2500 300 seed 42\n"

CONFIG_TEXT = f"""
scene = room.scene
intrinsics.focal_px = {128.0 * math.sqrt(3.0)!r}
intrinsics.image_width_px = 256
intrinsics.image_height_px = 192
policy.mode = ratio
policy.target = 0.05
policy.overlap_fraction = 0.3
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stereorig", *args], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def scan_out(tmp_path_factory):
    """One full CLI scan reused by the later criteria."""
    root = tmp_path_factory.mktemp("acceptance")
    (root / "run.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
    (root / "room.scene").write_text(ROOM, encoding="utf-8")
    out = root / "out"
    proc = run_cli("scan", "--config", str(root / "run.cfg"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return root, out


def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(1)
    z = rng.uniform(200.0, 50000.0, size=10_000)
    a = rng.uniform(10.0, 500.0, size=10_000)
    for zi, ai in zip(z, a):
        back = triangulate_depth(parallax_px(zi, ai, INTR), ai, INTR)
        assert abs(back - zi) <= 1e-9 * zi
    print("ACCEPTANCE 1 geometry-round-trip: PASS")


def test_criterion_2_ratio_formula_and_convergence():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a = rng.uniform(10.0, 500.0)
        z = rng.uniform(200.0, 50000.0)
        assert depth_width_ratio(a, z) == a / z
    z, a = 2000.0, 100.0
    target = a / z
    errors = []
    for frac in (0.05, 0.01, 0.002):
        rep = screen_intervals(CubeProbe(frac * z, z), a, INTR)
        errors.append(abs(rep.ratio - target))
    assert errors[0] > errors[1] > errors[2]
    print("ACCEPTANCE 2 ratio-formula-and-convergence: PASS")


def test_criterion_3_calibration_constants():
    cal = ActuationCalibration()
    assert cal.pwm_freq_hz == 1333.0
    assert cal.pwm_duty == 0.33
    assert cal.baseline_mm_per_pulse == 5.0
    assert cal.rotation_deg_per_pulse == 5.0
    from stereorig.mechanics import pwm_timing

    cmd = PwmCommand(Axis.ROTATION, Direction.CW, 4, cal.pwm_freq_hz, cal.pwm_duty)
    duration, _ = pwm_timing(cmd)
    assert abs(duration - 4.0 / 1333.0) <= 1e-6 * (4.0 / 1333.0)
    assert f"{duration * 1e3:.4f}" == "3.0008"  # the quoted millisecond figure
    print("ACCEPTANCE 3 calibration-constants: PASS")


def test_criterion_4_quantization_bound_and_replan():
    rng = np.random.default_rng(4)
    for delta in rng.uniform(-400.0, 400.0, size=10_000):
        cmd, res = pulses_for_baseline_delta(delta, CAL)
        assert abs(res) <= CAL.baseline_mm_per_pulse / 2.0
        again, _ = pulses_for_baseline_delta(res, CAL)
        assert again.pulse_count == 0
    for delta in rng.uniform(1e-6, 360.0, size=10_000):
        cmd, res = pulses_for_rotation(delta, CAL)
        assert abs(res) <= CAL.rotation_deg_per_pulse / 2.0
        if abs(res) > 0.0:
            again, _ = pulses_for_baseline_delta(
                res, ActuationCalibration(baseline_mm_per_pulse=CAL.rotation_deg_per_pulse)
            )
            assert again.pulse_count == 0
    print("ACCEPTANCE 4 quantization-bound: PASS")


def test_criterion_5_error_model_recovery(tmp_path):
    cal = ActuationCalibration(systematic_scale_error=0.03)
    rows = []
    for pulses in (5, 10, 20, 40):
        cmd = PwmCommand(Axis.BASELINE, Direction.OPEN, pulses, cal.pwm_freq_hz, cal.pwm_duty)
        start = RigState(baseline_mm=30.0, baseline_max_mm=330.0)
        moved = apply_command(start, cmd, cal, with_error=True)
        rows.append((pulses * cal.baseline_mm_per_pulse, moved.baseline_mm - start.baseline_mm))
    data = tmp_path / "pairs.txt"
    data.write_text("".join(f"{c} {m}\n" for c, m in rows), encoding="utf-8")
    proc = run_cli("calibrate", "--data", str(data))
    assert proc.returncode == 0, proc.stderr
    scale = float(dict(l.split() for l in proc.stdout.splitlines())["scale"])
    assert abs(scale - 1.03) <= 1e-3
    print("ACCEPTANCE 5 error-model-recovery: PASS")


def test_criterion_6_schedule_oracle():
    increments = rotation_schedule(60.0, 0.3)
    assert len(increments) == 9
    assert increments[-1] == pytest.approx(24.0, abs=1e-9)
    scene = load_scene("p 0 0 2000 0.8")
    pairs, shots = run_scan(scene, POLICY, CAL, INTR)
    assert len(pairs) == 9
    total = 0.0
    # replay the rig to confirm the turn completed
    controller_pairs, controller_shots = run_scan(scene, POLICY, CAL, INTR)
    assert len(controller_shots) == 9
    from stereorig.planner import new_controller, step, ScanState

    controller = new_controller(POLICY, INTR)
    rig = RigState()
    while controller.state is not ScanState.DONE:
        controller, rig, _ = step(controller, rig, scene, CAL, INTR)
    assert rig.cumulative_rotation_deg >= 360.0 - 1e-9
    print("ACCEPTANCE 6 schedule-oracle: PASS")


def window_std_oracle(img: np.ndarray, window: int) -> np.ndarray:
    """Independent texture oracle via stride tricks (interior pixels only)."""
    view = np.lib.stride_tricks.sliding_window_view(img, (window, window))
    std = view.reshape(view.shape[0], view.shape[1], -1).std(axis=2)
    half = window // 2
    out = np.zeros_like(img)
    out[half : half + std.shape[0], half : half + std.shape[1]] = std
    return out


def one_scan_cycle(scene):
    """Range -> set baseline -> capture, as the controller would at heading 0."""
    reading = range_reading(scene, RigPose(0.0), 20.0)
    setpoint = baseline_setpoint(reading, POLICY, INTR)
    rig = RigState(baseline_mm=100.0)
    cmd, _ = pulses_for_baseline_delta(setpoint - rig.baseline_mm, CAL)
    rig = apply_command(rig, cmd, CAL)
    pair = render_stereo_pair(scene, RigPose(0.0), rig.baseline_mm, INTR, blob_radius_px=2.0)
    shift = compensation_shift(reading, rig.baseline_mm, INTR)
    return pair, shift


def test_criterion_7_matching_oracle():
    scene = load_scene(ROOM)
    pair, shift = one_scan_cycle(scene)
    disp = match_correlation(pair.left, pair.right, shift_px=shift, window_px=7, search_range_px=8)

    covered = np.isfinite(pair.truth_disparity)
    textured = covered & (window_std_oracle(pair.left, 7) >= 0.02)
    matched = np.isfinite(disp.disparity)
    good = matched & textured & (np.abs(disp.disparity - pair.truth_disparity) <= 1.0)
    assert textured.sum() > 0
    assert good.sum() >= 0.85 * textured.sum()

    truth_depth = INTR.focal_px * pair.baseline_mm / pair.truth_disparity
    got_depth = np.full(truth_depth.shape, np.nan)
    ok = matched & (disp.disparity > 0)
    got_depth[ok] = INTR.focal_px * pair.baseline_mm / disp.disparity[ok]
    both = ok & covered
    budget = 2.0 * truth_depth[both] ** 2 / (INTR.focal_px * pair.baseline_mm)
    err = np.abs(got_depth[both] - truth_depth[both])
    assert (err < budget).mean() >= 0.8
    print("ACCEPTANCE 7 matching-oracle: PASS")


def test_criterion_8_end_to_end_reconstruction(scan_out):
    root, out = scan_out
    report = dict(line.split() for line in (out / "report.txt").read_text().splitlines())
    radius = float(report["match_radius_mm"])  # 3 x depth resolution at the median depth
    resolution = radius / 3.0
    assert float(report["recall"]) >= 0.6
    assert float(report["median_error_mm"]) <= 1.5 * resolution

    # geometry isolation: bypass the matcher with exact projections carrying
    # the renderer's noiseless truth disparities
    scene = load_scene(ROOM)
    pairs, shots = run_scan(scene, POLICY, CAL, INTR)
    fragments = []
    visible_any = np.zeros(len(scene), dtype=bool)
    for pair in pairs:
        h = math.radians(pair.heading_deg)
        boresight = np.array([math.sin(h), 0.0, math.cos(h)])
        lateral_axis = np.array([math.cos(h), 0.0, -math.sin(h)])
        vis = pair.visible_mask
        visible_any |= vis
        pts = scene.xyz[vis]
        depth = pts @ boresight
        u = INTR.cx + INTR.focal_px * (pts @ lateral_axis) / depth
        v = INTR.cy + INTR.focal_px * (-pts[:, 1]) / depth
        truth_disp = INTR.focal_px * pair.baseline_mm / depth
        z_back = INTR.focal_px * pair.baseline_mm / truth_disp
        xyz = pixel_to_world(u, v, z_back, INTR, pair.heading_deg)
        fragments.append(PointCloud(xyz, np.ones(len(pts))))
    from stereorig.cloud import merge

    bypass_cloud = merge(fragments)
    rep = accuracy_report(bypass_cloud, scene, match_radius_mm=radius, visible_mask=visible_any)
    assert rep.recall >= 0.99
    assert rep.rmse_mm <= 1e-3
    print("ACCEPTANCE 8 end-to-end-reconstruction: PASS")


def test_criterion_9_determinism(scan_out):
    root, out = scan_out
    second = root / "out2"
    proc = run_cli("scan", "--config", str(root / "run.cfg"), "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    assert (out / "cloud.ply").read_bytes() == (second / "cloud.ply").read_bytes()
    assert (out / "shots.log").read_bytes() == (second / "shots.log").read_bytes()
    print("ACCEPTANCE 9 determinism: PASS")
