import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig.config import ConfigError, build_config, parse_config
from stereorig.geometry import CameraIntrinsics, horizontal_fov_deg
from stereorig.mechanics import ActuationCalibration, RigState
from stereorig.planner import (
    MAX_CAPTURES_PER_TURN,
    CapturePolicy,
    ScanState,
    ScanStateError,
    TargetDisparity,
    TargetRatio,
    baseline_setpoint,
    capture,
    format_shot_log,
    new_controller,
    rotation_schedule,
    run_scan,
    step,
    turn_pulses,
)
from stereorig.scene import RangeReading, load_scene

# 60 degree horizontal field of view
INTR = CameraIntrinsics(focal_px=128.0 * math.sqrt(3.0), image_width_px=256, image_height_px=192)
CAL = ActuationCalibration()
FINE_CAL = ActuationCalibration(rotation_deg_per_pulse=1.0)
POLICY = CapturePolicy(mode=TargetRatio(0.05))


def test_setpoint_target_ratio():
    got = baseline_setpoint(RangeReading(2000.0, 10.0), POLICY, INTR)
    assert got == pytest.approx(0.05 * 2000.0)


def test_setpoint_target_disparity():
    intr = CameraIntrinsics(focal_px=800.0, image_width_px=640, image_height_px=480)
    policy = CapturePolicy(mode=TargetDisparity(40.0))
    got = baseline_setpoint(RangeReading(2000.0, 10.0), policy, intr)
    assert got == pytest.approx(100.0)  # inverse of the parallax relation


def test_setpoint_clamps_to_limits():
    policy = CapturePolicy(mode=TargetRatio(0.5))
    got = baseline_setpoint(RangeReading(2000.0, 10.0), policy, INTR)
    assert got == 300.0


def test_setpoint_sentinel_holds():
    assert baseline_setpoint(RangeReading(None, 10.0), POLICY, INTR) is None


def test_schedule_60_30():
    inc = rotation_schedule(60.0, 0.3)
    assert len(inc) == 9
    assert inc[:8] == pytest.approx([42.0] * 8, rel=1e-9)
    assert inc[-1] == pytest.approx(24.0, abs=1e-9)
    assert sum(inc) == pytest.approx(360.0, abs=1e-9)


def test_schedule_exact_tiling():
    assert rotation_schedule(90.0, 0.0) == pytest.approx([90.0] * 4)


def test_schedule_dense_overlap():
    inc = rotation_schedule(60.0, 0.9)
    assert len(inc) == 60
    assert inc[0] == pytest.approx(6.0, rel=1e-9)


def test_schedule_domain_errors():
    with pytest.raises(ValueError):
        rotation_schedule(0.0, 0.3)
    with pytest.raises(ValueError):
        rotation_schedule(180.0, 0.3)
    with pytest.raises(ValueError):
        rotation_schedule(60.0, 1.0)


def test_schedule_capture_cap():
    assert len(rotation_schedule(360.0 / MAX_CAPTURES_PER_TURN, 0.0)) == MAX_CAPTURES_PER_TURN
    with pytest.raises(ValueError, match="captures per turn"):
        rotation_schedule(0.999 * 360.0 / MAX_CAPTURES_PER_TURN, 0.0)
    with pytest.raises(ValueError, match="captures per turn"):
        rotation_schedule(1e-300, 0.9)  # refused before the list is built
    default = CameraIntrinsics(focal_px=280.0, image_width_px=320, image_height_px=240)
    assert len(rotation_schedule(horizontal_fov_deg(default), 0.3)) == 9


def test_idle_step_performs_ranging():
    scene = load_scene("p 0 0 2000 0.8")
    controller = new_controller(POLICY, INTR)
    assert controller.state is ScanState.IDLE
    controller, rig, artifact = step(controller, RigState(), scene, CAL, INTR)
    assert controller.state is ScanState.ADJUST_BASELINE
    assert artifact is None
    assert controller.pending_range == pytest.approx(2000.0)


def test_capture_step_emits_pair_with_heading_metadata():
    scene = load_scene("p 0 0 2000 0.8")
    controller = new_controller(POLICY, INTR)
    rig = RigState()
    artifact = None
    while artifact is None:
        controller, rig, artifact = step(controller, rig, scene, CAL, INTR)
    assert artifact.heading_deg == rig.heading_deg
    assert artifact.baseline_mm == rig.baseline_mm
    assert controller.state is ScanState.ROTATE
    assert len(controller.shots) == 1


def test_stepping_done_controller_raises():
    scene = load_scene("p 0 0 2000 0.8")
    pairs, shots = run_scan(scene, POLICY, CAL, INTR)
    controller = new_controller(POLICY, INTR)
    rig = RigState()
    while controller.state is not ScanState.DONE:
        controller, rig, _ = step(controller, rig, scene, CAL, INTR)
    with pytest.raises(ScanStateError):
        step(controller, rig, scene, CAL, INTR)


def test_capture_holds_one_pair_at_a_time():
    scene = load_scene("room 4000 3000 2500 60 seed 5")
    previous = None
    shots = []
    for pair, shot in capture(scene, POLICY, CAL, INTR):
        gc.collect()
        # once the caller has dropped a pair, nothing holds it while the next one renders
        assert previous is None or previous() is None
        previous = weakref.ref(pair)
        shots.append(shot)
        del pair
    assert previous() is None
    assert shots == run_scan(scene, POLICY, CAL, INTR)[1]


def test_run_scan_capture_count_and_termination():
    scene = load_scene("p 0 0 2000 0.8")
    pairs, shots = run_scan(scene, POLICY, CAL, INTR)
    plan = turn_pulses(horizontal_fov_deg(INTR), POLICY.overlap_fraction, CAL)
    assert len(pairs) == len(plan) == 9
    assert len(shots) == 9


@settings(max_examples=300, deadline=None)
@given(
    focal_px=st.floats(20.0, 20000.0),
    width_px=st.integers(16, 2000),
    overlap=st.floats(0.0, 0.9),
    rate=st.floats(0.01, 60.0),
)
def test_turn_plan_keeps_overlap_in_whole_pulses(focal_px, width_px, overlap, rate):
    values = parse_config("")
    values.update({
        "intrinsics.focal_px": focal_px,
        "intrinsics.image_width_px": width_px,
        "policy.overlap_fraction": overlap,
        "calibration.rotation_deg_per_pulse": rate,
    })
    fov = horizontal_fov_deg(CameraIntrinsics(focal_px, width_px, 240))
    step_deg = fov * (1.0 - overlap)
    try:
        config = build_config(values)
    except ConfigError:
        # refused only for a step under one pulse or a turn over the capture cap
        assert step_deg < rate * (1.0 + 1e-6) or 360.0 / (
            math.floor(step_deg / rate + 1e-9) * rate
        ) > MAX_CAPTURES_PER_TURN - 1e-6
        return
    plan = turn_pulses(fov, overlap, config.calibration)
    assert len(plan) <= MAX_CAPTURES_PER_TURN
    assert all(isinstance(p, int) and p >= 1 for p in plan)
    # the fewest whole pulses that make a full turn
    total = sum(plan)
    assert total * rate >= 360.0 - 1e-6 and (total - 1) * rate < 360.0
    headings = [sum(plan[:i]) * rate for i in range(len(plan))] + [360.0]
    for a, b in zip(headings, headings[1:]):  # the last pair wraps around to heading 0
        assert 1.0 - (b - a) / fov >= overlap - 1e-9


@pytest.mark.parametrize("scale_error", [0.03, -0.03])
def test_turn_ends_by_pulse_count_not_true_rotation(scale_error):
    scene = load_scene("p 0 0 2000 0.8")
    cal = ActuationCalibration(systematic_scale_error=scale_error)
    plan = turn_pulses(horizontal_fov_deg(INTR), POLICY.overlap_fraction, cal)
    controller, rig, captures = new_controller(POLICY, INTR), RigState(), 0
    while controller.state is not ScanState.DONE:
        controller, rig, pair = step(controller, rig, scene, cal, INTR, with_error=True)
        captures += pair is not None
    assert captures == len(plan) == len(controller.shots) == 9
    # the rig turned by exactly the planned pulses, scaled by its actuation error
    actuated = sum(plan) * cal.rotation_deg_per_pulse * (1.0 + scale_error)
    assert rig.cumulative_rotation_deg == pytest.approx(actuated, abs=1e-9)
    pairs, shots = run_scan(scene, POLICY, cal, INTR, with_error=True)
    assert len(pairs) == len(shots) == len(plan)


def test_run_scan_headings_with_fine_pulses():
    # a 1 degree/pulse drive realises the ideal schedule headings exactly
    scene = load_scene("p 0 0 2000 0.8")
    pairs, shots = run_scan(scene, POLICY, FINE_CAL, INTR)
    headings = [s.heading_deg for s in shots]
    fov = horizontal_fov_deg(INTR)
    step_deg = fov * 0.7
    expected = [i * step_deg for i in range(9)]
    assert headings == pytest.approx(expected, abs=0.5)


def test_run_scan_quantized_headings_terminate_at_full_turn():
    scene = load_scene("p 0 0 2000 0.8")
    controller = new_controller(POLICY, INTR)
    rig = RigState()
    states = []
    while controller.state is not ScanState.DONE:
        controller, rig, _ = step(controller, rig, scene, CAL, INTR)
        states.append(controller.state)
    assert rig.cumulative_rotation_deg >= 360.0 - 1e-9
    assert rig.cumulative_rotation_deg < 360.0 + CAL.rotation_deg_per_pulse
    assert len(controller.shots) == 9


@pytest.mark.parametrize("initial, held", [(100.0, 100.0), (10.0, 30.0), (1000.0, 300.0)])
def test_run_scan_sentinel_ranges_hold_default_baseline(initial, held):
    # the only point sits beyond the sensor window: every reading is no-return,
    # so the rig holds its start baseline, clamped to the policy limits
    scene = load_scene("p 0 0 90000 0.5")
    pairs, shots = run_scan(scene, POLICY, CAL, INTR, initial_baseline_mm=initial)
    assert len(pairs) == 9
    assert all(s.range_mm is None for s in shots)
    assert all(s.baseline_mm == held for s in shots)
    assert all(s.setpoint_mm == held for s in shots)


def test_run_scan_deterministic():
    scene = load_scene("room 4000 3000 2500 60 seed 21")
    a_pairs, a_shots = run_scan(scene, POLICY, CAL, INTR)
    b_pairs, b_shots = run_scan(scene, POLICY, CAL, INTR)
    assert a_shots == b_shots
    for pa, pb in zip(a_pairs, b_pairs):
        assert np.array_equal(pa.left, pb.left)
        assert np.array_equal(pa.right, pb.right)
        assert np.array_equal(pa.truth_disparity, pb.truth_disparity, equal_nan=True)


def test_run_scan_baseline_tracks_setpoint_within_half_pulse():
    scene = load_scene("room 4000 3000 2500 120 seed 22")
    pairs, shots = run_scan(scene, POLICY, CAL, INTR)
    for s in shots:
        if not s.saturated:
            assert abs(s.baseline_mm - s.setpoint_mm) <= CAL.baseline_mm_per_pulse / 2.0


def test_run_scan_monotone_shot_headings():
    scene = load_scene("room 4000 3000 2500 60 seed 23")
    _, shots = run_scan(scene, POLICY, CAL, INTR)
    headings = [s.heading_deg for s in shots]
    assert all(b > a for a, b in zip(headings, headings[1:]))


def coverage_counts(headings, fov, grid_deg=0.25):
    azimuths = np.arange(0.0, 360.0, grid_deg)
    counts = np.zeros_like(azimuths)
    for h in headings:
        delta = np.abs((azimuths - h + 180.0) % 360.0 - 180.0)
        counts += delta <= fov / 2.0
    return azimuths, counts


def test_run_scan_coverage_and_overlap_bands():
    scene = load_scene("room 4000 3000 2500 60 seed 24")
    _, shots = run_scan(scene, POLICY, CAL, INTR)
    fov = horizontal_fov_deg(INTR)
    headings = [s.heading_deg for s in shots]
    azimuths, counts = coverage_counts(headings, fov)
    assert (counts >= 1).all()  # every azimuth is seen at least once
    # azimuths between consecutive fov edges are seen at least twice
    ring = headings + [headings[0] + 360.0]
    for h0, h1 in zip(ring, ring[1:]):
        lo, hi = h1 - fov / 2.0, h0 + fov / 2.0
        if lo >= hi:
            continue
        band = ((azimuths - lo) % 360.0) <= (hi - lo)
        assert (counts[band] >= 2).all()


def test_format_shot_log():
    from stereorig.planner import ShotRecord

    shots = [
        ShotRecord(0, 0.0, 100.0, 2000.0, 100.0, False),
        ShotRecord(1, 42.0, 112.5, None, 112.5, True),
    ]
    text = format_shot_log(shots)
    lines = text.splitlines()
    assert lines[0] == "shot 0 heading_deg 0 baseline_mm 100 range_mm 2000 setpoint_mm 100 saturated 0"
    assert lines[1] == "shot 1 heading_deg 42 baseline_mm 112.5 range_mm none setpoint_mm 112.5 saturated 1"


def test_policy_validation():
    with pytest.raises(ValueError):
        CapturePolicy(mode=TargetRatio(0.05), overlap_fraction=0.95)
    with pytest.raises(ValueError):
        TargetRatio(0.0)
    with pytest.raises(ValueError):
        TargetDisparity(-1.0)
