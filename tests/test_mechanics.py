import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stereorig.mechanics import (
    ActuationCalibration,
    Axis,
    CalibrationError,
    Direction,
    PwmCommand,
    RigState,
    apply_command,
    calibrate_scale,
    pulses_for_baseline_delta,
    pulses_for_rotation,
    pwm_timing,
)

CAL = ActuationCalibration()


def quantize_oracle(delta: Fraction, rate: Fraction) -> tuple[int, Fraction]:
    """Integer-arithmetic oracle for round-to-nearest, ties away from zero."""
    q = abs(delta) / rate
    count = math.floor(q + Fraction(1, 2))
    sign = 1 if delta > 0 else -1
    return count, delta - sign * count * rate


def test_baseline_plan_plus_23mm():
    count, residual = quantize_oracle(Fraction(23), Fraction(5))
    assert (count, residual) == (5, -2)
    cmd, res = pulses_for_baseline_delta(23.0, CAL)
    assert cmd.pulse_count == 5
    assert cmd.direction is Direction.OPEN
    assert res == pytest.approx(-2.0, abs=1e-12)


def test_baseline_plan_zero():
    cmd, res = pulses_for_baseline_delta(0.0, CAL)
    assert cmd.pulse_count == 0
    assert res == 0.0


def test_baseline_plan_tie_away_from_zero():
    count, residual = quantize_oracle(Fraction(-25, 2), Fraction(5))
    assert (count, residual) == (3, Fraction(5, 2))
    cmd, res = pulses_for_baseline_delta(-12.5, CAL)
    assert cmd.pulse_count == 3
    assert cmd.direction is Direction.CLOSE
    assert res == pytest.approx(2.5, abs=1e-12)


def test_baseline_plan_copies_pwm_settings():
    cmd, _ = pulses_for_baseline_delta(10.0, CAL)
    assert cmd.freq_hz == CAL.pwm_freq_hz
    assert cmd.duty == CAL.pwm_duty
    assert cmd.axis is Axis.BASELINE


def test_rotation_plan_42_degrees():
    cmd, res = pulses_for_rotation(42.0, CAL)
    assert cmd.pulse_count == 8
    assert res == pytest.approx(2.0, abs=1e-12)


def test_rotation_plan_single_pulse():
    cmd, res = pulses_for_rotation(5.0, CAL)
    assert cmd.pulse_count == 1
    assert res == pytest.approx(0.0, abs=1e-12)


def test_rotation_plan_tie():
    cmd, res = pulses_for_rotation(2.5, CAL)
    assert cmd.pulse_count == 1
    assert res == pytest.approx(-2.5, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, 361.0, float("nan")])
def test_rotation_plan_domain(bad):
    with pytest.raises(ValueError):
        pulses_for_rotation(bad, CAL)


def test_pwm_timing_four_pulses():
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, 4, 1333.0, 0.33)
    duration, on_time = pwm_timing(cmd)
    assert duration == pytest.approx(4.0 / 1333.0, rel=1e-12)
    assert on_time == pytest.approx(0.33 * 4.0 / 1333.0, rel=1e-12)
    # the measured figures round to these displayed values
    assert f"{duration:.5g}" == "0.0030008"
    assert f"{on_time:.5g}" == "0.00099025"


def test_pwm_timing_zero_pulses():
    cmd = PwmCommand(Axis.BASELINE, Direction.OPEN, 0, 1333.0, 0.33)
    assert pwm_timing(cmd) == (0.0, 0.0)


def test_pwm_timing_frequency_definition():
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, 1333, 1333.0, 0.33)
    duration, _ = pwm_timing(cmd)
    assert duration == pytest.approx(1.0, rel=1e-12)


def test_apply_open_without_error():
    state = RigState(baseline_mm=100.0)
    cmd, _ = pulses_for_baseline_delta(25.0, CAL)
    out = apply_command(state, cmd, CAL)
    assert out.baseline_mm == pytest.approx(125.0, rel=1e-12)
    assert not out.saturated
    assert state.baseline_mm == 100.0  # input untouched


def test_apply_open_with_error():
    state = RigState(baseline_mm=100.0)
    cmd, _ = pulses_for_baseline_delta(25.0, CAL)
    out = apply_command(state, cmd, CAL, with_error=True)
    assert out.baseline_mm == pytest.approx(125.75, rel=1e-12)


def test_apply_saturates_at_limit():
    state = RigState(baseline_mm=295.0)
    cmd = PwmCommand(Axis.BASELINE, Direction.OPEN, 3, CAL.pwm_freq_hz, CAL.pwm_duty)
    out = apply_command(state, cmd, CAL)
    assert out.baseline_mm == 300.0
    assert out.saturated


def test_apply_rotation_tracks_cumulative_and_heading():
    state = RigState()
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, 80, CAL.pwm_freq_hz, CAL.pwm_duty)
    out = apply_command(state, cmd, CAL)
    assert out.cumulative_rotation_deg == pytest.approx(400.0)
    assert out.heading_deg == pytest.approx(40.0)


def test_calibrate_scale_noiseless_three_percent():
    est = calibrate_scale([25.0, 50.0, 100.0], [25.75, 51.5, 103.0])
    assert est == pytest.approx(1.03, rel=1e-12)


def test_calibrate_scale_identity():
    assert calibrate_scale([10.0, 20.0], [10.0, 20.0]) == pytest.approx(1.0, rel=1e-12)


def test_calibrate_scale_needs_two_points():
    with pytest.raises(CalibrationError):
        calibrate_scale([10.0], [10.3])


def test_calibrate_scale_rejects_all_zero():
    with pytest.raises(CalibrationError):
        calibrate_scale([0.0, 0.0], [1.0, 2.0])


def test_calibrate_scale_recovers_error_model():
    # generate command/measurement pairs through the actuation model itself
    cal = ActuationCalibration(systematic_scale_error=0.03)
    commanded, measured = [], []
    for pulses in (5, 10, 20, 37):
        cmd = PwmCommand(Axis.BASELINE, Direction.OPEN, pulses, cal.pwm_freq_hz, cal.pwm_duty)
        start = RigState(baseline_mm=30.0)
        moved = apply_command(start, cmd, cal, with_error=True)
        commanded.append(pulses * cal.baseline_mm_per_pulse)
        measured.append(moved.baseline_mm - start.baseline_mm)
    est = calibrate_scale(commanded, measured)
    assert abs(est - (1.0 + cal.systematic_scale_error)) < 1e-3


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
def test_quantization_bound_baseline(delta):
    _, res = pulses_for_baseline_delta(delta, CAL)
    assert abs(res) <= CAL.baseline_mm_per_pulse / 2.0


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(min_value=1e-6, max_value=360.0, allow_nan=False))
def test_quantization_bound_rotation(delta):
    _, res = pulses_for_rotation(delta, CAL)
    assert abs(res) <= CAL.rotation_deg_per_pulse / 2.0


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False))
def test_two_step_settle(delta):
    # exact half-pulse residuals re-plan to one pulse by the ties-away rule;
    # they form a measure-zero boundary excluded here
    rate = CAL.baseline_mm_per_pulse
    _, res = pulses_for_baseline_delta(delta, CAL)
    assume(abs(abs(res) - rate / 2.0) > 1e-9)
    state = RigState(baseline_mm=150.0, baseline_min_mm=-10_000.0, baseline_max_mm=10_000.0)
    cmd, _ = pulses_for_baseline_delta(delta, CAL)
    moved = apply_command(state, cmd, CAL)
    correction, _ = pulses_for_baseline_delta((state.baseline_mm + delta) - moved.baseline_mm, CAL)
    assert correction.pulse_count == 0


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(min_value=0.5, max_value=1.5),
    n=st.integers(min_value=2, max_value=50),
)
def test_calibrate_scale_exact_on_multiplicative_data(scale, n):
    commanded = np.linspace(5.0, 250.0, n)
    est = calibrate_scale(commanded, commanded * scale)
    assert est == pytest.approx(scale, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(min_value=0, max_value=100_000))
def test_pwm_timing_linear_in_pulse_count(count):
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, count, 1333.0, 0.33)
    duration, on_time = pwm_timing(cmd)
    assert duration == pytest.approx(count * (1.0 / 1333.0), rel=1e-9, abs=1e-15)
    assert on_time == pytest.approx(0.33 * duration, rel=1e-12, abs=1e-15)


def test_command_direction_axis_consistency():
    with pytest.raises(ValueError):
        PwmCommand(Axis.BASELINE, Direction.CW, 1, 1333.0, 0.33)


def test_rig_state_validation():
    with pytest.raises(ValueError):
        RigState(baseline_mm=1000.0)
    with pytest.raises(ValueError):
        RigState(baseline_min_mm=300.0, baseline_max_mm=30.0)
