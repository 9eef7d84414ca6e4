"""Pulse-quantized actuation model of the rig's two motor axes.

The baseline (camera separation) and base rotation axes move a fixed
amount per PWM pulse, so every commanded displacement is rounded to a
whole pulse count; ties are rounded away from zero, which bounds the
quantization residual by half a pulse.  Fabrication inaccuracy is
modeled as a single multiplicative scale error per command, applied
only when requested, and recoverable with :func:`calibrate_scale`.

State transitions are pure: ``apply_command`` returns a new
:class:`RigState` and never mutates its input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Axis",
    "Direction",
    "ActuationCalibration",
    "PwmCommand",
    "RigState",
    "CalibrationError",
    "pulses_for_baseline_delta",
    "pulses_for_rotation",
    "pwm_timing",
    "apply_command",
    "calibrate_scale",
]

FULL_TURN_DEG = 360.0


class CalibrationError(ValueError):
    """Raised when scale estimation data is degenerate."""


class Axis(enum.Enum):
    BASELINE = "baseline"
    ROTATION = "rotation"


class Direction(enum.Enum):
    OPEN = "open"
    CLOSE = "close"
    CW = "cw"
    CCW = "ccw"

    @property
    def sign(self) -> int:
        return +1 if self in (Direction.OPEN, Direction.CW) else -1

    @property
    def axis(self) -> Axis:
        return Axis.BASELINE if self in (Direction.OPEN, Direction.CLOSE) else Axis.ROTATION


@dataclass(frozen=True)
class ActuationCalibration:
    """Motor calibration constants, defaulting to the prototype's measured values."""

    baseline_mm_per_pulse: float = 5.0
    rotation_deg_per_pulse: float = 5.0
    pwm_freq_hz: float = 1333.0
    pwm_duty: float = 0.33
    systematic_scale_error: float = 0.03

    def __post_init__(self) -> None:
        for name in ("baseline_mm_per_pulse", "rotation_deg_per_pulse", "pwm_freq_hz"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 < self.pwm_duty < 1.0:
            raise ValueError(f"pwm_duty must lie strictly in (0, 1), got {self.pwm_duty!r}")
        if not abs(self.systematic_scale_error) < 0.5:
            raise ValueError(
                f"|systematic_scale_error| must be < 0.5, got {self.systematic_scale_error!r}"
            )

    def rate_for(self, axis: Axis) -> float:
        return self.baseline_mm_per_pulse if axis is Axis.BASELINE else self.rotation_deg_per_pulse


@dataclass(frozen=True)
class PwmCommand:
    """A planned pulse train moving one axis in one direction."""

    axis: Axis
    direction: Direction
    pulse_count: int
    freq_hz: float
    duty: float

    def __post_init__(self) -> None:
        if self.direction.axis is not self.axis:
            raise ValueError(f"direction {self.direction} does not drive axis {self.axis}")
        if not isinstance(self.pulse_count, int) or self.pulse_count < 0:
            raise ValueError(f"pulse_count must be a nonnegative integer, got {self.pulse_count!r}")
        if not self.freq_hz > 0.0:
            raise ValueError("freq_hz must be > 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie strictly in (0, 1)")


@dataclass(frozen=True)
class RigState:
    """Baseline separation, cumulative base rotation and travel limits.

    ``heading_deg`` is derived (cumulative rotation mod 360) so the two can
    never disagree.  ``saturated`` reports whether the most recent baseline
    command was clamped at a travel limit.
    """

    baseline_mm: float = 100.0
    cumulative_rotation_deg: float = 0.0
    baseline_min_mm: float = 30.0
    baseline_max_mm: float = 300.0
    saturated: bool = False

    def __post_init__(self) -> None:
        if not self.baseline_min_mm < self.baseline_max_mm:
            raise ValueError("baseline_min_mm must be < baseline_max_mm")
        if not self.baseline_min_mm <= self.baseline_mm <= self.baseline_max_mm:
            raise ValueError(
                f"baseline {self.baseline_mm} outside limits "
                f"[{self.baseline_min_mm}, {self.baseline_max_mm}]"
            )

    @property
    def heading_deg(self) -> float:
        return self.cumulative_rotation_deg % FULL_TURN_DEG


def _round_half_away(quotient: float) -> int:
    # quotient >= 0; ties round up, i.e. away from zero
    return int(math.floor(quotient + 0.5))


def pulses_for_baseline_delta(
    delta_mm: float, cal: ActuationCalibration
) -> tuple[PwmCommand, float]:
    """Plan the pulse train that best realises a signed baseline change.

    Returns the command and the signed quantization residual
    (requested minus actuated), bounded by half a pulse.
    """
    delta_mm = float(delta_mm)
    if not math.isfinite(delta_mm):
        raise ValueError(f"delta_mm must be finite, got {delta_mm!r}")
    rate = cal.baseline_mm_per_pulse
    count = _round_half_away(abs(delta_mm) / rate)
    direction = Direction.OPEN if delta_mm > 0 else Direction.CLOSE
    actuated = direction.sign * count * rate
    cmd = PwmCommand(Axis.BASELINE, direction, count, cal.pwm_freq_hz, cal.pwm_duty)
    return cmd, delta_mm - actuated


def pulses_for_rotation(
    delta_deg: float, cal: ActuationCalibration
) -> tuple[PwmCommand, float]:
    """Plan the clockwise pulse train for a rotation of 0 < delta <= 360 degrees."""
    delta_deg = float(delta_deg)
    if not math.isfinite(delta_deg) or not 0.0 < delta_deg <= FULL_TURN_DEG:
        raise ValueError(f"delta_deg must lie in (0, 360], got {delta_deg!r}")
    rate = cal.rotation_deg_per_pulse
    count = _round_half_away(delta_deg / rate)
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, count, cal.pwm_freq_hz, cal.pwm_duty)
    return cmd, delta_deg - count * rate


def pwm_timing(cmd: PwmCommand) -> tuple[float, float]:
    """Wall-clock duration and on-time of a pulse train, in seconds."""
    duration = cmd.pulse_count / cmd.freq_hz
    return duration, cmd.duty * duration


def apply_command(
    state: RigState,
    cmd: PwmCommand,
    cal: ActuationCalibration,
    with_error: bool = False,
) -> RigState:
    """Advance the rig state by one pulse train.

    ``with_error`` applies the calibration's multiplicative scale error to
    the actuated motion.  Baseline travel clamps silently at the limits and
    sets ``saturated`` on the result; rotation accumulates without limit.
    """
    displacement = cmd.pulse_count * cal.rate_for(cmd.axis) * cmd.direction.sign
    if with_error:
        displacement *= 1.0 + cal.systematic_scale_error
    if cmd.axis is Axis.BASELINE:
        raw = state.baseline_mm + displacement
        clamped = min(max(raw, state.baseline_min_mm), state.baseline_max_mm)
        return replace(state, baseline_mm=clamped, saturated=clamped != raw)
    return replace(
        state,
        cumulative_rotation_deg=state.cumulative_rotation_deg + displacement,
        saturated=False,
    )


def calibrate_scale(commanded_mm, measured_mm) -> float:
    """Least-squares scale factor through the origin: sum(c*m) / sum(c*c).

    Exact when the scale is the only error; inverting the estimate
    recovers the commanded motion.
    """
    commanded = np.asarray(commanded_mm, dtype=float)
    measured = np.asarray(measured_mm, dtype=float)
    if commanded.shape != measured.shape or commanded.ndim != 1:
        raise CalibrationError("commanded and measured must be equal-length 1-D sequences")
    if commanded.size < 2:
        raise CalibrationError("need at least 2 calibration points")
    if not (np.isfinite(commanded).all() and np.isfinite(measured).all()):
        raise CalibrationError("calibration data must be finite")
    denom = float(commanded @ commanded)
    if denom == 0.0:
        raise CalibrationError("commanded motions are all zero")
    return float(commanded @ measured) / denom
