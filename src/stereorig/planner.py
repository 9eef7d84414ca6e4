"""Capture policy and the autonomous scan loop.

One scan cycle per heading: read the rangefinder, drive the baseline
toward the policy setpoint, capture a stereo pair, rotate to the next
scheduled heading.  The loop ends once the base has swept a full turn,
which the final rotation guarantees by rounding its pulse count up.

The controller is a frozen value object: :func:`step` returns a new
controller and rig state, so a scan is a fold over pure transitions and
two runs with the same inputs produce identical artifacts.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .cloud import _fmt
from .geometry import CameraIntrinsics, horizontal_fov_deg
from .mechanics import (
    ActuationCalibration,
    Axis,
    Direction,
    PwmCommand,
    RigState,
    apply_command,
    full_turn_done,
    pulses_for_baseline_delta,
    pulses_for_rotation,
)
from .scene import RangeReading, RigPose, Scene, StereoPair, range_reading, render_stereo_pair

__all__ = [
    "TargetRatio",
    "TargetDisparity",
    "CapturePolicy",
    "ScanState",
    "ScanStateError",
    "ShotRecord",
    "ScanController",
    "baseline_setpoint",
    "rotation_schedule",
    "plan_rotation",
    "new_controller",
    "step",
    "run_scan",
    "format_shot_log",
    "MAX_CAPTURES_PER_TURN",
]

# a scan renders and keeps one stereo pair per schedule entry
MAX_CAPTURES_PER_TURN = 360


class ScanStateError(RuntimeError):
    """Raised when a finished controller is stepped again."""


@dataclass(frozen=True)
class TargetRatio:
    """Hold the camera separation at ``value`` times the ranged distance."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError("target ratio must be finite and > 0")


@dataclass(frozen=True)
class TargetDisparity:
    """Hold the ranged object's disparity at ``value`` pixels."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError("target disparity must be finite and > 0")


@dataclass(frozen=True)
class CapturePolicy:
    """What the rig aims for at each heading and how densely it captures."""

    mode: TargetRatio | TargetDisparity
    overlap_fraction: float = 0.3
    baseline_min_mm: float = 30.0
    baseline_max_mm: float = 300.0

    def __post_init__(self) -> None:
        if not isinstance(self.mode, (TargetRatio, TargetDisparity)):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if not 0.0 <= self.overlap_fraction <= 0.9:
            raise ValueError(
                f"overlap_fraction must lie in [0, 0.9], got {self.overlap_fraction!r}"
            )
        if not 0.0 < self.baseline_min_mm < self.baseline_max_mm:
            raise ValueError("baseline limits must satisfy 0 < baseline_min_mm < baseline_max_mm")


class ScanState(enum.Enum):
    IDLE = "idle"
    RANGING = "ranging"
    ADJUST_BASELINE = "adjust_baseline"
    CAPTURE = "capture"
    ROTATE = "rotate"
    DONE = "done"


@dataclass(frozen=True)
class ShotRecord:
    index: int
    heading_deg: float
    baseline_mm: float
    range_mm: float | None
    setpoint_mm: float
    saturated: bool


@dataclass(frozen=True)
class ScanController:
    state: ScanState
    policy: CapturePolicy
    schedule: tuple[float, ...]
    rotation_index: int = 0
    shots: tuple[ShotRecord, ...] = ()
    pending_range: float | None = None
    pending_setpoint: float | None = None


def baseline_setpoint(
    reading, policy: CapturePolicy, intrinsics: CameraIntrinsics
) -> float | None:
    """Baseline the policy wants for a ranged distance, clamped to limits.

    Returns ``None`` on a no-return reading: the rig holds its current
    separation rather than halting mid-scan.
    """
    distance = reading.distance_mm
    if distance is None:
        return None
    if isinstance(policy.mode, TargetRatio):
        setpoint = policy.mode.value * distance
    else:
        setpoint = policy.mode.value * distance / intrinsics.focal_px
    return min(max(setpoint, policy.baseline_min_mm), policy.baseline_max_mm)


def rotation_schedule(fov_deg: float, overlap_fraction: float) -> list[float]:
    """Heading increments that tile a full turn with the requested overlap.

    The step is fov * (1 - overlap); the last increment is trimmed so the
    increments sum to exactly one turn, which keeps the wraparound pair
    overlapping at least as much as consecutive ones.  A step that needs
    more than ``MAX_CAPTURES_PER_TURN`` increments is refused before the
    list is built.
    """
    if not 0.0 < fov_deg < 180.0:
        raise ValueError(f"fov_deg must lie in (0, 180), got {fov_deg!r}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError(f"overlap_fraction must lie in [0, 1), got {overlap_fraction!r}")
    step_deg = fov_deg * (1.0 - overlap_fraction)
    # tolerate float noise at exact divisions (e.g. 60 * (1 - 0.9) < 6)
    steps = 360.0 / step_deg - 1e-9
    if steps > MAX_CAPTURES_PER_TURN:
        raise ValueError(
            f"a {step_deg:g} deg step (fov {fov_deg:g} deg, overlap {overlap_fraction:g}) "
            f"needs more than {MAX_CAPTURES_PER_TURN} captures per turn"
        )
    count = math.ceil(steps)
    closing = 360.0 - (count - 1) * step_deg
    return [step_deg] * (count - 1) + [closing]


def new_controller(policy: CapturePolicy, intrinsics: CameraIntrinsics) -> ScanController:
    schedule = tuple(rotation_schedule(horizontal_fov_deg(intrinsics), policy.overlap_fraction))
    return ScanController(state=ScanState.IDLE, policy=policy, schedule=schedule)


def plan_rotation(
    schedule: Sequence[float], index: int, cumulative_deg: float, cal: ActuationCalibration
) -> tuple[PwmCommand, float]:
    """Rotate from ``cumulative_deg`` toward the cumulative target of entry ``index``.

    Returns the command and the residual: the target minus the rotation
    reached with nominal actuation.  Planning against the cumulative target
    (not the raw increment) stops quantization residuals from accumulating
    across the turn.  The final increment rounds up instead of to nearest
    so the turn always completes within one cycle per schedule entry.
    """
    last = index == len(schedule) - 1
    # the schedule sums to a full turn by construction
    target = 360.0 if last else sum(schedule[: index + 1])
    delta = target - cumulative_deg
    if last:
        count = max(math.ceil(delta / cal.rotation_deg_per_pulse - 1e-9), 0)
    elif delta <= 0.0:  # an earlier overshoot already passed this target
        count = 0
    else:
        count = pulses_for_rotation(delta, cal)[0].pulse_count
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, count, cal.pwm_freq_hz, cal.pwm_duty)
    return cmd, target - (cumulative_deg + count * cal.rotation_deg_per_pulse)


def step(
    controller: ScanController,
    rig: RigState,
    scene: Scene,
    cal: ActuationCalibration,
    intrinsics: CameraIntrinsics,
    blob_radius_px: float = 2.0,
    cone_half_angle_deg: float = 20.0,
    with_error: bool = False,
) -> tuple[ScanController, RigState, StereoPair | None]:
    """Execute exactly one state's work and advance the transition table.

    Idle -> (Ranging -> AdjustBaseline -> Capture -> Rotate)* -> Done.
    Only the Capture state emits an artifact.
    """
    state = controller.state
    if state is ScanState.DONE:
        raise ScanStateError("scan already complete")

    if state in (ScanState.IDLE, ScanState.RANGING):
        reading = range_reading(scene, RigPose(rig.heading_deg), cone_half_angle_deg)
        next_controller = replace(
            controller, state=ScanState.ADJUST_BASELINE, pending_range=reading.distance_mm
        )
        return next_controller, rig, None

    if state is ScanState.ADJUST_BASELINE:
        reading = RangeReading(controller.pending_range, cone_half_angle_deg)
        setpoint = baseline_setpoint(reading, controller.policy, intrinsics)
        if setpoint is None:
            setpoint = rig.baseline_mm  # no return: hold the current separation
        cmd, _ = pulses_for_baseline_delta(setpoint - rig.baseline_mm, cal)
        rig = apply_command(rig, cmd, cal, with_error=with_error)
        next_controller = replace(
            controller, state=ScanState.CAPTURE, pending_setpoint=setpoint
        )
        return next_controller, rig, None

    if state is ScanState.CAPTURE:
        pair = render_stereo_pair(
            scene, RigPose(rig.heading_deg), rig.baseline_mm, intrinsics, blob_radius_px
        )
        record = ShotRecord(
            index=len(controller.shots),
            heading_deg=rig.heading_deg,
            baseline_mm=rig.baseline_mm,
            range_mm=controller.pending_range,
            setpoint_mm=controller.pending_setpoint,
            saturated=rig.saturated,
        )
        next_controller = replace(
            controller, state=ScanState.ROTATE, shots=controller.shots + (record,)
        )
        return next_controller, rig, pair

    # ScanState.ROTATE
    cmd, _ = plan_rotation(
        controller.schedule, controller.rotation_index, rig.cumulative_rotation_deg, cal
    )
    rig = apply_command(rig, cmd, cal, with_error=with_error)
    next_state = ScanState.DONE if full_turn_done(rig) else ScanState.RANGING
    next_controller = replace(
        controller,
        state=next_state,
        rotation_index=controller.rotation_index + 1,
        pending_range=None,
        pending_setpoint=None,
    )
    return next_controller, rig, None


def run_scan(
    scene: Scene,
    policy: CapturePolicy,
    cal: ActuationCalibration,
    intrinsics: CameraIntrinsics,
    initial_baseline_mm: float = 100.0,
    blob_radius_px: float = 2.0,
    cone_half_angle_deg: float = 20.0,
    with_error: bool = False,
) -> tuple[list[StereoPair], list[ShotRecord]]:
    """Drive the controller to Done; returns captures in heading order.

    The rig starts at ``initial_baseline_mm`` clamped to the policy limits.
    """
    controller = new_controller(policy, intrinsics)
    rig = RigState(
        baseline_mm=min(max(initial_baseline_mm, policy.baseline_min_mm), policy.baseline_max_mm),
        baseline_min_mm=policy.baseline_min_mm,
        baseline_max_mm=policy.baseline_max_mm,
    )
    pairs: list[StereoPair] = []
    while controller.state is not ScanState.DONE:
        controller, rig, artifact = step(
            controller,
            rig,
            scene,
            cal,
            intrinsics,
            blob_radius_px=blob_radius_px,
            cone_half_angle_deg=cone_half_angle_deg,
            with_error=with_error,
        )
        if artifact is not None:
            pairs.append(artifact)
    return pairs, list(controller.shots)


def format_shot_log(shots) -> str:
    """One UTF-8 line per capture, parseable back into the same fields."""
    lines = []
    for s in shots:
        range_text = "none" if s.range_mm is None else _fmt(s.range_mm)
        lines.append(
            f"shot {s.index} heading_deg {_fmt(s.heading_deg)} "
            f"baseline_mm {_fmt(s.baseline_mm)} range_mm {range_text} "
            f"setpoint_mm {_fmt(s.setpoint_mm)} saturated {int(s.saturated)}\n"
        )
    return "".join(lines)
