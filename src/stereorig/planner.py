"""Capture policy and the autonomous scan loop.

One scan cycle per heading: read the rangefinder, drive the baseline
toward the policy setpoint, capture a stereo pair, rotate to the next
heading.  Each rotation sends the whole pulses that :func:`turn_pulses`
fixes from the field of view and the calibration, and the loop ends after
the last of them, so the turn never depends on the simulator's true pose.

The controller is a frozen value object: :func:`step` returns a new
controller and rig state, so a scan is a fold over pure transitions and
two runs with the same inputs produce identical artifacts.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
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
    pulses_for_baseline_delta,
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
    "turn_pulses",
    "new_controller",
    "step",
    "capture",
    "run_scan",
    "format_shot_log",
    "MAX_CAPTURES_PER_TURN",
]

# a scan renders one stereo pair and keeps its 8-bit panels per schedule entry
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


def turn_pulses(fov_deg: float, overlap_fraction: float, cal: ActuationCalibration) -> list[int]:
    """Pulses sent after each capture of one turn.

    Every step sends p = floor(fov * (1 - overlap) / rate) pulses, so no two
    neighbouring headings overlap by less than ``overlap_fraction``, and the
    turn takes ceil(360 / (p * rate)) captures.  The last rotation sends the
    whole pulses that close the turn, at most p, so the turn totals
    ceil(360 / rate) pulses.  A step under one pulse, or a turn of more than
    ``MAX_CAPTURES_PER_TURN`` captures, is refused before the list is built.
    """
    rate = cal.rotation_deg_per_pulse
    # the degree schedule checks the domain and the captures that the step alone needs
    step_deg = rotation_schedule(fov_deg, overlap_fraction)[0]
    if not math.isfinite(360.0 / rate):
        raise ValueError(f"a turn at {rate!r} deg per pulse takes too many pulses to count")
    # tolerate float noise at exact divisions (e.g. a 42 deg step at 1 deg per pulse)
    per_step = math.floor(step_deg / rate + 1e-9)
    if per_step < 1:
        raise ValueError(
            f"a {step_deg:g} deg step (fov {fov_deg:g} deg, overlap {overlap_fraction:g}) "
            f"is under one {rate:g} deg pulse"
        )
    total = math.ceil(360.0 / rate - 1e-9)
    count = -(-total // per_step)
    if count > MAX_CAPTURES_PER_TURN:
        raise ValueError(
            f"{per_step} pulse steps of {rate:g} deg need more than "
            f"{MAX_CAPTURES_PER_TURN} captures per turn"
        )
    return [per_step] * (count - 1) + [total - (count - 1) * per_step]


def new_controller(policy: CapturePolicy, intrinsics: CameraIntrinsics) -> ScanController:
    """An idle controller.  ``intrinsics`` is not read: :func:`step` plans
    each rotation from the intrinsics and calibration it is given."""
    return ScanController(state=ScanState.IDLE, policy=policy)


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
    plan = turn_pulses(horizontal_fov_deg(intrinsics), controller.policy.overlap_fraction, cal)
    count = plan[controller.rotation_index]
    cmd = PwmCommand(Axis.ROTATION, Direction.CW, count, cal.pwm_freq_hz, cal.pwm_duty)
    rig = apply_command(rig, cmd, cal, with_error=with_error)
    last = controller.rotation_index == len(plan) - 1
    next_controller = replace(
        controller,
        state=ScanState.DONE if last else ScanState.RANGING,
        rotation_index=controller.rotation_index + 1,
        pending_range=None,
        pending_setpoint=None,
    )
    return next_controller, rig, None


def capture(
    scene: Scene,
    policy: CapturePolicy,
    cal: ActuationCalibration,
    intrinsics: CameraIntrinsics,
    initial_baseline_mm: float = 100.0,
    blob_radius_px: float = 2.0,
    cone_half_angle_deg: float = 20.0,
    with_error: bool = False,
) -> Iterator[tuple[StereoPair, ShotRecord]]:
    """Drive the controller to Done, yielding each capture and its record as it happens.

    The rig starts at ``initial_baseline_mm`` clamped to the policy limits.
    """
    controller = new_controller(policy, intrinsics)
    rig = RigState(
        baseline_mm=min(max(initial_baseline_mm, policy.baseline_min_mm), policy.baseline_max_mm),
        baseline_min_mm=policy.baseline_min_mm,
        baseline_max_mm=policy.baseline_max_mm,
    )
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
            yield artifact, controller.shots[-1]
            del artifact  # keep no pair once it is yielded, whatever step comes next


def run_scan(*args, **kwargs) -> tuple[list[StereoPair], list[ShotRecord]]:
    """Every pair and record of :func:`capture`, which takes the same arguments."""
    pairs, shots = zip(*capture(*args, **kwargs))
    return list(pairs), list(shots)


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
