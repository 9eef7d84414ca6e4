"""Deterministic simulator and geometry library for a rotating stereo capture rig.

The package models the full loop of an autonomous twin-camera scanner:
range a target, open the camera baseline to a policy setpoint, capture a
synthetic stereo pair, rotate, repeat until a full turn, then recover a
world-frame point cloud from the captures via parallax-compensated
correlation matching and triangulation.
"""

from .cloud import AccuracyReport, PointCloud, accuracy_report, export_ply, import_ply, merge
from .geometry import (
    AtInfinityError,
    CameraIntrinsics,
    CubeProbe,
    RatioReport,
    depth_resolution_mm,
    depth_width_ratio,
    horizontal_fov_deg,
    parallax_px,
    screen_intervals,
    triangulate_depth,
)
from .mechanics import (
    ActuationCalibration,
    Axis,
    Direction,
    PwmCommand,
    RigState,
    apply_command,
    calibrate_scale,
    pulses_for_baseline_delta,
    pulses_for_rotation,
    pwm_timing,
)
from .planner import (
    CapturePolicy,
    ScanController,
    ScanState,
    ShotRecord,
    TargetDisparity,
    TargetRatio,
    baseline_setpoint,
    format_shot_log,
    rotation_schedule,
    run_scan,
    step,
    turn_pulses,
)
from .scene import (
    RangeReading,
    RigPose,
    Scene,
    SceneParseError,
    StereoPair,
    load_scene,
    range_reading,
    render_stereo_pair,
)
from .vision import (
    DepthMap,
    DisparityMap,
    back_project,
    compensation_shift,
    depth_map_from_disparity,
    match_correlation,
    pixel_to_world,
    shift_image,
)

__version__ = "0.1.0"
