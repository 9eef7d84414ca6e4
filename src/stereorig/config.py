"""Run configuration: flat ``key = value`` text with dotted sections.

Unknown keys are rejected so a typo cannot silently fall back to a
default, and the fully resolved configuration can be echoed back out as
a manifest, making every run reproducible from its artifacts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import CameraIntrinsics, horizontal_fov_deg
from .mechanics import ActuationCalibration
from .planner import CapturePolicy, TargetDisparity, TargetRatio, turn_pulses

__all__ = [
    "ConfigError",
    "VisionParams",
    "RunConfig",
    "parse_config",
    "load_config",
    "MAX_BLOB_RADIUS_PX",
]

# the renderer's splat stencil grows with the blob radius squared
MAX_BLOB_RADIUS_PX = 16.0


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class VisionParams:
    window_px: int = 7
    search_range_px: int = 8
    min_score: float = 0.6
    min_texture: float = 0.02
    subpixel: bool = True

    def __post_init__(self) -> None:
        if self.window_px % 2 == 0 or self.window_px < 3:
            raise ConfigError("vision.window_px must be odd and >= 3")
        if self.search_range_px < 0:
            raise ConfigError("vision.search_range_px must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    intrinsics: CameraIntrinsics
    calibration: ActuationCalibration
    policy: CapturePolicy
    vision: VisionParams
    scene_path: Path | None
    with_error: bool = False
    blob_radius_px: float = 2.0
    cone_half_angle_deg: float = 20.0
    initial_baseline_mm: float = 100.0
    match_radius_mm: float = 0.0  # 0 selects the automatic depth-resolution rule
    voxel_mm: float = 0.0  # 0 disables thinning


# key -> (parser, default); `scene` has no default on purpose
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_SCHEMA: dict[str, tuple] = {
    "scene": (str, None),
    "seed": (int, 0),
    "with_error": (_parse_bool, False),
    "intrinsics.focal_px": (_parse_float, 280.0),
    "intrinsics.image_width_px": (int, 320),
    "intrinsics.image_height_px": (int, 240),
    "calibration.baseline_mm_per_pulse": (_parse_float, 5.0),
    "calibration.rotation_deg_per_pulse": (_parse_float, 5.0),
    "calibration.pwm_freq_hz": (_parse_float, 1333.0),
    "calibration.pwm_duty": (_parse_float, 0.33),
    "calibration.systematic_scale_error": (_parse_float, 0.03),
    "policy.mode": (str, "ratio"),
    "policy.target": (_parse_float, 0.05),
    "policy.overlap_fraction": (_parse_float, 0.3),
    "policy.baseline_min_mm": (_parse_float, 30.0),
    "policy.baseline_max_mm": (_parse_float, 300.0),
    "vision.window_px": (int, 7),
    "vision.search_range_px": (int, 8),
    "vision.min_score": (_parse_float, 0.6),
    "vision.min_texture": (_parse_float, 0.02),
    "vision.subpixel": (_parse_bool, True),
    "scan.blob_radius_px": (_parse_float, 2.0),
    "scan.cone_half_angle_deg": (_parse_float, 20.0),
    "scan.initial_baseline_mm": (_parse_float, 100.0),
    "cloud.match_radius_mm": (_parse_float, 0.0),
    "cloud.voxel_mm": (_parse_float, 0.0),
}


def parse_config(text: str) -> dict[str, object]:
    """Parse config text into a fully defaulted key/value mapping."""
    values: dict[str, object] = {key: default for key, (_, default) in _SCHEMA.items()}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return values


def build_config(values: dict[str, object], base_dir: Path | None = None) -> RunConfig:
    """Build and validate a RunConfig from parsed values."""
    try:
        intrinsics = CameraIntrinsics(
            focal_px=values["intrinsics.focal_px"],
            image_width_px=values["intrinsics.image_width_px"],
            image_height_px=values["intrinsics.image_height_px"],
        )
        calibration = ActuationCalibration(
            baseline_mm_per_pulse=values["calibration.baseline_mm_per_pulse"],
            rotation_deg_per_pulse=values["calibration.rotation_deg_per_pulse"],
            pwm_freq_hz=values["calibration.pwm_freq_hz"],
            pwm_duty=values["calibration.pwm_duty"],
            systematic_scale_error=values["calibration.systematic_scale_error"],
        )
        mode_name = str(values["policy.mode"]).lower()
        if mode_name == "ratio":
            mode = TargetRatio(values["policy.target"])
        elif mode_name == "disparity":
            mode = TargetDisparity(values["policy.target"])
        else:
            raise ConfigError(f"policy.mode must be 'ratio' or 'disparity', got {mode_name!r}")
        policy = CapturePolicy(
            mode=mode,
            overlap_fraction=values["policy.overlap_fraction"],
            baseline_min_mm=values["policy.baseline_min_mm"],
            baseline_max_mm=values["policy.baseline_max_mm"],
        )
        # refuse a sub-pulse step or a turn over the capture cap before a scan allocates anything
        turn_pulses(horizontal_fov_deg(intrinsics), policy.overlap_fraction, calibration)
        vision = VisionParams(
            window_px=values["vision.window_px"],
            search_range_px=values["vision.search_range_px"],
            min_score=values["vision.min_score"],
            min_texture=values["vision.min_texture"],
            subpixel=values["vision.subpixel"],
        )
    except ValueError as exc:  # dataclass validators reject out-of-range fields
        raise ConfigError(str(exc)) from None

    scene_path = None
    if values["scene"] is not None:
        scene_path = Path(values["scene"])
        if base_dir is not None and not scene_path.is_absolute():
            scene_path = base_dir / scene_path

    if not 1.0 <= values["scan.blob_radius_px"] <= MAX_BLOB_RADIUS_PX:
        raise ConfigError(f"scan.blob_radius_px must lie in [1, {MAX_BLOB_RADIUS_PX:g}]")
    if not 0.0 < values["scan.cone_half_angle_deg"] <= 45.0:
        raise ConfigError("scan.cone_half_angle_deg must lie in (0, 45]")
    if values["cloud.match_radius_mm"] < 0.0 or values["cloud.voxel_mm"] < 0.0:
        raise ConfigError("cloud radii must be >= 0")

    return RunConfig(
        intrinsics=intrinsics,
        calibration=calibration,
        policy=policy,
        vision=vision,
        scene_path=scene_path,
        with_error=bool(values["with_error"]),
        blob_radius_px=float(values["scan.blob_radius_px"]),
        cone_half_angle_deg=float(values["scan.cone_half_angle_deg"]),
        initial_baseline_mm=float(values["scan.initial_baseline_mm"]),
        match_radius_mm=float(values["cloud.match_radius_mm"]),
        voxel_mm=float(values["cloud.voxel_mm"]),
    )


def load_config(path, seed_override: int | None = None) -> tuple[RunConfig, dict[str, object]]:
    """Read, parse and validate a config file.

    Returns the config plus the resolved key/value mapping for the manifest.
    The scene path is resolved relative to the config file's directory and
    must exist.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values = parse_config(text)
    if seed_override is not None:
        values["seed"] = int(seed_override)
    config = build_config(values, base_dir=path.parent)
    if config.scene_path is not None:
        if not config.scene_path.is_file():
            raise ConfigError(f"scene file not found: {config.scene_path}")
        values["scene"] = str(config.scene_path.resolve())
    return config, values


def manifest_lines(values: dict[str, object]) -> str:
    """Render the resolved configuration as sorted ``key = value`` lines."""
    rendered = []
    for key in sorted(values):
        value = values[key]
        if value is None:
            continue
        if isinstance(value, bool):
            value = int(value)
        rendered.append(f"{key} = {value}\n")
    return "".join(rendered)
