"""Closed-form geometry of a parallel-axis twin-camera rig.

Conventions used throughout the package:

* lengths in millimeters, angles in degrees, image quantities in pixels;
* both cameras share identical intrinsics, optical axes are parallel
  (no toe-in) and the principal point sits at the image center;
* the left camera is the reference panel and sits at the rig center,
  the right camera is displaced by the baseline along the rig's
  lateral axis, so disparity d = focal_px * baseline / depth >= 0.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AtInfinityError",
    "CameraIntrinsics",
    "CubeProbe",
    "RatioReport",
    "parallax_px",
    "triangulate_depth",
    "depth_width_ratio",
    "screen_intervals",
    "depth_resolution_mm",
    "horizontal_fov_deg",
    "MAX_IMAGE_SIDE_PX",
]

# largest image side accepted; rendering and matching allocate several h x w planes
MAX_IMAGE_SIDE_PX = 4096


class AtInfinityError(ValueError):
    """Raised when a disparity of 0 px (or less) carries no finite depth."""


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics shared by both cameras of the rig.

    ``focal_px`` folds the pixel pitch into the focal length so every
    image-plane quantity is counted in pixels.
    """

    focal_px: float
    image_width_px: int
    image_height_px: int

    def __post_init__(self) -> None:
        _require_positive("focal_px", self.focal_px)
        for name in ("image_width_px", "image_height_px"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 16 <= value <= MAX_IMAGE_SIDE_PX:
                raise ValueError(f"{name} must lie in [16, {MAX_IMAGE_SIDE_PX}] px, got {value}")

    @property
    def cx(self) -> float:
        return self.image_width_px / 2.0

    @property
    def cy(self) -> float:
        return self.image_height_px / 2.0


@dataclass(frozen=True)
class CubeProbe:
    """A small axis-aligned cube used to probe on-screen depth rendering.

    ``side_mm`` is the lateral length (equal in x, y and z);
    ``center_distance_mm`` is the distance from the cameras to the
    cube's front face.
    """

    side_mm: float
    center_distance_mm: float

    def __post_init__(self) -> None:
        _require_positive("side_mm", self.side_mm)
        _require_positive("center_distance_mm", self.center_distance_mm)
        if self.center_distance_mm <= self.side_mm:
            raise ValueError(
                "cube must sit fully in front of the cameras: "
                f"center_distance_mm={self.center_distance_mm} <= side_mm={self.side_mm}"
            )


@dataclass(frozen=True)
class RatioReport:
    """Screen intervals of a rendered cube: front-face width (ab_px),
    depth relief (bc_px) and their dimensionless ratio."""

    ab_px: float
    bc_px: float
    ratio: float

    def __post_init__(self) -> None:
        _require_positive("ab_px", self.ab_px)
        _require_nonnegative("bc_px", self.bc_px)
        expected = self.bc_px / self.ab_px
        if abs(self.ratio - expected) > 1e-9 * max(abs(expected), 1e-300):
            raise ValueError("ratio must equal bc_px / ab_px")


def parallax_px(distance_mm: float, baseline_mm: float, intrinsics: CameraIntrinsics) -> float:
    """Disparity d = f * a / z of a point at depth z seen with baseline a.

    Strictly decreasing in distance, linear in baseline.
    """
    _require_positive("distance_mm", distance_mm)
    _require_nonnegative("baseline_mm", baseline_mm)
    return intrinsics.focal_px * baseline_mm / distance_mm


def triangulate_depth(disparity_px: float, baseline_mm: float, intrinsics: CameraIntrinsics) -> float:
    """Depth z = f * a / d; the exact inverse of :func:`parallax_px`."""
    _require_positive("baseline_mm", baseline_mm)
    disparity_px = float(disparity_px)
    if not math.isfinite(disparity_px) or disparity_px <= 0.0:
        raise AtInfinityError(
            f"disparity of {disparity_px!r} px has no finite depth"
        )
    return intrinsics.focal_px * baseline_mm / disparity_px


def depth_width_ratio(baseline_mm: float, distance_mm: float) -> float:
    """On-screen depth/width ratio r = a / z of a unit cube at depth z.

    Invariant under common scaling of baseline and distance.
    """
    _require_positive("baseline_mm", baseline_mm)
    _require_positive("distance_mm", distance_mm)
    return baseline_mm / distance_mm


def screen_intervals(probe: CubeProbe, baseline_mm: float, intrinsics: CameraIntrinsics) -> RatioReport:
    """Exact screen intervals of a cube rendered on overlapped stereo panels.

    AB is the pinhole projection of the front-face width.  BC is the
    interval between the two panels' projections of the rear vertex once
    the panels are converged on the front face (the front face carries
    zero on-screen parallax), i.e. the parallax relief across the cube:

        AB = f * s / z
        BC = f * a / z - f * a / (z + s)

    The resulting ratio BC/AB equals a / (z + s), which converges to the
    first-order value a / z as s / z -> 0.
    """
    _require_nonnegative("baseline_mm", baseline_mm)
    f = intrinsics.focal_px
    s = probe.side_mm
    z = probe.center_distance_mm
    ab = f * s / z
    bc = f * baseline_mm / z - f * baseline_mm / (z + s)
    return RatioReport(ab_px=ab, bc_px=bc, ratio=bc / ab)


def depth_resolution_mm(distance_mm: float, baseline_mm: float, intrinsics: CameraIntrinsics) -> float:
    """Smallest resolvable depth step for a 1 px disparity change: z^2 / (f * a)."""
    _require_positive("distance_mm", distance_mm)
    _require_positive("baseline_mm", baseline_mm)
    return distance_mm * distance_mm / (intrinsics.focal_px * baseline_mm)


def horizontal_fov_deg(intrinsics: CameraIntrinsics) -> float:
    """Full horizontal field of view, 2 * atan(w / (2 f)), in degrees."""
    return 2.0 * math.degrees(
        math.atan(intrinsics.image_width_px / (2.0 * intrinsics.focal_px))
    )
