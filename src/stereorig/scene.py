"""Synthetic point scenes, a cone rangefinder and the twin-pinhole renderer.

World frame: the rig center is the origin, +y is up, and at heading 0 the
boresight points along +z with +x to the right.  Headings grow clockwise
when seen from above (compass style), so the boresight at heading h is
(sin h, 0, cos h).  The left camera sits at the rig center; the right
camera is displaced by the baseline along the rig's lateral axis.

Scene file format (UTF-8, one directive per line, ``#`` starts a comment):

    p <x_mm> <y_mm> <z_mm> <intensity>
    room <width_mm> <depth_mm> <height_mm> <n_points> seed <u64>

``room`` scatters points uniformly over the six interior faces of an
axis-aligned box centered on the rig, using the xorshift64* generator so
the same seed always produces the same scene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics

__all__ = [
    "Scene",
    "RigPose",
    "StereoPair",
    "RangeReading",
    "SceneParseError",
    "XorShift64Star",
    "load_scene",
    "range_reading",
    "render_stereo_pair",
    "SENSOR_MIN_MM",
    "SENSOR_MAX_MM",
    "MAX_SCENE_POINTS",
    "MAX_SCENE_COORD_MM",
]

# operating window of the distance sensor; anything outside reads as no-return
SENSOR_MIN_MM = 100.0
SENSOR_MAX_MM = 60000.0

# largest scene a file may describe, checked before a `room` line generates points
MAX_SCENE_POINTS = 1_000_000
# largest |coordinate| of a scene point (1 km); a room may span twice that
MAX_SCENE_COORD_MM = 1e6

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15  # xorshift state must be nonzero


class SceneParseError(ValueError):
    """Scene text that does not conform to the directive format."""

    def __init__(self, line_number: int | None, message: str):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class XorShift64Star:
    """xorshift64* generator; bit-identical on every platform."""

    def __init__(self, seed: int):
        self._state = (int(seed) & _MASK64) or _ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def next_float(self) -> float:
        # top 53 bits -> uniform double in [0, 1)
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True, eq=False)
class Scene:
    """A set of feature points: columns x_mm, y_mm, z_mm, intensity."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a scene needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("scene coordinates must be finite")
        if (pts[:, 3] < 0.0).any() or (pts[:, 3] > 1.0).any():
            raise ValueError("feature intensities must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RigPose:
    """Rig orientation; the rig center is pinned at the world origin."""

    heading_deg: float = 0.0

    def __post_init__(self) -> None:
        h = float(self.heading_deg)
        if not math.isfinite(h):
            raise ValueError("heading_deg must be finite")
        object.__setattr__(self, "heading_deg", h % 360.0)

    def boresight(self) -> np.ndarray:
        h = math.radians(self.heading_deg)
        return np.array([math.sin(h), 0.0, math.cos(h)])

    def lateral(self) -> np.ndarray:
        # camera x-axis (rightward) in world coordinates
        h = math.radians(self.heading_deg)
        return np.array([math.cos(h), 0.0, -math.sin(h)])


@dataclass(frozen=True)
class RangeReading:
    """Distance sensor output; ``None`` means no return."""

    distance_mm: float | None
    cone_half_angle_deg: float


@dataclass(frozen=True, eq=False)
class StereoPair:
    """A rendered left/right pair with per-pixel ground-truth disparity.

    ``truth_disparity`` is defined on the left (reference) panel: NaN where
    no feature covers the pixel, otherwise the disparity of the point that
    owns the pixel.  ``visible_mask`` flags scene points that own at least
    one left-panel pixel.
    """

    left: np.ndarray
    right: np.ndarray
    truth_disparity: np.ndarray
    heading_deg: float
    baseline_mm: float
    visible_mask: np.ndarray


def _room_points(width: float, depth: float, height: float, n: int, seed: int) -> list[list[float]]:
    """Scatter n points uniformly over the interior faces of the room box."""
    hw, hd, hh = width / 2.0, depth / 2.0, height / 2.0
    # (area, point builder) per face; fixed order keeps scenes reproducible
    faces = [
        (width * height, lambda u, v: [u * width - hw, v * height - hh, hd]),    # far wall  z=+hd
        (width * height, lambda u, v: [u * width - hw, v * height - hh, -hd]),   # near wall z=-hd
        (depth * height, lambda u, v: [hw, v * height - hh, u * depth - hd]),    # right wall x=+hw
        (depth * height, lambda u, v: [-hw, v * height - hh, u * depth - hd]),   # left wall  x=-hw
        (width * depth, lambda u, v: [u * width - hw, -hh, v * depth - hd]),     # floor      y=-hh
        (width * depth, lambda u, v: [u * width - hw, hh, v * depth - hd]),      # ceiling    y=+hh
    ]
    total = sum(area for area, _ in faces)
    rng = XorShift64Star(seed)
    rows = []
    for _ in range(n):
        pick = rng.next_float() * total
        build = faces[-1][1]  # fallback guards against float round-off at the top end
        for area, candidate in faces:
            if pick < area:
                build = candidate
                break
            pick -= area
        u, v = rng.next_float(), rng.next_float()
        # keep procedural features clearly textured
        intensity = 0.3 + 0.7 * rng.next_float()
        rows.append(build(u, v) + [intensity])
    return rows


def load_scene(text: str) -> Scene:
    """Parse scene text; raises :class:`SceneParseError` with the line number."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 5:
                raise SceneParseError(lineno, f"expected 'p x y z intensity', got {raw!r}")
            try:
                values = [float(t) for t in tokens[1:]]
            except ValueError:
                raise SceneParseError(lineno, f"non-numeric field in {raw!r}") from None
            if not all(math.isfinite(v) for v in values):
                raise SceneParseError(lineno, "coordinates and intensity must be finite")
            if max(abs(v) for v in values[:3]) > MAX_SCENE_COORD_MM:
                raise SceneParseError(lineno, f"coordinates exceed {MAX_SCENE_COORD_MM:g} mm")
            if not 0.0 <= values[3] <= 1.0:
                raise SceneParseError(lineno, f"intensity {values[3]} outside [0, 1]")
            if not any(values[:3]):
                raise SceneParseError(lineno, "a point cannot sit at the rig center")
            if len(rows) + 1 > MAX_SCENE_POINTS:
                raise SceneParseError(lineno, f"scene exceeds {MAX_SCENE_POINTS} points")
            rows.append(values)
        elif tokens[0] == "room":
            if len(tokens) != 7 or tokens[5] != "seed":
                raise SceneParseError(
                    lineno, f"expected 'room width depth height n seed <u64>', got {raw!r}"
                )
            try:
                width, depth, height = (float(t) for t in tokens[1:4])
                n = int(tokens[4])
                seed = int(tokens[6])
            except ValueError:
                raise SceneParseError(lineno, f"non-numeric field in {raw!r}") from None
            if not all(0.0 < v <= 2.0 * MAX_SCENE_COORD_MM for v in (width, depth, height)):
                raise SceneParseError(
                    lineno, f"room dimensions must lie in (0, {2.0 * MAX_SCENE_COORD_MM:g}] mm"
                )
            if n < 1 or seed < 0:
                raise SceneParseError(lineno, "room count and seed must be positive")
            if len(rows) + n > MAX_SCENE_POINTS:
                raise SceneParseError(lineno, f"scene exceeds {MAX_SCENE_POINTS} points")
            rows.extend(_room_points(width, depth, height, n, seed))
        else:
            raise SceneParseError(lineno, f"unknown directive {tokens[0]!r}")
    if not rows:
        raise SceneParseError(None, "scene has no points")
    return Scene(np.array(rows, dtype=float))


def range_reading(
    scene: Scene,
    pose: RigPose,
    cone_half_angle_deg: float,
) -> RangeReading:
    """Nearest scene point within the sensing cone about the boresight.

    Ideal cone-minimum sensor; readings outside the sensor window come
    back as no-return.
    """
    if not 0.0 < cone_half_angle_deg <= 45.0:
        raise ValueError(f"cone_half_angle_deg must lie in (0, 45], got {cone_half_angle_deg!r}")
    ranges = np.linalg.norm(scene.xyz, axis=1)
    valid = ranges > 0.0
    cos_along = np.zeros(len(scene))
    cos_along[valid] = scene.xyz[valid] @ pose.boresight() / ranges[valid]
    in_cone = valid & (cos_along >= math.cos(math.radians(cone_half_angle_deg)))
    if not in_cone.any():
        return RangeReading(None, cone_half_angle_deg)
    distance = float(ranges[in_cone].min())
    if not SENSOR_MIN_MM <= distance <= SENSOR_MAX_MM:
        return RangeReading(None, cone_half_angle_deg)
    return RangeReading(distance, cone_half_angle_deg)


def _camera_frame(scene: Scene, pose: RigPose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point camera-frame coordinates shared by both panels.

    Depth along the boresight is identical for the two cameras because
    their offset is purely lateral; the right camera only subtracts the
    baseline from the lateral coordinate.
    """
    lateral = scene.xyz @ pose.lateral()
    vertical = -scene.xyz[:, 1]  # camera y points down
    depth = scene.xyz @ pose.boresight()
    return lateral, vertical, depth


def _splat_panel(
    lateral: np.ndarray,
    vertical: np.ndarray,
    depth: np.ndarray,
    intensity: np.ndarray,
    intrinsics: CameraIntrinsics,
    blob_radius_px: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Render one panel; returns the image and the per-pixel owner index.

    Each point is drawn as a truncated Gaussian blob (sigma = radius / 2).
    A pixel belongs to the nearest point whose blob reaches it; on equal
    depth the earlier point keeps it (the ownership sort is stable).
    """
    h, w = intrinsics.image_height_px, intrinsics.image_width_px
    f, cx, cy = intrinsics.focal_px, intrinsics.cx, intrinsics.cy
    sigma = blob_radius_px / 2.0
    reach = math.ceil(blob_radius_px) + 1
    # cull without dividing, so u and v stay finite: the strict bounds drop
    # depth <= 0 and centres over `reach` px off the panel, whose blobs miss
    # it; a depth that overflowed to inf owns no pixel
    idx = np.flatnonzero(
        (np.abs(f * lateral) < (cx + reach) * depth)
        & (np.abs(f * vertical) < (cy + reach) * depth)
        & (depth < np.inf)
    )
    u, v = cx + f * lateral[idx] / depth[idx], cy + f * vertical[idx] / depth[idx]
    # candidate pixels: a stencil per point, shifted to lie inside the panel
    nx, ny = min(2 * reach + 1, w), min(2 * reach + 1, h)
    x0 = np.clip(np.floor(u).astype(np.int64) - reach, 0, w - nx)
    y0 = np.clip(np.floor(v).astype(np.int64) - reach, 0, h - ny)
    dx2 = (x0[:, None] + np.arange(nx) - u[:, None]) ** 2
    dy2 = (y0[:, None] + np.arange(ny) - v[:, None]) ** 2
    r2 = dy2[:, :, None] + dx2[:, None, :]
    k, iy, ix = np.nonzero(r2 <= blob_radius_px * blob_radius_px)
    pixel, point, r2 = (y0[k] + iy) * w + x0[k] + ix, idx[k], r2[k, iy, ix]
    # candidates come in point order, so a stable sort on (pixel, depth) puts
    # each pixel's owner first, the earlier point first on a depth tie
    order = np.lexsort((depth[point], pixel))
    owns = order[np.unique(pixel[order], return_index=True)[1]]
    image = np.zeros(h * w)
    owner_idx = np.full(h * w, -1, dtype=np.int64)
    image[pixel[owns]] = intensity[point[owns]] * np.exp(-r2[owns] / (2.0 * sigma * sigma))
    owner_idx[pixel[owns]] = point[owns]
    return image.reshape(h, w), owner_idx.reshape(h, w)


def render_stereo_pair(
    scene: Scene,
    pose: RigPose,
    baseline_mm: float,
    intrinsics: CameraIntrinsics,
    blob_radius_px: float = 2.0,
) -> StereoPair:
    """Project every scene point through both pinhole cameras.

    Points are splatted in painter's order (nearest wins per pixel), the
    left panel is the reference, and ground-truth disparity at a covered
    pixel is focal_px * baseline / depth of the owning point.
    """
    if baseline_mm < 0.0 or not math.isfinite(baseline_mm):
        raise ValueError("baseline_mm must be finite and >= 0")
    if blob_radius_px < 1.0:
        raise ValueError("blob_radius_px must be >= 1")
    lateral, vertical, depth = _camera_frame(scene, pose)
    left, owner = _splat_panel(lateral, vertical, depth, scene.intensity, intrinsics, blob_radius_px)
    right, _ = _splat_panel(
        lateral - baseline_mm, vertical, depth, scene.intensity, intrinsics, blob_radius_px
    )
    truth = np.full(left.shape, np.nan)
    covered = owner >= 0
    truth[covered] = intrinsics.focal_px * baseline_mm / depth[owner[covered]]
    visible = np.zeros(len(scene), dtype=bool)
    visible[owner[covered]] = True
    return StereoPair(
        left=left,
        right=right,
        truth_disparity=truth,
        heading_deg=pose.heading_deg,
        baseline_mm=float(baseline_mm),
        visible_mask=visible,
    )
