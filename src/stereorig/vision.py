"""Disparity pipeline: shift compensation, correlation matching, depth maps.

Images are (height, width) float arrays with values in [0, 1]; the left
panel is the reference everywhere.  The matcher pre-shifts the right
panel by the disparity predicted from a rangefinder distance so the
correlation search only has to cover a small residual window, then scores
zero-mean normalized cross-correlation and refines the winning offset
with a three-point parabola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .geometry import CameraIntrinsics, parallax_px
from .scene import RangeReading, RigPose

__all__ = [
    "DisparityMap",
    "DepthMap",
    "shift_image",
    "compensation_shift",
    "match_correlation",
    "depth_map_from_disparity",
    "back_project",
    "pixel_to_world",
]

_VAR_EPS = 1e-12  # windows with (n * variance) below this cannot be scored


@dataclass(eq=False)
class DisparityMap:
    """Per-pixel disparity (NaN where unmatched)."""

    disparity: np.ndarray

    @property
    def matched_count(self) -> int:
        return int(np.isfinite(self.disparity).sum())


@dataclass(eq=False)
class DepthMap:
    """Per-pixel distance in mm (NaN where unknown) with capture metadata."""

    depth_mm: np.ndarray
    intrinsics: CameraIntrinsics
    heading_deg: float = 0.0
    heading_index: int = 0


def _require_image(name: str, img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"{name} must be a 2-D intensity grid, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError(f"{name} contains non-finite values")
    return img


def shift_image(img: np.ndarray, shift_px: int) -> np.ndarray:
    """Translate every row horizontally by ``shift_px``; vacated columns are 0.

    Positive shifts move content toward larger column indices.
    """
    img = _require_image("img", img)
    shift_px = int(shift_px)
    if abs(shift_px) >= img.shape[1]:
        raise ValueError(f"|shift| must be < width, got {shift_px} for width {img.shape[1]}")
    out = np.zeros_like(img)
    if shift_px == 0:
        out[:] = img
    elif shift_px > 0:
        out[:, shift_px:] = img[:, :-shift_px]
    else:
        out[:, :shift_px] = img[:, -shift_px:]
    return out


def compensation_shift(
    reading: RangeReading, baseline_mm: float, intrinsics: CameraIntrinsics
) -> int | None:
    """Whole-pixel pre-shift predicted from a rangefinder distance.

    Centers the correlation search on the ranged depth.  A no-return
    reading yields ``None``: the caller falls back to searching from 0.
    """
    if reading.distance_mm is None:
        return None
    d = parallax_px(reading.distance_mm, baseline_mm, intrinsics)
    return int(math.floor(d + 0.5))


def _window_sums(img: np.ndarray, k: int) -> np.ndarray:
    """Sum over every full k x k window: entry [y, x] covers ``img[y:y+k, x:x+k]``."""
    h, w = img.shape
    c = np.zeros((h + 1, w + 1))
    np.cumsum(np.cumsum(img, axis=0), axis=1, out=c[1:, 1:])
    return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]


def match_correlation(
    left: np.ndarray,
    right: np.ndarray,
    shift_px: int,
    window_px: int = 7,
    search_range_px: int = 8,
    min_score: float = 0.6,
    min_texture: float = 0.02,
    subpixel: bool = True,
) -> DisparityMap:
    """Dense correspondence search between a stereo pair.

    Parameters
    ----------
    left, right : equal-shaped intensity grids; left is the reference.
    shift_px : parallax compensation applied to the right panel first.
    window_px : odd correlation window edge, >= 3.
    search_range_px : residual offsets examined are
        ``delta in [-search_range_px, +search_range_px]`` (offsets that
        would make the total disparity negative are skipped, and so are
        offsets beyond ``width - window_px``, which leave no full window).
    min_score : smallest acceptable correlation peak.
    min_texture : smallest left-window standard deviation worth matching.
    subpixel : apply three-point parabolic refinement around the peak.

    Returns
    -------
    DisparityMap with ``disparity = shift_px + delta* (+ refinement)`` at
    matched pixels and NaN elsewhere.  Score ties prefer the smaller
    |delta|, then the negative delta, so results are reproducible.

    Only textured windows (left standard deviation >= ``min_texture``) can
    match, so only they are scored.  The offsets are walked once, keeping
    a running best and the scores either side of it, so memory does not
    grow with ``search_range_px``.
    """
    left = _require_image("left", left)
    right = _require_image("right", right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes differ: {left.shape} vs {right.shape}")
    if window_px % 2 == 0 or window_px < 3:
        raise ValueError(f"window_px must be odd and >= 3, got {window_px}")
    if search_range_px < 0:
        raise ValueError("search_range_px must be >= 0")
    shift_px = int(shift_px)

    h, w = left.shape
    k = window_px
    half = k // 2
    n = float(k * k)
    disparity = np.full((h, w), np.nan)
    reach = min(search_range_px, w - k)
    lo = max(-reach, -shift_px)  # a negative total disparity is not searched
    # a compensation shift of a whole width leaves no right-panel content to score
    if lo > reach or h < k or abs(shift_px) >= w:
        return DisparityMap(disparity)

    # Statistics are in window coordinates: [y, x] is the window whose top-left
    # pixel is (y, x).  Each panel's sums are taken once; an offset only gathers.
    sum_l = _window_sums(left, k)
    var_l_n = _window_sums(left * left, k) - sum_l * sum_l / n  # n * variance
    textured = np.sqrt(np.maximum(var_l_n / n, 0.0)) >= min_texture
    # only a textured window can match; they are taken in column order, so the
    # windows that an offset covers are one contiguous run
    xs, ys = np.nonzero(textured.T)
    if not xs.size:
        return DisparityMap(disparity)
    shifted = shift_image(right, shift_px)
    sum_r = _window_sums(shifted, k)
    var_r_n = _window_sums(shifted * shifted, k) - sum_r * sum_r / n
    # a flat window cannot be scored; its NaN score never wins a comparison
    var_l_n[var_l_n <= _VAR_EPS] = np.nan
    var_r_n[var_r_n <= _VAR_EPS] = np.nan
    at_win = ys * sum_l.shape[1] + xs
    sl, vl = sum_l.ravel()[at_win], var_l_n.ravel()[at_win]
    sum_r, var_r_n = sum_r.ravel(), var_r_n.ravel()

    # One prefix-sum buffer serves every offset.  Offset d's product band
    # (left columns a:b) has its prefix sums at columns a..b, with column a
    # zeroed as the origin, so window x reads its corners at columns x and
    # x + k whatever the offset.  Rows below the last textured window's are
    # never read, and dropping them changes no prefix value.
    rows = int(ys.max()) + k
    c = np.zeros((rows + 1, w + 1))
    cf = c.ravel()
    top, bottom = ys * (w + 1) + xs, (ys + k) * (w + 1) + xs

    best_score = np.full(xs.size, -np.inf)
    best_delta = np.zeros(xs.size, dtype=np.int64)
    below = np.full(xs.size, -np.inf)  # score at best_delta - 1
    above = np.full(xs.size, -np.inf)  # score at best_delta + 1
    # score at the previous offset; a window's covered offsets are one run, so
    # before its first one this still holds -inf, the score of an uncovered window
    prev = np.full(xs.size, -np.inf)
    for d in range(lo, reach + 1):
        # left columns a:b pair with shifted-panel columns a-d:b-d
        a, b = max(d, 0), min(w + d, w)
        band = c[1:, a + 1 : b + 1]
        c[1:, a] = 0.0
        np.multiply(left[:rows, a:b], shifted[:rows, a - d : b - d], out=band)
        np.cumsum(band, axis=0, out=band)
        np.cumsum(band, axis=1, out=band)
        i, j = np.searchsorted(xs, (a, b - k + 1))
        t, u = top[i:j], bottom[i:j]
        prod = cf[u + k] - cf[t + k] - cf[u] + cf[t]
        r = at_win[i:j] - d
        cov = prod - sl[i:j] * sum_r[r] / n
        s = cov / np.sqrt(vl[i:j] * var_r_n[r])

        # a higher score wins; an equal one only from a smaller |delta|, then
        # the negative one.  The offsets ascend, so every best so far has
        # delta < d, and that means |delta| > |d| exactly when delta < -|d|
        # (never for the initial delta 0).
        bs, bd = best_score[i:j], best_delta[i:j]
        np.copyto(above[i:j], s, where=bd == d - 1)
        better = (s > bs) | ((s == bs) & (bd < -abs(d)))
        np.copyto(bs, s, where=better)
        np.copyto(bd, d, where=better)
        np.copyto(below[i:j], prev[i:j], where=better)
        np.copyto(above[i:j], -np.inf, where=better)
        prev[i:j] = s
    matched = best_score >= min_score

    result = shift_px + best_delta.astype(float)
    if subpixel:
        offs = np.zeros(xs.size)
        has_nb = matched & (best_delta > lo) & (best_delta < reach)
        s0, sm, sp = best_score[has_nb], below[has_nb], above[has_nb]
        denom = sm - 2.0 * s0 + sp
        valid = np.isfinite(sm) & np.isfinite(sp) & (denom < -_VAR_EPS)
        frac = np.zeros_like(s0)
        frac[valid] = 0.5 * (sm[valid] - sp[valid]) / denom[valid]
        offs[has_nb] = np.clip(frac, -0.5, 0.5)
        result = result + offs

    disparity[ys[matched] + half, xs[matched] + half] = result[matched]
    return DisparityMap(disparity)


def depth_map_from_disparity(
    disp: DisparityMap,
    baseline_mm: float,
    intrinsics: CameraIntrinsics,
    heading_deg: float = 0.0,
    heading_index: int = 0,
) -> DepthMap:
    """Triangulate every matched pixel; zero or unmatched disparity has no depth."""
    d = disp.disparity
    depth = np.full(d.shape, np.nan)
    ok = np.isfinite(d) & (d > 0.0)
    depth[ok] = intrinsics.focal_px * baseline_mm / d[ok]
    return DepthMap(
        depth_mm=depth,
        intrinsics=intrinsics,
        heading_deg=float(heading_deg),
        heading_index=int(heading_index),
    )


def pixel_to_world(
    u,
    v,
    depth_mm,
    intrinsics: CameraIntrinsics,
    heading_deg: float,
):
    """Map reference-panel coordinates plus depth to world-frame points.

    Accepts scalars or arrays; ``u``/``v`` may be fractional.  The
    reference camera sits at the rig center, so the inverse pinhole ray is
    rotated by the heading and nothing else.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.asarray(depth_mm, dtype=float)
    x_cam = (u - intrinsics.cx) * z / intrinsics.focal_px
    y_cam = (v - intrinsics.cy) * z / intrinsics.focal_px
    h = math.radians(heading_deg)
    cos_h, sin_h = math.cos(h), math.sin(h)
    return np.stack(
        [
            x_cam * cos_h + z * sin_h,
            -y_cam,
            -x_cam * sin_h + z * cos_h,
        ],
        axis=-1,
    )


def back_project(
    depth: DepthMap,
    pose: RigPose,
    intensities: np.ndarray | None = None,
) -> PointCloud:
    """Lift every finite-depth pixel into the world frame.

    ``intensities`` (typically the reference panel) supplies per-point
    intensity.
    """
    mask = np.isfinite(depth.depth_mm)
    vs, us = np.nonzero(mask)
    if us.size == 0:
        return PointCloud.empty()
    xyz = pixel_to_world(
        us.astype(float), vs.astype(float), depth.depth_mm[mask], depth.intrinsics, pose.heading_deg
    )
    if intensities is not None:
        intensity = np.asarray(intensities, dtype=float)[mask]
    else:
        intensity = np.ones(us.size)
    return PointCloud(xyz, intensity)
