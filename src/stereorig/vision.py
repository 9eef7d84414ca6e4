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
from numpy.lib.stride_tricks import sliding_window_view

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


# The direct path is taken when the textured windows' pixels (count * k * k)
# are fewer than this many times the plane's (rows * width).  Forced on the 54
# pairs of the benchmark workloads at seeds 3 and 7, it took 0.33-0.61 of the
# plane path's time at ratios 0.45-1.36, 0.81-0.85 at 2.6-2.7 and 1.02 at 3.3.
# But it holds about 2 * ratio planes against the plane path's 3: at 2.6 it
# added 1.7 MB to a wide-thinned scan's peak RSS to save 5 ms.
_DIRECT_COST = 2.0


def _n_var(sums, squares, n):
    """n * variance of windows from their sums; NaN where flat, so no score taken with it wins."""
    n_var = squares - sums * sums / n
    n_var[n_var <= _VAR_EPS] = np.nan
    return n_var


def _plane_sums(left, shifted, ys, xs, k):
    """The plane path: ``sums(d, a, b, i, j)`` gives textured windows ``i:j``'s
    sum of L * R and the right windows' sum and :func:`_n_var` at offset d,
    which pairs left columns ``a:b`` with shifted-panel columns ``a-d:b-d``."""
    rows, w = shifted.shape
    sum_r = _window_sums(shifted, k)
    var_r_n = _n_var(sum_r, _window_sums(shifted * shifted, k), float(k * k)).ravel()
    sum_r, at_r = sum_r.ravel(), ys * (w - k + 1) + xs
    # One prefix-sum buffer serves every offset.  Offset d's product band has its
    # prefix sums at columns a..b, with column a zeroed as the origin, so window
    # x reads its corners at columns x and x + k whatever the offset.
    c = np.zeros((rows + 1, w + 1))
    cf = c.ravel()
    top, bottom = ys * (w + 1) + xs, (ys + k) * (w + 1) + xs

    def sums(d, a, b, i, j):
        band = c[1:, a + 1 : b + 1]
        c[1:, a] = 0.0
        np.multiply(left[:, a:b], shifted[:, a - d : b - d], out=band)
        np.cumsum(band, axis=0, out=band)
        np.cumsum(band, axis=1, out=band)
        t, u, r = top[i:j], bottom[i:j], at_r[i:j] - d
        return cf[u + k] - cf[t + k] - cf[u] + cf[t], sum_r[r], var_r_n[r]

    return sums


def _direct_sums(left, shifted, ys, xs, k):
    """The direct path: :func:`_plane_sums`' ``sums``, taken from the k x k
    windows of the shifted panel that the textured ones meet at offset d."""
    win_l = sliding_window_view(left, (k, k))[ys, xs].reshape(ys.size, -1)
    win_r = sliding_window_view(shifted, (k, k))

    def sums(d, a, b, i, j):
        r = win_r[ys[i:j], xs[i:j] - d].reshape(j - i, -1)
        sum_r = np.einsum("ij->i", r)
        n_var = _n_var(sum_r, np.einsum("ij,ij->i", r, r), float(k * k))
        return np.einsum("ij,ij->i", win_l[i:j], r), sum_r, n_var

    return sums


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

    Dense pairs take each offset's product and its prefix sums over the plane;
    sparse pairs gather each textured window's k x k right-panel window at each
    offset.  The two add in different orders, so scores can differ in the last bits.
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
    k, half, n = window_px, window_px // 2, float(window_px * window_px)
    disparity = np.full((h, w), np.nan)
    reach = min(search_range_px, w - k)
    lo = max(-reach, -shift_px)  # a negative total disparity is not searched
    # a compensation shift of a whole width leaves no right-panel content to score
    if lo > reach or h < k or abs(shift_px) >= w:
        return DisparityMap(disparity)

    # statistics are in window coordinates: [y, x] is the window with top-left pixel (y, x)
    sum_l = _window_sums(left, k)
    var_l_n = _n_var(sum_l, _window_sums(left * left, k), n)
    textured = np.sqrt(var_l_n / n) >= min_texture  # never a flat window
    # only a textured window can match; they are taken in column order, so the
    # windows that an offset covers are one contiguous run
    xs, ys = np.nonzero(textured.T)
    if not xs.size:
        return DisparityMap(disparity)
    sl, vl = sum_l[ys, xs], var_l_n[ys, xs]
    # freed before the right panel's planes are made, to keep the peak down
    del sum_l, var_l_n, textured
    # rows below the last textured window's are never read; cutting them changes no sum
    rows = int(ys.max()) + k
    shifted = shift_image(right[:rows], shift_px)
    paired = _direct_sums if xs.size * n < _DIRECT_COST * rows * w else _plane_sums
    sums = paired(left[:rows], shifted, ys, xs, k)

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
        i, j = np.searchsorted(xs, (a, b - k + 1))
        if i == j:
            continue
        prod, sum_r, var_r_n = sums(d, a, b, i, j)
        s = (prod - sl[i:j] * sum_r / n) / np.sqrt(vl[i:j] * var_r_n)

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
