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


def _patches(panel: np.ndarray, ty: np.ndarray, x: np.ndarray, tile_h: int, h: int, w: int):
    """Stack of ``panel[ty[i] * tile_h : ty[i] * tile_h + h, x[i] : x[i] + w]`` over i.

    A single patch is returned as a view.  More are gathered from a strided
    view of the panel, so only the patches themselves are copied.
    """
    if ty.size == 1:
        y0, x0 = int(ty[0]) * tile_h, int(x[0])
        return panel[None, y0 : y0 + h, x0 : x0 + w]
    rs, cs = panel.strides
    shape = ((panel.shape[0] - h) // tile_h + 1, panel.shape[1] - w + 1, h, w)
    view = np.lib.stride_tricks.as_strided(panel, shape, (tile_h * rs, cs, rs, cs), writeable=False)
    return view[ty, x]


def _padded(panel: np.ndarray, shape: tuple[int, int], pad: int) -> np.ndarray:
    """``panel`` placed ``pad`` columns in on a 0 plane of ``shape``; itself if it fills it."""
    if panel.shape == shape:
        return panel
    out = np.zeros(shape)
    out[: panel.shape[0], pad : pad + panel.shape[1]] = panel
    return out


# Edge of the window tiles that the matcher computes on when the textured
# windows are sparse; a power of two, so a window's tile is a shift away.
_TILE_BITS = 4
_TILE = 1 << _TILE_BITS
# The tile layout is taken only when its tiles, halo included, cost less than
# the plane: one tile pixel counts for this many plane pixels, since each
# offset gathers the tile's right-panel patch and its prefix sums run along
# rows only 16 + k - 1 long.  Timed on the 54 pairs of the three benchmark
# workloads at seeds 3 and 7, the tiles won below about 0.8 of the plane's
# area (by 2-18 %) and lost above 0.85 (by up to 1.7x); 1.5 puts the switch
# at 0.67, on the side where a wrong pick costs little.
_TILE_COST = 1.5


def _tile_layout(ys: np.ndarray, xs: np.ndarray, k: int, w: int):
    """The tiles of the window grid that the matcher computes on.

    ``ys``, ``xs`` are the textured windows.  Returns the tile size, the
    tile grid's shape, each tile's row and column, listed in column order
    so that the tiles an offset covers are one contiguous run, and each
    window's tile.  Windows below the last textured row are never read, so
    no tile covers them.  The whole grid is one tile unless the 16 x 16
    tiles that hold a textured window cost less than it.
    """
    grid_h, grid_w = int(ys.max()) + 1, w - k + 1
    shape = (-(-grid_h // _TILE), -(-grid_w // _TILE))
    cell = (ys >> _TILE_BITS) * shape[1] + (xs >> _TILE_BITS)  # each window's tile
    kept = np.zeros(shape, dtype=bool)
    kept.ravel()[cell] = True
    tile_tx, tile_ty = np.nonzero(kept.T)
    if tile_tx.size * (_TILE + k - 1) ** 2 * _TILE_COST < (grid_h + k - 1) * w:
        tile_id = np.zeros(kept.size, dtype=np.int64)
        tile_id[tile_ty * shape[1] + tile_tx] = np.arange(tile_tx.size)
        return _TILE, _TILE, shape, tile_ty, tile_tx, tile_id[cell]
    origin = np.zeros(1, dtype=np.int64)
    return grid_h, grid_w, (1, 1), origin, origin, np.zeros(ys.size, dtype=np.int64)


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

    Each offset's product and its prefix sums are taken per tile of the
    window grid.  When the textured windows are sparse, the tiles are the
    16 x 16 ones that hold a textured window, each with a k - 1 halo.
    Otherwise the whole grid is one tile.  The window sums of both panels
    are taken over the plane either way.  A prefix sum's origin moves with
    the layout, so the two layouts can differ in the last bits of a score.
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
    # a flat window cannot be scored; its NaN score never wins a comparison
    var_l_n[var_l_n <= _VAR_EPS] = np.nan
    at_l = ys * sum_l.shape[1] + xs
    sl, vl = sum_l.ravel()[at_l], var_l_n.ravel()[at_l]
    # freed before the right panel's planes are made, to keep the peak down
    del sum_l, var_l_n, textured

    tile_h, tile_w, (grid_th, grid_tw), tile_ty, tile_tx, win_tile = _tile_layout(ys, xs, k, w)
    th, tw = tile_h + k - 1, tile_w + k - 1  # a tile's pixels, halo included
    plane_h, plane_w = grid_th * tile_h, grid_tw * tile_w  # the tiled window grid
    x0 = tile_tx * tile_w
    # The panels cut to the tiled grid and zero-padded where it overhangs them,
    # the right one moved by the compensation shift.  A tile is computed at an
    # offset only if one of its windows is in range there, so its right-panel
    # patch lies at most _TILE - 1 columns outside the panel: the right one is
    # padded that much either side.  With one column of tiles, every tile
    # starts at column 0 and no patch leaves the panel.
    pad = _TILE - 1 if grid_tw > 1 else 0
    rows = min(h, plane_h + k - 1)
    lp = _padded(left[:rows], (plane_h + k - 1, plane_w + k - 1), 0)
    left_tiles = _patches(lp, tile_ty, x0, tile_h, th, tw)
    rp = _padded(shift_image(right[:rows], shift_px), (lp.shape[0], lp.shape[1] + 2 * pad), pad)
    shifted = rp[:, pad : pad + lp.shape[1]]
    sum_r = _window_sums(shifted, k)
    var_r_n = _window_sums(shifted * shifted, k) - sum_r * sum_r / n
    var_r_n[var_r_n <= _VAR_EPS] = np.nan
    sum_r, var_r_n = sum_r.ravel(), var_r_n.ravel()
    at_r = ys * plane_w + xs

    # One prefix-sum buffer per tile serves every offset.  Offset d's product
    # (left columns a:b, tile-local columns ca:cb) has its prefix sums at
    # columns ca..cb, with column ca zeroed as the origin, so window x reads
    # its corners at local columns x and x + k whatever the offset.
    c = np.zeros((tile_tx.size, th + 1, tw + 1))
    cf = c.ravel()
    # flat index of each tile's window (0, 0), less the tile's grid origin
    origin = np.arange(tile_tx.size) * c[0].size - tile_ty * tile_h * (tw + 1) - x0
    top = origin[win_tile] + ys * (tw + 1) + xs
    bottom = top + k * (tw + 1)

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
        t0, t1 = np.searchsorted(tile_tx, (a // tile_w, (b - k) // tile_w + 1))
        ca, cb = max(a - x0[t1 - 1], 0), min(b - x0[t0], tw)
        # tile t's patch is right-panel columns x0 + ca - d : x0 + cb - d
        patch = _patches(rp, tile_ty[t0:t1], x0[t0:t1] + ca + pad - d, tile_h, th, cb - ca)
        band = c[t0:t1, 1:, ca + 1 : cb + 1]
        c[t0:t1, 1:, ca] = 0.0
        np.multiply(left_tiles[t0:t1, :, ca:cb], patch, out=band)
        np.cumsum(band, axis=1, out=band)
        np.cumsum(band, axis=2, out=band)
        t, u = top[i:j], bottom[i:j]
        prod = cf[u + k] - cf[t + k] - cf[u] + cf[t]
        r = at_r[i:j] - d
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
