import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig import vision
from stereorig.geometry import CameraIntrinsics, depth_resolution_mm
from stereorig.scene import RangeReading, RigPose, load_scene, render_stereo_pair
from stereorig.vision import (
    back_project,
    compensation_shift,
    depth_map_from_disparity,
    match_correlation,
    pixel_to_world,
    shift_image,
    DepthMap,
)

INTR = CameraIntrinsics(focal_px=800.0, image_width_px=128, image_height_px=96)
# wide lens (60 degree horizontal fov) for room-scale matching tests
ROOM_INTR = CameraIntrinsics(
    focal_px=128.0 * math.sqrt(3.0), image_width_px=256, image_height_px=192
)


@contextlib.contextmanager
def _paths_taken():
    """Record, for each matcher call that scores, whether it took the direct path."""
    taken = []

    def spy(path, direct):
        def record(*args):
            taken.append(direct)
            return path(*args)

        return record

    with (
        mock.patch.object(vision, "_direct_sums", spy(vision._direct_sums, True)),
        mock.patch.object(vision, "_plane_sums", spy(vision._plane_sums, False)),
    ):
        yield taken


def _blobs(rng, shape, count, size, values):
    """A 0 panel with ``count`` square blobs of edge ``size`` drawn by ``values(rng, shape)``."""
    img = np.zeros(shape)
    for _ in range(count):
        y = rng.integers(0, shape[0] - size + 1)
        x = rng.integers(0, shape[1] - size + 1)
        img[y : y + size, x : x + size] = values(rng, (size, size))
    return img


def test_shift_zero_is_identity():
    img = np.random.default_rng(0).random((8, 10))
    assert np.array_equal(shift_image(img, 0), img)


def test_shift_moves_lit_pixel():
    img = np.zeros((4, 20))
    img[2, 10] = 1.0
    out = shift_image(img, 3)
    assert out[2, 13] == 1.0
    assert out.sum() == 1.0


def test_shift_then_inverse_restores_interior():
    img = np.random.default_rng(1).random((6, 16))
    out = shift_image(shift_image(img, 5), -5)
    assert np.array_equal(out[:, : 16 - 5], img[:, : 16 - 5])
    assert (out[:, 16 - 5 :] == 0.0).all()


def test_shift_domain_error():
    with pytest.raises(ValueError):
        shift_image(np.zeros((4, 8)), 8)


def test_compensation_shift_examples():
    assert compensation_shift(RangeReading(2000.0, 10.0), 100.0, INTR) == 40
    assert compensation_shift(RangeReading(2000.0, 10.0), 0.0, INTR) == 0
    # 800 * 100 / 1950 = 41.03 -> 41
    assert compensation_shift(RangeReading(1950.0, 10.0), 100.0, INTR) == 41
    assert compensation_shift(RangeReading(None, 10.0), 100.0, INTR) is None


def test_match_constructed_exact_pair():
    rng = np.random.default_rng(2)
    left = rng.random((32, 64))
    right = shift_image(left, -7)
    disp = match_correlation(left, right, shift_px=7, search_range_px=0, subpixel=False)
    matched = np.isfinite(disp.disparity)
    assert matched.any()
    assert (disp.disparity[matched] == 7.0).all()


def test_match_flat_images_all_sentinel():
    flat = np.zeros((24, 40))
    disp = match_correlation(flat, flat, shift_px=0)
    assert disp.matched_count == 0


@pytest.mark.parametrize("shift", [64, 373, -64])
def test_match_shift_of_a_whole_width_is_unmatched(shift):
    img = np.random.default_rng(3).random((32, 64))
    assert match_correlation(img, img, shift_px=shift).matched_count == 0


def test_match_search_wider_than_image_skips_empty_offsets():
    left = np.random.default_rng(4).random((16, 24))
    right = shift_image(left, -5)
    # offsets above 24 - 7 leave no full window of real columns
    narrow = match_correlation(left, right, shift_px=0, search_range_px=17)
    assert narrow.matched_count > 0
    for search in (30, 10**9):
        wide = match_correlation(left, right, shift_px=0, search_range_px=search)
        assert np.array_equal(wide.disparity, narrow.disparity, equal_nan=True)


def _reference_ncc(left, right, shift_px, window_px, search_range_px, min_score, subpixel):
    """Zero-mean NCC straight from its definition, one pixel and one offset at a time.

    The right panel is moved by ``shift_px`` with vacated columns 0; a
    candidate window must lie inside that panel.  Ties go to the smaller
    |delta|, then the negative one; the peak is refined by a parabola
    through its two neighbours when both are scored.
    """
    h, w = left.shape
    half = window_px // 2

    def score(y, x, d):
        first = x - d - half  # window's first column in the moved right panel
        if abs(d) > search_range_px or shift_px + d < 0 or first < 0 or first + window_px > w:
            return -math.inf
        src = np.arange(first, first + window_px) - shift_px
        r = right[y - half : y + half + 1, np.clip(src, 0, w - 1)] * ((src >= 0) & (src < w))
        l = left[y - half : y + half + 1, x - half : x + half + 1]
        a, b = l - l.mean(), r - r.mean()
        var_l, var_r = (a * a).sum(), (b * b).sum()
        if var_l <= 1e-12 or var_r <= 1e-12:
            return -math.inf
        return (a * b).sum() / math.sqrt(var_l * var_r)

    deltas = sorted(range(-search_range_px, search_range_px + 1), key=lambda d: (abs(d), d))
    out = np.full((h, w), np.nan)
    for y in range(half, h - half):
        for x in range(half, w - half):
            if left[y - half : y + half + 1, x - half : x + half + 1].std() < 0.02:
                continue
            best, best_d = -math.inf, 0
            for d in deltas:
                s = score(y, x, d)
                if s > best:
                    best, best_d = s, d
            if best < min_score:
                continue
            frac = 0.0
            sm, sp = score(y, x, best_d - 1), score(y, x, best_d + 1)
            denom = sm - 2.0 * best + sp
            if subpixel and math.isfinite(sm) and math.isfinite(sp) and denom < -1e-12:
                frac = min(max(0.5 * (sm - sp) / denom, -0.5), 0.5)
            out[y, x] = shift_px + best_d + frac
    return out


# (true_disp, shift, window, search): random 12 x 20 pairs, which take the
# plane path
_SMALL_CASES = [(3, 0, 3, 5), (3, 3, 5, 2), (2, -3, 5, 6), (5, 7, 7, 3), (4, 0, 7, 30),
                (13, 0, 7, 30), (6, 2, 3, 8), (0, 0, 9, 0), (2, 20, 3, 4)]
# (..., blobs, direct): that many blobs on a 0 background of 80 x 120, and
# whether they are sparse enough to take the direct path
_BLOB_CASES = [(3, 0, 7, 5, 3, True), (5, 3, 5, 4, 2, True), (2, -2, 9, 3, 2, False),
               (4, 0, 7, 20, 4, False)]


@pytest.mark.parametrize(
    "true_disp, shift, window, search, blobs, direct",
    [pytest.param(*case, 0, False, id="-".join(map(str, case))) for case in _SMALL_CASES]
    + [pytest.param(*case, id="-".join(map(str, case[:4])) + f"-blobs{case[4]}")
       for case in _BLOB_CASES],
)
def test_match_equals_direct_ncc_reference(true_disp, shift, window, search, blobs, direct):
    rng = np.random.default_rng(true_disp * 100 + window)
    if blobs:
        left = _blobs(rng, (80, 120), blobs, 6, lambda rng, shape: rng.random(shape))
        right = np.zeros_like(left)
    else:
        left, right = rng.random((12, 20)), rng.random((12, 20))
    h, w = left.shape
    noise = 0.05 * rng.random((h, w - true_disp))
    right[:, : w - true_disp] = left[:, true_disp:] + noise * (left[:, true_disp:] > 0)
    for subpixel in (False, True):
        ref = _reference_ncc(left, right, shift, window, search, 0.2, subpixel)
        with _paths_taken() as taken:
            got = match_correlation(
                left, right, shift, window_px=window, search_range_px=search, min_score=0.2,
                subpixel=subpixel,
            ).disparity
        assert taken == ([direct] if shift < w else [])
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        assert np.isfinite(ref).any() == (shift < w)
        assert np.abs(got - ref)[np.isfinite(ref)].max(initial=0.0) <= 1e-9


def _cube_ncc(left, right, shift_px, window_px, search_range_px, min_score, min_texture, subpixel):
    """Reference matcher: a full score cube over every offset and window, then
    a tie-break pass in (|delta|, delta) order, keeping the first best."""
    h, w = left.shape
    k, half, n = window_px, window_px // 2, float(window_px * window_px)

    def sums(img):
        c = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
        np.cumsum(np.cumsum(img, axis=0), axis=1, out=c[1:, 1:])
        return c[k:, k:] - c[:-k, k:] - c[k:, :-k] + c[:-k, :-k]

    disparity = np.full((h, w), np.nan)
    reach = min(search_range_px, w - k)
    deltas = [
        d for d in sorted(range(-reach, reach + 1), key=lambda d: (abs(d), d)) if shift_px + d >= 0
    ]
    if not deltas or h < k or abs(shift_px) >= w:
        return disparity
    shifted = shift_image(right, shift_px)
    sum_l = sums(left)
    var_l_n = sums(left * left) - sum_l * sum_l / n
    sum_r = sums(shifted)
    var_r_n = sums(shifted * shifted) - sum_r * sum_r / n
    textured = np.sqrt(np.maximum(var_l_n / n, 0.0)) >= min_texture
    var_l_n[var_l_n <= 1e-12] = np.nan
    var_r_n[var_r_n <= 1e-12] = np.nan

    lo, hi = min(deltas), max(deltas)
    scores = np.full((hi - lo + 1,) + sum_l.shape, -np.inf)
    for d in deltas:
        a, b = max(d, 0), min(w + d, w)
        at_l, at_r = slice(a, b - k + 1), slice(a - d, b - d - k + 1)
        prod = sums(left[:, a:b] * shifted[:, a - d : b - d])
        cov = prod - sum_l[:, at_l] * sum_r[:, at_r] / n
        scores[d - lo, :, at_l] = cov / np.sqrt(var_l_n[:, at_l] * var_r_n[:, at_r])

    best_score = np.full(sum_l.shape, -np.inf)
    best_delta = np.zeros(sum_l.shape, dtype=np.int64)
    for d in deltas:
        better = scores[d - lo] > best_score
        best_score[better] = scores[d - lo][better]
        best_delta[better] = d
    matched = textured & (best_score >= min_score)

    result = shift_px + best_delta.astype(float)
    if subpixel:
        offs = np.zeros(sum_l.shape)
        idx = best_delta - lo
        ys, xs = np.nonzero(matched & (best_delta > lo) & (best_delta < hi))
        if ys.size:
            s0 = scores[idx[ys, xs], ys, xs]
            sm = scores[idx[ys, xs] - 1, ys, xs]
            sp = scores[idx[ys, xs] + 1, ys, xs]
            denom = sm - 2.0 * s0 + sp
            valid = np.isfinite(sm) & np.isfinite(sp) & (denom < -1e-12)
            frac = np.zeros_like(s0)
            frac[valid] = 0.5 * (sm[valid] - sp[valid]) / denom[valid]
            offs[ys, xs] = np.clip(frac, -0.5, 0.5)
        result = result + offs
    disparity[half : h - half, half : w - half][matched] = result[matched]
    return disparity


def _cube_case(seed, h, w, period, true_disp, flat, blobs):
    """A pair whose values lie on a 1/4 grid, so every window sum is exact.

    A short horizontal period repeats windows, so scores tie exactly across
    offsets: the right panel is the left one moved by true_disp, and every
    alias of that disparity scores the same, on both sides of zero.  With
    ``blobs``, the left panel is that many such patches on a 0 background.
    """
    rng = np.random.default_rng(seed)

    def periodic(rng, shape):
        return np.tile(rng.integers(0, 5, size=(shape[0], period)), -(-shape[1] // period))[
            :, : shape[1]
        ] / 4.0

    if blobs:
        left = _blobs(rng, (h, w), blobs, 8, periodic)
        right = np.zeros((h, w))
    else:
        left, right = periodic(rng, (h, w)), periodic(rng, (h, w))
    t = min(true_disp, w)
    right[:, : w - t] = left[:, t:]
    if flat:
        left[: h // 2, : w // 2] = 0.5
        right[h // 3 :, w // 3 :] = 0.25
    return left, right


def _assert_equals_cube_matcher(left, right, shift, window, search, min_score, min_texture, subpixel):
    """Match against the score-cube reference bit for bit; returns the paths taken."""
    ref = _cube_ncc(left, right, shift, window, search, min_score, min_texture, subpixel)
    with _paths_taken() as taken:
        got = match_correlation(
            left, right, shift, window_px=window, search_range_px=search, min_score=min_score,
            min_texture=min_texture, subpixel=subpixel,
        ).disparity
    assert np.array_equal(got, ref, equal_nan=True)
    return taken


_CUBE_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    period=st.integers(1, 4),
    true_disp=st.integers(0, 6),
    window=st.sampled_from([3, 5, 7, 9]),
    shift=st.one_of(st.integers(-3, 6), st.integers(-32, 32)),
    search=st.one_of(st.integers(0, 34), st.just(10**9)),
    min_score=st.sampled_from([-1.0, 0.0, 0.6, 1.0]),
    min_texture=st.sampled_from([0.0, 0.02, 0.2, 1.0]),
    flat=st.booleans(),
    subpixel=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(extra_h=st.integers(-1, 12), extra_w=st.integers(-1, 20), **_CUBE_DRAWS)
def test_match_equals_cube_matcher(
    seed, extra_h, extra_w, period, true_disp, window, shift, search, min_score, min_texture,
    flat, subpixel,
):
    left, right = _cube_case(
        seed, window + extra_h, window + extra_w, period, true_disp, flat, blobs=0
    )
    _assert_equals_cube_matcher(
        left, right, shift, window, search, min_score, min_texture, subpixel
    )


@settings(max_examples=100, deadline=None)
@given(blobs=st.integers(1, 4), **_CUBE_DRAWS)
def test_match_equals_cube_matcher_on_sparse_blobs(
    seed, blobs, period, true_disp, window, shift, search, min_score, min_texture, flat, subpixel,
):
    # blobs on an 80 x 120 panel, which can take the direct path
    left, right = _cube_case(seed, 80, 120, period, true_disp, flat, blobs)
    _assert_equals_cube_matcher(
        left, right, shift, window, search, min_score, min_texture, subpixel
    )


def test_cube_matcher_cases_take_both_layouts():
    taken = []
    for seed, blobs, search in ((1, 3, 6), (2, 1, 10**9), (3, 0, 6)):
        h, w = (80, 120) if blobs else (14, 25)
        left, right = _cube_case(seed, h, w, 2, 3, False, blobs)
        taken += _assert_equals_cube_matcher(left, right, 2, 7, search, 0.6, 0.02, True)
    # patches in two corners: the direct path gathers windows at the panels' edges
    rng = np.random.default_rng(4)
    left, right = np.zeros((80, 120)), np.zeros((80, 120))
    for y, x in ((0, 0), (72, 112)):
        left[y : y + 8, x : x + 8] = rng.integers(1, 5, size=(8, 8)) / 4.0
    right[:, :117] = left[:, 3:]
    taken += _assert_equals_cube_matcher(left, right, 2, 7, 6, 0.6, 0.02, True)
    assert taken == [False, True, False, True]


def test_match_memory_does_not_grow_with_search_range():
    rng = np.random.default_rng(5)
    noise = rng.random((120, 160)), rng.random((120, 160))
    sparse = _blobs(rng, (120, 160), 3, 8, lambda rng, shape: rng.random(shape))

    def peak(left, right, search):
        tracemalloc.start()
        try:
            match_correlation(left, right, 0, search_range_px=search)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # random panels take the plane path, blobs on a 0 background the direct one
    for (left, right), direct in ((noise, False), ((sparse, shift_image(sparse, -4)), True)):
        with _paths_taken() as taken:
            assert peak(left, right, 10**9) <= 1.25 * peak(left, right, 8)
        assert taken == [direct, direct]


def test_match_rendered_single_point():
    scene = load_scene("p 0 0 2000 0.9")
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, INTR, blob_radius_px=3.0)
    disp = match_correlation(pair.left, pair.right, shift_px=40, search_range_px=8, window_px=7)
    covered = np.isfinite(pair.truth_disparity)
    textured = covered.copy()
    matched = np.isfinite(disp.disparity)
    good = matched & covered & (np.abs(disp.disparity - pair.truth_disparity) <= 0.5)
    assert good.sum() >= 0.9 * textured.sum()


def test_match_dimension_mismatch():
    with pytest.raises(ValueError):
        match_correlation(np.zeros((4, 8)), np.zeros((4, 9)), 0)


def test_match_shift_linearity_integer_case():
    rng = np.random.default_rng(3)
    left = rng.random((30, 80))
    right = shift_image(left, -4)
    base = match_correlation(left, right, shift_px=4, search_range_px=2, subpixel=False)
    shifted_more = shift_image(right, -3)  # disparity now 7 everywhere
    out = match_correlation(left, shifted_more, shift_px=7, search_range_px=2, subpixel=False)
    both = np.isfinite(base.disparity) & np.isfinite(out.disparity)
    assert both.any()
    np.testing.assert_array_equal(out.disparity[both], base.disparity[both] + 3.0)


def test_match_compensation_equivalence():
    scene = load_scene("room 4000 3000 2500 120 seed 11")
    pair = render_stereo_pair(scene, RigPose(0.0), 120.0, ROOM_INTR, blob_radius_px=2.0)
    shift = 18  # approx disparity of the facing wall: 221.7*120/1500
    narrow = match_correlation(pair.left, pair.right, shift_px=shift, search_range_px=6)
    wide = match_correlation(pair.left, pair.right, shift_px=0, search_range_px=shift + 6)
    both = np.isfinite(narrow.disparity) & np.isfinite(wide.disparity)
    # where the wide search settled inside the narrow band, results must agree
    inside = both & (wide.disparity >= shift - 6) & (wide.disparity <= shift + 6)
    assert inside.any()
    np.testing.assert_allclose(
        narrow.disparity[inside], wide.disparity[inside], rtol=0, atol=1e-12
    )


def test_subpixel_never_moves_peak_more_than_half():
    scene = load_scene("room 4000 3000 2500 150 seed 13")
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, ROOM_INTR, blob_radius_px=2.0)
    coarse = match_correlation(pair.left, pair.right, shift_px=15, search_range_px=8, subpixel=False)
    fine = match_correlation(pair.left, pair.right, shift_px=15, search_range_px=8, subpixel=True)
    both = np.isfinite(coarse.disparity) & np.isfinite(fine.disparity)
    assert both.any()
    assert np.max(np.abs(fine.disparity[both] - coarse.disparity[both])) <= 0.5


def test_disparities_stay_inside_search_band():
    scene = load_scene("room 4000 3000 2500 200 seed 17")
    pair = render_stereo_pair(scene, RigPose(0.0), 70.0, ROOM_INTR, blob_radius_px=2.0)
    shift, search = 10, 8
    disp = match_correlation(pair.left, pair.right, shift_px=shift, search_range_px=search)
    values = disp.disparity[np.isfinite(disp.disparity)]
    assert values.size
    assert (values >= 0.0).all()
    assert (values <= shift + search).all()


def test_depth_map_examples():
    disp = match_correlation(np.zeros((8, 16)), np.zeros((8, 16)), 0)
    disp.disparity[4, 8] = 40.0
    disp.disparity[4, 9] = 0.0
    depth = depth_map_from_disparity(disp, 100.0, INTR)
    assert depth.depth_mm[4, 8] == pytest.approx(2000.0)
    assert math.isnan(depth.depth_mm[4, 9])  # zero disparity: at infinity
    assert math.isnan(depth.depth_mm[0, 0])  # sentinel propagates


def make_depth(shape, value, heading=0.0):
    d = np.full(shape, np.nan)
    return d, DepthMap(depth_mm=d, intrinsics=INTR, heading_deg=heading)


def test_back_project_center_pixel_heading_zero():
    d, depth = make_depth((96, 128), np.nan)
    d[48, 64] = 2000.0  # the (cx, cy) pixel
    frag = back_project(depth, RigPose(0.0))
    assert len(frag) == 1
    np.testing.assert_allclose(frag.xyz[0], [0.0, 0.0, 2000.0], atol=1e-6)


def test_back_project_center_pixel_heading_90():
    # independent oracle: rotate the boresight ray by the world-from-camera
    # rotation matrix for a 90 degree compass heading
    h = math.radians(90.0)
    rot = np.array(
        [[math.cos(h), 0.0, math.sin(h)], [0.0, 1.0, 0.0], [-math.sin(h), 0.0, math.cos(h)]]
    )
    expected = rot @ np.array([0.0, 0.0, 2000.0])
    np.testing.assert_allclose(expected, [2000.0, 0.0, 0.0], atol=1e-9)
    d, depth = make_depth((96, 128), np.nan, heading=90.0)
    d[48, 64] = 2000.0
    frag = back_project(depth, RigPose(90.0))
    np.testing.assert_allclose(frag.xyz[0], expected, atol=1e-6)


def test_back_project_empty():
    _, depth = make_depth((96, 128), np.nan)
    assert len(back_project(depth, RigPose(0.0))) == 0


def test_back_project_carries_intensity():
    d = np.full((96, 128), np.nan)
    d[10, 20] = 1500.0
    depth = DepthMap(depth_mm=d, intrinsics=INTR)
    img = np.zeros((96, 128))
    img[10, 20] = 0.75
    frag = back_project(depth, RigPose(0.0), intensities=img)
    assert frag.intensity[0] == 0.75


def test_pixel_to_world_inverts_projection():
    # round trip: project a point manually, then back-project at exact coords
    point = np.array([300.0, -150.0, 2200.0])
    u = INTR.cx + INTR.focal_px * point[0] / point[2]
    v = INTR.cy + INTR.focal_px * (-point[1]) / point[2]
    out = pixel_to_world(u, v, point[2], INTR, heading_deg=0.0)
    np.testing.assert_allclose(out, point, atol=1e-9)


def test_end_to_end_disparity_and_depth_on_room():
    scene = load_scene("room 4000 3000 2500 300 seed 7")
    baseline = 60.0
    pair = render_stereo_pair(scene, RigPose(0.0), baseline, ROOM_INTR, blob_radius_px=2.0)
    shift = compensation_shift(RangeReading(1500.0, 10.0), baseline, ROOM_INTR)
    disp = match_correlation(pair.left, pair.right, shift_px=shift, search_range_px=8)
    covered = np.isfinite(pair.truth_disparity)
    half = 7 // 2  # match_correlation's default window
    interior = np.zeros_like(covered)
    interior[half:-half, half:-half] = True
    denom = covered & interior
    good = (
        np.isfinite(disp.disparity)
        & denom
        & (np.abs(disp.disparity - pair.truth_disparity) <= 1.0)
    )
    assert good.sum() >= 0.85 * denom.sum()
    depth = depth_map_from_disparity(disp, baseline, ROOM_INTR)
    truth_depth = ROOM_INTR.focal_px * baseline / pair.truth_disparity
    both = np.isfinite(depth.depth_mm) & covered
    err = np.abs(depth.depth_mm[both] - truth_depth[both])
    budget = 2.0 * np.array(
        [depth_resolution_mm(z, baseline, ROOM_INTR) for z in truth_depth[both]]
    )
    assert (err < budget).mean() >= 0.8
