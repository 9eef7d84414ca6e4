import math

import numpy as np
import pytest

from stereorig.geometry import CameraIntrinsics
from stereorig.scene import (
    MAX_SCENE_POINTS,
    RigPose,
    Scene,
    SceneParseError,
    XorShift64Star,
    load_scene,
    range_reading,
    render_stereo_pair,
)

INTR = CameraIntrinsics(focal_px=800.0, image_width_px=128, image_height_px=96)


def test_load_single_point():
    scene = load_scene("p 0 0 2000 0.8")
    assert len(scene) == 1
    assert scene.points[0].tolist() == [0.0, 0.0, 2000.0, 0.8]


def test_load_room_is_deterministic():
    text = "room 4000 3000 2500 200 seed 42"
    a = load_scene(text)
    b = load_scene(text)
    assert np.array_equal(a.points, b.points)
    assert len(a) == 200


def test_load_room_points_lie_on_faces():
    scene = load_scene("room 4000 3000 2500 500 seed 3")
    x, y, z = scene.xyz[:, 0], scene.xyz[:, 1], scene.xyz[:, 2]
    on_face = (
        np.isclose(np.abs(x), 2000.0)
        | np.isclose(np.abs(z), 1500.0)
        | np.isclose(np.abs(y), 1250.0)
    )
    assert on_face.all()
    assert (np.abs(x) <= 2000.0).all()
    assert (np.abs(y) <= 1250.0).all()
    assert (np.abs(z) <= 1500.0).all()
    assert (scene.intensity >= 0.3).all() and (scene.intensity <= 1.0).all()


def test_load_rejects_nan_with_line_number():
    with pytest.raises(SceneParseError, match="line 1"):
        load_scene("p 0 0 nan 0.5")


def test_load_reports_later_line_numbers():
    with pytest.raises(SceneParseError, match="line 3"):
        load_scene("p 0 0 1000 0.5\n# comment\np 1 2\n")


def test_load_rejects_unknown_directive():
    with pytest.raises(SceneParseError):
        load_scene("q 1 2 3 4")


def test_load_rejects_empty_scene():
    with pytest.raises(SceneParseError):
        load_scene("# only a comment\n\n")


def test_load_rejects_point_at_rig_center():
    with pytest.raises(SceneParseError, match="line 2"):
        load_scene("p 0 0 1000 0.5\np 0 0 0 0.5\n")


def test_load_rejects_scenes_over_the_point_cap(monkeypatch):
    # rejected before the room generates a single point
    with pytest.raises(SceneParseError, match="line 2: scene exceeds 1000000 points"):
        load_scene(f"p 0 0 2000 0.5\nroom 4000 3000 2500 {MAX_SCENE_POINTS} seed 1")
    with pytest.raises(SceneParseError, match="line 1"):
        load_scene("room 4000 3000 2500 1000000000 seed 1")
    monkeypatch.setattr("stereorig.scene.MAX_SCENE_POINTS", 3)
    assert len(load_scene("p 0 0 2000 0.5\nroom 4000 3000 2500 2 seed 1")) == 3
    with pytest.raises(SceneParseError, match="line 4"):
        load_scene("p 0 0 2000 0.5\n" * 4)


def test_xorshift_known_sequence_is_stable():
    rng = XorShift64Star(42)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = XorShift64Star(42)
    assert [rng2.next_u64() for _ in range(3)] == first
    assert all(0 <= v <= (1 << 64) - 1 for v in first)
    floats = [XorShift64Star(7).next_float() for _ in range(1)]
    assert 0.0 <= floats[0] < 1.0


def test_range_reading_on_boresight():
    scene = load_scene("p 0 0 2000 0.8")
    reading = range_reading(scene, RigPose(0.0), 5.0)
    assert reading.distance_mm == pytest.approx(2000.0)


def test_range_reading_behind_cone():
    scene = load_scene("p 0 0 2000 0.8")
    assert range_reading(scene, RigPose(90.0), 5.0).distance_mm is None


def test_range_reading_nearest_wins():
    scene = load_scene("p 0 0 2000 0.8\np 0 0 3000 0.8")
    assert range_reading(scene, RigPose(0.0), 5.0).distance_mm == pytest.approx(2000.0)


def test_range_reading_sensor_window():
    near = load_scene("p 0 0 50 0.5")
    far = load_scene("p 0 0 90000 0.5")
    assert range_reading(near, RigPose(0.0), 5.0).distance_mm is None
    assert range_reading(far, RigPose(0.0), 5.0).distance_mm is None


def test_range_reading_cone_validation():
    scene = load_scene("p 0 0 2000 0.8")
    with pytest.raises(ValueError):
        range_reading(scene, RigPose(0.0), 0.0)
    with pytest.raises(ValueError):
        range_reading(scene, RigPose(0.0), 50.0)


def brightest_pixel(img):
    flat = int(np.argmax(img))
    return flat // img.shape[1], flat % img.shape[1]  # (row, col)


def test_render_one_point_blob_positions_and_truth():
    scene = load_scene("p 0 0 2000 0.9")
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, INTR, blob_radius_px=2.0)
    # reference camera sits at the rig center: the point lands at the image
    # center of the left panel and 40 px to the left of it in the right panel
    assert brightest_pixel(pair.left) == (48, 64)
    assert brightest_pixel(pair.right) == (48, 64 - 40)
    covered = np.isfinite(pair.truth_disparity)
    assert covered.any()
    assert pair.truth_disparity[covered] == pytest.approx(40.0)
    assert pair.visible_mask.tolist() == [True]


def test_render_zero_baseline_gives_identical_panels():
    scene = load_scene("p 100 -50 1500 0.7\np -200 80 2500 0.5")
    pair = render_stereo_pair(scene, RigPose(0.0), 0.0, INTR)
    assert np.array_equal(pair.left, pair.right)
    covered = np.isfinite(pair.truth_disparity)
    assert (pair.truth_disparity[covered] == 0.0).all()


def test_render_occlusion_nearer_point_owns_pixel():
    # two points on the same boresight ray; the z=1000 one must own the pixel
    scene = load_scene("p 0 0 1000 0.2\np 0 0 2000 1.0")
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, INTR, blob_radius_px=2.0)
    center = pair.truth_disparity[48, 64]
    assert center == pytest.approx(800.0 * 100.0 / 1000.0)
    # the dim near blob overwrites the bright far blob at the center
    assert pair.left[48, 64] == pytest.approx(0.2)


def test_render_depth_tie_keeps_earlier_point():
    scene = load_scene("p 0 0 1000 0.25\np 0 0 1000 0.75")
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, INTR)
    assert pair.left[48, 64] == pytest.approx(0.25)


def test_render_is_deterministic():
    scene = load_scene("room 4000 3000 2500 100 seed 9")
    a = render_stereo_pair(scene, RigPose(33.0), 120.0, INTR)
    b = render_stereo_pair(scene, RigPose(33.0), 120.0, INTR)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.truth_disparity, b.truth_disparity, equal_nan=True)


def test_render_epipolar_rows_match():
    # single point off-axis: its blob must sit on the same rows in both panels
    scene = load_scene("p 300 200 2000 0.9")
    pair = render_stereo_pair(scene, RigPose(0.0), 80.0, INTR, blob_radius_px=2.0)
    left_rows = np.nonzero(pair.left.sum(axis=1))[0]
    right_rows = np.nonzero(pair.right.sum(axis=1))[0]
    assert np.array_equal(left_rows, right_rows)


def test_render_truth_matches_parallax_of_owner_depth():
    from stereorig.geometry import parallax_px

    scene = load_scene("room 4000 3000 2500 150 seed 5")
    pose = RigPose(70.0)
    pair = render_stereo_pair(scene, pose, 150.0, INTR)
    depth = scene.xyz @ pose.boresight()
    covered = np.isfinite(pair.truth_disparity)
    # recompute disparities for every covered pixel owner via the geometry module
    ys, xs = np.nonzero(covered)
    # owners are not exposed; verify each truth value equals the parallax of
    # *some* scene point's camera depth to 1e-9 relative
    truths = pair.truth_disparity[ys, xs]
    candidates = np.array([parallax_px(z, 150.0, INTR) for z in depth[depth > 0]])
    for t in truths:
        assert np.min(np.abs(candidates - t)) <= 1e-9 * max(t, 1.0)


def test_render_rejects_bad_args():
    scene = load_scene("p 0 0 2000 0.5")
    with pytest.raises(ValueError):
        render_stereo_pair(scene, RigPose(0.0), -1.0, INTR)
    with pytest.raises(ValueError):
        render_stereo_pair(scene, RigPose(0.0), 100.0, INTR, blob_radius_px=0.5)


def test_points_behind_camera_are_skipped():
    # the second scene's first point sits on the camera plane, where its
    # projection would overflow to infinity
    for first in ("p 0 0 -500 0.9", "p 1000 0 1e-310 0.9"):
        scene = load_scene(f"{first}\np 0 0 2000 0.9")
        pair = render_stereo_pair(scene, RigPose(0.0), 100.0, INTR)
        assert pair.visible_mask.tolist() == [False, True]


def test_point_at_overflowed_depth_is_skipped():
    # x and z near the float maximum: the heading-45 depth overflows to inf
    scene = load_scene("p 1.5e308 0 1.5e308 0.9\np 1000 0 1000 0.9")
    with pytest.warns(RuntimeWarning, match="overflow"):
        pair = render_stereo_pair(scene, RigPose(45.0), 100.0, INTR)
    assert pair.visible_mask.tolist() == [False, True]


def _reference_render(scene, baseline_mm, intr, radius):
    """The README's occlusion rule applied pixel by pixel, at heading 0.

    A pixel belongs to the point with the smallest positive finite depth
    whose blob (r <= radius) covers it; equal depths go to the lower index.
    """
    h, w, f = intr.image_height_px, intr.image_width_px, intr.focal_px
    sigma = radius / 2.0
    xs, ys, zs, intensity = (scene.points[:, c].tolist() for c in range(4))

    def panel(shift):
        image = np.zeros((h, w))
        owner = np.full((h, w), -1)
        centres = [
            (intr.cx + f * (x - shift) / z, intr.cy + f * -y / z) if 0.0 < z < math.inf else None
            for x, y, z in zip(xs, ys, zs)
        ]
        for py in range(h):
            for px in range(w):
                for i, centre in enumerate(centres):
                    if centre is None:
                        continue
                    r2 = (px - centre[0]) * (px - centre[0]) + (py - centre[1]) * (py - centre[1])
                    if r2 <= radius * radius and (owner[py, px] < 0 or zs[i] < zs[owner[py, px]]):
                        owner[py, px] = i
                        image[py, px] = intensity[i] * math.exp(-r2 / (2.0 * sigma * sigma))
        return image, owner

    left, owner = panel(0.0)
    right, _ = panel(baseline_mm)
    truth = np.full((h, w), np.nan)
    for (py, px), i in np.ndenumerate(owner):
        if i >= 0:
            truth[py, px] = f * baseline_mm / zs[i]
    return left, right, truth, np.isin(np.arange(len(zs)), owner)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radius", [1.0, 1.5, 2.0, 3.7])
def test_render_matches_per_pixel_reference(radius, seed):
    intr = CameraIntrinsics(focal_px=25.0, image_width_px=32, image_height_px=24)
    rng = np.random.default_rng(seed)
    n = 30
    z = rng.uniform(500.0, 3000.0, n)
    z[rng.random(n) < 0.4] = 1000.0  # shared depths
    x = rng.uniform(-1.3, 1.3, n) * z * intr.cx / intr.focal_px  # some land off the panel
    y = rng.uniform(-1.3, 1.3, n) * z * intr.cy / intr.focal_px
    on_grid = z == 1000.0  # 40 mm steps at 1 m are whole pixels: exact blob-edge distances
    x[on_grid], y[on_grid] = 40.0 * np.round(x[on_grid] / 40.0), 40.0 * np.round(y[on_grid] / 40.0)
    points = np.column_stack([x, y, z, rng.random(n)])
    extra = [
        [*points[3, :3], 0.1],  # duplicate of an earlier point
        [*points[7, :3], 0.9],
        [0.0, 0.0, -500.0, 0.5],  # behind the camera
        [1000.0, 0.0, 1e-310, 0.5],  # on the camera plane
        [0.0, 0.0, 1e-3, 0.5],  # just in front of it, on the boresight
        [1e6, 0.0, 1000.0, 0.5],  # far off the panel
    ]
    scene = Scene(np.vstack([points, extra]))
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, intr, blob_radius_px=radius)
    left, right, truth, visible = _reference_render(scene, 100.0, intr, radius)
    assert np.array_equal(pair.truth_disparity, truth, equal_nan=True)
    assert np.array_equal(pair.visible_mask, visible)
    # math.exp may differ from numpy's exp by one ulp
    assert np.allclose(pair.left, left, rtol=0.0, atol=1e-12)
    assert np.allclose(pair.right, right, rtol=0.0, atol=1e-12)


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(np.array([[0.0, 0.0, 1.0, 2.0]]))  # intensity out of range
    with pytest.raises(ValueError):
        Scene(np.zeros((0, 4)))


def test_pose_normalizes_heading():
    assert RigPose(370.0).heading_deg == pytest.approx(10.0)
    assert RigPose(-30.0).heading_deg == pytest.approx(330.0)


def test_range_reading_never_below_true_nearest():
    import math

    scene = load_scene("room 4000 3000 2500 250 seed 31")
    for heading in (0.0, 33.0, 127.0, 300.0):
        pose = RigPose(heading)
        reading = range_reading(scene, pose, 20.0)
        # independent brute-force oracle over the raw point list
        b = pose.boresight()
        best = None
        for x, y, z, _ in scene.points:
            r = math.sqrt(x * x + y * y + z * z)
            if r == 0.0:
                continue
            if (x * b[0] + y * b[1] + z * b[2]) / r >= math.cos(math.radians(20.0)):
                best = r if best is None else min(best, r)
        if reading.distance_mm is None:
            assert best is None or not (100.0 <= best <= 60000.0)
        else:
            assert reading.distance_mm >= best - 1e-9
            assert reading.distance_mm == pytest.approx(best)
