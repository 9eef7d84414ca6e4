import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig.geometry import (
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

INTR = CameraIntrinsics(focal_px=800.0, image_width_px=640, image_height_px=480)


def project_u(point_x: float, point_z: float, cam_x: float, focal: float) -> float:
    # independent pinhole oracle: image x-coordinate (principal point omitted,
    # it cancels in every interval/difference below)
    return focal * (point_x - cam_x) / point_z


def test_parallax_matches_two_camera_projection_oracle():
    # brute force: project (0, 0, 2000) through cameras at x = -50 and x = +50
    u_left = project_u(0.0, 2000.0, -50.0, 800.0)
    u_right = project_u(0.0, 2000.0, +50.0, 800.0)
    oracle = u_left - u_right
    assert oracle == 40.0
    assert parallax_px(2000.0, 100.0, INTR) == pytest.approx(oracle, rel=1e-12)


def test_parallax_halves_when_distance_doubles():
    assert parallax_px(4000.0, 100.0, INTR) == pytest.approx(20.0, rel=1e-12)


def test_parallax_zero_baseline():
    assert parallax_px(1234.5, 0.0, INTR) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_parallax_rejects_bad_distance(bad):
    with pytest.raises(ValueError):
        parallax_px(bad, 100.0, INTR)


def test_triangulate_round_trip_of_parallax_example():
    assert triangulate_depth(40.0, 100.0, INTR) == pytest.approx(2000.0, rel=1e-12)


def test_triangulate_one_pixel_disparity():
    # cross-check against the projection oracle: which z makes the two
    # projections differ by exactly 1 px?  z = f * a / 1.
    z = 80000.0
    d = project_u(0.0, z, -50.0, 800.0) - project_u(0.0, z, 50.0, 800.0)
    assert d == pytest.approx(1.0, rel=1e-12)
    assert triangulate_depth(1.0, 100.0, INTR) == pytest.approx(z, rel=1e-12)


def test_triangulate_zero_disparity_is_at_infinity():
    with pytest.raises(AtInfinityError):
        triangulate_depth(0.0, 100.0, INTR)


def test_ratio_unity_when_baseline_equals_distance():
    assert depth_width_ratio(650.0, 650.0) == 1.0


def test_ratio_direct_value():
    assert depth_width_ratio(65.0, 650.0) == pytest.approx(0.1, rel=1e-12)


def test_ratio_scale_invariance_exact_for_power_of_two():
    base = depth_width_ratio(130.0, 650.0)
    for k in (2.0, 4.0, 0.5, 1024.0):
        assert depth_width_ratio(k * 130.0, k * 650.0) == base  # bit-for-bit


def test_ratio_scale_invariance_general():
    assert depth_width_ratio(130.0, 650.0) == pytest.approx(
        depth_width_ratio(260.0, 1300.0), rel=1e-12
    )
    assert depth_width_ratio(130.0, 650.0) == pytest.approx(
        depth_width_ratio(3.0 * 130.0, 3.0 * 650.0), rel=1e-12
    )


def screen_interval_oracle(side, z, a, f):
    """Exact projection oracle for the cube intervals.

    AB: front-face width projected in the reference panel.
    BC: distance between the screen points where the two cameras' rays to
    the rear vertex land, once both panels are converged on the front face
    (subtract each panel's front-vertex image position).
    """
    front_x, rear_x = side / 2.0, side / 2.0
    ab = project_u(side / 2.0, z, 0.0, f) - project_u(-side / 2.0, z, 0.0, f)
    # panel positions relative to the front vertex (zero-parallax plane)
    left_rear = project_u(rear_x, z + side, 0.0, f) - project_u(front_x, z, 0.0, f)
    right_rear = project_u(rear_x, z + side, a, f) - project_u(front_x, z, a, f)
    bc = abs(left_rear - right_rear)
    return ab, bc


def test_screen_intervals_against_projection_oracle():
    side, z, a, f = 10.0, 2000.0, 100.0, 800.0
    ab, bc = screen_interval_oracle(side, z, a, f)
    rep = screen_intervals(CubeProbe(side, z), a, INTR)
    assert rep.ab_px == pytest.approx(ab, rel=1e-12)
    assert rep.bc_px == pytest.approx(bc, rel=1e-12)
    # first-order prediction a/z = 0.05; exact ratio is a/(z+s)
    assert rep.ratio == pytest.approx(0.05, rel=5e-3)
    assert abs(rep.ratio - 0.05) <= 0.05 * 0.05


def test_screen_intervals_zero_baseline():
    rep = screen_intervals(CubeProbe(10.0, 2000.0), 0.0, INTR)
    assert rep.bc_px == 0.0
    assert rep.ratio == 0.0


def test_screen_intervals_scale_invariance_first_order():
    r1 = screen_intervals(CubeProbe(10.0, 2000.0), 100.0, INTR).ratio
    r3 = screen_intervals(CubeProbe(10.0, 6000.0), 300.0, INTR).ratio
    target = 100.0 / 2000.0
    assert abs(r1 - target) <= 0.05 * target
    assert abs(r3 - target) <= 0.05 * target


def test_screen_intervals_converge_to_ratio_monotonically():
    z, a = 2000.0, 100.0
    target = depth_width_ratio(a, z)
    errors = []
    for frac in (0.05, 0.01, 0.002):
        rep = screen_intervals(CubeProbe(frac * z, z), a, INTR)
        errors.append(abs(rep.ratio - target))
    assert errors[0] > errors[1] > errors[2]


def test_depth_resolution_finite_difference_oracle():
    # finite difference of triangulate_depth at d = 40
    d = parallax_px(2000.0, 100.0, INTR)
    fd = triangulate_depth(d, 100.0, INTR) - triangulate_depth(d + 1.0, 100.0, INTR)
    res = depth_resolution_mm(2000.0, 100.0, INTR)
    assert res == pytest.approx(50.0, rel=1e-12)
    assert fd == pytest.approx(res, rel=0.03)


def test_depth_resolution_scaling():
    base = depth_resolution_mm(2000.0, 100.0, INTR)
    assert depth_resolution_mm(4000.0, 100.0, INTR) == pytest.approx(4 * base, rel=1e-12)
    assert depth_resolution_mm(2000.0, 200.0, INTR) == pytest.approx(base / 2, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(min_value=200.0, max_value=50000.0),
    a=st.floats(min_value=10.0, max_value=500.0),
)
def test_round_trip_property(z, a):
    assert triangulate_depth(parallax_px(z, a, INTR), a, INTR) == pytest.approx(z, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(min_value=200.0, max_value=50000.0),
    a=st.floats(min_value=10.0, max_value=500.0),
    bump=st.floats(min_value=1e-3, max_value=10.0),
)
def test_parallax_monotone_property(z, a, bump):
    d = parallax_px(z, a, INTR)
    assert parallax_px(z * (1.0 + bump), a, INTR) < d
    assert parallax_px(z, a * (1.0 + bump), INTR) > d


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=0.0, image_width_px=640, image_height_px=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=800.0, image_width_px=8, image_height_px=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_px=800.0, image_width_px=640.0, image_height_px=480)
    with pytest.raises(ValueError, match="4096"):
        CameraIntrinsics(focal_px=800.0, image_width_px=640, image_height_px=4097)
    CameraIntrinsics(focal_px=800.0, image_width_px=4096, image_height_px=16)  # both limits allowed


def test_intrinsics_principal_point_is_center():
    assert INTR.cx == 320.0
    assert INTR.cy == 240.0


def test_cube_probe_must_be_in_front():
    with pytest.raises(ValueError):
        CubeProbe(side_mm=100.0, center_distance_mm=50.0)


def test_ratio_report_consistency_checked():
    with pytest.raises(ValueError):
        RatioReport(ab_px=10.0, bc_px=1.0, ratio=0.5)


def test_horizontal_fov():
    intr = CameraIntrinsics(focal_px=320.0 * math.sqrt(3) / 2.0, image_width_px=320, image_height_px=240)
    assert horizontal_fov_deg(intr) == pytest.approx(60.0, rel=1e-12)
