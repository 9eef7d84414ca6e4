import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig.cloud import (
    _PLY_CHUNK_ROWS,
    PointCloud,
    accuracy_report,
    export_ply,
    import_ply,
    merge,
)
from stereorig.scene import Scene, load_scene


def make_cloud(xyz, intensity=None):
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    if intensity is None:
        intensity = np.full(xyz.shape[0], 0.5)
    return PointCloud(xyz, intensity)


def test_merge_single_fragment_identity():
    frag = make_cloud([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = merge([frag])
    assert np.array_equal(out.xyz, frag.xyz)
    assert np.array_equal(out.intensity, frag.intensity)


def test_merge_empty_fragments():
    assert len(merge([PointCloud.empty(), PointCloud.empty()])) == 0
    assert len(merge([])) == 0


def test_merge_preserves_order_and_counts():
    rng = np.random.default_rng(0)
    a = make_cloud(rng.normal(size=(100, 3)))
    b = make_cloud(rng.normal(size=(150, 3)))
    out = merge([a, b])
    assert len(out) == 250
    assert np.array_equal(out.xyz[:100], a.xyz)
    assert np.array_equal(out.xyz[100:], b.xyz)


def test_merge_associative_up_to_order():
    rng = np.random.default_rng(1)
    frags = [make_cloud(rng.normal(size=(20, 3))) for _ in range(3)]
    left = merge([merge(frags[:2]), frags[2]])
    right = merge([frags[0], merge(frags[1:])])
    assert sorted(map(tuple, left.xyz.tolist())) == sorted(map(tuple, right.xyz.tolist()))


def test_merge_voxel_thinning_keeps_first():
    cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [20.0, 0.0, 0.0]])
    out = merge([cloud], voxel_mm=10.0)
    assert len(out) == 2
    assert out.xyz[0].tolist() == [0.0, 0.0, 0.0]  # first point of the voxel survives
    assert out.xyz[1].tolist() == [20.0, 0.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400), side=st.integers(1, 40))
def test_merge_voxel_thinning_keeps_first_point_of_each_voxel(seed, n, side):
    rng = np.random.default_rng(seed)
    # whole-number points on a small lattice share voxels and sit on their edges
    xyz = rng.integers(-side, side + 1, size=(n, 3)).astype(float)
    out = merge([make_cloud(xyz[: n // 2]), make_cloud(xyz[n // 2 :])], voxel_mm=3.0)
    _, first = np.unique(np.floor(xyz / 3.0), axis=0, return_index=True)
    assert np.array_equal(out.xyz, xyz[np.sort(first)])


def test_accuracy_identity_cloud():
    scene = load_scene("room 4000 3000 2500 50 seed 2")
    cloud = make_cloud(scene.xyz, intensity=scene.intensity)
    rep = accuracy_report(cloud, scene, match_radius_mm=1.0)
    assert rep.recall == 1.0
    assert rep.rmse_mm == pytest.approx(0.0, abs=1e-9)


def test_accuracy_empty_cloud():
    scene = load_scene("p 0 0 2000 0.5")
    rep = accuracy_report(PointCloud.empty(), scene, match_radius_mm=10.0)
    assert rep.recall == 0.0
    assert math.isnan(rep.rmse_mm)
    assert math.isnan(rep.median_error_mm)


def test_accuracy_constructed_offset():
    scene = load_scene("room 4000 3000 2500 40 seed 3")
    offset = np.array([10.0, 0.0, 0.0])
    cloud = make_cloud(scene.xyz + offset)
    rep = accuracy_report(cloud, scene, match_radius_mm=50.0)
    assert rep.recall == 1.0
    assert rep.rmse_mm == pytest.approx(10.0, rel=1e-9)
    assert rep.median_error_mm == pytest.approx(10.0, rel=1e-9)


def test_accuracy_respects_visible_mask():
    scene = load_scene("p 0 0 1000 0.5\np 0 0 2000 0.5")
    cloud = make_cloud([[0.0, 0.0, 1000.0]])
    visible = np.array([True, False])
    rep = accuracy_report(cloud, scene, match_radius_mm=1.0, visible_mask=visible)
    assert rep.recall == 1.0
    assert rep.n_candidates == 1


def test_export_empty_cloud():
    data = export_ply(PointCloud.empty())
    assert data == (
        b"ply\nformat ascii 1.0\nelement vertex 0\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property float intensity\nend_header\n"
    )


def test_export_single_point_line():
    # (x, y, z in mm, intensity) -> the %.6g line of meters and intensity
    cases = [
        ((0.0, 0.0, 2000.0, 0.8), b"0 0 2 0.8\n"),
        ((-0.0, -0.0, 1.0, -0.0), b"-0 -0 0.001 -0\n"),
        ((5e-324, -5e-321, 1e303, 5e-324), b"0 -4.94066e-324 1e+300 4.94066e-324\n"),
        ((999999500.0, -999999500.0, 0.09999995, 999999.5), b"1e+06 -1e+06 0.0001 1e+06\n"),
        ((9.999995e-2, 1e300, -1.5, 9.999995e-5), b"0.0001 1e+297 -0.0015 0.0001\n"),
    ]
    for (*xyz, intensity), line in cases:
        cloud = make_cloud([xyz], intensity=np.array([intensity]))
        assert export_ply(cloud).split(b"end_header\n", 1)[1] == line


@pytest.mark.parametrize("n", [0, 1, _PLY_CHUNK_ROWS, _PLY_CHUNK_ROWS + 1, 2 * _PLY_CHUNK_ROWS + 5])
def test_export_in_chunks_matches_one_shot_format(n):
    rng = np.random.default_rng(n)
    cloud = make_cloud(rng.normal(scale=1500.0, size=(n, 3)), intensity=rng.random(n))
    rows = np.column_stack([cloud.xyz / 1000.0, cloud.intensity])
    body = ("%.6g %.6g %.6g %.6g\n" * n) % tuple(rows.ravel().tolist())
    data = export_ply(cloud)
    assert data.split(b"end_header\n", 1)[1] == body.encode("ascii")
    assert data.startswith(b"ply\nformat ascii 1.0\nelement vertex %d\n" % n)


def test_export_import_round_trip_bytes():
    rng = np.random.default_rng(4)
    cloud = make_cloud(rng.normal(scale=1500.0, size=(25, 3)), intensity=rng.random(25))
    first = export_ply(cloud)
    again = export_ply(import_ply(first))
    assert first == again


def test_export_distinguishes_clouds():
    a = make_cloud([[1.0, 2.0, 3.0]])
    b = make_cloud([[1.0, 2.0, 3.001]])
    assert export_ply(a) != export_ply(b)


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), np.zeros(1))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0, 0]]), np.zeros(1))


def test_accuracy_rejects_bad_radius():
    scene = load_scene("p 0 0 2000 0.5")
    for radius in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            accuracy_report(PointCloud.empty(), scene, match_radius_mm=radius)


def test_accuracy_rejects_coordinates_whose_differences_overflow():
    far = Scene(np.array([[1.5e308, 0.0, 0.0, 0.5], [0.0, 0.0, 2000.0, 0.5]]))
    near = Scene(np.array([[0.0, 0.0, 2000.0, 0.5]]))
    with pytest.raises(ValueError, match="scene coordinates"):
        accuracy_report(make_cloud([-1.5e308, 0.0, 0.0]), far, match_radius_mm=10.0)
    with pytest.raises(ValueError, match="cloud coordinates"):
        accuracy_report(make_cloud([[-1.5e308, 0.0, 0.0]]), near, match_radius_mm=10.0)
    # a point that is not scored is not checked
    rep = accuracy_report(make_cloud([0.0, 0.0, 2000.0]), far, 10.0, visible_mask=[False, True])
    assert rep.n_recovered == 1
    # the bound itself is accepted
    edge = Scene(np.array([[1e150, 0.0, 0.0, 0.5]]))
    assert accuracy_report(make_cloud([-1e150, 0.0, 0.0]), edge, 10.0).n_recovered == 0


def test_accuracy_finds_nearest_point_at_room_scale():
    # the expansion |t|^2 - 2 t.c + |c|^2 cancels at room-scale coordinates
    # and once picked the farther of these two points
    t = np.array([3000.0, -1000.0, 4000.0])
    scene = Scene(np.array([[3000.0, -1000.0, 4000.0, 0.5]]))
    cloud = make_cloud([t + [0.0, 0.0, -7.5e-5], t + [5e-5, 0.0, 0.0]])
    rep = accuracy_report(cloud, scene, match_radius_mm=6.25e-5)
    assert rep.recall == 1.0
    assert rep.n_recovered == 1
    assert rep.median_error_mm == pytest.approx(5e-5, rel=1e-6)
    assert rep.median_error_mm == float(np.linalg.norm(t - cloud.xyz[1]))


def _assert_matches_exact_reference(targets, cloud_xyz, radius):
    """accuracy_report against the exact nearest distance of every target."""
    scene = Scene(np.column_stack([targets, np.full(len(targets), 0.5)]))
    rep = accuracy_report(make_cloud(cloud_xyz), scene, match_radius_mm=radius)
    dist = np.array([np.linalg.norm(t - cloud_xyz, axis=1).min() for t in targets])
    hits = dist[dist <= radius]
    assert rep.n_candidates == len(targets)
    assert rep.n_recovered == hits.size
    assert rep.recall == hits.size / len(targets)
    if hits.size == 0:
        assert math.isnan(rep.rmse_mm) and math.isnan(rep.median_error_mm)
    else:
        assert rep.rmse_mm == float(np.sqrt(np.mean(hits * hits)))
        assert rep.median_error_mm == float(np.median(hits))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cloud=st.integers(1, 3000),
    n_targets=st.integers(1, 60),
    log_scale=st.floats(-2.0, 4.0),
    offset=st.tuples(*[st.floats(-5000.0, 5000.0)] * 3),
    layout=st.sampled_from(["uniform", "whole", "duplicated"]),
    radius_kind=st.sampled_from(["tiny", "relative", "power_of_two"]),
    log_radius=st.floats(-6.0, 1.0),
)
def test_accuracy_matches_exact_nearest_reference(
    seed, n_cloud, n_targets, log_scale, offset, layout, radius_kind, log_radius
):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    if layout == "whole":
        # whole-number coordinates and power-of-two radii put points on or
        # next to cell edges
        side = max(2, int(scale))
        cloud_xyz = rng.integers(-side, side, size=(n_cloud, 3)).astype(float)
        targets = rng.integers(-side, side, size=(n_targets, 3)).astype(float)
        targets[::3] += 0.5
        cloud_xyz += np.round(offset)
        targets += np.round(offset)
    else:
        cloud_xyz = rng.uniform(-scale, scale, size=(n_cloud, 3)) + offset
        if layout == "duplicated":
            cloud_xyz = cloud_xyz[rng.integers(0, n_cloud, size=n_cloud)]
        near = cloud_xyz[rng.integers(0, n_cloud, size=n_targets)]
        targets = near + rng.normal(scale=scale * 10.0 ** rng.uniform(-6, 0), size=(n_targets, 3))
        exact = min(n_targets // 4, n_cloud)
        targets[:exact] = cloud_xyz[:exact]
    # some targets far outside the cloud
    targets[1::5] += 100.0 * scale
    if radius_kind == "tiny":
        radius = 1e-300
    elif radius_kind == "power_of_two":
        radius = 2.0 ** round(math.log2(scale * 10.0**log_radius))
    else:
        radius = scale * 10.0**log_radius
    _assert_matches_exact_reference(targets, cloud_xyz, radius)


def test_accuracy_counts_a_point_at_the_radius_across_a_rounded_cell_edge():
    # (target - lo) / cell rounds below a cell edge and (point - lo) / cell
    # rounds up onto the edge two cells on, though the point lies within one
    # cell (= the radius) of the target
    targets = np.array([[2523.009453247909, 0.0, 0.0], [-1348.9335688193516, 0.0, 0.0]])
    cloud_xyz = np.array([[2538.3135758647754, 0.0, 0.0]])
    _assert_matches_exact_reference(targets, cloud_xyz, radius=15.304122616866643)


def test_accuracy_matches_exact_nearest_reference_at_tiny_gaps():
    # gaps below 1e-154 mm square to subnormal floats, whose norms lose
    # precision, so cells must not shrink that far
    for seed in range(8):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-165, -150)
        cloud_xyz = rng.uniform(-scale, scale, size=(100, 3))
        targets = rng.uniform(-scale, scale, size=(20, 3))
        radius = scale * 10.0 ** rng.uniform(-2, 1)
        _assert_matches_exact_reference(targets, cloud_xyz, radius)
