import math

import numpy as np
import pytest

from stereorig.cloud import PointCloud, accuracy_report, export_ply, import_ply, merge
from stereorig.scene import load_scene


def make_cloud(xyz, intensity=None, heading=0):
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    n = xyz.shape[0]
    if intensity is None:
        intensity = np.full(n, 0.5)
    return PointCloud(xyz, intensity, np.full(n, heading, dtype=np.int32))


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
    a = make_cloud(rng.normal(size=(100, 3)), heading=0)
    b = make_cloud(rng.normal(size=(150, 3)), heading=1)
    out = merge([a, b])
    assert len(out) == 250
    assert np.array_equal(out.xyz[:100], a.xyz)
    assert np.array_equal(out.xyz[100:], b.xyz)
    assert out.heading_index[:100].tolist() == [0] * 100


def test_merge_associative_up_to_order():
    rng = np.random.default_rng(1)
    frags = [make_cloud(rng.normal(size=(20, 3)), heading=i) for i in range(3)]
    left = merge([merge(frags[:2]), frags[2]])
    right = merge([frags[0], merge(frags[1:])])
    assert sorted(map(tuple, left.xyz.tolist())) == sorted(map(tuple, right.xyz.tolist()))


def test_merge_voxel_thinning_keeps_first():
    cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [20.0, 0.0, 0.0]])
    out = merge([cloud], voxel_mm=10.0)
    assert len(out) == 2
    assert out.xyz[0].tolist() == [0.0, 0.0, 0.0]  # first point of the voxel survives
    assert out.xyz[1].tolist() == [20.0, 0.0, 0.0]


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
    cloud = make_cloud([[0.0, 0.0, 2000.0]], intensity=np.array([0.8]))
    body = export_ply(cloud).split(b"end_header\n", 1)[1]
    assert body == b"0 0 2 0.8\n"


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
        PointCloud(np.zeros((2, 3)), np.zeros(1), np.zeros(2, dtype=np.int32))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0, 0]]), np.zeros(1), np.zeros(1, dtype=np.int32))


def test_accuracy_rejects_bad_radius():
    scene = load_scene("p 0 0 2000 0.5")
    with pytest.raises(ValueError):
        accuracy_report(PointCloud.empty(), scene, match_radius_mm=0.0)
