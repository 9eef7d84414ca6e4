from stereorig.config import build_config, parse_config
from stereorig.pgm import image_to_pgm_bytes
from stereorig.pipeline import scan
from stereorig.planner import run_scan
from stereorig.scene import load_scene


def test_scan_returns_the_pgm_bytes_of_each_captured_pair():
    config = build_config(parse_config("intrinsics.image_width_px = 160\n"))
    scene = load_scene("room 4000 3000 2500 80 seed 9")
    panels, shots, cloud, _ = scan(config, scene)
    pairs, expected_shots = run_scan(
        scene,
        config.policy,
        config.calibration,
        config.intrinsics,
        initial_baseline_mm=config.initial_baseline_mm,
        blob_radius_px=config.blob_radius_px,
        cone_half_angle_deg=config.cone_half_angle_deg,
        with_error=config.with_error,
    )
    assert shots == expected_shots
    assert len(cloud) > 0
    assert all(type(left) is type(right) is bytes for left, right in panels)
    assert panels == [(image_to_pgm_bytes(p.left), image_to_pgm_bytes(p.right)) for p in pairs]
