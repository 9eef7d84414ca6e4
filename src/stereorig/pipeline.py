"""The full scan: reconstruct each shot as it is captured, then score the cloud.

:func:`scan` runs the rig to Done.  It matches each pair as it is captured
around the disparity its rangefinder reading predicts, back-projects every
matched pixel, keeps the 8-bit panels and drops the float pair, so one pair
is alive at a time.  It merges the fragments and scores the cloud against
the scene.  It does no I/O: ``stereorig scan`` writes the artifacts.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .cloud import AccuracyReport, PointCloud, accuracy_report, merge
from .config import RunConfig
from .geometry import depth_resolution_mm
from .pgm import image_to_pgm_bytes
from .planner import ShotRecord, capture
from .scene import RangeReading, RigPose, Scene
from .vision import back_project, compensation_shift, depth_map_from_disparity, match_correlation

__all__ = ["scan"]


def _auto_match_radius(scene: Scene, shots, config: RunConfig, visible: np.ndarray) -> float:
    """3x the depth resolution at the median visible distance and mean baseline."""
    targets = scene.xyz[visible] if visible.any() else scene.xyz
    median_distance = float(np.median(np.linalg.norm(targets, axis=1)))
    mean_baseline = float(np.mean([s.baseline_mm for s in shots]))
    return 3.0 * depth_resolution_mm(median_distance, mean_baseline, config.intrinsics)


def scan(
    config: RunConfig, scene: Scene
) -> tuple[list[tuple[bytes, bytes]], list[ShotRecord], PointCloud, AccuracyReport]:
    """Scan a turn of ``scene``; returns (left, right) PGM bytes, shots, cloud and report."""
    panels, shots, fragments = [], [], []
    visible = np.zeros(len(scene), dtype=bool)
    for pair, shot in capture(
        scene,
        config.policy,
        config.calibration,
        config.intrinsics,
        initial_baseline_mm=config.initial_baseline_mm,
        blob_radius_px=config.blob_radius_px,
        cone_half_angle_deg=config.cone_half_angle_deg,
        with_error=config.with_error,
    ):
        shift = compensation_shift(
            RangeReading(shot.range_mm, config.cone_half_angle_deg),
            pair.baseline_mm,
            config.intrinsics,
        )
        disp = match_correlation(
            pair.left, pair.right, 0 if shift is None else shift, **asdict(config.vision)
        )
        depth = depth_map_from_disparity(disp, pair.baseline_mm, config.intrinsics)
        fragments.append(back_project(depth, RigPose(pair.heading_deg), intensities=pair.left))
        visible |= pair.visible_mask
        panels.append((image_to_pgm_bytes(pair.left), image_to_pgm_bytes(pair.right)))
        shots.append(shot)
        del pair, disp, depth  # free the float planes before the next capture renders

    cloud = merge(fragments, voxel_mm=config.voxel_mm if config.voxel_mm > 0 else None)
    radius = config.match_radius_mm or _auto_match_radius(scene, shots, config, visible)
    report = accuracy_report(cloud, scene, radius, visible_mask=visible)
    return panels, shots, cloud, report
