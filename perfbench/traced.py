"""In-process traced run: the scan pipeline with one span per library call.

``pipeline`` calls the public functions of config, scene, planner, vision,
cloud and pgm in the order ``stereorig.cli.cmd_scan`` uses and writes the
same artifacts, so its output can be compared byte for byte with a CLI
scan.  It drives ``planner.step`` itself and names each step's span by the
state it executes: ranging steps are ``scene.range``, capture steps are
``scene.render``, and the rest (mechanics and geometry, sub-microsecond pure
functions) are ``planner.step``.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stereorig.cloud import accuracy_report, export_ply, merge
from stereorig.config import load_config, manifest_lines
from stereorig.geometry import depth_resolution_mm
from stereorig.mechanics import RigState
from stereorig.pgm import image_to_pgm_bytes
from stereorig.planner import ScanState, format_shot_log, new_controller, step
from stereorig.scene import RangeReading, RigPose, load_scene
from stereorig.vision import (
    back_project,
    compensation_shift,
    depth_map_from_disparity,
    match_correlation,
)

_STEP_SPAN = {
    ScanState.IDLE: "scene.range",
    ScanState.RANGING: "scene.range",
    ScanState.CAPTURE: "scene.render",
    ScanState.ADJUST_BASELINE: "planner.step",
    ScanState.ROTATE: "planner.step",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; ``trace_alloc`` adds the tracemalloc peak in MB."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace_alloc: bool = False):
        if trace_alloc:
            tracemalloc.start()
        s = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            s.start = time.perf_counter()
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if trace_alloc:
                s.attrs["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()


class NullRecorder:
    """Tracing off: spans are created but neither timed nor kept."""

    @contextmanager
    def span(self, name: str, trace_alloc: bool = False):
        yield Span(name, 0.0)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _auto_match_radius(scene, shots, config, visible: np.ndarray) -> float:
    # the CLI's rule: 3x the depth resolution at the median visible distance
    targets = scene.xyz[visible] if visible.any() else scene.xyz
    median_distance = float(np.median(np.linalg.norm(targets, axis=1)))
    mean_baseline = float(np.mean([s.baseline_mm for s in shots])) if shots else 100.0
    return 3.0 * depth_resolution_mm(median_distance, mean_baseline, config.intrinsics)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def pipeline(config_path: Path, out_dir: Path, rec) -> None:
    """One ``stereorig scan`` in process, writing its artifacts to out_dir."""
    with rec.span("scan"):
        with rec.span("config.load"):
            config, values = load_config(config_path)
        with rec.span("scene.load") as s:
            scene = load_scene(config.scene_path.read_text(encoding="utf-8"))
        s.attrs["points"] = len(scene)
        out_dir.mkdir(parents=True, exist_ok=True)

        policy = config.policy
        with rec.span("planner.init"):
            rig = RigState(
                baseline_mm=min(
                    max(config.initial_baseline_mm, policy.baseline_min_mm), policy.baseline_max_mm
                ),
                baseline_min_mm=policy.baseline_min_mm,
                baseline_max_mm=policy.baseline_max_mm,
            )
            controller = new_controller(policy, config.intrinsics)
        pairs = []
        while controller.state is not ScanState.DONE:
            with rec.span(_STEP_SPAN[controller.state]) as s:
                controller, rig, pair = step(
                    controller,
                    rig,
                    scene,
                    config.calibration,
                    config.intrinsics,
                    blob_radius_px=config.blob_radius_px,
                    cone_half_angle_deg=config.cone_half_angle_deg,
                    with_error=config.with_error,
                )
            s.attrs["step"] = 1
            if pair is not None:
                pairs.append(pair)
        shots = list(controller.shots)

        vp = config.vision
        fragments = []
        visible = np.zeros(len(scene), dtype=bool)
        for i, (pair, shot) in enumerate(zip(pairs, shots)):
            with rec.span("pgm.encode") as s:
                left_pgm = image_to_pgm_bytes(pair.left)
                right_pgm = image_to_pgm_bytes(pair.right)
            s.attrs["bytes"] = len(left_pgm) + len(right_pgm)
            (out_dir / f"shot_{i}_L.pgm").write_bytes(left_pgm)
            (out_dir / f"shot_{i}_R.pgm").write_bytes(right_pgm)
            with rec.span("vision.compensation_shift"):
                shift = compensation_shift(
                    RangeReading(shot.range_mm, config.cone_half_angle_deg),
                    pair.baseline_mm,
                    config.intrinsics,
                )
            shift = 0 if shift is None else shift
            with rec.span("vision.match", trace_alloc=True) as s:
                disp = match_correlation(
                    pair.left,
                    pair.right,
                    shift_px=shift,
                    window_px=vp.window_px,
                    search_range_px=vp.search_range_px,
                    min_score=vp.min_score,
                    min_texture=vp.min_texture,
                    subpixel=vp.subpixel,
                )
            offsets = sum(
                1 for d in range(-vp.search_range_px, vp.search_range_px + 1) if shift + d >= 0
            )
            s.attrs.update(
                pixels=pair.left.size,
                ncc_evals=offsets * pair.left.size,
                matched=disp.matched_count,
            )
            with rec.span("vision.depth"):
                depth = depth_map_from_disparity(
                    disp,
                    pair.baseline_mm,
                    config.intrinsics,
                    heading_deg=pair.heading_deg,
                    heading_index=i,
                )
            with rec.span("vision.back_project"):
                fragments.append(
                    back_project(depth, RigPose(pair.heading_deg), intensities=pair.left)
                )
            visible |= pair.visible_mask

        with rec.span("cloud.merge") as s:
            cloud = merge(fragments, voxel_mm=config.voxel_mm if config.voxel_mm > 0 else None)
        s.attrs.update(points=len(cloud), merged_from=sum(len(f) for f in fragments))
        radius = config.match_radius_mm or _auto_match_radius(scene, shots, config, visible)
        with rec.span("cloud.accuracy", trace_alloc=True) as s:
            report = accuracy_report(cloud, scene, radius, visible_mask=visible)
        s.attrs["targets"] = int(visible.sum())

        with rec.span("planner.format_shot_log"):
            shot_log = format_shot_log(shots)
        (out_dir / "shots.log").write_text(shot_log, encoding="utf-8")
        with rec.span("cloud.export_ply") as s:
            ply = export_ply(cloud)
        s.attrs["bytes"] = len(ply)
        (out_dir / "cloud.ply").write_bytes(ply)
        (out_dir / "report.txt").write_text(
            f"recall {_fmt(report.recall)}\n"
            f"rmse_mm {_fmt(report.rmse_mm)}\n"
            f"median_error_mm {_fmt(report.median_error_mm)}\n"
            f"match_radius_mm {_fmt(report.match_radius_mm)}\n"
            f"cloud_points {len(cloud)}\n"
            f"scene_points {len(scene)}\n"
            f"visible_points {int(visible.sum())}\n"
            f"recovered_points {report.n_recovered}\n",
            encoding="utf-8",
        )
        with rec.span("config.manifest"):
            manifest = manifest_lines(values)
        (out_dir / "manifest.txt").write_text(manifest, encoding="utf-8")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (without trace.overhead_frac)."""
    own = self_times(spans)

    def of(name):
        return [(s, t) for s, t in zip(spans, own) if s.name == name]

    def busy(name):
        return sum(t for _, t in of(name))

    def total(name, attr):
        return sum(s.attrs[attr] for s, _ in of(name))

    points = total("scene.load", "points")
    render_calls = len(of("scene.render"))
    match = of("vision.match")
    return {
        "config.load_s": busy("config.load"),
        "scene.load_s": busy("scene.load"),
        "scene.points": points,
        "scene.render_s": busy("scene.render"),
        "scene.render_calls": render_calls,
        "scene.splat_points": points * 2 * render_calls,
        "scene.range_s": busy("scene.range"),
        "scene.range_calls": len(of("scene.range")),
        "planner.self_s": sum(t for s, t in zip(spans, own) if s.name.startswith("planner.")),
        "planner.steps": sum(s.attrs.get("step", 0) for s in spans),
        "vision.match_s": busy("vision.match"),
        "vision.match_calls": len(match),
        "vision.ncc_evals": total("vision.match", "ncc_evals"),
        "vision.matched_frac": total("vision.match", "matched") / total("vision.match", "pixels"),
        "vision.match_alloc_peak_mb": max(s.attrs["alloc_peak_mb"] for s, _ in match),
        "vision.depth_s": busy("vision.depth"),
        "vision.back_project_s": busy("vision.back_project"),
        "cloud.accuracy_s": busy("cloud.accuracy"),
        "cloud.accuracy_targets": total("cloud.accuracy", "targets"),
        "cloud.accuracy_alloc_peak_mb": total("cloud.accuracy", "alloc_peak_mb"),
        "cloud.points": total("cloud.merge", "points"),
        "cloud.export_ply_s": busy("cloud.export_ply"),
        "cloud.ply_bytes": total("cloud.export_ply", "bytes"),
        "cloud.merge_s": busy("cloud.merge"),
        "cloud.merge_kept_frac": total("cloud.merge", "points") / total("cloud.merge", "merged_from"),
        "pgm.encode_s": busy("pgm.encode"),
        "pgm.bytes": total("pgm.encode", "bytes"),
    }
