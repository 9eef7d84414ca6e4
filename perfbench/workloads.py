"""Benchmark workloads and the scan inputs generated from a seed.

Every workload makes 9 captures: the focal length is 7/8 of the image
width, so the field of view and the rotation schedule are the same for all
of them.  They differ in the layer that dominates a scan; BENCHMARK.json
records why each one was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOM_MM = (4000, 3000, 2500)


@dataclass(frozen=True)
class Workload:
    name: str
    width_px: int
    height_px: int
    points: int
    extra_config: tuple[tuple[str, str], ...] = ()
    captures: int = 9

    @property
    def focal_px(self) -> float:
        return self.width_px * 7 / 8

    def scene_text(self, seed: int) -> str:
        w, d, h = ROOM_MM
        return f"room {w} {d} {h} {self.points} seed {seed}\n"

    def config_text(self) -> str:
        lines = [
            "scene = scene.txt",
            f"intrinsics.focal_px = {self.focal_px:g}",
            f"intrinsics.image_width_px = {self.width_px}",
            f"intrinsics.image_height_px = {self.height_px}",
        ]
        lines += [f"{key} = {value}" for key, value in self.extra_config]
        return "\n".join(lines) + "\n"

    def write_inputs(self, directory: Path, seed: int) -> Path:
        """Write scene.txt and run.cfg into directory; returns the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "scene.txt").write_text(self.scene_text(seed), encoding="utf-8")
        config = directory / "run.cfg"
        config.write_text(self.config_text(), encoding="utf-8")
        return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-room", 320, 240, 4000),
        Workload("hires-sparse", 640, 480, 1000),
        Workload(
            "wide-thinned",
            320,
            240,
            1500,
            (("vision.search_range_px", "24"), ("cloud.voxel_mm", "20")),
        ),
    )
}
