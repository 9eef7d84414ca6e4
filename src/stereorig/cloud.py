"""World-frame point cloud assembly, accuracy metrics and ASCII PLY export.

Internal math stays in millimeters; only the PLY boundary converts to
meters (the format's usual convention).  Export is plain ASCII with a
fixed 6-significant-digit rendering so identical clouds produce
byte-identical files on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud",
    "AccuracyReport",
    "merge",
    "accuracy_report",
    "format_report",
    "export_ply",
    "import_ply",
]

_PLY_HEADER = (
    "ply\n"
    "format ascii 1.0\n"
    "element vertex {n}\n"
    "property float x\n"
    "property float y\n"
    "property float z\n"
    "property float intensity\n"
    "end_header\n"
)


@dataclass(eq=False)
class PointCloud:
    """Reconstructed points with per-point intensity and capture provenance."""

    xyz: np.ndarray
    intensity: np.ndarray
    heading_index: np.ndarray

    def __post_init__(self) -> None:
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
        self.heading_index = np.asarray(self.heading_index, dtype=np.int32).reshape(-1)
        n = self.xyz.shape[0]
        if self.intensity.shape[0] != n or self.heading_index.shape[0] != n:
            raise ValueError("xyz, intensity and heading_index must have equal lengths")
        if n and not np.isfinite(self.xyz).all():
            raise ValueError("cloud coordinates must be finite")

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int32))

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclass(frozen=True)
class AccuracyReport:
    recall: float
    rmse_mm: float
    median_error_mm: float
    n_candidates: int
    n_recovered: int
    match_radius_mm: float


def merge(fragments, voxel_mm: float | None = None) -> PointCloud:
    """Concatenate fragments in order; optionally thin to one point per voxel.

    Thinning keeps the first point that lands in each voxel, preserving
    the original ordering of the survivors.
    """
    fragments = list(fragments)
    if not fragments:
        return PointCloud.empty()
    xyz = np.concatenate([f.xyz for f in fragments])
    intensity = np.concatenate([f.intensity for f in fragments])
    heading = np.concatenate([f.heading_index for f in fragments])
    if voxel_mm is not None:
        if voxel_mm <= 0.0:
            raise ValueError("voxel_mm must be > 0")
        keys = np.floor(xyz / voxel_mm).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        keep = np.sort(first)
        xyz, intensity, heading = xyz[keep], intensity[keep], heading[keep]
    return PointCloud(xyz, intensity, heading)


def _nearest_distances(targets: np.ndarray, cloud_xyz: np.ndarray) -> np.ndarray:
    """Brute-force nearest-neighbour distance per target, chunked to bound memory.

    The quadratic-expansion trick finds the neighbour; the returned distance
    is then recomputed from the actual difference vector, which avoids the
    cancellation error of the expansion at room-scale coordinates.
    """
    cloud_sq = np.einsum("ij,ij->i", cloud_xyz, cloud_xyz)
    out = np.empty(targets.shape[0])
    chunk = 64
    for start in range(0, targets.shape[0], chunk):
        t = targets[start : start + chunk]
        d2 = (
            np.einsum("ij,ij->i", t, t)[:, None]
            - 2.0 * (t @ cloud_xyz.T)
            + cloud_sq[None, :]
        )
        nearest = d2.argmin(axis=1)
        out[start : start + chunk] = np.linalg.norm(t - cloud_xyz[nearest], axis=1)
    return out


def accuracy_report(
    cloud: PointCloud,
    scene,
    match_radius_mm: float,
    visible_mask: np.ndarray | None = None,
) -> AccuracyReport:
    """Compare the cloud against scene ground truth.

    A candidate scene point (restricted by ``visible_mask`` when the caller
    knows which points any capture could see) counts as recovered when some
    cloud point lies within the match radius; rmse and median are taken
    over the recovered points' nearest-match distances.
    """
    if match_radius_mm <= 0.0:
        raise ValueError("match_radius_mm must be > 0")
    targets = scene.xyz if visible_mask is None else scene.xyz[np.asarray(visible_mask, bool)]
    n_candidates = targets.shape[0]
    if n_candidates == 0 or len(cloud) == 0:
        return AccuracyReport(0.0, float("nan"), float("nan"), n_candidates, 0, match_radius_mm)
    dist = _nearest_distances(targets, cloud.xyz)
    recovered = dist <= match_radius_mm
    n_rec = int(recovered.sum())
    if n_rec == 0:
        return AccuracyReport(0.0, float("nan"), float("nan"), n_candidates, 0, match_radius_mm)
    hits = dist[recovered]
    return AccuracyReport(
        recall=n_rec / n_candidates,
        rmse_mm=float(np.sqrt(np.mean(hits * hits))),
        median_error_mm=float(np.median(hits)),
        n_candidates=n_candidates,
        n_recovered=n_rec,
        match_radius_mm=match_radius_mm,
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def format_report(report: AccuracyReport, cloud_points: int, scene_points: int) -> str:
    """The scan's ``report.txt``: one ``key value`` line per metric."""
    return (
        f"recall {_fmt(report.recall)}\n"
        f"rmse_mm {_fmt(report.rmse_mm)}\n"
        f"median_error_mm {_fmt(report.median_error_mm)}\n"
        f"match_radius_mm {_fmt(report.match_radius_mm)}\n"
        f"cloud_points {cloud_points}\n"
        f"scene_points {scene_points}\n"
        f"visible_points {report.n_candidates}\n"
        f"recovered_points {report.n_recovered}\n"
    )


def export_ply(cloud: PointCloud) -> bytes:
    """ASCII PLY 1.0, coordinates in meters, 6 significant digits, LF endings."""
    lines = [_PLY_HEADER.format(n=len(cloud))]
    for (x, y, z), i in zip(cloud.xyz, cloud.intensity):
        lines.append(f"{_fmt(x / 1000.0)} {_fmt(y / 1000.0)} {_fmt(z / 1000.0)} {_fmt(i)}\n")
    return "".join(lines).encode("ascii")


def import_ply(data: bytes) -> PointCloud:
    """Read a PLY produced by :func:`export_ply` (provenance is not stored)."""
    text = data.decode("ascii")
    head, sep, body = text.partition("end_header\n")
    if not sep:
        raise ValueError("missing PLY end_header")
    head_lines = head.splitlines()
    if not head_lines or head_lines[0] != "ply":
        raise ValueError("not a PLY stream")
    n = None
    for line in head_lines:
        if line.startswith("element vertex "):
            n = int(line.split()[-1])
    if n is None:
        raise ValueError("missing vertex element")
    rows = body.splitlines()
    if len(rows) != n:
        raise ValueError(f"expected {n} vertex rows, found {len(rows)}")
    values = np.array([[float(t) for t in row.split()] for row in rows], dtype=float).reshape(
        n, 4
    )
    return PointCloud(values[:, :3] * 1000.0, values[:, 3], np.zeros(n, dtype=np.int32))
