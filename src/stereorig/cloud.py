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

_PLY_ROW = "%.6g %.6g %.6g %.6g\n"
# export formats this many rows at a time, so its Python floats and strings stay small
_PLY_CHUNK_ROWS = 8192
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
    """Reconstructed points with per-point intensity."""

    xyz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
        n = self.xyz.shape[0]
        if self.intensity.shape[0] != n:
            raise ValueError("xyz and intensity must have equal lengths")
        if n and not np.isfinite(self.xyz).all():
            raise ValueError("cloud coordinates must be finite")

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros(0))

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
    if voxel_mm is not None:
        if voxel_mm <= 0.0:
            raise ValueError("voxel_mm must be > 0")
        keys = np.floor(xyz / voxel_mm).astype(np.int64)
        # a stable sort keeps each voxel's points in input order, so the
        # first of every run of equal keys is the voxel's first point
        order = np.lexsort(keys.T[::-1])
        sorted_keys = keys[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        keep = np.sort(order[first])
        xyz, intensity = xyz[keep], intensity[keep]
    return PointCloud(xyz, intensity)


# coarse-to-fine grid search: the first cell is radius / _STEP**_LEVELS and
# each level grows it by _STEP until one cell spans the match radius
_STEP = 4
_LEVELS = 4
_PAIR_CHUNK = 1 << 16  # (target, candidate) pairs scored at once
# cells are at least 2**-_KEY_BITS of the joint extent, so every flat cell
# key fits in int64, and at least _MIN_CELL_MM, so squared gaps of a cell
# stay normal floats
_KEY_BITS = 20
_MIN_CELL_MM = 1e-150
# coordinates are at most this far from the origin, so every difference of
# two and its square stay finite
_MAX_ABS_MM = 1e150
# a cell's 27-cell block holds every point within (1 - _SLACK) * cell even
# after the rounding of the key arithmetic
_SLACK = 2.0**-30
_BLOCK = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)])


def _nearest_within(targets: np.ndarray, cloud_xyz: np.ndarray, radius: float) -> np.ndarray:
    """Distance from each target to its nearest cloud point, exact where it is <= radius.

    Each level hashes the cloud into cubic cells, sorts it by cell key and
    scores every open target against the points of its 27 surrounding cells.
    A target whose best distance lies within the block's guaranteed reach is
    settled, since no point outside the block can be closer.  The last level
    reaches past the radius, so a target left at inf there has no point
    within it; a larger distance returned there need not be the nearest.
    """
    lo = np.minimum(targets.min(axis=0), cloud_xyz.min(axis=0))
    extent = float((np.maximum(targets.max(axis=0), cloud_xyz.max(axis=0)) - lo).max())
    floor_cell = max(extent / 2.0**_KEY_BITS, _MIN_CELL_MM)
    # a hair past radius / (1 - _SLACK), so the last block reaches the radius
    last_cell = radius / (1.0 - _SLACK) ** 2
    best = np.full(targets.shape[0], np.inf)
    open_idx = np.arange(targets.shape[0])
    cell = last_cell / _STEP**_LEVELS
    while open_idx.size:
        cell = max(cell, floor_cell)
        last = cell >= last_cell
        cloud_ijk = np.floor((cloud_xyz - lo) / cell).astype(np.int64) + 1
        target_ijk = np.floor((targets[open_idx] - lo) / cell).astype(np.int64) + 1
        dims = np.maximum(cloud_ijk.max(axis=0), target_ijk.max(axis=0)) + 2
        strides = np.array([dims[1] * dims[2], dims[2], 1])
        cloud_keys = cloud_ijk @ strides
        order = np.argsort(cloud_keys, kind="stable")
        keys = cloud_keys[order]
        probes = (target_ijk @ strides)[:, None] + (_BLOCK @ strides)[None, :]
        starts = np.searchsorted(keys, probes, side="left").ravel()
        counts = np.searchsorted(keys, probes, side="right").ravel() - starts
        ends = np.cumsum(counts)
        for p0 in range(0, int(ends[-1]), _PAIR_CHUNK):
            pair = np.arange(p0, min(p0 + _PAIR_CHUNK, int(ends[-1])))
            probe = np.searchsorted(ends, pair, side="right")
            point = order[starts[probe] + pair - (ends[probe] - counts[probe])]
            owner = open_idx[probe // len(_BLOCK)]
            dist = np.linalg.norm(targets[owner] - cloud_xyz[point], axis=1)
            # pairs come grouped by owner, so each group reduces in one pass
            head = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            group = owner[head]
            best[group] = np.minimum(best[group], np.minimum.reduceat(dist, head))
        if last:
            break
        open_idx = open_idx[best[open_idx] > cell * (1.0 - _SLACK)]
        cell *= _STEP
    return best


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
    over the recovered points' nearest-match distances.  A scored scene
    point or a cloud point farther than 1e150 mm from the origin along any
    axis raises ValueError, since the distance arithmetic would overflow.
    """
    if not match_radius_mm > 0.0:
        raise ValueError("match_radius_mm must be > 0")
    targets = scene.xyz if visible_mask is None else scene.xyz[np.asarray(visible_mask, bool)]
    for name, xyz in (("scene", targets), ("cloud", cloud.xyz)):
        if np.abs(xyz).max(initial=0.0) > _MAX_ABS_MM:
            raise ValueError(f"{name} coordinates must lie within ±{_MAX_ABS_MM:g} mm to be scored")
    n_candidates = targets.shape[0]
    if n_candidates == 0 or len(cloud) == 0:
        return AccuracyReport(0.0, float("nan"), float("nan"), n_candidates, 0, match_radius_mm)
    dist = _nearest_within(targets, cloud.xyz, match_radius_mm)
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
    rows = np.column_stack([cloud.xyz / 1000.0, cloud.intensity])
    blocks = np.split(rows, range(_PLY_CHUNK_ROWS, len(rows), _PLY_CHUNK_ROWS))
    body = [((_PLY_ROW * len(b)) % tuple(b.ravel().tolist())).encode("ascii") for b in blocks]
    return b"".join([_PLY_HEADER.format(n=len(cloud)).encode("ascii"), *body])


def import_ply(data: bytes) -> PointCloud:
    """Read a PLY produced by :func:`export_ply`."""
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
    return PointCloud(values[:, :3] * 1000.0, values[:, 3])
