"""Output checks for one workload's scans.

A scan passes when it exited 0, every artifact exists and parses, its bytes
equal the other repeats of the workload, and report.txt agrees with the
benchmark's own scoring of cloud.ply against the scene.  The parsers here
are independent of the package's readers on purpose.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPORT_KEYS = (
    "recall",
    "rmse_mm",
    "median_error_mm",
    "match_radius_mm",
    "cloud_points",
    "scene_points",
    "visible_points",
    "recovered_points",
)
_SHOT_LINE = re.compile(
    r"shot \d+ heading_deg \S+ baseline_mm \S+ range_mm \S+ setpoint_mm \S+ saturated [01]"
)
_PGM_HEADER = re.compile(rb"P5\n(\d+) (\d+)\n255\n")

# Own scoring: a seeded subsample of scene points that some capture surely
# sees (elevation within half the vertical half-field of view), compared with
# the whole-visible-set figures in report.txt.  The tolerances cover the
# subsample's sampling error and the difference between the two target sets.
SCORE_SAMPLE = 256
RECALL_TOLERANCE = 0.05
MEDIAN_TOLERANCE = 0.15


class CheckError(Exception):
    """An artifact that is missing, malformed or inconsistent."""


@dataclass
class ScanResult:
    """One scan child: its wall time, peak RSS, exit code and output directory."""

    wall_s: float
    rss_mb: float
    exit_code: int
    out_dir: Path
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def artifact_names(captures: int) -> list[str]:
    names = ["cloud.ply", "shots.log", "report.txt", "manifest.txt"]
    for i in range(captures):
        names += [f"shot_{i}_L.pgm", f"shot_{i}_R.pgm"]
    return names


def _normalised(name: str, data: bytes) -> bytes:
    # the manifest embeds the absolute scene path, which moves with the checkout
    if name != "manifest.txt":
        return data
    return re.sub(rb"(?m)^scene = .*/", b"scene = ", data)


def artifact_hashes(out_dir: Path, captures: int) -> dict[str, str]:
    """sha256 of every artifact, manifest.txt with its scene directory removed."""
    hashes = {}
    for name in artifact_names(captures):
        path = out_dir / name
        if not path.is_file():
            raise CheckError(f"missing artifact {name}")
        hashes[name] = hashlib.sha256(_normalised(name, path.read_bytes())).hexdigest()
    return hashes


def parse_report(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        try:
            values[key] = float(value)
        except ValueError:
            raise CheckError(f"report.txt: non-numeric line {line!r}") from None
    missing = [k for k in REPORT_KEYS if k not in values]
    if missing:
        raise CheckError(f"report.txt: missing {', '.join(missing)}")
    return values


def parse_ply_mm(data: bytes) -> np.ndarray:
    """Vertex coordinates of an ASCII PLY in millimeters, shape (n, 3)."""
    head, sep, body = data.partition(b"end_header\n")
    if not sep or not head.startswith(b"ply\n"):
        raise CheckError("cloud.ply: bad header")
    counts = re.findall(rb"(?m)^element vertex (\d+)$", head)
    if len(counts) != 1:
        raise CheckError("cloud.ply: no vertex count")
    n = int(counts[0])
    rows = body.count(b"\n")
    if rows != n or (body and not body.endswith(b"\n")):
        raise CheckError(f"cloud.ply: {rows} vertex rows, header says {n}")
    try:
        values = np.array(body.split(), dtype=float)
    except ValueError:
        raise CheckError("cloud.ply: non-numeric vertex field") from None
    if values.size != 4 * n or not np.isfinite(values).all():
        raise CheckError("cloud.ply: expected 4 finite fields per vertex")
    return values.reshape(n, 4)[:, :3] * 1000.0


def check_pgm(data: bytes, width: int, height: int) -> None:
    m = _PGM_HEADER.match(data)
    if m is None or (int(m[1]), int(m[2])) != (width, height):
        raise CheckError(f"pgm: expected a {width}x{height} 8-bit P5 header")
    if len(data) - m.end() != width * height:
        raise CheckError("pgm: raster size does not match the header")


def check_artifacts(out_dir: Path, workload) -> tuple[dict[str, float], np.ndarray]:
    """Parse every artifact; returns the report values and the cloud in mm."""
    report = parse_report((out_dir / "report.txt").read_text(encoding="utf-8"))
    cloud = parse_ply_mm((out_dir / "cloud.ply").read_bytes())
    shots = (out_dir / "shots.log").read_text(encoding="utf-8").splitlines()
    if len(shots) != workload.captures or not all(_SHOT_LINE.fullmatch(s) for s in shots):
        raise CheckError(f"shots.log: expected {workload.captures} shot lines")
    for i in range(workload.captures):
        for side in "LR":
            data = (out_dir / f"shot_{i}_{side}.pgm").read_bytes()
            check_pgm(data, workload.width_px, workload.height_px)
    if not (out_dir / "manifest.txt").read_text(encoding="utf-8").strip():
        raise CheckError("manifest.txt is empty")
    if report["cloud_points"] != len(cloud) or report["scene_points"] != workload.points:
        raise CheckError("report.txt: point counts disagree with cloud.ply or the scene")
    visible, recovered = report["visible_points"], report["recovered_points"]
    if not 0 < recovered <= visible <= workload.points:
        raise CheckError("report.txt: inconsistent visible/recovered counts")
    if abs(report["recall"] - recovered / visible) > 1e-5:
        raise CheckError("report.txt: recall differs from recovered/visible")
    return report, cloud


def nearest_distances(targets: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbour distance per target (brute force, chunked)."""
    cloud_sq = np.einsum("ij,ij->i", cloud, cloud)
    out = np.empty(len(targets))
    for start in range(0, len(targets), 32):
        t = targets[start : start + 32]
        nearest = (cloud_sq[None, :] - 2.0 * (t @ cloud.T)).argmin(axis=1)
        out[start : start + 32] = np.linalg.norm(t - cloud[nearest], axis=1)
    return out


def own_score(scene_xyz: np.ndarray, cloud: np.ndarray, radius_mm: float, workload, seed: int):
    """Recall and median error over a seeded subsample of surely visible points."""
    elevation = np.abs(scene_xyz[:, 1]) / np.hypot(scene_xyz[:, 0], scene_xyz[:, 2])
    limit = 0.5 * (workload.height_px / 2) / workload.focal_px
    candidates = np.flatnonzero(elevation <= limit)
    rng = np.random.default_rng(seed)
    pick = rng.choice(candidates, size=min(SCORE_SAMPLE, len(candidates)), replace=False)
    dist = nearest_distances(scene_xyz[pick], cloud)
    hits = dist[dist <= radius_mm]
    recall = len(hits) / len(pick)
    return recall, float(np.median(hits)) if len(hits) else float("nan")


def check_score(report: dict[str, float], cloud: np.ndarray, scene_xyz, workload, seed: int) -> None:
    recall, median = own_score(scene_xyz, cloud, report["match_radius_mm"], workload, seed)
    if abs(recall - report["recall"]) > RECALL_TOLERANCE:
        raise CheckError(f"report recall {report['recall']:g}, own scoring {recall:g}")
    if not abs(median - report["median_error_mm"]) <= MEDIAN_TOLERANCE * report["median_error_mm"]:
        raise CheckError(
            f"report median_error_mm {report['median_error_mm']:g}, own scoring {median:g}"
        )


def judge(results: list[ScanResult], workload, scene_xyz: np.ndarray, seed: int):
    """Mark each failed scan in place; returns (report, hashes) of the passing output.

    The first scan whose artifacts all exist and parse is the reference:
    every other repeat must match its bytes, and its report must agree with
    the own scoring, or every scan that shares its bytes fails too.
    """
    verdicts: dict[tuple, str | None] = {}  # artifact hashes -> content error
    parsed = {}
    hashes_of = {}
    for r in results:
        if r.exit_code != 0:
            r.errors.append(f"exit code {r.exit_code}")
            continue
        try:
            hashes = artifact_hashes(r.out_dir, workload.captures)
        except CheckError as exc:
            r.errors.append(str(exc))
            continue
        key = tuple(sorted(hashes.items()))
        if key not in verdicts:
            try:
                parsed[key] = check_artifacts(r.out_dir, workload)
                verdicts[key] = None
            except (CheckError, OSError, UnicodeDecodeError) as exc:
                verdicts[key] = str(exc)
        if verdicts[key] is not None:
            r.errors.append(verdicts[key])
        else:
            hashes_of[id(r)] = key

    passing = [r for r in results if not r.errors]
    if not passing:
        return None, None
    reference = hashes_of[id(passing[0])]
    report, cloud = parsed[reference]
    try:
        check_score(report, cloud, scene_xyz, workload, seed)
        score_error = None
    except CheckError as exc:
        score_error = str(exc)
    for r in passing:
        if hashes_of[id(r)] != reference:
            r.errors.append("artifacts differ from another repeat of the workload")
        elif score_error:
            r.errors.append(score_error)
    if score_error:
        return None, None
    return report, dict(reference)
