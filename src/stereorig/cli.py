"""Command-line front end: scan, plan, calibrate and match subcommands.

Exit codes: 0 on success, 2 for input or configuration problems, 3 for
an internal invariant violation.  Malformed input never produces a
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cloud import _fmt, export_ply, format_report
from .config import ConfigError, RunConfig, build_config, load_config, manifest_lines, parse_config
from .geometry import horizontal_fov_deg
from .mechanics import Axis, CalibrationError, Direction, PwmCommand, calibrate_scale, pwm_timing
from .pgm import PgmError, read_pgm_intensity, write_pgm
from .pipeline import scan
from .planner import format_shot_log, turn_pulses
from .scene import SceneParseError, load_scene
from .vision import depth_map_from_disparity, match_correlation

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _seed_override() -> int | None:
    raw = os.environ.get("STEREORIG_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"STEREORIG_SEED must be an integer, got {raw!r}") from None


def cmd_scan(config: RunConfig, values: dict, out_dir: Path) -> int:
    if config.scene_path is None:
        raise ConfigError("scan requires a 'scene' entry in the config")
    scene = load_scene(config.scene_path.read_text(encoding="utf-8"))
    out_dir.mkdir(parents=True, exist_ok=True)
    panels, shots, cloud, report = scan(config, scene)

    for i, (left, right) in enumerate(panels):
        (out_dir / f"shot_{i}_L.pgm").write_bytes(left)
        (out_dir / f"shot_{i}_R.pgm").write_bytes(right)
    (out_dir / "shots.log").write_text(format_shot_log(shots), encoding="utf-8")
    (out_dir / "cloud.ply").write_bytes(export_ply(cloud))
    (out_dir / "report.txt").write_text(
        format_report(report, len(cloud), len(scene)), encoding="utf-8"
    )
    (out_dir / "manifest.txt").write_text(manifest_lines(values), encoding="utf-8")
    print(f"scan complete: {len(panels)} captures, {len(cloud)} points -> {out_dir}")
    return EXIT_OK


def cmd_plan(config: RunConfig) -> int:
    cal = config.calibration
    fov = horizontal_fov_deg(config.intrinsics)
    plan = turn_pulses(fov, config.policy.overlap_fraction, cal)
    rate = cal.rotation_deg_per_pulse
    headings = [sum(plan[:i]) * rate for i in range(len(plan))]
    print(f"fov_deg {_fmt(fov)}")
    print(f"overlap_fraction {_fmt(config.policy.overlap_fraction)}")
    print(f"count {len(plan)}")
    print("headings " + " ".join(_fmt(h) for h in headings))
    for i, pulses in enumerate(plan):
        print(f"increment {i + 1} pulses {pulses} actuated_deg {_fmt(pulses * rate)}")
    total_pulses = sum(plan)
    total_cmd = PwmCommand(Axis.ROTATION, Direction.CW, total_pulses, cal.pwm_freq_hz, cal.pwm_duty)
    duration, on_time = pwm_timing(total_cmd)
    print(
        f"total_pulses {total_pulses} total_duration_s {_fmt(duration)} "
        f"total_on_time_s {_fmt(on_time)}"
    )
    return EXIT_OK


def cmd_calibrate(data_path: Path, rate_mm_per_pulse: float) -> int:
    rows = []
    for lineno, raw in enumerate(data_path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{data_path}:{lineno}: expected 'commanded measured'")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{data_path}:{lineno}: non-numeric row {raw!r}") from None
    if len(rows) < 2:
        raise ConfigError(f"{data_path}: need at least 2 calibration rows, found {len(rows)}")
    commanded, measured = zip(*rows)
    scale = calibrate_scale(commanded, measured)
    print(f"scale {_fmt(scale)}")
    print(f"corrected_baseline_mm_per_pulse {_fmt(rate_mm_per_pulse * scale)}")
    return EXIT_OK


def cmd_match(args, config: RunConfig) -> int:
    if not 0.0 < args.baseline_mm < math.inf:
        raise ConfigError(f"--baseline-mm must be finite and > 0, got {args.baseline_mm}")
    left = read_pgm_intensity(args.left)
    right = read_pgm_intensity(args.right)
    if left.shape != right.shape:
        raise ConfigError(f"image sizes differ: {left.shape[::-1]} vs {right.shape[::-1]}")
    flags = {"window_px": args.window, "search_range_px": args.search}
    vision = dataclasses.replace(config.vision, **{k: v for k, v in flags.items() if v is not None})
    disp = match_correlation(left, right, args.shift, **dataclasses.asdict(vision))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # disparity exported as 8.8 fixed point, depth as clamped whole millimeters
    d = disp.disparity
    fixed = np.zeros(d.shape, dtype=np.uint16)
    ok = np.isfinite(d)
    fixed[ok] = np.clip(np.rint(d[ok] * 256.0), 0, 65535).astype(np.uint16)
    write_pgm(out_dir / "disparity.pgm", fixed)

    depth = depth_map_from_disparity(disp, args.baseline_mm, config.intrinsics)
    depth_px = np.zeros(d.shape, dtype=np.uint16)
    ok_z = np.isfinite(depth.depth_mm)
    depth_px[ok_z] = np.clip(np.rint(depth.depth_mm[ok_z]), 0, 65535).astype(np.uint16)
    write_pgm(out_dir / "depth.pgm", depth_px)

    total = d.size
    matched = disp.matched_count
    mean_disp = float(np.mean(d[ok])) if matched else float("nan")
    print(
        f"matched_fraction {_fmt(matched / total)} mean_disparity {_fmt(mean_disp)} "
        f"matched_px {matched} total_px {total}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereorig",
        description="Simulate an autonomous rotating stereo rig and reconstruct point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run a full capture-and-reconstruct scan")
    p_scan.add_argument("--config", required=True, type=Path)
    p_scan.add_argument("--out", required=True, type=Path)

    p_plan = sub.add_parser("plan", help="print the rotation schedule and pulse plan")
    p_plan.add_argument("--config", required=True, type=Path)

    p_cal = sub.add_parser("calibrate", help="estimate the actuation scale factor")
    p_cal.add_argument("--data", required=True, type=Path)
    p_cal.add_argument("--config", type=Path, default=None)

    p_match = sub.add_parser("match", help="match a stereo PGM pair into disparity/depth maps")
    p_match.add_argument("--left", required=True, type=Path)
    p_match.add_argument("--right", required=True, type=Path)
    p_match.add_argument("--shift", type=int, default=0)
    # unset, these take vision.search_range_px and vision.window_px from the config
    p_match.add_argument("--search", type=int, default=None)
    p_match.add_argument("--window", type=int, default=None)
    p_match.add_argument("--baseline-mm", type=float, default=100.0)
    p_match.add_argument("--config", type=Path, default=None)
    p_match.add_argument("--out", type=Path, default=Path("."))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:  # only calibrate and match may omit --config
            values = parse_config("")
            config = build_config(values)
        else:
            seed = _seed_override() if args.command in ("scan", "plan") else None
            config, values = load_config(args.config, seed_override=seed)
        if args.command == "scan":
            return cmd_scan(config, values, args.out)
        if args.command == "plan":
            return cmd_plan(config)
        if args.command == "calibrate":
            return cmd_calibrate(args.data, config.calibration.baseline_mm_per_pulse)
        if args.command == "match":
            return cmd_match(args, config)
        raise AssertionError(f"unhandled command {args.command}")
    except (
        ConfigError,
        SceneParseError,
        PgmError,
        CalibrationError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
