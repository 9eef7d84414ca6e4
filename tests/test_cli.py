import math

import numpy as np
import pytest

from stereorig.cli import main
from stereorig.pgm import image_to_pgm_bytes, read_pgm
from stereorig.scene import RigPose, load_scene, render_stereo_pair
from stereorig.geometry import CameraIntrinsics

# focal length giving exactly a 60 degree horizontal field of view at 256 px
FOV60_FOCAL = 128.0 * math.sqrt(3.0)

DEMO_CONFIG = f"""
scene = room.scene
intrinsics.focal_px = {FOV60_FOCAL!r}
intrinsics.image_width_px = 256
intrinsics.image_height_px = 192
policy.mode = ratio
policy.target = 0.05
policy.overlap_fraction = 0.3
"""

DEMO_SCENE = "room 4000 3000 2500 120 seed 42\n"


@pytest.fixture
def demo_dir(tmp_path):
    (tmp_path / "run.cfg").write_text(DEMO_CONFIG, encoding="utf-8")
    (tmp_path / "room.scene").write_text(DEMO_SCENE, encoding="utf-8")
    return tmp_path


def test_scan_demo_room(demo_dir, capsys):
    out = demo_dir / "out"
    code = main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(out)])
    assert code == 0
    for i in range(9):
        assert (out / f"shot_{i}_L.pgm").is_file()
        assert (out / f"shot_{i}_R.pgm").is_file()
    assert not (out / "shot_9_L.pgm").exists()
    cloud = (out / "cloud.ply").read_bytes()
    assert b"element vertex" in cloud
    assert not cloud.endswith(b"element vertex 0\n")
    log_lines = (out / "shots.log").read_text().splitlines()
    assert len(log_lines) == 9
    assert log_lines[0].startswith("shot 0 heading_deg 0 ")
    report = dict(
        line.split() for line in (out / "report.txt").read_text().splitlines()
    )
    assert 0.0 <= float(report["recall"]) <= 1.0
    manifest = (out / "manifest.txt").read_text()
    assert "policy.target = 0.05" in manifest
    assert "vision.window_px = 7" in manifest  # defaults are echoed too


def test_scan_missing_scene_exits_2(tmp_path):
    (tmp_path / "run.cfg").write_text("scene = nope.scene\n", encoding="utf-8")
    code = main(["scan", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_scan_config_without_scene_exits_2(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("vision.window_px = 7\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["scan", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 2
    assert "'scene'" in capsys.readouterr().err
    assert not out.exists()


def test_scan_unknown_key_exits_2(tmp_path):
    (tmp_path / "run.cfg").write_text("scene = s\nnot.a.key = 1\n", encoding="utf-8")
    (tmp_path / "s").write_text("p 0 0 2000 0.5\n", encoding="utf-8")
    code = main(["scan", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "config, scene",
    [
        ("", "# no points\n"),
        ("", "p 0 0 0 0.5\n"),
        ("policy.baseline_min_mm = 0\n", "p 0 0 2000 0.5\n"),
    ],
    ids=["empty-scene", "point-at-rig-center", "zero-baseline-min"],
)
def test_scan_degenerate_input_exits_2(tmp_path, config, scene):
    (tmp_path / "run.cfg").write_text("scene = s\n" + config, encoding="utf-8")
    (tmp_path / "s").write_text(scene, encoding="utf-8")
    code = main(["scan", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_scan_non_finite_config_float_exits_2(demo_dir):
    cfg = demo_dir / "run.cfg"
    cfg.write_text(DEMO_CONFIG + "scan.blob_radius_px = nan\n", encoding="utf-8")
    assert main(["scan", "--config", str(cfg), "--out", str(demo_dir / "out")]) == 2
    assert not (demo_dir / "out").exists()


def test_scan_shift_beyond_image_width_matches_nothing(tmp_path):
    # a 200 mm baseline on a point 150 mm away predicts a shift wider than the image
    (tmp_path / "run.cfg").write_text("scene = s\npolicy.baseline_min_mm = 200\n", encoding="utf-8")
    (tmp_path / "s").write_text("p 0 0 150 0.5\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["scan", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
    report = dict(line.split() for line in (out / "report.txt").read_text().splitlines())
    assert report["cloud_points"] == "0"


def test_scan_deterministic_bytes(demo_dir):
    out_a, out_b = demo_dir / "a", demo_dir / "b"
    assert main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(out_a)]) == 0
    assert main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(out_b)]) == 0
    assert (out_a / "cloud.ply").read_bytes() == (out_b / "cloud.ply").read_bytes()
    assert (out_a / "shots.log").read_bytes() == (out_b / "shots.log").read_bytes()


def _plan(config_path, capsys):
    """Run ``stereorig plan``; returns its lines split into words."""
    assert main(["plan", "--config", str(config_path)]) == 0
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_plan_output(demo_dir, capsys):
    by_key = _plan(demo_dir / "run.cfg", capsys)
    assert ["count", "9"] in by_key
    # every step sends floor(42 / 5) = 8 whole pulses, 40 degrees
    headings = next(parts for parts in by_key if parts[0] == "headings")
    assert headings[1:4] == ["0", "40", "80"]
    pulses = [int(p[p.index("pulses") + 1]) for p in by_key if p[0] == "increment"]
    assert pulses == [8] * 9
    total = next(parts for parts in by_key if parts[0] == "total_pulses")
    assert int(total[1]) == 72 == 360 // 5


@pytest.mark.parametrize("command", ["plan", "scan"])
def test_sub_pulse_step_exits_2(tmp_path, capsys, command):
    # 1.28 degree steps at 5 degrees per pulse: no step can send a whole pulse
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scene = s\nintrinsics.focal_px = 10000\nintrinsics.image_width_px = 320\n",
        encoding="utf-8",
    )
    (tmp_path / "s").write_text("p 0 0 2000 0.5\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "scan" else [])
    assert main(argv) == 2
    assert "under one 5 deg pulse" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/shot_*"))


def test_rotation_rate_too_fine_to_count_exits_2(tmp_path, capsys):
    # 360 / 1e-310 overflows a float, so no whole-pulse turn can be counted
    cfg = tmp_path / "run.cfg"
    cfg.write_text("calibration.rotation_deg_per_pulse = 1e-310\n", encoding="utf-8")
    assert main(["plan", "--config", str(cfg)]) == 2
    assert "too many pulses" in capsys.readouterr().err


def test_plan_rejects_full_overlap(tmp_path):
    (tmp_path / "run.cfg").write_text("policy.overlap_fraction = 1.0\n", encoding="utf-8")
    assert main(["plan", "--config", str(tmp_path / "run.cfg")]) == 2


def test_plan_schedule_never_empty(demo_dir, capsys):
    code = main(["plan", "--config", str(demo_dir / "run.cfg")])
    assert code == 0
    out = capsys.readouterr().out
    count = int(next(l for l in out.splitlines() if l.startswith("count")).split()[1])
    assert count >= math.ceil(360.0 / 60.0)


def test_calibrate_three_percent(tmp_path, capsys):
    data = tmp_path / "pairs.txt"
    data.write_text("25 25.75\n50 51.5\n", encoding="utf-8")
    assert main(["calibrate", "--data", str(data)]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["scale"]) == pytest.approx(1.03, abs=1e-9)
    assert float(out["corrected_baseline_mm_per_pulse"]) == pytest.approx(5.15, abs=1e-9)


def test_calibrate_identity(tmp_path, capsys):
    data = tmp_path / "pairs.txt"
    data.write_text("10 10\n20 20\n30 30\n", encoding="utf-8")
    assert main(["calibrate", "--data", str(data)]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["scale"]) == pytest.approx(1.0)


def test_calibrate_single_row_exits_2(tmp_path):
    data = tmp_path / "pairs.txt"
    data.write_text("10 10.3\n", encoding="utf-8")
    assert main(["calibrate", "--data", str(data)]) == 2


@pytest.mark.parametrize("row", ["10 10 10", "10 ten", "10 nan"])
def test_calibrate_bad_row_exits_2(tmp_path, row):
    data = tmp_path / "pairs.txt"
    data.write_text(f"20 20.6\n{row}\n30 30.9\n", encoding="utf-8")
    assert main(["calibrate", "--data", str(data)]) == 2


def test_calibrate_skips_comments_and_blank_lines(tmp_path, capsys):
    data = tmp_path / "pairs.txt"
    data.write_text("# commanded measured\n\n25 25.75  # first\n   \n50 51.5\n", encoding="utf-8")
    assert main(["calibrate", "--data", str(data)]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["scale"]) == pytest.approx(1.03, abs=1e-9)


def test_match_identical_images_zero_disparity(tmp_path, capsys):
    rng = np.random.default_rng(5)
    img = rng.random((48, 64))
    (tmp_path / "l.pgm").write_bytes(image_to_pgm_bytes(img))
    (tmp_path / "r.pgm").write_bytes(image_to_pgm_bytes(img))
    code = main(
        [
            "match",
            "--left",
            str(tmp_path / "l.pgm"),
            "--right",
            str(tmp_path / "r.pgm"),
            "--shift",
            "0",
            "--search",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    disparity = read_pgm(tmp_path / "disparity.pgm")
    assert disparity.dtype == np.uint16
    assert (disparity == 0).all()  # zero disparity in 8.8 fixed point
    stats = capsys.readouterr().out
    assert "matched_fraction" in stats and "mean_disparity" in stats
    frac = float(stats.split("matched_fraction ")[1].split()[0])
    assert frac > 0.5


def test_match_on_scan_output(demo_dir, capsys):
    out = demo_dir / "out"
    assert main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(
        [
            "match",
            "--left",
            str(out / "shot_0_L.pgm"),
            "--right",
            str(out / "shot_0_R.pgm"),
            "--shift",
            "9",
            "--search",
            "8",
            "--out",
            str(demo_dir / "m"),
        ]
    )
    assert code == 0
    assert (demo_dir / "m" / "disparity.pgm").is_file()
    assert (demo_dir / "m" / "depth.pgm").is_file()
    # at least half of the covered pixels should match the render's truth
    scene = load_scene(DEMO_SCENE)
    intr = CameraIntrinsics(FOV60_FOCAL, 256, 192)
    shots = (out / "shots.log").read_text().splitlines()
    baseline = float(shots[0].split("baseline_mm ")[1].split()[0])
    pair = render_stereo_pair(scene, RigPose(0.0), baseline, intr)
    disparity = read_pgm(demo_dir / "m" / "disparity.pgm").astype(float) / 256.0
    covered = np.isfinite(pair.truth_disparity)
    good = covered & (np.abs(disparity - np.nan_to_num(pair.truth_disparity)) <= 1.0)
    assert good.sum() >= 0.5 * covered.sum()


def test_match_size_mismatch_exits_2(tmp_path):
    (tmp_path / "l.pgm").write_bytes(image_to_pgm_bytes(np.zeros((8, 8))))
    (tmp_path / "r.pgm").write_bytes(image_to_pgm_bytes(np.zeros((8, 9))))
    code = main(
        ["match", "--left", str(tmp_path / "l.pgm"), "--right", str(tmp_path / "r.pgm")]
    )
    assert code == 2


def test_match_scales_each_panel_by_its_own_maxval(tmp_path, capsys):
    rng = np.random.default_rng(8)
    levels = rng.integers(0, 16, size=(40, 64))  # samples of a maxval-15 file
    right = np.zeros_like(levels)
    right[:, :-3] = levels[:, 3:]

    def pgm(raster, maxval):
        h, w = raster.shape
        body = raster.astype(">u2" if maxval > 255 else np.uint8).tobytes()
        return f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + body

    # the same intensities at three maxvals; the left and right files differ in theirs
    pairs = {"15": (pgm(levels, 15), pgm(right * 17, 255)),
             "255": (pgm(levels * 17, 255), pgm(right * 4369, 65535)),
             "65535": (pgm(levels * 4369, 65535), pgm(right, 15))}
    outputs = {}
    for name, (left_pgm, right_pgm) in pairs.items():
        (tmp_path / f"{name}_L.pgm").write_bytes(left_pgm)
        (tmp_path / f"{name}_R.pgm").write_bytes(right_pgm)
        argv = ["match", "--left", str(tmp_path / f"{name}_L.pgm"),
                "--right", str(tmp_path / f"{name}_R.pgm"), "--shift", "0", "--out",
                str(tmp_path / name)]
        assert main(argv) == 0
        stats = capsys.readouterr().out.split()
        outputs[name] = (stats[stats.index("matched_px") + 1],
                         (tmp_path / name / "disparity.pgm").read_bytes())
    assert int(outputs["15"][0]) > 0
    assert outputs["15"] == outputs["255"] == outputs["65535"]


def test_match_sample_above_maxval_exits_2(tmp_path):
    (tmp_path / "l.pgm").write_bytes(b"P5\n2 1\n15\n\x07\x10")
    (tmp_path / "r.pgm").write_bytes(image_to_pgm_bytes(np.zeros((1, 2))))
    code = main(["match", "--left", str(tmp_path / "l.pgm"), "--right", str(tmp_path / "r.pgm")])
    assert code == 2


def test_match_takes_window_and_search_from_config(tmp_path):
    scene = load_scene(DEMO_SCENE)
    pair = render_stereo_pair(scene, RigPose(0.0), 100.0, CameraIntrinsics(FOV60_FOCAL, 256, 192))
    (tmp_path / "l.pgm").write_bytes(image_to_pgm_bytes(pair.left))
    (tmp_path / "r.pgm").write_bytes(image_to_pgm_bytes(pair.right))
    (tmp_path / "v.cfg").write_text(
        "vision.window_px = 11\nvision.search_range_px = 0\n", encoding="utf-8"
    )

    def disparity(name, *flags):
        pgms = ["--left", str(tmp_path / "l.pgm"), "--right", str(tmp_path / "r.pgm")]
        out = tmp_path / name
        assert main(["match", *pgms, "--shift", "9", *flags, "--out", str(out)]) == 0
        return (out / "disparity.pgm").read_bytes()

    from_config = disparity("cfg", "--config", str(tmp_path / "v.cfg"))
    assert from_config == disparity("flags", "--window", "11", "--search", "0")
    assert from_config != disparity("defaults")
    # a flag the user gives still overrides the config's value
    assert disparity("mixed", "--config", str(tmp_path / "v.cfg"), "--search", "8") == disparity(
        "flags8", "--window", "11", "--search", "8"
    )


@pytest.mark.parametrize("focal_px", ["1e6", "1e12"])
@pytest.mark.parametrize("command", ["plan", "scan"])
def test_capture_cap_exits_2_before_allocating(demo_dir, capsys, command, focal_px):
    cfg = demo_dir / "run.cfg"
    cfg.write_text(DEMO_CONFIG.replace(repr(FOV60_FOCAL), focal_px), encoding="utf-8")
    out = demo_dir / "out"
    argv = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "scan" else [])
    assert main(argv) == 2
    assert "captures per turn" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--window", "4"), ("--search", "-1")])
def test_match_bad_vision_params_exit_2(tmp_path, flag, value):
    img = image_to_pgm_bytes(np.zeros((8, 8)))
    (tmp_path / "l.pgm").write_bytes(img)
    (tmp_path / "r.pgm").write_bytes(img)
    left, right = str(tmp_path / "l.pgm"), str(tmp_path / "r.pgm")
    assert main(["match", "--left", left, "--right", right, flag, value]) == 2


@pytest.mark.parametrize("baseline", ["-5", "0", "nan", "inf"])
def test_match_bad_baseline_exits_2_before_reading_images(tmp_path, capsys, baseline):
    # the images do not exist: the baseline must be rejected first
    left, right = str(tmp_path / "l.pgm"), str(tmp_path / "r.pgm")
    code = main(["match", "--left", left, "--right", right, f"--baseline-mm={baseline}"])
    assert code == 2
    assert "--baseline-mm" in capsys.readouterr().err


def test_match_corrupt_header_exits_2(tmp_path):
    (tmp_path / "l.pgm").write_bytes(b"P5\nbroken")
    (tmp_path / "r.pgm").write_bytes(image_to_pgm_bytes(np.zeros((8, 8))))
    code = main(
        ["match", "--left", str(tmp_path / "l.pgm"), "--right", str(tmp_path / "r.pgm")]
    )
    assert code == 2


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_internal_failure_exits_3(demo_dir, monkeypatch, error):
    import stereorig.cli as cli

    def boom(*args, **kwargs):
        raise error("simulated defect")

    monkeypatch.setattr(cli, "scan", boom)
    code = main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(demo_dir / "o")])
    assert code == 3


def test_env_seed_override_is_recorded(demo_dir, monkeypatch):
    monkeypatch.setenv("STEREORIG_SEED", "777")
    out = demo_dir / "seeded"
    assert main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(out)]) == 0
    assert "seed = 777" in (out / "manifest.txt").read_text()


def test_env_seed_must_be_integer(demo_dir, monkeypatch):
    monkeypatch.setenv("STEREORIG_SEED", "not-a-number")
    assert main(["scan", "--config", str(demo_dir / "run.cfg"), "--out", str(demo_dir / "x")]) == 2
