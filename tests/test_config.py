import pytest

from stereorig.config import (
    ConfigError,
    VisionParams,
    build_config,
    load_config,
    manifest_lines,
    parse_config,
)
from stereorig.planner import TargetDisparity, TargetRatio


def test_defaults_resolve():
    config = build_config(parse_config(""))
    assert config.intrinsics.focal_px == 280.0
    assert config.calibration.pwm_freq_hz == 1333.0
    assert isinstance(config.policy.mode, TargetRatio)
    assert config.vision.window_px == 7
    assert config.scene_path is None


def test_dotted_keys_and_comments():
    values = parse_config(
        """
        # a demo configuration
        policy.mode = disparity
        policy.target = 40   # pixels
        vision.search_range_px = 12
        with_error = true
        """
    )
    config = build_config(values)
    assert isinstance(config.policy.mode, TargetDisparity)
    assert config.policy.mode.value == 40.0
    assert config.vision.search_range_px == 12
    assert config.with_error is True


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("spelling.mistake = 1")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words")


def test_out_of_range_values_rejected():
    with pytest.raises(ConfigError):
        build_config(parse_config("calibration.pwm_duty = 1.5"))
    with pytest.raises(ConfigError):
        build_config(parse_config("intrinsics.image_width_px = 4"))
    with pytest.raises(ConfigError, match="4096"):
        build_config(parse_config("intrinsics.image_width_px = 4097"))
    with pytest.raises(ConfigError):
        build_config(parse_config("policy.mode = sideways"))
    with pytest.raises(ConfigError):
        build_config(parse_config("vision.window_px = 6"))
    with pytest.raises(ConfigError):
        build_config(parse_config("scan.cone_half_angle_deg = 90"))


FLOAT_KEYS = [key for key, default in parse_config("").items() if isinstance(default, float)]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_rejected(key, text):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = {text}\n")


def test_scene_resolved_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "run.cfg").write_text("scene = my.scene\n", encoding="utf-8")
    (sub / "my.scene").write_text("p 0 0 2000 0.5\n", encoding="utf-8")
    config, values = load_config(sub / "run.cfg")
    assert config.scene_path == sub / "my.scene"
    assert values["scene"].endswith("my.scene")


def test_missing_scene_file_rejected(tmp_path):
    (tmp_path / "run.cfg").write_text("scene = ghost.scene\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "run.cfg")


def test_seed_override(tmp_path):
    (tmp_path / "run.cfg").write_text("seed = 5\n", encoding="utf-8")
    config, values = load_config(tmp_path / "run.cfg", seed_override=99)
    assert config.seed == 99
    assert values["seed"] == 99


def test_manifest_round_trips_through_parser():
    values = parse_config("policy.target = 0.1\nseed = 3")
    text = manifest_lines(values)
    again = parse_config(text)
    assert again == values


def test_vision_params_validation():
    with pytest.raises(ConfigError):
        VisionParams(window_px=4)
    with pytest.raises(ConfigError):
        VisionParams(search_range_px=-1)
