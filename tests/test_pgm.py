import numpy as np
import pytest

from stereorig.pgm import (
    PgmError,
    image_to_pgm_bytes,
    pgm_bytes_to_image,
    read_pgm,
    read_pgm_intensity,
    write_pgm,
)


def test_round_trip_8bit(tmp_path):
    raster = np.arange(24, dtype=np.uint8).reshape(4, 6)
    path = tmp_path / "a.pgm"
    write_pgm(path, raster)
    assert np.array_equal(read_pgm(path), raster)


def test_round_trip_16bit_big_endian(tmp_path):
    raster = np.array([[0, 256], [65535, 1]], dtype=np.uint16)
    path = tmp_path / "b.pgm"
    write_pgm(path, raster)
    data = path.read_bytes()
    # header then big-endian samples: 256 -> 0x01 0x00
    body = data.split(b"65535\n", 1)[1]
    assert body[:4] == b"\x00\x00\x01\x00"
    assert np.array_equal(read_pgm(path), raster)


def test_image_encoding_rounds_intensity():
    img = np.array([[0.0, 0.5, 1.0]])
    data = image_to_pgm_bytes(img)
    out = pgm_bytes_to_image(data)
    assert out.tolist() == [[0, 128, 255]]  # 0.5 * 255 = 127.5 rounds to even


def test_header_comments_are_skipped():
    data = b"P5\n# a comment\n2 1\n255\n\x07\x08"
    out = pgm_bytes_to_image(data)
    assert out.tolist() == [[7, 8]]


def test_corrupt_magic_rejected():
    with pytest.raises(PgmError):
        pgm_bytes_to_image(b"P6\n2 1\n255\n\x00\x00\x00\x00\x00\x00")


def test_truncated_raster_rejected():
    with pytest.raises(PgmError):
        pgm_bytes_to_image(b"P5\n4 4\n255\nxx")


def test_bad_header_field_rejected():
    with pytest.raises(PgmError):
        pgm_bytes_to_image(b"P5\ntwo 1\n255\n\x00")


def test_intensity_is_sample_over_the_files_maxval(tmp_path):
    for maxval, body in ((15, b"\x00\x05\x0f"), (255, b"\x00\x55\xff"), (1023, b"\x00\x00\x01\x55\x03\xff")):
        path = tmp_path / f"{maxval}.pgm"
        path.write_bytes(f"P5\n3 1\n{maxval}\n".encode("ascii") + body)
        assert read_pgm_intensity(path).tolist() == [[0.0, 1 / 3, 1.0]]


def test_sample_above_maxval_rejected():
    with pytest.raises(PgmError, match="exceeds maxval"):
        pgm_bytes_to_image(b"P5\n2 1\n15\n\x07\x10")
