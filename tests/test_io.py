import numpy as np
import pytest
from numpy.testing import assert_allclose

import tubal.tio
from tubal import (
    BadHeader,
    BadMagic,
    DimMismatch,
    DimOverflow,
    EmptyDir,
    InconsistentDims,
    NonFiniteData,
    TruncatedFile,
    frobenius_norm,
    load_pgm_stack,
    load_tns,
    reshape3,
    save_pgm_stack,
    save_tns,
)
from tubal.tio import load_pgm, save_pgm


# ---------------------------------------------------------------------- TNS1

def test_tns_round_trip_bit_identical(tmp_path, rand_tensor):
    x = rand_tensor(5, 4, 3, seed=1)
    path = tmp_path / "t.tns"
    save_tns(x, path)
    back = load_tns(path)
    assert back.shape == x.shape
    assert np.array_equal(back, x)


def test_tns_layout_is_first_mode_fastest(tmp_path):
    x = np.arange(24.0).reshape(2, 3, 4, order="F")
    path = tmp_path / "t.tns"
    save_tns(x, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TNS1"
    assert np.frombuffer(raw[4:28], dtype="<u8").tolist() == [2, 3, 4]
    payload = np.frombuffer(raw[28:], dtype="<f8")
    assert_allclose(payload, np.arange(24.0), atol=0)


def test_tns_bytes_independent_of_input_layout_and_dtype(tmp_path, rand_tensor):
    # float32 values are exact in float64, so every variant holds the same tensor
    x = np.asfortranarray(rand_tensor(5, 4, 3, seed=2).astype(np.float32).astype(np.float64))
    variants = {
        "fortran": x,
        "c_order": np.ascontiguousarray(x),
        "strided": np.moveaxis(np.moveaxis(x, 2, 0).copy(), 0, 2),
        "float32": x.astype(np.float32),
        "big_endian": x.astype(">f8"),
    }
    save_tns(x, tmp_path / "ref.tns")
    ref = (tmp_path / "ref.tns").read_bytes()
    assert len(ref) == 28 + 8 * x.size
    for name, v in variants.items():
        save_tns(v, tmp_path / f"{name}.tns")
        assert (tmp_path / f"{name}.tns").read_bytes() == ref, name


def test_tns_bad_magic(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        load_tns(path)


def test_tns_truncated_payload(tmp_path, rand_tensor):
    x = rand_tensor(4, 4, 4, seed=2)
    path = tmp_path / "t.tns"
    save_tns(x, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(TruncatedFile):
        load_tns(path)


def test_tns_truncated_header(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes(b"TNS1" + b"\x00" * 10)
    with pytest.raises(TruncatedFile):
        load_tns(path)


def test_tns_overlong_payload(tmp_path, rand_tensor):
    path = tmp_path / "t.tns"
    save_tns(rand_tensor(4, 4, 4, seed=2), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(TruncatedFile):
        load_tns(path)


@pytest.mark.parametrize("cut", [14, 28 + 8 * 63])
def test_tns_short_file_raises_before_payload_read(cut, tmp_path, rand_tensor, monkeypatch):
    path = tmp_path / "t.tns"
    save_tns(rand_tensor(4, 4, 4, seed=3), path)
    path.write_bytes(path.read_bytes()[:cut])
    reads = []
    monkeypatch.setattr(tubal.tio.np, "fromfile", lambda *a, **k: reads.append(a))
    with pytest.raises(TruncatedFile):
        load_tns(path)
    assert not reads


def test_tns_load_is_writable_fortran(tmp_path, rand_tensor):
    path = tmp_path / "t.tns"
    x = rand_tensor(5, 4, 3, seed=4)
    save_tns(x, path)
    back = load_tns(path)
    assert back.flags.writeable and back.flags.f_contiguous
    back[0, 0, 0] += 1.0
    assert back[0, 0, 0] == x[0, 0, 0] + 1.0


def test_tns_dim_overflow(tmp_path):
    path = tmp_path / "t.tns"
    dims = np.array([2**40, 2**40, 2**40], dtype="<u8")
    path.write_bytes(b"TNS1" + dims.tobytes())
    with pytest.raises(DimOverflow):
        load_tns(path)


def test_tns_zero_dim_rejected(tmp_path):
    path = tmp_path / "t.tns"
    dims = np.array([0, 3, 3], dtype="<u8")
    path.write_bytes(b"TNS1" + dims.tobytes())
    with pytest.raises(DimOverflow):
        load_tns(path)


def test_tns_non_finite_rejected(tmp_path):
    path = tmp_path / "t.tns"
    dims = np.array([1, 1, 2], dtype="<u8")
    payload = np.array([1.0, np.nan], dtype="<f8")
    path.write_bytes(b"TNS1" + dims.tobytes() + payload.tobytes())
    with pytest.raises(NonFiniteData):
        load_tns(path)


# ------------------------------------------------------------------- reshape

def test_reshape3_round_trip(rand_tensor):
    x = rand_tensor(4, 3, 2, seed=3)
    y = reshape3(x, (2, 3, 4))
    back = reshape3(y, (4, 3, 2))
    assert np.array_equal(back, x)


def test_reshape3_preserves_linear_order():
    x = np.arange(24.0).reshape(4, 3, 2, order="F")
    y = reshape3(x, (2, 3, 4))
    assert_allclose(y.ravel(order="F"), np.arange(24.0), atol=0)


def test_reshape3_preserves_norm(rand_tensor):
    x = rand_tensor(6, 5, 4, seed=4)
    assert frobenius_norm(reshape3(x, (4, 5, 6))) == frobenius_norm(x)


def test_reshape3_size_mismatch(rand_tensor):
    with pytest.raises(DimMismatch):
        reshape3(rand_tensor(4, 3, 2, seed=5), (4, 3, 3))
    with pytest.raises(DimMismatch):
        reshape3(rand_tensor(4, 3, 2, seed=5), (-4, -3, 2))


# ----------------------------------------------------------------------- PGM

def _write_pgm(path, width, height, pixels, maxval=255, magic=b"P5"):
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n%d\n" % (width, height, maxval))
        f.write(bytes(pixels))


def test_pgm_single_image_layout(tmp_path):
    # raster rows are PGM rows: pixel order (r0c0, r0c1, r1c0, r1c1)
    p = tmp_path / "a.pgm"
    _write_pgm(p, 2, 2, [0, 255, 0, 255])
    img = load_pgm(p)
    assert_allclose(img, [[0.0, 1.0], [0.0, 1.0]], atol=0)


def test_pgm_stack_order_and_scale(tmp_path):
    _write_pgm(tmp_path / "b.pgm", 2, 2, [255, 255, 0, 0])
    _write_pgm(tmp_path / "a.pgm", 2, 2, [0, 255, 0, 255])
    x = load_pgm_stack(tmp_path)
    assert x.shape == (2, 2, 2)
    assert_allclose(x[:, :, 0], [[0, 1], [0, 1]], atol=0)  # a.pgm sorts first
    assert_allclose(x[:, :, 1], [[1, 1], [0, 0]], atol=0)


def test_pgm_stack_with_comment_header(tmp_path):
    p = tmp_path / "c.pgm"
    with open(p, "wb") as f:
        f.write(b"P5\n# a comment line\n2 1\n255\n")
        f.write(bytes([10, 20]))
    x = load_pgm_stack(tmp_path)
    assert x.shape == (1, 2, 1)
    assert_allclose(x[:, :, 0], [[10 / 255, 20 / 255]], atol=0)


def test_pgm_empty_dir(tmp_path):
    with pytest.raises(EmptyDir):
        load_pgm_stack(tmp_path)
    with pytest.raises(EmptyDir):
        load_pgm_stack(tmp_path / "missing")


def test_pgm_inconsistent_dims(tmp_path):
    _write_pgm(tmp_path / "a.pgm", 2, 2, [0, 0, 0, 0])
    _write_pgm(tmp_path / "b.pgm", 2, 1, [0, 0])
    with pytest.raises(InconsistentDims):
        load_pgm_stack(tmp_path)


def test_pgm_bad_headers(tmp_path):
    _write_pgm(tmp_path / "a.pgm", 2, 1, [0, 0], magic=b"P2")
    with pytest.raises(BadHeader):
        load_pgm_stack(tmp_path)
    (tmp_path / "a.pgm").unlink()
    _write_pgm(tmp_path / "b.pgm", 2, 1, [0, 0], maxval=65535)
    with pytest.raises(BadHeader):
        load_pgm_stack(tmp_path)
    (tmp_path / "b.pgm").unlink()
    _write_pgm(tmp_path / "c.pgm", 2, 2, [0, 0])  # raster too short
    with pytest.raises(BadHeader):
        load_pgm_stack(tmp_path)


def test_pgm_write_read_round_trip(tmp_path):
    img = np.linspace(0, 1, 12).reshape(3, 4)
    save_pgm(tmp_path / "w.pgm", img)
    back = load_pgm(tmp_path / "w.pgm")
    assert np.abs(back - img).max() <= 0.5 / 255


def test_pgm_stack_save_round_trip(tmp_path, rand_tensor):
    x = (rand_tensor(4, 5, 3, seed=6) % 1.0 + 1.0) % 1.0
    out = tmp_path / "imgs"
    save_pgm_stack(out, x)
    back = load_pgm_stack(out)
    assert back.shape == x.shape
    assert np.abs(back - x).max() <= 0.5 / 255
