import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapefit import formats
from shapefit.errors import DataError
from shapefit.rng import substream


def test_container_roundtrip_arrays(tmp_path):
    rng = substream(0, "c")
    arrays = {
        "net.0.w": rng.standard_normal((8, 3)),
        "net.0.b": rng.standard_normal(8),
        "table": rng.standard_normal((5, 16)),
        "cube": rng.standard_normal((2, 3, 4)),
        "scalar": np.array([3.0]),
        "zero-d": np.array(-1.5),
        "empty": np.zeros((0, 4)),
    }
    path = tmp_path / "ckpt.bin"
    formats.save_container(path, arrays)
    back = formats.load_container(path)
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == np.float64
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(back[name], arr)


def test_container_rejects_version_1(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(formats.MAGIC + struct.pack("<II", 1, 0))
    with pytest.raises(DataError, match="unsupported container version 1"):
        formats.load_container(path)


def test_container_rejects_a_repeated_section_name(tmp_path):
    # save_container takes a dict, so only a damaged or foreign file repeats a name
    section = struct.pack("<I", 1) + b"x" + struct.pack("<BI", 1, 1) + struct.pack("<d", 1.0)
    path = tmp_path / "twice.bin"
    path.write_bytes(formats.MAGIC + struct.pack("<II", formats.VERSION, 2) + section + section)
    with pytest.raises(DataError, match="section name 'x' is repeated"):
        formats.load_container(path)


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError):
        formats.load_container(path)


def test_container_byte_identical_rewrites(tmp_path):
    rng = substream(1, "d")
    arrays = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    formats.save_container(p1, arrays)
    formats.save_container(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def _ply_points(path, n):
    """Check the header `save_ply` writes for n points; return its body as
    little-endian float32 (n, 3)."""
    data = path.read_bytes()
    header = (
        f"ply\nformat binary_little_endian 1.0\nelement vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    ).encode("ascii")
    assert data[: len(header)] == header
    return np.frombuffer(data[len(header):], dtype="<f4").reshape(n, 3)


def test_ply_roundtrip(tmp_path):
    pts = substream(2, "ply").uniform(-1, 1, (77, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "cloud.ply"
    formats.save_ply(path, pts)
    np.testing.assert_array_equal(_ply_points(path, 77).astype(np.float64), pts)


def test_ply_binary_exact_f32(tmp_path):
    pts = substream(3, "p").uniform(-1, 1, (20, 3))
    path = tmp_path / "c.ply"
    formats.save_ply(path, pts)
    got = _ply_points(path, 20)
    np.testing.assert_array_equal(got.view("<u4"), pts.astype("<f4").view("<u4"))


def test_pfm_roundtrip(tmp_path):
    img = substream(4, "pfm").uniform(0, 3, (33, 47)).astype(np.float32)
    path = tmp_path / "depth.pfm"
    formats.save_pfm(path, img)
    back = formats.load_pfm(path)
    np.testing.assert_array_equal(back, img.astype(np.float64))


@pytest.mark.parametrize("scale", [b"0", b"-0.0", b"nan", b"inf", b"-inf"])
def test_pfm_rejects_zero_or_non_finite_scale(tmp_path, scale):
    # the sign of the scale is the byte order; a scale with no sign, or no
    # finite value, loaded silently as big-endian garbage
    path = tmp_path / "depth.pfm"
    path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + np.arange(4, dtype="<f4").tobytes())
    with pytest.raises(DataError, match="scale"):
        formats.load_pfm(path)


def test_obj_roundtrip(tmp_path):
    verts = substream(5, "obj").uniform(-1, 1, (12, 3))
    tris = np.array([[0, 1, 2], [3, 4, 5], [0, 4, 11]])
    path = tmp_path / "mesh.obj"
    formats.save_obj(path, verts, tris)
    text = path.read_text()
    records = [line.split() for line in text.splitlines()]
    v = np.array([[float(x) for x in r[1:]] for r in records if r[0] == "v"])
    t = np.array([[int(k) - 1 for k in r[1:]] for r in records if r[0] == "f"])
    assert len(v) + len(t) == len(records)
    np.testing.assert_allclose(v, verts, atol=1e-7)
    np.testing.assert_array_equal(t, tris)
    assert text.splitlines()[0].startswith("v ")
    assert "f 1 2 3" in text  # 1-based indices


def test_json_roundtrip_deterministic(tmp_path):
    doc = {"b": [1, 2, 3], "a": {"x": 0.5}}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    formats.save_json(p1, doc)
    formats.save_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()
    assert formats.load_json(p1) == doc


# ---------------------------------------------------------------------------
# damaged files: every reader fails with DataError or returns well-formed data


def _write_valid(fmt, path):
    rng = substream(7, fmt)
    if fmt == "pfm":
        formats.save_pfm(path, rng.uniform(0, 3, (3, 4)))
    elif fmt == "json":
        formats.save_json(path, {"category": "car", "stats": rng.standard_normal(2).tolist()})
    else:
        formats.save_container(path, {"n": rng.standard_normal((1, 1)), "t": rng.standard_normal(2)})


_LOAD = {"pfm": formats.load_pfm, "container": formats.load_container, "json": formats.load_json}


def _records(fmt, out):
    """The loaded data as a list of records (pixels, sections or the one
    JSON value), after checking it has the reader's documented form."""
    if fmt == "json":
        assert isinstance(out, (dict, list, str, int, float, bool, type(None)))
        return [out]
    if fmt == "pfm":
        assert out.ndim == 2 and out.dtype == np.float64
        return out.ravel().tolist()
    recs = []
    for name, arr in out.items():
        assert isinstance(name, str)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        recs.append((name, arr.tolist()))
    return recs


@pytest.mark.parametrize("fmt", sorted(_LOAD))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(truncate=st.booleans(), at=st.integers(0, 2**20), xor=st.integers(1, 255))
@example(truncate=False, at=20, xor=0x80)  # container: first section-name byte not UTF-8
@example(truncate=False, at=0, xor=0x84)  # json: "{" becomes 0xff, not UTF-8
def test_reader_damaged_file_raises_data_error_or_loads(fmt, truncate, at, xor, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / f"damaged.{fmt}"
    _write_valid(fmt, path)
    valid = path.read_bytes()
    _records(fmt, _LOAD[fmt](path))
    at %= len(valid)
    damaged = bytearray(valid[:at] if truncate else valid)
    if not truncate:
        damaged[at] ^= xor
    path.write_bytes(bytes(damaged))
    try:
        _records(fmt, _LOAD[fmt](path))
    except DataError:
        return
    # a flipped payload byte changes values, not the form; a truncated file
    # of either binary format never loads (a JSON file cut after its closing
    # brace still parses)
    assert not truncate or fmt == "json", f"{fmt} truncated to {at} bytes loaded"
