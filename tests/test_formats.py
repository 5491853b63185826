import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapefit import fields, formats
from shapefit.errors import DataError, StructuralError
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


def test_a_refused_write_is_a_data_error_that_leaves_no_temp_file(tmp_path):
    # a directory in the way of the rename used to raise a bare IsADirectoryError
    (tmp_path / "taken").mkdir()
    with pytest.raises(DataError, match=f"cannot write {tmp_path / 'taken'}"):
        formats.save_json(tmp_path / "taken", {"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_container_byte_identical_rewrites(tmp_path):
    rng = substream(1, "d")
    arrays = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    formats.save_container(p1, arrays)
    formats.save_container(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


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
    if fmt == "json":
        formats.save_json(path, {"category": "car", "stats": rng.standard_normal(2).tolist()})
    else:
        formats.save_container(path, {"n": rng.standard_normal((1, 1)), "t": rng.standard_normal(2)})


_LOAD = {"container": formats.load_container, "json": formats.load_json}


def _records(fmt, out):
    """The loaded data as a list of records (sections or the one JSON
    value), after checking it has the reader's documented form."""
    if fmt == "json":
        assert isinstance(out, (dict, list, str, int, float, bool, type(None)))
        return [out]
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


PATH_READERS = {
    "load_container": formats.load_container,
    "load_json": formats.load_json,
    "load_prior": fields.load_prior,
}


@pytest.mark.parametrize("read", PATH_READERS.values(), ids=PATH_READERS.keys())
def test_a_file_descriptor_is_not_a_path(read):
    # an int path used to be opened as that descriptor, which the reader
    # then closed (fd 1 would close stdout); the read end of a pipe whose
    # write end is closed stands in for it here, so a read sees EOF at once
    r, w = os.pipe()
    os.close(w)
    try:
        with pytest.raises(StructuralError, match=f"^path {r} must be a str or os.PathLike, got int$"):
            read(r)
        os.fstat(r)  # still open
    finally:
        os.close(r)


@pytest.mark.parametrize("path, kind", [(None, "NoneType"), (True, "bool"), (b"prior.bin", "bytes")])
def test_a_path_that_is_not_a_str_is_refused_before_any_file_is_touched(path, kind, tmp_path, monkeypatch):
    # None used to raise a bare TypeError; a bytes path broke the sidecar's
    # str(path) + ".json" name
    monkeypatch.chdir(tmp_path)
    prior = fields.init_prior("sphere", latent_dim=2, template_hidden=(4,), deform_hidden=(3,), hyper_hidden=4)
    message = "^" + re.escape(f"path {path!r} must be a str or os.PathLike, got {kind}") + "$"
    for call in (lambda: fields.save_prior(prior, path), lambda: fields.load_prior(path),
                 lambda: formats.save_json(path, {}), lambda: formats.load_json(path)):
        with pytest.raises(StructuralError, match=message):
            call()
    assert list(tmp_path.iterdir()) == []


def test_json_nested_too_deep_is_a_data_error(tmp_path):
    # json raised a bare RecursionError, for a prior's sidecar too
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    with pytest.raises(DataError, match="invalid JSON"):
        formats.load_json(deep)
    prior = fields.init_prior("sphere", latent_dim=2, template_hidden=(4,), deform_hidden=(3,), hyper_hidden=4)
    path = tmp_path / "prior.bin"
    fields.save_prior(prior, path)
    (tmp_path / "prior.bin.json").write_text("[" * 100000)
    with pytest.raises(DataError, match="invalid JSON"):
        fields.load_prior(path)


def test_a_section_name_that_is_not_utf8_is_refused_before_anything_is_written(tmp_path):
    # a lone surrogate raised a bare UnicodeEncodeError; a prior accepts it
    # as a latent id, so save_prior failed the same way
    with pytest.raises(StructuralError, match=re.escape("section name '\\ud800' is not valid UTF-8")):
        formats.save_container(tmp_path / "c.bin", {"ok": np.zeros(2), "\ud800": np.zeros(2)})
    prior = fields.init_prior("sphere", latent_dim=2, template_hidden=(4,), deform_hidden=(3,), hyper_hidden=4)
    prior = fields.ShapePrior(prior.category, prior.template, prior.hyper, {"\ud800": np.zeros(2)})
    with pytest.raises(StructuralError, match=re.escape("section name 'latent.\\ud800' is not valid UTF-8")):
        fields.save_prior(prior, tmp_path / "prior.bin")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("save, content, message", [
    pytest.param(formats.save_container, {1: np.zeros(1)}, "section name 1 must be a str, got int", id="int-name"),
    pytest.param(formats.save_container, {"x": "abc"}, "section 'x' is not a numeric array", id="text"),
    pytest.param(formats.save_container, {"x": np.array([1 + 2j])}, "section 'x' is not a numeric array", id="complex"),
    pytest.param(formats.save_container, {"x": None}, "section 'x' is not a numeric array", id="none"),
    pytest.param(formats.save_container, {"x": [[1.0], [1.0, 2.0]]}, "section 'x' is not a numeric array", id="ragged"),
    pytest.param(formats.save_json, {"x": np.zeros(2)},
                 "JSON value document['x'] must be a dict, list, str, number, bool or None, got ndarray",
                 id="json-array"),
    pytest.param(formats.save_json, {"a": {1: 2}}, "JSON key 1 in document['a'] must be a str, got int",
                 id="json-int-key"),
])
def test_malformed_content_is_refused_naming_its_section_or_key_before_anything_is_written(
    save, content, message, tmp_path
):
    # these raised a bare AttributeError, ValueError or TypeError, or wrote a
    # file that does not load back as the content: a complex section without
    # its imaginary part, None as NaN, an int key as a str
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is not a refusal
        with pytest.raises(StructuralError, match="^" + re.escape(message)):
            save(tmp_path / "out", content)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, where", [
    ({"x": float("nan")}, "document['x'] is nan"),
    ({"a": [1.0, float("inf")]}, "document['a'][1] is inf"),
    ({"a": {"b": -np.inf}}, "document['a']['b'] is -inf"),
], ids=["nan", "inf-in-list", "negative-inf"])
def test_save_json_refuses_a_non_finite_float_before_anything_is_written(tmp_path, content, where):
    # it was written as the bare token NaN or Infinity, which is not JSON
    with pytest.raises(StructuralError, match="^" + re.escape(f"JSON value {where}, which JSON has no number for") + "$"):
        formats.save_json(tmp_path / "doc.json", content)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_refuses_the_tokens_that_are_not_json(tmp_path, token):
    # Python's json module reads them as floats
    path = tmp_path / "doc.json"
    path.write_text('{"x": [1.0, %s]}' % token)
    with pytest.raises(DataError, match=f"invalid JSON: {token} is not a JSON number$"):
        formats.load_json(path)
