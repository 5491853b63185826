"""On-disk formats: the checkpoint container and JSON, read and written.

Checkpoint container layout (all little-endian): named float64 arrays, whose
meaning is the caller's (`fields` names a prior's networks layer by layer):

    magic     8 bytes   b"SHAPEFIT"
    version   u32       2 (any other version is rejected)
    nsections u32
    section, repeated nsections times:
        name_len u32, name utf-8 bytes
        ndim u8, dims u32[ndim], data f64[prod(dims)] row-major

Writes are atomic (temp file + rename) so interrupted runs never leave
half-written checkpoints behind; a refused write raises DataError.
Content a format cannot hold as itself (a section that is not a real
array, a JSON value that is not a dict with str keys, list, str, number,
bool or None, a NaN or infinite float in JSON) raises StructuralError
naming its section or key before anything is written; reading JSON
refuses the NaN and Infinity tokens as DataError. This module is the
package's one door to the disk: every path is checked by `_fspath` before
any file is opened.
"""

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError, StructuralError, check_shape, check_type

MAGIC = b"SHAPEFIT"
VERSION = 2


def _fspath(path):
    """`path` as a str; raise StructuralError unless it is a str or an
    os.PathLike naming one. An integer would be opened as a file descriptor
    (and closed), and a bytes path has no '.json' sidecar name."""
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if not isinstance(name, str):
        raise StructuralError(f"path {path!r} must be a str or os.PathLike, got {type(path).__name__}")
    return name


def _atomic_write(path, data: bytes):
    path = _fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e


# ---------------------------------------------------------------------------
# checkpoint container


def save_container(path, sections: dict):
    """Write named real arrays to the binary container as float64, in dict
    order; a name that is not a valid UTF-8 str, or an array that is ragged,
    complex or not numeric, is refused before anything is written."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(check_type("sections", sections, dict, "a dict")))]
    for name, arr in sections.items():
        try:
            nb = check_type(f"section name {name!r}", name, str, "a str").encode("utf-8")
        except UnicodeEncodeError as e:  # a lone surrogate such as "\ud800"
            raise StructuralError(f"section name {name!r} is not valid UTF-8: {e}") from e
        arr = check_shape(f"section {name!r}", arr, None)
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    _atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.data):
            raise DataError("container truncated")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_container(path):
    """Read a container back into {name: float64 ndarray}."""
    path = _fspath(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint container")
    version, nsec = r.unpack("<II")
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    out = {}
    for _ in range(nsec):
        (name_len,) = r.unpack("<I")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: section name is not UTF-8: {e}") from e
        if name in out:
            raise DataError(f"{path}: section name {name!r} is repeated")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        data = r.take(8 * math.prod(shape))
        out[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    return out


# ---------------------------------------------------------------------------
# JSON helpers (deterministic byte output)


def _check_json(where, obj):
    """Raise StructuralError naming the place, under `where`, of the first
    value in `obj` that JSON does not hold as itself."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            check_type(f"JSON key {key!r} in {where}", key, str, "a str")
            _check_json(f"{where}[{key!r}]", value)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _check_json(f"{where}[{i}]", value)
    else:
        check_type(f"JSON value {where}", obj, (str, int, float, type(None)), "a dict, list, str, number, bool or None")
        if isinstance(obj, float) and not math.isfinite(obj):
            raise StructuralError(f"JSON value {where} is {obj!r}, which JSON has no number for")


def save_json(path, obj):
    """Write `obj` as JSON with sorted keys; a dict with a key that is not a
    str, or a value other than a dict, list, str, number, bool or None, or
    a NaN or infinite float (which JSON has no number for), is refused
    before anything is written."""
    try:
        _check_json("document", obj)
    except RecursionError as e:  # nested too deep, or a container holding itself
        raise StructuralError(f"JSON document is nested too deep: {e}") from e
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _refuse_constant(token):
    raise DataError(f"{token} is not a JSON number")


def load_json(path):
    """Read a JSON document; the NaN, Infinity and -Infinity tokens, which
    Python's json module would read, are refused as invalid JSON."""
    path = _fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=_refuse_constant)
    except OSError as e:
        raise DataError(f"cannot read JSON {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, DataError) as e:
        # RecursionError: nested too deep to parse; DataError: a NaN or Infinity token
        raise DataError(f"{path}: invalid JSON: {e}") from e
