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
half-written checkpoints behind; a refused write raises DataError. This
module is the package's one door to the disk: every path is checked by
`_fspath` before any file is opened.
"""

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError, StructuralError

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
    """Write named float arrays to the binary container, in dict order; a name
    that is not valid UTF-8 is refused before anything is written."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(sections))]
    for name, arr in sections.items():
        try:
            nb = name.encode("utf-8")
        except UnicodeEncodeError as e:  # a lone surrogate such as "\ud800"
            raise StructuralError(f"section name {name!r} is not valid UTF-8: {e}") from e
        arr = np.asarray(arr, dtype=np.float64)
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


def save_json(path, obj):
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_json(path):
    path = _fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise DataError(f"cannot read JSON {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:  # RecursionError: nested too deep to parse
        raise DataError(f"{path}: invalid JSON: {e}") from e
