"""On-disk formats: checkpoint container, PFM depth and JSON (read and
written), PLY point clouds and OBJ meshes (written only).

Checkpoint container layout (all little-endian): named float64 arrays, whose
meaning is the caller's (`fields` names a prior's networks layer by layer):

    magic     8 bytes   b"SHAPEFIT"
    version   u32       2 (any other version is rejected)
    nsections u32
    section, repeated nsections times:
        name_len u32, name utf-8 bytes
        ndim u8, dims u32[ndim], data f64[prod(dims)] row-major

Writes are atomic (temp file + rename) so interrupted runs never leave
half-written checkpoints behind.
"""

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError, check_shape

MAGIC = b"SHAPEFIT"
VERSION = 2


def _atomic_write(path, data: bytes):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
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


# ---------------------------------------------------------------------------
# checkpoint container


def save_container(path, sections: dict):
    """Write named float arrays to the binary container, in dict order."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(sections))]
    for name, arr in sections.items():
        nb = name.encode("utf-8")
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
# PLY point clouds


def save_ply(path, points):
    """Write an (N, 3) point cloud as binary little-endian PLY with float
    x,y,z properties."""
    points = check_shape("PLY points", points, ("N", 3))
    header = (
        f"ply\nformat binary_little_endian 1.0\nelement vertex {len(points)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    ).encode("ascii")
    _atomic_write(path, header + np.ascontiguousarray(points, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# PFM depth maps


def save_pfm(path, image):
    """Write a 2D float image as grayscale PFM (little-endian)."""
    image = check_shape("PFM image", image, ("N", "N"), np.float32)
    h, w = image.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    # PFM stores rows bottom-to-top
    body = np.ascontiguousarray(image[::-1], dtype="<f4").tobytes()
    _atomic_write(path, header + body)


def load_pfm(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DataError(f"cannot read PFM {path}: {e}") from e
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"Pf", b"PF"):
        raise DataError(f"{path}: not a PFM file")
    if parts[0] == b"PF":
        raise DataError(f"{path}: color PFM unsupported")
    try:
        w, h = (int(v) for v in parts[1].split())
        scale = float(parts[2])
    except ValueError as e:
        raise DataError(f"{path}: malformed PFM header: {e}") from e
    if scale == 0 or not math.isfinite(scale):
        raise DataError(f"{path}: PFM scale {scale} is not finite and non-zero")
    if w < 0 or h < 0 or len(parts[3]) < 4 * w * h:
        raise DataError(
            f"{path}: PFM payload of {len(parts[3])} bytes, {w}x{h} image needs {4 * w * h}"
        )
    dt = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(parts[3], dtype=dt, count=w * h).reshape(h, w)
    return np.array(img[::-1], dtype=np.float64)


# ---------------------------------------------------------------------------
# OBJ meshes


def save_obj(path, vertices, triangles):
    """Wavefront OBJ with v/f records and 1-based indices."""
    lines = []
    for x, y, z in np.asarray(vertices, dtype=np.float64):
        lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    for i, j, k in np.asarray(triangles, dtype=np.int64):
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# JSON helpers (deterministic byte output)


def save_json(path, obj):
    _atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise DataError(f"cannot read JSON {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
