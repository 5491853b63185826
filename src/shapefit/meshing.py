"""Marching-cubes isosurface extraction and mesh surface sampling.

Classic 256-case table with linear interpolation along cell edges.
Vertices are indexed per global grid edge, so vertices shared between
neighboring cells are welded exactly; a final pass drops degenerate
triangles. Ambiguous configurations use the standard table resolution
(no asymptotic decider), which is fine for point-based evaluation.
"""

from dataclasses import dataclass

import numpy as np

from ._mc_tables import EDGE_FLAGS, TRIANGLES
from .errors import NumericError, StructuralError
from .rng import substream

# cube corner offsets and the corner pair of each of the 12 edges
# (orientation matches the lookup tables)
_CORNERS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ]
)
_EDGE_CORNERS = np.array(
    [
        [0, 1], [1, 2], [2, 3], [3, 0],
        [4, 5], [5, 6], [6, 7], [7, 4],
        [0, 4], [1, 5], [2, 6], [3, 7],
    ]
)

MIN_TRIANGLE_AREA = 1e-12
WELD_TOLERANCE = 1e-7


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    triangles: np.ndarray  # (T, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)

    @property
    def is_empty(self):
        return len(self.triangles) == 0

    def triangle_areas(self):
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def validate(self):
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise StructuralError("triangle index out of range")
        if len(self.triangles) and self.triangles.min() < 0:
            raise StructuralError("negative triangle index")
        return self


def _evaluate_grid(field, coords, chunk=65536):
    """Evaluate the batched scalar field over flattened grid coords, one
    chunk of points per call."""
    n = coords.shape[0]
    out = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        vals = np.asarray(field(coords[lo:hi]), dtype=np.float64)
        if vals.size != hi - lo:
            raise StructuralError(
                f"field returned {vals.size} values for grid points {lo}:{hi}, expected {hi - lo}"
            )
        out[lo:hi] = vals.reshape(hi - lo)
    return out


def marching_cubes(field, resolution, bounds=(-1.0, 1.0)):
    """Extract the zero level set of `field` over a cubic grid.

    field: callable mapping (N, 3) points to (N,) SDF values; errors it
    raises propagate.
    resolution: number of cells per axis (>= 8); the grid has resolution+1
    samples per axis over `bounds`.
    """
    if resolution < 8:
        raise StructuralError("marching cubes resolution must be >= 8")
    lo, hi = bounds
    npts = resolution + 1
    axis = np.linspace(lo, hi, npts)
    cell = (hi - lo) / resolution
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    coords = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    values = _evaluate_grid(field, coords)
    bad = ~np.isfinite(values)
    if bad.any():
        where = coords[np.flatnonzero(bad)[0]]
        raise NumericError(f"field returned a non-finite value at grid point {where}")
    grid = values.reshape(npts, npts, npts)

    # cube configuration index per cell: bit c set when corner c is inside
    inside = grid < 0.0
    config = np.zeros((resolution, resolution, resolution), dtype=np.int32)
    for c, (dx, dy, dz) in enumerate(_CORNERS):
        config |= (
            inside[dx : dx + resolution, dy : dy + resolution, dz : dz + resolution] << c
        ).astype(np.int32)
    active = np.nonzero((config != 0) & (config != 255))
    if active[0].size == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    cfg = config[active]
    ax, ay, az = (a.astype(np.int64) for a in active)

    # global edge ids: 3 orientations on the (npts^3) vertex lattice
    def edge_id(ix, iy, iz, orient):
        return ((ix * npts + iy) * npts + iz) * 3 + orient

    orient_of = np.zeros(12, dtype=np.int64)  # axis along which each edge runs
    base_corner = _EDGE_CORNERS[:, 0]
    for e in range(12):
        delta = _CORNERS[_EDGE_CORNERS[e, 1]] - _CORNERS[_EDGE_CORNERS[e, 0]]
        orient_of[e] = int(np.nonzero(delta)[0][0]) if delta.any() else 0
    # edges run along +axis from their lower corner
    edge_low = np.where(
        (_CORNERS[_EDGE_CORNERS[:, 1]] - _CORNERS[_EDGE_CORNERS[:, 0]]).sum(axis=1) > 0,
        _EDGE_CORNERS[:, 0],
        _EDGE_CORNERS[:, 1],
    )

    flags = np.asarray(EDGE_FLAGS, dtype=np.int32)[cfg]
    cell_edge_gid = np.zeros((ax.size, 12), dtype=np.int64)
    for e in range(12):
        cx = ax + _CORNERS[edge_low[e], 0]
        cy = ay + _CORNERS[edge_low[e], 1]
        cz = az + _CORNERS[edge_low[e], 2]
        cell_edge_gid[:, e] = edge_id(cx, cy, cz, orient_of[e])

    # interpolate one vertex per crossed global edge
    crossed = (flags[:, None] & (1 << np.arange(12))) != 0
    gids = cell_edge_gid[crossed]
    rows, cols = np.nonzero(crossed)
    uniq, inverse = np.unique(gids, return_inverse=True)
    first = np.zeros(uniq.size, dtype=np.int64)
    first[inverse[::-1]] = np.arange(gids.size - 1, -1, -1)
    src_row, src_edge = rows[first], cols[first]
    low = edge_low[src_edge]
    p0 = np.stack(
        [
            ax[src_row] + _CORNERS[low, 0],
            ay[src_row] + _CORNERS[low, 1],
            az[src_row] + _CORNERS[low, 2],
        ],
        axis=1,
    )
    o = orient_of[src_edge]
    p1 = p0.copy()
    p1[np.arange(p1.shape[0]), o] += 1
    v0 = grid[p0[:, 0], p0[:, 1], p0[:, 2]]
    v1 = grid[p1[:, 0], p1[:, 1], p1[:, 2]]
    denom = v1 - v0
    t = np.where(np.abs(denom) > 0, -v0 / np.where(denom == 0, 1.0, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)
    verts = lo + cell * (p0 + t[:, None] * (np.eye(3)[o]))

    # map each cell-local edge to its vertex index, then emit triangles
    edge_vertex = np.full((ax.size, 12), -1, dtype=np.int64)
    edge_vertex[rows, cols] = inverse
    tri_table = np.asarray(TRIANGLES, dtype=np.int64)[cfg]  # (C, 16)
    tri_list = []
    for k in range(0, 15, 3):
        sel = tri_table[:, k] >= 0
        if not sel.any():
            continue
        e0 = tri_table[sel, k]
        e1 = tri_table[sel, k + 1]
        e2 = tri_table[sel, k + 2]
        r = np.flatnonzero(sel)
        tri_list.append(
            np.stack([edge_vertex[r, e0], edge_vertex[r, e1], edge_vertex[r, e2]], axis=1)
        )
    triangles = np.concatenate(tri_list) if tri_list else np.zeros((0, 3), dtype=np.int64)

    mesh = TriangleMesh(verts, triangles)
    return _cleanup(mesh)


def _cleanup(mesh):
    """Weld coincident vertices and drop degenerate triangles."""
    if mesh.is_empty:
        return mesh
    keys = np.round(mesh.vertices / WELD_TOLERANCE).astype(np.int64)
    _, first_idx, remap = np.unique(
        keys.view([("x", np.int64), ("y", np.int64), ("z", np.int64)]).reshape(-1),
        return_index=True,
        return_inverse=True,
    )
    verts = mesh.vertices[first_idx]
    tris = remap[mesh.triangles]
    mesh = TriangleMesh(verts, tris)
    areas = mesh.triangle_areas()
    keep = areas > MIN_TRIANGLE_AREA
    mesh = TriangleMesh(verts, mesh.triangles[keep])
    return mesh.validate()


def sample_mesh_surface(mesh, n, seed):
    """Area-weighted uniform surface samples, deterministic per seed."""
    if mesh.is_empty:
        raise StructuralError("cannot sample an empty mesh")
    if n <= 0:
        raise StructuralError("sample count must be positive")
    rng = substream(seed, "mesh-sample")
    areas = mesh.triangle_areas()
    probs = areas / areas.sum()
    choice = rng.choice(len(areas), size=n, p=probs)
    a = mesh.vertices[mesh.triangles[choice, 0]]
    b = mesh.vertices[mesh.triangles[choice, 1]]
    c = mesh.vertices[mesh.triangles[choice, 2]]
    # uniform barycentric via the square-root trick
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a + r1 * (1 - r2) * b + r1 * r2 * c
