"""Marching-cubes isosurface extraction and mesh surface sampling.

The grid always spans the canonical cube [-1, 1]^3, where every shape and
prior lives. Classic 256-case triangle table, with linear interpolation
along each cell edge whose corners differ in sign. Vertices are indexed per
global grid edge, so vertices shared between neighboring cells are welded
exactly; a final pass drops degenerate triangles. Ambiguous configurations
use the standard table resolution (no asymptotic decider), which is fine
for point-based evaluation.

The grid is filled coarse to fine, as in the sign-change refinement of
Occupancy Networks (Mescheder et al., CVPR 2019):
- The field is first evaluated on a coarse lattice of every `stride`-th
  grid index plus the last one, with stride = resolution // COARSE_CELLS
  (at least 1), so the coarse grid has about 32 cells per axis.
- Coarse blocks whose corners change sign, dilated by one block in every
  direction, form the active region; each grid point of the region is
  evaluated once.
- Closure: while a crossed cell of the region has a face neighbour outside
  it, that neighbour's block joins the region and its points are evaluated.
- The table code runs over the crossed cells of the region in C order, so
  vertices and triangles equal those of a dense evaluation whenever every
  surface component reaches the region and the field's values do not
  depend on the batch they are computed in (see below).
The limit: a component that no coarse point sees, such as a small closed
surface lying between coarse points far from any other sign change, can be
missed. Below resolution 2 * COARSE_CELLS the stride is 1, every grid point
is evaluated, and nothing can be missed.

The field is called on blocks of at most FIELD_BLOCK grid points, so a
network field holds one (block, width) array per layer: 2 MiB at width 64,
which stays in cache, where a 65,536-point block takes 33 MB per layer and
runs slower. A network value can depend in the last bit on the size of the
batch it is computed in (BLAS takes other paths for short batches), so the
rows of a block may differ from one dense call in the last bit, and a
vertex on an edge with such a corner can then differ too."""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._mc_tables import TRIANGLES
from .errors import NumericError, StructuralError, check_count, check_shape
from .rng import substream

# cube corner offsets and the corner pair of each of the 12 edges
# (orientation matches the triangle table)
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
# each edge runs along one axis: that axis, and the offset of the corner it
# starts from (its lower end)
_EDGE_STEP = _CORNERS[_EDGE_CORNERS[:, 1]] - _CORNERS[_EDGE_CORNERS[:, 0]]
_EDGE_AXIS = np.abs(_EDGE_STEP).argmax(axis=1)
_EDGE_LOW = _CORNERS[np.where(_EDGE_STEP.sum(axis=1) > 0, _EDGE_CORNERS[:, 0], _EDGE_CORNERS[:, 1])]

MIN_TRIANGLE_AREA = 1e-12
COARSE_CELLS = 32  # coarse grid cells per axis (stride = resolution // COARSE_CELLS)
WELD_TOLERANCE = 1e-7
FIELD_BLOCK = 4096  # grid points per field call (see the module docstring)


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    triangles: np.ndarray  # (T, 3) int

    def __post_init__(self):
        self.vertices = check_shape("vertices", self.vertices, ("N", 3))
        self.triangles = check_shape("triangles", self.triangles, ("N", 3), np.int64)

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


def _evaluate_grid(field, coords):
    """Evaluate the batched scalar field over flattened grid coords, one
    block of FIELD_BLOCK points per call."""
    n = coords.shape[0]
    out = np.empty(n)
    for lo in range(0, n, FIELD_BLOCK):
        hi = min(lo + FIELD_BLOCK, n)
        vals = np.asarray(field(coords[lo:hi]), dtype=np.float64)
        if vals.size != hi - lo:
            raise StructuralError(
                f"field returned {vals.size} values for grid points {lo}:{hi}, expected {hi - lo}"
            )
        out[lo:hi] = vals.reshape(hi - lo)
    return out


def _fill(field, axis, grid, need):
    """Evaluate `field` at every point marked in `need` whose value in `grid`
    is still unknown (NaN), and store the values."""
    idx = np.nonzero(need & np.isnan(grid))
    coords = np.stack([axis[i] for i in idx], axis=1)
    values = _evaluate_grid(field, coords)
    bad = ~np.isfinite(values)
    if bad.any():
        where = coords[np.flatnonzero(bad)[0]]
        raise NumericError(f"field returned a non-finite value at grid point {where}")
    grid[idx] = values


def _cell_configs(grid):
    """Cube configuration index per cell of a cubic grid: bit c set when
    corner c is inside (negative; NaN counts as outside)."""
    res = grid.shape[0] - 1
    inside = grid < 0.0
    config = np.zeros((res, res, res), dtype=np.int32)
    for c, (dx, dy, dz) in enumerate(_CORNERS):
        config |= (inside[dx : dx + res, dy : dy + res, dz : dz + res] << c).astype(np.int32)
    return config


def _crossed(config):
    """Cells whose corners change sign."""
    return (config != 0) & (config != 255)


def check_resolution(resolution):
    """Raise StructuralError unless `resolution` is an integer >= 8."""
    check_count("marching cubes resolution", resolution, 8)


def marching_cubes(field, resolution):
    """Extract the zero level set of `field` over the canonical cube [-1, 1]^3.

    field: callable mapping (N, 3) points to (N,) SDF values; errors it
    raises propagate.
    resolution: integer number of cells per axis (>= 8); the grid has
    resolution+1 samples per axis.
    The field is evaluated coarse to fine (see the module docstring).
    """
    check_resolution(resolution)
    npts = resolution + 1
    axis = np.linspace(-1.0, 1.0, npts)

    # coarse lattice: every stride-th grid index and the last one; coarse
    # block b spans cells coarse[b] .. coarse[b + 1] - 1 on each axis
    stride = max(1, resolution // COARSE_CELLS)
    coarse = np.unique(np.append(np.arange(0, npts, stride), resolution))
    block_of = np.searchsorted(coarse, np.arange(resolution), side="right") - 1
    grid = np.full((npts, npts, npts), np.nan)
    need = np.zeros(grid.shape, dtype=bool)
    need[np.ix_(coarse, coarse, coarse)] = True
    _fill(field, axis, grid, need)
    blocks = ndimage.binary_dilation(
        _crossed(_cell_configs(grid[np.ix_(coarse, coarse, coarse)])), np.ones((3, 3, 3), dtype=bool)
    )
    while True:
        region = blocks[np.ix_(block_of, block_of, block_of)]  # cells of the active blocks
        need[:] = False
        for dx, dy, dz in _CORNERS:
            need[dx : dx + resolution, dy : dy + resolution, dz : dz + resolution] |= region
        _fill(field, axis, grid, need)
        config = _cell_configs(grid)
        crossed = _crossed(config) & region
        # closure: the surface leaves a crossed cell only through a face, so
        # a face neighbour outside the region pulls its block in
        grow = ndimage.binary_dilation(crossed) & ~region
        if not grow.any():
            break
        blocks[tuple(block_of[i] for i in np.nonzero(grow))] = True
    return _triangulate(grid, config, crossed)


def _triangulate(grid, config, crossed):
    """Table lookup over the `crossed` cells in C order, one vertex per
    crossed grid edge, then weld and drop degenerate triangles. Every
    corner of a crossed cell must hold a value in `grid`, which spans
    [-1, 1]^3."""
    npts = grid.shape[0]
    active = np.nonzero(crossed)
    if active[0].size == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    cfg = config[active]
    cells = np.stack(active, axis=1).astype(np.int64)  # (C, 3) lower cell corners

    # an edge is crossed when its two corners differ in sign; its global id
    # is its lower grid point on the (npts^3) lattice, times 3 orientations
    c0, c1 = _EDGE_CORNERS.T
    rows, cols = np.nonzero(((cfg[:, None] >> c0) ^ (cfg[:, None] >> c1)) & 1)
    start = cells[rows] + _EDGE_LOW[cols]
    gids = ((start[:, 0] * npts + start[:, 1]) * npts + start[:, 2]) * 3 + _EDGE_AXIS[cols]

    # interpolate one vertex per crossed global edge, from its first cell
    _, first, inverse = np.unique(gids, return_index=True, return_inverse=True)
    p0 = start[first]
    o = _EDGE_AXIS[cols[first]]
    p1 = p0.copy()
    p1[np.arange(p1.shape[0]), o] += 1
    v0 = grid[p0[:, 0], p0[:, 1], p0[:, 2]]
    v1 = grid[p1[:, 0], p1[:, 1], p1[:, 2]]
    denom = v1 - v0
    t = np.where(np.abs(denom) > 0, -v0 / np.where(denom == 0, 1.0, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)
    verts = -1.0 + 2.0 / (npts - 1) * (p0 + t[:, None] * (np.eye(3)[o]))

    # map each cell-local edge to its vertex index, then emit triangles
    edge_vertex = np.full((len(cells), 12), -1, dtype=np.int64)
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
    check_count("sample count", n)
    rng = substream(seed, "mesh-sample")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if not (np.isfinite(total) and total > 0):
        raise StructuralError(f"cannot sample a mesh whose total triangle area is {total}")
    probs = areas / total
    choice = rng.choice(len(areas), size=n, p=probs)
    a = mesh.vertices[mesh.triangles[choice, 0]]
    b = mesh.vertices[mesh.triangles[choice, 1]]
    c = mesh.vertices[mesh.triangles[choice, 2]]
    # uniform barycentric via the square-root trick
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a + r1 * (1 - r2) * b + r1 * r2 * c
