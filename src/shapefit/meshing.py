"""Marching-cubes isosurface extraction and mesh surface sampling.

The grid always spans the canonical cube [-1, 1]^3, where every shape and
prior lives. Classic 256-case triangle table, with linear interpolation
along each cell edge whose corners differ in sign. Vertices are indexed per
global grid edge, so vertices shared between neighboring cells are welded
exactly; a final pass drops degenerate triangles. Ambiguous configurations
use the standard table resolution (no asymptotic decider), which is fine
for point-based evaluation.

The grid is filled level by level, refining only where the surface is, as
in the multiresolution extraction of Occupancy Networks (Mescheder et al.,
CVPR 2019):
- A block is its two opposite grid corners, `lo` and `hi` ((B, 3) grid
  indices). Level 0 cuts each axis at every `stride`-th grid index and the
  last one, stride = resolution // COARSE_CELLS (at least 1): about 16
  blocks per axis. Each level cuts every side wider than one grid step at
  (lo + hi) // 2, so the cuts nest for any resolution (strides 8 -> 4 -> 2
  -> 1 at res 128; 6 -> 3 -> 2 or 1 -> 1 at res 96) until all are cells.
- The block rule applies at every level. The field is evaluated at the
  corners of the candidate blocks, which at level 0 are all blocks and
  deeper are the children of the active blocks. A block stays active if
  its corners change sign, or if one of its corners has |f| <= half the
  block's diagonal: a zero inside a block is within half its diagonal of
  the nearest corner, so a 1-Lipschitz field (an SDF) has no zero in a
  block whose corners are all farther from 0 than that.
- The cell rule, at the split into cells only: before a child of a block
  whose corners do not change sign is evaluated, it is dropped if one of
  its corners already in the grid (at least the one it shares with that
  block is) has |f| > its diagonal, 2 sqrt(3) / resolution. A 1-Lipschitz
  field has no zero within that distance of the corner, so such a cell
  cannot be crossed. The test reads the corner values the round gathers anyway to
  find the unknown ones: no extra pass. It saves 17% of the field points
  of a res-128 mesh (79,495 -> 65,845 on the bench prior, 119,189 ->
  94,325 on a sphere). Two limits, both measured on a field ten times an
  SDF at res 48 (3,928 triangles): applied to coarser blocks it would
  save 23% but lose 192 triangles, since a dropped block can hold a
  component that no crossed cell borders; applied to the children of a
  block whose corners change sign too it would save 1% more but lose 96.
- At the cell level the crossed candidate cells are kept. Closure: while a
  crossed cell has a face neighbour (its corner moved by 1 on one axis)
  that is not yet a candidate, that neighbour becomes one; a cell the
  cell rule dropped is not a candidate, so the closure meshes it again if
  it borders a crossed cell.
- Level 0, each deeper level and each closure round is one step,
  `_evaluate`: it evaluates the round's new grid points once, in ascending
  flat grid index, and classifies the round's blocks. Every set the search
  builds (a round's unknown corners, the closure's new cells, the final
  crossed cells, a cell named by its lower corner) is marked in one
  grid-sized boolean scratch mask and read back ascending by np.flatnonzero
  whatever order the blocks come in: no sort, no np.unique. The table code
  runs over the crossed cells in C order and emits triangles in (table
  slot, cell) order, so vertices and triangles equal those of a dense
  evaluation whenever every surface component reaches a candidate cell and
  the field's values do not depend on the batch they are computed in.
Only a field steeper than 1-Lipschitz can hide a component, by keeping the
corners of its block farther from 0 than half the block's diagonal, or a
known corner of its cell farther than the cell's diagonal. The closure
mends such a miss where the component touches surface that was found; a
component apart from all found surface is lost. Below resolution
32 (2 * COARSE_CELLS) the stride is 1, every grid point is evaluated, and
nothing can be missed.

The field is called on blocks of at most FIELD_BLOCK grid points, so a
network field holds one (block, width) array per layer: 2 MiB at width 64,
which stays in cache, where a 65,536-point block takes 33 MB per layer and
runs slower. A network value can depend in the last bit on the size of the
batch it is computed in (BLAS takes other paths for short batches), so the
rows of a block may differ from one dense call in the last bit, and a
vertex on an edge with such a corner can then differ too."""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._mc_tables import TRIANGLES
from .errors import NumericError, StructuralError, _read_only, check_count, check_shape, check_type
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
# a cell's face neighbours
_FACES = np.concatenate([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])

MIN_TRIANGLE_AREA = 1e-12
COARSE_CELLS = 16  # level-0 blocks per axis (stride = resolution // COARSE_CELLS)
WELD_TOLERANCE = 1e-7
FIELD_BLOCK = 4096  # grid points per field call (see the module docstring)


@dataclass(frozen=True)
class TriangleMesh:
    """(V, 3) float64 vertices and (T, 3) int64 triangles whose every index
    names a vertex; checked when built."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(check_shape("vertices", self.vertices, ("N", 3))))
        object.__setattr__(
            self, "triangles", _read_only(check_shape("triangles", self.triangles, ("N", 3), np.int64))
        )
        self.validate()

    @property
    def is_empty(self):
        return len(self.triangles) == 0

    def triangle_areas(self):
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def validate(self):
        """Raise StructuralError unless every triangle index names a vertex."""
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise StructuralError("triangle index out of range")
        if len(self.triangles) and self.triangles.min() < 0:
            raise StructuralError("negative triangle index")
        return self


def _corners(lo, hi, npts):
    """(8, B) flat grid indices of the corners of the blocks spanning grid
    points `lo` to `hi`, (B, 3) each, in _CORNERS order."""
    step = np.array([npts * npts, npts, 1])  # flat grid distance of one step on each axis
    return lo @ step + (_CORNERS * step) @ (hi - lo).T


def _take(mask):
    """The indices set in `mask`, ascending; clears them."""
    marked = np.flatnonzero(mask)
    mask[marked] = False
    return marked


def _evaluate(field, axis, grid, scratch, lo, hi, loose=None):
    """One round: evaluate `field` at the corners of the blocks `lo`..`hi`
    that are still unknown (NaN) in the flat `grid`, once each, in ascending
    flat index (gathered in the clear `scratch` mask) and FIELD_BLOCK points
    per call, store the values there, and classify the blocks. A cell marked
    in `loose` is dropped first if a corner of it already in `grid` is
    farther from 0 than the cell's diagonal. Returns the blocks kept, `lo`
    and `hi`, and per kept block whether its corners change sign (negative
    is inside), and for a block whose corners do not, the smallest |f| at
    them. Blocks are taken FIELD_BLOCK at a time, so that no (8, B) array
    is built."""
    n = len(axis)
    kept = np.ones(len(lo), dtype=bool)
    for i in range(0, len(lo), FIELD_BLOCK):
        points = _corners(lo[i : i + FIELD_BLOCK], hi[i : i + FIELD_BLOCK], n)
        values = grid[points]
        unknown = np.isnan(values)
        if loose is not None:
            # a 1-Lipschitz field has no zero within a diagonal of such a
            # corner; an unknown corner (NaN) compares False
            far = (np.abs(values) > 2 * np.sqrt(3) / (n - 1)).any(axis=0)
            kept[i : i + FIELD_BLOCK] = ~(loose[i : i + FIELD_BLOCK] & far)
            unknown &= kept[i : i + FIELD_BLOCK]
        scratch[points[unknown]] = True
    lo, hi = lo[kept], hi[kept]
    points = _take(scratch)
    coords = axis[np.stack(np.unravel_index(points, (n, n, n)), axis=1)]
    for i in range(0, len(points), FIELD_BLOCK):
        j = min(i + FIELD_BLOCK, len(points))
        # a column of values is fine; complex or text values are not
        vals = check_shape(f"field values for grid points {i}:{j}", np.ravel(field(coords[i:j])), ("N",))
        if vals.size != j - i:
            raise StructuralError(f"field returned {vals.size} values for grid points {i}:{j}, expected {j - i}")
        grid[points[i:j]] = vals
    bad = ~np.isfinite(grid[points])
    if bad.any():
        raise NumericError(f"field returned a non-finite value at grid point {coords[np.flatnonzero(bad)[0]]}")
    low, high = np.empty(len(lo)), np.empty(len(lo))
    for i in range(0, len(lo), FIELD_BLOCK):
        values = grid[_corners(lo[i : i + FIELD_BLOCK], hi[i : i + FIELD_BLOCK], n)]
        low[i : i + FIELD_BLOCK] = values.min(axis=0)
        high[i : i + FIELD_BLOCK] = values.max(axis=0)
    return lo, hi, (low < 0.0) & (high >= 0.0), np.maximum(low, -high)


def _split(lo, hi, tag):
    """The children of the blocks `lo`..`hi`, each with its parent's entry
    of `tag`: every side wider than one grid step is cut at (lo + hi) // 2,
    one axis after the other."""
    for a in range(3):
        wide = np.flatnonzero(hi[:, a] - lo[:, a] > 1)
        mid = (lo[wide, a] + hi[wide, a]) // 2
        lo, hi, tag = (np.concatenate([x, x[wide]]) for x in (lo, hi, tag))
        hi[wide, a] = lo[len(lo) - len(wide) :, a] = mid
    return lo, hi, tag


def _crossed_cells(field, grid, resolution):
    """(C, 3) lower corners, in C order, of the cells whose corners change
    sign, searched level by level (see the module docstring); every grid
    point evaluated is stored in the flat `grid`, which is NaN elsewhere."""
    npts = resolution + 1
    axis = np.linspace(-1.0, 1.0, npts)
    scratch = np.zeros(npts**3, dtype=bool)

    # level 0: every stride-th grid index up to the last one on each axis
    stride = max(1, resolution // COARSE_CELLS)
    starts = np.arange(0, resolution, stride, dtype=np.int32)  # halves the (B, 3) corner arrays
    lo = starts[np.indices((len(starts),) * 3).reshape(3, -1).T]
    hi = np.minimum(lo + stride, resolution)
    lo, hi, crossed, nearest = _evaluate(field, axis, grid, scratch, lo, hi)
    while (hi - lo > 1).any():
        # a zero inside a block lies within half its diagonal of the nearest
        # corner, so a 1-Lipschitz field is at most that far from 0 there
        keep = crossed | (nearest <= np.linalg.norm(hi - lo, axis=1) / resolution)
        lo, hi, loose = _split(lo[keep], hi[keep], ~crossed[keep])
        # the cell rule: only at the split into cells, only for children of
        # blocks whose corners do not change sign (see the module docstring)
        lo, hi, crossed, nearest = _evaluate(
            field, axis, grid, scratch, lo, hi, None if (hi - lo > 1).any() else loose
        )

    # the finest level: every block is a cell, named by its lower corner
    step = np.array([npts * npts, npts, 1])
    seen = np.zeros(npts**3, dtype=bool)
    seen[lo @ step] = True
    new = lo[crossed]
    found = [new @ step]
    while len(new):
        # closure: the surface leaves a crossed cell only through a face
        moved = (new[:, None, :] + _FACES).reshape(-1, 3)
        moved = moved[((moved >= 0) & (moved < resolution)).all(axis=1)] @ step
        scratch[moved[~seen[moved]]] = True
        fresh = _take(scratch)
        seen[fresh] = True
        lo = np.stack(np.unravel_index(fresh, (npts,) * 3), axis=1)
        _, _, crossed, _ = _evaluate(field, axis, grid, scratch, lo, lo + 1)
        new = lo[crossed]
        found.append(new @ step)
    scratch[np.concatenate(found)] = True
    return np.stack(np.unravel_index(_take(scratch), (npts,) * 3), axis=1)


def check_resolution(resolution):
    """Raise StructuralError unless `resolution` is an integer >= 8."""
    check_count("marching cubes resolution", resolution, 8)


def marching_cubes(field, resolution):
    """Extract the zero level set of `field` over the canonical cube [-1, 1]^3.

    field: callable mapping (N, 3) points to (N,) SDF values; errors it
    raises propagate.
    resolution: integer number of cells per axis (>= 8); the grid has
    resolution+1 samples per axis.
    The field is evaluated level by level (see the module docstring).
    """
    check_type("field", field, Callable, "a callable")
    check_resolution(resolution)
    npts = resolution + 1
    grid = np.full(npts**3, np.nan)  # flat, C order; NaN marks an unknown point
    cells = _crossed_cells(field, grid, resolution)
    return _triangulate(grid.reshape(npts, npts, npts), cells)


def _triangulate(grid, cells):
    """Table lookup over `cells`, (C, 3) lower corners in C order whose
    corners change sign, one vertex per crossed grid edge, then weld and
    drop degenerate triangles. Triangles come in (table slot, cell) order:
    every cell's first triangle, then every second one, and so on. Every
    corner of a listed cell must hold a value in `grid`, which spans
    [-1, 1]^3."""
    npts = grid.shape[0]
    ijk = cells[:, None, :] + _CORNERS
    cfg = ((grid[ijk[..., 0], ijk[..., 1], ijk[..., 2]] < 0.0) << np.arange(8)).sum(axis=1)

    # an edge is crossed when its two corners differ in sign; its global id
    # is the flat index of its lower grid point, times 3 orientations
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

    # map each cell-local edge to its vertex index, then emit the triangles
    # of every used (slot, cell) pair in one gather
    edge_vertex = np.full((len(cells), 12), -1, dtype=np.int64)
    edge_vertex[rows, cols] = inverse
    slots = np.asarray(TRIANGLES, dtype=np.int64)[cfg, :15].reshape(-1, 5, 3)  # (C, 5, 3) edges
    slot, cell = np.nonzero(slots[:, :, 0].T >= 0)
    return _cleanup(verts, edge_vertex[cell[:, None], slots[cell, slot]])


def _cleanup(verts, triangles):
    """The mesh of `verts` and `triangles` with coincident vertices welded
    and degenerate triangles dropped."""
    keys = np.round(verts / WELD_TOLERANCE).astype(np.int64)
    _, first_idx, remap = np.unique(
        keys.view([("x", np.int64), ("y", np.int64), ("z", np.int64)]).reshape(-1),
        return_index=True,
        return_inverse=True,
    )
    mesh = TriangleMesh(verts[first_idx], remap[triangles])
    return TriangleMesh(mesh.vertices, mesh.triangles[mesh.triangle_areas() > MIN_TRIANGLE_AREA])


def sample_mesh_surface(mesh, n, seed):
    """Area-weighted uniform surface samples, deterministic per seed."""
    if check_type("mesh", mesh, TriangleMesh, "a TriangleMesh").is_empty:
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
