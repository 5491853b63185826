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
- Level 0 is a lattice of every `stride`-th grid index plus the last one,
  with stride = resolution // COARSE_CELLS (at least 1), so it has about
  16 blocks per axis. Each level splits every block at the midpoint of its
  index range, so the lattices nest for any resolution (strides 8 -> 4 ->
  2 -> 1 at res 128; 6 -> 3 -> 2 or 1 -> 1 at res 96), until every block
  is a cell.
- One rule applies at every level. The field is evaluated at the corners of
  the candidate blocks, which at level 0 are all blocks and deeper are the
  children of the active blocks. A block stays active if its corners
  change sign, or if one of its corners has |f| <= half the block's
  diagonal: a zero inside a block is within half its diagonal of the
  nearest corner, so a 1-Lipschitz field (an SDF) has no zero in a block
  whose corners are all farther from 0 than that.
- At the cell level the crossed candidate cells are kept. Closure: while a
  crossed cell has a face neighbour that is not yet a candidate (a mask
  over all cells marks the candidates), that neighbour becomes one.
- Level 0, each deeper level and each closure round is one step,
  `_evaluate`: it evaluates the round's new grid points once, in ascending
  flat grid index, and classifies the round's blocks. The table code runs
  over the crossed cells in C order and emits triangles in (table slot,
  cell) order, so vertices and triangles equal those of a dense evaluation
  whenever every surface component reaches a candidate cell and the
  field's values do not depend on the batch they are computed in (below).
The limit: only a field steeper than 1-Lipschitz can hide a component, by
keeping the corners of the block that holds it farther from 0 than half
the block's diagonal. The closure mends such a miss where the component
touches surface that was found; a component apart from all found surface
is lost. Below resolution 32 (2 * COARSE_CELLS) the stride is 1, every
grid point is evaluated, and nothing can be missed.

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


def _corners(lattice, npts, blocks):
    """(8, B) flat grid indices of the corners of `blocks`, in _CORNERS
    order; each row ascends with the blocks. `blocks` are ascending C-order
    keys on the block grid of `lattice`: block (i, j, k) spans lattice[i] ..
    lattice[i + 1] on the first axis, and so on."""
    n = len(lattice) - 1
    ijk = np.array(np.unravel_index(blocks, (n, n, n)))
    lo = lattice[ijk]
    step = np.array([npts * npts, npts, 1])  # flat grid distance of one step on each axis
    return step @ lo + (_CORNERS * step) @ (lattice[ijk + 1] - lo)


def _evaluate(field, axis, grid, lattice, blocks):
    """One round: evaluate `field` at the corners of `blocks` that are still
    unknown (NaN) in the flat `grid`, once each, in ascending flat index and
    FIELD_BLOCK points per call, store the values there, and classify the
    blocks. Returns, per block, whether its corners change sign (negative is
    inside), and for a block whose corners do not, the smallest |f| at them.
    Blocks are taken FIELD_BLOCK at a time, so that no (8, B) array is built."""
    n = len(axis)
    unknown = [np.zeros(0, np.int64)]
    for lo in range(0, len(blocks), FIELD_BLOCK):
        points = _corners(lattice, n, blocks[lo : lo + FIELD_BLOCK])
        unknown.append(_unique(points[np.isnan(grid[points])]))
    points = _unique(np.concatenate(unknown))
    coords = axis[np.stack(np.unravel_index(points, (n, n, n)), axis=1)]
    for lo in range(0, len(points), FIELD_BLOCK):
        hi = min(lo + FIELD_BLOCK, len(points))
        # a column of values is fine; complex or text values are not
        vals = check_shape(f"field values for grid points {lo}:{hi}", np.ravel(field(coords[lo:hi])), ("N",))
        if vals.size != hi - lo:
            raise StructuralError(
                f"field returned {vals.size} values for grid points {lo}:{hi}, expected {hi - lo}"
            )
        grid[points[lo:hi]] = vals
    bad = ~np.isfinite(grid[points])
    if bad.any():
        raise NumericError(f"field returned a non-finite value at grid point {coords[np.flatnonzero(bad)[0]]}")
    low, high = np.empty(len(blocks)), np.empty(len(blocks))
    for lo in range(0, len(blocks), FIELD_BLOCK):
        values = grid[_corners(lattice, n, blocks[lo : lo + FIELD_BLOCK])]
        low[lo : lo + FIELD_BLOCK] = values.min(axis=0)
        high[lo : lo + FIELD_BLOCK] = values.max(axis=0)
    return (low < 0.0) & (high >= 0.0), np.maximum(low, -high)


def _unique(keys):
    """The distinct entries of an integer array, sorted. The sort is stable,
    which numpy runs as a merge of ascending runs, and every caller passes
    such runs; np.unique hashes, which took 20 times as long on 1.8 million
    grid indices (numpy 2.4)."""
    keys = np.sort(keys, axis=None, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _neighbours(blocks, n):
    """Sorted keys of the face neighbours on the n^3 block grid of the
    ascending C-order keys `blocks`."""
    moved = (_FACES[:, :, None] + np.array(np.unravel_index(blocks, (n, n, n)))).transpose(1, 0, 2)
    inside = ((moved >= 0) & (moved < n)).all(axis=0)
    return _unique(np.ravel_multi_index(tuple(moved[:, inside]), (n, n, n)))


def _split(lattice, blocks):
    """The next level: `lattice` with the midpoint of every gap wider than
    one grid step added, and the sorted keys of the children of `blocks` on
    it."""
    finer = np.union1d(lattice, (lattice[:-1] + lattice[1:]) // 2)
    ijk = np.stack(np.unravel_index(blocks, (len(lattice) - 1,) * 3), axis=1)
    first = np.searchsorted(finer, lattice[ijk])
    end = np.searchsorted(finer, lattice[ijk + 1])
    children = first[:, None, :] + _CORNERS  # up to two per axis
    children = children[(children < end[:, None, :]).all(axis=2)]
    return finer, np.sort(np.ravel_multi_index(children.T, (len(finer) - 1,) * 3))


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
    axis = np.linspace(-1.0, 1.0, npts)
    grid = np.full(npts**3, np.nan)  # flat, C order; NaN marks an unknown point

    # level 0: the gaps between every stride-th grid index and the last one
    stride = max(1, resolution // COARSE_CELLS)
    lattice = np.unique(np.append(np.arange(0, npts, stride), resolution))
    blocks = np.arange((len(lattice) - 1) ** 3)
    crossed, nearest = _evaluate(field, axis, grid, lattice, blocks)
    while len(lattice) < npts:
        # a zero inside a block lies within half its diagonal of the nearest
        # corner, so a 1-Lipschitz field is at most that far from 0 there
        n = len(lattice) - 1
        size = np.diff(lattice)[np.stack(np.unravel_index(blocks, (n, n, n)), axis=1)]
        near = nearest <= np.linalg.norm(size, axis=1) / resolution
        lattice, blocks = _split(lattice, blocks[crossed | near])
        crossed, nearest = _evaluate(field, axis, grid, lattice, blocks)

    # the finest level: every block is a cell
    seen = np.zeros(resolution**3, dtype=bool)
    seen[blocks] = True
    cells = new = blocks[crossed]
    while len(new):
        # closure: the surface leaves a crossed cell only through a face
        fresh = _neighbours(new, resolution)
        fresh = fresh[~seen[fresh]]
        seen[fresh] = True
        new = fresh[_evaluate(field, axis, grid, lattice, fresh)[0]]
        cells = np.concatenate([cells, new])
    cells = np.stack(np.unravel_index(np.sort(cells), (resolution,) * 3), axis=1)
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
