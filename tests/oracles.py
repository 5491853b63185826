"""Independent oracles used by the test suite.

Everything here is deliberately brute-force / finite-difference, separate
from the library's analytic code paths. The one exception is
`dense_marching_cubes`, which shares the table code on purpose: it checks
which cells the level-by-level extraction visits, not the table.
"""

import numpy as np

from shapefit import autodiff as ad
from shapefit import fields, meshing
from shapefit._mc_tables import TRIANGLES
from shapefit.geometry import Pose, rot6d_backward, rot6d_to_matrix
from shapefit.inference import TERM_WEIGHTS


def identity_pose():
    """The identity Pose."""
    return Pose(np.eye(3), np.zeros(3))


def random_rotation(rng):
    """Uniform random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def pack_params(weights, biases):
    """Flatten per-layer (W, b) pairs into one vector: row-major W then b,
    layer after layer, as a finite-difference parameter vector."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)])


def unpack_params(vec, like):
    """Inverse of `pack_params`, shaped after the MLPParams `like`."""
    weights, biases = [], []
    off = 0
    for w, b in zip(like.weights, like.biases):
        weights.append(vec[off : off + w.size].reshape(w.shape))
        off += w.size
        biases.append(vec[off : off + b.size].copy())
        off += b.size
    assert off == vec.size, f"parameter vector has {vec.size} entries, expected {off}"
    return weights, biases


def n_params(params):
    """Number of weights and biases of an MLPParams."""
    return sum(w.size + b.size for w, b in zip(params.weights, params.biases))


def fd_spatial_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a 3-vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def fd_grad_vector(fn, vec, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    vec = np.asarray(vec, dtype=np.float64)
    g = np.zeros_like(vec)
    for i in range(vec.size):
        vp = vec.copy()
        vm = vec.copy()
        vp[i] += h
        vm[i] -= h
        g[i] = (fn(vp) - fn(vm)) / (2 * h)
    return g


def rel_err(a, b, floor=1e-8):
    """Max elementwise relative error with an absolute floor for tiny values."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def brute_force_chamfer(a, b):
    """O(N^2) bidirectional chamfer (squared distances, x1e4)."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return (d2.min(axis=1).mean() + d2.min(axis=0).mean()) * 1e4


def brute_force_fscore(a, b, tau):
    """O(N^2) F1 at threshold tau with strict inequality."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    precision = np.mean(np.sqrt(d2.min(axis=1)) < tau)
    recall = np.mean(np.sqrt(d2.min(axis=0)) < tau)
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def quat_of_matrix(rot):
    """Rotation matrix -> unit quaternion (w, x, y, z), Shepperd's method."""
    m = np.asarray(rot, dtype=np.float64)
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)


def quat_angle_deg(rot_a, rot_b):
    """Geodesic angle between two rotations via quaternions, in degrees."""
    qa = quat_of_matrix(rot_a)
    qb = quat_of_matrix(rot_b)
    dot = min(1.0, abs(float(qa @ qb)))
    return float(np.degrees(2.0 * np.arccos(dot)))


def ray_sphere_depth(origin, direction, radius):
    """First intersection distance of a ray with a sphere at the origin."""
    origin = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    b = origin @ d
    c = origin @ origin - radius**2
    disc = b * b - c
    if disc < 0:
        return None
    t = -b - np.sqrt(disc)
    return float(t) if t > 0 else None


def dense_marching_cubes(field, resolution):
    """Marching cubes with the field evaluated at every grid point in one
    call and the library's table code run over every crossed cell: the
    reference the level-by-level extraction, which calls the field in
    blocks, must reproduce bit for bit."""
    npts = resolution + 1
    axis = np.linspace(-1.0, 1.0, npts)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    coords = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    grid = np.asarray(field(coords), dtype=np.float64).reshape(npts, npts, npts)
    inside = grid < 0.0
    r = resolution
    corners = [inside[dx : dx + r, dy : dy + r, dz : dz + r] for dx, dy, dz in meshing._CORNERS]
    crossed = np.any(corners, axis=0) & ~np.all(corners, axis=0)
    return meshing._triangulate(grid, np.argwhere(crossed))


def table_triangles(field, resolution):
    """(T, 3, 3) vertex positions of each triangle marching cubes emits,
    from a plain loop over (table slot, crossed cell), slot-major and cells
    in C order, with each vertex interpolated from the lower end of its
    edge by `_triangulate`'s formula. The grid is evaluated in ascending
    flat index, FIELD_BLOCK points per call, as marching cubes does below
    resolution 32, so a network field gives the same values."""
    npts = resolution + 1
    axis = np.linspace(-1.0, 1.0, npts)
    coords = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    step = meshing.FIELD_BLOCK
    values = [np.ravel(field(coords[lo : lo + step])) for lo in range(0, len(coords), step)]
    grid = np.concatenate(values).reshape(npts, npts, npts)
    configs = []
    for cell in np.ndindex(resolution, resolution, resolution):
        cfg = sum(1 << c for c, off in enumerate(meshing._CORNERS) if grid[tuple(cell + off)] < 0.0)
        if 0 < cfg < 255:
            configs.append((np.array(cell), cfg))
    triangles = []
    for slot in range(5):
        for cell, cfg in configs:
            edges = TRIANGLES[cfg][3 * slot : 3 * slot + 3]
            if edges[0] < 0:
                continue
            triangle = []
            for e in edges:
                a, b = meshing._CORNERS[meshing._EDGE_CORNERS[e]]
                o = int(np.flatnonzero(a != b)[0])
                p0 = cell + np.minimum(a, b)
                v0 = grid[tuple(p0)]
                v1 = grid[tuple(p0 + np.eye(3, dtype=int)[o])]
                t = min(max(-v0 / (v1 - v0), 0.0), 1.0) if v1 != v0 else 0.5
                triangle.append([-1.0 + 2.0 / resolution * (p0[i] + (t if i == o else 0.0)) for i in range(3)])
            triangles.append(triangle)
    return np.array(triangles).reshape(-1, 3, 3)


def full_jacobian_view_terms(prior, z, r6, t, observed, free):
    """`inference.view_terms` with spatial Jacobians carried through every
    row, observed ones included, and a zero adjoint for the observed rows'
    field gradient: the reference for tracking only the free rows."""
    n = len(observed)
    pts = np.concatenate([observed @ rot6d_to_matrix(r6).T + t, free])
    ev = fields.compose_forward(prior, z, pts)
    table = {
        "observation": ("psi", slice(None, n), *ad.term_l1(ev.psi[:n])),
        "eikonal": ("grad_psi", slice(n, None), *ad.term_eikonal(ev.grad_psi[n:])),
        "latent": ("z", slice(None), *ad.term_latent_l2(ev.z)),
    }
    terms, adjoints = fields.weigh_terms(ev, table, TERM_WEIGHTS)
    _, d_grads, own_z, g_pts = fields.compose_backward(ev, adjoints, inputs_only=True)
    _, g_z = fields.hyper_backward(prior, ev.z[None, :], [d_grads], inputs_only=True)
    g_x = g_pts[:n]
    g_r6 = rot6d_backward(r6, g_x.T @ observed)
    return terms, (g_z[0] + own_z, g_r6, g_x.sum(axis=0))


def textbook_adam(params, steps):
    """Adam as the textbook writes it, one full-array expression per line,
    from zero moments: `steps` is a list of (grads, lr), each stepping
    every key of `grads`. Returns the parameters and both moments."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    p = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(x) for k, x in p.items()}
    for t, (grads, lr) in enumerate(steps, 1):
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g**2
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            p[k] = p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v
