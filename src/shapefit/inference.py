"""Test-time reconstruction: joint optimization of latent code and object
pose against a partial observation, with network weights frozen.

Per step the observed points are moved into the canonical frame by the
current pose and the field is penalized for nonzero values there; fresh
uniform free-space samples keep the field eikonal; the latent stays small.
`view_terms` evaluates this objective with one composed forward and one
reverse pass over both point sets. Rotations use the continuous 6D
parametrization, so plain Adam steps stay on the rotation manifold after
Gram-Schmidt.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields
from .canonicalize import PointCloud, canonicalize, lift_depth
from .errors import NumericError, StageError, StructuralError
from .formats import save_container, save_json, save_obj
from .geometry import Pose, rot6d_backward, rot6d_to_matrix
from .meshing import marching_cubes, sample_mesh_surface
from .rng import substream

TRACE_FIELDS = ("iteration", "observation", "eikonal", "latent")

# objective weights and Adam step sizes of test-time fitting
TERM_WEIGHTS = {"observation": 3e3, "eikonal": 5e1, "latent": 5.0}
LR_SHAPE = 1e-3
LR_POSE = 1e-2


@dataclass
class InferenceConfig:
    iterations: int = 30
    eikonal_samples: int = 512
    latent_init: str = "learned"  # "learned" | "zero"
    optimize_pose: bool = True
    optimize_latent: bool = True
    max_observed_points: int = 2000
    mc_resolution: int = 128
    seed: int = 0

    def validate(self):
        if self.iterations < 0:
            raise StructuralError("iterations must be >= 0")
        if self.latent_init not in ("learned", "zero"):
            raise StructuralError(f"unknown latent init mode {self.latent_init!r}")
        if self.eikonal_samples <= 0 or self.max_observed_points <= 0:
            raise StructuralError("sample counts must be positive")
        return self


@dataclass
class ReconstructionResult:
    mesh: object  # TriangleMesh | None until meshing ran
    pose: Pose
    latent: fields.LatentCode
    trace: list  # per-iteration term dicts of view_terms

    def validate(self, iterations=None):
        self.pose.validate()
        if iterations is not None and len(self.trace) != iterations:
            raise StructuralError("loss trace length != iteration count")
        return self


def init_latent(prior, config, rng):
    if config.latent_init == "zero":
        return np.zeros(prior.latent_dim)
    mean, std = prior.latent_stats()
    return rng.normal(mean, np.maximum(std, 1e-8))


def view_terms(prior, z, r6, t, observed, free):
    """Test-time objective of one view and its exact gradients.

    The counterpart of `training.shape_terms` with the prior frozen: the
    observed points (N, 3), camera frame, are posed into the canonical
    frame by x = R(r6) p + t and their field values pulled to zero; the
    free samples (M, 3), canonical frame, keep the field eikonal; the
    latent stays small. Both point sets share one composed forward and one
    reverse pass, and the pose gradient follows from the point gradient of
    the observed rows.

    Returns (terms, (g_z, g_r6, g_t)); terms holds each TERM_WEIGHTS term
    and their weighted total.
    """
    n = len(observed)
    pts = np.concatenate([observed @ rot6d_to_matrix(r6).T + t, free])
    deform, h_caches = fields.hyper_forward(prior, z)
    ev = fields.compose_forward(prior.template, deform, pts)
    eik_term, g_eik = ad.term_eikonal(ev.grad_psi[n:], TERM_WEIGHTS["eikonal"])
    lat_term, g_lat = ad.term_latent_l2(z)
    obs_term = float(np.abs(ev.psi[:n]).mean())
    terms = {"observation": obs_term, "eikonal": float(eik_term), "latent": lat_term}
    terms["total"] = sum(w * terms[k] for k, w in TERM_WEIGHTS.items())

    d_psi = np.zeros(len(pts))
    d_psi[:n] = TERM_WEIGHTS["observation"] * np.sign(ev.psi[:n]) / n
    d_grad_psi = np.concatenate([np.zeros((n, 3)), g_eik])
    _, d_grads, g_pts = fields.compose_backward(
        prior.template, deform, ev, d_psi=d_psi, d_grad_psi=d_grad_psi
    )
    _, g_z = fields.hyper_backward(prior, h_caches, d_grads)
    g_x = g_pts[:n]
    g_r6 = rot6d_backward(r6, g_x.T @ observed)
    return terms, (g_z + TERM_WEIGHTS["latent"] * g_lat, g_r6, g_x.sum(axis=0))


def joint_optimize(prior, observed, init, config):
    """Refine (latent, rotation, translation) against observed points.

    observed: PointCloud in the camera frame. init: Pose mapping camera
    frame -> canonical frame. Each iteration draws fresh free-space
    samples, evaluates `view_terms` (one forward and one reverse pass) and
    takes Adam steps; its trace row is the term dict. Network weights stay
    frozen; a frozen configuration (both optimize flags off or zero
    iterations) passes the initialization through unchanged.
    """
    config.validate()
    observed.validate()
    init.validate()
    rng = substream(config.seed, "inference")
    pts = observed.points
    if len(pts) > config.max_observed_points:
        pick = rng.choice(len(pts), size=config.max_observed_points, replace=False)
        pts = pts[pick]
    z = init_latent(prior, config, rng)
    r6 = init.rot6d.copy()
    t = init.translation.copy()
    opt = ad.Adam()
    params = {"z": z, "r6": r6, "t": t}
    trace = []
    for it in range(config.iterations):
        free = substream(config.seed, "inference-eikonal", it).uniform(
            -1.0, 1.0, (config.eikonal_samples, 3)
        )
        terms, (g_z, g_r6, g_t) = view_terms(prior, z, r6, t, pts, free)
        trace.append(terms)
        bad = [k for k, v in terms.items() if not np.isfinite(v)]
        if bad:
            raise NumericError(f"inference diverged at iteration {it}: non-finite terms {bad}")
        bad = [k for k, g in zip(params, (g_z, g_r6, g_t)) if not np.isfinite(g).all()]
        if bad:
            raise NumericError(f"non-finite gradients {bad} at iteration {it}")

        if config.optimize_latent:
            opt.step(params, {"z": g_z}, lr=LR_SHAPE)
        if config.optimize_pose:
            opt.step(params, {"r6": g_r6, "t": g_t}, lr=LR_POSE)

    pose = Pose(r6, t)
    result = ReconstructionResult(None, pose, fields.LatentCode(z, "reconstruction"), trace)
    return result.validate(config.iterations)


def template_cloud(prior, resolution=48, n_points=4000, seed=0):
    """Surface samples of the prior's template zero level set (canonical)."""
    def field_fn(pts):
        return ad.forward(prior.template, pts)[:, 0]

    mesh = marching_cubes(field_fn, resolution)
    if mesh.is_empty:
        raise StructuralError("template field has no zero level set to sample")
    return PointCloud(sample_mesh_surface(mesh, n_points, seed), "canonical")


def reconstruct(prior, depth, estimator, config):
    """Full pipeline: lift -> canonicalize -> joint optimize -> extract mesh.

    Failures carry the stage name. The prior's template cloud
    (canonical-frame surface samples) is computed from the template field
    for estimators that declare `needs_template`.
    """
    config.validate()
    try:
        cloud = lift_depth(depth)
    except Exception as e:
        raise StageError("lift", e) from e

    tc = None
    if getattr(estimator, "needs_template", False):
        try:
            tc = template_cloud(prior, seed=config.seed)
        except Exception as e:
            raise StageError("template-cloud", e) from e
    try:
        init = canonicalize(estimator, cloud, template=tc)
    except Exception as e:
        raise StageError("canonicalize", e) from e

    try:
        result = joint_optimize(prior, cloud, init, config)
    except Exception as e:
        raise StageError("joint-optimize", e) from e

    try:
        field_fn = fields.instance_field(prior, result.latent.z)
        result.mesh = marching_cubes(field_fn, config.mc_resolution)
    except Exception as e:
        raise StageError("meshing", e) from e
    return result


def save_result(result, directory, name):
    """Result bundle: OBJ mesh, JSON pose, latent container, trace CSV."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, name)
    if result.mesh is not None:
        save_obj(base + ".obj", result.mesh.vertices, result.mesh.triangles)
    save_json(
        base + ".pose.json",
        {
            "rotation_row_major": [float(v) for v in result.pose.matrix().ravel()],
            "translation": [float(v) for v in result.pose.translation],
        },
    )
    save_container(base + ".latent.bin", {"latent": result.latent.z})
    with open(base + ".trace.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(TRACE_FIELDS))
        writer.writeheader()
        for i, row in enumerate(result.trace):
            writer.writerow({"iteration": i, **{k: row[k] for k in TRACE_FIELDS[1:]}})
