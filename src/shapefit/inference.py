"""Test-time reconstruction: joint optimization of latent code and object
pose against a partial observation, with network weights frozen.

Per step the observed points are moved into the canonical frame by the
current pose and the field is penalized for nonzero values there; fresh
uniform free-space samples keep the field eikonal; the latent stays small.
`view_terms` evaluates this objective with one composed forward and one
reverse pass over both point sets, its terms weighed by TERM_WEIGHTS in
`fields.weigh_terms` as training's are by theirs. Only the free samples
carry spatial Jacobians: no term reads the field gradient at an observed
point, whose pose gradient comes from the reverse pass. Rotations use the
continuous 6D parametrization, so plain Adam steps stay on the rotation
manifold after Gram-Schmidt.
"""

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import fields
from .canonicalize import PointCloud, canonicalize, lift_depth
from .errors import StageError, StructuralError, check_cloud, check_count, check_finite, check_finite_array, check_type
from .geometry import Pose, rot6d_backward, rot6d_to_matrix
from .meshing import check_resolution, marching_cubes, sample_mesh_surface
from .rng import substream
from .synthdata.render import DepthImage

# objective weights and Adam step sizes of test-time fitting
TERM_WEIGHTS = {"observation": 3e3, "eikonal": 5e1, "latent": 5.0}
LR_SHAPE = 1e-3
LR_POSE = 1e-2
# the template cloud that PCA and ICP align to: surface samples of a res-48 mesh
TEMPLATE_MC_RESOLUTION = 48
TEMPLATE_POINTS = 4000


@dataclass(frozen=True)
class InferenceConfig:
    iterations: int = 30
    eikonal_samples: int = 512
    max_observed_points: int = 2000
    # final mesh; level by level, so res 128 evaluates 3.7% of the 129^3
    # grid points on a trained car prior (79,498 of 2,146,689): 0.35-0.43 s,
    # against 9-10 s to evaluate every grid point in slabs of 129^2 (one
    # BLAS thread, 2-core shared AVX-512 x86 VM, NumPy 2.4, the
    # 1.2M-parameter bench prior at training instance 0's latent)
    mc_resolution: int = 128
    seed: int = 0

    def __post_init__(self):
        check_count("iterations", self.iterations, 0)
        check_count("eikonal_samples", self.eikonal_samples)
        check_count("max_observed_points", self.max_observed_points)
        check_resolution(self.mc_resolution)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class ReconstructionResult:
    mesh: object  # TriangleMesh | None until meshing ran
    pose: Pose
    latent: fields.LatentCode
    trace: tuple  # per-iteration term dicts of view_terms

    def validate(self, iterations):
        if len(self.trace) != iterations:
            raise StructuralError("loss trace length != iteration count")
        return self


def init_latent(prior, rng):
    """A latent drawn from the prior's empirical latent distribution."""
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    check_type("rng", rng, np.random.Generator, "a numpy Generator")
    mean, std = prior.latent_stats()
    return rng.normal(mean, np.maximum(std, 1e-8))


def view_terms(prior, z, r6, t, observed, free):
    """Test-time objective of one view and its exact gradients.

    The counterpart of `training.shape_terms` with the prior frozen: the
    observed points (N, 3), camera frame, are posed into the canonical
    frame by x = R(r6) p + t and their field values pulled to zero; the
    free samples (M, 3), canonical frame, keep the field eikonal; the
    latent stays small. Both point sets share one `fields.compose_forward`
    and one `fields.compose_backward` call, and the pose gradient follows
    from the point gradient of the observed rows. `fields.weigh_terms`
    weighs the term table; the three fields no term here reads get zero
    adjoints. Only the free rows carry spatial Jacobians, since the eikonal
    term is the one term that reads them.

    Returns (terms, (g_z, g_r6, g_t)); terms holds each TERM_WEIGHTS term
    and their weighted total.
    """
    observed, free = check_cloud("observed", observed), check_cloud("free", free)
    check_finite_array("t", t, (3,))
    n = len(observed)
    ev = fields.compose_forward(prior, z, np.concatenate([observed @ rot6d_to_matrix(r6).T + t, free]), value_rows=n)
    table = {
        "observation": ("psi", slice(None, n), *ad.term_l1(ev.psi[:n])),
        "eikonal": ("grad_psi", slice(None), *ad.term_eikonal(ev.grad_psi)),
        "latent": ("z", slice(None), *ad.term_latent_l2(ev.z)),
    }
    terms, adjoints = fields.weigh_terms(ev, table, TERM_WEIGHTS)
    _, _, g_z, g_pts = fields.compose_backward(ev, adjoints, inputs_only=True)
    g_x = g_pts[:n]
    grad_rot = g_x.T @ observed
    # rot6d_backward refuses a non-finite grad_rot; NaN in g_r6 is named by joint_optimize's checks
    g_r6 = rot6d_backward(r6, grad_rot) if np.isfinite(grad_rot).all() else np.full(6, np.nan)
    return terms, (g_z, g_r6, g_x.sum(axis=0))


def joint_optimize(prior, observed, init, config):
    """Refine (latent, rotation, translation) against observed points.

    observed: PointCloud in the camera frame. init: Pose mapping camera
    frame -> canonical frame. Each iteration draws fresh free-space
    samples, evaluates `view_terms` (one forward and one reverse pass) and
    takes Adam steps on the latent and on the pose; its trace row is the
    term dict. The rotation is stepped in the 6D parametrization, starting
    from `init.rot6d`. Network weights stay frozen, and zero iterations
    return the initial latent and `init` itself.
    """
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    check_type("observed", observed, PointCloud, "a PointCloud")
    check_type("init", init, Pose, "a Pose")
    check_type("config", config, InferenceConfig, "an InferenceConfig")
    rng = substream(config.seed, "inference")
    pts = observed.points
    if len(pts) > config.max_observed_points:
        pick = rng.choice(len(pts), size=config.max_observed_points, replace=False)
        pts = pts[pick]
    z = init_latent(prior, rng)
    r6 = init.rot6d
    t = init.translation.copy()
    opt = ad.Adam()
    params = {"z": z, "r6": r6, "t": t}
    trace = []
    for it in range(config.iterations):
        free = substream(config.seed, "inference-eikonal", it).uniform(-1.0, 1.0, (config.eikonal_samples, 3))
        terms, (g_z, g_r6, g_t) = view_terms(prior, z, r6, t, pts, free)
        trace.append(terms)
        check_finite(f"iteration {it}, terms", terms)
        check_finite(f"iteration {it}, gradients", {"z": g_z, "r6": g_r6, "t": g_t})
        opt.step(params, {"z": g_z}, lr=LR_SHAPE)
        opt.step(params, {"r6": g_r6, "t": g_t}, lr=LR_POSE)

    pose = Pose(rot6d_to_matrix(r6), t) if config.iterations else init
    return ReconstructionResult(None, pose, fields.LatentCode(z), tuple(trace))


def template_cloud(prior, seed):
    """Surface samples of the prior's template zero level set (canonical)."""
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    mesh = marching_cubes(lambda pts: ad.forward(prior.template, pts)[:, 0], TEMPLATE_MC_RESOLUTION)
    if mesh.is_empty:
        raise StructuralError("template field has no zero level set to sample")
    return PointCloud(sample_mesh_surface(mesh, TEMPLATE_POINTS, seed))


def _stage(name, fn, *args):
    """fn(*args), any failure raised as a StageError naming the stage."""
    try:
        return fn(*args)
    except Exception as e:
        raise StageError(name, e) from e


def reconstruct(prior, depth, estimator, config):
    """Full pipeline: lift -> canonicalize -> joint optimize -> extract mesh.

    Failures carry the stage name. The prior's template cloud (surface
    samples of the template field) is built only when the estimator asks
    for it, so a template failure is a canonicalize failure. A non-finite
    or negative depth has already failed when `depth` was built; an image
    with no positive depth fails as stage `lift`. A prior, depth, estimator
    (an object with an `estimate` method) or config of the wrong type fails
    before the first stage.
    """
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    check_type("depth", depth, DepthImage, "a DepthImage")
    check_type("estimator.estimate", getattr(estimator, "estimate", None), Callable, "a callable")
    check_type("config", config, InferenceConfig, "an InferenceConfig")
    cloud = _stage("lift", lift_depth, depth)
    init = _stage("canonicalize", canonicalize, estimator, cloud, lambda: template_cloud(prior, config.seed))
    result = _stage("joint-optimize", joint_optimize, prior, cloud, init, config)
    mesh = _stage(
        "meshing", lambda: marching_cubes(fields.instance_field(prior, result.latent.z), config.mc_resolution)
    )
    return replace(result, mesh=mesh)
