"""The benchmark's three workloads and the shared trained prior.

Each workload builds its inputs from the run seed in `setup()`, exposes a
fixed list of operations (one pass), times each operation through the
public `shapefit` API in `run()`, verifies its output in `check()` and
turns the outputs of the first pass into quality figures in `quality()`.

Why these workloads:
- train: the full reverse pass into the hypernetwork weights plus Adam;
  nothing is meshed or canonicalized and no input-only gradient is taken.
- reconstruct: latent + pose gradients through a frozen prior, plus
  lifting, canonicalization (PCA, ICP, noisy oracle) and a coarse mesh.
- mesh: value-only field evaluation over a dense res-128 grid and the
  marching-cubes table work; no gradients at all.

All three share one prior configuration: 1.18M parameters, about 97% of
them in hypernetwork output layers, the same cost shape as the paper's
default size at a sixth of the cost per step.
"""

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from shapefit import fields, inference, meshing, metrics, training
from shapefit import synthdata as sd
from shapefit.canonicalize import IcpEstimator, NoisyOracleEstimator, PcaEstimator
from shapefit.errors import StructuralError
from shapefit.rng import substream

CATEGORY = "car"
PRIOR_SEED = 0  # the shared prior and its training family never change with the run seed
PRIOR_SHAPES = 4  # training instances 0-3; instances 4-5 are held out for reconstruct
PRIOR_LR = 5e-4
# At the prior's 5e-4 the first epochs of the train workload overshoot
# (loss 1.9k -> 10k -> 2.4k over 8 epochs) and the final loss spreads by
# 12% over ten seeds; at TrainConfig's default the descent is smooth after
# epoch 2.
TRAIN_LR = 1e-4
# (held-out instance offset, occlusion ratio, estimator). Cameras come from
# VIEW_SEED and occluders from the view index, so every run sees the same
# views and only the inference randomness, the oracle noise direction and
# the evaluation samples follow the run seed. With three views per run,
# seed-drawn cameras spread the pose error between 2 and 180 degrees from
# run to run, far beyond any usable bound. These are three of the nine
# occlusion x estimator combinations, one per occlusion and estimator: a
# view costs about 12 s on a shared two-core x86 machine, so nine would not
# fit in one run.
VIEWS = (
    (0, 0.0, "pca"),
    (1, 0.3, "icp"),
    (0, 0.6, "noisy-oracle"),
)
VIEW_SEED = 0
ORACLE_NOISE = (10.0, 0.05)  # (degrees, translation)
MESH_INSTANCE = 0  # training instance whose latent the mesh workload extracts
MESH_LATENT_JITTER = 0.01
EVAL_SEED = 0  # evaluation samples of the mesh workload, see MeshWorkload


class CheckFailed(Exception):
    """An operation returned an output that fails verification."""


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration."""

    name: str
    prior: dict  # init_prior keyword arguments
    prior_epochs: int
    points: int  # surface and free points per shape and epoch, in training and in the train workload
    train_shapes: int
    train_epochs: int
    train_pool: int  # surface and free points sampled per shape, subsampled each epoch
    image: tuple  # (width, height) of rendered views
    recon_overrides: dict  # InferenceConfig fields besides seed (empty: public defaults)
    recon_mc_resolution: int
    mesh_resolution: int
    quality_samples: int
    setup_repeats: int

    def prior_key(self, src_digest):
        """Cache key of the trained prior: the program source plus this profile."""
        h = hashlib.sha256(src_digest.encode())
        h.update(repr((self.prior, PRIOR_SHAPES, self.prior_epochs, self.points, PRIOR_LR)).encode())
        return h.hexdigest()[:16]


FULL = Profile(
    name="full",
    prior=dict(latent_dim=64, template_hidden=(64, 64, 64), deform_hidden=(64, 64, 64), hyper_hidden=128),
    prior_epochs=40,
    points=500,
    train_shapes=4,
    train_epochs=8,
    train_pool=2000,
    image=(64, 48),
    recon_overrides={},
    recon_mc_resolution=32,
    mesh_resolution=128,
    quality_samples=5000,
    setup_repeats=15,
)

# the network sizes of tests/test_inference.py; seconds per run
TINY = Profile(
    name="tiny",
    prior=dict(latent_dim=8, template_hidden=(16, 16), deform_hidden=(10, 10), hyper_hidden=16),
    prior_epochs=3,
    points=100,
    train_shapes=2,
    train_epochs=2,
    train_pool=200,
    image=(32, 24),
    recon_overrides=dict(iterations=3, eikonal_samples=64, max_observed_points=200),
    recon_mc_resolution=16,
    mesh_resolution=24,
    quality_samples=500,
    setup_repeats=2,
)

PROFILES = {p.name: p for p in (FULL, TINY)}


def _family():
    """Training instances first, then the held-out ones."""
    return sd.make_family(CATEGORY, PRIOR_SHAPES + 2, PRIOR_SEED)


def _train_config(profile, epochs, lr, seed):
    return training.TrainConfig(
        epochs=epochs,
        batch_shapes=4,
        surface_points_per_shape=profile.points,
        free_points_per_shape=profile.points,
        lr=lr,
        lr_latent=lr,
        seed=seed,
    )


def build_prior(profile, path):
    """Train the shared prior with the code under test and save it at `path`."""
    prior = fields.init_prior(CATEGORY, seed=PRIOR_SEED, **profile.prior)
    shapes = _family()[:PRIOR_SHAPES]
    data = [(s.name, sd.sample_shape(s, profile.points, profile.points, PRIOR_SEED)) for s in shapes]
    prior, _, _ = training.fit(prior, data, _train_config(profile, profile.prior_epochs, PRIOR_LR, PRIOR_SEED))
    tmp = f"{path}.tmp{os.getpid()}"
    fields.save_prior(prior, tmp)
    os.replace(tmp + ".json", path + ".json")
    os.replace(tmp, path)


def check_finite(values, what):
    bad = [k for k, v in values.items() if not np.isfinite(v)]
    if bad:
        raise CheckFailed(f"{what}: non-finite {bad}")


def _surface_quality(mesh, shape, profile, seed):
    """(chamfer x1e4, F@1%) between mesh samples and analytic surface samples."""
    pred = meshing.sample_mesh_surface(mesh, profile.quality_samples, seed)
    gt = sd.sample_shape(shape, profile.quality_samples, 1, seed).surface_points
    report = metrics.EvalReport()
    rec = report.add("q", pred, gt)
    return rec.chamfer_x1e4, rec.f1


def _check_mesh(mesh):
    if mesh is None or mesh.is_empty:
        raise CheckFailed("empty mesh")
    mesh.validate()


class Workload:
    """Base: holds the profile, the run seed and the prior cache path.

    Operations are timed with `clock`, which the runner replaces by a
    `reference.ReferenceClock` clock while it measures.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, profile, seed, prior_path):
        self.profile = profile
        self.seed = seed
        self.prior_path = prior_path

    def _load_prior(self, scratch):
        """Load the cached prior and round-trip it through a fresh checkpoint."""
        prior = fields.load_prior(self.prior_path)
        fields.save_prior(prior, scratch)
        again = fields.load_prior(scratch)
        for a, b in zip(prior.hyper, again.hyper):
            if not all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)):
                raise CheckFailed("checkpoint round trip changed the hypernetwork weights")
        return again


class TrainWorkload(Workload):
    """`training.fit` from a fresh prior on the prior's training shapes.

    The run seed draws the sample pools and the per-epoch subsets; the
    shapes and the initial weights are those of the shared prior. Drawing
    the family and the init from the seed as well spreads the loss after
    8 epochs by about 7% (interquartile range over median, six seeds)
    instead of about 5%.
    """

    name = "train"
    unit = "one fit epoch over the training batch"

    def setup(self, scratch):
        p = self.profile
        shapes = _family()[: p.train_shapes]
        n = p.train_pool
        self.data = [(s.name, sd.sample_shape(s, n, n, self.seed)) for s in shapes]

    def ops(self):
        return ["fit"]

    def run(self, op):
        p = self.profile
        prior = fields.init_prior(CATEGORY, seed=PRIOR_SEED, **p.prior)
        stamps = []

        def on_epoch(epoch, prior_, optimizer, history):
            stamps.append(self.clock())

        t0 = self.clock()
        _, history, _ = training.fit(prior, self.data, _train_config(p, p.train_epochs, TRAIN_LR, self.seed),
                                     on_epoch=on_epoch)
        samples = list(np.diff([t0] + stamps))
        return history, samples

    def check(self, op, history):
        if len(history) != self.profile.train_epochs:
            raise CheckFailed(f"{len(history)} history rows for {self.profile.train_epochs} epochs")
        for row in history:
            check_finite({k: v for k, v in row.items() if k != "epoch"}, f"epoch {row['epoch']}")

    def fingerprint(self, history):
        return [sorted(row.items()) for row in history]

    def quality(self, outputs):
        history = outputs["fit"]
        return {"error": history[-1]["total"]}, {}


class ReconstructWorkload(Workload):
    """`inference.reconstruct` on fixed views of held-out instances."""

    name = "reconstruct"
    unit = "one reconstruct call"

    def setup(self, scratch):
        p = self.profile
        self.prior = self._load_prior(scratch)
        family = _family()
        intr = sd.default_intrinsics(*p.image)
        self.views = {}
        self.truth = {}
        for j, (offset, occ, est_name) in enumerate(VIEWS):
            idx = PRIOR_SHAPES + offset
            shape = family[idx]
            cam = sd.hemisphere_camera(substream(VIEW_SEED, "perfbench-camera", j))
            depth = sd.render_depth(shape, cam, intr, p.image)
            depth = sd.occlude(depth, occ, seed=j)
            gt_pose = cam.inverse()  # camera frame -> canonical frame
            if est_name == "pca":
                est = PcaEstimator()
            elif est_name == "icp":
                est = IcpEstimator()
            else:
                deg, trans = ORACLE_NOISE
                est = NoisyOracleEstimator(gt_pose, deg, trans, seed=self.seed)
            key = f"view{j}-{shape.name}-occ{occ}-{est_name}"
            self.views[key] = (depth, est, gt_pose, idx)
            if idx not in self.truth:
                self.truth[idx] = shape

    def ops(self):
        return list(self.views)

    def run(self, op):
        depth, est, _, _ = self.views[op]
        cfg = inference.InferenceConfig(
            mc_resolution=self.profile.recon_mc_resolution, seed=self.seed, **self.profile.recon_overrides
        )
        t0 = self.clock()
        result = inference.reconstruct(self.prior, depth, est, cfg)
        return (result, cfg.iterations), [self.clock() - t0]

    def check(self, op, out):
        result, iterations = out
        result.validate(iterations)
        _check_mesh(result.mesh)

    def fingerprint(self, out):
        result, _ = out
        return (result.latent.z.tobytes(), result.pose.rot6d.tobytes(),
                result.pose.translation.tobytes(), result.mesh.vertices.tobytes())

    def quality(self, outputs):
        cds, f1s, degs, trans = [], [], [], []
        for op, (result, _) in outputs.items():
            _, _, gt_pose, idx = self.views[op]
            cd, f1 = _surface_quality(result.mesh, self.truth[idx], self.profile, self.seed)
            deg, tr = metrics.pose_error(result.pose, gt_pose)
            cds.append(cd)
            f1s.append(f1)
            degs.append(deg)
            trans.append(tr)
        extra = {
            "metrics.fscore.f1": float(np.mean(f1s)),
            "metrics.pose_error.rot_deg": float(np.median(degs)),
            "metrics.pose_error.trans": float(np.median(trans)),
        }
        return {"error": float(np.mean(cds))}, extra


class MeshWorkload(Workload):
    """Dense marching cubes of a field next to one training instance.

    The latent is the training instance's plus Gaussian noise of
    `MESH_LATENT_JITTER` times the latent table's per-dimension spread,
    drawn from the run seed, so every seed meshes a slightly different
    shape. The mesh is scored against the training instance's analytic
    surface with evaluation samples of a fixed seed: with seed-drawn
    samples, even 20000 a side, sampling alone spreads the chamfer by 6%.
    """

    name = "mesh"
    unit = "one marching_cubes extraction"

    def setup(self, scratch):
        p = self.profile
        self.prior = self._load_prior(scratch)
        self.shape = _family()[MESH_INSTANCE]
        if self.shape.name not in self.prior.latents:
            raise StructuralError(f"prior has no latent for {self.shape.name}")
        _, std = self.prior.latent_stats()
        noise = substream(self.seed, "perfbench-latent").standard_normal(self.prior.latent_dim)
        self.z = self.prior.latents[self.shape.name] + MESH_LATENT_JITTER * std * noise

    def ops(self):
        return [self.shape.name]

    def run(self, op):
        t0 = self.clock()
        mesh = meshing.marching_cubes(fields.instance_field(self.prior, self.z), self.profile.mesh_resolution)
        return mesh, [self.clock() - t0]

    def check(self, op, mesh):
        _check_mesh(mesh)

    def fingerprint(self, mesh):
        return (mesh.vertices.tobytes(), mesh.triangles.tobytes())

    def quality(self, outputs):
        cd, f1 = _surface_quality(outputs[self.shape.name], self.shape, self.profile, EVAL_SEED)
        return {"error": cd}, {"metrics.fscore.f1": f1}


WORKLOADS = {w.name: w for w in (TrainWorkload, ReconstructWorkload, MeshWorkload)}
