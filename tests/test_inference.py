import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, inference
from shapefit import synthdata as sd
from shapefit.canonicalize import NoisyOracleEstimator, PointCloud
from shapefit.errors import StageError, StructuralError
from shapefit.geometry import Pose, rotation_about_axis
from shapefit.rng import substream

from oracles import fd_grad_vector, rel_err


def tiny_prior(seed=0):
    return fields.init_prior(
        "sphere", latent_dim=8, template_hidden=(16, 16), deform_hidden=(10, 10),
        hyper_hidden=16, seed=seed,
    )


def observed_sphere_cloud(seed=1, n=300, r=0.45):
    rng = substream(seed, "obs")
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(r * dirs, "camera")


def test_zero_iterations_passthrough():
    prior = tiny_prior(2)
    prior.latents = {"a": np.full(8, 0.25)}
    obs = observed_sphere_cloud(3)
    init = Pose.from_matrix(rotation_about_axis([0, 0, 1], 0.3), np.array([0.1, 0, 0]))
    cfg = inference.InferenceConfig(iterations=0, latent_init="zero", seed=5)
    res = inference.joint_optimize(prior, obs, init, cfg)
    np.testing.assert_array_equal(res.pose.rot6d, init.rot6d)
    np.testing.assert_array_equal(res.pose.translation, init.translation)
    np.testing.assert_array_equal(res.latent.z, np.zeros(8))
    assert res.trace == []


def test_trace_length_matches_iterations():
    prior = tiny_prior(4)
    obs = observed_sphere_cloud(5, n=100)
    cfg = inference.InferenceConfig(
        iterations=7, latent_init="zero", eikonal_samples=64, seed=6, mc_resolution=16
    )
    res = inference.joint_optimize(prior, obs, Pose.identity(), cfg)
    assert len(res.trace) == 7
    res.pose.validate()


def test_frozen_flags_keep_values():
    prior = tiny_prior(7)
    obs = observed_sphere_cloud(8, n=80)
    cfg = inference.InferenceConfig(
        iterations=5, latent_init="zero", optimize_pose=False, optimize_latent=False,
        eikonal_samples=32, seed=9,
    )
    init = Pose.identity()
    res = inference.joint_optimize(prior, obs, init, cfg)
    np.testing.assert_array_equal(res.pose.rot6d, init.rot6d)
    np.testing.assert_array_equal(res.latent.z, np.zeros(8))
    assert len(res.trace) == 5


def test_joint_optimize_deterministic():
    prior = tiny_prior(10)
    prior.latents = {"a": substream(11, "l").standard_normal(8) * 0.05}
    obs = observed_sphere_cloud(12, n=120)
    cfg = inference.InferenceConfig(iterations=6, eikonal_samples=64, seed=13)
    r1 = inference.joint_optimize(prior, obs, Pose.identity(), cfg)
    r2 = inference.joint_optimize(prior, obs, Pose.identity(), cfg)
    np.testing.assert_array_equal(r1.latent.z, r2.latent.z)
    np.testing.assert_array_equal(r1.pose.rot6d, r2.pose.rot6d)
    assert r1.trace == r2.trace


def test_view_terms_gradients_match_fd():
    # z, r6 and t gradients of the weighted total, at an off-identity pose
    # and with a nonzero eikonal term on the free samples
    prior = tiny_prior(14)
    z = substream(15, "z").standard_normal(8) * 0.2
    obs = observed_sphere_cloud(16, n=60).points
    free = substream(17, "free").uniform(-1.0, 1.0, (40, 3))
    t = np.array([0.03, -0.02, 0.05])
    r6 = Pose.from_matrix(rotation_about_axis([1.0, 2.0, 0.5], 0.6), t).rot6d * 1.2
    terms, grads = inference.view_terms(prior, z, r6, t, obs, free)
    assert terms["eikonal"] > 0.0

    def total(vec):
        return inference.view_terms(prior, vec[:8], vec[8:14], vec[14:], obs, free)[0]["total"]

    want = fd_grad_vector(total, np.concatenate([z, r6, t]), h=1e-6)
    for name, got, sl in zip(("z", "r6", "t"), grads, (slice(0, 8), slice(8, 14), slice(14, 17))):
        assert np.abs(got).max() > 1e-3, name
        assert rel_err(got, want[sl], floor=1e-6) < 1e-3, name


def test_nan_abort_reports_iteration():
    prior = tiny_prior(17)
    prior.template.weights[-1][:] = 1e308
    obs = observed_sphere_cloud(18, n=40)
    cfg = inference.InferenceConfig(iterations=3, latent_init="zero", eikonal_samples=16, seed=19)
    with np.errstate(all="ignore"), pytest.raises(Exception, match="iteration"):
        inference.joint_optimize(prior, obs, Pose.identity(), cfg)


def test_reconstruct_empty_mask_stage_tagged():
    prior = tiny_prior(20)
    img = sd.DepthImage(
        np.zeros((8, 8)), np.zeros((8, 8), dtype=bool),
        sd.default_intrinsics(8, 8), Pose.identity(),
    )
    est = NoisyOracleEstimator(Pose.identity())
    cfg = inference.InferenceConfig(iterations=1, mc_resolution=16, seed=21)
    with pytest.raises(StageError) as exc:
        inference.reconstruct(prior, img, est, cfg)
    assert exc.value.stage == "lift"


def test_save_result_bundle(tmp_path):
    from shapefit.meshing import TriangleMesh

    mesh = TriangleMesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]), np.array([[0, 1, 2]])
    )
    res = inference.ReconstructionResult(
        mesh, Pose.identity(), fields.LatentCode(np.zeros(4)),
        [{"observation": 1.0, "eikonal": 0.5, "latent": 0.0}],
    )
    inference.save_result(res, str(tmp_path), "shape0")
    assert (tmp_path / "shape0.obj").exists()
    assert (tmp_path / "shape0.pose.json").exists()
    assert (tmp_path / "shape0.latent.bin").exists()
    trace = (tmp_path / "shape0.trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,observation,eikonal,latent"
    assert trace[1].startswith("0,1.0")


def test_latent_init_modes():
    prior = tiny_prior(22)
    rng = substream(23, "l")
    prior.latents = {f"s{i}": rng.standard_normal(8) for i in range(6)}
    cfg_zero = inference.InferenceConfig(latent_init="zero", seed=1)
    z0 = inference.init_latent(prior, cfg_zero, substream(1, "a"))
    assert np.array_equal(z0, np.zeros(8))
    cfg_learned = inference.InferenceConfig(latent_init="learned", seed=1)
    mean, std = prior.latent_stats()
    zs = np.stack([
        inference.init_latent(prior, cfg_learned, substream(i, "b")) for i in range(200)
    ])
    # samples follow the empirical latent distribution
    assert np.abs(zs.mean(axis=0) - mean).max() < 4 * std.max() / np.sqrt(200)


def test_reconstruct_passes_template_cloud_to_estimator():
    prior = tiny_prior(24)
    # a plane template, so the template cloud is the z = 0 square
    prior.template = ad.MLPParams([np.array([[0.0, 0.0, 1.0]])], [np.zeros(1)], ("linear",))
    seen = []

    class RecordingEstimator:
        name = "recording"
        own_frame = False
        needs_template = True

        def estimate(self, points, template_points=None):
            seen.append(template_points)
            return Pose.identity()

    shape = sd.make_family("sphere", 1, seed=25)[0]
    cam = Pose.from_matrix(np.eye(3), np.array([0.0, 0.0, 2.5]))
    depth = sd.render_depth(shape, cam, sd.default_intrinsics(16, 12), (16, 12))
    cfg = inference.InferenceConfig(iterations=1, eikonal_samples=8, mc_resolution=8, seed=26)
    inference.reconstruct(prior, depth, RecordingEstimator(), cfg)
    assert seen[0].shape == (4000, 3)
    assert np.abs(seen[0][:, 2]).max() < 1e-12
