import dataclasses
import re

import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, inference
from shapefit import synthdata as sd
from shapefit.canonicalize import NoisyOracleEstimator, PcaEstimator, PointCloud
from shapefit.errors import NumericError, StageError, StructuralError
from shapefit.geometry import Pose, rotation_about_axis
from shapefit.rng import substream

from oracles import fd_grad_vector, full_jacobian_view_terms, identity_pose, rel_err


def tiny_prior(seed=0):
    return fields.init_prior(
        "sphere", latent_dim=8, template_hidden=(16, 16), deform_hidden=(10, 10),
        hyper_hidden=16, seed=seed,
    )


def observed_sphere_cloud(seed=1, n=300, r=0.45):
    rng = substream(seed, "obs")
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud(r * dirs)


def test_zero_iterations_passthrough():
    prior = dataclasses.replace(tiny_prior(2), latents={"a": np.full(8, 0.25)})
    obs = observed_sphere_cloud(3)
    init = Pose(rotation_about_axis([0, 0, 1], 0.3), np.array([0.1, 0, 0]))
    cfg = inference.InferenceConfig(iterations=0, seed=5)
    res = inference.joint_optimize(prior, obs, init, cfg)
    # init itself: Gram-Schmidt of its columns could differ from R in the last bit
    assert res.pose is init
    np.testing.assert_array_equal(res.pose.rot6d, init.rot6d)
    np.testing.assert_array_equal(res.pose.translation, init.translation)
    np.testing.assert_array_equal(res.latent.z, inference.init_latent(prior, substream(5, "inference")))
    assert res.trace == ()


def test_trace_length_matches_iterations():
    prior = tiny_prior(4)
    obs = observed_sphere_cloud(5, n=100)
    cfg = inference.InferenceConfig(
        iterations=7, eikonal_samples=64, seed=6, mc_resolution=16
    )
    init = Pose(rotation_about_axis([0, 1, 0], 0.2), np.array([0.0, 0.05, 0]))
    res = inference.joint_optimize(prior, obs, init, cfg)
    assert len(res.trace) == 7
    # every iteration steps the latent and the pose
    assert not np.array_equal(res.latent.z, inference.init_latent(prior, substream(6, "inference")))
    assert not np.array_equal(res.pose.rot6d, init.rot6d)
    assert not np.array_equal(res.pose.translation, init.translation)


def test_joint_optimize_deterministic():
    prior = dataclasses.replace(tiny_prior(10), latents={"a": substream(11, "l").standard_normal(8) * 0.05})
    obs = observed_sphere_cloud(12, n=120)
    cfg = inference.InferenceConfig(iterations=6, eikonal_samples=64, seed=13)
    r1 = inference.joint_optimize(prior, obs, identity_pose(), cfg)
    r2 = inference.joint_optimize(prior, obs, identity_pose(), cfg)
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
    r6 = Pose(rotation_about_axis([1.0, 2.0, 0.5], 0.6), t).rot6d * 1.2
    terms, grads = inference.view_terms(prior, z, r6, t, obs, free)
    assert terms["eikonal"] > 0.0

    def total(vec):
        return inference.view_terms(prior, vec[:8], vec[8:14], vec[14:], obs, free)[0]["total"]

    want = fd_grad_vector(total, np.concatenate([z, r6, t]), h=1e-6)
    for name, got, sl in zip(("z", "r6", "t"), grads, (slice(0, 8), slice(8, 14), slice(14, 17))):
        assert np.abs(got).max() > 1e-3, name
        assert rel_err(got, want[sl], floor=1e-6) < 1e-3, name


@pytest.mark.parametrize("n_obs, n_free", [(60, 40), (25, 90)])
def test_view_terms_match_the_full_jacobian_oracle(n_obs, n_free):
    # only the free rows carry Jacobians; the terms and gradients are those
    # of carrying them through every row with a zero observed-row adjoint
    prior = tiny_prior(20)
    z = substream(21, "z").standard_normal(8) * 0.2
    obs = observed_sphere_cloud(22, n=n_obs).points
    free = substream(23, "free").uniform(-1.0, 1.0, (n_free, 3))
    t = np.array([0.03, -0.02, 0.05])
    r6 = Pose(rotation_about_axis([1.0, 2.0, 0.5], 0.6), t).rot6d
    terms, grads = inference.view_terms(prior, z, r6, t, obs, free)
    want_terms, want_grads = full_jacobian_view_terms(prior, z, r6, t, obs, free)
    assert terms.keys() == want_terms.keys()
    for name in terms:
        assert rel_err(terms[name], want_terms[name]) < 1e-12, name
    for name, got, want in zip(("z", "r6", "t"), grads, want_grads):
        assert rel_err(got, want) < 1e-12, name


R6 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
GOOD_VIEW = dict(r6=R6, t=np.zeros(3), observed=np.zeros((5, 3)), free=np.zeros((4, 3)))


@pytest.mark.parametrize("bad, message", [
    # each used to raise a bare ValueError or TypeError, or (empty sets, a
    # NaN point) to return NaN terms with at most a RuntimeWarning
    (dict(observed=np.zeros((5, 2))), "observed has shape (5, 2), expected Nx3"),
    (dict(observed=None), "observed has shape (), expected Nx3"),
    (dict(observed=np.zeros((0, 3))), "observed has no points"),
    (dict(observed=np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])),
     "observed has non-finite entries, first at index 1"),
    (dict(free=np.zeros((4, 2))), "free has shape (4, 2), expected Nx3"),
    (dict(free=np.zeros((0, 3))), "free has no points"),
    (dict(t=np.zeros(2)), "t has shape (2,), expected 3"),
    (dict(t=np.array([0.0, np.inf, 0.0])), "t has non-finite entries"),
])
def test_view_terms_checks_its_arguments_at_the_door(bad, message):
    args = {**GOOD_VIEW, **bad}
    with pytest.raises(StructuralError, match="^" + re.escape(message)):
        inference.view_terms(tiny_prior(3), np.zeros(8), **args)


def test_nan_abort_reports_iteration():
    prior = tiny_prior(17)
    prior.template.weights[-1][:] = 1e308  # overflow poison
    obs = observed_sphere_cloud(18, n=40)
    cfg = inference.InferenceConfig(iterations=3, eikonal_samples=16, mc_resolution=8, seed=19)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"^iteration 0, terms: non-finite \["):
        inference.joint_optimize(prior, obs, identity_pose(), cfg)
    with np.errstate(all="ignore"), pytest.raises(StageError, match="iteration 0") as exc:
        inference.reconstruct(prior, sphere_view(), NoisyOracleEstimator(identity_pose()), cfg)
    assert exc.value.stage == "joint-optimize" and isinstance(exc.value.cause, NumericError)


def test_non_finite_gradient_aborts_naming_it(monkeypatch):
    # finite terms with a NaN pose gradient must not reach Adam
    real_view_terms = inference.view_terms

    def poisoned(*args):
        terms, (g_z, g_r6, g_t) = real_view_terms(*args)
        return terms, (g_z, np.full(6, np.nan), g_t)

    monkeypatch.setattr(inference, "view_terms", poisoned)
    cfg = inference.InferenceConfig(iterations=2, eikonal_samples=16, seed=19)
    with pytest.raises(NumericError, match=re.escape("iteration 0, gradients: non-finite ['r6']")):
        inference.joint_optimize(tiny_prior(17), observed_sphere_cloud(18, n=40), identity_pose(), cfg)


@pytest.mark.parametrize("field", ["iterations", "eikonal_samples", "max_observed_points"])
def test_config_rejects_non_integer_counts(field):
    with pytest.raises(StructuralError, match=field):
        inference.InferenceConfig(**{field: 2.5})


@pytest.mark.parametrize("res", [4, 7, 16.0, "32", None])
def test_config_rejects_resolution_marching_cubes_rejects(res):
    with pytest.raises(StructuralError, match="marching cubes resolution"):
        inference.InferenceConfig(mc_resolution=res)
    with pytest.raises(StructuralError, match="marching cubes resolution"):
        inference.marching_cubes(lambda p: np.ones(len(p)), res)


def test_reconstruct_bad_resolution_fails_before_lifting():
    # the config cannot be built, so no stage runs: lifting this empty
    # image would raise a StageError, not a StructuralError
    img = sd.DepthImage(np.zeros((8, 8)), sd.default_intrinsics(8, 8))
    with pytest.raises(StructuralError, match="resolution"):
        cfg = inference.InferenceConfig(iterations=1, mc_resolution=4, seed=21)
        inference.reconstruct(tiny_prior(20), img, NoisyOracleEstimator(identity_pose()), cfg)


def test_reconstruct_empty_mask_stage_tagged():
    prior = tiny_prior(20)
    img = sd.DepthImage(np.zeros((8, 8)), sd.default_intrinsics(8, 8))
    est = NoisyOracleEstimator(identity_pose())
    cfg = inference.InferenceConfig(iterations=1, mc_resolution=16, seed=21)
    with pytest.raises(StageError) as exc:
        inference.reconstruct(prior, img, est, cfg)
    assert exc.value.stage == "lift"


def test_latent_init_modes():
    rng = substream(23, "l")
    prior = dataclasses.replace(tiny_prior(22), latents={f"s{i}": rng.standard_normal(8) for i in range(6)})
    mean, std = prior.latent_stats()
    zs = np.stack([inference.init_latent(prior, substream(i, "b")) for i in range(200)])
    # samples follow the empirical latent distribution
    assert np.abs(zs.mean(axis=0) - mean).max() < 4 * std.max() / np.sqrt(200)


def sphere_view():
    shape = sd.make_family("sphere", 1, seed=25)[0]
    cam = Pose(np.eye(3), np.array([0.0, 0.0, 2.5]))
    return sd.render_depth(shape, cam, sd.default_intrinsics(16, 12), (16, 12))


def test_reconstruct_passes_template_cloud_to_estimator():
    # a plane template, so the template cloud is the z = 0 square
    plane = ad.MLPParams([np.array([[0.0, 0.0, 1.0]])], [np.zeros(1)], "sine")  # one layer: linear
    prior = dataclasses.replace(tiny_prior(24), template=plane)
    seen = []

    class RecordingEstimator:
        name = "recording"

        def estimate(self, points, template):
            seen.append(template())
            return identity_pose()

    cfg = inference.InferenceConfig(iterations=1, eikonal_samples=8, mc_resolution=8, seed=26)
    inference.reconstruct(prior, sphere_view(), RecordingEstimator(), cfg)
    assert seen[0].shape == (4000, 3)
    assert np.abs(seen[0][:, 2]).max() < 1e-12


def test_reconstruct_builds_no_template_cloud_for_the_noisy_oracle(monkeypatch):
    def template_cloud(prior, seed):
        raise AssertionError("template cloud built for an estimator that never asks for it")

    monkeypatch.setattr(inference, "template_cloud", template_cloud)
    cfg = inference.InferenceConfig(iterations=1, eikonal_samples=8, mc_resolution=8, seed=27)
    res = inference.reconstruct(tiny_prior(27), sphere_view(), NoisyOracleEstimator(identity_pose()), cfg)
    assert len(res.trace) == 1


def test_reconstruct_template_failure_is_a_canonicalize_failure():
    # a constant template field: no zero level set to sample a cloud from
    constant = ad.MLPParams([np.zeros((1, 3))], [np.ones(1)], "sine")  # one layer: linear
    prior = dataclasses.replace(tiny_prior(28), template=constant)
    cfg = inference.InferenceConfig(iterations=1, eikonal_samples=8, mc_resolution=8, seed=29)
    with pytest.raises(StageError, match="template") as exc:
        inference.reconstruct(prior, sphere_view(), PcaEstimator(), cfg)
    assert exc.value.stage == "canonicalize"
