import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, training
from shapefit.errors import NumericError, StructuralError
from shapefit.rng import substream
from shapefit.synthdata import ShapeSampleSet, make_family, sample_shape

from oracles import fd_grad_vector, rel_err


def small_prior(seed=0, latent_dim=6):
    return fields.init_prior(
        "sphere", latent_dim=latent_dim,
        template_hidden=(16, 16), deform_hidden=(10, 10), hyper_hidden=16,
        seed=seed,
    )


def plane_prior():
    """Prior whose composed field is exactly psi(x) = x_3."""
    prior = small_prior(1)
    prior.template = ad.MLPParams([np.array([[0.0, 0.0, 1.0]])], [np.zeros(1)], ("linear",))
    # rebuild a 1-layer deformation layout with zero output and its hyper net
    layout = ad.MLPParams([np.zeros((4, 3))], [np.zeros(4)], ("linear",))
    prior.deform_layout = layout
    w0 = np.zeros((8, prior.latent_dim))
    b0 = np.zeros(8)
    w1 = np.zeros((16, 8))
    b1 = np.zeros(16)
    prior.hyper = [ad.MLPParams([w0, w1], [b0, b1], ("relu", "linear"))]
    return prior.validate()


def plane_samples(rng, n_s=50, n_f=80):
    surface = rng.uniform(-1, 1, (n_s, 3))
    surface[:, 2] = 0.0
    normals = np.tile([0.0, 0.0, 1.0], (n_s, 1))
    free = rng.uniform(-1, 1, (n_f, 3))
    return ShapeSampleSet(surface, normals, free, free[:, 2].copy())


def plane_terms(samples, z=None, **weights):
    prior = plane_prior()
    z = np.zeros(prior.latent_dim) if z is None else z
    return training.shape_terms(prior, z, samples, training.LossWeights(**weights))[0]


def test_exact_plane_field_loss_identities():
    samples = plane_samples(substream(2, "plane"))
    terms = plane_terms(samples)
    for name in ("sdf_value", "sdf_normal", "template_normal"):
        assert abs(terms[name]) < 1e-12
    want_spike = np.exp(-training.LossWeights().spike_delta * np.abs(samples.free_points[:, 2])).mean()
    assert terms["sdf_spike"] == pytest.approx(want_spike, abs=1e-12)
    # exactly zero eikonal for the linear plane field
    assert terms["sdf_eikonal"] == 0.0


def test_zero_field_spike_is_one():
    prior = plane_prior()
    prior.template.weights[0][:] = 0.0
    sphere = make_family("sphere", 1, seed=3)[0]
    samples = sample_shape(sphere, 50, 60, seed=4)
    terms, _ = training.shape_terms(prior, np.zeros(prior.latent_dim), samples, training.LossWeights())
    assert terms["sdf_spike"] == pytest.approx(1.0, abs=1e-15)


def test_loss_normal_orthogonal_gradient():
    samples = plane_samples(substream(5, "orth"))
    samples.surface_normals[:] = [1.0, 0.0, 0.0]  # orthogonal to grad T = e_z
    assert plane_terms(samples)["template_normal"] == pytest.approx(1.0)


def test_loss_smooth_linear_deformation():
    rng = substream(6, "A")
    a_mat = rng.standard_normal((3, 3))
    w = np.zeros((4, 3))
    w[:3] = a_mat
    prior = plane_prior()
    # the hypernetwork's hidden layer is zero, so its final bias is the
    # deformation layer's packed (W, b)
    prior.hyper[0].biases[-1][:] = ad.pack_params([w], [np.zeros(4)])
    samples = plane_samples(rng)
    z = np.zeros(prior.latent_dim)
    terms, _ = training.shape_terms(prior, z, samples, training.LossWeights())
    assert terms["smooth"] == pytest.approx(np.linalg.norm(a_mat), rel=1e-12)
    zero = plane_terms(samples)
    assert zero["smooth"] == 0.0
    assert zero["correction"] == 0.0


def test_loss_latent_values():
    samples = plane_samples(substream(6, "z"))
    assert plane_terms(samples)["latent"] == 0.0
    z = np.zeros(6)
    z[0], z[1] = 3.0, 4.0
    assert plane_terms(samples, z)["latent"] == pytest.approx(5.0)


def test_every_term_nonnegative():
    prior = small_prior(7)
    sphere = make_family("sphere", 1, seed=8)[0]
    samples = sample_shape(sphere, 80, 80, seed=9)
    rng = substream(10, "z")
    z = rng.standard_normal(prior.latent_dim) * 0.3
    terms, _ = training.shape_terms(prior, z, samples, training.LossWeights())
    for name in training.TERM_NAMES:
        assert terms[name] >= 0.0


def test_total_loss_projection():
    samples = plane_samples(substream(11, "p"))
    terms = plane_terms(
        samples, sdf_value=1.0, sdf_normal=0.0, sdf_eikonal=0.0, sdf_spike=0.0,
        template_normal=0.0, latent=0.0, smooth=0.0, correction=0.0,
    )
    assert terms["total"] == pytest.approx(terms["sdf_value"], abs=1e-15)
    # all components zero => total zero
    terms = plane_terms(
        samples, sdf_value=1.0, sdf_normal=1.0, sdf_eikonal=1.0, sdf_spike=0.0,
        template_normal=1.0, latent=1.0, smooth=1.0, correction=1.0,
    )
    assert terms["total"] == pytest.approx(0.0, abs=1e-12)


def test_shape_terms_gradients_match_fd():
    prior = fields.init_prior(
        "sphere", latent_dim=4, template_hidden=(5,), deform_hidden=(4,),
        hyper_hidden=6, seed=12,
    )
    sphere = make_family("sphere", 1, seed=13)[0]
    samples = sample_shape(sphere, 10, 10, seed=14)
    w = training.LossWeights(spike_delta=10.0)
    rng = substream(15, "z")
    z0 = rng.standard_normal(4) * 0.3
    terms, (t_grads, h_grads, g_z) = training.shape_terms(
        prior, z0, samples, w, with_grads=True
    )

    base_t = ad.pack_params(prior.template.weights, prior.template.biases)

    def loss_t(vec):
        ws, bs = ad.unpack_params(vec, prior.template)
        saved = prior.template
        prior.template = ad.MLPParams(ws, bs, saved.activations, saved.omega0)
        try:
            return training.shape_terms(prior, z0, samples, w)[0]["total"]
        finally:
            prior.template = saved

    want_t = fd_grad_vector(loss_t, base_t, h=1e-6)
    got_t = ad.pack_params(t_grads.weights, t_grads.biases)
    assert rel_err(got_t, want_t, floor=1e-5) < 1e-3

    base_h = ad.pack_params(prior.hyper[0].weights, prior.hyper[0].biases)

    def loss_h(vec):
        ws, bs = ad.unpack_params(vec, prior.hyper[0])
        saved = prior.hyper[0]
        prior.hyper[0] = ad.MLPParams(ws, bs, saved.activations, saved.omega0)
        try:
            return training.shape_terms(prior, z0, samples, w)[0]["total"]
        finally:
            prior.hyper[0] = saved

    want_h = fd_grad_vector(loss_h, base_h, h=1e-6)
    got_h = ad.pack_params(h_grads[0].weights, h_grads[0].biases)
    assert rel_err(got_h, want_h, floor=1e-5) < 1e-3

    def loss_z(vec):
        return training.shape_terms(prior, vec, samples, w)[0]["total"]

    want_z = fd_grad_vector(loss_z, z0, h=1e-6)
    assert rel_err(g_z, want_z, floor=1e-5) < 1e-3


def test_missing_normals_raises():
    prior = small_prior(16)
    sphere = make_family("sphere", 1, seed=17)[0]
    samples = sample_shape(sphere, 10, 10, seed=18)
    samples.surface_normals = np.zeros((0, 3))
    with pytest.raises(StructuralError):
        training.shape_terms(prior, np.zeros(prior.latent_dim), samples, training.LossWeights())


def desk_config(**kw):
    base = dict(
        epochs=5, batch_shapes=4, surface_points_per_shape=120,
        free_points_per_shape=120, lr=3e-4, lr_latent=1e-3, seed=0,
    )
    base.update(kw)
    return training.TrainConfig(**base)


def make_dataset(n_shapes, seed, n_pts=400):
    shapes = make_family("sphere", n_shapes, seed=seed)
    return [
        (s.name, sample_shape(s, n_pts, n_pts, seed=seed + 1)) for s in shapes
    ], shapes


def test_fit_epoch0_reproducible():
    dataset, _ = make_dataset(3, seed=19, n_pts=150)
    cfg = desk_config(epochs=1)
    p1 = small_prior(20)
    p2 = small_prior(20)
    _, h1, _ = training.fit(p1, dataset, cfg)
    _, h2, _ = training.fit(p2, dataset, cfg)
    assert h1[0]["total"] == h2[0]["total"]


def test_fit_loss_decreases():
    dataset, _ = make_dataset(4, seed=21, n_pts=200)
    prior = small_prior(22)
    cfg = desk_config(epochs=12, lr=1e-3, lr_latent=2e-3)
    _, history, _ = training.fit(prior, dataset, cfg)
    total = np.array([h["total"] for h in history])
    # non-increasing across non-overlapping 3-epoch windows of the first 10+
    windows = total[:12].reshape(4, 3).mean(axis=1)
    assert np.all(np.diff(windows) <= 0)


def test_fit_resume_matches_uninterrupted():
    dataset, _ = make_dataset(3, seed=23, n_pts=150)
    cfg = desk_config(epochs=6)
    p_full = small_prior(24)
    _, h_full, _ = training.fit(p_full, dataset, cfg)

    p_resume = small_prior(24)
    cfg_a = desk_config(epochs=3)
    _, h_a, opt = training.fit(p_resume, dataset, cfg_a)
    _, h_b, _ = training.fit(p_resume, dataset, cfg, start_epoch=3, optimizer=opt)
    stitched = h_a + h_b
    for full, part in zip(h_full, stitched):
        assert full["total"] == pytest.approx(part["total"], abs=1e-8)


def test_fit_empty_dataset_raises():
    with pytest.raises(StructuralError):
        training.fit(small_prior(25), [], desk_config())


def test_fit_nan_abort_names_shape():
    dataset, _ = make_dataset(1, seed=26, n_pts=120)
    prior = small_prior(27)
    prior.template.weights[-1][:] = 1e308  # overflow poison
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="sphere_0000"):
        training.fit(prior, dataset, desk_config(epochs=1))


def test_fit_non_finite_gradient_aborts_before_step(monkeypatch):
    # a finite loss with a NaN hypernetwork gradient must not reach Adam
    dataset, _ = make_dataset(1, seed=30, n_pts=120)
    prior = small_prior(31)
    real_shape_terms = training.shape_terms

    def poisoned(*args, **kwargs):
        terms, (t_grads, h_grads, g_z) = real_shape_terms(*args, **kwargs)
        h_grads[0].weights[1][0, 0] = np.nan
        return terms, (t_grads, h_grads, g_z)

    monkeypatch.setattr(training, "shape_terms", poisoned)
    nets = (prior.template, *prior.hyper)
    before = [ad.pack_params(net.weights, net.biases) for net in nets]
    with pytest.raises(NumericError, match=r"sphere_0000.*hyper\.0\.1\.w"):
        training.fit(prior, dataset, desk_config(epochs=1))
    for net, want in zip(nets, before):
        np.testing.assert_array_equal(ad.pack_params(net.weights, net.biases), want)


def test_history_csv_roundtrip(tmp_path):
    dataset, _ = make_dataset(2, seed=28, n_pts=120)
    _, history, _ = training.fit(small_prior(29), dataset, desk_config(epochs=2))
    path = tmp_path / "loss.csv"
    training.write_history_csv(history, str(path))
    back = training.read_history_csv(str(path))
    assert len(back) == 2
    assert back[0]["total"] == pytest.approx(history[0]["total"], rel=1e-15)
