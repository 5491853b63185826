
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, training
from shapefit.errors import NumericError, StructuralError
from shapefit.rng import substream
from shapefit.synthdata import CATEGORIES, ShapeSampleSet, make_family, sample_shape

from oracles import fd_grad_vector, pack_params, rel_err, unpack_params


def small_prior(seed=0, latent_dim=6):
    return fields.init_prior(
        "sphere", latent_dim=latent_dim,
        template_hidden=(16, 16), deform_hidden=(10, 10), hyper_hidden=16,
        seed=seed,
    )


def plane_prior():
    """Prior whose composed field is exactly psi(x) = x_3."""
    prior = small_prior(1)
    template = ad.MLPParams([np.array([[0.0, 0.0, 1.0]])], [np.zeros(1)], "sine")  # one layer: linear
    # one zero hypernetwork: a single linear (3 -> 4) deformation layer, zero output
    w0 = np.zeros((8, prior.latent_dim))
    b0 = np.zeros(8)
    w1 = np.zeros((16, 8))
    b1 = np.zeros(16)
    return fields.ShapePrior(prior.category, template, [ad.MLPParams([w0, w1], [b0, b1], "relu")])


def plane_samples(rng, n_s=50, n_f=80):
    surface = rng.uniform(-1, 1, (n_s, 3))
    surface[:, 2] = 0.0
    normals = np.tile([0.0, 0.0, 1.0], (n_s, 1))
    free = rng.uniform(-1, 1, (n_f, 3))
    return ShapeSampleSet(surface, normals, free, free[:, 2].copy())


def plane_terms(samples, z=None, **weights):
    """The terms of the plane prior, with the given entries of its
    TERM_WEIGHTS row overridden for this one call."""
    prior = plane_prior()
    z = np.zeros(prior.latent_dim) if z is None else z
    with mock.patch.dict(training.TERM_WEIGHTS[prior.category], weights):
        return training.shape_terms(prior, [z], [samples])[0][0]


def test_exact_plane_field_loss_identities():
    samples = plane_samples(substream(2, "plane"))
    terms = plane_terms(samples)
    for name in ("sdf_value", "sdf_normal", "template_normal"):
        assert abs(terms[name]) < 1e-12
    want_spike = np.exp(-training.SPIKE_DELTA * np.abs(samples.free_points[:, 2])).mean()
    assert terms["sdf_spike"] == pytest.approx(want_spike, abs=1e-12)
    # exactly zero eikonal for the linear plane field
    assert terms["sdf_eikonal"] == 0.0


def test_zero_field_spike_is_one():
    prior = plane_prior()
    prior.template.weights[0][:] = 0.0
    sphere = make_family("sphere", 1, seed=3)[0]
    samples = sample_shape(sphere, 50, 60, seed=4)
    [terms], _ = training.shape_terms(prior, [np.zeros(prior.latent_dim)], [samples])
    assert terms["sdf_spike"] == pytest.approx(1.0, abs=1e-15)


def test_loss_normal_orthogonal_gradient():
    samples = plane_samples(substream(5, "orth"))
    normals = np.tile([1.0, 0.0, 0.0], (len(samples.surface_points), 1))  # orthogonal to grad T = e_z
    samples = dataclasses.replace(samples, surface_normals=normals)
    assert plane_terms(samples)["template_normal"] == pytest.approx(1.0)


def test_loss_smooth_linear_deformation():
    rng = substream(6, "A")
    a_mat = rng.standard_normal((3, 3))
    w = np.zeros((4, 3))
    w[:3] = a_mat
    prior = plane_prior()
    # the hypernetwork's hidden layer is zero, so its final bias is the
    # deformation layer's packed (W, b)
    prior.hyper[0].biases[-1][:] = pack_params([w], [np.zeros(4)])
    samples = plane_samples(rng)
    z = np.zeros(prior.latent_dim)
    [terms], _ = training.shape_terms(prior, [z], [samples])
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
    [terms], _ = training.shape_terms(prior, [z], [samples])
    for name in training.TERM_WEIGHTS["sphere"]:
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
    # a batch of two shapes, so each hypernetwork weight gradient is one
    # GEMM over both latents' rows; the objective is the sum of the totals
    prior = fields.init_prior(
        "sphere", latent_dim=4, template_hidden=(5,), deform_hidden=(4,),
        hyper_hidden=6, seed=12,
    )
    sample_sets = [sample_shape(s, 10, 10, seed=14) for s in make_family("sphere", 2, seed=13)]
    z0 = substream(15, "z").standard_normal((2, 4)) * 0.3
    _, (t_grads, h_grads, g_z) = training.shape_terms(prior, z0, sample_sets)
    assert g_z.shape == (2, 4)

    def batch_total(moved, latents=z0):
        return sum(row["total"] for row in training.shape_terms(moved, latents, sample_sets)[0])

    base_t = pack_params(prior.template.weights, prior.template.biases)

    def loss_t(vec):
        ws, bs = unpack_params(vec, prior.template)
        template = ad.MLPParams(ws, bs, prior.template.activation)
        return batch_total(dataclasses.replace(prior, template=template))

    want_t = fd_grad_vector(loss_t, base_t, h=1e-6)
    got_t = pack_params(t_grads.weights, t_grads.biases)
    assert rel_err(got_t, want_t, floor=1e-5) < 1e-3

    base_h = pack_params(prior.hyper[0].weights, prior.hyper[0].biases)

    def loss_h(vec):
        ws, bs = unpack_params(vec, prior.hyper[0])
        h0 = ad.MLPParams(ws, bs, prior.hyper[0].activation)
        return batch_total(dataclasses.replace(prior, hyper=[h0, *prior.hyper[1:]]))

    want_h = fd_grad_vector(loss_h, base_h, h=1e-6)
    got_h = pack_params(h_grads[0].weights, h_grads[0].biases)
    assert rel_err(got_h, want_h, floor=1e-5) < 1e-3

    want_z = fd_grad_vector(lambda vec: batch_total(prior, vec.reshape(2, 4)), z0.ravel(), h=1e-6)
    assert rel_err(g_z.ravel(), want_z, floor=1e-5) < 1e-3


def test_batch_gradients_are_the_sums_of_single_shape_gradients():
    # one hypernetwork reverse pass over the batch's latents sums each
    # weight gradient in one GEMM; it must equal the shapes' own gradients
    # summed, and give each latent the gradient it gets alone
    prior = small_prior(43)
    sample_sets = [sample_shape(s, 60, 60, seed=44) for s in make_family("sphere", 3, seed=45)]
    latents = substream(46, "z").standard_normal((3, prior.latent_dim)) * 0.3
    terms, (t_grads, h_grads, g_z) = training.shape_terms(prior, latents, sample_sets)
    singles = [training.shape_terms(prior, [z], [s]) for z, s in zip(latents, sample_sets)]
    assert terms == [one_terms[0] for one_terms, _ in singles]

    def packed_nets(t, h):
        return [pack_params(net.weights, net.biases) for net in (t, *h)]

    single_nets = [packed_nets(t, h) for _, (t, h, _) in singles]
    for k, got in enumerate(packed_nets(t_grads, h_grads)):
        want = np.sum([nets[k] for nets in single_nets], axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    want_z = np.concatenate([g for _, (_, _, g) in singles])
    np.testing.assert_allclose(g_z, want_z, rtol=1e-12, atol=1e-12 * np.abs(want_z).max())


def test_shape_terms_refuses_an_empty_batch():
    with pytest.raises(StructuralError, match="^sample_sets is empty$"):
        training.shape_terms(small_prior(52), np.zeros((0, 6)), [])


def test_missing_normals_raises():
    # a sample set cannot lose its normals after it is built, nor be built
    # without them, so shape_terms never sees one
    sphere = make_family("sphere", 1, seed=17)[0]
    samples = sample_shape(sphere, 10, 10, seed=18)
    with pytest.raises(dataclasses.FrozenInstanceError):
        samples.surface_normals = np.zeros((0, 3))
    with pytest.raises(StructuralError, match=r"^surface normals has shape \(0, 3\)"):
        dataclasses.replace(samples, surface_normals=np.zeros((0, 3)))


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


@pytest.mark.parametrize("n_shapes, batch", [(3, 3), (3, 2)])
def test_a_fit_epoch_reverses_each_hypernetwork_once_per_batch(monkeypatch, n_shapes, batch):
    # per shape one template and one deformation reverse pass, and per
    # batch one per hypernetwork over the batch's latents (it was one per
    # hypernetwork and shape)
    calls = []
    real_backward = ad.backward

    def counting(params, *args, **kwargs):
        calls.append(params)
        return real_backward(params, *args, **kwargs)

    monkeypatch.setattr(ad, "backward", counting)
    dataset, _ = make_dataset(n_shapes, seed=47, n_pts=120)
    prior = small_prior(48)
    training.fit(prior, dataset, desk_config(epochs=1, batch_shapes=batch))
    n_batches = -(-n_shapes // batch)
    assert len(calls) == 2 * n_shapes + n_batches * len(prior.hyper)
    assert sum(net is prior.template for net in calls) == n_shapes
    for h in prior.hyper:
        assert sum(net is h for net in calls) == n_batches


def _fit_peak_bytes(n_shapes):
    """tracemalloc peak of one fit epoch of `n_shapes` shapes in one batch."""
    shapes = make_family("sphere", n_shapes, seed=49)
    dataset = [(s.name, sample_shape(s, 300, 300, seed=50)) for s in shapes]
    cfg = desk_config(epochs=1, batch_shapes=n_shapes, surface_points_per_shape=300, free_points_per_shape=300)
    training.fit(small_prior(51), dataset, cfg)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        training.fit(small_prior(51), dataset, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_batch_keeps_one_shapes_point_caches_at_a_time():
    # each shape's forward and point reverse pass run before the next
    # shape's forward, so a batch of four peaks about where one shape does:
    # 1.026x (3.63 / 3.54 MB), and 1.011x when every shape ran its own
    # hypernetwork reverse passes; keeping every shape's ComposedEval until
    # the hypernetwork pass read 2.92x
    assert _fit_peak_bytes(4) <= 1.25 * _fit_peak_bytes(1)


def test_fit_epoch0_reproducible():
    dataset, _ = make_dataset(3, seed=19, n_pts=150)
    cfg = desk_config(epochs=1)
    p1 = small_prior(20)
    p2 = small_prior(20)
    _, h1, _ = training.fit(p1, dataset, cfg)
    _, h2, _ = training.fit(p2, dataset, cfg)
    assert h1[0]["total"] == h2[0]["total"]
    assert list(h1[0]) == ["epoch", *training.TERM_WEIGHTS["sphere"], "total"]


def test_fit_loss_decreases():
    dataset, _ = make_dataset(4, seed=21, n_pts=200)
    prior = small_prior(22)
    cfg = desk_config(epochs=12, lr=1e-3, lr_latent=2e-3)
    _, history, _ = training.fit(prior, dataset, cfg)
    total = np.array([h["total"] for h in history])
    # non-increasing across non-overlapping 3-epoch windows of the first 10+
    windows = total[:12].reshape(4, 3).mean(axis=1)
    assert np.all(np.diff(windows) <= 0)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 1.5), ("batch_shapes", 2.5), ("surface_points_per_shape", 20.5),
     ("free_points_per_shape", 0), ("epochs", -1)],
)
def test_config_rejects_bad_counts(field, value):
    with pytest.raises(StructuralError, match=field):
        desk_config(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("lr", np.nan), ("lr", np.inf), ("lr", 0.0), ("lr_latent", np.nan)]
)
def test_config_rejects_learning_rates_that_are_not_finite_and_positive(field, value):
    with pytest.raises(StructuralError, match=field):
        desk_config(**{field: value})


def test_fit_empty_dataset_raises():
    with pytest.raises(StructuralError):
        training.fit(small_prior(25), [], desk_config())


@pytest.mark.parametrize("field, rows, name", [("surface_normals", 10, "surface normals"), ("free_sdf", 7, "free sdf")])
def test_sample_set_needs_one_row_per_point(field, rows, name):
    # checked when the set is built, so no cut set reaches fit
    samples = sample_shape(make_family("sphere", 1, seed=0)[0], 50, 50, seed=0)
    with pytest.raises(StructuralError, match=f"^{name} has shape"):
        dataclasses.replace(samples, **{field: getattr(samples, field)[:rows]})


@pytest.mark.parametrize("normals, sdf, name", [
    ([[np.nan, 0, 0], [0, 0, 1]], [np.nan, 0.0], "surface normals"),
    ([[1.0, 0, 0], [0, 0, 1]], [0.0, np.nan], "free sdf"),
])
def test_sample_set_rejects_nan_normals_and_nan_sdf_targets(normals, sdf, name):
    # |norm - 1| > tol is False for NaN, so a NaN normal used to pass
    with pytest.raises(StructuralError, match=f"^{name}"):
        ShapeSampleSet(np.zeros((2, 3)), normals, np.zeros((2, 3)), sdf)


def test_fit_nan_abort_names_shape():
    dataset, _ = make_dataset(1, seed=26, n_pts=120)
    prior = small_prior(27)
    prior.template.weights[-1][:] = 1e308  # overflow poison
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="sphere_0000"):
        training.fit(prior, dataset, desk_config(epochs=1))


def _poison_hyper(grads):
    grads[1][0].weights[1][0, 0] = np.nan


def _poison_latent(grads):
    grads[2][1, 0] = np.nan


@pytest.mark.parametrize("poison, match", [
    (_poison_hyper, r"^epoch 0, shapes \['sphere_0001', 'sphere_0000'\], network gradients: non-finite \['hyper\.0\.1\.w'\]$"),
    (_poison_latent, r"^epoch 0, shape 'sphere_0000', latent gradient: non-finite \['latent\.sphere_0000'\]$"),
], ids=["network", "latent"])
def test_fit_non_finite_gradient_aborts_before_step(monkeypatch, poison, match):
    # a finite loss with a NaN gradient must not reach Adam: a network
    # gradient, summed over the batch, names the epoch, the batch's ids and
    # the array; a latent gradient names its shape
    dataset, _ = make_dataset(2, seed=30, n_pts=120)
    prior = small_prior(31)
    real_shape_terms = training.shape_terms

    def poisoned(*args, **kwargs):
        terms, grads = real_shape_terms(*args, **kwargs)
        poison(grads)
        return terms, grads

    monkeypatch.setattr(training, "shape_terms", poisoned)
    nets = (prior.template, *prior.hyper)
    before = [pack_params(net.weights, net.biases) for net in nets]
    with pytest.raises(NumericError, match=match):
        training.fit(prior, dataset, desk_config(epochs=1, batch_shapes=2))
    for net, want in zip(nets, before):
        np.testing.assert_array_equal(pack_params(net.weights, net.biases), want)
    for iid, _ in dataset:
        np.testing.assert_array_equal(prior.latents[iid], substream(0, "latent-init", iid).normal(0.0, fields.LATENT_INIT_STD, 6))


def test_fit_refuses_an_on_epoch_that_is_not_callable_before_any_step():
    # it used to train a whole epoch, stepping the prior's weights, and only
    # then raise a bare TypeError: 'int' object is not callable
    dataset, _ = make_dataset(1, seed=41, n_pts=120)
    prior = small_prior(42)
    nets = (prior.template, *prior.hyper)
    before = [pack_params(net.weights, net.biases) for net in nets]
    with pytest.raises(StructuralError, match="^on_epoch must be a callable or None, got int$"):
        training.fit(prior, dataset, desk_config(epochs=1), on_epoch=5)
    for net, want in zip(nets, before):
        np.testing.assert_array_equal(pack_params(net.weights, net.biases), want)
    assert prior.latents == {}


def test_fit_rejects_a_repeated_instance_id_before_training():
    # one latent used to be trained for both, and the first shape's latent
    # gradient was overwritten in every batch
    (_, a), (_, b) = make_dataset(2, seed=32, n_pts=120)[0]
    prior = small_prior(33)
    with pytest.raises(StructuralError, match="instance id 'x' appears more than once"):
        training.fit(prior, [("x", a), ("y", a), ("x", b)], desk_config(epochs=1))
    assert prior.latents == {}


def test_fit_rejects_an_instance_id_that_is_not_a_string_before_adding_latents():
    # it used to train to the end, and then save_prior refused the latent id
    (_, a), (_, b) = make_dataset(2, seed=36, n_pts=120)[0]
    prior = small_prior(37)
    with pytest.raises(StructuralError, match="instance id 1 is not a string"):
        training.fit(prior, [("0", a), (1, b)], desk_config(epochs=1))
    assert prior.latents == {}


@pytest.mark.parametrize("entry", [("b", "not a sample set"), "b", ("b",), ("b", None, None), "small"], ids=repr)
def test_fit_checks_every_dataset_entry_before_adding_latents(entry):
    # a second item that is not a sample set used to raise a bare
    # AttributeError with latents "a" and "b" added, an entry of three
    # items a bare ValueError, and a sample set smaller than the config's
    # points per shape ("small") a StructuralError with latent "a" added
    [(_, a)], shapes = make_dataset(1, seed=38, n_pts=120)
    match = r"^dataset entry 1 is not an \(instance id, ShapeSampleSet\) pair"
    if entry == "small":
        entry = ("b", sample_shape(shapes[0], 50, 50, seed=40))
        match = r"^dataset entry 1: requested 120/120 points but sample set has 50/50$"
    prior = small_prior(39)
    with pytest.raises(StructuralError, match=match):
        training.fit(prior, [("a", a), entry], desk_config(epochs=1))
    assert prior.latents == {}


def test_loss_weights_of_each_category():
    # one row per category, each with every term in the order shape_terms
    # sums them, and every weight finite and >= 0
    order = ["sdf_value", "sdf_normal", "sdf_eikonal", "sdf_spike", "template_normal", "latent", "smooth", "correction"]
    assert list(training.TERM_WEIGHTS) == list(CATEGORIES)
    for category, row in training.TERM_WEIGHTS.items():
        assert list(row) == order, category
        assert all(np.isfinite(w) and w >= 0 for w in row.values()), category
    assert training.SPIKE_DELTA >= 10.0  # a sharp spike penalty


def _drop_hypernetworks(prior):
    return dataclasses.replace(prior, hyper=[])


def _relu_template(prior):
    return dataclasses.replace(prior, template=dataclasses.replace(prior.template, activation=ad.ACT_RELU))


@pytest.mark.parametrize("break_prior", [_drop_hypernetworks, _relu_template])
def test_fit_rejects_an_invalid_prior_before_adding_latents(break_prior):
    # fit used to add latents first: without hypernetworks that raised a bare
    # IndexError, and a relu template was rejected with the new latents kept.
    # Such a prior now fails when built, so it never reaches fit
    prior = dataclasses.replace(small_prior(35), latents={"kept": np.full(6, 0.5)})
    with pytest.raises(StructuralError, match="deformation network|template must be a sine net"):
        break_prior(prior)
    assert list(prior.latents) == ["kept"]
    np.testing.assert_array_equal(prior.latents["kept"], np.full(6, 0.5))
