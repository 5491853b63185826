import re

import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, training
from shapefit.errors import StructuralError
from shapefit.rng import substream
from shapefit.synthdata import make_family, sample_shape

from oracles import fd_grad_vector, fd_spatial_grad, n_params, pack_params, rel_err, textbook_adam, unpack_params


def tiny_net(seed=0, sizes=(3, 4, 1)):
    return ad.siren_init(sizes, substream(seed, "net"))


def sine_at(omega, weights, biases):
    """A sine net whose hidden layers compute sin(omega (W x + b)): its
    hidden weights and biases are the given ones scaled by omega / OMEGA0."""
    s = omega / ad.OMEGA0
    return ad.MLPParams(
        [w * s for w in weights[:-1]] + weights[-1:], [b * s for b in biases[:-1]] + biases[-1:], "sine"
    )


def test_identity_linear_layer():
    # a one-layer net is its linear output layer, whatever its activation
    net = ad.MLPParams([np.array([[1.0, 0, 0]])], [np.zeros(1)], "sine")
    y, jac, _ = ad.forward_aug(net, np.array([[0.3, 0.0, 0.0]]))
    assert y[0, 0] == pytest.approx(0.3, abs=0)
    np.testing.assert_allclose(jac[0, 0], [1.0, 0.0, 0.0])


def test_sine_layer_at_zero():
    # one sine layer read out through an identity linear output layer
    net = ad.MLPParams(
        [np.array([[1.0, 0, 0]]), np.eye(1)], [np.zeros(1), np.zeros(1)], "sine"
    )
    y, jac, _ = ad.forward_aug(net, np.zeros((1, 3)))
    # sin(30 * w.x) at x=0: value 0, gradient 30 * w
    assert y[0, 0] == 0.0
    np.testing.assert_allclose(jac[0, 0], [30.0, 0.0, 0.0], atol=1e-14)


def test_spatial_grad_matches_fd_random_points():
    net = tiny_net(1, sizes=(3, 8, 8, 1))
    rng = substream(2, "points")
    pts = rng.uniform(-1, 1, size=(100, 3))
    _, jac, _ = ad.forward_aug(net, pts)
    for x, got in zip(pts, jac[:, 0]):
        want = fd_spatial_grad(lambda p: ad.forward(net, p[None])[0, 0], x)
        assert rel_err(got, want) < 1e-4


def test_forward_batched_matches_single():
    net = tiny_net(3)
    rng = substream(4, "pts")
    pts = rng.uniform(-1, 1, size=(17, 3))
    batch = ad.forward(net, pts)
    singles = np.concatenate([ad.forward(net, p[None]) for p in pts])
    # BLAS may round differently per batch shape; agreement to ~1 ulp is enough
    np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=1e-16)


def test_dimension_mismatch_raises():
    net = tiny_net(5)
    for entry in (ad.forward, ad.forward_cached, ad.forward_aug):
        for x in (np.zeros((1, 4)), np.zeros(3)):
            with pytest.raises(StructuralError):
                entry(net, x)


def test_determinism_bit_identical():
    net = tiny_net(6)
    x = np.array([[0.1, -0.2, 0.3]])
    y_a, jac_a, _ = ad.forward_aug(net, x)
    y_b, jac_b, _ = ad.forward_aug(net, x)
    assert np.array_equal(y_a, y_b)
    assert np.array_equal(jac_a, jac_b)


def mixed_net(seed, activation):
    """Two hidden layers of `activation` and a linear output, random weights;
    sine layers run at frequency 2."""
    rng = substream(seed, "mixed")
    sizes = (3, 6, 5, 2)
    weights = [rng.standard_normal((o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(o) for o in sizes[1:]]
    if activation == ad.ACT_SINE:
        return sine_at(2.0, weights, biases)
    return ad.MLPParams(weights, biases, activation)


def test_forward_entry_points_agree():
    for activation in (ad.ACT_SINE, ad.ACT_RELU):
        net = mixed_net(30, activation)
        pts = substream(31, "pts").uniform(-1, 1, (25, 3))
        y = ad.forward(net, pts)
        y_cached, cache = ad.forward_cached(net, pts)
        y_aug, _, cache_aug = ad.forward_aug(net, pts)
        assert np.array_equal(y, y_cached) and np.array_equal(y, y_aug)
        gy = substream(32, "gy").standard_normal(y.shape)
        grads, gx = ad.backward(net, cache, gy)
        grads_aug, gx_aug = ad.backward(net, cache_aug, gy)
        for a, b in zip(grads.weights + grads.biases, grads_aug.weights + grads_aug.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(gx, gx_aug)


def out_of_place_layers(net, x):
    """Each layer's (input, activation derivative) and the output, with
    every array formed afresh: the reference for the in-place layer loop."""
    layers, z = [], x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = z @ w.T + b
        if k == net.n_layers - 1:
            layers.append((z, None))
            z = pre
        elif net.activation == ad.ACT_SINE:
            t = np.tan((0.5 * ad.OMEGA0) * pre)
            one_plus_cos = 2.0 / (t * t + 1.0)
            layers.append((z, (one_plus_cos - 1.0) * ad.OMEGA0))
            z = t * one_plus_cos
        else:
            layers.append((z, pre > 0.0))
            z = np.maximum(pre, 0.0)
    return layers, z


@pytest.mark.parametrize("activation", [ad.ACT_SINE, ad.ACT_RELU])
def test_in_place_layers_keep_input_and_cache(activation):
    net = mixed_net(33, activation)
    pts = substream(34, "pts").uniform(-1, 1, (25, 3))
    before = pts.copy()
    want, y_want = out_of_place_layers(net, before)
    y = ad.forward(net, pts)
    y_cached, cache = ad.forward_cached(net, pts)
    y_aug, _, cache_aug = ad.forward_aug(net, pts)
    assert np.array_equal(pts, before)
    for got in (y, y_cached, y_aug):
        assert np.array_equal(got, y_want)
    for c in (cache, cache_aug):
        assert len(c) == len(want)
        for (z, _, deriv, _), (z_want, deriv_want) in zip(c, want):
            assert np.array_equal(z, z_want)
            assert (deriv is None) == (deriv_want is None)
            if deriv is not None:
                assert np.array_equal(deriv, deriv_want)


def one_sine_layer(pre):
    """(value, cached derivative) of a sine layer whose pre-activation is
    `pre` itself, read out through an identity output layer."""
    net = ad.MLPParams([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)], ad.ACT_SINE)
    _, cache = ad.forward_cached(net, pre[:, None])
    return cache[1][0][:, 0], cache[0][2][:, 0]


def test_sine_layer_agrees_with_libm():
    # the layer forms sin and cos from one tan of the half angle
    rng = substream(35, "pre")
    pre = np.concatenate(
        [[0.0, -0.0], np.arange(-50, 51) * np.pi / ad.OMEGA0]
        + [rng.uniform(-mag, mag, 2000) for mag in 10.0 ** np.arange(-3, 5)]
    )
    value, deriv = one_sine_layer(pre)
    eps = np.finfo(np.float64).eps
    assert np.abs(value - np.sin(ad.OMEGA0 * pre)).max() <= 2 * eps
    assert np.abs(deriv - ad.OMEGA0 * np.cos(ad.OMEGA0 * pre)).max() <= 2 * eps * ad.OMEGA0
    assert np.array_equal(one_sine_layer(np.zeros(1)), ([0.0], [ad.OMEGA0]))
    with np.errstate(invalid="ignore"):  # a NaN, as np.sin gives
        value, deriv = one_sine_layer(np.array([np.nan, np.inf, -np.inf]))
    assert np.isnan(value).all() and np.isnan(deriv).all()


def test_pure_latent_term_gradient(monkeypatch):
    # with every field weight zero, shape_terms reduces to ||z||
    prior = fields.init_prior(
        "sphere", latent_dim=8, template_hidden=(4,), deform_hidden=(4,), hyper_hidden=4, seed=7
    )
    samples = sample_shape(make_family("sphere", 1, seed=7)[0], 5, 5, seed=7)
    row = {**dict.fromkeys(training.TERM_WEIGHTS["sphere"], 0.0), "latent": 1.0}
    monkeypatch.setitem(training.TERM_WEIGHTS, "sphere", row)
    z = np.zeros(8)
    z[0] = 1.0
    [terms], (_, _, [g_z]) = training.shape_terms(prior, [z], [samples])
    assert terms["total"] == pytest.approx(1.0)
    np.testing.assert_allclose(g_z, z)


def check_param_grads_fd(net, batch, with_jac, value_rows=0):
    """backward's weight gradients against finite differences of the
    linear functional sum(gy * y) + sum(gjac * jac) of the forward pass,
    with the Jacobian of the rows after the first `value_rows`."""
    rng = substream(40, "adjoints")
    gy = rng.standard_normal((len(batch), net.out_dim))
    gjac = rng.standard_normal((len(batch) - value_rows, net.out_dim, net.in_dim)) if with_jac else None

    def functional(probe):
        if not with_jac:
            return float(np.sum(gy * ad.forward_cached(probe, batch)[0]))
        y, jac, _ = ad.forward_aug(probe, batch, value_rows)
        return float(np.sum(gy * y) + np.sum(gjac * jac))

    def of_vec(vec):
        w, b = unpack_params(vec, net)
        return functional(ad.MLPParams(w, b, net.activation))

    cache = ad.forward_aug(net, batch, value_rows)[2] if with_jac else ad.forward_cached(net, batch)[1]
    grads, _ = ad.backward(net, cache, gy, gjac)
    got = pack_params(grads.weights, grads.biases)
    want = fd_grad_vector(of_vec, pack_params(net.weights, net.biases), h=1e-6)
    assert rel_err(got, want, floor=1e-6) < 1e-3


def test_param_grads_match_fd():
    net = tiny_net(8, sizes=(3, 4, 1))
    assert n_params(net) < 200
    batch = substream(9, "batch").uniform(-0.8, 0.8, size=(12, 3))
    check_param_grads_fd(net, batch, with_jac=True)


def test_eikonal_exact_unit_field():
    # field psi(x) = n.x with ||n|| = 1: eikonal loss and all grads vanish
    n = np.array([[0.6, 0.8, 0.0]])
    net = ad.MLPParams([n], [np.zeros(1)], "sine")  # one layer: linear
    batch = substream(10, "b").uniform(-1, 1, (20, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    val, gjac = ad.term_eikonal(jac[:, 0, :])
    assert val == 0.0
    grads, _ = ad.backward(net, cache, np.zeros_like(y), gjac[:, None, :])
    assert np.all(grads.weights[0] == 0.0)
    assert np.all(grads.biases[0] == 0.0)


_TERM_RNG = substream(71, "terms")
_NORMALS = _TERM_RNG.standard_normal((7, 3))
_NORMALS /= np.linalg.norm(_NORMALS, axis=1, keepdims=True)
TERM_HELPERS = {  # id: (helper, its arguments after the array, the array)
    "l1": ("term_l1", (), _TERM_RNG.standard_normal(7)),
    "eikonal": ("term_eikonal", (), _TERM_RNG.standard_normal((7, 3))),
    "grad-alignment": ("term_grad_alignment", (_NORMALS,), _TERM_RNG.standard_normal((7, 3))),
    "frobenius": ("term_frobenius", (), _TERM_RNG.standard_normal((7, 3, 3))),
    "latent-l2": ("term_latent_l2", (), _TERM_RNG.standard_normal(7)),
    "latent-l2-origin": ("term_latent_l2", (), np.zeros(7)),
}


@pytest.mark.parametrize("case", TERM_HELPERS)
def test_a_term_helper_returns_the_adjoint_of_its_unweighted_value(case):
    # no helper takes a weight: an objective weighs it in fields.weigh_terms
    name, args, x = TERM_HELPERS[case]
    term = getattr(ad, name)
    _, adjoint = term(x, *args)
    want = fd_grad_vector(lambda v: float(term(v.reshape(x.shape), *args)[0]), x.ravel(), h=1e-6)
    assert adjoint.shape == x.shape
    assert rel_err(adjoint.ravel(), want, floor=1e-6) < 1e-5
    # a zero row (residual, gradient, Jacobian or latent entry) gets a zero
    # adjoint; the cosine term used to give it -normal / N
    zero_row = x.copy()
    zero_row[0] = 0.0
    assert not term(zero_row, *args)[1][0].any()


def test_loss_linearity():
    # backward is linear in the adjoints (gy, gjac)
    net = tiny_net(11)
    batch = substream(12, "b").uniform(-1, 1, (10, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    rng = substream(13, "adjoints")
    gy1, gy2 = rng.standard_normal((2, *y.shape))
    gj1, gj2 = rng.standard_normal((2, *jac.shape))
    a, b = 0.37, 2.5
    g1, gx1 = ad.backward(net, cache, gy1, gj1)
    g2, gx2 = ad.backward(net, cache, gy2, gj2)
    gc, gxc = ad.backward(net, cache, a * gy1 + b * gy2, a * gj1 + b * gj2)
    for k in range(net.n_layers):
        want_w = a * g1.weights[k] + b * g2.weights[k]
        assert rel_err(gc.weights[k], want_w, floor=1e-12) < 1e-10
    assert rel_err(gxc, a * gx1 + b * gx2, floor=1e-12) < 1e-10


def test_loss_value_matches_plain_recomputation():
    # the four SDF terms of training.shape_terms against value-only
    # evaluations and finite-difference spatial gradients
    prior = fields.init_prior(
        "sphere", latent_dim=4, template_hidden=(6,), deform_hidden=(5,), hyper_hidden=6, seed=13
    )
    samples = sample_shape(make_family("sphere", 1, seed=14)[0], 5, 6, seed=15)
    z = substream(14, "z").standard_normal(4) * 0.3
    [terms], _ = training.shape_terms(prior, [z], [samples])

    deform = fields.hyper_forward(prior, z)

    def psi(p):
        return fields.compose_value(prior.template, deform, np.atleast_2d(p))

    pts = np.concatenate([samples.surface_points, samples.free_points])
    targets = np.concatenate([np.zeros(5), samples.free_sdf])
    grads = np.stack([fd_spatial_grad(lambda p: float(psi(p)[0]), x, h=1e-6) for x in pts])
    norms = np.linalg.norm(grads, axis=1)
    cos = np.sum(grads[:5] * samples.surface_normals, axis=1) / norms[:5]
    assert rel_err(terms["sdf_value"], np.mean(np.abs(psi(pts) - targets))) < 1e-12
    assert rel_err(terms["sdf_normal"], np.mean(1.0 - cos), floor=1e-9) < 1e-6
    assert rel_err(terms["sdf_eikonal"], np.mean(np.abs(norms - 1.0)), floor=1e-9) < 1e-6
    want_spike = np.mean(np.exp(-training.SPIKE_DELTA * np.abs(psi(samples.free_points))))
    assert rel_err(terms["sdf_spike"], want_spike) < 1e-12


def test_relu_net_grads_match_fd():
    rng = substream(16, "relu")
    net = ad.MLPParams(
        [rng.standard_normal((5, 3)), rng.standard_normal((1, 5))],
        [rng.standard_normal(5), rng.standard_normal(1)],
        "relu",
    )
    batch = rng.uniform(-1, 1, (8, 3)) + 0.05  # keep away from relu kinks
    check_param_grads_fd(net, batch, with_jac=False)


def test_backward_input_gradient():
    # dL/dx from backward must match finite differences of the loss in x
    net = tiny_net(17, sizes=(3, 6, 1))
    x = np.array([0.2, -0.4, 0.1])

    y, jac, cache = ad.forward_aug(net, x[None, :])
    gy = np.ones((1, 1))
    _, gx = ad.backward(net, cache, gy)
    want = fd_spatial_grad(lambda p: ad.forward(net, p[None])[0, 0], x)
    assert rel_err(gx[0], want) < 1e-4
    # and it equals the tracked spatial jacobian
    assert rel_err(gx[0], jac[0, 0]) < 1e-12


def wide_sine_net(seed):
    """Sine net at frequency 1.5 with unequal widths and 4 linear outputs, so
    that a transposed or mis-reshaped (K, N, width) block has the wrong
    values, not the wrong shape."""
    rng = substream(seed, "wide")
    sizes = (3, 5, 7, 4)
    return sine_at(
        1.5,
        [rng.standard_normal((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [rng.standard_normal(o) for o in sizes[1:]],
    )


def test_param_grads_match_fd_unequal_widths():
    net = wide_sine_net(50)
    batch = substream(51, "batch").uniform(-1, 1, size=(9, 3))
    check_param_grads_fd(net, batch, with_jac=True)


def test_backward_rerun_bit_identical():
    # backward only reads the cache: a second pass gives the same bits
    net = wide_sine_net(52)
    batch = substream(53, "batch").uniform(-1, 1, size=(11, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    rng = substream(54, "adjoints")
    gy, gjac = rng.standard_normal(y.shape), rng.standard_normal(jac.shape)
    g1, gx1 = ad.backward(net, cache, gy, gjac)
    g2, gx2 = ad.backward(net, cache, gy, gjac)
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(gx1, gx2)


def test_backward_inputs_only_matches_full():
    # the input-only pass returns the full pass's gx, and that gx is the
    # point gradient of sum(gy * y) + sum(gjac * jac)
    net = wide_sine_net(55)
    batch = substream(56, "batch").uniform(-1, 1, size=(10, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    rng = substream(57, "adjoints")
    gy, gjac = rng.standard_normal(y.shape), rng.standard_normal(jac.shape)
    _, gx_full = ad.backward(net, cache, gy, gjac)
    grads, gx = ad.backward(net, cache, gy, gjac, inputs_only=True)
    assert grads is None
    assert np.array_equal(gx, gx_full)

    def functional(flat):
        y_, jac_, _ = ad.forward_aug(net, flat.reshape(batch.shape))
        return float(np.sum(gy * y_) + np.sum(gjac * jac_))

    want = fd_grad_vector(functional, batch.ravel(), h=1e-6)
    assert rel_err(gx.ravel(), want, floor=1e-6) < 1e-3


N_ROWS = 7


@pytest.mark.parametrize("activation", [ad.ACT_SINE, ad.ACT_RELU])
@pytest.mark.parametrize("value_rows", [0, 1, N_ROWS - 1, N_ROWS])
def test_value_rows_track_the_tail_of_the_full_jacobian(activation, value_rows):
    net = mixed_net(60, activation)
    batch = substream(61, "batch").uniform(-1, 1, (N_ROWS, 3))
    y_full, jac_full, cache_full = ad.forward_aug(net, batch)
    y, jac, cache = ad.forward_aug(net, batch, value_rows)
    assert np.array_equal(y, ad.forward(net, batch))
    assert jac.shape == (N_ROWS - value_rows, net.out_dim, 3)
    # a shorter GEMM may be blocked, and so rounded, differently
    np.testing.assert_allclose(jac, jac_full[value_rows:], rtol=1e-12, atol=1e-15)

    # the tail adjoint gives what the zero-padded full-row adjoint gives
    rng = substream(62, "adjoints")
    gy = rng.standard_normal(y.shape)
    gjac = rng.standard_normal(jac.shape)
    padded = np.concatenate([np.zeros((value_rows, *jac.shape[1:])), gjac])
    grads, gx = ad.backward(net, cache, gy, gjac)
    grads_full, gx_full = ad.backward(net, cache_full, gy, padded)
    np.testing.assert_allclose(gx, gx_full, rtol=1e-12, atol=1e-15)
    for got, want in zip(grads.weights + grads.biases, grads_full.weights + grads_full.biases):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("activation", [ad.ACT_SINE, ad.ACT_RELU])
def test_param_grads_match_fd_with_value_rows(activation):
    net = mixed_net(63, activation)
    batch = substream(64, "batch").uniform(-1, 1, size=(N_ROWS, 3)) + 0.05
    check_param_grads_fd(net, batch, with_jac=True, value_rows=3)


@pytest.mark.parametrize("value_rows", [-1, N_ROWS + 1, 2.5])
def test_forward_aug_rejects_value_rows_outside_the_batch(value_rows):
    net = mixed_net(65, ad.ACT_SINE)
    with pytest.raises(StructuralError, match="value_rows"):
        ad.forward_aug(net, np.zeros((N_ROWS, 3)), value_rows)


@pytest.mark.parametrize("rows", [N_ROWS, N_ROWS - 3])
def test_backward_rejects_a_jacobian_adjoint_of_the_wrong_row_count(rows):
    net = mixed_net(66, ad.ACT_SINE)
    y, _, cache = ad.forward_aug(net, np.zeros((N_ROWS, 3)), 2)
    with pytest.raises(StructuralError, match="gjac"):
        ad.backward(net, cache, np.zeros_like(y), np.zeros((rows, net.out_dim, 3)))


@pytest.mark.parametrize("shape", [(5, 1, 3), (9, 9, 9)])
def test_backward_rejects_a_jacobian_adjoint_for_a_value_only_cache(shape):
    # a forward_cached cache holds no Jacobian; the adjoint used to be
    # dropped without a word
    net = ad.siren_init([3, 4, 1], substream(67, "net"))
    y, cache = ad.forward_cached(net, substream(68, "x").uniform(-1, 1, (5, 3)))
    with pytest.raises(StructuralError, match="^gjac"):
        ad.backward(net, cache, np.ones_like(y), np.ones(shape))


def test_adam_moves_toward_minimum():
    params = {"x": np.array([4.0])}
    opt = ad.Adam()
    for _ in range(200):
        grads = {"x": 2.0 * params["x"]}
        opt.step(params, grads, lr=0.1)
    assert abs(params["x"][0]) < 0.1


def test_adam_matches_the_textbook_update_bit_for_bit():
    # step streams each key through two block buffers with the textbook's
    # operations in its order, so nothing may differ: keys of a prior's
    # live arrays, one longer than a block and not a multiple of it, one of
    # one entry, and one strided view that is stepped through a copy
    prior = fields.init_prior("sphere", latent_dim=4, template_hidden=(6,), deform_hidden=(5,), hyper_hidden=6)
    params = fields.named_arrays(prior.template, prior.hyper)
    rng = substream(69, "adam")
    backing = rng.standard_normal((6, 8))
    untouched = backing[:, 1::2].copy()
    params.update(long=rng.standard_normal(2 * ad.Adam.BLOCK + 123), one=rng.standard_normal(1), strided=backing[:, ::2])
    start = {k: v.copy() for k, v in params.items()}
    steps = []
    for lr in (1e-3, 5e-4, 2e-3, 1e-3):
        grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(-3, 2) for k, v in params.items()}
        grads["strided"] = np.asfortranarray(grads["strided"])
        steps.append((grads, lr))
    opt = ad.Adam()
    for grads, lr in steps:
        opt.step(params, grads, lr=lr)
    want_p, want_m, want_v = textbook_adam(start, steps)
    for k in params:
        assert np.array_equal(params[k], want_p[k]), k
        assert np.array_equal(opt.m[k], want_m[k]) and np.array_equal(opt.v[k], want_v[k]), k
    # the prior's own arrays moved, and the strided view's backing array
    # moved only under the view
    assert np.array_equal(prior.hyper[0].weights[1], want_p["hyper.0.1.w"])
    assert np.array_equal(prior.template.biases[0], want_p["template.0.b"])
    assert np.array_equal(backing[:, ::2], want_p["strided"])
    assert np.array_equal(backing[:, 1::2], untouched)


@pytest.mark.parametrize("grads, message", [
    # a (1,) gradient used to broadcast and step all three entries
    ({"a": np.ones(1)}, "gradient 'a' has shape (1,), expected 3"),
    ({"a": np.ones((3, 1))}, "gradient 'a' has shape (3, 1), expected 3"),
    # an unknown key used to raise a bare KeyError
    ({"b": np.ones(3)}, "gradient 'b' has no parameter"),
    # a list of gradients used to raise a bare AttributeError, and
    # parameters that are not a mapping (None here) a bare TypeError
    ([np.ones(3)], "grads must be a mapping, got list"),
    ({"a": np.ones(3)}, "params must be a mapping, got NoneType"),
])
def test_adam_refuses_a_gradient_that_does_not_match_a_parameter(grads, message):
    params = {"a": np.zeros(3)}
    opt = ad.Adam()
    with pytest.raises(StructuralError, match="^" + re.escape(message) + "$"):
        opt.step(None if message.startswith("params") else params, grads, lr=0.1)
    np.testing.assert_array_equal(params["a"], np.zeros(3))
    assert opt.m == {}


def test_pack_unpack_roundtrip():
    net = tiny_net(20, sizes=(3, 4, 2))
    vec = pack_params(net.weights, net.biases)
    w, b = unpack_params(vec, net)
    for w0, w1 in zip(net.weights, w):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(net.biases, b):
        np.testing.assert_array_equal(b0, b1)


@pytest.mark.parametrize("activation", ["tanh", "linear", ("sine", "linear")])
def test_validate_rejects_an_unknown_activation(activation):
    net = tiny_net(21)
    with pytest.raises(StructuralError, match="unknown activation tag"):
        ad.MLPParams(net.weights, net.biases, activation)
