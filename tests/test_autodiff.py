import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, training
from shapefit.errors import StructuralError
from shapefit.rng import substream
from shapefit.synthdata import make_family, sample_shape

from oracles import fd_grad_vector, fd_spatial_grad, rel_err


def tiny_net(seed=0, sizes=(3, 4, 1), omega0=30.0):
    return ad.siren_init(sizes, substream(seed, "net"), omega0=omega0)


def test_identity_linear_layer():
    net = ad.MLPParams([np.array([[1.0, 0, 0]])], [np.zeros(1)], ("linear",))
    y, jac, _ = ad.forward_aug(net, np.array([[0.3, 0.0, 0.0]]))
    assert y[0, 0] == pytest.approx(0.3, abs=0)
    np.testing.assert_allclose(jac[0, 0], [1.0, 0.0, 0.0])


def test_sine_layer_at_zero():
    net = ad.MLPParams([np.array([[1.0, 0, 0]])], [np.zeros(1)], ("sine",), omega0=30.0)
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
        want = fd_spatial_grad(lambda p: float(ad.forward(net, p)[0]), x)
        assert rel_err(got, want) < 1e-4


def test_forward_batched_matches_single():
    net = tiny_net(3)
    rng = substream(4, "pts")
    pts = rng.uniform(-1, 1, size=(17, 3))
    batch = ad.forward(net, pts)
    singles = np.stack([ad.forward(net, p) for p in pts])
    # BLAS may round differently per batch shape; agreement to ~1 ulp is enough
    np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=1e-16)


def test_dimension_mismatch_raises():
    net = tiny_net(5)
    for entry in (ad.forward, ad.forward_cached, ad.forward_aug):
        with pytest.raises(StructuralError):
            entry(net, np.zeros((1, 4)))


def test_determinism_bit_identical():
    net = tiny_net(6)
    x = np.array([[0.1, -0.2, 0.3]])
    y_a, jac_a, _ = ad.forward_aug(net, x)
    y_b, jac_b, _ = ad.forward_aug(net, x)
    assert np.array_equal(y_a, y_b)
    assert np.array_equal(jac_a, jac_b)


def mixed_net(seed):
    """Sine, ReLU and linear layers in one network."""
    rng = substream(seed, "mixed")
    sizes = (3, 6, 5, 2)
    return ad.MLPParams(
        [rng.standard_normal((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [rng.standard_normal(o) for o in sizes[1:]],
        ("sine", "relu", "linear"),
        omega0=2.0,
    )


def test_forward_entry_points_agree():
    net = mixed_net(30)
    pts = substream(31, "pts").uniform(-1, 1, (25, 3))
    y = ad.forward(net, pts)
    y_cached, cache = ad.forward_cached(net, pts)
    y_aug, _, cache_aug = ad.forward_aug(net, pts)
    assert np.array_equal(y, y_cached) and np.array_equal(y, y_aug)
    gy = substream(32, "gy").standard_normal(y.shape)
    grads, gx, _ = ad.backward(net, cache, gy)
    grads_aug, gx_aug, _ = ad.backward(net, cache_aug, gy)
    for a, b in zip(grads.weights + grads.biases, grads_aug.weights + grads_aug.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(gx, gx_aug)


def test_pure_latent_term_gradient():
    # with every field weight zero, shape_terms reduces to ||z||
    prior = fields.init_prior(
        "sphere", latent_dim=8, template_hidden=(4,), deform_hidden=(4,), hyper_hidden=4, seed=7
    )
    samples = sample_shape(make_family("sphere", 1, seed=7)[0], 5, 5, seed=7)
    w = training.LossWeights(
        sdf_value=0.0, sdf_normal=0.0, sdf_eikonal=0.0, sdf_spike=0.0,
        template_normal=0.0, latent=1.0, smooth=0.0, correction=0.0,
    )
    z = np.zeros(8)
    z[0] = 1.0
    terms, (_, _, g_z) = training.shape_terms(prior, z, samples, w, with_grads=True)
    assert terms["total"] == pytest.approx(1.0)
    np.testing.assert_allclose(g_z, z)


def check_param_grads_fd(net, batch, with_jac):
    """backward's weight gradients against finite differences of the
    linear functional sum(gy * y) + sum(gjac * jac) of the forward pass."""
    rng = substream(40, "adjoints")
    gy = rng.standard_normal((len(batch), net.out_dim))
    gjac = rng.standard_normal((len(batch), net.out_dim, 3)) if with_jac else None

    def functional(probe):
        if not with_jac:
            return float(np.sum(gy * ad.forward_cached(probe, batch)[0]))
        y, jac, _ = ad.forward_aug(probe, batch)
        return float(np.sum(gy * y) + np.sum(gjac * jac))

    def of_vec(vec):
        w, b = ad.unpack_params(vec, net)
        return functional(ad.MLPParams(w, b, net.activations, net.omega0))

    cache = ad.forward_aug(net, batch)[2] if with_jac else ad.forward_cached(net, batch)[1]
    grads, _, _ = ad.backward(net, cache, gy, gjac)
    got = ad.pack_params(grads.weights, grads.biases)
    want = fd_grad_vector(of_vec, ad.pack_params(net.weights, net.biases), h=1e-6)
    assert rel_err(got, want, floor=1e-6) < 1e-3


def test_param_grads_match_fd():
    net = tiny_net(8, sizes=(3, 4, 1))
    assert net.n_params() < 200
    batch = substream(9, "batch").uniform(-0.8, 0.8, size=(12, 3))
    check_param_grads_fd(net, batch, with_jac=True)


def test_eikonal_exact_unit_field():
    # field psi(x) = n.x with ||n|| = 1: eikonal loss and all grads vanish
    n = np.array([[0.6, 0.8, 0.0]])
    net = ad.MLPParams([n], [np.zeros(1)], ("linear",))
    batch = substream(10, "b").uniform(-1, 1, (20, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    val, gjac = ad.term_eikonal(jac[:, 0, :])
    assert val == 0.0
    grads, _, _ = ad.backward(net, cache, np.zeros_like(y), gjac[:, None, :])
    assert np.all(grads.weights[0] == 0.0)
    assert np.all(grads.biases[0] == 0.0)


def test_loss_linearity():
    # backward is linear in the adjoints (gy, gjac)
    net = tiny_net(11)
    batch = substream(12, "b").uniform(-1, 1, (10, 3))
    y, jac, cache = ad.forward_aug(net, batch)
    rng = substream(13, "adjoints")
    gy1, gy2 = rng.standard_normal((2, *y.shape))
    gj1, gj2 = rng.standard_normal((2, *jac.shape))
    a, b = 0.37, 2.5
    g1, gx1, gjx1 = ad.backward(net, cache, gy1, gj1)
    g2, gx2, gjx2 = ad.backward(net, cache, gy2, gj2)
    gc, gxc, gjxc = ad.backward(net, cache, a * gy1 + b * gy2, a * gj1 + b * gj2)
    for k in range(net.n_layers):
        want_w = a * g1.weights[k] + b * g2.weights[k]
        assert rel_err(gc.weights[k], want_w, floor=1e-12) < 1e-10
    assert rel_err(gxc, a * gx1 + b * gx2, floor=1e-12) < 1e-10
    assert rel_err(gjxc, a * gjx1 + b * gjx2, floor=1e-12) < 1e-10


def test_loss_value_matches_plain_recomputation():
    # the four SDF terms of training.shape_terms against value-only
    # evaluations and finite-difference spatial gradients
    prior = fields.init_prior(
        "sphere", latent_dim=4, template_hidden=(6,), deform_hidden=(5,), hyper_hidden=6, seed=13
    )
    samples = sample_shape(make_family("sphere", 1, seed=14)[0], 5, 6, seed=15)
    z = substream(14, "z").standard_normal(4) * 0.3
    w = training.LossWeights(spike_delta=20.0)
    terms, _ = training.shape_terms(prior, z, samples, w)

    deform, _ = fields.hyper_forward(prior, z)

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
    want_spike = np.mean(np.exp(-w.spike_delta * np.abs(psi(samples.free_points))))
    assert rel_err(terms["sdf_spike"], want_spike) < 1e-12


def test_relu_net_grads_match_fd():
    rng = substream(16, "relu")
    net = ad.MLPParams(
        [rng.standard_normal((5, 3)), rng.standard_normal((1, 5))],
        [rng.standard_normal(5), rng.standard_normal(1)],
        ("relu", "linear"),
    )
    batch = rng.uniform(-1, 1, (8, 3)) + 0.05  # keep away from relu kinks
    check_param_grads_fd(net, batch, with_jac=False)


def test_backward_input_gradient():
    # dL/dx from backward must match finite differences of the loss in x
    net = tiny_net(17, sizes=(3, 6, 1))
    x = np.array([0.2, -0.4, 0.1])

    y, jac, cache = ad.forward_aug(net, x[None, :])
    gy = np.ones((1, 1))
    _, gx, _ = ad.backward(net, cache, gy)
    want = fd_spatial_grad(lambda p: float(ad.forward(net, p)[0]), x)
    assert rel_err(gx[0], want) < 1e-4
    # and it equals the tracked spatial jacobian
    assert rel_err(gx[0], jac[0, 0]) < 1e-12


def test_jacobian_chain_through_input_jacobian():
    # feeding jac_in = A must produce jac = (dPsi/dx) @ A
    net = tiny_net(18, sizes=(3, 5, 1))
    rng = substream(19, "A")
    a_mat = rng.standard_normal((3, 3))
    x = rng.uniform(-1, 1, (4, 3))
    y0, jac0, _ = ad.forward_aug(net, x)
    y1, jac1, _ = ad.forward_aug(net, x, jac_in=np.broadcast_to(a_mat, (4, 3, 3)).copy())
    np.testing.assert_array_equal(y0, y1)
    want = np.einsum("nok,kj->noj", jac0, a_mat)
    assert rel_err(jac1, want, floor=1e-12) < 1e-12


def test_adam_moves_toward_minimum():
    params = {"x": np.array([4.0])}
    opt = ad.Adam(lr=0.1)
    for _ in range(200):
        grads = {"x": 2.0 * params["x"]}
        opt.step(params, grads)
    assert abs(params["x"][0]) < 0.1


def test_pack_unpack_roundtrip():
    net = tiny_net(20, sizes=(3, 4, 2))
    vec = ad.pack_params(net.weights, net.biases)
    w, b = ad.unpack_params(vec, net)
    for w0, w1 in zip(net.weights, w):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(net.biases, b):
        np.testing.assert_array_equal(b0, b1)
