import dataclasses
import re

import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields
from shapefit.errors import DataError, StructuralError
from shapefit.formats import load_container, load_json, save_container, save_json
from shapefit.rng import substream

from oracles import fd_spatial_grad, pack_params, rel_err, unpack_params


def small_prior(seed=0, latent_dim=8):
    return fields.init_prior(
        "sphere",
        latent_dim=latent_dim,
        template_hidden=(16, 16),
        deform_hidden=(12, 12),
        hyper_hidden=24,
        seed=seed,
    )


def test_template_zeroed_final_layer():
    prior = small_prior(1)
    prior.template.weights[-1][:] = 0.0
    prior.template.biases[-1][:] = 0.0
    y, jac, _ = ad.forward_aug(prior.template, np.array([[0.3, -0.2, 0.5]]))
    assert y[0, 0] == 0.0
    np.testing.assert_array_equal(jac[0, 0], np.zeros(3))


def test_template_gradient_matches_fd():
    prior = small_prior(2)
    pts = substream(3, "x").uniform(-1, 1, (20, 3))
    _, jac, _ = ad.forward_aug(prior.template, pts)
    for x, got in zip(pts, jac[:, 0]):
        want = fd_spatial_grad(lambda p: ad.forward(prior.template, p[None])[0, 0], x)
        assert rel_err(got, want) < 1e-4


def test_hyper_zero_latent_returns_biases():
    prior = small_prior(4)
    dw = fields.hyper_forward(prior, np.zeros(prior.latent_dim))
    # hidden biases are zero, so hyper(0) reduces to the final-layer bias,
    # which holds the layout's init weights
    for k in range(dw.n_layers):
        flat = pack_params([dw.weights[k]], [dw.biases[k]])
        np.testing.assert_array_equal(flat, prior.hyper[k].biases[-1])


def test_hyper_deterministic():
    prior = small_prior(5)
    z = substream(6, "z").standard_normal(prior.latent_dim)
    a = fields.hyper_forward(prior, z)
    b = fields.hyper_forward(prior, z)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_hyper_latent_dim_mismatch():
    prior = small_prior(7)
    with pytest.raises(StructuralError):
        fields.hyper_forward(prior, np.zeros(prior.latent_dim + 1))


@pytest.mark.parametrize("call", [
    lambda prior, z: fields.hyper_forward(prior, z),
    lambda prior, z: fields.compose_forward(prior, z, np.zeros((3, 3))),
    lambda prior, z: fields.instance_field(prior, z),
], ids=["hyper-forward", "compose-forward", "instance-field"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_latent_fails_at_the_door(call, bad):
    # compose_forward used to return a NaN psi, and instance_field failed
    # only in meshing, at the first grid point
    prior = small_prior(7)
    z = np.zeros(prior.latent_dim)
    z[2] = bad
    with pytest.raises(StructuralError, match="^latent has non-finite entries, first at index 2$"):
        call(prior, z)


def test_hyper_lipschitz_perturbation_bound():
    prior = small_prior(8)
    rng = substream(9, "z")
    z = rng.standard_normal(prior.latent_dim)
    z2 = z.copy()
    z2[3] += 1e-6
    a = fields.hyper_forward(prior, z)
    b = fields.hyper_forward(prior, z2)
    for k, h in enumerate(prior.hyper):
        # operator-norm product bounds the relu-net Lipschitz constant
        lip = np.prod([np.linalg.norm(w, 2) for w in h.weights])
        diff = pack_params([b.weights[k]], [b.biases[k]]) - pack_params(
            [a.weights[k]], [a.biases[k]]
        )
        assert np.linalg.norm(diff) <= 1e-6 * lip + 1e-15


def test_deform_eval_zeroed_final_layer():
    prior = small_prior(10)
    dw = fields.hyper_forward(prior, np.zeros(prior.latent_dim))
    dw.weights[-1][:] = 0.0
    dw.biases[-1][:] = 0.0
    out, jac, _ = ad.forward_aug(dw, np.array([[0.1, 0.2, 0.3]]))
    np.testing.assert_array_equal(out, np.zeros((1, 4)))
    np.testing.assert_array_equal(jac, np.zeros((1, 4, 3)))


def test_deform_linear_layer_jacobian_exact():
    rng = substream(11, "A")
    a_mat = rng.standard_normal((3, 3))
    w = np.zeros((4, 3))
    w[:3] = a_mat
    net = ad.MLPParams([w], [np.zeros(4)], "sine")  # one layer: linear
    _, jac, _ = ad.forward_aug(net, rng.uniform(-1, 1, (1, 3)))
    np.testing.assert_allclose(jac[0, :3], a_mat, atol=1e-15)


def test_deform_jacobian_matches_fd():
    prior = small_prior(12)
    z = substream(13, "z").standard_normal(prior.latent_dim) * 0.1
    dw = fields.hyper_forward(prior, z)
    x = np.array([0.2, -0.3, 0.4])
    _, jac, _ = ad.forward_aug(dw, x[None])
    for i in range(3):
        want = fd_spatial_grad(lambda p: ad.forward(dw, p[None])[0, i], x)
        assert rel_err(jac[0, i], want) < 1e-4


def test_instance_sdf_identity_when_deformation_zero():
    prior = small_prior(14)
    z = np.zeros(prior.latent_dim)
    # zero the final hyper biases for the last deform layer => v = 0, ds = 0
    prior.hyper[-1].biases[-1][:] = 0.0
    pts = substream(15, "x").uniform(-1, 1, (10, 3))
    inst = fields.compose_forward(prior, z, pts)
    temp, temp_jac, _ = ad.forward_aug(prior.template, pts)
    np.testing.assert_allclose(inst.psi, temp[:, 0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(inst.grad_psi, temp_jac[:, 0], atol=1e-13)


def test_instance_sdf_constant_correction_shift():
    prior = small_prior(16)
    z = np.zeros(prior.latent_dim)
    prior.hyper[-1].biases[-1][:] = 0.0
    c = 0.37
    prior.hyper[-1].biases[-1][-1] = c  # final bias of delta_s output row
    x = np.array([[0.15, 0.25, -0.1]])
    inst = fields.compose_forward(prior, z, x)
    assert inst.psi[0] == pytest.approx(ad.forward(prior.template, x)[0, 0] + c, abs=1e-14)


def test_composed_gradient_matches_fd_many():
    prior = small_prior(17)
    rng = substream(18, "zx")
    z = rng.standard_normal(prior.latent_dim) * 0.5
    pts = rng.uniform(-0.9, 0.9, (100, 3))
    ev = fields.compose_forward(prior, z, pts)
    field = fields.instance_field(prior, z)
    for i in range(0, 100, 5):
        want = fd_spatial_grad(lambda p: float(field(p[None, :])[0]), pts[i])
        assert rel_err(ev.grad_psi[i], want) < 1e-4


def test_compose_backward_matches_fd_on_params():
    # full composed loss: check gradients w.r.t. template, hyper and latent
    prior = small_prior(19, latent_dim=4)
    prior_small = fields.init_prior(
        "sphere", latent_dim=4, template_hidden=(5,), deform_hidden=(4,),
        hyper_hidden=6, seed=20,
    )
    prior = prior_small
    rng = substream(21, "pts")
    pts = rng.uniform(-0.8, 0.8, (7, 3))
    z0 = rng.standard_normal(4) * 0.5

    def full_loss(template, hyper_list, z):
        ev = fields.compose_forward(fields.ShapePrior("sphere", template, hyper_list), z, pts)
        # touch every output path: psi, grad_psi, grad_template, jac_v, delta_s
        return (
            np.abs(ev.psi).mean()
            + np.abs(np.linalg.norm(ev.grad_psi, axis=1) - 1).mean()
            + (1 - ev.grad_template[:, 0]).mean()
            + np.sqrt((ev.jac_v**2).sum(axis=(1, 2))).mean()
            + np.abs(ev.delta_s).mean()
        )

    ev = fields.compose_forward(prior, z0, pts)
    n = pts.shape[0]
    d_psi = np.sign(ev.psi) / n
    gn = np.linalg.norm(ev.grad_psi, axis=1)
    d_grad_psi = (np.sign(gn - 1) / np.where(gn > 0, gn, 1))[:, None] * ev.grad_psi / n
    d_grad_template = np.zeros((n, 3))
    d_grad_template[:, 0] = -1.0 / n
    fro = np.sqrt((ev.jac_v**2).sum(axis=(1, 2)))
    d_jac_v = ev.jac_v / np.where(fro > 0, fro, 1)[:, None, None] / n
    d_delta_s = np.sign(ev.delta_s) / n
    adjoints = dict(psi=d_psi, grad_psi=d_grad_psi, grad_template=d_grad_template, jac_v=d_jac_v,
                    delta_s=d_delta_s, z=np.zeros(4))
    t_grads, d_grads, own_z, g_pts = fields.compose_backward(ev, adjoints)
    h_grads, g_z = fields.hyper_backward(prior, z0[None, :], [d_grads])
    g_z = g_z[0] + own_z
    # the latent and point gradients need no weight gradients
    none_t, d_only, own_z_only, g_pts_only = fields.compose_backward(ev, adjoints, inputs_only=True)
    none_h, g_z_only = fields.hyper_backward(prior, z0[None, :], [d_only], inputs_only=True)
    assert none_t is None and none_h is None
    np.testing.assert_array_equal(g_z_only[0] + own_z_only, g_z)
    np.testing.assert_array_equal(g_pts_only, g_pts)

    # template params
    base_t = pack_params(prior.template.weights, prior.template.biases)

    def loss_t(vec):
        w, b = unpack_params(vec, prior.template)
        t = ad.MLPParams(w, b, prior.template.activation)
        return full_loss(t, prior.hyper, z0)

    from oracles import fd_grad_vector

    want_t = fd_grad_vector(loss_t, base_t, h=1e-6)
    got_t = pack_params(t_grads.weights, t_grads.biases)
    assert rel_err(got_t, want_t, floor=1e-6) < 1e-3

    # hyper params (first hyper net)
    base_h = pack_params(prior.hyper[0].weights, prior.hyper[0].biases)

    def loss_h(vec):
        w, b = unpack_params(vec, prior.hyper[0])
        h0 = ad.MLPParams(w, b, prior.hyper[0].activation)
        return full_loss(prior.template, [h0, *prior.hyper[1:]], z0)

    want_h = fd_grad_vector(loss_h, base_h, h=1e-6)
    got_h = pack_params(h_grads[0].weights, h_grads[0].biases)
    assert rel_err(got_h, want_h, floor=1e-6) < 1e-3

    # latent
    def loss_z(vec):
        return full_loss(prior.template, prior.hyper, vec)

    want_z = fd_grad_vector(loss_z, z0, h=1e-6)
    assert rel_err(g_z, want_z, floor=1e-6) < 1e-3


def _composed(seed):
    """A ComposedEval of 7 points, the last 5 with Jacobians, at latent 1."""
    pts = substream(seed, "pts").uniform(-0.8, 0.8, (7, 3))
    return fields.compose_forward(small_prior(seed, latent_dim=4), np.ones(4), pts, value_rows=2)


def test_weigh_terms_adds_each_weighted_adjoint_to_the_field_it_reads():
    ev = _composed(22)
    table = {
        "a": ("psi", slice(None, 3), 2.0, np.ones(3)),
        "b": ("psi", slice(1, None), 3.0, np.ones(6)),
        "c": ("z", slice(None), 0.5, np.arange(4.0)),
    }
    terms, adjoints = fields.weigh_terms(ev, table, {"a": 10.0, "c": 1.0, "b": 100.0})
    assert terms == {"a": 2.0, "c": 0.5, "b": 3.0, "total": 20.0 + 0.5 + 300.0}
    np.testing.assert_array_equal(adjoints.pop("psi"), [10.0, 110.0, 110.0, 100.0, 100.0, 100.0, 100.0])
    np.testing.assert_array_equal(adjoints.pop("z"), np.arange(4.0))
    # a field that no term reads gets a zero adjoint of its shape
    assert {name: a.shape for name, a in adjoints.items()} == {
        "grad_psi": (5, 3), "grad_template": (5, 3), "delta_s": (7,), "jac_v": (5, 3, 3)
    }
    assert not any(a.any() for a in adjoints.values())
    with pytest.raises(StructuralError, match=r"^loss terms \['a', 'b', 'c'\] do not match weighted terms \['a'\]$"):
        fields.weigh_terms(ev, table, {"a": 1.0})


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("jac_v"), "missing adjoint of field 'jac_v'"),
    (lambda d: d.update(grad_y=np.zeros((5, 3))), "unknown adjoint of field 'grad_y'"),
    (lambda d: d.update(_t_cache=None), "unknown adjoint of field '_t_cache'"),
    (lambda d: d.update(grad_psi=np.zeros((7, 3))), "adjoint of grad_psi has shape (7, 3), expected 5x3"),
    (lambda d: d.update(z=np.zeros(5)), "adjoint of z has shape (5,), expected 4"),
], ids=["missing", "unknown", "private", "rows", "latent"])
def test_compose_backward_takes_one_adjoint_per_field(edit, message):
    # it used to take three optional adjoints, each None by default
    ev = _composed(23)
    adjoints = fields.weigh_terms(ev, {}, {})[1]
    edit(adjoints)
    with pytest.raises(StructuralError, match="^" + re.escape(message) + "$"):
        fields.compose_backward(ev, adjoints)


@pytest.mark.parametrize("pts", [[[None, 0, 0]], [["0.5", 0, 0]]], ids=["none", "text"])
@pytest.mark.parametrize("call", [
    lambda prior, z, pts: fields.compose_forward(prior, z, pts),
    lambda prior, z, pts: fields.compose_value(prior.template, fields.hyper_forward(prior, z), pts),
    lambda prior, z, pts: fields.instance_field(prior, z)(pts),
], ids=["compose-forward", "compose-value", "instance-field"])
def test_points_that_are_not_numbers_are_refused(call, pts):
    # None used to become NaN, and numeric text was parsed as a number
    with pytest.raises(StructuralError, match="^points is not a numeric array: it holds"):
        call(small_prior(24), np.zeros(8), pts)


def test_prior_checkpoint_roundtrip(tmp_path):
    rng = substream(23, "lat")
    prior = dataclasses.replace(small_prior(22), latents={"a": rng.standard_normal(8), "b": rng.standard_normal(8)})
    path = tmp_path / "prior.bin"
    fields.save_prior(prior, path)
    back = fields.load_prior(path)
    assert back.category == prior.category
    assert back.latent_dim == prior.latent_dim
    np.testing.assert_array_equal(back.latents["a"], prior.latents["a"])
    pts = rng.uniform(-1, 1, (20, 3))
    z = prior.latents["b"]
    a_field = fields.instance_field(prior, z)
    b_field = fields.instance_field(back, z)
    np.testing.assert_array_equal(a_field(pts), b_field(pts))


def test_init_prior_rejects_non_integer_latent_dim():
    with pytest.raises(StructuralError, match="latent_dim"):
        small_prior(latent_dim=2.5)


def test_deform_layout_is_read_off_the_hypernetworks():
    prior = small_prior(24)
    assert prior.latent_dim == 8
    assert prior.deform_shapes() == [(12, 3), (12, 12), (4, 12)]
    deform = fields.hyper_forward(prior, np.zeros(8))
    assert deform.activation == "sine"


@pytest.mark.parametrize("drop", [0, -1])
def test_validate_rejects_hypernetworks_that_do_not_factor(drop):
    # without its first or last hypernetwork, the output sizes no longer
    # chain from 3 inputs to DEFORM_OUT_DIM outputs
    prior = small_prior(25)
    hyper = list(prior.hyper)
    del hyper[drop]
    with pytest.raises(StructuralError, match="hypernetwork|deformation"):
        dataclasses.replace(prior, hyper=hyper)


def _saved_prior(tmp_path, seed):
    prior = dataclasses.replace(small_prior(seed), latents={"a": substream(seed, "lat").standard_normal(8)})
    path = tmp_path / "prior.bin"
    fields.save_prior(prior, path)
    return path


def test_checkpoint_sections_are_the_optimizer_names(tmp_path):
    # latents are written in sorted id order, and an id may hold a dot
    rng = substream(28, "lat")
    prior = dataclasses.replace(small_prior(28), latents={iid: rng.standard_normal(8) for iid in ("b", "c.1", "a")})
    path = tmp_path / "prior.bin"
    fields.save_prior(prior, path)
    names = list(fields.named_arrays(prior.template, prior.hyper, dict(sorted(prior.latents.items()))))
    assert names[:2] == ["template.0.w", "template.0.b"]
    assert names[-4:] == ["hyper.2.1.b", "latent.a", "latent.b", "latent.c.1"]
    assert list(load_container(path)) == names
    assert list(load_json(str(path) + ".json")) == ["category"]
    back = fields.load_prior(path)
    assert list(back.latents) == ["a", "b", "c.1"]
    for iid, z in prior.latents.items():
        np.testing.assert_array_equal(back.latents[iid], z)


@pytest.mark.parametrize("name", ["latents", "template.0.x", "hyper.x.0.w", "extra"])
def test_load_prior_rejects_a_section_that_is_not_a_prior_array(tmp_path, name):
    # unknown sections used to be ignored, so the latent matrix of an older
    # layout would load as a prior with no latents
    path = _saved_prior(tmp_path, 36)
    sections = load_container(path)
    sections[name] = np.zeros((1, 8))
    save_container(path, sections)
    with pytest.raises(DataError, match=re.escape(f"not a prior's arrays: [{name!r}]")):
        fields.load_prior(path)


@pytest.mark.parametrize("iid, z, message", [
    pytest.param("b", np.array([np.nan, *np.zeros(7)]), "latent 'b' has non-finite entries", id="nan"),
    pytest.param(3, np.zeros(8), "latent id 3 is not a string", id="integer-id"),
])
def test_save_prior_rejects_a_latent_that_would_not_load_back(tmp_path, iid, z, message):
    # a NaN latent used to save and load, and failed only when meshed; an
    # integer id would load back as a string. Such a prior now fails when built
    prior = small_prior(37)
    with pytest.raises(StructuralError, match=f"^{message}"):
        fields.save_prior(dataclasses.replace(prior, latents={"a": np.zeros(8), iid: z}), tmp_path / "prior.bin")


def test_load_prior_rejects_a_non_finite_latent_naming_its_id(tmp_path):
    path = _saved_prior(tmp_path, 38)
    sections = load_container(path)
    sections["latent.b"] = np.array([np.nan, *np.zeros(7)])
    save_container(path, sections)
    with pytest.raises(DataError, match="latent 'b' has non-finite entries"):
        fields.load_prior(path)


@pytest.mark.parametrize(
    "net, activation",
    [("template", "relu"), ("template", "tanh"), ("hyper", "sine"), ("hyper", "tanh")],
)
def test_save_prior_rejects_networks_with_other_activations(tmp_path, net, activation):
    # such a prior, or its network with an unknown tag, now fails when built
    prior = small_prior(29)
    message = {"relu": "template must be a sine net", "sine": "hypernetwork 1 must be a relu net",
               "tanh": "unknown activation tag 'tanh'"}[activation]
    with pytest.raises(StructuralError, match=message):
        if net == "template":
            prior = dataclasses.replace(prior, template=dataclasses.replace(prior.template, activation=activation))
        else:
            hyper = list(prior.hyper)
            hyper[1] = dataclasses.replace(hyper[1], activation=activation)
            prior = dataclasses.replace(prior, hyper=hyper)
        fields.save_prior(prior, tmp_path / "prior.bin")


@pytest.mark.parametrize(
    "drop, message",
    [("template", "template.0.w"), ("template.1.w", "template.1.w"), ("template.2.b", "template.2.b"),
     ("hyper", "hyper.0.0.w"), ("hyper.1.1.w", "hyper.1.1.w"), ("hyper.2.0.b", "hyper.2.0.b"),
     ("template.2", "not sine then linear from R^3 to R")],
)
def test_load_prior_names_a_missing_section(tmp_path, drop, message):
    # `drop` removes that section, or every section under that prefix
    path = _saved_prior(tmp_path, 30)
    kept = {k: v for k, v in load_container(path).items() if k != drop and not k.startswith(drop + ".")}
    save_container(path, kept)
    with pytest.raises(DataError, match=re.escape(message)):
        fields.load_prior(path)


@pytest.mark.parametrize("sidecar", [[1, 2], "car", 3, None])
def test_load_prior_rejects_a_sidecar_that_is_not_an_object(tmp_path, sidecar):
    path = _saved_prior(tmp_path, 32)
    save_json(str(path) + ".json", sidecar)
    with pytest.raises(DataError, match=re.escape(f"{path}.json is not a JSON object")):
        fields.load_prior(path)


@pytest.mark.parametrize("sidecar, message", [
    pytest.param({"category": "car", "omega0": 30.0}, "holds keys other than 'category': ['omega0']", id="older-layout"),
    pytest.param({"category": "car", "note": "x"}, "holds keys other than 'category': ['note']", id="unknown-key"),
    pytest.param({}, "missing section or sidecar key 'category'", id="no-category"),
])
def test_the_sidecar_holds_the_category_alone(tmp_path, sidecar, message):
    # every sine layer runs at autodiff.OMEGA0, so the sine frequency an
    # older sidecar stored is refused rather than loaded and ignored
    path = _saved_prior(tmp_path, 31)
    assert load_json(str(path) + ".json") == {"category": "sphere"}
    save_json(str(path) + ".json", sidecar)
    with pytest.raises(DataError, match=re.escape(message)):
        fields.load_prior(path)


@pytest.mark.parametrize("kwargs, name", [
    ({"hyper_hidden": 0}, "hyper_hidden"), ({"hyper_hidden": "8"}, "hyper_hidden"),
    ({"deform_hidden": (0,)}, "deform_hidden entry"), ({"template_hidden": (2.5,)}, "template_hidden entry"),
])
def test_init_prior_rejects_a_layer_width_that_is_not_a_positive_integer(kwargs, name):
    # these used to raise a bare ZeroDivisionError or TypeError
    with pytest.raises(StructuralError, match=f"^{name} must be an integer >= 1"):
        fields.init_prior("sphere", **{"latent_dim": 4, "template_hidden": (8,), "deform_hidden": (6,),
                                       "hyper_hidden": 8, **kwargs})


def test_save_prior_through_a_regular_file_is_a_data_error(tmp_path):
    # a path whose directory is a regular file used to raise a bare FileExistsError
    (tmp_path / "file").write_text("")
    with pytest.raises(DataError, match=re.escape(f"cannot write {tmp_path / 'file' / 'x.bin'}")):
        fields.save_prior(small_prior(39), tmp_path / "file" / "x.bin")


@pytest.mark.parametrize("kwargs, name", [
    ({"template_hidden": 5}, "template_hidden"), ({"deform_hidden": None}, "deform_hidden"),
])
def test_init_prior_checks_its_arguments_before_drawing_from_them(kwargs, name):
    # these used to raise a bare TypeError, or an OverflowError from the
    # random draw of the initial weights
    with pytest.raises(StructuralError, match=f"^{name}"):
        fields.init_prior("sphere", **{"latent_dim": 4, "template_hidden": (8,), "deform_hidden": (6,),
                                       "hyper_hidden": 8, **kwargs})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda p: ad.MLPParams(p.template.weights, p.template.biases, "tanh"),
                 "unknown activation tag 'tanh'", id="tanh-network"),
    pytest.param(lambda p: fields.ShapePrior(p.category, p.template, []),
                 "deformation network must output", id="no-hypernetworks"),
    pytest.param(lambda p: dataclasses.replace(p, template=dataclasses.replace(p.template, activation="relu")),
                 "template must be a sine net", id="relu-template"),
    pytest.param(lambda p: dataclasses.replace(p, latents={"a": np.full(8, np.nan)}),
                 "latent 'a' has non-finite entries", id="nan-latent"),
])
def test_an_invalid_network_or_prior_fails_when_built(build, message):
    # each of these used to build: the tanh network ran as a relu network,
    # the prior without hypernetworks raised a bare IndexError in
    # instance_field, reconstruct ran to the end on the relu template, and
    # the NaN latent failed only at stage joint-optimize, as non-finite terms
    with pytest.raises(StructuralError, match=message):
        build(small_prior(40))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda p: fields.ShapePrior(p.category, "net", p.hyper),
                 "template must be an MLPParams, got str", id="template-str"),
    pytest.param(lambda p: fields.ShapePrior(p.category, p.template, [p.hyper[0], "x"]),
                 "hypernetwork 1 must be an MLPParams, got str", id="hypernetwork-str"),
    pytest.param(lambda p: fields.ShapePrior(p.category, p.template, None),
                 "hyper must be a list or tuple of MLPParams, got NoneType", id="hyper-none"),
    pytest.param(lambda p: dataclasses.replace(p, latents=None),
                 "latents must be a mapping, got NoneType", id="latents-none"),
    pytest.param(lambda p: dataclasses.replace(p, latents=5), "latents must be a mapping, got int", id="latents-int"),
    pytest.param(lambda p: ad.MLPParams(np.zeros((1, 3)), [np.zeros(1)], "sine"),
                 "weights must be a list or tuple of arrays, got ndarray", id="weights-array"),
    pytest.param(lambda p: ad.MLPParams((w for w in p.template.weights), p.template.biases, "sine"),
                 "weights must be a list or tuple of arrays, got generator", id="weights-generator"),
    pytest.param(lambda p: ad.MLPParams(p.template.weights, iter(p.template.biases), "sine"),
                 "biases must be a list or tuple of arrays, got", id="biases-iterator"),
])
def test_a_prior_or_network_built_from_the_wrong_types_names_the_argument(build, message):
    # these used to raise a bare AttributeError (a template or hypernetwork
    # that is not a network), TypeError (hyper or latents None, latents 5,
    # weights a generator) or ValueError (weights one array)
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}"):
        build(small_prior(43))


def test_a_prior_with_non_finite_weights_fails_when_built():
    prior = small_prior(41)
    weights = list(prior.hyper[2].weights)
    weights[1] = weights[1].copy()
    weights[1][0, 0] = np.inf
    hyper = [*prior.hyper[:2], dataclasses.replace(prior.hyper[2], weights=weights)]
    with pytest.raises(StructuralError, match=re.escape("hyper.2.1.w has non-finite entries")):
        dataclasses.replace(prior, hyper=hyper)


def test_a_prior_keeps_its_own_latent_table_and_a_latent_code_its_own_array():
    # the caller's later writes used to reach the checked prior and code
    table = {"a": np.zeros(8)}
    prior = dataclasses.replace(small_prior(42), latents=table)
    table["b"] = np.full(8, np.nan)
    assert list(prior.latents) == ["a"]
    z = np.zeros(8)
    code = fields.LatentCode(z)
    z[0] = np.nan
    assert np.isfinite(code.z).all()
    with pytest.raises(ValueError, match="read-only"):
        code.z[0] = np.nan


def test_a_prior_of_an_unknown_category_is_rejected(tmp_path):
    # an unknown category used to train with the default loss weights and
    # to load from a checkpoint
    with pytest.raises(StructuralError, match="unknown category 'cars'"):
        fields.init_prior("cars", latent_dim=4, template_hidden=(8,), deform_hidden=(6,), hyper_hidden=8)
    path = _saved_prior(tmp_path, 33)
    sidecar = load_json(str(path) + ".json")
    sidecar["category"] = "banana"
    save_json(str(path) + ".json", sidecar)
    with pytest.raises(DataError, match="unknown category 'banana'"):
        fields.load_prior(path)
