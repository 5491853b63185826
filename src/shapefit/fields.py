"""The deformable implicit shape prior.

A category is represented by a shared template SDF network plus a
deformation network whose weights are predicted from a per-instance
latent code by small hypernetworks (one per deformation layer). The
deformation maps an instance-space point to a template-space offset `v`
and a scalar SDF correction, so the instance SDF is

    sdf(x) = template(x + v(x)) + correction(x).

`compose_forward` and `compose_backward` are the one field pass of both
objectives: callers pass a prior and a latent, and the pair runs the
hypernetworks, tracks spatial Jacobians through the composition (for every
point or a trailing subset), and pushes loss adjoints back to template
weights, hypernetwork weights, the latent code and the points. Both
objectives weigh their terms in `weigh_terms`, which gives the one adjoint
per `ComposedEval` field that `compose_backward` takes.

This module alone knows how a prior's arrays are built and named: the
template (R^3 -> R) and the deformation net are sine nets, the
hypernetworks ReLU nets (each with a linear output layer), layer k is
named `template.{k}.w` / `.b`, or `hyper.{i}.{k}.w` / `.b` in hypernetwork
i, and the latent of instance `id` is `latent.{id}`. `named_arrays` gives
these names, and they are the keys of the optimizer of `training.fit` and
the sections of a checkpoint alike. A checkpoint's JSON sidecar holds the
category alone: every sine layer runs at `autodiff.OMEGA0`, so a network
carries no frequency.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from . import autodiff as ad
from .errors import DataError, StructuralError, _read_only, check_count, check_finite_array, check_shape, check_type
from .formats import load_container, load_json, save_container, save_json
from .rng import substream
from .synthdata.shapes import check_category

DEFORM_OUT_DIM = 4  # (v_x, v_y, v_z, delta_s)
LATENT_INIT_STD = 0.01  # std of the latent code of an instance not yet trained


@dataclass(frozen=True)
class LatentCode:
    """One instance's latent: a finite vector, kept as a read-only copy."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", _read_only(check_finite_array("latent", self.z, ("N",))))


@dataclass(frozen=True)
class ShapePrior:
    """Trained (or freshly initialized) category prior: the template, the
    hypernetworks and the latents, and nothing they determine.

    The hypernetworks fix the deformation net: the latent size is their
    input size, and the output row of hyper[k] is deformation layer k
    (in_k -> out_k), W row-major, then b: out_k * (in_k + 1) entries, with
    in_0 = 3 and a last out_k of DEFORM_OUT_DIM. Checked when built, with
    finite weights and a finite latent per string id, and fixed in
    structure; its weight arrays and latent table (a copy of the mapping
    given) are training state that `training.fit` steps and extends in place.
    """

    category: str
    template: ad.MLPParams
    hyper: tuple  # one MLPParams (relu net) per deformation layer
    latents: dict = field(default_factory=dict)  # instance id -> (n,) array

    def __post_init__(self):
        check_category(self.category)
        check_type("hyper", self.hyper, (list, tuple), "a list or tuple of MLPParams")
        nets = {"template": self.template, **{f"hypernetwork {k}": h for k, h in enumerate(self.hyper)}}
        for name, net in nets.items():
            check_type(name, net, ad.MLPParams, "an MLPParams")
        check_type("latents", self.latents, Mapping, "a mapping")
        object.__setattr__(self, "hyper", tuple(self.hyper))
        t = self.template
        if t.activation != ad.ACT_SINE:
            raise StructuralError(f"template must be a sine net, got {t.activation!r}")
        if (t.in_dim, t.out_dim) != (3, 1):
            raise StructuralError(f"template is not sine then linear from R^3 to R: layer sizes {t.layer_sizes}")
        self.deform_shapes()  # refuses an empty `hyper` too
        for k, h in enumerate(self.hyper):
            if h.activation != ad.ACT_RELU:
                raise StructuralError(f"hypernetwork {k} must be a relu net, got {h.activation!r}")
            if h.in_dim != self.latent_dim:
                raise StructuralError(f"hypernetwork {k} input dim != latent dim")
        for name, arr in named_arrays(t, self.hyper).items():
            check_finite_array(name, arr, arr.shape)
        object.__setattr__(self, "latents", dict(self.latents))
        for iid, z in self.latents.items():
            if not isinstance(iid, str):  # a checkpoint section name would turn it into one
                raise StructuralError(f"latent id {iid!r} is not a string")
            check_finite_array(f"latent {iid!r}", z, (self.latent_dim,))

    @property
    def latent_dim(self):
        return self.hyper[0].in_dim

    def deform_shapes(self):
        """(out_k, in_k) of each deformation layer, read off the hypernetworks."""
        shapes, fan_in = [], 3
        for k, h in enumerate(self.hyper):
            fan_out, rest = divmod(h.out_dim, fan_in + 1)
            if rest or fan_out == 0:
                raise StructuralError(
                    f"hypernetwork {k} output size {h.out_dim} is not out * ({fan_in} + 1)"
                )
            shapes.append((fan_out, fan_in))
            fan_in = fan_out
        if fan_in != DEFORM_OUT_DIM:
            raise StructuralError(f"deformation network must output (v, delta_s) in R^4, got {fan_in}")
        return shapes

    def latent_stats(self):
        """Empirical mean and per-dimension std of the trained latents."""
        if not self.latents:
            return np.zeros(self.latent_dim), np.full(self.latent_dim, LATENT_INIT_STD)
        table = np.stack(list(self.latents.values()))
        return table.mean(axis=0), table.std(axis=0)


def init_prior(
    category, latent_dim=128, template_hidden=(128, 128, 128), deform_hidden=(128, 128, 128), hyper_hidden=256, seed=0
):
    """Fresh prior: a sine template net, and zero-centred hypernetworks that
    reproduce a standard sine-net deformation init at z = 0."""
    check_count("latent_dim", latent_dim)
    check_count("hyper_hidden", hyper_hidden)
    for name, widths in (("template_hidden", template_hidden), ("deform_hidden", deform_hidden)):
        check_shape(name, widths, ("N",))  # a sequence, so each entry is checked below
        for width in widths:
            check_count(f"{name} entry", width)
    rng = substream(seed, "init")
    template = ad.siren_init([3, *template_hidden, 1], rng)
    layout = ad.siren_init([3, *deform_hidden, DEFORM_OUT_DIM], rng)
    # start the deformation at exactly zero so the composition is the
    # identity and the correction term does not inject early noise; the
    # layout only seeds the hypernetworks' final biases and is not kept
    layout.weights[-1][:] = 0.0
    layout.biases[-1][:] = 0.0
    hyper = []
    for k in range(layout.n_layers):
        target = np.concatenate([layout.weights[k].ravel(), layout.biases[k]])
        bound = np.sqrt(6.0 / latent_dim)
        w0 = rng.uniform(-bound, bound, size=(hyper_hidden, latent_dim))
        b0 = np.zeros(hyper_hidden)  # zero hidden bias: hyper(0) == final bias
        scale = 1e-2 * np.sqrt(6.0 / hyper_hidden)
        w1 = rng.uniform(-scale, scale, size=(target.size, hyper_hidden))
        hyper.append(ad.MLPParams([w0, w1], [b0, target], ad.ACT_RELU))
    return ShapePrior(category, template, hyper)


# ---------------------------------------------------------------------------
# hypernetwork


def hyper_forward(prior, z):
    """Predict deformation weights from a latent code, keeping caches."""
    check_type("prior", prior, ShapePrior, "a ShapePrior")
    z = check_finite_array("latent", z, (prior.latent_dim,))
    weights, biases, caches = [], [], []
    for (fan_out, fan_in), h in zip(prior.deform_shapes(), prior.hyper):
        out, cache = ad.forward_cached(h, z[None, :])
        flat = out[0]
        weights.append(flat[: fan_out * fan_in].reshape(fan_out, fan_in))
        biases.append(flat[fan_out * fan_in :].copy())
        caches.append(cache)
    return ad.MLPParams(weights, biases, ad.ACT_SINE), caches


def hyper_backward(prior, caches, deform_grads, inputs_only=False):
    """Push adjoints of the predicted deformation weights through the
    hypernetworks. Returns (per-hyper MLPGrads, latent gradient); with
    `inputs_only` only the latent gradient is computed and the first item
    is None."""
    g_z = np.zeros(prior.latent_dim)
    hyper_grads = []
    for k, (h, cache) in enumerate(zip(prior.hyper, caches)):
        flat = np.concatenate([deform_grads.weights[k].ravel(), deform_grads.biases[k]])
        grads, gz = ad.backward(h, cache, flat[None, :], inputs_only=inputs_only)
        hyper_grads.append(grads)
        g_z += gz[0]
    return (None if inputs_only else hyper_grads), g_z


# ---------------------------------------------------------------------------
# field evaluation


@dataclass(frozen=True)
class ComposedEval:
    """Batched instance-SDF evaluation with everything the losses need.

    `psi` and `delta_s` cover all N points; `grad_psi`, `grad_template` and
    `jac_v` cover the J points that carry Jacobians, the last J of the
    batch (J = N unless `compose_forward` was given `value_rows`); `z` is
    the latent. A loss term reads one of these public fields. The private
    fields are what `compose_backward` reads besides: the prior, the
    predicted deformation net, and the hypernetwork, template and
    deformation caches.
    """

    psi: np.ndarray  # (N,) composed SDF
    grad_psi: np.ndarray  # (J, 3) spatial gradient of psi w.r.t. x
    grad_template: np.ndarray  # (J, 3) template gradient at y (unchained)
    delta_s: np.ndarray  # (N,)
    jac_v: np.ndarray  # (J, 3, 3)
    z: np.ndarray  # (latent_dim,)
    _prior: ShapePrior
    _deform: ad.MLPParams
    _h_caches: list
    _t_cache: object
    _d_cache: object


_TERM_FIELDS = tuple(f.name for f in dataclass_fields(ComposedEval) if not f.name.startswith("_"))  # terms read these


def compose_forward(prior, z, pts, value_rows=0):
    """Evaluate sdf(x) = template(x + v(x)) + delta_s(x) over a batch, with
    the deformation net the hypernetworks predict from the latent `z`.

    The first `value_rows` points get values only: the spatial Jacobians in
    the returned ComposedEval cover the points after them.
    """
    deform, h_caches = hyper_forward(prior, z)
    z = check_shape("latent", z, (prior.latent_dim,))  # as hyper_forward read it
    pts = check_shape("points", pts, ("N", 3))
    d_out, d_jac, d_cache = ad.forward_aug(deform, pts, value_rows)  # (v, delta_s) and its Jacobian
    t_out, t_jac, t_cache = ad.forward_aug(prior.template, pts + d_out[:, :3], value_rows)
    delta_s, jac_v, grad_t = d_out[:, 3], d_jac[:, :3, :], t_jac[:, 0, :]
    # chain rule: grad psi = (I + dv/dx)^T grad_T + grad delta_s
    grad_psi = np.einsum("nik,ni->nk", jac_v + np.eye(3), grad_t) + d_jac[:, 3, :]
    psi = t_out[:, 0] + delta_s
    return ComposedEval(psi, grad_psi, grad_t, delta_s, jac_v, z, prior, deform, h_caches, t_cache, d_cache)


def compose_value(template, deform, pts):
    """Value-only composed SDF (used by isosurface extraction)."""
    check_type("template", template, ad.MLPParams, "an MLPParams")
    check_type("deform", deform, ad.MLPParams, "an MLPParams")
    pts = check_shape("points", pts, ("N", 3))
    d_out = ad.forward(deform, pts)
    y = pts + d_out[:, :3]
    return ad.forward(template, y)[:, 0] + d_out[:, 3]


def weigh_terms(ev, table, weights):
    """The one place both objectives weigh their terms.

    `table` maps each term to (the ComposedEval field it reads, its rows,
    value, adjoint), unweighted as an `autodiff` term helper returns them;
    `weights` is the objective's own row of the same terms. Returns each
    term's float value and their weighted "total", and one adjoint per
    field (zero where no term reads it) for `compose_backward`: both are
    summed in the row's order.
    """
    if set(table) != set(weights):
        raise StructuralError(f"loss terms {sorted(table)} do not match weighted terms {sorted(weights)}")
    terms = {}
    adjoints = {name: np.zeros(np.shape(getattr(ev, name))) for name in _TERM_FIELDS}
    for term, w in weights.items():
        name, rows, value, adjoint = table[term]
        terms[term] = float(value)
        adjoints[name][rows] += w * adjoint
    terms["total"] = sum(w * terms[k] for k, w in weights.items())
    return terms, adjoints


def compose_backward(ev, adjoints, inputs_only=False):
    """Adjoint of compose_forward, through the hypernetworks to the latent.

    `adjoints` maps each public field of the ComposedEval `ev` to the loss
    adjoint of that field, shaped like it, as `weigh_terms` builds it; a
    missing or unknown field or a wrong shape is a StructuralError naming
    the field. Returns (template MLPGrads, per-hypernetwork MLPGrads,
    latent gradient, which includes the adjoint of `z`, gradient w.r.t. the
    input points). With `inputs_only` both weight-gradient items are None;
    the deformation net's weight gradients are still computed, since they
    are the adjoint that the hypernetworks push into the latent.
    """
    check_type("adjoints", adjoints, Mapping, "a mapping")
    bad = sorted(set(adjoints) ^ set(_TERM_FIELDS), key=str)
    if bad:
        raise StructuralError(f"{'unknown' if bad[0] in adjoints else 'missing'} adjoint of field {bad[0]!r}")
    d = {name: check_shape(f"adjoint of {name}", adjoints[name], np.shape(getattr(ev, name))) for name in _TERM_FIELDS}
    # psi = t_val + delta_s; grad_psi = A^T grad_t + grad_ds, A = I + jac_v
    g_ds = d["psi"] + d["delta_s"]
    g_grad_t = np.einsum("nik,nk->ni", ev.jac_v + np.eye(3), d["grad_psi"]) + d["grad_template"]
    g_jac_v = np.einsum("ni,nk->nik", ev.grad_template, d["grad_psi"]) + d["jac_v"]
    t_grads, g_y = ad.backward(
        ev._prior.template, ev._t_cache, d["psi"][:, None], g_grad_t[:, None, :], inputs_only=inputs_only
    )
    gy4 = np.concatenate([g_y, g_ds[:, None]], axis=1)
    gjac4 = np.concatenate([g_jac_v, d["grad_psi"][:, None, :]], axis=1)
    d_grads, g_pts = ad.backward(ev._deform, ev._d_cache, gy4, gjac4)
    h_grads, g_z = hyper_backward(ev._prior, ev._h_caches, d_grads, inputs_only=inputs_only)
    # y = pts + v contributes to the point gradient directly
    return t_grads, h_grads, g_z + d["z"], g_pts + g_y


def instance_field(prior, z):
    """Batched value-only field closure for one latent (for meshing)."""
    deform, _ = hyper_forward(prior, z)
    return lambda pts: compose_value(prior.template, deform, pts)


# ---------------------------------------------------------------------------
# array names and checkpoints


def named_arrays(template, hyper, latents=None):
    """Template and hypernetwork weights and biases (or their gradients),
    then the entries of the `latents` mapping, by the module docstring's names."""
    out = {}
    for prefix, net in [("template", template), *((f"hyper.{i}", h) for i, h in enumerate(hyper))]:
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            out[f"{prefix}.{k}.w"] = w
            out[f"{prefix}.{k}.b"] = b
    out.update({f"latent.{iid}": z for iid, z in (latents or {}).items()})
    return out


def _count(sections, prefix):
    """1 + the largest index k of a `prefix.k...` section name, or 1 if there is none."""
    ks = [name[len(prefix) + 1 :].split(".")[0] for name in sections if name.startswith(prefix + ".")]
    return 1 + max((int(k) for k in ks if k.isdecimal()), default=0)


def _load_net(sections, prefix, activation):
    """The network stored as `prefix.k.w` / `.b`; a KeyError names a missing section."""
    n = _count(sections, prefix)
    weights = [sections[f"{prefix}.{k}.w"] for k in range(n)]
    biases = [sections[f"{prefix}.{k}.b"] for k in range(n)]
    return ad.MLPParams(weights, biases, activation)


def save_prior(prior, path):
    """Write the prior's `named_arrays`, latents in sorted id order, to the
    binary container at `path`, and its category, the sidecar's one key, to
    a JSON sidecar at `path` + '.json'."""
    check_type("prior", prior, ShapePrior, "a ShapePrior")
    latents = {iid: prior.latents[iid] for iid in sorted(prior.latents)}
    save_container(path, named_arrays(prior.template, prior.hyper, latents))
    save_json(str(path) + ".json", {"category": prior.category})


def load_prior(path):
    """Read a prior `save_prior` wrote. A missing or malformed part, a
    sidecar key other than "category" (such as the sine frequency an older
    layout stored), or a section that is not one of the prior's `named_arrays`
    (such as the latent matrix of an older layout), raises DataError naming
    it."""
    sections = load_container(path)
    sidecar = load_json(str(path) + ".json")
    if not isinstance(sidecar, dict):
        raise DataError(f"checkpoint {path}: sidecar {path}.json is not a JSON object")
    extra = sorted(set(sidecar) - {"category"})
    if extra:
        raise DataError(f"checkpoint {path}: sidecar {path}.json holds keys other than 'category': {extra}")
    try:
        prior = ShapePrior(
            category=sidecar["category"],
            template=_load_net(sections, "template", ad.ACT_SINE),
            hyper=[_load_net(sections, f"hyper.{i}", ad.ACT_RELU) for i in range(_count(sections, "hyper"))],
            latents={n.removeprefix("latent."): z for n, z in sections.items() if n.startswith("latent.")},
        )
    except KeyError as e:
        raise DataError(f"checkpoint {path} is missing section or sidecar key {e}") from e
    except StructuralError as e:
        raise DataError(f"checkpoint {path} does not hold a valid prior: {e}") from e
    unknown = sorted(set(sections) - set(named_arrays(prior.template, prior.hyper, prior.latents)))
    if unknown:
        raise DataError(f"checkpoint {path} has sections that are not a prior's arrays: {unknown}")
    return prior
