"""The deformable implicit shape prior.

A category is represented by a shared template SDF network plus a
deformation network whose weights are predicted from a per-instance
latent code by small hypernetworks (one per deformation layer). The
deformation maps an instance-space point to a template-space offset `v`
and a scalar SDF correction, so the instance SDF is

    sdf(x) = template(x + v(x)) + correction(x).

Forward evaluation tracks spatial Jacobians through the composition;
`compose_backward` and `hyper_backward` push loss adjoints all the way to
template weights, hypernetwork weights and the latent code.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DataError, StructuralError
from .formats import load_container, load_json, save_container, save_json
from .rng import substream

DEFORM_OUT_DIM = 4  # (v_x, v_y, v_z, delta_s)


@dataclass
class LatentCode:
    z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.z).all():
            raise StructuralError("latent code has non-finite entries")


@dataclass
class ShapePrior:
    """Trained (or freshly initialized) category prior."""

    category: str
    latent_dim: int
    template: ad.MLPParams
    deform_layout: ad.MLPParams  # shapes/tags; actual weights come from hyper
    hyper: list  # one MLPParams (relu net) per deformation layer
    latents: dict = field(default_factory=dict)  # instance id -> (n,) array
    meta: dict = field(default_factory=dict)

    def validate(self):
        self.template.validate()
        self.deform_layout.validate()
        if self.deform_layout.out_dim != DEFORM_OUT_DIM:
            raise StructuralError("deformation network must output (v, delta_s) in R^4")
        if len(self.hyper) != self.deform_layout.n_layers:
            raise StructuralError("one hypernetwork required per deformation layer")
        for k, h in enumerate(self.hyper):
            h.validate()
            if h.in_dim != self.latent_dim:
                raise StructuralError(f"hypernetwork {k} input dim != latent dim")
            want = self.deform_layout.weights[k].size + self.deform_layout.biases[k].size
            if h.out_dim != want:
                raise StructuralError(
                    f"hypernetwork {k} output size {h.out_dim} != layer parameter count {want}"
                )
        for iid, z in self.latents.items():
            if z.shape != (self.latent_dim,):
                raise StructuralError(f"latent {iid!r} has shape {z.shape}")
        return self

    def latent_stats(self):
        """Empirical mean and per-dimension std of the trained latent table."""
        if not self.latents:
            return np.zeros(self.latent_dim), np.full(self.latent_dim, 0.01)
        table = np.stack(list(self.latents.values()))
        return table.mean(axis=0), table.std(axis=0)


def init_prior(
    category,
    latent_dim=128,
    template_hidden=(128, 128, 128),
    deform_hidden=(128, 128, 128),
    hyper_hidden=256,
    omega0=30.0,
    seed=0,
):
    """Fresh prior with sinusoidal template/deformation nets and zero-centred
    hypernetworks that reproduce a standard sine-net init at z = 0."""
    rng = substream(seed, "init")
    template = ad.siren_init([3, *template_hidden, 1], rng, omega0=omega0)
    layout = ad.siren_init([3, *deform_hidden, DEFORM_OUT_DIM], rng, omega0=omega0)
    # start the deformation at exactly zero so the composition is the
    # identity and the correction term does not inject early noise
    layout.weights[-1][:] = 0.0
    layout.biases[-1][:] = 0.0
    hyper = []
    for k in range(layout.n_layers):
        target = ad.pack_params([layout.weights[k]], [layout.biases[k]])
        bound = np.sqrt(6.0 / latent_dim)
        w0 = rng.uniform(-bound, bound, size=(hyper_hidden, latent_dim))
        b0 = np.zeros(hyper_hidden)  # zero hidden bias: hyper(0) == final bias
        scale = 1e-2 * np.sqrt(6.0 / hyper_hidden)
        w1 = rng.uniform(-scale, scale, size=(target.size, hyper_hidden))
        hyper.append(ad.MLPParams([w0, w1], [b0, target], ("relu", "linear")))
    return ShapePrior(category, latent_dim, template, layout, hyper).validate()


# ---------------------------------------------------------------------------
# hypernetwork


def hyper_forward(prior, z):
    """Predict deformation weights from a latent code, keeping caches."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (prior.latent_dim,):
        raise StructuralError(f"latent has shape {z.shape}, expected ({prior.latent_dim},)")
    weights, biases, caches = [], [], []
    for k, h in enumerate(prior.hyper):
        out, cache = ad.forward_cached(h, z[None, :])
        w_like = prior.deform_layout.weights[k]
        b_like = prior.deform_layout.biases[k]
        flat = out[0]
        weights.append(flat[: w_like.size].reshape(w_like.shape))
        biases.append(flat[w_like.size :].copy())
        caches.append(cache)
    params = ad.MLPParams(
        weights, biases, prior.deform_layout.activations, prior.deform_layout.omega0
    )
    return params, caches


def hyper_backward(prior, caches, deform_grads, inputs_only=False):
    """Push adjoints of the predicted deformation weights through the
    hypernetworks. Returns (per-hyper MLPGrads, latent gradient); with
    `inputs_only` only the latent gradient is computed and the first item
    is None."""
    g_z = np.zeros(prior.latent_dim)
    hyper_grads = []
    for k, (h, cache) in enumerate(zip(prior.hyper, caches)):
        flat = np.concatenate(
            [deform_grads.weights[k].ravel(), deform_grads.biases[k]]
        )
        grads, gz = ad.backward(h, cache, flat[None, :], inputs_only=inputs_only)
        hyper_grads.append(grads)
        g_z += gz[0]
    return (None if inputs_only else hyper_grads), g_z


# ---------------------------------------------------------------------------
# field evaluation


@dataclass
class ComposedEval:
    """Batched instance-SDF evaluation with everything the losses need."""

    psi: np.ndarray  # (N,) composed SDF
    grad_psi: np.ndarray  # (N, 3) spatial gradient of psi w.r.t. x
    grad_template: np.ndarray  # (N, 3) template gradient at y (unchained)
    delta_s: np.ndarray  # (N,)
    jac_v: np.ndarray  # (N, 3, 3)
    _t_cache: object = None
    _d_cache: object = None


def compose_forward(template, deform, pts):
    """Evaluate sdf(x) = template(x + v(x)) + delta_s(x) over a batch."""
    pts = np.asarray(pts, dtype=np.float64)
    d_out, d_jac, d_cache = ad.forward_aug(deform, pts)
    v = d_out[:, :3]
    delta_s = d_out[:, 3]
    jac_v = d_jac[:, :3, :]
    grad_ds = d_jac[:, 3, :]
    y = pts + v
    t_out, t_jac, t_cache = ad.forward_aug(template, y)
    t_val = t_out[:, 0]
    grad_t = t_jac[:, 0, :]
    # chain rule: grad psi = (I + dv/dx)^T grad_T + grad delta_s
    a = jac_v + np.eye(3)
    grad_psi = np.einsum("nik,ni->nk", a, grad_t) + grad_ds
    return ComposedEval(
        psi=t_val + delta_s,
        grad_psi=grad_psi,
        grad_template=grad_t,
        delta_s=delta_s,
        jac_v=jac_v,
        _t_cache=t_cache,
        _d_cache=d_cache,
    )


def compose_value(template, deform, pts):
    """Value-only composed SDF (used by isosurface extraction)."""
    pts = np.asarray(pts, dtype=np.float64)
    d_out = ad.forward(deform, pts)
    y = pts + d_out[:, :3]
    return ad.forward(template, y)[:, 0] + d_out[:, 3]


def compose_backward(
    template,
    deform,
    ev,
    d_psi=None,
    d_grad_psi=None,
    d_grad_template=None,
    d_jac_v=None,
    d_delta_s=None,
    inputs_only=False,
):
    """Adjoint of compose_forward.

    Inputs are adjoints of the ComposedEval fields (None = zero). Returns
    (template MLPGrads, deform MLPGrads, gradient w.r.t. the input points).
    With `inputs_only` the template's weight gradients are skipped and
    returned as None; the deformation's are always computed, since they are
    the adjoint that `hyper_backward` pushes into the latent.
    """
    n = ev.psi.shape[0]
    d_psi = np.zeros(n) if d_psi is None else d_psi
    d_grad_psi = np.zeros((n, 3)) if d_grad_psi is None else d_grad_psi
    a = ev.jac_v + np.eye(3)
    # psi = t_val + delta_s; grad_psi = A^T grad_t + grad_ds
    g_tval = d_psi.copy()
    g_ds = d_psi.copy()
    if d_delta_s is not None:
        g_ds += d_delta_s
    g_grad_t = np.einsum("nik,nk->ni", a, d_grad_psi)
    if d_grad_template is not None:
        g_grad_t += d_grad_template
    g_jac_v = np.einsum("ni,nk->nik", ev.grad_template, d_grad_psi)
    if d_jac_v is not None:
        g_jac_v += d_jac_v
    g_grad_ds = d_grad_psi
    t_grads, g_y = ad.backward(
        template, ev._t_cache, g_tval[:, None], g_grad_t[:, None, :], inputs_only=inputs_only
    )
    gy4 = np.concatenate([g_y, g_ds[:, None]], axis=1)
    gjac4 = np.concatenate([g_jac_v, g_grad_ds[:, None, :]], axis=1)
    d_grads, g_pts = ad.backward(deform, ev._d_cache, gy4, gjac4)
    # y = pts + v contributes to the point gradient directly
    return t_grads, d_grads, g_pts + g_y


def instance_field(prior, z):
    """Batched value-only field closure for one latent (for meshing)."""
    deform, _ = hyper_forward(prior, z)

    def field_fn(pts):
        return compose_value(prior.template, deform, pts)

    return field_fn


# ---------------------------------------------------------------------------
# checkpoints


def save_prior(prior, path):
    """Binary container at `path` plus a JSON sidecar at `path` + '.json'."""
    prior.validate()
    sections = {"template": prior.template, "deform_layout": prior.deform_layout}
    for k, h in enumerate(prior.hyper):
        sections[f"hyper.{k}"] = h
    ids = sorted(prior.latents)
    if ids:
        sections["latent_table"] = np.stack([prior.latents[i] for i in ids])
    save_container(path, sections)
    sidecar = {
        "category": prior.category,
        "latent_dim": prior.latent_dim,
        "instance_ids": ids,
        "meta": prior.meta,
    }
    save_json(str(path) + ".json", sidecar)


def load_prior(path):
    sections = load_container(path)
    sidecar = load_json(str(path) + ".json")
    try:
        hyper = [sections[f"hyper.{k}"] for k in range(len(sections["deform_layout"].weights))]
        latents = {}
        ids = sidecar["instance_ids"]
        if ids:
            table = sections["latent_table"]
            latents = {iid: table[i].copy() for i, iid in enumerate(ids)}
        prior = ShapePrior(
            category=sidecar["category"],
            latent_dim=int(sidecar["latent_dim"]),
            template=sections["template"],
            deform_layout=sections["deform_layout"],
            hyper=hyper,
            latents=latents,
            meta=sidecar.get("meta", {}),
        )
    except KeyError as e:
        raise DataError(f"checkpoint {path} is missing section {e}") from e
    return prior.validate()
