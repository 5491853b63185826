"""Prior training: the SDF regression loss and the auto-decoder loop.

The full objective combines a four-term SDF regression loss (value
regression, surface normal alignment, eikonal unit-gradient, and a spike
penalty discouraging spurious zero crossings off the surface) with
regularizers for template-normal consistency, latent magnitude,
deformation smoothness and correction magnitude. Every sum over a point
set is a mean, so the weights stay decoupled from sample counts.

`shape_terms` is the one implementation of this objective: it returns
every term's value and the exact gradients w.r.t. template weights,
hypernetwork weights and the latent. The objective of fitting a
latent and a pose to one observation is `inference.view_terms`.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import fields
from .errors import StructuralError, check_count, check_finite, check_real
from .rng import substream
from .synthdata.shapes import ShapeSampleSet, check_category

# latent (lambda_2) and smoothness (lambda_3) weights of each category
_CATEGORY_WEIGHTS = {"sphere": (5.0, 1e2), "car": (5.0, 1e2), "chair": (5.0, 5e1), "plane": (2.0, 1e2)}


@dataclass(frozen=True)
class LossWeights:
    """Loss-term weights; defaults follow the standard SDF-regression recipe."""

    sdf_value: float = 3e3
    sdf_normal: float = 1e2
    sdf_eikonal: float = 5e1
    sdf_spike: float = 5e2
    spike_delta: float = 100.0
    template_normal: float = 1e2  # lambda_1
    latent: float = 5.0  # lambda_2
    smooth: float = 1e2  # lambda_3
    correction: float = 1e6  # lambda_4

    def __post_init__(self):
        for name, value in asdict(self).items():
            check_real(f"loss weight {name}", value)
        check_real("spike_delta", self.spike_delta, 10.0)  # a sharp spike penalty

    @classmethod
    def for_category(cls, category):
        """The weights of a category of synthdata.CATEGORIES."""
        latent, smooth = _CATEGORY_WEIGHTS[check_category(category)]
        return cls(latent=latent, smooth=smooth)


# the weighted loss terms, in the order `_weighted_total` sums them
TERM_NAMES = tuple(name for name in asdict(LossWeights()) if name != "spike_delta")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_shapes: int = 128
    surface_points_per_shape: int = 4000
    free_points_per_shape: int = 4000
    lr: float = 1e-4
    lr_latent: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_count("epochs", self.epochs, 0)
        for name in ("batch_shapes", "surface_points_per_shape", "free_points_per_shape"):
            check_count(name, getattr(self, name))
        for name in ("lr", "lr_latent"):
            check_real(name, getattr(self, name), strict=True)
        check_count("seed", self.seed, 0)


# ---------------------------------------------------------------------------
# the loss


def _weighted_total(terms, weights):
    return sum(getattr(weights, k) * terms[k] for k in TERM_NAMES)


def shape_terms(prior, z, samples, weights):
    """Evaluate every loss term for one shape and its exact gradients
    w.r.t. template weights, hypernetwork weights and the latent.

    Returns (terms_dict, (template_grads, hyper_grads, latent_grad)).
    """
    n_s = len(samples.surface_points)
    pts = np.concatenate([samples.surface_points, samples.free_points])
    n = pts.shape[0]
    targets = np.concatenate([np.zeros(n_s), samples.free_sdf])
    normals = samples.surface_normals

    deform, h_caches = fields.hyper_forward(prior, z)
    ev = fields.compose_forward(prior.template, deform, pts)

    terms = {}
    d_psi = np.zeros(n)
    d_grad_psi = np.zeros((n, 3))
    d_grad_template = np.zeros((n, 3))
    d_jac_v = np.zeros((n, 3, 3))
    d_delta_s = np.zeros(n)

    # SDF value regression over all sampled points
    r = ev.psi - targets
    terms["sdf_value"] = float(np.abs(r).mean())
    d_psi += weights.sdf_value * np.sign(r) / n

    # composed-field normal alignment (cosine) on the surface
    val, g = ad.term_grad_alignment(ev.grad_psi[:n_s], normals)
    terms["sdf_normal"] = float(val)
    d_grad_psi[:n_s] += weights.sdf_normal * g

    # eikonal over all sampled points
    val, g = ad.term_eikonal(ev.grad_psi, weights.sdf_eikonal)
    terms["sdf_eikonal"] = float(val)
    d_grad_psi += g

    # spike penalty on free-space points only
    spikes = np.exp(-weights.spike_delta * np.abs(ev.psi[n_s:]))
    terms["sdf_spike"] = float(spikes.mean())
    n_f = n - n_s
    d_psi[n_s:] += (
        weights.sdf_spike * (-weights.spike_delta) * np.sign(ev.psi[n_s:]) * spikes / n_f
    )

    # template-normal consistency (cosine) at deformed surface points
    val, g = ad.term_grad_alignment(ev.grad_template[:n_s], normals)
    terms["template_normal"] = float(val)
    d_grad_template[:n_s] += weights.template_normal * g

    # smooth deformation over all sampled points
    fro = np.sqrt((ev.jac_v**2).sum(axis=(1, 2)))
    terms["smooth"] = float(fro.mean())
    safe_fro = np.where(fro > 1e-300, fro, 1.0)
    d_jac_v += weights.smooth * ev.jac_v / safe_fro[:, None, None] / n

    # small corrections over all sampled points
    terms["correction"] = float(np.abs(ev.delta_s).mean())
    d_delta_s += weights.correction * np.sign(ev.delta_s) / n

    # latent magnitude
    z_norm, g_z_reg = ad.term_latent_l2(z)
    terms["latent"] = z_norm

    terms["total"] = float(_weighted_total(terms, weights))

    t_grads, d_grads, _ = fields.compose_backward(
        prior.template,
        deform,
        ev,
        d_psi=d_psi,
        d_grad_psi=d_grad_psi,
        d_grad_template=d_grad_template,
        d_jac_v=d_jac_v,
        d_delta_s=d_delta_s,
    )
    h_grads, g_z = fields.hyper_backward(prior, h_caches, d_grads)
    g_z = g_z + weights.latent * g_z_reg
    return terms, (t_grads, h_grads, g_z)


# ---------------------------------------------------------------------------
# auto-decoder training


def _subsample(sample_set, n_surface, n_free, rng):
    ns = len(sample_set.surface_points)
    nf = len(sample_set.free_points)
    if n_surface > ns or n_free > nf:
        raise StructuralError(
            f"requested {n_surface}/{n_free} points but sample set has {ns}/{nf}"
        )
    si = rng.choice(ns, size=n_surface, replace=False) if n_surface < ns else slice(None)
    fi = rng.choice(nf, size=n_free, replace=False) if n_free < nf else slice(None)
    return ShapeSampleSet(
        sample_set.surface_points[si],
        sample_set.surface_normals[si],
        sample_set.free_points[fi],
        sample_set.free_sdf[fi],
    )


def init_latents(prior, ids, config):
    """Small random latent codes for every id in `ids` the prior has no latent for."""
    for iid in ids:
        if iid not in prior.latents:
            rng = substream(config.seed, "latent-init", iid)
            prior.latents[iid] = rng.normal(0.0, fields.LATENT_INIT_STD, prior.latent_dim)


def fit(prior, dataset, config, on_epoch=None):
    """Jointly optimize template weights, hypernetwork weights and latents
    from a fresh Adam state, with the prior category's loss weights.

    dataset: list of (instance_id, ShapeSampleSet), one entry per instance
    id. Per-epoch randomness is derived statelessly from (seed, epoch).
    `on_epoch(epoch, prior, optimizer, history)` is called after every
    epoch.

    Returns (prior, history, optimizer); history has one row of term means
    per epoch.
    """
    if not dataset:
        raise StructuralError("dataset is empty")
    ids = set()
    for iid, _ in dataset:
        if iid in ids:
            raise StructuralError(f"instance id {iid!r} appears more than once in the dataset")
        ids.add(iid)
    prior.validate()
    weights = LossWeights.for_category(prior.category)
    init_latents(prior, [iid for iid, _ in dataset], config)
    params = fields.named_arrays(prior.template, prior.hyper, prior.latents)  # live views
    net_keys = list(fields.named_arrays(prior.template, prior.hyper))
    optimizer = ad.Adam()
    history = []
    for epoch in range(config.epochs):
        rng = substream(config.seed, "train-epoch", epoch)
        order = rng.permutation(len(dataset))
        epoch_terms = {name: 0.0 for name in (*TERM_NAMES, "total")}
        seen = 0
        for lo in range(0, len(order), config.batch_shapes):
            batch = order[lo : lo + config.batch_shapes]
            net_grads = {k: np.zeros_like(params[k]) for k in net_keys}
            latent_grads = {}
            for j in batch:
                iid, sample_set = dataset[j]
                sub = _subsample(
                    sample_set,
                    config.surface_points_per_shape,
                    config.free_points_per_shape,
                    rng,
                )
                terms, (t_grads, h_grads, g_z) = shape_terms(prior, prior.latents[iid], sub, weights)
                check_finite(f"epoch {epoch}, shape {iid!r}, loss terms", terms)
                shape_grads = fields.named_arrays(t_grads, h_grads, {iid: g_z})
                check_finite(f"epoch {epoch}, shape {iid!r}, gradients", shape_grads)
                for k, g in shape_grads.items():
                    if k in net_grads:
                        net_grads[k] += g
                    else:
                        latent_grads[k] = g
                for name in TERM_NAMES:
                    epoch_terms[name] += terms[name]
                epoch_terms["total"] += terms["total"]
                seen += 1
            scale = 1.0 / len(batch)
            for k in net_grads:
                net_grads[k] *= scale
            optimizer.step(params, net_grads, lr=config.lr)
            optimizer.step(params, latent_grads, lr=config.lr_latent)
        row = {"epoch": epoch}
        row.update({name: epoch_terms[name] / max(seen, 1) for name in (*TERM_NAMES, "total")})
        history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, prior, optimizer, history)
    return prior, history, optimizer
