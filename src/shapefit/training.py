"""Prior training: the SDF regression loss and the auto-decoder loop.

The full objective combines a four-term SDF regression loss (value
regression, surface normal alignment, eikonal unit-gradient, and a spike
penalty discouraging spurious zero crossings off the surface) with
regularizers for template-normal consistency, latent magnitude,
deformation smoothness and correction magnitude. Every sum over a point
set is a mean, so the weights stay decoupled from sample counts.

`shape_terms` is the one implementation of this objective: it returns
every term's value and, on request, the exact gradients w.r.t. template
weights, hypernetwork weights and the latent. The objective of fitting a
latent and a pose to one observation is `inference.view_terms`.
"""

import csv
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import fields
from .errors import NumericError, StructuralError
from .rng import substream

LATENT_INIT_STD = 0.01  # std of the random codes of unseen training instances

TERM_NAMES = (
    "sdf_value",
    "sdf_normal",
    "sdf_eikonal",
    "sdf_spike",
    "template_normal",
    "latent",
    "smooth",
    "correction",
)


@dataclass
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

    def validate(self):
        for name, value in asdict(self).items():
            if value < 0:
                raise StructuralError(f"loss weight {name} must be >= 0")
        if self.spike_delta < 10:
            raise StructuralError("spike_delta must be >= 10 (sharp spike penalty)")
        return self

    @classmethod
    def for_category(cls, category):
        """Per-category latent / smoothness weights (car, plane, chair)."""
        lam2 = {"car": 5.0, "plane": 2.0, "chair": 5.0}.get(category, 5.0)
        lam3 = {"car": 1e2, "plane": 1e2, "chair": 5e1}.get(category, 1e2)
        return cls(latent=lam2, smooth=lam3)


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_shapes: int = 128
    surface_points_per_shape: int = 4000
    free_points_per_shape: int = 4000
    lr: float = 1e-4
    lr_latent: float = 1e-4
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise StructuralError("epochs must be >= 0")
        for name in ("batch_shapes", "surface_points_per_shape", "free_points_per_shape"):
            if getattr(self, name) <= 0:
                raise StructuralError(f"{name} must be positive")
        if self.lr <= 0 or self.lr_latent <= 0:
            raise StructuralError("learning rates must be positive")
        return self


# ---------------------------------------------------------------------------
# the loss


def _weighted_total(terms, weights):
    return sum(getattr(weights, k) * terms[k] for k in TERM_NAMES)


def shape_terms(prior, z, samples, weights, with_grads=False):
    """Evaluate every loss term for one shape; optionally also the exact
    gradients w.r.t. template weights, hypernetwork weights and the latent.

    Returns (terms_dict, grads) where grads is None or a tuple
    (template_grads, hyper_grads, latent_grad).
    """
    weights.validate()
    if samples.surface_normals is None or len(samples.surface_normals) == 0:
        raise StructuralError("surface samples must carry normals")
    if isinstance(z, fields.LatentCode):
        z = z.z
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
    if not with_grads:
        return terms, None

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


def _net_dict(template, hyper):
    """Template and hypernetwork arrays (parameters or their gradients),
    keyed for the optimizer."""
    out = {}
    for k, (w, b) in enumerate(zip(template.weights, template.biases)):
        out[f"template.{k}.w"] = w
        out[f"template.{k}.b"] = b
    for i, h in enumerate(hyper):
        for k, (w, b) in enumerate(zip(h.weights, h.biases)):
            out[f"hyper.{i}.{k}.w"] = w
            out[f"hyper.{i}.{k}.b"] = b
    return out


def _subsample(sample_set, n_surface, n_free, rng):
    ns = len(sample_set.surface_points)
    nf = len(sample_set.free_points)
    if n_surface > ns or n_free > nf:
        raise StructuralError(
            f"requested {n_surface}/{n_free} points but sample set has {ns}/{nf}"
        )
    si = rng.choice(ns, size=n_surface, replace=False) if n_surface < ns else slice(None)
    fi = rng.choice(nf, size=n_free, replace=False) if n_free < nf else slice(None)
    from .synthdata.shapes import ShapeSampleSet

    return ShapeSampleSet(
        sample_set.surface_points[si],
        sample_set.surface_normals[si],
        sample_set.free_points[fi],
        sample_set.free_sdf[fi],
    )


def init_latents(prior, instance_ids, config):
    """Small random latent codes for every unseen instance."""
    for iid in instance_ids:
        if iid not in prior.latents:
            rng = substream(config.seed, "latent-init", iid)
            prior.latents[iid] = rng.normal(0.0, LATENT_INIT_STD, prior.latent_dim)


def fit(prior, dataset, config, weights=None, start_epoch=0, optimizer=None, on_epoch=None):
    """Jointly optimize template weights, hypernetwork weights and latents.

    dataset: list of (instance_id, ShapeSampleSet). Per-epoch randomness is
    derived statelessly from (seed, epoch), so training can resume from any
    epoch boundary and reproduce the uninterrupted trace.

    Returns (prior, history, optimizer); history has one row of term means
    per epoch.
    """
    config.validate()
    if not dataset:
        raise StructuralError("dataset is empty")
    weights = (weights or LossWeights.for_category(prior.category)).validate()
    init_latents(prior, [iid for iid, _ in dataset], config)
    prior.validate()
    params = _net_dict(prior.template, prior.hyper)  # live views
    net_keys = list(params)
    params.update({f"latent.{iid}": z for iid, z in prior.latents.items()})
    if optimizer is None:
        optimizer = ad.Adam(lr=config.lr)
    history = []
    for epoch in range(start_epoch, config.epochs):
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
                terms, grads = shape_terms(
                    prior, prior.latents[iid], sub, weights, with_grads=True
                )
                if not np.isfinite(terms["total"]):
                    bad = [t for t, v in terms.items() if not np.isfinite(v)]
                    raise NumericError(
                        f"epoch {epoch}, shape {iid!r}: non-finite loss terms {bad}"
                    )
                t_grads, h_grads, g_z = grads
                shape_grads = _net_dict(t_grads, h_grads)
                shape_grads[f"latent.{iid}"] = g_z
                bad = [k for k, g in shape_grads.items() if not np.isfinite(g).all()]
                if bad:
                    raise NumericError(f"epoch {epoch}, shape {iid!r}: non-finite gradients {bad}")
                for k in net_keys:
                    net_grads[k] += shape_grads[k]
                latent_grads[f"latent.{iid}"] = g_z
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


def write_history_csv(history, path):
    """Loss history as CSV: epoch, every term mean, weighted total."""
    import os

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fields_ = ["epoch", *TERM_NAMES, "total"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields_)
        writer.writeheader()
        for row in history:
            writer.writerow({k: row[k] for k in fields_})


def read_history_csv(path):
    with open(path, "r", newline="") as f:
        return [
            {k: (int(v) if k == "epoch" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(f)
        ]
