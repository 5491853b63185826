"""Prior training: the SDF regression loss and the auto-decoder loop.

The full objective combines a four-term SDF regression loss (value
regression, surface normal alignment, eikonal unit-gradient, and a spike
penalty discouraging spurious zero crossings off the surface) with
regularizers for template-normal consistency, latent magnitude,
deformation smoothness and correction magnitude. Every sum over a point
set is a mean, so the weights stay decoupled from sample counts. The
weights are constants, one row of TERM_WEIGHTS per category.

`shape_terms` is the one implementation of this objective: it returns
every term's value and the exact gradients w.r.t. template weights,
hypernetwork weights and the latent. Its terms are a table, weighed in
`fields.weigh_terms`, so a term is added or dropped by one table entry and
one weight. The objective of fitting a latent and a pose to one
observation is `inference.view_terms`.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields
from .errors import StructuralError, check_count, check_finite, check_real, check_type
from .rng import substream
from .synthdata.shapes import ShapeSampleSet

SPIKE_DELTA = 100.0  # sharpness of the spike penalty exp(-delta |psi|)
# objective weights of each category, in the order `shape_terms` sums them;
# template_normal, latent, smooth and correction are lambda_1 .. lambda_4
_BASE_WEIGHTS = {
    "sdf_value": 3e3,
    "sdf_normal": 1e2,
    "sdf_eikonal": 5e1,
    "sdf_spike": 5e2,
    "template_normal": 1e2,
    "latent": 5.0,
    "smooth": 1e2,
    "correction": 1e6,
}
TERM_WEIGHTS = {
    "sphere": {**_BASE_WEIGHTS},
    "car": {**_BASE_WEIGHTS},
    "chair": {**_BASE_WEIGHTS, "smooth": 5e1},
    "plane": {**_BASE_WEIGHTS, "latent": 2.0},
}


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


def shape_terms(prior, z, samples):
    """Evaluate every loss term for one shape and its exact gradients
    w.r.t. template weights, hypernetwork weights and the latent, from one
    `fields.compose_forward` and one `fields.compose_backward` call.

    Each term is listed with the field and rows it reads, unweighted, and
    `fields.weigh_terms` weighs them by the prior category's row of
    TERM_WEIGHTS, read here. Returns (terms, (template_grads, hyper_grads,
    latent_grad)); terms holds each term of the row and their weighted
    total.
    """
    weights = TERM_WEIGHTS[check_type("prior", prior, fields.ShapePrior, "a ShapePrior").category]
    check_type("samples", samples, ShapeSampleSet, "a ShapeSampleSet")
    n_s = len(samples.surface_points)
    ev = fields.compose_forward(prior, z, np.concatenate([samples.surface_points, samples.free_points]))
    targets = np.concatenate([np.zeros(n_s), samples.free_sdf])
    normals = samples.surface_normals
    surface, free, every = slice(None, n_s), slice(n_s, None), slice(None)
    spikes = np.exp(-SPIKE_DELTA * np.abs(ev.psi[free]))  # the spike penalty on free points
    table = {
        "sdf_value": ("psi", every, *ad.term_l1(ev.psi - targets)),
        "sdf_normal": ("grad_psi", surface, *ad.term_grad_alignment(ev.grad_psi[surface], normals)),
        "sdf_eikonal": ("grad_psi", every, *ad.term_eikonal(ev.grad_psi)),
        "sdf_spike": ("psi", free, spikes.mean(), -SPIKE_DELTA * np.sign(ev.psi[free]) * spikes / len(spikes)),
        # template-normal consistency at deformed surface points
        "template_normal": ("grad_template", surface, *ad.term_grad_alignment(ev.grad_template[surface], normals)),
        "latent": ("z", every, *ad.term_latent_l2(ev.z)),
        "smooth": ("jac_v", every, *ad.term_frobenius(ev.jac_v)),
        "correction": ("delta_s", every, *ad.term_l1(ev.delta_s)),
    }
    terms, adjoints = fields.weigh_terms(ev, table, weights)
    t_grads, h_grads, g_z, _ = fields.compose_backward(ev, adjoints)
    return terms, (t_grads, h_grads, g_z)


# ---------------------------------------------------------------------------
# auto-decoder training


def _subsample(sample_set, n_surface, n_free, rng):
    """`n_surface` + `n_free` of the set's points, which `fit` has checked
    it holds; a pool of exactly that size is used whole."""
    ns = len(sample_set.surface_points)
    nf = len(sample_set.free_points)
    si = rng.choice(ns, size=n_surface, replace=False) if n_surface < ns else slice(None)
    fi = rng.choice(nf, size=n_free, replace=False) if n_free < nf else slice(None)
    return ShapeSampleSet(
        sample_set.surface_points[si],
        sample_set.surface_normals[si],
        sample_set.free_points[fi],
        sample_set.free_sdf[fi],
    )


def fit(prior, dataset, config, on_epoch=None):
    """Jointly optimize template weights, hypernetwork weights and latents
    from a fresh Adam state, with the prior category's row of TERM_WEIGHTS.

    dataset: list of (instance_id, ShapeSampleSet) pairs, one per string
    instance id, each set holding at least the points per shape that
    `config` asks for; every entry is checked before the prior changes. The
    prior, valid since it was built, is trained in place: Adam steps its
    weight arrays and latents, and each id it has no latent for gets a
    fresh one. Per-epoch randomness is derived statelessly from (seed,
    epoch). `on_epoch(epoch, prior, optimizer, history)` is called after
    every epoch.

    Returns (prior, history, optimizer); history has one row per epoch: the
    epoch and the mean over shapes of each term, unweighted, and of the
    weighted total.
    """
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    check_type("dataset", dataset, (list, tuple), "a list or tuple of (instance id, ShapeSampleSet) pairs")
    check_type("config", config, TrainConfig, "a TrainConfig")
    check_type("on_epoch", on_epoch, (Callable, type(None)), "a callable or None")
    if not dataset:
        raise StructuralError("dataset is empty")
    ids = set()
    for i, entry in enumerate(dataset):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and isinstance(entry[1], ShapeSampleSet)):
            raise StructuralError(f"dataset entry {i} is not an (instance id, ShapeSampleSet) pair")
        iid = entry[0]
        if not isinstance(iid, str):  # a checkpoint section name would turn it into one
            raise StructuralError(f"dataset entry {i}: instance id {iid!r} is not a string")
        if iid in ids:
            raise StructuralError(f"dataset entry {i}: instance id {iid!r} appears more than once in the dataset")
        ids.add(iid)
        ns, nf = len(entry[1].surface_points), len(entry[1].free_points)
        if config.surface_points_per_shape > ns or config.free_points_per_shape > nf:
            raise StructuralError(
                f"dataset entry {i}: requested {config.surface_points_per_shape}/{config.free_points_per_shape}"
                f" points but sample set has {ns}/{nf}"
            )
    for iid, _ in dataset:  # a small random latent for each id the prior has none for
        if iid not in prior.latents:
            rng = substream(config.seed, "latent-init", iid)
            prior.latents[iid] = rng.normal(0.0, fields.LATENT_INIT_STD, prior.latent_dim)
    params = fields.named_arrays(prior.template, prior.hyper, prior.latents)  # live views
    net_keys = list(fields.named_arrays(prior.template, prior.hyper))
    optimizer = ad.Adam()
    history = []
    for epoch in range(config.epochs):
        rng = substream(config.seed, "train-epoch", epoch)
        order = rng.permutation(len(dataset))
        epoch_terms = dict.fromkeys((*TERM_WEIGHTS[prior.category], "total"), 0.0)
        for lo in range(0, len(order), config.batch_shapes):
            batch = order[lo : lo + config.batch_shapes]
            net_grads = {k: np.zeros_like(params[k]) for k in net_keys}
            latent_grads = {}
            for j in batch:
                iid, sample_set = dataset[j]
                sub = _subsample(sample_set, config.surface_points_per_shape, config.free_points_per_shape, rng)
                terms, (t_grads, h_grads, g_z) = shape_terms(prior, prior.latents[iid], sub)
                check_finite(f"epoch {epoch}, shape {iid!r}, loss terms", terms)
                shape_grads = fields.named_arrays(t_grads, h_grads, {iid: g_z})
                check_finite(f"epoch {epoch}, shape {iid!r}, gradients", shape_grads)
                for k, g in shape_grads.items():
                    if k in net_grads:
                        net_grads[k] += g
                    else:
                        latent_grads[k] = g
                for name in epoch_terms:
                    epoch_terms[name] += terms[name]
            scale = 1.0 / len(batch)
            for k in net_grads:
                net_grads[k] *= scale
            optimizer.step(params, net_grads, lr=config.lr)
            optimizer.step(params, latent_grads, lr=config.lr_latent)
        row = {"epoch": epoch}
        row.update({name: total / len(dataset) for name, total in epoch_terms.items()})
        history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, prior, optimizer, history)
    return prior, history, optimizer
