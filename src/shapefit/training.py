"""Prior training: the SDF regression loss and the auto-decoder loop.

The full objective combines a four-term SDF regression loss (value
regression, surface normal alignment, eikonal unit-gradient, and a spike
penalty discouraging spurious zero crossings off the surface) with
regularizers for template-normal consistency, latent magnitude,
deformation smoothness and correction magnitude. Every sum over a point
set is a mean, so the weights stay decoupled from sample counts. The
weights are constants, one row of TERM_WEIGHTS per category.

`shape_terms` is the one implementation of this objective, for a batch of
shapes: it returns every shape's term values and the exact gradients of
the batch w.r.t. template weights, hypernetwork weights and each latent,
from one point pass per shape and one hypernetwork reverse pass per batch.
Its terms are a table, weighed in `fields.weigh_terms`, so a term is added
or dropped by one table entry and one weight. The objective of fitting a
latent and a pose to one observation is `inference.view_terms`.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fields
from .errors import StructuralError, check_count, check_finite, check_real, check_shape, check_type
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


def _shape_pass(prior, z, samples):
    """One shape's forward, term table and reverse pass down to the
    predicted deformation weights: (terms, template grads, deformation-net
    grads, adjoint of z). Its point caches die when it returns."""
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
    terms, adjoints = fields.weigh_terms(ev, table, TERM_WEIGHTS[prior.category])
    t_grads, d_grads, g_z, _ = fields.compose_backward(ev, adjoints)
    return terms, t_grads, d_grads, g_z


def shape_terms(prior, latents, sample_sets):
    """Evaluate every loss term for a batch of shapes and the exact
    gradients of the sum of their totals w.r.t. template weights,
    hypernetwork weights and each latent.

    latents: (B, latent_dim), row i the latent of `sample_sets[i]`. Each
    shape runs one `fields.compose_forward`, its term table and one
    `fields.compose_backward` in turn, so one shape's point caches are alive
    at a time; then one `fields.hyper_backward` takes all B deformation
    adjoints through the hypernetworks. Each term is listed with the field
    and rows it reads, unweighted, and `fields.weigh_terms` weighs them by
    the prior category's row of TERM_WEIGHTS. Returns (terms,
    (template_grads, hyper_grads, latent_grads)): terms holds one dict per
    shape with each term of the row and their weighted total; the network
    gradients are summed over the batch, and latent_grads is (B, latent_dim).
    """
    check_type("prior", prior, fields.ShapePrior, "a ShapePrior")
    check_type("sample_sets", sample_sets, (list, tuple), "a list or tuple of ShapeSampleSets")
    if not sample_sets:
        raise StructuralError("sample_sets is empty")
    for i, samples in enumerate(sample_sets):
        check_type(f"sample set {i}", samples, ShapeSampleSet, "a ShapeSampleSet")
    latents = check_shape("latents", latents, (len(sample_sets), prior.latent_dim))
    terms, d_grads, own_z = [], [], []
    t_grads = None
    for z, samples in zip(latents, sample_sets):
        row, t_shape, d_shape, g_z = _shape_pass(prior, z, samples)
        if t_grads is None:
            t_grads = t_shape
        else:
            for total, g in zip((*t_grads.weights, *t_grads.biases), (*t_shape.weights, *t_shape.biases)):
                total += g
        terms.append(row)
        d_grads.append(d_shape)
        own_z.append(g_z)
    h_grads, g_latents = fields.hyper_backward(prior, latents, d_grads)
    return terms, (t_grads, h_grads, g_latents + np.array(own_z))


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
    seen = set()
    for i, entry in enumerate(dataset):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and isinstance(entry[1], ShapeSampleSet)):
            raise StructuralError(f"dataset entry {i} is not an (instance id, ShapeSampleSet) pair")
        iid = entry[0]
        if not isinstance(iid, str):  # a checkpoint section name would turn it into one
            raise StructuralError(f"dataset entry {i}: instance id {iid!r} is not a string")
        if iid in seen:
            raise StructuralError(f"dataset entry {i}: instance id {iid!r} appears more than once in the dataset")
        seen.add(iid)
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
            batch = [dataset[j] for j in order[lo : lo + config.batch_shapes]]
            ids = [iid for iid, _ in batch]
            subs = [_subsample(s, config.surface_points_per_shape, config.free_points_per_shape, rng) for _, s in batch]
            terms, (t_grads, h_grads, g_latents) = shape_terms(prior, [prior.latents[iid] for iid in ids], subs)
            for iid, shape_row in zip(ids, terms):
                check_finite(f"epoch {epoch}, shape {iid!r}, loss terms", shape_row)
                for name in epoch_terms:
                    epoch_terms[name] += shape_row[name]
            grads = fields.named_arrays(t_grads, h_grads, dict(zip(ids, g_latents)))
            net_grads = {k: grads.pop(k) for k in net_keys}
            check_finite(f"epoch {epoch}, shapes {ids}, network gradients", net_grads)
            for iid, (k, g) in zip(ids, grads.items()):
                check_finite(f"epoch {epoch}, shape {iid!r}, latent gradient", {k: g})
            scale = 1.0 / len(ids)
            for g in net_grads.values():
                g *= scale
            optimizer.step(params, net_grads, lr=config.lr)
            optimizer.step(params, grads, lr=config.lr_latent)
        row = {"epoch": epoch}
        row.update({name: total / len(dataset) for name, total in epoch_terms.items()})
        history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, prior, optimizer, history)
    return prior, history, optimizer
