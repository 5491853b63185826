"""Differentiable evaluation of small dense MLPs with sinusoidal activations.

The forward pass optionally carries, next to each layer activation, its
Jacobian with respect to a set of base coordinates (normally the 3D input
point). Losses may therefore reference the spatial gradient of the field.
A hand-written reverse pass differentiates this augmented computation,
yielding exact first-order gradients for every weight, bias and latent
input. Only the fixed layer structure below is supported; there is no
general computation graph, no GPU path and no second-order derivatives.

One private layer loop runs every forward pass; `forward` (values only,
nothing kept), `forward_cached` (values plus the intermediates `backward`
needs) and `forward_aug` (values, Jacobians and intermediates) are its
three entry points.

All arithmetic is float64 and fully vectorized over the point batch, so
identical inputs produce bit-identical outputs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

ACT_SINE = "sine"
ACT_RELU = "relu"
ACT_LINEAR = "linear"
_ACTIVATIONS = (ACT_SINE, ACT_RELU, ACT_LINEAR)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class MLPParams:
    """Weights of one dense MLP.

    weights[k] has shape (out_k, in_k), biases[k] shape (out_k,). The
    activation tag of layer k is one of "sine", "relu", "linear"; sine
    layers compute sin(omega0 * (W x + b)).
    """

    weights: list
    biases: list
    activations: tuple
    omega0: float = 30.0

    def __post_init__(self):
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.ascontiguousarray(b, dtype=np.float64) for b in self.biases]
        self.activations = tuple(self.activations)

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def in_dim(self):
        return self.weights[0].shape[1]

    @property
    def out_dim(self):
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self):
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def validate(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise StructuralError("weights and biases must be non-empty and aligned")
        if len(self.activations) != len(self.weights):
            raise StructuralError("one activation tag required per layer")
        if not self.omega0 > 0:
            raise StructuralError(f"omega0 must be positive, got {self.omega0}")
        prev_out = None
        for k, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in _ACTIVATIONS:
                raise StructuralError(f"layer {k}: unknown activation tag {act!r}")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise StructuralError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if prev_out is not None and w.shape[1] != prev_out:
                raise StructuralError(
                    f"layer {k}: input dim {w.shape[1]} != previous output {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise StructuralError(f"layer {k}: non-finite parameter entries")
            prev_out = w.shape[0]
        return self


def siren_init(layer_sizes, rng, omega0=30.0, final_activation=ACT_LINEAR):
    """Standard sinusoidal-network init.

    First layer uniform in [-1/in, 1/in]; later layers uniform in
    [-sqrt(6/in)/omega0, sqrt(6/in)/omega0]. The last layer uses
    `final_activation`, all earlier layers are sine.
    """
    weights, biases, acts = [], [], []
    n = len(layer_sizes) - 1
    for k in range(n):
        fan_in, fan_out = layer_sizes[k], layer_sizes[k + 1]
        if k == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in) / omega0
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
        acts.append(final_activation if k == n - 1 else ACT_SINE)
    return MLPParams(weights, biases, tuple(acts), omega0)


@dataclass
class MLPGrads:
    """Gradient arrays mirroring MLPParams layer shapes."""

    weights: list
    biases: list


def pack_params(weights, biases):
    """Flatten per-layer (W, b) pairs into one vector: row-major W then b."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)])


def unpack_params(vec, like):
    """Inverse of pack_params, shaped after the MLPParams `like`."""
    weights, biases = [], []
    off = 0
    for w, b in zip(like.weights, like.biases):
        weights.append(vec[off : off + w.size].reshape(w.shape))
        off += w.size
        biases.append(vec[off : off + b.size].copy())
        off += b.size
    if off != vec.size:
        raise StructuralError(f"parameter vector has {vec.size} entries, expected {off}")
    return weights, biases


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardCache:
    """Intermediates retained for the reverse pass."""

    x: np.ndarray
    layers: list = field(default_factory=list)  # (z_prev, jac_prev, pre, jac_pre)
    track_jac: bool = False


def _as_batch(x, in_dim):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise StructuralError(f"input shape {x.shape} incompatible with network input dim {in_dim}")
    return x, single


def _layers(params, x, jac=None, keep=False):
    """The forward layer loop shared by every entry point below.

    Propagates the Jacobian `jac` (N, in, K) alongside the values when it
    is given. With `keep`, returns a ForwardCache holding each layer's
    (z_prev, jac_prev, pre, jac_pre); otherwise nothing is retained, so a
    value-only pass over a large batch holds one layer at a time.
    """
    cache = ForwardCache(x=x, track_jac=jac is not None) if keep else None
    omega = params.omega0
    z = x
    jac_pre = None
    for w, b, act in zip(params.weights, params.biases, params.activations):
        pre = z @ w.T + b
        if jac is not None:
            jac_pre = np.matmul(w, jac)
        if keep:
            cache.layers.append((z, jac, pre, jac_pre))
        if act == ACT_SINE:
            # omega * pre is formed twice rather than held: in a value-only
            # pass that extra (N, width) array would raise peak memory
            if jac is not None:
                jac = (omega * np.cos(omega * pre))[:, :, None] * jac_pre
            z = np.sin(omega * pre)
        elif act == ACT_RELU:
            z = np.maximum(pre, 0.0)
            if jac is not None:
                jac = np.where((pre > 0.0)[:, :, None], jac_pre, 0.0)
        else:
            z = pre
            jac = jac_pre
    return z, jac, cache


def forward(params, x):
    """Value-only evaluation. x: (N, in) or (in,) -> (N, out) or (out,)."""
    x, single = _as_batch(x, params.in_dim)
    z, _, _ = _layers(params, x)
    return z[0] if single else z


def forward_aug(params, x, jac_in=None):
    """Evaluate the network and the Jacobian of its output.

    jac_in: (N, in, K) Jacobian of the input w.r.t. K base coordinates;
    identity (K = in) when omitted. Returns (y, jac, cache) with
    y (N, out), jac (N, out, K).
    """
    x, _ = _as_batch(x, params.in_dim)
    n = x.shape[0]
    if jac_in is None:
        jac = np.broadcast_to(np.eye(params.in_dim), (n, params.in_dim, params.in_dim)).copy()
    else:
        jac = np.asarray(jac_in, dtype=np.float64)
        if jac.shape[:2] != (n, params.in_dim):
            raise StructuralError(f"jac_in shape {jac.shape} incompatible with ({n}, {params.in_dim}, K)")
    return _layers(params, x, jac, keep=True)


def forward_cached(params, x):
    """Value-only evaluation retaining intermediates for backward()."""
    x, _ = _as_batch(x, params.in_dim)
    z, _, cache = _layers(params, x, keep=True)
    return z, cache


def backward(params, cache, gy, gjac=None):
    """Reverse pass through a forward_aug / forward_cached computation.

    gy: (N, out) adjoint of the output values; gjac: (N, out, K) adjoint of
    the output Jacobian (zero if omitted). Returns (MLPGrads, gx, gjac_in)
    where gx (N, in) and gjac_in (N, in, K) are the adjoints of the inputs;
    gjac_in is None when the forward did not track Jacobians.
    """
    omega = params.omega0
    gz = np.asarray(gy, dtype=np.float64)
    track = cache.track_jac
    if gjac is None and track:
        k_dim = cache.layers[0][1].shape[2]
        gjac = np.zeros((gz.shape[0], params.out_dim, k_dim))
    gweights = [None] * params.n_layers
    gbiases = [None] * params.n_layers
    for k in range(params.n_layers - 1, -1, -1):
        w = params.weights[k]
        act = params.activations[k]
        z_prev, jac_prev, pre, jac_pre = cache.layers[k]
        if act == ACT_SINE:
            c = omega * np.cos(omega * pre)
            gpre = gz * c
            if track:
                # d/dpre of jac_out = -omega^2 sin(omega pre) * jac_pre
                gpre = gpre - (omega * omega) * np.sin(omega * pre) * np.einsum(
                    "nok,nok->no", gjac, jac_pre
                )
                gjac_pre = gjac * c[:, :, None]
        elif act == ACT_RELU:
            m = pre > 0.0
            gpre = np.where(m, gz, 0.0)
            if track:
                gjac_pre = np.where(m[:, :, None], gjac, 0.0)
        else:
            gpre = gz
            if track:
                gjac_pre = gjac
        gw = gpre.T @ z_prev
        gb = gpre.sum(axis=0)
        gz = gpre @ w
        if track:
            gw = gw + np.einsum("nok,nik->oi", gjac_pre, jac_prev)
            gjac = np.matmul(w.T, gjac_pre)
        gweights[k] = gw
        gbiases[k] = gb
    return MLPGrads(gweights, gbiases), gz, (gjac if track else None)


# ---------------------------------------------------------------------------
# pointwise loss terms
#
# Each helper returns (term_value, adjoint) with the mean already taken over
# the batch, so combined losses stay decoupled from point counts.


def term_grad_alignment(jac, normals):
    """mean (1 - cos(g, n)) over points; adjoint w.r.t. jac.

    The inner product is normalized by ||g|| (the targets n are unit), which
    keeps the term in [0, 2]; the raw dot product would reward unbounded
    gradient growth along the normals.
    """
    norms = np.linalg.norm(jac, axis=1)
    safe = np.where(norms > 1e-300, norms, 1.0)
    dots = np.einsum("nk,nk->n", jac, normals)
    cos = np.where(norms > 1e-300, dots / safe, 0.0)
    val = (1.0 - cos).mean()
    gjac = -(normals - (cos / safe)[:, None] * jac) / safe[:, None] / jac.shape[0]
    return val, gjac


def term_eikonal(jac, weight=1.0):
    """mean | ||g|| - 1 |; adjoint of weight * term w.r.t. jac."""
    norms = np.linalg.norm(jac, axis=1)
    val = np.abs(norms - 1.0).mean()
    safe = np.where(norms > 1e-300, norms, 1.0)
    gjac = weight * (np.sign(norms - 1.0) / safe)[:, None] * jac / jac.shape[0]
    return val, gjac


def term_latent_l2(z):
    """||z||_2 and its adjoint (zero at the origin)."""
    norm = float(np.linalg.norm(z))
    gz = z / norm if norm > 0 else np.zeros_like(z)
    return norm, gz


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam over a dict of named float64 arrays, with lazy per-key state."""

    def __init__(self, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = {}
        self.v = {}
        self.t = {}

    def step(self, params, grads, lr=None):
        """In-place update of every key present in `grads`."""
        lr = self.lr if lr is None else lr
        for key, g in grads.items():
            p = params[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
                self.t[key] = 0
            self.t[key] += 1
            t = self.t[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            mhat = m / (1.0 - self.beta1**t)
            vhat = v / (1.0 - self.beta2**t)
            p -= lr * mhat / (np.sqrt(vhat) + self.eps)
