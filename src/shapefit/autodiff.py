"""Differentiable evaluation of small dense MLPs.

Every network has one form: hidden layers of one activation, sine
(sin(OMEGA0 (W x + b))) or ReLU, and a linear output layer. OMEGA0 is the
one sine frequency: the layer loop, `backward` and `siren_init` read it
when they are called, and no network stores it. The forward pass
optionally carries, next to each layer activation, its Jacobian with
respect to a set of base coordinates (normally the 3D input point). Losses
may therefore reference the spatial gradient of the field. A hand-written
reverse pass differentiates this augmented computation, yielding exact
first-order gradients for every weight, bias and latent input. There is
no general computation graph, no GPU path and no second-order derivatives.

One private layer loop runs every forward pass; `forward` (values only,
nothing kept), `forward_cached` (values plus the intermediates `backward`
needs) and `forward_aug` (values, Jacobians and intermediates) are its
three entry points. Every hidden layer takes one step: `_sine` or its twin
`_relu` gives the values and the derivative, which scales the Jacobian
forward and the adjoints in `backward`. Keeping passes store each layer's
input and derivative and, with Jacobians, its input and pre-activation
Jacobians, so `backward` evaluates no activation again.

A sine layer takes its value and derivative from one tangent of the half
angle: with t = tan(OMEGA0 pre / 2), 1 + cos(OMEGA0 pre) = 2 / (1 + t^2)
and sin(OMEGA0 pre) = t (1 + cos(OMEGA0 pre)). With NumPy 2.4 on an
AVX-512 x86 CPU, float64 `np.sin` and `np.cos` run scalar libm at 25-29 ns
per element and `np.tan` a vectorized kernel at 2.3-2.8 ns; sin plus cos
took ~90% of a `forward_aug` pass of the deformation net (1,978 points,
512 with Jacobians). The value and the derivative agree with libm's to
within 2 eps and 2 eps OMEGA0 (absolute); pre = 0 gives exactly
(0, OMEGA0), and a NaN or infinite pre gives NaN, as `np.sin` does.

Inside the forward and reverse loops a Jacobian with respect to K base
coordinates is held K-major, as a (K, J, width) array over the trailing
J <= N rows of the batch: a caller whose loss reads the spatial gradient
of only some points puts them last, and the leading rows carry values
alone. Each layer's tangent step, its adjoint and the Jacobian part of
its weight gradient are then single GEMMs over K*J rows. Callers see
(J, width, K): arrays are transposed only at the `forward_aug` /
`backward` boundary.

All arithmetic is float64 and fully vectorized over the point batch, so
identical inputs produce bit-identical outputs.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, check_count, check_real, check_shape, check_type

ACT_SINE = "sine"
ACT_RELU = "relu"
OMEGA0 = 30.0  # the frequency of every sine layer, the SIREN and DIF-Net value


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class MLPParams:
    """Weights of one dense MLP, checked when built.

    weights[k] has shape (out_k, in_k), biases[k] shape (out_k,): tuples of
    contiguous float64 arrays, writable since Adam steps them in place.
    `activation` ("sine" or "relu") applies to every layer but the last,
    which is linear; sine layers compute sin(OMEGA0 * (W x + b)). Entries
    may be non-finite: a deformation net `fields` predicts from a latent is
    checked by the loss that reads it, a prior's nets by `fields.ShapePrior`.
    """

    weights: tuple
    biases: tuple
    activation: str

    def __post_init__(self):
        for name, layers in (("weights", self.weights), ("biases", self.biases)):
            check_type(name, layers, (list, tuple), "a list or tuple of arrays")
        if not self.weights or len(self.weights) != len(self.biases):
            raise StructuralError("weights and biases must be non-empty and aligned")
        if self.activation not in (ACT_SINE, ACT_RELU):
            raise StructuralError(f"unknown activation tag {self.activation!r}")
        weights, biases, width = [], [], "N"  # width: the previous layer's output size
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            weights.append(np.ascontiguousarray(check_shape(f"layer {k} weight", w, ("N", width))))
            width = len(weights[-1])
            biases.append(np.ascontiguousarray(check_shape(f"layer {k} bias", b, (width,))))
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))

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


def siren_init(layer_sizes, rng):
    """Standard sinusoidal-network init: a sine net with a linear output,
    whose sine layers compute sin(OMEGA0 (W x + b)).

    First layer uniform in [-1/in, 1/in]; later layers uniform in
    [-sqrt(6/in)/OMEGA0, sqrt(6/in)/OMEGA0].
    """
    for k, size in enumerate(check_type("layer_sizes", layer_sizes, (list, tuple), "a list or tuple of widths")):
        check_count(f"layer size {k}", size)
    check_type("rng", rng, np.random.Generator, "a numpy Generator")
    weights, biases = [], []
    for k in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[k], layer_sizes[k + 1]
        if k == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in) / OMEGA0
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MLPParams(weights, biases, ACT_SINE)


@dataclass(frozen=True)
class MLPGrads:
    """Gradient arrays mirroring MLPParams layer shapes."""

    weights: list
    biases: list


# ---------------------------------------------------------------------------
# forward / backward


def _gemm(a, w):
    """(K, N, i) @ (i, o) -> (K, N, o) as one (K*N, i) GEMM."""
    return (a.reshape(-1, a.shape[2]) @ w).reshape(a.shape[0], a.shape[1], w.shape[1])


def _sine(pre, need_deriv):
    """sin(OMEGA0 pre), in place of pre, and its derivative OMEGA0
    cos(OMEGA0 pre) when `need_deriv` (else None), from one tangent of the
    half angle t = tan(OMEGA0 pre / 2): 1 + cos = 2 / (1 + t^2) and sin =
    t (1 + cos). The one array this allocates, 1 + cos, becomes the
    derivative."""
    t = np.tan(np.multiply(pre, 0.5 * OMEGA0, out=pre), out=pre)
    one_plus_cos = t * t
    one_plus_cos += 1.0
    np.divide(2.0, one_plus_cos, out=one_plus_cos)
    value = np.multiply(t, one_plus_cos, out=t)
    if not need_deriv:
        return value, None
    one_plus_cos -= 1.0
    one_plus_cos *= OMEGA0
    return value, one_plus_cos


def _relu(pre, need_deriv):
    """The twin of `_sine` for ReLU layers: max(pre, 0), in place of pre,
    and its derivative, the mask pre > 0, when `need_deriv` (else None)."""
    deriv = pre > 0.0 if need_deriv else None
    return np.maximum(pre, 0.0, out=pre), deriv


def _layers(params, x, jac=None, keep=False):
    """The forward layer loop shared by every entry point below.

    Propagates the K-major Jacobian `jac` (K, J, in) of the last J rows of
    x alongside the values when it is given, which only a keeping pass
    does. Every hidden layer takes one step: `_sine` or `_relu` activates
    the pre-activation in place and returns its derivative, which times
    the pre-activation Jacobian is the layer's Jacobian. With `keep`, the
    returned cache is a list whose item k is (z_prev, jac_prev, deriv,
    jac_pre) of layer k: its input values (N, in), input Jacobian
    (K, J, in), activation derivative (N, out; None for the linear output)
    and pre-activation Jacobian (K, J, out); the Jacobians are None
    without tracking. Without `keep` the cache is None and no derivative
    is formed, so a value-only pass allocates one (N, width) array per
    layer, plus the one that `_sine` forms, and only the current layer's
    input and output are alive at a time.
    """
    cache = [] if keep else None
    activate = _sine if params.activation == ACT_SINE else _relu
    last = params.n_layers - 1
    tail = slice(len(x) - jac.shape[1], None) if jac is not None else None
    z = x
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = z @ w.T
        pre += b
        jac_prev, jac_pre, deriv = jac, None, None
        if jac is not None:
            jac = jac_pre = _gemm(jac, w.T)
        if k == last:
            z_next = pre
        else:
            z_next, deriv = activate(pre, keep)
            if jac is not None:
                jac = deriv[tail] * jac_pre
        if keep:
            cache.append((z, jac_prev, deriv, jac_pre))
        z = z_next
    return z, jac, cache


def forward(params, x):
    """Value-only evaluation. x: (N, in) -> (N, out)."""
    z, _, _ = _layers(params, check_shape("network input", x, ("N", params.in_dim)))
    return z


def forward_aug(params, x, value_rows=0):
    """Evaluate the network and its Jacobian with respect to the input.

    Returns (y, jac, cache) with y (N, out) and jac (J, out, in), the
    Jacobian of the last J = N - value_rows rows of x; the first
    `value_rows` rows are evaluated for their values only, exactly as the
    others. Inside the layer loop the Jacobian is K-major, (K, J, width)
    with K = in, so that each layer's tangent step is one GEMM over K*J
    rows; `jac` is a transposed view of that array.
    """
    x = check_shape("network input", x, ("N", params.in_dim))
    check_count("value_rows", value_rows, 0)
    if value_rows > len(x):
        raise StructuralError(f"value_rows = {value_rows} exceeds the {len(x)} rows of the network input")
    k_dim = params.in_dim
    jac = np.ascontiguousarray(np.broadcast_to(np.eye(k_dim)[:, None, :], (k_dim, len(x) - value_rows, k_dim)))
    y, jac, cache = _layers(params, x, jac, keep=True)
    return y, jac.transpose(1, 2, 0), cache


def forward_cached(params, x):
    """Value-only evaluation retaining intermediates for backward()."""
    z, _, cache = _layers(params, check_shape("network input", x, ("N", params.in_dim)), keep=True)
    return z, cache


def backward(params, cache, gy, gjac=None, inputs_only=False):
    """Reverse pass through a forward_aug / forward_cached computation.

    gy: (N, out) adjoint of the output values; gjac: (J, out, K) adjoint of
    the output Jacobian of a forward_aug cache, whose Jacobian covers the
    last J rows (zero if omitted). Returns (MLPGrads, gx) with gx (N, in)
    the adjoint of the input points. With `inputs_only` the weight and
    bias gradients are skipped and the first item is None.

    The Jacobian adjoints run K-major like the forward pass: per layer, the
    weight gradient's Jacobian term and the adjoint step are each one GEMM
    over K*J rows. Every hidden layer's step multiplies both adjoints by
    the cached activation derivative; the second-order sine term, on the
    last J rows of the pre-activation adjoint, is the one line that
    depends on the activation, and it reads sin(OMEGA0 pre) as the next
    layer's input.
    """
    sine = params.activation == ACT_SINE
    gz = check_shape("gy", gy, (len(cache[0][0]), params.out_dim))
    if gjac is not None and cache[0][1] is None:
        raise StructuralError("gjac is given, but a forward_cached cache holds no Jacobian")
    track = gjac is not None  # a forward_aug cache
    if track:
        k_dim, j_rows, _ = cache[0][1].shape
        gjac = check_shape("gjac", gjac, (j_rows, params.out_dim, k_dim))
        gjac = np.ascontiguousarray(gjac.transpose(2, 0, 1))
        tail = slice(len(gz) - j_rows, None)
    n_layers = params.n_layers
    gweights = [None] * n_layers
    gbiases = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        w = params.weights[k]
        z_prev, jac_prev, deriv, jac_pre = cache[k]
        if k == n_layers - 1:
            gpre = gz
            if track:
                gjac_pre = gjac
        else:
            gpre = gz * deriv
            if track:
                if sine:  # d/dpre of jac_out = -OMEGA0^2 sin(OMEGA0 pre) * jac_pre
                    gpre[tail] -= (OMEGA0 * OMEGA0) * cache[k + 1][0][tail] * (gjac * jac_pre).sum(axis=0)
                gjac_pre = gjac * deriv[tail]
        if not inputs_only:
            gw = gpre.T @ z_prev
            if track:
                gw += gjac_pre.reshape(-1, w.shape[0]).T @ jac_prev.reshape(-1, w.shape[1])
            gweights[k] = gw
            gbiases[k] = gpre.sum(axis=0)
        gz = gpre @ w
        if track and k > 0:
            gjac = _gemm(gjac_pre, w)
    return (None if inputs_only else MLPGrads(gweights, gbiases)), gz


# ---------------------------------------------------------------------------
# loss terms
#
# Every term helper returns (value, adjoint): the term's unweighted mean over
# the batch (the latent's norm has no batch) and its adjoint w.r.t. the array
# it reads. No helper takes a weight: `fields.weigh_terms` weighs the terms
# by each objective's own table. A row of zero norm gets a zero adjoint.


def _norm(a, axis):
    """The norms of `a` over `axis` and their divisor in an adjoint: the
    norm, or inf where it is (near) zero, the one zero-norm guard."""
    norms = np.linalg.norm(a, axis=axis)
    return norms, np.where(norms > 1e-300, norms, np.inf)


def term_l1(r):
    """mean |r| over the batch; adjoint w.r.t. r."""
    return np.abs(r).mean(), np.sign(r) / len(r)


def term_grad_alignment(jac, normals):
    """mean (1 - cos(g, n)) over points; adjoint w.r.t. jac.

    The inner product is normalized by ||g|| (the targets n are unit), which
    keeps the term in [0, 2]; the raw dot product would reward unbounded
    gradient growth along the normals. A zero gradient counts cos = 0.
    """
    _, div = _norm(jac, 1)
    cos = np.einsum("nk,nk->n", jac, normals) / div
    gjac = -(normals - (cos / div)[:, None] * jac) / div[:, None] / len(jac)
    return (1.0 - cos).mean(), gjac


def term_eikonal(jac):
    """mean | ||g|| - 1 | over points; adjoint w.r.t. jac."""
    norms, div = _norm(jac, 1)
    return np.abs(norms - 1.0).mean(), (np.sign(norms - 1.0) / div)[:, None] * jac / len(jac)


def term_frobenius(jac):
    """mean ||J||_F over (N, a, b) Jacobians (smoothness); adjoint w.r.t. jac."""
    norms, div = _norm(jac, (1, 2))
    return norms.mean(), jac / div[:, None, None] / len(jac)


def term_latent_l2(z):
    """||z||_2; adjoint w.r.t. z."""
    norm, div = _norm(z, None)
    return float(norm), z / div


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam over a dict of named float64 arrays, with lazy per-key state.

    `step` streams each key through two buffers, BLOCK floats at a time
    (kept between steps, as long as the largest key or BLOCK), in place of
    the dozen full-size temporaries of the textbook expressions; each block
    takes the same operations in the same order, so the update is bit for
    bit the textbook one. A parameter that is not contiguous is stepped
    through a flat copy, written back.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    BLOCK = 16384  # floats per block: the two buffers take 256 KB

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = {}
        self._buf = np.empty((2, 0))

    def step(self, params, grads, lr):
        """In-place update of every key present in `grads`; each gradient
        must name a parameter and have its shape."""
        check_type("params", params, Mapping, "a mapping")
        check_type("grads", grads, Mapping, "a mapping")
        check_real("lr", lr)
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            if key not in params:
                raise StructuralError(f"gradient {key!r} has no parameter")
            p = params[key]
            g = check_shape(f"gradient {key!r}", g, p.shape).reshape(-1)
            if key not in self.m:
                self.m[key] = np.zeros(p.shape)
                self.v[key] = np.zeros(p.shape)
                self.t[key] = 0
            self.t[key] += 1
            t = self.t[key]
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            flat, m, v = p.reshape(-1), self.m[key].reshape(-1), self.v[key].reshape(-1)
            width = min(len(flat), self.BLOCK)
            if self._buf.shape[1] < width:
                self._buf = np.empty((2, width))
            for lo in range(0, len(flat), self.BLOCK):
                s = slice(lo, lo + self.BLOCK)
                mb, vb, gb = m[s], v[s], g[s]
                a, b = self._buf[:, : len(gb)]
                # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2
                mb *= b1
                mb += np.multiply(1.0 - b1, gb, out=a)
                vb *= b2
                vb += np.multiply(1.0 - b2, np.square(gb, out=a), out=a)
                # p -= lr mhat / (sqrt(vhat) + eps), mhat = m / c1, vhat = v / c2
                np.multiply(lr, np.divide(mb, c1, out=a), out=a)
                np.add(np.sqrt(np.divide(vb, c2, out=b), out=b), self.eps, out=b)
                flat[s] -= np.divide(a, b, out=a)
            if not np.may_share_memory(flat, p):
                p[...] = flat.reshape(p.shape)
