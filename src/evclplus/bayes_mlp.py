"""Mean-field Gaussian MLP with a shared body and task-specific heads.

Every weight and bias carries a mean and a log-variance.  A forward pass
draws theta = mu + exp(0.5 * log_var) * eps with eps ~ N(0,1) (the
reparameterization trick); the hand-derived backward pass then yields
gradients for both halves of each parameter:

    d_mu      = d_theta
    d_log_var = d_theta * eps * 0.5 * exp(0.5 * log_var)

A sampled pass takes each layer's whole column range at once: theta, the
noise eps and the standard deviations exp(0.5 * log_var), computed once per
pass, are flat slices over the layer's columns, and the cache keeps eps and
the standard deviations for the backward pass.

rng=None is the deterministic network everywhere: eps = 0, a plain MLP at
the means, and a single `posterior_predict` pass.  The forward and
backward passes take (B, input_dim) batches only; one input is a batch of
one row.

Layout.  All parameters of a network live in one float64 buffer `params`
of shape (2, P): row 0 holds the means and row 1 the log-variances.  The
columns hold the body layers in order, then the heads; each layer is its
weight (din, dout) in row-major order, then its bias (dout,).  The body
therefore fills the leading `body_cols` columns, and head h the `head_cols`
columns from body_cols + h * head_cols.  Every other per-parameter buffer
uses the same columns: gradients and Adam moments are (2, P) arrays, a
posterior snapshot is a (2, P) array with variances in row 1, and diagonal
Fisher information is a (P,) vector aligned with row 0.  `GaussianLayer`
names the views of one layer's columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import Array, SeededRng, log_softmax, relu

INIT_LOG_VAR = -6.0


@dataclass
class NetworkSpec:
    """Architecture: input -> hidden (relu) -> per-task linear head.

    hidden_dims may be empty, giving a bare linear softmax model.  A fresh
    network has one head; `add_head` appends more unless single_head.
    """

    input_dim: int
    hidden_dims: list
    head_dim: int
    single_head: bool = False

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.head_dim < 2:
            raise ValueError("head_dim must be >= 2")

    @property
    def head_shape(self):
        """(din, dout) of every head."""
        return (self.hidden_dims[-1] if self.hidden_dims else self.input_dim,
                self.head_dim)

    def body_shapes(self):
        """(din, dout) of each body layer, input side first."""
        dims = [self.input_dim] + list(self.hidden_dims)
        return list(zip(dims[:-1], dims[1:]))


def _n_cols(din: int, dout: int) -> int:
    return din * dout + dout


def _split(block: Array, din: int, dout: int):
    """(weight, bias) views of one layer's columns, the last axis of block.

    The weight view has shape (..., din, dout), the bias view (..., dout).
    """
    nw = din * dout
    return block[..., :nw].reshape(block.shape[:-1] + (din, dout)), block[..., nw:]


@dataclass
class GaussianLayer:
    """Views of one affine layer's columns: weight (din, dout), bias (dout,)."""

    cols: slice
    w_mu: Array
    w_log_var: Array
    b_mu: Array
    b_log_var: Array

    def split(self, buf: Array):
        """(weight, bias) views of this layer's columns of a (2, P) or (P,) buffer."""
        return _split(buf[..., self.cols], *self.w_mu.shape)


@dataclass
class BayesMlp:
    """A network's (2, P) parameter buffer plus named views of its layers.

    `body` and `heads` are rebuilt whenever `params` is reallocated (see
    add_head), so hold on to the network, not to its layers.
    """

    spec: NetworkSpec
    params: Array
    body: list = field(init=False)
    heads: list = field(init=False)

    def __post_init__(self):
        self._bind_views()

    def _bind_views(self):
        body_shapes = self.spec.body_shapes()
        n_heads = (self.params.shape[1] - self.body_cols) // self.head_cols
        layers, lo = [], 0
        for din, dout in body_shapes + [self.spec.head_shape] * n_heads:
            cols = slice(lo, lo + _n_cols(din, dout))
            w, b = _split(self.params[:, cols], din, dout)
            layers.append(GaussianLayer(cols, w[0], w[1], b[0], b[1]))
            lo = cols.stop
        if self.params.shape != (2, lo) or n_heads < 1:
            raise ValueError(f"parameter buffer {self.params.shape} does not fit "
                             f"the spec")
        self.body, self.heads = layers[:len(body_shapes)], layers[len(body_shapes):]

    @property
    def body_cols(self) -> int:
        return sum(_n_cols(din, dout) for din, dout in self.spec.body_shapes())

    @property
    def head_cols(self) -> int:
        return _n_cols(*self.spec.head_shape)

    @property
    def n_heads(self) -> int:
        return len(self.heads)


def layer_parts(net: BayesMlp):
    """(name, cols) of every weight and bias in column order, body first,
    e.g. ("body 0 weight", slice(0, 200704)) or ("head 1 bias", ...)."""
    for i, layer in enumerate(net.body + net.heads):
        name = f"body {i}" if i < len(net.body) else f"head {i - len(net.body)}"
        split = layer.cols.start + layer.w_mu.size
        yield f"{name} weight", slice(layer.cols.start, split)
        yield f"{name} bias", slice(split, layer.cols.stop)


def _init_params(shapes, rng: SeededRng) -> Array:
    """(2, n) columns of freshly initialized layers, drawn in one call.

    Means ~ N(0, 1/fan_in); one draw over all columns gives the same values
    as one draw per weight and bias in column order.  Log-variances start
    at INIT_LOG_VAR: a tight initial uncertainty.
    """
    params = np.empty((2, sum(_n_cols(din, dout) for din, dout in shapes)))
    params[0] = rng.standard_normal(params.shape[1])
    params[1] = INIT_LOG_VAR
    lo = 0
    for din, dout in shapes:
        params[0, lo:lo + _n_cols(din, dout)] *= 1.0 / np.sqrt(din)
        lo += _n_cols(din, dout)
    return params


def init_network(spec: NetworkSpec, rng: SeededRng) -> BayesMlp:
    """Fresh one-head network: means ~ N(0, 1/fan_in), log-variances INIT_LOG_VAR."""
    return BayesMlp(spec, _init_params(spec.body_shapes() + [spec.head_shape], rng))


def add_head(net: BayesMlp, rng: SeededRng) -> int:
    """Append a freshly initialized head's columns; existing values are untouched."""
    if net.spec.single_head:
        raise RuntimeError("cannot add a head to a single-head network")
    head = _init_params([net.spec.head_shape], rng)
    net.params = np.concatenate([net.params, head], axis=1)
    net._bind_views()
    return len(net.heads) - 1


@dataclass
class LayerCache:
    inp: Array      # (B, din) input to the affine
    eps: Array      # the layer's flat slice of the step's noise; None when eps = 0
    std: Array      # the layer's flat slice of exp(0.5 * log_var); None when eps = 0
    theta_w: Array  # sampled weights, shared across the batch; None in the
                    # first layer, whose input needs no gradient
    pre: Array      # (B, dout) pre-activation


@dataclass
class SampleCache:
    layers: list    # body caches then the head cache (last entry)
    head: int


def sample_forward(net: BayesMlp, x: Array, head: int, rng):
    """Sampled forward pass; one theta draw shared by all rows of x.

    The noise for the body and the routed head comes from one draw of
    body_cols + head_cols normals, in column order; theta = mu + std * eps,
    and the cache keeps eps and std = exp(0.5 * log_var) for backprop.
    x is a (B, input_dim) float batch; a single input is a batch of one
    row.  uint8 pixels are rejected: numerics.pixel_floats scales them.
    Returns (logits (B, head_dim), cache).
    """
    if not 0 <= head < len(net.heads):
        raise ValueError(f"head {head} out of range ({len(net.heads)} heads)")
    act = np.asarray(x)
    if act.dtype == np.uint8:
        raise ValueError("uint8 input batch: scale stored pixels with "
                         "numerics.pixel_floats before the network sees them")
    act = act.astype(np.float64, copy=False)
    if act.ndim != 2 or act.shape[1] != net.spec.input_dim:
        raise ValueError(f"input shape {act.shape} is not (B, {net.spec.input_dim})")

    layers = net.body + [net.heads[head]]
    if rng is not None:
        noise = rng.standard_normal(net.body_cols + net.head_cols)
        std = np.empty_like(noise)
    caches, lo = [], 0
    for i, layer in enumerate(layers):
        if rng is None:
            eps = sd = None
            theta_w, theta_b = layer.w_mu, layer.b_mu
        else:
            cols = slice(lo, lo + layer.cols.stop - layer.cols.start)
            eps, sd = noise[cols], std[cols]
            np.multiply(net.params[1, layer.cols], 0.5, out=sd)
            np.exp(sd, out=sd)
            theta = sd * eps
            theta += net.params[0, layer.cols]
            theta_w, theta_b = _split(theta, *layer.w_mu.shape)
            lo = cols.stop
        pre = act @ theta_w + theta_b
        caches.append(LayerCache(act, eps, sd, theta_w if i else None, pre))
        if i < len(net.body):
            act = relu(pre)
    return pre, SampleCache(layers=caches, head=head)


def backprop(net: BayesMlp, cache: SampleCache, dlogits: Array, head: int) -> Array:
    """Backward pass through a cached sample_forward.

    Returns a new (2, P) gradient buffer covering every body column and
    the routed head; other heads' columns are zero.  Loss terms add their
    own gradients into this buffer.  dlogits is (B, head_dim), the shape
    of the cached batch's logits.
    """
    if head != cache.head:
        raise RuntimeError(f"cache was built for head {cache.head}, not {head}")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.layers[-1].pre.shape:
        raise RuntimeError(f"dlogits shape {dlogits.shape} != logits shape "
                           f"{cache.layers[-1].pre.shape}")
    if len(cache.layers) != len(net.body) + 1:
        raise RuntimeError("cache does not match network depth")

    grads = np.empty_like(net.params)  # the loop writes every routed column
    grads[:, net.body_cols:] = 0.0
    if cache.layers[0].eps is None:
        grads[1] = 0.0
    layers = net.body + [net.heads[head]]
    dpre = dlogits
    for i in reversed(range(len(layers))):
        layer, lc = layers[i], cache.layers[i]
        g_mu, g_log_var = grads[:, layer.cols]
        gw_mu, gb_mu = _split(g_mu, *layer.w_mu.shape)
        np.matmul(lc.inp.T, dpre, out=gw_mu)
        gb_mu[...] = dpre.sum(axis=0)
        if lc.eps is not None:  # d_theta * eps * 0.5 * std, left to right
            np.multiply(g_mu, lc.eps, out=g_log_var)
            g_log_var *= 0.5
            g_log_var *= lc.std
        if i > 0:  # the network input needs no gradient
            dinp = dpre @ lc.theta_w.T
            dpre = dinp * (cache.layers[i - 1].pre > 0)  # relu subgradient, 0 at the kink
    return grads


def posterior_predict(net: BayesMlp, x: Array, head: int, n_samples: int, rng) -> Array:
    """Predictive class probabilities of a (B, input_dim) batch: mean softmax
    over n_samples theta draws, or the one pass at the means when rng is None."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_samples = 1 if rng is None else n_samples
    total = None
    for _ in range(n_samples):
        logits, _ = sample_forward(net, x, head, rng)
        p = np.exp(log_softmax(logits))
        total = p if total is None else total + p
    return total / n_samples


def snapshot(net: BayesMlp) -> Array:
    """Frozen (2, P) copy of the posterior: means in row 0, variances in row 1."""
    snap = np.empty_like(net.params)
    snap[0] = net.params[0]
    np.exp(net.params[1], out=snap[1])
    snap.flags.writeable = False
    return snap


def unit_prior(net: BayesMlp) -> Array:
    """N(0, 1) prior over every column: the anchor before any task is seen."""
    prior = np.zeros_like(net.params)
    prior[1] = 1.0
    prior.flags.writeable = False
    return prior


def clone_network(net: BayesMlp) -> BayesMlp:
    return BayesMlp(net.spec, net.params.copy())
