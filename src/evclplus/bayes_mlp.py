"""Mean-field Gaussian MLP with a shared body and task-specific heads.

Every weight and bias carries a mean and a log-variance.  A forward pass
draws theta = mu + exp(0.5 * log_var) * eps with eps ~ N(0,1) (the
reparameterization trick); the hand-derived backward pass then yields
gradients for both halves of each parameter:

    d_mu      = d_theta
    d_log_var = d_theta * eps * 0.5 * exp(0.5 * log_var)

A sampled pass takes each layer's whole column range at once: theta, the
noise eps and the standard deviations exp(0.5 * log_var), computed once per
pass, are flat slices over the layer's columns.  The pass returns one
`LayerCache` per layer it walked, each naming its layer and keeping eps and
the standard deviations; one backward walk over that list, from the head
down, serves both `backprop` and the Fisher estimate.

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
uses the same columns: gradients and Adam moments are (2, P) arrays (a
deterministic method's moments cover row 0 only), a posterior snapshot is
a (2, P) array with variances in row 1, and diagonal Fisher information is
a (P,) vector aligned with row 0.  `GaussianLayer` holds one layer's
columns, its mean views and `split`, its weight and bias views of any such
buffer; `BayesMlp._bind_views` is the one place that lays them out.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import Array, SeededRng, log_softmax, pixel_floats, relu

INIT_LOG_VAR = -6.0


@dataclass
class NetworkSpec:
    """Architecture: input -> hidden (relu) -> per-task linear head.

    hidden_dims may be empty, giving a bare linear softmax model.  A fresh
    network has one head; `add_head` appends more.  `run_task_sequence`
    adds heads until each task's `Task.head` exists, so tasks that name one
    head share it.
    """

    input_dim: int
    hidden_dims: list
    head_dim: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        for i, width in enumerate(self.hidden_dims):
            if (not isinstance(width, numbers.Integral) or isinstance(width, bool)
                    or width < 1):
                raise ValueError(f"hidden_dims[{i}] must be an integer >= 1, got {width}")
        if self.head_dim < 2:
            raise ValueError("head_dim must be >= 2")


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
    """One layer's columns and mean views: weight (din, dout), bias (dout,)."""

    cols: slice
    w_mu: Array
    b_mu: Array

    def split(self, buf: Array):
        """(weight, bias) views of this layer's columns of a (2, P) or (P,) buffer."""
        return _split(buf[..., self.cols], *self.w_mu.shape)


@dataclass
class BayesMlp:
    """A network's (2, P) parameter buffer plus named views of its layers.

    `body` and `heads` are rebuilt whenever `params` is reallocated (see
    add_head), so hold on to the network, not to its layers.  params=None
    allocates an uninitialized one-head buffer.
    """

    spec: NetworkSpec
    params: Array = None
    body: list = field(init=False)
    heads: list = field(init=False)
    body_cols: int = field(init=False)
    head_cols: int = field(init=False)

    def __post_init__(self):
        self._bind_views()

    def _bind_views(self):
        """The one layout: layer shapes, column counts, then each layer's views."""
        dims = [self.spec.input_dim] + list(self.spec.hidden_dims)
        shapes = list(zip(dims[:-1], dims[1:]))
        head_shape = (dims[-1], self.spec.head_dim)
        self.body_cols = sum(_n_cols(din, dout) for din, dout in shapes)
        self.head_cols = _n_cols(*head_shape)
        if self.params is None:
            self.params = np.empty((2, self.body_cols + self.head_cols))
        n_heads = (self.params.shape[1] - self.body_cols) // self.head_cols
        layers, lo = [], 0
        for din, dout in shapes + [head_shape] * n_heads:
            cols = slice(lo, lo + _n_cols(din, dout))
            w_mu, b_mu = _split(self.params[0, cols], din, dout)
            layers.append(GaussianLayer(cols, w_mu, b_mu))
            lo = cols.stop
        if self.params.shape != (2, lo) or n_heads < 1:
            raise ValueError(f"parameter buffer {self.params.shape} does not fit "
                             f"the spec")
        self.body, self.heads = layers[:len(shapes)], layers[len(shapes):]

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


def param_name(net: BayesMlp, col: int) -> str:
    """The weight or bias holding column col, with the element's index in
    it, e.g. "body 0 weight [12]"."""
    name, cols = next((n, c) for n, c in layer_parts(net) if c.stop > col)
    return f"{name} [{col - cols.start}]"


def _init_layers(net: BayesMlp, layers, rng: SeededRng) -> None:
    """Draw fresh values into the columns of layers, adjacent and in order.

    Means ~ N(0, 1/fan_in); one draw over all their columns gives the same
    values as one draw per weight and bias in column order.  Log-variances
    start at INIT_LOG_VAR: a tight initial uncertainty.
    """
    cols = slice(layers[0].cols.start, layers[-1].cols.stop)
    net.params[0, cols] = rng.standard_normal(cols.stop - cols.start)
    net.params[1, cols] = INIT_LOG_VAR
    for layer in layers:
        net.params[0, layer.cols] *= 1.0 / np.sqrt(len(layer.w_mu))


def init_network(spec: NetworkSpec, rng: SeededRng) -> BayesMlp:
    """Fresh one-head network: means ~ N(0, 1/fan_in), log-variances INIT_LOG_VAR."""
    net = BayesMlp(spec)
    _init_layers(net, net.body + net.heads, rng)
    return net


def add_head(net: BayesMlp, rng: SeededRng) -> int:
    """Append a freshly initialized head's columns; existing values are untouched."""
    net.params = np.concatenate([net.params, np.empty((2, net.head_cols))], axis=1)
    net._bind_views()
    _init_layers(net, net.heads[-1:], rng)
    return len(net.heads) - 1


@dataclass
class LayerCache:
    layer: GaussianLayer  # the layer whose pass this caches
    inp: Array      # (B, din) input to the affine
    eps: Array      # the layer's flat slice of the step's noise; None when eps = 0
    std: Array      # the layer's flat slice of exp(0.5 * log_var); None when eps = 0
    theta_w: Array  # sampled weights, shared across the batch; None in the
                    # first layer, whose input needs no gradient
    pre: Array      # (B, dout) pre-activation


def sample_forward(net: BayesMlp, x: Array, head: int, rng):
    """Sampled forward pass; one theta draw shared by all rows of x.

    The noise for the body and the routed head comes from one draw of
    body_cols + head_cols normals, in column order; theta = mu + std * eps,
    and the cache keeps eps and std = exp(0.5 * log_var) for backprop.
    x is a (B, input_dim) batch of stored rows, scaled here by
    numerics.pixel_floats (uint8 pixels to [0, 1]); a single input is a
    batch of one row.  Returns (logits (B, head_dim), [LayerCache, ...]).
    """
    if not 0 <= head < len(net.heads):
        raise ValueError(f"head {head} out of range ({len(net.heads)} heads)")
    act = pixel_floats(np.asarray(x)).astype(np.float64, copy=False)
    if act.ndim != 2 or act.shape[1] != net.spec.input_dim:
        raise ValueError(f"input shape {act.shape} is not (B, {net.spec.input_dim})")

    if rng is not None:
        noise = rng.standard_normal(net.body_cols + net.head_cols)
        std = np.empty_like(noise)
    cache, lo = [], 0
    for i, layer in enumerate(net.body + [net.heads[head]]):
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
        cache.append(LayerCache(layer, act, eps, sd, theta_w if i else None, pre))
        if i < len(net.body):
            act = relu(pre)
    return pre, cache


def _backward(cache, d):
    """(layer cache, gradient at its pre-activation) from the head down,
    given d at the logits.  The relu subgradient is 0 at the kink, and the
    network input gets no gradient."""
    for i in reversed(range(len(cache))):
        yield cache[i], d
        if i:
            d = d @ cache[i].theta_w.T * (cache[i - 1].pre > 0)


def backprop(net: BayesMlp, cache, dlogits: Array) -> Array:
    """Backward pass through a cached sample_forward, over the layers it walked.

    Returns a new (2, P) gradient buffer covering every body column and
    the routed head; other heads' columns are zero.  Loss terms add their
    own gradients into this buffer.  dlogits is (B, head_dim), the shape
    of the cached batch's logits.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache[-1].pre.shape:
        raise RuntimeError(f"dlogits shape {dlogits.shape} != logits shape "
                           f"{cache[-1].pre.shape}")

    grads = np.empty_like(net.params)  # the loop writes every routed column
    grads[:, net.body_cols:] = 0.0
    if cache[0].eps is None:
        grads[1] = 0.0
    for lc, dpre in _backward(cache, dlogits):
        g_mu, g_log_var = grads[:, lc.layer.cols]
        gw_mu, gb_mu = _split(g_mu, *lc.layer.w_mu.shape)
        np.matmul(lc.inp.T, dpre, out=gw_mu)
        gb_mu[...] = dpre.sum(axis=0)
        if lc.eps is not None:  # d_theta * eps * 0.5 * std, left to right
            np.multiply(g_mu, lc.eps, out=g_log_var)
            g_log_var *= 0.5
            g_log_var *= lc.std
    return grads


def posterior_predict(net: BayesMlp, x: Array, head: int, n_samples: int, rng) -> Array:
    """Predictive class probabilities of a (B, input_dim) batch of stored
    rows: mean softmax over n_samples theta draws, or the one pass at the
    means when rng is None.  The rows are scaled once per call."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_samples = 1 if rng is None else n_samples
    x = pixel_floats(np.asarray(x))
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


def clone_network(net: BayesMlp) -> BayesMlp:
    return BayesMlp(net.spec, net.params.copy())
