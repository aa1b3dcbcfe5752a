"""Loss terms for variationally-trained continual learners.

The composed objective is

    total = nll + kl / dataset_size + mean_penalty + var_penalty

where nll is the batch-mean negative log-likelihood under one sampled
theta, kl is the closed-form divergence between the current posterior and
the previous task's posterior, and the two penalties anchor means and
variances of body parameters to the previous task, weighted per parameter
by diagonal Fisher information:

    mean_penalty = (lam/2) * sum_i F_i * (mu_i - mu_prev_i)^2
    var_penalty  = (lam/2) * sum_j [ var_j <= var_prev_j:  F_j * (var_j - var_prev_j)^2
                                     var_j >  var_prev_j:  k * F_j * var_j ]

The variance penalty is asymmetric: a parameter that becomes *less*
certain than it was (variance grows) pays a much steeper, k-scaled price
than one that merely refines its certainty.  Ties take the quadratic
branch, so the penalty is exactly zero when nothing moved.  The symmetric
variant (quadratic on both sides) is the older elastic-variational
baseline: `task_anchor(..., symmetric=True)`.

Heads are deliberately excluded from the cross-task terms: each head
serves a single task, is regularized toward a unit Gaussian while it
trains, and is never revisited.

One entry point.  `batch_loss` is the batch objective of every method: one
forward, cross-entropy and backward pass, then its anchors' terms.
`task_anchor` builds a variational method's `TaskAnchor` once per task:
the snapshot, log(var_prev) for the KL, lam * F for both anchors and
(0.5 * lam * k) * F for the growing branch.  With rng=None (EWC, plain)
the net is deterministic and has no KL; EWC keeps one anchor (snapshot and
lam * F) per finished task and sums `mean_penalty` over them.

One pass.  The KL and both anchors run as one pass over the body, BLOCK
columns at a time: each slice computes var = exp(log_var) and mu - mu_prev
once for every term.  Gradients keep the per-term operand order and sum as
((nll + kl / N) + mean anchor) + variance anchor; reported values are built
from the gradient intermediates and may differ in the last bits.
"""

from dataclasses import dataclass

import numpy as np

from .bayes_mlp import BayesMlp, backprop, layer_parts, sample_forward
from .numerics import BLOCK, Array, batch_cross_entropy_with_grad, log_softmax, \
    pixel_floats

FISHER_CHUNK = 1024  # examples per batched Fisher pass


@dataclass
class LossBreakdown:
    nll: float
    kl: float
    kl_weight: float
    mean_penalty: float
    var_penalty: float
    total: float

    def nonfinite_term(self):
        """Name of the first non-finite component, or None."""
        for name in ("nll", "kl", "mean_penalty", "var_penalty", "total"):
            if not np.isfinite(getattr(self, name)):
                return name
        return None


@dataclass
class TaskAnchor:
    """Constants of the body pass that change once per task; None skips a term.

    snap is a (2, P) snapshot, variances in row 1: the KL target and the
    point both anchors pull toward.  The other fields cover the body.  The
    pass skips an anchor whose gradient row it is not given.
    """

    snap: Array
    log_var: Array = None   # log(var_prev): the KL term
    lam_f: Array = None     # lam * F: both anchors
    grow_f: Array = None    # (0.5 * lam * k) * F; None: growth is quadratic too

    def part(self, s: slice) -> "TaskAnchor":
        """The same constants on columns s."""
        return TaskAnchor(*(None if f is None else f[..., s] for f in (
            self.snap, self.log_var, self.lam_f, self.grow_f)))


def task_anchor(net: BayesMlp, snap: Array, fisher: Array = None, lam: float = None,
                k: float = None, symmetric: bool = False) -> TaskAnchor:
    """The KL target snap, plus both anchors (lam, k) when fisher is given.

    Raises, naming the parameter, if a body prior variance is not positive:
    a corrupt snapshot, or a log-variance below about -745 that underflowed
    to 0.  symmetric=True makes the variance anchor quadratic on both sides.
    """
    for name, value in (("lam", lam), ("k", k)):
        if value is not None and not value >= 0:  # also rejects nan
            raise ValueError(f"{name} must be >= 0, got {value}")
    if snap.shape[1] < net.body_cols:
        raise RuntimeError("prior snapshot does not match network body")
    var = snap[1, :net.body_cols]
    if not np.all(var > 0):
        col = int(np.argmin(var > 0))
        name, cols = next((n, c) for n, c in layer_parts(net) if c.stop > col)
        raise RuntimeError(f"prior variance {float(var[col])!r} of {name} "
                           f"[{col - cols.start}] is not positive (corrupt or "
                           f"underflowed snapshot)")
    anchor = TaskAnchor(snap, log_var=np.log(var))
    if fisher is not None:
        if fisher.shape[0] < net.body_cols:
            raise RuntimeError("fisher does not cover every body parameter")
        f = fisher[:net.body_cols]
        anchor.lam_f = lam * f
        if not symmetric:
            anchor.grow_f = (0.5 * lam * k) * f
    return anchor


def _pass(params: Array, anchor: TaskAnchor, g_mu, g_log_var, kl_weight=None):
    """The anchor's terms over the columns of params, BLOCK columns at a time.

    params (2, n), the anchor and the gradient rows g_mu, g_log_var start
    at the same column; g_log_var None skips the variance anchor.  Adds
    kl_weight * the KL gradient (no KL when None) and the anchors'
    gradients in place and returns the values [kl, mean, var].
    """
    n = params.shape[1]
    scratch = np.empty((4, min(n, BLOCK)))
    grows = np.empty(min(n, BLOCK), dtype=np.int64)
    totals = np.zeros(3)
    for lo in range(0, n, BLOCK):
        s = slice(lo, min(lo + BLOCK, n))
        totals += _block(scratch[:, :s.stop - lo], grows[:s.stop - lo], params[:, s],
                         anchor.part(s), g_mu[s],
                         None if g_log_var is None else g_log_var[s], kl_weight)
    return totals


def _block(scratch, grows, params, anchor, g_mu, g_log_var, kl_weight):
    """One slice of _pass, through scratch rows of the slice's width."""
    (mu, log_var), (prior_mu, prior_var), (var, diff, a, b) = params, anchor.snap, scratch
    mean_on = anchor.lam_f is not None
    var_on = mean_on and g_log_var is not None
    kl = mean = var_pen = 0.0
    if kl_weight is not None or var_on:
        np.exp(log_var, out=var)
    if kl_weight is not None or mean_on:
        np.subtract(mu, prior_mu, out=diff)
    if kl_weight is not None:
        # KL = sum(log var_prev - log_var + (var + diff^2) / var_prev - 1) / 2
        np.divide(diff, prior_var, out=a)
        kl = np.dot(a, diff)
        a *= kl_weight
        g_mu += a
        np.divide(var, prior_var, out=a)
        a -= 1.0
        np.subtract(anchor.log_var, log_var, out=b)
        b += a
        kl = 0.5 * (kl + b.sum())
        a *= 0.5
        a *= kl_weight
        g_log_var += a
    if mean_on:
        np.multiply(anchor.lam_f, diff, out=a)
        mean = 0.5 * np.dot(a, diff)
        g_mu += a
    if var_on:
        np.subtract(var, prior_var, out=diff)
        np.multiply(anchor.lam_f, diff, out=a)
        np.multiply(a, var, out=b)  # quadratic-branch gradient
        if anchor.grow_f is None:
            var_pen = 0.5 * np.dot(a, diff)
        else:
            # ties take the quadratic branch -> exactly 0 when nothing moved;
            # an all-ones bit mask picks the growing branch, moving every
            # bit unchanged and much faster than copyto(where=)
            np.greater(var, prior_var, out=grows, casting="unsafe")
            np.negative(grows, out=grows)
            a *= diff
            a *= 0.5  # quadratic-branch value
            np.multiply(anchor.grow_f, var, out=diff)  # growing value and gradient
            inc, t = diff.view(np.int64), var.view(np.int64)
            for quad in (a.view(np.int64), b.view(np.int64)):
                np.bitwise_xor(quad, inc, out=t)
                t &= grows
                quad ^= t
            var_pen = a.sum()
        g_log_var += b
    return kl, mean, var_pen


def locate_nonfinite(net: BayesMlp, anchor: TaskAnchor, term: str):
    """Name of the first body weight or bias whose `term` is non-finite, or None.

    Re-runs the pass one weight or bias at a time: for the failure path.
    The KL runs only for an anchor that has its log_var (not EWC's).
    """
    which = {"kl": 0, "mean_penalty": 1, "var_penalty": 2}.get(term)
    if which is None:
        return None
    for name, cols in layer_parts(net):
        if cols.start >= net.body_cols:
            return None
        g = np.zeros((2, cols.stop - cols.start))
        if not np.isfinite(_pass(net.params[:, cols], anchor.part(cols), g[0], g[1],
                                 None if anchor.log_var is None else 1.0)[which]):
            return name
    return None


def kl_diag_gauss(mu: Array, log_var: Array, prior_mu: Array, prior_var: Array):
    """Closed-form KL( N(mu, exp(log_var)) || N(prior_mu, prior_var) ), summed.

    Returns (kl, d_mu, d_log_var), computed by the training pass's kernel.
    Elementwise over 1-D arrays of equal length.
    """
    params = np.array([mu, log_var], dtype=np.float64)
    snap = np.array([prior_mu, prior_var], dtype=np.float64)
    if params.ndim != 2 or params.shape != snap.shape:
        raise RuntimeError("kl_diag_gauss shape mismatch")
    if np.any(snap[1] <= 0):
        raise RuntimeError("prior variance must be positive")
    grads = np.zeros_like(params)
    kl = _pass(params, TaskAnchor(snap, np.log(snap[1])), grads[0], grads[1], 1.0)[0]
    return float(kl), grads[0], grads[1]


def mean_penalty(net: BayesMlp, anchor: TaskAnchor, d_mu: Array) -> float:
    """Fisher-weighted quadratic anchor on body means: (1/2) lam F (mu - mu_prev)^2.

    anchor holds the snapshot and lam * F; the gradient is added into d_mu,
    an array over the body columns.  EWC's term, once per anchor.
    """
    return float(_pass(net.params[:, :net.body_cols], anchor, d_mu, None)[1])


def batch_loss(net: BayesMlp, batch, head: int, anchors, dataset_size: int, rng):
    """Batch objective of every method; returns (breakdown, grads).

    nll is the batch-mean cross-entropy under one forward pass; grads is
    the step's (2, P) gradient buffer, into which every term adds.  With
    rng=None the net is deterministic: no KL, and each of anchors (EWC's,
    one per finished task) adds its mean penalty, the anchors' gradients
    summed among themselves first.  Otherwise one theta is sampled and
    anchors[0] (`task_anchor`) decides the terms: both anchors and the KL
    (body to the snapshot, routed head to a unit Gaussian) weighted
    1/dataset_size, so an epoch's batches sum to the per-task bound.
    """
    x, y = batch
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("empty batch")
    if dataset_size < y.size:
        raise ValueError("dataset_size smaller than the batch")
    logits, cache = sample_forward(net, x, head, rng)
    nll, dlogits = batch_cross_entropy_with_grad(logits, y)
    grads = backprop(net, cache, dlogits, head)
    body = slice(0, net.body_cols)
    if rng is None:
        mp = 0.0
        if anchors:  # none (plain, EWC's first task): grads keep backprop's bits
            anchor_grads = np.zeros(net.body_cols)
            for anchor in anchors:
                mp += mean_penalty(net, anchor, anchor_grads)
            grads[0, body] += anchor_grads
        return LossBreakdown(nll, 0.0, 0.0, mp, 0.0, nll + mp), grads
    w, h = 1.0 / dataset_size, net.heads[head].cols
    kl, mp, vp = _pass(net.params[:, body], anchors[0], *grads[:, body], w)
    unit = TaskAnchor(np.broadcast_to([[0.0], [1.0]], (2, net.head_cols)),
                      np.zeros(net.head_cols))  # the routed head's KL target
    kl += _pass(net.params[:, h], unit, *grads[:, h], w)[0]
    breakdown = LossBreakdown(nll=nll, kl=kl, kl_weight=w, mean_penalty=mp,
                              var_penalty=vp, total=nll + w * kl + mp + vp)
    return breakdown, grads


def estimate_fisher_diag(net: BayesMlp, data, head: int, n_samples: int, rng) -> Array:
    """Diagonal empirical Fisher: mean squared per-example log-lik gradient.

    Returns a (P,) vector over the network's columns: the body and the
    given head are estimated, other heads' entries are zero.  Penalties
    consume only the body entries; the head entries make the estimator
    usable on bare linear models in oracle checks.

    Gradients are taken at theta = mu (deterministic forward, no sampling)
    against each example's recorded label.  Draws n_samples examples without
    replacement when len(data) has that many, else n_samples with
    replacement.  The drawn rows keep their stored dtype and are scaled by
    pixel_floats one chunk at a time.

    Per-example squared weight gradients never need to be materialized:
    for an affine layer, grad W[i,j] of one example is a_i * delta_j, so
    the mean of squares is (a^2)^T (delta^2) / n, computed batched.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x, y = data
    x, y = np.asarray(x), np.asarray(y)
    m = y.size
    if m == 0:
        raise ValueError("empty data")
    idx = rng.choice(m, size=n_samples, replace=n_samples > m)
    xs, ys = x[idx], y[idx]
    n = ys.size

    fisher = np.zeros(net.params.shape[1])
    layers = net.body + [net.heads[head]]
    for lo in range(0, n, FISHER_CHUNK):
        bx, by = pixel_floats(xs[lo:lo + FISHER_CHUNK]), ys[lo:lo + FISHER_CHUNK]
        logits, cache = sample_forward(net, bx, head, rng=None)
        p = np.exp(log_softmax(logits))
        d = p.copy()
        d[np.arange(by.size), by] -= 1.0  # per-example, unscaled
        for i in reversed(range(len(layers))):
            lc = cache.layers[i]
            fw, fb = layers[i].split(fisher)
            fw += (lc.inp**2).T @ d**2
            fb += (d**2).sum(axis=0)
            if i > 0:
                d = (d @ lc.theta_w.T) * (cache.layers[i - 1].pre > 0)
    fisher /= n
    return fisher
