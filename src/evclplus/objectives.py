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

Heads are excluded from the cross-task terms; the routed head's KL is to
`UNIT`, N(0, 1), on every task, so a head that several tasks route to
(permuted_mnist's head 0) is pulled back toward N(0, 1) on each new task.

One entry point.  `batch_loss` is the batch objective of every method: one
forward, cross-entropy and backward pass, then its anchors' terms.
`task_anchor` builds a variational method's `TaskAnchor` once per task:
the snapshot, log(var_prev) for the KL, lam * F for both anchors and
(0.5 * lam * k) * F for the growing branch; before any task it is `UNIT`.
With rng=None (EWC, plain) the net is deterministic and has no KL.  EWC
keeps one anchor (snapshot and lam * F) per finished task; evclplus and evcl
anchor to the last task's F only, as `run_task_sequence` replaces it.

One pass.  Every method's anchors run through one pass over the body's
columns, BLOCK columns at a time; the routed head's KL to `UNIT` is the
same pass over the head's columns.  Parameters, anchors and gradients
share the network's column numbering, so each slice reads its columns of
all of them; it computes var = exp(log_var) once, and mu - mu_prev once
per anchor for all of that anchor's terms.  A deterministic pass
adds only each anchor's mean anchor; a sampled one adds each anchor's KL
and, where it holds lam * F, both anchors.  Gradients keep the per-term
operand order and sum as ((nll + kl / N) + mean anchors) + variance
anchor, the mean anchors summed among themselves first; reported values
are built from the gradient intermediates and may differ in the last bits.
"""

from dataclasses import dataclass

import numpy as np

from .bayes_mlp import (BayesMlp, _backward, backprop, layer_parts, param_name,
                        sample_forward)
from .numerics import BLOCK, Array, batch_cross_entropy_with_grad, log_softmax

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


@dataclass(frozen=True)
class TaskAnchor:
    """Constants of the anchor pass that change once per task; None skips a term.

    Every field is indexed by the network's columns, as params is: snap is
    a (2, P) snapshot, variances in row 1, the KL target and the point both
    anchors pull toward; the other fields cover at least the body.
    """

    snap: Array
    log_var: Array = None   # log(var_prev): the KL term
    lam_f: Array = None     # lam * F: both anchors
    grow_f: Array = None    # (0.5 * lam * k) * F; None: growth is quadratic too


# N(0, 1) on every column, as broadcast views that hold no memory: the prior
# before any task and the KL target of every routed head
UNIT = TaskAnchor(np.broadcast_to([[0.0], [1.0]], (2, 1 << 48)),
                  log_var=np.broadcast_to(0.0, 1 << 48))


def task_anchor(net: BayesMlp, snap: Array, fisher: Array = None, lam: float = None,
                k: float = None, symmetric: bool = False) -> TaskAnchor:
    """The KL target snap, plus both anchors (lam, k) when fisher is given;
    snap None is UNIT, N(0, 1), the prior before any task, which has no fisher.

    Raises, naming the parameter, if a body prior variance is not positive:
    a corrupt snapshot, or a log-variance below about -745 that underflowed
    to 0.  symmetric=True makes the variance anchor quadratic on both sides
    and k unneeded.
    """
    for name, value, needed in (("lam", lam, True), ("k", k, not symmetric)):
        if value is None and needed and fisher is not None:
            raise ValueError(f"{name} is required with a fisher")
        if value is not None and not value >= 0:  # also rejects nan
            raise ValueError(f"{name} must be >= 0, got {value}")
    if snap is None:
        return UNIT
    if snap.shape[1] < net.body_cols:
        raise RuntimeError("prior snapshot does not match network body")
    var = snap[1, :net.body_cols]
    if not np.all(var > 0):
        col = int(np.argmin(var > 0))
        raise RuntimeError(f"prior variance {float(var[col])!r} of "
                           f"{param_name(net, col)} is not positive (corrupt or "
                           f"underflowed snapshot)")
    if fisher is None:
        return TaskAnchor(snap, log_var=np.log(var))
    if fisher.shape[0] < net.body_cols:
        raise RuntimeError("fisher does not cover every body parameter")
    f = fisher[:net.body_cols]
    return TaskAnchor(snap, np.log(var), lam * f,
                      None if symmetric else (0.5 * lam * k) * f)


def _pass(params: Array, anchors, g_mu, g_log_var=None, kl_weight=1.0, cols=None):
    """The anchors' terms over columns cols of params (None: all of them),
    BLOCK columns at a time.

    params (2, P), every anchor field and the gradient rows g_mu, g_log_var
    share the network's column numbering.  g_log_var None is the
    deterministic pass: each anchor adds only its mean anchor.  Otherwise
    each adds kl_weight * its KL, plus both anchors where it has lam_f.
    Adds the gradients in place and returns the values [kl, mean, var],
    summed over the anchors.
    """
    cols = slice(0, params.shape[1]) if cols is None else cols
    width = min(cols.stop - cols.start, BLOCK)
    scratch, grows = np.empty((6, width)), np.empty(width, dtype=np.int64)
    totals = np.zeros((len(anchors), 3))  # per anchor, summed in anchor order
    for lo in range(cols.start, cols.stop, BLOCK):
        s = slice(lo, min(lo + BLOCK, cols.stop))
        _block(scratch[:, :s.stop - lo], grows[:s.stop - lo], params[:, s], anchors, s,
               g_mu[s], None if g_log_var is None else g_log_var[s], kl_weight, totals)
    return sum(totals, np.zeros(3))


def _block(scratch, grows, params, anchors, s, g_mu, g_log_var, kl_weight, totals):
    """Columns s of _pass, through scratch rows of their width.  The anchors'
    mean gradients are summed in the row `means` before one add."""
    (mu, log_var), (var, diff, a, b, blend, means) = params, scratch
    if g_log_var is not None:
        np.exp(log_var, out=var)
    first = True
    for anchor, total in zip(anchors, totals):
        (prior_mu, prior_var), kl, mean, var_pen = anchor.snap[:, s], 0.0, 0.0, 0.0
        np.subtract(mu, prior_mu, out=diff)
        if g_log_var is not None:
            # KL = sum(log var_prev - log_var + (var + diff^2) / var_prev - 1) / 2
            np.divide(diff, prior_var, out=a)
            kl = np.dot(a, diff)
            a *= kl_weight
            g_mu += a
            np.divide(var, prior_var, out=a)
            a -= 1.0
            np.subtract(anchor.log_var[s], log_var, out=b)
            b += a
            kl = 0.5 * (kl + b.sum())
            a *= 0.5
            a *= kl_weight
            g_log_var += a
        if anchor.lam_f is not None:
            m = means if first else a
            np.multiply(anchor.lam_f[s], diff, out=m)
            mean = 0.5 * np.dot(m, diff)
            if not first:
                means += a
            first = False
        if g_log_var is not None and anchor.lam_f is not None:
            np.subtract(var, prior_var, out=diff)
            np.multiply(anchor.lam_f[s], diff, out=a)
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
                np.multiply(anchor.grow_f[s], var, out=diff)  # growing value and gradient
                inc, t = diff.view(np.int64), blend.view(np.int64)
                for quad in (a.view(np.int64), b.view(np.int64)):
                    np.bitwise_xor(quad, inc, out=t)
                    t &= grows
                    quad ^= t
                var_pen = a.sum()
            g_log_var += b
        total += (kl, mean, var_pen)
    if not first:
        g_mu += means


def locate_nonfinite(net: BayesMlp, anchors, term: str, deterministic: bool):
    """Name of the first body weight or bias whose `term` is non-finite, or None.

    Re-runs the step's body pass one weight or bias at a time: for the
    failure path.
    """
    which = {"kl": 0, "mean_penalty": 1, "var_penalty": 2}.get(term)
    if which is None:
        return None
    g = np.zeros((2, net.body_cols))
    for name, cols in layer_parts(net):
        if cols.start >= net.body_cols:
            return None
        if not np.isfinite(_pass(net.params, anchors, g[0], None if deterministic
                                 else g[1], cols=cols)[which]):
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
    kl = _pass(params, [TaskAnchor(snap, np.log(snap[1]))], *grads)[0]
    return float(kl), grads[0], grads[1]


def mean_penalty(net: BayesMlp, anchors, d_mu: Array) -> float:
    """The deterministic step's body pass: each anchor's (1/2) lam F (mu -
    mu_prev)^2 on body means, summed.  The anchors' gradients, summed among
    themselves, are added into d_mu, a row over (at least) the body columns."""
    return float(_pass(net.params, anchors, d_mu, cols=slice(0, net.body_cols))[1])


def batch_loss(net: BayesMlp, batch, head: int, anchors, dataset_size: int, rng):
    """Batch objective of every method; returns (breakdown, grads).

    nll is the batch-mean cross-entropy under one forward pass; grads is
    the step's (2, P) gradient buffer, into which every term adds.  With
    rng=None the net is deterministic: no KL, and each of anchors (EWC's,
    one per finished task) adds its mean penalty.  Otherwise one theta is
    sampled and each anchor (`task_anchor`) adds its KL (body to the
    snapshot) and, if it holds lam * F, both anchors; the routed head's KL
    is to UNIT, N(0, 1).  The KL is weighted 1/dataset_size, so an
    epoch's batches sum to the per-task bound.
    """
    x, y = batch
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("empty batch")
    if dataset_size < y.size:
        raise ValueError("dataset_size smaller than the batch")
    logits, cache = sample_forward(net, x, head, rng)
    nll, dlogits = batch_cross_entropy_with_grad(logits, y)
    grads = backprop(net, cache, dlogits)
    if rng is None:
        # plain and EWC's first task have no anchors and skip the walk
        mp = mean_penalty(net, anchors, grads[0]) if anchors else 0.0
        return LossBreakdown(nll, 0.0, 0.0, mp, 0.0, nll + mp), grads
    w = 1.0 / dataset_size
    kl, mp, vp = _pass(net.params, anchors, *grads, w, slice(0, net.body_cols))
    kl += _pass(net.params, [UNIT], *grads, w, net.heads[head].cols)[0]
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
    replacement.  The drawn rows keep their stored dtype; the network
    scales them one chunk at a time.

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
    for lo in range(0, n, FISHER_CHUNK):
        bx, by = xs[lo:lo + FISHER_CHUNK], ys[lo:lo + FISHER_CHUNK]
        logits, cache = sample_forward(net, bx, head, rng=None)
        d = np.exp(log_softmax(logits))
        d[np.arange(by.size), by] -= 1.0  # per-example, unscaled
        for lc, dpre in _backward(cache, d):
            fw, fb = lc.layer.split(fisher)
            d2 = dpre**2
            fw += (lc.inp**2).T @ d2
            fb += d2.sum(axis=0)
    fisher /= n
    return fisher
