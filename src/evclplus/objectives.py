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
branch, so the penalty is exactly zero when nothing moved.  The growing
branch does not meet it there: its value and its log-variance gradient
jump from 0 to (lam k / 2) F var_prev.  The paper's abstract does not say
whether it means k F var or k F (var - var_prev).  The symmetric variant
(quadratic on both sides) is the older elastic-variational baseline:
`task_anchor(..., symmetric=True)`.

Heads are excluded from the cross-task terms; the routed head's KL is to
`UNIT`, N(0, 1), on every task, so a head that several tasks route to
(permuted_mnist's head 0) is pulled back toward N(0, 1) on each new task.

One entry point.  `batch_loss` is the batch objective of every method: one
forward, cross-entropy and backward pass, then its step's segments.
`task_anchor` builds a variational method's `TaskAnchor` once per task:
the snapshot, log(var_prev) for the KL, lam * F for both anchors and
(0.5 * lam * k) * F for the growing branch; before any task it is `UNIT`.
With rng=None (EWC, plain) the net is deterministic and has no KL.  EWC
keeps one anchor (snapshot and lam * F) per finished task; evclplus and evcl
anchor to the last task's F only, as `run_task_sequence` replaces it.

One pass.  A step's terms are one list of (cols, anchors) segments, built
once in `batch_loss`: the body's columns with the loss's anchors and, on a
sampled step, the routed head's columns with [UNIT].  `_pass` walks the
list, BLOCK columns at a time, each slice's terms as numpy expressions,
into one running [kl, mean, var] total; when a term comes back non-finite,
`batch_loss` re-walks the same list one weight or bias at a time to name the
tensor.  Parameters, anchors and gradients share the network's column
numbering, so each slice reads its columns of all of them; it computes
var = exp(log_var) once, and mu - mu_prev once per anchor for all of that
anchor's terms.  A deterministic pass adds only each anchor's mean anchor; a
sampled one adds each anchor's KL and, where it holds lam * F, both anchors.
Gradients keep the per-term operand order and sum as ((nll + kl / N) + mean
anchors) + variance anchor, the mean anchors summed among themselves first;
reported values are built from the gradient intermediates, summed slice by
slice and anchor by anchor into the one running total, and may differ in the
last bits.
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
    where: str = None  # the first weight or bias whose kl or anchor term is non-finite

    @property
    def total(self) -> float:
        return self.nll + self.kl_weight * self.kl + self.mean_penalty + self.var_penalty

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
        raise RuntimeError(f"prior snapshot width {snap.shape[1]} is less than the "
                           f"network's body_cols {net.body_cols}")
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


def _pass(params: Array, segments, g_mu, g_log_var=None, kl_weight=1.0):
    """The terms of segments [(cols, anchors), ...]: each anchor over its
    segment's columns of params, BLOCK columns at a time, as numpy
    expressions over the slice.

    params (2, P), every anchor field and the gradient rows g_mu, g_log_var
    share the network's column numbering.  g_log_var None is the
    deterministic pass: each anchor adds only its mean anchor.  Otherwise
    each adds kl_weight * its KL, plus both anchors where it has lam_f.
    Adds the gradients in place (a slice's mean gradients in one add) and
    returns the values [kl, mean, var], one running total over the segments'
    slices and anchors, in list order.
    """
    total = np.zeros(3)  # [kl, mean, var], summed slice by slice, anchor by anchor
    for cols, anchors in segments:
        for lo in range(cols.start, cols.stop, BLOCK):
            s = slice(lo, min(lo + BLOCK, cols.stop))
            (mu, log_var), gm, means = params[:, s], g_mu[s], None
            gv = None if g_log_var is None else g_log_var[s]
            var = None if gv is None else np.exp(log_var)
            for anchor in anchors:
                (prior_mu, prior_var), kl, mean, var_pen = anchor.snap[:, s], 0.0, 0.0, 0.0
                diff = mu - prior_mu
                if gv is not None:
                    # KL = sum(log var_prev - log_var + (var + diff^2) / var_prev - 1) / 2
                    a = diff / prior_var
                    kl = np.dot(a, diff)
                    gm += a * kl_weight
                    a = var / prior_var - 1.0
                    kl = 0.5 * (kl + (anchor.log_var[s] - log_var + a).sum())
                    gv += a * 0.5 * kl_weight
                if anchor.lam_f is not None:
                    a = anchor.lam_f[s] * diff
                    mean = 0.5 * np.dot(a, diff)
                    means = a if means is None else means + a
                if gv is not None and anchor.lam_f is not None:
                    diff = var - prior_var
                    a = anchor.lam_f[s] * diff
                    grad = a * var  # quadratic branch
                    if anchor.grow_f is None:
                        var_pen = 0.5 * np.dot(a, diff)
                    else:
                        # ties take the quadratic branch -> exactly 0 when nothing moved;
                        # an all-ones bit mask picks the growing branch, moving every
                        # bit unchanged and much faster than np.where
                        a = (a * diff * 0.5).view(np.int64)  # quadratic-branch value
                        grows = -(var > prior_var).astype(np.int64)
                        inc = (anchor.grow_f[s] * var).view(np.int64)  # value and grad
                        var_pen = (a ^ ((a ^ inc) & grows)).view(np.float64).sum()
                        grad = grad.view(np.int64)
                        grad = (grad ^ ((grad ^ inc) & grows)).view(np.float64)
                    gv += grad
                total += (kl, mean, var_pen)
            if means is not None:
                gm += means
    return total


def kl_diag_gauss(mu: Array, log_var: Array, prior_mu: Array, prior_var: Array):
    """Closed-form KL( N(mu, exp(log_var)) || N(prior_mu, prior_var) ), summed.

    Returns (kl, d_mu, d_log_var), computed by the training pass's kernel.
    Elementwise over 1-D arrays of equal length.
    """
    for (a, name_a), (b, name_b) in [((mu, "mu"), (log_var, "log_var")),
                                     ((prior_mu, "prior_mu"), (prior_var, "prior_var"))]:
        if np.shape(a) != np.shape(b):  # np.array would fail first, naming neither
            raise RuntimeError(f"kl_diag_gauss shape mismatch: {name_a} {np.shape(a)}, "
                               f"{name_b} {np.shape(b)}")
    params = np.array([mu, log_var], dtype=np.float64)
    snap = np.array([prior_mu, prior_var], dtype=np.float64)
    if params.ndim != 2 or params.shape != snap.shape:
        raise RuntimeError(f"kl_diag_gauss shape mismatch: (mu, log_var) stacks to "
                           f"{params.shape}, (prior_mu, prior_var) to {snap.shape}")
    if np.any(snap[1] <= 0):
        raise RuntimeError("prior variance must be positive")
    grads = np.zeros_like(params)
    anchor = TaskAnchor(snap, np.log(snap[1]))
    kl = _pass(params, [(slice(0, params.shape[1]), [anchor])], *grads)[0]
    return float(kl), grads[0], grads[1]


def mean_penalty(net: BayesMlp, anchors, d_mu: Array) -> float:
    """The deterministic step's body pass: each anchor's (1/2) lam F (mu -
    mu_prev)^2 on body means, summed.  The anchors' gradients, summed among
    themselves, are added into d_mu, a row over (at least) the body columns."""
    return float(_pass(net.params, [(slice(0, net.body_cols), anchors)], d_mu)[1])


def batch_loss(net: BayesMlp, batch, head: int, anchors, dataset_size: int, rng):
    """Batch objective of every method; returns (breakdown, grads).

    nll is the batch-mean cross-entropy under one forward pass; grads is
    the step's (2, P) gradient buffer, into which every term adds.  With
    rng=None the net is deterministic: no KL, and each of anchors (EWC's,
    one per finished task) adds its mean penalty.  Otherwise one theta is
    sampled and each anchor (`task_anchor`) adds its KL (body to the
    snapshot) and, if it holds lam * F, both anchors; the routed head's KL
    is to UNIT, N(0, 1).  The KL is weighted 1/dataset_size, so an
    epoch's batches sum to the per-task bound.  If the kl or an anchor
    term is non-finite, breakdown.where names the first weight or bias, in
    `layer_parts` order, whose term is.
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
    segments = [(slice(0, net.body_cols), anchors)]
    if rng is None:
        w, kl, vp = 0.0, 0.0, 0.0
        # plain and EWC's first task have no anchors and skip the walk
        mp = mean_penalty(net, anchors, grads[0]) if anchors else 0.0
    else:
        w = 1.0 / dataset_size
        segments.append((net.heads[head].cols, [UNIT]))
        kl, mp, vp = _pass(net.params, segments, *grads, w)
    loss = LossBreakdown(nll, kl, w, mp, vp)
    which = {"kl": 0, "mean_penalty": 1, "var_penalty": 2}.get(loss.nonfinite_term())
    if which is not None:  # name the tensor: the same segments, a weight or bias at a time
        g = np.zeros_like(net.params)
        g_log_var = None if rng is None else g[1]
        for name, part in layer_parts(net):
            terms = [a for cols, a in segments if cols.start <= part.start < cols.stop]
            if terms and not np.isfinite(_pass(net.params, [(part, terms[0])], g[0],
                                               g_log_var)[which]):
                loss.where = name
                break
    return loss, grads


def estimate_fisher_diag(net: BayesMlp, data, head: int, n_samples: int, rng) -> Array:
    """Diagonal empirical Fisher: mean squared per-example log-lik gradient.

    Returns a (P,) vector over the network's columns: the body and the
    given head are estimated, other heads' entries are zero.  Penalties
    consume only the body entries; the head entries make the estimator
    usable on bare linear models in oracle checks.

    Gradients are taken at theta = mu (deterministic forward, no sampling)
    against each example's recorded label.  Draws n_samples examples without
    replacement when len(data) has that many, else n_samples with
    replacement.  The drawn rows are gathered one chunk at a time and keep
    their stored dtype; the network scales each chunk.

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

    fisher = np.zeros(net.params.shape[1])
    for lo in range(0, n_samples, FISHER_CHUNK):
        sel = idx[lo:lo + FISHER_CHUNK]
        logits, cache = sample_forward(net, x[sel], head, rng=None)
        d = np.exp(log_softmax(logits))
        d[np.arange(sel.size), y[sel]] -= 1.0  # per-example, unscaled
        for lc, dpre in _backward(cache, d):
            fw, fb = lc.layer.split(fisher)
            d2 = dpre**2
            fw += (lc.inp**2).T @ d2
            fb += d2.sum(axis=0)
    fisher /= n_samples
    return fisher
