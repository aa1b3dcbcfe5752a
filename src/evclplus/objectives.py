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
baseline and shares this code path via `symmetric=True`.

Heads are deliberately excluded from the cross-task terms: each head
serves a single task, is regularized toward a unit Gaussian while it
trains, and is never revisited.
"""

from dataclasses import dataclass

import numpy as np

from .bayes_mlp import BayesMlp, backprop, sample_forward
from .numerics import BLOCK, Array, batch_cross_entropy_with_grad, log_softmax


@dataclass
class Hyperparams:
    """Regularization strengths and the training Monte Carlo sample count."""

    lam: float = 100.0
    k: float = 5.0
    mc_train_samples: int = 1

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")


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


def kl_diag_gauss(mu: Array, log_var: Array, prior_mu: Array, prior_var: Array):
    """Closed-form KL( N(mu, exp(log_var)) || N(prior_mu, prior_var) ), summed.

    Returns (kl, d_mu, d_log_var).  Elementwise over arrays of equal shape.
    """
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    prior_mu = np.asarray(prior_mu, dtype=np.float64)
    prior_var = np.asarray(prior_var, dtype=np.float64)
    if mu.shape != log_var.shape or mu.shape != prior_mu.shape or mu.shape != prior_var.shape:
        raise RuntimeError("kl_diag_gauss shape mismatch")
    if np.any(prior_var <= 0):
        raise RuntimeError("prior variance must be positive (corrupt snapshot)")
    var = np.exp(log_var)
    diff = mu - prior_mu
    kl = 0.5 * np.sum(np.log(prior_var) - log_var + (var + diff**2) / prior_var - 1.0)
    d_mu = diff / prior_var
    d_log_var = 0.5 * (var / prior_var - 1.0)
    return float(kl), d_mu, d_log_var


def _body_blocks(net: BayesMlp):
    """Slices of at most BLOCK body columns, in order, covering the body."""
    n = net.body_cols
    return [slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def network_kl(net: BayesMlp, prior: Array, head: int, grads: Array,
               weight: float = 1.0) -> float:
    """KL of the current posterior against the chained prior.

    prior is a (2, P) snapshot (variances in row 1).  Body columns diverge
    from it; the routed head diverges from a unit Gaussian.  Heads not in
    use contribute nothing, which keeps them bit-frozen during other
    tasks' training.  Adds weight * the KL gradient into the (2, P) grads.
    """
    if prior.shape[1] < net.body_cols:
        raise RuntimeError("prior snapshot does not match network body")
    mu, log_var = net.params
    h = net.heads[head].cols
    terms = [(s, prior[0, s], prior[1, s]) for s in _body_blocks(net)]
    terms.append((h, np.zeros_like(mu[h]), np.ones_like(mu[h])))
    kl_total = 0.0
    for s, prior_mu, prior_var in terms:
        kl, d_mu, d_log_var = kl_diag_gauss(mu[s], log_var[s], prior_mu, prior_var)
        kl_total += kl
        g_mu, g_log_var = grads[:, s]
        g_mu += weight * d_mu
        g_log_var += weight * d_log_var
    return kl_total


def elbo_loss(net: BayesMlp, batch, head: int, prior: Array,
              dataset_size: int, rng, n_samples: int = 1):
    """Batch objective for plain variational continual training.

    nll is the batch-mean cross-entropy under `n_samples` sampled forward
    passes; the KL to the prior is weighted 1/dataset_size so that summing
    over an epoch's batches recovers the per-task bound.  Returns
    (breakdown, grads) with grads the step's (2, P) gradient buffer.
    """
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("empty batch")
    if dataset_size < y.size:
        raise ValueError("dataset_size smaller than the batch")

    grads = None
    nll = 0.0
    for _ in range(n_samples):
        logits, cache = sample_forward(net, x, head, rng)
        loss, dlogits = batch_cross_entropy_with_grad(
            logits if logits.ndim == 2 else logits[None, :], y)
        nll += loss / n_samples
        sample_grads = backprop(net, cache, dlogits, head)
        if n_samples > 1:
            sample_grads *= 1.0 / n_samples
        if grads is None:
            grads = sample_grads
        else:
            grads += sample_grads

    kl_weight = 1.0 / dataset_size
    kl = network_kl(net, prior, head, grads, kl_weight)
    breakdown = LossBreakdown(nll=nll, kl=kl, kl_weight=kl_weight,
                              mean_penalty=0.0, var_penalty=0.0,
                              total=nll + kl_weight * kl)
    return breakdown, grads


def mean_penalty(net: BayesMlp, prev: Array, fisher: Array, lam: float,
                 d_mu: Array) -> float:
    """Fisher-weighted quadratic anchor on body means: (lam/2) F (mu - mu_prev)^2.

    prev is a (2, P) snapshot and fisher a (P,) vector; the gradient is
    added into d_mu, an array over the body columns.
    """
    if fisher.shape[0] < net.body_cols:
        raise RuntimeError("fisher does not cover every body parameter")
    total = 0.0
    for s in _body_blocks(net):
        fv = fisher[s]
        diff = net.params[0, s] - prev[0, s]
        total += 0.5 * lam * np.sum(fv * diff**2)
        out = d_mu[s]
        out += lam * fv * diff
    return float(total)


def asym_var_penalty(net: BayesMlp, prev: Array, fisher: Array, lam: float,
                     k: float, d_log_var: Array, symmetric: bool = False) -> float:
    """Fisher-weighted branch penalty on body variances.

    Shrinking (or unchanged) variance pays (lam/2) F (var - var_prev)^2;
    growing variance pays (lam/2) k F var.  With symmetric=True the growing
    branch reuses the quadratic form, recovering the non-asymmetric
    baseline.  Gradients are taken through var = exp(log_var) and added
    into d_log_var, an array over the body columns.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0.0
    for s in _body_blocks(net):
        fv, pv = fisher[s], prev[1, s]
        var = np.exp(net.params[1, s])
        out = d_log_var[s]
        dec = var <= pv  # ties take the quadratic branch -> exactly 0 at a tie
        diff = var - pv
        quad_val = 0.5 * lam * fv * diff**2
        quad_grad = lam * fv * diff * var
        if symmetric:
            total += np.sum(quad_val)
            out += quad_grad
        else:
            inc_val = 0.5 * lam * k * fv * var
            total += np.sum(np.where(dec, quad_val, inc_val))
            out += np.where(dec, quad_grad, inc_val)
    return float(total)


def evclplus_loss(net: BayesMlp, batch, head: int, prev: Array,
                  fisher: Array, hp: Hyperparams, dataset_size: int, rng,
                  first_task: bool, symmetric_var: bool = False):
    """Full objective: ELBO plus both anchoring penalties.

    On the first task there is no previous posterior, so both penalties
    are identically zero and prev/fisher may be None.  The gradient sums
    per parameter as ((nll + kl / N) + mean anchor) + variance anchor.
    """
    prior = prev
    if first_task:
        if prior is None:
            raise ValueError("first task still needs a prior for the KL term")
    elif prev is None or fisher is None:
        raise ValueError("tasks after the first need a previous posterior and fisher")

    breakdown, grads = elbo_loss(net, batch, head, prior, dataset_size, rng,
                                 n_samples=hp.mc_train_samples)
    mp, vp = 0.0, 0.0
    if not first_task:
        body = slice(0, net.body_cols)
        mp = mean_penalty(net, prev, fisher, hp.lam, grads[0, body])
        vp = asym_var_penalty(net, prev, fisher, hp.lam, hp.k, grads[1, body],
                              symmetric=symmetric_var)
    breakdown.mean_penalty = mp
    breakdown.var_penalty = vp
    breakdown.total = breakdown.nll + breakdown.kl_weight * breakdown.kl + mp + vp
    return breakdown, grads


def estimate_fisher_diag(net: BayesMlp, data, head: int, n_samples: int,
                         rng, chunk: int = 1024) -> Array:
    """Diagonal empirical Fisher: mean squared per-example log-lik gradient.

    Returns a (P,) vector over the network's columns: the body and the
    given head are estimated, other heads' entries are zero.  Penalties
    consume only the body entries; the head entries make the estimator
    usable on bare linear models in oracle checks.

    Gradients are taken at theta = mu (deterministic forward, no sampling)
    against each example's recorded label.  Draws min(n_samples, len(data))
    examples without replacement, or n_samples with replacement when asked
    for more than exist.

    Per-example squared weight gradients never need to be materialized:
    for an affine layer, grad W[i,j] of one example is a_i * delta_j, so
    the mean of squares is (a^2)^T (delta^2) / n, computed batched.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x, y = data
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    m = y.size
    if m == 0:
        raise ValueError("empty data")
    idx = rng.choice(m, size=min(n_samples, m), replace=False) if n_samples <= m \
        else rng.choice(m, size=n_samples, replace=True)
    xs, ys = x[idx], y[idx]
    n = ys.size

    fisher = np.zeros(net.params.shape[1])
    layers = net.body + [net.heads[head]]
    for lo in range(0, n, chunk):
        bx, by = xs[lo:lo + chunk], ys[lo:lo + chunk]
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


def ewc_quadratic_penalty(net: BayesMlp, anchors, lam: float, d_mu: Array) -> float:
    """Multi-anchor quadratic penalty on body means for the deterministic baseline.

    anchors is a list of (snapshot, fisher), one per completed task; each
    contributes (lam/2) F (mu - mu_star)^2.  The anchors' gradients are
    summed among themselves before they are added into d_mu, an array
    over the body columns.
    """
    total = 0.0
    anchor_grads = np.zeros(net.body_cols)
    for snap, fisher in anchors:
        total += mean_penalty(net, snap, fisher, lam, anchor_grads)
    d_mu += anchor_grads
    return float(total)
