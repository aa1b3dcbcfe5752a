"""Independent numeric oracles: finite differences, analytic logistic Fisher,
Monte Carlo KL estimation, and a brute-force k-center traversal.

These deliberately avoid the analytic code paths they check.  `selftest`
runs the battery for the CLI; the acceptance gate calls its public cases,
`check_full_loss_gradients`, `check_kl_closed_form_vs_mc` and
`check_fisher_estimator_vs_analytic`, and the k-center tests `kcenter_brute_force`.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import Array, SeededRng

DEFAULT_EPS = 1e-5  # balances truncation vs rounding error for float64
REL_ERROR_FLOOR = 1e-8


@dataclass
class FiniteDiffReport:
    analytic: Array
    numeric: Array
    rel_errors: Array
    max_rel_error: float
    threshold: float
    nonfinite: Array  # bool per coordinate: perturbed loss went non-finite

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error < self.threshold and not self.nonfinite.any())

    def worst_coordinates(self, n=5):
        idx = np.argsort(self.rel_errors)[::-1][:n]
        return [(int(i), float(self.analytic[i]), float(self.numeric[i]),
                 float(self.rel_errors[i])) for i in idx]


def finite_diff_check(loss_fn, params: Array, analytic: Array,
                      eps: float = DEFAULT_EPS,
                      threshold: float = 1e-4) -> FiniteDiffReport:
    """Central-difference gradient of loss_fn at params vs supplied analytic.

    loss_fn must be deterministic: callers freeze any sampling noise before
    handing it over, otherwise the comparison is meaningless.  Relative
    error uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    params = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if params.shape != analytic.shape:
        raise ValueError("params and analytic gradient shapes differ")
    numeric = np.zeros_like(params)
    nonfinite = np.zeros(params.shape, dtype=bool)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        up = loss_fn(bumped)
        bumped[i] -= 2 * eps
        down = loss_fn(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            nonfinite[i] = True
            continue
        numeric[i] = (up - down) / (2 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       REL_ERROR_FLOOR)
    rel = np.abs(analytic - numeric) / denom
    rel[nonfinite] = np.inf
    return FiniteDiffReport(analytic=analytic, numeric=numeric, rel_errors=rel,
                            max_rel_error=float(rel.max()), threshold=threshold,
                            nonfinite=nonfinite)


def logistic_fisher_analytic(w: float, xs) -> float:
    """True Fisher of a 1-D logistic model: mean of x^2 p (1-p), p = sigmoid(wx)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("xs must be non-empty")
    p = 1.0 / (1.0 + np.exp(-w * xs))
    return float(np.mean(xs**2 * p * (1.0 - p)))


def kl_mc_estimate(q, p, n: int, rng: SeededRng):
    """Monte Carlo KL( N(q) || N(p) ) for scalar Gaussians: (estimate, std_error)."""
    (mu_q, var_q), (mu_p, var_p) = q, p
    if var_q <= 0 or var_p <= 0:
        raise ValueError("variances must be positive")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    theta = mu_q + math.sqrt(var_q) * rng.standard_normal(n)
    log_q = -0.5 * (np.log(2 * np.pi * var_q) + (theta - mu_q) ** 2 / var_q)
    log_p = -0.5 * (np.log(2 * np.pi * var_p) + (theta - mu_p) ** 2 / var_p)
    diffs = log_q - log_p
    estimate = float(diffs.mean())
    std_error = float(diffs.std(ddof=1) / math.sqrt(n))
    return estimate, std_error


# ---------------------------------------------------------------------------
# selftest battery (wired to the CLI)
# ---------------------------------------------------------------------------


def _check_finite_diff_basics():
    report = finite_diff_check(lambda v: float(v[0] ** 2), np.array([3.0]),
                               np.array([6.0]))
    return report.passed, f"f=x^2 at 3: numeric {report.numeric[0]:.9f}"


def _check_logistic_values():
    ok = (abs(logistic_fisher_analytic(0.0, [1.0]) - 0.25) < 1e-15
          and abs(logistic_fisher_analytic(0.0, [2.0]) - 1.0) < 1e-15)
    return ok, "analytic logistic Fisher hand values"


def check_kl_closed_form_vs_mc(pairs=5, n=200_000, seed=1234):
    from .objectives import kl_diag_gauss
    rng = SeededRng(seed)
    for _ in range(pairs):
        mu_q = float(rng.uniform(-2, 2))
        mu_p = float(rng.uniform(-2, 2))
        var_q = float(rng.uniform(0.2, 3.0))
        var_p = float(rng.uniform(0.2, 3.0))
        closed, _, _ = kl_diag_gauss(np.array([mu_q]), np.array([math.log(var_q)]),
                                     np.array([mu_p]), np.array([var_p]))
        est, se = kl_mc_estimate((mu_q, var_q), (mu_p, var_p), n, rng)
        if abs(est - closed) > 3 * se:
            return False, f"KL mismatch: closed {closed:.5f} vs MC {est:.5f} +- {se:.5f}"
    return True, f"closed-form KL within 3 SE of Monte Carlo ({pairs} random pairs)"


def check_full_loss_gradients():
    from . import bayes_mlp as bm
    from .objectives import batch_loss, task_anchor

    seed = 7
    rng = SeededRng(seed)
    spec = bm.NetworkSpec(input_dim=4, hidden_dims=[5], head_dim=3)
    net = bm.init_network(spec, rng)
    x = rng.uniform(0, 1, size=(6, 4))
    y = rng.integers(0, 3, size=6)

    prev_rng = SeededRng(seed + 1)
    prev_net = bm.clone_network(net)
    mu, log_var = prev_net.params
    mu += 0.1 * prev_rng.standard_normal(mu.shape)
    # scale factors bounded away from 1 so +-eps never flips a branch
    shift = np.where(prev_rng.uniform(size=log_var.shape) < 0.5, -0.4, 0.4)
    log_var += shift
    prev = bm.snapshot(prev_net)
    fisher = prev_rng.uniform(0.1, 2.0, size=net.params.shape[1])
    anchor = task_anchor(net, prev, fisher, lam=100.0, k=5.0)

    def loss_at(vec):
        probe = bm.BayesMlp(spec, vec.reshape(net.params.shape))
        return batch_loss(probe, (x, y), 0, [anchor], dataset_size=60,
                          rng=SeededRng(seed + 2))

    params = net.params.ravel()
    breakdown, grads = loss_at(params)
    report = finite_diff_check(lambda v: loss_at(v)[0].total, params, grads.ravel())
    ok = bool(report.passed and np.unique(shift[:net.body_cols]).size == 2  # both branches
              and breakdown.var_penalty > 0 and breakdown.mean_penalty > 0)
    return ok, (f"full-loss gradients: max rel error "
                f"{report.max_rel_error:.2e} over {net.params.size} coords")


def check_fisher_estimator_vs_analytic():
    """Empirical Fisher on a logistic model whose labels follow the model.

    With labels drawn from the model's own conditional, the empirical
    Fisher is an unbiased estimate of the true Fisher, so the two label
    conventions agree here; their difference only appears under model
    misspecification.
    """
    from . import bayes_mlp as bm
    from .objectives import estimate_fisher_diag

    w = 0.3
    rng = SeededRng(99)
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[], head_dim=2)
    net = bm.init_network(spec, rng)
    head = net.heads[0]
    head.w_mu[...] = np.array([[0.0, w]])
    head.b_mu[...] = 0.0

    xs = rng.uniform(-2.0, 2.0, size=5000)
    p1 = 1.0 / (1.0 + np.exp(-w * xs))
    labels = (rng.uniform(size=5000) < p1).astype(np.int64)
    fisher = estimate_fisher_diag(net, (xs[:, None], labels), head=0,
                                  n_samples=5000, rng=rng)
    est = float(head.split(fisher)[0][0, 1])
    truth = logistic_fisher_analytic(w, xs)
    ok = abs(est - truth) / truth < 0.05
    return ok, f"fisher estimate {est:.4f} vs analytic {truth:.4f} (5000 samples)"


def kcenter_brute_force(x: Array, size: int) -> list:
    """Farthest-first traversal taking every row's np.linalg.norm to each
    new centre; picked rows are never picked again.  Returns the picked row
    indices in pick order."""
    dist = np.full(len(x), np.inf)
    chosen = [int(np.argmax(np.linalg.norm(x, axis=1)))]
    while len(chosen) < size:
        dist = np.minimum(dist, np.linalg.norm(x - x[chosen[-1]], axis=1))
        dist[chosen] = -np.inf
        chosen.append(int(np.argmax(dist)))
    return chosen


def _check_kcenter_vs_brute_force():
    """The pruned selection picks the brute-force rows in their order on
    uint8 pixel rows of a 12 x 12 x 12 lattice, shuffled by a fixed seed,
    plus 200 duplicate rows: many distances tie exactly, so a pruning bound
    without its rounding margins, or a wrong update, changes a pick."""
    from .continual import select_coreset_kcenter

    rng = SeededRng(2025)
    lattice = np.array(list(itertools.product(range(0, 256, 23), repeat=3)), np.uint8)
    pixels = np.vstack([lattice, lattice[rng.integers(0, len(lattice), size=200)]])
    pixels = pixels[rng.permutation(len(pixels))]
    n, size = len(pixels), 100
    picked = select_coreset_kcenter(pixels, size).tolist()
    want = kcenter_brute_force(pixels / 255.0, size)
    return picked == want, (f"k-center picks equal a brute-force farthest-first "
                            f"traversal, in pick order ({size} of {n} rows)")


ORACLES = [
    ("finite-diff central difference", _check_finite_diff_basics),
    ("logistic Fisher hand values", _check_logistic_values),
    ("closed-form KL vs Monte Carlo", check_kl_closed_form_vs_mc),
    ("full-loss gradient check", check_full_loss_gradients),
    ("fisher estimator vs analytic", check_fisher_estimator_vs_analytic),
    ("k-center vs brute force", _check_kcenter_vs_brute_force),
]


def selftest(out=print) -> bool:
    """Run every oracle; print one pass/fail line each; True iff all passed."""
    all_ok = True
    for name, fn in ORACLES:
        try:
            ok, msg = fn()
        except Exception as exc:  # an oracle crashing is a failure, not an abort
            ok, msg = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}")
    return all_ok
