"""Task-sequence training loop, baselines, coresets, and accuracy bookkeeping.

`run_task_sequence` walks an ordered task stream with one of the supported
methods and returns the lower-triangular accuracy matrix acc[s][t]
(accuracy on task t after finishing task s).  State chains task to task:
after each task the posterior is snapshotted, Fisher information is
estimated where the method needs it, and the snapshot becomes the next
task's prior.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bayes_mlp import (
    BayesMlp,
    NetworkSpec,
    add_head,
    backprop,
    clone_network,
    init_network,
    posterior_predict,
    sample_forward,
    snapshot,
    unit_prior,
)
from .numerics import BLOCK, Array, SeededRng, batch_cross_entropy_with_grad
from .objectives import (
    Hyperparams,
    LossBreakdown,
    TaskAnchor,
    estimate_fisher_diag,
    ewc_quadratic_penalty,
    locate_nonfinite,
    task_anchor,
    variational_loss,
)

FINETUNE_EPOCH_CAP = 20


class Method(str, Enum):
    EVCL_PLUS = "evclplus"
    EVCL = "evcl"
    VCL = "vcl"
    VCL_RANDOM_CORESET = "vcl_random_coreset"
    VCL_KCENTER_CORESET = "vcl_kcenter_coreset"
    EWC = "ewc"
    CORESET_ONLY = "coreset_only"
    # debug baseline: deterministic net, pure cross-entropy, no anchoring
    PLAIN = "plain"

    @property
    def uses_coreset(self) -> bool:
        return self in (Method.VCL_RANDOM_CORESET, Method.VCL_KCENTER_CORESET,
                        Method.CORESET_ONLY)

    @property
    def deterministic(self) -> bool:
        return self in (Method.EWC, Method.PLAIN)

    @property
    def needs_fisher(self) -> bool:
        return self in (Method.EVCL_PLUS, Method.EVCL, Method.EWC)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    hp: Hyperparams = field(default_factory=Hyperparams)
    fisher_samples: int = 5000
    coreset_size: int = 200
    seed: int = 0
    eval_samples: int = 10

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class AdamState:
    """First/second moment buffers over the network's (2, P) columns."""

    m: Array
    v: Array
    t: int = 0


def init_adam(net: BayesMlp) -> AdamState:
    return AdamState(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(state: AdamState, net: BayesMlp, grads: Array, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, applied in place to the network.

    Walks the flat buffers in slices of BLOCK elements, updating the
    moments in place, so the only temporaries are two cache-sized scratch
    arrays.  Columns with zero gradient and zero moments (heads frozen for
    this task) come out unchanged.
    """
    if not grads.shape == state.m.shape == state.v.shape == net.params.shape:
        raise RuntimeError(f"adam shape mismatch: params {net.params.shape}, "
                           f"grads {grads.shape}, moments {state.m.shape}")
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    params, g, m, v = (a.reshape(-1) for a in (net.params, grads, state.m, state.v))
    scratch = np.empty((2, min(BLOCK, params.size)))
    for lo in range(0, params.size, BLOCK):
        s = slice(lo, lo + BLOCK)
        p_s, g_s, m_s, v_s = params[s], g[s], m[s], v[s]
        a, b = scratch[:, :p_s.size]
        m_s *= beta1
        np.multiply(1.0 - beta1, g_s, out=a)
        m_s += a
        v_s *= beta2
        np.multiply(1.0 - beta2, g_s, out=a)
        a *= g_s
        v_s += a
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
        np.divide(v_s, c2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(m_s, c1, out=b)
        b *= lr
        b /= a
        p_s -= b


def select_coreset_random(data, size: int, rng: SeededRng):
    """Uniform split without replacement: (coreset, remainder) partition data."""
    x, y = data
    n = len(y)
    if size > n:
        raise ValueError(f"coreset size {size} exceeds dataset size {n}")
    chosen = np.sort(rng.choice(n, size=size, replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return (x[mask], y[mask]), (x[~mask], y[~mask])


def _distances_to(out: Array, x: Array, centre: Array, scratch: Array) -> None:
    """out[i] = ||x[i] - centre||, a block of scratch.shape[0] rows at a time.

    Same arithmetic as np.linalg.norm(x - centre, axis=1), which is
    sqrt(add.reduce(diff * diff, axis=1)): each row is still reduced over
    its own contiguous elements, so the values match it bit for bit.
    """
    rows = scratch.shape[0]
    for lo in range(0, len(out), rows):
        o = out[lo:lo + rows]
        b = scratch[:len(o)]
        np.subtract(x[lo:lo + rows], centre, out=b)
        np.multiply(b, b, out=b)
        np.add.reduce(b, axis=1, out=o)
    np.sqrt(out, out=out)


def select_coreset_kcenter(data, size: int):
    """Greedy farthest-first traversal in input space.

    Starts from the max-norm point (deterministic), then repeatedly adds
    the point farthest from the current set; ties go to the lowest index
    and a row is never picked twice, so the coreset has exactly `size`
    rows even when fewer than `size` rows are distinct.  Distances are
    computed in row blocks of about BLOCK elements with the same
    arithmetic as per-row np.linalg.norm, so no (n, d) temporary is made.
    """
    x, y = data
    n = len(y)
    if size < 1:
        raise ValueError("k-center coreset needs size >= 1")
    if size > n:
        raise ValueError(f"coreset size {size} exceeds dataset size {n}")
    d = x.shape[1]
    scratch = np.empty((min(n, max(1, BLOCK // d)), d))
    dist, new = np.empty(n), np.empty(n)
    _distances_to(dist, x, np.zeros(d), scratch)  # x - 0.0 is exact: the norms
    start = int(np.argmax(dist))
    chosen = [start]
    _distances_to(dist, x, x[start], scratch)
    dist[start] = -np.inf
    for _ in range(size - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        _distances_to(new, x, x[nxt], scratch)
        np.minimum(dist, new, out=dist)
        dist[nxt] = -np.inf
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return (x[mask], y[mask]), (x[~mask], y[~mask])


@dataclass
class MethodState:
    """Everything that persists across tasks for one training run."""

    method: Method
    net: BayesMlp
    prior: Array             # (2, P) snapshot: KL target and penalty anchor
    fisher: Array = None     # (P,) Fisher diagonal from the previous task
    anchor: TaskAnchor = None  # this task's constants of the variational loss
    anchors: list = field(default_factory=list)   # EWC: a TaskAnchor per finished task
    coresets: list = field(default_factory=list)  # [(inputs, labels, head)]
    adam: AdamState = None


class DivergedError(RuntimeError):
    """A loss term went non-finite during training."""


def _batch_loss(state: MethodState, bx, by, head, dataset_size, rng,
                hp: Hyperparams):
    method = state.method
    if method.deterministic:
        # zero-variance path: forward at the means, no KL term
        logits, cache = sample_forward(state.net, bx, head, rng=None)
        loss, dlogits = batch_cross_entropy_with_grad(logits, by)
        grads = backprop(state.net, cache, dlogits, head)
        mp = 0.0
        if method is Method.EWC:
            mp = ewc_quadratic_penalty(state.net, state.anchors,
                                       grads[0, :state.net.body_cols])
        return LossBreakdown(loss, 0.0, 0.0, mp, 0.0, loss + mp), grads
    return variational_loss(state.net, (bx, by), head, state.anchor, dataset_size,
                            rng, n_samples=hp.mc_train_samples)


def _train_on_groups(state: MethodState, groups, config: TrainConfig, rng,
                     dataset_size, epochs, context: str):
    """Epochs of minibatch training over [(inputs, labels, head), ...] groups.

    Multi-task groups (coreset unions) route each group through its own
    head; the KL weight uses the union size.
    """
    for epoch in range(epochs):
        for gx, gy, ghead in groups:
            n = len(gy)
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                sel = order[lo:lo + config.batch_size]
                breakdown, grads = _batch_loss(
                    state, gx[sel], gy[sel], ghead, dataset_size, rng, config.hp)
                bad = breakdown.nonfinite_term()
                if bad is not None:
                    anchors = state.anchors if state.anchor is None else [state.anchor]
                    where = next(filter(None, (locate_nonfinite(state.net, a, bad)
                                               for a in anchors)), None)
                    raise DivergedError(
                        f"{context}: loss term '{bad}' went non-finite"
                        f"{f' in {where}' if where else ''} "
                        f"(epoch {epoch + 1}, head {ghead})")
                adam_step(state.adam, state.net, grads, config.learning_rate)


def finetune_on_coreset(state: MethodState, config: TrainConfig, rng) -> BayesMlp:
    """Train a throwaway copy on the stored coreset union before evaluating.

    The copy's KL anchors to the pre-finetune posterior; the original state
    is untouched.  With no stored coresets the copy comes back unchanged.
    """
    net_copy = clone_network(state.net)
    if not state.coresets:
        return net_copy
    prior = snapshot(state.net)
    tuned = MethodState(method=Method.VCL, net=net_copy, prior=prior,
                        anchor=task_anchor(net_copy, prior),
                        adam=init_adam(net_copy))
    union_size = sum(len(y) for _, y, _ in state.coresets)
    epochs = min(config.epochs, FINETUNE_EPOCH_CAP)
    _train_on_groups(tuned, state.coresets, config, rng, union_size,
                     epochs=epochs, context="coreset finetune")
    return net_copy


def evaluate(net: BayesMlp, tasks, heads, eval_samples: int, rng,
             deterministic: bool = False):
    """Per-task test accuracy: argmax of the predictive distribution."""
    accs = []
    for (x, y), head in zip(tasks, heads):
        probs = posterior_predict(net, x, head,
                                  1 if deterministic else eval_samples,
                                  None if deterministic else rng)
        accs.append(float(np.mean(np.argmax(probs, axis=1) == y)))
    return accs


def forgetting_measure(acc) -> float:
    """Mean over earlier tasks of (best accuracy ever seen - final accuracy)."""
    T = len(acc)
    if T < 2:
        raise ValueError("forgetting needs at least two tasks")
    drops = []
    for t in range(T - 1):
        best = max(acc[s][t] for s in range(t, T))
        drops.append(best - acc[T - 1][t])
    return float(sum(drops) / (T - 1))


def run_task_sequence(method: Method, config: TrainConfig, stream,
                      net_spec: NetworkSpec, on_task_end=None):
    """Train `method` through the task stream; returns acc[s][t] (lists).

    Per task: route/create the head, optionally split off a coreset, run
    the method's objective for config.epochs, snapshot the posterior and
    estimate Fisher where needed, chain the snapshot into the next task's
    prior, then test on every task seen so far.  on_task_end, if given, is
    called with (task_index, state, snapshot) after each task completes.
    """
    if len(stream.tasks) < 1:
        raise ValueError("task stream is empty")
    master = SeededRng(config.seed)
    net = init_network(net_spec, master.spawn())
    # before any data: a broad unit-Gaussian anchor, matching head creation
    state = MethodState(method=method, net=net, prior=unit_prior(net))

    matrix = []
    for t, task in enumerate(stream.tasks):
        # fixed spawn order per task keeps rng channels independent of method
        rng_head = master.spawn()
        rng_coreset = master.spawn()
        rng_train = master.spawn()
        rng_fisher = master.spawn()
        rng_finetune = master.spawn()
        rng_eval = master.spawn()

        while task.head >= net.n_heads:
            add_head(net, rng_head)
        train_x, train_y = task.train.inputs, task.train.labels

        if method.uses_coreset and config.coreset_size > 0:
            if method is Method.VCL_KCENTER_CORESET:
                (cx, cy), (train_x, train_y) = select_coreset_kcenter(
                    (train_x, train_y), config.coreset_size)
            else:
                (cx, cy), (train_x, train_y) = select_coreset_random(
                    (train_x, train_y), config.coreset_size, rng_coreset)
            state.coresets.append((cx, cy, task.head))

        state.adam = init_adam(net)  # stale moments would bleed across tasks
        if not method.deterministic:
            # EVCL(+) anchors to the previous posterior once there is one
            anchored = t > 0 and method in (Method.EVCL_PLUS, Method.EVCL)
            state.anchor = task_anchor(net, state.prior,
                                       state.fisher if anchored else None,
                                       config.hp, symmetric=method is Method.EVCL)
        # coreset_only: the accumulated coresets are the entire training signal
        groups = (state.coresets if method is Method.CORESET_ONLY
                  else [(train_x, train_y, task.head)])
        _train_on_groups(state, groups, config, rng_train,
                         sum(len(y) for _, y, _ in groups), epochs=config.epochs,
                         context=f"{method.value} task {t + 1}")
        snap = snapshot(net)
        if method.needs_fisher:
            fisher = estimate_fisher_diag(net, (train_x, train_y), task.head,
                                          config.fisher_samples, rng_fisher)
            if method is Method.EWC:  # means only: symmetric skips grow_f
                state.anchors.append(task_anchor(net, snap, fisher, config.hp,
                                                 symmetric=True))
            state.fisher = fisher
        if method is not Method.CORESET_ONLY:
            state.prior = snap  # next task's KL target
        # coreset_only refits on the whole union every task, so its KL stays
        # anchored to the initial prior: chaining would double-count old coresets

        if on_task_end is not None:
            on_task_end(t, state, snap)

        if method in (Method.VCL_RANDOM_CORESET, Method.VCL_KCENTER_CORESET):
            eval_net = finetune_on_coreset(state, config, rng_finetune)
        else:
            eval_net = net
        seen = stream.tasks[:t + 1]
        accs = evaluate(eval_net,
                        [(tk.test.inputs, tk.test.labels) for tk in seen],
                        [tk.head for tk in seen],
                        config.eval_samples, rng_eval,
                        deterministic=method.deterministic)
        matrix.append(accs)
    return matrix
