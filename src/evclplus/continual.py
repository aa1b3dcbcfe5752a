"""Task-sequence training loop, baselines, coresets, and accuracy bookkeeping.

`run_task_sequence` walks an ordered task stream with a `Method`, a
`TrainConfig` and a seed, and returns the lower-triangular accuracy matrix
acc[s][t] (accuracy on task t after finishing task s).  It reads the
method's `MethodRow`, its row of the one table in `Method`, and names no
method.  After each task the posterior is snapshotted, Fisher information
is estimated where the row has a fisher, and the snapshot becomes the next
task's prior and the KL target of a coreset finetune.  Training groups,
coresets and the tasks `evaluate` scores are all (inputs, labels, head)
triples.
"""

from dataclasses import dataclass, fields
from enum import Enum
import numbers
from typing import NamedTuple

import numpy as np

from .bayes_mlp import (BayesMlp, NetworkSpec, add_head, clone_network, init_network,
                        param_name, posterior_predict, snapshot,
                        sample_forward)  # unused here: perfbench's tests pin the binding
from .numerics import BLOCK, Array, SeededRng, pixel_floats
from .objectives import TaskAnchor, batch_loss, estimate_fisher_diag, task_anchor

FINETUNE_EPOCH_CAP = 20
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class MethodRow(NamedTuple):
    """What a method's objective carries; a coreset that is not all a method
    trains on finetunes a copy of the net before each evaluation."""

    deterministic: bool  # a plain net at its means: no sampling, no KL
    fisher: str | None  # the "last" task's, in both anchors, or "each" task's (EWC)
    symmetric: bool  # the variance anchor is quadratic on both sides
    coreset: str | None  # "random" or "kcenter"
    coreset_only: bool  # the coreset union is all it trains on; the prior stays N(0, 1)


class Method(str, Enum):
    """Each method's name and `MethodRow`: the one table of what it does."""

    #                     value                  determ fisher  symm   coreset    only
    EVCL_PLUS           = "evclplus",            False, "last", False, None,      False
    EVCL                = "evcl",                False, "last", True,  None,      False
    VCL                 = "vcl",                 False, None,   False, None,      False
    VCL_RANDOM_CORESET  = "vcl_random_coreset",  False, None,   False, "random",  False
    VCL_KCENTER_CORESET = "vcl_kcenter_coreset", False, None,   False, "kcenter", False
    EWC                 = "ewc",                 True,  "each", False, None,      False
    CORESET_ONLY        = "coreset_only",        False, None,   False, "random",  True
    # debug baseline: deterministic net, pure cross-entropy, no anchoring
    PLAIN               = "plain",               True,  None,   False, None,      False

    def __new__(cls, value: str, *row):
        member = str.__new__(cls, value)
        member._value_, member.row = value, MethodRow(*row)
        return member

    # reads of the row that the harness and perfbench use
    uses_coreset = property(lambda self: self.row.coreset is not None)
    deterministic = property(lambda self: self.row.deterministic)
    needs_fisher = property(lambda self: self.row.fisher is not None)


def config_key(name: str) -> str:
    """The config-file key of a config field: its name, except lam's."""
    return "lambda" if name == "lam" else name


@dataclass
class TrainConfig:
    """Training knobs, checked on construction; an error names the config key."""

    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    lam: float = 100.0
    k: float = 5.0
    fisher_samples: int = 5000
    coreset_size: int = 200
    eval_samples: int = 10

    _MINIMUMS = {"epochs": 1, "batch_size": 1, "fisher_samples": 1,
                 "eval_samples": 1, "coreset_size": 0, "lam": 0, "k": 0}

    def __post_init__(self):
        # the counts: range() and array shapes take no float; no bool is a number
        kinds = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}
        for f in (f for f in fields(self) if f.type in kinds):
            (kind, noun), value = kinds[f.type], getattr(self, f.name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{config_key(f.name)} must be {noun}, got {value!r}")
        if not self.learning_rate > 0:  # also rejects nan
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name, low in self._MINIMUMS.items():
            value = getattr(self, name)
            if not value >= low:
                raise ValueError(f"{config_key(name)} must be >= {low}, got {value}")
        for name in ("learning_rate", "lam", "k"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{config_key(name)} must be finite, got {value}")

    def check_method(self, method: Method) -> None:
        """Reject a method these knobs cannot run: a coreset method, no coreset."""
        if method.uses_coreset and self.coreset_size < 1:
            raise ValueError(f"coreset_size must be >= 1 for method {method.value}, "
                             f"got {self.coreset_size}")


@dataclass
class AdamState:
    """First/second moment buffers over the leading rows of the network's
    (2, P) columns: both rows, or only the means of a deterministic net."""

    m: Array
    v: Array
    t: int = 0


def init_adam(net: BayesMlp, deterministic: bool = False) -> AdamState:
    """Zero moments for the rows that train: a deterministic method's
    log-variances get no gradient, so its moments cover row 0 only."""
    rows = net.params[:1 if deterministic else 2]
    return AdamState(m=np.zeros_like(rows), v=np.zeros_like(rows))


def adam_step(state: AdamState, net: BayesMlp, grads: Array, lr: float) -> None:
    """One bias-corrected Adam update, applied in place to the network.

    Updates the rows of params the moments cover; the others are left as
    they are.  Walks the flat buffers in slices of BLOCK elements, updating
    the moments in place, so every temporary is slice-sized.  Columns with
    zero gradient and zero moments (heads frozen for this task) come out
    unchanged.
    """
    n_rows = state.m.shape[0]
    if not (grads.shape == net.params.shape
            and state.m.shape == state.v.shape == net.params[:n_rows].shape):
        raise RuntimeError(f"adam shape mismatch: params {net.params.shape}, "
                           f"grads {grads.shape}, moments {state.m.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    params, g, m, v = (a.reshape(-1) for a in (net.params[:n_rows], grads[:n_rows],
                                                state.m, state.v))
    for lo in range(0, params.size, BLOCK):
        s = slice(lo, lo + BLOCK)
        g_s, m_s, v_s = g[s], m[s], v[s]
        m_s *= ADAM_BETA1
        m_s += (1.0 - ADAM_BETA1) * g_s
        v_s *= ADAM_BETA2
        v_s += (1.0 - ADAM_BETA2) * g_s * g_s
        params[s] -= m_s / c1 * lr / (np.sqrt(v_s / c2) + ADAM_EPS)


def select_coreset_random(n: int, size: int, rng: SeededRng) -> Array:
    """Indices of a uniform draw of size of n rows without replacement,
    ascending."""
    if size > n:
        raise ValueError(f"coreset size {size} exceeds dataset size {n}")
    return np.sort(rng.choice(n, size=size, replace=False))


def _distances_to(out: Array, x: Array, centre: Array, rows: Array) -> None:
    """out[i] = ||x[rows[i]] - centre||.

    Gathers about BLOCK elements of rows at a time, so no (n, d) temporary
    is made.  Same arithmetic as np.linalg.norm(x[rows] - centre, axis=1),
    which is sqrt(add.reduce(diff * diff, axis=1)): each row is still
    reduced over its own contiguous elements, so the values match it bit
    for bit.
    """
    step = max(1, BLOCK // x.shape[1])
    for lo in range(0, len(out), step):
        diff = x[rows[lo:lo + step]] - centre
        np.add.reduce(diff * diff, axis=1, out=out[lo:lo + step])
    np.sqrt(out, out=out)


# How many times over select_coreset_kcenter takes its rounding-error
# bounds: room for their second-order terms and the rounding of the test.
KCENTER_BOUND_SAFETY = 4.0


def select_coreset_kcenter(x: Array, size: int) -> Array:
    """Indices of the rows of x a greedy farthest-first traversal in input
    space picks, in pick order.

    Starts from the max-norm point (deterministic), then repeatedly adds
    the point farthest from the current set; ties go to the lowest index
    and a row is never picked twice, so there are exactly `size` distinct
    indices even when fewer than `size` rows are distinct.  The picks are
    bit-identical to recomputing every row's distance to each new centre
    c with per-row np.linalg.norm on the rows' pixel_floats, but only the
    rows whose distance might drop get that exact pass.

    With sq = norms**2 from one exact pass per call, one BLAS GEMV per
    pick gives est_i = sq_i + sq_c - 2 x_i.c, which in any summation order
    is within (d + 4) eps (sq_i + sq_c) + (2d + 3) tiny of the true squared
    distance D_i (eps: float64 epsilon; tiny: the smallest subnormal, twice
    what a product that underflows can lose).  The exact pass's own value
    has new_i**2 >= D_i (1 - (d + 4) eps) - (2d + 3) tiny.  With
    rel = KCENTER_BOUND_SAFETY (d + 4) eps and floor =
    KCENTER_BOUND_SAFETY (2d + 3) tiny, a row with
    est_i - rel (sq_i + sq_c) - 2 floor > dist_i**2 (1 + rel) + floor
    therefore gets new_i > dist_i, so np.minimum would return dist_i: the
    row is skipped and keeps its dist exactly.  A NaN estimate (squares
    that overflow) fails that test, so its row gets the exact pass.  Rows
    with dist_i <= 0 (picked rows at -inf, duplicates of a picked row)
    cannot change either and are skipped too.

    The exact pass runs in row blocks of about BLOCK elements over the
    pixel_floats made once per call; no other (n, d) temporary is made.
    """
    n = len(x)
    if size < 1:
        raise ValueError("k-center coreset needs size >= 1")
    if size > n:
        raise ValueError(f"coreset size {size} exceeds dataset size {n}")
    d = x.shape[1]
    xf = pixel_floats(x)
    norms = np.empty(n)
    _distances_to(norms, xf, np.zeros(d), np.arange(n))  # x - 0.0 is exact
    with np.errstate(over="ignore"):  # an infinite square makes its bounds NaN
        sq = norms * norms
    rel = KCENTER_BOUND_SAFETY * (d + 4) * np.finfo(np.float64).eps
    floor = KCENTER_BOUND_SAFETY * (2 * d + 3) * np.finfo(np.float64).smallest_subnormal
    slack = rel * sq + floor  # the row's share of the estimate's error
    dist = np.full(n, np.inf)  # before the first centre every row is evaluated
    chosen = [int(np.argmax(norms))]
    while True:
        c = chosen[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN: exact pass
            lower = np.dot(xf, xf[c]) * -2.0 + sq - slack + (sq[c] - slack[c])
            bound = dist * dist * (1.0 + rel) + floor
        near = np.flatnonzero(~(lower > bound) & (dist > 0))
        new = np.empty(len(near))
        _distances_to(new, xf, xf[c], near)
        dist[near] = np.minimum(dist[near], new)
        dist[c] = -np.inf
        if len(chosen) == size:
            break
        chosen.append(int(np.argmax(dist)))
    return np.array(chosen)


class DivergedError(RuntimeError):
    """A loss term went non-finite during training."""


def _train_on_groups(net: BayesMlp, anchors, groups, config: TrainConfig, rng, epochs,
                     context: str, deterministic: bool):
    """Epochs of minibatch training of net, in place, over
    [(inputs, labels, head), ...] groups, with the loss's TaskAnchors.

    Each call starts a fresh Adam state, over the means only when
    deterministic.  Multi-task groups (coreset unions) route each group
    through its own head; the KL weight uses the size of all groups
    together; a deterministic net's loss gets rng=None.  Each
    batch's rows are gathered in their stored dtype; the network scales
    them.  A non-finite loss term or gradient raises DivergedError naming
    it, and a gradient's parameter element, before Adam applies it.
    """
    adam = init_adam(net, deterministic)
    loss_rng = None if deterministic else rng
    dataset_size = sum(len(y) for _, y, _ in groups)
    for epoch in range(epochs):
        for gx, gy, ghead in groups:
            n = len(gy)
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                sel = order[lo:lo + config.batch_size]
                breakdown, grads = batch_loss(net, (gx[sel], gy[sel]), ghead, anchors,
                                              dataset_size, loss_rng)
                bad = breakdown.nonfinite_term()
                if bad is not None:
                    raise DivergedError(
                        f"{context}: loss term '{bad}' went non-finite"
                        f"{f' in {breakdown.where}' if breakdown.where else ''} "
                        f"(epoch {epoch + 1}, head {ghead})")
                if not np.isfinite(grads).all():
                    row, col = np.argwhere(~np.isfinite(grads))[0]
                    raise DivergedError(
                        f"{context}: gradient went non-finite in "
                        f"{param_name(net, col)} "
                        f"{('mean', 'log-variance')[row]} "
                        f"(epoch {epoch + 1}, head {ghead})")
                adam_step(adam, net, grads, config.learning_rate)


def finetune_on_coreset(net: BayesMlp, snap: Array, coresets, config: TrainConfig,
                        rng, context: str) -> BayesMlp:
    """A copy of net trained on the coreset union [(inputs, labels, head)]
    before evaluating, its KL anchored to snap, the task's own snapshot of
    net; net is untouched.  With no coresets the copy comes back unchanged.
    A divergence is named "<context> coreset finetune".
    """
    net_copy = clone_network(net)
    _train_on_groups(net_copy, [task_anchor(net_copy, snap)], coresets, config, rng,
                     min(config.epochs, FINETUNE_EPOCH_CAP),
                     f"{context} coreset finetune", False)
    return net_copy


def evaluate(net: BayesMlp, tasks, eval_samples: int, rng):
    """Per-task test accuracy over [(inputs, labels, head), ...]: argmax of
    the predictive distribution, one pass at the means when rng is None."""
    accs = []
    for x, y, head in tasks:
        probs = posterior_predict(net, x, head, eval_samples, rng)
        accs.append(float(np.mean(np.argmax(probs, axis=1) == y)))
    return accs


def forgetting_measure(acc) -> float:
    """Mean over earlier tasks of (best accuracy ever seen - final accuracy)."""
    T = len(acc)
    if T < 2:
        raise ValueError("forgetting needs at least two tasks")
    drops = [max(acc[s][t] for s in range(t, T)) - acc[T - 1][t] for t in range(T - 1)]
    return float(sum(drops) / (T - 1))


class ConfigError(ValueError):
    """Bad experiment config; message names the offending line or key."""


def check_inputs(method: Method, config: TrainConfig, stream, spec: NetworkSpec) -> None:
    """Reject a run that cannot start, from stored sizes and labels alone: an
    empty stream, a method the config cannot run, or a stored split with no
    rows, a width other than spec.input_dim or a label >= spec.head_dim,
    named by task, split and sizes, are ValueErrors; a coreset_size above
    the smallest training split is a ConfigError naming the method."""
    if len(stream.tasks) < 1:
        raise ValueError("task stream is empty")
    config.check_method(method)
    for t, task in enumerate(stream.tasks):
        for name, split in zip(("train", "test"), task.stored):
            top, where = split.labels.max(initial=0), f"task {t + 1} {name} split"
            if len(split) == 0:
                raise ValueError(f"{where} has 0 rows")
            if split.dim != spec.input_dim:
                raise ValueError(f"{where} has input dim {split.dim}, but the "
                                 f"network's input_dim is {spec.input_dim}")
            if top >= spec.head_dim:
                raise ValueError(f"{where} has label {top}, but a head has "
                                 f"{spec.head_dim} outputs")
    smallest = min(len(task.stored[0]) for task in stream.tasks)
    if method.uses_coreset and config.coreset_size > smallest:
        raise ConfigError(f"coreset_size {config.coreset_size} exceeds the smallest "
                          f"training split ({smallest} rows) for method {method.value}")


def run_task_sequence(method: Method, config: TrainConfig, stream,
                      spec: NetworkSpec, seed: int, on_task_end=None):
    """Train `method` through the task stream, as its `MethodRow` says;
    returns acc[s][t] (lists).  `check_inputs` runs first.

    seed alone fixes every random draw of the run.  Per task: route/create
    the head, optionally split off a coreset, run the method's objective for
    config.epochs, snapshot the posterior and estimate Fisher where needed,
    chain the snapshot into the next task's prior, then test on every task
    seen so far.  All cross-task state is loop values: the net, the prior,
    the Fisher, the loss's anchors and the coresets.  on_task_end, if given,
    is called with (task_index, net, anchors, snapshot) after each task.
    """
    check_inputs(method, config, stream, spec)
    row = method.row
    master = SeededRng(seed)
    net = init_network(spec, master.spawn())
    # before any data: N(0, 1), the KL target of every head too
    prior, fisher = None, None
    # the loss's TaskAnchors: this task's one, or EWC's one per finished task
    anchors, coresets = [], []  # coresets: [(inputs, labels, head)]

    matrix, tests = [], []  # tests: each seen task's (inputs, labels, head), read once
    for t, task in enumerate(stream.tasks):
        # fixed spawn order per task keeps rng channels independent of method
        (rng_head, rng_coreset, rng_train, rng_fisher, rng_finetune,
         rng_eval) = (master.spawn() for _ in range(6))

        while task.head >= net.n_heads:
            add_head(net, rng_head)
        train = task.train  # the one read: a permuted task gathers it here
        train_x, train_y = train.inputs, train.labels

        if row.coreset:
            # the one partition; both parts keep the rows' order and dtype
            if row.coreset == "kcenter":
                core = select_coreset_kcenter(train_x, config.coreset_size)
            else:
                core = select_coreset_random(len(train_y), config.coreset_size, rng_coreset)
            picked = np.zeros(len(train_y), dtype=bool)
            picked[core] = True
            coresets.append((train_x[picked], train_y[picked], task.head))
            train_x, train_y = train_x[~picked], train_y[~picked]

        if not row.deterministic:
            # the KL to prior, plus both anchors once a "last" fisher exists
            anchors = [task_anchor(net, prior, fisher, config.lam, config.k,
                                   symmetric=row.symmetric)]
        groups = coresets if row.coreset_only else [(train_x, train_y, task.head)]
        context = f"{method.value} task {t + 1}"
        _train_on_groups(net, anchors, groups, config, rng_train, config.epochs,
                         context, row.deterministic)
        snap = snapshot(net)
        if row.fisher:
            fisher = estimate_fisher_diag(net, (train_x, train_y), task.head,
                                          config.fisher_samples, rng_fisher)
            if row.fisher == "each":  # means only: no KL, no variance anchor
                anchors.append(TaskAnchor(snap, lam_f=config.lam * fisher[:net.body_cols]))
        if not row.coreset_only:  # each task refits the union: chaining double-counts
            prior = snap  # next task's KL target

        if on_task_end is not None:
            on_task_end(t, net, anchors, snap)

        eval_net = (finetune_on_coreset(net, snap, coresets, config, rng_finetune, context)
                    if row.coreset and not row.coreset_only else net)
        test = task.test
        tests.append((test.inputs, test.labels, task.head))
        accs = evaluate(eval_net, tests, config.eval_samples,
                        None if row.deterministic else rng_eval)
        matrix.append(accs)
        del train, train_x, train_y, groups  # free before the next task's read
    return matrix
