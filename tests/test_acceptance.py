"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Criterion 7 needs the four classic MNIST IDX files;
point EVCLPLUS_MNIST_DIR at them (default ./data/mnist) or the test skips.
"""

import math
import os
import struct
import time

import numpy as np
import pytest

from evclplus import bayes_mlp as bm
from evclplus import objectives as obj
from evclplus.continual import Method, TrainConfig, forgetting_measure, \
    run_task_sequence
from evclplus.data import Dataset, IdxFormatError, Task, load_idx, \
    make_split_tasks, make_synthetic_tasks, write_idx
from evclplus.harness import parse_config, run_experiment, write_results_csv
from evclplus.numerics import SeededRng, pixel_floats
from evclplus.verify import finite_diff_check, kl_mc_estimate, \
    logistic_fisher_analytic


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


# -----------------------------------------------------------------------
# 1. gradient correctness of the full loss, frozen noise, both branches
# -----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
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
    # bump anchors well away from the branch boundary so +-eps stays put
    shift = np.where(prev_rng.uniform(size=log_var.shape) < 0.5, -0.4, 0.4)
    body_shift = shift[:net.body_cols]
    shrank = int((body_shift > 0).sum())  # prev var above current -> shrink branch
    grew = int((body_shift < 0).sum())
    log_var += shift
    assert shrank > 0 and grew > 0, "both variance branches must be exercised"
    prev = bm.snapshot(prev_net)
    fisher = np.zeros(net.params.shape[1])
    fisher[:net.body_cols] = prev_rng.uniform(0.1, 2.0, size=net.body_cols)
    anchor = obj.task_anchor(net, prev, fisher, 100.0, 5.0)

    def loss_at(vec):
        probe = bm.BayesMlp(spec, vec.reshape(net.params.shape))
        breakdown, _ = obj.batch_loss(probe, (x, y), 0, [anchor],
                                      dataset_size=60, rng=SeededRng(seed + 2))
        return breakdown.total

    breakdown, grads = obj.batch_loss(net, (x, y), 0, [anchor],
                                      dataset_size=60, rng=SeededRng(seed + 2))
    assert breakdown.var_penalty > 0 and breakdown.mean_penalty > 0
    params = net.params.ravel()
    result = finite_diff_check(loss_at, params, grads.ravel(), threshold=1e-4)
    elapsed = time.time() - t0
    report(1, result.passed and elapsed < 10,
           f"max rel error {result.max_rel_error:.2e} over {params.size} "
           f"coordinates of the full loss gradient ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 2. closed-form KL vs Monte Carlo and hand values
# -----------------------------------------------------------------------


def test_criterion_2_closed_form_kl():
    t0 = time.time()
    kl, _, _ = obj.kl_diag_gauss(np.array([1.0]), np.array([0.0]),
                                 np.array([0.0]), np.array([1.0]))
    hand_a = abs(kl - 0.5) < 1e-10
    expected = 0.5 * (math.log(0.25) + 4 - 1)
    kl, _, _ = obj.kl_diag_gauss(np.array([0.0]), np.array([math.log(4.0)]),
                                 np.array([0.0]), np.array([1.0]))
    hand_b = abs(kl - expected) < 1e-10

    rng = SeededRng(2024)
    worst = 0.0
    mc_ok = True
    for _ in range(20):
        mu_q = float(rng.uniform(-2, 2))
        mu_p = float(rng.uniform(-2, 2))
        var_q = float(rng.uniform(0.2, 3.0))
        var_p = float(rng.uniform(0.2, 3.0))
        closed, _, _ = obj.kl_diag_gauss(
            np.array([mu_q]), np.array([math.log(var_q)]),
            np.array([mu_p]), np.array([var_p]))
        est, se = kl_mc_estimate((mu_q, var_q), (mu_p, var_p), 1_000_000, rng)
        sigmas = abs(est - closed) / se
        worst = max(worst, sigmas)
        mc_ok &= sigmas <= 3.0
    elapsed = time.time() - t0
    report(2, hand_a and hand_b and mc_ok and elapsed < 30,
           f"hand values to 1e-10; 20 Monte Carlo checks at n=1e6, worst "
           f"deviation {worst:.2f} standard errors ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 3. reduction identities
# -----------------------------------------------------------------------


def test_criterion_3_reduction_identities():
    stream = make_synthetic_tasks(2, 40, 6, 6.0, seed=3)
    spec = bm.NetworkSpec(input_dim=6, hidden_dims=[8], head_dim=2)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=3e-3, lam=0.0, k=5.0,
                      fisher_samples=50, coreset_size=0, eval_samples=4)
    lam0 = run_task_sequence(Method.EVCL_PLUS, cfg, stream, spec, 5)
    vcl = run_task_sequence(Method.VCL, cfg, stream, spec, 5)
    matrices_equal = lam0 == vcl

    net = bm.init_network(spec, SeededRng(6))
    x = np.array([[0.2, 0.4, 0.1, 0.9, 0.3, 0.5]])
    y = np.array([1])
    first, _ = obj.batch_loss(net, (x, y), 0,
                              [obj.task_anchor(net, None)], 10,
                              SeededRng(7))
    first_ok = (abs(first.mean_penalty) < 1e-12 and abs(first.var_penalty) < 1e-12)

    prev = bm.snapshot(net)  # variances tie exactly with the live network
    fisher = np.ones(net.params.shape[1])
    tied, _ = obj.batch_loss(net, (x, y), 0,
                             [obj.task_anchor(net, prev, fisher, 100.0, 5.0)], 10,
                             SeededRng(7))
    tie_ok = abs(tied.var_penalty) < 1e-12

    report(3, matrices_equal and first_ok and tie_ok,
           f"lam=0 matrix identical to plain variational baseline "
           f"({matrices_equal}); first-task penalties zero ({first_ok}); "
           f"tied variances give zero penalty ({tie_ok})")


# -----------------------------------------------------------------------
# 4. asymmetric branch hand values and k-monotonicity
# -----------------------------------------------------------------------


def test_criterion_4_asymmetric_branch_values():
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[1], head_dim=2)

    def single_param_case(var, prev_var, k):
        net = bm.init_network(spec, SeededRng(0))
        net.body[0].w_log_var[...] = math.log(var)
        prev = bm.snapshot(net).copy()
        net.body[0].split(prev)[0][1] = prev_var
        fisher = np.zeros(net.params.shape[1])
        net.body[0].split(fisher)[0][...] = 2.0
        anchor = obj.task_anchor(net, prev, fisher, 100.0, k)
        breakdown, _ = obj.batch_loss(net, (np.array([[0.5]]), np.array([0])), 0,
                                      [anchor], 10, SeededRng(1))
        return breakdown.var_penalty

    tie = single_param_case(0.2, 0.2, 5.0)
    dec = single_param_case(0.1, 0.2, 5.0)
    inc = single_param_case(0.3, 0.2, 5.0)
    values_ok = (tie == 0.0 and abs(dec - 1.0) < 1e-12
                 and abs(inc - 150.0) < 1e-12)

    rng = SeededRng(44)
    monotone = True
    for _ in range(100):
        var = float(rng.uniform(0.2, 2.0))
        prev_var = var * float(rng.uniform(0.3, 0.9))
        k = float(rng.uniform(0.0, 8.0))
        dk = float(rng.uniform(0.01, 2.0))
        monotone &= (single_param_case(var, prev_var, k + dk)
                     > single_param_case(var, prev_var, k))
    report(4, values_ok and monotone,
           f"tie/shrink/grow values {tie:.1f}/{dec:.1f}/{inc:.1f} "
           f"(expected 0.0/1.0/150.0); penalty strictly increasing in k over "
           f"100 random growing-variance instances ({monotone})")


# -----------------------------------------------------------------------
# 5. Fisher estimator against the analytic logistic oracle
# -----------------------------------------------------------------------


def test_criterion_5_fisher_oracle():
    t0 = time.time()
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[], head_dim=2,
                          single_head=True)
    net = bm.init_network(spec, SeededRng(0))
    net.heads[0].w_mu[...] = 0.0
    net.heads[0].b_mu[...] = 0.0
    fisher = obj.estimate_fisher_diag(net, (np.array([[1.0]]), np.array([1])),
                                      0, 1, SeededRng(1))
    exact = net.heads[0].split(fisher)[0][0, 1] == 0.25

    w = 0.3
    net.heads[0].w_mu[...] = np.array([[0.0, w]])
    rng = SeededRng(2)
    xs = rng.uniform(-2.0, 2.0, size=5000)
    p1 = 1.0 / (1.0 + np.exp(-w * xs))
    labels = (rng.uniform(size=5000) < p1).astype(np.int64)
    fisher = obj.estimate_fisher_diag(net, (xs[:, None], labels), 0, 5000, rng)
    est = float(net.heads[0].split(fisher)[0][0, 1])
    truth = logistic_fisher_analytic(w, xs)
    rel = abs(est - truth) / truth
    elapsed = time.time() - t0
    report(5, exact and rel < 0.05 and elapsed < 10,
           f"single-sample value exactly 0.25 ({exact}); 5000-sample estimate "
           f"{est:.4f} vs analytic {truth:.4f}, rel error {rel:.3f} "
           f"({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 6. desk-scale synthetic continual run
# -----------------------------------------------------------------------


def test_criterion_6_synthetic_continual_run():
    t0 = time.time()
    seed = 12
    stream = make_synthetic_tasks(5, 313, 20, 8.0, seed=seed)
    assert all(len(t.train) == 500 for t in stream.tasks)
    spec = bm.NetworkSpec(input_dim=20, hidden_dims=[20], head_dim=2)
    cfg = TrainConfig(epochs=10, batch_size=4, learning_rate=3e-3, lam=100.0, k=5.0,
                      fisher_samples=5000, coreset_size=0, eval_samples=10)
    evcl = run_task_sequence(Method.EVCL_PLUS, cfg, stream, spec, seed)
    plain = run_task_sequence(Method.PLAIN, cfg, stream, spec, seed)
    evcl_avg = float(np.mean(evcl[-1]))
    evcl_forget = forgetting_measure(evcl)
    plain_forget = forgetting_measure(plain)
    elapsed = time.time() - t0
    ok = (evcl_avg >= 0.95 and evcl_forget <= 0.05
          and plain_forget > evcl_forget and elapsed < 120)
    report(6, ok,
           f"5 tasks, 500 train/task, 10 epochs: regularized avg accuracy "
           f"{evcl_avg:.3f} (>=0.95), forgetting {evcl_forget:.3f} (<=0.05); "
           f"unregularized forgetting {plain_forget:.3f} (strictly greater) "
           f"({elapsed:.0f}s)")


# -----------------------------------------------------------------------
# 7. desk-scale SplitMNIST (needs real MNIST IDX files)
# -----------------------------------------------------------------------

MNIST_DIR = os.environ.get("EVCLPLUS_MNIST_DIR", "data/mnist")
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _mnist_paths():
    paths = [os.path.join(MNIST_DIR, name) for name in MNIST_FILES]
    return paths if all(os.path.exists(p) for p in paths) else None


def test_criterion_7_split_mnist_desk_scale():
    paths = _mnist_paths()
    if paths is None:
        pytest.skip(f"MNIST IDX files not found under '{MNIST_DIR}' "
                    f"(set EVCLPLUS_MNIST_DIR); criterion 7 runs when present")
    t0 = time.time()
    train = load_idx(paths[0], paths[1])
    test = load_idx(paths[2], paths[3])
    stream = make_split_tasks((train, test), [(0, 1), (2, 3)])
    stream.tasks = [  # desk scale: 2000 train examples per task
        Task(Dataset(task.train.inputs[:2000], task.train.labels[:2000], 2),
             task.test, task.head)
        for task in stream.tasks]
    spec = bm.NetworkSpec(input_dim=784, hidden_dims=[256, 256], head_dim=2)

    evcl_avgs, evcl_forgets, vcl_forgets = [], [], []
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=1e-3, lam=100.0,
                          k=5.0, fisher_samples=2000, coreset_size=0, eval_samples=10)
        evcl = run_task_sequence(Method.EVCL_PLUS, cfg, stream, spec, seed)
        vcl = run_task_sequence(Method.VCL, cfg, stream, spec, seed)
        evcl_avgs.append(float(np.mean(evcl[-1])))
        evcl_forgets.append(forgetting_measure(evcl))
        vcl_forgets.append(forgetting_measure(vcl))
    evcl_avg = float(np.mean(evcl_avgs))
    evcl_forget = float(np.mean(evcl_forgets))
    vcl_forget = float(np.mean(vcl_forgets))
    elapsed = time.time() - t0
    ok = evcl_avg >= 0.95 and evcl_forget <= vcl_forget and elapsed < 600
    report(7, ok,
           f"2-task split, 3 seeds: avg accuracy {evcl_avg:.3f} (>=0.95); "
           f"task-1 forgetting {evcl_forget:.4f} vs plain-variational "
           f"{vcl_forget:.4f} ({elapsed:.0f}s)")


# -----------------------------------------------------------------------
# 8. byte-identical reruns
# -----------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "benchmark = synthetic\nmethods = evclplus, vcl\nseeds = 0, 1\n"
        "n_tasks = 2\nepochs = 2\nbatch_size = 16\nfisher_samples = 100\n"
        "coreset_size = 20\n")
    config = parse_config(str(cfg_path))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(run_experiment(config), a)
    write_results_csv(run_experiment(config), b)
    identical = a.read_bytes() == b.read_bytes()
    report(8, identical,
           f"same config rerun produces byte-identical raw CSV ({identical})")


# -----------------------------------------------------------------------
# 9. IDX loader round-trip and error reporting
# -----------------------------------------------------------------------


def test_criterion_9_idx_loader(tmp_path):
    rng = SeededRng(9)
    raw = rng.integers(0, 256, size=(4, 9)).astype(np.float64) / 255.0
    ds = Dataset(raw, rng.integers(0, 3, size=4), 3)
    write_idx(ds, tmp_path / "im", tmp_path / "lb", rows=3, cols=3)
    back = load_idx(tmp_path / "im", tmp_path / "lb")
    round_trip = (np.array_equal(pixel_floats(back.inputs), ds.inputs)
                  and np.array_equal(back.labels, ds.labels))

    bad_magic = tmp_path / "bad"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000802, 1, 3, 3) + bytes(9))
    try:
        load_idx(bad_magic, tmp_path / "lb")
        magic_ok = False
    except IdxFormatError as exc:
        magic_ok = "0x00000802" in str(exc)

    truncated = tmp_path / "trunc"
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(5))
    try:
        load_idx(truncated, tmp_path / "lb")
        trunc_ok = False
    except IdxFormatError as exc:
        trunc_ok = "byte" in str(exc)

    report(9, round_trip and magic_ok and trunc_ok,
           f"round-trip exact ({round_trip}); bad magic named ({magic_ok}); "
           f"truncation reports offset ({trunc_ok})")
