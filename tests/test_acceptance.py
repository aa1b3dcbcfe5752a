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
from evclplus.verify import check_fisher_estimator_vs_analytic, \
    check_full_loss_gradients, check_kl_closed_form_vs_mc


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


# -----------------------------------------------------------------------
# 1. gradient correctness of the full loss, frozen noise, both branches
# -----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    ok, detail = check_full_loss_gradients()  # rel error < 1e-4, both branches
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10, f"{detail} ({elapsed:.1f}s)")


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

    mc_ok, detail = check_kl_closed_form_vs_mc(pairs=20, n=1_000_000, seed=2024)
    elapsed = time.time() - t0
    report(2, hand_a and hand_b and mc_ok and elapsed < 30,
           f"hand values to 1e-10; {detail} at n=1e6 ({elapsed:.1f}s)")


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
        net.body[0].split(net.params[1])[0][...] = math.log(var)
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
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[], head_dim=2)
    net = bm.init_network(spec, SeededRng(0))
    net.heads[0].w_mu[...] = 0.0
    net.heads[0].b_mu[...] = 0.0
    fisher = obj.estimate_fisher_diag(net, (np.array([[1.0]]), np.array([1])),
                                      0, 1, SeededRng(1))
    exact = net.heads[0].split(fisher)[0][0, 1] == 0.25

    fisher_ok, detail = check_fisher_estimator_vs_analytic()  # rel error < 0.05
    elapsed = time.time() - t0
    report(5, exact and fisher_ok and elapsed < 10,
           f"single-sample value exactly 0.25 ({exact}); {detail} ({elapsed:.1f}s)")


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
