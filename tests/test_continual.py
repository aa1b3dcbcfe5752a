import ast
import hashlib
import inspect
import itertools
import pickle
import re
import textwrap
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from conftest import run_pinned, traced_peak

from evclplus import bayes_mlp as bm
from evclplus import continual as cl
from evclplus import objectives as obj
from evclplus.data import Dataset, Task, TaskStream, load_idx, \
    make_permuted_tasks, make_split_tasks, make_synthetic_tasks
from evclplus.numerics import BLOCK, SeededRng, pixel_floats
from evclplus.verify import kcenter_brute_force


def quick_config(**kw):
    defaults = dict(epochs=3, batch_size=8, learning_rate=3e-3, lam=100.0, k=5.0,
                    fisher_samples=200, coreset_size=10, eval_samples=5)
    defaults.update(kw)
    return cl.TrainConfig(**defaults)


def tiny_stream(n_tasks=2, seed=0):
    return make_synthetic_tasks(n_tasks, 40, 6, 6.0, seed=seed)


TINY_SPEC = bm.NetworkSpec(input_dim=6, hidden_dims=[8], head_dim=2)


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        net = bm.init_network(TINY_SPEC, SeededRng(0))
        before = net.params.copy()
        state = cl.init_adam(net)
        grads = np.zeros_like(net.params)
        for _ in range(50):
            cl.adam_step(state, net, grads, lr=0.1)
        np.testing.assert_array_equal(net.params, before)

    def test_first_step_is_minus_lr(self):
        net = bm.init_network(TINY_SPEC, SeededRng(0))
        w0 = net.body[0].w_mu[0, 0]
        state = cl.init_adam(net)
        grads = np.zeros_like(net.params)
        grads[0, 0] = 1.0  # the first column is body[0].w_mu[0, 0]
        cl.adam_step(state, net, grads, lr=1e-3)
        delta = net.body[0].w_mu[0, 0] - w0
        assert abs(delta + 1e-3) < 1e-9

    def test_update_magnitude_bounded(self):
        net = bm.init_network(TINY_SPEC, SeededRng(1))
        state = cl.init_adam(net)
        rng = SeededRng(2)
        lr = 1e-2
        for _ in range(100):
            grads = np.zeros_like(net.params)
            for layer in net.body + net.heads:
                layer.split(grads)[0][0] += rng.uniform(-3, 3, size=layer.w_mu.shape)
            before = net.params.copy()
            cl.adam_step(state, net, grads, lr=lr)
            step = np.abs(net.params - before)
            assert step.max() <= 1.5 * lr

    def test_shape_mismatch_rejected(self):
        net = bm.init_network(TINY_SPEC, SeededRng(0))
        other = bm.init_network(bm.NetworkSpec(6, [9], 2), SeededRng(0))
        with pytest.raises(RuntimeError):
            cl.adam_step(cl.init_adam(net), net, np.zeros_like(other.params), 1e-3)
        with pytest.raises(RuntimeError):  # moments from before a head was added
            state = cl.init_adam(net)
            bm.add_head(net, SeededRng(1))
            cl.adam_step(state, net, np.zeros_like(net.params), 1e-3)

    def test_matches_per_array_reference(self):
        # the per-array expression the blocked in-place update must reproduce bit for bit
        spec = bm.NetworkSpec(input_dim=300, hidden_dims=[120], head_dim=2)
        net = bm.init_network(spec, SeededRng(3))
        assert net.params.size > 2 * BLOCK  # several blocks and a partial one
        ref_p, ref_m, ref_v = net.params.copy(), np.zeros_like(net.params), \
            np.zeros_like(net.params)
        state, rng, lr = cl.init_adam(net), SeededRng(4), 1e-3
        for t in range(1, 4):
            g = rng.standard_normal(net.params.shape)
            g[:, net.heads[0].cols] = 0.0
            cl.adam_step(state, net, g, lr)
            ref_m *= 0.9
            ref_m += (1.0 - 0.9) * g
            ref_v *= 0.999
            ref_v += (1.0 - 0.999) * g * g
            ref_p -= lr * (ref_m / (1.0 - 0.9 ** t)) / (
                np.sqrt(ref_v / (1.0 - 0.999 ** t)) + 1e-8)
            np.testing.assert_array_equal(net.params, ref_p)
            np.testing.assert_array_equal(state.m, ref_m)
            np.testing.assert_array_equal(state.v, ref_v)

    def test_deterministic_moments_update_the_means_only(self):
        # row 0 as with moments over both rows, bit for bit; row 1 untouched
        net = bm.init_network(TINY_SPEC, SeededRng(3))
        ref_net = bm.clone_network(net)
        state, ref_state = cl.init_adam(net, deterministic=True), cl.init_adam(ref_net)
        assert state.m.shape == state.v.shape == (1, net.params.shape[1])
        rng = SeededRng(4)
        for _ in range(3):
            g = rng.standard_normal(net.params.shape)
            cl.adam_step(state, net, g, 1e-2)
            cl.adam_step(ref_state, ref_net, g, 1e-2)
        np.testing.assert_array_equal(net.params[0], ref_net.params[0])
        assert (net.params[1] == bm.INIT_LOG_VAR).all()
        assert (ref_net.params[1] != bm.INIT_LOG_VAR).all()

    @pytest.mark.parametrize("method", [cl.Method.EWC, cl.Method.PLAIN],
                             ids=lambda m: m.value)
    def test_deterministic_log_variances_never_change(self, method):
        rows = []
        cl.run_task_sequence(method, quick_config(), tiny_stream(3), TINY_SPEC, 0,
                             on_task_end=lambda t, net, anchors, snap:
                             rows.append(net.params[1].copy()))
        assert len(rows) == 3
        assert all((row == bm.INIT_LOG_VAR).all() for row in rows)


def remainder(n, picks):
    """The rows of n that picks leaves out, ascending."""
    return np.setdiff1d(np.arange(n), picks)


class TestRandomCoreset:
    def test_empty_selection(self):
        picks = cl.select_coreset_random(6, 0, SeededRng(0))
        assert len(picks) == 0
        np.testing.assert_array_equal(remainder(6, picks), np.arange(6))

    def test_full_selection(self):
        picks = cl.select_coreset_random(6, 6, SeededRng(0))
        assert len(remainder(6, picks)) == 0 and len(picks) == 6

    def test_partition_and_determinism(self):
        picks = cl.select_coreset_random(30, 10, SeededRng(7))
        np.testing.assert_array_equal(picks, cl.select_coreset_random(30, 10,
                                                                      SeededRng(7)))
        assert len(picks) == 10 and len(remainder(30, picks)) == 20
        np.testing.assert_array_equal(picks, np.unique(picks))  # ascending, distinct
        assert 0 <= picks[0] and picks[-1] < 30

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            cl.select_coreset_random(3, 4, SeededRng(0))


class TestKCenterCoreset:
    def test_two_far_clusters_covered(self):
        # 8 points, two clusters; brute-force oracle: start at the max-norm
        # point, the second pick must be the point farthest from it
        pts = np.array([[10.0, 10.0], [10.2, 10.1], [9.9, 10.3], [10.1, 9.8],
                        [0.0, 0.1], [0.2, 0.0], [0.1, 0.3], [0.0, 0.2]])
        start = int(np.argmax(np.linalg.norm(pts, axis=1)))
        farthest = int(np.argmax(np.linalg.norm(pts - pts[start], axis=1)))
        picks = cl.select_coreset_kcenter(pts, 2)
        assert picks.tolist() == [start, farthest]
        in_cluster_a = [int(i) for i in picks if pts[i, 0] > 5]
        in_cluster_b = [int(i) for i in picks if pts[i, 0] <= 5]
        assert len(in_cluster_a) == 1 and len(in_cluster_b) == 1

    def test_size_one_is_max_norm_start(self):
        pts = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(pts[cl.select_coreset_kcenter(pts, 1)],
                                      [[3.0, 0.0]])

    def test_selected_indices_distinct(self):
        rng = SeededRng(4)
        x = rng.uniform(0, 1, size=(40, 3))
        picks = cl.select_coreset_kcenter(x, 15)
        assert len(set(picks.tolist())) == 15
        assert len(remainder(40, picks)) == 25

    def test_errors(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            cl.select_coreset_kcenter(x, 0)
        with pytest.raises(ValueError):
            cl.select_coreset_kcenter(x, 4)

    @pytest.mark.parametrize("x, size", [
        (np.repeat(np.eye(3), 4, axis=0), 5),
        (np.zeros((10, 4)), 3),
    ], ids=["three_distinct_rows", "all_zero_rows"])
    def test_duplicates_never_picked_twice(self, x, size):
        n = len(x)
        picks = cl.select_coreset_kcenter(x, size)
        assert len(set(picks.tolist())) == size
        assert len(remainder(n, picks)) == n - size
        assert sorted(picks.tolist() + remainder(n, picks).tolist()) == list(range(n))

    def test_peak_memory_copies_no_row(self):
        # float rows pass pixel_floats as they are, and only picked indices
        # come back: the peak (992 kB) is the (n,) vectors and one row block's
        # temporaries
        x = SeededRng(3).uniform(0, 1, size=(2400, 784))
        _, peak = traced_peak(lambda: cl.select_coreset_kcenter(x, 50))
        assert peak < 0.1 * x.nbytes, peak


def pixel_rows(n, seed):
    """784-wide k/255 rows: sparse lit pixels on few levels, so many
    distances tie exactly, plus some exact duplicate rows."""
    rng = SeededRng(seed)
    x = np.zeros((n, 784))
    for i in range(n):
        x[i, rng.integers(0, 784, size=3)] = rng.integers(1, 4, size=3) * 85 / 255
    dup = rng.integers(0, n, size=n // 8)
    x[rng.integers(0, n, size=n // 8)] = x[dup]
    return x


def blob_pixels(n, seed):
    """784-wide uint8 rows like MNIST digits: ten Gaussian blobs in a
    10-dimensional latent space, projected through a logistic."""
    rng = SeededRng(seed)
    projection = rng.standard_normal((10, 784))
    offset = 0.5 * rng.standard_normal(784) - 3.0
    latent = rng.standard_normal((n, 10))
    latent[np.arange(n), rng.integers(0, 10, size=n)] += 5.0
    return np.rint(255.0 / (1.0 + np.exp(-(latent @ projection + offset)))) \
        .astype(np.uint8)


def assert_matches_reference(x, size):
    assert cl.select_coreset_kcenter(x, size).tolist() == kcenter_brute_force(x, size)


class TestKCenterMatchesReference:
    ROWS = BLOCK // 784  # rows per distance block at MNIST width

    @pytest.mark.parametrize("n", [ROWS // 2, 2 * ROWS + 7, 3 * ROWS],
                             ids=["under_one_block", "ragged", "whole_blocks"])
    @pytest.mark.parametrize("size", [1, 9, "all_distinct"])
    def test_bit_identical(self, n, size):
        x = pixel_rows(n, seed=n)
        if size == "all_distinct":
            size = len(np.unique(x, axis=0))
        assert_matches_reference(x, size)

    def test_uint8_rows_pick_the_rows_of_their_floats(self):
        pixels = np.rint(pixel_rows(2 * self.ROWS + 7, seed=5) * 255).astype(np.uint8)
        np.testing.assert_array_equal(cl.select_coreset_kcenter(pixels, 9),
                                      cl.select_coreset_kcenter(pixel_floats(pixels), 9))

    def test_size_n_on_distinct_uniform_rows(self):
        assert_matches_reference(SeededRng(8).uniform(0, 1, size=(50, 784)), 50)

    def test_blob_pixels(self):
        assert_matches_reference(pixel_floats(blob_pixels(1000, seed=11)), 120)

    @pytest.mark.parametrize("low, high", [(1e155, 1.001e155), (0.5e-160, 1e-160)],
                             ids=["squares_overflow", "squares_underflow"])
    def test_extreme_scales(self, low, high):
        # near 1e155 the norms square to inf but the distances stay finite
        x = SeededRng(12).uniform(low, high, size=(300, 784))
        with np.errstate(over="ignore"):
            assert_matches_reference(x, 100)

    def test_lattice_ties(self):
        # many rows sit at exactly equal distances, where dropping the
        # rounding margins of the bound changes a pick
        x = np.array(list(itertools.product(range(12), repeat=3))) / 11.0
        assert_matches_reference(x, 300)

    def test_all_equal_rows_pick_the_first_rows(self):
        x = np.full((40, 784), 0.3)
        assert_matches_reference(x, 12)
        picks = cl.select_coreset_kcenter(x, 12)
        np.testing.assert_array_equal(picks, np.arange(12))
        np.testing.assert_array_equal(remainder(40, picks), np.arange(12, 40))


def test_kcenter_evaluates_few_exact_rows(monkeypatch):
    """On digit-like pixels the bound clears all but a few percent of the
    rows per pick; recomputing every row per pick would evaluate
    (size + 1) * n rows."""
    evaluated = []
    exact = cl._distances_to

    def counting(out, *args):
        evaluated.append(len(out))
        exact(out, *args)

    monkeypatch.setattr(cl, "_distances_to", counting)
    n, size = 3000, 200
    cl.select_coreset_kcenter(blob_pixels(n, seed=4), size)
    assert sum(evaluated) < 0.15 * n * size


@pytest.mark.parametrize("method, selector", [
    (cl.Method.VCL_RANDOM_CORESET, "select_coreset_random"),
    (cl.Method.VCL_KCENTER_CORESET, "select_coreset_kcenter")])
def test_coreset_partition_keeps_row_order_and_stored_dtype(monkeypatch, method,
                                                            selector):
    """run_task_sequence splits a train split by the selector's indices: the
    coreset is the picked rows, the remainder the others, both ascending and
    still uint8; the remainder trains, the coreset finetunes."""
    x = SeededRng(5).integers(0, 256, size=(60, 6)).astype(np.uint8)
    y = np.arange(60) % 2
    stream = TaskStream([Task(Dataset(x, y, 2), Dataset(x[:10], y[:10], 2), 0)])
    picks, groups = [], []
    select, train = getattr(cl, selector), cl._train_on_groups
    monkeypatch.setattr(cl, selector, lambda *a: picks.append(select(*a)) or picks[-1])
    monkeypatch.setattr(cl, "_train_on_groups",
                        lambda net, anchors, g, *a: groups.append(g)
                        or train(net, anchors, g, *a))
    cl.run_task_sequence(method, quick_config(epochs=1), stream, TINY_SPEC, 0)
    (core,) = picks
    (trained_x, trained_y, _), = groups[0]
    (core_x, core_y, _), = groups[1]
    rest = remainder(60, core)
    assert trained_x.dtype == core_x.dtype == np.uint8
    np.testing.assert_array_equal(core_x, x[np.sort(core)])
    np.testing.assert_array_equal(core_y, y[np.sort(core)])
    np.testing.assert_array_equal(trained_x, x[rest])
    np.testing.assert_array_equal(trained_y, y[rest])


class TestNonfiniteGradient:
    def test_named_before_adam_applies_it(self):
        # var 1e10 just below var_prev = 1e10 + 1: the quadratic variance
        # anchor is 5e299, but its log-variance gradient lam * F * diff * var
        # overflows to -inf
        net = bm.init_network(bm.NetworkSpec(3, [4], 2), SeededRng(22))
        net.params[1, 5] = np.log(1e10)
        snap = bm.snapshot(net).copy()
        snap[1, 5] = 1e10 + 1.0
        fisher = np.zeros(net.params.shape[1])
        fisher[5] = 1.0
        anchors = [obj.task_anchor(net, snap, fisher, 1e300, 5.0)]
        x = SeededRng(23).uniform(0, 1, size=(4, 3))
        before = net.params.copy()
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"^evclplus task 2: gradient went non-finite in "
                                        r"body 0 weight \[5\] log-variance "
                                        r"\(epoch 1, head 0\)"):
            cl._train_on_groups(net, anchors, [(x, np.array([0, 1, 0, 1]), 0)],
                                quick_config(), SeededRng(24), 1, "evclplus task 2",
                                False)
        np.testing.assert_array_equal(net.params, before)


class TestFinetune:
    def test_empty_coreset_returns_identical_copy(self):
        net = bm.init_network(TINY_SPEC, SeededRng(5))
        tuned = cl.finetune_on_coreset(net, bm.snapshot(net), [], quick_config(),
                                       SeededRng(6), "vcl task 1")
        np.testing.assert_array_equal(tuned.params, net.params)
        assert not np.shares_memory(tuned.params, net.params)
        assert tuned is not net

    def test_original_untouched(self):
        stream = tiny_stream(1)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(7))
        coresets = [(task.train.inputs[:20], task.train.labels[:20], 0)]
        before = net.params.copy()
        cl.finetune_on_coreset(net, bm.snapshot(net), coresets, quick_config(epochs=5),
                               SeededRng(8), "vcl task 1")
        np.testing.assert_array_equal(net.params, before)

    def test_full_coreset_no_main_training_beats_chance(self):
        stream = tiny_stream(1, seed=11)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(9))
        coresets = [(task.train.inputs, task.train.labels, 0)]
        tuned = cl.finetune_on_coreset(net, bm.snapshot(net), coresets,
                                       quick_config(epochs=20), SeededRng(10),
                                       "vcl task 1")
        accs = cl.evaluate(tuned, [(task.test.inputs, task.test.labels, 0)],
                           5, SeededRng(11))
        assert accs[0] > 0.8

    VCL_CORESET_METHODS = [cl.Method.VCL_RANDOM_CORESET, cl.Method.VCL_KCENTER_CORESET]

    @pytest.mark.parametrize("method", VCL_CORESET_METHODS)
    def test_one_snapshot_per_task(self, monkeypatch, method):
        calls = []
        snapshot = cl.snapshot
        monkeypatch.setattr(cl, "snapshot",
                            lambda net: calls.append(net) or snapshot(net))
        cl.run_task_sequence(method, quick_config(epochs=1), tiny_stream(3), TINY_SPEC, 0)
        assert len(calls) == 3

    @pytest.fixture
    def trainings(self, monkeypatch):
        """(context, epochs, anchors) of each _train_on_groups call, which trains."""
        calls, train = [], cl._train_on_groups

        def record(net, anchors, groups, config, rng, epochs, context, deterministic):
            calls.append((context, epochs, anchors))
            train(net, anchors, groups, config, rng, epochs, context, deterministic)

        monkeypatch.setattr(cl, "_train_on_groups", record)
        return calls

    @pytest.mark.parametrize("method", VCL_CORESET_METHODS)
    def test_finetune_anchors_to_the_tasks_snapshot(self, trainings, method):
        snaps = []
        cl.run_task_sequence(method, quick_config(epochs=1), tiny_stream(3), TINY_SPEC, 0,
                             on_task_end=lambda t, net, anchors, snap: snaps.append(snap))
        finetune_anchors = [anchors for context, _, anchors in trainings
                            if context.endswith(" coreset finetune")]
        assert len(finetune_anchors) == len(snaps) == 3
        for (anchor,), snap in zip(finetune_anchors, snaps):
            assert anchor.snap is snap

    @pytest.mark.parametrize("method", VCL_CORESET_METHODS)
    def test_finetune_is_capped_at_20_epochs(self, trainings, method):
        for epochs, finetune in ((21, 20), (3, 3)):
            trainings.clear()
            cl.run_task_sequence(method, quick_config(epochs=epochs), tiny_stream(2),
                                 TINY_SPEC, 0)
            assert [call[:2] for call in trainings] == [(f"{method.value} task 1", epochs),
                             (f"{method.value} task 1 coreset finetune", finetune),
                             (f"{method.value} task 2", epochs),
                             (f"{method.value} task 2 coreset finetune", finetune)]

    def test_finetune_divergence_names_method_and_task(self):
        # exp(800) = inf in the finetuned copy; the task's snapshot is finite
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"^vcl_random_coreset task 1 coreset finetune: "
                                        r"loss term 'kl' went non-finite in body 0 weight "
                                        r"\(epoch 1, head 0\)$"):
            cl.run_task_sequence(cl.Method.VCL_RANDOM_CORESET, quick_config(),
                                 tiny_stream(2), TINY_SPEC, 0,
                                 on_task_end=set_log_var_after_first_task(
                                     0, "w", (3, 2), 800.0))


class TestEvaluate:
    def test_memorization_smoke(self):
        stream = tiny_stream(1, seed=12)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(13))
        x, y = task.train.inputs[:10], task.train.labels[:10]
        cl._train_on_groups(net, [], [(x, y, 0)],
                            quick_config(epochs=300, learning_rate=1e-2),
                            SeededRng(14), 300, "memorize", True)
        accs = cl.evaluate(net, [(x, y, 0)], 1, None)
        assert accs[0] == 1.0

    def test_rng_none_takes_one_pass_per_task(self, monkeypatch):
        net = bm.init_network(TINY_SPEC, SeededRng(18))
        task = tiny_stream(1).tasks[0]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])  # the rng
            return forward(*args, **kwargs)

        forward = bm.sample_forward
        monkeypatch.setattr(bm, "sample_forward", counted)
        tests = [(task.test.inputs, task.test.labels, 0)] * 3
        at_means = cl.evaluate(net, tests, 10, None)
        assert calls == [None] * 3
        calls.clear()
        cl.evaluate(net, tests, 10, SeededRng(19))
        assert len(calls) == 30 and None not in calls
        monkeypatch.undo()
        probs = bm.posterior_predict(net, task.test.inputs, 0, 1, None)
        want = float(np.mean(np.argmax(probs, axis=1) == task.test.labels))
        assert at_means == [want] * 3

    def test_random_predictor_near_chance(self):
        spec = bm.NetworkSpec(input_dim=5, hidden_dims=[8], head_dim=10)
        net = bm.init_network(spec, SeededRng(15))
        rng = SeededRng(16)
        x = rng.uniform(0, 1, size=(1000, 5))
        y = rng.integers(0, 10, size=1000)
        accs = cl.evaluate(net, [(x, y, 0)], 3, SeededRng(17))
        assert abs(accs[0] - 0.1) < 0.03

    def test_bounds(self):
        stream = tiny_stream(1)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(18))
        accs = cl.evaluate(net, [(task.test.inputs, task.test.labels, 0)],
                           2, SeededRng(19))
        assert 0.0 <= accs[0] <= 1.0


@pytest.mark.parametrize("acc, forgetting", [
    ([[0.8], [0.85, 0.9], [0.9, 0.95, 0.99]], 0.0),
    ([[0.9], [0.8, 0.95]], 0.1),
    # a task that forgets nothing keeps it 0
    ([[0.8], [0.85, 0.9]], 0.0),
    ([[0.8], [0.85, 0.9], [0.85, 0.9, 0.7]], 0.0),
    ([[0.9]], ValueError),
], ids=["monotone", "hand_value", "no_forgetting", "appended_task_forgets_nothing",
        "single_task"])
def test_forgetting_measure(acc, forgetting):
    if forgetting is ValueError:
        with pytest.raises(ValueError, match=r"^forgetting needs at least two tasks$"):
            cl.forgetting_measure(acc)
    else:
        assert cl.forgetting_measure(acc) == pytest.approx(forgetting, rel=1e-12, abs=0)


class TestRunTaskSequence:
    @pytest.mark.parametrize("method, n_tasks", [
        (cl.Method.EVCL_PLUS, 1), (cl.Method.VCL, 3), *[(m, 2) for m in cl.Method]],
        ids=lambda v: getattr(v, "value", v))
    def test_one_row_per_task_of_accuracies(self, method, n_tasks):
        matrix = cl.run_task_sequence(method, quick_config(), tiny_stream(n_tasks),
                                      TINY_SPEC, 0)
        assert [len(row) for row in matrix] == list(range(1, n_tasks + 1))
        assert all(0.0 <= a <= 1.0 for row in matrix for a in row)

    def test_deterministic_rerun(self):
        a, b = (cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(), tiny_stream(2),
                                     TINY_SPEC, 0) for _ in range(2))
        assert a == b

    def test_lambda_zero_identical_to_vcl(self):
        cfg = quick_config(lam=0.0, k=5.0)
        a = cl.run_task_sequence(cl.Method.EVCL_PLUS, cfg, tiny_stream(2),
                                 TINY_SPEC, 0)
        b = cl.run_task_sequence(cl.Method.VCL, cfg, tiny_stream(2), TINY_SPEC, 0)
        assert a == b

    def test_ewc_loss_has_no_kl(self):
        net = bm.init_network(TINY_SPEC, SeededRng(20))
        moved = bm.clone_network(net)
        moved.params[0] += 0.1
        anchor = obj.TaskAnchor(bm.snapshot(moved), lam_f=np.ones(net.body_cols))
        stream = tiny_stream(1)
        x, y = stream.tasks[0].train.inputs[:8], stream.tasks[0].train.labels[:8]
        breakdown, grads = obj.batch_loss(net, (x, y), 0, [anchor], 40, None)
        assert breakdown.kl == 0.0 and breakdown.kl_weight == 0.0
        assert breakdown.mean_penalty > 0 and breakdown.var_penalty == 0.0
        assert (grads[1] == 0).all()

    def test_ewc_anchors_hold_no_kl_constants(self):
        # one (snapshot, lam * F) anchor per finished task, no log(var_prev)
        snaps, held = [], []

        def observe(t, net, anchors, snap):
            snaps.append(snap)
            held.append(list(anchors))

        cl.run_task_sequence(cl.Method.EWC, quick_config(), tiny_stream(3), TINY_SPEC,
                             0, on_task_end=observe)
        for t, anchors in enumerate(held):
            assert len(anchors) == t + 1
            assert all(a.snap is snap for a, snap in zip(anchors, snaps))
            assert all(a.log_var is None and a.lam_f is not None for a in anchors)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            cl.run_task_sequence(cl.Method.VCL, quick_config(), TaskStream(tasks=[]),
                                 TINY_SPEC, 0)

    @pytest.mark.parametrize("method", [m for m in cl.Method if m.uses_coreset])
    def test_coreset_method_without_coreset_rejected(self, method):
        with pytest.raises(ValueError, match=rf"^coreset_size must be >= 1 for "
                                             rf"method {method.value}, got 0$"):
            cl.run_task_sequence(method, quick_config(coreset_size=0), tiny_stream(),
                                 TINY_SPEC, 0)

    @pytest.mark.parametrize("split, label, rows, cols, input_dim, message", [
        ("train", 2, None, None, 6,
         "task 2 train split has label 2, but a head has 2 outputs"),
        ("test", 2, None, None, 6,
         "task 2 test split has label 2, but a head has 2 outputs"),
        ("train", None, 0, None, 6, "task 2 train split has 0 rows"),
        ("test", None, 0, None, 6, "task 2 test split has 0 rows"),
        ("train", None, None, None, 5,
         "task 1 train split has input dim 6, but the network's input_dim is 5"),
        ("test", None, None, 4, 6,
         "task 2 test split has input dim 4, but the network's input_dim is 6"),
    ], ids=["train", "test", "empty_train", "empty_test", "input_dim", "dim_mismatch"])
    def test_label_no_head_outputs_rejected_before_any_draw(self, monkeypatch, split,
                                                            label, rows, cols, input_dim,
                                                            message):
        # evaluate counted a label no head outputs as a miss and training failed
        # unnamed; vcl scored the untrained head of an empty train split, and
        # an empty test split or a spec of another width failed after the draw;
        # a TaskStream holds splits of any width, so a narrow one is caught here
        first, second = tiny_stream(2).tasks
        stored = dict(zip(("train", "test"), second.stored))
        labels = stored[split].labels[:rows].copy()
        if label is not None:
            labels[3] = label
        stored[split] = Dataset(stored[split].inputs[:rows, :cols], labels, 3)
        stream = TaskStream([first, Task(stored["train"], stored["test"], head=1)])
        monkeypatch.setattr(cl, "init_network", lambda *a: pytest.fail("drew a net"))
        with pytest.raises(ValueError, match=rf"^{message}$"):
            cl.run_task_sequence(cl.Method.VCL, quick_config(), stream,
                                 bm.NetworkSpec(input_dim, [8], 2), 0)

    @pytest.mark.parametrize("method", [cl.Method.VCL_RANDOM_CORESET,
                                        cl.Method.VCL_KCENTER_CORESET])
    def test_oversized_coreset_rejected_before_any_draw(self, monkeypatch, method):
        # the library applies the harness's rule: the selector's own check
        # fires only after task 1 trained, and names neither task nor method
        first, second, third = make_synthetic_tasks(3, 60, 6, 6.0, seed=0).tasks
        train, test = second.stored
        short = Task(Dataset(train.inputs[:30], train.labels[:30], 2), test, head=1)
        monkeypatch.setattr(cl, "init_network", lambda *a: pytest.fail("drew a net"))
        with pytest.raises(cl.ConfigError, match=rf"^coreset_size 40 exceeds the "
                           rf"smallest training split \(30 rows\) for method "
                           rf"{method.value}$"):
            cl.run_task_sequence(method, quick_config(coreset_size=40),
                                 TaskStream([first, short, third]),
                                 bm.NetworkSpec(6, [8], 2), 0)

    def test_prior_chains_to_last_snapshot(self):
        seen = []
        cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(), tiny_stream(3),
                             TINY_SPEC, 0, on_task_end=lambda t, net, anchors, snap:
                             seen.append((anchors[0].snap, snap)))
        # the prior for task t+1 IS task t's snapshot
        for (_, snap), (prior, _) in zip(seen, seen[1:]):
            assert prior is snap
        assert len(seen) == 3

    def test_head_isolation_across_tasks(self):
        heads_after = []
        cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(), tiny_stream(3),
                             TINY_SPEC, 0, on_task_end=lambda t, net, anchors, snap:
                             heads_after.append(net.params[:, net.heads[0].cols].copy()))
        # head 0 must stay bit-identical once tasks 1 and 2 train heads 1, 2
        for later in (1, 2):
            np.testing.assert_array_equal(heads_after[0], heads_after[later])


# sha256 of the final net.params and the accuracy matrix of every method on
# tiny_stream(3): a byte pin that also covers the coreset, coreset_only and
# plain paths, which TestGoldenCsv does not replay
PINNED_RUNS = [
    (cl.Method.EVCL_PLUS, "8e6e30aecfc75b421218928d270a9566e0b83027e2f3a4365a723c3b645e0fd1",
     [[0.4375], [0.4375, 0.6875], [0.4375, 0.6875, 0.5625]]),
    (cl.Method.EVCL, "7e621b002b69927577d5001ea0c7aa9677cf5130818c287537ee15c5ccd3d296",
     [[0.4375], [0.4375, 0.6875], [0.4375, 0.6875, 0.5625]]),
    (cl.Method.VCL, "95e7f36d198851689f768531b5059ae08b0222266bf0e6c410613958def046d5",
     [[0.4375], [0.4375, 0.6875], [0.4375, 0.6875, 0.5625]]),
    (cl.Method.VCL_RANDOM_CORESET,
     "c426aa1bada352f20f7997f1b5c80fe21ea689ae14cc5e3b942844bfc82894c5",
     [[0.4375], [0.4375, 0.875], [0.4375, 0.75, 0.375]]),
    (cl.Method.VCL_KCENTER_CORESET,
     "4d4c403cb19821debd506444d455d3f67a7df4855649cab4b9e2dbd739e55bc4",
     [[0.4375], [0.5625, 0.875], [0.625, 0.75, 0.5625]]),
    (cl.Method.EWC, "b113b273aeff0d12a783791f2eac3fced520f5467ff18f03855266033a719529",
     [[0.4375], [0.4375, 0.6875], [0.4375, 0.6875, 0.5625]]),
    (cl.Method.CORESET_ONLY,
     "61a41c7965d8823bf68c098272ebf587bfbc71cc62a0e086bcb952c59f155ae4",
     [[0.4375], [0.4375, 0.6875], [0.5625, 0.4375, 0.5625]]),
    (cl.Method.PLAIN, "ffa408ddce31994050788edc82e867389b1be97100ac3436f96e6ba6d27c3cb1",
     [[0.4375], [0.625, 0.9375], [0.625, 0.9375, 0.5]]),
]


@pytest.mark.parametrize("method, params_sha256, matrix", PINNED_RUNS,
                         ids=[m.value for m, _, _ in PINNED_RUNS])
def test_every_method_reproduces_pinned_bytes(method, params_sha256, matrix):
    assert run_pinned(method, quick_config(coreset_size=20), tiny_stream(3),
                      TINY_SPEC, 0) == (matrix, params_sha256)


# each method's MethodRow: deterministic, fisher, symmetric, coreset, coreset_only
METHOD_ROWS = {
    "evclplus": (False, "last", False, None, False),
    "evcl": (False, "last", True, None, False),
    "vcl": (False, None, False, None, False),
    "vcl_random_coreset": (False, None, False, "random", False),
    "vcl_kcenter_coreset": (False, None, False, "kcenter", False),
    "ewc": (True, "each", False, None, False),
    "coreset_only": (False, None, False, "random", True),
    "plain": (True, None, False, None, False),
}


class TestMethodTable:
    def test_every_row_is_the_hand_table(self):
        assert {m.value: tuple(m.row) for m in cl.Method} == METHOD_ROWS
        M = cl.Method
        for read, members in (
                ("uses_coreset", {M.VCL_RANDOM_CORESET, M.VCL_KCENTER_CORESET,
                                  M.CORESET_ONLY}),
                ("deterministic", {M.EWC, M.PLAIN}),
                ("needs_fisher", {M.EVCL_PLUS, M.EVCL, M.EWC})):
            assert {m for m in M if getattr(m, read)} == members, read
        for m in M:  # configs, CSVs and pooled jobs name a method by its value
            assert M(m.value) is m and pickle.loads(pickle.dumps(m)) is m

    def test_run_task_sequence_names_no_method(self):
        # it reads method.row (and method.value for messages), never a member
        tree = ast.parse(textwrap.dedent(inspect.getsource(cl.run_task_sequence)))
        names, values = cl.Method.__members__, {m.value for m in cl.Method}
        assert not [node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in names]
        assert not [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in values]
        assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "method"} == {"row", "value"}

    def test_rows_that_agree_before_any_fisher_train_task_1_alike(self):
        # fisher and symmetric act only once a Fisher exists, so evclplus, evcl
        # and vcl share task 1 bit for bit, as ewc and plain do; a coreset
        # changes what task 1 trains on
        snaps, rows = {}, {}
        for method in cl.Method:
            seen = []
            matrix = cl.run_task_sequence(
                method, quick_config(coreset_size=20), tiny_stream(3), TINY_SPEC, 0,
                on_task_end=lambda t, net, anchors, snap:
                seen.append(hashlib.sha256(snap.tobytes()).hexdigest()))
            snaps[method.value], rows[method.value] = seen, matrix[0]
        for group, digest in (
                (("evclplus", "evcl", "vcl"),
                 "9a2863058d894467c84075cedc95bd5b03284d811e47eeb8e0e0b529c22e9a26"),
                (("ewc", "plain"),
                 "1587c95611e827b98516ab3037b9e84b343f7b49c9e276477a04544431135334")):
            assert {snaps[m][0] for m in group} == {digest}, group
            assert len({tuple(rows[m]) for m in group}) == 1, group
        assert len({seen[0] for seen in snaps.values()}) == 5  # each coreset differs
        assert len({snaps[m][1] for m in ("evclplus", "evcl", "vcl")}) == 3


DEEP_SPEC = bm.NetworkSpec(input_dim=6, hidden_dims=[8, 5], head_dim=2)


def set_log_var_after_first_task(layer, part, index, value):
    """on_task_end hook: writes one body log-variance once task 1 is done."""
    def hook(t, net, anchors, snap):
        if t == 0:
            net.body[layer].split(net.params[1])["wb".index(part)][index] = value
    return hook


class TestNumericEdges:
    @pytest.mark.parametrize("method", [cl.Method.EVCL_PLUS, cl.Method.EVCL,
                                        cl.Method.VCL])
    def test_overflowing_variance_names_term_and_tensor(self, method):
        # exp(800) = inf: the KL of body 1's weights is the first to break
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=rf"{method.value} task 2: loss term 'kl' went "
                                        r"non-finite in body 1 weight \(epoch 1, head 1\)"):
            cl.run_task_sequence(method, quick_config(), tiny_stream(2), DEEP_SPEC,
                                 0, on_task_end=set_log_var_after_first_task(
                                     1, "w", (3, 2), 800.0))

    def test_extreme_k_names_the_variance_anchor(self):
        # (lam/2) k overflows, so the first variance that grows costs inf
        config = quick_config(lam=100.0, k=1e308)
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"loss term 'var_penalty' went non-finite in "
                                        r"body 0 weight \(epoch 1, head 1\)"):
            cl.run_task_sequence(cl.Method.EVCL_PLUS, config, tiny_stream(2), DEEP_SPEC,
                                 0)

    def test_ewc_mean_anchor_overflow_names_the_tensor(self):
        # (mu - mu_prev)^2 = 1e400 overflows in one of EWC's per-task anchors
        def hook(t, net, anchors, snap):
            if t == 0:
                net.body[1].b_mu[...] = 1e200
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"ewc task 2: loss term 'mean_penalty' went "
                                        r"non-finite in body 1 bias \(epoch 1, head 1\)"):
            cl.run_task_sequence(cl.Method.EWC, quick_config(), tiny_stream(2), DEEP_SPEC,
                                 0, on_task_end=hook)

    def test_diverging_routed_head_names_its_tensor(self):
        # exp(709) is finite, but the head's KL to N(0, 1) sums eight of them
        net = bm.init_network(bm.NetworkSpec(3, [4], 2), SeededRng(4))
        net.params[1, net.heads[0].cols] = 709.0
        groups = [(np.zeros((8, 3)), np.array([0, 1] * 4), 0)]
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"^vcl task 1: loss term 'kl' went non-finite "
                                        r"in head 0 weight \(epoch 1, head 0\)$"):
            cl._train_on_groups(net, [obj.UNIT], groups, quick_config(),
                                SeededRng(5), 1, "vcl task 1", False)

    @pytest.mark.parametrize("case, term, tensor", [
        ("routed_head", "kl", "head 0 weight"),
        ("extreme_k", "var_penalty", "body 0 weight")])
    def test_batch_loss_where_is_the_tensor_the_error_names(self, case, term, tensor):
        net = bm.init_network(bm.NetworkSpec(3, [4], 2), SeededRng(4))
        x, y = np.zeros((8, 3)), np.array([0, 1] * 4)
        anchors = [obj.UNIT if case == "routed_head" else
                   obj.task_anchor(net, bm.snapshot(net), np.ones(net.params.shape[1]),
                                   100.0, 1e308)]
        finite, _ = obj.batch_loss(net, (x, y), 0, anchors, 8, SeededRng(5))
        assert finite.nonfinite_term() is None and finite.where is None
        if case == "routed_head":
            # exp(709) is finite, but the head's KL to N(0, 1) sums eight of them
            net.params[1, net.heads[0].cols] = 709.0
        else:
            # every body variance grows, and (lam/2) k overflowed to inf
            net.params[1, :net.body_cols] += 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the head's KL sum overflows
            broken, _ = obj.batch_loss(net, (x, y), 0, anchors, 8, SeededRng(5))
            with pytest.raises(cl.DivergedError) as caught:
                cl._train_on_groups(net, anchors, [(x, y, 0)], quick_config(),
                                    SeededRng(5), 1, "evclplus task 2", False)
        assert (broken.nonfinite_term(), broken.where) == (term, tensor)
        assert str(caught.value) == (f"evclplus task 2: loss term '{term}' went "
                                     f"non-finite in {broken.where} (epoch 1, head 0)")

    def test_extreme_settings_train_or_fail_naming_the_term(self):
        """Every run of an extreme lam x k x learning-rate grid either gives
        finite accuracies or raises DivergedError naming the loss term, and,
        for the terms of the body pass, the body tensor."""
        outcomes = Counter()
        methods = (cl.Method.EVCL_PLUS, cl.Method.EVCL, cl.Method.VCL, cl.Method.EWC,
                   cl.Method.PLAIN)
        for method, lam, k, lr in itertools.product(
                methods, (0.0, 1e-300, 1e300), (0.0, 1e300), (1e-12, 1e3, 1e300)):
            config = quick_config(learning_rate=lr, lam=lam, k=k)
            try:
                with warnings.catch_warnings():
                    # the overflow on the way to a divergence is expected here
                    warnings.simplefilter("ignore", RuntimeWarning)
                    matrix = cl.run_task_sequence(method, config, tiny_stream(2),
                                                  TINY_SPEC, 0)
            except cl.DivergedError as exc:
                found = re.search(r"loss term '(\w+)' went non-finite"
                                  r"( in body \d+ (weight|bias))? \(epoch", str(exc))
                assert found, exc
                term, tensor = found.group(1, 2)
                assert tensor or term not in ("kl", "mean_penalty", "var_penalty"), exc
                outcomes[term] += 1
            else:
                assert all(np.isfinite(row).all() for row in matrix)
                outcomes["trained"] += 1
        assert sum(outcomes.values()) == 90
        assert outcomes["trained"] and outcomes["trained"] < 90, outcomes

    def test_underflowed_snapshot_raises_once_naming_it(self):
        # log_var -800 in task 2 snapshots var = 0; task 3 refuses it at the start
        hook = set_log_var_after_first_task(1, "b", 4, -800.0)
        with pytest.raises(RuntimeError, match=r"prior variance 0.0 of body 1 bias \[4\]"):
            cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(), tiny_stream(3),
                                 DEEP_SPEC, 0, on_task_end=hook)


@pytest.fixture
def digits_pair(digits_idx):
    """The (train, test) digits pair through the IDX loader."""
    return load_idx(*digits_idx["train"]), load_idx(*digits_idx["test"])


class TestSplitDigitsPipeline:
    """End-to-end on digit-like images (conftest.make_digits) through the IDX loader."""

    def test_just_trained_accuracy_floor(self, digits_pair):
        stream = make_split_tasks(digits_pair, [(0, 1), (2, 3)])
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=2)
        cfg = quick_config(epochs=20, coreset_size=60, fisher_samples=500)
        for method in (cl.Method.EVCL_PLUS, cl.Method.VCL, cl.Method.EWC,
                       cl.Method.VCL_RANDOM_CORESET, cl.Method.CORESET_ONLY):
            matrix = cl.run_task_sequence(method, cfg, stream, spec, 0)
            for s in range(len(matrix)):
                assert matrix[s][s] > 0.9, (method, matrix)

    def test_evclplus_retains_first_task(self, digits_pair):
        stream = make_split_tasks(digits_pair, [(0, 1), (2, 3)])
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=2)
        matrix = cl.run_task_sequence(cl.Method.EVCL_PLUS,
                                      quick_config(epochs=10), stream, spec, 0)
        assert matrix[1][0] > 0.9

    def test_shared_head_permuted_pipeline(self, digits_pair):
        stream = make_permuted_tasks(digits_pair, 2, seed=3)
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=10)
        matrix = cl.run_task_sequence(cl.Method.EVCL_PLUS,
                                      quick_config(epochs=10), stream, spec, 0)
        assert [len(row) for row in matrix] == [1, 2]
        # a shared head over 10 digit classes: both tasks should be learned
        assert matrix[0][0] > 0.8 and matrix[1][1] > 0.8


def count_gathers(monkeypatch, stream):
    """Count each split's gathers by (task index, split) while a run reads
    the stream: a read that returns a new Dataset gathered it.  Also checks
    that the last task's train copy is gone before the next one is read."""
    gathers, train_copies = Counter(), []
    read = Task._read

    def counting_read(task, split):
        out = read(task, split)
        if out is not split:
            which = "train" if split is task.stored[0] else "test"
            gathers[stream.tasks.index(task), which] += 1
            if which == "train":
                assert all(copy() is None for copy in train_copies)
                train_copies.append(weakref.ref(out.inputs))
        return out

    monkeypatch.setattr(Task, "_read", counting_read)
    return gathers


READ_ONCE_METHODS = [cl.Method.EVCL_PLUS, cl.Method.VCL_RANDOM_CORESET]


@pytest.mark.parametrize("method", READ_ONCE_METHODS, ids=lambda m: m.value)
@pytest.mark.parametrize("make, head_dim, gathered", [
    # a permuted task 1 reads the base pair itself
    pytest.param(lambda base: make_permuted_tasks(base, 3, seed=3), 10, (1, 2),
                 id="permuted"),
    pytest.param(lambda base: make_split_tasks(base, [(0, 1), (2, 3), (4, 5)]), 2,
                 (0, 1, 2), id="split"),
])
def test_each_split_gathered_once_per_task(digits_pair, monkeypatch, make, head_dim,
                                           gathered, method):
    stream = make(digits_pair)
    spec = bm.NetworkSpec(input_dim=64, hidden_dims=[16], head_dim=head_dim)
    gathers = count_gathers(monkeypatch, stream)
    cl.run_task_sequence(method, quick_config(epochs=1, batch_size=64, coreset_size=20),
                         stream, spec, 0)
    assert gathers == {(t, split): 1 for t in gathered for split in ("train", "test")}


class TestStoredPixelsMatchFloats:
    """Streams of uint8 pixels train to the bytes of their float64 copies."""

    STREAMS = {
        "split": (lambda base: make_split_tasks(base, [(0, 1), (2, 3)]),
                  bm.NetworkSpec(input_dim=64, hidden_dims=[16], head_dim=2)),
        "permuted": (lambda base: make_permuted_tasks(base, 2, seed=3),
                     bm.NetworkSpec(input_dim=64, hidden_dims=[16], head_dim=10)),
    }

    @staticmethod
    def run(method, stream, spec):
        return run_pinned(method, quick_config(epochs=2, batch_size=32, coreset_size=20,
                                               fisher_samples=300), stream, spec, 0)

    @pytest.mark.parametrize("method", [cl.Method.EVCL_PLUS, cl.Method.EWC,
                                        cl.Method.VCL_KCENTER_CORESET],
                             ids=lambda m: m.value)
    def test_read_time_permutation_matches_column_major_copies(self, digits_idx,
                                                               method):
        make, spec = self.STREAMS["permuted"]
        stream = make((load_idx(*digits_idx["train"]), load_idx(*digits_idx["test"])))
        copies = TaskStream([stream.tasks[0]] + [
            Task(*(Dataset(ds.inputs[:, task.cols], ds.labels, ds.n_classes)
                   for ds in task.stored), task.head)
            for task in stream.tasks[1:]])
        assert all(not ds.inputs.flags.c_contiguous  # the layout x[:, perm] gives
                   for task in copies.tasks[1:] for ds in task.stored)
        assert self.run(method, stream, spec) == self.run(method, copies, spec)

    @pytest.mark.parametrize("kind", ["split", "permuted"])
    @pytest.mark.parametrize("method", [cl.Method.EVCL_PLUS, cl.Method.EWC,
                                        cl.Method.VCL_KCENTER_CORESET],
                             ids=lambda m: m.value)
    def test_same_accuracies_and_parameters(self, digits_idx, kind, method):
        make, spec = self.STREAMS[kind]
        pixels = (load_idx(*digits_idx["train"]), load_idx(*digits_idx["test"]))
        floats = tuple(Dataset(pixel_floats(ds.inputs), ds.labels, ds.n_classes)
                       for ds in pixels)
        stored = make(pixels)
        assert all(ds.inputs.dtype == np.uint8
                   for task in stored.tasks for ds in (task.train, task.test))
        assert self.run(method, stored, spec) == self.run(method, make(floats), spec)
