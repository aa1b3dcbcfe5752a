import itertools
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from evclplus import bayes_mlp as bm
from evclplus import continual as cl
from evclplus.data import TaskStream, load_idx, make_split_tasks, \
    make_synthetic_tasks
from evclplus.numerics import BLOCK, SeededRng
from evclplus.objectives import Hyperparams


def quick_config(**kw):
    defaults = dict(epochs=3, batch_size=8, learning_rate=3e-3,
                    hp=Hyperparams(lam=100.0, k=5.0), fisher_samples=200,
                    coreset_size=10, seed=0, eval_samples=5)
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


class TestRandomCoreset:
    def test_empty_selection(self):
        x, y = np.arange(12.0).reshape(6, 2), np.arange(6)
        (cx, cy), (rx, ry) = cl.select_coreset_random((x, y), 0, SeededRng(0))
        assert len(cy) == 0
        np.testing.assert_array_equal(rx, x)

    def test_full_selection(self):
        x, y = np.arange(12.0).reshape(6, 2), np.arange(6)
        (cx, cy), (rx, ry) = cl.select_coreset_random((x, y), 6, SeededRng(0))
        assert len(ry) == 0 and len(cy) == 6

    def test_partition_and_determinism(self):
        rng_data = SeededRng(3)
        x = rng_data.uniform(0, 1, size=(30, 4))
        y = rng_data.integers(0, 2, size=30)
        (cx1, cy1), (rx1, _) = cl.select_coreset_random((x, y), 10, SeededRng(7))
        (cx2, _), _ = cl.select_coreset_random((x, y), 10, SeededRng(7))
        np.testing.assert_array_equal(cx1, cx2)
        assert len(cy1) == 10 and rx1.shape[0] == 20
        merged = np.vstack([cx1, rx1])
        assert {tuple(row) for row in merged} == {tuple(row) for row in x}

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            cl.select_coreset_random((np.zeros((3, 2)), np.zeros(3)), 4, SeededRng(0))


class TestKCenterCoreset:
    def test_two_far_clusters_covered(self):
        # 8 points, two clusters; brute-force oracle: start at the max-norm
        # point, the second pick must be the point farthest from it
        pts = np.array([[10.0, 10.0], [10.2, 10.1], [9.9, 10.3], [10.1, 9.8],
                        [0.0, 0.1], [0.2, 0.0], [0.1, 0.3], [0.0, 0.2]])
        y = np.arange(8)
        start = int(np.argmax(np.linalg.norm(pts, axis=1)))
        farthest = int(np.argmax(np.linalg.norm(pts - pts[start], axis=1)))
        (cx, cy), _ = cl.select_coreset_kcenter((pts, y), 2)
        assert set(cy.tolist()) == {start, farthest}
        in_cluster_a = [int(i) for i in cy if pts[i, 0] > 5]
        in_cluster_b = [int(i) for i in cy if pts[i, 0] <= 5]
        assert len(in_cluster_a) == 1 and len(in_cluster_b) == 1

    def test_size_one_is_max_norm_start(self):
        pts = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        (cx, cy), _ = cl.select_coreset_kcenter((pts, np.arange(3)), 1)
        np.testing.assert_array_equal(cx, [[3.0, 0.0]])

    def test_selected_indices_distinct(self):
        rng = SeededRng(4)
        x = rng.uniform(0, 1, size=(40, 3))
        (cx, cy), (rx, ry) = cl.select_coreset_kcenter((x, np.arange(40)), 15)
        assert len(set(cy.tolist())) == 15
        assert len(ry) == 25

    def test_errors(self):
        x, y = np.zeros((3, 2)), np.zeros(3)
        with pytest.raises(ValueError):
            cl.select_coreset_kcenter((x, y), 0)
        with pytest.raises(ValueError):
            cl.select_coreset_kcenter((x, y), 4)

    @pytest.mark.parametrize("x, size", [
        (np.repeat(np.eye(3), 4, axis=0), 5),
        (np.zeros((10, 4)), 3),
    ], ids=["three_distinct_rows", "all_zero_rows"])
    def test_duplicates_never_picked_twice(self, x, size):
        n = len(x)
        (cx, cy), (rx, ry) = cl.select_coreset_kcenter((x, np.arange(n)), size)
        assert len(set(cy.tolist())) == size
        assert len(ry) == n - size
        assert sorted(cy.tolist() + ry.tolist()) == list(range(n))

    def test_peak_memory_is_the_returned_copies(self):
        x = SeededRng(3).uniform(0, 1, size=(2400, 784))
        tracemalloc.start()
        try:
            cl.select_coreset_kcenter((x, np.arange(2400)), 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes


def kcenter_reference(data, size):
    """The per-step loop select_coreset_kcenter replaced: one full (n, d)
    difference and np.linalg.norm per pick.  Valid while the data has at
    least `size` distinct rows (it repeats picks otherwise)."""
    x, y = data
    start = int(np.argmax(np.linalg.norm(x, axis=1)))
    chosen = [start]
    dist = np.linalg.norm(x - x[start], axis=1)
    for _ in range(size - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(x - x[nxt], axis=1))
    mask = np.zeros(len(y), dtype=bool)
    mask[chosen] = True
    return (x[mask], y[mask]), (x[~mask], y[~mask])


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


def assert_matches_reference(x, size):
    data = (x, np.arange(len(x)))
    got, want = cl.select_coreset_kcenter(data, size), kcenter_reference(data, size)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        np.testing.assert_array_equal(a, b)


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

    def test_size_n_on_distinct_uniform_rows(self):
        assert_matches_reference(SeededRng(8).uniform(0, 1, size=(50, 784)), 50)


class TestFinetune:
    def test_empty_coreset_returns_identical_copy(self):
        net = bm.init_network(TINY_SPEC, SeededRng(5))
        state = cl.MethodState(method=cl.Method.VCL_RANDOM_CORESET, net=net,
                               prior=bm.unit_prior(net))
        tuned = cl.finetune_on_coreset(state, quick_config(), SeededRng(6))
        np.testing.assert_array_equal(tuned.params, net.params)
        assert not np.shares_memory(tuned.params, net.params)
        assert tuned is not net

    def test_original_untouched(self):
        stream = tiny_stream(1)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(7))
        state = cl.MethodState(method=cl.Method.VCL_RANDOM_CORESET, net=net,
                               prior=bm.unit_prior(net))
        state.coresets = [(task.train.inputs[:20], task.train.labels[:20], 0)]
        before = net.params.copy()
        cl.finetune_on_coreset(state, quick_config(epochs=5), SeededRng(8))
        np.testing.assert_array_equal(net.params, before)

    def test_full_coreset_no_main_training_beats_chance(self):
        stream = tiny_stream(1, seed=11)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(9))
        state = cl.MethodState(method=cl.Method.VCL_RANDOM_CORESET, net=net,
                               prior=bm.unit_prior(net))
        state.coresets = [(task.train.inputs, task.train.labels, 0)]
        tuned = cl.finetune_on_coreset(state, quick_config(epochs=20), SeededRng(10))
        accs = cl.evaluate(tuned, [(task.test.inputs, task.test.labels)], [0],
                           5, SeededRng(11))
        assert accs[0] > 0.8


class TestEvaluate:
    def test_memorization_smoke(self):
        stream = tiny_stream(1, seed=12)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(13))
        state = cl.MethodState(method=cl.Method.PLAIN, net=net,
                               prior=bm.unit_prior(net), adam=cl.init_adam(net))
        x, y = task.train.inputs[:10], task.train.labels[:10]
        cl._train_on_groups(state, [(x, y, 0)],
                            quick_config(epochs=300, learning_rate=1e-2),
                            SeededRng(14), 10, 300, "memorize")
        accs = cl.evaluate(net, [(x, y)], [0], 1, None, deterministic=True)
        assert accs[0] == 1.0

    def test_random_predictor_near_chance(self):
        spec = bm.NetworkSpec(input_dim=5, hidden_dims=[8], head_dim=10)
        net = bm.init_network(spec, SeededRng(15))
        rng = SeededRng(16)
        x = rng.uniform(0, 1, size=(1000, 5))
        y = rng.integers(0, 10, size=1000)
        accs = cl.evaluate(net, [(x, y)], [0], 3, SeededRng(17))
        assert abs(accs[0] - 0.1) < 0.03

    def test_bounds(self):
        stream = tiny_stream(1)
        task = stream.tasks[0]
        net = bm.init_network(TINY_SPEC, SeededRng(18))
        accs = cl.evaluate(net, [(task.test.inputs, task.test.labels)], [0],
                           2, SeededRng(19))
        assert 0.0 <= accs[0] <= 1.0


class TestForgetting:
    def test_monotone_is_zero(self):
        acc = [[0.8], [0.85, 0.9], [0.9, 0.95, 0.99]]
        assert cl.forgetting_measure(acc) == 0.0

    def test_hand_value(self):
        acc = [[0.9], [0.8, 0.95]]
        assert cl.forgetting_measure(acc) == pytest.approx(0.1, rel=1e-12)

    def test_appending_nonforgetting_task_keeps_zero(self):
        acc = [[0.8], [0.85, 0.9]]
        assert cl.forgetting_measure(acc) == 0.0
        extended = acc + [[0.85, 0.9, 0.7]]
        assert cl.forgetting_measure(extended) == 0.0

    def test_single_task_rejected(self):
        with pytest.raises(ValueError):
            cl.forgetting_measure([[0.9]])


class TestRunTaskSequence:
    def test_single_task_single_row(self):
        matrix = cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(),
                                      tiny_stream(1), TINY_SPEC)
        assert len(matrix) == 1 and len(matrix[0]) == 1

    def test_triangular_shape(self):
        matrix = cl.run_task_sequence(cl.Method.VCL, quick_config(),
                                      tiny_stream(3), TINY_SPEC)
        assert [len(row) for row in matrix] == [1, 2, 3]
        assert all(0.0 <= a <= 1.0 for row in matrix for a in row)

    def test_deterministic_rerun(self):
        a = cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(),
                                 tiny_stream(2), TINY_SPEC)
        b = cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(),
                                 tiny_stream(2), TINY_SPEC)
        assert a == b

    def test_lambda_zero_identical_to_vcl(self):
        cfg = quick_config(hp=Hyperparams(lam=0.0, k=5.0))
        a = cl.run_task_sequence(cl.Method.EVCL_PLUS, cfg, tiny_stream(2),
                                 TINY_SPEC)
        b = cl.run_task_sequence(cl.Method.VCL, cfg, tiny_stream(2), TINY_SPEC)
        assert a == b

    def test_all_methods_run(self):
        stream = tiny_stream(2)
        for method in cl.Method:
            matrix = cl.run_task_sequence(method, quick_config(), stream,
                                          TINY_SPEC)
            assert [len(row) for row in matrix] == [1, 2]

    def test_ewc_loss_has_no_kl(self):
        net = bm.init_network(TINY_SPEC, SeededRng(20))
        state = cl.MethodState(method=cl.Method.EWC, net=net,
                               prior=bm.unit_prior(net))
        stream = tiny_stream(1)
        x, y = stream.tasks[0].train.inputs[:8], stream.tasks[0].train.labels[:8]
        breakdown, _ = cl._batch_loss(state, x, y, 0, 40, SeededRng(21),
                                      Hyperparams())
        assert breakdown.kl == 0.0 and breakdown.kl_weight == 0.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            cl.run_task_sequence(cl.Method.VCL, quick_config(),
                                 TaskStream(tasks=[], single_head=False),
                                 TINY_SPEC)

    def test_prior_chains_to_last_snapshot(self):
        seen = []

        def observe(t, state, snap):
            seen.append((state.prior, snap))

        cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(),
                             tiny_stream(3), TINY_SPEC, on_task_end=observe)
        for prior, snap in seen:  # the prior for task t+1 IS task t's snapshot
            assert prior is snap
        assert len(seen) == 3

    def test_head_isolation_across_tasks(self):
        heads_after = []

        def observe(t, state, snap):
            heads_after.append(state.net.params[:, state.net.heads[0].cols].copy())

        cl.run_task_sequence(cl.Method.EVCL_PLUS, quick_config(),
                             tiny_stream(3), TINY_SPEC, on_task_end=observe)
        # head 0 must stay bit-identical once tasks 1 and 2 train heads 1, 2
        for later in (1, 2):
            np.testing.assert_array_equal(heads_after[0], heads_after[later])



DEEP_SPEC = bm.NetworkSpec(input_dim=6, hidden_dims=[8, 5], head_dim=2)


def set_log_var_after_first_task(layer, part, index, value):
    """on_task_end hook: writes one body log-variance once task 1 is done."""
    def hook(t, state, snap):
        if t == 0:
            getattr(state.net.body[layer], f"{part}_log_var")[index] = value
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
                                 on_task_end=set_log_var_after_first_task(
                                     1, "w", (3, 2), 800.0))

    def test_extreme_k_names_the_variance_anchor(self):
        # (lam/2) k overflows, so the first variance that grows costs inf
        config = quick_config(hp=Hyperparams(lam=100.0, k=1e308))
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"loss term 'var_penalty' went non-finite in "
                                        r"body 0 weight \(epoch 1, head 1\)"):
            cl.run_task_sequence(cl.Method.EVCL_PLUS, config, tiny_stream(2), DEEP_SPEC)

    def test_ewc_mean_anchor_overflow_names_the_tensor(self):
        # (mu - mu_prev)^2 = 1e400 overflows in one of EWC's per-task anchors
        def hook(t, state, snap):
            if t == 0:
                state.net.body[1].b_mu[...] = 1e200
        with pytest.warns(RuntimeWarning), pytest.raises(
                cl.DivergedError, match=r"ewc task 2: loss term 'mean_penalty' went "
                                        r"non-finite in body 1 bias \(epoch 1, head 1\)"):
            cl.run_task_sequence(cl.Method.EWC, quick_config(), tiny_stream(2), DEEP_SPEC,
                                 on_task_end=hook)

    def test_extreme_settings_train_or_fail_naming_the_term(self):
        """Every run of an extreme lam x k x learning-rate grid either gives
        finite accuracies or raises DivergedError naming the loss term, and,
        for the terms of the body pass, the body tensor."""
        outcomes = Counter()
        methods = (cl.Method.EVCL_PLUS, cl.Method.EVCL, cl.Method.VCL, cl.Method.EWC,
                   cl.Method.PLAIN)
        for method, lam, k, lr in itertools.product(
                methods, (0.0, 1e-300, 1e300), (0.0, 1e300), (1e-12, 1e3, 1e300)):
            config = quick_config(learning_rate=lr, hp=Hyperparams(lam=lam, k=k))
            try:
                with warnings.catch_warnings():
                    # the overflow on the way to a divergence is expected here
                    warnings.simplefilter("ignore", RuntimeWarning)
                    matrix = cl.run_task_sequence(method, config, tiny_stream(2),
                                                  TINY_SPEC)
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
                                 DEEP_SPEC, on_task_end=hook)


class TestSplitDigitsPipeline:
    """End-to-end on digit-like images (conftest.make_digits) through the IDX loader."""

    def test_just_trained_accuracy_floor(self, digits_idx):
        train = load_idx(*digits_idx["train"])
        test = load_idx(*digits_idx["test"])
        stream = make_split_tasks((train, test), [(0, 1), (2, 3)])
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=2)
        cfg = quick_config(epochs=20, coreset_size=60, fisher_samples=500)
        for method in (cl.Method.EVCL_PLUS, cl.Method.VCL, cl.Method.EWC,
                       cl.Method.VCL_RANDOM_CORESET, cl.Method.CORESET_ONLY):
            matrix = cl.run_task_sequence(method, cfg, stream, spec)
            for s in range(len(matrix)):
                assert matrix[s][s] > 0.9, (method, matrix)

    def test_evclplus_retains_first_task(self, digits_idx):
        train = load_idx(*digits_idx["train"])
        test = load_idx(*digits_idx["test"])
        stream = make_split_tasks((train, test), [(0, 1), (2, 3)])
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=2)
        matrix = cl.run_task_sequence(cl.Method.EVCL_PLUS,
                                      quick_config(epochs=10), stream, spec)
        assert matrix[1][0] > 0.9

    def test_single_head_permuted_pipeline(self, digits_idx):
        from evclplus.data import make_permuted_tasks

        train = load_idx(*digits_idx["train"])
        test = load_idx(*digits_idx["test"])
        stream = make_permuted_tasks((train, test), 2, seed=3)
        spec = bm.NetworkSpec(input_dim=64, hidden_dims=[32], head_dim=10,
                              single_head=True)
        matrix = cl.run_task_sequence(cl.Method.EVCL_PLUS,
                                      quick_config(epochs=10), stream, spec)
        assert [len(row) for row in matrix] == [1, 2]
        # a shared head over 10 digit classes: both tasks should be learned
        assert matrix[0][0] > 0.8 and matrix[1][1] > 0.8
