import math
import re

import numpy as np
import pytest

from evclplus.bayes_mlp import NetworkSpec
from evclplus.continual import Method, TrainConfig, run_task_sequence
from evclplus.data import make_permuted_tasks, make_synthetic_tasks
from evclplus.numerics import (
    SeededRng,
    batch_cross_entropy_with_grad,
    log_softmax,
)


class TestSeededRng:
    def test_split_calls_match_one_call(self):
        # sample_forward draws a layer stack's noise in one call; that is only
        # the per-tensor stream if consecutive draws concatenate exactly
        r1, r2 = SeededRng(123), SeededRng(123)
        parts = np.concatenate([r1.standard_normal((3, 4)).ravel(),
                                r1.standard_normal(4), r1.standard_normal(5)])
        one = r2.standard_normal(21)
        np.testing.assert_array_equal(parts, one)

    def test_moments(self):
        xs = SeededRng(7).standard_normal(100_000)
        assert abs(xs.mean()) < 0.015
        assert abs(xs.var() - 1.0) < 0.03

    def test_empty(self):
        assert SeededRng(0).standard_normal(0).shape == (0,)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            SeededRng(0).standard_normal(-1)

    def test_numpy_integer_seed_is_the_same_stream(self):
        rng = SeededRng(np.int64(3))
        assert rng.seed == 3 and type(rng.seed) is int
        np.testing.assert_array_equal(rng.standard_normal(4),
                                      SeededRng(3).standard_normal(4))

    @pytest.mark.parametrize("seed", [0.5, 2.0, "3"], ids=["half", "float", "str"])
    @pytest.mark.parametrize("entry", [
        SeededRng,
        lambda seed: run_task_sequence(Method.PLAIN, TrainConfig(epochs=1),
                                       make_synthetic_tasks(1, 5, 3, 1.0, seed=0),
                                       NetworkSpec(3, [], 2), seed),
        lambda seed: make_synthetic_tasks(1, 5, 3, 1.0, seed=seed),
        lambda seed: make_permuted_tasks(make_synthetic_tasks(1, 5, 3, 1.0, 0)
                                         .tasks[0].stored, 2, seed=seed),
    ], ids=["SeededRng", "run_task_sequence", "make_synthetic_tasks",
            "make_permuted_tasks"])
    def test_non_integer_seed_rejected_naming_it(self, entry, seed):
        # int() would truncate it: seed 0.5 used to run seed 0
        with pytest.raises(TypeError, match=rf"^seed must be an integer, got {seed!r}$"):
            entry(seed)

    def test_spawn_deterministic_and_independent(self):
        a = SeededRng(5).spawn().standard_normal(4)
        b = SeededRng(5).spawn().standard_normal(4)
        parent = SeededRng(5).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, parent)


class TestLogSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]),
                                   [-math.log(2)] * 2, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = log_softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, -1000.0], atol=1e-12)

    def test_single_class(self):
        np.testing.assert_allclose(log_softmax([3.0]), [0.0], atol=1e-15)

    def test_normalization(self):
        rng = SeededRng(1)
        for _ in range(50):
            v = rng.standard_normal(8) * 10
            assert abs(np.exp(log_softmax(v)).sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = SeededRng(2)
        for _ in range(50):
            v = rng.standard_normal(6) * 5
            c = float(rng.standard_normal(1)[0]) * 100
            diff = np.abs(log_softmax(v + c) - log_softmax(v))
            assert diff.max() < 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            log_softmax([])


class TestCrossEntropy:
    def test_uniform_pair(self):
        loss, d = batch_cross_entropy_with_grad(np.array([[0.0, 0.0]]), [0])
        assert abs(loss - math.log(2)) < 1e-15
        np.testing.assert_allclose(d[0], [-0.5, 0.5], atol=1e-15)

    def test_saturated_correct(self):
        loss, _ = batch_cross_entropy_with_grad(np.array([[50.0, -50.0]]), [0])
        assert loss < 1e-12

    def test_grad_sums_to_zero(self):
        rng = SeededRng(3)
        for _ in range(50):
            v = rng.standard_normal(5) * 8
            label = int(rng.integers(0, 5))
            _, d = batch_cross_entropy_with_grad(v[None, :], [label])
            assert abs(d.sum()) < 1e-12

    @pytest.mark.parametrize("logits, labels", [
        (np.zeros(2), [0]),
        (np.zeros((2, 2)), [0]),
        (np.zeros((2, 2)), [[0], [1]]),
    ], ids=["one_dim_logits", "too_few_labels", "two_dim_labels"])
    def test_bad_shapes_named(self, logits, labels):
        message = f"bad batch shapes: logits {logits.shape}, labels {np.shape(labels)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            batch_cross_entropy_with_grad(logits, labels)

    def test_label_out_of_range(self):
        # -1 would otherwise score the last class, 2 index past the logits
        for label in (-1, 2):
            with pytest.raises(ValueError, match=f"label {label} out of range"):
                batch_cross_entropy_with_grad(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                              [0, label])

    def test_batch_matches_single(self):
        rng = SeededRng(4)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, d = batch_cross_entropy_with_grad(logits, labels)
        singles = [batch_cross_entropy_with_grad(logits[i:i + 1], labels[i:i + 1])
                   for i in range(6)]
        np.testing.assert_allclose(loss, np.mean([s[0] for s in singles]),
                                   rtol=1e-12)
        np.testing.assert_allclose(d, np.vstack([s[1] for s in singles]) / 6,
                                   rtol=1e-12)

    def test_softmax_probabilities(self):
        p = np.exp(log_softmax(np.array([1.0, 2.0, 3.0])))
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p > 0).all()
