import math

import numpy as np
import pytest

from evclplus import bayes_mlp as bm
from evclplus import objectives as obj
from evclplus.numerics import SeededRng, cross_entropy_with_grad
from evclplus.verify import finite_diff_check

FROZEN_SIGMA_OFF = -2000.0


def one_param_net(mu=0.0, log_var=-6.0):
    """input 1 -> hidden 1 -> head 2; the single body weight is the probe."""
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[1], head_dim=2)
    net = bm.init_network(spec, SeededRng(0))
    net.body[0].w_mu[...] = mu
    net.body[0].w_log_var[...] = log_var
    return net


def one_param_anchor(net, prev_w_mu, prev_w_var, fisher_w):
    """Snapshot + Fisher that single out the body weight (bias Fisher = 0)."""
    prev = bm.snapshot(net).copy()  # writable copy
    w, _ = net.body[0].split(prev)
    w[0] = prev_w_mu
    w[1] = prev_w_var
    prev.flags.writeable = False
    fisher = np.zeros(net.params.shape[1])
    net.body[0].split(fisher)[0][...] = fisher_w
    return prev, fisher


def body_fisher(net, rng, low, high):
    """Random Fisher over the body columns; heads are not estimated."""
    fisher = np.zeros(net.params.shape[1])
    fisher[:net.body_cols] = rng.uniform(low, high, size=net.body_cols)
    return fisher


def mean_grads(net, prev, fisher, lam):
    """mean_penalty's value and the (2, P) gradient buffer it added into."""
    grads = np.zeros_like(net.params)
    return obj.mean_penalty(net, prev, fisher, lam, grads[0, :net.body_cols]), grads


def var_grads(net, prev, fisher, lam, k, symmetric=False):
    """asym_var_penalty's value and the (2, P) gradient buffer it added into."""
    grads = np.zeros_like(net.params)
    val = obj.asym_var_penalty(net, prev, fisher, lam, k, grads[1, :net.body_cols],
                               symmetric=symmetric)
    return val, grads


def ewc_grads(net, anchors, lam):
    """ewc_quadratic_penalty's value and the (2, P) gradient buffer it added into."""
    grads = np.zeros_like(net.params)
    return obj.ewc_quadratic_penalty(net, anchors, lam, grads[0, :net.body_cols]), grads


class TestKlDiagGauss:
    def test_identical_is_zero(self):
        mu = np.array([0.3, -1.2])
        lv = np.array([-0.5, 0.8])
        kl, d_mu, d_lv = obj.kl_diag_gauss(mu, lv, mu.copy(), np.exp(lv))
        assert abs(kl) < 1e-12
        np.testing.assert_allclose(d_mu, 0, atol=1e-15)
        np.testing.assert_allclose(d_lv, 0, atol=1e-15)

    def test_unit_shift(self):
        kl, _, _ = obj.kl_diag_gauss(np.array([1.0]), np.array([0.0]),
                                     np.array([0.0]), np.array([1.0]))
        assert abs(kl - 0.5) < 1e-10

    def test_wide_posterior(self):
        expected = 0.5 * (math.log(1 / 4) + 4 - 1)  # = 0.80685281944...
        kl, _, _ = obj.kl_diag_gauss(np.array([0.0]), np.array([math.log(4.0)]),
                                     np.array([0.0]), np.array([1.0]))
        assert abs(kl - expected) < 1e-10
        assert abs(kl - 0.8069) < 1e-4

    def test_nonnegative_random_sweep(self):
        rng = SeededRng(1)
        for _ in range(200):
            mu = rng.standard_normal(4) * 2
            lv = rng.standard_normal(4)
            pm = rng.standard_normal(4) * 2
            pv = np.exp(rng.standard_normal(4))
            kl, _, _ = obj.kl_diag_gauss(mu, lv, pm, pv)
            assert kl >= -1e-12

    def test_zero_iff_equal(self):
        rng = SeededRng(2)
        mu = rng.standard_normal(3)
        lv = rng.standard_normal(3)
        kl, _, _ = obj.kl_diag_gauss(mu, lv + 0.01, mu, np.exp(lv))
        assert kl > 1e-10

    def test_bad_prior_variance(self):
        with pytest.raises(RuntimeError):
            obj.kl_diag_gauss(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))

    def test_gradients_match_finite_differences(self):
        rng = SeededRng(3)
        pm = rng.standard_normal(3)
        pv = np.exp(rng.standard_normal(3))
        mu0 = rng.standard_normal(3)
        lv0 = rng.standard_normal(3)

        def loss_at(vec):
            kl, _, _ = obj.kl_diag_gauss(vec[:3], vec[3:], pm, pv)
            return kl

        _, d_mu, d_lv = obj.kl_diag_gauss(mu0, lv0, pm, pv)
        report = finite_diff_check(loss_at, np.concatenate([mu0, lv0]),
                                   np.concatenate([d_mu, d_lv]))
        assert report.passed, report.worst_coordinates()


class TestElboLoss:
    def test_total_is_nll_when_posterior_equals_prior(self):
        net = one_param_net()
        net.heads[0].w_mu[...] = 0.0
        net.heads[0].b_mu[...] = 0.0
        net.heads[0].w_log_var[...] = 0.0  # head prior is the unit Gaussian
        net.heads[0].b_log_var[...] = 0.0
        prior = bm.snapshot(net)
        x = np.array([[0.5], [0.8]])
        y = np.array([0, 1])
        breakdown, _ = obj.elbo_loss(net, (x, y), 0, prior, 100, SeededRng(4))
        assert breakdown.kl == pytest.approx(0.0, abs=1e-12)
        assert breakdown.total == breakdown.nll

    def test_zero_variance_linear_net_matches_hand_logits(self):
        spec = bm.NetworkSpec(input_dim=2, hidden_dims=[], head_dim=2)
        net = bm.init_network(spec, SeededRng(5))
        head = net.heads[0]
        head.w_mu[...] = np.array([[1.0, -1.0], [0.5, 2.0]])
        head.b_mu[...] = np.array([0.1, -0.2])
        head.w_log_var[...] = FROZEN_SIGMA_OFF
        head.b_log_var[...] = FROZEN_SIGMA_OFF
        x = np.array([[0.3, 0.7]])
        y = np.array([1])
        prior = bm.snapshot(net)
        breakdown, _ = obj.elbo_loss(net, (x, y), 0, prior, 10, SeededRng(6))
        hand_logits = x[0] @ head.w_mu + head.b_mu
        hand_loss, _ = cross_entropy_with_grad(hand_logits, 1)
        assert abs(breakdown.nll - hand_loss) < 1e-12

    def test_doubling_dataset_size_halves_kl_term(self):
        net = one_param_net(mu=0.7)
        prior = bm.unit_prior(net)
        x = np.array([[0.5]])
        y = np.array([0])
        b1, _ = obj.elbo_loss(net, (x, y), 0, prior, 100, SeededRng(7))
        b2, _ = obj.elbo_loss(net, (x, y), 0, prior, 200, SeededRng(7))
        assert b1.kl == b2.kl
        assert b2.kl_weight * b2.kl == pytest.approx(0.5 * b1.kl_weight * b1.kl,
                                                     rel=1e-15)

    def test_empty_batch_rejected(self):
        net = one_param_net()
        with pytest.raises(ValueError):
            obj.elbo_loss(net, (np.zeros((0, 1)), np.zeros(0, dtype=int)), 0,
                          bm.snapshot(net), 10, SeededRng(0))


class TestMeanPenalty:
    def test_zero_at_anchor(self):
        net = one_param_net(mu=0.4)
        prev, fisher = one_param_anchor(net, prev_w_mu=0.4, prev_w_var=1.0,
                                        fisher_w=1.0)
        val, grads = mean_grads(net, prev, fisher, lam=100.0)
        assert val == 0.0
        assert (grads == 0).all()

    def test_hand_value_and_gradient(self):
        net = one_param_net(mu=0.1)
        prev, fisher = one_param_anchor(net, prev_w_mu=0.0, prev_w_var=1.0,
                                        fisher_w=1.0)
        val, grads = mean_grads(net, prev, fisher, lam=100.0)
        assert val == pytest.approx(0.5, rel=1e-12)
        assert net.body[0].split(grads)[0][0, 0, 0] == pytest.approx(10.0, rel=1e-12)
        assert (grads[1] == 0).all()

    def test_lambda_zero(self):
        net = one_param_net(mu=3.0)
        prev, fisher = one_param_anchor(net, 0.0, 1.0, 5.0)
        val, _ = mean_grads(net, prev, fisher, lam=0.0)
        assert val == 0.0


class TestAsymVarPenalty:
    def test_tie_is_exactly_zero(self):
        net = one_param_net(log_var=math.log(0.2))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        # bias variances also tie: prev carries exp(net's own log_var)
        val, grads = var_grads(net, prev, fisher, lam=100.0, k=5.0)
        assert val == 0.0
        assert (grads == 0).all()

    def test_decreasing_branch_hand_value(self):
        net = one_param_net(log_var=math.log(0.1))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        val, grads = var_grads(net, prev, fisher, lam=100.0, k=5.0)
        assert val == pytest.approx(1.0, rel=1e-12)
        # d/dlog_var = lam * F * (var - prev) * var = 100*2*(-0.1)*0.1 = -2
        assert net.body[0].split(grads)[0][1, 0, 0] == pytest.approx(-2.0, rel=1e-12)

    def test_increasing_branch_hand_value(self):
        net = one_param_net(log_var=math.log(0.3))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        val, grads = var_grads(net, prev, fisher, lam=100.0, k=5.0)
        assert val == pytest.approx(150.0, rel=1e-12)
        # d/dlog_var = (lam/2) * k * F * var = 50*5*2*0.3 = 150
        assert net.body[0].split(grads)[0][1, 0, 0] == pytest.approx(150.0, rel=1e-12)

    def test_negative_k_rejected(self):
        net = one_param_net()
        prev, fisher = one_param_anchor(net, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            var_grads(net, prev, fisher, lam=1.0, k=-0.1)

    def test_strictly_increasing_in_k_and_fisher(self):
        rng = SeededRng(8)
        for _ in range(100):
            var = float(rng.uniform(0.2, 2.0))
            prev_var = var * float(rng.uniform(0.3, 0.9))  # increasing branch
            f1 = float(rng.uniform(0.1, 2.0))
            k1 = float(rng.uniform(0.1, 5.0))
            net = one_param_net(log_var=math.log(var))
            prev, fisher = one_param_anchor(net, 0.0, prev_var, f1)
            v1, _ = var_grads(net, prev, fisher, lam=100.0, k=k1)
            v2, _ = var_grads(net, prev, fisher, lam=100.0, k=k1 * 1.5)
            prev3, fisher3 = one_param_anchor(net, 0.0, prev_var, f1 * 2.0)
            v3, _ = var_grads(net, prev3, fisher3, lam=100.0, k=k1)
            assert v2 > v1 > 0
            assert v3 > v1

    def test_symmetric_flag_uses_quadratic_growth(self):
        net = one_param_net(log_var=math.log(0.3))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        val, _ = var_grads(net, prev, fisher, lam=100.0, k=5.0, symmetric=True)
        assert val == pytest.approx(0.5 * 100 * 2 * 0.1**2, rel=1e-12)  # = 1.0

    def test_gradients_both_branches_match_finite_differences(self):
        spec = bm.NetworkSpec(input_dim=3, hidden_dims=[4], head_dim=2)
        net = bm.init_network(spec, SeededRng(9))
        rng = SeededRng(10)
        prev_net = bm.clone_network(net)
        body_log_var = prev_net.params[1, :net.body_cols]
        body_log_var += np.where(rng.uniform(size=net.body_cols) < 0.5, -0.5, 0.5)
        prev = bm.snapshot(prev_net)
        fisher = body_fisher(net, rng, 0.1, 2.0)

        def loss_at(vec):
            probe = bm.BayesMlp(net.spec, vec.reshape(net.params.shape))
            val, _ = var_grads(probe, prev, fisher, lam=100.0, k=5.0)
            return val

        _, grads = var_grads(net, prev, fisher, lam=100.0, k=5.0)
        report = finite_diff_check(loss_at, net.params.ravel(), grads.ravel())
        assert report.passed, report.worst_coordinates()


class TestEvclPlusLoss:
    def test_first_task_has_zero_penalties(self):
        net = one_param_net(mu=0.3)
        prior = bm.unit_prior(net)
        x, y = np.array([[0.5]]), np.array([0])
        breakdown, _ = obj.evclplus_loss(net, (x, y), 0, prior, None,
                                         obj.Hyperparams(), 10, SeededRng(11),
                                         first_task=True)
        assert breakdown.mean_penalty == 0.0
        assert breakdown.var_penalty == 0.0

    def test_lambda_zero_reduces_to_elbo(self):
        rng = SeededRng(12)
        spec = bm.NetworkSpec(input_dim=3, hidden_dims=[4], head_dim=2)
        for trial in range(10):
            net = bm.init_network(spec, rng)
            prev_net = bm.init_network(spec, rng)
            prev = bm.snapshot(prev_net)
            fisher = body_fisher(net, rng, 0, 1)
            x = rng.uniform(0, 1, size=(4, 3))
            y = rng.integers(0, 2, size=4)
            hp = obj.Hyperparams(lam=0.0, k=5.0)
            full, _ = obj.evclplus_loss(net, (x, y), 0, prev, fisher, hp, 40,
                                        SeededRng(100 + trial), first_task=False)
            plain, _ = obj.elbo_loss(net, (x, y), 0, prev, 40,
                                     SeededRng(100 + trial))
            assert abs(full.total - plain.total) < 1e-12

    def test_k_zero_and_growing_variance_gives_zero_var_penalty(self):
        net = one_param_net(log_var=math.log(0.5))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        # push every body variance above its anchor, including the bias
        net.body[0].b_log_var[...] = math.log(0.5)
        prev.flags.writeable = True
        net.body[0].split(prev)[1][1] = 0.2
        prev.flags.writeable = False
        hp = obj.Hyperparams(lam=100.0, k=0.0)
        x, y = np.array([[0.5]]), np.array([0])
        breakdown, _ = obj.evclplus_loss(net, (x, y), 0, prev, fisher, hp, 10,
                                         SeededRng(13), first_task=False)
        assert breakdown.var_penalty == 0.0

    def test_breakdown_invariant(self):
        net = one_param_net(mu=0.2, log_var=math.log(0.3))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        x, y = np.array([[0.5], [0.1]]), np.array([0, 1])
        breakdown, _ = obj.evclplus_loss(net, (x, y), 0, prev, fisher,
                                         obj.Hyperparams(), 20, SeededRng(14),
                                         first_task=False)
        recomputed = (breakdown.nll + breakdown.kl_weight * breakdown.kl
                      + breakdown.mean_penalty + breakdown.var_penalty)
        assert abs(breakdown.total - recomputed) < 1e-12

    def test_missing_fisher_after_first_task(self):
        net = one_param_net()
        with pytest.raises(ValueError):
            obj.evclplus_loss(net, (np.array([[0.5]]), np.array([0])), 0,
                              bm.snapshot(net), None, obj.Hyperparams(), 10,
                              SeededRng(0), first_task=False)


def logistic_net(w=0.0):
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[], head_dim=2,
                          single_head=True)
    net = bm.init_network(spec, SeededRng(0))
    net.heads[0].w_mu[...] = np.array([[0.0, w]])
    net.heads[0].b_mu[...] = 0.0
    return net


class TestEstimateFisher:
    def test_logistic_single_sample_exact(self):
        net = logistic_net(w=0.0)
        data = (np.array([[1.0]]), np.array([1]))
        fisher = obj.estimate_fisher_diag(net, data, 0, 1, SeededRng(15))
        # d/dw log p(y=1|x) = x * (1 - p) = 0.5, squared 0.25
        assert net.heads[0].split(fisher)[0][0, 1] == pytest.approx(0.25, rel=1e-12)

    def test_saturated_predictions_give_zero(self):
        net = logistic_net()
        net.heads[0].b_mu[...] = np.array([-800.0, 800.0])  # certain class 1
        data = (np.ones((5, 1)), np.ones(5, dtype=int))
        fisher = obj.estimate_fisher_diag(net, data, 0, 5, SeededRng(16))
        assert fisher.shape == (net.params.shape[1],)
        assert (fisher == 0).all()

    def test_invariant_under_data_shuffle(self):
        net = logistic_net(w=0.4)
        rng = SeededRng(17)
        x = rng.uniform(-2, 2, size=(50, 1))
        y = rng.integers(0, 2, size=50)
        f1 = obj.estimate_fisher_diag(net, (x, y), 0, 50, SeededRng(18))
        order = SeededRng(19).permutation(50)
        f2 = obj.estimate_fisher_diag(net, (x[order], y[order]), 0, 50,
                                      SeededRng(20))
        np.testing.assert_allclose(f1, f2, rtol=1e-10)

    def test_nonnegative_and_oversampling(self):
        net = logistic_net(w=0.4)
        x = np.array([[0.5], [-1.0]])
        y = np.array([0, 1])
        fisher = obj.estimate_fisher_diag(net, (x, y), 0, 10, SeededRng(21))
        assert (fisher >= 0).all()

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            obj.estimate_fisher_diag(logistic_net(), (np.zeros((0, 1)),
                                     np.zeros(0, dtype=int)), 0, 5, SeededRng(0))

    def test_body_fisher_shapes(self):
        spec = bm.NetworkSpec(input_dim=3, hidden_dims=[4], head_dim=2)
        net = bm.init_network(spec, SeededRng(22))
        rng = SeededRng(23)
        x = rng.uniform(0, 1, size=(20, 3))
        y = rng.integers(0, 2, size=20)
        bm.add_head(net, SeededRng(24))
        fisher = obj.estimate_fisher_diag(net, (x, y), 0, 20, rng)
        assert fisher.shape == (net.params.shape[1],)
        assert (fisher >= 0).all()
        assert (fisher[:net.body_cols] > 0).any()
        assert (fisher[net.heads[1].cols] == 0).all()  # not the estimated head


class TestEwcPenalty:
    def test_zero_at_anchors(self):
        net = one_param_net(mu=0.4)
        prev, fisher = one_param_anchor(net, 0.4, 1.0, 1.0)
        val, _ = ewc_grads(net, [(prev, fisher)], lam=100.0)
        assert val == 0.0

    def test_single_anchor_hand_value(self):
        net = one_param_net(mu=0.1)
        prev, fisher = one_param_anchor(net, 0.0, 1.0, 1.0)
        val, grads = ewc_grads(net, [(prev, fisher)], lam=100.0)
        assert val == pytest.approx(0.5, rel=1e-12)
        assert net.body[0].split(grads)[0][0, 0, 0] == pytest.approx(10.0, rel=1e-12)

    def test_two_identical_anchors_double(self):
        net = one_param_net(mu=0.1)
        prev, fisher = one_param_anchor(net, 0.0, 1.0, 1.0)
        one, one_grads = ewc_grads(net, [(prev, fisher)], lam=100.0)
        two, two_grads = ewc_grads(net, [(prev, fisher)] * 2, lam=100.0)
        assert two == pytest.approx(2 * one, rel=1e-15)
        np.testing.assert_array_equal(two_grads, 2 * one_grads)
