import dataclasses
import math

import numpy as np
import pytest
from conftest import traced_peak

from evclplus import bayes_mlp as bm
from evclplus import continual as cl
from evclplus import objectives as obj
from evclplus.numerics import BLOCK, SeededRng, batch_cross_entropy_with_grad, relu
from evclplus.verify import finite_diff_check

FROZEN_SIGMA_OFF = -2000.0


def one_param_net(mu=0.0, log_var=-6.0):
    """input 1 -> hidden 1 -> head 2; the single body weight is the probe."""
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[1], head_dim=2)
    net = bm.init_network(spec, SeededRng(0))
    net.body[0].w_mu[...] = mu
    net.body[0].split(net.params[1])[0][...] = log_var
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


def anchor_of(net, prev, fisher, lam, k=5.0, symmetric=False):
    return obj.task_anchor(net, prev, fisher, lam, k, symmetric=symmetric)


def mean_grads(net, prev, fisher, lam):
    """mean_penalty's value and the (2, P) gradient buffer it added into."""
    grads = np.zeros_like(net.params)
    anchor = anchor_of(net, prev, fisher, lam)
    return obj.mean_penalty(net, [anchor], grads[0, :net.body_cols]), grads


def var_grads(net, prev, fisher, lam, k, symmetric=False):
    """The body pass's variance-anchor value and the (2, P) gradient buffer
    whose log-variance row it added into, the KL weighted 0 (the mean
    anchor's gradient goes elsewhere)."""
    grads = np.zeros_like(net.params)
    anchor = anchor_of(net, prev, fisher, lam, k, symmetric)
    body = slice(0, net.body_cols)
    _, _, val = obj._pass(net.params, [(body, [anchor])], np.zeros(net.body_cols),
                          grads[1], kl_weight=0.0)
    return val, grads


def ewc_grads(net, anchors, lam):
    """Deterministic batch_loss over (snapshot, fisher) anchors: the mean
    penalty and the gradient the anchors added to the cross-entropy's.  The
    batch's input is 0, so the body weights' cross-entropy gradient is 0."""
    batch = (np.zeros((1, net.spec.input_dim)), np.array([0]))
    built = [anchor_of(net, prev, fisher, lam) for prev, fisher in anchors]
    breakdown, grads = obj.batch_loss(net, batch, 0, built, 1, None)
    _, bare = obj.batch_loss(net, batch, 0, [], 1, None)
    assert breakdown.kl == breakdown.var_penalty == 0.0
    assert breakdown.total == breakdown.nll + breakdown.mean_penalty
    return breakdown.mean_penalty, grads - bare


def loss(net, batch, prev, dataset_size, rng, fisher=None, lam=100.0, k=5.0,
         symmetric=False):
    """batch_loss under the anchor of prev (and fisher, lam, k)."""
    anchor = obj.task_anchor(net, prev, fisher, lam, k, symmetric=symmetric)
    return obj.batch_loss(net, batch, 0, [anchor], dataset_size, rng)


class TestKlDiagGauss:
    @pytest.mark.parametrize("mu, log_var, prior_mu, prior_var, kl, d_mu, d_log_var", [
        ([0.3, -1.2], [-0.5, 0.8], [0.3, -1.2], np.exp([-0.5, 0.8]), 0.0, [0, 0], [0, 0]),
        ([1.0], [0.0], [0.0], [1.0], 0.5, [1.0], [0.0]),
        # 0.5 * (log(1/4) + 4 - 1) = 0.80685..., within 1e-4 of 0.8069
        ([0.0], [math.log(4.0)], [0.0], [1.0], 0.5 * (math.log(1 / 4) + 4 - 1),
         [0.0], [1.5]),
    ], ids=["identical", "unit_shift", "wide_posterior"])
    def test_hand_values_and_gradients(self, mu, log_var, prior_mu, prior_var, kl, d_mu,
                                       d_log_var):
        # d_mu = (mu - prior_mu) / prior_var, d_log_var = (var / prior_var - 1) / 2
        got, got_d_mu, got_d_lv = obj.kl_diag_gauss(*map(np.array, (mu, log_var, prior_mu,
                                                                   prior_var)))
        assert got == pytest.approx(kl, abs=1e-12)
        np.testing.assert_allclose(got_d_mu, d_mu, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got_d_lv, d_log_var, rtol=0, atol=1e-15)

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
    """batch_loss with a KL target and no anchors: the ELBO."""

    def test_total_is_nll_when_posterior_equals_prior(self):
        net = one_param_net()
        net.heads[0].w_mu[...] = 0.0
        net.heads[0].b_mu[...] = 0.0
        w_log_var, b_log_var = net.heads[0].split(net.params[1])
        w_log_var[...] = 0.0  # head prior is the unit Gaussian
        b_log_var[...] = 0.0
        prior = bm.snapshot(net)
        x = np.array([[0.5], [0.8]])
        y = np.array([0, 1])
        breakdown, _ = loss(net, (x, y), prior, 100, SeededRng(4))
        assert breakdown.kl == pytest.approx(0.0, abs=1e-12)
        assert breakdown.total == breakdown.nll

    def test_zero_variance_linear_net_matches_hand_logits(self):
        spec = bm.NetworkSpec(input_dim=2, hidden_dims=[], head_dim=2)
        net = bm.init_network(spec, SeededRng(5))
        head = net.heads[0]
        head.w_mu[...] = np.array([[1.0, -1.0], [0.5, 2.0]])
        head.b_mu[...] = np.array([0.1, -0.2])
        w_log_var, b_log_var = head.split(net.params[1])
        w_log_var[...] = FROZEN_SIGMA_OFF
        b_log_var[...] = FROZEN_SIGMA_OFF
        x = np.array([[0.3, 0.7]])
        y = np.array([1])
        prior = bm.snapshot(net)
        breakdown, _ = loss(net, (x, y), prior, 10, SeededRng(6))
        hand_logits = x[0] @ head.w_mu + head.b_mu
        hand_loss, _ = batch_cross_entropy_with_grad(hand_logits[None, :], [1])
        assert abs(breakdown.nll - hand_loss) < 1e-12

    def test_doubling_dataset_size_halves_kl_term(self):
        net = one_param_net(mu=0.7)
        prior = None  # N(0, 1), the first task's prior
        x = np.array([[0.5]])
        y = np.array([0])
        b1, _ = loss(net, (x, y), prior, 100, SeededRng(7))
        b2, _ = loss(net, (x, y), prior, 200, SeededRng(7))
        assert b1.kl == b2.kl
        assert b2.kl_weight * b2.kl == pytest.approx(0.5 * b1.kl_weight * b1.kl,
                                                     rel=1e-15)

    def test_empty_batch_rejected(self):
        net = one_param_net()
        with pytest.raises(ValueError):
            loss(net, (np.zeros((0, 1)), np.zeros(0, dtype=int)), bm.snapshot(net), 10,
                 SeededRng(0))


def one_param_grads(net, d_mu=0.0, d_log_var=0.0):
    """A (2, P) gradient buffer that is 0 but at the body weight."""
    grads = np.zeros_like(net.params)
    net.body[0].split(grads)[0][:, 0, 0] = d_mu, d_log_var
    return grads


@pytest.mark.parametrize("penalty", [
    mean_grads, lambda net, prev, fisher, lam: ewc_grads(net, [(prev, fisher)], lam),
], ids=["mean_penalty", "ewc"])
@pytest.mark.parametrize("mu, prev_mu, fisher_w, lam, value, d_mu", [
    (0.4, 0.4, 1.0, 100.0, 0.0, 0.0),
    # (lam/2) F (mu - prev)^2 = 50 * 0.01 = 0.5, its gradient lam F (mu - prev) = 10
    (0.1, 0.0, 1.0, 100.0, 0.5, 10.0),
    (3.0, 0.0, 5.0, 0.0, 0.0, 0.0),
], ids=["at_anchor", "hand_value", "lambda_zero"])
def test_mean_anchor_hand_value_and_gradient(penalty, mu, prev_mu, fisher_w, lam, value,
                                             d_mu):
    """mean_penalty and EWC's batch_loss give one value and weight gradient
    on one body weight, every other gradient 0."""
    net = one_param_net(mu=mu)
    prev, fisher = one_param_anchor(net, prev_mu, 1.0, fisher_w)
    val, grads = penalty(net, prev, fisher, lam)
    assert val == pytest.approx(value, rel=1e-12, abs=0)
    np.testing.assert_allclose(grads, one_param_grads(net, d_mu), rtol=1e-12, atol=0)


class TestAsymVarPenalty:
    @pytest.mark.parametrize("var, prev_var, symmetric, value, d_log_var", [
        # bias variances also tie: prev carries exp(net's own log_var)
        (0.2, 0.2, False, 0.0, 0.0),
        # shrinking: (lam/2) F (var - prev)^2 = 50*2*0.01 = 1,
        # d/dlog_var = lam F (var - prev) var = 100*2*(-0.1)*0.1 = -2
        (0.1, 0.2, False, 1.0, -2.0),
        # growing: (lam/2) k F var = 50*5*2*0.3 = 150, and so is d/dlog_var
        (0.3, 0.2, False, 150.0, 150.0),
        # symmetric growth is quadratic too: 1, and 100*2*0.1*0.3 = 6
        (0.3, 0.2, True, 1.0, 6.0),
    ], ids=["tie", "decreasing", "increasing", "symmetric"])
    def test_hand_value_and_gradient(self, var, prev_var, symmetric, value, d_log_var):
        net = one_param_net(log_var=math.log(var))
        prev, fisher = one_param_anchor(net, 0.0, prev_var, 2.0)
        val, grads = var_grads(net, prev, fisher, lam=100.0, k=5.0, symmetric=symmetric)
        assert val == pytest.approx(value, rel=1e-12, abs=0)
        np.testing.assert_allclose(grads, one_param_grads(net, d_log_var=d_log_var),
                                   rtol=1e-12, atol=0)

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
    """batch_loss with both anchors: the EVCL+ objective."""

    def test_first_task_has_zero_penalties(self):
        net = one_param_net(mu=0.3)
        prior = None  # N(0, 1), the first task's prior
        x, y = np.array([[0.5]]), np.array([0])
        breakdown, _ = loss(net, (x, y), prior, 10, SeededRng(11))
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
            full, _ = loss(net, (x, y), prev, 40, SeededRng(100 + trial), fisher,
                           lam=0.0, k=5.0)
            plain, _ = loss(net, (x, y), prev, 40, SeededRng(100 + trial))
            assert abs(full.total - plain.total) < 1e-12

    def test_k_zero_and_growing_variance_gives_zero_var_penalty(self):
        net = one_param_net(log_var=math.log(0.5))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        # push every body variance above its anchor, including the bias
        net.body[0].split(net.params[1])[1][...] = math.log(0.5)
        prev.flags.writeable = True
        net.body[0].split(prev)[1][1] = 0.2
        prev.flags.writeable = False
        x, y = np.array([[0.5]]), np.array([0])
        breakdown, _ = loss(net, (x, y), prev, 10, SeededRng(13), fisher, lam=100.0,
                            k=0.0)
        assert breakdown.var_penalty == 0.0

    def test_breakdown_invariant(self):
        net = one_param_net(mu=0.2, log_var=math.log(0.3))
        prev, fisher = one_param_anchor(net, 0.0, 0.2, 2.0)
        x, y = np.array([[0.5], [0.1]]), np.array([0, 1])
        breakdown, _ = loss(net, (x, y), prev, 20, SeededRng(14), fisher)
        recomputed = (breakdown.nll + breakdown.kl_weight * breakdown.kl
                      + breakdown.mean_penalty + breakdown.var_penalty)
        assert abs(breakdown.total - recomputed) < 1e-12


def logistic_net(w=0.0):
    spec = bm.NetworkSpec(input_dim=1, hidden_dims=[], head_dim=2)
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
        x, y = rng.uniform(-2, 2, size=(50, 1)), rng.integers(0, 2, size=50)
        f1 = obj.estimate_fisher_diag(net, (x, y), 0, 50, SeededRng(18))
        order = SeededRng(19).permutation(50)
        f2 = obj.estimate_fisher_diag(net, (x[order], y[order]), 0, 50,
                                      SeededRng(20))
        np.testing.assert_allclose(f1, f2, rtol=1e-10)

    def test_nonnegative_and_oversampling(self):
        net = logistic_net(w=0.4)
        x, y = np.array([[0.5], [-1.0]]), np.array([0, 1])
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
        x, y = rng.uniform(0, 1, size=(20, 3)), rng.integers(0, 2, size=20)
        bm.add_head(net, SeededRng(24))
        fisher = obj.estimate_fisher_diag(net, (x, y), 0, 20, rng)
        assert fisher.shape == (net.params.shape[1],)
        assert (fisher >= 0).all()
        assert (fisher[:net.body_cols] > 0).any()
        assert (fisher[net.heads[1].cols] == 0).all()  # not the estimated head

    def test_peak_memory_holds_one_chunk_of_rows(self):
        # 784-wide uint8 rows: gathering every drawn row at once would add
        # 784 bytes per sample, 13% more at 8 chunks than at 2
        net = bm.init_network(bm.NetworkSpec(784, [256, 256], 2), SeededRng(25))
        rng = SeededRng(26)
        data = (rng.integers(0, 256, size=(10000, 784)).astype(np.uint8),
                rng.integers(0, 2, size=10000))
        two, eight = (traced_peak(lambda: obj.estimate_fisher_diag(
            net, data, 0, chunks * obj.FISHER_CHUNK, SeededRng(27)))[1]
            for chunks in (2, 8))
        assert eight < 1.02 * two


class TestEwcPenalty:
    def test_two_identical_anchors_double(self):
        net = one_param_net(mu=0.1)
        prev, fisher = one_param_anchor(net, 0.0, 1.0, 1.0)
        one, one_grads = ewc_grads(net, [(prev, fisher)], lam=100.0)
        two, two_grads = ewc_grads(net, [(prev, fisher)] * 2, lam=100.0)
        assert two == pytest.approx(2 * one, rel=1e-15)
        np.testing.assert_array_equal(two_grads, 2 * one_grads)

    def test_no_anchors_is_exactly_the_cross_entropy(self):
        net = bm.init_network(bm.NetworkSpec(input_dim=3, hidden_dims=[4], head_dim=2),
                              SeededRng(25))
        rng = SeededRng(26)
        x, y = rng.uniform(-1, 1, size=(5, 3)), rng.integers(0, 2, size=5)
        breakdown, grads = obj.batch_loss(net, (x, y), 0, [], 50, None)
        logits, cache = bm.sample_forward(net, x, 0, None)
        nll, dlogits = batch_cross_entropy_with_grad(logits, y)
        assert breakdown == obj.LossBreakdown(nll, 0.0, 0.0, 0.0, 0.0)
        assert breakdown.total == nll
        assert_same_bits(grads, bm.backprop(net, cache, dlogits))
        assert (grads[1] == 0).all()


# ---------------------------------------------------------------------------
# Per-term reference: the separate KL, mean-anchor and variance-anchor passes
# and the backward pass that recomputed exp(0.5 * log_var), kept as they were
# before the fused body pass, which must match them bit for bit.


def reference_kl_diag_gauss(mu, log_var, prior_mu, prior_var):
    var = np.exp(log_var)
    diff = mu - prior_mu
    kl = 0.5 * np.sum(np.log(prior_var) - log_var + (var + diff**2) / prior_var - 1.0)
    return float(kl), diff / prior_var, 0.5 * (var / prior_var - 1.0)


def body_blocks(net):
    n = net.body_cols
    return [slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def reference_network_kl(net, prior, head, grads, weight):
    mu, log_var = net.params
    h = net.heads[head].cols
    terms = [(s, prior[0, s], prior[1, s]) for s in body_blocks(net)]
    terms.append((h, np.zeros_like(mu[h]), np.ones_like(mu[h])))
    kl_total = 0.0
    for s, prior_mu, prior_var in terms:
        kl, d_mu, d_log_var = reference_kl_diag_gauss(mu[s], log_var[s], prior_mu,
                                                      prior_var)
        kl_total += kl
        g_mu, g_log_var = grads[:, s]
        g_mu += weight * d_mu
        g_log_var += weight * d_log_var
    return kl_total


def reference_mean_penalty(net, prev, fisher, lam, d_mu):
    total = 0.0
    for s in body_blocks(net):
        fv = fisher[s]
        diff = net.params[0, s] - prev[0, s]
        total += 0.5 * lam * np.sum(fv * diff**2)
        out = d_mu[s]
        out += lam * fv * diff
    return float(total)


def reference_asym_var_penalty(net, prev, fisher, lam, k, d_log_var, symmetric):
    total = 0.0
    for s in body_blocks(net):
        fv, pv = fisher[s], prev[1, s]
        var = np.exp(net.params[1, s])
        out = d_log_var[s]
        dec = var <= pv
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


def reference_log_var_grad(out, d_theta, eps, log_var):
    np.multiply(d_theta, eps, out=out)
    out *= 0.5
    out *= np.exp(0.5 * log_var)


def reference_nll_grads(net, x, y, head, rng):
    """One sampled forward and backward pass, exp(0.5 * log_var) taken twice."""
    noise = rng.standard_normal(net.body_cols + net.head_cols)
    layers = net.body + [net.heads[head]]
    caches, lo, act = [], 0, x
    for i, layer in enumerate(layers):
        nw, n = layer.w_mu.size, layer.cols.stop - layer.cols.start
        eps_w, eps_b = noise[lo:lo + nw].reshape(layer.w_mu.shape), noise[lo + nw:lo + n]
        lo += n
        w_log_var, b_log_var = layer.split(net.params[1])
        theta_w = layer.w_mu + np.exp(0.5 * w_log_var) * eps_w
        theta_b = layer.b_mu + np.exp(0.5 * b_log_var) * eps_b
        pre = act @ theta_w + theta_b
        caches.append((act, eps_w, eps_b, theta_w, pre))
        if i < len(net.body):
            act = relu(pre)
    loss, dpre = batch_cross_entropy_with_grad(pre, y)
    grads = np.zeros_like(net.params)
    for i in reversed(range(len(layers))):
        layer, (act, eps_w, eps_b, theta_w, _) = layers[i], caches[i]
        (gw_mu, gw_log_var), (gb_mu, gb_log_var) = layer.split(grads)
        np.matmul(act.T, dpre, out=gw_mu)
        gb_mu[...] = dpre.sum(axis=0)
        w_log_var, b_log_var = layer.split(net.params[1])
        reference_log_var_grad(gw_log_var, gw_mu, eps_w, w_log_var)
        reference_log_var_grad(gb_log_var, gb_mu, eps_b, b_log_var)
        if i > 0:
            dpre = (dpre @ theta_w.T) * (caches[i - 1][4] > 0)
    return loss, grads


def reference_loss(net, x, y, head, prior, fisher, lam, k, dataset_size, rng,
                   symmetric=False):
    """(nll, kl, mean, var) and the (2, P) gradient, summed term by term."""
    nll, grads = reference_nll_grads(net, x, y, head, rng)
    kl = reference_network_kl(net, prior, head, grads, 1.0 / dataset_size)
    mp = vp = 0.0
    if fisher is not None:
        body = slice(0, net.body_cols)
        mp = reference_mean_penalty(net, prior, fisher, lam, grads[0, body])
        vp = reference_asym_var_penalty(net, prior, fisher, lam, k, grads[1, body],
                                        symmetric)
    return (nll, kl, mp, vp), grads


# 81568 body columns: two whole BLOCKs and a ragged tail
WIDE_SPEC = bm.NetworkSpec(input_dim=784, hidden_dims=[96, 64], head_dim=2)


def wide_setup(ties=False):
    """A net whose log-variances moved both ways from a snapshot, a Fisher
    vector with exact zeros, and a batch; ties=True leaves every other
    body variance exactly at its snapshot value."""
    rng = SeededRng(40)
    net = bm.init_network(WIDE_SPEC, rng)
    net.params[0] += 0.05 * rng.standard_normal(net.params.shape[1])
    net.params[1] += rng.uniform(-0.5, 0.5, size=net.params.shape[1])
    prev = bm.snapshot(net).copy()
    shift = np.exp(rng.uniform(-0.3, 0.3, size=net.params.shape[1]))
    if ties:
        shift[::2] = 1.0
    prev[1] *= shift
    prev[0] += 0.01 * rng.standard_normal(net.params.shape[1])
    prev.flags.writeable = False
    fisher = body_fisher(net, rng, 0.0, 2e-3)
    fisher[:net.body_cols:7] = 0.0
    x = rng.uniform(0, 1, size=(32, 784))
    y = rng.integers(0, 2, size=32)
    return net, prev, fisher, (x, y)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFusedPassMatchesReference:
    def test_wide_net_spans_two_blocks_and_a_tail(self):
        net, _, _, _ = wide_setup()
        assert net.body_cols > 2 * BLOCK and net.body_cols % BLOCK

    @pytest.mark.parametrize("case", ["first_task", "asymmetric", "symmetric", "ties",
                                      "elbo"])
    def test_gradient_bits_and_values(self, case):
        net, prev, fisher, (x, y) = wide_setup(ties=case == "ties")
        symmetric = case == "symmetric"
        if case == "first_task":
            prev, fisher = None, None
        if case == "elbo":
            fisher = None
        got, grads = loss(net, (x, y), prev, 600, SeededRng(41), fisher, 100.0, 5.0,
                          symmetric)
        want, want_grads = reference_loss(net, x, y, 0, obj.UNIT.snap if prev is None
                                          else prev, fisher, 100.0, 5.0, 600,
                                          SeededRng(41), symmetric)
        assert_same_bits(grads, want_grads)
        values = (got.nll, got.kl, got.mean_penalty, got.var_penalty)
        assert values == pytest.approx(want, rel=1e-9, abs=1e-12)
        if fisher is not None:
            assert got.mean_penalty > 0 and got.var_penalty > 0

    def test_sampled_pass_over_two_anchors_adds_each_anchors_terms(self):
        # each anchor of a list adds its own KL and both anchors
        net, prev, fisher, _ = wide_setup()
        _, prev2, fisher2, _ = wide_setup(ties=True)
        first = obj.task_anchor(net, prev, fisher, 100.0, 5.0)
        second = obj.task_anchor(net, prev2, fisher2, 30.0, 2.0, symmetric=True)
        body = slice(0, net.body_cols)

        def body_pass(anchors):
            grads = np.zeros((2, net.body_cols))
            return obj._pass(net.params, [(body, anchors)], *grads, 0.5), grads

        both, grads = body_pass([first, second])
        (one, one_grads), (two, two_grads) = body_pass([first]), body_pass([second])
        np.testing.assert_allclose(both, one + two, rtol=1e-12)
        np.testing.assert_allclose(grads, one_grads + two_grads, rtol=1e-12)

    def test_deterministic_pass_over_three_anchors_sums_their_mean_gradients_first(self):
        # EWC's step: three distinct snapshots and Fishers, each with exact
        # zeros; the slice's mean gradients are summed among themselves, in
        # list order, before one add into the cross-entropy's gradient
        net, prev, _, batch = wide_setup()
        rng, terms = SeededRng(45), []
        for i, lam in enumerate([100.0, 30.0, 7.0]):
            snap = prev.copy()
            snap[0] += 0.02 * rng.standard_normal(net.params.shape[1])
            fisher = body_fisher(net, rng, 0.0, 2e-3 * (i + 1))
            fisher[i:net.body_cols:i + 5] = 0.0
            terms.append((snap, fisher, lam))
        anchors = [obj.TaskAnchor(p, lam_f=lam * f[:net.body_cols]) for p, f, lam in terms]
        got, grads = obj.batch_loss(net, batch, 0, anchors, 600, None)
        _, want = obj.batch_loss(net, batch, 0, [], 600, None)
        means, values = [], []
        for p, f, lam in terms:
            d_mu = np.zeros(net.body_cols)
            values.append(reference_mean_penalty(net, p, f, lam, d_mu))
            means.append(d_mu)
        want[0, :net.body_cols] += (means[0] + means[1]) + means[2]
        assert_same_bits(grads, want)
        assert got.mean_penalty == pytest.approx(sum(values), rel=1e-12)
        assert len(set(values)) == 3 and min(values) > 0

    def test_one_pass_over_body_and_head_matches_a_pass_each(self):
        # a sampled step's segments in one walk: the head's block joins the
        # running total after the body's, as a second call's total would
        net, prev, fisher, _ = wide_setup()
        body = [(slice(0, net.body_cols), [obj.task_anchor(net, prev, fisher, 100.0, 5.0)])]
        head = [(net.heads[0].cols, [obj.UNIT])]
        grads, each_grads = np.zeros_like(net.params), np.zeros_like(net.params)
        both = obj._pass(net.params, body + head, *grads, 0.5)
        each = obj._pass(net.params, body, *each_grads, 0.5)
        each += obj._pass(net.params, head, *each_grads, 0.5)
        assert_same_bits(grads, each_grads)
        assert both.tolist() == each.tolist()
        assert both[0] > 0 and both[1] > 0 and both[2] > 0

    def test_the_kl_log_term_feeds_no_gradient(self):
        # log(var_prev) enters only the reported kl: adding 1 to it on every
        # body column moves kl by body_cols / 2 and no gradient bit
        net, prev, fisher, batch = wide_setup()
        anchor = obj.task_anchor(net, prev, fisher, 100.0, 5.0)
        shifted = dataclasses.replace(anchor, log_var=anchor.log_var + 1.0)
        got, grads = obj.batch_loss(net, batch, 0, [anchor], 600, SeededRng(43))
        moved, moved_grads = obj.batch_loss(net, batch, 0, [shifted], 600,
                                            SeededRng(43))
        assert_same_bits(grads, moved_grads)
        assert moved.kl - got.kl == pytest.approx(0.5 * net.body_cols, rel=1e-9)

    def test_parameters_after_five_adam_steps(self):
        net, prev, fisher, (x, y) = wide_setup()
        ref_net = bm.clone_network(net)
        anchor = obj.task_anchor(net, prev, fisher, 100.0, 5.0)
        adam, ref_adam = cl.init_adam(net), cl.init_adam(ref_net)
        rng, ref_rng = SeededRng(42), SeededRng(42)
        for _ in range(5):
            _, grads = obj.batch_loss(net, (x, y), 0, [anchor], 600, rng)
            cl.adam_step(adam, net, grads, 1e-2)
            _, ref_grads = reference_loss(ref_net, x, y, 0, prev, fisher, 100.0, 5.0,
                                          600, ref_rng)
            cl.adam_step(ref_adam, ref_net, ref_grads, 1e-2)
        assert_same_bits(net.params, ref_net.params)


def test_anchored_loss_peak_memory():
    """One anchored call, its anchor built before the call as in training: the
    first layer's weights are not cached and the pass's temporaries are
    BLOCK-sized (3.49x at the per-term passes, 3.12x here)."""
    rng = SeededRng(43)
    net = bm.init_network(bm.NetworkSpec(784, [256, 256], 2), rng)
    prev_net = bm.clone_network(net)
    prev_net.params[1] += rng.uniform(-0.3, 0.3, size=net.params.shape[1])
    prev = bm.snapshot(prev_net)
    fisher = body_fisher(net, rng, 0.0, 1e-3)
    x = rng.uniform(0, 1, size=(256, 784))
    y = rng.integers(0, 2, size=256)
    anchor = obj.task_anchor(net, prev, fisher, 100.0, 5.0)
    _, peak = traced_peak(lambda: obj.batch_loss(net, (x, y), 0, [anchor], 1200,
                                                 SeededRng(44)))
    assert peak < 3.25 * net.params.nbytes


class TestTaskAnchor:
    @pytest.mark.parametrize("layer, part, index, name", [
        (1, "b", (2,), r"body 1 bias \[2\]"),
        (0, "w", (1, 2), r"body 0 weight \[6\]"),  # row 1 of 4 columns, column 2
    ])
    def test_underflowed_prior_variance_is_named(self, layer, part, index, name):
        net = bm.init_network(bm.NetworkSpec(5, [4, 3], 2), SeededRng(45))
        net.body[layer].split(net.params[1])["wb".index(part)][index] = -800.0
        snap = bm.snapshot(net)  # exp(-800) underflows to 0
        x, y = np.zeros((1, 5)), np.array([0])
        with pytest.raises(RuntimeError, match=f"prior variance 0.0 of {name} is not"):
            obj.task_anchor(net, snap)
        with pytest.raises(RuntimeError, match=name):
            loss(net, (x, y), snap, 10, SeededRng(46))

    def test_constants_are_computed_once(self):
        net, prev, fisher, _ = wide_setup()
        body = slice(0, net.body_cols)
        anchor = obj.task_anchor(net, prev, fisher, 30.0, 4.0)
        assert_same_bits(anchor.log_var, np.log(prev[1, body]))
        assert_same_bits(anchor.lam_f, 30.0 * fisher[body])
        assert_same_bits(anchor.grow_f, (0.5 * 30.0 * 4.0) * fisher[body])
        assert obj.task_anchor(net, prev, fisher, 30.0, 4.0,
                               symmetric=True).grow_f is None
        first = obj.task_anchor(net, prev)
        assert first.lam_f is None

    def test_no_snapshot_is_the_one_shared_unit_anchor(self):
        unit = obj.task_anchor(one_param_net(), None)
        assert unit is obj.UNIT and unit.lam_f is None and unit.grow_f is None
        np.testing.assert_array_equal(unit.snap[:, 7:10], [[0.0] * 3, [1.0] * 3])
        assert not unit.snap.flags.writeable and not unit.log_var.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            unit.lam_f = np.ones(3)

    @pytest.mark.parametrize("kwargs, missing", [
        ({}, "lam"), ({"k": 5.0}, "lam"), ({"lam": 100.0}, "k"),
        ({"symmetric": True}, "lam"),
    ])
    def test_fisher_without_lam_or_k_names_the_argument(self, kwargs, missing):
        net = one_param_net()
        fisher = np.ones(net.params.shape[1])
        with pytest.raises(ValueError, match=f"^{missing} is required with a fisher$"):
            obj.task_anchor(net, bm.snapshot(net), fisher, **kwargs)

    def test_symmetric_anchor_needs_no_k(self):
        net = one_param_net()
        anchor = obj.task_anchor(net, bm.snapshot(net), np.ones(net.params.shape[1]),
                                 lam=100.0, symmetric=True)
        assert anchor.lam_f is not None and anchor.grow_f is None

    def test_fisher_shorter_than_body_rejected(self):
        net = one_param_net()
        with pytest.raises(RuntimeError, match="fisher does not cover every body"):
            obj.task_anchor(net, bm.snapshot(net), np.ones(net.body_cols - 1),
                            100.0, 5.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda net: obj.task_anchor(net, bm.snapshot(net)[:, :net.body_cols - 1]),
     RuntimeError, r"^prior snapshot width 1 is less than the network's body_cols 2$"),
    (lambda net: obj.kl_diag_gauss(np.zeros(3), np.zeros(3), np.zeros(2), np.ones(2)),
     RuntimeError, r"^kl_diag_gauss shape mismatch: \(mu, log_var\) stacks to "
                   r"\(2, 3\), \(prior_mu, prior_var\) to \(2, 2\)$"),
    (lambda net: obj.kl_diag_gauss(np.zeros(3), np.zeros(2), np.zeros(3), np.ones(3)),
     RuntimeError, r"^kl_diag_gauss shape mismatch: mu \(3,\), log_var \(2,\)$"),
    (lambda net: obj.batch_loss(net, (np.zeros((4, 1)), [0, 1, 0, 1]), 0, [], 3,
                                SeededRng(0)),
     ValueError, r"^dataset_size smaller than the batch$"),
    (lambda net: obj.estimate_fisher_diag(net, (np.zeros((4, 1)), [0, 1, 0, 1]), 0, 0,
                                          SeededRng(0)),
     ValueError, r"^n_samples must be >= 1$"),
], ids=["narrow_snapshot", "kl_shapes", "kl_pair_shapes", "dataset_below_batch",
        "no_fisher_samples"])
def test_bad_input_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call(one_param_net())
