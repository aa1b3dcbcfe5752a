import numpy as np
import pytest

from evclplus import bayes_mlp as bm
from evclplus.numerics import SeededRng, batch_cross_entropy_with_grad, log_softmax, \
    pixel_floats
from evclplus.objectives import estimate_fisher_diag

FROZEN_SIGMA_OFF = -2000.0  # finite log_var whose exp underflows to exactly 0


def small_net(seed=0, spec=None):
    spec = spec or bm.NetworkSpec(input_dim=4, hidden_dims=[5], head_dim=3)
    return bm.init_network(spec, SeededRng(seed))


class TestInit:
    def test_parameter_count_mnist_arch(self):
        spec = bm.NetworkSpec(input_dim=784, hidden_dims=[100, 100], head_dim=10)
        net = bm.init_network(spec, SeededRng(0))
        assert net.params.shape == (2, 89_610)

    def test_log_var_init(self):
        net = small_net()
        for layer in net.body + net.heads:
            w_log_var, b_log_var = layer.split(net.params[1])
            assert (w_log_var == -6.0).all()
            assert (b_log_var == -6.0).all()

    def test_same_seed_identical(self):
        a, b = small_net(9), small_net(9)
        for la, lb in zip(a.body + a.heads, b.body + b.heads):
            np.testing.assert_array_equal(la.w_mu, lb.w_mu)
            np.testing.assert_array_equal(la.b_mu, lb.b_mu)

    def test_one_draw_matches_per_tensor_draws(self):
        # the values the per-tensor initializer drew: weight then bias, layer by layer
        spec = bm.NetworkSpec(input_dim=4, hidden_dims=[5], head_dim=3)
        r = SeededRng(8)
        net = bm.init_network(spec, r)
        bm.add_head(net, r)
        rng = SeededRng(8)
        for layer in net.body + net.heads:
            std = 1.0 / np.sqrt(layer.w_mu.shape[0])
            np.testing.assert_array_equal(layer.w_mu,
                                          rng.standard_normal(layer.w_mu.shape) * std)
            np.testing.assert_array_equal(layer.b_mu,
                                          rng.standard_normal(layer.b_mu.shape) * std)

    def test_fan_in_scaling(self):
        spec = bm.NetworkSpec(input_dim=400, hidden_dims=[300], head_dim=10)
        net = bm.init_network(spec, SeededRng(1))
        # std should be close to 1/sqrt(400) = 0.05 over 120k draws
        assert abs(net.body[0].w_mu.std() - 0.05) < 0.002

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            bm.NetworkSpec(input_dim=4, hidden_dims=[5], head_dim=1)
        with pytest.raises(ValueError):
            bm.NetworkSpec(input_dim=0, hidden_dims=[5], head_dim=2)

    # a width of 0 used to build -inf head biases; a bool is no width
    @pytest.mark.parametrize("hidden_dims", [[0], [-3], [2.5], [True], [4, 0]],
                             ids=["zero", "negative", "fractional", "bool", "second_layer"])
    def test_bad_hidden_width_named_with_its_index(self, hidden_dims):
        i = len(hidden_dims) - 1  # the last width is the bad one
        with pytest.raises(ValueError, match=rf"^hidden_dims\[{i}\] must be an integer "
                                             rf">= 1, got {hidden_dims[i]}$"):
            bm.NetworkSpec(input_dim=4, hidden_dims=hidden_dims, head_dim=2)


class TestSampleForward:
    def test_logit_shape(self):
        net = small_net()
        rng = SeededRng(1)
        logits, _ = bm.sample_forward(net, np.ones((7, 4)) * 0.5, 0, rng)
        assert logits.shape == (7, 3)
        with pytest.raises(ValueError, match=r"input shape \(4,\)"):
            bm.sample_forward(net, np.ones(4) * 0.5, 0, rng)

    def test_same_rng_state_same_logits(self):
        net = small_net()
        x = np.linspace(0, 1, 4)[None, :]
        a, _ = bm.sample_forward(net, x, 0, SeededRng(42))
        b, _ = bm.sample_forward(net, x, 0, SeededRng(42))
        np.testing.assert_array_equal(a, b)

    def test_zero_variance_equals_mean_forward(self):
        net = small_net()
        net.params[1] = FROZEN_SIGMA_OFF
        x = np.linspace(0, 1, 4)[None, :]
        sampled, _ = bm.sample_forward(net, x, 0, SeededRng(3))
        deterministic, _ = bm.sample_forward(net, x, 0, rng=None)
        np.testing.assert_array_equal(sampled, deterministic)

    def test_uint8_rows_give_the_bits_of_their_pixel_floats(self):
        # the network scales stored rows itself, so every caller that feeds
        # it pixels gets the bits of feeding it their pixel_floats
        net = small_net()
        pixels = SeededRng(4).integers(0, 256, size=(9, 4)).astype(np.uint8)
        labels = np.arange(9) % 3

        def outputs(x):
            logits, cache = bm.sample_forward(net, x, 0, SeededRng(0))
            return [logits, cache[0].inp, bm.sample_forward(net, x, 0, None)[0],
                    bm.posterior_predict(net, x, 0, 3, SeededRng(1)),
                    bm.posterior_predict(net, x, 0, 3, None),
                    estimate_fisher_diag(net, (x, labels), 0, 20, SeededRng(2))]

        for got, want in zip(outputs(pixels), outputs(pixel_floats(pixels))):
            np.testing.assert_array_equal(got, want)

    def test_head_out_of_range(self):
        with pytest.raises(ValueError, match="head"):
            bm.sample_forward(small_net(), np.zeros((1, 4)), 1, SeededRng(0))


class TestBackprop:
    def test_zero_dlogits_zero_grads(self):
        net = small_net()
        _, cache = bm.sample_forward(net, np.full((1, 4), 0.3), 0, SeededRng(0))
        grads = bm.backprop(net, cache, np.zeros((1, 3)))
        assert grads.shape == net.params.shape
        assert (grads == 0).all()

    def test_zero_eps_zero_log_var_grads(self):
        net = small_net()
        _, cache = bm.sample_forward(net, np.full((1, 4), 0.3), 0, rng=None)
        grads = bm.backprop(net, cache, np.array([[1.0, -2.0, 0.5]]))
        assert (grads[1] == 0).all()
        assert (grads[0, :net.body_cols] != 0).any()

    def test_relu_subgradient_is_zero_at_the_kink(self):
        # zero rows and first-layer biases put every hidden pre-activation at
        # exactly 0, where the relu passes no gradient down to the body
        net = bm.init_network(bm.NetworkSpec(3, [4], 2), SeededRng(4))
        net.body[0].b_mu[...] = 0.0
        logits, cache = bm.sample_forward(net, np.zeros((5, 3)), 0, rng=None)
        assert (cache[0].pre == 0).all()
        _, dlogits = batch_cross_entropy_with_grad(logits, np.array([0, 1, 1, 0, 1]))
        grads = bm.backprop(net, cache, dlogits)
        assert (grads[:, :net.body_cols] == 0).all()
        assert (grads[:, net.heads[0].cols] != 0).any()

    def test_unused_head_gets_zeros(self):
        spec = bm.NetworkSpec(input_dim=4, hidden_dims=[5], head_dim=3)
        net = bm.init_network(spec, SeededRng(0))
        bm.add_head(net, SeededRng(1))
        _, cache = bm.sample_forward(net, np.full((1, 4), 0.3), 1, SeededRng(2))
        grads = bm.backprop(net, cache, np.ones((1, 3)))
        assert (grads[:, net.heads[0].cols] == 0).all()
        assert (grads[:, net.heads[1].cols] != 0).any()

    def test_gradients_match_finite_differences(self):
        """Frozen-noise sampled loss on a 4->[5]->3 net, all coordinates."""
        from evclplus.verify import finite_diff_check

        net = small_net(11)
        rng_data = SeededRng(12)
        x = rng_data.uniform(0, 1, size=(6, 4))
        y = rng_data.integers(0, 3, size=6)

        def loss_at(vec):
            probe = bm.BayesMlp(net.spec, vec.reshape(net.params.shape))
            logits, _ = bm.sample_forward(probe, x, 0, SeededRng(99))
            loss, _ = batch_cross_entropy_with_grad(logits, y)
            return loss

        logits, cache = bm.sample_forward(net, x, 0, SeededRng(99))
        _, dlogits = batch_cross_entropy_with_grad(logits, y)
        grads = bm.backprop(net, cache, dlogits)
        report = finite_diff_check(loss_at, net.params.ravel(), grads.ravel())
        assert report.passed, report.worst_coordinates()

    def test_shape_chain_random_specs(self):
        rng = SeededRng(13)
        for _ in range(20):
            depth = int(rng.integers(0, 3))
            hidden = [int(rng.integers(1, 9)) for _ in range(depth)]
            spec = bm.NetworkSpec(input_dim=int(rng.integers(1, 7)),
                                  hidden_dims=hidden,
                                  head_dim=int(rng.integers(2, 6)))
            net = bm.init_network(spec, rng)
            batch = int(rng.integers(1, 5))
            x = rng.uniform(0, 1, size=(batch, spec.input_dim))
            logits, cache = bm.sample_forward(net, x, 0, rng)
            assert logits.shape == (batch, spec.head_dim)
            grads = bm.backprop(net, cache, np.ones_like(logits))
            assert grads.shape == net.params.shape
            for layer in net.body + net.heads:
                gw, gb = layer.split(grads)
                assert gw.shape == (2,) + layer.w_mu.shape
                assert gb.shape == (2,) + layer.b_mu.shape

    def test_mismatched_cache_rejected(self):
        net = small_net()
        _, cache = bm.sample_forward(net, np.zeros((1, 4)), 0, SeededRng(0))
        with pytest.raises(RuntimeError):
            bm.backprop(net, cache, np.zeros((2, 3)))


class TestPosteriorPredict:
    def test_single_sample_equals_softmax_forward(self):
        net = small_net()
        x = np.linspace(0, 1, 4)[None, :]
        probs = bm.posterior_predict(net, x, 0, 1, SeededRng(21))
        logits, _ = bm.sample_forward(net, x, 0, SeededRng(21))
        np.testing.assert_allclose(probs, np.exp(log_softmax(logits)), rtol=1e-15)

    def test_probabilities_sum_to_one(self):
        net = small_net()
        rng = SeededRng(22)
        x = rng.uniform(0, 1, size=(10, 4))
        probs = bm.posterior_predict(net, x, 0, 5, rng)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_variance_independent_of_sample_count(self):
        net = small_net()
        net.params[1] = FROZEN_SIGMA_OFF
        x = np.linspace(0, 1, 4)[None, :]
        one = bm.posterior_predict(net, x, 0, 1, SeededRng(0))
        many = bm.posterior_predict(net, x, 0, 25, SeededRng(1))
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-15)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            bm.posterior_predict(small_net(), np.zeros((1, 4)), 0, 0, SeededRng(0))


class TestHeads:
    def test_add_head_isolates_existing_parameters(self):
        net = small_net()
        before = net.params.copy()
        idx = bm.add_head(net, SeededRng(5))
        assert idx == 1 and net.n_heads == 2
        np.testing.assert_array_equal(net.params[:, :before.shape[1]], before)
        assert net.heads[1].cols == slice(before.shape[1], net.params.shape[1])
        assert (net.heads[1].split(net.params[1])[0] == -6.0).all()
        # the views are rebuilt over the grown buffer
        for layer in net.body + net.heads:
            assert np.shares_memory(layer.w_mu, net.params)


class TestSnapshot:
    def test_snapshot_survives_mutation(self):
        net = small_net()
        snap = bm.snapshot(net)
        saved = snap.copy()
        net.body[0].w_mu += 1.0
        np.testing.assert_array_equal(snap, saved)

    def test_snapshot_variance_value(self):
        net = small_net()
        snap = bm.snapshot(net)
        np.testing.assert_array_equal(snap[0], net.params[0])
        np.testing.assert_allclose(snap[1], np.exp(-6.0), rtol=1e-12)
        w, _ = net.body[0].split(snap)
        assert abs(w[1, 0, 0] - 2.479e-3) < 1e-5

    def test_snapshot_is_readonly(self):
        snap = bm.snapshot(small_net())
        with pytest.raises(ValueError):
            snap[0, 0] = 5.0


class TestFlatParams:
    """Every layer name is a view into the network's one (2, P) buffer."""

    def test_round_trip(self):
        net = small_net(41)
        other = small_net(42)
        other.params[...] = net.params
        for a, b in zip(net.body + net.heads, other.body + other.heads):
            for name in ("w_mu", "b_mu"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            for va, vb in zip(a.split(net.params[1]), b.split(other.params[1])):
                np.testing.assert_array_equal(va, vb)
        # column order: each layer's weight (row-major), then its bias
        layer = net.body[0]
        np.testing.assert_array_equal(net.params[0, layer.cols],
                                      np.concatenate([layer.w_mu.ravel(), layer.b_mu]))
        w_log_var, b_log_var = layer.split(net.params[1])
        np.testing.assert_array_equal(net.params[1, layer.cols],
                                      np.concatenate([w_log_var.ravel(), b_log_var]))
        assert net.body_cols == layer.cols.stop
        assert net.heads[0].cols == slice(net.body_cols,
                                          net.body_cols + net.head_cols)

    def test_length_check(self):
        net = small_net()
        with pytest.raises(ValueError):
            bm.BayesMlp(net.spec, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            bm.BayesMlp(net.spec, np.zeros((2, net.params.shape[1] + 1)))
