import math

import numpy as np
import pytest

from ipvae.nn import AdamState, Mlp, adam_step
from ipvae.vae import VaeModel


def random_layers(dims, rng):
    """(W, b) pairs chaining dims[0] -> dims[1] -> ... with random biases."""
    return [(rng.uniform(-1, 1, (out, inp)), rng.normal(0, 0.5, out))
            for inp, out in zip(dims, dims[1:])]


def finite_difference_grads(net, x, upstream_weights, h=1e-5):
    """Independent oracle: central differences of L = sum(w * net(x))."""
    grads = []
    for p in (p for pair in net.layers for p in pair):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = float(np.sum(upstream_weights * net.forward(x)))
            p[idx] = orig - h
            lm = float(np.sum(upstream_weights * net.forward(x)))
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


class TestForward:
    def test_identity_map(self):
        net = Mlp([(np.eye(4), np.zeros(4))], linear_output=True)
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        assert np.array_equal(net.forward(x), x)

    def test_zero_weights_tanh(self):
        net = Mlp([(np.zeros((3, 5)), np.zeros(3))], linear_output=False)
        assert np.array_equal(net.forward(np.ones((1, 5))), np.zeros((1, 3)))

    def test_scalar_tanh(self):
        net = Mlp([(np.array([[2.0]]), np.array([0.5]))], linear_output=False)
        out = net.forward(np.array([[1.0]]))
        assert out[0, 0] == pytest.approx(math.tanh(2.5), abs=1e-12)

    def test_dimension_mismatch(self):
        net = Mlp([(np.ones((2, 3)), np.zeros(2))], linear_output=True)
        with pytest.raises(ValueError, match="dim"):
            net.forward(np.ones((1, 4)))

    def test_tanh_output_bounded(self):
        # strict bound holds wherever float64 can represent it (|pre| < ~19)
        rng = np.random.default_rng(1)
        net = Mlp([(rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6))], linear_output=False)
        out = net.forward(rng.normal(0, 2, (50, 4)))
        assert np.all(np.abs(out) < 1.0)

    def test_only_the_last_layer_is_linear(self):
        rng = np.random.default_rng(6)
        layers = random_layers([4, 3, 2], rng)
        x = rng.normal(0, 1, (5, 4))
        hidden = np.tanh(x @ layers[0][0].T + layers[0][1])
        pre = hidden @ layers[1][0].T + layers[1][1]
        assert np.array_equal(Mlp(layers, linear_output=True).forward(x), pre)
        assert np.array_equal(Mlp(layers, linear_output=False).forward(x), np.tanh(pre))

    def test_forward_cached_matches_forward(self):
        rng = np.random.default_rng(7)
        net = Mlp(random_layers([4, 3, 2], rng), linear_output=True)
        x = rng.normal(0, 1, (5, 4))
        out, acts = net.forward_cached(x)
        assert np.array_equal(out, net.forward(x))
        assert acts[0] is x and acts[-1] is out and len(acts) == 3


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for linear_output in (False, True) * 3:
            dims = [int(d) for d in rng.integers(2, 6, size=4)]
            net = Mlp(random_layers(dims, rng), linear_output)
            x = rng.normal(0, 1, (3, dims[0]))
            w = rng.normal(0, 1, (3, dims[3]))
            _, acts = net.forward_cached(x)
            grads, _ = net.backward(acts, w)
            fd = finite_difference_grads(net, x, w)
            assert [g.shape for g in grads] == [p.shape for pair in net.layers for p in pair]
            for a, f in zip(grads, fd):
                denom = np.maximum(1e-8, np.abs(a) + np.abs(f))
                rel = np.abs(a - f) / denom
                rel[np.abs(a - f) < 1e-9] = 0.0
                assert rel.max() < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        net = Mlp(random_layers([4, 3, 2], rng), linear_output=True)
        _, acts = net.forward_cached(rng.normal(0, 1, (2, 4)))
        grads, dx = net.backward(acts, np.zeros((2, 2)))
        assert len(grads) == 4
        for g in grads:
            assert np.all(g == 0.0)
        assert np.all(dx == 0.0)

    def test_linear_layer_closed_form(self):
        # L = ||Wx + b - y||^2  =>  dL/dW = 2 (Wx + b - y) x^T
        rng = np.random.default_rng(4)
        net = Mlp(random_layers([5, 3], rng), linear_output=True)
        x = rng.normal(0, 1, (1, 5))
        y = rng.normal(0, 1, 3)
        out, acts = net.forward_cached(x)
        resid = out[0] - y
        grads, _ = net.backward(acts, 2.0 * resid[None, :])
        expected_w = 2.0 * np.outer(resid, x[0])
        assert np.allclose(grads[0], expected_w, rtol=1e-12)
        assert np.allclose(grads[1], 2.0 * resid, rtol=1e-12)


class TestPack:
    def test_layers_become_views_of_one_vector(self):
        model = VaeModel.initialize(input_dim=6, latent_dim=2, hidden=(5, 3), rng=6)
        params = model.parameters()
        # each layer's weights (out, in) then bias: encoder, mu head,
        # log-variance head, decoder
        assert [p.shape for p in params] == [
            (5, 6), (5,), (3, 5), (3,), (2, 3), (2,), (2, 3), (2,),
            (3, 2), (3,), (5, 3), (5,), (6, 5), (6,),
        ]
        assert model.params.flags.c_contiguous
        assert np.array_equal(model.params, np.concatenate([p.ravel() for p in params]))
        for p in params:
            assert np.shares_memory(p, model.params)
        before = [p.copy() for p in params]
        model.params -= 1.0
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b - 1.0)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(state, params, np.zeros(3))
        assert np.array_equal(params, before)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        # m-hat = v-hat = 1 at step 1, so the update is ~ -lr
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=1e-3)
        adam_step(state, params, np.array([1.0]))
        expected = -1e-3 / (1.0 + 1e-8)
        assert params[0] == pytest.approx(expected, abs=1e-12)
        assert params[0] == pytest.approx(-9.99999995e-4, abs=1e-11)

    def test_constant_gradient_keeps_lr_sized_steps(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=1e-3)
        prev = params[0]
        for _ in range(10):
            adam_step(state, params, np.array([0.5]))
            step = abs(params[0] - prev)
            assert step == pytest.approx(1e-3, rel=1e-6)
            prev = params[0]

    def test_alternating_gradient_damps_steps(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=1e-3)
        sizes = []
        prev = params[0]
        for t in range(6):
            g = 1.0 if t % 2 == 0 else -1.0
            adam_step(state, params, np.array([g]))
            sizes.append(abs(params[0] - prev))
            prev = params[0]
        # oscillating gradients shrink the first moment, so all later steps
        # stay below the first and below the constant-gradient step size
        assert all(s < sizes[0] for s in sizes[1:])
        assert all(s < 1e-3 for s in sizes[1:])

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, np.zeros(4))

    def test_moment_buffers_start_at_zero(self):
        state = AdamState.for_params(np.ones(4))
        assert state.first_moment.shape == state.second_moment.shape == (4,)
        assert np.all(state.first_moment == 0.0)
        assert np.all(state.second_moment == 0.0)
        assert state.step_count == 0
