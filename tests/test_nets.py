import numpy as np
import pytest

from uavris.nets import (
    Adam,
    Mlp,
    _backprop,
    flatten_gradients,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradients,
    soft_update,
)


def finite_diff_param_grad(net, x, loss_fn, eps=1e-6):
    """Central finite differences of loss_fn(forward(net, x)) w.r.t. every
    parameter, in the flat layout."""
    grad = np.zeros_like(net.flat)
    for i in range(net.flat.size):
        orig = net.flat[i]
        net.flat[i] = orig + eps
        hi = loss_fn(mlp_forward(net, x))
        net.flat[i] = orig - eps
        lo = loss_fn(mlp_forward(net, x))
        net.flat[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def analytic_param_grad(net, x, loss_fn, upstream_fn):
    out, cache = mlp_forward_cached(net, x)
    w_g, b_g, _ = mlp_gradients(net, cache, upstream_fn(out))
    return flatten_gradients(w_g, b_g)


class TestForward:
    def test_identity_weights_linear(self):
        rng = np.random.default_rng(0)
        net = Mlp.create([2, 2], rng)
        net.weights[0][:] = np.eye(2)
        net.biases[0][:] = [1.0, -1.0]
        np.testing.assert_allclose(mlp_forward(net, np.array([3.0, 4.0])), [4.0, 3.0])

    def test_relu_clips_hidden(self):
        rng = np.random.default_rng(0)
        net = Mlp.create([1, 1, 1], rng)
        net.weights[0][:] = [[-1.0]]
        net.biases[0][:] = [0.0]
        net.weights[1][:] = [[1.0]]
        net.biases[1][:] = [0.5]
        # positive input -> negative pre-activation -> ReLU zero -> bias only
        assert mlp_forward(net, np.array([2.0]))[0] == pytest.approx(0.5)

    def test_tanh_output_bounded(self):
        rng = np.random.default_rng(1)
        net = Mlp.create([3, 16, 4], rng, output_activation="tanh")
        out = mlp_forward(net, rng.standard_normal((50, 3)) * 10)
        assert (np.abs(out) <= 1.0).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        net = Mlp.create([4, 8, 2], rng)
        xs = rng.standard_normal((5, 4))
        batch = mlp_forward(net, xs)
        for i in range(5):
            np.testing.assert_allclose(mlp_forward(net, xs[i]), batch[i], rtol=1e-12)

    def test_bad_input_size(self):
        net = Mlp.create([4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros(3))

    def test_copy_is_independent(self):
        net = Mlp.create([2, 3, 1], np.random.default_rng(0))
        dup = net.copy()
        dup.flat += 1.0
        assert not np.allclose(net.flat, dup.flat)


class TestGradients:
    def _check(self, net, x, loss_fn, upstream_fn, rtol=1e-6):
        analytic = analytic_param_grad(net, x, loss_fn, upstream_fn)
        numeric = finite_diff_param_grad(net, x, loss_fn)
        scale = max(np.max(np.abs(numeric)), 1e-8)
        np.testing.assert_allclose(analytic, numeric, atol=rtol * scale)

    def test_sum_loss_identity_output(self):
        rng = np.random.default_rng(3)
        net = Mlp.create([3, 8, 2], rng)
        x = rng.standard_normal(3)
        self._check(net, x, lambda o: o.sum(), lambda o: np.ones_like(o))

    def test_squared_loss_tanh_output(self):
        rng = np.random.default_rng(4)
        net = Mlp.create([2, 6, 6, 2], rng, output_activation="tanh")
        x = rng.standard_normal(2)
        self._check(net, x, lambda o: np.sum(o**2), lambda o: 2 * o)

    def test_batch_gradients_sum(self):
        rng = np.random.default_rng(5)
        net = Mlp.create([2, 5, 1], rng)
        xs = rng.standard_normal((4, 2))
        out, cache = mlp_forward_cached(net, xs)
        w_g, b_g, _ = mlp_gradients(net, cache, np.ones_like(out))
        batch_grad = flatten_gradients(w_g, b_g)
        single_sum = np.zeros_like(batch_grad)
        for i in range(4):
            single_sum += analytic_param_grad(
                net, xs[i], lambda o: o.sum(), lambda o: np.ones_like(o)
            )
        np.testing.assert_allclose(batch_grad, single_sum, rtol=1e-10)

    def test_input_gradient(self):
        rng = np.random.default_rng(6)
        net = Mlp.create([3, 7, 2], rng, output_activation="tanh")
        x = rng.standard_normal(3)
        _, cache = mlp_forward_cached(net, x)
        out = mlp_forward(net, x)
        _, _, in_grad = mlp_gradients(net, cache, np.ones_like(out))
        eps = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            num = (mlp_forward(net, xp).sum() - mlp_forward(net, xm).sum()) / (2 * eps)
            assert in_grad[i] == pytest.approx(num, abs=1e-6)


class TestBuffers:
    @pytest.mark.parametrize("act,batch", [("tanh", 1), ("identity", 9)])
    def test_gradients_into_buffer_match_default(self, act, batch):
        rng = np.random.default_rng(10)
        net = Mlp.create([7, 12, 5, 3], rng, output_activation=act)
        x = rng.standard_normal(7) if batch == 1 else rng.standard_normal((batch, 7))
        out, cache = mlp_forward_cached(net, x)
        upstream = rng.standard_normal(out.shape)
        w_g, b_g, in_grad = mlp_gradients(net, cache, upstream)
        buf = np.full(net.flat.size + 4, np.nan)
        w_o, b_o, none = mlp_gradients(net, cache, upstream, out=buf, wrt="params")
        assert none is None
        assert np.array_equal(buf[: net.flat.size], flatten_gradients(w_g, b_g))
        assert np.array_equal(flatten_gradients(w_o, b_o), buf[: net.flat.size])
        assert np.isnan(buf[net.flat.size :]).all()
        no_w, no_b, in_only = mlp_gradients(net, cache, upstream, wrt="input")
        assert no_w is None and no_b is None
        assert np.array_equal(in_only, in_grad)

    def test_bad_wrt(self):
        net = Mlp.create([2, 2], np.random.default_rng(0))
        _, cache = mlp_forward_cached(net, np.ones(2))
        with pytest.raises(ValueError):
            mlp_gradients(net, cache, np.ones(2), wrt="weights")

    def test_adam_and_soft_update_with_scratch_match_fresh(self):
        rng = np.random.default_rng(11)
        p1 = rng.standard_normal(50)
        p2 = p1.copy()
        a1, a2 = Adam(lr=0.01), Adam(lr=0.01)
        work = np.empty(64)
        for _ in range(5):
            g = rng.standard_normal(50)
            a1.step(p1, g)
            a2.step(p2, g, work)  # after the default path, which must leave g intact
        assert np.array_equal(p1, p2)
        assert np.array_equal(a1.m, a2.m) and np.array_equal(a1.v, a2.v)

        main = Mlp.create([3, 4, 2], rng)
        t1 = Mlp.create([3, 4, 2], rng)
        t2 = t1.copy()
        soft_update(t1, main, 0.3)
        soft_update(t2, main, 0.3, work)
        assert np.array_equal(t1.flat, t2.flat)


class TestPrecision:
    # a critic-shaped net: 12 state and 4 action inputs, batch 16
    DIMS = [16, 32, 32, 1]
    ACTIONS = slice(12, None)

    def _gradients(self, net, x, upstream):
        _, cache = mlp_forward_cached(net, x)
        w_g, b_g, _ = mlp_gradients(net, cache, upstream)
        _, _, in_grad = mlp_gradients(net, cache, upstream, wrt="input",
                                      input_columns=self.ACTIONS)
        return flatten_gradients(w_g, b_g), in_grad

    def test_float32_create_rounds_the_float64_draw(self):
        net32 = Mlp.create(self.DIMS, np.random.default_rng(0), dtype=np.float32)
        net64 = Mlp.create(self.DIMS, np.random.default_rng(0))
        assert net32.flat.dtype == np.float32
        assert np.array_equal(net32.flat, net64.flat.astype(np.float32))

    def test_float32_gradients_match_float64_on_the_same_weights(self):
        rng = np.random.default_rng(12)
        net32 = Mlp.create(self.DIMS, rng, dtype=np.float32)
        net32.flat[:] = rng.standard_normal(net32.flat.size) * 0.3
        net64 = Mlp(net32.flat.astype(np.float64), list(self.DIMS))
        x = rng.standard_normal((16, 16))
        upstream = rng.standard_normal((16, 1))
        p32, in32 = self._gradients(net32, x, upstream)
        p64, in64 = self._gradients(net64, x, upstream)
        assert p32.dtype == in32.dtype == np.float32
        assert in32.shape == (16, 4)
        # float32 eps is 1.2e-7; a few hundred roundings per entry stay far below 1e-4
        for lo, hi in ((p32, p64), (in32, in64)):
            np.testing.assert_allclose(lo, hi, rtol=0, atol=1e-4 * np.abs(hi).max())

    def test_column_restricted_input_gradient_is_the_slice(self):
        rng = np.random.default_rng(13)
        net = Mlp.create(self.DIMS, rng)
        _, cache = mlp_forward_cached(net, rng.standard_normal((16, 16)))
        upstream = rng.standard_normal((16, 1))
        _, _, full = mlp_gradients(net, cache, upstream, wrt="input")
        _, _, cols = mlp_gradients(net, cache, upstream, wrt="input", input_columns=self.ACTIONS)
        np.testing.assert_allclose(cols, full[:, self.ACTIONS], rtol=0,
                                   atol=1e-12 * np.abs(full).max())


class TestBackprop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outer_product_has_the_matmul_bits(self, dtype):
        # a one-output layer backpropagates an (n, 1) @ (1, m) product
        rng = np.random.default_rng(14)
        for _ in range(200):
            g = rng.standard_normal((int(rng.integers(1, 100)), 1)).astype(dtype)
            w = rng.standard_normal((1, int(rng.integers(1, 200)))).astype(dtype)
            out = _backprop(g, w)
            assert out.dtype == dtype
            assert out.tobytes() == (g @ w).tobytes()

    def test_wider_inner_dimension_is_the_matmul(self):
        rng = np.random.default_rng(15)
        g, w = rng.standard_normal((8, 3)), rng.standard_normal((3, 5))
        assert _backprop(g, w).tobytes() == (g @ w).tobytes()


class TestAdam:
    def test_first_step_magnitude(self):
        # with any nonzero gradient the first Adam step has size ~lr per coord
        opt = Adam(lr=0.01)
        p = np.array([1.0, -2.0])
        opt.step(p, np.array([0.3, -40.0]))
        np.testing.assert_allclose(p, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_quadratic_convergence(self):
        # minimize ||p - target||^2
        opt = Adam(lr=0.05)
        p = np.zeros(3)
        target = np.array([1.0, -0.5, 2.0])
        for _ in range(2000):
            opt.step(p, 2 * (p - target))
        np.testing.assert_allclose(p, target, atol=1e-4)

    def test_size_change_rejected(self):
        opt = Adam(lr=0.1)
        opt.step(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            opt.step(np.zeros(3), np.ones(3))


class TestSoftUpdate:
    def test_blend(self):
        rng = np.random.default_rng(7)
        main = Mlp.create([2, 3], rng)
        target = Mlp.create([2, 3], rng)
        before = target.flat.copy()
        soft_update(target, main, 0.25)
        np.testing.assert_allclose(target.flat, 0.75 * before + 0.25 * main.flat)

    def test_tau_one_copies(self):
        rng = np.random.default_rng(8)
        main = Mlp.create([2, 3], rng)
        target = Mlp.create([2, 3], rng)
        soft_update(target, main, 1.0)
        np.testing.assert_array_equal(target.flat, main.flat)
        # views must still alias the flat vector after the in-place update
        np.testing.assert_array_equal(target.weights[0], main.weights[0])

    def test_structure_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            soft_update(Mlp.create([2, 3], rng), Mlp.create([3, 2], rng), 0.5)

    def test_bad_tau(self):
        rng = np.random.default_rng(9)
        net = Mlp.create([2, 2], rng)
        with pytest.raises(ValueError):
            soft_update(net.copy(), net, 0.0)


class TestCreate:
    def test_param_count(self):
        net = Mlp.create([3, 5, 2], np.random.default_rng(0))
        assert net.flat.size == (3 + 1) * 5 + (5 + 1) * 2

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Mlp.create([3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            Mlp.create([3, 0, 2], np.random.default_rng(0))

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            Mlp.create([2, 2], np.random.default_rng(0), output_activation="relu")
