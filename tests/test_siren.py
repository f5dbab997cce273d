import dataclasses
import hashlib
import math
import multiprocessing
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegreedy import linalg, siren
from pdegreedy.siren import (Jet, SirenNet, forward, forward_jet, forward_jet_with_cache,
                             init_siren, jet_backward, load_checkpoint, save_checkpoint)


def richardson(diff, h):
    # cancels the h^2 term of a second-order central formula
    return (4.0 * diff(h) - diff(2.0 * h)) / 3.0


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 4 points, so a few points span several blocks."""
    monkeypatch.setattr(siren, "BLOCK", 4)


def loss_gradients(net, t, x, loss, max_x_order=3):
    """(value, gradient vector) of ``loss(jet) -> (value, bar)`` by one
    forward and one backward pass."""
    jet, cache = forward_jet_with_cache(net, t, x, max_x_order)
    value, bar = loss(jet)
    return value, jet_backward(net, cache, bar)


def layer_grads(grad, net):
    """Per-layer weight gradients, then bias gradients: views of ``grad``."""
    d_weights, d_biases = siren._layer_views(grad, net.widths)
    return d_weights + d_biases


def single_neuron(w_t, w_x, b, w_out, b_out, omega0=30.0):
    net = init_siren((2, 1, 1), omega0=omega0, seed=0)
    net.weights[0][:] = [[w_t, w_x]]
    net.biases[0][:] = [b]
    net.weights[1][:] = [[w_out]]
    net.biases[1][:] = [b_out]
    return net


class TestInit:
    def test_deterministic(self):
        a = init_siren((2, 16, 1), seed=42)
        b = init_siren((2, 16, 1), seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weight_ranges(self):
        net = init_siren((2, 128, 128, 1), omega0=30.0, seed=0)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / 2
        lim = math.sqrt(6.0 / 128) / 30.0  # ~0.00722
        assert np.max(np.abs(net.weights[1])) <= lim
        assert lim == pytest.approx(0.00722, abs=2e-5)
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_parameter_count(self):
        net = init_siren((2, 128, 128, 128, 1), seed=0)
        # 2*128+128 + 2*(128^2+128) + 128+1
        assert net.params.shape == ((2 * 128 + 128) + 2 * (128 ** 2 + 128) + (128 + 1),)
        assert net.params.size == 33537

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            init_siren((3, 8, 1))
        with pytest.raises(ValueError):
            init_siren((2, 8, 2))

    @pytest.mark.parametrize("widths", [(2, 0, 1), (2, 8, -1, 1)])
    def test_non_positive_width_rejected(self, widths):
        with pytest.raises(ValueError, match="every width must be >= 1"):
            init_siren(widths)

    @pytest.mark.parametrize("omega0", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_omega0_rejected(self, omega0):
        with pytest.raises(ValueError, match="omega0 must be finite and > 0"):
            init_siren((2, 8, 1), omega0=omega0)


class TestParameterVector:
    def test_views_share_params(self, tmp_path, rng):
        net = init_siren((2, 6, 5, 1), seed=2)
        save_checkpoint(net, tmp_path / "net.txt")
        copies = {"copy": net.copy(), "checkpoint": load_checkpoint(tmp_path / "net.txt"),
                  "pickle": pickle.loads(pickle.dumps(net))}
        for name, other in {"init_siren": net, **copies}.items():
            assert other.params.tobytes() == net.params.tobytes(), name
            for view in other.weights + other.biases:
                assert np.shares_memory(other.params, view), name
            if other is not net:
                assert not np.shares_memory(other.params, net.params), name
        jet, cache = forward_jet_with_cache(net, rng.uniform(0, 1, 5), rng.uniform(-1, 1, 5),
                                            max_x_order=3)
        grad = jet_backward(net, cache, Jet(rng.standard_normal(jet.data.shape)))
        assert grad.dtype == np.float64 and grad.shape == net.params.shape

    def test_views_in_checkpoint_order(self):
        net = init_siren((2, 3, 1), seed=0)
        net.params[:] = np.arange(net.params.size)
        np.testing.assert_array_equal(net.weights[0], [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(net.biases[0], [6, 7, 8])
        np.testing.assert_array_equal(net.weights[1], [[9, 10, 11]])
        np.testing.assert_array_equal(net.biases[1], [12])

    def test_views_cannot_be_replaced(self):
        net = init_siren((2, 4, 1), seed=0)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((4, 2))
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.params = np.zeros(net.params.size)

    @pytest.mark.parametrize("shape", [(16,), (18,), (17, 1)])
    def test_wrong_size_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape("expected 17 parameters for widths [2, 4, 1]")):
            SirenNet(np.zeros(shape), (2, 4, 1), 30.0)


class TestForward:
    def test_zero_weights_give_zero(self):
        net = init_siren((2, 8, 8, 1), seed=0)
        for w in net.weights:
            w[:] = 0.0
        assert forward(net, 0.7, -0.3) == 0.0

    def test_single_neuron_closed_form(self):
        net = single_neuron(0.4, -0.7, 0.2, 1.3, -0.1)
        t0, x0 = 0.35, 0.6
        expected = 1.3 * math.sin(30.0 * (0.4 * t0 - 0.7 * x0 + 0.2)) - 0.1
        assert forward(net, t0, x0) == pytest.approx(expected, rel=1e-14)

    def test_duplicate_implementation_oracle(self, rng):
        net = init_siren((2, 10, 7, 1), seed=9)
        t0, x0 = rng.uniform(0, 1), rng.uniform(-1, 1)
        # independent straightforward re-evaluation with plain loops
        a = [t0, x0]
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = [math.sin(net.omega0 * (sum(w[i, j] * a[j] for j in range(len(a)))
                                        + b[i]))
                 for i in range(w.shape[0])]
        expected = sum(net.weights[-1][0, j] * a[j] for j in range(len(a)))
        expected += net.biases[-1][0]
        assert forward(net, t0, x0) == pytest.approx(expected, rel=1e-13)

    def test_bytes_equal_the_array_expression(self, rng):
        # each layer is computed in place in one buffer; the bytes are those
        # of the plain expression with a new array per operation
        net = init_siren((2, 32, 24, 1), seed=11)
        t, x = rng.uniform(0, 1, 3000), rng.uniform(-1, 1, 3000)
        a = np.column_stack([t, x])
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = np.sin(net.omega0 * (a @ w.T + b))
        expected = (a @ net.weights[-1].T + net.biases[-1])[:, 0]
        assert forward(net, t, x).tobytes() == expected.tobytes()

    def test_batch_matches_scalar(self, rng):
        net = init_siren((2, 8, 1), seed=2)
        t = rng.uniform(0, 1, 5)
        x = rng.uniform(-1, 1, 5)
        batch = forward(net, t, x)
        for i in range(5):
            assert batch[i] == pytest.approx(forward(net, t[i], x[i]), rel=1e-14)


class TestJets:
    def test_single_neuron_derivative_chain(self, small_blocks):
        omega0 = 30.0
        w_t, w_x = 0.15, -0.45
        net = single_neuron(w_t, w_x, 0.1, 1.0, 0.0, omega0)
        c = omega0 * w_x
        # one point, then 11 nearby points over three blocks (4, 4, 3)
        for t0, x0 in ((0.2, 0.5), (0.2 + 1e-3 * np.arange(11), np.full(11, 0.5))):
            z = omega0 * (w_t * np.asarray(t0) + w_x * x0 + 0.1)
            closed_form = [(np.sin(z), 1e-13), (c * np.cos(z), 1e-13),
                           (-c ** 2 * np.sin(z), 1e-12), (-c ** 3 * np.cos(z), 1e-12),
                           (c ** 4 * np.sin(z), 1e-12)]
            for order in (3, 4):
                jet = forward_jet(net, t0, x0, order)
                assert jet.data.shape == (order + 2, np.size(t0))
                for k, (expected, rel) in enumerate(closed_form[:order + 1]):
                    assert jet.by_order(k) == pytest.approx(expected, rel=rel), k
                assert jet.du_dt == pytest.approx(omega0 * w_t * np.cos(z), rel=1e-13)

    def test_finite_difference_oracle_all_orders(self, rng, small_blocks):
        # >= 100 random (net, point) cases per order; 25 points are 7 blocks
        h = 1e-4
        # the third-difference quotient amplifies rounding by eps/(2h^3), so
        # its step must sit at the double-precision optimum instead
        h3 = 2e-4
        worst = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, "t": 0.0}
        for trial in range(5):
            net = init_siren((2, 128, 128, 128, 1), seed=trial)
            t = rng.uniform(0, 1, 25)
            x = rng.uniform(-1, 1, 25)
            jet = forward_jet(net, t, x, 4)

            def f(dt=0.0, dx=0.0):
                return forward(net, t + dt, x + dx)

            def u_xxx(dx):
                return forward_jet(net, t, x + dx, 3).by_order(3)

            fd = {
                1: richardson(lambda s: (f(dx=s) - f(dx=-s)) / (2 * s), h),
                2: richardson(lambda s: (f(dx=s) - 2 * f() + f(dx=-s)) / s ** 2, h),
                3: richardson(lambda s: (f(dx=2 * s) - 2 * f(dx=s) + 2 * f(dx=-s)
                                         - f(dx=-2 * s)) / (2 * s ** 3), h3),
                # order 4: first difference of the order-3 jet
                4: richardson(lambda s: (u_xxx(s) - u_xxx(-s)) / (2 * s), h),
                "t": richardson(lambda s: (f(dt=s) - f(dt=-s)) / (2 * s), h),
            }
            for key in worst:
                ad = jet.du_dt if key == "t" else jet.by_order(key)
                rel = np.abs(ad - fd[key]) / (np.abs(ad) + np.abs(fd[key]) + 1e-8)
                worst[key] = max(worst[key], float(rel.max()))
        for key, value in worst.items():
            assert value < 1e-5, f"order {key}: worst relative error {value}"

    def test_truncated_orders_raise(self, rng):
        net = init_siren((2, 12, 1), seed=1)
        t = rng.uniform(0, 1, 4)
        x = rng.uniform(-1, 1, 4)
        jet = forward_jet(net, t, x, max_x_order=1)
        for k in (2, -1):
            with pytest.raises(ValueError, match="outside 0..1"):
                jet.by_order(k)
        full = forward_jet(net, t, x, max_x_order=3)
        np.testing.assert_allclose(jet.by_order(1), full.by_order(1))
        np.testing.assert_allclose(jet.u, full.u)
        np.testing.assert_allclose(jet.du_dt, full.du_dt)
        with pytest.raises(ValueError, match="max_x_order"):
            forward_jet(net, t, x, max_x_order=0)

    def test_linearity_of_parallel_sum(self, rng):
        # block-diagonal combination realizes a*G1 + b*G2 as one network
        n1 = init_siren((2, 6, 5, 1), seed=3)
        n2 = init_siren((2, 4, 3, 1), seed=4)
        a, b = 1.7, -0.6
        combined = init_siren((2, 10, 8, 1), omega0=n1.omega0)
        for l in range(2):
            w1, w2 = n1.weights[l], n2.weights[l]
            if l == 0:
                w = np.vstack([w1, w2])
            else:
                w = np.block([
                    [w1, np.zeros((w1.shape[0], w2.shape[1]))],
                    [np.zeros((w2.shape[0], w1.shape[1])), w2]])
            combined.weights[l][:] = w
            combined.biases[l][:] = np.concatenate([n1.biases[l], n2.biases[l]])
        combined.weights[2][:] = np.hstack([a * n1.weights[2], b * n2.weights[2]])
        combined.biases[2][:] = a * n1.biases[2] + b * n2.biases[2]

        t = rng.uniform(0, 1, 6)
        x = rng.uniform(-1, 1, 6)
        j1 = forward_jet(n1, t, x, 3)
        j2 = forward_jet(n2, t, x, 3)
        jc = forward_jet(combined, t, x, 3)
        np.testing.assert_allclose(jc.data, a * j1.data + b * j2.data,
                                   rtol=1e-10, atol=1e-10)


class TestLossGradients:
    def test_constant_loss_zero_gradient(self, rng):
        net = init_siren((2, 6, 1), seed=0)

        def const_loss(jet):
            return 1.0, Jet(np.zeros_like(jet.data))

        _, grad = loss_gradients(net, rng.uniform(0, 1, 3),
                                 rng.uniform(-1, 1, 3), const_loss)
        assert np.all(grad == 0.0)

    def test_single_neuron_hand_gradient(self, small_blocks):
        omega0 = 30.0
        w_t, w_x, b, w_out = 0.3, -0.2, 0.05, 0.9
        net = single_neuron(w_t, w_x, b, w_out, 0.0, omega0)

        def value_loss(jet):
            bar = np.zeros_like(jet.data)
            bar[0] = 1.0
            return float(jet.u.sum()), Jet(bar)

        # one point, then 11 nearby points whose block gradients add up
        for n in (1, 11):
            t0, x0 = 0.4 + 1e-3 * np.arange(n), np.full(n, -0.8)
            _, grad = loss_gradients(net, t0, x0, value_loss)
            z = omega0 * (w_t * t0 + w_x * x0 + b)
            cos_chain = w_out * omega0 * np.cos(z)
            d_weights, d_biases = siren._layer_views(grad, net.widths)
            assert d_weights[1][0, 0] == pytest.approx(np.sin(z).sum(), rel=1e-12)
            assert d_biases[1][0] == pytest.approx(n)
            assert d_weights[0][0, 0] == pytest.approx((cos_chain * t0).sum(), rel=1e-12)
            assert d_weights[0][0, 1] == pytest.approx((cos_chain * x0).sum(), rel=1e-12)
            assert d_biases[0][0] == pytest.approx(cos_chain.sum(), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_jet_field_gradients_vs_finite_differences(self, rng, order, small_blocks):
        # weight a mix of every jet output and check all parameter gradients;
        # 9 points are 3 blocks
        net = init_siren((2, 7, 6, 1), seed=8)
        t = rng.uniform(0, 1, 9)
        x = rng.uniform(-1, 1, 9)
        cw = rng.standard_normal((order + 2, 9))

        def mixed_loss(jet):
            return float(np.sum(cw * jet.data)), Jet(cw.copy())

        value, grad = loss_gradients(net, t, x, mixed_loss, max_x_order=order)

        def loss_at(net):
            jet = forward_jet(net, t, x, order)
            return mixed_loss(jet)[0]

        h = 1e-6
        worst = 0.0
        d_weights, d_biases = siren._layer_views(grad, net.widths)
        for li in range(len(net.weights)):
            for arr, garr in ((net.weights[li], d_weights[li]),
                              (net.biases[li], d_biases[li])):
                flat = arr.reshape(-1)
                gflat = garr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_at(net)
                    flat[idx] = orig - h
                    down = loss_at(net)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(gflat[idx] - fd) / (abs(gflat[idx]) + abs(fd) + 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4

    @pytest.mark.parametrize("cache_order, bar_order", [(2, 3), (3, 2), (1, 3)])
    def test_bar_order_must_match_cache(self, rng, cache_order, bar_order):
        net = init_siren((2, 5, 4, 1), seed=2)
        _, cache = forward_jet_with_cache(net, rng.uniform(0, 1, 3),
                                          rng.uniform(-1, 1, 3), max_x_order=cache_order)
        assert len(cache) == 2  # blocks of 2 and 1 points
        with pytest.raises(ValueError, match="order"):
            jet_backward(net, cache, Jet(np.ones((bar_order + 2, 3))))

    def test_cache_is_single_use(self, rng):
        net = init_siren((2, 5, 4, 1), seed=2)
        _, cache = forward_jet_with_cache(net, rng.uniform(0, 1, 3),
                                          rng.uniform(-1, 1, 3), max_x_order=2)
        assert len(cache) == 2
        bar = Jet(np.ones((4, 3)))
        jet_backward(net, cache, bar)
        with pytest.raises(ValueError, match="one jet_backward call"):
            jet_backward(net, cache, bar)


def mixed_bar(rng, n, order):
    return Jet(rng.standard_normal((order + 2, n)))


def jet_and_grad(net, t, x, bar, out=None, dtype=np.float64):
    jet, cache = forward_jet_with_cache(net, t, x, max_x_order=bar.max_x_order, out=out,
                                        dtype=dtype)
    return jet, jet_backward(net, cache, bar), cache


def assert_same_pass(first, second):
    (jet_a, grad_a), (jet_b, grad_b) = first, second
    assert np.array_equal(jet_a.data, jet_b.data)
    assert np.array_equal(grad_a, grad_b)


class TestWorkspace:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_reused_cache_equals_fresh_cache(self, rng, order):
        net = init_siren((2, 9, 7, 8, 1), seed=4)
        t, x = rng.uniform(0, 1, 11), rng.uniform(-1, 1, 11)
        bar = mixed_bar(rng, 11, order)
        jet0, _, cache = jet_and_grad(net, t, x, bar)
        kept = jet0.data.copy()
        for w in net.weights:
            w *= 1.1
        jet, grad, reused = jet_and_grad(net, t, x, bar, out=cache)
        assert reused is cache
        fresh_jet, fresh_grad, fresh = jet_and_grad(net, t, x, bar)
        assert fresh is not cache
        assert_same_pass((jet, grad), (fresh_jet, fresh_grad))
        # the second pass did not write through the first pass's jet
        assert np.array_equal(jet0.data, kept)

    @pytest.mark.parametrize("change", ["n", "order", "widths", "dtype"])
    def test_mismatched_cache_is_replaced(self, rng, change):
        net = init_siren((2, 9, 7, 1), seed=5)
        t, x = rng.uniform(0, 1, 10), rng.uniform(-1, 1, 10)
        _, _, cache = jet_and_grad(net, t, x, mixed_bar(rng, 10, 2))
        order = 3 if change == "order" else 2
        dtype = np.float32 if change == "dtype" else np.float64
        if change == "n":
            t, x = t[:6], x[:6]
        if change == "widths":
            net = init_siren((2, 9, 6, 1), seed=5)
        bar = mixed_bar(rng, len(t), order)
        jet, grad, new = jet_and_grad(net, t, x, bar, out=cache, dtype=dtype)
        assert new is not cache
        assert new[0][0].dtype == dtype
        fresh_jet, fresh_grad, _ = jet_and_grad(net, t, x, bar, dtype=dtype)
        assert_same_pass((jet, grad), (fresh_jet, fresh_grad))

    @pytest.mark.parametrize("made, used", [(2, 1), (1, 2)])
    def test_cache_of_other_stripe_count_is_replaced(self, rng, monkeypatch, made, used):
        if linalg.blas_threads()["numpy"] is None:
            pytest.skip("one jet thread where numpy's BLAS pool is not found")
        net = init_siren((2, 9, 7, 1), seed=5)
        t, x = rng.uniform(0, 1, 10), rng.uniform(-1, 1, 10)  # two blocks
        bar = mixed_bar(rng, 10, 2)
        monkeypatch.setattr(siren, "_threads", made)
        _, _, cache = jet_and_grad(net, t, x, bar)
        monkeypatch.setattr(siren, "_threads", used)
        jet, grad, new = jet_and_grad(net, t, x, bar, out=cache)
        assert new is not cache
        assert len(new.work) == used
        assert_same_pass((jet, grad), jet_and_grad(net, t, x, bar)[:2])
        # no two stripes share a work buffer
        for i, mine in enumerate(new.work):
            for theirs in new.work[i + 1:]:
                assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_cache_bytes_per_point(self, rng):
        # per point the blocks keep the input, every hidden layer's sine
        # stack, the pre-activation stacks of hidden layers 1 and up and the
        # output: (K + 2)(2 + w_1 + 2 sum_{l>=2} w_l + 1) numbers
        net = init_siren((2, 128, 128, 128, 1), seed=0)
        n = 600
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        _, cache = forward_jet_with_cache(net, t, x, 3, dtype=np.float32)
        assert sum(a.nbytes for block in cache for a in block) == 12_860 * n

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_buffer_starts_on_a_cache_line(self, rng, dtype):
        net = init_siren((2, 9, 7, 1), seed=5)
        t, x = rng.uniform(0, 1, 11), rng.uniform(-1, 1, 11)
        _, cache = forward_jet_with_cache(net, t, x, 3, dtype=dtype)
        buffers = [a for block in cache for a in block] + [a for work in cache.work for a in work]
        assert [a.ctypes.data % 64 for a in buffers] == [0] * len(buffers)

    def test_backward_reads_no_work_buffer_of_the_forward_pass(self, rng, monkeypatch):
        # everything the backward pass reads of the forward pass is in the
        # per-block buffers; layer 0's pre-activations are rebuilt
        monkeypatch.setattr(siren, "_threads", 2)
        net = init_siren((2, 9, 7, 8, 1), seed=12)
        n = 1500  # three blocks over two stripes
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        for order in (1, 3, 4):
            bar = mixed_bar(rng, n, order)
            for dtype in (np.float64, np.float32):
                expected = jet_and_grad(net, t, x, bar, dtype=dtype)[1]
                _, cache = forward_jet_with_cache(net, t, x, order, dtype=dtype)
                assert len(cache.work) == siren.jet_threads()
                for work in cache.work:
                    for buffer in work:
                        buffer.fill(np.nan)
                assert jet_backward(net, cache, bar).tobytes() == expected.tobytes()

    def test_reused_pass_allocates_under_half_a_stack(self, rng):
        n, order, width = 200, 3, 64
        net = init_siren((2, width, width, 1), seed=6)
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        bar = mixed_bar(rng, n, order)
        _, _, cache = jet_and_grad(net, t, x, bar)
        stack_bytes = (order + 2) * n * width * 8
        tracemalloc.start()
        try:
            jet_and_grad(net, t, x, bar, out=cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * stack_bytes, f"{peak / stack_bytes:.2f} stacks"


def pass_digest(n=37, order=3):
    """SHA-256 of one seeded jet and gradient pass over n points."""
    rng = np.random.default_rng(7)
    net = init_siren((2, 9, 7, 8, 1), seed=7)
    t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
    jet, grad, _ = jet_and_grad(net, t, x, mixed_bar(rng, n, order))
    digest = hashlib.sha256(jet.data.tobytes())
    digest.update(grad.tobytes())
    return digest.hexdigest()


def send_pass_digest(conn):
    conn.send(pass_digest())
    conn.close()


class TestBlocks:
    def test_bytes_do_not_depend_on_thread_count(self, rng, monkeypatch):
        # as on one core and on two: one jet thread, then two, with numpy's
        # BLAS pool as import leaves it and right after a threaded SVD
        net = init_siren((2, 32, 32, 1), seed=3)
        n = 2000  # four blocks at the default block size
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        bar = mixed_bar(rng, n, 3)
        passes = {np.float64: [], np.float32: []}
        for threads in (1, 2):
            monkeypatch.setattr(siren, "_threads", threads)
            for after_svd in (False, True):
                if after_svd:
                    linalg.svd(rng.standard_normal((300, 120)))
                for dtype, same in passes.items():
                    assert linalg.blas_threads()["numpy"] in (None, 1)
                    jet, grad, cache = jet_and_grad(net, t, x, bar, dtype=dtype)
                    same.append((jet, grad))
                    assert len(cache) == 4
        for same in passes.values():
            for other in same[1:]:
                assert_same_pass(same[0], other)

    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_blocked_pass_matches_one_block(self, rng, monkeypatch, order):
        net = init_siren((2, 16, 12, 1), seed=4)
        n = 23
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        bar = mixed_bar(rng, n, order)
        blocks = siren._blocks
        monkeypatch.setattr(siren, "_blocks", lambda n: [(0, n)])
        ref_jet, ref_grad, ref_cache = jet_and_grad(net, t, x, bar)
        assert len(ref_cache) == 1
        monkeypatch.setattr(siren, "_blocks", blocks)
        monkeypatch.setattr(siren, "BLOCK", 4)
        jet, grad, cache = jet_and_grad(net, t, x, bar)
        assert [hi - lo for lo, hi in cache.bounds] == [4, 4, 4, 4, 4, 3]
        rows = np.abs(jet.data - ref_jet.data).max(axis=1)
        assert np.all(rows <= 1e-13 * np.abs(ref_jet.data).max(axis=1))
        for g, ref in zip(layer_grads(grad, net), layer_grads(ref_grad, net)):
            assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_point_is_one_block(self, rng):
        net = init_siren((2, 6, 5, 1), seed=1)
        bar = mixed_bar(rng, 1, 2)
        jet, grad, cache = jet_and_grad(net, 0.3, -0.2, bar)
        assert len(cache) == 1 and jet.data.shape == (4, 1)
        assert jet.u[0] == pytest.approx(forward(net, 0.3, -0.2), rel=1e-14)
        again, grad_again, reused = jet_and_grad(net, 0.3, -0.2, bar, out=cache)
        assert reused is cache
        assert_same_pass((jet, grad), (again, grad_again))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_process_makes_its_own_threads(self, monkeypatch):
        # a thread pool inherited through fork has no live threads, so a
        # pass that reused it would never finish
        monkeypatch.setattr(siren, "_threads", 2)
        expected = pass_digest()
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_pass_digest, args=(sender,))
        child.start()
        try:
            child.join(timeout=60)
            assert not child.is_alive(), "the forked pass did not finish"
            assert receiver.poll() and receiver.recv() == expected
        finally:
            if child.is_alive():
                child.terminate()


class TestForwardOnlyJet:
    @pytest.mark.parametrize("order", [1, 3, 4])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_bytes_equal_the_cached_pass(self, rng, monkeypatch, order, threads):
        monkeypatch.setattr(siren, "_threads", threads)
        net = init_siren((2, 9, 7, 8, 1), seed=8)
        for n in (1, 2, 7, 511, 513, 1500, 2600):  # 1 to 6 blocks, last one shorter
            t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
            expected = forward_jet_with_cache(net, t, x, order)[0].data
            assert forward_jet(net, t, x, order).data.tobytes() == expected.tobytes()

    def test_no_whole_batch_cache(self, rng, monkeypatch):
        monkeypatch.setattr(siren, "_threads", 2)
        net = init_siren((2, 64, 64, 1), seed=9)
        n, order = 8 * siren.BLOCK, 3  # eight blocks over two stripes
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        shapes = siren._cache_shapes(net.widths, n, order)
        cache_bytes = 8 * sum(math.prod(shape) for shape in shapes)
        tracemalloc.start()
        try:
            forward_jet(net, t, x, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two stripes' block buffers are a quarter of the cache, the jet far less
        assert peak < 0.35 * cache_bytes, f"{peak / cache_bytes:.2f} caches"


class TestFloat32Pass:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_float64_pass(self, rng, order):
        net = init_siren(siren.DEFAULT_WIDTHS, seed=order)
        n = 2000
        t, x = rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
        bar = mixed_bar(rng, n, order)
        ref_jet, ref_grad, _ = jet_and_grad(net, t, x, bar)
        jet, grad, cache = jet_and_grad(net, t, x, bar, dtype=np.float32)
        assert {a.dtype for block in cache for a in block} == {np.dtype(np.float32)}
        assert jet.data.dtype == grad.dtype == np.float64
        assert grad.shape == net.params.shape
        rows = np.abs(jet.data - ref_jet.data).max(axis=1)
        assert np.all(rows <= 1e-5 * np.abs(ref_jet.data).max(axis=1))
        assert np.linalg.norm(grad - ref_grad) <= 1e-5 * np.linalg.norm(ref_grad)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = init_siren((2, 9, 5, 1), omega0=17.5, seed=6)
        path = tmp_path / "net.txt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.omega0 == net.omega0
        assert back.widths == net.widths
        for wa, wb in zip(net.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(net.biases, back.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_rejects_mangled_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("siren 30 2 4 1\n0.5\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 5), max_size=3).map(lambda hidden: (2, *hidden, 1)),
           st.floats(0.0, exclude_min=True, allow_infinity=False), st.data())
    def test_round_trip_exact_bytes_and_truncation(self, widths, omega0, data):
        size = sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))
        values = st.one_of(st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308]),
                           st.floats(allow_nan=False, allow_infinity=False))
        params = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        net = SirenNet(params, widths, omega0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.txt"
            save_checkpoint(net, path)
            back = load_checkpoint(path)
            assert back.params.tobytes() == params.tobytes()
            assert back.widths == widths
            assert back.omega0 == omega0
            text = path.read_text()
            path.write_text(text[:data.draw(st.integers(0, len(text) - 1))])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)
