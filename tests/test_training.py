import csv
import json

import numpy as np
import pytest

from pdegreedy import training
from pdegreedy.features import get_pde_spec, load_pde_spec
from pdegreedy.sampling import QdeimConfig, qdeim_sample, random_sample
from pdegreedy.siren import (_layer_views, forward_jet, forward_jet_with_cache, init_siren,
                             jet_backward)
from pdegreedy.training import (BETA1, BETA2, EPS, AdamState, TrainConfig, adam_step,
                                cyclic_lr, summary_dict, train, write_trajectory_csv)


class TestCyclicLr:
    def test_waveform_anchor_points(self):
        cfg = TrainConfig()  # lr = 1e-5, step_size_up = 1000
        assert cyclic_lr(0, cfg) == pytest.approx(1e-6)
        assert cyclic_lr(1000, cfg) == pytest.approx(1e-4)
        assert cyclic_lr(2000, cfg) == pytest.approx(1e-6)
        assert cyclic_lr(500, cfg) == pytest.approx(1e-6 + 0.5 * (1e-4 - 1e-6))

    def test_bounds_property(self):
        cfg = TrainConfig()
        values = [cyclic_lr(i, cfg) for i in range(0, 5000, 13)]
        base, top = cfg.lr_bounds
        assert min(values) >= base - 1e-18
        assert max(values) <= top + 1e-18

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iter=0)

    @pytest.mark.parametrize("name", ["mu1", "mu2"])
    @pytest.mark.parametrize("value", [0.0, -0.5, 2.0, float("nan")])
    def test_loss_weights_validated_at_construction(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in \\(0, 1\\]"):
            TrainConfig(**{name: value})
        assert getattr(TrainConfig(**{name: 0.5}), name) == 0.5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_learning_rate_validated_at_construction(self, value):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_step_size_up_validated_at_construction(self, value):
        with pytest.raises(ValueError, match="step_size_up must be >= 1"):
            TrainConfig(step_size_up=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_omega0_validated_at_construction(self, value):
        with pytest.raises(ValueError, match="omega0 must be finite and > 0"):
            TrainConfig(omega0=value)

    def test_widths_validated_at_construction(self):
        with pytest.raises(ValueError, match="every width must be >= 1"):
            TrainConfig(widths=(2, 0, 1))
        assert TrainConfig(widths=[2, np.int64(8), 1]).widths == (2, 8, 1)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0])
        state = AdamState.like(p)
        adam_step(p, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_single_scalar_hand_step(self):
        g = 0.5
        p = np.array([0.0])
        state = AdamState.like(p)
        adam_step(p, np.array([g]), state, lr=0.01)
        np.testing.assert_allclose(state.m, [0.1 * g])
        np.testing.assert_allclose(state.v, [0.001 * g * g])
        # bias correction makes the first step -lr * g / (|g| + eps)
        expected = -0.01 * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(p, [expected], rtol=1e-12)

    def test_nonfinite_gradient_aborts_with_step(self):
        p = np.zeros(1)
        state = AdamState.like(p)
        with pytest.raises(FloatingPointError, match="step 1"):
            adam_step(p, np.array([np.nan]), state, lr=0.1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_aborts_before_update(self, bad):
        p = np.zeros(3)
        state = AdamState.like(p)
        with pytest.raises(FloatingPointError, match="step 1"):
            adam_step(p, np.array([0.5, bad, -1.0]), state, lr=0.1)
        np.testing.assert_array_equal(p, 0.0)

    def test_nan_in_last_bias_changes_nothing(self, rng):
        # the check precedes the update: earlier layers and their moments
        # must not have been stepped when a later layer's gradient is NaN
        net = init_siren((2, 7, 5, 1), seed=3)
        state = AdamState.like(net.params)
        adam_step(net.params, rng.standard_normal(net.params.size), state, lr=0.01)
        grad = rng.standard_normal(net.params.size)
        _layer_views(grad, net.widths)[1][-1][-1] = np.nan
        before = [a.tobytes() for a in (net.params, state.m, state.v)]
        with pytest.raises(FloatingPointError, match="step 2"):
            adam_step(net.params, grad, state, lr=0.01)
        assert [a.tobytes() for a in (net.params, state.m, state.v)] == before
        assert state.step == 1

        fresh = AdamState.like(net.params)
        with pytest.raises(FloatingPointError, match="step 1"):
            adam_step(net.params, grad, fresh, lr=0.01)
        assert fresh.step == 0 and not fresh.m.any() and not fresh.v.any()
        assert net.params.tobytes() == before[0]

    def test_in_place_update_matches_formula_exactly(self, rng):
        size = 7 * 5 + 5 + 7 + 1
        params = rng.standard_normal(size)
        ref = params.copy()
        m, v = np.zeros(size), np.zeros(size)
        state = AdamState.like(params)
        b1, b2, eps = BETA1, BETA2, EPS
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
        for step in range(1, 7):
            grads = rng.standard_normal(size) * 10.0 ** rng.integers(-4, 3, size)
            lr = 10.0 ** rng.uniform(-4, -1)
            adam_step(params, grads, state, lr)
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            m *= b1
            m += (1.0 - b1) * grads
            v *= b2
            v += (1.0 - b2) * grads * grads
            ref -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            for got, want in ((params, ref), (state.m, m), (state.v, v)):
                assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def toy_problem(small_snapshot):
    spec = get_pde_spec("burgers")
    samples = qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=1e-3))
    return small_snapshot, spec, samples


class TestTrain:
    def test_deterministic_trajectories(self, toy_problem):
        snapshot, spec, samples = toy_problem
        cfg = TrainConfig(max_iter=5, seed=3)
        results = []
        for _ in range(2):
            net = init_siren((2, 12, 12, 1), seed=3)
            results.append(train(net, samples, spec, snapshot.scales, cfg))
        np.testing.assert_array_equal(results[0].p_trajectory,
                                      results[1].p_trajectory)
        np.testing.assert_array_equal(results[0].loss_history,
                                      results[1].loss_history)

    def test_loss_bookkeeping(self, toy_problem):
        snapshot, spec, samples = toy_problem
        cfg = TrainConfig(max_iter=4, mu1=1.0, mu2=0.5)
        net = init_siren((2, 10, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales, cfg)
        mse, deri, total = result.loss_history.T
        np.testing.assert_allclose(total, 1.0 * mse + 0.5 * deri, rtol=1e-15)

    def test_result_invariants(self, toy_problem):
        snapshot, spec, samples = toy_problem
        cfg = TrainConfig(max_iter=6)
        net = init_siren((2, 10, 1), seed=1)
        result = train(net, samples, spec, snapshot.scales, cfg)
        assert result.iterations == 6
        assert result.p_trajectory.shape == (6, len(spec.terms))
        np.testing.assert_array_equal(result.final_p, result.p_trajectory[-1])
        base, top = cfg.lr_bounds
        assert np.all(result.lr_history >= base)
        assert np.all(result.lr_history <= top)
        assert result.wall_time > 0.0

    def test_single_iteration(self, toy_problem):
        snapshot, spec, samples = toy_problem
        net = init_siren((2, 8, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales,
                       TrainConfig(max_iter=1))
        assert result.iterations == 1

    def test_jet_streams_float32_params_and_gradient_float64(self, toy_problem, monkeypatch):
        snapshot, spec, samples = toy_problem
        seen = []

        def spy_forward(*args, **kwargs):
            jets, cache = forward_jet_with_cache(*args, **kwargs)
            seen.append(("forward", jets.data.dtype,
                         {a.dtype for block in cache for a in block}))
            return jets, cache

        def spy_backward(net, cache, bar):
            grad = jet_backward(net, cache, bar)
            seen.append(("backward", net.params.dtype, grad.dtype))
            return grad

        monkeypatch.setattr(training, "forward_jet_with_cache", spy_forward)
        monkeypatch.setattr(training, "jet_backward", spy_backward)
        net = init_siren((2, 8, 8, 1), seed=0)
        train(net, samples, spec, snapshot.scales, TrainConfig(max_iter=2))
        f64, f32 = np.dtype(np.float64), np.dtype(np.float32)
        assert seen == [("forward", f64, {f32}), ("backward", f64, f64)] * 2
        assert net.params.dtype == f64

    def test_teacher_student_deri_decreases(self, small_snapshot, rng):
        # data emitted by an exactly-representable function: windowed means
        # of the residual loss must come down
        teacher = init_siren((2, 12, 12, 1), seed=21)
        samples = random_sample(small_snapshot, 64, seed=2)
        u_teacher = np.asarray(
            forward_jet(teacher, samples.t_norm, samples.x_norm, 1).u)
        samples.u = u_teacher
        spec = get_pde_spec("burgers")
        net = init_siren((2, 12, 12, 1), seed=22)
        cfg = TrainConfig(learning_rate=1e-4, max_iter=300)
        result = train(net, samples, spec, small_snapshot.scales, cfg)
        deri = result.loss_history[:, 1]
        windows = [deri[i:i + 100].mean() for i in range(0, 300, 100)]
        assert windows[1] < windows[0]
        assert windows[2] < windows[1]

    def test_divergence_flagged_with_partial_trajectory(self, toy_problem):
        snapshot, spec, samples = toy_problem
        net = init_siren((2, 8, 1), seed=0)
        cfg = TrainConfig(max_iter=50, learning_rate=1e7, step_size_up=1)
        result = train(net, samples, spec, snapshot.scales, cfg)
        assert result.diverged
        assert result.iterations < 50
        assert result.iterations == len(result.p_trajectory) == len(result.loss_history)
        np.testing.assert_array_equal(result.final_p, result.p_trajectory[-1])

    def test_fourth_order_custom_spec(self, toy_problem, tmp_path):
        snapshot, _, samples = toy_problem
        path = tmp_path / "ks.json"
        path.write_text(json.dumps({
            "name": "kuramoto-sivashinsky",
            "terms": [[[0, 1], [1, 1]], [[2, 1]], [[4, 1]]]}))
        spec = load_pde_spec(path)
        assert spec.labels[-1] == "u_xxxx" and spec.max_x_order == 4
        net = init_siren((2, 10, 10, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales, TrainConfig(max_iter=3))
        assert result.iterations == 3 and not result.diverged
        assert np.all(np.isfinite(result.final_p))

    def test_zeroth_order_custom_spec(self, toy_problem, tmp_path):
        # u_t = u - u^2 needs no x-derivative; the jets still carry order 1
        snapshot, _, samples = toy_problem
        path = tmp_path / "logistic.json"
        path.write_text(json.dumps({"terms": [[[0, 1]], [[0, 2]]], "true_p": [1, -1]}))
        spec = load_pde_spec(path)
        assert spec.max_x_order == 0
        net = init_siren((2, 10, 10, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales, TrainConfig(max_iter=3))
        assert result.iterations == 3
        assert np.all(np.isfinite(result.final_p))

    def test_empty_samples_rejected(self, toy_problem):
        snapshot, spec, samples = toy_problem
        empty = random_sample(snapshot, 1, seed=0)
        sliced = type(empty)(
            t_norm=empty.t_norm[:0], x_norm=empty.x_norm[:0], u=empty.u[:0],
            window_id=empty.window_id[:0], x_idx=empty.x_idx[:0],
            t_idx=empty.t_idx[:0])
        net = init_siren((2, 8, 1), seed=0)
        with pytest.raises(ValueError):
            train(net, sliced, spec, snapshot.scales, TrainConfig(max_iter=1))


class TestExports:
    def test_trajectory_csv(self, toy_problem, tmp_path):
        snapshot, spec, samples = toy_problem
        net = init_siren((2, 8, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales, TrainConfig(max_iter=3))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "lr", "mse", "deri", "total", "p1", "p2"]
        assert len(rows) == 4
        np.testing.assert_allclose(float(rows[1][2]), result.loss_history[0, 0])

    def test_summary_dict(self, toy_problem):
        snapshot, spec, samples = toy_problem
        net = init_siren((2, 8, 1), seed=0)
        result = train(net, samples, spec, snapshot.scales, TrainConfig(max_iter=2))
        summary = summary_dict(result, spec)
        assert summary["iterations"] == 2
        assert len(summary["final_p"]) == len(spec.terms)
        assert summary["term_labels"] == list(spec.labels)
        assert len(summary["rel_errors"]) == len(spec.terms)
