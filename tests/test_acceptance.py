"""End-to-end acceptance gate.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live). Coefficient-recovery criteria run on generator-validated
snapshots unless the published reference datasets are dropped into
``data/reference/`` as matrix-text files, in which case the exact sample
counts are asserted as well.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from pdegreedy.cli import main as cli_main
from pdegreedy.experiments import (SweepConfig, cluster_records, eps_grid, lloyd,
                                   sweep_greedy, sweep_random)
from pdegreedy.features import (PRESETS, DomainScales, build_theta,
                                composite_loss_and_bar, get_pde_spec, physical_u_t,
                                preset, relative_error, solve_parameters)
from pdegreedy.linalg import pivoted_qr, qr_least_squares, svd
from pdegreedy.sampling import QdeimConfig, qdeim_grid, qdeim_sample, random_sample
from pdegreedy.siren import (DEFAULT_WIDTHS, _layer_views, forward, forward_jet,
                             forward_jet_with_cache, init_siren, jet_backward)
from pdegreedy.snapshots import load_snapshot, save_snapshot
from pdegreedy.training import TrainConfig, train

from test_linalg import greedy_pivot_oracle

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "data" / "reference"
REFERENCE_COUNTS = {"allen-cahn": 394, "kdv": 288, "burgers": 359}
OPERATING_POINTS = {
    "allen-cahn": QdeimConfig(t_div=2, eps_thr=1e-8),
    "burgers": QdeimConfig(t_div=5, eps_thr=1e-6),
    "kdv": QdeimConfig(t_div=2, eps_thr=1e-3),
}


def report(criterion: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" — {detail}" if detail else ""))
    return passed


def run_recovery(snapshot, pde: str):
    spec = get_pde_spec(pde)
    samples = qdeim_sample(snapshot, OPERATING_POINTS[pde])
    net = init_siren(DEFAULT_WIDTHS, seed=0)
    cfg = TrainConfig(max_iter=PRESETS[pde].max_iter, seed=0)
    started = time.perf_counter()
    result = train(net, samples, spec, snapshot.scales, cfg)
    wall = time.perf_counter() - started
    errors = relative_error(spec.true_p, result.final_p)
    return samples, result, errors, wall


@pytest.fixture(scope="module")
def kdv_recovery(kdv_snapshot):
    return run_recovery(kdv_snapshot, "kdv")


class TestCriterion1SampleCounts:
    def test_reference_counts_or_identity(self, allen_cahn_snapshot,
                                          burgers_snapshot, kdv_snapshot):
        generated = {"allen-cahn": allen_cahn_snapshot,
                     "burgers": burgers_snapshot, "kdv": kdv_snapshot}
        for pde, expected in REFERENCE_COUNTS.items():
            ref_path = REFERENCE_DIR / f"{pde}.txt"
            if ref_path.exists():
                snapshot = load_snapshot(ref_path)
                count = len(qdeim_sample(snapshot, OPERATING_POINTS[pde]))
                ok = report(f"criterion 1 ({pde}, reference data)",
                            count == expected, f"{count} samples")
                assert ok
            else:
                # substitute: the pairing identity |samples| = sum_w r_w^2
                # over the full (t_div, eps) grid, under 10 s per dataset,
                # drawn by the sampler sweeps use (one SVD per window)
                snapshot = generated[pde]
                sweep = SweepConfig(eps_values=eps_grid(*preset(pde).eps_range))
                started = time.perf_counter()
                sets = qdeim_grid(snapshot, (1, 2, 3, 4), sweep.eps_values)
                assert len(sets) == 80
                for ss in sets:
                    expected_count = sum(len(sp) ** 2 for sp in ss.spatial_pivots)
                    assert len(ss) == expected_count
                elapsed = time.perf_counter() - started
                ok = report(
                    f"criterion 1 ({pde}, synthetic substitute)",
                    elapsed < 10.0,
                    f"identity holds on 80 configs in {elapsed:.1f}s")
                assert ok


class TestCriterion2KdV:
    def test_kdv_recovery(self, kdv_recovery):
        samples, result, errors, wall = kdv_recovery
        c_err, alpha_err = errors  # u*u_x coefficient -6, u_xxx coefficient -1
        ok = report(
            "criterion 2 (KdV recovery)",
            c_err < 0.05 and alpha_err < 0.10 and wall <= 180.0,
            f"{len(samples)} samples, errors ({c_err:.4f}, {alpha_err:.4f}), "
            f"{wall:.0f}s")
        assert c_err < 0.05
        assert alpha_err < 0.10
        assert wall <= 180.0
        assert ok


class TestCriterion3Burgers:
    def test_burgers_recovery(self, burgers_snapshot):
        samples, result, errors, wall = run_recovery(burgers_snapshot, "burgers")
        lam_err, nu_err = errors  # u*u_x coefficient -1, u_xx coefficient 0.1
        ok = report(
            "criterion 3 (Burgers recovery)",
            lam_err < 0.02 and nu_err < 0.10,
            f"{len(samples)} samples, errors ({lam_err:.4f}, {nu_err:.4f})")
        assert lam_err < 0.02
        assert nu_err < 0.10
        assert ok


class TestCriterion4AllenCahn:
    def test_allen_cahn_recovery(self, allen_cahn_snapshot):
        samples, result, errors, wall = run_recovery(allen_cahn_snapshot, "allen-cahn")
        u_err, u3_err, uxx_err = errors
        # the diffusion coefficient (0.0001) is explicitly not required
        ok = report(
            "criterion 4 (Allen-Cahn recovery)",
            u_err < 0.05 and u3_err < 0.05,
            f"{len(samples)} samples, errors ({u_err:.4f}, {u3_err:.4f}, "
            f"u_xx unasserted {uxx_err:.4f})")
        assert u_err < 0.05
        assert u3_err < 0.05
        assert ok


class TestCriterion5ProtocolCounts:
    def test_sweep_baseline_cluster_counts(self, small_snapshot):
        spec = get_pde_spec("burgers")
        fast = TrainConfig(max_iter=1, widths=(2, 6, 1))
        sweep_cfg = SweepConfig(eps_values=eps_grid(*preset("burgers").eps_range))
        records = sweep_greedy(small_snapshot, spec, sweep_cfg, fast)
        baseline = sweep_random(small_snapshot, spec, 10, 40, fast)
        summary = cluster_records(records, coef_index=0, k=20, n_init=100, seed=0)
        ok = report(
            "criterion 5 (protocol counts)",
            len(records) == 80 and len(baseline) == 55 and summary.k == 20
            and summary.centroids.shape == (20, 2) and summary.n_init == 100,
            f"{len(records)} sweep records, {len(baseline)} baseline records, "
            f"{summary.centroids.shape[0]} centroids")
        assert len(records) == 80
        assert len(baseline) == 55
        assert summary.centroids.shape == (20, 2)
        assert ok


class TestCriterion6Properties:
    def test_a_jets_vs_richardson(self):
        rng = np.random.default_rng(0)
        h, h3 = 1e-4, 2e-4  # order 3 needs the double-precision-optimal step
        worst = {1: 0.0, 2: 0.0, 3: 0.0}
        for trial in range(5):
            net = init_siren(DEFAULT_WIDTHS, seed=trial)
            t = rng.uniform(0, 1, 25)
            x = rng.uniform(-1, 1, 25)
            jet = forward_jet(net, t, x, 3)

            def f(dx):
                return forward(net, t, x + dx)

            def rich(diff, step):
                return (4.0 * diff(step) - diff(2.0 * step)) / 3.0

            fd = {
                1: rich(lambda s: (f(s) - f(-s)) / (2 * s), h),
                2: rich(lambda s: (f(s) - 2 * f(0.0) + f(-s)) / s ** 2, h),
                3: rich(lambda s: (f(2 * s) - 2 * f(s) + 2 * f(-s) - f(-2 * s))
                        / (2 * s ** 3), h3),
            }
            for order in (1, 2, 3):
                ad = jet.by_order(order)
                rel = np.abs(ad - fd[order]) / (np.abs(ad) + np.abs(fd[order]) + 1e-8)
                worst[order] = max(worst[order], float(rel.max()))
        ok = report("criterion 6a (jets vs Richardson FD, 125 cases/order)",
                    all(v < 1e-5 for v in worst.values()),
                    "worst rel " + ", ".join(f"order {k}: {v:.1e}"
                                             for k, v in worst.items()))
        assert all(v < 1e-5 for v in worst.values())
        assert ok

    def test_b_loss_gradients_vs_fd(self):
        rng = np.random.default_rng(3)
        net = init_siren((2, 8, 8, 1), seed=1)
        spec = get_pde_spec("kdv")
        scales = DomainScales(s_t=20.0, s_x=30.0)
        t = rng.uniform(0, 1, 16)
        x = rng.uniform(-1, 1, 16)
        u_data = rng.standard_normal(16)

        def composite(net):
            jets, cache = forward_jet_with_cache(net, t, x, 3)
            theta = build_theta(jets, spec, scales)
            u_t = physical_u_t(jets, scales)
            p = solve_parameters(theta, u_t)
            mse, deri, bar = composite_loss_and_bar(
                jets, u_data, theta, u_t, spec, scales, p, 1.0, 1.0)
            return mse + deri, cache, bar

        _, cache, bar = composite(net)
        grad = jet_backward(net, cache, bar)
        h = 1e-6
        worst = 0.0
        d_weights, d_biases = _layer_views(grad, net.widths)
        for li in range(len(net.weights)):
            for arr, garr in ((net.weights[li], d_weights[li]),
                              (net.biases[li], d_biases[li])):
                flat, gflat = arr.reshape(-1), garr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = composite(net)[0]
                    flat[idx] = orig - h
                    down = composite(net)[0]
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    worst = max(worst, abs(gflat[idx] - fd)
                                / (abs(gflat[idx]) + abs(fd) + 1e-8))
        ok = report("criterion 6b (loss gradients vs FD, all parameters)",
                    worst < 1e-4, f"worst rel {worst:.1e}")
        assert worst < 1e-4
        assert ok

    def test_c_qr_least_squares_vs_normal_equations(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            a = rng.standard_normal((40, 4))
            b = rng.standard_normal(40)
            x = qr_least_squares(a, b)
            oracle = np.linalg.solve(a.T @ a, a.T @ b)
            worst = max(worst, float(np.max(np.abs(x - oracle))))
        ok = report("criterion 6c (QR least squares vs normal equations)",
                    worst < 1e-10, f"worst abs diff {worst:.1e}")
        assert worst < 1e-10
        assert ok

    def test_d_pivoted_qr_greedy_property(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 13))
            a = rng.standard_normal((rows, cols))
            oracle = greedy_pivot_oracle(a)
            assert pivoted_qr(a)[:len(oracle)].tolist() == oracle
            checked += 1
        ok = report("criterion 6d (pivoted QR greedy property)",
                    True, f"{checked} matrices up to 8x12")
        assert ok

    def test_e_truncation_tail_energy(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            a = rng.standard_normal((9, 7))
            f = svd(a)
            for r in range(1, 7):
                low = (f.left[:, :r] * f.singular_values[:r]) @ f.right_t[:r]
                err = np.linalg.norm(a - low)
                tail = np.sqrt(np.sum(f.singular_values[r:] ** 2))
                worst = max(worst, abs(err - tail) / max(tail, 1e-300))
        ok = report("criterion 6e (truncation error = tail energy)",
                    worst < 1e-8, f"worst rel {worst:.1e}")
        assert worst < 1e-8
        assert ok

    def test_f_scale_covariance(self):
        rng = np.random.default_rng(7)
        spec = get_pde_spec("kdv")
        s_t, s_x, x_mid = 20.0, 30.0, 0.0
        scales = DomainScales(s_t=s_t, s_x=s_x)
        worst = 0.0
        for seed in range(5):
            net = init_siren((2, 16, 16, 1), seed=seed)
            physical = net.copy()
            w = physical.weights[0]
            physical.biases[0][:] = net.biases[0] - w[:, 1] * x_mid / s_x
            physical.weights[0][:] = np.column_stack([w[:, 0] / s_t, w[:, 1] / s_x])
            t_p = rng.uniform(0, 20, 50)
            x_p = rng.uniform(-30, 30, 50)
            jets_n = forward_jet(net, t_p / s_t, (x_p - x_mid) / s_x, 3)
            p_a = solve_parameters(build_theta(jets_n, spec, scales),
                                   physical_u_t(jets_n, scales))
            unit = DomainScales(1.0, 1.0)
            jets_p = forward_jet(physical, t_p, x_p, 3)
            p_b = solve_parameters(build_theta(jets_p, spec, unit),
                                   physical_u_t(jets_p, unit))
            worst = max(worst, float(np.max(np.abs(p_a - p_b))))
        ok = report("criterion 6f (scale covariance of the solve)",
                    worst < 1e-8, f"worst abs diff {worst:.1e}")
        assert worst < 1e-8
        assert ok

    def test_g_kmeans_inertia_monotone(self):
        rng = np.random.default_rng(8)
        violations = 0
        for _ in range(10):
            pts = rng.standard_normal((50, 2)) * [100.0, 0.1]
            start = pts[rng.choice(50, 5, replace=False)]
            _, _, history = lloyd(pts, start)
            if any(b > a + 1e-9 for a, b in zip(history, history[1:])):
                violations += 1
        ok = report("criterion 6g (k-means inertia monotone)",
                    violations == 0, "10 Lloyd runs")
        assert violations == 0
        assert ok


class TestCriterion7Determinism:
    def test_cli_repeat_byte_identical(self, tmp_path, small_snapshot):
        snap_path = tmp_path / "snap.txt"
        save_snapshot(small_snapshot, snap_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = cli_main(["train", "--snapshot", str(snap_path),
                             "--pde", "burgers", "--t-div", "2", "--eps", "1e-3",
                             "--max-iter", "3", "--widths", "2,8,1",
                             "--seed", "1", "--out-dir", str(out)])
            assert code == 0
            code = cli_main(["sample", "--snapshot", str(snap_path),
                             "--size", "25", "--seed", "9",
                             "--out-dir", str(out)])
            assert code == 0
        same = all(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("trajectory.csv", "checkpoint.txt", "samples.csv"))
        ok = report("criterion 7 (repeat runs byte-identical)", same,
                    "trajectory.csv, checkpoint.txt, samples.csv")
        assert same
        assert ok


class TestQualitativeNote:
    def test_greedy_beats_random_at_operating_point(self, kdv_snapshot,
                                                    kdv_recovery):
        _, _, greedy_errors, _ = kdv_recovery
        spec = get_pde_spec("kdv")
        size = len(qdeim_sample(kdv_snapshot, OPERATING_POINTS["kdv"]))
        cfg = TrainConfig(max_iter=PRESETS["kdv"].max_iter, seed=0)
        random_errors = []
        for seed in range(5):
            samples = random_sample(kdv_snapshot, size, seed)
            net = init_siren(DEFAULT_WIDTHS, seed=0)
            result = train(net, samples, spec, kdv_snapshot.scales, cfg)
            random_errors.append(relative_error(spec.true_p, result.final_p))
        mean_random = np.mean(random_errors, axis=0)
        better = bool(np.all(mean_random > greedy_errors))
        ok = report(
            "qualitative note (greedy beats 5-seed random mean at "
            f"{size} samples)", better,
            f"greedy ({greedy_errors[0]:.4f}, {greedy_errors[1]:.4f}) vs "
            f"random mean ({mean_random[0]:.4f}, {mean_random[1]:.4f})")
        assert better
        assert ok
