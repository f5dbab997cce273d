import csv
import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pdegreedy import experiments, sampling, siren, training
from pdegreedy.experiments import (SweepConfig, cluster_records, eps_grid, export_results,
                                   kmeans, lloyd, read_results, run_record, sweep_greedy,
                                   sweep_random)
from pdegreedy.features import get_pde_spec, preset, relative_error
from pdegreedy.linalg import RankDeficiencyError, SvdConvergenceError
from pdegreedy.sampling import QdeimConfig, qdeim_sample
from pdegreedy.siren import init_siren
from pdegreedy.training import TrainConfig, train

FAST_WIDTHS = (2, 8, 8, 1)


@pytest.fixture(scope="module")
def greedy_records(small_snapshot):
    spec = get_pde_spec("burgers")
    sweep_cfg = SweepConfig(eps_values=eps_grid(*preset("burgers").eps_range))
    train_cfg = TrainConfig(max_iter=2, widths=FAST_WIDTHS)
    return sweep_greedy(small_snapshot, spec, sweep_cfg, train_cfg)


class TestSweepGreedy:
    def test_default_grid_gives_80_records(self, greedy_records):
        assert len(greedy_records) == 80
        assert all(r.sampler == "greedy" for r in greedy_records)

    def test_sample_monotonicity_in_eps(self, greedy_records):
        # for fixed t_div, decreasing eps never removes samples
        for t_div, group in itertools.groupby(greedy_records, key=lambda r: r.t_div):
            counts = [r.n_samples for r in group]  # eps ascending in each group
            assert counts == sorted(counts, reverse=True)

    def test_n_samples_matches_sampler(self, greedy_records, small_snapshot):
        rec = greedy_records[10]
        ss = qdeim_sample(small_snapshot,
                          QdeimConfig(t_div=rec.t_div, eps_thr=rec.eps_thr))
        assert rec.n_samples == len(ss)

    def test_single_pair_matches_direct_train(self, small_snapshot):
        spec = get_pde_spec("burgers")
        cfg = SweepConfig(t_divs=(2,), eps_values=(1e-3,))
        train_cfg = TrainConfig(max_iter=3, seed=6, widths=FAST_WIDTHS)
        [record] = sweep_greedy(small_snapshot, spec, cfg, train_cfg)

        samples = qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=1e-3))
        net = init_siren(FAST_WIDTHS, seed=6)
        direct = train(net, samples, spec, small_snapshot.scales, train_cfg)
        np.testing.assert_array_equal(np.array(record.final_p), direct.final_p)

    @pytest.mark.parametrize("outcome, iterations", [
        ("nonfinite_grad", 1), ("rank_deficient", 2), ("diverged", 2)])
    def test_failures_recorded_not_raised(self, small_snapshot, monkeypatch, outcome,
                                          iterations):
        # each failure ends its run at a fixed iteration; the record keeps the rows so far
        if outcome == "nonfinite_grad":
            monkeypatch.setattr(training, "jet_backward",
                                lambda net, cache, bar: np.full(net.params.size, np.nan))
        elif outcome == "rank_deficient":
            calls, solve = [], training.solve_parameters

            def third_call_fails(theta, u_t):
                calls.append(1)
                if len(calls) == 3:
                    raise RankDeficiencyError(1, 1e-16)
                return solve(theta, u_t)
            monkeypatch.setattr(training, "solve_parameters", third_call_fails)
        results = []
        monkeypatch.setattr(experiments, "train",
                            lambda *a: results.append(train(*a)) or results[-1])
        cfg = (TrainConfig(max_iter=50, learning_rate=1e7, step_size_up=1, widths=(2, 8, 1))
               if outcome == "diverged" else TrainConfig(max_iter=5, widths=FAST_WIDTHS))
        [record] = sweep_greedy(small_snapshot, get_pde_spec("burgers"),
                                SweepConfig(t_divs=(2,), eps_values=(1e-3,)), cfg, jobs=1)
        [result] = results
        assert (record.outcome, record.iterations) == (outcome, iterations)
        assert record.error == result.error and record.error.startswith(
            {"nonfinite_grad": "FloatingPointError: non-finite gradient at adam step 1",
             "rank_deficient": "RankDeficiencyError: ", "diverged": "diverged"}[outcome])
        assert len(result.p_trajectory) == len(result.loss_history) == iterations
        assert record.final_p == tuple(result.p_trajectory[-1])

    def test_undersized_set_recorded_as_error(self, small_snapshot):
        # KdV's 2 terms on the 1 sample that eps 0.5 keeps: refused before any pass
        cfg = SweepConfig(t_divs=(1,), eps_values=(0.5,))
        [record] = sweep_greedy(small_snapshot, get_pde_spec("kdv"), cfg,
                                TrainConfig(max_iter=1, widths=(2, 2, 1)))
        assert (record.outcome, record.iterations, record.n_samples) == ("error", 0, 1)
        assert record.wall_time_s == 0.0
        assert record.error == ("ValueError: 1 samples for 2 terms: "
                                "need at least one sample per term")
        assert np.all(np.isnan(record.rel_errors)) and np.all(np.isnan(record.final_p))


class TestRunRecord:
    def test_summary_fields(self, small_snapshot):
        spec = get_pde_spec("burgers")
        samples = qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=1e-3))
        result = train(init_siren((2, 8, 1), seed=0), samples, spec, small_snapshot.scales,
                       TrainConfig(max_iter=2))
        record = run_record("greedy", {"t_div": 2, "eps_thr": 1e-3}, samples, spec, result)
        assert (record.outcome, record.error, record.iterations) == ("ok", None, 2)
        assert (record.t_div, record.eps_thr, record.size, record.seed) == (2, 1e-3, None, None)
        assert record.n_samples == len(samples) and record.wall_time_s == result.wall_time
        assert record.final_p == tuple(result.final_p)
        assert record.rel_errors == tuple(relative_error(spec.true_p, result.final_p))


DUPLICATED = SweepConfig(t_divs=(3, 4), eps_values=(1e-14, 1e-12, 1e-4))  # 1e-12 repeats 1e-14


def _keys(records):
    """Every record field but the wall time and the repeat mark."""
    return [json.dumps({**dataclasses.asdict(r), "wall_time_s": None, "same_as": None})
            for r in records]


class TestDeduplication:
    def test_equals_per_config_sweep(self, small_snapshot):
        spec = get_pde_spec("burgers")
        train_cfg = TrainConfig(max_iter=2, widths=FAST_WIDTHS)
        records = sweep_greedy(small_snapshot, spec, DUPLICATED, train_cfg)
        per_config = [record for t_div in DUPLICATED.t_divs for eps in DUPLICATED.eps_values
                      for record in sweep_greedy(small_snapshot, spec,
                                                 SweepConfig(t_divs=(t_div,), eps_values=(eps,)),
                                                 train_cfg)]
        assert _keys(records) == _keys(per_config)
        assert [r.same_as for r in records] == [None, 1e-14, None, None, 1e-14, None]
        assert [r.wall_time_s == 0.0 for r in records] == [False, True, False] * 2
        assert all(r.same_as is None for r in per_config)

    def test_pool_sweep_marks_the_same_repeats(self, small_snapshot):
        spec = get_pde_spec("burgers")
        train_cfg = TrainConfig(max_iter=1, widths=FAST_WIDTHS)
        serial = sweep_greedy(small_snapshot, spec, DUPLICATED, train_cfg, jobs=1)
        parallel = sweep_greedy(small_snapshot, spec, DUPLICATED, train_cfg, jobs=2)
        assert _fields(parallel) == _fields(serial)

    def test_one_svd_per_window(self, small_snapshot, monkeypatch):
        calls, real = [], sampling.svd
        monkeypatch.setattr(sampling, "svd", lambda a: calls.append(a.shape) or real(a))
        cfg = SweepConfig(t_divs=(1, 2, 3, 4), eps_values=(1e-14, 1e-6, 1e-2))
        records = sweep_greedy(small_snapshot, get_pde_spec("burgers"), cfg,
                               TrainConfig(max_iter=1, widths=FAST_WIDTHS))
        assert len(records) == 12 and len(calls) == 1 + 2 + 3 + 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_svd_ends_the_sweep_before_any_run(self, small_snapshot, monkeypatch, jobs):
        # t_div 3 cuts 25 columns into windows of under 10, which cannot be factored here
        monkeypatch.setattr(sampling, "svd", _svd_failing_under_10_columns(sampling.svd))
        runs = []
        monkeypatch.setattr(experiments, "train", lambda *a: runs.append(a))
        cfg = SweepConfig(t_divs=(1, 3, 2), eps_values=(1e-2, 1e-4))
        with pytest.raises(SvdConvergenceError, match="on a 48x8 matrix"):
            sweep_greedy(small_snapshot, get_pde_spec("burgers"), cfg,
                         TrainConfig(max_iter=1, widths=FAST_WIDTHS), jobs=jobs)
        assert runs == []


def _svd_failing_under_10_columns(real):
    def svd(a):
        if a.shape[1] < 10:
            raise SvdConvergenceError(f"SVD iteration did not converge on a "
                                      f"{a.shape[0]}x{a.shape[1]} matrix")
        return real(a)
    return svd


class TestRefusedBeforeWork:
    # the small snapshot is 48 x 25
    @pytest.mark.parametrize("t_divs, eps_values, message", [
        ((1, 0), (1e-2,), "t_div 0 out of range [1, 25]"),
        ((1, 26), (1e-2,), "t_div 26 out of range [1, 25]"),
        ((1,), (1e-2, 2.0), "eps_thr must lie in (0, 1), got 2.0"),
    ], ids=["t_div-0", "t_div-above-m", "eps-2"])
    def test_sweep_greedy(self, small_snapshot, monkeypatch, t_divs, eps_values, message):
        work = []
        monkeypatch.setattr(sampling, "svd", lambda a: work.append(a))
        monkeypatch.setattr(experiments, "_map_tasks", lambda *a: work.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_greedy(small_snapshot, get_pde_spec("burgers"),
                         SweepConfig(t_divs=t_divs, eps_values=eps_values),
                         TrainConfig(max_iter=1, widths=FAST_WIDTHS))
        assert work == []

    @pytest.mark.parametrize("min_n, max_n, message", [
        (10, 1201, "size 1201 out of range [1, 1200]"),
        (0, 20, "size 0 out of range [1, 1200]"),
    ], ids=["max-n-above-nm", "min-n-0"])
    def test_sweep_random(self, small_snapshot, monkeypatch, min_n, max_n, message):
        runs = []
        monkeypatch.setattr(experiments, "_map_tasks", lambda *a: runs.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_random(small_snapshot, get_pde_spec("burgers"), min_n, max_n,
                         TrainConfig(max_iter=1, widths=FAST_WIDTHS), repetitions=1)
        assert runs == []


class TestSweepRandom:
    def test_default_protocol_gives_55_records(self, small_snapshot):
        spec = get_pde_spec("burgers")
        records = sweep_random(small_snapshot, spec, 10, 40,
                               TrainConfig(max_iter=1, widths=FAST_WIDTHS))
        assert len(records) == 55
        sizes = sorted({r.size for r in records})
        assert len(sizes) == 11 and sizes[0] == 10 and sizes[-1] == 40

    def test_collapsed_grid_two_records(self, small_snapshot):
        spec = get_pde_spec("burgers")
        records = sweep_random(small_snapshot, spec, 1, 2,
                               TrainConfig(max_iter=1, widths=FAST_WIDTHS), repetitions=1)
        assert len(records) == 2

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_non_positive_repetitions(self, small_snapshot, reps):
        with pytest.raises(ValueError, match="repetitions"):
            sweep_random(small_snapshot, get_pde_spec("burgers"), 5, 10,
                         TrainConfig(max_iter=1, widths=FAST_WIDTHS), repetitions=reps)

    def test_reproducible_with_base_seed(self, small_snapshot):
        spec = get_pde_spec("burgers")
        cfg = TrainConfig(max_iter=1, widths=FAST_WIDTHS)
        a = sweep_random(small_snapshot, spec, 5, 10, cfg, repetitions=2, base_seed=5)
        b = sweep_random(small_snapshot, spec, 5, 10, cfg, repetitions=2, base_seed=5)
        assert [r.seed for r in a] == [r.seed for r in b]
        np.testing.assert_array_equal(np.array([r.final_p for r in a]),
                                      np.array([r.final_p for r in b]))


class TestKmeans:
    def test_k_equals_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 1.0]])
        summary = kmeans(pts, k=3, n_init=5, seed=0)
        assert summary.inertia == pytest.approx(0.0)
        assert sorted(summary.centroids.tolist()) == sorted(pts.tolist())

    def test_two_cluster_exhaustive_oracle(self):
        values = np.array([0.0, 1.0, 10.0, 11.0])
        pts = np.column_stack([values, np.zeros(4)])
        summary = kmeans(pts, k=2, n_init=20, seed=1)
        # oracle: best 2-partition by brute force
        best = None
        for mask_bits in range(1, 15):
            mask = np.array([(mask_bits >> i) & 1 for i in range(4)], dtype=bool)
            if mask.all() or not mask.any():
                continue
            inertia = sum(((values[g] - values[g].mean()) ** 2).sum()
                          for g in (mask, ~mask))
            if best is None or inertia < best[0]:
                best = (inertia, sorted([values[mask].mean(), values[~mask].mean()]))
        assert sorted(summary.centroids[:, 0].tolist()) == pytest.approx(best[1])
        assert summary.inertia == pytest.approx(best[0])

    def test_lloyd_inertia_monotone(self, rng):
        pts = rng.standard_normal((60, 2))
        start = pts[rng.choice(60, 6, replace=False)]
        _, _, history = lloyd(pts, start)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_best_of_inits_bound(self, rng):
        pts = rng.standard_normal((40, 2))
        summary = kmeans(pts, k=4, n_init=10, seed=3)
        seeds = np.random.default_rng(99)
        for _ in range(5):
            start = pts[seeds.choice(40, 4, replace=False)]
            _, _, history = lloyd(pts, start)
            assert summary.inertia <= history[-1] + 1e-12

    @pytest.mark.parametrize("dims", [2, 3])
    def test_lloyd_bytes_equal_per_cluster_mean_loop(self, rng, dims):
        def reference(points, centroids):
            # the per-cluster loop the bincount update replaced
            centroids, labels, history = np.array(centroids, dtype=float), None, []
            for _ in range(300):
                d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
                new_labels = np.argmin(d2, axis=1)
                history.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
                if labels is not None and np.array_equal(new_labels, labels):
                    break
                labels = new_labels
                for c in range(centroids.shape[0]):
                    members = points[labels == c]
                    if members.shape[0]:
                        centroids[c] = members.mean(axis=0)
                    else:
                        worst = np.argmax(d2[np.arange(points.shape[0]), labels])
                        centroids[c] = points[worst]
            return centroids, labels, history

        emptied = 0
        for trial in range(60):
            n = int(rng.integers(20, 300))
            points = rng.standard_normal((n, dims)) * rng.uniform(0.1, 1e4, dims)
            k = int(rng.integers(2, 21))
            # every third start lies far off the points, so clusters empty
            start = (rng.standard_normal((k, dims)) * 1e5 if trial % 3 == 0
                     else points[rng.choice(n, k, replace=False)])
            first = np.argmin(((points[:, None, :] - start[None]) ** 2).sum(axis=2), axis=1)
            emptied += len(np.unique(first)) < k
            got, want = lloyd(points, start), reference(points, start)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]
        assert emptied >= 10

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), k=4)
        with pytest.raises(ValueError, match="n_init"):
            kmeans(np.zeros((3, 2)), k=2, n_init=0)

    def test_cluster_records_20_centroids(self, greedy_records):
        summary = cluster_records(greedy_records, coef_index=0,
                                  k=20, n_init=100, seed=0)
        assert summary.k == 20 and summary.n_init == 100
        assert summary.centroids.shape == (20, 2)


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def failed_record(small_snapshot):
    """A run that raised: NaN coefficients and relative errors."""
    samples = qdeim_sample(small_snapshot, QdeimConfig(t_div=1, eps_thr=0.5))
    return run_record("greedy", {"t_div": 1, "eps_thr": 0.5}, samples, get_pde_spec("burgers"),
                      ValueError("1 samples for 2 terms: need at least one sample per term"))


class TestPersistence:
    def test_csv_row_count_and_schema(self, greedy_records, failed_record, tmp_path):
        export_results([*greedy_records, failed_record], tmp_path)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        n_coefs = len(greedy_records[0].rel_errors)
        assert lines[0] == ("sampler,pde,n_samples,rel_errors,final_p,wall_time_s,t_div,"
                            "eps_thr,size,seed,error,same_as,iterations,outcome,coef_index")
        assert len(lines) - 1 == 81 * n_coefs
        rows = list(csv.DictReader(lines))
        assert {(row["outcome"], row["error"]) for row in rows[:-n_coefs]} == {("ok", "")}
        for ci, row in enumerate(rows[-n_coefs:]):
            assert (row["outcome"], row["iterations"], row["coef_index"]) == ("error", "0", str(ci))
            assert row["error"] == failed_record.error
            assert (row["rel_errors"], row["final_p"]) == ("nan", "nan")
        first = greedy_records[0]
        assert rows[1]["final_p"] == "%.17g" % first.final_p[1]
        assert rows[1]["wall_time_s"] == "%.17g" % first.wall_time_s
        assert (rows[0]["size"], rows[0]["seed"]) == ("", "")

    def test_columns_follow_the_record(self, greedy_records, tmp_path, monkeypatch):
        @dataclasses.dataclass
        class Extended(experiments.ExperimentRecord):
            theta_cond: float | None = None

        monkeypatch.setattr(experiments, "ExperimentRecord", Extended)
        record = Extended(**dataclasses.asdict(greedy_records[0]), theta_cond=12.5)
        export_results([record], tmp_path)
        header, row = (tmp_path / "records.csv").read_text().splitlines()[:2]
        assert header.endswith(",outcome,theta_cond,coef_index")
        assert row.endswith(",ok,12.5,0")

    def test_json_round_trip(self, greedy_records, failed_record, tmp_path):
        records = [*greedy_records, failed_record]
        export_results(records, tmp_path)
        text = (tmp_path / "records.json").read_text()
        assert _strict_json(text)[-1]["final_p"] == [None, None]
        back = read_results(tmp_path / "records.json")
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.sampler == b.sampler and a.t_div == b.t_div
            assert a.n_samples == b.n_samples and a.error == b.error
            np.testing.assert_array_equal(np.array(a.final_p), np.array(b.final_p))
            np.testing.assert_allclose(np.array(a.rel_errors),
                                       np.array(b.rel_errors), equal_nan=True)
        assert np.isnan(back[-1].final_p).all() and np.isnan(back[-1].rel_errors).all()

    def test_records_without_same_as_load(self, greedy_records, failed_record, tmp_path):
        # records.json as written before sweeps marked repeated sets, and as
        # written before records carried their iteration count and outcome
        for absent in (("same_as",), ("iterations", "outcome")):
            payload = [dataclasses.asdict(r) for r in greedy_records[:3]]
            for raw in payload:
                for key in absent:
                    del raw[key]
            path = tmp_path / "records.json"
            path.write_text(json.dumps(payload))
            back = read_results(path)
            for key in absent:
                assert [getattr(r, key) for r in back] == [None] * 3
            assert [r.eps_thr for r in back] == [r.eps_thr for r in greedy_records[:3]]
        # and as written before a NaN was written as null: a bare NaN token
        path.write_text(json.dumps([dataclasses.asdict(failed_record)]))
        assert "NaN" in path.read_text()
        [back] = read_results(path)
        assert back.error == failed_record.error
        assert np.isnan(back.final_p).all() and np.isnan(back.rel_errors).all()


class TestConfigs:
    def test_eps_grid_count_and_endpoints(self):
        grid = eps_grid(1e-10, 1e-2, 20)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(1e-10) and grid[-1] == pytest.approx(1e-2)
        with pytest.raises(ValueError):
            eps_grid(1e-2, 1e-10)

    @pytest.mark.parametrize("count", [1, 0, -1])
    def test_eps_grid_refuses_count_below_two(self, count):
        with pytest.raises(ValueError, match=f"need count >= 2 to include both endpoints, "
                                             f"got {count}"):
            eps_grid(1e-3, 1e-2, count)

    def test_per_pde_defaults(self):
        ac = SweepConfig(eps_values=eps_grid(*preset("allen-cahn").eps_range))
        assert ac.eps_values[0] == pytest.approx(1e-13)
        assert ac.eps_values[-1] == pytest.approx(1e-4)
        assert len(ac.eps_values) == 20 and ac.t_divs == (1, 2, 3, 4)
        kdv = SweepConfig(eps_values=eps_grid(*preset("kdv").eps_range))
        assert kdv.eps_values[0] == pytest.approx(1e-10)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_after_a_threaded_pass(self, small_snapshot, monkeypatch, method):
        # the parent's jet threads are running before the workers start
        monkeypatch.setattr(siren, "_threads", 2)
        siren.forward_jet(init_siren(FAST_WIDTHS), np.linspace(0, 1, 64), np.zeros(64),
                          max_x_order=3)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        spec = get_pde_spec("burgers")
        cfg = SweepConfig(t_divs=(1, 2), eps_values=(1e-2,))
        train_cfg = TrainConfig(max_iter=2, widths=FAST_WIDTHS)
        serial = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=1)
        parallel = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=2)
        assert all(r.error is None for r in serial)
        assert [(r.t_div, r.n_samples, r.final_p) for r in serial] == \
            [(r.t_div, r.n_samples, r.final_p) for r in parallel]

    def test_parallel_jobs_match_serial(self, small_snapshot):
        spec = get_pde_spec("burgers")
        cfg = SweepConfig(t_divs=(1, 2), eps_values=(1e-2, 1e-4))
        train_cfg = TrainConfig(max_iter=1, widths=FAST_WIDTHS)
        serial = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=1)
        parallel = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=2)
        assert [(r.t_div, r.eps_thr, r.n_samples) for r in serial] == \
            [(r.t_div, r.eps_thr, r.n_samples) for r in parallel]
        np.testing.assert_array_equal(np.array([r.final_p for r in serial]),
                                      np.array([r.final_p for r in parallel]))


def _fields(records):
    """Every record field but the wall time; floats print by their exact repr."""
    return [json.dumps({**dataclasses.asdict(r), "wall_time_s": None}) for r in records]


class TestPoolWorkers:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_no_svd_in_a_worker(self, small_snapshot, monkeypatch):
        # forked workers inherit the patch, so an SVD anywhere but here raises
        here, real_svd = os.getpid(), sampling.svd

        def svd_here_only(a):
            if os.getpid() != here:
                raise RuntimeError("SVD in a pool worker")
            return real_svd(a)

        monkeypatch.setattr(sampling, "svd", svd_here_only)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        spec = get_pde_spec("burgers")
        cfg = SweepConfig(t_divs=(1, 2), eps_values=(1e-2, 1e-4))
        train_cfg = TrainConfig(max_iter=1, widths=FAST_WIDTHS)
        parallel = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=2)
        serial = sweep_greedy(small_snapshot, spec, cfg, train_cfg, jobs=1)
        assert [r.error for r in parallel] == [None] * 4
        assert _fields(parallel) == _fields(serial)

    def test_random_jobs_match_serial(self, small_snapshot):
        spec = get_pde_spec("burgers")
        cfg = TrainConfig(max_iter=2, widths=FAST_WIDTHS)
        serial = sweep_random(small_snapshot, spec, 5, 30, cfg, repetitions=2, base_seed=3,
                              jobs=1)
        parallel = sweep_random(small_snapshot, spec, 5, 30, cfg, repetitions=2, base_seed=3,
                                jobs=2)
        assert len(serial) == 22 and all(r.error is None for r in serial)
        assert _fields(parallel) == _fields(serial)
        assert np.array([r.final_p for r in parallel]).tobytes() == \
            np.array([r.final_p for r in serial]).tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_largest_sets_submitted_first(self, small_snapshot, monkeypatch, jobs):
        submitted = []

        def serial_map(fn, tasks, workers):
            submitted.extend(len(task[1]) for task in tasks)
            return [fn(task) for task in tasks]

        monkeypatch.setattr(experiments, "_map_tasks", serial_map)
        spec = get_pde_spec("burgers")
        train_cfg = TrainConfig(max_iter=1, widths=FAST_WIDTHS)
        ordered = sweep_greedy(small_snapshot, spec, DUPLICATED, train_cfg, jobs=jobs)
        assert submitted == sorted(submitted, reverse=True) and len(submitted) == 4
        monkeypatch.undo()
        assert _fields(ordered) == _fields(sweep_greedy(small_snapshot, spec, DUPLICATED,
                                                        train_cfg, jobs=1))

    def test_failed_draw_starts_no_pool(self, small_snapshot, monkeypatch):
        # every set is drawn before the pool: a draw that fails leaves no worker behind
        monkeypatch.setattr(sampling, "svd", _svd_failing_under_10_columns(sampling.svd))
        pools = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
        cfg = SweepConfig(t_divs=(1, 3, 2), eps_values=(1e-2,))
        with pytest.raises(SvdConvergenceError):
            sweep_greedy(small_snapshot, get_pde_spec("burgers"), cfg,
                         TrainConfig(max_iter=1, widths=FAST_WIDTHS), jobs=2)
        assert pools == []
