import csv
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pdegreedy import PRESETS, sampling
from pdegreedy.experiments import eps_grid
from pdegreedy.linalg import SvdConvergenceError, pivoted_qr, svd
from pdegreedy.sampling import (QdeimConfig, SampleSet, qdeim_grid, qdeim_sample, qdeim_window,
                                random_sample, sample_size_grid, select_rank)
from pdegreedy.snapshots import SnapshotMatrix, subdivide_time

from test_linalg import greedy_pivot_oracle


class TestSelectRank:
    def test_rank_one_spectrum(self):
        assert select_rank([1.0, 0.0, 0.0], 1e-3) == 1

    def test_hand_evaluated_threshold(self):
        assert select_rank([3.0, 1.0], 0.3) == 1   # deficit 0.25 < 0.3
        assert select_rank([3.0, 1.0], 0.2) == 2

    def test_never_exceeds_length(self):
        assert select_rank([1.0, 1.0, 1.0], 1e-12) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            select_rank([0.0, 0.0], 0.1)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30)
           .filter(lambda s: sum(s) > 0).map(lambda s: sorted(s, reverse=True)),
           st.lists(st.floats(1e-15, 1.0, exclude_max=True), min_size=2, max_size=2)
           .map(sorted))
    def test_rank_bounded_and_monotone_in_eps(self, sigma, eps_pair):
        small, large = eps_pair
        r_small, r_large = select_rank(sigma, small), select_rank(sigma, large)
        assert 1 <= r_small <= len(sigma)
        assert 1 <= r_large <= r_small


class TestQdeimWindow:
    def test_rank_one_argmax(self, rng):
        a = rng.standard_normal(7)
        b = rng.standard_normal(5)
        [(spatial, temporal)] = qdeim_window(np.outer(a, b), [1e-6])
        assert spatial == [int(np.argmax(np.abs(a)))]
        assert temporal == [int(np.argmax(np.abs(b)))]

    def test_identity_full_rank(self):
        [(spatial, temporal)] = qdeim_window(np.eye(4), [1e-12])
        assert sorted(spatial) == [0, 1, 2, 3]
        assert sorted(temporal) == [0, 1, 2, 3]

    def test_matches_projection_oracle(self, rng):
        u = rng.standard_normal((6, 5))
        [(spatial, temporal)] = qdeim_window(u, [0.05])
        f = svd(u)
        r = len(spatial)
        assert spatial == greedy_pivot_oracle(f.left[:, :r].T)[:r]
        assert temporal == greedy_pivot_oracle(f.right_t[:r, :])[:r]

    def test_rank_deficient_window_bounded_by_numerical_rank(self, rng):
        u = (np.outer(rng.standard_normal(8), rng.standard_normal(6))
             + np.outer(rng.standard_normal(8), rng.standard_normal(6)))
        [(spatial, _)] = qdeim_window(u, [1e-12])
        assert len(spatial) <= 2


class TestQdeimSample:
    def test_count_identity(self, small_snapshot):
        for t_div in (1, 2, 3, 4):
            for eps in np.logspace(-8, -1, 8):
                cfg = QdeimConfig(t_div=t_div, eps_thr=float(eps))
                ss = qdeim_sample(small_snapshot, cfg)
                expected = sum(len(sp) ** 2 for sp in ss.spatial_pivots)
                assert len(ss) == expected

    def test_points_match_grid(self, small_snapshot):
        ss = qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=1e-4))
        np.testing.assert_array_equal(
            ss.u, small_snapshot.u[ss.x_idx, ss.t_idx])
        np.testing.assert_array_equal(
            ss.t_norm, small_snapshot.t_norm[ss.t_idx])
        np.testing.assert_array_equal(
            ss.x_norm, small_snapshot.x_norm[ss.x_idx])
        # loop reference: per window, each spatial pivot over every temporal one
        expected = [(w, i, j) for w, (sp, tp) in
                    enumerate(zip(ss.spatial_pivots, ss.temporal_pivots))
                    for i in sp for j in tp]
        assert list(zip(ss.window_id.tolist(), ss.x_idx.tolist(),
                        ss.t_idx.tolist())) == expected

    def test_temporal_pivots_stay_in_window(self, small_snapshot):
        cfg = QdeimConfig(t_div=3, eps_thr=1e-4)
        ss = qdeim_sample(small_snapshot, cfg)
        windows = subdivide_time(small_snapshot.m, 3)
        for (start, end), pivots in zip(windows, ss.temporal_pivots):
            assert all(start <= j < end for j in pivots)

    def test_deterministic(self, small_snapshot):
        cfg = QdeimConfig(t_div=2, eps_thr=1e-5)
        a = qdeim_sample(small_snapshot, cfg)
        b = qdeim_sample(small_snapshot, cfg)
        assert a.spatial_pivots == b.spatial_pivots
        assert a.temporal_pivots == b.temporal_pivots
        np.testing.assert_array_equal(a.u, b.u)

    def test_rank_monotone_in_eps(self, small_snapshot):
        sizes = [len(qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=e)))
                 for e in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert sizes == sorted(sizes)

    def test_csv_export(self, small_snapshot, tmp_path):
        ss = qdeim_sample(small_snapshot, QdeimConfig(t_div=2, eps_thr=1e-3))
        path = tmp_path / "samples.csv"
        ss.export_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["window", "t_index", "x_index", "t", "x", "u"]
        assert len(rows) - 1 == len(ss)


def _set_bytes(ss: SampleSet):
    arrays = (ss.t_norm, ss.x_norm, ss.u, ss.window_id, ss.x_idx, ss.t_idx)
    return [a.dtype.str + a.tobytes().hex() for a in arrays], \
        ss.spatial_pivots, ss.temporal_pivots


class TestQdeimGrid:
    @pytest.mark.parametrize("pde", sorted(PRESETS))
    def test_equals_per_config_sampler(self, request, pde):
        # the reference factors every window of every config afresh, with no
        # sharing of SVDs, ranks or sets
        snapshot = request.getfixturevalue(f"{pde.replace('-', '_')}_snapshot")
        t_divs, eps_values = (1, 3, 4), eps_grid(*PRESETS[pde].eps_range, 6)
        grid = qdeim_grid(snapshot, t_divs, eps_values)
        assert len(grid) == len(t_divs) * len(eps_values)
        configs = [(t, e) for t in t_divs for e in eps_values]
        for (t_div, eps_thr), ss in zip(configs, grid):
            spatial, temporal, points = [], [], []
            for w, (start, end) in enumerate(subdivide_time(snapshot.m, t_div)):
                factors = svd(snapshot.u[:, start:end])
                r = select_rank(factors.singular_values, eps_thr)
                spatial.append(pivoted_qr(factors.left[:, :r].T)[:r].tolist())
                temporal.append((start + pivoted_qr(factors.right_t[:r])[:r]).tolist())
                points += [(w, i, j) for i in spatial[-1] for j in temporal[-1]]  # spatial-major
            window_id, x_idx, t_idx = np.array(points).T
            reference = SampleSet(
                t_norm=snapshot.t_norm[t_idx], x_norm=snapshot.x_norm[x_idx],
                u=snapshot.u[x_idx, t_idx], window_id=window_id, x_idx=x_idx, t_idx=t_idx,
                spatial_pivots=spatial, temporal_pivots=temporal)
            assert _set_bytes(ss) == _set_bytes(reference)

    def test_one_svd_per_window_one_qr_pair_per_rank(self, small_snapshot, monkeypatch):
        calls = {"svd": 0, "pivoted_qr": 0}

        def counted(name):
            real = getattr(sampling, name)

            def call(a):
                calls[name] += 1
                return real(a)
            return call

        for name in calls:
            monkeypatch.setattr(sampling, name, counted(name))
        sets = list(qdeim_grid(small_snapshot, (1, 2, 3, 4), np.logspace(-12, -1, 12)))
        ranks = {(len(ss.spatial_pivots), w, len(sp))
                 for ss in sets for w, sp in enumerate(ss.spatial_pivots)}
        assert calls == {"svd": 10, "pivoted_qr": 2 * len(ranks)}

    def test_equal_pivots_share_one_set(self, small_snapshot):
        sets = qdeim_grid(small_snapshot, (1, 2, 3, 4), np.logspace(-14, -1, 14))
        pivots = [(ss.spatial_pivots, ss.temporal_pivots) for ss in sets]
        assert len({id(ss) for ss in sets}) < len(sets)  # some thresholds repeat ranks
        for a, b in itertools.combinations(range(len(sets)), 2):
            assert (sets[a] is sets[b]) == (pivots[a] == pivots[b])

    def test_failures_keep_their_position(self, small_snapshot, monkeypatch):
        # a bad pair raises before the first SVD; the error names the first bad
        # pair in grid order
        calls = []
        monkeypatch.setattr(sampling, "svd", lambda a: calls.append(a.shape))
        for t_divs, eps_values, message in [
                ((2, 0), (1e-2,), "t_div 0 out of range [1, 25]"),
                ((2, 99), (1e-2, 1e-4), "t_div 99 out of range [1, 25]"),
                ((2, 99), (1e-2, 1.5), "eps_thr must lie in (0, 1), got 1.5"),
                ((99, 2), (1.5,), "t_div 99 out of range [1, 25]")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                qdeim_grid(small_snapshot, t_divs, eps_values)
        assert calls == []

    def test_all_zero_window_refused_before_any_svd(self, small_snapshot, monkeypatch):
        # columns 17:25 are the last window of t_div 3 (and lie inside t_div 4's 19:25)
        u = small_snapshot.u.copy()
        u[:, 17:25] = 0.0
        zeroed = SnapshotMatrix(u=u, x_phys=small_snapshot.x_phys, t_phys=small_snapshot.t_phys)
        calls = []
        monkeypatch.setattr(sampling, "svd", lambda a: calls.append(a.shape))
        with pytest.raises(ValueError, match=re.escape("t_div 3: columns 17:25 are all zero")):
            qdeim_grid(zeroed, (1, 2, 3, 4), (1e-2, 1e-4))
        assert calls == []

    def test_failed_svd_raises(self, small_snapshot, monkeypatch):
        real = sampling.svd

        def svd_fails_on_narrow_windows(a):
            if a.shape[1] < 10:
                raise SvdConvergenceError(f"SVD iteration did not converge on a "
                                          f"{a.shape[0]}x{a.shape[1]} matrix")
            return real(a)

        monkeypatch.setattr(sampling, "svd", svd_fails_on_narrow_windows)
        assert len(qdeim_grid(small_snapshot, (1, 2), (1e-2, 1e-4))) == 4
        with pytest.raises(SvdConvergenceError, match="on a 48x8 matrix"):
            qdeim_grid(small_snapshot, (1, 3), (1e-2, 1e-4))
        with pytest.raises(SvdConvergenceError):
            qdeim_sample(small_snapshot, QdeimConfig(t_div=3, eps_thr=1e-2))


class TestRandomSample:
    def test_exhaustive_draw(self, small_snapshot):
        total = small_snapshot.n * small_snapshot.m
        ss = random_sample(small_snapshot, total, seed=3)
        assert len(ss) == total
        assert len(set(zip(ss.x_idx.tolist(), ss.t_idx.tolist()))) == total

    def test_same_seed_same_set(self, small_snapshot):
        a = random_sample(small_snapshot, 40, seed=7)
        b = random_sample(small_snapshot, 40, seed=7)
        np.testing.assert_array_equal(a.x_idx, b.x_idx)
        np.testing.assert_array_equal(a.t_idx, b.t_idx)

    def test_size_too_large(self, small_snapshot):
        with pytest.raises(ValueError):
            random_sample(small_snapshot, small_snapshot.n * small_snapshot.m + 1, 0)

    def test_uniformity_chi_square(self):
        # pool many seeds and compare cell counts against the uniform law
        s = SnapshotMatrix.from_physical(
            np.zeros((12, 17)), np.linspace(-1, 1, 12), np.linspace(0, 1, 17))
        counts = np.zeros(12 * 17)
        draws, size = 400, 10
        for seed in range(draws):
            ss = random_sample(s, size, seed=seed)
            np.add.at(counts, ss.x_idx * 17 + ss.t_idx, 1)
        _, p_value = stats.chisquare(counts)
        assert p_value > 1e-3


class TestSampleSizeGrid:
    def test_unit_steps(self):
        assert sample_size_grid(0, 10) == list(range(11))

    def test_wide_range_endpoints(self):
        sizes = sample_size_grid(86, 1444)
        assert len(sizes) == 11
        assert sizes[0] == 86 and sizes[-1] == 1444
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_endpoints_preserved(self):
        sizes = sample_size_grid(50, 1050)
        assert sizes[0] == 50 and sizes[-1] == 1050

    def test_min_not_below_max(self):
        with pytest.raises(ValueError):
            sample_size_grid(10, 10)


def _points(t_idx, x_idx) -> SampleSet:
    t_idx, x_idx = np.asarray(t_idx, dtype=int), np.asarray(x_idx, dtype=int)
    zeros = np.zeros(t_idx.shape[0])
    return SampleSet(t_norm=zeros, x_norm=zeros, u=zeros,
                     window_id=np.zeros(t_idx.shape[0], dtype=int),
                     x_idx=x_idx, t_idx=t_idx)


class TestSampleSetInvariants:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _points([0, 0], [0, 0])
        with pytest.raises(ValueError, match="duplicate"):  # not adjacent
            _points([3, 0, 1, 3, 2], [7, 0, 7, 7, 1])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _points([0, 1, 2], [0, -1, 2])
        with pytest.raises(ValueError, match="negative"):
            _points([0, -1], [0, 0])

    def test_distinct_pairs_accepted(self):
        # transposed pairs and a shared row or column are not duplicates
        assert len(_points([0, 1, 1, 4, 0], [1, 0, 4, 1, 0])) == 5
        assert len(_points([], [])) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QdeimConfig(t_div=0, eps_thr=0.5)
        with pytest.raises(ValueError):
            QdeimConfig(t_div=1, eps_thr=1.5)
