from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegreedy import get_pde_spec, snapshots
from pdegreedy.snapshots import (IntegrationBlowupError, SnapshotMatrix,
                                 SnapshotParseError, generate_synthetic,
                                 load_snapshot, save_snapshot, subdivide_time)


def tiny_snapshot():
    return SnapshotMatrix.from_physical(
        np.array([[1.0, 2.0], [3.0, 4.0]]), [-1.0, 1.0], [0.0, 1.0], name="tiny")


class TestNormalization:
    def test_time_midpoint(self):
        s = SnapshotMatrix.from_physical(np.zeros((2, 3)), [-1, 1], [0.0, 5.0, 10.0])
        assert s.t_norm[1] == 0.5

    def test_space_affine_endpoints(self):
        x = np.linspace(-8.0, 8.0, 5)
        s = SnapshotMatrix.from_physical(np.zeros((5, 2)), x, [0.0, 1.0])
        assert s.x_norm[0] == -1.0 and s.x_norm[-1] == 1.0
        assert s.x_norm[2] == 0.0  # x = 0 maps to 0

    def test_kdv_scales(self):
        x = np.linspace(-30.0, 30.0, 4)
        t = np.linspace(0.0, 20.0, 3)
        s = SnapshotMatrix.from_physical(np.zeros((4, 3)), x, t)
        assert s.scales.s_x == 30.0 and s.scales.s_t == 20.0

    def test_idempotent_on_normalized_data(self):
        s = SnapshotMatrix.from_physical(np.zeros((3, 3)),
                                         [-1.0, 0.0, 1.0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(s.x_norm, s.x_phys)

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            SnapshotMatrix.from_physical(np.zeros((2, 2)), [0.0, 0.0], [0.0, 1.0])

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            SnapshotMatrix.from_physical(np.zeros((3, 2)),
                                         [0.0, 2.0, 1.0], [0.0, 1.0])


class TestSubdivide:
    def test_rounding_rule_201_by_2(self):
        assert [b - a for a, b in subdivide_time(201, 2)] == [100, 101]

    def test_exact_division(self):
        assert [b - a for a, b in subdivide_time(9, 3)] == [3, 3, 3]

    def test_single_window(self, small_snapshot):
        assert subdivide_time(small_snapshot.m, 1) == [(0, small_snapshot.m)]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(2, 400).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, m))))
    def test_partition_property(self, m_and_t_div):
        # windows are contiguous, non-overlapping, exhaustive and balanced
        m, t_div = m_and_t_div
        windows = subdivide_time(m, t_div)
        assert len(windows) == t_div
        assert windows[0][0] == 0 and windows[-1][1] == m
        for (_, prev_end), (cur_start, _) in zip(windows[:-1], windows[1:]):
            assert prev_end == cur_start
        widths = [b - a for a, b in windows]
        assert min(widths) >= 1 and max(widths) - min(widths) <= 1
        bounds = [a for a, _ in windows] + [m]
        assert bounds == [round(Fraction(i * m, t_div)) for i in range(t_div + 1)]

    def test_out_of_range(self, small_snapshot):
        with pytest.raises(ValueError):
            subdivide_time(small_snapshot.m, 0)
        with pytest.raises(ValueError):
            subdivide_time(small_snapshot.m, small_snapshot.m + 1)


class TestFileFormats:
    def test_round_trip_tiny(self, tmp_path):
        s = tiny_snapshot()
        path = tmp_path / "tiny.txt"
        save_snapshot(s, path)
        back = load_snapshot(path)
        np.testing.assert_array_equal(back.u, s.u)
        np.testing.assert_array_equal(back.x_phys, s.x_phys)
        np.testing.assert_array_equal(back.t_phys, s.t_phys)

    def test_round_trip_generated(self, tmp_path, small_snapshot):
        path = tmp_path / "snap.txt"
        save_snapshot(small_snapshot, path)
        back = load_snapshot(path)
        np.testing.assert_array_equal(back.u, small_snapshot.u)
        np.testing.assert_array_equal(back.x_phys, small_snapshot.x_phys)

    def test_csv_round_trip(self, tmp_path):
        s = tiny_snapshot()
        path = tmp_path / "tiny.csv"
        save_snapshot(s, path, format="csv")
        back = load_snapshot(path, format="csv")
        np.testing.assert_array_equal(back.u, s.u)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(tmp_path / "absent.txt")

    def test_empty_save_path(self):
        with pytest.raises(OSError):
            save_snapshot(tiny_snapshot(), "")

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n-1 1\n0 1\n1 2\n3 4\n")
        with pytest.raises(SnapshotParseError, match=":1"):
            load_snapshot(path)

    def test_nan_entry_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n-1 1\n0 1\n1 nan\n3 4\n")
        with pytest.raises(SnapshotParseError, match=":4"):
            load_snapshot(path)

    def test_non_monotone_axis_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 -1\n0 1\n1 2\n3 4\n")
        with pytest.raises(SnapshotParseError, match=":2"):
            load_snapshot(path)

    def test_csv_incomplete_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t,u\n0,0,1\n0,1,2\n1,0,3\n")
        with pytest.raises(SnapshotParseError):
            load_snapshot(path, format="csv")


class TestGenerator:
    def test_zero_ic_stays_zero(self):
        spec = get_pde_spec("burgers")
        s = generate_synthetic(spec, 32, 9, (-8, 8, 1.0), init="zero")
        assert np.max(np.abs(s.u)) < 1e-12

    def test_burgers_mean_conserved(self):
        # d/dt integral(u) = 0 under periodic boundaries
        spec = get_pde_spec("burgers")
        s = generate_synthetic(spec, 128, 21, (-8, 8, 2.0), init="gaussian")
        means = s.u.mean(axis=0)
        assert np.max(np.abs(means - means[0])) < 1e-6

    def test_self_convergence(self):
        spec = get_pde_spec("burgers")
        kwargs = dict(n=64, m=9, domain=(-8, 8, 1.0), init="gaussian")
        coarse = generate_synthetic(spec, rtol=1e-6, **kwargs)
        fine = generate_synthetic(spec, rtol=1e-8, **kwargs)
        assert np.max(np.abs(coarse.u[:, -1] - fine.u[:, -1])) < 1e-4

    def test_grid_matches_request(self, small_snapshot):
        assert small_snapshot.u.shape == (48, 25)
        assert small_snapshot.x_phys.shape == (48,)

    def test_blowup_reports_time(self):
        # backward heat equation blows up immediately
        from pdegreedy.features import PdeSpec, term
        bad = PdeSpec(name="backward-heat", terms=(term((2, 1)),), true_p=(-1.0,))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowupError):
                generate_synthetic(bad, 64, 9, (-1, 1, 1.0), init="random-fourier")

    @pytest.mark.parametrize("n, m", [(0, 9), (1, 9), (16, 1), (16, 0)])
    def test_grid_below_two_points_rejected(self, n, m, monkeypatch):
        # refused before the integrator is called
        monkeypatch.setattr(snapshots, "solve_ivp", None)
        with pytest.raises(ValueError, match="need at least 2 grid points"):
            generate_synthetic(get_pde_spec("burgers"), n, m, (-1, 1, 1.0))

    def test_requires_true_coefficients(self):
        from pdegreedy.features import PdeSpec, term
        spec = PdeSpec(name="no-p", terms=(term((0, 1)),))
        with pytest.raises(ValueError):
            generate_synthetic(spec, 16, 4, (-1, 1, 1.0))
