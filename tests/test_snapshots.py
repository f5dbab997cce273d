import json
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from pdegreedy import PRESETS, get_pde_spec, snapshots
from pdegreedy.features import PdeSpec, preset, term
from pdegreedy.snapshots import (IntegrationBlowupError, SnapshotMatrix,
                                 SnapshotParseError, generate_synthetic,
                                 load_snapshot, save_snapshot, subdivide_time)
from test_linalg import run_fresh


def tiny_snapshot():
    return SnapshotMatrix.from_physical(
        np.array([[1.0, 2.0], [3.0, 4.0]]), [-1.0, 1.0], [0.0, 1.0])


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
        save_snapshot(s, path)
        assert path.read_text().startswith("x,t,u\n")
        back = load_snapshot(path)
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

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.sampled_from([".csv", ".CSV", ".txt"]), st.integers(2, 5), st.integers(2, 5),
           st.data())
    def test_round_trip_exact_bytes(self, suffix, n, m, data):
        def axis(length):
            return sorted(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=length,
                                             max_size=length, unique=True)))
        x, t = axis(n), axis(m)
        u = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n * m, max_size=n * m))
        s = SnapshotMatrix.from_physical(np.reshape(u, (n, m)), x, t)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"snap{suffix}"
            save_snapshot(s, path)
            assert path.read_text().startswith("x,t,u\n") == (suffix != ".txt")
            back = load_snapshot(path)
        for field in ("u", "x_phys", "t_phys"):
            assert getattr(back, field).tobytes() == getattr(s, field).tobytes()

    def test_csv_incomplete_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t,u\n0,0,1\n0,1,2\n1,0,3\n")
        with pytest.raises(SnapshotParseError):
            load_snapshot(path)


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

    def test_self_convergence(self, monkeypatch):
        spec = get_pde_spec("burgers")
        kwargs = dict(n=64, m=9, domain=(-8, 8, 1.0), init="gaussian")
        fine = generate_synthetic(spec, **kwargs)  # at snapshots.RTOL, 1e-8
        monkeypatch.setattr(snapshots, "RTOL", 1e-6)
        coarse = generate_synthetic(spec, **kwargs)
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

    @pytest.mark.parametrize("domain", [(0, 1, np.inf), (-np.inf, 1, 1.0), (0, np.inf, 1.0)],
                             ids=["t_max-inf", "x_min-inf", "x_max-inf"])
    def test_infinite_domain_rejected(self, domain, monkeypatch):
        # refused before the integrator is called, with no warning from the grid
        monkeypatch.setattr(snapshots, "solve_ivp", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bad domain"):
                generate_synthetic(get_pde_spec("burgers"), 16, 9, domain)

    def test_requires_true_coefficients(self):
        from pdegreedy.features import PdeSpec, term
        spec = PdeSpec(name="no-p", terms=(term((0, 1)),))
        with pytest.raises(ValueError):
            generate_synthetic(spec, 16, 4, (-1, 1, 1.0))

    def test_call_budget_stops_stiff_spec(self):
        # Kuramoto-Sivashinsky terms: u_xxxx makes the integrating factor so
        # stiff that, without the budget, DOP853 steps for minutes in column 1
        ks = PdeSpec(name="ks-like", terms=(term((0, 1), (1, 1)), term((2, 1)), term((4, 1))),
                     true_p=(-1.0, -1.0, -1.0))
        p = preset(ks.name)
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationBlowupError,
                               match="more than 20000 right-hand-side evaluations"):
                generate_synthetic(ks, p.n, p.m, p.domain, init=p.init)

    @pytest.mark.parametrize("terms, true_p, grid", [
        ((term((0, 1), (1, 1)), term((2, 1)), term((4, 1))), (-1.0, -1.0, -1.0),
         (256, 101, (-8.0, 8.0, 10.0))),
        ((term((2, 1)),), (-1.0,), (64, 9, (-1.0, 1.0, 1.0))),
    ], ids=["ks-like", "backward-heat"])
    def test_stiff_spec_fails_without_warnings(self, terms, true_p, grid):
        # overflow on the way to the failure must not surface as a RuntimeWarning
        spec = PdeSpec(name="stiff", terms=terms, true_p=true_p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationBlowupError):
                generate_synthetic(spec, *grid, init="random-fourier")

    def test_call_budget_allows_wide_output_intervals(self):
        # two KdV intervals of 5 time units: about 24 000 calls each, all of
        # them progress, so the budget must not depend on the output spacing
        p = PRESETS["kdv"]
        s = generate_synthetic(p.spec, p.n, 3, (*p.domain[:2], 10.0), init=p.init)
        assert s.u.shape == (p.n, 3) and np.all(np.isfinite(s.u))


def reference_generate(spec, n, m, domain, init, seed=0, rtol=1e-8):
    """The generator's plain formulation: a product seeded by np.full, one
    inverse FFT per derivative order and two exponentials per right-hand
    side call. Returns the snapshot values and the summed solver nfev."""
    x_min, x_max, t_max = (float(v) for v in domain)
    span = x_max - x_min
    x = x_min + span * np.arange(n) / n
    t = np.linspace(0.0, t_max, m)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=span / n)
    ik = 1j * k
    lin = np.zeros_like(ik)
    nonlinear = []
    for coef, tm in zip(spec.true_p, spec.terms):
        if len(tm.factors) == 1 and tm.factors[0][1] == 1:
            lin = lin + coef * ik ** tm.factors[0][0]
        else:
            nonlinear.append((float(coef), tm.factors))
    dealias = np.ones_like(k)
    dealias[(2 * k.size) // 3:] = 0.0

    def nonlinear_hat(u_hat):
        total = np.zeros(n)
        derivs = {}
        for coef, factors in nonlinear:
            prod = np.full(n, coef)
            for order, power in factors:
                if order not in derivs:
                    derivs[order] = np.fft.irfft(u_hat * ik ** order, n)
                prod = prod * derivs[order] ** power
            total += prod
        return dealias * np.fft.rfft(total)

    def rhs(tau, v):
        return np.exp(-lin * tau) * nonlinear_hat(np.exp(lin * tau) * v)

    u0 = snapshots.INITIAL_CONDITIONS[init](x, x_min, x_max, np.random.default_rng(seed))
    cols, nfev = [u0], 0
    u_hat = np.fft.rfft(u0)
    for j in range(m - 1):
        sol = solve_ivp(rhs, (0.0, t[j + 1] - t[j]), u_hat.astype(complex),
                        method="DOP853", rtol=rtol, atol=1e-10)
        nfev += sol.nfev
        u_hat = np.exp(lin * (t[j + 1] - t[j])) * sol.y[:, -1]
        cols.append(np.fft.irfft(u_hat, n))
    return np.column_stack(cols), nfev


def _reduced(name, n=None):
    # a quarter of the preset's points (or n points) over a tenth of its time span
    p = PRESETS[name]
    x_min, x_max, t_max = p.domain
    return p.spec, n or p.n // 4, 11, (x_min, x_max, t_max / 10), p.init


class TestGeneratorOracle:
    """The batched generator equals the plain formulation byte for byte and
    takes the same solver steps."""

    @pytest.mark.parametrize("case", [
        _reduced("kdv"), _reduced("burgers"), _reduced("allen-cahn"),
        # an odd point count takes the other forward transform
        _reduced("kdv", n=127),
        # no nonlinear term: nothing to transform back
        (PdeSpec(name="linear", terms=(term((2, 1)), term((3, 1))), true_p=(0.05, -0.5)),
         64, 11, (-8.0, 8.0, 1.0), "gaussian"),
        # a squared factor, next to a purely imaginary linear operator
        (PdeSpec(name="mkdv", terms=(term((0, 2), (1, 1)), term((3, 1))), true_p=(-1.0, -0.1)),
         64, 11, (-8.0, 8.0, 1.0), "gaussian"),
    ], ids=["kdv", "burgers", "allen-cahn", "kdv-odd-n", "no-nonlinear-term", "u2-u_x"])
    def test_bytes_and_nfev_match_reference(self, case, monkeypatch):
        spec, n, m, domain, init = case
        nfev = []
        stepper = snapshots.solve_ivp

        def counted(*args, **kwargs):
            sol = stepper(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(snapshots, "solve_ivp", counted)
        s = generate_synthetic(spec, n, m, domain, init=init)
        u, ref_nfev = reference_generate(spec, n, m, domain, init)
        assert s.u.tobytes() == u.tobytes()
        assert sum(nfev) == ref_nfev


def nan_after_start(t, y):
    # finite at t = 0 only: every step is rejected until it underflows
    return (np.nan if t > 0 else 1.0) * y


class TestStepper:
    """snapshots.solve_ivp against scipy's DOP853 outside the generator."""

    @pytest.mark.parametrize("fun, t_bound", [
        (lambda t, y: -0.5 * y + 1j * np.sin(3.0 * t) * y, 2.0),
        (lambda t, y: y * y, 0.9),  # y' = y^2 from 1: stiffens towards t = 1
        (lambda t, y: np.zeros_like(y), 1.0),  # zero error norm: the step grows tenfold
    ], ids=["oscillator", "near-pole", "constant"])
    def test_end_state_and_nfev_match_scipy(self, fun, t_bound):
        y0 = np.array([1.0 + 0.5j, 0.25 - 1j, 0.0j])
        sol = snapshots.solve_ivp(fun, t_bound, y0, 1e-8, 1e-10)
        ref = solve_ivp(fun, (0.0, t_bound), y0, method="DOP853", rtol=1e-8, atol=1e-10)
        assert sol.success and ref.success
        assert sol.y.tobytes() == ref.y[:, -1].tobytes()
        assert sol.nfev == ref.nfev

    def test_step_size_underflow_matches_scipy(self):
        y0 = np.array([1.0 + 0j, -2.0 + 0j])
        with np.errstate(invalid="ignore"):
            sol = snapshots.solve_ivp(nan_after_start, 1.0, y0, 1e-8, 1e-10)
            ref = solve_ivp(nan_after_start, (0.0, 1.0), y0, method="DOP853",
                            rtol=1e-8, atol=1e-10)
        assert not sol.success and not ref.success
        assert sol.message == ref.message == "Required step size is less than spacing between numbers."
        assert sol.nfev == ref.nfev == 5522
        assert sol.y.tobytes() == y0.tobytes()

    def test_step_size_underflow_ends_generation(self, monkeypatch):
        stepper = snapshots.solve_ivp

        def nan_rhs(fun, *args):
            return stepper(lambda tau, v: nan_after_start(tau, fun(tau, v)), *args)

        monkeypatch.setattr(snapshots, "solve_ivp", nan_rhs)
        with pytest.raises(IntegrationBlowupError,
                           match="near t = 0.125: Required step size is less than spacing"):
            generate_synthetic(get_pde_spec("burgers"), 32, 9, (-8.0, 8.0, 1.0))


def test_cli_runs_without_scipy(tmp_path):
    # an interpreter where any scipy import raises: the CLI loads no scipy
    # module, and generate, sample and train each exit 0
    data, flags = tmp_path / "data", ["--pde", "burgers", "--t-div", "2", "--eps", "1e-3"]
    commands = [["generate", "--pde", "burgers", "--n", "64", "--m", "21", "--out-dir", data],
                ["sample", *flags, "--data-dir", data, "--out-dir", tmp_path / "sample"],
                ["train", *flags, "--data-dir", data, "--max-iter", "2",
                 "--out-dir", tmp_path / "train"]]
    out = run_fresh("import json, sys\n"
                    "sys.modules['scipy'] = None\n"
                    "from pdegreedy.cli import main\n"
                    "loaded = sorted(m for m, module in sys.modules.items()\n"
                    "                if m.split('.')[0] == 'scipy' and module)\n"
                    f"codes = [main(argv) for argv in {[[str(a) for a in c] for c in commands]!r}]\n"
                    "print(json.dumps([loaded, codes]))\n")
    assert json.loads(out.splitlines()[-1]) == [[], [0, 0, 0]]
    assert (tmp_path / "train" / "summary.json").is_file()
