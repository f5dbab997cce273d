import json
import math

import numpy as np
import pytest

from pdegreedy.features import (PRESETS, DomainScales, PdeSpec, Preset, build_theta,
                                composite_loss_and_bar,
                                get_pde_spec, load_pde_spec, mse_loss,
                                physical_u_t, preset, relative_error,
                                solve_parameters, term, total_loss)
from pdegreedy.siren import Jet, forward_jet, init_siren
from pdegreedy.snapshots import INITIAL_CONDITIONS, generate_synthetic

UNIT = DomainScales(s_t=1.0, s_x=1.0)


def derivative_loss(jets, spec, p, scales=UNIT):
    """The residual term mean((u_t - theta p)^2) of composite_loss_and_bar."""
    theta, u_t = build_theta(jets, spec, scales), physical_u_t(jets, scales)
    return composite_loss_and_bar(jets, jets.u, theta, u_t, spec, scales, p,
                                  mu1=1.0, mu2=1.0)[1]


def jet_of(u=0.0, du_dt=0.0, du_dx=0.0, d2=0.0, d3=0.0):
    return Jet(np.array([[u], [du_dx], [d2], [d3], [du_dt]], dtype=float))


class TestSpecs:
    def test_presets(self):
        ac = get_pde_spec("allen-cahn")
        assert ac.labels == ("u", "u^3", "u_xx")
        assert ac.true_p == (5.0, -5.0, 0.0001)
        assert ac.max_x_order == 2
        kdv = get_pde_spec("kdv")
        assert kdv.labels == ("u*u_x", "u_xxx")
        assert kdv.max_x_order == 3
        burgers = get_pde_spec("burgers")
        assert burgers.true_p == (-1.0, 0.1)

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ValueError, match="^unknown PDE spec 'wave'; presets: allen-cahn"):
            get_pde_spec("wave")
        assert preset("wave") == Preset()  # a custom spec runs the defaults

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_entry_runs(self, name):
        p = PRESETS[name]
        assert p.spec.name == name and p.spec.true_p is not None
        assert p.init in INITIAL_CONDITIONS
        lo, hi = p.eps_range
        assert 0 < lo < hi < 1 and p.max_iter >= 1
        snap = generate_synthetic(p.spec, 32, 5, p.domain, init=p.init)
        assert snap.u.shape == (32, 5) and np.all(np.isfinite(snap.u))

    def test_custom_spec_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "toy", "terms": [[[0, 2]], [[1, 1], [2, 1]]],
            "true_p": [1.5, -2.0]}))
        spec = load_pde_spec(path)
        assert spec.labels == ("u^2", "u_x*u_xx")
        assert spec.true_p == (1.5, -2.0)

    def test_term_validation(self):
        with pytest.raises(ValueError):
            term((-1, 1))
        with pytest.raises(ValueError):
            term((1, 0))
        with pytest.raises(ValueError):
            PdeSpec(name="bad", terms=(term((0, 1)),), true_p=(1.0, 2.0))


class TestBuildTheta:
    def test_constant_field_allen_cahn(self):
        c = 0.7
        theta = build_theta(jet_of(u=c), get_pde_spec("allen-cahn"), UNIT)
        np.testing.assert_allclose(theta, [[c, c ** 3, 0.0]])

    def test_kdv_term_arithmetic(self):
        theta = build_theta(jet_of(u=2.0, du_dx=3.0, d3=5.0),
                            get_pde_spec("kdv"), UNIT)
        np.testing.assert_allclose(theta, [[6.0, 5.0]])

    def test_chain_rule_second_order(self):
        spec = PdeSpec(name="diffusion", terms=(term((2, 1)),))
        theta = build_theta(jet_of(d2=8.0), spec, DomainScales(s_t=1.0, s_x=2.0))
        np.testing.assert_allclose(theta, [[2.0]])

    def test_missing_order_rejected(self):
        jet = Jet(np.zeros((3, 1)))  # max_x_order 1
        with pytest.raises(ValueError):
            build_theta(jet, get_pde_spec("kdv"), UNIT)

    def test_row_order_follows_batch(self, rng):
        spec = get_pde_spec("burgers")
        n = 6
        jets = Jet(rng.standard_normal((5, n)))
        theta = build_theta(jets, spec, UNIT)
        assert theta.shape == (n, len(spec.terms))
        perm = rng.permutation(n)
        permuted = Jet(jets.data[:, perm])
        np.testing.assert_allclose(build_theta(permuted, spec, UNIT), theta[perm])


class TestSolve:
    def test_identity(self, rng):
        u_t = rng.standard_normal(3)
        np.testing.assert_allclose(solve_parameters(np.eye(3), u_t), u_t)

    def test_consistent_system_recovers_exactly(self, rng):
        theta = rng.standard_normal((40, 2))
        p_true = np.array([-6.0, -1.0])
        p_hat = solve_parameters(theta, theta @ p_true)
        np.testing.assert_allclose(p_hat, p_true, atol=1e-10)

    def test_scale_covariance(self, rng):
        # estimating on normalized inputs with the chain-rule correction must
        # match estimating on a net rewired to take physical inputs directly
        t_min, s_t = 0.0, 20.0
        x_min, x_max = -30.0, 30.0
        s_x = (x_max - x_min) / 2.0
        x_mid = (x_max + x_min) / 2.0
        scales = DomainScales(s_t=s_t, s_x=s_x)
        spec = get_pde_spec("kdv")

        net = init_siren((2, 16, 16, 1), seed=5)
        physical = net.copy()
        w = physical.weights[0]
        physical.biases[0][:] = (net.biases[0]
                                 - w[:, 0] * t_min / s_t - w[:, 1] * x_mid / s_x)
        physical.weights[0][:] = np.column_stack([w[:, 0] / s_t, w[:, 1] / s_x])

        t_phys = rng.uniform(0.0, 20.0, 60)
        x_phys = rng.uniform(-30.0, 30.0, 60)
        t_norm = (t_phys - t_min) / s_t
        x_norm = (x_phys - x_mid) / s_x

        jets_norm = forward_jet(net, t_norm, x_norm, 3)
        p_a = solve_parameters(build_theta(jets_norm, spec, scales),
                               physical_u_t(jets_norm, scales))

        jets_phys = forward_jet(physical, t_phys, x_phys, 3)
        p_b = solve_parameters(build_theta(jets_phys, spec, UNIT),
                               physical_u_t(jets_phys, UNIT))
        assert np.max(np.abs(p_a - p_b)) < 1e-8


class TestLosses:
    def test_mse_perfect_fit(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_single_sample(self):
        assert mse_loss([1.0], [0.0]) == 1.0

    def test_mse_direct_accumulation_oracle(self, rng):
        u = rng.standard_normal(17)
        v = rng.standard_normal(17)
        direct = sum((a - b) ** 2 for a, b in zip(u, v)) / 17
        assert mse_loss(u, v) == pytest.approx(direct, rel=1e-14)

    def test_mse_empty_batch(self):
        with pytest.raises(ValueError):
            mse_loss([], [])

    def test_derivative_loss_consistent_system(self, rng):
        jets = Jet(rng.standard_normal((5, 10)))
        spec, p = get_pde_spec("kdv"), np.array([2.0, -3.0])
        jets.data[-1] = build_theta(jets, spec, UNIT) @ p  # u_t = theta p exactly
        assert derivative_loss(jets, spec, p) == pytest.approx(0.0, abs=1e-28)

    def test_derivative_loss_hand_toy(self):
        # theta = u = (1,1,1)^T, u_t = (0,1,2): p_hat = 1, residual (−1,0,1)
        jets = Jet(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))
        spec = PdeSpec(name="toy", terms=(term((0, 1)),))
        p = solve_parameters(build_theta(jets, spec, UNIT), physical_u_t(jets, UNIT))
        assert p[0] == pytest.approx(1.0)
        assert derivative_loss(jets, spec, p) == pytest.approx(2.0 / 3.0)

    def test_derivative_loss_nonnegative_and_optimal(self, rng):
        jets = Jet(rng.standard_normal((5, 20)))
        spec = get_pde_spec("kdv")
        p = solve_parameters(build_theta(jets, spec, UNIT), physical_u_t(jets, UNIT))
        base = derivative_loss(jets, spec, p)
        assert base >= 0.0
        for _ in range(20):
            other = p + 1e-2 * rng.standard_normal(2)
            assert base <= derivative_loss(jets, spec, other) + 1e-12

    def test_derivative_loss_shape_mismatch(self):
        jets = Jet(np.ones((2, 3)))
        spec = PdeSpec(name="toy", terms=(term((0, 1)),))
        with pytest.raises(ValueError):
            composite_loss_and_bar(jets, np.ones(3), np.ones((2, 1)), np.ones(3), spec,
                                   UNIT, np.ones(1), mu1=1.0, mu2=1.0)

    def test_total_loss(self):
        assert total_loss(2.0, 3.0, 1.0, 1.0) == 5.0
        assert total_loss(0.0, 0.0, 1.0, 1.0) == 0.0
        assert total_loss(2.0, 3.0, 0.5, 0.25) == pytest.approx(1.75)
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, mu1=0.0, mu2=1.0)
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, mu1=1.0, mu2=1.5)


class TestRelativeError:
    def test_kdv_first_coefficient(self):
        err = relative_error([-6.0], [-5.971])
        assert err[0] == pytest.approx(0.00483, abs=5e-5)

    def test_equal_vectors(self):
        np.testing.assert_array_equal(relative_error([1.0, -2.0], [1.0, -2.0]),
                                      [0.0, 0.0])

    def test_burgers_viscosity(self):
        assert relative_error([0.1], [0.0996])[0] == pytest.approx(0.004, abs=1e-12)

    def test_zero_truth_flagged(self):
        err = relative_error([0.0, 2.0], [0.5, 2.0])
        assert math.isnan(err[0]) and err[1] == 0.0


class TestCompositeBar:
    def test_bar_matches_manual_mse_only(self, rng):
        # with mu2 tiny the u-bar reduces to the mse derivative
        n = 5
        jets = Jet(rng.standard_normal((5, n)))
        u_data = rng.standard_normal(n)
        spec = get_pde_spec("kdv")
        theta = build_theta(jets, spec, UNIT)
        u_t = physical_u_t(jets, UNIT)
        p = np.zeros(2)
        mse, deri, bar = composite_loss_and_bar(
            jets, u_data, theta, u_t, spec, UNIT, p, mu1=1.0, mu2=1.0)
        assert mse == pytest.approx(mse_loss(u_data, jets.u))
        assert deri == pytest.approx(np.mean((u_t - theta @ p) ** 2))
        # with p = 0 no gradient flows into the library columns
        np.testing.assert_allclose(bar.u, 2.0 / n * (jets.u - u_data))
        np.testing.assert_allclose(bar.by_order(1), np.zeros(n))
        np.testing.assert_allclose(bar.du_dt, 2.0 / n * (u_t - theta @ p))
