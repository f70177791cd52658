import numpy as np
import pytest

from densreg.measure import integrate, make_discrete, make_mixed

from conftest import make_continuous


class TestMakeDiscrete:
    def test_total_mass_two_atoms(self):
        m = make_discrete([(0, 1), (1, 1)])
        assert m.total_mass == 2.0

    def test_total_mass_three_atoms(self):
        m = make_discrete([(0, 1), (1, 1), (0.5, 1.0)])
        assert m.total_mass == 3.0
        # atoms are kept in location order
        assert list(m.atom_locations) == [0.0, 0.5, 1.0]

    def test_duplicate_location_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_discrete([(0, 1), (0, 2)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_discrete([(0, 1), (1, 0.0)])


class TestMakeMixed:
    def test_unit_interval_with_boundary_atoms(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 100)
        assert m.total_mass == pytest.approx(3.0, abs=1e-12)
        assert abs(m.grid_weights.sum() - 1.0) < 1e-12

    def test_pure_continuous(self):
        m = make_mixed(0, 1, [], 50)
        assert m.n_atoms == 0
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_size"):
            make_mixed(0, 1, [(0, 1)], 2)

    def test_atom_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="within"):
            make_mixed(0, 1, [(1.5, 1.0)], 10)

    def test_grid_nodes_interior_and_disjoint(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 100)
        assert m.grid.min() > 0 and m.grid.max() < 1
        assert not np.isin(m.grid, m.atom_locations).any()

    def test_quadrature_reproduces_length(self):
        for g in (4, 17, 100, 333):
            m = make_mixed(-2.0, 3.5, [], g)
            assert abs(m.grid_weights.sum() - 5.5) < 1e-12


class TestIntegrate:
    def test_constant_on_mixed(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 100)
        assert integrate(m, np.ones(m.size)) == pytest.approx(3.0, abs=1e-12)

    def test_atom_indicator(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 100)
        values = np.zeros(m.size)
        values[:2] = 1.0
        assert integrate(m, values) == pytest.approx(2.0, abs=1e-12)

    def test_linear_integrand_midpoint(self):
        m = make_continuous(0, 1, 100)
        assert integrate(m, 2 * m.grid) == pytest.approx(1.0, abs=1e-4)

    def test_length_mismatch(self):
        m = make_continuous(0, 1, 10)
        with pytest.raises(ValueError, match="length"):
            integrate(m, np.ones(9))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        m = make_mixed(0, 1, [(0, 2), (0.25, 0.5), (1, 1)], 37)
        for _ in range(50):
            u = rng.normal(size=m.size)
            v = rng.normal(size=m.size)
            a, b = rng.normal(size=2)
            lhs = integrate(m, a * u + b * v)
            rhs = a * integrate(m, u) + b * integrate(m, v)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_mixed_integral_splits_exactly(self):
        rng = np.random.default_rng(11)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 64)
        values = rng.normal(size=m.size)
        discrete_part = values[:2] @ m.atom_weights
        continuous_part = values[2:] @ m.grid_weights
        assert integrate(m, values) == discrete_part + continuous_part


class TestMidpointConvergence:
    @pytest.mark.parametrize(
        "func,exact",
        [(lambda t: t ** 2, 1.0 / 3.0), (np.exp, np.e - 1.0)],
    )
    def test_second_order(self, func, exact):
        errors = []
        for g in (25, 50, 100, 200):
            m = make_continuous(0, 1, g)
            errors.append(abs(integrate(m, func(m.grid)) - exact))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        assert all(r > 3.8 for r in ratios)
