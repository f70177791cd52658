import numpy as np
import pytest
from scipy import stats

from densreg.ingest import (
    DEFAULT_BANDWIDTH,
    KdeConfig,
    ObservationGroup,
    _check_kernel_arguments,
    _log_beta,
    _shape_parameters,
    assemble_mixed,
    group_table,
    kde,
    select_bandwidth,
    shared_bandwidth,
    ucv_score,
)
from densreg.measure import integrate, make_mixed


def _times_log(a: np.ndarray, log_v: np.ndarray, shape: tuple) -> np.ndarray:
    """``a * log_v`` broadcast to ``shape``, with 0 * log 0 taken as 0."""
    return np.multiply(a, log_v, out=np.zeros(shape), where=a != 0)


def beta_kernel(t, b: float, x) -> np.ndarray:
    """Boundary-adapted beta kernel evaluated at data point(s) ``x``.

    The kernel is a beta density in ``x`` whose parameters depend on the
    evaluation point ``t``: plain Beta(t/b, (1-t)/b) in the middle of the
    interval and a bias-reducing modification within 2b of either boundary.
    It is computed in log space, (p-1) log x + (q-1) log(1-x) - log B(p, q),
    with one log B per evaluation point; a zero shape parameter gives NaN.
    Any broadcastable ``t`` and ``x`` in [0, 1] are accepted; the estimators
    use the faster :func:`_raw_kde_matrix`.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_kernel_arguments(t, b, x)
    p, q = _shape_parameters(t.reshape(-1), b)
    log_beta = _log_beta(p, q).reshape(t.shape)
    p, q = p.reshape(t.shape), q.reshape(t.shape)
    shape = np.broadcast_shapes(t.shape, x.shape)
    with np.errstate(divide="ignore"):
        log_x, log_1mx = np.log(x), np.log1p(-x)
    out = _times_log(p - 1.0, log_x, shape)
    out += _times_log(q - 1.0, log_1mx, shape)
    out -= log_beta
    np.exp(out, out=out)
    return out if out.shape else float(out)


@pytest.fixture
def unit_mixed():
    return make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 200)


class TestBetaKernel:
    def test_interior_matches_beta_pdf(self):
        # at t = 0.5 with b = 0.1 the kernel is the Beta(5, 5) density
        val = beta_kernel(0.5, 0.1, 0.5)
        expected = stats.beta.pdf(0.5, 5, 5)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(2.4609, abs=1e-4)
        # cross-check against the explicit beta formula
        b55 = 576.0 / 362880.0
        assert val == pytest.approx(0.5**4 * 0.5**4 / b55, rel=1e-12)

    @pytest.mark.parametrize("b", [0.02, 0.1])
    def test_boundary_shape_parameter_is_one(self, b):
        # the boundary branch collapses to Beta(1, 1/b) at t = 0
        xs = np.linspace(0.001, 0.5, 40)
        got = beta_kernel(np.zeros_like(xs), b, xs)
        expected = stats.beta.pdf(xs, 1.0, 1.0 / b)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("b", [0.02, 0.1])
    def test_branch_continuity_at_switch(self, b):
        # the boundary and interior parameterizations agree where they meet:
        # evaluate both formulas at the same points just around t = 2b
        from densreg.ingest import _rho

        xs = np.linspace(0.05, 0.95, 30)
        for eps in (-1e-9, 1e-9):
            t = 2 * b + eps
            boundary = stats.beta.pdf(xs, _rho(np.full_like(xs, t), b), (1 - t) / b)
            interior = stats.beta.pdf(xs, t / b, (1 - t) / b)
            np.testing.assert_allclose(boundary, interior, atol=1e-8)
            # and the kernel itself has matching one-sided limits
            left = beta_kernel(np.full_like(xs, 2 * b - abs(eps)), b, xs)
            right = beta_kernel(np.full_like(xs, 2 * b + abs(eps)), b, xs)
            np.testing.assert_allclose(left, right, rtol=1e-5)

    @staticmethod
    def _scipy_kernel(t, b, x):
        """The kernel with every beta density from ``scipy.stats``, branch by
        branch: left, then middle, then right, the right winning on overlap."""
        from densreg.ingest import _rho

        t, x = np.broadcast_arrays(t, x)
        out = np.empty(t.shape)
        left, right = t < 2.0 * b, t > 1.0 - 2.0 * b
        mid = ~(left | right)
        with np.errstate(all="ignore"):
            out[left] = stats.beta.pdf(x[left], _rho(t[left], b), (1.0 - t[left]) / b)
            out[mid] = stats.beta.pdf(x[mid], t[mid] / b, (1.0 - t[mid]) / b)
            out[right] = stats.beta.pdf(x[right], t[right] / b, _rho(1.0 - t[right], b))
        return out

    @pytest.mark.parametrize("b", list(KdeConfig().bandwidth_grid) + [0.3, 0.5, 0.7])
    def test_grid_by_data_matches_scipy(self, unit_mixed, b):
        rng = np.random.default_rng(11)
        data = np.concatenate([rng.beta(2, 3, size=300), [0.0, 1.0, 1e-9, 1 - 1e-9]])
        # t = 0 and t = 1 put points in both boundary branches at every b
        t = np.concatenate([[0.0], unit_mixed.grid, [1.0], data])
        got = beta_kernel(t[:, None], b, data[None, :])
        expected = self._scipy_kernel(t[:, None], b, data[None, :])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        # below the smallest normal double there is no relative precision
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("b", [0.02, 0.1])
    def test_boundary_data_points(self, b):
        # x in {0, 1} where a shape parameter is exactly one: 0 * log 0 is 0
        assert beta_kernel(0.0, b, 0.0) == pytest.approx(stats.beta.pdf(0.0, 1.0, 1.0 / b), rel=1e-12)
        assert beta_kernel(1.0, b, 1.0) == pytest.approx(stats.beta.pdf(1.0, 1.0 / b, 1.0), rel=1e-12)
        assert beta_kernel(0.5, b, 0.0) == 0.0
        assert beta_kernel(0.5, b, 1.0) == 0.0

    def test_zero_shape_parameter_is_nan(self):
        # with b > 0.5 the right branch covers t = 0, where p = t / b = 0
        with np.errstate(all="raise"):
            got = beta_kernel(np.array([0.0, 0.5]), 0.6, 0.3)
        assert np.isnan(got[0]) and np.isfinite(got[1])
        assert np.isnan(stats.beta.pdf(0.3, 0.0, 1.0))

    @pytest.mark.parametrize("b", list(KdeConfig().bandwidth_grid) + [0.3, 0.5, 0.6, 0.9])
    def test_matrix_matches_broadcast_kernel(self, unit_mixed, b):
        # the estimators' one-product kernel against the broadcast reference,
        # on the grid and at interior data points as evaluation points
        from densreg.ingest import _raw_kde_matrix

        rng = np.random.default_rng(12)
        data = np.concatenate([rng.beta(2, 3, size=200), [1e-9, 1 - 1e-9]])
        points = np.concatenate([unit_mixed.grid, data])
        got = _raw_kde_matrix(points, data, b)
        expected = beta_kernel(points[:, None], b, data[None, :])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_matrix_rejects_boundary_data(self, unit_mixed, x):
        from densreg.ingest import _raw_kde_matrix

        with pytest.raises(ValueError, match="strictly inside"):
            _raw_kde_matrix(unit_mixed.grid, np.array([0.3, x]), 0.05)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            beta_kernel(1.5, 0.1, 0.5)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            beta_kernel(0.5, 0.1, -0.1)
        with pytest.raises(ValueError, match="bandwidth"):
            beta_kernel(0.5, -0.1, 0.5)


class TestObservationGroup:
    def test_weights_normalized(self):
        g = ObservationGroup([0.0, 0.5, 1.0], [2.0, 2.0, 4.0])
        assert g.weights.sum() == pytest.approx(1.0)

    def test_boundary_shares_sum_to_one(self):
        g = ObservationGroup([0.0, 0.0, 0.3, 1.0], [1, 1, 6, 2])
        p0, p1, p_int = g.boundary_shares()
        assert p0 == pytest.approx(0.2)
        assert p1 == pytest.approx(0.2)
        assert p0 + p1 + p_int == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ObservationGroup([], [])

    def test_interior_without_weight_is_empty(self):
        assert ObservationGroup([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 2.0, 1.0]).interior.sum() == 2
        g = ObservationGroup([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 0.0, 1.0])
        assert not g.interior.any()
        assert g.interior_values.size == g.interior_weights.size == 0

    def test_split_is_made_once_and_read_only(self):
        values = np.array([0.0, 0.3, 0.6, 1.0, 0.9])
        g = ObservationGroup(values, [2.0, 1.0, 3.0, 2.0, 0.0])
        assert g.at_zero.tolist() == [True, False, False, False, False]
        assert g.at_one.tolist() == [False, False, False, True, False]
        assert g.interior.tolist() == [False, True, True, False, True]
        assert g.interior_values.tolist() == [0.3, 0.6, 0.9]
        assert g.interior_weights.tolist() == [0.25, 0.75, 0.0]
        for name in ("values", "weights", "at_zero", "at_one", "interior",
                     "interior_values", "interior_weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[0] = 0
        # the caller's array is copied, not frozen
        values[0] = 0.5
        assert g.values[0] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            ObservationGroup([1.2], [1.0])


class TestKde:
    def test_single_point_integrates_to_one(self, unit_mixed):
        g = ObservationGroup([0.4], [1.0])
        est = kde(g, unit_mixed, 0.05)
        assert float(est @ unit_mixed.grid_weights) == pytest.approx(1.0, abs=1e-8)
        assert np.all(est >= 0)

    def test_uniform_sample_close_to_flat(self, unit_mixed):
        rng = np.random.default_rng(42)
        values = rng.uniform(size=10_000)
        g = ObservationGroup(values, np.ones_like(values))
        est = kde(g, unit_mixed, 0.05)
        assert np.max(np.abs(est - 1.0)) < 0.1

    def test_weight_concentration_limit(self, unit_mixed):
        g_two = ObservationGroup([0.3, 0.7], [1.0 - 1e-9, 1e-9])
        g_one = ObservationGroup([0.3], [1.0])
        a = kde(g_two, unit_mixed, 0.04)
        b = kde(g_one, unit_mixed, 0.04)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_order_invariance_and_weight_splitting(self, unit_mixed):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.05, 0.95, size=20)
        weights = rng.uniform(0.5, 2.0, size=20)
        base = kde(ObservationGroup(values, weights), unit_mixed, 0.06)
        perm = rng.permutation(20)
        shuffled = kde(ObservationGroup(values[perm], weights[perm]), unit_mixed, 0.06)
        np.testing.assert_allclose(base, shuffled, atol=1e-12)
        # duplicating an observation at half weight changes nothing
        values2 = np.concatenate([values, values[:1]])
        weights2 = np.concatenate([weights, weights[:1]])
        weights2[0] *= 0.5
        weights2[-1] = weights2[0]
        doubled = kde(ObservationGroup(values2, weights2), unit_mixed, 0.06)
        np.testing.assert_allclose(base, doubled, atol=1e-12)

    def test_no_interior_rejected(self, unit_mixed):
        g = ObservationGroup([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="interior"):
            kde(g, unit_mixed, 0.05)


class TestSelectBandwidth:
    def test_larger_sample_gets_smaller_bandwidth(self, unit_mixed):
        rng = np.random.default_rng(7)
        cfg = KdeConfig()
        big = ObservationGroup(rng.beta(2, 2, size=500), np.ones(500))
        small = ObservationGroup(rng.beta(2, 2, size=50), np.ones(50))
        b_big = select_bandwidth(big, unit_mixed, cfg)
        b_small = select_bandwidth(small, unit_mixed, cfg)
        assert b_big < b_small

    def test_degenerate_group_falls_back(self, unit_mixed):
        g = ObservationGroup([0.2, 0.8], [1.0, 1.0])
        assert shared_bandwidth([g], unit_mixed, KdeConfig(), ["k"]) == DEFAULT_BANDWIDTH

    def test_fixed_bandwidth_passthrough(self, unit_mixed):
        g = ObservationGroup([0.2, 0.4, 0.8], [1.0, 1.0, 1.0])
        assert shared_bandwidth([g], unit_mixed, KdeConfig(bandwidth=0.07), ["k"]) == 0.07

    def test_fixed_bandwidth_without_usable_group(self, unit_mixed):
        g = ObservationGroup([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert shared_bandwidth([g], unit_mixed, KdeConfig(bandwidth=0.07), ["k"]) == 0.07

    def test_minimum_over_usable_groups(self, unit_mixed):
        rng = np.random.default_rng(7)
        big = ObservationGroup(rng.beta(2, 2, size=500), np.ones(500), ("big",))
        small = ObservationGroup(rng.beta(2, 2, size=50), np.ones(50), ("small",))
        degenerate = ObservationGroup([0.2, 0.8], [1.0, 1.0], ("two",))
        cfg = KdeConfig()
        shared = shared_bandwidth([small, degenerate, big], unit_mixed, cfg, ["k"])
        optima = [select_bandwidth(g, unit_mixed, cfg) for g in (small, big)]
        assert shared == min(optima) < max(optima)

    def test_failing_group_is_named(self, unit_mixed):
        good = ObservationGroup([0.2, 0.4, 0.8], [1.0, 1.0, 1.0], ("a", "1"))
        bad = ObservationGroup([0.2, 0.4, 0.8], [0.0, 1.0, 0.0], ("b", "2"))
        with pytest.raises(ValueError, match=r"^group r=b, s=2: .*all weight"):
            shared_bandwidth([good, bad], unit_mixed, KdeConfig(), ["r", "s"])

    def test_observation_with_all_weight_rejected(self, unit_mixed):
        g = ObservationGroup([0.2, 0.4, 0.8], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="all weight"):
            ucv_score(g, unit_mixed, 0.05)
        with pytest.raises(ValueError, match="all weight"):
            select_bandwidth(g, unit_mixed, KdeConfig())

    def test_score_matches_bruteforce_double_loop(self, unit_mixed):
        rng = np.random.default_rng(3)
        n = 60
        values = rng.beta(3, 2, size=n)
        weights = rng.uniform(0.5, 1.5, size=n)
        g = ObservationGroup(values, weights)
        # the ends of the default grid give the largest exponent terms
        for b in (0.005, 0.03, 0.08, 0.2):
            fast = ucv_score(g, unit_mixed, b)
            slow = self._bruteforce_ucv(g, unit_mixed, b)
            assert fast == pytest.approx(slow, abs=1e-10)

    @staticmethod
    def _bruteforce_ucv(group, measure, b):
        """Direct O(n^2) evaluation with explicit leave-one-out estimators."""
        data = group.values[group.interior]
        w = group.weights[group.interior]
        w = w / w.sum()
        n = data.size
        grid = measure.grid
        gw = measure.grid_weights

        def normalized_estimate(points, weights, eval_points):
            raw = np.zeros_like(eval_points)
            for x, wl in zip(points, weights):
                raw += wl * beta_kernel(eval_points, b, np.full_like(eval_points, x))
            raw_grid = np.zeros_like(grid)
            for x, wl in zip(points, weights):
                raw_grid += wl * beta_kernel(grid, b, np.full_like(grid, x))
            return raw / float(raw_grid @ gw)

        fhat = normalized_estimate(data, w, grid)
        term1 = float((fhat**2) @ gw)
        term2 = 0.0
        for l in range(n):
            keep = np.arange(n) != l
            w_wo = w[keep] / w[keep].sum()
            fl = normalized_estimate(data[keep], w_wo, np.array([data[l]]))
            term2 += w[l] * float(fl[0])
        return term1 - 2.0 * term2


class TestAssembleMixed:
    def test_constructed_shares(self, unit_mixed):
        rng = np.random.default_rng(5)
        interior = rng.beta(2, 3, size=200)
        values = np.concatenate([np.zeros(50), np.ones(25), interior])
        weights = np.ones_like(values)
        g = ObservationGroup(values, weights)
        f = assemble_mixed(g, unit_mixed, KdeConfig(), 0.05)
        atom_mass = float(
            f[:2] @ unit_mixed.atom_weights
        )
        # p0 = 50/275, p1 = 25/275
        assert atom_mass == pytest.approx(75.0 / 275.0, abs=1e-9)
        assert integrate(unit_mixed, f) == pytest.approx(1.0, abs=1e-8)
        assert np.all(f > 0)

    def test_all_mass_at_zero(self, unit_mixed):
        g = ObservationGroup(np.zeros(10), np.ones(10))
        f = assemble_mixed(g, unit_mixed, KdeConfig(), 0.05)
        assert np.all(f > 0)
        assert integrate(unit_mixed, f) == pytest.approx(1.0, abs=1e-10)
        # almost all mass stays on the zero atom after flooring
        assert f[0] > 0.99

    def test_no_interior_observations_flooring(self, unit_mixed):
        g = ObservationGroup([0.0, 1.0], [3.0, 1.0])
        f = assemble_mixed(g, unit_mixed, KdeConfig(), 0.05)
        grid_vals = f[2:]
        assert np.ptp(grid_vals) < 1e-15
        assert np.all(grid_vals > 0)

    @pytest.mark.parametrize(
        "atoms, interval",
        [([(0.3, 1.0), (0.8, 1.0)], (0.0, 1.0)), ([(0.0, 1.0), (2.0, 1.0)], (0.0, 2.0)),
         ([(0.0, 1.0)], (0.0, 1.0))],
        ids=["inner_atoms", "wide_interval", "one_atom"],
    )
    def test_measure_without_boundary_atoms_rejected(self, atoms, interval):
        m = make_mixed(*interval, atoms, 20)
        g = ObservationGroup([0.0, 0.25, 1.0, 0.5], [1, 2, 3, 4])
        with pytest.raises(ValueError, match=r"on \[0, 1\] with atoms at both boundaries"):
            assemble_mixed(g, m, KdeConfig(), 0.05)

    def test_shares_sum_exactly_before_flooring(self):
        g = ObservationGroup([0.0, 0.25, 1.0, 0.5], [1, 2, 3, 4])
        p0, p1, p_int = g.boundary_shares()
        assert p0 + p1 + p_int == 1.0


class TestGroupTable:
    def test_grouping_and_order(self):
        table = {
            "region": ["b", "a", "a", "b"],
            "value": [0.1, 0.2, 0.3, 0.4],
            "weight": [1.0, 1.0, 2.0, 1.0],
        }
        groups, skipped = group_table(table, ["region"])
        assert [g.key for g in groups] == [("a",), ("b",)]
        assert not skipped
        np.testing.assert_allclose(groups[0].values, [0.2, 0.3])

    def test_zero_weight_group_skipped(self):
        table = {
            "region": ["a", "b"],
            "value": [0.5, 0.5],
            "weight": [1.0, 0.0],
        }
        groups, skipped = group_table(table, ["region"])
        assert [g.key for g in groups] == [("a",)]
        assert skipped == [("b",)]
