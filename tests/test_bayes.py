import numpy as np
import pytest

from densreg.bayes import (
    ClrElement,
    clr,
    clr_inv,
    decompose_clr,
    decompose_clr_rows,
    embed_clr_continuous,
    embed_clr_continuous_rows,
    embed_clr_discrete,
    embed_clr_discrete_rows,
)
from densreg.measure import integrate, make_discrete, make_mixed

from bayes_oracle import (
    constant_density,
    density,
    decompose_mixed,
    embed_continuous,
    embed_discrete,
    equal_b,
    geometric_mean_continuous,
    geometric_mean_full,
    inner,
    inverse,
    norm,
    perturb,
    power,
    subtract,
)
from conftest import make_continuous, random_density


def two_point(values):
    return density(make_discrete([(0.0, 1.0), (1.0, 1.0)]), values)


class TestPerturb:
    def test_uniform_is_neutral(self):
        f = two_point([0.8, 0.2])
        e = two_point([0.5, 0.5])
        assert equal_b(perturb(f, e), f)

    def test_opposite_pair(self):
        f = two_point([0.8, 0.2])
        g = two_point([0.2, 0.8])
        np.testing.assert_allclose(perturb(f, g).values, [0.5, 0.5], atol=1e-14)

    def test_inverse_gives_constant(self):
        rng = np.random.default_rng(0)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 30)
        f = random_density(m, rng)
        assert equal_b(perturb(f, inverse(f)), constant_density(m))

    def test_measure_mismatch(self):
        f = two_point([0.8, 0.2])
        g = density(make_discrete([(0.0, 2.0), (1.0, 1.0)]), [0.5, 0.5])
        with pytest.raises(ValueError, match="measure"):
            perturb(f, g)


class TestPower:
    def test_identity(self):
        f = two_point([0.8, 0.2])
        assert equal_b(power(1.0, f), f)

    def test_zero_gives_constant(self):
        f = two_point([0.8, 0.2])
        assert equal_b(power(0.0, f), constant_density(f.measure))

    def test_square(self):
        f = two_point([0.8, 0.2])
        np.testing.assert_allclose(power(2.0, f).values, [16 / 17, 1 / 17], atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            power(np.inf, two_point([0.5, 0.5]))


class TestClr:
    def test_constant_maps_to_zero(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 20)
        z = clr(constant_density(m))
        np.testing.assert_allclose(z.values, 0.0, atol=1e-14)

    def test_symmetric_two_point(self):
        f = two_point([2.0, 0.5])
        np.testing.assert_allclose(z := clr(f).values, [np.log(2), -np.log(2)], atol=1e-14)
        assert abs(z.sum()) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(5)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 40)
        for _ in range(25):
            f, g = random_density(m, rng), random_density(m, rng)
            lhs = clr(perturb(f, g)).values
            rhs = clr(f).values + clr(g).values
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(6)
        for m in (
            make_discrete([(0, 1), (1, 2), (2, 0.5)]),
            make_continuous(0, 1, 50),
            make_mixed(0, 1, [(0, 1), (1, 1)], 50),
        ):
            f = density(m, random_density(m, rng).values)
            back = clr_inv(clr(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-10

    def test_clr_inv_zero_gives_constant(self):
        m = make_continuous(0, 1, 30)
        z = ClrElement(m, np.zeros(m.size))
        assert equal_b(clr_inv(z), constant_density(m))

    def test_clr_inv_log_two_point(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        z = ClrElement(m, [np.log(2), -np.log(2)])
        np.testing.assert_allclose(clr_inv(z).values, [0.8, 0.2], atol=1e-14)

    def test_nonzero_integral_rejected(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="zero"):
            ClrElement(m, [1.0, 0.5])


class TestInner:
    def test_constant_is_orthogonal_to_everything(self):
        rng = np.random.default_rng(1)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 25)
        f = random_density(m, rng)
        assert abs(inner(f, constant_density(m))) < 1e-12

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        m = make_continuous(0, 1, 40)
        f = random_density(m, rng)
        assert inner(f, f) > 0
        assert inner(constant_density(m), constant_density(m)) == pytest.approx(0, abs=1e-15)

    def test_matches_weighted_clr_product(self):
        rng = np.random.default_rng(3)
        m = make_mixed(0, 1, [(0, 0.5), (1, 2.0)], 30)
        for _ in range(20):
            f, g = random_density(m, rng), random_density(m, rng)
            direct = inner(f, g)
            via_clr = float((clr(f).values * clr(g).values) @ m.weights)
            assert abs(direct - via_clr) < 1e-10


class TestGeometricMean:
    def test_constant(self):
        m = make_discrete([(0, 1), (1, 1)])
        f = density(m, [3.0, 3.0], normalize=False)
        assert geometric_mean_full(f) == pytest.approx(3.0, abs=1e-12)

    def test_discrete_unit_weights(self):
        m = make_discrete([(0, 1), (1, 1), (2, 1)])
        f = density(m, [1.0, 2.0, 4.0], normalize=False)
        assert geometric_mean_full(f) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_density(self):
        m = make_continuous(0, 1, 400)
        f = density(m, np.exp(m.grid), normalize=False)
        assert geometric_mean_full(f) == pytest.approx(np.exp(0.5), abs=1e-4)


class TestMixedDecomposition:
    def test_constant_splits_into_constants(self, mixed_measure):
        f = constant_density(mixed_measure)
        f_c, f_d = decompose_mixed(f)
        assert np.ptp(f_c.values) < 1e-14
        np.testing.assert_allclose(f_d.values, 1.0, atol=1e-12)

    def test_worked_example(self, mixed_measure):
        raw = np.concatenate([[2.0, 2.0], np.ones(100)])
        f = density(mixed_measure, raw, normalize=False)
        f_c, f_d = decompose_mixed(f)
        np.testing.assert_allclose(f_d.values, [2.0, 2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(f_c.values, 1.0, atol=1e-12)
        # stand-in point carries the Lebesgue length as weight
        assert f_d.measure.atom_weights[-1] == pytest.approx(1.0)

    def test_pythagoras(self, mixed_measure):
        rng = np.random.default_rng(8)
        for _ in range(500):
            f = random_density(mixed_measure, rng)
            f_c, f_d = decompose_mixed(f)
            total = norm(f) ** 2
            assert abs(total - norm(f_c) ** 2 - norm(f_d) ** 2) < 1e-9 * max(1.0, total)

    def test_rejects_pure_measures(self):
        with pytest.raises(ValueError, match="mixed"):
            decompose_mixed(constant_density(make_continuous(0, 1, 10)))
        with pytest.raises(ValueError, match="mixed"):
            decompose_mixed(constant_density(make_discrete([(0, 1), (1, 1)])))

    def test_roundtrip(self, mixed_measure):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = random_density(mixed_measure, rng)
            f_c, f_d = decompose_mixed(f)
            back = perturb(
                embed_continuous(f_c, mixed_measure),
                embed_discrete(f_d, mixed_measure),
            )
            assert equal_b(back, f)


class TestEmbeddings:
    def test_constant_embeds_to_constant(self, mixed_measure):
        from densreg.bayes import continuous_submeasure

        f_c = constant_density(continuous_submeasure(mixed_measure))
        emb = embed_continuous(f_c, mixed_measure)
        assert equal_b(emb, constant_density(mixed_measure))

    def test_orthogonality(self, mixed_measure):
        from densreg.bayes import continuous_submeasure, discrete_star_measure

        rng = np.random.default_rng(10)
        mc = continuous_submeasure(mixed_measure)
        md = discrete_star_measure(mixed_measure)
        for _ in range(50):
            f_c = random_density(mc, rng)
            f_d = random_density(md, rng)
            ip = inner(embed_continuous(f_c, mixed_measure), embed_discrete(f_d, mixed_measure))
            assert abs(ip) < 1e-10

    def test_isometry(self, mixed_measure):
        from densreg.bayes import continuous_submeasure, discrete_star_measure

        rng = np.random.default_rng(11)
        mc = continuous_submeasure(mixed_measure)
        md = discrete_star_measure(mixed_measure)
        for _ in range(50):
            f_c = random_density(mc, rng)
            f_d = random_density(md, rng)
            assert abs(norm(embed_continuous(f_c, mixed_measure)) - norm(f_c)) < 1e-10
            assert abs(norm(embed_discrete(f_d, mixed_measure)) - norm(f_d)) < 1e-10


class TestClrDecomposition:
    def test_zero(self, mixed_measure):
        z = ClrElement(mixed_measure, np.zeros(mixed_measure.size))
        z_c, z_d = decompose_clr(z)
        np.testing.assert_allclose(z_c.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(z_d.values, 0.0, atol=1e-14)

    def test_constant_grid_zero_sum_atoms(self, mixed_measure):
        values = np.concatenate([[1.0, -1.0], np.zeros(100)])
        z = ClrElement(mixed_measure, values)
        z_c, z_d = decompose_clr(z)
        np.testing.assert_allclose(z_c.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(z_d.values, [1.0, -1.0, 0.0], atol=1e-14)

    def test_commutes_with_density_decomposition(self, mixed_measure):
        rng = np.random.default_rng(12)
        for _ in range(100):
            f = random_density(mixed_measure, rng)
            f_c, f_d = decompose_mixed(f)
            z_c, z_d = decompose_clr(clr(f))
            assert np.max(np.abs(z_c.values - clr(f_c).values)) < 1e-9
            assert np.max(np.abs(z_d.values - clr(f_d).values)) < 1e-9

    def test_clr_embedding_commutation(self, mixed_measure):
        from densreg.bayes import continuous_submeasure

        rng = np.random.default_rng(13)
        mc = continuous_submeasure(mixed_measure)
        for _ in range(50):
            f_c = random_density(mc, rng)
            lhs = clr(embed_continuous(f_c, mixed_measure)).values
            rhs = embed_clr_continuous(clr(f_c), mixed_measure).values
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_clr_discrete_embedding_commutation(self, mixed_measure):
        from densreg.bayes import discrete_star_measure

        rng = np.random.default_rng(14)
        md = discrete_star_measure(mixed_measure)
        for _ in range(50):
            f_d = random_density(md, rng)
            lhs = clr(embed_discrete(f_d, mixed_measure)).values
            rhs = embed_clr_discrete(clr(f_d), mixed_measure).values
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestClrRowForms:
    """The N x P array forms against the per-row arithmetic they replace."""

    def test_decompose_rows_match_per_row(self, mixed_measure):
        m = mixed_measure
        rng = np.random.default_rng(16)
        z = np.stack([clr(random_density(m, rng)).values for _ in range(30)])
        z_c, z_d = decompose_clr_rows(z, m)
        for row, row_c, row_d in zip(z, z_c, z_d):
            # the element form before batching: one dot product per row
            grid_mean = float(row[m.n_atoms:] @ m.grid_weights) / m.lebesgue_length
            np.testing.assert_allclose(row_c, row[m.n_atoms:] - grid_mean, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                row_d, np.concatenate([row[: m.n_atoms], [grid_mean]]), rtol=0, atol=1e-14
            )

    def test_embed_rows_match_per_row_exactly(self, mixed_measure):
        m = mixed_measure
        rng = np.random.default_rng(17)
        z_c = rng.normal(size=(5, m.n_grid))
        z_d = rng.normal(size=(5, m.n_atoms + 1))
        cont = embed_clr_continuous_rows(z_c, m)
        disc = embed_clr_discrete_rows(z_d, m)
        for i in range(5):
            np.testing.assert_array_equal(cont[i], np.concatenate([np.zeros(m.n_atoms), z_c[i]]))
            np.testing.assert_array_equal(
                disc[i], np.concatenate([z_d[i, :-1], np.full(m.n_grid, z_d[i, -1])])
            )

    def test_decompose_embed_round_trip(self, mixed_measure):
        m = mixed_measure
        rng = np.random.default_rng(18)
        z = np.stack([clr(random_density(m, rng)).values for _ in range(20)])
        z_c, z_d = decompose_clr_rows(z, m)
        back = embed_clr_continuous_rows(z_c, m) + embed_clr_discrete_rows(z_d, m)
        np.testing.assert_allclose(back, z, rtol=0, atol=1e-12)

    def test_shape_and_measure_checks(self, mixed_measure, continuous_measure):
        m = mixed_measure
        with pytest.raises(ValueError, match="mixed"):
            decompose_clr_rows(np.zeros((2, continuous_measure.size)), continuous_measure)
        with pytest.raises(ValueError, match="shape"):
            decompose_clr_rows(np.zeros((2, m.size - 1)), m)
        with pytest.raises(ValueError, match="grid"):
            embed_clr_continuous_rows(np.zeros((2, m.n_grid + 1)), m)
        with pytest.raises(ValueError, match="atoms"):
            embed_clr_discrete_rows(np.zeros((2, m.n_atoms)), m)


class TestVectorSpaceAxioms:
    @pytest.mark.parametrize("kind", ["discrete", "continuous", "mixed"])
    def test_axioms(self, kind):
        rng = np.random.default_rng(15)
        m = {
            "discrete": make_discrete([(0, 1), (0.5, 2), (1, 1)]),
            "continuous": make_continuous(0, 1, 60),
            "mixed": make_mixed(0, 1, [(0, 1), (1, 1)], 60),
        }[kind]
        for _ in range(40):
            f, g = random_density(m, rng), random_density(m, rng)
            a, b = rng.normal(size=2)
            lhs = power(a + b, f)
            rhs = perturb(power(a, f), power(b, f))
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10
            lhs = power(a, perturb(f, g))
            rhs = perturb(power(a, f), power(a, g))
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_subtract_is_perturb_inverse(self):
        rng = np.random.default_rng(16)
        m = make_continuous(0, 1, 30)
        f, g = random_density(m, rng), random_density(m, rng)
        assert equal_b(subtract(f, g), perturb(f, inverse(g)))


class TestGeometricMeanContinuous:
    def test_matches_grid_only_mean(self, mixed_measure):
        rng = np.random.default_rng(19)
        f = random_density(mixed_measure, rng)
        logs = np.log(f.values[2:])
        expected = np.exp((logs @ mixed_measure.grid_weights) / 1.0)
        assert geometric_mean_continuous(f) == pytest.approx(expected, rel=1e-12)

    def test_rejects_discrete(self):
        m = make_discrete([(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="continuous"):
            geometric_mean_continuous(constant_density(m))


class TestIntegrationWithMeasure:
    def test_probability_representative(self, mixed_measure):
        rng = np.random.default_rng(20)
        f = random_density(mixed_measure, rng)
        assert integrate(mixed_measure, f.values) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zeros(self, mixed_measure):
        values = np.ones(mixed_measure.size)
        values[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            density(mixed_measure, values)
