import numpy as np
import pytest

from torsorcheck import (
    ComplexTorus,
    DegenerateLattice,
    ShapeMismatch,
    TorsorcheckError,
    cycle_integral,
    product_torus,
    slice_embedding,
)


class TestValidation:
    def test_square_lattice_valid(self):
        torus = ComplexTorus([[1.0, 1.0j]], kappa_max=1e6)
        assert torus.genus == 1

    def test_collinear_periods_rejected(self):
        # 1 and 2 span a line in C = R^2: real rank 1
        with pytest.raises(DegenerateLattice):
            ComplexTorus([[1.0, 2.0]], kappa_max=1e6)

    def test_g2_block_periods_valid(self):
        periods = np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])])
        # oracle: rank of the stacked 4x4 real matrix
        stack = np.vstack([periods.real, periods.imag])
        assert np.linalg.matrix_rank(stack) == 4
        torus = ComplexTorus(periods)
        assert torus.genus == 2

    def test_condition_cap_enforced(self):
        with pytest.raises(DegenerateLattice):
            ComplexTorus([[1.0, 1e-9j]], kappa_max=1e6)

    @pytest.mark.parametrize("kappa_max", [np.nan, np.inf, 0.5, -1.0])
    def test_condition_cap_must_be_finite_and_at_least_one(self, kappa_max):
        # every condition number compares false against a NaN cap and passes an inf one
        with pytest.raises(TorsorcheckError, match="kappa_max"):
            ComplexTorus([[1.0, 1e-11j]], kappa_max=kappa_max)

    def test_bad_shape_rejected(self):
        with pytest.raises(DegenerateLattice):
            ComplexTorus(np.ones((1, 3)))

    @pytest.mark.parametrize("periods", [np.ones((1, 2, 2)), np.zeros((0, 0)), [1.0, 1.0j]],
                             ids=["3-D", "0x0", "1-D"])
    def test_periods_must_be_a_g_by_2g_matrix(self, periods):
        with pytest.raises(DegenerateLattice):
            ComplexTorus(periods)


class TestPoints:
    """A point of the torus is passed as its lift, a complex (g,) array."""

    def test_lift_shape_is_exact(self, g2_torus):
        # a (2, 1) lift is refused, not flattened into a point
        prod = product_torus(g2_torus)
        with pytest.raises(ShapeMismatch):
            slice_embedding(np.zeros((2, 1)), prod)
        with pytest.raises(ShapeMismatch):
            slice_embedding(np.zeros(3), prod)

    def test_random_points_are_lifts_of_uniform_coords(self, g2_torus):
        points = g2_torus.random_points(np.random.default_rng(5), 7)
        expected = g2_torus.lift_of_coords(np.random.default_rng(5).random((7, 4)))
        assert points.shape == (7, 2)
        assert np.array_equal(points, expected)


class TestInvariantForms:
    def test_cycle_integral_zero_form(self, square_torus):
        assert np.array_equal(cycle_integral(square_torus, [[0.0]]), np.zeros((2, 2)))

    def test_cycle_integral_dz_wedge_dzbar(self, square_torus):
        # c dz^dzbar on (1, i):  c*(1*conj(i) - i*conj(1)) = -2ic
        c = 0.7 - 0.2j
        assert abs(cycle_integral(square_torus, [[c]])[0, 1] - (-2j * c)) < 1e-14

    def test_cycle_integral_antisymmetric(self, g2_torus, rng):
        coeff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        table = cycle_integral(g2_torus, coeff)
        assert table.shape == (4, 4)
        assert np.array_equal(table, -table.T)

    def test_entries_are_generator_pair_integrals(self, g2_torus, rng):
        # entry [j, k] is u T conj(v) - v T conj(u) for generators u = j, v = k
        coeff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        table = cycle_integral(g2_torus, coeff)
        for j, u in enumerate(g2_torus.periods.T):
            for k, v in enumerate(g2_torus.periods.T):
                assert abs(table[j, k] - (u @ coeff @ np.conj(v) - v @ coeff @ np.conj(u))) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 2, 2), (3, 3)], ids=["stack", "wrong_genus"])
    def test_coefficients_of_another_shape_rejected(self, g2_torus, shape):
        with pytest.raises(ShapeMismatch, match=r"form coefficients must have shape \(2, 2\)"):
            cycle_integral(g2_torus, np.ones(shape))
