import numpy as np
import pytest

from torsorcheck import (
    ComplexTorus,
    DegenerateLattice,
    IndexOutOfRange,
    TorusMismatch,
    cycle_integral,
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

    def test_bad_shape_rejected(self):
        with pytest.raises(DegenerateLattice):
            ComplexTorus(np.ones((1, 3)))


class TestPoints:
    def test_reduce_integer_translation(self, square_torus):
        p = square_torus.point([2.5 + 3.5j]).reduce()
        assert np.allclose(p.lift, [0.5 + 0.5j], atol=1e-12)

    def test_reduce_zero(self, square_torus):
        p = square_torus.zero().reduce()
        assert np.allclose(p.lift, [0.0], atol=0)

    def test_reduce_idempotent(self, square_torus, rng):
        for p in square_torus.random_points(rng, 10):
            q = square_torus.point(p.lift * 7.3 - 2.1)
            once = q.reduce()
            assert np.array_equal(once.lift, once.reduce().lift)

    def test_reduce_g2_random(self, g2_torus, rng):
        lifts = rng.standard_normal((20, 2)) * 5 + 1j * rng.standard_normal((20, 2)) * 5
        stack = np.vstack([g2_torus.periods.real, g2_torus.periods.imag])
        for lift in lifts:
            reduced = g2_torus.point(lift).reduce()
            # oracle: solve the stacked real system for the coordinates
            coords = np.linalg.solve(
                stack, np.concatenate([reduced.lift.real, reduced.lift.imag])
            )
            assert np.all(coords >= 0) and np.all(coords < 1)
            diff = np.linalg.solve(
                stack, np.concatenate([(lift - reduced.lift).real, (lift - reduced.lift).imag])
            )
            assert np.max(np.abs(diff - np.round(diff))) <= 1e-9

    def test_add_identity(self, square_torus, rng):
        for p in square_torus.random_points(rng, 5):
            assert (p + square_torus.zero()).same_point(p)

    def test_add_wraparound(self, square_torus):
        total = square_torus.point([0.7]) + square_torus.point([0.6])
        assert total.same_point(square_torus.point([0.3]))

    def test_add_inverse(self, square_torus, rng):
        for p in square_torus.random_points(rng, 5):
            assert (p + (-p)).same_point(square_torus.zero())

    def test_group_laws_random(self, g2_torus, rng):
        pts = g2_torus.random_points(rng, 9)
        for p, q, r in zip(pts[:3], pts[3:6], pts[6:]):
            assert (p + q).same_point(q + p)
            assert ((p + q) + r).same_point(p + (q + r))

    def test_mismatched_tori_rejected(self, square_torus, g2_torus):
        with pytest.raises(TorusMismatch):
            square_torus.point([0.1]) + ComplexTorus([[1.0, 2.0j]]).point([0.1])

    def test_equality_tolerance(self, square_torus):
        p = square_torus.point([0.25 + 0.25j])
        q = square_torus.point([0.25 + 0.25j + 1e-12])
        far = square_torus.point([0.25 + 0.26j])
        assert p.same_point(q)
        assert not p.same_point(far)


class TestInvariantForms:
    def test_cycle_integral_zero_form(self, square_torus):
        assert cycle_integral(square_torus, [[0.0]], 0, 1) == 0

    def test_cycle_integral_dz_wedge_dzbar(self, square_torus):
        # c dz^dzbar on (1, i):  c*(1*conj(i) - i*conj(1)) = -2ic
        c = 0.7 - 0.2j
        assert abs(cycle_integral(square_torus, [[c]], 0, 1) - (-2j * c)) < 1e-14

    def test_cycle_integral_antisymmetric(self, g2_torus, rng):
        coeff = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for j in range(4):
            for k in range(4):
                forward = cycle_integral(g2_torus, coeff, j, k)
                assert abs(forward + cycle_integral(g2_torus, coeff, k, j)) < 1e-12

    def test_index_out_of_range(self, square_torus):
        with pytest.raises(IndexOutOfRange):
            cycle_integral(square_torus, [[1.0]], 0, 2)
