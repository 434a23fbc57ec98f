import numpy as np
import pytest

from torsorcheck import (
    AHDatum,
    LatticeNotPreserved,
    NonIntegralE,
    NotHermitian,
    NotLatticeVector,
    SemicharacterInconsistent,
    TorusHomomorphism,
    TorusMismatch,
    addition_map,
    build_family,
    first_projection,
    hermitian_pairing,
    pullback,
    pullback_frame_log,
    slice_embedding,
    translation_map,
    trivial_datum,
)
from torsorcheck.torus import product_torus


class TestValidation:
    def test_trivial_datum(self, square_torus):
        d = trivial_datum(square_torus)
        assert np.all(d.pairing_imag_int == 0)
        assert d.is_topologically_trivial()

    def test_principal_pairing(self, square_torus):
        d = AHDatum(square_torus, [[1.0]], [1.0, 1.0])
        # oracle: E(1, i) = Im(1 * conj(i)) = -1
        assert d.pairing_imag_int[0, 1] == -1
        assert not d.is_topologically_trivial()

    def test_half_pairing_not_integral(self, square_torus):
        # oracle: E(1, i) = Im(0.5 * conj(i)) = -0.5
        with pytest.raises(NonIntegralE):
            AHDatum(square_torus, [[0.5]], [1.0, 1.0])

    def test_not_hermitian(self, g2_torus):
        with pytest.raises(NotHermitian):
            AHDatum(g2_torus, [[1.0, 1.0j], [1.0j, 1.0]], np.ones(4))

    def test_phases_must_be_unit(self, square_torus):
        with pytest.raises(SemicharacterInconsistent):
            AHDatum(square_torus, [[1.0]], [0.5, 1.0])

    def test_pairing_within_integral_tolerance_accepted(self, square_torus):
        # E(1, i) = -(1 + 5e-9): inside INTEGRAL_TOL, so neither test may reject it
        d = AHDatum(square_torus, [[1 + 5e-9]], [1.0, 1.0])
        assert d.pairing_imag_int[0, 1] == -1

    def test_pairing_outside_integral_tolerance_is_nonintegral(self, square_torus):
        with pytest.raises(NonIntegralE):
            AHDatum(square_torus, [[1 + 2e-8]], [1.0, 1.0])

    def test_g2_diag_datum(self, g2_datum):
        e = g2_datum.pairing_imag_int
        expected = np.zeros((4, 4), dtype=int)
        expected[0, 2] = expected[1, 3] = -1
        expected[2, 0] = expected[3, 1] = 1
        assert np.array_equal(e, expected)


class TestSemicharacter:
    def test_extension_matches_recursion(self, principal_datum, rng):
        # oracle: peel one generator at a time with the defining rule
        def recurse(n):
            n = list(n)
            for j in range(len(n)):
                if n[j] != 0:
                    step = 1 if n[j] > 0 else -1
                    rest = list(n)
                    rest[j] -= step
                    lam_rest = principal_datum.torus.lift_of_coords(np.array(rest, float))
                    lam_j = principal_datum.torus.lattice_vector(j) * step
                    e = np.imag(hermitian_pairing(principal_datum.hermitian, lam_j, lam_rest))
                    return (
                        principal_datum.chi_on(np.eye(2, dtype=int)[j] * step)
                        * recurse(rest)
                        * np.exp(1j * np.pi * e)
                    )
            return 1.0

        for n in rng.integers(-3, 4, size=(10, 2)):
            direct = principal_datum.chi_on(n)
            assert abs(direct - recurse(n)) < 1e-12
            assert abs(abs(direct) - 1.0) < 1e-12

    def test_generator_value_for_negative_multiple(self, principal_datum):
        assert abs(principal_datum.chi_on([-1, 0]) - 1.0) < 1e-14


class TestFactor:
    def test_trivial_factor_is_one(self, square_torus, rng):
        d = trivial_datum(square_torus)
        lam = square_torus.lattice_vector(0) + 2 * square_torus.lattice_vector(1)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(d.factor(lam, z[:, None]), 1.0)

    def test_cocycle_identity(self, principal_datum, rng):
        torus = principal_datum.torus
        for _ in range(100):
            m, n = rng.integers(-2, 3, size=(2, 2))
            lam = torus.lift_of_coords(m.astype(float))
            mu = torus.lift_of_coords(n.astype(float))
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            lhs = principal_datum.factor(lam + mu, z)
            rhs = principal_datum.factor(lam, z + mu) * principal_datum.factor(mu, z)
            assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-9

    def test_modulus_identity(self, g2_datum, rng):
        torus = g2_datum.torus
        h = g2_datum.hermitian
        for _ in range(20):
            n = rng.integers(-2, 3, size=4)
            lam = torus.lift_of_coords(n.astype(float))
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = g2_datum.factor(lam, z)
            quad = 0.5 * hermitian_pairing(h, lam, lam).real
            lin = hermitian_pairing(h, z, lam).real
            assert abs(abs(a) * np.exp(-np.pi * (quad + lin)) - 1.0) <= 1e-9

    def test_non_lattice_vector_rejected(self, principal_datum):
        with pytest.raises(NotLatticeVector):
            principal_datum.factor(np.array([0.5]), np.zeros(1))


class TestAlgebra:
    def test_dual_of_trivial(self, flat_datum):
        d = flat_datum.dual()
        assert np.allclose(d.hermitian, 0) and np.allclose(d.chi, 1)

    def test_dual_involution(self, g2_datum):
        dd = g2_datum.dual().dual()
        assert np.array_equal(dd.hermitian, g2_datum.hermitian)
        assert np.array_equal(dd.chi, g2_datum.chi)

    def test_dual_negates_pairing(self, principal_datum):
        assert np.array_equal(
            principal_datum.dual().pairing_imag_int, -principal_datum.pairing_imag_int
        )

    def test_tensor_with_dual_cancels(self, g2_datum):
        product = g2_datum.tensor(g2_datum.dual())
        assert np.max(np.abs(product.hermitian)) == 0
        assert np.allclose(product.chi, 1.0)

    def test_tensor_with_trivial_is_identity(self, principal_datum, square_torus):
        product = principal_datum.tensor(trivial_datum(square_torus))
        assert np.array_equal(product.hermitian, principal_datum.hermitian)

    def test_tensor_adds_pairings(self, principal_datum):
        double = principal_datum.tensor(principal_datum)
        assert np.array_equal(
            double.pairing_imag_int, 2 * principal_datum.pairing_imag_int
        )

    def test_tensor_needs_common_torus(self, principal_datum, g2_datum):
        with pytest.raises(TorusMismatch):
            principal_datum.tensor(g2_datum)


class TestHomomorphisms:
    def test_lattice_preservation_enforced(self, square_torus):
        with pytest.raises(LatticeNotPreserved):
            TorusHomomorphism(square_torus, square_torus, [[0.5]])

    def test_multiplication_map_allowed(self, square_torus):
        f = TorusHomomorphism(square_torus, square_torus, [[2.0]])
        assert np.allclose(f.apply(np.array([0.25j])), [0.5j])

    def test_compose(self, square_torus):
        double = TorusHomomorphism(square_torus, square_torus, [[2.0]])
        shift = translation_map(square_torus.point([0.3 + 0.1j]))
        both = shift.compose(double)
        z = np.array([0.2 + 0.2j])
        assert np.allclose(both.apply(z), shift.apply(double.apply(z)))


class TestPullback:
    def test_identity_pullback(self, principal_datum, square_torus):
        ident = TorusHomomorphism(square_torus, square_torus, np.eye(1))
        pulled = pullback(ident, principal_datum)
        assert np.allclose(pulled.hermitian, principal_datum.hermitian)
        assert np.allclose(pulled.chi, principal_datum.chi)

    def test_factor_comparison_identity(self, principal_datum, square_torus, rng):
        # the ground truth fixing the pullback phases:
        # a(M lam, M z + t) = a_pull(lam, z) * exp(flog(z + lam) - flog(z))
        x = square_torus.point([0.37 + 0.81j])
        maps = [
            translation_map(x),
            shift_and_double(square_torus, x),
        ]
        for f in maps:
            pulled = pullback(f, principal_datum)
            flog = pullback_frame_log(f, principal_datum)
            for _ in range(20):
                n = rng.integers(-2, 3, size=2).astype(float)
                lam = square_torus.lift_of_coords(n)
                z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
                lhs = principal_datum.factor(f.matrix @ lam, f.apply(z))
                rhs = pulled.factor(lam, z) * np.exp(flog(z + lam) - flog(z))
                assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-9

    def test_translation_phase_closed_form(self, principal_datum, square_torus, rng):
        # cross-check of the derived phases: chi'(lam) = chi(lam) e^{-2 pi i E(lam, t)}
        t = square_torus.point([0.29 + 0.63j])
        pulled = pullback(translation_map(t), principal_datum)
        for j in range(2):
            lam = square_torus.lattice_vector(j)
            e = np.imag(hermitian_pairing(principal_datum.hermitian, lam, t.lift))
            expected = principal_datum.chi[j] * np.exp(-2j * np.pi * e)
            assert abs(pulled.chi[j] - expected) < 1e-10

    def test_functoriality(self, principal_datum, square_torus):
        x = square_torus.point([0.11 + 0.47j])
        f = translation_map(x)
        g = shift_and_double(square_torus, square_torus.point([0.05 - 0.21j]))
        once = pullback(f.compose(g), principal_datum)
        twice = pullback(g, pullback(f, principal_datum))
        assert np.max(np.abs(once.hermitian - twice.hermitian)) <= 1e-10
        assert np.max(np.abs(once.chi - twice.chi)) <= 1e-10


def shift_and_double(torus, point):
    return TorusHomomorphism(torus, torus, 2.0 * np.eye(torus.genus), point.lift)


class TestFamily:
    def test_family_pairing_expansion(self, g2_datum, rng):
        fam = build_family(g2_datum)
        h = g2_datum.hermitian
        for _ in range(20):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            # oracle: H((u1,u2),(v1,v2)) = H(u1+u2, v1+v2) - H(u1, v1)
            expected = hermitian_pairing(h, u[:2] + u[2:], v[:2] + v[2:]) - hermitian_pairing(
                h, u[:2], v[:2]
            )
            assert abs(hermitian_pairing(fam.hermitian, u, v) - expected) <= 1e-12

    def test_family_blocks(self, principal_datum):
        fam = build_family(principal_datum)
        h = principal_datum.hermitian
        expected = np.block([[0 * h, h], [h, h]])
        assert np.allclose(fam.hermitian, expected)

    def test_slice_at_zero_is_trivial(self, principal_datum, square_torus):
        fam = build_family(principal_datum)
        sliced = pullback(slice_embedding(square_torus.zero(), fam.torus), fam)
        assert np.max(np.abs(sliced.hermitian)) <= 1e-12
        assert np.allclose(sliced.chi, 1.0)

    def test_slice_pairing_vanishes(self, g2_datum, g2_torus, rng):
        fam = build_family(g2_datum)
        for x in g2_torus.random_points(rng, 5):
            sliced = pullback(slice_embedding(x, fam.torus), fam)
            assert np.max(np.abs(sliced.hermitian)) <= 1e-12
            assert sliced.is_topologically_trivial()

    def test_slice_phases_closed_form(self, principal_datum, square_torus, rng):
        fam = build_family(principal_datum)
        for x in square_torus.random_points(rng, 5):
            sliced = pullback(slice_embedding(x, fam.torus), fam)
            for j in range(2):
                lam = square_torus.lattice_vector(j)
                e = np.imag(hermitian_pairing(principal_datum.hermitian, x.lift, lam))
                assert abs(sliced.chi[j] - np.exp(2j * np.pi * e)) <= 1e-9

    def test_projection_and_addition_maps(self, square_torus, rng):
        prod = product_torus(square_torus, square_torus)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(addition_map(prod).apply(z), z[:1] + z[1:])
        assert np.allclose(first_projection(prod).apply(z), z[:1])
        x = square_torus.point([0.4j])
        assert np.allclose(
            slice_embedding(x, prod).apply(z[:1]), np.concatenate([z[:1], x.lift])
        )
