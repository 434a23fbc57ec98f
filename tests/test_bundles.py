import numpy as np
import pytest

from torsorcheck import (
    AHDatum,
    ComplexTorus,
    LatticeNotPreserved,
    NonIntegralE,
    NotHermitian,
    NotLatticeVector,
    SemicharacterInconsistent,
    ShapeMismatch,
    TorusHomomorphism,
    TorusMismatch,
    VerificationConfig,
    addition_map,
    build_family,
    first_projection,
    hermitian_pairing,
    pullback,
    slice_embedding,
    trivial_datum,
)
from torsorcheck.torus import product_torus

from oracles import (
    compose,
    is_topologically_trivial,
    pullback_frame_log,
    pullback_phases_per_generator,
    translation_map,
)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: stricter than ==, which takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def phased_g2_datum(g2_torus, rng):
    """``g2_datum``'s pairing with seeded unit phases, so every chi_j**n_j counts."""
    return AHDatum(g2_torus, np.diag([1.0, 0.5]), np.exp(2j * np.pi * rng.random(4)))


#: a tolerance of a few rounding steps of a unit-size complex product
ULPS = 4 * np.finfo(float).eps


class TestValidation:
    def test_trivial_datum(self, square_torus):
        d = trivial_datum(square_torus)
        assert np.all(d.pairing_imag_int == 0)
        assert is_topologically_trivial(d)

    def test_principal_pairing(self, square_torus):
        d = AHDatum(square_torus, [[1.0]], [1.0, 1.0])
        # oracle: E(1, i) = Im(1 * conj(i)) = -1
        assert d.pairing_imag_int[0, 1] == -1
        assert not is_topologically_trivial(d)

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

    def test_phases_must_be_finite(self, square_torus):
        # |NaN| - 1 compares false against the unit tolerance, so NaN needs its own test
        with pytest.raises(SemicharacterInconsistent):
            AHDatum(square_torus, [[1.0]], [np.nan, 1.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(1.0, np.inf)])
    def test_pairing_must_be_finite(self, square_torus, entry):
        # NaN compares false against every tolerance, so finiteness is its own test
        with pytest.raises(NotHermitian):
            AHDatum(square_torus, [[entry]], [1.0, 1.0])

    def test_overflowing_pairing_is_nonintegral(self):
        # finite H whose lattice pairings overflow: E holds NaN, not an integer
        torus = ComplexTorus([[1e200, 1e200j]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonIntegralE):
            AHDatum(torus, [[1e300]], [1.0, 1.0])

    @pytest.mark.parametrize("entry", [2e19, -1e19])
    def test_pairing_beyond_int64_is_nonintegral(self, square_torus, entry):
        # E(1, i) = -entry is an integral float, but no int64 holds it
        with pytest.raises(NonIntegralE, match="int64"):
            AHDatum(square_torus, [[entry]], [1.0, 1.0])

    def test_pairing_within_integral_tolerance_accepted(self, square_torus):
        # E(1, i) = -(1 + 5e-9): inside INTEGRAL_TOL, so neither test may reject it
        d = AHDatum(square_torus, [[1 + 5e-9]], [1.0, 1.0])
        assert d.pairing_imag_int[0, 1] == -1

    def test_pairing_outside_integral_tolerance_is_nonintegral(self, square_torus):
        with pytest.raises(NonIntegralE):
            AHDatum(square_torus, [[1 + 2e-8]], [1.0, 1.0])

    @pytest.mark.parametrize("hermitian, chi", [
        ([[1.0]], np.ones(4)),                  # numpy could not reshape it
        ([1.0, 0.0, 0.0, 0.5], np.ones(4)),     # numpy would reshape it silently
        (np.diag([1.0, 0.5]), np.ones((2, 2))),
        (np.diag([1.0, 0.5]), np.ones(2)),
    ], ids=["pairing_1x1", "pairing_flat", "phases_2x2", "phases_short"])
    def test_shapes_must_be_exact(self, g2_torus, hermitian, chi):
        with pytest.raises(ShapeMismatch, match="shape"):
            AHDatum(g2_torus, hermitian, chi)

    def test_first_inconsistent_pair_named_in_row_major_order(self):
        # H = [[0, c], [c, 0]] on [I | i I] gives E = -c on the pairs (0, 3) and (1, 2)
        # only; at c = 1e10, 2 pi c rounds far outside SEMICHARACTER_TOL of a whole
        # turn, so both pairs fail.  Row-major order names (0, 3), column-major (1, 2).
        torus = ComplexTorus(np.hstack([np.eye(2), 1j * np.eye(2)]))
        c = 1e10
        with pytest.raises(SemicharacterInconsistent, match=r"generators \(0, 3\) "):
            AHDatum(torus, [[0.0, c], [c, 0.0]], np.ones(4))
        # one bad pair (1, 3) alone is still found
        with pytest.raises(SemicharacterInconsistent, match=r"generators \(1, 3\) "):
            AHDatum(torus, np.diag([0.0, c]), np.ones(4))

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
                    lam_j = principal_datum.torus.periods[:, j] * step
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
        lam = square_torus.periods[:, 0] + 2 * square_torus.periods[:, 1]
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

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_lattice_input_rejected(self, principal_datum, entry):
        with pytest.raises(NotLatticeVector):
            principal_datum.chi_on([entry, 0])
        with pytest.raises(NotLatticeVector):
            principal_datum.factor([entry], np.zeros(1))

    @pytest.mark.parametrize("entry", [1e300, -1e300, 2.0**63])
    def test_coordinates_beyond_int64_rejected(self, principal_datum, entry):
        # an integral float that no int64 holds, which the cast would wrap
        with pytest.raises(NotLatticeVector, match="int64"):
            principal_datum.chi_on([entry, 0])

    def test_lattice_argument_shapes_are_exact(self, g2_datum):
        # a (2, 1) lattice vector is not flattened, and short coordinates fail cleanly
        with pytest.raises(ShapeMismatch):
            g2_datum.factor(np.array([[1.0], [0.0]]), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            g2_datum.chi_on([1, 0, 0])

    def test_int64_edge_coordinate_accepted(self, principal_datum):
        assert principal_datum.chi_on([-(2.0**63), 0]) == 1.0


class TestBatchedLatticeAlgebra:
    MIXED = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1], [-2, 3, 1, -1],
             [0, 0, 0, 0]]

    def test_mixed_rows_include_odd_parity(self, g2_datum):
        # with unit phases chi_on is the sign (-1)^parity alone
        signs = g2_datum.chi_on(np.array(self.MIXED, dtype=float))
        assert np.array_equal(signs, [-1, -1, -1, 1, -1, 1])

    def test_chi_on_rows_bitwise(self, g2_torus, rng):
        datum = phased_g2_datum(g2_torus, rng)
        n = np.vstack([self.MIXED, rng.integers(-4, 5, size=(40, 4))]).astype(float)
        batched = datum.chi_on(n)
        assert batched.shape == (len(n),)
        assert same_bits(batched, np.array([datum.chi_on(row) for row in n]))
        stacked = datum.chi_on(n.reshape(2, -1, 4))
        assert same_bits(stacked, batched.reshape(2, -1))

    def lattice_vectors_and_lifts(self, torus, rng):
        n = np.vstack([self.MIXED, rng.integers(-3, 4, size=(30, 4))]).astype(float)
        zs = rng.standard_normal((len(n), 2)) + 1j * rng.standard_normal((len(n), 2))
        return torus.lift_of_coords(n), zs

    def test_factor_rows_bitwise(self, g2_datum, rng):
        # unit phases: chi_on is the exact sign (-1)^parity, odd on some MIXED rows
        lams, zs = self.lattice_vectors_and_lifts(g2_datum.torus, rng)
        batched = g2_datum.factor(lams, zs)
        assert same_bits(batched, np.array([g2_datum.factor(l, z) for l, z in zip(lams, zs)]))
        # one z broadcast against every lattice vector
        at_one = g2_datum.factor(lams, zs[0])
        assert same_bits(at_one, np.array([g2_datum.factor(l, zs[0]) for l in lams]))

    def test_factor_rows_with_phases_agree_to_rounding(self, g2_torus, rng):
        # numpy's array loop for a complex product may fuse a multiply-add that
        # the scalar product rounds twice, so general phases agree to a few ulps
        datum = phased_g2_datum(g2_torus, rng)
        lams, zs = self.lattice_vectors_and_lifts(g2_torus, rng)
        rows = np.array([datum.factor(l, z) for l, z in zip(lams, zs)])
        assert np.all(np.abs(datum.factor(lams, zs) - rows) <= ULPS * np.abs(rows))

    @pytest.mark.parametrize("bad, match", [
        (np.nan, "finite"), (np.inf, "finite"), (0.5, "finite integers"), (2.0**63, "int64"),
    ])
    def test_one_bad_row_rejects_the_batch(self, principal_datum, bad, match):
        with pytest.raises(NotLatticeVector, match=match):
            principal_datum.chi_on([[1.0, 0.0], [bad, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, 0.5])
    def test_one_bad_lattice_vector_rejects_the_batch(self, principal_datum, bad):
        with pytest.raises(NotLatticeVector):
            principal_datum.factor([[1.0], [bad]], np.zeros(1))


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

    @pytest.mark.parametrize("matrix, translation", [
        ([[np.nan]], None), ([[np.inf]], None), ([[1.0]], [np.nan]), ([[1.0]], [np.inf]),
    ])
    def test_non_finite_map_rejected(self, square_torus, matrix, translation):
        # a non-finite linear part cannot preserve the lattice; a non-finite
        # translation names no lattice, so it is a ValueError
        error, match = ((LatticeNotPreserved, "linear part must be finite") if translation is None
                        else (ValueError, "translation must be finite"))
        with pytest.raises(error, match=match):
            TorusHomomorphism(square_torus, square_torus, matrix, translation)

    @pytest.mark.parametrize("embed", [slice_embedding])
    @pytest.mark.parametrize("lift", [[np.nan, 0], [0, np.inf]])
    def test_non_finite_point_lift_rejected(self, g2_torus, embed, lift):
        prod = product_torus(g2_torus)
        with pytest.raises(ValueError, match="point lift must be finite"):
            embed(lift, prod)

    @pytest.mark.parametrize("matrix, translation", [
        ([[1.0, 0.0]], None), ([1.0, 0.0, 0.0, 1.0], None), (np.eye(2), [0.0]),
    ], ids=["matrix_1x2", "matrix_flat", "translation_short"])
    def test_shapes_must_be_exact(self, g2_torus, matrix, translation):
        with pytest.raises(ShapeMismatch, match=r"shape \(2,"):
            TorusHomomorphism(g2_torus, g2_torus, matrix, translation)

    def test_overflowing_map_rejected(self, square_torus):
        # the image 4e308 overflows, so its lattice coordinates come out NaN
        source = ComplexTorus([[4.0, 4.0j]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LatticeNotPreserved):
            TorusHomomorphism(source, square_torus, [[1e308]])

    def test_multiplication_map_allowed(self, square_torus):
        f = TorusHomomorphism(square_torus, square_torus, [[2.0]])
        assert np.allclose(f.apply(np.array([0.25j])), [0.5j])

    def test_compose(self, square_torus):
        double = TorusHomomorphism(square_torus, square_torus, [[2.0]])
        shift = translation_map(square_torus, [0.3 + 0.1j])
        both = compose(shift, double)
        z = np.array([0.2 + 0.2j])
        assert np.allclose(both.apply(z), shift.apply(double.apply(z)))


class TestBatchedTranslations:
    """A map has one translation (g,), and a slice or a section one lift: no batch (S, g)."""

    @pytest.mark.parametrize("shape", [(0, 2), (3, 2, 1), (3, 3), (3, 2)],
                             ids=["empty", "3-D", "wrong_genus", "batch"])
    def test_batch_shape_is_exact(self, g2_torus, shape):
        with pytest.raises(ShapeMismatch, match=r"shape \(2,\), got"):
            TorusHomomorphism(g2_torus, g2_torus, np.eye(2), np.zeros(shape))

    @pytest.mark.parametrize("embed", [slice_embedding])
    def test_embeddings_refuse_a_batch_of_lifts(self, g2_torus, embed):
        with pytest.raises(ShapeMismatch, match=r"shape \(2,\), got \(3, 2\)"):
            embed(np.zeros((3, 2)), product_torus(g2_torus))


class TestPullback:
    def test_identity_pullback(self, principal_datum, square_torus):
        ident = TorusHomomorphism(square_torus, square_torus, np.eye(1))
        pulled = pullback(ident, principal_datum)
        assert np.allclose(pulled.hermitian, principal_datum.hermitian)
        assert np.allclose(pulled.chi, principal_datum.chi)

    def test_factor_comparison_identity(self, principal_datum, square_torus, rng):
        # the ground truth fixing the pullback phases:
        # a(M lam, M z + t) = a_pull(lam, z) * exp(flog(z + lam) - flog(z))
        x = [0.37 + 0.81j]
        maps = [
            translation_map(square_torus, x),
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
        t = np.array([0.29 + 0.63j])
        pulled = pullback(translation_map(square_torus, t), principal_datum)
        for j in range(2):
            lam = square_torus.periods[:, j]
            e = np.imag(hermitian_pairing(principal_datum.hermitian, lam, t))
            expected = principal_datum.chi[j] * np.exp(-2j * np.pi * e)
            assert abs(pulled.chi[j] - expected) < 1e-10

    def test_functoriality(self, principal_datum, square_torus):
        f = translation_map(square_torus, [0.11 + 0.47j])
        g = shift_and_double(square_torus, [0.05 - 0.21j])
        once = pullback(compose(f, g), principal_datum)
        twice = pullback(g, pullback(f, principal_datum))
        assert np.max(np.abs(once.hermitian - twice.hermitian)) <= 1e-10
        assert np.max(np.abs(once.chi - twice.chi)) <= 1e-10


def one_plus_i_and_phased_datum(square_torus):
    """z -> (1 + i) z, which sends the generator i to -1 + i, and a datum with phases."""
    datum = AHDatum(square_torus, [[1.0]], np.exp(2j * np.pi * np.array([0.3, 0.7])))
    return TorusHomomorphism(square_torus, square_torus, [[1.0 + 1.0j]]), datum


class TestPullbackMatchesPerGeneratorLoop:
    @pytest.mark.parametrize("demo", ["principal-g1", "principal-g2", "g3"])
    def test_family_pullbacks_bitwise(self, demo, g3_datum):
        datum = g3_datum if demo == "g3" else VerificationConfig.demo(demo).datum
        prod = product_torus(datum.torus)
        for f, d in ((first_projection(prod), datum.dual()), (addition_map(prod), datum)):
            assert same_bits(pullback(f, d).chi, pullback_phases_per_generator(f, d))
        # a slice off zero translates, so each phase multiplies complex numbers with
        # nonzero imaginary parts, where numpy's array loop may fuse a multiply-add
        fam = build_family(datum)
        x = datum.torus.lift_of_coords(np.full(2 * datum.torus.genus, 0.37))
        for y in (np.zeros(datum.torus.genus), x):
            f = slice_embedding(y, fam.torus)
            batched, looped = pullback(f, fam).chi, pullback_phases_per_generator(f, fam)
            assert np.max(np.abs(batched - looped)) <= ULPS

    def test_one_plus_i_bitwise(self, square_torus):
        # the closed form chi(M lam) exp(2 pi i Im H(t, M lam)) skips the oracle's
        # renormalized product of factors, so the two meet to rounding, not bit for bit
        f, datum = one_plus_i_and_phased_datum(square_torus)
        closed, looped = pullback(f, datum).chi, pullback_phases_per_generator(f, datum)
        assert np.max(np.abs(closed - looped)) <= ULPS

    def test_one_plus_i_factor_comparison(self, square_torus, rng):
        # no translation, so no frame change: a(M lam, M z) = a_pull(lam, z)
        f, datum = one_plus_i_and_phased_datum(square_torus)
        pulled = pullback(f, datum)
        assert np.allclose(pulled.hermitian, [[2.0]])
        for _ in range(20):
            lam = square_torus.lift_of_coords(rng.integers(-2, 3, size=2).astype(float))
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            lhs = datum.factor(f.matrix @ lam, f.apply(z))
            assert np.max(np.abs(lhs - pulled.factor(lam, z)) / np.abs(lhs)) <= 1e-9


def shift_and_double(torus, lift):
    return TorusHomomorphism(torus, torus, 2.0 * np.eye(torus.genus), lift)


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
        sliced = pullback(slice_embedding(np.zeros(1), fam.torus), fam)
        assert np.max(np.abs(sliced.hermitian)) <= 1e-12
        assert np.allclose(sliced.chi, 1.0)

    def test_slice_pairing_vanishes(self, g2_datum, g2_torus, rng):
        fam = build_family(g2_datum)
        for x in g2_torus.random_points(rng, 5):
            sliced = pullback(slice_embedding(x, fam.torus), fam)
            assert np.max(np.abs(sliced.hermitian)) <= 1e-12
            assert is_topologically_trivial(sliced)

    def test_slice_phases_closed_form(self, principal_datum, square_torus, rng):
        fam = build_family(principal_datum)
        for x in square_torus.random_points(rng, 5):
            sliced = pullback(slice_embedding(x, fam.torus), fam)
            for j in range(2):
                lam = square_torus.periods[:, j]
                e = np.imag(hermitian_pairing(principal_datum.hermitian, x, lam))
                assert abs(sliced.chi[j] - np.exp(2j * np.pi * e)) <= 1e-9

    def test_projection_and_addition_maps(self, square_torus, rng):
        prod = product_torus(square_torus)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(addition_map(prod).apply(z), z[:1] + z[1:])
        assert np.allclose(first_projection(prod).apply(z), z[:1])
        x = np.array([0.4j])
        assert np.allclose(slice_embedding(x, prod).apply(z[:1]), np.concatenate([z[:1], x]))
