import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torsorcheck import (
    CHERN_NORMALIZATION,
    AHDatum,
    ComplexTorus,
    ConnectionForm,
    ShapeMismatch,
    TorusHomomorphism,
    TorusMismatch,
    VerificationConfig,
    build_family,
    canonical_connection,
    check_eq_i,
    chern_form,
    connections,
    curvature,
    cycle_integral,
    family_connection,
    hermitian_pairing,
    pullback,
    slice_connection,
    slice_embedding,
)
from torsorcheck.connections import product_lifts, restricted_covector
from torsorcheck.grids import POINT_SAMPLES, SeededDraws, dbar_at_points
from torsorcheck.verifier import _probe, _probe_terms

from oracles import (
    automorphy_defect,
    check_eq_i_by_pullback,
    dz_rows,
    family_covector_by_maps,
    parameter_section,
    pullback_connection,
    seeded_lifts,
)


def fd_dlog_dz(datum, lam, z, h=1e-3):
    """Oracle: (1,0)-part of d log a(lam, .) by ratio central differences."""
    torus = datum.torus
    dims = 2 * torus.genus
    c = torus.lattice_coords(z)
    diffs = np.empty(dims, dtype=complex)
    for d in range(dims):
        step = np.zeros(dims)
        step[d] = h
        ratio = datum.factor(lam, torus.lift_of_coords(c + step)) / datum.factor(
            lam, torus.lift_of_coords(c - step)
        )
        diffs[d] = np.log(ratio) / (2 * h)
    return dz_rows(torus) @ diffs


class TestCanonicalConnection:
    def test_trivial_gives_zero(self, flat_datum, rng):
        theta = canonical_connection(flat_datum).theta
        z = rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1))
        assert np.max(np.abs(theta(z))) == 0

    def test_principal_formula(self, principal_datum, rng):
        # oracle: d of the weight exponent -pi z zbar is -pi zbar dz
        theta = canonical_connection(principal_datum).theta
        z = rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1))
        assert np.max(np.abs(theta(z) + np.pi * np.conj(z))) <= 1e-12

    def test_automorphy_against_fd_of_log_factor(self, principal_datum, rng):
        theta = canonical_connection(principal_datum).theta
        torus = principal_datum.torus
        for _ in range(20):
            n = rng.integers(-2, 3, size=2).astype(float)
            lam = torus.lift_of_coords(n)
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            increment = theta(z + lam) - theta(z)
            assert np.max(np.abs(increment + fd_dlog_dz(principal_datum, lam, z))) <= 1e-9

    def test_automorphy_defect_small_everywhere(self, g2_datum, rng):
        conns = [
            canonical_connection(g2_datum),
            family_connection(canonical_connection(g2_datum)),
        ]
        for conn in conns:
            torus = conn.datum.torus
            dims = 2 * torus.genus
            for _ in range(50):
                lam = torus.lift_of_coords(rng.integers(-2, 3, size=dims).astype(float))
                z = rng.standard_normal(torus.genus) + 1j * rng.standard_normal(torus.genus)
                assert np.max(np.abs(automorphy_defect(conn, lam, z))) <= 1e-9


class TestCurvature:
    def test_zero_for_trivial(self, flat_datum):
        k = curvature(canonical_connection(flat_datum), 16)
        assert np.max(np.abs(k)) <= 1e-12

    def test_principal_constant(self, principal_datum):
        n = 64
        k = curvature(canonical_connection(principal_datum), n)
        assert abs(k.mean(axis=0)[0, 0] + np.pi) <= 1e-8 * n**2
        assert np.max(np.abs(k - k.mean(axis=0))) <= 1e-9

    def test_matches_pairing_matrix(self, g2_datum):
        k = curvature(canonical_connection(g2_datum), 8)
        assert np.max(np.abs(k.mean(axis=0) + np.pi * g2_datum.hermitian)) <= 1e-9

    @pytest.mark.parametrize("case", ["g2-n24", "g3-n16"])
    def test_holds_no_grid(self, case, g2_datum, g3_datum):
        # read at seeded points, so the peak stays far below one (g, g) grid:
        # 21.2 MB for g2 at N=24, 2.4 GB for g3 at N=16
        datum, n = (g2_datum, 24) if case == "g2-n24" else (g3_datum, 16)
        conn = canonical_connection(datum)
        curvature(conn, 4)  # first-call imports and caches are not the measured call's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            k = curvature(conn, n)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        g = datum.torus.genus
        assert peak < 1e6, f"genus {g}: {peak / 1e6:.2f} MB at peak"
        assert k.shape == (POINT_SAMPLES, g, g)
        assert np.max(np.abs(k - k.mean(axis=0))) <= 1e-9


def canonical_class_gap(datum):
    """max |CHERN_NORMALIZATION * curvature(canonical_connection(datum), 16) - chern_form(datum)|."""
    recomputed = CHERN_NORMALIZATION * curvature(connections.canonical_connection(datum), 16)
    return float(np.max(np.abs(recomputed - chern_form(datum))))


def complex_pairing_datum(g2_datum):
    """principal-g2 pulled back along z -> M z from C^2 / M^{-1} Lambda, so H is not real."""
    m = np.array([[0.8 + 0.3j, 0.1], [0.2j, 1.1]])
    target = g2_datum.torus
    source = ComplexTorus(np.linalg.solve(m, target.periods))
    return pullback(TorusHomomorphism(source, target, m), g2_datum)


def config_datum(source):
    """The datum of a demo, or of a config file next to the tests."""
    if source.endswith(".json"):
        return VerificationConfig.from_file(Path(__file__).with_name(source)).datum
    return VerificationConfig.demo(source).datum


def offset_connection(datum) -> ConnectionForm:
    """canonical + v, for a periodic, non-affine (1,0) offset v of the probe's shape.

    The offset is the suite's probe sum_m coeff_m exp(2 pi i m . c(z)) at
    amplitude 0.1, drawn from seed (7, 1).  It is periodic, so canonical + v
    is a connection on the same bundle, but it is not linear: D(z + w) is not
    D(z) + D(w), so the family must read D at z + w.
    """
    canonical = canonical_connection(datum)
    v = _probe(datum.torus, *_probe_terms(datum.torus.genus, SeededDraws(7, 1), 0.1))
    return ConnectionForm(datum, lambda z: canonical.theta(z) + v(z))


class TestFamilyCovector:
    @pytest.mark.parametrize("case", ["principal-g1", "principal-g2", "g3", "complex-h", "g4"])
    def test_sliced_equals_projection_matmuls_bitwise(self, case, g2_datum, g3_datum):
        if case == "g3":
            datum = g3_datum
        elif case == "complex-h":
            datum = complex_pairing_datum(g2_datum)
        elif case == "g4":
            datum = config_datum("g4.json")
        else:
            datum = VerificationConfig.demo(case).datum
        base = canonical_connection(datum)
        conn = family_connection(base)
        u = seeded_lifts(conn.datum.torus)
        sliced = conn.theta(u)
        assert sliced.shape == u.shape
        assert np.array_equal(sliced, family_covector_by_maps(base)(u))

    @pytest.mark.parametrize("source", ["principal-g1", "principal-g2", "g3_n6.json", "g4.json"])
    def test_induced_from_a_non_affine_connection_bitwise(self, source):
        # D = canonical + v reaches the family as it is: -D(z) + D(z + w), D(z + w)
        datum = config_datum(source)
        base = offset_connection(datum)
        conn = family_connection(base)
        u = seeded_lifts(conn.datum.torus)
        assert conn.base is datum
        assert np.array_equal(conn.theta(u), family_covector_by_maps(base)(u))
        canonical = family_connection(canonical_connection(datum)).theta(u)
        assert np.max(np.abs(conn.theta(u) - canonical)) > 0.01

    @pytest.mark.parametrize("source", ["principal-g1", "principal-g2", "g3_n6.json", "g4.json"])
    def test_dual_family_is_the_negated_family_bitwise(self, source):
        datum = config_datum(source)
        family = family_connection(canonical_connection(datum))
        dual_family = family_connection(canonical_connection(datum.dual()))
        u = seeded_lifts(family.datum.torus)
        assert np.array_equal(dual_family.theta(u), -family.theta(u))


class TestComplexPairing:
    """A datum whose H is not real, so H and its transpose differ.

    Every demo and workload has a real symmetric H, on which the canonical
    covector's -pi conj(z) H^T and a mistaken -pi conj(z) H agree.
    """

    @pytest.fixture
    def skew_datum(self, g2_datum):
        return complex_pairing_datum(g2_datum)

    def test_pulled_back_pairing_is_not_real(self, skew_datum):
        expected = np.array([[0.75, 0.08 + 0.14j], [0.08 - 0.14j, 0.615]])
        assert np.max(np.abs(skew_datum.hermitian - expected)) <= 1e-12
        assert np.max(np.abs(skew_datum.hermitian.imag)) >= 0.1

    def test_canonical_curvature_matches_chern_form(self, skew_datum):
        assert canonical_class_gap(skew_datum) <= 1e-12

    def test_untransposed_pairing_is_caught(self, skew_datum, monkeypatch):
        def untransposed(datum):
            h = datum.hermitian
            return ConnectionForm(datum, lambda z: -np.pi * (np.conj(z) @ h))

        monkeypatch.setattr(connections, "canonical_connection", untransposed)
        assert canonical_class_gap(skew_datum) > 0.1


class TestChernForm:
    def test_trivial_class_zero(self, flat_datum):
        assert np.max(np.abs(chern_form(flat_datum))) == 0

    def test_principal_cycle_integral(self, principal_datum):
        omega = chern_form(principal_datum)
        assert abs(cycle_integral(principal_datum.torus, omega)[0, 1] - (-1)) <= 1e-8

    def test_g2_cycle_matrix_is_integer_pairing(self, g2_datum, g2_torus):
        omega = chern_form(g2_datum)
        table = cycle_integral(g2_torus, omega)
        for j in range(4):
            for k in range(4):
                # oracle: Im H on the lattice pair
                expected = np.imag(
                    hermitian_pairing(
                        g2_datum.hermitian,
                        g2_torus.periods[:, j],
                        g2_torus.periods[:, k],
                    )
                )
                assert abs(table[j, k] - expected) <= 1e-8
                assert abs(expected - round(expected.real)) <= 1e-12

    def test_dual_negates_connection(self, g2_datum, rng):
        theta = canonical_connection(g2_datum).theta
        theta_dual = canonical_connection(g2_datum.dual()).theta
        z = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        assert np.max(np.abs(theta(z) + theta_dual(z))) == 0


class TestFamilyConnection:
    def test_trivial_family_vanishes(self, flat_datum, rng):
        fam = family_connection(canonical_connection(flat_datum))
        z = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        assert np.max(np.abs(fam.theta(z))) == 0

    def test_agrees_with_canonical_of_family_datum(self, principal_datum, rng):
        fam = family_connection(canonical_connection(principal_datum))
        direct = canonical_connection(build_family(principal_datum))
        z = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        assert np.max(np.abs(fam.theta(z) - direct.theta(z))) <= 1e-12

    def test_curvature_is_difference_of_pullbacks(self, principal_datum):
        fam = family_connection(canonical_connection(principal_datum))
        k_fam = curvature(fam, 16)
        # oracle: pull the constant curvature matrix back along the addition
        # map and the first projection, then subtract
        k_base = -np.pi * principal_datum.hermitian
        m_add = np.hstack([np.eye(1), np.eye(1)])
        m_p1 = np.hstack([np.eye(1), np.zeros((1, 1))])
        expected = m_add.T @ k_base @ np.conj(m_add) - m_p1.T @ k_base @ np.conj(m_p1)
        assert np.max(np.abs(k_fam - expected)) <= 1e-8


class TestSliceConnection:
    def test_slice_formula_frozen(self, principal_datum, rng):
        fam = family_connection(canonical_connection(principal_datum))
        x = np.array([0.3 + 0.2j])
        sliced = slice_connection(fam, x)
        z = rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1))
        expected = -np.pi * np.conj(0.3 + 0.2j)
        assert np.max(np.abs(sliced.theta(z) - expected)) <= 1e-12

    @pytest.mark.parametrize("case", ["g1", "g2"])
    def test_flatness_random_slices(self, case, principal_datum, g2_datum, rng):
        datum = principal_datum if case == "g1" else g2_datum
        n = 64 if case == "g1" else 16
        fam = family_connection(canonical_connection(datum))
        for x in datum.torus.random_points(rng, 5):
            sliced = slice_connection(fam, x)
            assert np.max(np.abs(curvature(sliced, n))) <= 1e-8


class TestRestrictionBySlicing:
    """Slices and sections of the family read by slicing equal their pullback_connection forms."""

    @pytest.fixture(params=["principal-g1", "principal-g2", "g3", "complex-h"])
    def family(self, request, g2_datum, g3_datum):
        if request.param == "g3":
            return family_connection(canonical_connection(g3_datum))
        if request.param == "complex-h":
            return family_connection(canonical_connection(complex_pairing_datum(g2_datum)))
        datum = VerificationConfig.demo(request.param).datum
        return family_connection(canonical_connection(datum))

    def test_slice_connection(self, family, rng):
        prod = family.datum.torus
        z = seeded_lifts(family.base.torus)
        for x in family.base.torus.random_points(rng, 3):
            sliced = slice_connection(family, x)
            by_pullback = pullback_connection(slice_embedding(x, prod), family)
            assert np.array_equal(sliced.theta(z), by_pullback.theta(z))
            assert np.array_equal(sliced.datum.hermitian, by_pullback.datum.hermitian)
            assert np.array_equal(sliced.datum.chi, by_pullback.datum.chi)

    def test_tau_slice_covector(self, family, rng):
        prod, g = family.datum.torus, family.base.torus.genus
        x = seeded_lifts(family.base.torus)
        for y in [np.zeros(g), *family.base.torus.random_points(rng, 3)]:
            by_section = family.theta(parameter_section(y, prod).apply(x))[..., :g]
            assert np.array_equal(restricted_covector(family, y, free=1, half=0)(x), by_section)

    @pytest.mark.parametrize("resolution", [6, 16])
    def test_check_eq_i(self, family, resolution, rng):
        coords = SeededDraws(7).random((POINT_SAMPLES, 2 * family.base.torus.genus))
        ys = family.base.torus.random_points(rng, 3)
        assert check_eq_i(family, ys, resolution, coords).tolist() == \
            [check_eq_i_by_pullback(family, y, resolution, coords) for y in ys]


class TestSectionReadsTheSecondHalf:
    """``check_eq_i`` restricts the second half of the family covector along x -> (y, x).

    The family pairing [[0, H], [H, H]] gives both halves one dbar in x, so no
    curvature tells them apart.  Their difference is theta_dual(y), non-zero
    off y = 0, so the covector ``check_eq_i`` differentiates pins the half.
    """

    @pytest.fixture
    def family(self):
        datum = VerificationConfig.demo("principal-g2").datum
        return family_connection(canonical_connection(datum))

    def differentiated(self, monkeypatch, family, ys):
        """The map that ``check_eq_i`` hands to the stencil for the lifts ``ys`` (S, g)."""
        seen = []

        def spy(torus, fn, resolution, coords=None):
            seen.append(fn)
            return dbar_at_points(torus, fn, resolution, coords)

        monkeypatch.setattr(connections, "dbar_at_points", spy)
        check_eq_i(family, ys, 16)
        (fn,) = seen
        return fn

    def test_check_eq_i_reads_the_second_half(self, family, monkeypatch):
        g = family.base.torus.genus
        y = family.base.torus.random_points(SeededDraws(3), 1)[0]
        x = seeded_lifts(family.base.torus)
        (restricted,) = self.differentiated(monkeypatch, family, y[None])(x)
        on_product = family.theta(product_lifts(y, x))
        assert np.array_equal(restricted, on_product[..., g:])
        gap = on_product[..., :g] - restricted
        theta_dual = canonical_connection(family.base.dual()).theta(y)
        assert np.max(np.abs(gap - theta_dual)) <= 1e-12
        assert np.min(np.abs(theta_dual)) > 0.1

    def test_batched_check_eq_i_reads_the_second_half(self, family, monkeypatch):
        g = family.base.torus.genus
        ys = family.base.torus.random_points(SeededDraws(3), 3)
        x = seeded_lifts(family.base.torus)
        restricted = self.differentiated(monkeypatch, family, ys)(x)
        on_product = family.theta(product_lifts(ys[:, None, :], x))
        assert np.array_equal(restricted, on_product[..., g:])
        assert not np.allclose(restricted, on_product[..., :g])


class TestBatchedSections:
    """``check_eq_i`` reads a batch of lifts with one stencil call per block and builds no datum."""

    @pytest.fixture
    def family(self):
        datum = VerificationConfig.demo("principal-g2").datum
        return family_connection(canonical_connection(datum))

    def count_builds_and_stencil_calls(self, monkeypatch):
        """Spies on ``AHDatum`` and ``TorusHomomorphism`` constructions and on the stencil."""
        seen = {"data": 0, "maps": 0, "stencil_coords": []}
        for cls, key in [(AHDatum, "data"), (TorusHomomorphism, "maps")]:
            def counted(self, *args, build=cls.__init__, key=key, **kwargs):
                seen[key] += 1
                build(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        def spy(torus, fn, resolution, coords=None):
            seen["stencil_coords"].append(np.shape(coords))
            return dbar_at_points(torus, fn, resolution, coords)

        monkeypatch.setattr(connections, "dbar_at_points", spy)
        return seen

    def test_builds_no_datum_or_map_and_a_stencil_call_per_block(self, family, monkeypatch):
        # the class compared with is the family's base, so nothing is pulled back;
        # 5 lifts at genus 2 are a block of 4 and a block of 1
        g = family.base.torus.genus
        ys = family.base.torus.random_points(SeededDraws(4), 5)
        coords = SeededDraws(7).random((POINT_SAMPLES, 2 * g))
        seen = self.count_builds_and_stencil_calls(monkeypatch)
        deviations = check_eq_i(family, ys, 16, coords)
        assert seen == {"data": 0, "maps": 0, "stencil_coords": [(POINT_SAMPLES, 2 * g)] * 2}
        assert deviations.shape == (5,)

    def test_memory_does_not_grow_with_the_batch(self, g3_datum):
        # 1000 lifts at genus 3 are 1000 blocks of one, so the peak is one block's
        # (0.70 MB measured); one stencil call on the whole batch peaked at 270 MB
        family = family_connection(canonical_connection(g3_datum))
        ys = g3_datum.torus.random_points(SeededDraws(3), 1000)
        check_eq_i(family, ys[:1], 6)  # first-call imports and caches are not the measured call's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            deviations = check_eq_i(family, ys, 6)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"{peak / 1e6:.2f} MB at peak"
        assert deviations.shape == (1000,) and np.max(deviations) <= 1e-8

    def test_memory_does_not_grow_with_the_point_count(self, family):
        # blocks are sized for the points read: 4 lifts at 2560 points are 4
        # blocks of one (2.13 MB measured), where sizing for 256 points made
        # one block of 4 (6.8 MB)
        g = family.base.torus.genus
        ys = family.base.torus.random_points(SeededDraws(3), 4)
        coords = SeededDraws(8).random((10 * POINT_SAMPLES, 2 * g))
        check_eq_i(family, ys[:1], 6, coords[:1])  # first-call imports are not measured
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            deviations = check_eq_i(family, ys, 6, coords)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"{peak / 1e6:.2f} MB at peak"
        assert deviations.shape == (4,) and np.max(deviations) <= 1e-8

    def test_form_without_base_refused_before_the_stencil(self, family, monkeypatch):
        seen = self.count_builds_and_stencil_calls(monkeypatch)
        no_base = ConnectionForm(family.datum, family.theta)
        with pytest.raises(TorusMismatch, match="family_connection"):
            check_eq_i(no_base, np.zeros((1, family.base.torus.genus)), 16)
        assert seen["stencil_coords"] == []

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((0, 2)), ShapeMismatch), (np.zeros((2, 2, 2)), ShapeMismatch),
        (np.zeros((1, 3)), ShapeMismatch), ([[0, 0], [np.nan, 0]], ValueError),
        ([[0, np.inf]], ValueError), (np.zeros(2), ShapeMismatch),
    ], ids=["empty", "3-D", "wrong_genus", "nan_in_a_later_row", "inf", "one_lift"])
    def test_lifts_are_validated_as_a_lift_or_a_batch(self, family, bad, error):
        # only a batch (S, g) is read: one lift (g,) is refused like any other shape
        with pytest.raises(error, match="point lifts must"):
            check_eq_i(family, bad, 16)


class TestRestrictedCovector:
    @pytest.mark.parametrize("free, half", [(0, 0), (1, 0), (1, 1)])
    def test_fixed_batch_is_a_broadcast_axis_ahead_of_the_points(self, g2_datum, free, half):
        # S = 3 fixed lifts and P = 7 points, which do not split into 3 blocks
        fam = family_connection(canonical_connection(g2_datum))
        draws = SeededDraws(5)
        fixed = g2_datum.torus.random_points(draws, 3)
        x = g2_datum.torus.random_points(draws, 14).reshape(2, 7, 2)
        batched = restricted_covector(fam, fixed, free, half)(x)
        assert batched.shape == (2, 3, 7, 2)
        for s, y in enumerate(fixed):
            single = restricted_covector(fam, y, free, half)(x)
            assert batched[:, s].tobytes() == single.tobytes()


class TestRestrictionIdentity:
    def test_trivial(self, flat_datum):
        fam = family_connection(canonical_connection(flat_datum))
        assert np.max(check_eq_i(fam, [[0.2 + 0.9j]], 16)) <= 1e-12

    @pytest.mark.parametrize("case", ["g1", "g2"])
    def test_random_base_points(self, case, principal_datum, g2_datum, rng):
        datum = principal_datum if case == "g1" else g2_datum
        n = 64 if case == "g1" else 16
        fam = family_connection(canonical_connection(datum))
        assert np.max(check_eq_i(fam, datum.torus.random_points(rng, 5), n)) <= 1e-8
