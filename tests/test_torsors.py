import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from torsorcheck import (
    AHDatum,
    BaseMismatch,
    ConnectionForm,
    ResolutionTooCoarse,
    ShapeMismatch,
    TorsorMorphism,
    TorsorPresentation,
    TorusHomomorphism,
    TorusMismatch,
    act,
    canonical_connection,
    canonical_morphism,
    chern_form,
    dbar_at_points,
    duality_map,
    family_connection,
    is_holomorphic,
    is_holomorphic_morphism,
    local_holomorphic_section,
    obstruction,
    sigma_presentation,
    tau_presentation,
    trivial_datum,
)
from torsorcheck import torsors
from torsorcheck.grids import seeded_coords

from oracles import grid_nodes, random_offset, same_section, seeded_lifts

N_G1 = 64


def patch_family_covector(fam, change):
    """The family form ``fam`` with ``change(theta, u)`` in place of its covector."""
    return ConnectionForm(fam.datum, lambda u: change(fam.theta(u), u), base=fam.base)


def trig_offset(torus, amplitude, mode):
    """Single-mode periodic offset on the cover and its closed-form dzbar derivative.

    The offset maps lifts (..., g) to (..., g); the derivative takes lattice
    coordinates (..., 2g) to (..., g, g).
    """
    g = torus.genus
    coeff = amplitude * (1.0 + 0.5j) * (1 + np.arange(g))
    chain = 2j * np.pi * (torus.dzbar_rows @ mode)

    def offset(z):
        return coeff * np.exp(2j * np.pi * (torus.lattice_coords(z) @ mode))[..., None]

    def deriv(coords):
        phase = np.exp(2j * np.pi * (coords @ mode))
        return phase[..., None, None] * np.einsum("j,k->jk", coeff, chain)

    return offset, deriv


@pytest.fixture
def sigma_g1(principal_datum):
    return sigma_presentation(principal_datum, N_G1)


@pytest.fixture
def tau_g1(principal_datum):
    return tau_presentation(family_connection(canonical_connection(principal_datum)), N_G1)


class TestAction:
    def test_act_by_zero(self, sigma_g1):
        s = sigma_g1.zero_section()
        assert same_section(act(s, np.zeros(1, dtype=complex)), s)

    def test_act_then_undo(self, sigma_g1, rng):
        s = sigma_g1.zero_section()
        v = random_offset(sigma_g1.torus, rng)
        assert same_section(act(act(s, v), lambda z: -v(z)), s)

    def test_composition_axiom_bitwise(self, sigma_g1, rng):
        s = sigma_g1.zero_section()
        v = random_offset(sigma_g1.torus, rng)
        w = random_offset(sigma_g1.torus, rng)
        z = seeded_lifts(sigma_g1.torus)
        assert np.array_equal(act(act(s, v), w).offset(z),
                              act(s, lambda u: v(u) + w(u)).offset(z))

    def test_shape_checked(self, sigma_g1):
        # an offset is a (g,) constant or a function; a sampled grid is neither
        for offset in (np.zeros((3, 3, 1)), np.zeros((N_G1, N_G1, 1))):
            with pytest.raises(ShapeMismatch):
                act(sigma_g1.zero_section(), offset.astype(complex))
        # a function without the value axis would broadcast against the (g, g) class
        with pytest.raises(ShapeMismatch):
            obstruction(act(sigma_g1.zero_section(), lambda z: z[..., 0]))


class TestObstruction:
    def test_zero_offset_returns_reference(self, principal_datum, sigma_g1):
        theta = obstruction(sigma_g1.zero_section())
        assert np.array_equal(theta, sigma_g1.theta_ref)
        assert np.max(np.abs(theta - chern_form(principal_datum))) == 0

    def test_constant_offset_unchanged(self, sigma_g1, rng):
        v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        moved = act(sigma_g1.zero_section(), v)
        assert np.array_equal(obstruction(moved), sigma_g1.theta_ref)

    def test_affine_in_offset(self, principal_datum, tau_g1):
        torus = principal_datum.torus
        w, _ = trig_offset(torus, 0.3, np.array([1, 0]))
        moved = act(tau_g1.zero_section(), w)
        coords = seeded_coords(torus)
        expected = tau_g1.theta_ref + dbar_at_points(torus, w, N_G1, coords)
        assert np.max(np.abs(obstruction(moved, coords) - expected)) <= 1e-10

    def test_fd_derivative_matches_closed_form(self, principal_datum):
        # the operator itself, against the analytic derivative of the probe;
        # the probe is curved, so the error budget is the h^2 truncation term
        torus = principal_datum.torus
        amplitude, mode = 0.3, np.array([1, 0])
        offset, deriv = trig_offset(torus, amplitude, mode)
        nodes = grid_nodes(N_G1, 2)
        analytic = deriv(nodes)
        fd = dbar_at_points(torus, offset, N_G1, nodes)
        budget = amplitude * 2 * (2 * np.pi) ** 3 / (6 * N_G1**2)
        assert np.max(np.abs(fd - analytic)) <= budget

    def test_holomorphy_flags(self, flat_datum, principal_datum, sigma_g1):
        flat_sigma = sigma_presentation(flat_datum, 16)
        ok, err = is_holomorphic(flat_sigma.zero_section(), 1e-9)
        assert ok and err <= 1e-12
        ok, err = is_holomorphic(sigma_g1.zero_section(), 1e-6)
        assert not ok and abs(err - 0.5) < 1e-9  # |omega| = |H| / 2


class TestChartLocalSection:
    def test_antilinear_witness_is_holomorphic(self, sigma_g1):
        witness = local_holomorphic_section(sigma_g1)
        assert np.max(np.abs(obstruction(witness))) <= 1e-9

    def test_g2_antilinear_witness_is_holomorphic(self, g2_datum):
        witness = local_holomorphic_section(sigma_presentation(g2_datum, 16))
        assert np.max(np.abs(obstruction(witness))) <= 1e-9


class TestCanonicalMorphism:
    def test_identity_morphism(self, sigma_g1):
        gamma = canonical_morphism(sigma_g1, sigma_g1)
        ok, err = is_holomorphic_morphism(gamma, 1e-12)
        assert ok and err == 0.0

    def test_equivariance_bitwise(self, sigma_g1, tau_g1, rng):
        gamma = canonical_morphism(sigma_g1, tau_g1)
        v = random_offset(sigma_g1.torus, rng)
        z = seeded_lifts(sigma_g1.torus)
        left = gamma.apply(act(sigma_g1.zero_section(), v)).offset(z)
        right = act(gamma.apply(sigma_g1.zero_section()), v).offset(z)
        assert np.array_equal(left, right)

    def test_sigma_tau_morphism_holomorphic(self, sigma_g1, tau_g1):
        gamma = canonical_morphism(sigma_g1, tau_g1)
        ok, err = is_holomorphic_morphism(gamma, 1e-6)
        assert ok, f"max obstruction {err:.3e}"

    def test_g2_sigma_tau_morphism_holomorphic(self, g2_datum):
        gamma = canonical_morphism(
            sigma_presentation(g2_datum, 16),
            tau_presentation(family_connection(canonical_connection(g2_datum)), 16),
        )
        ok, err = is_holomorphic_morphism(gamma, 1e-6)
        assert ok, f"max obstruction {err:.3e}"

    def test_distinct_classes_not_holomorphic(self, square_torus, principal_datum):
        doubled = AHDatum(square_torus, [[2.0]], [1.0, 1.0])
        sigma, sigma_doubled = (sigma_presentation(d, 16) for d in (principal_datum, doubled))
        # two bundles have no canonical morphism; matched directly, their classes differ
        with pytest.raises(BaseMismatch, match="different data"):
            canonical_morphism(sigma, sigma_doubled)
        ok, err = is_holomorphic_morphism(TorsorMorphism(sigma, sigma_doubled), 1e-6)
        assert not ok
        assert abs(err - 0.5) <= 1e-9  # |omega' - omega| = |H' - H| / 2

    def test_presentations_of_other_phases_rejected(self, square_torus, flat_datum):
        # H = 0 on both, so the classes agree and only the phases tell the bundles apart
        turned = AHDatum(square_torus, [[0]], [1j, 1])
        with pytest.raises(BaseMismatch, match="different data"):
            canonical_morphism(sigma_presentation(flat_datum, 16), sigma_presentation(turned, 16))

    def test_base_mismatch_rejected(self, principal_datum, g2_datum):
        with pytest.raises(BaseMismatch):
            canonical_morphism(
                sigma_presentation(principal_datum, 16), sigma_presentation(g2_datum, 16)
            )

    def test_perturbed_reference_identity(self, principal_datum, sigma_g1, tau_g1):
        torus = principal_datum.torus
        w, _ = trig_offset(torus, 0.05, np.array([0, 1]))
        coords = seeded_coords(torus)
        moved = obstruction(act(tau_g1.zero_section(), w), coords)
        dbar_w = dbar_at_points(torus, w, N_G1, coords)
        assert np.max(np.abs((moved - sigma_g1.theta_ref) - dbar_w)) <= 2e-6

    def test_close_references_give_small_obstruction(self, tau_g1, rng):
        eps = 1e-7
        noise = rng.standard_normal(tau_g1.theta_ref.shape)
        nearby = TorsorPresentation(tau_g1.datum, N_G1, tau_g1.theta_ref + eps * noise)
        gamma = canonical_morphism(tau_g1, nearby)
        _, err = is_holomorphic_morphism(gamma, eps)
        assert err <= eps * np.max(np.abs(noise)) + 1e-10


class TestTrivializationClass:
    def test_trivial_bundle_trivializable(self, flat_datum):
        pres = sigma_presentation(flat_datum, 16)
        assert np.max(np.abs(pres.theta_ref)) <= 1e-12
        ok, _ = is_holomorphic(pres.zero_section(), 1e-9)
        assert ok

    def test_principal_not_trivializable(self, sigma_g1):
        cls = sigma_g1.theta_ref
        assert abs(abs(cls[0, 0]) - 0.5) <= 1e-12  # |i/(2 pi) * pi * H| = 0.5

    def test_exact_form_has_zero_class(self, principal_datum, tau_g1):
        w, _ = trig_offset(principal_datum.torus, 0.4, np.array([1, 1]))
        moved = act(tau_g1.zero_section(), w)
        # dbar of a periodic offset averages to zero over the grid nodes: it adds no class
        nodes = grid_nodes(N_G1, 2)
        exact = obstruction(moved, nodes) - tau_g1.theta_ref
        assert np.max(np.abs(exact.mean(axis=0))) <= 1e-8


class TestDuality:
    def test_involution_bitwise(self, principal_datum, tau_g1, rng):
        dual_family = family_connection(canonical_connection(principal_datum.dual()))
        tau_dual = tau_presentation(dual_family, N_G1)
        fwd = duality_map(tau_g1, tau_dual)
        back = duality_map(tau_dual, tau_g1)
        z = seeded_lifts(tau_g1.torus)
        for _ in range(5):
            s = act(tau_g1.zero_section(), random_offset(tau_g1.torus, rng))
            assert np.array_equal(back.apply(fwd.apply(s)).offset(z), s.offset(z))

    def test_anti_equivariance_bitwise(self, principal_datum, tau_g1, rng):
        dual_family = family_connection(canonical_connection(principal_datum.dual()))
        tau_dual = tau_presentation(dual_family, N_G1)
        delta = duality_map(tau_g1, tau_dual)
        s = act(tau_g1.zero_section(), random_offset(tau_g1.torus, rng))
        v = random_offset(tau_g1.torus, rng)
        z = seeded_lifts(tau_g1.torus)
        assert np.array_equal(
            delta.apply(act(s, v)).offset(z), act(delta.apply(s), lambda u: -v(u)).offset(z)
        )

    def test_zero_section_maps_to_zero_section(self, principal_datum, tau_g1):
        dual_family = family_connection(canonical_connection(principal_datum.dual()))
        tau_dual = tau_presentation(dual_family, N_G1)
        delta = duality_map(tau_g1, tau_dual)
        image = delta.apply(tau_g1.zero_section())
        assert np.max(np.abs(image.offset)) == 0.0
        # and the map itself is holomorphic: the reference obstructions negate
        ok, err = is_holomorphic_morphism(delta, 1e-9)
        assert ok, err

    def test_connection_side_duality(self, principal_datum, sigma_g1):
        sigma_dual = sigma_presentation(principal_datum.dual(), N_G1)
        ok, err = is_holomorphic_morphism(duality_map(sigma_g1, sigma_dual), 1e-9)
        assert ok, err

    def test_non_dual_target_rejected(self, principal_datum, sigma_g1):
        with pytest.raises(BaseMismatch):
            duality_map(sigma_g1, sigma_presentation(principal_datum, N_G1))

    def test_target_with_unconjugated_phases_rejected(self, square_torus):
        # H = 0 is its own negative, so only the phases tell this datum from its dual
        datum = AHDatum(square_torus, [[0]], [1j, 1])
        sigma = sigma_presentation(datum, 16)
        duality_map(sigma, sigma_presentation(datum.dual(), 16))
        with pytest.raises(BaseMismatch):
            duality_map(sigma, sigma)


class TestTauPresentation:
    def test_matches_invariant_class(self, principal_datum, tau_g1):
        omega = chern_form(principal_datum)
        assert np.max(np.abs(tau_g1.theta_ref - omega)) <= 1e-6

    def test_base_point_independent(self, principal_datum, tau_g1, rng):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        family = family_connection(canonical_connection(principal_datum))
        moved = tau_presentation(family, N_G1, z_base=z)
        assert np.max(np.abs(moved.theta_ref - tau_g1.theta_ref)) <= 1e-8

    def test_recomputed_reference_must_be_constant(self, principal_datum):
        # a term quadratic in (zbar, xbar) on every component gives the slice
        # covector a dbar that moves from point to point, so no constant class fits
        fam = patch_family_covector(family_connection(canonical_connection(principal_datum)),
                                    lambda theta, u: theta
                                    + 0.1 * np.sum(np.conj(u) ** 2, axis=-1, keepdims=True))
        with pytest.raises(ValueError, match="varies by"):
            tau_presentation(fam, 16)

    def test_non_finite_cloud_raises_varies_by(self, principal_datum):
        fam = patch_family_covector(family_connection(canonical_connection(principal_datum)),
                                    lambda theta, u: theta * np.nan)
        with pytest.raises(ValueError, match="varies by nan"):
            tau_presentation(fam, 16)

    def test_reads_the_family_it_is_given(self, principal_datum):
        fam = family_connection(canonical_connection(principal_datum))
        tau = tau_presentation(fam, N_G1)
        assert tau.datum is fam.base is principal_datum
        assert tau.torus is principal_datum.torus

    def test_form_without_base_datum_rejected(self, principal_datum):
        with pytest.raises(TorusMismatch, match="family_connection"):
            tau_presentation(canonical_connection(principal_datum), 16)

    def test_base_point_shape_is_exact(self, g2_datum):
        with pytest.raises(ShapeMismatch):
            tau_presentation(family_connection(canonical_connection(g2_datum)), 8,
                             z_base=[0, 0, 0])

    def test_builds_no_map_and_checks_the_base_point_first(self, g2_datum, monkeypatch):
        # the base point is checked as one finite lift, with no section map
        # x -> (z_base, x), and a bad one is refused before the stencil runs
        fam = family_connection(canonical_connection(g2_datum))
        calls = {"maps": 0, "stencil": 0}
        build, stencil = TorusHomomorphism.__init__, torsors.dbar_at_points

        def counted_build(self, *args, **kwargs):
            calls["maps"] += 1
            build(self, *args, **kwargs)

        def counted_stencil(*args, **kwargs):
            calls["stencil"] += 1
            return stencil(*args, **kwargs)

        monkeypatch.setattr(TorusHomomorphism, "__init__", counted_build)
        monkeypatch.setattr(torsors, "dbar_at_points", counted_stencil)
        z = np.array([0.3 - 0.1j, 0.2j])
        tau_presentation(fam, 8, z_base=z)
        assert calls == {"maps": 0, "stencil": 1}
        for bad, error in [([0, 0, 0], ShapeMismatch), (np.stack([z, z]), ShapeMismatch),
                           ([np.nan, 0], ValueError), ([0, np.inf], ValueError)]:
            with pytest.raises(error):
                tau_presentation(fam, 8, z_base=bad)
        assert calls == {"maps": 0, "stencil": 1}

    def test_holds_no_grid(self, g2_datum, g3_datum):
        # the class is read at seeded points, so the peak stays far below one
        # (g, g) grid: 21.2 MB for g2 at N=24, 2.4 GB for g3 at N=16
        for datum, n in [(g2_datum, 24), (g3_datum, 16)]:
            fam = family_connection(canonical_connection(datum))
            tau_presentation(fam, 4)  # first-call imports and caches are not the measured call's
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                tau = tau_presentation(fam, n)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            g = datum.torus.genus
            assert peak < 1e6, f"genus {g}: {peak / 1e6:.2f} MB at peak"
            assert tau.theta_ref.shape == (g, g)

    def test_dual_class_is_the_exact_negative(self, principal_datum, g2_datum, g3_datum):
        # the dual's covectors are exact negatives, read at the same points
        for datum, n in [(principal_datum, N_G1), (g2_datum, 16), (g3_datum, 6)]:
            tau = tau_presentation(family_connection(canonical_connection(datum)), n)
            tau_dual = tau_presentation(family_connection(canonical_connection(datum.dual())), n)
            g = datum.torus.genus
            assert tau.theta_ref.shape == tau_dual.theta_ref.shape == (g, g)
            assert np.array_equal(tau_dual.theta_ref, -tau.theta_ref)

    def test_g3_class_matches_chern_form_at_grid_16(self, g3_datum):
        tau = tau_presentation(family_connection(canonical_connection(g3_datum)), 16)
        assert tau.theta_ref.shape == (3, 3)
        assert np.max(np.abs(tau.theta_ref - chern_form(g3_datum))) <= 1e-12


class TestPresentationLayout:
    def test_presentation_is_its_datum_resolution_and_class(self, principal_datum):
        # the torus is read from the datum, so the two cannot disagree
        assert [f.name for f in fields(TorsorPresentation)] == ["datum", "resolution", "theta_ref"]
        pres = TorsorPresentation(principal_datum, 16, np.zeros((1, 1), dtype=complex))
        assert pres.torus is principal_datum.torus

    @pytest.mark.parametrize("shape", [(16, 1, 1, 1), (16, 8, 1, 1)], ids=str)
    def test_one_resolution_on_every_axis(self, flat_datum, shape):
        # no grid layout is read, not even one whose axes would broadcast
        # against a 16 x 16 offset grid
        with pytest.raises(ShapeMismatch):
            TorsorPresentation(flat_datum, 16, np.zeros(shape, dtype=complex))

    def test_non_finite_reference_rejected(self, flat_datum):
        theta = np.zeros((1, 1), dtype=complex)
        theta[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TorsorPresentation(flat_datum, 16, theta)

    def test_resolution_below_minimum_rejected(self, flat_datum):
        with pytest.raises(ResolutionTooCoarse):
            TorsorPresentation(flat_datum, 3, np.zeros((1, 1), dtype=complex))

    def test_grid_reference_rejected(self, flat_datum, g2_datum):
        # a presentation holds its (g, g) class, not the class repeated per node,
        # at the presentation resolution or any other
        for n in (8, 16):
            with pytest.raises(ShapeMismatch, match=r"\(1, 1\)"):
                TorsorPresentation(flat_datum, resolution=16,
                                   theta_ref=np.zeros((n, n, 1, 1), dtype=complex))
        sigma = sigma_presentation(g2_datum, 8)
        grid = np.broadcast_to(sigma.theta_ref, (8,) * 4 + (2, 2))
        with pytest.raises(ShapeMismatch, match=r"\(2, 2\)"):
            TorsorPresentation(g2_datum, 8, grid)

    def test_non_finite_broadcast_reference_rejected(self, flat_datum):
        # a zero-stride (g, g) view of one non-finite number is refused like any matrix
        theta = np.broadcast_to(np.array(np.inf + 0j), (1, 1))
        with pytest.raises(ValueError, match="finite"):
            TorsorPresentation(flat_datum, 16, theta)


class TestSigmaPresentation:
    def test_reference_is_one_read_only_matrix(self, g2_datum):
        # the invariant class is one (g, g) matrix; no N^{2g} copy of it is kept
        n = 24
        grid_bytes = np.dtype(complex).itemsize * n**4 * 2 * 2
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            sigma = sigma_presentation(g2_datum, n)
            kept = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert kept < 0.01 * grid_bytes, f"{kept / grid_bytes:.3f} grids kept"
        assert sigma.theta_ref.shape == (2, 2)
        assert not sigma.theta_ref.flags.writeable
        assert obstruction(sigma.zero_section()) is sigma.theta_ref

    def test_built_without_a_grid_temporary(self, g2_datum):
        # checking a broadcast reference must not expand it into grid-sized masks
        n = 24
        grid_bytes = np.dtype(complex).itemsize * n**4 * 2 * 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            sigma_presentation(g2_datum, n)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * grid_bytes, f"{peak / grid_bytes:.3f} grids at peak"

    def test_zero_section_obstruction_is_the_reference_view(self, g2_datum):
        sigma = sigma_presentation(g2_datum, 16)
        theta = obstruction(sigma.zero_section())
        assert not theta.flags.writeable
        assert np.shares_memory(theta, sigma.theta_ref)

    def test_constant_checks_hold_no_grid(self, g2_datum):
        # both obstructions are constant, so each check reads (g, g) matrices only
        n = 24
        grid_bytes = np.dtype(complex).itemsize * n**4 * 2 * 2
        delta = duality_map(sigma_presentation(g2_datum, n), sigma_presentation(g2_datum.dual(), n))
        flat = sigma_presentation(trivial_datum(g2_datum.torus), n).zero_section()
        for check, arg in [(is_holomorphic_morphism, delta), (is_holomorphic, flat)]:
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                ok, err = check(arg, 1e-12)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert ok and err == 0.0
            assert peak < 0.01 * grid_bytes, f"{check.__name__}: {peak / grid_bytes:.4f} grids"
