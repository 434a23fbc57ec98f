import tracemalloc

import numpy as np
import pytest

from torsorcheck import (
    AHDatum,
    BaseMismatch,
    GridFunction,
    ShapeMismatch,
    TorsorPresentation,
    TorsorSection,
    act,
    canonical_morphism,
    chern_form,
    custom_presentation,
    dbar_fd,
    duality_map,
    is_holomorphic,
    is_holomorphic_morphism,
    lattice_grid,
    local_holomorphic_section,
    obstruction,
    sigma_presentation,
    tau_presentation,
    transition,
    trivialization_class,
)

N_G1 = 64


def trig_offset(torus, resolution, amplitude, mode):
    """Single-mode periodic offset and its closed-form dzbar derivative."""
    g = torus.genus
    coords = lattice_grid(resolution, 2 * g)
    coeff = amplitude * (1.0 + 0.5j) * (1 + np.arange(g))
    phase = np.exp(2j * np.pi * (coords @ mode))
    values = coeff * phase[..., None]
    chain = 2j * np.pi * (torus.dzbar_rows @ mode)
    deriv = phase[..., None, None] * np.einsum("j,k->jk", coeff, chain)
    return values, deriv


@pytest.fixture
def sigma_g1(principal_datum):
    return sigma_presentation(principal_datum, N_G1)


@pytest.fixture
def tau_g1(principal_datum):
    return tau_presentation(principal_datum, N_G1)


class TestAction:
    def test_act_by_zero(self, sigma_g1):
        s = sigma_g1.zero_section()
        assert act(s, np.zeros(1, dtype=complex)).same_section(s)

    def test_act_then_undo(self, sigma_g1, rng):
        s = sigma_g1.zero_section()
        v = rng.standard_normal((N_G1, N_G1, 1)) + 1j * rng.standard_normal((N_G1, N_G1, 1))
        assert act(act(s, v), -v).same_section(s)

    def test_composition_axiom_bitwise(self, sigma_g1, rng):
        s = sigma_g1.zero_section()
        shape = (N_G1, N_G1, 1)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(act(act(s, v), w).offset, act(s, v + w).offset)

    def test_transition_is_unique_offset(self, sigma_g1, rng):
        shape = (N_G1, N_G1, 1)
        s = act(sigma_g1.zero_section(), rng.standard_normal(shape) + 0j)
        t = act(sigma_g1.zero_section(), rng.standard_normal(shape) + 0j)
        v = transition(s, t)
        assert np.allclose(act(s, v).offset, t.offset)

    def test_shape_checked(self, sigma_g1):
        with pytest.raises(ShapeMismatch):
            act(sigma_g1.zero_section(), np.zeros((3, 3, 1), dtype=complex))


class TestObstruction:
    def test_zero_offset_returns_reference(self, principal_datum, sigma_g1):
        theta = obstruction(sigma_g1.zero_section())
        assert np.array_equal(theta.values, sigma_g1.theta_ref)
        assert np.max(np.abs(theta.values - chern_form(principal_datum))) == 0

    def test_constant_offset_unchanged(self, sigma_g1, rng):
        v = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        moved = act(sigma_g1.zero_section(), v)
        assert np.array_equal(obstruction(moved).values, sigma_g1.theta_ref)

    def test_affine_in_offset(self, principal_datum, tau_g1):
        values, _ = trig_offset(principal_datum.torus, N_G1, 0.3, np.array([1, 0]))
        moved = act(tau_g1.zero_section(), values)
        expected = tau_g1.theta_ref + dbar_fd(
            GridFunction(principal_datum.torus, values)
        ).values
        assert np.max(np.abs(obstruction(moved).values - expected)) <= 1e-10

    def test_fd_derivative_matches_closed_form(self, principal_datum):
        # the operator itself, against the analytic derivative of the probe;
        # the probe is curved, so the error budget is the h^2 truncation term
        torus = principal_datum.torus
        amplitude, mode = 0.3, np.array([1, 0])
        values, analytic = trig_offset(torus, N_G1, amplitude, mode)
        fd = dbar_fd(GridFunction(torus, values)).values
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
        assert np.max(np.abs(witness.seam_jumps)) > 0
        assert obstruction(witness).max_abs() <= 1e-9

    def test_g2_antilinear_witness_is_holomorphic(self, g2_datum):
        witness = local_holomorphic_section(sigma_presentation(g2_datum, 16))
        assert np.max(np.abs(witness.seam_jumps)) > 0
        assert obstruction(witness).max_abs() <= 1e-9

    def test_jumps_are_carried_and_compared(self, principal_datum, sigma_g1, rng):
        witness = local_holomorphic_section(sigma_g1)
        v = rng.standard_normal((N_G1, N_G1, 1)) + 0j
        moved = act(witness, v)
        assert np.array_equal(moved.seam_jumps, witness.seam_jumps)
        assert np.allclose(transition(witness, moved), v)
        # the same values without the period increments are another section
        unwrapped = TorsorSection(sigma_g1, witness.addends)
        assert not unwrapped.same_section(witness)
        with pytest.raises(ShapeMismatch):
            transition(unwrapped, witness)
        with pytest.raises(ShapeMismatch):  # increments of no sampled offset
            TorsorSection(sigma_g1, (), witness.seam_jumps)
        # duality negates offset and jumps alike, so the image stays holomorphic
        sigma_dual = sigma_presentation(principal_datum.dual(), N_G1)
        image = duality_map(sigma_g1, sigma_dual).apply(witness)
        assert np.array_equal(image.seam_jumps, -witness.seam_jumps)
        assert obstruction(image).max_abs() <= 1e-9


class TestCanonicalMorphism:
    def test_identity_morphism(self, sigma_g1):
        gamma = canonical_morphism(sigma_g1, sigma_g1)
        ok, err = is_holomorphic_morphism(gamma, 1e-12)
        assert ok and err == 0.0

    def test_equivariance_bitwise(self, sigma_g1, tau_g1, rng):
        gamma = canonical_morphism(sigma_g1, tau_g1)
        shape = (N_G1, N_G1, 1)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        left = gamma.apply(act(sigma_g1.zero_section(), v)).offset
        right = act(gamma.apply(sigma_g1.zero_section()), v).offset
        assert np.array_equal(left, right)

    def test_sigma_tau_morphism_holomorphic(self, sigma_g1, tau_g1):
        gamma = canonical_morphism(sigma_g1, tau_g1)
        ok, err = is_holomorphic_morphism(gamma, 1e-6)
        assert ok, f"max obstruction {err:.3e}"

    def test_g2_sigma_tau_morphism_holomorphic(self, g2_datum):
        gamma = canonical_morphism(
            sigma_presentation(g2_datum, 16), tau_presentation(g2_datum, 16)
        )
        ok, err = is_holomorphic_morphism(gamma, 1e-6)
        assert ok, f"max obstruction {err:.3e}"

    def test_g2_morphism_check_holds_one_grid(self, g2_datum):
        # Theta_tau - Theta_sigma is the only grid the check needs; sigma's is a view
        n = 16
        gamma = canonical_morphism(
            sigma_presentation(g2_datum, n), tau_presentation(g2_datum, n)
        )
        grid_bytes = np.dtype(complex).itemsize * n**4 * 2 * 2
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            is_holomorphic_morphism(gamma, 1e-6)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * grid_bytes, f"{peak / grid_bytes:.2f} grids"

    def test_distinct_classes_not_holomorphic(self, square_torus, principal_datum):
        doubled = AHDatum(square_torus, [[2.0]], [1.0, 1.0])
        gamma = canonical_morphism(
            sigma_presentation(principal_datum, 16), sigma_presentation(doubled, 16)
        )
        ok, err = is_holomorphic_morphism(gamma, 1e-6)
        assert not ok
        assert abs(err - 0.5) <= 1e-9  # |omega' - omega| = |H' - H| / 2

    def test_base_mismatch_rejected(self, principal_datum, g2_datum):
        with pytest.raises(BaseMismatch):
            canonical_morphism(
                sigma_presentation(principal_datum, 16), sigma_presentation(g2_datum, 16)
            )

    def test_perturbed_reference_identity(self, principal_datum, sigma_g1, tau_g1):
        torus = principal_datum.torus
        w, _ = trig_offset(torus, N_G1, 0.05, np.array([0, 1]))
        perturbed = custom_presentation(tau_g1, w)
        gamma = canonical_morphism(sigma_g1, perturbed)
        dbar_w = dbar_fd(GridFunction(torus, w)).values
        assert np.max(np.abs(gamma.obstruction() - dbar_w)) <= 2e-6

    def test_close_references_give_small_obstruction(self, tau_g1, rng):
        eps = 1e-7
        noise = rng.standard_normal(tau_g1.theta_ref.shape)
        nearby = TorsorPresentation(
            tau_g1.torus, "custom", tau_g1.theta_ref + eps * noise
        )
        gamma = canonical_morphism(tau_g1, nearby)
        _, err = is_holomorphic_morphism(gamma, eps)
        assert err <= eps * np.max(np.abs(noise)) + 1e-10


class TestTrivializationClass:
    def test_trivial_bundle_trivializable(self, flat_datum):
        pres = sigma_presentation(flat_datum, 16)
        assert np.max(np.abs(trivialization_class(pres))) <= 1e-12
        ok, _ = is_holomorphic(pres.zero_section(), 1e-9)
        assert ok

    def test_principal_not_trivializable(self, sigma_g1):
        cls = trivialization_class(sigma_g1)
        assert abs(abs(cls[0, 0]) - 0.5) <= 1e-12  # |i/(2 pi) * pi * H| = 0.5

    def test_exact_form_has_zero_class(self, principal_datum, tau_g1):
        values, _ = trig_offset(principal_datum.torus, N_G1, 0.4, np.array([1, 1]))
        moved = act(tau_g1.zero_section(), values)
        shifted = TorsorPresentation(
            tau_g1.torus, "custom", obstruction(moved).values - tau_g1.theta_ref
        )
        assert np.max(np.abs(trivialization_class(shifted))) <= 1e-8


class TestDuality:
    def test_involution_bitwise(self, principal_datum, tau_g1, rng):
        tau_dual = tau_presentation(principal_datum.dual(), N_G1)
        fwd = duality_map(tau_g1, tau_dual)
        back = duality_map(tau_dual, tau_g1)
        shape = (N_G1, N_G1, 1)
        for _ in range(5):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            s = act(tau_g1.zero_section(), v)
            assert np.array_equal(back.apply(fwd.apply(s)).offset, s.offset)

    def test_anti_equivariance_bitwise(self, principal_datum, tau_g1, rng):
        tau_dual = tau_presentation(principal_datum.dual(), N_G1)
        delta = duality_map(tau_g1, tau_dual)
        shape = (N_G1, N_G1, 1)
        s = act(tau_g1.zero_section(), rng.standard_normal(shape) + 0j)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(
            delta.apply(act(s, v)).offset, act(delta.apply(s), -v).offset
        )

    def test_zero_section_maps_to_zero_section(self, principal_datum, tau_g1):
        tau_dual = tau_presentation(principal_datum.dual(), N_G1)
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


class TestTauPresentation:
    def test_matches_invariant_class(self, principal_datum, tau_g1):
        omega = chern_form(principal_datum)
        assert np.max(np.abs(tau_g1.theta_ref - omega)) <= 1e-6

    def test_base_point_independent(self, principal_datum, tau_g1, rng):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        moved = tau_presentation(principal_datum, N_G1, z_base=z)
        assert np.max(np.abs(moved.theta_ref - tau_g1.theta_ref)) <= 1e-8

    def test_slice_normal_route_agrees(self, principal_datum, tau_g1):
        alt = tau_presentation(principal_datum, N_G1, frame="slice_normal")
        assert np.max(np.abs(alt.theta_ref - tau_g1.theta_ref)) <= 1e-10

    def test_labeled_reference_must_be_constant(self, square_torus, rng):
        bumpy = rng.standard_normal((16, 16, 1, 1)) + 0j
        with pytest.raises(ValueError):
            TorsorPresentation(square_torus, "tau", bumpy)


class TestSigmaPresentation:
    def test_reference_is_a_read_only_broadcast(self, g2_datum):
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
        assert sigma.theta_ref.shape == (n,) * 4 + (2, 2)
        assert sigma.theta_ref.strides[:4] == (0,) * 4
        assert not sigma.theta_ref.flags.writeable
