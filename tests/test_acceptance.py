"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from torsorcheck import (
    CHERN_NORMALIZATION,
    AHDatum,
    ComplexTorus,
    canonical_connection,
    canonical_morphism,
    chern_form,
    check_eq_i,
    curvature,
    cycle_integral,
    dbar_at_points,
    duality_map,
    family_connection,
    is_holomorphic,
    is_holomorphic_morphism,
    local_holomorphic_section,
    obstruction,
    act,
    sigma_presentation,
    slice_connection,
    tau_presentation,
    trivial_datum,
)
from torsorcheck.grids import seeded_coords

from oracles import grid_nodes, random_offset, same_section

SEED = 20250809

# central differences are exact on integrands affine in (z, zbar), so on the
# critical checks the only residue is rounding noise; order-of-accuracy ratios
# are meaningful only above this floor (the genuine O(h^2) law is certified by
# criterion 2's curved probe)
NOISE_FLOOR = 1e-11


def _configs():
    g1 = ComplexTorus([[1.0, 1.0j]])
    d1 = AHDatum(g1, [[1.0]], [1.0, 1.0])
    g2 = ComplexTorus(np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])]))
    d2 = AHDatum(g2, np.diag([1.0, 0.5]), np.ones(4))
    return (d1, 64), (d2, 16)


def _report(number, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})"
    print(line)
    assert ok, line


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_integrality_anchor():
    (datum, _), _ = _configs()
    with Timer() as t:
        omega = chern_form(datum)
        target = datum.pairing_imag_int
        dev = max(
            abs(cycle_integral(datum.torus, omega, j, k) - target[j, k])
            for j in range(2)
            for k in range(2)
        )
    ok = dev <= 1e-8 and t.elapsed < 1.0
    _report(1, "cycle integrals of the curvature class equal the integer pairing",
            ok, f"max dev {dev:.2e}, {t.elapsed:.2f}s")


def test_criterion_2_sigma_obstruction_recomputation():
    (datum, _), _ = _configs()
    omega = chern_form(datum)
    with Timer() as t:
        errors = {}
        for n in (64, 128):
            recomputed = CHERN_NORMALIZATION * curvature(canonical_connection(datum), n)
            errors[n] = float(np.max(np.abs(recomputed - omega)))
        # the covector is affine, so both errors sit at the rounding floor;
        # demand the improvement whenever there is signal to improve
        improved = errors[128] <= max(errors[64] / 3.5, NOISE_FLOOR)
        # certify the second-order law itself on a curved probe
        torus = datum.torus

        def probe(z):
            return 0.1 * np.exp(2j * np.pi * torus.lattice_coords(z)[..., 0])[..., None]

        probe_err = {}
        for n in (64, 128):
            coords = grid_nodes(n, 2)
            values = 0.1 * np.exp(2j * np.pi * coords[..., 0])[..., None]
            analytic = values[..., None] * (2j * np.pi * torus.dzbar_rows[:, 0])
            fd = dbar_at_points(torus, probe, n, coords)
            probe_err[n] = float(np.max(np.abs(fd - analytic)))
        order_ratio = probe_err[64] / probe_err[128]
    ok = errors[64] <= 1e-6 and improved and order_ratio >= 3.5 and t.elapsed < 5.0
    _report(2, "difference-recomputed sigma obstruction matches the invariant class",
            ok, f"err64 {errors[64]:.2e}, err128 {errors[128]:.2e}, "
                f"order ratio {order_ratio:.2f}, {t.elapsed:.2f}s")


def test_criterion_3_slice_flatness():
    with Timer() as t:
        worst = 0.0
        for datum, n in _configs():
            rng = np.random.default_rng(SEED)
            fam = family_connection(datum)
            for x in datum.torus.random_points(rng, 5):
                worst = max(worst, np.max(np.abs(curvature(slice_connection(fam, x), n))))
    ok = worst <= 1e-8 and t.elapsed < 10.0
    _report(3, "slice restrictions of the family connection are flat",
            ok, f"max curvature {worst:.2e}, {t.elapsed:.2f}s")


def test_criterion_4_family_curvature_restriction():
    with Timer() as t:
        worst = 0.0
        for datum, n in _configs():
            rng = np.random.default_rng(SEED + 1)
            fam = family_connection(datum)
            for y in datum.torus.random_points(rng, 5):
                worst = max(worst, check_eq_i(fam, y, n))
    ok = worst <= 1e-8 and t.elapsed < 10.0
    _report(4, "restricted family curvature equals the invariant class",
            ok, f"max dev {worst:.2e}, {t.elapsed:.2f}s")


def test_criterion_5_tau_obstruction_and_isomorphism():
    results = []
    for (datum, n), budget in zip(_configs(), (30.0, 300.0)):
        with Timer() as t:
            omega = chern_form(datum)
            tau = tau_presentation(family_connection(datum), n)
            dev = float(np.max(np.abs(tau.theta_ref - omega)))
            gamma = canonical_morphism(sigma_presentation(datum, n), tau)
            holo, err = is_holomorphic_morphism(gamma, 1e-6)
        results.append((dev, holo, err, t.elapsed, budget))
    ok = all(
        dev <= 1e-6 and holo and elapsed < budget
        for dev, holo, _, elapsed, budget in results
    )
    detail = ", ".join(
        f"dev {dev:.2e}/gamma {err:.2e}/{elapsed:.2f}s"
        for dev, _, err, elapsed, _ in results
    )
    _report(5, "parameter-differentiated tau obstruction matches, comparison map holomorphic",
            ok, detail)


def test_criterion_6_perturbed_reference_identity():
    (datum, n), _ = _configs()
    with Timer() as t:
        torus = datum.torus
        rng = np.random.default_rng(SEED + 2)
        modes = np.array([[1, 0], [0, 1], [1, 1]])
        coeffs = 0.05 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))

        def w(z):
            return (np.exp(2j * np.pi * (torus.lattice_coords(z) @ modes.T)) @ coeffs)[..., None]

        coords = seeded_coords(torus)
        tau = tau_presentation(family_connection(datum), n)
        moved = obstruction(act(tau.zero_section(), w), coords)
        dbar_w = dbar_at_points(torus, w, n, coords)
        dev = float(np.max(np.abs((moved - sigma_presentation(datum, n).theta_ref) - dbar_w)))
    ok = dev <= 2e-6
    _report(6, "comparison-map obstruction of a perturbed reference equals dbar of the perturbation",
            ok, f"max dev {dev:.2e}, {t.elapsed:.2f}s")


def test_criterion_7_trivial_bundle_degenerate_run():
    torus = ComplexTorus([[1.0, 1.0j]])
    with Timer() as t:
        datum = trivial_datum(torus)
        omega_max = float(np.max(np.abs(chern_form(datum))))
        sigma = sigma_presentation(datum, 64)
        tau = tau_presentation(family_connection(datum), 64)
        class_max = max(
            float(np.max(np.abs(sigma.theta_ref))),
            float(np.max(np.abs(tau.theta_ref))),
        )
        sigma_holo, sigma_err = is_holomorphic(sigma.zero_section(), 1e-9)
        tau_holo, tau_err = is_holomorphic(tau.zero_section(), 1e-9)
        gamma = canonical_morphism(sigma, tau)
        gamma_holo, gamma_err = is_holomorphic_morphism(gamma, 1e-9)
        v = np.array([0.3 - 0.7j])
        identity_like = same_section(gamma.apply(act(sigma.zero_section(), v)),
                                     act(tau.zero_section(), v))
    ok = (
        omega_max == 0.0
        and class_max <= 1e-9
        and sigma_holo
        and tau_holo
        and gamma_holo
        and identity_like
        and t.elapsed < 1.0
    )
    _report(7, "trivial bundle: zero class, trivializable torsors, identity comparison map",
            ok, f"class {class_max:.2e}, obstructions {max(sigma_err, tau_err, gamma_err):.2e}, "
                f"{t.elapsed:.2f}s")


def test_criterion_8_duality_involution():
    (datum, n), _ = _configs()
    with Timer() as t:
        rng = np.random.default_rng(SEED + 3)
        tau = tau_presentation(family_connection(datum), n)
        tau_dual = tau_presentation(family_connection(datum.dual()), n)
        fwd = duality_map(tau, tau_dual)
        back = duality_map(tau_dual, tau)
        bit_exact = True
        for _ in range(5):
            v, w = random_offset(datum.torus, rng), random_offset(datum.torus, rng)
            s = act(tau.zero_section(), v)
            bit_exact &= same_section(back.apply(fwd.apply(s)), s)
            bit_exact &= same_section(fwd.apply(act(s, w)), act(fwd.apply(s), lambda z: -w(z)))
        image = fwd.apply(tau.zero_section())
        zero_map_err = float(np.max(np.abs(image.offset)))
        theta = canonical_connection(datum)
        theta_dual = canonical_connection(datum.dual())
        z = datum.torus.lift_of_coords(rng.random((10, 2)))
        zero_map_err = max(zero_map_err, float(np.max(np.abs(theta(z) + theta_dual(z)))))
    ok = bit_exact and zero_map_err <= 1e-9
    _report(8, "duality maps are bitwise involutive, anti-equivariant, reference-preserving",
            ok, f"zero-section gap {zero_map_err:.2e}, {t.elapsed:.2f}s")


def test_criterion_9_local_holomorphic_witness():
    (datum, n), _ = _configs()
    with Timer() as t:
        sigma = sigma_presentation(datum, n)
        witness = local_holomorphic_section(sigma)
        witness_err = float(np.max(np.abs(obstruction(witness))))
        global_class = float(np.max(np.abs(sigma.theta_ref)))
    ok = witness_err <= 1e-9 and global_class > 1e-3
    _report(9, "chart-local antilinear section is holomorphic while the global class persists",
            ok, f"witness {witness_err:.2e}, class {global_class:.2f}, {t.elapsed:.2f}s")
