"""Mutation table: each injected defect must flip the named checks to ``fail``.

A defect is injected with ``monkeypatch`` in every module where the suite
looks the name up, and both principal demos run at grid 8.  The expected sets
are exact, so a check that stops catching a defect, or starts failing for an
unrelated reason, shows up here.  Every check fails under at least one row.
A row may also edit the demo config; the ``datum_valid`` row loads a datum
that the loader's own checks, patched off, would have refused.
"""

import json

import numpy as np
import pytest

from torsorcheck import (
    AHDatum,
    VerificationConfig,
    bundles,
    connections,
    grids,
    run_suite,
    torsors,
    verifier,
)
from torsorcheck.torsors import TorsorMorphism

from oracles import dz_rows, stencil_two_calls

LOOKUP_MODULES = (bundles, connections, grids, torsors, verifier)


def patch_everywhere(monkeypatch, name, value):
    """Replace ``name`` in every torsorcheck module that binds it."""
    for module in LOOKUP_MODULES:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)


def non_invariant_metric(monkeypatch):
    """The suite's canonical connection gains 0.1 exp(2 pi i c_0(z)) H.sum(0).

    As for the unitary connection of a metric that is not translation
    invariant, its curvature varies over the torus.  The bump is periodic, so
    no seam is involved, and the dual's bump is its exact negative.  The
    suite's families are induced from this connection too, so both torsors
    see the defect: the tau reference obstruction varies over the points.
    """
    canonical_connection = connections.canonical_connection

    def perturbed(datum):
        base = canonical_connection(datum)
        bump = 0.1 * datum.hermitian.sum(axis=0)

        def theta(z):
            c0 = datum.torus.lattice_coords(z)[..., :1]
            return base.theta(z) + np.exp(2j * np.pi * c0) * bump

        return connections.ConnectionForm(datum, theta)

    monkeypatch.setattr(verifier, "canonical_connection", perturbed)


def equivariant_duality(monkeypatch):
    monkeypatch.setattr(verifier, "duality_map", lambda p, q: TorsorMorphism(p, q, sign=1))


def negated_chern_normalization(monkeypatch):
    monkeypatch.setattr(connections, "CHERN_NORMALIZATION", -connections.CHERN_NORMALIZATION)


def family_without_dual_half(monkeypatch):
    """The family covector keeps alpha* theta and drops its p1* L^* half."""
    family_connection = connections.family_connection

    def addition_half_only(conn, maps=None):
        fam = family_connection(conn, maps)
        alpha = bundles.addition_map(fam.datum.torus).matrix
        return connections.ConnectionForm(fam.datum, lambda u: conn.theta(u @ alpha.T) @ alpha,
                                          base=fam.base)

    patch_everywhere(monkeypatch, "family_connection", addition_half_only)


def family_records_dual_base(monkeypatch):
    """The family form records the dual datum as the base it was induced from."""
    family_connection = connections.family_connection

    def dual_base(conn, maps=None):
        fam = family_connection(conn, maps)
        return connections.ConnectionForm(fam.datum, fam.theta, base=conn.datum.dual())

    patch_everywhere(monkeypatch, "family_connection", dual_base)


def sigma_records_dual_datum(monkeypatch):
    """The sigma presentation records the dual datum, keeping the class of the datum itself."""
    def dual_datum(datum, resolution):
        return torsors.TorsorPresentation(datum.dual(), resolution, connections.chern_form(datum))

    patch_everywhere(monkeypatch, "sigma_presentation", dual_datum)


def dbar_on_dz_rows(monkeypatch):
    """The point stencil reads the dz half of the Wirtinger chart."""
    patch_everywhere(monkeypatch, "dbar_at_points",
                     lambda torus, fn, n, coords=None: stencil_two_calls(
                         torus, fn, n, coords, dz_rows(torus)))


def one_sided_stencil(monkeypatch):
    """A first-order forward difference in place of the central one on the point path."""
    def forward_at_points(torus, fn, n, coords=None):
        coords = grids.seeded_coords(torus) if coords is None else coords
        here = np.asarray(fn(torus.lift_of_coords(coords)), dtype=complex)
        diffs = [(fn(torus.lift_of_coords(coords + step)) - here) * n
                 for step in np.eye(2 * torus.genus) / n]
        return np.einsum("kd,d...->...k", torus.dzbar_rows, np.stack(diffs))

    patch_everywhere(monkeypatch, "dbar_at_points", forward_at_points)


def local_section_sign_flipped(monkeypatch):
    """The chart-local section's offset is +conj(z) Theta^T, whose dbar adds Theta again."""
    def flipped(p):
        t = p.theta_ref
        return torsors.TorsorSection(p, lambda z: np.conj(z) @ t.T)

    patch_everywhere(monkeypatch, "local_holomorphic_section", flipped)


def nan_family_covector(monkeypatch):
    """The family covector is NaN everywhere, built without a RuntimeWarning."""
    family_connection = connections.family_connection

    def nan_family(conn, maps=None):
        fam = family_connection(conn, maps)
        return connections.ConnectionForm(
            fam.datum, lambda u: np.full_like(fam.theta(u), np.nan), base=fam.base)

    patch_everywhere(monkeypatch, "family_connection", nan_family)


def identity_trivial_datum(monkeypatch):
    def trivial(torus):
        return AHDatum(torus, np.eye(torus.genus), np.ones(2 * torus.genus))

    patch_everywhere(monkeypatch, "trivial_datum", trivial)


def turn_phases(data):
    """Non-trivial generator phases: the demos' phases are 1, fixed by conj and by 1 / chi."""
    genus = data["torus"]["genus"]
    data["bundle"]["chi_turns"] = [0.25, 0.1] if genus == 1 else [0.3, 0.1, 0.7, 0.2]


def dual_keeps_chi(monkeypatch):
    """``AHDatum.dual`` keeps the phases where it should conjugate them."""
    def dual(self):
        return AHDatum(self.torus, -self.hermitian, self.chi)

    monkeypatch.setattr(AHDatum, "dual", dual)
    return turn_phases


def tensor_divides_chi(monkeypatch):
    """``AHDatum.tensor`` divides the phases where it should multiply them."""
    def tensor(self, other):
        return AHDatum(self.torus, self.hermitian + other.hermitian, self.chi / other.chi)

    monkeypatch.setattr(AHDatum, "tensor", tensor)
    return turn_phases


def unchecked_non_integral_datum(monkeypatch):
    """Switch off the loader's integrality tests and load 3/2 H, whose E is half-integral."""
    monkeypatch.setattr(bundles, "INTEGRAL_TOL", np.inf)
    monkeypatch.setattr(bundles, "SEMICHARACTER_TOL", np.inf)

    def scale_hermitian(data):
        data["bundle"]["hermitian"] = [[[1.5 * re, 1.5 * im] for re, im in row]
                                       for row in data["bundle"]["hermitian"]]

    return scale_hermitian


MUTANTS = {
    "non_invariant_metric": (non_invariant_metric, {
        "curvature_invariance",
        "sigma_obstruction",
        "slice_flatness",
        "family_curvature_restriction",
        "tau_obstruction",
        "sigma_tau_match",
        "perturbed_reference",
        "duality_involution",
    }),
    "duality_sign_plus_one": (equivariant_duality, {"duality_involution"}),
    "chern_normalization_negated": (negated_chern_normalization, {"chern_integrality"}),
    "family_without_dual_half": (family_without_dual_half, {
        "slice_flatness",
        "family_curvature_restriction",
    }),
    "family_records_dual_base": (family_records_dual_base, {
        "family_curvature_restriction",
        "sigma_tau_match",
    }),
    "sigma_records_dual_datum": (sigma_records_dual_datum, {"sigma_tau_match"}),
    "dbar_on_dz_rows": (dbar_on_dz_rows, {
        "sigma_obstruction",
        "family_curvature_restriction",
        "tau_obstruction",
        "sigma_tau_match",
        "perturbed_reference",
        "convergence_order",
    }),
    "one_sided_stencil": (one_sided_stencil, {"convergence_order"}),
    "local_section_sign_flipped": (local_section_sign_flipped, {"perturbed_reference"}),
    "nan_family_covector": (nan_family_covector, {
        "slice_flatness",
        "family_curvature_restriction",
        "tau_obstruction",
        "sigma_tau_match",
        "perturbed_reference",
        "duality_involution",
        "trivial_bundle",
    }),
    "trivial_datum_identity": (identity_trivial_datum, {"trivial_bundle"}),
    "dual_keeps_chi": (dual_keeps_chi, {"duality_involution", "slice_flatness"}),
    "tensor_divides_chi": (tensor_divides_chi, {"slice_flatness"}),
    "unchecked_non_integral_datum": (unchecked_non_integral_datum, {
        "datum_valid",
        "chern_integrality",
    }),
}


def demo_report(demo: str, edit=None):
    data = json.loads(json.dumps(VerificationConfig.demo(demo).canonical))
    data["numeric"]["grid"] = 8
    if edit is not None:
        edit(data)
    return run_suite(VerificationConfig.from_dict(data))


def failing_checks(demo: str, edit=None) -> set:
    return {c.name for c in demo_report(demo, edit).checks if c.status != "pass"}


@pytest.mark.parametrize("demo", ["principal-g1", "principal-g2"])
def test_unmutated_demo_passes_at_grid_8(demo):
    assert failing_checks(demo) == set()


@pytest.mark.parametrize("demo", ["principal-g1", "principal-g2"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_named_checks(monkeypatch, mutant, demo):
    inject, expected = MUTANTS[mutant]
    edit = inject(monkeypatch)
    assert failing_checks(demo, edit) == expected


@pytest.mark.parametrize("demo", ["principal-g1", "principal-g2"])
@pytest.mark.parametrize("mutant", ["dbar_on_dz_rows", "one_sided_stencil",
                                    "local_section_sign_flipped"])
def test_stencil_rows_fail_on_a_measured_error(monkeypatch, mutant, demo):
    # the defect must reach the stencil itself: each failing check measures a
    # finite error above its tolerance instead of crashing
    inject, expected = MUTANTS[mutant]
    inject(monkeypatch)
    report = demo_report(demo)
    assert report.crash_notes == {}
    by_name = {c.name: c for c in report.checks}
    for name in expected:
        c = by_name[name]
        assert np.isfinite(c.max_error) and c.max_error > c.tolerance, name


def test_every_check_fails_under_some_row():
    killed = set().union(*(expected for _, expected in MUTANTS.values()))
    assert killed == set(verifier.CHECK_ORDER)
