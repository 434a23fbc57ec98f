"""Mutation table: each injected defect must flip the named checks to ``fail``.

A defect is injected with ``monkeypatch`` where the suite looks it up, and
both principal demos run at grid 8.  The expected sets are exact, so a check
that stops catching a defect, or starts failing for an unrelated reason,
shows up here.  ``slice_flatness`` survives all three defects.
"""

import json

import numpy as np
import pytest

from torsorcheck import VerificationConfig, connections, grids, run_suite, verifier
from torsorcheck.torsors import TorsorMorphism


def zero_seam_jumps(monkeypatch):
    measure = grids.measure_seam_jumps
    monkeypatch.setattr(grids, "measure_seam_jumps",
                        lambda torus, fn: np.zeros_like(measure(torus, fn)))


def equivariant_duality(monkeypatch):
    monkeypatch.setattr(verifier, "duality_map", lambda p, q: TorsorMorphism(p, q, sign=1))


def negated_chern_normalization(monkeypatch):
    monkeypatch.setattr(connections, "CHERN_NORMALIZATION", -connections.CHERN_NORMALIZATION)


MUTANTS = {
    "seam_jumps_zeroed": (zero_seam_jumps, {
        "curvature_invariance",
        "sigma_obstruction",
        "family_curvature_restriction",
        "tau_obstruction",
        "sigma_tau_match",
        "perturbed_reference",
        "duality_involution",
    }),
    "duality_sign_plus_one": (equivariant_duality, {"duality_involution"}),
    "chern_normalization_negated": (negated_chern_normalization, {"chern_integrality"}),
}


def failing_checks(demo: str) -> set:
    data = json.loads(json.dumps(VerificationConfig.demo(demo).canonical))
    data["numeric"]["grid"] = 8
    report = run_suite(VerificationConfig.from_dict(data))
    return {c.name for c in report.checks if c.status != "pass"}


@pytest.mark.parametrize("demo", ["principal-g1", "principal-g2"])
def test_unmutated_demo_passes_at_grid_8(demo):
    assert failing_checks(demo) == set()


@pytest.mark.parametrize("demo", ["principal-g1", "principal-g2"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_named_checks(monkeypatch, mutant, demo):
    inject, expected = MUTANTS[mutant]
    inject(monkeypatch)
    assert failing_checks(demo) == expected
