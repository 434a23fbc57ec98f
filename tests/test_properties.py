"""Property-based runs over randomly drawn valid data (needs the optional ``hypothesis``).

A datum is drawn on the torus with periods [I | Z], Z = X + iY in the Siegel
upper half-space (X symmetric, Y positive definite), with H = k Y^{-1} for
k in {1, -1, 0, 2}, so that Im H is integral on the lattice, and random
generator phases.  The whole suite must pass on it and reproduce its report
byte for byte; the torsor action, the canonical morphism and the duality
maps must compose bitwise; and each slice A x {x} of the family must carry the
flat datum (0, exp(2 pi i Im H(x, lambda_j))), the point phi_L(x) of the dual.
"""

import json
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from torsorcheck import (  # noqa: E402
    VerificationConfig,
    act,
    build_family,
    canonical_morphism,
    duality_map,
    family_connection,
    hermitian_pairing,
    pullback,
    run_suite,
    sigma_presentation,
    slice_embedding,
    tau_presentation,
)
from torsorcheck.verifier import report_json  # noqa: E402

from oracles import random_offset, same_section, seeded_lifts  # noqa: E402

RUNS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(matrix)]


@st.composite
def valid_configs(draw) -> dict:
    g = draw(st.sampled_from([1, 2]))
    grid = draw(st.integers(8, 16) if g == 1 else st.integers(6, 8))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=g * g, max_size=g * g)
    x = np.reshape(draw(entries), (g, g))
    a = np.reshape(draw(entries), (g, g))
    y = a @ a.T + 0.5 * np.eye(g)  # eigenvalues at least 1/2
    k = draw(st.sampled_from([1, -1, 0, 2]))
    turns = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=2 * g, max_size=2 * g))
    return {
        "torus": {"genus": g, "periods": pairs(np.hstack([np.eye(g), (x + x.T) / 2 + 1j * y]))},
        "bundle": {"hermitian": pairs(k * np.linalg.inv(y)), "chi_turns": turns},
        "numeric": {"grid": grid, "seed": draw(st.integers(0, 2**32 - 1))},
    }


def stripped_report(cfg) -> str:
    return re.sub(r'"wall_time_ms": [-+0-9.eE]+', '"wall_time_ms": 0', report_json(run_suite(cfg)))


@RUNS
@given(data=valid_configs())
def test_suite_passes_and_reproduces(data):
    cfg = VerificationConfig.from_dict(data)
    first = stripped_report(cfg)
    failed = [c["name"] for c in json.loads(first)["checks"] if c["status"] != "pass"]
    assert failed == []
    assert stripped_report(cfg) == first


@RUNS
@given(data=valid_configs(), seed=st.integers(0, 2**32 - 1),
       exponents=st.tuples(st.integers(-100, 100), st.integers(-100, 100)))
def test_action_and_duality_compose_bitwise(data, seed, exponents):
    cfg = VerificationConfig.from_dict(data)
    sigma = sigma_presentation(cfg.datum, cfg.grid)
    sigma_dual = sigma_presentation(cfg.datum.dual(), cfg.grid)
    delta = duality_map(sigma, sigma_dual)
    back = duality_map(sigma_dual, sigma)
    rng = np.random.default_rng(seed)
    v, w = (random_offset(cfg.torus, rng, 10.0**e) for e in exponents)
    zero = sigma.zero_section()
    s = act(zero, v)
    z = seeded_lifts(cfg.torus)
    assert np.array_equal(act(s, w).offset(z), act(zero, lambda u: v(u) + w(u)).offset(z))
    assert same_section(delta.apply(act(s, w)), act(delta.apply(s), lambda u: -w(u)))
    assert same_section(back.apply(delta.apply(s)), s)
    gamma = canonical_morphism(sigma, tau_presentation(family_connection(cfg.datum), cfg.grid))
    assert same_section(gamma.apply(act(zero, v)), act(gamma.apply(zero), v))


@RUNS
@given(data=valid_configs(),
       coords=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_slice_datum_is_phi_of_x(data, coords):
    cfg = VerificationConfig.from_dict(data)
    g = cfg.torus.genus
    x = cfg.torus.lift_of_coords(coords[: 2 * g])  # any lift, not only [0, 1)
    family = build_family(cfg.datum)
    sliced = pullback(slice_embedding(x, family.torus), family)
    pairings = hermitian_pairing(cfg.datum.hermitian, x, cfg.torus.periods.T)
    assert np.max(np.abs(sliced.hermitian)) <= 1e-12
    assert np.max(np.abs(sliced.chi - np.exp(2j * np.pi * pairings.imag))) <= 1e-9
