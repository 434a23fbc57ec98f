import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torsorcheck import (
    ComplexTorus,
    ConfigInvalid,
    VerificationConfig,
    bundles,
    check_eq_i,
    connections,
    curvature,
    grids,
    hermitian_pairing,
    run_suite,
    slice_connection,
    torsors,
    verifier,
)
from torsorcheck import cli
from torsorcheck.cli import main
from torsorcheck.grids import POINT_SAMPLES, STENCIL_BLOCK_BYTES, SeededDraws, sample_blocks
from torsorcheck.verifier import (
    CHECK_ORDER,
    DEMO_CONFIGS,
    _CHECK_FUNCTIONS,
    _SuiteContext,
    _point_probe_error,
    _probe_terms,
    _slice_terms,
    emit_report,
    report_json,
)

from oracles import grid_nodes, stencil_by_directions

SCHEMA_KEYS = ["version", "config_digest", "seed", "overall", "checks"]
CHECK_KEYS = ["name", "status", "max_error", "tolerance", "samples", "wall_time_ms"]


def strip_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_ms": [-+0-9.eE]+', '"wall_time_ms": 0', text)


def with_numeric(**numeric) -> dict:
    data = json.loads(json.dumps(VerificationConfig.demo("principal-g1").canonical))
    data["numeric"].update(numeric)
    return data


def trig_probe(torus, rng, amplitude):
    """Reference probe: a seeded trigonometric offset and its closed-form dzbar derivative.

    The offset maps lifts (..., g) to (..., g); the derivative takes lattice
    coordinates (..., 2g) to (..., g, g).  Read at grid nodes, the verifier's
    point probe must reproduce the errors of a reference stencil on it.
    """
    g = torus.genus
    dims = 2 * g
    modes = [np.eye(dims, dtype=int)[d] for d in range(dims)] + [np.ones(dims, dtype=int)]
    coeffs = [amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g)) for _ in modes]

    def offset(z):
        c = torus.lattice_coords(z)
        return sum(coeff * np.exp(2j * np.pi * (c @ m))[..., None]
                   for m, coeff in zip(modes, coeffs))

    def deriv(coords):
        return sum(np.exp(2j * np.pi * (coords @ m))[..., None, None]
                   * np.einsum("j,k->jk", coeff, 2j * np.pi * (torus.dzbar_rows @ m))
                   for m, coeff in zip(modes, coeffs))

    return offset, deriv


PROBE_TORI = {
    "g1-square": ([[1.0, 1.0j]], 32),
    "g2-diag": (np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])]), 6),
    "g2-full": (np.hstack([np.eye(2), [[0.2 + 1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.4 + 2j]]]), 5),
    "g3-diag": (np.hstack([np.eye(3), 1j * np.diag([1.0, 1.5, 2.0])]), 4),
    "g3-full": (np.hstack([np.eye(3), [[0.2 + 1j, 0.1 + 0.3j, 0.05 + 0.1j],
                                       [0.1 + 0.3j, -0.3 + 1.5j, 0.2j],
                                       [0.05 + 0.1j, 0.2j, 0.1 + 2j]]]), 4),
}


class TestConfig:
    def test_demo_names(self):
        for name in ("principal-g1", "principal-g2", "trivial"):
            cfg = VerificationConfig.demo(name)
            assert cfg.grid >= 4

    def test_trivial_bundle_resolved_at_load(self):
        cfg = VerificationConfig.demo("trivial")
        assert np.array_equal(cfg.datum.hermitian, np.zeros((1, 1)))
        assert cfg.canonical["bundle"] == "trivial"

    def test_unknown_demo(self):
        with pytest.raises(ConfigInvalid):
            VerificationConfig.demo("nope")

    def test_broken_bundle_aborts_with_invariant_name(self):
        data = {
            "torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]},
            "bundle": {"hermitian": [[[0.5, 0]]], "chi_turns": [0, 0]},
        }
        with pytest.raises(ConfigInvalid, match="NonIntegralE"):
            VerificationConfig.from_dict(data)

    def test_missing_bundle_rejected(self):
        # "trivial" must be asked for: a config naming no bundle would verify one no one chose
        data = {"torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]}, "numeric": {"grid": 8}}
        with pytest.raises(ConfigInvalid, match="bundle: section missing"):
            VerificationConfig.from_dict(data)

    def test_degenerate_torus_aborts(self):
        data = {"torus": {"genus": 1, "periods": [[[1, 0], [2, 0]]]}}
        with pytest.raises(ConfigInvalid, match="DegenerateLattice"):
            VerificationConfig.from_dict(data)

    def test_unknown_check_rejected(self):
        data = dict(json.loads(json.dumps(VerificationConfig.demo("trivial").canonical)))
        data["checks"] = ["sigma_obstruction", "bogus"]
        with pytest.raises(ConfigInvalid, match="bogus"):
            VerificationConfig.from_dict(data)

    def test_empty_check_list_rejected(self):
        data = with_numeric()
        data["checks"] = []
        with pytest.raises(ConfigInvalid, match="checks"):
            VerificationConfig.from_dict(data)

    def test_check_selection_spelled_once(self):
        # reordered or repeated names select the same run, so one digest
        spellings = [["datum_valid", "chern_integrality"],
                     ["chern_integrality", "datum_valid"],
                     ["chern_integrality", "datum_valid", "chern_integrality"]]
        cfgs = []
        for checks in spellings:
            data = with_numeric()
            data["checks"] = checks
            cfgs.append(VerificationConfig.from_dict(data))
        assert {cfg.digest() for cfg in cfgs} == {cfgs[0].digest()}
        for cfg in cfgs:
            assert cfg.canonical["checks"] == ["datum_valid", "chern_integrality"]

    @pytest.mark.parametrize("samples", [0, -1, 2.5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ConfigInvalid, match="numeric.samples"):
            VerificationConfig.from_dict(with_numeric(samples=samples))

    @pytest.mark.parametrize("samples", [10**4 + 1, 10**400], ids=["10**4+1", "10**400"])
    def test_samples_above_cap_rejected(self, samples):
        # three checks draw `samples` points and loop or allocate linearly in them
        with pytest.raises(ConfigInvalid, match="numeric.samples"):
            VerificationConfig.from_dict(with_numeric(samples=samples))

    def test_samples_at_cap_loads(self):
        assert VerificationConfig.from_dict(with_numeric(samples=10**4)).samples == 10**4

    @pytest.mark.parametrize("grid", [2**16 + 1, 2**52, 10**400],
                             ids=["2**16+1", "2**52", "10**400"])
    def test_grid_whose_step_moves_nothing_rejected(self, grid):
        # past 2**16 the probe's rounding outgrows its truncation error; at 2**52
        # 1.0 + 1/(2N) == 1.0, and 1/(2N) at N = 10**400 would overflow a float
        with pytest.raises(ConfigInvalid, match="numeric.grid"):
            VerificationConfig.from_dict(with_numeric(grid=grid))

    def test_largest_grid_whose_step_moves_a_coordinate_loads(self):
        assert VerificationConfig.from_dict(with_numeric(grid=2**16)).grid == 2**16

    def test_negative_seed_rejected(self):
        # the string-seeded draws would take a negative seed too; the rule stays, as
        # README documents seeds as integers >= 0
        with pytest.raises(ConfigInvalid, match="numeric.seed"):
            VerificationConfig.from_dict(with_numeric(seed=-1))

    @pytest.mark.parametrize("field", ["tolerance_analytic", "tolerance_fd", "tolerance_exact"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0, "loose"])
    def test_unusable_tolerance_rejected(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"numeric.{field}"):
            VerificationConfig.from_dict(with_numeric(**{field: value}))

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config format", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        cfg = VerificationConfig.from_dict(json.loads(example))
        assert cfg.grid == 64 and cfg.output == "report.json"

    def test_torus_is_read_from_the_datum(self):
        # a directly built config has no torus of its own to pair with another datum
        fields = vars(VerificationConfig.demo("principal-g2"))
        other = VerificationConfig.demo("principal-g1").datum
        assert VerificationConfig(**{**fields, "datum": other}).torus is other.torus

    def test_digest_stable(self):
        a = VerificationConfig.demo("principal-g1").digest()
        b = VerificationConfig.demo("principal-g1").digest()
        assert a == b and len(a) == 64

    def test_digest_reads_parsed_numbers(self):
        # one run, one digest: the canonical config holds the parsed tolerance
        integer = VerificationConfig.from_dict(with_numeric(tolerance_fd=1))
        real = VerificationConfig.from_dict(with_numeric(tolerance_fd=1.0))
        assert integer.canonical["numeric"]["tolerance_fd"] == 1.0
        assert integer.digest() == real.digest()

    @pytest.mark.parametrize("source", ["principal-g1", "principal-g2", "trivial", "g3_n6.json"])
    def test_digest_is_hashlib_sha256_of_canonical_blob(self, source):
        # the built-in SHA-256 the package hashes with gives hashlib's digest
        if source.endswith(".json"):
            cfg = VerificationConfig.from_file(Path(__file__).with_name(source))
        else:
            cfg = VerificationConfig.demo(source)
        blob = json.dumps(cfg.canonical, sort_keys=True, separators=(",", ":"))
        assert cfg.digest() == hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestSuite:
    def test_trivial_run_all_pass(self):
        report = run_suite(VerificationConfig.demo("trivial"))
        assert report.overall == "pass"
        by_name = {c.name: c for c in report.checks}
        for name in CHECK_ORDER:
            assert by_name[name].status == "pass", name
        # everything except the convergence probe sits at rounding level
        for c in report.checks:
            if c.name != "convergence_order":
                assert c.max_error <= 1e-9

    def test_principal_g1_run_all_pass(self):
        report = run_suite(VerificationConfig.demo("principal-g1"))
        assert report.overall == "pass"
        by_name = {c.name: c for c in report.checks}
        assert by_name["chern_integrality"].max_error <= 1e-8
        for name in ("sigma_obstruction", "tau_obstruction", "sigma_tau_match"):
            assert by_name[name].max_error <= 1e-6

    def test_check_subset_runs_in_order(self):
        cfg = VerificationConfig.demo("trivial")
        data = json.loads(json.dumps(cfg.canonical))
        data["checks"] = ["sigma_tau_match", "datum_valid"]
        report = run_suite(VerificationConfig.from_dict(data))
        assert [c.name for c in report.checks] == ["datum_valid", "sigma_tau_match"]

    def test_crash_isolation(self, monkeypatch):
        def boom(ctx, rng):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(_CHECK_FUNCTIONS, "slice_flatness", boom)
        report = run_suite(VerificationConfig.demo("trivial"))
        by_name = {c.name: c for c in report.checks}
        assert by_name["slice_flatness"].status == "fail"
        assert by_name["slice_flatness"].max_error is None
        assert "synthetic failure" in report.crash_notes["slice_flatness"]
        # the later checks still ran
        assert by_name["sigma_tau_match"].status == "pass"
        assert report.overall == "fail"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_fails_with_strict_json(self, monkeypatch, bad):
        def non_finite(ctx, rng):
            return bad, 1e-8, 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setitem(_CHECK_FUNCTIONS, "datum_valid", non_finite)
        data = with_numeric()
        data["checks"] = ["datum_valid", "chern_integrality"]
        report = run_suite(VerificationConfig.from_dict(data))
        parsed = json.loads(report_json(report), parse_constant=reject)
        first, second = parsed["checks"]
        assert first["status"] == "fail" and first["max_error"] is None
        assert "non-finite" in report.crash_notes["datum_valid"]
        assert second["status"] == "pass"
        assert parsed["overall"] == "fail"

    def test_datum_valid_passes_what_the_loader_accepts(self):
        # E(1, i) = -1.000000005 lies within INTEGRAL_TOL of an integer, so
        # AHDatum accepts the datum and neither check may fail it
        data = with_numeric()
        data["bundle"]["hermitian"] = [[[1.000000005, 0]]]
        data["checks"] = ["datum_valid", "chern_integrality"]
        report = run_suite(VerificationConfig.from_dict(data))
        assert [c.status for c in report.checks] == ["pass", "pass"]

    def test_datum_valid_keeps_a_nan_phase(self):
        # a NaN phase set past the loader must fail the check, not vanish in a maximum
        data = with_numeric()
        data["checks"] = ["datum_valid"]
        cfg = VerificationConfig.from_dict(data)
        cfg.datum.chi = np.array([np.nan, 1.0], dtype=complex)
        err, _, _ = _CHECK_FUNCTIONS["datum_valid"](_SuiteContext(cfg), None)
        assert math.isnan(err)
        (check,) = run_suite(cfg).checks
        assert check.status == "fail" and check.max_error is None

    def test_one_family_built_per_datum(self, monkeypatch):
        # the datum, its dual and the flat datum: every tau presentation and
        # slice of a datum reads its one family
        calls = {"build_family": 0, "family_connection": 0}
        for name, original in [("build_family", bundles.build_family),
                               ("family_connection", connections.family_connection)]:
            def counted(datum, *args, name=name, original=original):
                calls[name] += 1
                return original(datum, *args)

            for module in (bundles, connections, torsors, verifier):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        report = run_suite(VerificationConfig.demo("principal-g2"))
        assert report.overall == "pass"
        assert calls == {"build_family": 3, "family_connection": 3}

    @pytest.mark.parametrize("source", ["principal-g1", "principal-g2", "g3_n6.json"])
    def test_pullbacks_are_the_families_and_the_measured_slices(self, monkeypatch, source):
        # two per family (the datum, its dual and the flat datum) and one slice
        # datum per slice_flatness sample; sections and duality pull nothing back
        calls = []
        original = bundles.pullback

        def counted(f, datum):
            calls.append(f)
            return original(f, datum)

        for module in (bundles, connections):
            monkeypatch.setattr(module, "pullback", counted)
        if source.endswith(".json"):
            cfg = VerificationConfig.from_file(Path(__file__).with_name(source))
        else:
            cfg = VerificationConfig.demo(source)
        report = run_suite(cfg)
        assert report.overall == "pass"
        assert len(calls) == 6 + cfg.samples

    @pytest.mark.parametrize("source", ["principal-g1", "principal-g2", "trivial", "g4.json"])
    def test_suite_never_enters_the_grid_path(self, monkeypatch, source):
        # every check reads seeded points: no check builds or differences an N^{2g} grid
        def refuse(*args, **kwargs):
            raise AssertionError("the suite entered the grid path")

        for name in ("lattice_grid", "measure_seam_jumps", "dbar_fd"):
            monkeypatch.setattr(grids, name, refuse)
        monkeypatch.setattr(grids.GridFunction, "sample", classmethod(refuse))
        monkeypatch.setattr(grids.GridFunction, "__post_init__", refuse)
        if source.endswith(".json"):
            cfg = VerificationConfig.from_file(Path(__file__).with_name(source))
        else:
            cfg = VerificationConfig.demo(source)
        report = run_suite(cfg)
        assert report.crash_notes == {}
        assert [(c.name, c.status) for c in report.checks] == [(n, "pass") for n in CHECK_ORDER]

    def test_convergence_probe_genuinely_second_order(self):
        report = run_suite(VerificationConfig.demo("principal-g1"))
        conv = {c.name: c for c in report.checks}["convergence_order"]
        assert conv.status == "pass"
        # the probe error must be real signal, far above rounding noise
        assert conv.max_error > 1e-10


class TestConvergenceProbe:
    @pytest.mark.parametrize("case", sorted(PROBE_TORI))
    def test_errors_match_dense_reference(self, case):
        # read at grid nodes, the point probe measures the error that the
        # reference stencil, summing the directions one by one, reads there:
        # the two summations agree up to rounding
        periods, n = PROBE_TORI[case]
        torus = ComplexTorus(periods)
        dims = 2 * torus.genus
        for resolution in (n, 2 * n):
            nodes = grid_nodes(resolution, dims)
            nodes = nodes[np.random.default_rng(5).integers(len(nodes), size=512)]
            offset, deriv = trig_probe(torus, np.random.default_rng(3), 0.1)
            reference = stencil_by_directions(torus, offset, resolution, nodes) - deriv(nodes)
            modes, coeffs = _probe_terms(torus.genus, np.random.default_rng(3), 0.1)
            at_nodes = _point_probe_error(torus, resolution, nodes, modes, coeffs)
            assert abs(at_nodes - float(np.max(np.abs(reference)))) <= 1e-12

    def test_genus_3_at_grid_16_holds_no_grid(self):
        # the grid probe would read a (2N)^{2g} = 32^6 input, 1.6 GB for the
        # g components at 2N; the point probe evaluates 256 points per step
        data = json.loads(Path(__file__).with_name("g3_n6.json").read_text(encoding="utf-8"))
        data["numeric"]["grid"] = 16
        ctx = _SuiteContext(VerificationConfig.from_dict(data))
        probe = _CHECK_FUNCTIONS["convergence_order"]
        index = CHECK_ORDER.index("convergence_order")
        probe(ctx, ctx.rng(index))  # first-call imports and caches are not the probe's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            error, tolerance, _ = probe(ctx, ctx.rng(index))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert error <= tolerance
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"


class TestPerturbedReference:
    def test_point_cloud_checks_report_point_samples(self):
        report = run_suite(VerificationConfig.demo("principal-g1"))
        by_name = {c.name: c for c in report.checks}
        for name in ("curvature_invariance", "sigma_obstruction", "tau_obstruction",
                     "sigma_tau_match", "perturbed_reference", "trivial_bundle"):
            assert by_name[name].samples == POINT_SAMPLES, name


class TestGenusTargets:
    def test_all_checks_pass_at_grid_16_below_4_mb(self):
        # no check builds an N^{2g} grid: one (g, g) grid would take 2.4 GB for
        # the genus-3 datum at N=16, and genus 4 at N=16 has 4.3e9 nodes
        for name in ("g3_n6.json", "g4.json"):
            data = json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))
            data["numeric"]["grid"] = 16
            cfg = VerificationConfig.from_dict(data)
            run_suite(cfg)  # first-call imports and caches are not the suite's
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                report = run_suite(cfg)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            assert report.crash_notes == {}, name
            assert [c.name for c in report.checks] == CHECK_ORDER
            assert all(c.status == "pass" for c in report.checks), name
            assert peak < 4 * 2**20, f"{name}: peak {peak / 2**20:.2f} MB"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_genus_32_at_grid_16_passes_under_64_mib(self):
        # periods [I | i diag(tau)] with tau = 1, 1.5, ..., 16.5 and H = diag(1 / tau);
        # the peak (54.7 MiB measured, in the family curvature's direction buffer on
        # the genus-64 product) is traced from a cold start, with no warm-up suite
        g = 32
        taus = [1 + 0.5 * i for i in range(g)]
        periods = [[[float(i == j), 0.0] for j in range(g)]
                   + [[0.0, taus[i] if i == j else 0.0] for j in range(g)] for i in range(g)]
        hermitian = [[[1.0 / taus[i] if i == j else 0.0, 0.0] for j in range(g)]
                     for i in range(g)]
        cfg = VerificationConfig.from_dict({
            "torus": {"genus": g, "periods": periods},
            "bundle": {"hermitian": hermitian, "chi_turns": [0] * (2 * g)},
            "numeric": {"grid": 16}})
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            report = run_suite(cfg)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert report.crash_notes == {}
        assert [c.name for c in report.checks] == CHECK_ORDER
        assert all(c.status == "pass" for c in report.checks)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def genus_config(genus: int) -> VerificationConfig:
    """principal-g1, principal-g2, ``g3_n6.json`` or ``g4.json``, with turned phases."""
    if genus <= 2:
        data = json.loads(json.dumps(VerificationConfig.demo(f"principal-g{genus}").canonical))
    else:
        name = "g3_n6.json" if genus == 3 else "g4.json"
        data = json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))
    data["bundle"]["chi_turns"] = [0.1 * (j + 1) for j in range(2 * genus)]
    return VerificationConfig.from_dict(data)


class TestSampleBlocks:
    @pytest.mark.parametrize("genus, size", [(1, 16), (2, 4), (3, 1), (4, 1), (32, 1)])
    def test_block_size_is_the_byte_budget(self, genus, size):
        torus = ComplexTorus(np.hstack([np.eye(genus), 1j * np.eye(genus)]))
        blocks = sample_blocks(torus, 40)
        assert [b.stop - b.start for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert sum(len(range(40)[b]) for b in blocks) == 40
        # one block's stencil differences, (2g, B * P, g) complex, fit the budget
        assert size == 1 or 2 * genus * size * POINT_SAMPLES * genus * 16 <= STENCIL_BLOCK_BYTES

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 4, 5, 17])
    def test_batched_terms_equal_single_lifts_bitwise(self, genus, count):
        # blocks of 16, 4 and 1, and a partial last block for 5 and 17 samples
        ctx = _SuiteContext(genus_config(genus))
        draws = SeededDraws(11, genus, count)
        xs = ctx.torus.random_points(draws, count)
        coords = draws.random((POINT_SAMPLES, 2 * genus))
        lattice = ctx.torus.periods.T
        single = []
        for x in xs:
            sliced = slice_connection(ctx.family, x)
            phases = np.exp(2j * np.pi * hermitian_pairing(ctx.datum.hermitian, x, lattice).imag)
            single.append([np.max(np.abs(curvature(sliced, ctx.cfg.grid, coords))),
                           np.max(np.abs(sliced.datum.hermitian)),
                           np.max(np.abs(sliced.datum.chi - phases))])
        assert np.array_equal(_slice_terms(ctx, xs, coords), np.array(single))
        sections = [check_eq_i(ctx.family, y[None], ctx.cfg.grid, coords)[0] for y in xs]
        assert np.array_equal(check_eq_i(ctx.family, xs, ctx.cfg.grid, coords), np.array(sections))


class TestGridBound:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", ["principal-g1", "principal-g2", "g3_n6", "g4"])
    def test_every_power_of_two_up_to_the_bound_passes(self, case, seed):
        # the loader's largest grid is one where a correct program passes every check
        if case.startswith("principal"):
            data = json.loads(json.dumps(VerificationConfig.demo(case).canonical))
        else:
            data = json.loads(Path(__file__).with_name(f"{case}.json").read_text(encoding="utf-8"))
        failed = []
        for exponent in range(2, 17):
            data.setdefault("numeric", {}).update(grid=2**exponent, seed=seed)
            report = run_suite(VerificationConfig.from_dict(data))
            failed += [(2**exponent, c.name) for c in report.checks if c.status != "pass"]
        assert failed == []


class TestLargePairing:
    """Valid data whose H(lam, lam) would overflow exp(pi/2 H(lam, lam)) in a factor."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["principal-g1-h1000", "stretched-g2"])
    def test_all_checks_pass(self, case):
        # the pullback phases are read in closed form, so no check exponentiates
        # H(lam, lam): a degree-1000 bundle on the square torus, and H = diag(1, 1e-4)
        # on [I | i diag(1, 1e4)], where H(lam, lam) reaches 1e4 on the long generator
        if case == "principal-g1-h1000":
            data = with_numeric()
            data["bundle"]["hermitian"] = [[[1000.0, 0.0]]]
        else:
            data = {"torus": {"genus": 2, "periods": [[[1, 0], [0, 0], [0, 1], [0, 0]],
                                                      [[0, 0], [1, 0], [0, 0], [0, 1e4]]]},
                    "bundle": {"hermitian": [[[1, 0], [0, 0]], [[0, 0], [1e-4, 0]]],
                               "chi_turns": [0, 0, 0, 0]}}
        report = run_suite(VerificationConfig.from_dict(data))
        assert report.crash_notes == {}
        assert [c.name for c in report.checks] == CHECK_ORDER
        assert all(c.status == "pass" for c in report.checks)


class TestReport:
    def test_schema_keys_exact(self):
        report = run_suite(VerificationConfig.demo("trivial"))
        data = json.loads(report_json(report))
        assert list(data.keys()) == SCHEMA_KEYS
        for check in data["checks"]:
            assert list(check.keys()) == CHECK_KEYS

    def test_deterministic_bytes_modulo_wall_time(self):
        a = report_json(run_suite(VerificationConfig.demo("principal-g1")))
        b = report_json(run_suite(VerificationConfig.demo("principal-g1")))
        assert strip_wall_times(a) == strip_wall_times(b)

    def test_emit_writes_file_and_prints(self, tmp_path, capsys):
        report = run_suite(VerificationConfig.demo("trivial"))
        out = tmp_path / "report.json"
        emit_report(report, out)
        assert json.loads(out.read_text())["overall"] == "pass"
        printed = capsys.readouterr().out
        assert "overall: pass" in printed
        assert "sigma_tau_match" in printed


class TestCli:
    def test_demo_exit_zero(self, capsys):
        assert main(["--demo", "trivial"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_config_file_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]},
            "bundle": {"hermitian": [[[1, 0]]], "chi_turns": [0, 0]},
            "numeric": {"grid": 16},
            "output": str(tmp_path / "report.json"),
        }))
        assert main(["--config", str(cfg_path)]) == 0
        assert (tmp_path / "report.json").exists()

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text(json.dumps({
            "torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]},
            "bundle": {"hermitian": [[[0.5, 0]]], "chi_turns": [0, 0]},
        }))
        assert main(["--config", str(cfg_path)]) == 2
        assert "NonIntegralE" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("numeric", "seed", "abc"),
        ("numeric", "seed", math.nan),
        ("numeric", "seed", 1.7),
        ("numeric", "seed", True),
        ("numeric", "samples", True),
        ("numeric", "grid", True),
        ("torus", "genus", True),
        ("torus", "kappa_max", "x"),
        ("torus", "kappa_max", math.nan),
        ("torus", "kappa_max", math.inf),
        ("torus", "kappa_max", 0.5),
        ("numeric", "tolerence_fd", 1e-3),
        ("numeric", "fd_step", "grid"),
        ("bundle", "chi_turns", "x"),
        ("bundle", "chi_turns", [math.nan, 0]),
        ("bundle", "chi_turns", [1e308, 0]),
        ("bundle", "hermitian", [[[math.nan, 0]]]),
        ("numeric", "tolerance_fd", True),
        ("torus", "kappa_max", True),
        ("torus", "periods", [[[True, 0], [0, True]]]),
        ("bundle", "chi_turns", [True, 0]),
        ("bundle", "hermitian", [[[True, 0]]]),
        (None, "checks", 5),
        (None, "output", 5),
        (None, "check", ["datum_valid"]),
        ("torus", "kapa_max", 10),
        ("bundle", "chi_turn", [0, 0]),
    ], ids=str)
    def test_malformed_field_exit_two(self, tmp_path, capsys, section, key, value):
        data = with_numeric()
        (data if section is None else data[section])[key] = value
        cfg_path = tmp_path / "malformed.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["--config", str(cfg_path), "--checks", "datum_valid"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, kind):
        # exit 1 means a failed check; a file that cannot be read is a bad config
        cfg_path = tmp_path / "cfg.json"
        if kind == "directory":
            cfg_path.mkdir()
        elif kind == "not_utf8":
            cfg_path.write_bytes(b'{"torus": "\xff"}')
        assert main(["--config", str(cfg_path)]) == 2
        assert str(cfg_path) in capsys.readouterr().err

    def test_integer_literal_past_digit_limit_exit_two(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal longer than Python's int-string conversion limit
        text = json.dumps(with_numeric(seed=0))
        assert text.count('"seed": 0') == 1
        cfg_path = tmp_path / "long_seed.json"
        cfg_path.write_text(text.replace('"seed": 0', '"seed": 1' + "0" * 5000))
        assert main(["--config", str(cfg_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_overflowing_phase_exit_two_under_warnings_as_errors(self, tmp_path):
        # 2 pi * 1e308 overflows; the load must still end in ConfigInvalid, not a traceback
        data = with_numeric()
        data["bundle"]["chi_turns"] = [1e308, 0]
        cfg_path = tmp_path / "overflow.json"
        cfg_path.write_text(json.dumps(data))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
        proc = subprocess.run(
            [sys.executable, "-m", "torsorcheck.cli", "--config", str(cfg_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "bundle.chi_turns" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("demo", sorted(DEMO_CONFIGS))
    def test_demo_loads_no_numpy_random(self, demo):
        # the seeded draws come from the standard library's generator and the
        # config digest from CPython's built-in SHA-256, so a fresh verify
        # process pays neither numpy.random's extension modules nor OpenSSL
        child = ("import sys\n"
                 "from torsorcheck import cli\n"
                 "code = cli.main(['--demo', sys.argv[1]])\n"
                 "print('numpy.random' in sys.modules, '_hashlib' in sys.modules)\n"
                 "sys.exit(code)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", child, demo],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False False"

    def test_failing_tolerance_exit_one(self, capsys):
        code = main(["--demo", "principal-g1", "--grid", "16",
                     "--checks", "sigma_obstruction", "--tol", "1e-30"])
        assert code == 1
        assert "overall: fail" in capsys.readouterr().out

    def test_overrides_applied(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["--demo", "principal-g1", "--grid", "16", "--seed", "7",
                     "--checks", "datum_valid,chern_integrality", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 7
        assert [c["name"] for c in data["checks"]] == ["datum_valid", "chern_integrality"]

    def test_grid_override_whose_step_moves_nothing_exit_two(self, capsys):
        assert main(["--demo", "principal-g1", "--grid", str(2**16 + 1)]) == 2
        assert "numeric.grid" in capsys.readouterr().err

    def test_empty_check_selection_exit_two(self, capsys):
        assert main(["--demo", "trivial", "--checks", ","]) == 2
        assert "checks" in capsys.readouterr().err

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TORSORCHECK_OUT_DIR", str(tmp_path))
        assert main(["--demo", "trivial", "--out", "named.json",
                     "--checks", "datum_valid"]) == 0
        assert (tmp_path / "named.json").exists()

    @pytest.mark.parametrize("kind", ["missing_dir", "missing_env_dir", "directory"])
    def test_unwritable_report_path_exit_two_before_any_check(self, tmp_path, capsys,
                                                              monkeypatch, kind):
        # exit 1 means a failed check; a report that cannot be written is a bad config
        def no_suite(cfg):
            raise AssertionError("a check ran although the report path was refused")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        missing = tmp_path / "missing"
        out = str(missing / "r.json")
        if kind == "missing_env_dir":
            monkeypatch.setenv("TORSORCHECK_OUT_DIR", str(missing))
            out = "r.json"
        elif kind == "directory":
            out = str(tmp_path)
        assert main(["--demo", "principal-g1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration invalid: ")
        assert (str(missing / "r.json") if kind == "missing_env_dir" else out) in err

    def test_report_write_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # the directory goes away after the path was accepted: one line, no traceback
        target = tmp_path / "gone"
        target.mkdir()

        def suite_then_remove_dir(cfg):
            report = run_suite(cfg)
            target.rmdir()
            return report

        monkeypatch.setattr(cli, "run_suite", suite_then_remove_dir)
        assert main(["--demo", "trivial", "--checks", "datum_valid",
                     "--out", str(target / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report not written: ") and err.count("\n") == 1
