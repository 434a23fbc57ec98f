import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torsorcheck import (
    ComplexTorus,
    ConfigInvalid,
    GridFunction,
    VerificationConfig,
    dbar_fd,
    lattice_grid,
    run_suite,
)
from torsorcheck.cli import main
from torsorcheck.verifier import (
    CHECK_ORDER,
    _CHECK_FUNCTIONS,
    _SuiteContext,
    _probe_error,
    _smooth_offset,
    emit_report,
    report_json,
)

SCHEMA_KEYS = ["version", "config_digest", "seed", "overall", "checks"]
CHECK_KEYS = ["name", "status", "max_error", "tolerance", "samples", "wall_time_ms"]


def strip_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_ms": [-+0-9.eE]+', '"wall_time_ms": 0', text)


def with_numeric(**numeric) -> dict:
    data = json.loads(json.dumps(VerificationConfig.demo("principal-g1").canonical))
    data["numeric"].update(numeric)
    return data


def dense_trig_offset(torus, resolution, rng, amplitude):
    """Reference probe: dense values and closed-form dzbar derivative on the full grid.

    The streamed probe in the verifier must reproduce its values and errors bit
    for bit.
    """
    g = torus.genus
    dims = 2 * g
    coords = lattice_grid(resolution, dims)
    modes = [np.eye(dims, dtype=int)[d] for d in range(dims)] + [np.ones(dims, dtype=int)]
    values = np.zeros(coords.shape[:-1] + (g,), dtype=complex)
    deriv = np.zeros(coords.shape[:-1] + (g, g), dtype=complex)
    for m in modes:
        coeff = amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
        phase = np.exp(2j * np.pi * (coords @ m))
        values += coeff * phase[..., None]
        chain = 2j * np.pi * (torus.dzbar_rows @ m)
        deriv += phase[..., None, None] * np.einsum("j,k->jk", coeff, chain)
    return values, deriv


PROBE_TORI = {
    "g1-square": ([[1.0, 1.0j]], 32),
    "g2-diag": (np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])]), 6),
    "g2-full": (np.hstack([np.eye(2), [[0.2 + 1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.4 + 2j]]]), 5),
    "g3-diag": (np.hstack([np.eye(3), 1j * np.diag([1.0, 1.5, 2.0])]), 4),
}


class TestConfig:
    def test_demo_names(self):
        for name in ("principal-g1", "principal-g2", "trivial"):
            cfg = VerificationConfig.demo(name)
            assert cfg.grid >= 4

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

    def test_degenerate_torus_aborts(self):
        data = {"torus": {"genus": 1, "periods": [[[1, 0], [2, 0]]]}}
        with pytest.raises(ConfigInvalid, match="DegenerateLattice"):
            VerificationConfig.from_dict(data)

    def test_unknown_check_rejected(self):
        data = dict(json.loads(json.dumps(VerificationConfig.demo("trivial").canonical)))
        data["checks"] = ["sigma_obstruction", "bogus"]
        with pytest.raises(ConfigInvalid, match="bogus"):
            VerificationConfig.from_dict(data)

    @pytest.mark.parametrize("samples", [0, -1, 2.5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ConfigInvalid, match="numeric.samples"):
            VerificationConfig.from_dict(with_numeric(samples=samples))

    def test_negative_seed_rejected(self):
        # numpy's seed sequences take non-negative entries only, so every check would crash
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

    def test_convergence_probe_genuinely_second_order(self):
        report = run_suite(VerificationConfig.demo("principal-g1"))
        conv = {c.name: c for c in report.checks}["convergence_order"]
        assert conv.status == "pass"
        # the probe error must be real signal, far above rounding noise
        assert conv.max_error > 1e-10


class TestConvergenceProbe:
    @pytest.mark.parametrize("case", sorted(PROBE_TORI))
    def test_errors_match_dense_reference(self, case):
        periods, n = PROBE_TORI[case]
        torus = ComplexTorus(periods)
        for resolution in (n, 2 * n):
            values, deriv = dense_trig_offset(torus, resolution, np.random.default_rng(3), 0.1)
            dense = float(np.max(np.abs(dbar_fd(GridFunction(torus, values)).values - deriv)))
            streamed = _probe_error(torus, resolution, np.random.default_rng(3), 0.1)
            assert np.array_equal(streamed, dense)

    @pytest.mark.parametrize("case", sorted(PROBE_TORI))
    def test_smooth_offset_matches_dense_reference(self, case):
        periods, n = PROBE_TORI[case]
        torus = ComplexTorus(periods)
        rng = np.random.default_rng(4)
        values, _ = dense_trig_offset(torus, n, rng, 0.05)
        after_dense = rng.random()
        rng = np.random.default_rng(4)
        assert np.array_equal(_smooth_offset(torus, n, rng, 0.05), values)
        assert rng.random() == after_dense  # same draws, so later draws are unchanged

    def test_peak_memory_is_a_few_grids(self):
        # a dense probe holds the grid, its g x g derivative and their
        # temporaries, about 20 complex grids at 2N; the streamed probe holds
        # g + 2 = 4 of them plus slab-sized temporaries
        data = json.loads(json.dumps(VerificationConfig.demo("principal-g2").canonical))
        data["numeric"]["grid"] = 12
        ctx = _SuiteContext(VerificationConfig.from_dict(data))
        grid_bytes = np.dtype(complex).itemsize * (2 * 12) ** 4
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            rng = ctx.rng(CHECK_ORDER.index("convergence_order"))
            error, tolerance, _ = _CHECK_FUNCTIONS["convergence_order"](ctx, rng)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert error <= tolerance
        assert peak <= 6 * grid_bytes, f"peak {peak / grid_bytes:.1f} grids"


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
        ("bundle", "hermitian", [[[math.nan, 0]]]),
        ("numeric", "tolerance_fd", True),
        ("torus", "kappa_max", True),
        ("torus", "periods", [[[True, 0], [0, True]]]),
        ("bundle", "chi_turns", [True, 0]),
        ("bundle", "hermitian", [[[True, 0]]]),
        (None, "checks", 5),
        (None, "output", 5),
    ], ids=str)
    def test_malformed_field_exit_two(self, tmp_path, capsys, section, key, value):
        data = with_numeric()
        (data if section is None else data[section])[key] = value
        cfg_path = tmp_path / "malformed.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["--config", str(cfg_path), "--checks", "datum_valid"]) == 2
        assert key in capsys.readouterr().err

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

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TORSORCHECK_OUT_DIR", str(tmp_path))
        assert main(["--demo", "trivial", "--out", "named.json",
                     "--checks", "datum_valid"]) == 0
        assert (tmp_path / "named.json").exists()
