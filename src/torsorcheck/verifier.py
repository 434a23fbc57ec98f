"""Configuration ingestion, the ordered check suite, and machine-readable reports.

The suite runs, in order: datum validation, the integrality anchor for the
curvature class, translation invariance of the curvature, the
finite-difference recomputation of the sigma obstruction, flatness of the
slice restrictions, the restriction identity for the family curvature, the
from-scratch tau obstruction, holomorphy of the canonical sigma-tau morphism,
the affine identity for a perturbed reference, the duality involutions, the
trivial-bundle degenerate run, and a convergence-order probe.  A crash in one
check never suppresses the following ones.

Reports are deterministic for a fixed config and seed: every numeric field is
bitwise reproducible on one platform; only the wall-time fields vary.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import connections
from .bundles import AHDatum, trivial_datum
from .connections import (
    canonical_connection,
    check_eq_i,
    chern_form,
    curvature,
    family_connection,
    slice_connection,
)
from .errors import ConfigInvalid, TorsorcheckError
from .grids import GridFunction, dbar_fd, lattice_grid
from .torsors import (
    TorsorPresentation,
    act,
    canonical_morphism,
    custom_presentation,
    duality_map,
    is_holomorphic,
    is_holomorphic_morphism,
    sigma_presentation,
    tau_presentation,
    trivialization_class,
)
from .torus import ComplexTorus, cycle_integral
from .version import __version__

DEMO_CONFIGS: dict[str, dict] = {
    "principal-g1": {
        "torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]},
        "bundle": {"hermitian": [[[1, 0]]], "chi_turns": [0, 0]},
        "numeric": {"grid": 64},
    },
    "principal-g2": {
        "torus": {
            "genus": 2,
            "periods": [
                [[1, 0], [0, 0], [0, 1], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 2]],
            ],
        },
        "bundle": {
            "hermitian": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            "chi_turns": [0, 0, 0, 0],
        },
        "numeric": {"grid": 16},
    },
    "trivial": {
        "torus": {"genus": 1, "periods": [[[1, 0], [0, 1]]]},
        "bundle": "trivial",
        "numeric": {"grid": 64},
    },
}

_NUMERIC_DEFAULTS = {
    "tolerance_analytic": 1e-8,
    "tolerance_fd": 1e-6,
    "tolerance_exact": 1e-9,
    "seed": 20250809,
    "samples": 5,
}


def _parse_array(nested, shape, where: str) -> np.ndarray:
    """Finite floats of the given shape, else ConfigInvalid naming ``where``."""
    if _holds_bool(nested):
        raise ConfigInvalid(f"{where}: entries must be numbers, not booleans")
    try:
        arr = np.asarray(nested, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{where}: entries must be numbers ({exc})") from None
    if arr.shape != shape:
        raise ConfigInvalid(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigInvalid(f"{where}: entries must be finite")
    return arr


def _parse_complex_array(nested, shape, where: str) -> np.ndarray:
    arr = _parse_array(nested, shape + (2,), where)  # [re, im] pairs
    return arr[..., 0] + 1j * arr[..., 1]


def _holds_bool(nested) -> bool:
    """Whether a JSON value holds ``true`` or ``false``, which float() reads as 1 or 0."""
    if isinstance(nested, list):
        return any(_holds_bool(item) for item in nested)
    return isinstance(nested, bool)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are ints to Python but not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _tolerance(numeric: dict, name: str) -> float:
    """numeric[name] as a float; zero, negative or non-finite tolerances pass nothing."""
    value = float(_parse_array(numeric[name], (), f"numeric.{name}"))
    if value <= 0:
        raise ConfigInvalid(f"numeric.{name}: finite number > 0 required")
    return value


@dataclass
class VerificationConfig:
    """Validated run configuration; construction fails with the invariant name."""

    torus: ComplexTorus
    datum: AHDatum | None  # None means the trivial bundle
    grid: int
    tolerance_analytic: float
    tolerance_fd: float
    tolerance_exact: float
    seed: int
    samples: int
    checks: list[str] | None
    output: str | None
    canonical: dict = field(repr=False)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid("config: top level must be an object")
        torus_spec = data.get("torus")
        if not isinstance(torus_spec, dict):
            raise ConfigInvalid("torus: section missing")
        genus = torus_spec.get("genus")
        if not _is_int(genus) or genus < 1:
            raise ConfigInvalid("torus.genus: positive integer required")
        periods = _parse_complex_array(
            torus_spec.get("periods"), (genus, 2 * genus), "torus.periods"
        )
        # finite, as a NaN or infinite cap would switch the conditioning check off
        kappa = float(_parse_array(torus_spec.get("kappa_max", 1e8), (), "torus.kappa_max"))
        if kappa < 1:
            raise ConfigInvalid("torus.kappa_max: finite number >= 1 required")
        try:
            torus = ComplexTorus(periods, kappa_max=kappa)
        except TorsorcheckError as exc:
            raise ConfigInvalid(f"torus: {type(exc).__name__}: {exc}") from None

        bundle_spec = data.get("bundle", "trivial")
        if bundle_spec == "trivial":
            datum = None
        elif isinstance(bundle_spec, dict):
            hermitian = _parse_complex_array(
                bundle_spec.get("hermitian"), (genus, genus), "bundle.hermitian"
            )
            turns = _parse_array(bundle_spec.get("chi_turns"), (2 * genus,), "bundle.chi_turns")
            chi = np.exp(2j * np.pi * turns)
            try:
                datum = AHDatum(torus, hermitian, chi)
            except TorsorcheckError as exc:
                raise ConfigInvalid(f"bundle: {type(exc).__name__}: {exc}") from None
        else:
            raise ConfigInvalid('bundle: must be "trivial" or an object')

        numeric = {**_NUMERIC_DEFAULTS, "grid": 64 if genus == 1 else 16}
        user_numeric = data.get("numeric", {})
        if not isinstance(user_numeric, dict):
            raise ConfigInvalid("numeric: section must be an object")
        unknown = [k for k in user_numeric if k not in numeric]
        if unknown:
            raise ConfigInvalid(f"numeric: unknown keys {unknown}")
        numeric.update(user_numeric)
        grid = numeric["grid"]
        if not _is_int(grid) or grid < 4:
            raise ConfigInvalid("numeric.grid: integer >= 4 required")
        seed = numeric["seed"]
        if not _is_int(seed) or seed < 0:
            raise ConfigInvalid("numeric.seed: integer >= 0 required")
        samples = numeric["samples"]
        if not _is_int(samples) or samples < 1:
            raise ConfigInvalid("numeric.samples: integer >= 1 required")
        tolerances = {name: _tolerance(numeric, name)
                      for name in ("tolerance_analytic", "tolerance_fd", "tolerance_exact")}
        checks = data.get("checks")
        if checks is not None:
            if not isinstance(checks, list):
                raise ConfigInvalid("checks: list of check names or null required")
            unknown = [c for c in checks if c not in CHECK_ORDER]
            if unknown:
                raise ConfigInvalid(f"checks: unknown names {unknown}")
        if not isinstance(data.get("output"), (str, type(None))):
            raise ConfigInvalid("output: path string or null required")
        canonical = {
            "torus": {
                "genus": genus,
                "periods": [[[z.real, z.imag] for z in row] for row in periods],
                "kappa_max": kappa,
            },
            "bundle": "trivial" if datum is None else {
                "hermitian": [[[z.real, z.imag] for z in row] for row in datum.hermitian],
                "chi_turns": list(turns),
            },
            "numeric": {"grid": grid, "seed": seed, "samples": samples, **tolerances},
            "checks": checks,
            "output": data.get("output"),
        }
        return cls(
            torus=torus,
            datum=datum,
            grid=grid,
            **tolerances,
            seed=seed,
            samples=samples,
            checks=checks,
            output=data.get("output"),
            canonical=canonical,
        )

    @classmethod
    def from_file(cls, path) -> "VerificationConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def demo(cls, name: str) -> "VerificationConfig":
        if name not in DEMO_CONFIGS:
            raise ConfigInvalid(
                f"unknown demo {name!r}; choose from {sorted(DEMO_CONFIGS)}"
            )
        return cls.from_dict(json.loads(json.dumps(DEMO_CONFIGS[name])))

    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CheckResult:
    name: str
    status: str
    max_error: float | None
    tolerance: float | None
    samples: int
    wall_time_ms: float


@dataclass
class VerificationReport:
    version: str
    config_digest: str
    seed: int
    overall: str
    checks: list[CheckResult]
    crash_notes: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "max_error": c.max_error,
                    "tolerance": c.tolerance,
                    "samples": c.samples,
                    "wall_time_ms": c.wall_time_ms,
                }
                for c in self.checks
            ],
        }


class _SuiteContext:
    """Shared objects for the checks, built lazily so failures stay local."""

    def __init__(self, cfg: VerificationConfig):
        self.cfg = cfg
        self.torus = cfg.torus
        self.datum = cfg.datum if cfg.datum is not None else trivial_datum(cfg.torus)

    @cached_property
    def chern_matrix(self) -> np.ndarray:
        return chern_form(self.datum)

    @cached_property
    def canonical_curvature(self):
        return curvature(canonical_connection(self.datum), self.cfg.grid)

    @cached_property
    def family(self):
        return family_connection(self.datum)

    @cached_property
    def sigma(self) -> TorsorPresentation:
        return sigma_presentation(self.datum, self.cfg.grid)

    @cached_property
    def tau(self) -> TorsorPresentation:
        return tau_presentation(self.datum, self.cfg.grid)

    def rng(self, check_index: int) -> np.random.Generator:
        # one stream per check, so subsets of checks reproduce full runs
        return np.random.default_rng([self.cfg.seed, check_index])


def _probe_modes(torus: ComplexTorus, rng, amplitude: float) -> list:
    """(mode, coefficient) pairs of the seeded trigonometric probe.

    The modes are the unit vectors e_0 .. e_{2g-1} and then (1, ..., 1); each
    coefficient draws g real parts, then g imaginary parts, mode by mode.
    """
    g = torus.genus
    dims = 2 * g
    modes = [np.eye(dims, dtype=int)[d] for d in range(dims)] + [np.ones(dims, dtype=int)]
    return [(m, amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g)))
            for m in modes]


def _mode_phases(resolution: int, dims: int) -> list:
    """exp(2 pi i m . c) over the grid for each probe mode, in ``_probe_modes`` order.

    A unit mode's phase is a 1-D exponential broadcast (without copying) along
    its own axis; only the diagonal mode is stored as a full grid.  Its
    argument goes through the same ``@ ones`` matmul as
    ``lattice_grid(N, dims) @ ones``, one first-axis slab at a time, which
    reproduces those floats exactly (a broadcast sum of the axes rounds
    differently).
    """
    n = resolution
    shape = (n,) * dims
    axis = np.exp(2j * np.pi * (np.arange(n) / n))
    phases = [np.broadcast_to(axis.reshape((1,) * d + (n,) + (1,) * (dims - 1 - d)), shape)
              for d in range(dims)]
    slab = np.empty(shape[1:] + (dims,))
    slab[..., 1:] = lattice_grid(n, dims - 1)
    ones = np.ones(dims, dtype=int)
    diagonal = np.empty(shape, dtype=complex)
    for i in range(n):
        slab[..., 0] = i / n
        diagonal[i] = np.exp(2j * np.pi * (slab @ ones))
    return phases + [diagonal]


# The probe sums below run from 0 in mode order, with each product's operands
# in the order of a dense ``+=`` loop over the modes: coefficient * phase for
# the values and phase * coefficient for the derivative.  numpy's complex
# multiply is not bitwise commutative where it uses fused multiply-adds.

def _probe_component(phases: list, coeffs: list, j: int) -> np.ndarray:
    """Component j of sum_m coeff_m exp(2 pi i m . c), one first-axis slab at a time."""
    out = np.empty(phases[-1].shape, dtype=complex)
    for i in range(len(out)):
        out[i] = sum(c[j] * phase[i] for phase, c in zip(phases, coeffs))
    return out


def _smooth_offset(torus: ComplexTorus, resolution: int, rng, amplitude: float) -> np.ndarray:
    """Seeded trigonometric offset grid, shape (N,)*2g + (g,)."""
    coeffs = [c for _, c in _probe_modes(torus, rng, amplitude)]
    phases = _mode_phases(resolution, 2 * torus.genus)
    return np.stack([_probe_component(phases, coeffs, j) for j in range(torus.genus)],
                    axis=-1)


def _probe_error(torus: ComplexTorus, resolution: int, rng, amplitude: float) -> float:
    """max |dbar_fd(probe) - closed-form dbar(probe)| over the grid.

    The probe is sampled and differentiated one value component at a time,
    and the closed form is assembled slab by slab and compared as soon as it
    is formed, so only g + 2 full grids are alive at once.
    """
    g = torus.genus
    modes = _probe_modes(torus, rng, amplitude)
    coeffs = [c for _, c in modes]
    phases = _mode_phases(resolution, 2 * g)
    # d/dzbar_k of coeff_j exp(2 pi i m . c) is exp(2 pi i m . c) coeff_j chain_k
    outer = [np.einsum("j,k->jk", c, 2j * np.pi * (torus.dzbar_rows @ m)) for m, c in modes]
    err = 0.0
    for j in range(g):
        fd = dbar_fd(GridFunction(torus, _probe_component(phases, coeffs, j))).values
        for i in range(resolution):
            for k in range(g):
                analytic = sum(phase[i] * mat[j, k] for phase, mat in zip(phases, outer))
                err = max(err, float(np.max(np.abs(fd[i, ..., k] - analytic))))
        del fd  # release before the next component's stencil runs
    return err


# -- individual checks ---------------------------------------------------------

def _check_datum_valid(ctx, rng):
    d = ctx.datum
    herm = float(np.max(np.abs(d.hermitian - d.hermitian.conj().T)))
    e_dev = float(np.max(np.abs(d.pairing_imag - np.round(d.pairing_imag))))
    unit = float(np.max(np.abs(np.abs(d.chi) - 1.0)))
    # AHDatum enforces the semicharacter condition at load; e_dev measures its defect
    err = max(herm, e_dev, unit)
    return err, ctx.cfg.tolerance_analytic, (2 * ctx.torus.genus) ** 2


def _check_chern_integrality(ctx, rng):
    omega = chern_form(ctx.datum)
    n = 2 * ctx.torus.genus
    target = ctx.datum.pairing_imag_int
    err = 0.0
    for j in range(n):
        for k in range(n):
            err = max(err, abs(cycle_integral(ctx.torus, omega, j, k) - target[j, k]))
    return err, ctx.cfg.tolerance_analytic, n * n


def _check_curvature_invariance(ctx, rng):
    return ctx.canonical_curvature.max_variation(), ctx.cfg.tolerance_exact, ctx.cfg.grid


def _check_sigma_obstruction(ctx, rng):
    recomputed = connections.CHERN_NORMALIZATION * ctx.canonical_curvature.values
    err = float(np.max(np.abs(recomputed - ctx.chern_matrix)))
    return err, ctx.cfg.tolerance_fd, ctx.cfg.grid


def _check_slice_flatness(ctx, rng):
    err = 0.0
    for x in ctx.torus.random_points(rng, ctx.cfg.samples):
        sliced = slice_connection(ctx.family, x)
        err = max(err, curvature(sliced, ctx.cfg.grid).max_abs())
    return err, ctx.cfg.tolerance_analytic, ctx.cfg.samples


def _check_family_restriction(ctx, rng):
    err = 0.0
    for y in ctx.torus.random_points(rng, ctx.cfg.samples):
        err = max(err, check_eq_i(ctx.family, y, ctx.cfg.grid))
    return err, ctx.cfg.tolerance_analytic, ctx.cfg.samples


def _check_tau_obstruction(ctx, rng):
    dev_product = float(np.max(np.abs(ctx.tau.theta_ref - ctx.chern_matrix)))
    alt = tau_presentation(ctx.datum, ctx.cfg.grid, frame="slice_normal")
    dev_normal = float(np.max(np.abs(alt.theta_ref - ctx.chern_matrix)))
    z_alt = ctx.torus.random_points(rng, 1)[0].lift
    moved = tau_presentation(ctx.datum, ctx.cfg.grid, z_base=z_alt)
    dev_zbase = float(np.max(np.abs(moved.theta_ref - ctx.tau.theta_ref)))
    return max(dev_product, dev_normal, dev_zbase), ctx.cfg.tolerance_fd, ctx.cfg.grid


def _check_sigma_tau_match(ctx, rng):
    gamma = canonical_morphism(ctx.sigma, ctx.tau)
    _, err = is_holomorphic_morphism(gamma, ctx.cfg.tolerance_fd)
    g = ctx.torus.genus
    shape = (ctx.cfg.grid,) * (2 * g) + (g,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    left = gamma.apply(act(ctx.sigma.zero_section(), v)).offset
    right = act(gamma.apply(ctx.sigma.zero_section()), v).offset
    equivariance = float(np.max(np.abs(left - right)))
    return max(err, equivariance), ctx.cfg.tolerance_fd, ctx.cfg.grid


def _check_perturbed_reference(ctx, rng):
    w = _smooth_offset(ctx.torus, ctx.cfg.grid, rng, amplitude=0.05)
    gamma = canonical_morphism(ctx.sigma, custom_presentation(ctx.tau, w))
    dbar_w = dbar_fd(GridFunction(ctx.torus, w)).values
    err = float(np.max(np.abs(gamma.obstruction() - dbar_w)))
    return err, 2.0 * ctx.cfg.tolerance_fd, ctx.cfg.grid


def _check_duality(ctx, rng):
    cfg = ctx.cfg
    dual = ctx.datum.dual()
    tau_dual = tau_presentation(dual, cfg.grid)
    sigma_dual = sigma_presentation(dual, cfg.grid)
    delta = duality_map(ctx.tau, tau_dual)
    delta_back = duality_map(tau_dual, ctx.tau)
    delta_conn = duality_map(ctx.sigma, sigma_dual)
    err = max(
        is_holomorphic_morphism(delta, cfg.tolerance_exact)[1],
        is_holomorphic_morphism(delta_conn, cfg.tolerance_exact)[1],
    )
    g = ctx.torus.genus
    shape = (cfg.grid,) * (2 * g) + (g,)
    for _ in range(cfg.samples):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        section = act(ctx.tau.zero_section(), v)
        roundtrip = delta_back.apply(delta.apply(section))
        err = max(err, float(np.max(np.abs(roundtrip.offset - section.offset))))
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        left = delta.apply(act(section, w)).offset
        right = act(delta.apply(section), -w).offset
        err = max(err, float(np.max(np.abs(left - right))))
    # zero-offset references map to each other: the covectors are negatives
    theta = canonical_connection(ctx.datum)
    theta_dual = canonical_connection(dual)
    z = ctx.torus.lift_of_coords(rng.random((cfg.samples, 2 * g)))
    err = max(err, float(np.max(np.abs(theta(z) + theta_dual(z)))))
    x = ctx.torus.random_points(rng, 1)[0]
    slice_l = slice_connection(ctx.family, x)
    slice_dual = slice_connection(family_connection(dual), x)
    err = max(err, float(np.max(np.abs(slice_l(z) + slice_dual(z)))))
    return err, cfg.tolerance_exact, cfg.samples


def _check_trivial_bundle(ctx, rng):
    cfg = ctx.cfg
    flat = trivial_datum(ctx.torus)
    sigma = sigma_presentation(flat, cfg.grid)
    tau = tau_presentation(flat, cfg.grid)
    err = float(np.max(np.abs(chern_form(flat))))
    err = max(err, float(np.max(np.abs(trivialization_class(sigma)))))
    err = max(err, float(np.max(np.abs(trivialization_class(tau)))))
    err = max(err, is_holomorphic(sigma.zero_section(), cfg.tolerance_exact)[1])
    err = max(err, is_holomorphic(tau.zero_section(), cfg.tolerance_exact)[1])
    gamma = canonical_morphism(sigma, tau)
    err = max(err, is_holomorphic_morphism(gamma, cfg.tolerance_exact)[1])
    g = ctx.torus.genus
    v = rng.standard_normal((g,)) + 1j * rng.standard_normal((g,))
    identity_gap = float(np.max(np.abs(
        gamma.apply(act(sigma.zero_section(), v)).offset
        - act(tau.zero_section(), v).offset
    )))
    return max(err, identity_gap), cfg.tolerance_exact, cfg.grid


def _check_convergence_order(ctx, rng):
    """Doubling the grid must cut the error of a genuinely curved probe by >= 3.5."""
    errors = [_probe_error(ctx.torus, n, np.random.default_rng([ctx.cfg.seed, 997]), 0.1)
              for n in (ctx.cfg.grid, 2 * ctx.cfg.grid)]
    return errors[1], errors[0] / 3.5, 2


_CHECK_FUNCTIONS = {
    "datum_valid": _check_datum_valid,
    "chern_integrality": _check_chern_integrality,
    "curvature_invariance": _check_curvature_invariance,
    "sigma_obstruction": _check_sigma_obstruction,
    "slice_flatness": _check_slice_flatness,
    "family_curvature_restriction": _check_family_restriction,
    "tau_obstruction": _check_tau_obstruction,
    "sigma_tau_match": _check_sigma_tau_match,
    "perturbed_reference": _check_perturbed_reference,
    "duality_involution": _check_duality,
    "trivial_bundle": _check_trivial_bundle,
    "convergence_order": _check_convergence_order,
}

CHECK_ORDER = list(_CHECK_FUNCTIONS)


def run_suite(cfg: VerificationConfig) -> VerificationReport:
    """Execute the selected checks in order and assemble the report.

    Exceptions inside a check, and a non-finite error or tolerance, mark it
    failed (max_error null) and are recorded in ``crash_notes``; the remaining
    checks still run.
    """
    ctx = _SuiteContext(cfg)
    selected = cfg.checks if cfg.checks is not None else CHECK_ORDER
    results: list[CheckResult] = []
    crash_notes: dict[str, str] = {}
    for index, name in enumerate(CHECK_ORDER):
        if name not in selected:
            continue
        start = time.perf_counter()
        try:
            max_error, tolerance, samples = _CHECK_FUNCTIONS[name](ctx, ctx.rng(index))
            if not (math.isfinite(max_error) and math.isfinite(tolerance)):
                raise FloatingPointError(
                    f"non-finite result: max_error {max_error}, tolerance {tolerance}"
                )
            status = "pass" if max_error <= tolerance else "fail"
            result = CheckResult(
                name=name,
                status=status,
                max_error=float(max_error),
                tolerance=float(tolerance),
                samples=int(samples),
                wall_time_ms=(time.perf_counter() - start) * 1000.0,
            )
        except Exception as exc:  # crash isolation: keep running
            crash_notes[name] = f"{type(exc).__name__}: {exc}"
            result = CheckResult(
                name=name,
                status="fail",
                max_error=None,
                tolerance=None,
                samples=0,
                wall_time_ms=(time.perf_counter() - start) * 1000.0,
            )
        results.append(result)
    overall = "pass" if results and all(r.status == "pass" for r in results) else "fail"
    return VerificationReport(
        version=__version__,
        config_digest=cfg.digest(),
        seed=cfg.seed,
        overall=overall,
        checks=results,
        crash_notes=crash_notes,
    )


def report_json(report: VerificationReport) -> str:
    # strict JSON: run_suite never reports a non-finite number
    return json.dumps(report.to_json_dict(), indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def emit_report(report: VerificationReport, path=None) -> None:
    """Write the JSON report (stable key order) and print a text summary."""
    if path is not None:
        Path(path).write_text(report_json(report), encoding="utf-8")
    for c in report.checks:
        err = "crashed" if c.max_error is None else f"max_error={c.max_error:.3e}"
        tol = "" if c.tolerance is None else f" tol={c.tolerance:.3e}"
        print(f"[{c.status.upper():4s}] {c.name:28s} {err}{tol} ({c.wall_time_ms:.1f} ms)")
        if c.name in report.crash_notes:
            print(f"       note: {report.crash_notes[c.name]}")
    print(f"overall: {report.overall}" + (f" -> {path}" if path else ""))
