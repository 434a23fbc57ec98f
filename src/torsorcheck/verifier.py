"""Configuration ingestion, the ordered check suite, and machine-readable reports.

The suite runs, in order: datum validation, the integrality anchor for the
curvature class, translation invariance of the curvature, the
finite-difference recomputation of the sigma obstruction, flatness and the
phi_L(x) datum of the slice restrictions, the family curvature on A x A and
its restriction identity, the from-scratch tau obstruction, holomorphy of the
canonical sigma-tau morphism, the affine identity for a perturbed reference,
holomorphy of the duality maps with negation of the dual covectors, the
trivial-bundle degenerate run (zero class, holomorphic references and
morphism), and a convergence-order probe.  A crash in one check never
suppresses the following ones.  Both presentations hold one (g, g) class,
and every derivative the suite takes (the canonical curvature, the slice
and family curvatures, the tau reference, the probe and the obstructions of
``perturbed_reference``'s function offsets) is read through the one
Wirtinger stencil at seeded points, so no check builds an N^{2g} grid.

The checks measure only what can fail on the mathematics.  The section-action
bookkeeping (equivariance of the canonical morphism, the duality round trip and
anti-equivariance) holds bitwise by construction and is pinned in the tests.

Reports are deterministic for a fixed config and seed: every numeric field is
bitwise reproducible on one platform; only the wall-time fields vary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): hashing one
# short config then loads no OpenSSL libcrypto, about 3.7 MB of a run's peak RSS
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

import numpy as np

from . import connections
from .bundles import AHDatum, hermitian_pairing, product_maps, trivial_datum
from .connections import (
    ConnectionForm,
    canonical_connection,
    check_eq_i,
    chern_form,
    curvature,
    family_connection,
    restricted_covector,
    slice_connection,
)
from .errors import ConfigInvalid, TorsorcheckError
from .grids import MIN_RESOLUTION, POINT_SAMPLES, SeededDraws, dbar_at_points, sample_blocks
from .torsors import (
    TorsorPresentation,
    act,
    canonical_morphism,
    duality_map,
    is_holomorphic,
    is_holomorphic_morphism,
    local_holomorphic_section,
    obstruction,
    sigma_presentation,
    tau_presentation,
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
#: the integer numeric fields and the least value each may take
_INTEGER_LEAST = {"grid": MIN_RESOLUTION, "seed": 0, "samples": 1}
#: the largest grid: the probe's truncation error falls as N**-2 while the
#: rounding of its difference quotient grows as eps * N, so past this grid
#: convergence_order fails a correct program (at 2**17 it fails tests/g3_n6.json)
_GRID_BOUND = 2**16
#: slice_flatness, family_curvature_restriction and duality_involution each
#: draw ``samples`` points; the first two read them in the blocks of
#: ``grids.sample_blocks`` (through ``_slice_terms`` and ``check_eq_i``), so
#: their time grows linearly in ``samples`` and their memory does not, and
#: duality_involution allocates linearly in them
_SAMPLES_BOUND = 10**4


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


def _reject_unknown(section: dict, known, where: str) -> None:
    """A misspelt key would otherwise load silently under the default it meant to change."""
    unknown = [k for k in section if k not in known]
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {unknown}")


def _tolerance(numeric: dict, name: str) -> float:
    """numeric[name] as a float; zero, negative or non-finite tolerances pass nothing."""
    value = float(_parse_array(numeric[name], (), f"numeric.{name}"))
    if value <= 0:
        raise ConfigInvalid(f"numeric.{name}: finite number > 0 required")
    return value


@dataclass
class VerificationConfig:
    """Validated run configuration; construction fails with the invariant name."""

    datum: AHDatum  # carries the torus; the config's "trivial" is resolved to trivial_datum(torus)
    grid: int
    tolerance_analytic: float
    tolerance_fd: float
    tolerance_exact: float
    seed: int
    samples: int
    checks: list[str] | None
    output: str | None
    canonical: dict = field(repr=False)

    @property
    def torus(self) -> ComplexTorus:
        return self.datum.torus

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationConfig":
        if not isinstance(data, dict):
            raise ConfigInvalid("config: top level must be an object")
        _reject_unknown(data, ("torus", "bundle", "numeric", "checks", "output"), "config")
        torus_spec = data.get("torus")
        if not isinstance(torus_spec, dict):
            raise ConfigInvalid("torus: section missing")
        _reject_unknown(torus_spec, ("genus", "periods", "kappa_max"), "torus")
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

        if "bundle" not in data:  # as "trivial" it would verify a bundle no one chose
            raise ConfigInvalid("bundle: section missing")
        bundle_spec = data["bundle"]
        if bundle_spec == "trivial":
            datum = trivial_datum(torus)
        elif isinstance(bundle_spec, dict):
            _reject_unknown(bundle_spec, ("hermitian", "chi_turns"), "bundle")
            hermitian = _parse_complex_array(
                bundle_spec.get("hermitian"), (genus, genus), "bundle.hermitian"
            )
            turns = _parse_array(bundle_spec.get("chi_turns"), (2 * genus,), "bundle.chi_turns")
            with np.errstate(over="ignore", invalid="ignore"):  # 2 pi * 1e308 overflows
                chi = np.exp(2j * np.pi * turns)
            if not np.all(np.isfinite(chi)):
                raise ConfigInvalid("bundle.chi_turns: turns too large for a finite phase")
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
        _reject_unknown(user_numeric, numeric, "numeric")
        numeric.update(user_numeric)
        parsed = {}
        for name, least in _INTEGER_LEAST.items():
            if not _is_int(numeric[name]) or numeric[name] < least:
                raise ConfigInvalid(f"numeric.{name}: integer >= {least} required")
            parsed[name] = numeric[name]
        if parsed["grid"] > _GRID_BOUND:  # an int comparison: 1/(2 * 10**400) overflows
            raise ConfigInvalid("numeric.grid: integer <= 2**16 required, as the probe's "
                                "rounding grows as eps*N and outgrows its N**-2 truncation "
                                "error beyond that")
        if parsed["samples"] > _SAMPLES_BOUND:  # an int comparison, like the grid's
            raise ConfigInvalid("numeric.samples: integer <= 10**4 required, so that the "
                                "sampled checks stay bounded in time and memory")
        for name in ("tolerance_analytic", "tolerance_fd", "tolerance_exact"):
            parsed[name] = _tolerance(numeric, name)
        checks = data.get("checks")
        if checks is not None:
            if not isinstance(checks, list):
                raise ConfigInvalid("checks: list of check names or null required")
            unknown = [c for c in checks if c not in CHECK_ORDER]
            if unknown:
                raise ConfigInvalid(f"checks: unknown names {unknown}")
            if not checks:
                raise ConfigInvalid("checks: an empty list selects nothing; use null for all")
            # one spelling per selection, so the same run gets the same digest
            checks = [name for name in CHECK_ORDER if name in checks]
        if not isinstance(data.get("output"), (str, type(None))):
            raise ConfigInvalid("output: path string or null required")
        canonical = {
            "torus": {
                "genus": genus,
                "periods": [[[z.real, z.imag] for z in row] for row in periods],
                "kappa_max": kappa,
            },
            "bundle": "trivial" if bundle_spec == "trivial" else {
                "hermitian": [[[z.real, z.imag] for z in row] for row in datum.hermitian],
                "chi_turns": list(turns),
            },
            "numeric": parsed,
            "checks": checks,
            "output": data.get("output"),
        }
        return cls(datum=datum, **parsed, checks=checks,
                   output=data.get("output"), canonical=canonical)

    @classmethod
    def from_file(cls, path) -> "VerificationConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"config file {str(path)!r} cannot be read: {exc}") from None
        try:
            data = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
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
        return sha256(blob.encode("utf-8")).hexdigest()


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
        """The fields in declaration order; the crash notes are printed, not written."""
        out = asdict(self)
        del out["crash_notes"]
        return out


class _SuiteContext:
    """Shared objects for the checks, built lazily so failures stay local.

    It holds the Chern matrix, the canonical curvature cloud, the two
    presentations ``sigma`` and ``tau``, and the dual datum ``dual``.  Each
    family connection is built once: ``family`` for the datum, which ``tau``,
    the slice checks and ``tau_obstruction``'s moved base point read, and
    ``dual_family`` for the dual, which ``duality_involution`` reads for both
    its tau presentation and its slice.  Every family of the torus, the
    trivial bundle's too, shares the one product torus of ``product_maps``.
    """

    def __init__(self, cfg: VerificationConfig):
        self.cfg = cfg
        self.torus = cfg.torus
        self.datum = cfg.datum

    @cached_property
    def chern_matrix(self) -> np.ndarray:
        return chern_form(self.datum)

    @cached_property
    def canonical_curvature(self) -> np.ndarray:
        """The (P, g, g) curvature cloud of the canonical connection at the seeded points."""
        return curvature(canonical_connection(self.datum), self.cfg.grid)

    @cached_property
    def product_maps(self):
        """The first projection and the addition map of A x A, for every family."""
        return product_maps(self.torus)

    @cached_property
    def family(self) -> ConnectionForm:
        return family_connection(self.datum, self.product_maps)

    @cached_property
    def dual(self) -> AHDatum:
        return self.datum.dual()

    @cached_property
    def dual_family(self) -> ConnectionForm:
        return family_connection(self.dual, self.product_maps)

    @cached_property
    def sigma(self) -> TorsorPresentation:
        return sigma_presentation(self.datum, self.cfg.grid)

    @cached_property
    def tau(self) -> TorsorPresentation:
        return tau_presentation(self.family, self.cfg.grid)

    def rng(self, check_index: int) -> SeededDraws:
        # one stream per check, so subsets of checks reproduce full runs
        return SeededDraws(self.cfg.seed, check_index)


def _probe_terms(genus: int, rng, amplitude: float):
    """Modes (M, 2g) and coefficients (M, g) of the seeded probe sum_m coeff_m exp(2 pi i m . c).

    The modes m are the unit vectors e_0 .. e_{2g-1} and then (1, ..., 1); each
    coefficient draws g real parts, then g imaginary parts, mode by mode.
    """
    modes = np.vstack([np.eye(2 * genus), np.ones(2 * genus)])
    coeffs = np.array([amplitude * (rng.standard_normal(genus) + 1j * rng.standard_normal(genus))
                       for _ in modes])
    return modes, coeffs


def _probe(torus: ComplexTorus, modes, coeffs):
    """The probe z -> sum_m coeff_m exp(2 pi i m . c(z)), vectorized over lifts (..., g)."""
    return lambda z: np.exp(2j * np.pi * (torus.lattice_coords(z) @ modes.T)) @ coeffs


def _point_probe_error(torus: ComplexTorus, resolution: int, coords, modes, coeffs) -> float:
    """max |dbar_at_points(probe) - closed-form dbar(probe)| at lattice coordinates (P, 2g).

    d/dzbar_k of coeff_j exp(2 pi i m . c) is exp(2 pi i m . c) coeff_j
    2 pi i (dzbar_rows @ m)_k.
    """
    fd = dbar_at_points(torus, _probe(torus, modes, coeffs), resolution, coords)
    chain = 2j * np.pi * (modes @ torus.dzbar_rows.T)  # (M, g)
    outer = coeffs[:, :, None] * chain[:, None, :]  # (M, g, g)
    analytic = np.tensordot(np.exp(2j * np.pi * (coords @ modes.T)), outer, axes=1)
    return float(np.max(np.abs(fd - analytic)))


def _slice_terms(ctx, xs, coords) -> np.ndarray:
    """The three flatness terms of each slice A x {x}, for lifts ``xs`` (S, g): (S, 3).

    Per slice: the max |curvature| of its covector at the lattice coordinates
    ``coords`` (P, 2g), the max |pairing| of its datum, and the max distance
    of its phases from exp(2 pi i Im H(x, lambda_j)).  Each block of
    ``grids.sample_blocks`` is one stencil call on the covector with the
    block's lifts as its broadcast axis, as in ``check_eq_i``; each slice
    datum is its ``slice_connection``'s.
    """
    lattice = ctx.torus.periods.T  # generator j in row j
    terms = []
    for block in sample_blocks(ctx.torus, len(xs)):
        x = xs[block]
        theta = restricted_covector(ctx.family, x, free=0, half=0)
        cloud = dbar_at_points(ctx.torus, theta, ctx.cfg.grid, coords)
        phases = np.exp(2j * np.pi * hermitian_pairing(ctx.datum.hermitian, x[:, None, :],
                                                       lattice).imag)
        data = [slice_connection(ctx.family, point).datum for point in x]
        pairings = np.array([d.hermitian for d in data])
        chis = np.array([d.chi for d in data])
        terms.append(np.stack([np.max(np.abs(cloud).reshape(len(x), -1), axis=1),
                               np.max(np.abs(pairings).reshape(len(x), -1), axis=1),
                               np.max(np.abs(chis - phases), axis=1)], axis=1))
    return np.concatenate(terms)


# -- individual checks ---------------------------------------------------------

def _check_datum_valid(ctx, rng):
    d = ctx.datum
    herm = float(np.max(np.abs(d.hermitian - d.hermitian.conj().T)))
    e_dev = float(np.max(np.abs(d.pairing_imag - np.round(d.pairing_imag))))
    unit = float(np.max(np.abs(np.abs(d.chi) - 1.0)))
    # AHDatum enforces the semicharacter condition at load; e_dev measures its defect.
    # np.max keeps a NaN term, which Python max would drop.
    err = float(np.max([herm, e_dev, unit]))
    return err, ctx.cfg.tolerance_analytic, (2 * ctx.torus.genus) ** 2


def _check_chern_integrality(ctx, rng):
    integrals = cycle_integral(ctx.torus, ctx.chern_matrix)
    err = np.max(np.abs(integrals - ctx.datum.pairing_imag_int))
    return float(err), ctx.cfg.tolerance_analytic, integrals.size


def _check_curvature_invariance(ctx, rng):
    k = ctx.canonical_curvature
    return float(np.max(np.abs(k - k.mean(axis=0)))), ctx.cfg.tolerance_exact, POINT_SAMPLES


def _check_sigma_obstruction(ctx, rng):
    recomputed = connections.CHERN_NORMALIZATION * ctx.canonical_curvature
    err = float(np.max(np.abs(recomputed - ctx.chern_matrix)))
    return err, ctx.cfg.tolerance_fd, POINT_SAMPLES


def _check_slice_flatness(ctx, rng):
    """Each slice A x {x} of the family carries the flat datum phi_L(x) = (0, e(Im H(x, .))).

    The slice covector's curvature is read at seeded points, drawn after the
    x points; the slice datum must have zero pairing and the phases
    exp(2 pi i Im H(x, lambda_j)).  The slices are read in blocks.
    """
    g = ctx.torus.genus
    xs = ctx.torus.random_points(rng, ctx.cfg.samples)
    coords = rng.random((POINT_SAMPLES, 2 * g))
    return float(np.max(_slice_terms(ctx, xs, coords))), ctx.cfg.tolerance_analytic, ctx.cfg.samples


def _check_family_restriction(ctx, rng):
    """The family curvature on A x A, and its restriction to each parameter section, at points."""
    g = ctx.torus.genus
    ys = ctx.torus.random_points(rng, ctx.cfg.samples)
    coords = rng.random((POINT_SAMPLES, 2 * g))
    sections = check_eq_i(ctx.family, ys, ctx.cfg.grid, coords)
    product_coords = rng.random((POINT_SAMPLES, 4 * g))
    recomputed = connections.CHERN_NORMALIZATION * curvature(
        ctx.family, ctx.cfg.grid, product_coords)
    family = np.max(np.abs(recomputed - chern_form(ctx.family.datum)))
    return float(np.max([*sections, family])), ctx.cfg.tolerance_analytic, ctx.cfg.samples


def _check_tau_obstruction(ctx, rng):
    dev_product = np.max(np.abs(ctx.tau.theta_ref - ctx.chern_matrix))
    z_alt = ctx.torus.random_points(rng, 1)[0]
    moved = tau_presentation(ctx.family, ctx.cfg.grid, z_base=z_alt)
    dev_zbase = np.max(np.abs(moved.theta_ref - ctx.tau.theta_ref))
    return float(np.max([dev_product, dev_zbase])), ctx.cfg.tolerance_fd, POINT_SAMPLES


def _check_sigma_tau_match(ctx, rng):
    _, err = is_holomorphic_morphism(canonical_morphism(ctx.sigma, ctx.tau), ctx.cfg.tolerance_fd)
    return err, ctx.cfg.tolerance_fd, POINT_SAMPLES


def _check_perturbed_reference(ctx, rng):
    """Moving tau's reference by w adds dbar(w) to its obstruction, exactly at points.

    w(z) = conj(z) B^T + z C^T is affine, so its dbar is B at every point, and
    the obstruction of the moved section must be sigma's class plus B.  The
    chart-local holomorphic section of tau must have zero obstruction.
    """
    g = ctx.torus.genus
    b, c = (0.05 * (rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g)))
            for _ in range(2))
    coords = rng.random((POINT_SAMPLES, 2 * g))
    moved = obstruction(act(ctx.tau.zero_section(), lambda z: np.conj(z) @ b.T + z @ c.T), coords)
    terms = [np.max(np.abs(moved - (ctx.sigma.theta_ref + b))),
             np.max(np.abs(obstruction(local_holomorphic_section(ctx.tau), coords)))]
    return float(np.max(terms)), 2.0 * ctx.cfg.tolerance_fd, POINT_SAMPLES


def _check_duality(ctx, rng):
    cfg = ctx.cfg
    tau_dual = tau_presentation(ctx.dual_family, cfg.grid)
    sigma_dual = sigma_presentation(ctx.dual, cfg.grid)
    terms = [
        is_holomorphic_morphism(duality_map(ctx.tau, tau_dual), cfg.tolerance_exact)[1],
        is_holomorphic_morphism(duality_map(ctx.sigma, sigma_dual), cfg.tolerance_exact)[1],
    ]
    # zero-offset references map to each other: the covectors are negatives
    theta = canonical_connection(ctx.datum).theta
    theta_dual = canonical_connection(ctx.dual).theta
    z = ctx.torus.lift_of_coords(rng.random((cfg.samples, 2 * ctx.torus.genus)))
    terms.append(np.max(np.abs(theta(z) + theta_dual(z))))
    x = ctx.torus.random_points(rng, 1)[0]
    slice_l = restricted_covector(ctx.family, x, free=0, half=0)
    slice_dual = restricted_covector(ctx.dual_family, x, free=0, half=0)
    terms.append(np.max(np.abs(slice_l(z) + slice_dual(z))))
    return float(np.max(terms)), cfg.tolerance_exact, cfg.samples


def _check_trivial_bundle(ctx, rng):
    cfg = ctx.cfg
    flat = trivial_datum(ctx.torus)
    sigma = sigma_presentation(flat, cfg.grid)
    tau = tau_presentation(family_connection(flat, ctx.product_maps), cfg.grid)
    # a zero section's obstruction is the reference class itself, sigma's being chern_form(flat)
    terms = [is_holomorphic(sigma.zero_section(), cfg.tolerance_exact)[1],
             is_holomorphic(tau.zero_section(), cfg.tolerance_exact)[1],
             is_holomorphic_morphism(canonical_morphism(sigma, tau), cfg.tolerance_exact)[1]]
    return float(np.max(terms)), cfg.tolerance_exact, POINT_SAMPLES


def _check_convergence_order(ctx, rng):
    """Doubling the grid must cut the error of a genuinely curved probe by >= 3.5.

    The stencil differentiates the seeded probe at ``POINT_SAMPLES`` points at
    steps 1/N and 1/(2N); coefficients and points come from one stream, so
    both resolutions see the same probe at the same points.
    """
    probe_rng = SeededDraws(ctx.cfg.seed, 997)
    modes, coeffs = _probe_terms(ctx.torus.genus, probe_rng, 0.1)
    coords = probe_rng.random((POINT_SAMPLES, 2 * ctx.torus.genus))
    errors = [_point_probe_error(ctx.torus, n, coords, modes, coeffs)
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
            max_error, tolerance, samples = float(max_error), float(tolerance), int(samples)
            if not (math.isfinite(max_error) and math.isfinite(tolerance)):
                raise FloatingPointError(
                    f"non-finite result: max_error {max_error}, tolerance {tolerance}"
                )
            status = "pass" if max_error <= tolerance else "fail"
        except Exception as exc:  # crash isolation: keep running
            crash_notes[name] = f"{type(exc).__name__}: {exc}"
            status, max_error, tolerance, samples = "fail", None, None, 0
        wall_time_ms = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(name, status, max_error, tolerance, samples, wall_time_ms))
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
