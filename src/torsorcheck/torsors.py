"""Affine presentations of the two connection torsors and their comparison maps.

A torsor over the trivial bundle with fiber V = C^g (invariant (1,0)-forms) is
presented concretely by a reference smooth section together with that
section's obstruction (0,1)-form Theta, sampled on the lattice grid with the
layout Theta[..., j, k] = component dz_j along direction dzbar_k.  Sections
are reference + offset, obstructions are Theta + dbar(offset), and a section
is holomorphic exactly when its obstruction vanishes.

Two reference sections are built here:

* ``sigma_presentation`` - the canonical unitary connection, whose obstruction
  is the invariant curvature class;
* ``tau_presentation`` - the family of flat slice restrictions of the induced
  two-variable connection, whose obstruction is recomputed from first
  principles by differentiating the family in the parameter's antiholomorphic
  directions.

The canonical morphism matches references affinely (offset -> offset); its
obstruction is the difference of the reference obstructions, so it is
holomorphic precisely when those agree.  Duality flips the sign of offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connections
from .bundles import AHDatum
from .connections import chern_form, family_connection
from .errors import BaseMismatch, ShapeMismatch
from .grids import GridFunction, dbar_fd
from .torus import ComplexTorus

#: labeled reference obstructions must be constant over the grid to this extent
REFERENCE_VARIATION_TOL = 1e-8


@dataclass
class TorsorPresentation:
    """A torsor given by a named reference section and its obstruction grid."""

    torus: ComplexTorus
    label: str  # "sigma" | "tau" | "custom"
    theta_ref: np.ndarray  # shape (N,)*2g + (g, g); sigma's is a read-only broadcast view
    datum: AHDatum | None = None

    def __post_init__(self):
        g = self.torus.genus
        self.theta_ref = np.asarray(self.theta_ref, dtype=complex)
        dims = 2 * g
        if self.theta_ref.ndim != dims + 2 or self.theta_ref.shape[-2:] != (g, g):
            raise ShapeMismatch("reference obstruction must be a grid of (g, g) matrices")
        if not np.all(np.isfinite(self.theta_ref)):
            raise ValueError("reference obstruction must be finite")
        if self.label in ("sigma", "tau"):
            axes = tuple(range(dims))
            variation = np.max(np.abs(self.theta_ref - self.theta_ref.mean(axis=axes)))
            if variation > REFERENCE_VARIATION_TOL:
                raise ValueError(
                    f"{self.label} reference obstruction varies by {variation:.3e} over the grid"
                )

    @property
    def resolution(self) -> int:
        return self.theta_ref.shape[0]

    def zero_section(self) -> "TorsorSection":
        return TorsorSection(self)


class TorsorSection:
    """reference + offset; the offset is a V-valued map on the base.

    The offset is kept as a tuple of array addends folded from the right, so
    the torsor-action axioms hold bitwise: acting by v then w produces the same
    floats as acting by v + w.  ``seam_jumps``, when present, has shape (2g, g)
    and gives the offset's constant increment across one period in each grid
    direction, as in ``GridFunction``: such a section is chart-local, and
    single-valued on the torus only when the jumps vanish.
    """

    def __init__(self, presentation: TorsorPresentation, addends: tuple = (),
                 seam_jumps=None):
        g = presentation.torus.genus
        grid_shape = (presentation.resolution,) * (2 * g)
        for a in addends:
            if a.shape != (g,) and a.shape != grid_shape + (g,):
                raise ShapeMismatch(
                    f"offset addends must have shape {(g,)} or {grid_shape + (g,)}"
                )
        if seam_jumps is not None:
            seam_jumps = np.asarray(seam_jumps, dtype=complex)
            if seam_jumps.shape != (2 * g, g):
                raise ShapeMismatch(f"seam jumps must have shape {(2 * g, g)}")
            if all(a.shape == (g,) for a in addends):
                raise ShapeMismatch("seam jumps need a grid-sampled offset")
        self.presentation = presentation
        self.addends = tuple(addends)
        self.seam_jumps = seam_jumps

    @property
    def offset(self) -> np.ndarray:
        """Materialized offset  a_0 + (a_1 + (a_2 + ...)), right to left."""
        if not self.addends:
            return np.zeros(self.presentation.torus.genus, dtype=complex)
        acc = np.asarray(self.addends[-1], dtype=complex)
        for a in self.addends[-2::-1]:
            acc = np.asarray(a, dtype=complex) + acc
        return acc

    def same_section(self, other: "TorsorSection") -> bool:
        """Exact equality of sections: same presentation, seam jumps and offset values."""
        if self.presentation is not other.presentation or not _same_jumps(self, other):
            return False
        left, right = np.broadcast_arrays(self.offset, other.offset)
        return bool(np.array_equal(left, right))


def _same_jumps(s: TorsorSection, t: TorsorSection) -> bool:
    if s.seam_jumps is None or t.seam_jumps is None:
        return s.seam_jumps is t.seam_jumps
    return bool(np.array_equal(s.seam_jumps, t.seam_jumps))


def act(section: TorsorSection, v) -> TorsorSection:
    """Move the section by a V-valued offset; the torsor action."""
    pres = section.presentation
    g = pres.torus.genus
    v = np.asarray(v, dtype=complex)
    grid_shape = (pres.resolution,) * (2 * g)
    if v.shape != (g,) and v.shape != grid_shape + (g,):
        raise ShapeMismatch(f"action offsets must have shape {(g,)} or {grid_shape + (g,)}")
    return TorsorSection(pres, section.addends + (v,), section.seam_jumps)


def transition(s: TorsorSection, t: TorsorSection) -> np.ndarray:
    """The unique offset v with act(s, v) equal to t (simple transitivity)."""
    if s.presentation is not t.presentation:
        raise BaseMismatch("sections live on different presentations")
    if not _same_jumps(s, t):
        raise ShapeMismatch("sections with different seam jumps differ by no periodic offset")
    return t.offset - s.offset


def obstruction(section: TorsorSection) -> GridFunction:
    """Obstruction of the section: reference obstruction plus dbar of the offset."""
    pres = section.presentation
    torus = pres.torus
    u = section.offset
    if u.ndim == 1:  # constant offsets are killed by dbar
        return GridFunction(torus, pres.theta_ref.copy())
    dbar_u = dbar_fd(GridFunction(torus, u, seam_jumps=section.seam_jumps)).values
    return GridFunction(torus, pres.theta_ref + dbar_u)


def is_holomorphic(section: TorsorSection, tol: float) -> tuple[bool, float]:
    """Whether the section's obstruction vanishes to tolerance; returns (flag, max error)."""
    err = obstruction(section).max_abs()
    return err <= tol, err


@dataclass
class TorsorMorphism:
    """Affine map of presentations: reference + v  ->  reference + sign * v."""

    source: TorsorPresentation
    target: TorsorPresentation
    sign: int = 1

    def apply(self, section: TorsorSection) -> TorsorSection:
        if section.presentation is not self.source:
            raise BaseMismatch("section does not live on the morphism source")
        if self.sign == 1:
            return TorsorSection(self.target, section.addends, section.seam_jumps)
        jumps = None if section.seam_jumps is None else -section.seam_jumps
        return TorsorSection(self.target, tuple(-a for a in section.addends), jumps)

    def obstruction(self) -> np.ndarray:
        """Obstruction of the morphism as a section of the comparison torsor.

        For equivariant maps this is Theta_target - Theta_source; for
        anti-equivariant (duality) maps it is Theta_target + Theta_source.
        """
        if self.sign == 1:
            return self.target.theta_ref - self.source.theta_ref
        return self.target.theta_ref + self.source.theta_ref


def canonical_morphism(p1: TorsorPresentation, p2: TorsorPresentation) -> TorsorMorphism:
    """The unique smooth torsor isomorphism matching the two references."""
    _check_common_base(p1, p2)
    return TorsorMorphism(p1, p2, sign=1)


def duality_map(p: TorsorPresentation, p_dual: TorsorPresentation) -> TorsorMorphism:
    """The connection-negating isomorphism onto the dual bundle's torsor."""
    _check_common_base(p, p_dual)
    if p.datum is not None and p_dual.datum is not None:
        gap = np.max(np.abs(p_dual.datum.hermitian + p.datum.hermitian))
        if gap > 1e-10:
            raise BaseMismatch("target presentation is not built from the dual datum")
    return TorsorMorphism(p, p_dual, sign=-1)


def is_holomorphic_morphism(m: TorsorMorphism, tol: float) -> tuple[bool, float]:
    # the maximum is taken slab by slab, so no |obstruction| grid sits beside it
    err = max(float(np.max(np.abs(slab))) for slab in m.obstruction())
    return err <= tol, err


def _check_common_base(p1: TorsorPresentation, p2: TorsorPresentation):
    if not p1.torus.same_as(p2.torus):
        raise BaseMismatch("presentations live over different tori")
    if p1.resolution != p2.resolution:
        raise BaseMismatch("presentations are sampled at different resolutions")


def trivialization_class(p: TorsorPresentation) -> np.ndarray:
    """Invariant part of the reference obstruction: the grid average.

    On a torus a constant-coefficient (0,1)-form with values in V is exact
    only when it vanishes, so the average represents the obstruction class;
    the presentation is trivializable exactly when it is (numerically) zero.
    """
    axes = tuple(range(2 * p.torus.genus))
    return p.theta_ref.mean(axis=axes)


def local_holomorphic_section(p: TorsorPresentation) -> TorsorSection:
    """Chart-local holomorphic section for a constant-obstruction presentation.

    The antilinear offset u_j(z) = - sum_k Theta_jk zbar_k solves
    Theta + dbar(u) = 0 on any polydisc chart; it is not single-valued on the
    torus unless the class vanishes, so it is sampled on the grid with its
    constant period increments as seam jumps.
    """
    t = trivialization_class(p)

    def offset(z):
        return -(np.conj(z) @ t.T)

    gf = GridFunction.sample(p.torus, p.resolution, offset, measure_jumps=True)
    return TorsorSection(p, (gf.values,), gf.seam_jumps)


# -- the two canonical presentations ------------------------------------------

def sigma_presentation(datum: AHDatum, resolution: int) -> TorsorPresentation:
    """Presentation of the torsor of connections on the bundle itself.

    The reference is the canonical unitary connection; its obstruction is the
    invariant curvature class, stored here analytically (the verifier
    recomputes it independently by finite differences) as a read-only
    zero-stride view of one (g, g) matrix over the grid.
    """
    g = datum.torus.genus
    grid = np.broadcast_to(chern_form(datum), (resolution,) * (2 * g) + (g, g))
    return TorsorPresentation(datum.torus, "sigma", grid, datum=datum)


def tau_presentation(datum: AHDatum, resolution: int, frame: str = "product",
                     z_base=None) -> TorsorPresentation:
    """Presentation of the torsor of flat-slice families, obstruction from scratch.

    Samples the slice covectors of the induced family connection over the
    parameter grid and differentiates them in the antiholomorphic parameter
    directions with seam-aware central differences.

    ``frame="product"`` differentiates the restrictions of the product-frame
    covector (no frame correction arises).  ``frame="slice_normal"``
    re-expresses every slice in its own normal-form frame first and then
    subtracts the frame-change correction; the two routes must agree and the
    agreement is asserted by the test suite.
    """
    base = datum.torus
    g = base.genus
    fam = family_connection(datum)
    h_fam = fam.datum.hermitian
    if z_base is None:
        z_base = np.zeros(g, dtype=complex)
    z_base = np.asarray(z_base, dtype=complex).reshape(g)

    def slice_covector(x_lifts):
        x_lifts = np.asarray(x_lifts, dtype=complex)
        z_part = np.broadcast_to(z_base, x_lifts.shape)
        points = np.concatenate([z_part, x_lifts], axis=-1)
        return fam.theta(points)[..., :g]

    if frame == "product":
        gf = GridFunction.sample(base, resolution, slice_covector, measure_jumps=True)
        theta_ref = connections.CHERN_NORMALIZATION * dbar_fd(gf).values
    elif frame == "slice_normal":
        # d log of the frame change, as a function of the slice parameter
        def frame_dlog(x_lifts):
            return np.pi * (np.conj(np.asarray(x_lifts, dtype=complex)) @ h_fam[:g, g:].T)

        def normal_covector(x_lifts):
            return slice_covector(x_lifts) + frame_dlog(x_lifts)

        gf_norm = GridFunction.sample(base, resolution, normal_covector, measure_jumps=True)
        gf_dlog = GridFunction.sample(base, resolution, frame_dlog, measure_jumps=True)
        correction = -dbar_fd(gf_dlog).values
        theta_ref = connections.CHERN_NORMALIZATION * (dbar_fd(gf_norm).values + correction)
    else:
        raise ValueError(f"unknown frame {frame!r}")
    return TorsorPresentation(base, "tau", theta_ref, datum=datum)


def custom_presentation(reference_of: TorsorPresentation, extra_offset) -> TorsorPresentation:
    """Presentation whose reference is the given one moved by a smooth offset."""
    moved = act(reference_of.zero_section(), np.asarray(extra_offset, dtype=complex))
    theta = obstruction(moved).values
    return TorsorPresentation(reference_of.torus, "custom", theta,
                              datum=reference_of.datum)
