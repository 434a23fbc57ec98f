"""Affine presentations of the two connection torsors and their comparison maps.

A torsor over the trivial bundle with fiber V = C^g (invariant (1,0)-forms) is
presented concretely by a reference smooth section together with that
section's constant obstruction (0,1)-form Theta, one (g, g) matrix, with
Theta[j, k] = component dz_j along direction dzbar_k.  Sections are
reference + offset (one array), obstructions are Theta + dbar(offset), and a
section is holomorphic exactly when its obstruction vanishes.  Only a
grid-sampled offset gives a grid obstruction.

Two reference sections are built here:

* ``sigma_presentation`` - the canonical unitary connection, whose obstruction
  is the invariant curvature class;
* ``tau_presentation`` - the family of flat slice restrictions of the induced
  two-variable connection, whose obstruction is recomputed from first
  principles by differentiating the product-frame slice covectors in the
  parameter's antiholomorphic directions at seeded points; it is constant,
  so it too is kept as one (g, g) class.

The canonical morphism matches references affinely (offset -> offset); its
obstruction is the difference of the two (g, g) reference classes, so it is
holomorphic precisely when those agree.  Duality flips the sign of offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connections
from .bundles import AHDatum, parameter_section
from .connections import chern_form, family_connection
from .errors import BaseMismatch, ResolutionTooCoarse, ShapeMismatch
from .grids import MIN_RESOLUTION, GridFunction, dbar_at_points, dbar_fd, seeded_coords
from .torus import ComplexTorus

#: tau's recomputed reference obstruction must be constant over the seeded points to this extent
REFERENCE_VARIATION_TOL = 1e-8


@dataclass
class TorsorPresentation:
    """A torsor given by its reference section's constant obstruction class.

    On a torus a constant-coefficient (0,1)-form with values in V is exact
    only when it vanishes, so ``theta_ref`` is the obstruction class itself:
    the torsor is trivializable exactly when it is (numerically) zero.
    ``resolution`` is the N of the grid on which offsets are sampled.
    """

    torus: ComplexTorus
    resolution: int
    theta_ref: np.ndarray  # (g, g); stored finite and read-only
    datum: AHDatum | None = None

    def __post_init__(self):
        if self.resolution < MIN_RESOLUTION:
            raise ResolutionTooCoarse(f"resolution {self.resolution} < {MIN_RESOLUTION}")
        g = self.torus.genus
        theta = np.asarray(self.theta_ref, dtype=complex)
        if theta.shape != (g, g):
            raise ShapeMismatch(f"reference obstructions must have shape {(g, g)}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("reference obstruction must be finite")
        self.theta_ref = theta.view()
        self.theta_ref.flags.writeable = False

    def zero_section(self) -> "TorsorSection":
        return TorsorSection(self)


class TorsorSection:
    """reference + offset; the offset is a V-valued map on the base.

    The offset is one array, of shape (g,) for a constant offset or
    (N,)*2g + (g,) for a grid-sampled one; it defaults to the (g,) zero
    vector.  Acting on the zero section by v then w produces the same floats
    as acting by v + w.  ``seam_jumps``, when present, has shape (2g, g) and
    gives the offset's constant increment across one period in each grid
    direction, as in ``GridFunction``: such a section is chart-local.  They
    must be finite; jumps that are all zero are stored as none, since the
    offset is then periodic.
    """

    def __init__(self, presentation: TorsorPresentation, offset=None, seam_jumps=None):
        g = presentation.torus.genus
        if offset is None:
            offset = np.zeros(g, dtype=complex)
        offset = _constant_or_grid(presentation, offset, (g,), "offsets")
        if seam_jumps is not None:
            seam_jumps = np.asarray(seam_jumps, dtype=complex)
            if seam_jumps.shape != (2 * g, g):
                raise ShapeMismatch(f"seam jumps must have shape {(2 * g, g)}")
            if not np.all(np.isfinite(seam_jumps)):
                raise ValueError("seam jumps must be finite")
            if not np.any(seam_jumps):  # zero increments: the offset is periodic
                seam_jumps = None
            elif offset.shape == (g,):
                raise ShapeMismatch("seam jumps need a grid-sampled offset")
        self.presentation = presentation
        self.offset = offset
        self.seam_jumps = seam_jumps

    def same_section(self, other: "TorsorSection") -> bool:
        """Exact equality of sections: same presentation, seam jumps and offset values."""
        if self.presentation is not other.presentation or not _same_jumps(self, other):
            return False
        left, right = np.broadcast_arrays(self.offset, other.offset)
        return bool(np.array_equal(left, right))


def _constant_or_grid(pres: TorsorPresentation, v, value_shape: tuple, what: str) -> np.ndarray:
    """``v`` as complex, of shape ``value_shape`` or (N,)*2g + that, else ShapeMismatch."""
    v = np.asarray(v, dtype=complex)
    grid_shape = (pres.resolution,) * (2 * pres.torus.genus) + value_shape
    if v.shape != value_shape and v.shape != grid_shape:
        raise ShapeMismatch(f"{what} must have shape {value_shape} or {grid_shape}")
    return v


def _same_jumps(s: TorsorSection, t: TorsorSection) -> bool:
    if s.seam_jumps is None or t.seam_jumps is None:
        return s.seam_jumps is t.seam_jumps
    return bool(np.array_equal(s.seam_jumps, t.seam_jumps))


def act(section: TorsorSection, v) -> TorsorSection:
    """Move the section by a V-valued offset; the torsor action."""
    # checked before adding: a wrong-shaped v can broadcast to a valid shape
    pres = section.presentation
    v = _constant_or_grid(pres, v, (pres.torus.genus,), "action offsets")
    return TorsorSection(pres, section.offset + v, section.seam_jumps)


def transition(s: TorsorSection, t: TorsorSection) -> np.ndarray:
    """The unique offset v with act(s, v) equal to t (simple transitivity)."""
    if s.presentation is not t.presentation:
        raise BaseMismatch("sections live on different presentations")
    if not _same_jumps(s, t):
        raise ShapeMismatch("sections with different seam jumps differ by no periodic offset")
    return t.offset - s.offset


def obstruction(section: TorsorSection) -> np.ndarray:
    """Obstruction of the section: reference obstruction plus dbar of the offset."""
    pres = section.presentation
    u = section.offset
    if u.ndim == 1:  # constant offsets are killed by dbar: the read-only reference itself
        return pres.theta_ref
    dbar_u = dbar_fd(GridFunction(pres.torus, u, seam_jumps=section.seam_jumps)).values
    return np.add(dbar_u, pres.theta_ref, out=dbar_u)  # in place: one (g, g) grid


def _max_abs(theta: np.ndarray) -> float:
    """max |theta|, taken slab by slab so no |theta| grid sits beside it; NaN propagates."""
    return float(np.max([np.max(np.abs(slab)) for slab in theta]))


def is_holomorphic(section: TorsorSection, tol: float) -> tuple[bool, float]:
    """Whether the section's obstruction vanishes to tolerance; returns (flag, max error)."""
    err = _max_abs(obstruction(section))
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
            return TorsorSection(self.target, section.offset, section.seam_jumps)
        jumps = None if section.seam_jumps is None else -section.seam_jumps
        return TorsorSection(self.target, -section.offset, jumps)

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
        # the dual datum is (-H, conj(chi)); both halves must match
        gap = max(np.max(np.abs(p_dual.datum.hermitian + p.datum.hermitian)),
                  np.max(np.abs(p_dual.datum.chi - np.conj(p.datum.chi))))
        if gap > 1e-10:
            raise BaseMismatch("target presentation is not built from the dual datum")
    return TorsorMorphism(p, p_dual, sign=-1)


def is_holomorphic_morphism(m: TorsorMorphism, tol: float) -> tuple[bool, float]:
    err = float(np.max(np.abs(m.obstruction())))
    return err <= tol, err


def _check_common_base(p1: TorsorPresentation, p2: TorsorPresentation):
    if not p1.torus.same_as(p2.torus):
        raise BaseMismatch("presentations live over different tori")
    if p1.resolution != p2.resolution:
        raise BaseMismatch("presentations are sampled at different resolutions")


def local_holomorphic_section(p: TorsorPresentation) -> TorsorSection:
    """Chart-local holomorphic section for a constant-obstruction presentation.

    The antilinear offset u_j(z) = - sum_k Theta_jk zbar_k solves
    Theta + dbar(u) = 0 on any polydisc chart; it is not single-valued on the
    torus unless the class vanishes, so it is sampled on the grid with its
    constant period increments as seam jumps.
    """
    t = p.theta_ref

    def offset(z):
        return -(np.conj(z) @ t.T)

    gf = GridFunction.sample(p.torus, p.resolution, offset)
    return TorsorSection(p, gf.values, gf.seam_jumps)


# -- the two canonical presentations ------------------------------------------

def sigma_presentation(datum: AHDatum, resolution: int) -> TorsorPresentation:
    """Presentation of the torsor of connections on the bundle itself.

    The reference is the canonical unitary connection; its obstruction is the
    invariant curvature class, stored here analytically as one (g, g) matrix
    (the verifier recomputes it independently by finite differences).
    """
    return TorsorPresentation(datum.torus, resolution, chern_form(datum), datum=datum)


def tau_presentation(datum: AHDatum, resolution: int, z_base=None) -> TorsorPresentation:
    """Presentation of the torsor of flat-slice families, obstruction from scratch.

    Differentiates the slice covectors of the induced family connection,
    restricted in the product frame at the base point ``z_base`` (read along
    ``parameter_section``'s map x -> (z_base, x)), in the antiholomorphic
    parameter directions at the ``seeded_coords`` points, by the central
    differences of step 1/``resolution``.  The mean of the scaled cloud is
    kept as one (g, g) class.  Raises ValueError when the cloud varies about
    it by more than ``REFERENCE_VARIATION_TOL``.
    """
    base = datum.torus
    g = base.genus
    fam = family_connection(datum)
    if z_base is None:
        z_base = np.zeros(g, dtype=complex)
    section = parameter_section(base.point(z_base), fam.datum.torus)

    def slice_covector(x_lifts):
        return fam.theta(section.apply(x_lifts))[..., :g]

    cloud = connections.CHERN_NORMALIZATION * dbar_at_points(
        base, slice_covector, seeded_coords(base), resolution)
    cls = cloud.mean(axis=0)
    # recomputed, so it can miss the constant class; sigma's is that class by construction
    spread = float(np.max(np.abs(cloud - cls)))
    if not spread <= REFERENCE_VARIATION_TOL:  # a NaN spread raises too
        raise ValueError(f"tau reference obstruction varies by {spread:.3e} over the points")
    return TorsorPresentation(base, resolution, cls, datum=datum)
