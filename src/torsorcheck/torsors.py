"""Affine presentations of the two connection torsors and their comparison maps.

A torsor over the trivial bundle with fiber V = C^g (invariant (1,0)-forms) is
presented concretely by a reference smooth section together with that
section's constant obstruction (0,1)-form Theta, one (g, g) matrix, with
Theta[j, k] = component dz_j along direction dzbar_k.  Sections are
reference + offset, a (g,) constant or a function on the cover; obstructions
are Theta + dbar(offset), read at points for a function offset, and a section
is holomorphic exactly when its obstruction vanishes.

Two reference sections are built here:

* ``sigma_presentation`` - the canonical unitary connection, whose obstruction
  is the invariant curvature class;
* ``tau_presentation`` - the family of flat slice restrictions of the induced
  two-variable connection, whose obstruction is recomputed from first
  principles by differentiating the product-frame slice covectors in the
  parameter's antiholomorphic directions at seeded points; it is constant,
  so it too is kept as one (g, g) class.  It reads a family form that
  ``connections.family_connection`` built, so one family serves every tau
  presentation of its datum, at any base point and resolution.

The canonical morphism matches references affinely (offset -> offset); its
obstruction is the difference of the two (g, g) reference classes, so it is
holomorphic precisely when those agree.  Duality flips the sign of offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connections
from .bundles import AHDatum
from .connections import ConnectionForm, chern_form
from .errors import (
    BaseMismatch,
    LatticeNotPreserved,
    ResolutionTooCoarse,
    ShapeMismatch,
    TorusMismatch,
)
from .grids import MIN_RESOLUTION, dbar_at_points
from .torus import ComplexTorus, _complex_of_shape

#: tau's recomputed reference obstruction must be constant over the seeded points to this extent
REFERENCE_VARIATION_TOL = 1e-8


@dataclass
class TorsorPresentation:
    """A torsor given by its reference section's constant obstruction class.

    On a torus a constant-coefficient (0,1)-form with values in V is exact
    only when it vanishes, so ``theta_ref`` is the obstruction class itself:
    the torsor is trivializable exactly when it is (numerically) zero.
    Function offsets are differentiated at the step 1/``resolution``.
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

    The offset is a (g,) constant, the zero vector by default, or a function
    on the cover, vectorized over lifts, (..., g) -> (..., g).  A function
    need not be periodic: a chart-local section such as
    ``local_holomorphic_section`` is read on the cover, never across a period.
    Two constant offsets combine as arrays, so acting on the zero section by
    v then w produces the same floats as acting by v + w; other offsets
    combine pointwise.
    """

    def __init__(self, presentation: TorsorPresentation, offset=None):
        if offset is None:
            offset = np.zeros(presentation.torus.genus, dtype=complex)
        self.presentation = presentation
        self.offset = _constant_or_function(presentation, offset, "offsets")


def _constant_or_function(pres: TorsorPresentation, v, what: str):
    """``v`` if it is callable, else ``v`` as a complex (g,) array, else ShapeMismatch."""
    if callable(v):
        return v
    v = np.asarray(v, dtype=complex)
    g = pres.torus.genus
    if v.shape != (g,):
        raise ShapeMismatch(f"{what} must have shape {(g,)} or be a function on the cover")
    return v


def _at(u, z):
    """Offset values at the lifts ``z``: a function evaluated, a constant as it is."""
    return u(z) if callable(u) else u


def _pointwise(op, *offsets):
    """``op`` of constant offsets as arrays; of any others, the function z -> op(values at z)."""
    if not any(callable(u) for u in offsets):
        return op(*offsets)
    return lambda z: op(*(_at(u, z) for u in offsets))


def act(section: TorsorSection, v) -> TorsorSection:
    """Move the section by a V-valued offset; the torsor action."""
    # checked before adding: a wrong-shaped v can broadcast to a valid shape
    v = _constant_or_function(section.presentation, v, "action offsets")
    return TorsorSection(section.presentation, _pointwise(np.add, section.offset, v))


def obstruction(section: TorsorSection, coords=None) -> np.ndarray:
    """Obstruction of the section: reference obstruction plus dbar of the offset.

    A constant offset is killed by dbar, so its obstruction is the read-only
    reference itself.  A function offset's goes through ``dbar_at_points`` at
    the lattice coordinates ``coords`` (P, 2g; None reads that stencil's
    default, ``seeded_coords``), as a (P, g, g) cloud.
    """
    pres = section.presentation
    u = section.offset
    if not callable(u):
        return pres.theta_ref
    dbar_u = dbar_at_points(pres.torus, u, pres.resolution, coords)
    if dbar_u.shape[1:] != pres.theta_ref.shape:  # a wrong-shaped cloud could broadcast
        raise ShapeMismatch("offsets must map (..., g) lifts to (..., g) values")
    return np.add(dbar_u, pres.theta_ref, out=dbar_u)


def is_holomorphic(section: TorsorSection, tol: float) -> tuple[bool, float]:
    """Whether the section's obstruction vanishes to tolerance; returns (flag, max error)."""
    err = float(np.max(np.abs(obstruction(section))))
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
            return TorsorSection(self.target, section.offset)
        return TorsorSection(self.target, _pointwise(np.negative, section.offset))

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
        raise BaseMismatch("presentations are differentiated at different resolutions")


def local_holomorphic_section(p: TorsorPresentation) -> TorsorSection:
    """Chart-local holomorphic section for a constant-obstruction presentation.

    The antilinear offset u_j(z) = - sum_k Theta_jk zbar_k solves
    Theta + dbar(u) = 0 on the cover.  It is not single-valued on the torus
    unless the class vanishes, so it is kept as a function on the cover.
    """
    t = p.theta_ref
    return TorsorSection(p, lambda z: -(np.conj(z) @ t.T))


# -- the two canonical presentations ------------------------------------------

def sigma_presentation(datum: AHDatum, resolution: int) -> TorsorPresentation:
    """Presentation of the torsor of connections on the bundle itself.

    The reference is the canonical unitary connection; its obstruction is the
    invariant curvature class, stored here analytically as one (g, g) matrix
    (the verifier recomputes it independently by finite differences).
    """
    return TorsorPresentation(datum.torus, resolution, chern_form(datum), datum=datum)


def _slice_covector(family: ConnectionForm, z_base=None):
    """x -> the family covector at (z_base, x), first half: the slice covectors over x.

    ``z_base`` is one finite lift (g,), zero by default.
    """
    g = family.datum.torus.genus // 2
    z_base = _complex_of_shape(np.zeros(g) if z_base is None else z_base, (g,), "the base point")
    if not np.isfinite(z_base).all():
        raise LatticeNotPreserved("the base point must be finite")
    return connections.restricted_covector(family, z_base, free=1, half=0)


def tau_presentation(family: ConnectionForm, resolution: int, z_base=None) -> TorsorPresentation:
    """Presentation of the torsor of flat-slice families, obstruction from scratch.

    ``family`` is the induced two-variable connection that
    ``connections.family_connection(datum)`` returns; the presentation lives
    over ``family.base``'s torus and records ``family.base`` as its datum.
    Differentiates the family's slice covectors, restricted in the product
    frame at the base point ``z_base`` (read along the section
    x -> (z_base, x)), in the antiholomorphic parameter directions at the
    default ``dbar_at_points`` points, by the central differences of step
    1/``resolution``.  The mean of the scaled cloud is kept as one (g, g)
    class.  Raises TorusMismatch when ``family`` records no base datum, and
    ValueError when the cloud varies about the class by more than
    ``REFERENCE_VARIATION_TOL``.
    """
    datum = family.base
    if datum is None:
        raise TorusMismatch("expected a family connection built by family_connection()")
    base = datum.torus
    cloud = connections.CHERN_NORMALIZATION * dbar_at_points(
        base, _slice_covector(family, z_base), resolution)
    cls = cloud.mean(axis=0)
    # recomputed, so it can miss the constant class; sigma's is that class by construction
    spread = float(np.max(np.abs(cloud - cls)))
    if not spread <= REFERENCE_VARIATION_TOL:  # a NaN spread raises too
        raise ValueError(f"tau reference obstruction varies by {spread:.3e} over the points")
    return TorsorPresentation(base, resolution, cls, datum=datum)
