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

The canonical morphism matches references affinely (offset -> offset)
between two presentations of one datum; its obstruction is the difference
of the two (g, g) reference classes, so it is holomorphic precisely when
those agree.  Duality flips the sign of offsets, onto a presentation of
the dual datum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connections
from .bundles import AHDatum
from .connections import ConnectionForm, chern_form
from .errors import (
    BaseMismatch,
    ResolutionTooCoarse,
    ShapeMismatch,
)
from .grids import MIN_RESOLUTION, dbar_at_points
from .torus import ComplexTorus, _finite_lifts

#: tau's recomputed reference obstruction must be constant over the seeded points to this extent
REFERENCE_VARIATION_TOL = 1e-8


@dataclass
class TorsorPresentation:
    """The torsor of the bundle ``datum``, given by its reference's constant obstruction class.

    On a torus a constant-coefficient (0,1)-form with values in V is exact
    only when it vanishes, so ``theta_ref`` is the obstruction class itself:
    the torsor is trivializable exactly when it is (numerically) zero.
    Function offsets are differentiated at the step 1/``resolution``.
    """

    datum: AHDatum
    resolution: int
    theta_ref: np.ndarray  # (g, g); stored finite and read-only

    @property
    def torus(self) -> ComplexTorus:
        return self.datum.torus

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
    """The unique smooth isomorphism matching the references of two presentations of one datum."""
    _check_common_base(p1, p2, p1.datum.hermitian, p1.datum.chi,
                       "presentations are built from different data")
    return TorsorMorphism(p1, p2, sign=1)


def duality_map(p: TorsorPresentation, p_dual: TorsorPresentation) -> TorsorMorphism:
    """The connection-negating isomorphism onto the torsor of the dual datum, (-H, conj(chi))."""
    _check_common_base(p, p_dual, -p.datum.hermitian, np.conj(p.datum.chi),
                       "target presentation is not built from the dual datum")
    return TorsorMorphism(p, p_dual, sign=-1)


def is_holomorphic_morphism(m: TorsorMorphism, tol: float) -> tuple[bool, float]:
    err = float(np.max(np.abs(m.obstruction())))
    return err <= tol, err


def _check_common_base(source: TorsorPresentation, target: TorsorPresentation,
                       hermitian, chi, what: str):
    """BaseMismatch unless ``target`` shares ``source``'s torus and resolution and its
    datum has the pairing ``hermitian`` and the phases ``chi`` to 1e-10; else ``what``."""
    if not source.torus.same_as(target.torus):
        raise BaseMismatch("presentations live over different tori")
    if source.resolution != target.resolution:
        raise BaseMismatch("presentations are differentiated at different resolutions")
    gap = max(np.max(np.abs(target.datum.hermitian - hermitian)),
              np.max(np.abs(target.datum.chi - chi)))
    if gap > 1e-10:
        raise BaseMismatch(what)


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
    return TorsorPresentation(datum, resolution, chern_form(datum))


def tau_presentation(family: ConnectionForm, resolution: int, z_base=None) -> TorsorPresentation:
    """Presentation of the torsor of flat-slice families, obstruction from scratch.

    ``family`` is the two-variable connection that
    ``connections.family_connection(conn)`` induces from a connection on a
    datum; the presentation is of ``family.base``, the datum it records, over
    that datum's torus.
    Differentiates the family's slice covectors, restricted in the product
    frame at the base point ``z_base``, one lift (g,), zero by default (the
    family covector at (z_base, x), first half), in the antiholomorphic
    parameter directions at the default ``dbar_at_points`` points, by the
    central differences of step 1/``resolution``.  The mean of the scaled
    cloud is kept as one (g, g) class.  Raises TorusMismatch when ``family`` records no base datum, and
    ValueError when ``z_base`` is not finite or the cloud varies about the
    class by more than ``REFERENCE_VARIATION_TOL``.
    """
    datum = connections.family_base(family)
    base = datum.torus
    z_base = _finite_lifts(np.zeros(base.genus) if z_base is None else z_base, base.genus,
                           "the base point")
    theta = connections.restricted_covector(family, z_base, free=1, half=0)
    cloud = connections.CHERN_NORMALIZATION * dbar_at_points(base, theta, resolution)
    cls = cloud.mean(axis=0)
    # recomputed, so it can miss the constant class; sigma's is that class by construction
    spread = float(np.max(np.abs(cloud - cls)))
    if not spread <= REFERENCE_VARIATION_TOL:  # a NaN spread raises too
        raise ValueError(f"tau reference obstruction varies by {spread:.3e} over the points")
    return TorsorPresentation(datum, resolution, cls)
