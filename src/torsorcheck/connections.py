"""Canonical unitary connections, their curvature, and the induced family/slice forms.

Connection forms live in the automorphy frame on the universal cover: a
connection is d + theta with theta a (1,0)-covector field on C^g, and
compatibility with the bundle's factor a(lam, z) forces the increment

    theta(z + lam) - theta(z) = - d_z log a(lam, .) = - pi * H(dz, lam).

For the metric weight exp(-pi H(z, z)) the compatible holomorphic-structure
connection is theta(z) = -pi H(dz, z); its curvature coefficient matrix (read
against dz_j ^ dzbar_k) is the constant -pi H.  Scaling by i/(2 pi) anchors
the curvature class: its cycle integrals reproduce the integer pairing matrix
E on lattice pairs, which pins every sign convention in the package.
"""

from __future__ import annotations

import numpy as np

from .bundles import (
    AHDatum,
    addition_map,
    build_family,
    first_projection,
    parameter_section,
    pullback,
    slice_embedding,
    TorusHomomorphism,
)
from .grids import GridFunction, dbar_fd
from .torus import TorusPoint

#: scale making cycle integrals of the curvature class integral
CHERN_NORMALIZATION = 1j / (2.0 * np.pi)


class ConnectionForm:
    """A (1,0)-form-valued map on the cover, attached to a bundle datum.

    ``theta`` is vectorized: lifts of shape (..., g) map to covectors of the
    same shape.
    """

    def __init__(self, datum: AHDatum, theta):
        self.datum = datum
        self.theta = theta

    def __call__(self, z) -> np.ndarray:
        return np.asarray(self.theta(np.asarray(z, dtype=complex)), dtype=complex)

    def automorphy_defect(self, lam, z) -> np.ndarray:
        """Deviation of theta(z+lam) - theta(z) from -pi H(dz, lam)."""
        lam = np.asarray(lam, dtype=complex)
        expected = -np.pi * (self.datum.hermitian @ np.conj(lam))
        return self(np.asarray(z, dtype=complex) + lam) - self(z) - expected


def canonical_connection(datum: AHDatum) -> ConnectionForm:
    """The unitary connection with translation-invariant curvature."""
    h = datum.hermitian

    def theta(z):
        return -np.pi * (np.conj(z) @ h.T)

    return ConnectionForm(datum, theta)


def pullback_connection(f: TorusHomomorphism, conn: ConnectionForm) -> ConnectionForm:
    """Pullback along z -> M z + t, attached to the pulled-back datum.

    The covector is the raw pullback theta(M z + t) M, read in the restriction
    of the target's automorphy frame; the pulled-back datum's normal frame
    differs from it by the holomorphic frame change of :func:`pullback`.
    """
    datum_pull = pullback(f, conn.datum)

    def theta(z):
        return conn.theta(f.apply(z)) @ f.matrix

    return ConnectionForm(datum_pull, theta)


def family_connection(datum: AHDatum) -> ConnectionForm:
    """Connection on (p1* dual L) tensor (addition* L) induced by the canonical one."""
    fam_datum = build_family(datum)
    prod = fam_datum.torus
    p1 = first_projection(prod)
    alpha = addition_map(prod)
    theta_dual = canonical_connection(datum.dual())
    theta_base = canonical_connection(datum)

    def theta(u):
        u = np.asarray(u, dtype=complex)
        part_p1 = theta_dual.theta(u @ p1.matrix.T) @ p1.matrix
        part_add = theta_base.theta(u @ alpha.matrix.T) @ alpha.matrix
        return part_p1 + part_add

    return ConnectionForm(fam_datum, theta)


def slice_connection(family_conn: ConnectionForm, x: TorusPoint) -> ConnectionForm:
    """Restriction of the family connection to the slice A x {x}.

    The covector is read in the restriction of the product automorphy frame;
    it is constant in z, so the restriction is flat.
    """
    f = slice_embedding(x, family_conn.datum.torus)
    return pullback_connection(f, family_conn)


def curvature(conn: ConnectionForm, resolution: int) -> GridFunction:
    """Grid of curvature matrices K[..., j, k] = d theta_j / dzbar_k by central differences.

    The covector is not periodic on the torus; its constant period increments
    (the automorphy shifts) are measured from evaluations and fed to the
    seam-aware stencil, so the differences are exact (to rounding) whenever
    the covector is affine in (z, zbar).
    """
    torus = conn.datum.torus
    gf = GridFunction.sample(torus, resolution, conn.theta, measure_jumps=True)
    return dbar_fd(gf)


def chern_form(datum: AHDatum) -> np.ndarray:
    """The invariant (1,1) representative of the bundle's integral class, as a (g, g) matrix.

    Coefficients are i/(2 pi) times the analytic curvature -pi H; with the
    package's pairing conventions its cycle integrals equal Im H on lattice
    pairs, an integer matrix.
    """
    return CHERN_NORMALIZATION * (-np.pi) * datum.hermitian


def check_eq_i(family_conn: ConnectionForm, y: TorusPoint, resolution: int) -> float:
    """Max deviation of the restricted family curvature from the invariant class.

    Pulls the family connection back along x -> (y, x), recomputes its
    curvature by seam-aware differences over the x-grid, scales by the Chern
    normalization and compares against the class of the pulled-back datum,
    whose pairing is the lower-right block of the family pairing.  Translation
    invariance makes the result independent of y.
    """
    restricted = pullback_connection(parameter_section(y, family_conn.datum.torus), family_conn)
    recomputed = CHERN_NORMALIZATION * curvature(restricted, resolution).values
    return float(np.max(np.abs(recomputed - chern_form(restricted.datum))))
