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
    build_family,
    parameter_section,
    pullback,
    slice_embedding,
    TorusHomomorphism,
)
from .grids import dbar_at_points

#: scale making cycle integrals of the curvature class integral
CHERN_NORMALIZATION = 1j / (2.0 * np.pi)


class ConnectionForm:
    """A (1,0)-form-valued map on the cover, attached to a bundle datum.

    ``theta`` is vectorized: lifts of shape (..., g) map to covectors of the
    same shape.  ``base`` is the datum on A that a family form on A x A was
    induced from, and None for every other form.
    """

    def __init__(self, datum: AHDatum, theta, base: AHDatum | None = None):
        self.datum = datum
        self.theta = theta
        self.base = base

    def __call__(self, z) -> np.ndarray:
        return np.asarray(self.theta(np.asarray(z, dtype=complex)), dtype=complex)


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
    """Connection on (p1* dual L) tensor (addition* L) induced by the canonical one.

    At a lift u = (z, w) of A x A the pullbacks along p1 and the addition map
    give the covector (theta_dual(z) + theta(z + w), theta(z + w)): p1 carries
    dz to the first factor alone, and z + w carries dz to both, so the
    covector is read off slices of u.

    The form's ``datum`` is the family datum of :func:`build_family` on A x A
    and its ``base`` is ``datum``.  Building it takes a product torus, two
    pullbacks and a tensor, so a caller that reads one family several times
    (the slices, ``check_eq_i``, ``tau_presentation`` at several base points)
    builds it once and passes the form.
    """
    fam_datum = build_family(datum)
    g = datum.torus.genus
    theta_dual = canonical_connection(datum.dual())
    theta_base = canonical_connection(datum)

    def theta(u):
        u = np.asarray(u, dtype=complex)
        z = u[..., :g]
        on_sum = theta_base.theta(z + u[..., g:])
        return np.concatenate([theta_dual.theta(z) + on_sum, on_sum], axis=-1)

    return ConnectionForm(fam_datum, theta, base=datum)


def slice_connection(family_conn: ConnectionForm, x) -> ConnectionForm:
    """Restriction of the family connection to the slice A x {x}, for a lift x (g,).

    The covector is read in the restriction of the product automorphy frame;
    it is constant in z, so the restriction is flat.
    """
    f = slice_embedding(x, family_conn.datum.torus)
    return pullback_connection(f, family_conn)


def curvature(conn: ConnectionForm, resolution: int, coords=None) -> np.ndarray:
    """Curvature matrices K[p, j, k] = d theta_j / dzbar_k at points, by central differences.

    The covector goes through ``dbar_at_points`` at step 1/``resolution``
    around the points with lattice coordinates ``coords`` (P, 2g; None reads
    that stencil's default, ``seeded_coords``), as a (P, g, g) cloud.  It is
    read on the cover, so its period increments (the automorphy shifts) never
    enter, and the differences are exact (to rounding) whenever the covector
    is affine in (z, zbar).
    """
    return dbar_at_points(conn.datum.torus, conn.theta, resolution, coords)


def chern_form(datum: AHDatum) -> np.ndarray:
    """The invariant (1,1) representative of the bundle's integral class, as a (g, g) matrix.

    Coefficients are i/(2 pi) times the analytic curvature -pi H; with the
    package's pairing conventions its cycle integrals equal Im H on lattice
    pairs, an integer matrix.
    """
    return CHERN_NORMALIZATION * (-np.pi) * datum.hermitian


def check_eq_i(family_conn: ConnectionForm, y, resolution: int, coords=None) -> float:
    """Max deviation of the restricted family curvature from the invariant class.

    Pulls the family connection back along x -> (y, x), for a lift y (g,) of
    a point of A, recomputes its ``curvature`` at step 1/``resolution`` around
    the x-points with lattice coordinates ``coords`` (P, 2g; by default the
    ``seeded_coords`` of the torus), scales by the Chern normalization and
    compares against the class of the pulled-back datum, whose pairing is the
    lower-right block of the family pairing.  The covector is affine in (x, xbar), so the differences
    are exact to rounding at any point, and translation invariance makes the
    result independent of y.
    """
    restricted = pullback_connection(parameter_section(y, family_conn.datum.torus), family_conn)
    recomputed = CHERN_NORMALIZATION * curvature(restricted, resolution, coords)
    return float(np.max(np.abs(recomputed - chern_form(restricted.datum))))
