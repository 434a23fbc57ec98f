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

from .bundles import AHDatum, build_family, pullback, slice_embedding
from .errors import TorusMismatch
from .grids import dbar_at_points, point_coords, sample_blocks
from .torus import _finite_lifts

#: scale making cycle integrals of the curvature class integral
CHERN_NORMALIZATION = 1j / (2.0 * np.pi)


class ConnectionForm:
    """A (1,0)-form-valued map on the cover, attached to a bundle datum.

    The form is read through ``theta``, vectorized: complex lifts (..., g)
    map to covectors of the same shape.  ``base`` is the datum on A that a
    family form on A x A was induced from, and None for every other form.
    """

    def __init__(self, datum: AHDatum, theta, base: AHDatum | None = None):
        self.datum = datum
        self.theta = theta
        self.base = base


def canonical_connection(datum: AHDatum) -> ConnectionForm:
    """The unitary connection with translation-invariant curvature."""
    h = datum.hermitian

    def theta(z):
        return -np.pi * (np.conj(z) @ h.T)

    return ConnectionForm(datum, theta)


def family_connection(conn: ConnectionForm, maps=None) -> ConnectionForm:
    """Connection on (p1* dual L) tensor (addition* L) induced by a connection D on L.

    At a lift u = (z, w) of A x A the pullbacks along p1 and the addition map
    give the covector (-D(z) + D(z + w), D(z + w)): the dual connection's
    covector is -D, p1 carries dz to the first factor alone, and z + w
    carries dz to both, so the covector is read off slices of u.

    The form's ``datum`` is the family datum of :func:`build_family` on A x A
    and its ``base`` is ``conn.datum``.  Building it takes a product torus,
    two pullbacks and a tensor, so a caller that reads one family several
    times (the slices, ``check_eq_i``, ``tau_presentation`` at several base
    points) builds it once and passes the form.  ``maps`` is passed on to
    ``build_family``, so the families of one torus can share its product torus.
    """
    datum = conn.datum
    g = datum.torus.genus

    def theta(u):
        u = np.asarray(u, dtype=complex)
        z = u[..., :g]
        on_sum = conn.theta(z + u[..., g:])
        return np.concatenate([on_sum - conn.theta(z), on_sum], axis=-1)

    return ConnectionForm(build_family(datum, maps), theta, base=datum)


def product_lifts(first, second) -> np.ndarray:
    """Lifts (first, second) of A x A, (..., 2g), from lifts (..., g) of A broadcast together.

    Built by assignment, so a slice z -> (z, x) or a section x -> (y, x) of
    the product reads its lifts without a product by its 0/1 matrix.
    """
    shape = np.broadcast_shapes(np.shape(first), np.shape(second))
    g = shape[-1]
    u = np.empty(shape[:-1] + (2 * g,), dtype=complex)
    u[..., :g] = first
    u[..., g:] = second
    return u


def restricted_covector(family_conn: ConnectionForm, fixed, free: int, half: int):
    """The family covector read along lifts x of A placed in factor ``free`` of A x A.

    The other factor is held at ``fixed``: ``free`` 0 reads the covector at
    (x, fixed), ``free`` 1 at (fixed, x), and ``half`` 0 or 1 keeps its first
    or its second g components.  ``fixed`` is a lift (g,), and then the map
    takes lifts (..., g) to covectors (..., g); or a batch (S, g) of fixed
    lifts, one broadcast axis ahead of the points, and then it takes lifts
    (..., P, g) to covectors (..., S, P, g), row s read at fixed lift s.
    The product lifts are built by assignment, so no 0/1 matrix is applied.
    """
    fixed = np.asarray(fixed, dtype=complex)
    g = fixed.shape[-1]
    read = slice(None, g) if half == 0 else slice(g, None)
    batch = fixed.ndim == 2
    other = fixed[:, None, :] if batch else fixed

    def theta(x):
        x = np.asarray(x, dtype=complex)
        if batch:
            x = x[..., None, :, :]
        u = product_lifts(x, other) if free == 0 else product_lifts(other, x)
        return family_conn.theta(u)[..., read]

    return theta


def slice_connection(family_conn: ConnectionForm, x) -> ConnectionForm:
    """Restriction of the family connection to the slice A x {x}, for a lift x (g,).

    The covector is read in the restriction of the product automorphy frame;
    for the family of the canonical connection it is constant in z, so the
    restriction is flat.  It is the family covector at (z, x), first half:
    the pullback along ``slice_embedding`` (matrix I over 0) that the oracle
    of ``tests/oracles.py`` forms by matmuls.  The datum is that pullback's.
    """
    f = slice_embedding(x, family_conn.datum.torus)
    theta = restricted_covector(family_conn, f.translation[f.source.genus:], free=0, half=0)
    return ConnectionForm(pullback(f, family_conn.datum), theta)


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


def family_base(family_conn: ConnectionForm) -> AHDatum:
    """The datum on A that a family form was induced from; TorusMismatch for any other form."""
    if family_conn.base is None:
        raise TorusMismatch("expected a family connection built by family_connection()")
    return family_conn.base


def check_eq_i(family_conn: ConnectionForm, ys, resolution: int, coords=None) -> np.ndarray:
    """Max deviation of each restricted family curvature from the class of L, (S,).

    Restricts the family connection along x -> (y, x) for each lift y of the
    non-empty batch ``ys`` (S, g): the family covector at (y, x), second
    half, as the oracle ``check_eq_i_by_pullback`` of ``tests/oracles.py``
    reads it along the section's map for one y.  The restriction is
    t_y* L, so its curvature at step 1/``resolution`` around the x-points
    with lattice coordinates ``coords`` (None: ``seeded_coords``), scaled by
    the Chern normalization, is compared with ``chern_form`` of the family's
    ``base``, the class of L (TorusMismatch for a form with no base).  For
    the canonical connection the covector is affine in (x, xbar), so the
    differences are exact to rounding.  Each block of ``grids.sample_blocks``
    is one stencil call with its lifts as the covector's broadcast axis, sized
    for the number of points, so its buffers do not grow with S.
    """
    base = family_base(family_conn)
    ys = _finite_lifts(ys, base.torus.genus, "point lifts", batch=True)
    coords = point_coords(base.torus, coords)
    gaps = []
    for block in sample_blocks(base.torus, len(ys), len(coords)):
        theta = restricted_covector(family_conn, ys[block], free=1, half=1)
        cloud = dbar_at_points(base.torus, theta, resolution, coords)
        gap = np.abs(CHERN_NORMALIZATION * cloud - chern_form(base))
        gaps.append(np.max(gap.reshape(len(gap), -1), axis=1))
    return np.concatenate(gaps)
