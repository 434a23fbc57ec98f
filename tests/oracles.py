"""Independent oracles that only the tests use.

Each one restates a piece of the mathematics from its definition, so that the
package's own constructions can be checked against it.  ``random_offset`` and
``seeded_lifts`` give the torsor tests seeded function offsets and the points
where they compare them.  ``family_covector_by_maps`` is the family covector
read through the projection and addition matrices, which the sliced
``family_connection`` is compared with.  ``pullback_phases_per_generator`` and
``stencil_two_calls`` are the one-at-a-time loops that the batched
``pullback`` and ``dbar_at_points`` are compared with; ``dz_rows`` is the
dz half of the Wirtinger chart, which the package does not keep.
"""

import numpy as np

from torsorcheck import (
    TorusHomomorphism,
    TorusMismatch,
    addition_map,
    build_family,
    canonical_connection,
    first_projection,
    hermitian_pairing,
)
from torsorcheck.grids import _accumulate, seeded_coords


def translation_map(torus, x) -> TorusHomomorphism:
    """z -> z + x on ``torus``, for a lift x (g,)."""
    return TorusHomomorphism(torus, torus, np.eye(torus.genus), x)


def compose(outer: TorusHomomorphism, inner: TorusHomomorphism) -> TorusHomomorphism:
    """outer after inner."""
    if not inner.target.same_as(outer.source):
        raise TorusMismatch("composition needs matching middle torus")
    return TorusHomomorphism(
        inner.source,
        outer.target,
        outer.matrix @ inner.matrix,
        outer.matrix @ inner.translation + outer.translation,
    )


def pullback_frame_log(f: TorusHomomorphism, datum):
    """log of the frame change relating pulled-back and normal-form factors.

    Returns the scalar function flog(z) = pi H(Mz, t), vectorized over lifts,
    so the comparison behind ``pullback`` reads
    a(M lam, M z + t) = a_pull(lam, z) * exp(flog(z + lam) - flog(z)).
    """
    h = datum.hermitian
    m, t = f.matrix, f.translation

    def flog(z):
        return np.pi * hermitian_pairing(h, np.asarray(z, dtype=complex) @ m.T, t)

    return flog


def automorphy_defect(conn, lam, z) -> np.ndarray:
    """Deviation of theta(z+lam) - theta(z) from -pi H(dz, lam)."""
    lam = np.asarray(lam, dtype=complex)
    expected = -np.pi * (conn.datum.hermitian @ np.conj(lam))
    return conn(np.asarray(z, dtype=complex) + lam) - conn(z) - expected


def is_topologically_trivial(datum) -> bool:
    """Degree zero: E vanishes on lattice pairs and H vanishes outright."""
    return bool(
        np.max(np.abs(datum.pairing_imag)) < 0.5
        and np.max(np.abs(datum.hermitian)) <= 1e-10
    )


def random_offset(torus, rng, scale=1.0):
    """A seeded offset on the cover, z -> scale * (z A + conj(z) B), (..., g) -> (..., g)."""
    g = torus.genus
    a, b = (scale * (rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g)))
            for _ in range(2))
    return lambda z: z @ a + np.conj(z) @ b


def seeded_lifts(torus):
    """Lifts of the ``seeded_coords`` points, where function offsets are compared."""
    return torus.lift_of_coords(seeded_coords(torus))


def pullback_phases_per_generator(f: TorusHomomorphism, datum) -> np.ndarray:
    """Pulled-back generator phases, one ``factor`` call per source generator."""
    h_pull = f.matrix.T @ datum.hermitian @ np.conj(f.matrix)
    src = f.source
    chi = np.empty(2 * src.genus, dtype=complex)
    for j in range(2 * src.genus):
        lam = src.lattice_vector(j)
        mlam = f.matrix @ lam
        quad = 0.5 * hermitian_pairing(h_pull, lam, lam).real
        frame_gap = hermitian_pairing(datum.hermitian, mlam, f.translation)
        value = datum.factor(mlam, f.translation) * np.exp(-np.pi * (quad + frame_gap))
        chi[j] = value / abs(value)
    return chi


def family_covector_by_maps(datum):
    """The family covector as the two pullbacks' products by the 0/1 maps' matrices.

    theta_dual(u p1^T) p1 + theta(u alpha^T) alpha, for lifts u (..., 2g) of
    A x A, with p1 the first projection and alpha the addition map.
    """
    prod = build_family(datum).torus
    p1, alpha = first_projection(prod).matrix, addition_map(prod).matrix
    dual, base = canonical_connection(datum.dual()), canonical_connection(datum)

    def theta(u):
        return dual.theta(u @ p1.T) @ p1 + base.theta(u @ alpha.T) @ alpha

    return theta


def dz_rows(torus) -> np.ndarray:
    """Rows (g, 2g) taking derivatives along the 2g lattice directions to dz components.

    Directional derivatives along the period columns are W @ [d/dz; d/dzbar]
    with W = [periods^T | conj(periods)^T], so these are W^-1's first g rows.
    """
    w = np.concatenate([torus.periods.T, np.conj(torus.periods).T], axis=1)
    return np.linalg.inv(w)[: torus.genus]


def stencil_two_calls(torus, fn, resolution, coords=None, rows=None) -> np.ndarray:
    """The point stencil with ``fn`` called separately at c + e_d / N and at c - e_d / N.

    ``coords`` default to ``seeded_coords`` and ``rows`` to the dzbar rows.
    """
    coords = seeded_coords(torus) if coords is None else coords
    rows = torus.dzbar_rows if rows is None else rows
    step = np.eye(2 * torus.genus) / resolution
    out = term = None
    for d in range(step.shape[0]):
        ahead = np.asarray(fn(torus.lift_of_coords(coords + step[d])), dtype=complex)
        diff = ahead - np.asarray(fn(torus.lift_of_coords(coords - step[d])), dtype=complex)
        if out is None:
            out = np.zeros((rows.shape[0],) + diff.shape, dtype=complex)
            term = np.empty_like(diff)
        _accumulate(out, rows, d, diff, resolution / 2.0, term)
    return np.moveaxis(out, 0, -1)
