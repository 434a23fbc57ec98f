"""Independent oracles that only the tests use.

Each one restates a piece of the mathematics from its definition, so that the
package's own constructions can be checked against it.  ``random_offset`` and
``seeded_lifts`` give the torsor tests seeded function offsets and the points
where they compare them, and ``same_section`` compares two sections there.
``grid_nodes`` are the nodes i/N of the periodic grid, where the point stencil
stands in for the grid stencil.  ``pullback_connection`` is the pullback of a
connection by its map's matmuls, which the sliced ``slice_connection`` and
``check_eq_i`` are compared with; ``family_covector_by_maps`` is the family
covector of a connection read through the projection and addition matrices,
which the sliced ``family_connection`` is compared with.  ``parameter_section``
is the map x -> (y, x), and ``check_eq_i_by_pullback`` is ``check_eq_i`` with
its restriction read through ``pullback_connection`` along it.
``pullback_phases_per_generator`` and ``stencil_two_calls`` are the
one-at-a-time loops that the batched ``pullback`` and ``dbar_at_points`` are
compared with, and ``stencil_by_directions`` is the point stencil in its
earlier summation order, each direction's row products added in turn
(``_accumulate``); ``dz_rows`` is the dz half of the Wirtinger chart, which the
package does not keep.
"""

import numpy as np

from torsorcheck import (
    CHERN_NORMALIZATION,
    ConnectionForm,
    TorusHomomorphism,
    TorusMismatch,
    addition_map,
    build_family,
    chern_form,
    curvature,
    first_projection,
    hermitian_pairing,
    pullback,
)
from torsorcheck.grids import seeded_coords


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


def pullback_connection(f: TorusHomomorphism, conn) -> ConnectionForm:
    """Pullback along z -> M z + t, attached to the pulled-back datum.

    The covector is the raw pullback theta(M z + t) M, read in the restriction
    of the target's automorphy frame; the pulled-back datum's normal frame
    differs from it by the holomorphic frame change of ``pullback``.
    """

    def theta(z):
        return conn.theta(f.apply(z)) @ f.matrix

    return ConnectionForm(pullback(f, conn.datum), theta)


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
    z = np.asarray(z, dtype=complex)
    return conn.theta(z + lam) - conn.theta(z) - expected


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


def same_section(s, t) -> bool:
    """Same presentation and the same offset values at the ``seeded_lifts`` points.

    An offset is a (g,) constant or a function on the cover; a constant is
    broadcast against the other section's values.
    """
    if s.presentation is not t.presentation:
        return False
    z = seeded_lifts(s.presentation.torus)
    values = [u(z) if callable(u) else u for u in (s.offset, t.offset)]
    return bool(np.array_equal(*np.broadcast_arrays(*values)))


def grid_nodes(resolution: int, dims: int) -> np.ndarray:
    """Nodes i/N of the periodic lattice-coordinate grid, (N**dims, dims), first axis slowest."""
    axes = [np.arange(resolution) / resolution] * dims
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)


def pullback_phases_per_generator(f: TorusHomomorphism, datum) -> np.ndarray:
    """Pulled-back generator phases, one ``factor`` call per source generator."""
    h_pull = f.matrix.T @ datum.hermitian @ np.conj(f.matrix)
    src = f.source
    chi = np.empty(2 * src.genus, dtype=complex)
    for j in range(2 * src.genus):
        lam = src.periods[:, j]
        mlam = f.matrix @ lam
        quad = 0.5 * hermitian_pairing(h_pull, lam, lam).real
        frame_gap = hermitian_pairing(datum.hermitian, mlam, f.translation)
        value = datum.factor(mlam, f.translation) * np.exp(-np.pi * (quad + frame_gap))
        chi[j] = value / abs(value)
    return chi


def family_covector_by_maps(conn):
    """The family covector of a connection D on L, by the 0/1 maps' matrices.

    -D(u p1^T) p1 + D(u alpha^T) alpha, for lifts u (..., 2g) of A x A, with
    p1 the first projection and alpha the addition map: the dual connection
    pulled back along p1, and D along alpha.
    """
    prod = build_family(conn.datum).torus
    p1, alpha = first_projection(prod).matrix, addition_map(prod).matrix

    def theta(u):
        return -conn.theta(u @ p1.T) @ p1 + conn.theta(u @ alpha.T) @ alpha

    return theta


def parameter_section(y, prod) -> TorusHomomorphism:
    """x -> (y, x) into ``prod`` = A x A: the section of the second projection through a lift y."""
    base, g = prod.factor, prod.factor.genus
    return TorusHomomorphism(base, prod, np.vstack([np.zeros((g, g)), np.eye(g)]),
                             np.concatenate([y, np.zeros(g)]))


def check_eq_i_by_pullback(family, y, resolution, coords=None) -> float:
    """``check_eq_i`` with the restriction read through ``pullback_connection``'s matmuls."""
    restricted = pullback_connection(parameter_section(y, family.datum.torus), family)
    recomputed = CHERN_NORMALIZATION * curvature(restricted, resolution, coords)
    return float(np.max(np.abs(recomputed - chern_form(restricted.datum))))


def dz_rows(torus) -> np.ndarray:
    """Rows (g, 2g) taking derivatives along the 2g lattice directions to dz components.

    Directional derivatives along the period columns are W @ [d/dz; d/dzbar]
    with W = [periods^T | conj(periods)^T], so these are W^-1's first g rows.
    """
    w = np.concatenate([torus.periods.T, np.conj(torus.periods).T], axis=1)
    return np.linalg.inv(w)[: torus.genus]


def stencil_two_calls(torus, fn, resolution, coords=None, rows=None) -> np.ndarray:
    """The point stencil with ``fn`` called separately at z + step_d and at z - step_d.

    step_d = periods[:, d] / N, z are the lifts of ``coords`` (default
    ``seeded_coords``), and the differences are contracted over the
    directions in one matrix product by ``rows`` (default the dzbar rows)
    times N / 2.
    """
    coords = seeded_coords(torus) if coords is None else coords
    rows = torus.dzbar_rows if rows is None else rows
    lifts = torus.lift_of_coords(coords)
    step = torus.periods.T / resolution
    diffs = np.stack([np.asarray(fn(lifts + s), dtype=complex)
                      - np.asarray(fn(lifts - s), dtype=complex) for s in step])
    out = (rows * (resolution / 2.0)) @ diffs.reshape(len(step), -1)
    return np.moveaxis(out.reshape((rows.shape[0],) + diffs.shape[1:]), 0, -1)


def _accumulate(out, rows, d, diff, scale, term) -> None:
    """out[k] += rows[k, d] * (scale * diff) for every row k, through the buffer ``term``.

    ``diff`` is scaled in place, and each product is formed before it is added.
    """
    diff *= scale
    for k in range(rows.shape[0]):
        np.multiply(rows[k, d], diff, out=term)
        out[k] += term


def stencil_by_directions(torus, fn, resolution, coords=None) -> np.ndarray:
    """The point stencil in its earlier order: one lift of c +- e_d / N per direction,
    and the directions summed in order, each row times the scaled difference.
    """
    coords = seeded_coords(torus) if coords is None else coords
    rows = torus.dzbar_rows
    step = np.eye(2 * torus.genus) / resolution
    out = term = None
    for d in range(step.shape[0]):
        both = np.asarray(fn(torus.lift_of_coords(np.stack([coords + step[d], coords - step[d]]))),
                          dtype=complex)
        diff = both[0] - both[1]
        if out is None:
            out = np.zeros((rows.shape[0],) + diff.shape, dtype=complex)
            term = np.empty_like(diff)
        _accumulate(out, rows, d, diff, resolution / 2.0, term)
    return np.moveaxis(out, 0, -1)
