"""Periodic lattice-coordinate grids and finite-difference Wirtinger derivatives.

All sampling happens in lattice coordinates on [0, 1)^{2g}, mapped through the
period matrix to complex lifts, so periodicity is exact wrap-around and the
*dzbar* components of a derivative come from the 2g directional differences
via the inverse chart matrix of the torus.  Central differences at the grid
spacing are exact (to rounding) on functions affine in (z, zbar).

Functions that shift by a constant across each period (connection forms in
an automorphy frame, chart-local torsor offsets) carry ``seam_jumps``, which
``GridFunction.sample`` always measures: value(c + e_d) = value(c) + jumps[d].
``_wirtinger_fd`` is the one derivative kernel; ``dbar_fd`` and ``dz_fd``
select its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionTooCoarse, ShapeMismatch
from .torus import ComplexTorus

MIN_RESOLUTION = 4
#: relative agreement required of a period increment measured at two base points
SEAM_TOL = 1e-9


def lattice_grid(resolution: int, dims: int) -> np.ndarray:
    """Nodes i/N of the periodic grid, shape (N,)*dims + (dims,)."""
    axes = [np.arange(resolution) / resolution] * dims
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass
class GridFunction:
    """Values sampled over the periodic lattice-coordinate grid of a torus.

    ``values`` has shape (N,)*2g + value_shape.  ``seam_jumps``, when present,
    has shape (2g,) + value_shape and gives the constant increment of the
    sampled function across one full period in each grid direction.
    """

    torus: ComplexTorus
    values: np.ndarray
    seam_jumps: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        dims = 2 * self.torus.genus
        if self.values.ndim < dims:
            raise ShapeMismatch("grid values must carry one axis per real dimension")
        n = self.values.shape[0]
        if self.values.shape[:dims] != (n,) * dims:
            raise ShapeMismatch("grid axes must share one resolution")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.seam_jumps is not None:
            self.seam_jumps = np.asarray(self.seam_jumps)
            if self.seam_jumps.shape != (dims,) + self.value_shape:
                raise ShapeMismatch("seam jumps must have shape (2g,) + value_shape")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[2 * self.torus.genus :]

    @classmethod
    def sample(cls, torus: ComplexTorus, resolution: int, fn) -> "GridFunction":
        """Sample ``fn`` (vectorized over lifts, (..., g) -> (...,) + value_shape).

        ``fn`` must shift by a constant across each period; the increments are
        measured from two evaluations per direction and kept as ``seam_jumps``.
        """
        if resolution < MIN_RESOLUTION:
            raise ResolutionTooCoarse(f"resolution {resolution} < {MIN_RESOLUTION}")
        coords = lattice_grid(resolution, 2 * torus.genus)
        values = np.asarray(fn(torus.lift_of_coords(coords)))
        return cls(torus, values, seam_jumps=measure_seam_jumps(torus, fn))

    def mean(self) -> np.ndarray:
        """Average over the grid axes (pairwise summation, evaluation-order free)."""
        axes = tuple(range(2 * self.torus.genus))
        return np.mean(self.values, axis=axes)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def max_variation(self) -> float:
        return float(np.max(np.abs(self.values - self.mean())))


def measure_seam_jumps(torus: ComplexTorus, fn) -> np.ndarray:
    """Measure constant period increments of ``fn``: f(z + lambda_d) - f(z).

    The increment is measured at two base points and must agree within
    ``SEAM_TOL``; non-constant seams are a misuse of the grid machinery.
    """
    dims = 2 * torus.genus
    base = np.vstack([np.zeros(dims), np.full(dims, 0.37)])
    f0 = np.asarray(fn(torus.lift_of_coords(base)))
    jumps = None
    for d in range(dims):
        shifted = base.copy()
        shifted[:, d] += 1.0
        fd = np.asarray(fn(torus.lift_of_coords(shifted))) - f0
        if jumps is None:
            jumps = np.zeros((dims,) + fd.shape[1:], dtype=fd.dtype)
        if np.max(np.abs(fd[0] - fd[1])) > SEAM_TOL * max(1.0, float(np.max(np.abs(fd)))):
            raise ValueError(f"period increment along direction {d} is not constant")
        jumps[d] = fd[0]
    return jumps


def _central_difference(slab: np.ndarray, axis: int, jump, out: np.ndarray) -> None:
    """Unscaled periodic central difference of ``slab`` along ``axis``, into ``out``.

    Across the seam the jump is applied to the wrapped neighbour before
    differencing, v[1] - (v[-1] - J) and (v[0] + J) - v[-2], which keeps the
    rounding of value(c + e_d) = value(c) + J_d.
    """
    def at(start, stop):
        index = [slice(None)] * slab.ndim
        index[axis] = slice(start, stop)
        return tuple(index)

    first, second, before_last, last = at(0, 1), at(1, 2), at(-2, -1), at(-1, None)
    np.subtract(slab[at(2, None)], slab[at(None, -2)], out=out[at(1, -1)])
    if jump is None:
        np.subtract(slab[second], slab[last], out=out[first])
        np.subtract(slab[first], slab[before_last], out=out[last])
    else:
        np.subtract(slab[second], slab[last] - jump, out=out[first])
        np.subtract(slab[first] + jump, slab[before_last], out=out[last])


def _wirtinger_fd(gf: GridFunction, rows: np.ndarray) -> GridFunction:
    """sum_d rows[k, d] * (central difference along grid direction d), as axis k.

    The output is filled one first-axis slab at a time: each direction's
    difference for the slab goes into one reused slab buffer and is
    accumulated straight into the output, so no temporary exceeds a slab.
    """
    n = gf.resolution
    if n < MIN_RESOLUTION:
        raise ResolutionTooCoarse(f"resolution {n} < {MIN_RESOLUTION}")
    vals = np.asarray(gf.values, dtype=complex)
    jumps = gf.seam_jumps
    out = np.zeros(vals.shape + (rows.shape[0],), dtype=complex)
    diff = np.empty_like(vals[0])
    term = np.empty_like(diff)
    scale = n / 2.0  # 1 / (2h) with h = 1/N
    for i in range(n):
        ahead, behind = vals[(i + 1) % n], vals[i - 1]
        if jumps is not None and i == n - 1:
            ahead = ahead + jumps[0]
        if jumps is not None and i == 0:
            behind = behind - jumps[0]
        for d in range(2 * gf.torus.genus):
            if d == 0:
                np.subtract(ahead, behind, out=diff)
            else:
                _central_difference(vals[i], d - 1, None if jumps is None else jumps[d], diff)
            diff *= scale
            for k in range(rows.shape[0]):
                np.multiply(rows[k, d], diff, out=term)
                out[i, ..., k] += term
    return GridFunction(gf.torus, out)


def dbar_fd(gf: GridFunction) -> GridFunction:
    """Per-node dzbar-derivative coefficients; appends one axis of length g.

    Output value_shape is value_shape + (g,), entry [..., k] = d(value)/dzbar_k.
    """
    return _wirtinger_fd(gf, gf.torus.dzbar_rows)


def dz_fd(gf: GridFunction) -> GridFunction:
    """Per-node dz-derivative coefficients; appends one axis of length g."""
    return _wirtinger_fd(gf, gf.torus.dz_rows)

