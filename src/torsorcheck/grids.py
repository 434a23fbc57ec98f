"""Finite-difference Wirtinger derivatives, at points and on a periodic grid.

Functions are evaluated in lattice coordinates mapped through the period
matrix to complex lifts; the *dzbar* components come from the 2g directional
central differences at step 1/N via the inverse chart matrix, exact (to
rounding) on functions affine in (z, zbar).  ``dbar_at_points`` lifts its
lattice coordinates c once and evaluates at z +- periods[:, d] / N, the lifts
of c +- e_d / N, on the cover, so it needs no grid and no seam jumps, with one
call per direction on the + and - points stacked; the directions' differences
fill one buffer that one matrix product contracts.  Its points default to
``seeded_coords``, ``POINT_SAMPLES`` draws from seed 0.  Every check and
torsor section reads this path.

Seeded points and coefficients come from ``SeededDraws``, the standard
library's Mersenne Twister seeded with the string of a non-negative integer
seed tuple (``"20250809/4"``).  A string seed goes through SHA-512, so the
draws do not depend on ``PYTHONHASHSEED`` or on numpy's generator streams,
and drawing them loads no extension module.

The grid path has no caller in the package: ``lattice_grid``,
``GridFunction`` (whose ``sample`` calls ``fn`` once on the lifts of the whole
grid and measures the constant period increments as ``seam_jumps``),
``measure_seam_jumps``, ``SEAM_TOL`` and ``dbar_fd`` (2g periodic central
differences taken with ``np.roll``, the seam jump added to the wrapped
neighbour, contracted by one ``einsum``).  It has two readers left:
``tests/test_grids.py``, and the benchmark tracer's ``LAYER_CALLS``, which
names five of these as layers.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionTooCoarse, ShapeMismatch
from .torus import ComplexTorus

MIN_RESOLUTION = 4
#: how many seeded points the point-path checks evaluate at
POINT_SAMPLES = 256
#: the most bytes of stencil differences that one ``dbar_at_points`` call holds
#: for a block of ``sample_blocks``, whoever reads it: one sample's (2g,
#: POINT_SAMPLES, g) complex differences take 8192 g**2 bytes, so genus 1
#: reads 16 samples per call, genus 2 four, and genus 3 and above one
STENCIL_BLOCK_BYTES = 2**17
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
            if not np.all(np.isfinite(self.seam_jumps)):
                raise ValueError("seam jumps must be finite")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[2 * self.torus.genus :]

    @classmethod
    def sample(cls, torus: ComplexTorus, resolution: int, fn) -> "GridFunction":
        """Sample ``fn`` (vectorized over lifts, (..., g) -> (...,) + value_shape).

        ``fn`` is called once, on the lifts of the whole grid.  It must shift
        by a constant across each period; the increments are measured from two
        evaluations per direction and kept as ``seam_jumps``.
        """
        if resolution < MIN_RESOLUTION:
            raise ResolutionTooCoarse(f"resolution {resolution} < {MIN_RESOLUTION}")
        values = fn(torus.lift_of_coords(lattice_grid(resolution, 2 * torus.genus)))
        return cls(torus, values, seam_jumps=measure_seam_jumps(torus, fn))


def measure_seam_jumps(torus: ComplexTorus, fn) -> np.ndarray:
    """Measure constant period increments of ``fn``: f(z + lambda_d) - f(z).

    The increment is measured at two base points and must agree within
    ``SEAM_TOL``; non-constant or non-finite seams are a misuse of the grid
    machinery.
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
        if not np.all(np.isfinite(fd)):  # else the tolerance below reads inf, or dev NaN
            raise ValueError(f"period increment along direction {d} is not finite")
        dev = np.max(np.abs(fd[0] - fd[1]))
        if not dev <= SEAM_TOL * max(1.0, float(np.max(np.abs(fd)))):
            raise ValueError(f"period increment along direction {d} is not constant")
        jumps[d] = fd[0]
    return jumps


def dbar_fd(gf: GridFunction) -> GridFunction:
    """Per-node dzbar-derivative coefficients; appends one axis of length g.

    Output value_shape is value_shape + (g,), entry [..., k] = d(value)/dzbar_k.
    Each direction's periodic central difference is taken with ``np.roll``,
    the seam jump added to the wrapped neighbour (keeping the rounding of
    value(c + e_d) = value(c) + J_d) and scaled by N/2; all 2g are held at
    once, and one ``einsum`` contracts them with the dzbar rows.
    """
    n = gf.resolution
    if n < MIN_RESOLUTION:
        raise ResolutionTooCoarse(f"resolution {n} < {MIN_RESOLUTION}")
    vals = np.asarray(gf.values, dtype=complex)
    diffs = np.empty((2 * gf.torus.genus,) + vals.shape, dtype=complex)
    for d in range(diffs.shape[0]):
        fwd = np.roll(vals, -1, axis=d)
        bwd = np.roll(vals, 1, axis=d)
        if gf.seam_jumps is not None:
            fwd[(slice(None),) * d + (n - 1,)] += gf.seam_jumps[d]
            bwd[(slice(None),) * d + (0,)] -= gf.seam_jumps[d]
        diffs[d] = (fwd - bwd) * (n / 2.0)
    return GridFunction(gf.torus, np.einsum("kd,d...->...k", gf.torus.dzbar_rows, diffs))


class SeededDraws:
    """Uniform and standard normal float64 arrays from one seeded Mersenne Twister stream.

    ``SeededDraws(*seed)`` seeds ``random.Random`` with the non-negative
    integers of ``seed`` joined by "/".  Each call draws the next values of the
    stream, so two objects with one seed give the same arrays call by call.
    """

    def __init__(self, *seed: int):
        self._bits = random.Random("/".join(map(str, seed)))

    def random(self, shape) -> np.ndarray:
        """Uniform draws in [0, 1) of ``shape`` (an int or a tuple).

        The top 53 bits of little-endian 64-bit words, times 2**-53, as numpy's
        ``Generator.random`` maps its words.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        words = np.frombuffer(self._bits.randbytes(8 * math.prod(shape)), "<u8")
        return ((words >> 11) * 2.0**-53).reshape(shape)

    def standard_normal(self, shape) -> np.ndarray:
        """Standard normal draws of ``shape``, by Box-Muller on two uniform arrays.

        log1p(-u) reads log(1 - u) with 1 - u in (0, 1], so it is never log(0).
        """
        radius = np.sqrt(-2.0 * np.log1p(-self.random(shape)))
        return radius * np.cos(2.0 * np.pi * self.random(shape))


def sample_blocks(torus: ComplexTorus, count: int) -> list[slice]:
    """Consecutive slices of ``count`` samples, each one ``dbar_at_points`` call.

    A block holds as many samples as fit in ``STENCIL_BLOCK_BYTES`` of stencil
    differences, one sample's being (2g, POINT_SAMPLES, g) complex, and at
    least one.
    """
    g = torus.genus
    per_sample = 2 * g * POINT_SAMPLES * g * np.dtype(complex).itemsize
    size = max(1, STENCIL_BLOCK_BYTES // per_sample)
    return [slice(start, start + size) for start in range(0, count, size)]


def seeded_coords(torus: ComplexTorus) -> np.ndarray:
    """The default point-path lattice coordinates: ``POINT_SAMPLES`` draws from seed 0, (P, 2g)."""
    return SeededDraws(0).random((POINT_SAMPLES, 2 * torus.genus))


def dbar_at_points(torus: ComplexTorus, fn, resolution: int, coords=None) -> np.ndarray:
    """dzbar-derivative coefficients of ``fn`` at lattice coordinates ``coords`` (P, 2g).

    ``fn`` is vectorized over lifts, (..., g) -> (...,) + value_shape, and
    ``coords`` defaults to ``seeded_coords(torus)``.  The points are lifted
    once; the stencil points of direction d are the lifts z +- periods[:, d] / N,
    the grid stencil's step at resolution N, read on the cover: no point wraps
    around the torus, so no seam jumps are needed.  ``fn`` is called once per
    direction, on the (2, P, g) stacked + and - lifts, and each difference
    goes into one (2g, P) + value_shape buffer, which one matrix product by
    the dzbar rows times N / 2 contracts over the directions.
    Output shape (P,) + value_shape + (g,), entry [..., k] = d(value)/dzbar_k;
    an ``fn`` taking (2, P, g) lifts to (2,) + shape, as a broadcast one, gives shape + (g,).
    """
    if resolution < MIN_RESOLUTION:
        raise ResolutionTooCoarse(f"resolution {resolution} < {MIN_RESOLUTION}")
    dims = 2 * torus.genus
    coords = seeded_coords(torus) if coords is None else np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != dims:
        raise ShapeMismatch(f"point coordinates must have shape (P, {dims})")
    if not np.all(np.isfinite(coords)):  # else fn reads a NaN cloud, or matmul warns
        raise ValueError("point coordinates must be finite")
    lifts = torus.lift_of_coords(coords)
    step = torus.periods.T / resolution  # row d is the lift of e_d / N
    signed = np.stack([step, -step], axis=1)[:, :, None, :]  # (2g, 2, 1, g)
    diffs = None
    for d in range(dims):
        both = np.asarray(fn(lifts + signed[d]), dtype=complex)
        if diffs is None:
            diffs = np.empty((dims,) + both.shape[1:], dtype=complex)
        np.subtract(both[0], both[1], out=diffs[d])
    rows = torus.dzbar_rows * (resolution / 2.0)
    out = (rows @ diffs.reshape(dims, -1)).reshape((rows.shape[0],) + diffs.shape[1:])
    return np.moveaxis(out, 0, -1)
