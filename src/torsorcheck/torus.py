"""Compact complex tori: lattices, lattice charts, cycle pairings.

Conventions used everywhere in this package:

* A torus of genus g is presented by a g x 2g period matrix whose columns
  generate the lattice.
* Lattice coordinates of a lift z are the real solution c of
  ``[Re z; Im z] = P c`` with P the stacked 2g x 2g real period matrix.
  A point of the torus is passed as one of its lifts, a complex (g,) array.
* Hermitian pairings are linear in the first argument and conjugate-linear
  in the second.
* The only invariant forms used are (1,1)-forms, stored as a (g, g) matrix T
  with T[j, k] the coefficient of dz_j ^ dzbar_k; on a pair of real tangent
  vectors u, v in C^g such a form evaluates to u T conj(v) - v T conj(u).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateLattice,
    IndexOutOfRange,
    ShapeMismatch,
    TorsorcheckError,
)


def _complex_of_shape(x, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a complex array of exactly ``shape``, else ShapeMismatch."""
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise ShapeMismatch(f"{what} must have shape {shape}, got {x.shape}")
    return x


def _lift_or_batch(x, genus: int, what: str) -> np.ndarray:
    """``x`` as a complex lift (g,) or a non-empty batch (S, g) of lifts, else ShapeMismatch."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != genus or x.size == 0:
        raise ShapeMismatch(f"{what} must have shape {(genus,)} or (S, {genus}), got {x.shape}")
    return x


class ComplexTorus:
    """C^g modulo the lattice spanned by the columns of a g x 2g period matrix."""

    def __init__(self, periods, kappa_max: float = 1e8, factors=None):
        kappa_max = float(kappa_max)
        if not (np.isfinite(kappa_max) and kappa_max >= 1):  # a NaN or inf cap guards nothing
            raise TorsorcheckError(f"kappa_max must be a finite number >= 1, got {kappa_max}")
        periods = np.asarray(periods, dtype=complex)
        if periods.ndim != 2 or periods.shape[0] < 1 or periods.shape[1] != 2 * periods.shape[0]:
            raise DegenerateLattice(f"period matrix must be g x 2g, g >= 1; got {periods.shape}")
        g = periods.shape[0]
        stack = np.vstack([periods.real, periods.imag])
        cond = np.linalg.cond(stack)
        if not np.isfinite(cond) or cond > kappa_max:
            raise DegenerateLattice(
                f"stacked real period matrix has condition {cond:.3e} "
                f"(cap {kappa_max:.3e}); columns must be R-linearly independent"
            )
        self.genus = g
        self.periods = periods
        self.kappa_max = kappa_max
        self.factors = factors  # (left, right) for product tori, else None
        self._stack_inv = np.linalg.inv(stack)
        # Wirtinger chart matrix: directional derivatives along the lattice
        # basis are W @ [d/dz; d/dzbar], so the last g inverse rows convert
        # grid-direction derivatives into dzbar components.
        w = np.concatenate([periods.T, np.conj(periods).T], axis=1)
        self.dzbar_rows = np.linalg.inv(w)[g:]

    # -- lattice charts ----------------------------------------------------

    def lattice_coords(self, z) -> np.ndarray:
        """Real coordinates of lifts z (..., g) in the lattice basis, shape (..., 2g)."""
        z = np.asarray(z, dtype=complex)
        ri = np.concatenate([z.real, z.imag], axis=-1)
        return ri @ self._stack_inv.T

    def lift_of_coords(self, c) -> np.ndarray:
        """Map lattice coordinates (..., 2g) to lifts in C^g."""
        c = np.asarray(c, dtype=float)
        return c @ self.periods.T

    def random_points(self, rng, count: int) -> np.ndarray:
        """Lifts (count, g) of points with uniform lattice coordinates in [0, 1)^{2g}.

        ``rng`` is any object whose ``random(shape)`` draws uniform floats in
        [0, 1), such as ``grids.SeededDraws``.
        """
        return self.lift_of_coords(rng.random((count, 2 * self.genus)))

    # -- comparisons -------------------------------------------------------

    def same_as(self, other: "ComplexTorus") -> bool:
        return self.genus == other.genus and np.array_equal(self.periods, other.periods)

    def __repr__(self):
        return f"ComplexTorus(genus={self.genus})"


def product_torus(left: ComplexTorus, right: ComplexTorus) -> ComplexTorus:
    """Product torus with block-diagonal period matrix and lattice Lambda x Lambda'."""
    gl, gr = left.genus, right.genus
    periods = np.zeros((gl + gr, 2 * (gl + gr)), dtype=complex)
    periods[:gl, : 2 * gl] = left.periods
    periods[gl:, 2 * gl :] = right.periods
    kappa = max(left.kappa_max, right.kappa_max)
    return ComplexTorus(periods, kappa_max=kappa, factors=(left, right))


def cycle_integral(torus: ComplexTorus, coefficients, j, k):
    """Integral of an invariant (1,1)-form over the 2-cycle of generators j, k (0-based).

    With T the (g, g) coefficients and u, v the two generators, the value is
    u T conj(v) - v T conj(u), read off the generators' Gram matrix
    periods^T T conj(periods).  ``j`` and ``k`` are integers, giving a
    complex, or integer arrays broadcast together, giving an array of values.
    """
    n = 2 * torus.genus
    j, k = np.asarray(j), np.asarray(k)
    if not (((0 <= j) & (j < n)).all() and ((0 <= k) & (k < n)).all()):
        raise IndexOutOfRange(f"indices ({j}, {k}) outside 0..{n - 1}")
    t = np.asarray(coefficients, dtype=complex)
    gram = torus.periods.T @ t @ np.conj(torus.periods)
    value = gram[j, k] - gram[k, j]
    return complex(value) if value.ndim == 0 else value
