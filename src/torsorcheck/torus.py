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

from .errors import DegenerateLattice, ShapeMismatch, TorsorcheckError


def _complex_of_shape(x, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a complex array of exactly ``shape``, else ShapeMismatch."""
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise ShapeMismatch(f"{what} must have shape {shape}, got {x.shape}")
    return x


def _finite_lifts(x, genus: int, what: str, batch: bool = False) -> np.ndarray:
    """``x`` as a finite complex lift (g,), or with ``batch`` a non-empty batch (S, g).

    A wrong shape raises ShapeMismatch, a NaN or infinite entry ValueError.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != (2 if batch else 1) or x.shape[-1] != genus or x.size == 0:
        shape = f"(S, {genus})" if batch else f"{(genus,)}"
        raise ShapeMismatch(f"{what} must have shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


class ComplexTorus:
    """C^g modulo the lattice spanned by the columns of a g x 2g period matrix."""

    def __init__(self, periods, kappa_max: float = 1e8, factor=None):
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
        self.factor = factor  # A for a product torus A x A, else None
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


def product_torus(base: ComplexTorus) -> ComplexTorus:
    """The product torus A x A of A = ``base``: block-diagonal periods, lattice Lambda x Lambda."""
    g = base.genus
    periods = np.zeros((2 * g, 4 * g), dtype=complex)
    periods[:g, : 2 * g] = base.periods
    periods[g:, 2 * g :] = base.periods
    return ComplexTorus(periods, kappa_max=base.kappa_max, factor=base)


def cycle_integral(torus: ComplexTorus, coefficients) -> np.ndarray:
    """Integrals of an invariant (1,1)-form over the 2-cycles of generator pairs, (2g, 2g).

    With T the (g, g) coefficients and u, v generators j and k (0-based),
    entry [j, k] is u T conj(v) - v T conj(u): the generators' Gram matrix
    G = periods^T T conj(periods) minus its transpose.  Coefficients of any
    shape other than (g, g) raise ShapeMismatch.
    """
    g = torus.genus
    t = _complex_of_shape(coefficients, (g, g), "form coefficients")
    gram = torus.periods.T @ t @ np.conj(torus.periods)
    return gram - gram.T
