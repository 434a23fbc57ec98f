"""Compact complex tori: lattices, point arithmetic, cycle pairings.

Conventions used everywhere in this package:

* A torus of genus g is presented by a g x 2g period matrix whose columns
  generate the lattice.
* Lattice coordinates of a lift z are the real solution c of
  ``[Re z; Im z] = P c`` with P the stacked 2g x 2g real period matrix.
  The canonical representative of a point has c in [0, 1)^{2g}.
* Hermitian pairings are linear in the first argument and conjugate-linear
  in the second.
* The only invariant forms used are (1,1)-forms, stored as a (g, g) matrix T
  with T[j, k] the coefficient of dz_j ^ dzbar_k; on a pair of real tangent
  vectors u, v in C^g such a form evaluates to u T conj(v) - v T conj(u).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateLattice, IndexOutOfRange, TorusMismatch

#: tolerance for deciding torus-point equality, in lattice coordinates
POINT_TOL = 1e-9


class ComplexTorus:
    """C^g modulo the lattice spanned by the columns of a g x 2g period matrix."""

    def __init__(self, periods, kappa_max: float = 1e8, factors=None):
        periods = np.atleast_2d(np.asarray(periods, dtype=complex))
        g, cols = periods.shape
        if cols != 2 * g:
            raise DegenerateLattice(
                f"period matrix must be g x 2g, got {g} x {cols}"
            )
        stack = np.vstack([periods.real, periods.imag])
        cond = np.linalg.cond(stack)
        if not np.isfinite(cond) or cond > kappa_max:
            raise DegenerateLattice(
                f"stacked real period matrix has condition {cond:.3e} "
                f"(cap {kappa_max:.3e}); columns must be R-linearly independent"
            )
        self.genus = g
        self.periods = periods
        self.kappa_max = float(kappa_max)
        self.factors = factors  # (left, right) for product tori, else None
        self._stack_inv = np.linalg.inv(stack)
        # Wirtinger chart matrix: directional derivatives along the lattice
        # basis are W @ [d/dz; d/dzbar], so the inverse rows convert
        # grid-direction derivatives into dz / dzbar components.
        w = np.concatenate([periods.T, np.conj(periods).T], axis=1)
        w_inv = np.linalg.inv(w)
        self.dz_rows = w_inv[:g]
        self.dzbar_rows = w_inv[g:]

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

    def reduce_coords(self, c) -> np.ndarray:
        c = np.mod(np.asarray(c, dtype=float), 1.0)
        # np.mod can return exactly 1.0 for tiny negative inputs
        c[c >= 1.0] -= 1.0
        return c

    def lattice_vector(self, j: int) -> np.ndarray:
        if not 0 <= j < 2 * self.genus:
            raise IndexOutOfRange(f"generator index {j} outside 0..{2 * self.genus - 1}")
        return self.periods[:, j]

    def is_lattice_vector(self, v, tol: float = POINT_TOL) -> bool:
        c = self.lattice_coords(np.asarray(v, dtype=complex))
        return bool(np.max(np.abs(c - np.round(c))) <= tol)

    # -- points ------------------------------------------------------------

    def point(self, lift) -> "TorusPoint":
        return TorusPoint(self, np.asarray(lift, dtype=complex).reshape(self.genus))

    def zero(self) -> "TorusPoint":
        return TorusPoint(self, np.zeros(self.genus, dtype=complex))

    def random_points(self, rng: np.random.Generator, count: int) -> list["TorusPoint"]:
        coords = rng.random((count, 2 * self.genus))
        lifts = self.lift_of_coords(coords)
        return [TorusPoint(self, lifts[i]) for i in range(count)]

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


class TorusPoint:
    """A torus point carried by an explicit lift in C^g."""

    __slots__ = ("torus", "lift")

    def __init__(self, torus: ComplexTorus, lift):
        self.torus = torus
        self.lift = np.asarray(lift, dtype=complex).reshape(torus.genus)

    def reduce(self) -> "TorusPoint":
        """Canonical representative: lattice coordinates in [0, 1)^{2g}."""
        c = self.torus.reduce_coords(self.torus.lattice_coords(self.lift))
        return TorusPoint(self.torus, self.torus.lift_of_coords(c))

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        if not self.torus.same_as(other.torus):
            raise TorusMismatch("cannot add points of different tori")
        return TorusPoint(self.torus, self.lift + other.lift).reduce()

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(self.torus, -self.lift).reduce()

    def same_point(self, other: "TorusPoint", tol: float = POINT_TOL) -> bool:
        if not self.torus.same_as(other.torus):
            raise TorusMismatch("points of different tori are never equal")
        c = self.torus.lattice_coords(self.lift - other.lift)
        return bool(np.max(np.abs(c - np.round(c))) <= tol)

    def __repr__(self):
        return f"TorusPoint({self.lift})"


def cycle_integral(torus: ComplexTorus, coefficients, j: int, k: int) -> complex:
    """Integral of an invariant (1,1)-form over the 2-cycle of generators j, k (0-based).

    With T the (g, g) coefficients and u, v the two generators, the value is
    u T conj(v) - v T conj(u).
    """
    n = 2 * torus.genus
    if not (0 <= j < n and 0 <= k < n):
        raise IndexOutOfRange(f"indices ({j}, {k}) outside 0..{n - 1}")
    t = np.asarray(coefficients, dtype=complex)
    u, v = torus.lattice_vector(j), torus.lattice_vector(k)
    return complex(u @ t @ np.conj(v) - v @ t @ np.conj(u))
