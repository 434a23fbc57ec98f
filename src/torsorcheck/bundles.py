"""Holomorphic line bundles on tori presented by hermitian-pairing/semicharacter data.

A bundle is the quotient of C^g x C by the lattice acting through the factor

    a(lam, z) = chi(lam) * exp(pi * H(z, lam) + pi/2 * H(lam, lam)),

with H hermitian (linear in the first slot), E = Im H integer-valued on
lattice pairs, and chi a unit-modulus semicharacter:
chi(lam + mu) = chi(lam) chi(mu) exp(i pi E(lam, mu)).  Sections correspond to
functions f on the cover with f(z + lam) = a(lam, z) f(z).

The module supplies the dual/tensor/pullback algebra needed to assemble the
two-variable family (p1* dual L) tensor (addition* L) and its slices, plus the
standard homomorphisms of the product torus.  Pullback phases are *derived*
from the factor-comparison equation rather than copied from a formula sheet,
and the test suite asserts that equation directly against an independent
frame-change oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    LatticeNotPreserved,
    NonIntegralE,
    NotHermitian,
    NotLatticeVector,
    SemicharacterInconsistent,
    ShapeMismatch,
    TorusMismatch,
)
from .torus import ComplexTorus, _complex_of_shape, product_torus

HERMITIAN_TOL = 1e-12
INTEGRAL_TOL = 1e-8
#: |exp(2 pi i E) - 1| is about 2 pi |E - round(E)|, so every E within
#: INTEGRAL_TOL of an integer also passes the semicharacter test
SEMICHARACTER_TOL = 2 * np.pi * INTEGRAL_TOL
UNIT_TOL = 1e-12


def _fits_int64(x: np.ndarray) -> bool:
    """Whether every (integral, finite) entry casts to int64 without overflow."""
    return bool(np.all((x >= -(2.0**63)) & (x < 2.0**63)))


def hermitian_pairing(h: np.ndarray, u, v) -> np.ndarray:
    """H(u, v) = sum_jk u_j H_jk conj(v_k), broadcast over leading axes."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.einsum("...a,ab,...b->...", u, h, np.conj(v))


class AHDatum:
    """Pairing/semicharacter presentation of a line bundle on a torus."""

    def __init__(self, torus: ComplexTorus, hermitian, chi):
        g = torus.genus
        hermitian = _complex_of_shape(hermitian, (g, g), "pairing matrix")
        chi = _complex_of_shape(chi, (2 * g,), "generator phases")
        if not np.all(np.isfinite(hermitian)):
            raise NotHermitian("pairing matrix must be finite")
        scale = max(1.0, float(np.max(np.abs(hermitian))))
        if np.max(np.abs(hermitian - hermitian.conj().T)) > HERMITIAN_TOL * scale:
            raise NotHermitian("pairing matrix must equal its conjugate transpose")
        lat = torus.periods  # columns are the generators
        gram = lat.T @ hermitian @ np.conj(lat)
        e = gram.imag
        # not <=, so that a NaN (a finite H whose pairings overflow) fails too
        if not np.max(np.abs(e - np.round(e))) <= INTEGRAL_TOL:
            raise NonIntegralE(
                "Im H must take integer values on lattice pairs; "
                f"max deviation {np.max(np.abs(e - np.round(e))):.3e}"
            )
        if not _fits_int64(np.round(e)):
            raise NonIntegralE("Im H on lattice pairs must lie in the int64 range")
        if not np.all(np.isfinite(chi)) or np.max(np.abs(np.abs(chi) - 1.0)) > UNIT_TOL:
            raise SemicharacterInconsistent("generator phases must be finite with unit modulus")
        self.torus = torus
        self.hermitian = hermitian
        self.chi = chi
        self.pairing_imag = e
        self.pairing_imag_int = np.round(e).astype(int)
        self._check_semicharacter()

    def _check_semicharacter(self):
        # chi(l_j + l_k) must come out the same whichever factor is peeled off
        # first; the mismatch exponential is exp(2 pi i E_jk), j < k row-major.
        mismatch = np.abs(np.exp(2j * np.pi * np.triu(self.pairing_imag, 1)) - 1.0)
        bad = np.argwhere(mismatch > SEMICHARACTER_TOL)
        if len(bad):
            j, k = bad[0]
            raise SemicharacterInconsistent(f"generators ({j}, {k}) give inconsistent extensions")

    # -- semicharacter extension -------------------------------------------

    def chi_on(self, n_coords) -> np.ndarray:
        """Semicharacter values, shape (...), at integer lattice coordinates n (..., 2g).

        chi(sum n_j l_j) = prod chi_j^{n_j} * (-1)^{sum_{j<k} n_j n_k E_jk},
        with the sign exponent computed in exact integer arithmetic.
        """
        n = np.asarray(n_coords)
        if n.ndim < 1 or n.shape[-1] != 2 * self.torus.genus:
            raise ShapeMismatch(f"lattice coordinates must end in an axis of 2g, got {n.shape}")
        if not np.all(np.isfinite(n)) or np.any(np.abs(n - np.round(n)) > 1e-9):
            raise NotLatticeVector("coordinates are not finite integers")
        if not _fits_int64(np.round(n)):
            raise NotLatticeVector("coordinates must lie in the int64 range")
        n_int = np.round(n).astype(np.int64)
        upper = np.triu(self.pairing_imag_int, k=1)
        parity = np.einsum("...a,ab,...b->...", n_int, upper, n_int) % 2
        value = np.prod(self.chi.astype(complex) ** n_int, axis=-1)
        return value * (-1) ** parity

    def factor(self, lam, z) -> np.ndarray:
        """Factor of automorphy a(lam, z), broadcast over lattice vectors and lifts (..., g)."""
        lam = _complex_of_shape(lam, np.shape(lam)[:-1] + (self.torus.genus,), "lattice vectors")
        if not np.all(np.isfinite(lam)):
            raise NotLatticeVector("first argument must be a finite lattice vector")
        coords = self.torus.lattice_coords(lam)
        if np.any(np.abs(coords - np.round(coords)) > 1e-9):
            raise NotLatticeVector("first argument must be a lattice vector")
        chi_val = self.chi_on(coords)
        quad = 0.5 * hermitian_pairing(self.hermitian, lam, lam).real
        z = np.asarray(z, dtype=complex)
        return chi_val * np.exp(np.pi * (hermitian_pairing(self.hermitian, z, lam) + quad))

    # -- algebra -------------------------------------------------------------

    def dual(self) -> "AHDatum":
        return AHDatum(self.torus, -self.hermitian, np.conj(self.chi))

    def tensor(self, other: "AHDatum") -> "AHDatum":
        if not self.torus.same_as(other.torus):
            raise TorusMismatch("tensor factors must live on one torus")
        return AHDatum(self.torus, self.hermitian + other.hermitian, self.chi * other.chi)

    def __repr__(self):
        return f"AHDatum(genus={self.torus.genus}, |H|={np.max(np.abs(self.hermitian)):.3g})"


def trivial_datum(torus: ComplexTorus) -> AHDatum:
    g = torus.genus
    return AHDatum(torus, np.zeros((g, g)), np.ones(2 * g))


class TorusHomomorphism:
    """Affine holomorphic map between tori: z -> M z + t with M lattice-preserving."""

    def __init__(self, source: ComplexTorus, target: ComplexTorus, matrix, translation=None):
        matrix = _complex_of_shape(matrix, (target.genus, source.genus), "linear part")
        if translation is None:
            translation = np.zeros(target.genus, dtype=complex)
        translation = _complex_of_shape(translation, (target.genus,), "translation")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(translation))):
            raise LatticeNotPreserved("linear part and translation must be finite")
        image = matrix @ source.periods  # image of the source generators
        coords = target.lattice_coords(image.T)
        if not np.max(np.abs(coords - np.round(coords))) <= 1e-9:  # an overflowing image gives NaN
            raise LatticeNotPreserved(
                "linear part must map the source lattice into the target lattice"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self.translation = translation

    def apply(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z @ self.matrix.T + self.translation


# -- the standard maps of A and A x A ----------------------------------------

def addition_map(prod: ComplexTorus) -> TorusHomomorphism:
    """(z, w) -> z + w on a product torus A x A."""
    left, right = _split_factors(prod)
    g = left.genus
    return TorusHomomorphism(prod, left, np.hstack([np.eye(g), np.eye(g)]))


def first_projection(prod: ComplexTorus) -> TorusHomomorphism:
    left, right = _split_factors(prod)
    g = left.genus
    return TorusHomomorphism(prod, left, np.hstack([np.eye(g), np.zeros((g, g))]))


def slice_embedding(x, prod: ComplexTorus) -> TorusHomomorphism:
    """z -> (z, x): the slice A x {x} of the product, for a lift x (g,) of a point of A."""
    left, right = _split_factors(prod)
    x = _complex_of_shape(x, (right.genus,), "point lifts")
    matrix = np.vstack([np.eye(left.genus), np.zeros((right.genus, left.genus))])
    translation = np.concatenate([np.zeros(left.genus), x])
    return TorusHomomorphism(left, prod, matrix, translation)


def parameter_section(y, prod: ComplexTorus) -> TorusHomomorphism:
    """x -> (y, x): the section of the second projection through a lift y (g,) of a point of A."""
    left, right = _split_factors(prod)
    y = _complex_of_shape(y, (left.genus,), "point lifts")
    matrix = np.vstack([np.zeros((left.genus, right.genus)), np.eye(right.genus)])
    translation = np.concatenate([y, np.zeros(right.genus)])
    return TorusHomomorphism(right, prod, matrix, translation)


def _split_factors(prod: ComplexTorus) -> tuple[ComplexTorus, ComplexTorus]:
    if prod.factors is None:
        raise TorusMismatch("expected a product torus built by product_torus()")
    return prod.factors


# -- pullback ------------------------------------------------------------------

def pullback(f: TorusHomomorphism, datum: AHDatum) -> AHDatum:
    """Datum of the pulled-back bundle along z -> M z + t.

    The pairing pulls back as H'(u, v) = H(Mu, Mv).  The generator phases are
    derived from the factor-comparison equation

        a(M lam, M z + t) = a'(lam, z) * gframe(z + lam) / gframe(z)

    with the holomorphic frame change gframe(z) = exp(pi H(Mz, t)), evaluated
    at z = 0 for all 2g' generators at once; the modulus is renormalized.
    """
    if not f.target.same_as(datum.torus):
        raise TorusMismatch("datum must live on the target of the homomorphism")
    h_pull = f.matrix.T @ datum.hermitian @ np.conj(f.matrix)
    src = f.source
    lams = src.periods.T  # the generators, (2g', g')
    mlams = lams @ f.matrix.T
    quad = 0.5 * hermitian_pairing(h_pull, lams, lams).real
    frame_gap = hermitian_pairing(datum.hermitian, mlams, f.translation)
    value = datum.factor(mlams, f.translation) * np.exp(-np.pi * (quad + frame_gap))
    return AHDatum(src, h_pull, value / np.abs(value))


# -- the two-variable family --------------------------------------------------

def build_family(datum: AHDatum) -> AHDatum:
    """Datum of (p1* dual L) tensor (addition* L) on the product torus A x A."""
    base = datum.torus
    prod = product_torus(base, base)
    along_p1 = pullback(first_projection(prod), datum.dual())
    along_add = pullback(addition_map(prod), datum)
    return along_p1.tensor(along_add)

