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
from .torus import ComplexTorus, _complex_of_shape, _finite_lifts, product_torus

HERMITIAN_TOL = 1e-12
INTEGRAL_TOL = 1e-8
#: |exp(2 pi i E) - 1| is about 2 pi |E - round(E)|, so every E within
#: INTEGRAL_TOL of an integer also passes the semicharacter test
SEMICHARACTER_TOL = 2 * np.pi * INTEGRAL_TOL
UNIT_TOL = 1e-12


def _fits_int64(x: np.ndarray) -> bool:
    """Whether every (integral, finite) entry casts to int64 without overflow."""
    return bool(((x >= -(2.0**63)) & (x < 2.0**63)).all())


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
        if not np.isfinite(hermitian).all():
            raise NotHermitian("pairing matrix must be finite")
        scale = max(1.0, float(np.abs(hermitian).max()))
        if np.abs(hermitian - hermitian.conj().T).max() > HERMITIAN_TOL * scale:
            raise NotHermitian("pairing matrix must equal its conjugate transpose")
        lat = torus.periods  # columns are the generators
        gram = lat.T @ hermitian @ np.conj(lat)
        e = gram.imag
        e_round = np.round(e)
        deviation = np.abs(e - e_round).max()
        # not <=, so that a NaN (a finite H whose pairings overflow) fails too
        if not deviation <= INTEGRAL_TOL:
            raise NonIntegralE(
                f"Im H must take integer values on lattice pairs; max deviation {deviation:.3e}"
            )
        if not _fits_int64(e_round):
            raise NonIntegralE("Im H on lattice pairs must lie in the int64 range")
        if not np.isfinite(chi).all() or np.abs(np.abs(chi) - 1.0).max() > UNIT_TOL:
            raise SemicharacterInconsistent("generator phases must be finite with unit modulus")
        self.torus = torus
        self.hermitian = hermitian
        self.chi = chi
        self.pairing_imag = e
        self.pairing_imag_int = e_round.astype(int)
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
        n_round = np.round(n)
        if not np.isfinite(n).all() or (np.abs(n - n_round) > 1e-9).any():
            raise NotLatticeVector("coordinates are not finite integers")
        if not _fits_int64(n_round):
            raise NotLatticeVector("coordinates must lie in the int64 range")
        n_int = n_round.astype(np.int64)
        upper = np.triu(self.pairing_imag_int, k=1)
        parity = np.einsum("...a,ab,...b->...", n_int, upper, n_int) % 2
        value = np.prod(self.chi ** n_int, axis=-1)
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
    """Affine holomorphic map between tori: z -> M z + t with M lattice-preserving.

    The translation t is one finite lift (g,) of the target, zero by default.
    """

    def __init__(self, source: ComplexTorus, target: ComplexTorus, matrix, translation=None):
        matrix = _complex_of_shape(matrix, (target.genus, source.genus), "linear part")
        if translation is None:
            translation = np.zeros(target.genus, dtype=complex)
        translation = _finite_lifts(translation, target.genus, "translation")
        if not np.isfinite(matrix).all():
            raise LatticeNotPreserved("linear part must be finite")
        image = matrix @ source.periods  # image of the source generators
        coords = target.lattice_coords(image.T)
        if not np.abs(coords - np.round(coords)).max() <= 1e-9:  # an overflowing image gives NaN
            raise LatticeNotPreserved(
                "linear part must map the source lattice into the target lattice"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self.translation = translation

    def apply(self, z) -> np.ndarray:
        """M z + t for lifts z (..., g)."""
        z = np.asarray(z, dtype=complex)
        return z @ self.matrix.T + self.translation


# -- the standard maps of A and A x A ----------------------------------------

def addition_map(prod: ComplexTorus) -> TorusHomomorphism:
    """(z, w) -> z + w on a product torus A x A."""
    base = _factor(prod)
    g = base.genus
    return TorusHomomorphism(prod, base, np.hstack([np.eye(g), np.eye(g)]))


def first_projection(prod: ComplexTorus) -> TorusHomomorphism:
    base = _factor(prod)
    g = base.genus
    return TorusHomomorphism(prod, base, np.hstack([np.eye(g), np.zeros((g, g))]))


def product_maps(base: ComplexTorus) -> tuple[TorusHomomorphism, TorusHomomorphism]:
    """The first projection and the addition map of one product torus A x A, for A = ``base``."""
    prod = product_torus(base)
    return first_projection(prod), addition_map(prod)


def slice_embedding(x, prod: ComplexTorus) -> TorusHomomorphism:
    """z -> (z, x): the slice A x {x} of the product, for a lift x (g,) of a point of A."""
    base = _factor(prod)
    g = base.genus
    x = _finite_lifts(x, g, "point lift")
    matrix = np.vstack([np.eye(g), np.zeros((g, g))])
    return TorusHomomorphism(base, prod, matrix, np.concatenate([np.zeros(g), x]))


def _factor(prod: ComplexTorus) -> ComplexTorus:
    if prod.factor is None:
        raise TorusMismatch("expected a product torus built by product_torus()")
    return prod.factor


# -- pullback ------------------------------------------------------------------

def pullback(f: TorusHomomorphism, datum: AHDatum) -> AHDatum:
    """Datum of the pulled-back bundle along z -> M z + t.

    The pairing pulls back as H'(u, v) = H(Mu, Mv).  The generator phases are
    derived from the factor-comparison equation

        a(M lam, M z + t) = a'(lam, z) * gframe(z + lam) / gframe(z)

    with the holomorphic frame change gframe(z) = exp(pi H(Mz, t)).  At z = 0
    it reads chi'(lam) = a(M lam, t) exp(-pi (H'(lam, lam) / 2 + H(M lam, t))),
    and a(M lam, t) = chi(M lam) exp(pi H(t, M lam) + pi/2 H(M lam, M lam)).
    The real parts cancel exactly: H'(lam, lam) = H(M lam, M lam), and
    H(t, M lam) - H(M lam, t) = 2i Im H(t, M lam) as H is hermitian.  So

        chi'(lam) = chi(M lam) * exp(2 pi i Im H(t, M lam)),

    of unit modulus by construction, for all 2g' generators at once.  No
    H(lam, lam) is exponentiated, so a large pairing cannot overflow.
    """
    if not f.target.same_as(datum.torus):
        raise TorusMismatch("datum must live on the target of the homomorphism")
    h_pull = f.matrix.T @ datum.hermitian @ np.conj(f.matrix)
    mlams = f.source.periods.T @ f.matrix.T  # images of the generators, (2g', g)
    chi_linear = datum.chi_on(datum.torus.lattice_coords(mlams))
    turns = hermitian_pairing(datum.hermitian, f.translation, mlams).imag  # (2g',)
    return AHDatum(f.source, h_pull, chi_linear * np.exp(2j * np.pi * turns))


# -- the two-variable family --------------------------------------------------

def build_family(datum: AHDatum, maps=None) -> AHDatum:
    """Datum of (p1* dual L) tensor (addition* L) on the product torus A x A.

    ``maps`` is the pair ``product_maps(datum.torus)``, built here when None,
    so that several families of one torus can share one product torus.
    """
    p1, add = product_maps(datum.torus) if maps is None else maps
    return pullback(p1, datum.dual()).tensor(pullback(add, datum))
