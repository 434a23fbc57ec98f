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
from the factor-comparison equation rather than copied from a formula sheet;
``pullback_frame_log`` exposes the holomorphic frame change that realizes the
comparison, and the test suite asserts the comparison identity directly.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    LatticeNotPreserved,
    NonIntegralE,
    NotHermitian,
    NotLatticeVector,
    SemicharacterInconsistent,
    TorusMismatch,
)
from .torus import ComplexTorus, TorusPoint, product_torus

HERMITIAN_TOL = 1e-12
INTEGRAL_TOL = 1e-8
#: |exp(2 pi i E) - 1| is about 2 pi |E - round(E)|, so every E within
#: INTEGRAL_TOL of an integer also passes the semicharacter test
SEMICHARACTER_TOL = 2 * np.pi * INTEGRAL_TOL
UNIT_TOL = 1e-12


def hermitian_pairing(h: np.ndarray, u, v) -> np.ndarray:
    """H(u, v) = sum_jk u_j H_jk conj(v_k), broadcast over leading axes."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.einsum("...a,ab,...b->...", u, h, np.conj(v))


class AHDatum:
    """Pairing/semicharacter presentation of a line bundle on a torus."""

    def __init__(self, torus: ComplexTorus, hermitian, chi):
        g = torus.genus
        hermitian = np.asarray(hermitian, dtype=complex).reshape(g, g)
        chi = np.asarray(chi, dtype=complex).reshape(2 * g)
        scale = max(1.0, float(np.max(np.abs(hermitian))))
        if np.max(np.abs(hermitian - hermitian.conj().T)) > HERMITIAN_TOL * scale:
            raise NotHermitian("pairing matrix must equal its conjugate transpose")
        lat = torus.periods  # columns are the generators
        gram = lat.T @ hermitian @ np.conj(lat)
        e = gram.imag
        if np.max(np.abs(e - np.round(e))) > INTEGRAL_TOL:
            raise NonIntegralE(
                "Im H must take integer values on lattice pairs; "
                f"max deviation {np.max(np.abs(e - np.round(e))):.3e}"
            )
        if np.max(np.abs(np.abs(chi) - 1.0)) > UNIT_TOL:
            raise SemicharacterInconsistent("generator phases must have unit modulus")
        self.torus = torus
        self.hermitian = hermitian
        self.chi = chi
        self.pairing_imag = e
        self.pairing_imag_int = np.round(e).astype(int)
        self._check_semicharacter()

    def _check_semicharacter(self):
        # chi(l_j + l_k) must come out the same whichever factor is peeled
        # off first; the mismatch exponential is exp(2 pi i E_jk).
        n = 2 * self.torus.genus
        e = self.pairing_imag
        for j in range(n):
            for k in range(j + 1, n):
                mismatch = abs(np.exp(2j * np.pi * e[j, k]) - 1.0)
                if mismatch > SEMICHARACTER_TOL:
                    raise SemicharacterInconsistent(
                        f"generators ({j}, {k}) give inconsistent extensions"
                    )

    # -- semicharacter extension -------------------------------------------

    def chi_on(self, n_coords) -> complex:
        """Semicharacter value on the lattice vector with integer coordinates n.

        chi(sum n_j l_j) = prod chi_j^{n_j} * (-1)^{sum_{j<k} n_j n_k E_jk},
        with the sign exponent computed in exact integer arithmetic.
        """
        n = np.asarray(n_coords)
        n_int = np.round(n).astype(np.int64)
        if np.max(np.abs(n - n_int)) > 1e-9:
            raise NotLatticeVector("coordinates are not integers")
        upper = np.triu(self.pairing_imag_int, k=1)
        parity = int(n_int @ upper @ n_int) % 2
        value = np.prod(self.chi.astype(complex) ** n_int)
        return complex(value * (-1) ** parity)

    def factor(self, lam, z) -> np.ndarray:
        """Factor of automorphy a(lam, z), vectorized over lifts z (..., g)."""
        lam = np.asarray(lam, dtype=complex).reshape(self.torus.genus)
        coords = self.torus.lattice_coords(lam)
        if np.max(np.abs(coords - np.round(coords))) > 1e-9:
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

    def is_topologically_trivial(self) -> bool:
        """Degree zero: E vanishes on lattice pairs and H vanishes outright."""
        return bool(
            np.max(np.abs(self.pairing_imag)) < 0.5
            and np.max(np.abs(self.hermitian)) <= 1e-10
        )

    def __repr__(self):
        return f"AHDatum(genus={self.torus.genus}, |H|={np.max(np.abs(self.hermitian)):.3g})"


def trivial_datum(torus: ComplexTorus) -> AHDatum:
    g = torus.genus
    return AHDatum(torus, np.zeros((g, g)), np.ones(2 * g))


class TorusHomomorphism:
    """Affine holomorphic map between tori: z -> M z + t with M lattice-preserving."""

    def __init__(self, source: ComplexTorus, target: ComplexTorus, matrix, translation=None):
        matrix = np.asarray(matrix, dtype=complex).reshape(target.genus, source.genus)
        if translation is None:
            translation = np.zeros(target.genus, dtype=complex)
        translation = np.asarray(translation, dtype=complex).reshape(target.genus)
        image = matrix @ source.periods  # image of the source generators
        coords = target.lattice_coords(image.T)
        if np.max(np.abs(coords - np.round(coords))) > 1e-9:
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

    def compose(self, inner: "TorusHomomorphism") -> "TorusHomomorphism":
        """self after inner."""
        if not inner.target.same_as(self.source):
            raise TorusMismatch("composition needs matching middle torus")
        return TorusHomomorphism(
            inner.source,
            self.target,
            self.matrix @ inner.matrix,
            self.matrix @ inner.translation + self.translation,
        )


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


def slice_embedding(x: TorusPoint, prod: ComplexTorus) -> TorusHomomorphism:
    """z -> (z, x): the slice A x {x} of the product."""
    g = x.torus.genus
    matrix = np.vstack([np.eye(g), np.zeros((g, g))])
    translation = np.concatenate([np.zeros(g), x.lift])
    return TorusHomomorphism(x.torus, prod, matrix, translation)


def parameter_section(y: TorusPoint, prod: ComplexTorus) -> TorusHomomorphism:
    """x -> (y, x): the section of the second projection through y."""
    g = y.torus.genus
    matrix = np.vstack([np.zeros((g, g)), np.eye(g)])
    translation = np.concatenate([y.lift, np.zeros(g)])
    return TorusHomomorphism(y.torus, prod, matrix, translation)


def translation_map(x: TorusPoint) -> TorusHomomorphism:
    g = x.torus.genus
    return TorusHomomorphism(x.torus, x.torus, np.eye(g), x.lift)


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
    at z = 0; the modulus is renormalized to kill rounding drift.
    """
    if not f.target.same_as(datum.torus):
        raise TorusMismatch("datum must live on the target of the homomorphism")
    h_pull = f.matrix.T @ datum.hermitian @ np.conj(f.matrix)
    src = f.source
    chi_pull = np.empty(2 * src.genus, dtype=complex)
    for j in range(2 * src.genus):
        lam = src.lattice_vector(j)
        mlam = f.matrix @ lam
        quad = 0.5 * hermitian_pairing(h_pull, lam, lam).real
        frame_gap = hermitian_pairing(datum.hermitian, mlam, f.translation)
        value = datum.factor(mlam, f.translation) * np.exp(-np.pi * (quad + frame_gap))
        chi_pull[j] = value / abs(value)
    return AHDatum(src, h_pull, chi_pull)


def pullback_frame_log(f: TorusHomomorphism, datum: AHDatum):
    """log of the frame change relating pulled-back and normal-form factors.

    Returns the scalar function flog(z) = pi H(Mz, t), vectorized over lifts,
    so the comparison in :func:`pullback` reads
    a(M lam, M z + t) = a_pull(lam, z) * exp(flog(z + lam) - flog(z)).
    It is the independent oracle for the phases that :func:`pullback` derives.
    """
    h = datum.hermitian
    m, t = f.matrix, f.translation

    def flog(z):
        return np.pi * hermitian_pairing(h, np.asarray(z, dtype=complex) @ m.T, t)

    return flog


# -- the two-variable family --------------------------------------------------

def build_family(datum: AHDatum) -> AHDatum:
    """Datum of (p1* dual L) tensor (addition* L) on the product torus A x A."""
    base = datum.torus
    prod = product_torus(base, base)
    along_p1 = pullback(first_projection(prod), datum.dual())
    along_add = pullback(addition_map(prod), datum)
    return along_p1.tensor(along_add)

