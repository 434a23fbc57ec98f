"""Exception types shared across the package."""


class TorsorcheckError(Exception):
    """Base class for every error this package raises deliberately."""


class DegenerateLattice(TorsorcheckError):
    """Period columns do not span R^{2g}, or the condition number exceeds the cap."""


class TorusMismatch(TorsorcheckError):
    """Operands belong to different tori."""


class ResolutionTooCoarse(TorsorcheckError):
    """Grid resolution is below what the difference stencils need (N >= 4)."""


class NotLatticeVector(TorsorcheckError):
    """Vector is not a lattice element within tolerance."""


class NotHermitian(TorsorcheckError):
    """Pairing matrix is not hermitian within tolerance."""


class NonIntegralE(TorsorcheckError):
    """Imaginary part of the pairing is not integer-valued on lattice pairs."""


class SemicharacterInconsistent(TorsorcheckError):
    """Generator phases cannot be extended consistently over the lattice."""


class LatticeNotPreserved(TorsorcheckError):
    """Linear part of a homomorphism does not map the source lattice into the target lattice."""


class ShapeMismatch(TorsorcheckError):
    """Array arguments have incompatible shapes."""


class BaseMismatch(TorsorcheckError):
    """Torsor presentations live over different bases or resolutions."""


class ConfigInvalid(TorsorcheckError):
    """Run configuration failed validation; the message names the failing invariant."""
