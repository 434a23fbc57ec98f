"""Connection torsors of line bundles on compact complex tori.

Build tori and line-bundle data, form the canonical unitary connection and the
induced two-variable family, present the torsors of connections and of
flat-slice families over explicit reference sections, and verify numerically
that the canonical comparison morphism between them is holomorphic.
"""

from .bundles import (
    AHDatum,
    TorusHomomorphism,
    addition_map,
    build_family,
    first_projection,
    hermitian_pairing,
    product_maps,
    pullback,
    slice_embedding,
    trivial_datum,
)
from .connections import (
    CHERN_NORMALIZATION,
    ConnectionForm,
    canonical_connection,
    check_eq_i,
    chern_form,
    curvature,
    family_connection,
    slice_connection,
)
from .errors import (
    BaseMismatch,
    ConfigInvalid,
    DegenerateLattice,
    LatticeNotPreserved,
    NonIntegralE,
    NotHermitian,
    NotLatticeVector,
    ResolutionTooCoarse,
    SemicharacterInconsistent,
    ShapeMismatch,
    TorsorcheckError,
    TorusMismatch,
)
from .grids import dbar_at_points
from .torsors import (
    TorsorMorphism,
    TorsorPresentation,
    TorsorSection,
    act,
    canonical_morphism,
    duality_map,
    is_holomorphic,
    is_holomorphic_morphism,
    local_holomorphic_section,
    obstruction,
    sigma_presentation,
    tau_presentation,
)
from .torus import (
    ComplexTorus,
    cycle_integral,
    product_torus,
)
from .verifier import (
    DEMO_CONFIGS,
    VerificationConfig,
    VerificationReport,
    emit_report,
    run_suite,
)
from .version import __version__

__all__ = [
    # bundles
    "AHDatum", "TorusHomomorphism", "addition_map", "build_family", "first_projection",
    "hermitian_pairing", "product_maps", "pullback", "slice_embedding", "trivial_datum",
    # connections
    "CHERN_NORMALIZATION", "ConnectionForm", "canonical_connection", "check_eq_i",
    "chern_form", "curvature", "family_connection", "slice_connection",
    # errors
    "BaseMismatch", "ConfigInvalid", "DegenerateLattice", "LatticeNotPreserved",
    "NonIntegralE", "NotHermitian", "NotLatticeVector", "ResolutionTooCoarse",
    "SemicharacterInconsistent", "ShapeMismatch", "TorsorcheckError", "TorusMismatch",
    # grids
    "dbar_at_points",
    # torsors
    "TorsorMorphism", "TorsorPresentation", "TorsorSection", "act", "canonical_morphism",
    "duality_map", "is_holomorphic", "is_holomorphic_morphism", "local_holomorphic_section",
    "obstruction", "sigma_presentation", "tau_presentation",
    # torus
    "ComplexTorus", "cycle_integral", "product_torus",
    # verifier
    "DEMO_CONFIGS", "VerificationConfig", "VerificationReport", "emit_report", "run_suite",
]
