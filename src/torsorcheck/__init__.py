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
    parameter_section,
    pullback,
    pullback_frame_log,
    slice_embedding,
    translation_map,
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
    pullback_connection,
    slice_connection,
)
from .errors import (
    BaseMismatch,
    ConfigInvalid,
    DegenerateLattice,
    IndexOutOfRange,
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
from .grids import GridFunction, dbar_fd, dz_fd, lattice_grid
from .torsors import (
    TorsorMorphism,
    TorsorPresentation,
    TorsorSection,
    act,
    canonical_morphism,
    custom_presentation,
    duality_map,
    is_holomorphic,
    is_holomorphic_morphism,
    local_holomorphic_section,
    obstruction,
    sigma_presentation,
    tau_presentation,
    transition,
    trivialization_class,
)
from .torus import (
    ComplexTorus,
    TorusPoint,
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

__all__ = [name for name in dir() if not name.startswith("_")]
