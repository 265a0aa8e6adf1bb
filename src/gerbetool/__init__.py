"""Circle-equivariant spectral and gerbe-curvature check toolkit.

Modules
-------
spectral   twisted circle Dirac spectra, spectral cuts, flow counting
detline    determinant lines over spectral bands and the cocycle check
fock       Fock space as int64 mask blocks, currents, Bogoliubov transport
liealg     su(n) bases and coefficients; trivial, fundamental, adjoint representations
grids      periodic grid forms, stencil derivatives, exterior derivative
caloron    sampled connections over S1 x T^d and curvature identities
presets    the caloron battery's su(2) family and the test holonomies
moduli     surface-group representations and the curvature pairing
cli        scenario runner with JSON reports (`gerbetool` entry point)
"""

from .version import __version__
from .errors import (
    ArgumentError,
    CapabilityError,
    CompositionError,
    ConfigError,
    ConsistencyError,
    CoverViolationError,
    DimensionError,
    GerbeToolError,
    PrecisionError,
    RangeError,
    ResolutionError,
    ResourceError,
    ValidationError,
)
from .spectral import (
    EigenMode,
    Holonomy,
    SpectralCut,
    Spectrum,
    band,
    dirac_spectrum,
    holonomy_phases,
    in_cover,
    rational,
    spectral_flow,
)
from .detline import (
    CechTable,
    DetLine,
    compose,
    det_line,
    permutation_sign,
)
from .fock import (
    FockWindow,
    GradedBasis,
    SparseOperator,
    basis_dimension,
    bogoliubov_vacuum,
    car_residual,
    central_term_check,
    check_basis_cost,
    check_expm_cost,
    commutator_check,
    cut_shift_check,
    enumerate_states,
    graded_basis,
    projective_equality_check,
    sigma,
    vacuum,
)
from .liealg import Representation, su_basis
from .grids import GridForm, central_diff4, spectral_theta_derivative
from .caloron import (
    AnalyticConnection,
    CurvaturePass,
    LatticeConnection,
    check_grid,
    pontryagin_densities,
    sample_connection,
)
from .presets import su2_family
from .moduli import (
    LoopWord,
    ModuliFamily,
    SurfaceGroupRep,
    check_sampling,
    conjugate,
    holonomy,
    holonomy_path,
    irreducibility_check,
    random_special_unitary,
    relation_check,
    standard_genus2_su2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
