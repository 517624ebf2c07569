"""siegelkit: exact machinery for duality-covariant abelian gauge sectors.

Integral symplectic lattices and their types, affine Siegel groups,
tamings and polarized Hodge calculus, twisted cohomology with DSZ
integrality checks, and bounded U-duality group computations.
"""

from .errors import (
    BadSignature,
    BoundTooLargeForBudget,
    DegenerateForm,
    DimensionMismatch,
    InvalidComplex,
    InvalidFundamentalForm,
    InvalidModel,
    InvalidTaming,
    NonPositiveY,
    NotACocycle,
    NotAntisymmetric,
    NotSymplectic,
    NotUnimodular,
    ParseError,
    SiegelKitError,
    TypeMismatch,
)
from .exact_linalg import (
    IntegerMatrix,
    RationalMatrix,
    SnfDecomposition,
    determinant,
    inverse_unimodular,
    is_unimodular,
    kernel_lattice,
    rank,
    smith_normal_form,
)
from .field_calculus import (
    FieldStrengthSample,
    PointFrame,
    PolarizedStar,
    ScalarSectorSample,
    duality_transform_sample,
    einstein_rhs,
    hodge_star_matrix,
    inner_contraction,
    maxwell_residual,
    polarized_star,
    project_selfdual,
    scalar_rhs,
    twisted_pairing,
)
from .local_systems import (
    ChargeClass,
    CohomologyResult,
    DszVerdict,
    TwistedComplex,
    charge_lattice_basis,
    circle_complex,
    dsz_check,
    four_torus_complex,
    twisted_cohomology,
    two_sphere_complex,
    two_torus_complex,
    validate_local_system,
)
from .polarization import (
    FundamentalFormSample,
    SiegelPoint,
    Taming,
    fundamental_projection,
    push_forward_taming,
    q_metric,
    standard_taming_matrix,
    taming_from_siegel_point,
    validate_fundamental_form,
    validate_taming,
)
from .siegel_group import (
    AffineSymplectomorphism,
    TorusPoint,
    aff_act,
    aff_compose,
    aff_inverse,
    apply_to_lift,
    lattice_rep,
)
from .symplectic_lattices import (
    FrobeniusBasis,
    IntegralSymplecticSpace,
    LatticeType,
    frobenius_basis,
    lattice_isomorphism,
    sp_type_membership,
    standard_gram,
    standard_space,
    symplectic_inverse,
    type_of,
)
from .uduality import (
    FiniteScalarModel,
    HolonomySubgroup,
    UDualityElement,
    adjoint_map,
    centralizer_enumerate,
    closure_within_box,
    commutant_lattice,
    is_pure_translation,
    uduality_compose,
    uduality_fiber_product,
)

__version__ = "0.1.0"
