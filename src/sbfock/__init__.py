"""Spin-boson models on truncated Fock spaces.

Construction of generalized spin-boson Hamiltonians on finite occupation
bases, boundary-condition and Weyl-dressing renormalization, and a
verification suite for the algebraic identities, operator bounds and
cutoff-convergence behaviour of these operators.
"""

from .errors import (
    ConfigError,
    NumericError,
    ParameterError,
    ResourceError,
    SbfockError,
    StructuralError,
)
from .model import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    SpinSpace,
    bs_inner,
    bs_norm,
    check_structure,
    ir_split,
    power_law_grid,
    renorm_energy,
    separable,
    uv_truncate,
    zero_form_factor,
)
from .fock import (
    OccupationBasis,
    Operator,
    annihilate,
    build_basis,
    create,
    dgamma,
    field,
    function_of_dgamma,
    parity,
    vacuum,
)
from .ibc import (
    g_op,
    nilpotent_inverse,
    t_op,
    theta0,
    theta1,
    verify_ibc_bounds,
    xi,
)
from .dressing import verify_weyl_continuity, verify_weyl_transforms, weyl
from .renorm import (
    HamiltonianSpec,
    StudyReport,
    convergence_study,
    ground_energy,
    h_reg,
    h_renormalized,
    opnorm,
    vanhove_demo,
    verify_transformed_operator_identities,
)
from .reports import CheckResult, CheckSuite

__all__ = [
    # errors
    "ConfigError",
    "NumericError",
    "ParameterError",
    "ResourceError",
    "SbfockError",
    "StructuralError",
    # model
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "CouplingDecomposition",
    "FormFactor",
    "ModeGrid",
    "SpinSpace",
    "bs_inner",
    "bs_norm",
    "check_structure",
    "ir_split",
    "power_law_grid",
    "renorm_energy",
    "separable",
    "uv_truncate",
    "zero_form_factor",
    # fock
    "OccupationBasis",
    "Operator",
    "annihilate",
    "build_basis",
    "create",
    "dgamma",
    "field",
    "function_of_dgamma",
    "parity",
    "vacuum",
    # ibc
    "g_op",
    "nilpotent_inverse",
    "t_op",
    "theta0",
    "theta1",
    "verify_ibc_bounds",
    "xi",
    # dressing
    "verify_weyl_continuity",
    "verify_weyl_transforms",
    "weyl",
    # renorm
    "HamiltonianSpec",
    "StudyReport",
    "convergence_study",
    "ground_energy",
    "h_reg",
    "h_renormalized",
    "opnorm",
    "vanhove_demo",
    "verify_transformed_operator_identities",
    # reports
    "CheckResult",
    "CheckSuite",
]
