"""Numerical mock theta functions, their real-analytic completions, and
affine superalgebra supercharacter assembly, with a verification suite for
every transformation law the library claims.
"""

from .core import (
    DEFAULT_POLICY,
    ModularPoint,
    SeriesValue,
    TruncationPolicy,
    gauss_E,
    gauss_E_complement,
    gauss_E_complement_scaled,
    q_pow,
)
from .errors import (
    ConditionViolation,
    InfiniteSet,
    MockThetaError,
    NonConvergent,
    NotPositiveDefinite,
    PoleAtZ1,
    PoleProximity,
    SingularDecomposition,
    UnsupportedCase,
    ZeroDivisorProximity,
)
from .theta import (
    LatticeData,
    SignCharacter,
    eta,
    lattice_theta,
    theta_ab,
    theta_jm,
    theta_jm_signed,
)
from .mock import MockIndex, phi, phi_elliptic_residual, phi_shift_residual_a
from .modifier import phi_add, phi_tilde, r_jm, r_jm_signed
from .modular import SL2Element, act, sample_points, verify_law
from .lattice import (
    LatticeContext,
    ModificationResult,
    Weight,
    build_modification,
    eval_modified,
    lattice_mock_theta,
    mu_class_representatives,
    projection_split,
    validate_context,
)
from .superalg import (
    SuperalgebraPreset,
    WeightSpec,
    enumerate_omega,
    integrable,
    preset,
    weyl_sharp_orbit,
)
from .characters import (
    ch_tilde,
    level1_osp_supercharacter,
    psi_fn,
    system,
)
from .smatrix import SMatrix, apply_smatrix_check, apply_tmatrix_check, smatrix
from .suites import SUITES, list_suites, run_suite

__version__ = "0.1.0"
