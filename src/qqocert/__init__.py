"""Certification and Bloch-ball dynamics for quadratic operators on the qubit algebra."""

from .pauli import (
    HERMITICITY_ATOL,
    ID2,
    ID4,
    POSITIVITY_EIG_TOL,
    SIGMA,
    NonHermitianInput,
    PauliCoeffs,
    hermitian_eigh,
    hermitian_lowest_eigvals,
    pauli_decompose,
)
from .core import (
    DEFAULT_SAMPLES,
    CpReport,
    PositivityReport,
    PreservationReport,
    as_coeff_tensor,
    beta_matrix,
    choi_matrix_from_tensor,
    cp_check,
    delta_apply,
    delta_sigma_images,
    dual_pair_apply,
    sampled_positivity_check,
    state_preservation_check,
)
from .epsilon import (
    CP_THRESHOLD,
    POSITIVITY_THRESHOLD,
    PRESERVATION_THRESHOLD,
    build_coeff_tensor,
    classify_epsilon,
    delta_eps_apply,
    positivity_check,
)
from .ks import (
    KS_DEFAULT_SAMPLES,
    KS_DEFAULT_TOL,
    KSNecessaryReport,
    KSWitness,
    ks_defect,
    ks_form,
    ks_global_check,
    ks_necessary_check,
)
from .dynamics import (
    BallInvarianceReport,
    DomainError,
    FixedPointReport,
    Trajectory,
    ball_invariance_check,
    fixed_points,
    iterate,
)
from .files import load_tensor_file, write_trajectory_csv
from .sampling import sphere_points

__version__ = "0.1.0"
