"""Certification and Bloch-ball dynamics for quadratic operators on the qubit algebra."""

from .pauli import (
    HERMITICITY_ATOL,
    ID2,
    ID4,
    POSITIVITY_EIG_TOL,
    SIGMA,
    NonHermitianInput,
    hermitian_eigh,
    hermitian_lowest_eigvals,
)
from .core import (
    DEFAULT_SAMPLES,
    CpReport,
    PositivityReport,
    PreservationReport,
    as_coeff_tensor,
    choi_matrix_from_tensor,
    cp_check,
    delta_sigma_images,
    sampled_positivity_check,
    state_preservation_check,
)
from .epsilon import (
    PRESERVATION_THRESHOLD,
    build_coeff_tensor,
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
    DomainError,
    FixedPointReport,
    Trajectory,
    fixed_points,
    iterate,
)
from .files import load_tensor_file, write_trajectory_csv
from .sampling import sphere_points

__version__ = "0.1.0"
