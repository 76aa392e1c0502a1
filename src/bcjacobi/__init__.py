"""Boundary-control toolkit for discrete dynamical systems with Jacobi matrices."""

import logging as _logging

# DEBUG records (discrete-inverse refusals, CLI scenario timings) reach a
# handler only when the application attaches one
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .core import (
    JacobiSpec,
    SpectralData,
    SpectralMeasure,
    chebyshev_u,
    chebyshev_values,
    eig_spectral_data,
    free_spec,
    moments_of_measure,
    phi_eval,
    random_spec,
    spectral_measure,
)
from .discrete_wave import (
    ResponseVector,
    WaveField,
    connecting_from_response,
    control_matrix,
    response_vector,
    reverse_order,
    solve_finite_dirichlet,
    solve_semi_infinite,
)
from .errors import (
    BCError,
    InvalidInputError,
    NotRealizableError,
    NumericalFailureError,
    PoleError,
    SingularBlockError,
    SpecTooShortError,
)
from .inverse_bc import (
    InversionReport,
    characterize,
    invert_factorization,
    nested_min_singular_values,
    roundtrip_report,
    schrodinger_check,
    solve_krein,
)
from .moments import (
    build_B,
    build_hankel_pair,
    indeterminacy_sequences,
    lambda_matrix,
    moments_to_response,
    response_to_moments,
    solvability,
    truncated_moment_naive,
    truncated_moment_spectral,
)
from .continuous_time import (
    StringSpec,
    TimeGrid,
    connecting_dynamic,
    connecting_spectral,
    corrected_response,
    recover_matrix_continuous,
    response_function,
    solve_second_order,
    string_system,
)
from .graph_wave import GraphSpec, simulate
from .heat import heat_connecting, heat_response, invert_heat, solve_heat
from .toda import moser_evolve, recursion_residual, toda_moments, toda_qr_flow, toda_solve
from .weyl_debranges import (
    DeBrangesElement,
    beta_sequences,
    debranges_inner,
    debranges_kernel,
    joukowsky_z,
    weyl_resolvent,
    weyl_series,
)

__version__ = "0.1.0"
