"""Anti-commuting binary observables on qubits.

Exact signed-Pauli algebra, Jordan-Wigner generator sets with the
pseudoscalar extension, density-matrix geometry over the graded operator
basis, orthogonal-transformation lifts (rotors), and numerically certified
entropic uncertainty bounds for the Shannon, collision and min entropies.
"""

__version__ = "0.1.0"

from .clifford import (
    GeneratorSet,
    GradedBasis,
    GradedBasisElement,
    eigenprojectors,
    graded_basis,
    jordan_wigner,
)
from .errors import (
    BallViolationError,
    CapacityError,
    CliffcertError,
    DimensionMismatchError,
    DomainError,
    OrientationError,
    ParseError,
    ValidationError,
)
from .pauli import (
    PauliString,
    anticommutes,
    from_label,
    mul,
    to_dense,
    to_label,
)
from .rotors import (
    EulerFactorization,
    OrthoTransform,
    conjugation_residual,
    euler_decompose,
    flip_unitary,
    lift,
    plane_rotor,
    recompose,
    reduce_to_axis,
    rotation_matrix,
)
from .states import (
    DensityMatrix,
    GradedExpansion,
    GVector,
    expand,
    extended_expectations,
    factor_expectations,
    from_document,
    from_gvector,
    gvector,
    matrix_from_expectations,
    project_bloch,
    random_pure_states,
    random_state,
    random_state_batch,
    realize,
    to_document,
    vector_expectations,
)
from .uncertainty import (
    EntropyReport,
    bias_entropy,
    bias_entropy_d1,
    bias_entropy_d2,
    closed_form_kind,
    closed_form_min,
    entropy_average,
    entropy_of_expectations,
    find_minimizer,
    find_minimizers,
    maassen_uffink_bound,
    observable_entropy,
    renyi_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
