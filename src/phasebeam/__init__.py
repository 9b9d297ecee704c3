"""Beam-splitter entanglement of temporally stable phase states.

Builds finite-dimensional generalized Weyl-Heisenberg algebras, their
unitary phase operator and phase states, sends the states through a
lossless beam splitter and quantifies the output entanglement by the
linear entropy, with every closed form cross-checked against an explicit
partial-trace route.
"""

from .algebra import (
    Family,
    StructureSpec,
    build_structure,
    hamiltonian,
    ladder_minus,
    ladder_plus,
    number_operator,
    phase_operator,
    structure_from_spacings,
)
from .entropy import (
    EntropyValue,
    MIndependenceReport,
    linear_entropy,
    linear_entropy_closed,
    m_independence_report,
    phase_term,
)
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidDensityError,
    InvalidDimensionError,
    InvalidStructureError,
    MissingKappaError,
    NonPositiveLevelError,
    NotNormalizedError,
    NumericalConsistencyError,
    PhasebeamError,
    RangeError,
    TraceNotZeroError,
    UsageError,
)
from .experiments import (
    Axis,
    SweepTable,
    entropy_point,
    sweep_phi_balanced,
    sweep_r2_phi,
    sweep_s_balanced,
)
from .phase_states import (
    PhaseLabel,
    apply_phase_operator,
    closure_matrix,
    evolve,
    evolve_vector,
    overlap_closed,
    overlap_direct,
    phase_state,
)
from .splitter import (
    BipartiteVector,
    SplitterParams,
    reduced_density,
    reduced_density_closed,
    split_number_state,
    split_phase_state,
    tri_index,
    tri_size,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "StructureSpec",
    "build_structure",
    "structure_from_spacings",
    "ladder_minus",
    "ladder_plus",
    "number_operator",
    "hamiltonian",
    "phase_operator",
    "PhaseLabel",
    "phase_state",
    "apply_phase_operator",
    "evolve",
    "evolve_vector",
    "overlap_direct",
    "overlap_closed",
    "closure_matrix",
    "SplitterParams",
    "BipartiteVector",
    "tri_size",
    "tri_index",
    "split_number_state",
    "split_phase_state",
    "reduced_density",
    "reduced_density_closed",
    "validate_density",
    "EntropyValue",
    "MIndependenceReport",
    "linear_entropy",
    "linear_entropy_closed",
    "phase_term",
    "m_independence_report",
    "Axis",
    "SweepTable",
    "entropy_point",
    "sweep_r2_phi",
    "sweep_phi_balanced",
    "sweep_s_balanced",
    "PhasebeamError",
    "InvalidDimensionError",
    "InvalidStructureError",
    "NonPositiveLevelError",
    "TraceNotZeroError",
    "MissingKappaError",
    "DimensionMismatchError",
    "NotNormalizedError",
    "IndexOutOfRangeError",
    "InvalidDensityError",
    "NumericalConsistencyError",
    "UsageError",
    "RangeError",
    "__version__",
]
