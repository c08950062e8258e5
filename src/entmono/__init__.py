"""entmono: multipartite entanglement monotones on explicit quantum states.

The package evaluates families of multipartite (and genuine multipartite)
entanglement monotones built from concave spectral "reduced functions",
implements the partition-coarsening calculus behind completeness and
monogamy conditions, extends pure-state measures to mixed states by convex
roofs, and mechanically checks the conditions on concrete states.
"""

from .errors import GuardError, PartitionError, StateError
from .partitions import (
    CoarseningKind,
    Partition,
    enumerate_coarsenings,
    format_partition,
    full_partition,
    is_coarser,
    parse_partition,
    xi_set,
)
from .qstate import (
    DensityOperator,
    PureState,
    Spectrum,
    eigenvalues,
    partial_trace,
    projector,
    random_density_operator,
    random_pure_state,
    regroup,
    tensor_product,
)
from .redfun import (
    HKind,
    ProbeReport,
    ReducedFunctionSpec,
    h_eval,
    h_spectrum,
    known_counterexamples,
    property_probe,
)
from .measures import (
    Family,
    MeasureSpec,
    bipartition_subsets,
    measure_pure,
    pure_state_profile,
)
from .convexroof import (
    Decomposition,
    RoofResult,
    RoofStats,
    convex_roof,
    decomposition_from_unitary,
    wootters_concurrence,
)
from .locc import (
    LocalInstrument,
    TrialRecord,
    apply_instrument,
    monotonicity_trial,
    random_local_instrument,
    random_trials,
    stack_trials,
    trial_records,
)

__version__ = "0.1.0"

__all__ = [
    "CoarseningKind",
    "Decomposition",
    "DensityOperator",
    "Family",
    "GuardError",
    "HKind",
    "LocalInstrument",
    "MeasureSpec",
    "Partition",
    "PartitionError",
    "ProbeReport",
    "PureState",
    "ReducedFunctionSpec",
    "RoofResult",
    "RoofStats",
    "Spectrum",
    "StateError",
    "TrialRecord",
    "apply_instrument",
    "bipartition_subsets",
    "convex_roof",
    "decomposition_from_unitary",
    "eigenvalues",
    "enumerate_coarsenings",
    "format_partition",
    "full_partition",
    "h_eval",
    "h_spectrum",
    "is_coarser",
    "known_counterexamples",
    "measure_pure",
    "monotonicity_trial",
    "parse_partition",
    "partial_trace",
    "projector",
    "property_probe",
    "pure_state_profile",
    "random_density_operator",
    "random_local_instrument",
    "random_pure_state",
    "random_trials",
    "regroup",
    "stack_trials",
    "tensor_product",
    "trial_records",
    "wootters_concurrence",
    "xi_set",
]
