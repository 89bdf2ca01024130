"""Simulation toolkit for observer-chain thought experiments on qubits.

The package models labeled composite systems, pointer-style measurement
couplings, several collapse hypotheses, and the correlation inequality
used to tell them apart, with exact linear algebra next to seeded
sampling so every estimate can be checked against a closed-form value.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    HeraldImpossible,
    InvalidState,
    InvariantViolation,
    LabelCollision,
    PointerNotReady,
    ShapeError,
    UnknownSubsystem,
    WfsimError,
)
from .hilbert import (
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    PureState,
    ValidityReport,
    bloch_vector,
    coherence_norm,
    embed,
    expectation,
    partial_trace,
    purity,
    tensor,
    validate,
)
from .measurement import (
    FRIEND_DEPHASING,
    FRIEND_PROJECTIVE,
    SUBJECTIVE_COLLAPSE,
    UNITARY_ONLY,
    CollapseHypothesis,
    PointerCoupling,
    ProjectiveMeasurement,
    born_probabilities,
    couple_pointer,
    dephase,
    improper_mixture,
    projective_collapse,
)
from .scenarios import (
    ProiettiScenario,
    ScenarioState,
    bell_singlet,
    claimed_branch_collapse,
    counterexample_frequencies,
    counterexample_measurement,
    counterexample_probability,
    counterexample_run,
    counterexample_state_under,
    expected_final_state,
    friend_interaction,
    friend_pair_state,
    prepared_state,
    proietti_scenario,
    source_state,
)
from .chsh import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    InequalityResult,
    MeasurementSettings,
    chsh_value,
    correlator,
    exact_optimum,
    hypothesis_comparison,
    local_deterministic_bound,
    observable_from_bloch,
    optimize_settings,
    sample_inequality,
)
from .report import (
    ReportRow,
    RunReport,
    ScenarioConfig,
    emit,
    render_csv,
    render_json,
    run,
)

# Every public name imported above, and no submodule.
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if not name.startswith("_") and not isinstance(value, _ModuleType)]
