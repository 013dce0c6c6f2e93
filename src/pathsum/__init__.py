"""Quantum measurement sequences with retained or erased records.

Outcome statistics are computed two independent ways: a path engine that
sums amplitudes over records that were erased (that sum inserts an identity,
so it is the Born rule over the retained measurements), and a dilation
oracle that models every measurement as a unitary coupling to an explicit
pointer ancilla and reads probabilities off pointer projectors at the end.
The two must agree entrywise to 1e-9 on every scenario.
"""

from .hilbert import (
    ATOL_PROB,
    ATOL_STRUCT,
    Basis,
    HilbertError,
    Operator,
    StateVector,
    inner,
    tensor,
    validate_basis,
)
from .library import RegimeTag, builtin, builtin_names, double_slit, two_wigners, wfs
from .oracle import (
    DilatedScenario,
    DilatedState,
    OracleError,
    dilate,
    evolve,
    inspect_record,
    joint_probability,
)
from .paths import (
    ImplicationResult,
    OutcomeDistribution,
    PathEngineError,
    RealPathGraph,
    VirtualPath,
    enumerate_paths,
    implication,
    marginal,
    path_amplitude,
    real_path_graph,
    reduce,
)
from .scenario import (
    MeasurementEvent,
    Record,
    RecordErasedError,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    SubsystemSpec,
    UnitaryEvent,
    parse_scenario,
    scenario_equal,
    scenario_from_json,
    scenario_to_json,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
