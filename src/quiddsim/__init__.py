"""Density matrix circuit simulation on compressed decision diagrams.

States and operators are stored as canonical reduced decision diagrams
over interleaved row/column index bits, so structured states take space
proportional to their structure rather than to 4**n. A dense numpy
engine with the same semantics serves as an independent cross-check for
small widths.
"""

from .dd import (
    DDError,
    DDManager,
    EvaluationError,
    Node,
    OrderingError,
    count_nodes,
)
from .linalg import (
    DENSE_CAP,
    QuIDD,
    add,
    basis_vector,
    conj_transpose,
    entry,
    from_dense,
    identity,
    matrix_multiply,
    new_manager,
    outer_product,
    partial_trace,
    partial_trace_multi,
    scalar_op,
    tensor,
    to_dense,
    trace,
    uniform_superposition,
)
from .gates import (
    Channel,
    Gate,
    bit_flip,
    cnot,
    controlled,
    gate,
    h,
    kraus_channel,
    phase_flip,
    s,
    swap,
    t,
    toffoli,
    u1,
    x,
    y,
    z,
)
from .circuit import (
    AmplitudeInit,
    AssertProb,
    BasisInit,
    Circuit,
    CircuitError,
    Measure,
    MeasurementRecord,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    RunResult,
    RunStats,
    SimulationError,
    TraceAllOp,
    build_operator,
    collapse,
    measure_prob,
    run,
    validate,
)
from .oracle import CapExceeded, dense_run
from .lang import (
    ParseError,
    ScriptError,
    interpret,
    parse,
    pretty,
)
from .bench import (
    gen_bb84,
    gen_code_demo,
    gen_grover,
    gen_rc_adder,
    grover_iterations,
    grover_success_probability,
    scaling_harness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # diagrams
    "DDError", "OrderingError", "EvaluationError", "DDManager", "Node",
    "count_nodes",
    # linear algebra
    "DENSE_CAP", "QuIDD", "new_manager", "from_dense", "to_dense", "entry",
    "identity", "basis_vector", "uniform_superposition", "tensor",
    "conj_transpose", "matrix_multiply", "outer_product",
    "partial_trace", "partial_trace_multi", "trace", "scalar_op", "add",
    # gates and channels
    "Gate", "Channel", "gate", "h", "x", "y", "z", "s", "t", "u1", "cnot",
    "toffoli", "swap", "controlled", "bit_flip", "phase_flip",
    "kraus_channel",
    # circuits
    "Circuit", "BasisInit", "AmplitudeInit", "MixtureInit", "Measure",
    "PartialTraceOp", "TraceAllOp", "AssertProb", "PrintOp", "validate",
    "run", "RunResult", "RunStats", "MeasurementRecord", "CircuitError",
    "SimulationError", "build_operator", "measure_prob", "collapse",
    # reference engine
    "dense_run", "CapExceeded",
    # language
    "parse", "interpret", "pretty", "ParseError", "ScriptError",
    # benchmarks
    "gen_grover", "gen_rc_adder", "gen_code_demo", "gen_bb84",
    "grover_iterations", "grover_success_probability", "scaling_harness",
]
