"""Circuit representation and the diagram-based density matrix engine.

A circuit is a qubit count, an initial state and a flat list of
operations: gates, channels, measurements (deterministic probes and
sampled collapses), partial traces and diagnostic probes. ``run``
executes it on diagram-backed density matrices; the numpy reference
engine in :mod:`quiddsim.oracle` interprets the same IR independently.

Gate application is by the book: the full n-qubit operator diagram is
built (cached per distinct gate within a run) and the state is conjugated
with two matrix multiplications, ``U rho U+``. Channels apply their Kraus
operators the same way and sum the terms. The operator diagram comes from

    op = I + sum over nonzero entries d[i,j] of (payload - I) of
            (x)_q piece(q)   with piece = projector at controls,
                             unit matrix E_{i_m j_m} at target m,
                             identity elsewhere

which is the identity outside the control subspace and the payload inside
it, and never materializes anything exponential for structured gates.
"""

from __future__ import annotations

import numbers
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import dd, linalg
from ._rng import XorShift64Star
from .dd import ADD, MUL, DDManager, count_nodes
from .gates import Channel, Gate
from .linalg import MATRIX, QuIDD, new_manager

__all__ = [
    "CircuitError",
    "SimulationError",
    "BasisInit",
    "AmplitudeInit",
    "MixtureInit",
    "Measure",
    "PartialTraceOp",
    "TraceAllOp",
    "AssertProb",
    "PrintOp",
    "Circuit",
    "MeasurementRecord",
    "StepStat",
    "RunStats",
    "RunResult",
    "validate",
    "build_operator",
    "apply_gate",
    "apply_channel",
    "measure_prob",
    "collapse",
    "sample_measure",
    "run",
    "describe",
    "format_value",
    "COLLAPSE_TOL",
    "MAX_QUBITS",
]

# Outcome probabilities at or below this cannot be collapsed onto.
COLLAPSE_TOL = 1e-12
# Widest circuit accepted. The recursive walks descend two levels per
# qubit; under Python's default recursion limit of 1000 a gate, a
# channel, a measurement and a partial trace still run at 480 qubits and
# fail at 500. This leaves room for the callers' own stack frames.
MAX_QUBITS = 400


class _StepError(Exception):
    """An error that may belong to one step; ``str()`` leads with it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.message = message
        self.step = step


class CircuitError(_StepError):
    """Structurally invalid circuit (bad ranges, shapes, weights)."""


class SimulationError(_StepError):
    """Runtime failure at a specific step (first failure aborts)."""


# -- initial states ---------------------------------------------------------

@dataclass(frozen=True)
class BasisInit:
    """|index> with qubit 0 the most significant index bit."""
    index: int = 0


@dataclass(frozen=True)
class AmplitudeInit:
    """Explicit state vector; normalized at build time."""
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True)
class MixtureInit:
    """Classical mixture of basis states; weights normalized to sum 1."""
    terms: tuple[tuple[float, int], ...]


# -- non-gate operations ----------------------------------------------------

@dataclass(frozen=True)
class Measure:
    qubit: int
    sample: bool = False  # False: record probabilities only, no collapse


@dataclass(frozen=True)
class PartialTraceOp:
    qubit: int


@dataclass(frozen=True)
class TraceAllOp:
    pass


@dataclass(frozen=True)
class AssertProb:
    qubit: int
    outcome: int
    value: float
    tol: float


@dataclass(frozen=True)
class PrintOp:
    what: str  # "probs" | "trace" | "nodes"
    qubit: int | None = None


@dataclass
class Circuit:
    n_qubits: int
    ops: list = field(default_factory=list)
    initial: object = BasisInit(0)


@dataclass(frozen=True)
class MeasurementRecord:
    step: int
    qubit: int
    outcome: int | None  # None for deterministic probes
    p0: float
    p1: float


@dataclass
class StepStat:
    step: int
    op: str
    nodes: int | None
    wall_ms: float


@dataclass
class RunStats:
    engine: str
    n_qubits: int
    seed: int
    steps: list[StepStat]
    peak_nodes: int | None
    wall_ms: float
    prints: list[tuple[int, str]]
    manager_nodes: int | None = None


@dataclass
class RunResult:
    rho: object
    records: list[MeasurementRecord]
    stats: RunStats


# -- validation -------------------------------------------------------------

def _check_qubit(q: int, n: int, what: str, step: int) -> None:
    if not 0 <= q < n:
        raise CircuitError(f"{what} qubit {q} out of range for {n} qubit(s)",
                           step)


def _finite(value, kind, convert, what: str):
    """``convert(value)``, if ``value`` is a ``kind`` number in float
    range."""
    if isinstance(value, kind):
        try:
            return convert(value)
        except OverflowError:
            pass
    # No repr: a huge int has more digits than str() may print.
    raise CircuitError(f"{what} is not a finite number")


def validate(circuit: Circuit) -> None:
    """Static checks; simulates the width changes from partial traces."""
    n = circuit.n_qubits
    if n < 1:
        raise CircuitError("circuit needs at least one qubit")
    if n > MAX_QUBITS:
        raise CircuitError(f"circuit has more than {MAX_QUBITS} qubits")
    init = circuit.initial
    if isinstance(init, BasisInit):
        if not 0 <= init.index < 1 << n:
            raise CircuitError(f"initial basis index {init.index} out of range")
    elif isinstance(init, AmplitudeInit):
        if len(init.amplitudes) != 1 << n:
            raise CircuitError(
                f"amplitude list has {len(init.amplitudes)} entries, "
                f"expected {1 << n}")
        amps = [_finite(a, numbers.Complex, complex, "amplitude")
                for a in init.amplitudes]
        with np.errstate(over="ignore"):  # an overflow is reported below
            norm = np.linalg.norm(amps)
        if not np.isfinite(norm):
            raise CircuitError("amplitude list has no finite norm")
        if not norm > 0:
            raise CircuitError("amplitude list has zero norm")
    elif isinstance(init, MixtureInit):
        if not init.terms:
            raise CircuitError("mixture needs at least one term")
        total = 0.0
        for w, index in init.terms:
            w = _finite(w, numbers.Real, float, "mixture weight")
            if w < 0:
                raise CircuitError(f"negative mixture weight {w}")
            if not 0 <= index < 1 << n:
                raise CircuitError(f"mixture basis index {index} out of range")
            total += w
        if not np.isfinite(total):
            raise CircuitError("mixture weights have no finite sum")
        if not total > 0:
            raise CircuitError("mixture weights sum to zero")
    else:
        raise CircuitError(f"unknown initial state {init!r}")

    for step, op in enumerate(circuit.ops):
        if isinstance(op, (Gate, Channel)):
            qubits = op.qubits
            for q in qubits:
                _check_qubit(q, n, "gate" if isinstance(op, Gate) else "channel",
                             step)
        elif isinstance(op, Measure):
            _check_qubit(op.qubit, n, "measure", step)
        elif isinstance(op, PartialTraceOp):
            _check_qubit(op.qubit, n, "ptrace", step)
            n -= 1
        elif isinstance(op, TraceAllOp):
            n = 0
        elif isinstance(op, AssertProb):
            _check_qubit(op.qubit, n, "assert_prob", step)
            if op.outcome not in (0, 1):
                raise CircuitError("outcome must be 0 or 1", step)
            if not 0.0 <= op.value <= 1.0:
                raise CircuitError(
                    f"probability {op.value} outside [0, 1]", step)
            if op.tol < 0:
                raise CircuitError("negative tolerance", step)
        elif isinstance(op, PrintOp):
            if op.what not in ("probs", "trace", "nodes"):
                raise CircuitError(f"unknown print {op.what!r}", step)
            if op.what == "probs":
                _check_qubit(op.qubit, n, "print probs", step)
        else:
            raise CircuitError(f"unknown operation {op!r}", step)


# -- operator construction --------------------------------------------------

def _chain(mgr: DDManager, n: int, pieces: dict, coeff: complex):
    """Product diagram of per-qubit 2x2 0/1-patterned factors.

    ``pieces`` maps qubit -> (e11, e10, e01, e00) occupancy flags; absent
    qubits are identity. The scalar coefficient sits in the terminal.
    """
    suffix = mgr.terminal(coeff)
    zero = mgr.terminal(0.0)
    mk = mgr.mk_internal
    for q in reversed(range(n)):
        flags = pieces.get(q, (1, 0, 0, 1))
        e11, e10, e01, e00 = flags
        hi = mk(2 * q + 1, suffix if e11 else zero, suffix if e10 else zero)
        lo = mk(2 * q + 1, suffix if e01 else zero, suffix if e00 else zero)
        suffix = mk(2 * q, hi, lo)
    return suffix


def _embed_operator(mgr: DDManager, matrix: np.ndarray, targets, controls,
                    n: int) -> QuIDD:
    """n-qubit operator acting as ``matrix`` on the control-matched
    subspace of the targets and as identity elsewhere.

    Assembled from parts with pairwise disjoint support, so every entry
    of the result is rounded exactly once from its true value. Folding
    in an identity delta instead would round ``u - 1`` and ``1 + (u - 1)``
    separately, splitting terminals that must stay identical.
    """
    nt = len(targets)
    dim = 1 << nt
    base: dict[int, tuple] = {}
    for q, pol in controls:
        base[q] = (1, 0, 0, 0) if pol else (0, 0, 0, 1)
    # Identity everywhere outside the control-matched target block.
    block = _chain(mgr, n, dict(base), 1.0)
    root = mgr.apply(linalg.identity(mgr, n).root,
                     mgr.map_terminals(block, operator.neg), ADD)
    for i in range(dim):
        for j in range(dim):
            c = matrix[i, j]
            if c == 0:
                continue
            pieces = dict(base)
            for m, q in enumerate(targets):
                a = (i >> (nt - 1 - m)) & 1
                b = (j >> (nt - 1 - m)) & 1
                pieces[q] = tuple(
                    1 if (r, cbit) == (a, b) else 0
                    for r, cbit in ((1, 1), (1, 0), (0, 1), (0, 0)))
            root = mgr.apply(root, _chain(mgr, n, pieces, c), ADD)
    return QuIDD(mgr, root, n, MATRIX)


def build_operator(mgr: DDManager, g: Gate, n: int) -> QuIDD:
    """Full n-qubit unitary diagram for a gate."""
    for q in g.qubits:
        if not 0 <= q < n:
            raise CircuitError(f"gate qubit {q} out of range for {n} qubit(s)")
    return _embed_operator(mgr, g.matrix, g.targets, g.controls, n)


def apply_gate(rho: QuIDD, op: QuIDD) -> QuIDD:
    """Conjugate the state with a prebuilt operator: U rho U+."""
    return linalg.matrix_multiply(
        linalg.matrix_multiply(op, rho), linalg.conj_transpose(op))


def apply_channel(rho: QuIDD, operators: list[QuIDD]) -> QuIDD:
    """Operator-sum application over prebuilt Kraus operator diagrams."""
    total = None
    for k in operators:
        term = apply_gate(rho, k)
        total = term if total is None else linalg.add(total, term)
    return total


# -- measurement ------------------------------------------------------------

def _outcome_mask(mgr: DDManager, qubit: int, bit: int):
    """Diagram of [r_q = bit][c_q = bit]; pointwise multiplication with a
    density matrix realizes P rho P for the basis projector."""
    one = mgr.terminal(1.0)
    zero = mgr.terminal(0.0)
    lr, lc = 2 * qubit, 2 * qubit + 1
    if bit:
        return mgr.mk_internal(lr, mgr.mk_internal(lc, one, zero), zero)
    return mgr.mk_internal(lr, zero, mgr.mk_internal(lc, zero, one))


def _masked(rho: QuIDD, qubit: int, bit: int) -> QuIDD:
    mgr = rho.manager
    root = mgr.apply(rho.root, _outcome_mask(mgr, qubit, bit), MUL)
    return QuIDD(mgr, root, rho.n_qubits, MATRIX)


def measure_prob(rho: QuIDD, qubit: int) -> tuple[float, float]:
    """(p0, p1) for a computational basis measurement of ``qubit``."""
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    p0 = linalg.trace(_masked(rho, qubit, 0)).real
    p1 = linalg.trace(_masked(rho, qubit, 1)).real
    return p0, p1


def collapse(rho: QuIDD, qubit: int, outcome: int) -> QuIDD:
    """Project onto ``outcome`` and renormalize: P rho P / p."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    masked = _masked(rho, qubit, outcome)
    p = linalg.trace(masked).real
    if p <= COLLAPSE_TOL:
        raise SimulationError(
            f"collapse onto outcome {outcome} of qubit {qubit} has "
            f"probability {p:.3g}")
    return linalg.scalar_op(masked, p, "divide")


def sample_measure(rho: QuIDD, qubit: int, rng: XorShift64Star):
    """Draw an outcome from the qubit's distribution and collapse.

    Returns (outcome, rho', p0, p1). Consumes exactly one uniform draw,
    compared against p0, so both engines sample identically for a seed.
    """
    p0, p1 = measure_prob(rho, qubit)
    outcome = 0 if rng.uniform() < p0 else 1
    return outcome, collapse(rho, qubit, outcome), p0, p1


# -- execution --------------------------------------------------------------

def describe(op) -> str:
    """One-line label of an operation, as reported per step."""
    if isinstance(op, Gate):
        base = f"gate {op.name} {list(op.targets)}"
        if op.controls:
            base += f" controls {list(op.controls)}"
        return base
    if isinstance(op, Channel):
        extra = f" p={op.p}" if op.p is not None else ""
        return f"channel {op.kind} {list(op.targets)}{extra}"
    if isinstance(op, Measure):
        return f"{'pmeasure' if op.sample else 'measure'} {op.qubit}"
    if isinstance(op, PartialTraceOp):
        return f"ptrace {op.qubit}"
    if isinstance(op, TraceAllOp):
        return "trace_all"
    if isinstance(op, AssertProb):
        return f"assert_prob {op.qubit} {op.outcome}"
    if isinstance(op, PrintOp):
        return f"print {op.what}" + (f" {op.qubit}" if op.qubit is not None else "")
    return repr(op)


def format_value(v: complex) -> str:
    """Probe output form of a complex value: real part alone if the
    imaginary part is negligible."""
    if abs(v.imag) < 1e-12:
        return f"{v.real:.12g}"
    return f"{v.real:.12g}{v.imag:+.12g}i"


def initial_density(mgr: DDManager, circuit: Circuit) -> QuIDD:
    """Build the starting density matrix on ``mgr``."""
    n = circuit.n_qubits
    init = circuit.initial
    if isinstance(init, BasisInit):
        v = linalg.basis_vector(mgr, n, init.index)
        return linalg.outer_product(v)
    if isinstance(init, AmplitudeInit):
        amps = np.asarray(init.amplitudes, dtype=complex)
        amps = amps / np.linalg.norm(amps)
        v = linalg.from_dense(mgr, amps)
        return linalg.outer_product(v)
    if isinstance(init, MixtureInit):
        total = sum(w for w, _ in init.terms)
        rho = None
        for w, index in init.terms:
            term = linalg.outer_product(linalg.basis_vector(mgr, n, index))
            term = linalg.scalar_op(term, w / total, "multiply")
            rho = term if rho is None else linalg.add(rho, term)
        return rho
    raise CircuitError(f"unknown initial state {init!r}")


def _roots(rho: QuIDD, op_cache: dict):
    """Roots a run still needs: the state and every cached operator."""
    yield rho.root
    for built in op_cache.values():
        for op in built if isinstance(built, list) else (built,):
            yield op.root


def run(circuit: Circuit, seed: int = 0) -> RunResult:
    """Execute on the diagram engine. Deterministic for a given seed.

    Between steps the manager collects the nodes that neither the state
    nor a cached operator reaches, once its unique table holds more than
    ``max(dd.FLOOR, dd.K * kept)`` nodes (``kept``: the nodes the last
    collection kept). Collection never changes a result.
    """
    t_start = time.perf_counter()
    validate(circuit)
    mgr = new_manager(circuit.n_qubits)
    rng = XorShift64Star(seed)
    rho = initial_density(mgr, circuit)
    records: list[MeasurementRecord] = []
    prints: list[tuple[int, str]] = []
    steps: list[StepStat] = []
    op_cache: dict = {}
    peak = count_nodes(rho.root)
    kept = 0  # nodes kept by the last collection

    for step, op in enumerate(circuit.ops):
        t0 = time.perf_counter()
        try:
            if isinstance(op, Gate):
                built = op_cache.get(op.key())
                if built is None:
                    built = build_operator(mgr, op, rho.n_qubits)
                    op_cache[op.key()] = built
                rho = apply_gate(rho, built)
            elif isinstance(op, Channel):
                ck = op.key()
                built = op_cache.get(ck)
                if built is None:
                    built = [
                        _embed_operator(mgr, k, op.targets, (), rho.n_qubits)
                        for k in op.kraus]
                    op_cache[ck] = built
                rho = apply_channel(rho, built)
            elif isinstance(op, Measure):
                if op.sample:
                    outcome, rho, p0, p1 = sample_measure(rho, op.qubit, rng)
                    records.append(
                        MeasurementRecord(step, op.qubit, outcome, p0, p1))
                else:
                    p0, p1 = measure_prob(rho, op.qubit)
                    records.append(
                        MeasurementRecord(step, op.qubit, None, p0, p1))
            elif isinstance(op, PartialTraceOp):
                rho = linalg.partial_trace(rho, op.qubit)
                op_cache.clear()  # cached operators are for the old width
            elif isinstance(op, TraceAllOp):
                value = linalg.trace(rho)
                rho = linalg.partial_trace_multi(rho, range(rho.n_qubits))
                prints.append((step, f"trace_all: {format_value(value)}"))
                op_cache.clear()
            elif isinstance(op, AssertProb):
                p0, p1 = measure_prob(rho, op.qubit)
                got = p1 if op.outcome else p0
                if abs(got - op.value) > op.tol:
                    raise SimulationError(
                        f"assert_prob failed on qubit {op.qubit}: "
                        f"P({op.outcome}) = {got:.12g}, expected "
                        f"{op.value:.12g} within {op.tol:g}", step)
            elif isinstance(op, PrintOp):
                if op.what == "probs":
                    p0, p1 = measure_prob(rho, op.qubit)
                    prints.append(
                        (step, f"probs {op.qubit}: p0={p0:.12g} p1={p1:.12g}"))
                elif op.what == "trace":
                    prints.append(
                        (step, f"trace: {format_value(linalg.trace(rho))}"))
                else:
                    prints.append((step, f"nodes: {count_nodes(rho.root)}"))
            else:
                raise SimulationError(f"unknown operation {op!r}", step)
        except SimulationError:
            raise
        except (CircuitError, ValueError) as exc:
            raise SimulationError(str(exc), step) from exc
        if mgr.table_size > max(dd.FLOOR, dd.K * kept):
            kept = mgr.collect(_roots(rho, op_cache))
        nodes = count_nodes(rho.root)
        peak = max(peak, nodes)
        steps.append(StepStat(step, describe(op), nodes,
                              (time.perf_counter() - t0) * 1e3))

    stats = RunStats(
        engine="quidd",
        n_qubits=circuit.n_qubits,
        seed=seed,
        steps=steps,
        peak_nodes=peak,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        prints=prints,
        manager_nodes=mgr.node_count,
    )
    return RunResult(rho, records, stats)
