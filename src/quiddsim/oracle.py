"""Dense numpy reference engine.

This is the independent check for the diagram engine: it interprets the
same circuit IR with explicit complex matrices and qubit-wise gate
kernels. A gate is a channel with the one Kraus operator ``U``; each
Kraus operator is contracted against the target axes of the density
tensor, first on the row side and then, conjugated, on the column side.
Controls select the slice of the tensor where their axes take the
control values, and only that slice is contracted. No operator wider
than the targets is ever formed, but the state itself is explicit, which
caps this engine at :data:`DENSE_CAP` qubits.

Nothing here touches the decision-diagram code paths, so agreement
between the two engines is meaningful evidence rather than an identity.
"""

from __future__ import annotations

import time

import numpy as np

from ._rng import XorShift64Star
from .circuit import (
    AmplitudeInit,
    COLLAPSE_TOL,
    AssertProb,
    BasisInit,
    Channel,
    Circuit,
    Gate,
    Measure,
    MeasurementRecord,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    RunResult,
    RunStats,
    SimulationError,
    StepStat,
    TraceAllOp,
    describe,
    format_value,
    validate,
)
from .linalg import DENSE_CAP

__all__ = [
    "DENSE_CAP",
    "CapExceeded",
    "dense_run",
    "dense_ptrace",
]


class CapExceeded(Exception):
    """Requested width is beyond what dense simulation will attempt."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"{n} qubits exceeds the dense engine cap of {cap}")
        self.n = n
        self.cap = cap


# -- elementary dense helpers ----------------------------------------------

def dense_ptrace(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Trace one qubit out of an explicit density matrix."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or dim != 1 << n:
        raise ValueError(f"bad density matrix shape {rho.shape}")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    t = np.trace(t, axis1=qubit, axis2=n + qubit)
    half = 1 << (n - 1)
    return t.reshape((half, half))


def _apply_axes(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...]):
    """Contract ``op``'s input index group against ``axes`` of ``tensor``
    and put the outputs back in place."""
    m = len(axes)
    op_t = op.reshape((2,) * (2 * m))
    out = np.tensordot(op_t, tensor, axes=(tuple(range(m, 2 * m)), axes))
    return np.moveaxis(out, tuple(range(m)), axes)


def _conjugate(tensor: np.ndarray, u: np.ndarray, targets, controls,
               n: int) -> np.ndarray:
    """rho -> U rho U+ for U = ``u`` on ``targets`` where every control
    holds its polarity, identity elsewhere."""
    if not controls:
        tensor = _apply_axes(tensor, u, tuple(targets))
        return _apply_axes(tensor, u.conj(), tuple(n + q for q in targets))
    out = tensor.copy()
    for side, op in ((0, u), (n, u.conj())):
        index = [slice(None)] * (2 * n)
        for q, pol in controls:
            index[side + q] = pol
        index = tuple(index)
        # Fixing a control axis drops it from the view: shift the targets.
        axes = tuple(side + t - sum(q < t for q, _ in controls)
                     for t in targets)
        out[index] = _apply_axes(out[index], op, axes)
    return out


def _diag_probs(rho: np.ndarray, qubit: int, n: int) -> tuple[float, float]:
    diag = np.real(np.diagonal(rho))
    bits = (np.arange(1 << n) >> (n - 1 - qubit)) & 1
    p1 = float(diag[bits == 1].sum())
    p0 = float(diag[bits == 0].sum())
    return p0, p1


def _collapse(rho: np.ndarray, qubit: int, outcome: int, n: int,
              step: int) -> np.ndarray:
    bits = (np.arange(1 << n) >> (n - 1 - qubit)) & 1
    keep = bits == outcome
    out = rho.copy()
    out[~keep, :] = 0
    out[:, ~keep] = 0
    p = float(np.real(np.trace(out)))
    if p <= COLLAPSE_TOL:
        raise SimulationError(
            f"collapse onto outcome {outcome} of qubit {qubit} has "
            f"probability {p:.3g}", step)
    return out / p


def _initial_rho(circuit: Circuit) -> np.ndarray:
    n = circuit.n_qubits
    dim = 1 << n
    init = circuit.initial
    if isinstance(init, BasisInit):
        v = np.zeros(dim, dtype=complex)
        v[init.index] = 1.0
        return np.outer(v, v.conj())
    if isinstance(init, AmplitudeInit):
        v = np.asarray(init.amplitudes, dtype=complex)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    if isinstance(init, MixtureInit):
        total = sum(w for w, _ in init.terms)
        rho = np.zeros((dim, dim), dtype=complex)
        for w, index in init.terms:
            rho[index, index] += w / total
        return rho
    raise ValueError(f"unknown initial state {init!r}")


def dense_run(circuit: Circuit, seed: int = 0) -> RunResult:
    """Execute the circuit with explicit matrices; same IR, same RNG.

    Raises :class:`CapExceeded` for circuits wider than
    :data:`DENSE_CAP` qubits.
    """
    t_start = time.perf_counter()
    validate(circuit)
    if circuit.n_qubits > DENSE_CAP:
        raise CapExceeded(circuit.n_qubits, DENSE_CAP)
    n = circuit.n_qubits
    rng = XorShift64Star(seed)
    rho = _initial_rho(circuit)
    records: list[MeasurementRecord] = []
    prints: list[tuple[int, str]] = []
    steps: list[StepStat] = []

    for step, op in enumerate(circuit.ops):
        t0 = time.perf_counter()
        if isinstance(op, (Gate, Channel)):
            t = rho.reshape((2,) * (2 * n))
            acc = None
            for k in op.kraus:
                term = _conjugate(t, k, op.targets, op.controls, n)
                acc = term if acc is None else acc + term
            rho = acc.reshape((1 << n, 1 << n))
        elif isinstance(op, Measure):
            p0, p1 = _diag_probs(rho, op.qubit, n)
            if op.sample:
                outcome = 0 if rng.uniform() < p0 else 1
                rho = _collapse(rho, op.qubit, outcome, n, step)
                records.append(
                    MeasurementRecord(step, op.qubit, outcome, p0, p1))
            else:
                records.append(
                    MeasurementRecord(step, op.qubit, None, p0, p1))
        elif isinstance(op, PartialTraceOp):
            rho = dense_ptrace(rho, op.qubit)
            n -= 1
        elif isinstance(op, TraceAllOp):
            value = complex(np.trace(rho))
            rho = np.array([[value]], dtype=complex)
            n = 0
            prints.append((step, f"trace_all: {format_value(value)}"))
        elif isinstance(op, AssertProb):
            p0, p1 = _diag_probs(rho, op.qubit, n)
            got = p1 if op.outcome else p0
            if abs(got - op.value) > op.tol:
                raise SimulationError(
                    f"assert_prob failed on qubit {op.qubit}: "
                    f"P({op.outcome}) = {got:.12g}, expected "
                    f"{op.value:.12g} within {op.tol:g}", step)
        elif isinstance(op, PrintOp):
            if op.what == "probs":
                p0, p1 = _diag_probs(rho, op.qubit, n)
                prints.append(
                    (step, f"probs {op.qubit}: p0={p0:.12g} p1={p1:.12g}"))
            elif op.what == "trace":
                prints.append(
                    (step,
                     f"trace: {format_value(complex(np.trace(rho)))}"))
            else:
                prints.append((step, "nodes: -"))
        else:
            raise SimulationError(f"unknown operation {op!r}", step)
        steps.append(StepStat(step, describe(op), None,
                              (time.perf_counter() - t0) * 1e3))

    stats = RunStats(
        engine="dense",
        n_qubits=circuit.n_qubits,
        seed=seed,
        steps=steps,
        peak_nodes=None,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        prints=prints,
        manager_nodes=None,
    )
    return RunResult(rho, records, stats)
