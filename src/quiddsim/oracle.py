"""Dense numpy reference engine.

This is the independent check for the diagram engine: it interprets the
same circuit IR with explicit complex matrices and qubit-wise gate
kernels. Gates contract a small 2^m x 2^m operator (controls + targets
only) against the density tensor; the full 2^n x 2^n circuit operator is
never formed, but the state itself is explicit, which caps this engine at
:data:`DENSE_CAP` qubits.

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
    "dense_multiply",
    "dense_outer",
    "dense_ptrace",
    "save_matrix",
    "load_matrix",
    "format_complex",
]


class CapExceeded(Exception):
    """Requested width is beyond what dense simulation will attempt."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"{n} qubits exceeds the dense engine cap of {cap}")
        self.n = n
        self.cap = cap


# -- elementary dense helpers ----------------------------------------------

def dense_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)


def dense_outer(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


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


def _full_gate_matrix(g: Gate) -> tuple[np.ndarray, tuple[int, ...]]:
    """Expand controls into an explicit operator over controls+targets."""
    qubits = tuple(q for q, _ in g.controls) + g.targets
    nc = len(g.controls)
    nt = len(g.targets)
    m = nc + nt
    dim = 1 << m
    full = np.eye(dim, dtype=complex)
    ctrl_bits = 0
    for i, (_, pol) in enumerate(g.controls):
        ctrl_bits |= pol << (m - 1 - i)
    for a in range(1 << nt):
        row = ctrl_bits | a
        full[row, :] = 0
        for b in range(1 << nt):
            full[row, ctrl_bits | b] = g.matrix[a, b]
    return full, qubits


def _conjugate(tensor: np.ndarray, op: np.ndarray, qubits, n: int):
    """rho -> U rho U+ on the given qubit positions."""
    tensor = _apply_axes(tensor, op, tuple(qubits))
    return _apply_axes(tensor, op.conj(), tuple(n + q for q in qubits))


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


def dense_run(circuit: Circuit, seed: int = 0,
              cap: int = DENSE_CAP) -> RunResult:
    """Execute the circuit with explicit matrices; same IR, same RNG."""
    t_start = time.perf_counter()
    validate(circuit)
    if circuit.n_qubits > cap:
        raise CapExceeded(circuit.n_qubits, cap)
    n = circuit.n_qubits
    rng = XorShift64Star(seed)
    rho = _initial_rho(circuit)
    records: list[MeasurementRecord] = []
    prints: list[tuple[int, str]] = []
    steps: list[StepStat] = []

    for step, op in enumerate(circuit.ops):
        t0 = time.perf_counter()
        if isinstance(op, Gate):
            full, qubits = _full_gate_matrix(op)
            t = rho.reshape((2,) * (2 * n))
            t = _conjugate(t, full, qubits, n)
            rho = t.reshape((1 << n, 1 << n))
        elif isinstance(op, Channel):
            t = rho.reshape((2,) * (2 * n))
            acc = None
            for k in op.kraus:
                term = _conjugate(t, np.asarray(k, dtype=complex),
                                  op.targets, n)
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


# -- text fixture format ----------------------------------------------------

def format_complex(v: complex) -> str:
    """``re+imi`` notation used by the matrix fixture files."""
    return f"{v.real:.17g}{v.imag:+.17g}i"


def _parse_complex(token: str, lineno: int) -> complex:
    if not token.endswith("i"):
        raise ValueError(f"line {lineno}: entry {token!r} does not end in 'i'")
    try:
        return complex(token[:-1].replace("i", "j") + "j")
    except ValueError:
        raise ValueError(f"line {lineno}: bad entry {token!r}") from None


def save_matrix(path, matrix: np.ndarray) -> None:
    """Write ``n=<qubits>`` then 2^n rows of whitespace-separated entries."""
    m = np.asarray(matrix, dtype=complex)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if m.shape != (dim, dim) or dim != 1 << n:
        raise ValueError(f"bad matrix shape {m.shape}")
    with open(path, "w") as fh:
        fh.write(f"n={n}\n")
        for row in m:
            fh.write(" ".join(format_complex(v) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError("first line must be n=<qubits>")
        try:
            n = int(header[2:])
        except ValueError:
            raise ValueError(f"bad qubit count {header[2:]!r}") from None
        dim = 1 << n
        out = np.empty((dim, dim), dtype=complex)
        for r in range(dim):
            line = fh.readline()
            if not line:
                raise ValueError(f"expected {dim} rows, got {r}")
            tokens = line.split()
            if len(tokens) != dim:
                raise ValueError(
                    f"line {r + 2}: expected {dim} entries, got {len(tokens)}")
            for c, token in enumerate(tokens):
                out[r, c] = _parse_complex(token, r + 2)
    return out
