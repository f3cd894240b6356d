"""Benchmark circuit families and a scaling harness.

Four families:

* Grover search over n qubits with one marked index.
* A 16-qubit classical ripple-carry adder (4-bit operands).
* Error-correcting code demos: the 3-qubit bit-flip code and the
  7-qubit CSS code built from the (7,4) Hamming parity checks, both
  protecting the state 0.8|0> + 0.6|1> against an injected X or Z error.
* A BB84 key-exchange round, optionally with an intercept-resend
  eavesdropper.

``scaling_harness`` runs a family over a parameter range on either
engine and reports wall time and memory figures as CSV/JSON rows. Dense
runs past the size cap are reported as OVER-CAP instead of attempted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import gates as _g
from .circuit import AssertProb, Circuit, Measure, PartialTraceOp, run
from .gates import Channel, Gate
from .oracle import CapExceeded, dense_run

__all__ = [
    "grover_iterations",
    "grover_success_probability",
    "gen_grover",
    "gen_rc_adder",
    "gen_code_demo",
    "gen_bb84",
    "BenchRow",
    "scaling_harness",
    "write_csv",
    "write_json",
    "NODE_BYTES",
]

# Rough per-node footprint: slotted node object plus its share of the
# unique-table and operation-cache dict entries.
NODE_BYTES = 120

CSV_HEADER = ("n", "gates", "engine", "wall_ms", "peak_nodes", "peak_bytes")


# -- Grover search ----------------------------------------------------------

def grover_iterations(n: int) -> int:
    """Iteration count that maximizes the success probability."""
    return int(math.floor(math.pi / 4 * math.sqrt(2 ** n)))


def grover_success_probability(n: int) -> float:
    """Closed-form P(measure the marked index) after the standard count."""
    k = grover_iterations(n)
    theta = math.asin(2 ** (-n / 2))
    return math.sin((2 * k + 1) * theta) ** 2


def _phase_flip_on(n: int, index: int) -> Gate:
    """Diagonal operator negating the amplitude of one basis index."""
    bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    if bits[-1] == 1:
        payload = np.diag([1.0, -1.0])
    else:
        payload = np.diag([-1.0, 1.0])
    flip = _g.u1(n - 1, payload)
    controls = tuple((q, bits[q]) for q in range(n - 1))
    return _g.controlled(flip, controls) if controls else flip


def gen_grover(n: int, marked: int | None = None) -> Circuit:
    """Grover search for ``marked`` (default: alternating 1010... bits)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if marked is None:
        marked = int("".join("1" if q % 2 == 0 else "0" for q in range(n)), 2)
    if not 0 <= marked < 1 << n:
        raise ValueError(f"marked index {marked} out of range")
    circuit = Circuit(n)
    ops = circuit.ops
    ops.extend(_g.h(q) for q in range(n))
    oracle = _phase_flip_on(n, marked)
    zero_flip = _phase_flip_on(n, 0)
    for _ in range(grover_iterations(n)):
        ops.append(oracle)
        ops.extend(_g.h(q) for q in range(n))
        ops.append(zero_flip)
        ops.extend(_g.h(q) for q in range(n))
    return circuit


# -- ripple-carry adder -----------------------------------------------------
# Wire layout: x bits 0-3, y bits 4-7, sum bits 8-11, carries 12-15.
# Bit i of an operand (i = 0 least significant) sits on wire base+i.
# The carry out of stage i lands on wire 12+i; wire 15 is sum bit 4.

def gen_rc_adder(x: int, y: int) -> Circuit:
    """Classical 4-bit adder on 16 wires with built-in result checks."""
    if not 0 <= x < 16 or not 0 <= y < 16:
        raise ValueError("operands must be 4-bit")
    circuit = Circuit(16)
    ops = circuit.ops
    for i in range(4):
        if (x >> i) & 1:
            ops.append(_g.x(i))
        if (y >> i) & 1:
            ops.append(_g.x(4 + i))
    for i in range(4):
        xi, yi, si, ci = i, 4 + i, 8 + i, 12 + i
        ops.append(_g.cnot(xi, si))
        ops.append(_g.cnot(yi, si))
        ops.append(_g.toffoli(xi, yi, ci))
        if i > 0:
            cin = 12 + i - 1
            ops.append(_g.cnot(cin, si))
            ops.append(_g.toffoli(xi, cin, ci))
            ops.append(_g.toffoli(yi, cin, ci))
    total = x + y
    for i in range(4):
        ops.append(AssertProb(8 + i, (total >> i) & 1, 1.0, 1e-9))
    ops.append(AssertProb(15, (total >> 4) & 1, 1.0, 1e-9))
    return circuit


# -- error-correcting codes -------------------------------------------------

# Rotation preparing 0.8|0> + 0.6|1>, so P(1) = 0.36 exactly.
_PREP = np.array([[0.8, -0.6], [0.6, 0.8]])

# Parity-check rows of the (7,4) Hamming code; data wire j has column
# value j+1, so a syndrome reads back the erroneous wire directly.
_HAMMING_ROWS = (
    (0, 2, 4, 6),  # rows as support sets
    (1, 2, 5, 6),
    (3, 4, 5, 6),
)
_PIVOTS = (0, 1, 3)  # one wire unique to each row
_LOGICAL_WIRE = 2
_LOGICAL_SUPPORT = (2, 4, 5)  # weight-3 logical X representative


def _inject_error(ops: list, error) -> None:
    if error is None:
        return
    kind, wire = error
    if kind == "x":
        ops.append(_g.x(wire))
    elif kind == "z":
        ops.append(_g.z(wire))
    else:
        raise ValueError(f"unsupported error kind {kind!r}")


def _bitflip3(error) -> Circuit:
    if error is not None and error[0] != "x":
        raise ValueError("the bit-flip code only corrects x errors")
    if error is not None and not 0 <= error[1] < 3:
        raise ValueError("error wire out of range")
    circuit = Circuit(5)  # data 0-2, syndrome ancillas 3-4
    ops = circuit.ops
    ops.append(_g.u1(0, _PREP))
    ops.append(_g.cnot(0, 1))
    ops.append(_g.cnot(0, 2))
    _inject_error(ops, error)
    ops.append(_g.cnot(0, 3))
    ops.append(_g.cnot(1, 3))
    ops.append(_g.cnot(1, 4))
    ops.append(_g.cnot(2, 4))
    # Syndrome (wire3, wire4): 10 -> flip data 0, 11 -> 1, 01 -> 2.
    ops.append(_g.controlled(_g.x(0), ((3, 1), (4, 0))))
    ops.append(_g.controlled(_g.x(1), ((3, 1), (4, 1))))
    ops.append(_g.controlled(_g.x(2), ((3, 0), (4, 1))))
    ops.append(_g.cnot(0, 2))
    ops.append(_g.cnot(0, 1))
    for wire in (4, 3, 2, 1):
        ops.append(PartialTraceOp(wire))
    ops.append(Measure(0))
    ops.append(AssertProb(0, 1, 0.36, 1e-9))
    return circuit


def _steane7(error) -> Circuit:
    if error is not None and not 0 <= error[1] < 7:
        raise ValueError("error wire out of range")
    circuit = Circuit(13)  # data 0-6, Z syndrome 7-9, X syndrome 10-12
    ops = circuit.ops
    ops.append(_g.u1(_LOGICAL_WIRE, _PREP))
    for wire in _LOGICAL_SUPPORT:
        if wire != _LOGICAL_WIRE:
            ops.append(_g.cnot(_LOGICAL_WIRE, wire))
    encoder = []
    for pivot, row in zip(_PIVOTS, _HAMMING_ROWS):
        encoder.append(_g.h(pivot))
        encoder.extend(_g.cnot(pivot, wire) for wire in row if wire != pivot)
    ops.extend(encoder)
    _inject_error(ops, error)
    # Z-type syndrome (parity copies) flags X errors.
    for i, row in enumerate(_HAMMING_ROWS):
        ops.extend(_g.cnot(wire, 7 + i) for wire in row)
    # X-type syndrome (phase kickback onto |+> ancillas) flags Z errors.
    for i, row in enumerate(_HAMMING_ROWS):
        ops.append(_g.h(10 + i))
        ops.extend(_g.cnot(10 + i, wire) for wire in row)
        ops.append(_g.h(10 + i))
    # Syndrome value s identifies wire s-1; decode with one controlled
    # gate per data wire.
    for wire in range(7):
        pattern = wire + 1
        for base, fix in ((7, _g.x), (10, _g.z)):
            controls = tuple(
                (base + i, (pattern >> i) & 1) for i in range(3))
            ops.append(_g.controlled(fix(wire), controls))
    ops.extend(reversed(encoder))
    for wire in _LOGICAL_SUPPORT[::-1]:
        if wire != _LOGICAL_WIRE:
            ops.append(_g.cnot(_LOGICAL_WIRE, wire))
    for wire in (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1, 0):
        ops.append(PartialTraceOp(wire))
    ops.append(Measure(0))
    ops.append(AssertProb(0, 1, 0.36, 1e-6))
    return circuit


def gen_code_demo(code: str, error=None) -> Circuit:
    """Encode, hit with ``error`` = ("x"|"z", wire), correct, decode.

    Ends with the ancillas and spare data wires traced out and an
    assertion that the surviving qubit still measures 1 with
    probability 0.36.
    """
    if code == "bitflip3":
        return _bitflip3(error)
    if code == "steane7":
        return _steane7(error)
    raise ValueError(f"unknown code {code!r}")


# -- BB84 -------------------------------------------------------------------
# Wires: 0 Alice's bit, 1 Alice's basis, 2 the photon, 3 Bob's basis,
# 4 Bob's result, 5 bases-equal flag, 6 error flag; with an
# eavesdropper also 7 Eve's basis and 8 Eve's result.

def gen_bb84(eve: bool = False) -> Circuit:
    """One BB84 round; wire 6 ends up flagging a sifted-key error.

    The error flag is 1 only when the bases matched and Bob's bit
    differs from Alice's, so P(flag) = P(error and bases equal). With
    an intercept-resend eavesdropper that is 1/8 (conditional error
    rate 1/4); without, exactly 0. Everything except the bases-equal
    and error flags is traced out at the end, so the final state is
    their two-qubit joint density matrix.
    """
    n = 9 if eve else 7
    circuit = Circuit(n)
    ops = circuit.ops
    ops.extend(_g.h(q) for q in (0, 1, 3))
    ops.append(_g.cnot(0, 2))
    ops.append(_g.controlled(_g.h(2), ((1, 1),)))
    if eve:
        ops.append(_g.h(7))
        ops.append(_g.controlled(_g.h(2), ((7, 1),)))
        ops.append(_g.cnot(2, 8))
        ops.append(_g.controlled(_g.h(2), ((7, 1),)))
    ops.append(_g.controlled(_g.h(2), ((3, 1),)))
    ops.append(_g.cnot(2, 4))
    ops.append(_g.cnot(1, 5))
    ops.append(_g.cnot(3, 5))
    ops.append(_g.x(5))
    ops.append(_g.cnot(0, 6))
    ops.append(_g.cnot(4, 6))
    # Uncompute the difference when the bases differ, leaving the
    # AND of the two conditions on wire 6.
    ops.append(_g.controlled(_g.x(6), ((5, 0), (0, 1))))
    ops.append(_g.controlled(_g.x(6), ((5, 0), (4, 1))))
    ops.append(Measure(5))
    ops.append(Measure(6))
    expected = 0.125 if eve else 0.0
    ops.append(AssertProb(5, 1, 0.5, 1e-9))
    ops.append(AssertProb(6, 1, expected, 1e-9))
    # Keep only the two flags: the run ends with their joint state.
    for wire in sorted(set(range(n)) - {5, 6}, reverse=True):
        ops.append(PartialTraceOp(wire))
    return circuit


# -- scaling harness --------------------------------------------------------

@dataclass
class BenchRow:
    n: int
    gates: int
    engine: str
    wall_ms: float | None
    peak_nodes: int | None
    peak_bytes: int | None
    status: str = "ok"  # ok | OVER-CAP


def _gate_count(circuit: Circuit) -> int:
    return sum(1 for op in circuit.ops if isinstance(op, (Gate, Channel)))


def _build(family: str, n: int) -> Circuit:
    if family == "grover":
        return gen_grover(n)
    if family == "rc_adder":
        return gen_rc_adder(n >> 4, n & 15)
    raise ValueError(f"unknown family {family!r}")


def scaling_harness(family: str, n_range,
                    engine: str = "quidd") -> list[BenchRow]:
    """One row per parameter value.

    For "grover" the parameter is the qubit count; for "rc_adder" it is
    the operand pair index 0..255 encoding x = n >> 4, y = n & 15.
    """
    if engine not in ("quidd", "dense"):
        raise ValueError(f"unknown engine {engine!r}")
    rows = []
    for n in n_range:
        circuit = _build(family, n)
        gates = _gate_count(circuit)
        if engine == "quidd":
            result = run(circuit)
            peak = result.stats.peak_nodes
            peak_bytes = peak * NODE_BYTES
        else:
            try:
                result = dense_run(circuit)
            except CapExceeded:
                rows.append(BenchRow(n, gates, engine, None, None, None,
                                     status="OVER-CAP"))
                continue
            peak = None
            peak_bytes = 16 * 4 ** circuit.n_qubits
        rows.append(BenchRow(n, gates, engine, result.stats.wall_ms,
                             peak, peak_bytes))
    return rows


def _cells(row: BenchRow) -> list[str]:
    if row.status == "OVER-CAP":
        tail = ["OVER-CAP", "OVER-CAP", "OVER-CAP"]
    else:
        tail = [f"{row.wall_ms:.3f}",
                "-" if row.peak_nodes is None else str(row.peak_nodes),
                str(row.peak_bytes)]
    return [str(row.n), str(row.gates), row.engine] + tail


def _write_csv_stream(rows: list[BenchRow], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(_cells(row))


def write_csv(rows: list[BenchRow], dest) -> None:
    """``dest`` is a path or an open text stream."""
    if hasattr(dest, "write"):
        _write_csv_stream(rows, dest)
        return
    with open(dest, "w", newline="") as fh:
        _write_csv_stream(rows, fh)


def write_json(rows: list[BenchRow], path) -> None:
    payload = []
    for row in rows:
        payload.append({
            "n": row.n,
            "gates": row.gates,
            "engine": row.engine,
            "status": row.status,
            "wall_ms": row.wall_ms,
            "peak_nodes": row.peak_nodes,
            "peak_bytes": row.peak_bytes,
        })
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
