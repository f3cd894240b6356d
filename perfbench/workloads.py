"""Benchmark inputs and their output checks.

Each workload turns a seed into a list of cases: a circuit built with
``quiddsim.bench`` and ``quiddsim.gates``, and a check that compares the
finished state with a value computed here, apart from the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from quiddsim import bench, gates
from quiddsim.circuit import Circuit, Measure

import readout

TOL = 1e-9

# Grover: an odd number of widths, so that the median circuit is the
# middle width and the 90th percentile falls inside the widest one.
GROVER_WIDTHS = tuple(range(5, 10))
# Adder: operand pairs drawn without replacement from the 256 possible.
ADDER_PAIRS = 128
# Steane code: one noisy circuit per data wire.
QEC_WIRES = tuple(range(7))
QEC_P_RANGE = (0.05, 0.45)
# Logical state 0.8|0> + 0.6|1> that gen_code_demo encodes.
QEC_EXPECTED = ((0.64, 0.48), (0.48, 0.36))


@dataclass
class Case:
    label: str
    circuit: Circuit
    # Returns None when the final state is right, else what is wrong.
    check: Callable[[object], str | None]


def _deviation(label: str, got: complex, want: complex) -> str | None:
    if abs(got - want) <= TOL:
        return None
    return f"{label} is {got!r}, expected {want!r}"


# -- grover -----------------------------------------------------------------

def grover_marked_probability(n: int) -> float:
    """sin^2((2k+1) asin(2^(-n/2))) after k = floor(pi/4 sqrt(2^n))
    iterations."""
    k = math.floor(math.pi / 4 * math.sqrt(2 ** n))
    return math.sin((2 * k + 1) * math.asin(2 ** (-n / 2))) ** 2


def check_grover(result, n: int, marked: int, p: float) -> str | None:
    root = result.rho.root
    return (_deviation("trace", readout.trace(root, n), 1.0)
            or _deviation(f"rho[{marked},{marked}]",
                          readout.entry(root, n, marked, marked), p))


def grover_cases(seed: int, widths=GROVER_WIDTHS) -> list[Case]:
    """Two sweeps over the widths: marked items drawn from the seed, then
    their complements.

    The work of a search depends on the marked item. Over seeds 1-10 the
    summed nodes and cache entries of pairs (m, ~m) spread 1.4 % between
    quartiles, against 2.0 % for two independent draws. Running the
    smaller widths between the two widest circuits lets the collector
    free the first before the second peaks.
    """
    rng = random.Random(seed)
    drawn = [(n, rng.randrange(1 << n)) for n in widths]
    cases = []
    for n, marked in drawn + [(n, m ^ ((1 << n) - 1)) for n, m in drawn]:
        circuit = bench.gen_grover(n, marked)
        # A search is read out by measuring every wire.
        circuit.ops.extend(Measure(q) for q in range(n))
        cases.append(Case(
            f"grover n={n} marked={marked}", circuit,
            partial(check_grover, n=n, marked=marked,
                    p=grover_marked_probability(n))))
    return cases


# -- adder ------------------------------------------------------------------

def adder_basis_index(x: int, y: int) -> int:
    """Basis index of the adder's final state on its 16 wires.

    Wires 0-3 hold x, 4-7 y, 8-11 the low sum bits and 12-15 the carry
    out of each stage, bit i of each on wire base + i. Wire 0 is the
    most significant bit of the index.
    """
    bits = {}
    for i in range(4):
        low = (1 << (i + 1)) - 1
        bits[i] = (x >> i) & 1
        bits[4 + i] = (y >> i) & 1
        bits[8 + i] = ((x + y) >> i) & 1
        bits[12 + i] = ((x & low) + (y & low)) >> (i + 1) & 1
    return sum(bit << (15 - wire) for wire, bit in bits.items())


def check_adder(result, index: int) -> str | None:
    if result.rho.n_qubits != 16:
        return f"{result.rho.n_qubits} wires left, expected 16"
    dev = readout.projector_deviation(result.rho.root, 16, index)
    if dev <= TOL:
        return None
    return f"state is {dev:.3g} away from the projector on |{index}>"


def adder_cases(seed: int, pairs: int = ADDER_PAIRS) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for xy in rng.sample(range(256), pairs):
        x, y = divmod(xy, 16)
        cases.append(Case(f"adder {x}+{y}", bench.gen_rc_adder(x, y),
                          partial(check_adder, index=adder_basis_index(x, y))))
    return cases


# -- qec_noise --------------------------------------------------------------

def _op_key(op):
    return op.key() if hasattr(op, "key") else op


def noisy_steane(wire: int, p_bit: float, p_phase: float) -> Circuit:
    """Steane code circuit with the injected error on ``wire`` replaced
    by a bit-flip and a phase-flip channel at the same position."""
    circuit = bench.gen_code_demo("steane7")
    with_error = bench.gen_code_demo("steane7", ("x", wire)).ops
    at = next(i for i, (a, b) in enumerate(zip(circuit.ops, with_error))
              if _op_key(a) != _op_key(b))
    circuit.ops[at:at] = [gates.bit_flip(wire, p_bit),
                          gates.phase_flip(wire, p_phase)]
    return circuit


def check_qec(result, expected=QEC_EXPECTED) -> str | None:
    if result.rho.n_qubits != 1:
        return f"{result.rho.n_qubits} wires left, expected 1"
    root = result.rho.root
    for r in (0, 1):
        for c in (0, 1):
            bad = _deviation(f"rho[{r},{c}]", readout.entry(root, 1, r, c),
                             expected[r][c])
            if bad:
                return bad
    return None


def qec_cases(seed: int, wires=QEC_WIRES) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for wire in wires:
        p_bit, p_phase = rng.uniform(*QEC_P_RANGE), rng.uniform(*QEC_P_RANGE)
        cases.append(Case(
            f"steane7 wire={wire} p_bit={p_bit:.4f} p_phase={p_phase:.4f}",
            noisy_steane(wire, p_bit, p_phase), check_qec))
    return cases


WORKLOADS = {"grover": grover_cases, "adder": adder_cases,
             "qec_noise": qec_cases}
