"""Runs of one-qubit gates on distinct wires, applied as one layer.

A layer is the tensor product of its payloads, identity elsewhere, built
by the gate operator's wire walk with one factor per gate; it is applied
at its last gate, and must give what the gates give one by one,
as the dense engine applies them.
"""

import numpy as np
import pytest
from helpers import random_unitary

from quiddsim import circuit, gates, linalg, oracle
from quiddsim.bench import gen_grover
from quiddsim.circuit import (
    LAYER_WIRES,
    AmplitudeInit,
    Circuit,
    Measure,
    PartialTraceOp,
    PrintOp,
    _unit_operators,
    run,
)
from quiddsim.dd import TERMINAL_LEVEL, count_nodes, iter_nodes
from quiddsim.linalg import new_manager, to_dense


def layer_operator(mgr, layer, n):
    """The one operator ``run`` applies for ``layer``."""
    ops = _unit_operators(mgr, layer, n)
    assert len(ops) == 1
    return ops[0]


def kron_layer(payloads: dict, n: int) -> np.ndarray:
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, payloads.get(q, np.eye(2)))
    return out


@pytest.mark.parametrize("width", range(1, 7))
def test_layer_operator_is_the_kronecker_product(width):
    rng = np.random.default_rng(100 + width)
    for _ in range(4):
        n = int(rng.integers(width, 8))
        wires = [int(q) for q in rng.permutation(n)[:width]]
        payloads = {q: random_unitary(rng, 2) for q in wires}
        layer = [gates.u1(q, payloads[q]) for q in wires]
        op = layer_operator(new_manager(n), layer, n)
        assert np.abs(to_dense(op) - kron_layer(payloads, n)).max() <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_hadamard_layer_grows_linearly(n):
    op = layer_operator(new_manager(n), [gates.h(q) for q in range(n)], n)
    assert op.node_count <= 4 * n


U = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def layer_on(wires):
    """One fusable gate per wire, of varied kinds."""
    kinds = (gates.h, gates.x, lambda q: gates.u1(q, U), gates.t, gates.y,
             gates.s, gates.z)
    return [kinds[i % len(kinds)](q) for i, q in enumerate(wires)]


# Each circuit: a run of fusable gates, the boundary that ends it, and a
# second run after it.
BOUNDARIES = {
    "measure": (4, [Measure(1, sample=True)]),
    "probe": (4, [Measure(2)]),
    "print": (4, [PrintOp("probs", 2), PrintOp("trace")]),
    "ptrace": (4, [PartialTraceOp(0)]),
    "channel": (4, [gates.bit_flip(2, 0.2)]),
    "controlled": (4, [gates.cnot(0, 3)]),
    "multi-target": (4, [gates.swap(1, 3)]),
    "repeated-wire": (4, []),
    "ninth-gate": (10, []),
}


def boundary_circuit(kind):
    n, cut = BOUNDARIES[kind]
    wires = list(range(n))
    after = list(range(n - 1 if kind == "ptrace" else n))[::-1]
    ops = layer_on(wires) + cut + layer_on(after)
    return Circuit(n, ops=ops)


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_layers_agree_with_dense_engine(kind):
    c = boundary_circuit(kind)
    for seed in (0, 7):
        mine, ref = run(c, seed=seed), oracle.dense_run(c, seed=seed)
        assert np.abs(to_dense(mine.rho) - ref.rho).max() <= 1e-10
        assert [(r.step, r.qubit, r.outcome) for r in mine.records] == \
            [(r.step, r.qubit, r.outcome) for r in ref.records]
        for a, b in zip(mine.records, ref.records):
            assert abs(a.p0 - b.p0) <= 1e-10 and abs(a.p1 - b.p1) <= 1e-10
        assert mine.stats.prints == ref.stats.prints


# A layer holds library payloads only: each u1 is walked alone and ends
# the layer before it, so h x | u1 | t is applied at steps 1, 2 and 3.
@pytest.mark.parametrize("kind, applied", [
    ("measure", [1, 2, 3, 4, 6, 7, 8]),
    ("print", [1, 2, 3, 4, 5, 7, 8, 9]),
    ("ptrace", [1, 2, 3, 4, 6, 7]),
    ("channel", [1, 2, 3, 4, 6, 7, 8]),
    ("controlled", [1, 2, 3, 4, 6, 7, 8]),
    ("multi-target", [1, 2, 3, 4, 6, 7, 8]),
    # h x u1 t on wires 0-3, then on wires 3-0: wire 3 repeats at step 4.
    ("repeated-wire", [1, 2, 3, 5, 6, 7]),
    # h x u1 | t y s z h x | u1, then the same on wires 9-0.
    ("ninth-gate", [1, 2, 8, 9, 11, 12, 18, 19]),
])
def test_layer_stats_shape(kind, applied):
    c = boundary_circuit(kind)
    stats = run(c).stats
    assert [s.step for s in stats.steps] == list(range(len(c.ops)))
    assert [s.step for s in stats.steps if s.nodes is not None] == applied
    for s in stats.steps:
        if s.nodes is None:
            assert s.wall_ms == 0.0
    # The peak is taken over the states that exist.
    initial = circuit.initial_density(new_manager(c.n_qubits), c)
    states = [s.nodes for s in stats.steps if s.nodes is not None]
    assert stats.peak_nodes == max([initial.node_count] + states)
    assert stats.steps[-1].nodes == count_nodes(run(c).rho.root)


def test_layer_ends_at_its_cap():
    steps = run(Circuit(10, ops=[gates.h(q) for q in range(10)])).stats.steps
    assert [s.step for s in steps if s.nodes is not None] == \
        [LAYER_WIRES - 1, 9]


def test_u1_gates_are_walked_not_multiplied(monkeypatch):
    # A layer of generic payloads would be an operator of 2^(2k+1)-1
    # nodes and two full multiplies; each u1 is walked on its own.
    rng = np.random.default_rng(9)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    c = Circuit(5, initial=AmplitudeInit(tuple(amps)),
                ops=[gates.u1(q, random_unitary(rng, 2)) for q in range(5)])
    calls = []
    multiply = linalg.matrix_multiply

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(linalg, "matrix_multiply", counting)
    mine = run(c)
    assert calls == []
    assert [s.nodes is None for s in mine.stats.steps] == [False] * 5
    assert np.abs(to_dense(mine.rho) - oracle.dense_run(c).rho).max() <= 1e-12


def exact_state(c: Circuit) -> np.ndarray:
    """State vector of a pure, gate-only circuit, by numpy alone."""
    n = c.n_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1
    for g in c.ops:
        t = psi.reshape((2,) * n)
        index = [slice(None)] * n
        for q, pol in g.controls:
            index[q] = pol
        view = t[tuple(index)]  # the control-matched slice, a view
        axis = g.targets[0] - sum(q < g.targets[0] for q, _ in g.controls)
        view[...] = np.moveaxis(
            np.tensordot(g.matrix, view, axes=([1], [axis])), 0, axis)
    return psi


def test_layer_width_bound_keeps_grover_accurate():
    # Wider layers let a block sum of the multiply fall below the zero
    # snap, and every entry built on it inherits the error (see
    # LAYER_WIRES); uncapped, this state is off by about 4e-9.
    c = gen_grover(15)
    c.ops = c.ops[:81]
    root = run(c).rho.root
    psi = exact_state(c)
    amps = np.unique(np.round(psi, 13))
    products = np.outer(amps, amps.conj()).ravel()
    for node in iter_nodes(root):
        if node.level == TERMINAL_LEVEL:
            assert np.abs(products - node.value).min() <= 1e-11, node
