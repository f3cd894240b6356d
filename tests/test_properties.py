"""Property tests over generated circuits and generated script text.

Hypothesis draws the circuit shape and the seed of ``random_circuit``.
The settings are fixed (derandomized, no example database) so that a
run is reproducible and writes nothing next to the suite.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import random_circuit, random_unitary
from quiddsim import gates
from quiddsim.circuit import apply_gate, build_operator, run
from quiddsim.lang import ParseError, ScriptError, parse, validate_script
from quiddsim.linalg import partial_trace, to_dense

FIXED = settings(max_examples=50, deadline=None, derandomize=True,
                 database=None)


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       depth=st.integers(0, 12))
def test_density_matrix_invariants(seed, n, depth):
    """Gates, channels and measurements keep a density matrix: trace 1,
    Hermitian, positive semidefinite."""
    circuit = random_circuit(np.random.default_rng(seed), n, depth)
    rho = to_dense(run(circuit, seed=seed).rho)
    assert abs(np.trace(rho) - 1) < 1e-9
    assert np.abs(rho - rho.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-9


def _random_gate(rng, wires):
    """A random unitary on one or two of ``wires``, controlled by up to
    all of the rest at random polarities."""
    wires = [int(q) for q in rng.permutation(wires)]
    k = 1 if len(wires) < 2 else int(rng.integers(1, 3))
    controls = [(q, int(rng.integers(0, 2)))
                for q in wires[k:k + int(rng.integers(0, len(wires) - k + 1))]]
    return gates.Gate("u", tuple(wires[:k]), random_unitary(rng, 1 << k),
                      tuple(controls))


def _random_state(seed, n, depth):
    rng = np.random.default_rng(seed)
    return rng, run(random_circuit(rng, n, depth), seed=seed).rho


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       depth=st.integers(0, 8))
def test_gate_then_inverse_gives_back_rho(seed, n, depth):
    """U then U† restores the state. Compared in dense form: a value may
    come back in the neighbouring terminal cell, so the root need not be
    the same node."""
    rng, rho = _random_state(seed, n, depth)
    g = _random_gate(rng, range(n))
    inverse = gates.Gate("u_inv", g.targets, g.matrix.conj().T, g.controls)
    mgr = rho.manager
    back = apply_gate(apply_gate(rho, build_operator(mgr, g, n)),
                      build_operator(mgr, inverse, n))
    assert np.abs(to_dense(back) - to_dense(rho)).max() <= 1e-12


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       depth=st.integers(0, 8), data=st.data())
def test_partial_trace_commutes_with_gates_elsewhere(seed, n, depth, data):
    """Tracing out qubit q, then applying a gate on the other wires, is
    the same as applying the gate, then tracing out q."""
    rng, rho = _random_state(seed, n, depth)
    q = data.draw(st.integers(0, n - 1))
    g = _random_gate(rng, [w for w in range(n) if w != q])
    # after the trace, wires above q move down by one
    shift = {w: w - (w > q) for w in range(n)}
    moved = gates.Gate("u", tuple(shift[w] for w in g.targets), g.matrix,
                       tuple((shift[w], p) for w, p in g.controls))
    mgr = rho.manager
    gate_first = partial_trace(apply_gate(rho, build_operator(mgr, g, n)), q)
    trace_first = apply_gate(partial_trace(rho, q),
                             build_operator(mgr, moved, n - 1))
    assert np.abs(to_dense(gate_first) - to_dense(trace_first)).max() <= 1e-12


# Fragments of the language and characters that have tripped the lexer,
# so that generated text reaches past the first token often enough.
FRAGMENTS = ["qubits", "init", "mix", "h", "cnot", "u1", "cu", "measure",
             "ptrace", "print", "probs", "assert_prob", "bitflip", "0", "1",
             "3", "0.5", "1e", "1e+", "1e308", "1e999", "-", "|01>", "|", ">",
             "[", "]", ",", ".", " ", "\n", "#", "²", "٣", "⁰"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(
    st.text(),
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(
        lambda parts: "qubits 2\n" + " ".join(parts))))
def test_any_text_ends_in_parse_or_script_error(text):
    """Bad input ends in a positioned ParseError or ScriptError, never in
    another exception."""
    try:
        validate_script(parse(text))
    except (ParseError, ScriptError):
        pass
