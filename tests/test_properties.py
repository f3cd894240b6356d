"""Property tests over generated circuits, generated script text and
generated ASTs.

Hypothesis draws the circuit shape and the seed of ``random_circuit``.
The settings are fixed (derandomized, no example database) so that a
run is reproducible and writes nothing next to the suite.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import random_circuit, random_unitary
from quiddsim import gates
from quiddsim.circuit import (
    AmplitudeInit,
    _unit_operators,
    apply_channel,
    apply_gate,
    apply_one_target,
    build_operator,
    run,
)
from quiddsim.dd import count_nodes, iter_nodes
from quiddsim.lang import (
    AssertProbStmt,
    ChannelStmt,
    CuStmt,
    InitKet,
    InitMix,
    MeasureStmt,
    ParseError,
    PrintStmt,
    PtraceStmt,
    QubitsStmt,
    Script,
    ScriptError,
    SimpleGate,
    TraceAllStmt,
    U1Stmt,
    interpret,
    parse,
    pretty,
)
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


def _random_kraus(rng, count):
    """``count`` non-unitary 2x2 Kraus operators with ``sum K+K = I``."""
    v = random_unitary(rng, 2 * count)[:, :2]  # orthonormal columns
    return [v[2 * i:2 * i + 2] for i in range(count)]


def _control_sets(rng, target, n):
    """No controls, then up to 3 above, below and on both sides of
    ``target`` where the width allows, at random polarities."""
    above, below = list(range(target)), list(range(target + 1, n))

    def pick(wires, k):
        return [int(w) for w in rng.permutation(wires)[:k]]

    sets = [[]]
    for side in (above, below):
        if side:
            sets.append(pick(side, int(rng.integers(1, min(3, len(side)) + 1))))
    if above and below:
        both = pick(above, 1) + pick(below, 1)
        rest = [w for w in above + below if w not in both]
        sets.append(both + pick(rest, int(rng.integers(0, 2))))
    return [tuple((w, int(rng.integers(0, 2))) for w in s) for s in sets]


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       depth=st.integers(0, 8), data=st.data())
def test_one_target_walk_matches_operator_path(seed, n, depth, data):
    """Walking a one-target gate or channel over the state gives what
    multiplying by its operators gives."""
    rng, rho = _random_state(seed, n, depth)
    mgr = rho.manager
    target = data.draw(st.integers(0, n - 1))
    payloads = [random_unitary(rng, 2)] + [gates.PAYLOADS[name]
                                           for name in "xzs"]
    for controls in _control_sets(rng, target, n):
        for payload in payloads:
            g = gates.Gate("u", (target,), payload, controls)
            want = apply_gate(rho, build_operator(mgr, g, n))
            got = apply_one_target(rho, g)
            assert np.abs(to_dense(got) - to_dense(want)).max() <= 1e-12
    for ch in (gates.bit_flip(target, 0.3), gates.phase_flip(target, 0.2),
               gates.kraus_channel((target,), _random_kraus(rng, 2)),
               gates.kraus_channel((target,), _random_kraus(rng, 3))):
        want = apply_channel(rho, _unit_operators(mgr, [ch], n))
        got = apply_one_target(rho, ch)
        assert np.abs(to_dense(got) - to_dense(want)).max() <= 1e-12


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       depth=st.integers(0, 8), count=st.integers(2, 4), pure=st.booleans(),
       data=st.data())
def test_channel_cells_match_the_dense_kraus_sum(seed, n, depth, count,
                                                  pure, data):
    """A one-target channel, walked through its superoperator cells,
    gives the dense ``sum_k K_k rho K_k+``: a random CPTP channel of
    ``count`` Kraus operators on a pure state (gates only, from a vector)
    or a mixed one, with the target anywhere."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, depth, with_measures=False)
    if pure:
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        c.initial = AmplitudeInit(tuple(v))
        c.ops = [op for op in c.ops if isinstance(op, gates.Gate)]
    rho = run(c, seed=seed).rho
    target = data.draw(st.integers(0, n - 1))
    kraus = _random_kraus(rng, count)
    got = to_dense(apply_one_target(
        rho, gates.kraus_channel((target,), kraus)))
    dense = to_dense(rho)
    left, right = np.eye(1 << target), np.eye(1 << (n - 1 - target))
    want = 0
    for k in kraus:
        full = np.kron(np.kron(left, k), right)
        want = want + full @ dense @ full.conj().T
    assert np.abs(got - want).max() <= 1e-12
    assert abs(np.trace(got) - 1) <= 1e-12
    assert np.abs(got - got.conj().T).max() <= 1e-12


@FIXED
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       depth=st.integers(0, 12))
def test_count_nodes_counts_what_iter_nodes_visits(seed, n, depth):
    rho = run(random_circuit(np.random.default_rng(seed), n, depth),
              seed=seed).rho
    assert count_nodes(rho.root) == sum(1 for _ in iter_nodes(rho.root))


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
        interpret(parse(text))
    except (ParseError, ScriptError):
        pass


# Every statement kind, whatever its values mean: the printer and the
# parser must agree on text that validation would refuse, too.
_NUMBER = st.floats(allow_nan=False, allow_infinity=False,
                    allow_subnormal=True)
_WIRE = st.integers(0, 2**20)
_BITS = st.text("01", min_size=1, max_size=6)
_GATE_CLAUSE = st.one_of(
    st.builds(SimpleGate, st.sampled_from("hxyzst"), st.tuples(_WIRE)),
    st.builds(SimpleGate, st.sampled_from(["cnot", "swap"]),
              st.tuples(_WIRE, _WIRE)),
    st.builds(SimpleGate, st.just("toffoli"), st.tuples(_WIRE, _WIRE, _WIRE)),
    st.builds(U1Stmt, _WIRE, st.tuples(*[_NUMBER] * 8)),
)
_STATEMENT = st.one_of(
    st.builds(QubitsStmt, _WIRE),
    st.builds(InitKet, _BITS),
    st.builds(InitMix, st.lists(st.tuples(_NUMBER, _BITS), min_size=1,
                                max_size=3).map(tuple)),
    _GATE_CLAUSE,
    st.builds(CuStmt, st.lists(st.tuples(_WIRE, st.integers(0, 1)),
                               min_size=1, max_size=3).map(tuple),
              _GATE_CLAUSE),
    st.builds(ChannelStmt, st.sampled_from(["bitflip", "phaseflip"]), _WIRE,
              _NUMBER),
    st.builds(MeasureStmt, _WIRE, st.booleans()),
    st.builds(PtraceStmt, _WIRE),
    st.builds(TraceAllStmt),
    st.builds(PrintStmt, st.just("probs"), _WIRE),
    st.builds(PrintStmt, st.sampled_from(["trace", "nodes"])),
    st.builds(AssertProbStmt, _WIRE, _WIRE, _NUMBER, _NUMBER),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(statements=st.lists(_STATEMENT, max_size=12))
def test_generated_asts_round_trip_through_pretty(statements):
    """The printed form of any AST parses back to an equal AST, and
    printing that gives the same text."""
    ast = Script(statements)
    text = pretty(ast)
    assert parse(text) == ast
    assert pretty(parse(text)) == text
