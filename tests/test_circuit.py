"""Circuit IR, operator embedding, channels, measurement, execution."""

import gc
import math
import sys
import time
import weakref

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_circuit
from quiddsim import circuit, dd, gates, linalg, oracle
from quiddsim._rng import XorShift64Star
from quiddsim.bench import gen_code_demo, gen_grover, gen_rc_adder
from quiddsim.circuit import (
    COLLAPSE_TOL,
    MAX_QUBITS,
    AmplitudeInit,
    AssertProb,
    BasisInit,
    Circuit,
    CircuitError,
    Measure,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    SimulationError,
    TraceAllOp,
    apply_channel,
    apply_gate,
    build_operator,
    collapse,
    initial_density,
    measure_prob,
    run,
    sample_measure,
    validate,
)
from quiddsim.linalg import (
    basis_vector,
    from_dense,
    new_manager,
    outer_product,
    to_dense,
    trace,
)

H2 = gates.PAYLOADS["h"]


def basis_rho(mgr, n, index):
    return outer_product(basis_vector(mgr, n, index))


# -- operator embedding ------------------------------------------------------

def test_build_operator_single_x():
    mgr = new_manager(1)
    op = build_operator(mgr, gates.x(0), 1)
    assert np.array_equal(to_dense(op), [[0, 1], [1, 0]])


def test_build_operator_cnot_action():
    mgr = new_manager(2)
    op = build_operator(mgr, gates.cnot(0, 1), 2)
    rho = apply_gate(basis_rho(mgr, 2, 0b10), op)
    assert rho.root is basis_rho(mgr, 2, 0b11).root


def test_build_operator_negative_control():
    mgr = new_manager(2)
    g = gates.controlled(gates.x(1), [(0, 0)])
    op = build_operator(mgr, g, 2)
    # fires on |0x>, not on |1x>
    assert apply_gate(basis_rho(mgr, 2, 0b00), op).root \
        is basis_rho(mgr, 2, 0b01).root
    assert apply_gate(basis_rho(mgr, 2, 0b10), op).root \
        is basis_rho(mgr, 2, 0b10).root


def test_build_operator_matches_dense_embedding():
    rng = np.random.default_rng(50)
    mgr = new_manager(3)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(u)
    g = gates.controlled(gates.u1(2, u), [(0, 1)])
    op = to_dense(build_operator(mgr, g, 3))
    # explicit: |1><1| (x) I (x) u + |0><0| (x) I (x) I
    p1 = np.diag([0.0, 1.0])
    p0 = np.diag([1.0, 0.0])
    want = np.kron(p1, np.kron(np.eye(2), u)) + np.kron(p0, np.eye(4))
    assert np.max(np.abs(op - want)) <= 1e-12


def test_build_operator_swap_targets_keep_order():
    mgr = new_manager(2)
    op = build_operator(mgr, gates.swap(0, 1), 2)
    for idx, want in ((0b01, 0b10), (0b10, 0b01), (0b11, 0b11)):
        out = apply_gate(basis_rho(mgr, 2, idx), op)
        assert out.root is basis_rho(mgr, 2, want).root


def random_embeddings(seed, widths, per_width):
    """(matrix, targets, controls, n) of random gates: 1-3 targets in any
    wire order, 0-3 controls of both polarities, and unitary,
    permutation and scaled (Kraus-like) payloads, plus ``swap(3, 1)``."""
    rng = np.random.default_rng(seed)
    g = gates.swap(3, 1)
    yield g.matrix, g.targets, g.controls, 4
    for n in widths:
        for k in range(per_width):
            wires = [int(q) for q in rng.permutation(n)]
            nt = int(rng.integers(1, min(3, n) + 1))
            nc = int(rng.integers(0, min(3, n - nt) + 1))
            controls = tuple((q, int(rng.integers(2)))
                             for q in wires[nt:nt + nc])
            d = 1 << nt
            if k % 3 == 0:
                z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                matrix = np.linalg.qr(z)[0]
            elif k % 3 == 1:
                matrix = np.eye(d, dtype=complex)[rng.permutation(d)]
            elif nt == 1:
                matrix = gates.bit_flip(0, rng.random()).kraus[k % 2]
            else:
                matrix = rng.random() * np.eye(d, dtype=complex)[
                    rng.permutation(d)]
            yield matrix, tuple(wires[:nt]), controls, n


def dense_embedding(matrix, targets, controls, n):
    # Acts on each basis state |col>: one that matches the controls has
    # its target bits (first target most significant) replaced by each
    # row of the payload; any other is left as it is.
    def spread(i):  # payload index bits -> their wires' bits
        return sum(((i >> (nt - 1 - m)) & 1) << (n - 1 - q)
                   for m, q in enumerate(targets))

    def bit(index, q):
        return (index >> (n - 1 - q)) & 1

    nt = len(targets)
    mask = spread((1 << nt) - 1)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        if any(bit(col, q) != pol for q, pol in controls):
            out[col, col] = 1
            continue
        j = sum(bit(col, q) << (nt - 1 - m) for m, q in enumerate(targets))
        for i in range(1 << nt):
            out[col & ~mask | spread(i), col] = matrix[i, j]
    return out


def test_embedded_operator_is_the_canonical_root():
    # One manager holds a function once: the walk must give the very
    # node that building the dense embedding entry by entry gives.
    for matrix, targets, controls, n in random_embeddings(60, range(1, 7),
                                                          50):
        mgr = new_manager(n)
        op = circuit._embed_operator(mgr, matrix, targets, controls, n)
        want = from_dense(mgr, dense_embedding(matrix, targets, controls, n))
        assert op.root is want.root, (targets, controls, n)


def test_embedded_operator_allocates_little_beyond_its_result():
    # The identity chain (3 nodes a wire, terminals 0 and 1) and the
    # operator's own nodes: nothing is built and thrown away.
    for matrix, targets, controls, n in random_embeddings(61, range(1, 9),
                                                          37):
        mgr = new_manager(n)
        op = circuit._embed_operator(mgr, matrix, targets, controls, n)
        assert mgr.node_count <= op.node_count + 3 * n + 2, (targets, n)


def test_uncontrolled_operator_allocates_only_its_own_nodes():
    # Without controls no identity is built: a fresh manager holds the
    # operator's nodes and at most the zero terminal besides.
    cases = [c for c in random_embeddings(61, range(1, 9), 37) if not c[2]]
    assert len(cases) > 100
    for matrix, targets, controls, n in cases:
        mgr = new_manager(n)
        op = circuit._embed_operator(mgr, matrix, targets, controls, n)
        assert mgr.node_count <= op.node_count + 1, (targets, n)


def test_build_operator_range_check():
    mgr = new_manager(1)
    with pytest.raises(CircuitError):
        build_operator(mgr, gates.x(1), 1)


def test_apply_gate_hadamard_on_zero():
    mgr = new_manager(1)
    op = build_operator(mgr, gates.h(0), 1)
    rho = apply_gate(basis_rho(mgr, 1, 0), op)
    assert np.allclose(to_dense(rho), np.full((2, 2), 0.5), atol=1e-12)


def test_apply_gate_identity_is_same_edge():
    rng = np.random.default_rng(51)
    mgr = new_manager(2)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = outer_product(from_dense(mgr, v / np.linalg.norm(v)))
    op = build_operator(mgr, gates.u1(0, np.eye(2)), 2)
    assert apply_gate(rho, op).root is rho.root


def test_apply_gate_hh_on_01_projector():
    mgr = new_manager(2)
    rho = basis_rho(mgr, 2, 0b01)
    for q in (0, 1):
        rho = apply_gate(rho, build_operator(mgr, gates.h(q), 2))
    d = to_dense(rho)
    want = 0.25 * np.array([
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
    ])
    assert np.max(np.abs(d - want)) <= 1e-12


@pytest.mark.parametrize("gate", [
    gates.x(2),
    gates.cnot(1, 3),
    gates.cnot(4, 2),
    gates.controlled(gates.x(2), [(0, 0), (1, 1), (4, 0)]),
    gates.bit_flip(2, 0.3),
    gates.phase_flip(2, 0.3),
], ids=["x", "cnot-above", "cnot-below", "toffoli-mixed", "bit-flip",
        "phase-flip"])
def test_permutation_gate_allocates_only_its_result(gate):
    # A permutation only moves cofactors, and each cell of a bit or phase
    # flip is one combination of at most two of them, so every node the
    # walk allocates is part of the result: no intermediate K·rho, and no
    # per-Kraus term, is built.
    prep = [gates.h(0), gates.u1(2, np.array([[0.6, 0.8j], [0.8j, 0.6]])),
            gates.cnot(0, 3), gates.bit_flip(1, 0.3), gates.h(4),
            gates.cnot(4, 1)]
    initial = MixtureInit(((0.5, 0b00110), (0.3, 0b10011), (0.2, 0b01101)))
    rho = run(Circuit(5, ops=prep, initial=initial)).rho
    mgr = rho.manager
    before = mgr.node_count
    out = circuit.apply_one_target(rho, gate)
    fresh = sum(1 for node in dd.iter_nodes(out.root) if node.idx >= before)
    assert fresh > 0
    assert mgr.node_count - before == fresh


# -- channels ----------------------------------------------------------------

def _channel_ops(mgr, ch, n):
    from quiddsim.circuit import _embed_operator
    return [_embed_operator(mgr, k, ch.targets, (), n) for k in ch.kraus]


def test_bitflip_p0_is_noop_edge():
    mgr = new_manager(1)
    rho = apply_gate(basis_rho(mgr, 1, 0), build_operator(mgr, gates.h(0), 1))
    out = apply_channel(rho, _channel_ops(mgr, gates.bit_flip(0, 0.0), 1))
    assert out.root is rho.root


def test_bitflip_p0_walk_is_noop_edge():
    # S is the identity: each cell keeps its cofactor, so the walk
    # rebuilds every node it passes as the node it was.
    rho = run(Circuit(3, ops=[gates.h(0), gates.cnot(0, 2),
                              gates.phase_flip(1, 0.2)],
                      initial=MixtureInit(((0.6, 0b010), (0.4, 0b101))))).rho
    for q in range(3):
        out = circuit.apply_one_target(rho, gates.bit_flip(q, 0.0))
        assert out.root is rho.root


def test_one_target_walk_refuses_a_controlled_channel():
    # A channel's cells assume both sides live at the target.
    rho = basis_rho(new_manager(2), 2, 0)
    ch = gates.bit_flip(1, 0.3)
    op = SimpleNamespace(targets=(1,), controls=((0, 1),), qubits=(0, 1),
                         kraus=ch.kraus)
    with pytest.raises(ValueError, match="channel with controls"):
        circuit.apply_one_target(rho, op)


def test_bitflip_p1_flips_basis_state():
    mgr = new_manager(1)
    out = apply_channel(basis_rho(mgr, 1, 0),
                        _channel_ops(mgr, gates.bit_flip(0, 1.0), 1))
    assert out.root is basis_rho(mgr, 1, 1).root


def test_phaseflip_scales_off_diagonals():
    mgr = new_manager(1)
    plus = outer_product(from_dense(mgr, np.array([1, 1]) / math.sqrt(2)))
    out = apply_channel(plus, _channel_ops(mgr, gates.phase_flip(0, 0.25), 1))
    d = to_dense(out)
    assert np.allclose(np.diag(d), [0.5, 0.5], atol=1e-12)
    assert np.allclose(d[0, 1], 0.5 * (1 - 2 * 0.25), atol=1e-12)


def test_channel_preserves_trace():
    rng = np.random.default_rng(52)
    mgr = new_manager(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dense = a @ a.conj().T
    rho = from_dense(mgr, dense / np.trace(dense))
    for p in (0.0, 0.1, 0.5, 1.0):
        for ch in (gates.bit_flip(1, p), gates.phase_flip(0, p)):
            out = apply_channel(rho, _channel_ops(mgr, ch, 2))
            assert abs(trace(out) - 1) <= 1e-9


@pytest.mark.parametrize("make", [
    lambda: gates.h(1),
    lambda: gates.u1(2, np.array([[0.6, 0.8j], [0.8j, 0.6]])),
    lambda: gates.swap(0, 2),
], ids=["h", "u1", "swap"])
def test_gate_and_its_one_operator_channel_agree(make):
    g = make()
    ch = gates.kraus_channel(g.targets, [g.matrix])
    # prep ends in a controlled gate, so the op under test forms no
    # layer with it and both circuits apply it on its own.
    prep = [gates.h(0), gates.cnot(0, 1), gates.bit_flip(2, 0.3),
            gates.t(2), gates.h(2), gates.cnot(2, 0)]
    initial = MixtureInit(((0.7, 0b001), (0.3, 0b100)))
    by_gate, by_channel = (Circuit(3, ops=prep + [op], initial=initial)
                           for op in (g, ch))
    a, b = run(by_gate), run(by_channel)
    assert a.rho.manager.to_dot(a.rho.root) == \
        b.rho.manager.to_dot(b.rho.root)
    assert a.stats.manager_nodes == b.stats.manager_nodes
    assert np.array_equal(oracle.dense_run(by_gate).rho,
                          oracle.dense_run(by_channel).rho)


# -- measurement -------------------------------------------------------------

def test_measure_prob_basis_and_plus():
    mgr = new_manager(1)
    assert measure_prob(basis_rho(mgr, 1, 0), 0) == (1.0, 0.0)
    plus = outer_product(from_dense(mgr, np.array([1, 1]) / math.sqrt(2)))
    p0, p1 = measure_prob(plus, 0)
    assert abs(p0 - 0.5) <= 1e-12 and abs(p1 - 0.5) <= 1e-12


def test_measure_prob_matches_oracle_diagonal_sums():
    rng = np.random.default_rng(53)
    mgr = new_manager(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dense = a @ a.conj().T
    dense /= np.trace(dense)
    rho = from_dense(mgr, dense)
    diag = np.real(np.diag(dense))
    for q in range(3):
        p0, p1 = measure_prob(rho, q)
        mask = np.array([(i >> (2 - q)) & 1 for i in range(8)])
        assert abs(p0 - diag[mask == 0].sum()) <= 1e-9
        assert abs(p1 - diag[mask == 1].sum()) <= 1e-9
        assert abs((p0 + p1) - 1) <= 1e-9


def _mixed_state(seed, n):
    c = random_circuit(np.random.default_rng(seed), n, 20,
                       with_measures=False)
    c.ops.append(gates.bit_flip(0, 0.2))
    return run(c).rho


def test_measure_prob_allocates_nothing():
    rho = _mixed_state(3, 4)
    before = rho.manager.node_count
    for q in range(4):
        measure_prob(rho, q)
    assert rho.manager.node_count == before


def _projected(rho, q, b):
    # P rho P for P = |b><b| on qubit q, formed as collapse forms it: by
    # the one-target walk with P as its one Kraus operator.
    projector = SimpleNamespace(targets=(q,), controls=(), qubits=(q,),
                                kraus=(np.diag([1.0 - b, b]),))
    return circuit.apply_one_target(rho, projector)


@pytest.mark.parametrize("seed", range(6))
def test_measure_prob_is_bitwise_the_projected_traces(seed):
    # The walk sums what the traces of the projected diagrams sum, only
    # scaled by powers of two at other levels, which is exact; so the p
    # that collapse divides by is the projection's own trace.
    rho = _mixed_state(seed, 5)
    for q in range(5):
        want = tuple(trace(_projected(rho, q, b)).real for b in (0, 1))
        got = measure_prob(rho, q)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_collapse_plus_state():
    mgr = new_manager(1)
    plus = outer_product(from_dense(mgr, np.array([1, 1]) / math.sqrt(2)))
    out = collapse(plus, 0, 0)
    assert out.root is basis_rho(mgr, 1, 0).root
    p0, p1 = measure_prob(out, 0)
    assert abs(p0 - 1) <= 1e-12 and p1 == 0.0


def test_collapse_bell_correlates():
    mgr = new_manager(2)
    bell = np.zeros((4, 4))
    for r in (0, 3):
        for c in (0, 3):
            bell[r, c] = 0.5
    out = collapse(from_dense(mgr, bell), 0, 1)
    assert out.root is basis_rho(mgr, 2, 0b11).root
    assert measure_prob(out, 1) == (0.0, 1.0)


def test_collapse_impossible_outcome_raises():
    mgr = new_manager(1)
    with pytest.raises(SimulationError):
        collapse(basis_rho(mgr, 1, 0), 0, 1)


def test_collapse_checks_the_qubit_as_measure_prob_does():
    # A qubit past the state's width but inside the manager's, or a
    # negative one, is refused before any diagram is built.
    rho = basis_rho(new_manager(4), 2, 0)
    for q in (2, -1):
        with pytest.raises(ValueError, match=f"qubit {q} out of range"):
            collapse(rho, q, 0)


def test_collapse_onto_probability_zero_allocates_nothing():
    mgr = new_manager(4)
    rho = basis_rho(mgr, 2, 0)
    before = mgr.node_count
    with pytest.raises(SimulationError):
        collapse(rho, 1, 1)
    assert mgr.node_count == before


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       pure=st.booleans())
def test_collapse_matches_the_dense_projection(seed, n, pure):
    # A random pure state, mixed by a bit flip on each qubit unless pure.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    ops = [] if pure else [gates.bit_flip(q, float(rng.uniform(0.05, 0.5)))
                           for q in range(n)]
    rho = run(Circuit(n, ops=ops, initial=AmplitudeInit(tuple(v)))).rho
    dense = to_dense(rho)
    for q in range(n):
        for b in (0, 1):
            if measure_prob(rho, q)[b] <= COLLAPSE_TOL:
                continue
            out = collapse(rho, q, b)
            want = oracle._collapse(dense, q, b, n, 0)
            assert np.max(np.abs(to_dense(out) - want)) <= 1e-12
            assert abs(trace(out) - 1) <= 1e-12


def test_sample_measure_deterministic_cases():
    mgr = new_manager(1)
    for seed in (0, 1, 12345):
        rho = basis_rho(mgr, 1, 1)
        outcome, after, p0, p1 = sample_measure(rho, 0, XorShift64Star(seed))
        assert outcome == 1
        assert after.root is rho.root
        assert (p0, p1) == (0.0, 1.0)


def test_sample_measure_seed_reproducible():
    mgr = new_manager(1)
    plus = outer_product(from_dense(mgr, np.array([1, 1]) / math.sqrt(2)))
    a = sample_measure(plus, 0, XorShift64Star(77))[0]
    b = sample_measure(plus, 0, XorShift64Star(77))[0]
    assert a == b


def test_sample_measure_frequency():
    # one long stream; binomial 4-sigma bounds around one half
    mgr = new_manager(1)
    plus = outer_product(from_dense(mgr, np.array([1, 1]) / math.sqrt(2)))
    rng = XorShift64Star(2024)
    ones = sum(sample_measure(plus, 0, rng)[0] for _ in range(10000))
    assert 4800 <= ones <= 5200


def test_rng_stream_properties():
    assert XorShift64Star(0).next_u64() == XorShift64Star(0).next_u64()
    assert XorShift64Star(0).next_u64() != XorShift64Star(1).next_u64()
    r = XorShift64Star(9)
    for _ in range(1000):
        u = r.uniform()
        assert 0.0 <= u < 1.0


# -- validation --------------------------------------------------------------

def test_validate_rejects_bad_initials():
    with pytest.raises(CircuitError):
        validate(Circuit(0))
    with pytest.raises(CircuitError):
        validate(Circuit(1, initial=BasisInit(2)))
    with pytest.raises(CircuitError):
        validate(Circuit(2, initial=AmplitudeInit((1.0, 0.0))))
    with pytest.raises(CircuitError):
        validate(Circuit(1, initial=MixtureInit(((0.5, 0), (-0.5, 1)))))
    with pytest.raises(CircuitError):
        validate(Circuit(1, initial=MixtureInit(())))


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
@pytest.mark.parametrize("initial", [
    BasisInit(1.5),
    BasisInit(1.0),
    MixtureInit(((1.0, 0.5),)),
    MixtureInit(((0.5, 0), (0.5, 1.0))),
], ids=["basis-fraction", "basis-float", "mix-fraction", "mix-float"])
def test_run_rejects_non_integer_initial_indices(engine, initial):
    # They used to escape as TypeError (quidd) and IndexError (dense).
    with pytest.raises(CircuitError, match="not an integer"):
        engine(Circuit(2, initial=initial))


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
@pytest.mark.parametrize("initial", [
    MixtureInit(((1e308, 0), (1e308, 1))),
    MixtureInit(((math.inf, 0), (1.0, 1))),
    AmplitudeInit((1e200, 1e200)),
    AmplitudeInit((math.inf, 0.0)),
    MixtureInit(((10**400, 0), (1, 1))),
    AmplitudeInit((10**400, 0)),
    MixtureInit((("a", 0), (1, 1))),
    AmplitudeInit(("a", 0)),
], ids=["mix-overflow", "mix-inf", "amp-overflow", "amp-inf",
        "mix-int-overflow", "amp-int-overflow", "mix-not-number",
        "amp-not-number"])
def test_run_rejects_initials_without_finite_scale(engine, initial):
    # Normalizing by an infinite sum or norm would start from a zero state.
    with pytest.raises(CircuitError, match="finite"):
        engine(Circuit(1, initial=initial))


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
def test_run_rejects_too_many_qubits(engine):
    with pytest.raises(CircuitError, match=str(MAX_QUBITS)):
        engine(Circuit(MAX_QUBITS + 1, ops=[gates.h(0)]))


def test_run_at_max_qubits():
    # cnot(n - 1, 0) and the toffoli carry the target's four cells from
    # the top wire down to the last: the walk's longest recursion.
    n = MAX_QUBITS
    c = Circuit(n, ops=[gates.h(0), gates.cnot(0, n - 1),
                        gates.cnot(n - 1, 0), gates.h(n - 2),
                        gates.toffoli(n - 2, n - 1, 0),
                        gates.bit_flip(n - 1, 0.25), Measure(n - 1),
                        PartialTraceOp(0), Measure(n - 2)])
    r = run(c)
    assert r.rho.n_qubits == n - 1
    for rec in r.records:
        assert (rec.p0, rec.p1) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_validate_tracks_width_across_ptrace():
    c = Circuit(3, ops=[PartialTraceOp(0), Measure(2, sample=False)])
    with pytest.raises(CircuitError):
        validate(c)  # only wires 0..1 remain after the trace
    ok = Circuit(3, ops=[PartialTraceOp(0), Measure(1, sample=False)])
    validate(ok)


def test_validate_rejects_ops_after_trace_all():
    c = Circuit(2, ops=[TraceAllOp(), Measure(0, sample=False)])
    with pytest.raises(CircuitError):
        validate(c)


def test_validate_assert_prob_fields():
    with pytest.raises(CircuitError):
        validate(Circuit(1, ops=[AssertProb(0, 2, 0.5, 1e-9)]))
    with pytest.raises(CircuitError):
        validate(Circuit(1, ops=[AssertProb(0, 1, 1.5, 1e-9)]))
    with pytest.raises(CircuitError):
        validate(Circuit(1, ops=[AssertProb(0, 1, 0.5, -1.0)]))
    with pytest.raises(CircuitError):
        validate(Circuit(1, ops=[AssertProb(0, 1, 0.0, math.nan)]))


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
@pytest.mark.parametrize("ops, step", [
    ([gates.h(0), PartialTraceOp(1.5)], 1),
    ([Measure(0.5)], 0),
    ([Measure(1.0, sample=True)], 0),
    ([gates.h(1), PrintOp("probs")], 1),
    ([PrintOp("probs", 0.0)], 0),
    ([AssertProb(0.0, 0, 1.0, 1e-9)], 0),
], ids=["ptrace", "measure", "pmeasure", "print-none", "print-float",
        "assert-prob"])
def test_run_rejects_non_integer_wires(engine, ops, step):
    with pytest.raises(CircuitError, match="not an integer") as err:
        engine(Circuit(2, ops=ops))
    assert err.value.step == step


def test_validate_unknown_op():
    with pytest.raises(CircuitError):
        validate(Circuit(1, ops=["mystery"]))


# -- initial states ----------------------------------------------------------

def test_initial_density_basis():
    mgr = new_manager(2)
    rho = initial_density(mgr, Circuit(2, initial=BasisInit(0b10)))
    assert rho.root is basis_rho(mgr, 2, 0b10).root


def test_initial_density_amplitudes_normalize():
    mgr = new_manager(1)
    rho = initial_density(
        mgr, Circuit(1, initial=AmplitudeInit((3.0, 4.0))))
    assert np.allclose(to_dense(rho),
                       np.array([[9, 12], [12, 16]]) / 25, atol=1e-12)


def test_initial_density_mixture_normalizes():
    mgr = new_manager(1)
    rho = initial_density(
        mgr, Circuit(1, initial=MixtureInit(((3.0, 0), (1.0, 1)))))
    assert np.allclose(to_dense(rho), np.diag([0.75, 0.25]), atol=1e-12)
    assert abs(trace(rho) - 1) <= 1e-12


# -- execution ---------------------------------------------------------------

def test_run_empty_circuit():
    r = run(Circuit(3))
    assert r.rho.n_qubits == 3
    assert abs(trace(r.rho) - 1) <= 1e-12
    assert r.rho.root is basis_rho(r.rho.manager, 3, 0).root
    assert r.stats.engine == "quidd"
    assert r.stats.peak_nodes == r.rho.node_count


def test_run_bell_matches_oracle():
    c = Circuit(2, ops=[gates.h(0), gates.cnot(0, 1)])
    r = run(c)
    d = oracle.dense_run(c)
    assert np.max(np.abs(to_dense(r.rho) - d.rho)) <= 1e-12


def test_run_trace_and_positivity_invariant():
    rng = np.random.default_rng(54)
    for trial in range(5):
        n = int(rng.integers(1, 5))
        c = Circuit(n)
        for _ in range(15):
            q = int(rng.integers(0, n))
            pick = int(rng.integers(0, 4))
            if pick == 0:
                c.ops.append(gates.h(q))
            elif pick == 1:
                c.ops.append(gates.t(q))
            elif pick == 2 and n > 1:
                c.ops.append(gates.cnot(q, (q + 1) % n))
            else:
                c.ops.append(gates.s(q))
        r = run(c)
        d = to_dense(r.rho)
        assert abs(np.trace(d) - 1) <= 1e-9
        assert np.max(np.abs(d - d.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(d).min() >= -1e-8


def test_run_basis_closure():
    """Classical-reversible gates keep a basis state a basis projector."""
    rng = np.random.default_rng(55)
    n = 4
    c = Circuit(n, initial=BasisInit(0b1010))
    value = 0b1010
    bits = [(value >> (n - 1 - k)) & 1 for k in range(n)]
    for _ in range(25):
        pick = int(rng.integers(0, 3))
        qs = rng.permutation(n)
        a, b, t = int(qs[0]), int(qs[1]), int(qs[2])
        if pick == 0:
            c.ops.append(gates.x(a))
            bits[a] ^= 1
        elif pick == 1:
            c.ops.append(gates.cnot(a, b))
            bits[b] ^= bits[a]
        else:
            c.ops.append(gates.toffoli(a, b, t))
            bits[t] ^= bits[a] & bits[b]
    r = run(c)
    index = int("".join(map(str, bits)), 2)
    assert r.rho.root is basis_rho(r.rho.manager, n, index).root
    assert r.rho.node_count == 2 * n + 2  # one nonzero path
    # every intermediate state was equally compact
    assert r.stats.peak_nodes == 2 * n + 2


def test_run_measure_probe_does_not_collapse_or_draw():
    c1 = Circuit(1, ops=[gates.h(0), Measure(0, sample=False),
                         Measure(0, sample=True)])
    c2 = Circuit(1, ops=[gates.h(0), Measure(0, sample=True)])
    for seed in range(6):
        r1 = run(c1, seed=seed)
        r2 = run(c2, seed=seed)
        probe, sampled = r1.records
        assert probe.outcome is None
        assert abs(probe.p0 - 0.5) <= 1e-12
        # the probe consumed no randomness
        assert sampled.outcome == r2.records[0].outcome


def test_run_pmeasure_collapses_state():
    c = Circuit(1, ops=[gates.h(0), Measure(0, sample=True)])
    r = run(c, seed=5)
    out = r.records[0].outcome
    assert measure_prob(r.rho, 0)[out] == 1.0


def test_run_ptrace_and_trace_all():
    c = Circuit(2, ops=[gates.h(0), gates.cnot(0, 1), PartialTraceOp(1)])
    r = run(c)
    assert r.rho.n_qubits == 1
    assert np.allclose(to_dense(r.rho), np.diag([0.5, 0.5]), atol=1e-12)

    c2 = Circuit(2, ops=[gates.h(0), TraceAllOp()])
    r2 = run(c2)
    assert r2.rho.n_qubits == 0
    assert any("trace_all: 1" in text for _, text in r2.stats.prints)


def test_trace_all_computes_the_trace_once(monkeypatch):
    # The 0-qubit state is the terminal of the trace the step prints, as
    # in the dense engine; no qubit is traced out one at a time.
    calls = []
    real = linalg.partial_trace
    monkeypatch.setattr(linalg, "partial_trace",
                        lambda *args: calls.append(args) or real(*args))
    c = Circuit(3, initial=MixtureInit(((0.25, 1), (0.75, 6))),
                ops=[gates.h(0), gates.bit_flip(2, 0.125), TraceAllOp()])
    r = run(c)
    assert calls == []
    assert r.rho.n_qubits == 0
    assert to_dense(r.rho) == pytest.approx(oracle.dense_run(c).rho)


def test_run_assert_prob():
    ok = Circuit(1, ops=[gates.h(0), AssertProb(0, 1, 0.5, 1e-9)])
    run(ok)
    bad = Circuit(1, ops=[gates.h(0), AssertProb(0, 1, 0.75, 1e-9)])
    with pytest.raises(SimulationError) as err:
        run(bad)
    assert "assert_prob" in str(err.value)


def test_run_print_ops():
    c = Circuit(1, ops=[gates.h(0), PrintOp("probs", 0), PrintOp("trace"),
                        PrintOp("nodes")])
    r = run(c)
    texts = [text for _, text in r.stats.prints]
    assert any(t.startswith("probs 0: p0=0.5") for t in texts)
    assert any(t.startswith("trace: 1") for t in texts)
    assert any(t.startswith("nodes: ") for t in texts)


def test_run_step_stats_and_peak():
    c = Circuit(2, ops=[gates.h(0), gates.cnot(0, 1)])
    r = run(c)
    assert [st.step for st in r.stats.steps] == [0, 1]
    assert r.stats.steps[0].op == "gate h [0]"
    assert r.stats.peak_nodes >= max(st.nodes for st in r.stats.steps)
    assert r.stats.manager_nodes >= r.stats.peak_nodes


@pytest.mark.parametrize("engine, module, builder", [
    (run, circuit, "initial_density"),
    (oracle.dense_run, oracle, "_initial_rho")])
def test_run_wall_ms_covers_initial_state(engine, module, builder,
                                          monkeypatch):
    build = getattr(module, builder)

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(module, builder, slow_build)
    stats = engine(Circuit(1, ops=[gates.h(0)])).stats
    assert stats.wall_ms >= 50


def _steane_with_bit_flip():
    # The Steane demo with a bit-flip channel where the demo injects its
    # X error, as perfbench's qec_noise workload builds it: besides
    # gates, a channel walk, a sum of Kraus terms, two-gate layers and
    # partial traces.
    circuit = gen_code_demo("steane7")
    with_error = gen_code_demo("steane7", ("x", 3)).ops
    at = next(i for i, (a, b) in enumerate(zip(circuit.ops, with_error))
              if a.key() != b.key())
    circuit.ops.insert(at, gates.bit_flip(3, 0.2))
    return circuit


@pytest.mark.parametrize("make", [lambda: gen_grover(6),
                                  _steane_with_bit_flip],
                         ids=["grover", "steane7-bit-flip"])
def test_run_frees_manager_without_cyclic_collector(make):
    circuit = make()
    gc.disable()
    try:
        r = run(circuit)
        w = weakref.ref(r.rho.manager)
        del r
        assert w() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("make, counts, floor", [
    (lambda: gen_grover(7, 5), (10275, 50), None),
    (lambda: gen_rc_adder(7, 9), (324, 34), None),
    (lambda: gen_code_demo("steane7", ("x", 3)), (7524, 625), None),
    (lambda: gen_code_demo("steane7", ("x", 3)), (7632, 625), 3 * 2**11),
    (_steane_with_bit_flip, (9855, 850), None),
], ids=["grover", "adder", "steane7", "steane7-collecting",
        "steane7-bit-flip"])
def test_allocation_counts_pinned(make, counts, floor, monkeypatch):
    # A kernel change that allocates other nodes, or in another number,
    # moves these counts even when every result stays correct. Without
    # collection (no floor) the kernel allocates what it always did; a
    # collection drops computed results that may then be allocated
    # again. The collecting case lowers the floor below its allocations,
    # so that it still collects, once.
    monkeypatch.setattr(dd, "FLOOR", sys.maxsize if floor is None else floor)
    collections = []
    collect = dd.DDManager.collect

    def counting(self, roots):
        collections.append(roots)
        return collect(self, roots)

    monkeypatch.setattr(dd.DDManager, "collect", counting)
    checked = []  # the checked constructor walks a whole root
    init = linalg.QuIDD.__init__

    def checking(self, *args):
        checked.append(args)
        init(self, *args)

    c = make()
    monkeypatch.setattr(linalg.QuIDD, "__init__", checking)
    stats = run(c).stats
    assert (stats.manager_nodes, stats.peak_nodes) == counts
    assert checked == []  # a run checks no root it built itself
    assert len(collections) == (floor is not None)


def test_run_counts_each_state_once(monkeypatch):
    # A step that leaves the root as it was reuses the last count, so no
    # two counts in a row see the same root. The adder's assert_prob
    # steps and its toffolis that never fire leave the root as it was.
    roots = []

    def counting(root):
        roots.append(root)
        return dd.count_nodes(root)

    monkeypatch.setattr(circuit, "count_nodes", counting)
    stats = run(gen_rc_adder(7, 9)).stats
    assert all(a is not b for a, b in zip(roots, roots[1:]))
    assert len(roots) < 1 + sum(s.nodes is not None for s in stats.steps)


def test_run_deterministic_for_seed():
    c = Circuit(2, ops=[gates.h(0), gates.h(1),
                        Measure(0, sample=True), Measure(1, sample=True)])
    a = run(c, seed=99)
    b = run(c, seed=99)
    assert [r.outcome for r in a.records] == [r.outcome for r in b.records]


def test_run_wraps_errors_with_step():
    # a failed assert_prob surfaces as SimulationError at its step
    c = Circuit(1, ops=[AssertProb(0, 1, 1.0, 1e-12)])
    with pytest.raises(SimulationError) as err:
        run(c)
    assert err.value.step == 0


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
def test_failed_collapse_reports_its_step(engine, monkeypatch):
    # Both outcomes have probability 0.5; with the tolerance above that,
    # the sampled collapse fails, and both engines name step 2.
    monkeypatch.setattr(circuit, "COLLAPSE_TOL", 0.6)
    monkeypatch.setattr(oracle, "COLLAPSE_TOL", 0.6)
    c = Circuit(1, ops=[gates.h(0), gates.x(0), Measure(0, sample=True)])
    with pytest.raises(SimulationError) as err:
        engine(c, seed=1)
    assert err.value.step == 2
    assert str(err.value) == ("step 2: collapse onto outcome 0 of qubit 0 "
                              "has probability 0.5")


@pytest.mark.parametrize("weight", [1e-13, 5e-13, 1e-12, 2e-12])
def test_tiny_mixture_weights_agree_across_engines(weight):
    # Weights around ZERO_EPS: the diagram engine may round a term to zero
    # where the dense engine keeps it, but samples and states must agree.
    c = Circuit(2, initial=MixtureInit(((1.0, 0b00), (weight, 0b11))),
                ops=[gates.h(0), Measure(0, sample=True), gates.cnot(0, 1),
                     Measure(1, sample=False)])
    for seed in range(10):
        mine = run(c, seed=seed)
        ref = oracle.dense_run(c, seed=seed)
        assert [r.outcome for r in mine.records] == \
            [r.outcome for r in ref.records], f"seed {seed}"
        for a, b in zip(mine.records, ref.records):
            assert abs(a.p0 - b.p0) <= 1e-9 and abs(a.p1 - b.p1) <= 1e-9
        assert np.max(np.abs(to_dense(mine.rho) - ref.rho)) <= 1e-9


@pytest.mark.parametrize("engine", [run, oracle.dense_run],
                         ids=["quidd", "dense"])
@pytest.mark.parametrize("bit", [0, 1])
def test_pmeasure_never_collapses_onto_probability_zero(engine, bit):
    c = Circuit(1, initial=BasisInit(bit), ops=[Measure(0, sample=True)])
    for seed in range(50):
        (record,) = engine(c, seed=seed).records
        assert record.outcome == bit, f"seed {seed}"
