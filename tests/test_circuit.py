"""Circuit IR, operator embedding, channels, measurement, execution."""

import gc
import math
import time
import weakref

import numpy as np
import pytest

from quiddsim import circuit, gates, linalg, oracle
from quiddsim._rng import XorShift64Star
from quiddsim.bench import gen_grover
from quiddsim.circuit import (
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


# -- channels ----------------------------------------------------------------

def _channel_ops(mgr, ch, n):
    from quiddsim.circuit import _embed_operator
    return [_embed_operator(mgr, k, ch.targets, (), n) for k in ch.kraus]


def test_bitflip_p0_is_noop_edge():
    mgr = new_manager(1)
    rho = apply_gate(basis_rho(mgr, 1, 0), build_operator(mgr, gates.h(0), 1))
    out = apply_channel(rho, _channel_ops(mgr, gates.bit_flip(0, 0.0), 1))
    assert out.root is rho.root


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


def test_run_frees_manager_without_cyclic_collector():
    gc.disable()
    try:
        r = run(gen_grover(6))
        w = weakref.ref(r.rho.manager)
        del r
        assert w() is None
    finally:
        gc.enable()


def test_run_deterministic_for_seed():
    c = Circuit(2, ops=[gates.h(0), gates.h(1),
                        Measure(0, sample=True), Measure(1, sample=True)])
    a = run(c, seed=99)
    b = run(c, seed=99)
    assert [r.outcome for r in a.records] == [r.outcome for r in b.records]


def test_run_wraps_errors_with_step():
    # collapse onto an impossible branch surfaces as SimulationError
    c = Circuit(1, ops=[AssertProb(0, 1, 1.0, 1e-12)])
    with pytest.raises(SimulationError):
        run(c)
