"""Dense reference engine and the engine-vs-engine differential battery."""

import ast
import pathlib

import numpy as np
import pytest
from helpers import random_circuit, random_unitary

from quiddsim import bench, gates, oracle
from quiddsim.circuit import (
    AssertProb,
    BasisInit,
    Circuit,
    Measure,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    SimulationError,
    TraceAllOp,
    run,
)
from quiddsim.linalg import to_dense
from quiddsim.oracle import (
    CapExceeded,
    dense_ptrace,
    dense_run,
)

H2 = gates.PAYLOADS["h"]

BELL = np.zeros((4, 4))
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


# -- elementary helpers ------------------------------------------------------

def test_dense_ptrace_bell():
    assert np.allclose(dense_ptrace(BELL, 1), np.diag([0.5, 0.5]), atol=1e-15)
    assert np.allclose(dense_ptrace(BELL, 0), np.diag([0.5, 0.5]), atol=1e-15)


def test_dense_ptrace_all_qubits_is_trace():
    rng = np.random.default_rng(60)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    out = rho
    for _ in range(3):
        out = dense_ptrace(out, 0)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(rho)) <= 1e-9


def test_dense_ptrace_validation():
    with pytest.raises(ValueError):
        dense_ptrace(np.eye(3), 0)
    with pytest.raises(ValueError):
        dense_ptrace(np.eye(4), 2)


# -- dense_run ---------------------------------------------------------------

def test_dense_run_bell():
    c = Circuit(2, ops=[gates.h(0), gates.cnot(0, 1)])
    assert np.max(np.abs(dense_run(c).rho - BELL)) <= 1e-15


def test_dense_run_identity_circuit_keeps_projector():
    c = Circuit(2, initial=BasisInit(0b01),
                ops=[gates.u1(0, np.eye(2)), gates.u1(1, np.eye(2))])
    want = np.zeros((4, 4))
    want[1, 1] = 1.0
    assert np.array_equal(dense_run(c).rho, want)


def test_dense_run_cap():
    with pytest.raises(CapExceeded) as err:
        dense_run(Circuit(12))
    assert err.value.n == 12 and err.value.cap == oracle.DENSE_CAP


def test_dense_run_structural_ops():
    c = Circuit(2, ops=[gates.h(0), gates.cnot(0, 1), PartialTraceOp(1)])
    r = dense_run(c)
    assert np.allclose(r.rho, np.diag([0.5, 0.5]), atol=1e-12)

    c2 = Circuit(2, ops=[gates.h(0), TraceAllOp()])
    r2 = dense_run(c2)
    assert r2.rho.shape == (1, 1)
    assert any("trace_all: 1" in text for _, text in r2.stats.prints)


def test_dense_run_assert_and_print():
    ok = Circuit(1, ops=[gates.h(0), AssertProb(0, 0, 0.5, 1e-9),
                         PrintOp("probs", 0), PrintOp("trace")])
    r = dense_run(ok)
    texts = [t for _, t in r.stats.prints]
    assert any(t.startswith("probs 0: p0=0.5") for t in texts)
    assert any(t.startswith("trace: 1") for t in texts)
    with pytest.raises(SimulationError):
        dense_run(Circuit(1, ops=[AssertProb(0, 1, 0.5, 1e-9)]))


def test_dense_run_stats_shape():
    c = Circuit(1, ops=[gates.h(0)])
    r = dense_run(c, seed=3)
    assert r.stats.engine == "dense"
    assert r.stats.seed == 3
    assert r.stats.peak_nodes is None
    assert [st.op for st in r.stats.steps] == ["gate h [0]"]


# -- gate kernel -------------------------------------------------------------

def kron_embedding(g, n):
    """``P (x) u + (I - P) (x) I`` over (controls, targets, rest), with
    ``P`` the projector onto the control pattern, permuted into qubit
    order."""
    controls = [q for q, _ in g.controls]
    order = controls + list(g.targets)
    order += [q for q in range(n) if q not in order]
    p = np.ones((1, 1))
    for _, pol in g.controls:
        p = np.kron(p, np.diag([1 - pol, pol]))
    eye_c = np.eye(len(p))
    eye_t = np.eye(len(g.matrix))
    eye_rest = np.eye(1 << (n - len(controls) - len(g.targets)))
    op = (np.kron(np.kron(p, g.matrix), eye_rest)
          + np.kron(np.kron(eye_c - p, eye_t), eye_rest))
    perm = [order.index(q) for q in range(n)]
    op = op.reshape((2,) * (2 * n)).transpose(perm + [n + a for a in perm])
    return op.reshape((1 << n, 1 << n))


def random_mixed_prep(rng, n):
    """Circuit preparing a random mixed state with coherences."""
    terms = tuple((float(rng.uniform(0.1, 1.0)), int(rng.integers(0, 1 << n)))
                  for _ in range(3))
    ops = [gates.u1(q, random_unitary(rng, 2)) for q in range(n)]
    a, b = (int(q) for q in rng.permutation(n)[:2])
    ops.append(gates.Gate("u2", (a, b), random_unitary(rng, 4)))
    ops.extend(gates.u1(q, random_unitary(rng, 2)) for q in range(n))
    return Circuit(n, ops=ops, initial=MixtureInit(terms))


def test_controlled_gates_match_kron_embedding():
    rng = np.random.default_rng(4242)
    cases = 0
    polarities = set()
    for n in range(2, 7):
        for nt in (1, 2):
            for nc in range(min(3, n - nt) + 1):
                qs = [int(q) for q in rng.permutation(n)]
                targets, rest = qs[:nt], qs[nt:]
                if nt == 1:
                    inner = gates.u1(targets[0], random_unitary(rng, 2))
                else:
                    inner = gates.swap(*targets)
                controls = [(q, int(rng.integers(0, 2))) for q in rest[:nc]]
                polarities.update(pol for _, pol in controls)
                g = gates.controlled(inner, controls)
                prep = random_mixed_prep(rng, n)
                rho = dense_run(prep).rho
                u = kron_embedding(g, n)
                want = u @ rho @ u.conj().T
                prep.ops.append(g)
                got = dense_run(prep).rho
                assert np.max(np.abs(got - want)) <= 1e-12, (n, g)
                cases += 1
    assert cases == 31 and polarities == {0, 1}


def ten_wire_steane():
    """The Steane code's encoder, bit-flip syndrome and three-control
    decoder: the ops of ``steane7`` on its first ten wires."""
    ops = [op for op in bench.gen_code_demo("steane7", ("x", 2)).ops
           if isinstance(op, gates.Gate) and max(op.qubits) < 10]
    return Circuit(10, ops=ops)


@pytest.mark.parametrize("circuit", [ten_wire_steane(), bench.gen_grover(7)],
                         ids=["steane", "grover7"])
def test_dense_kernel_never_forms_an_operator_wider_than_targets(
        circuit, monkeypatch):
    widest = max(len(op.controls) for op in circuit.ops)
    assert widest >= 3
    shapes = []
    apply_axes = oracle._apply_axes

    def spy(tensor, op, axes):
        shapes.append(op.shape)
        return apply_axes(tensor, op, axes)

    monkeypatch.setattr(oracle, "_apply_axes", spy)
    dense_run(circuit)
    assert len(shapes) == 2 * len(circuit.ops)
    dim = 1 << max(len(op.targets) for op in circuit.ops)
    assert max(shapes) <= (dim, dim)


def test_oracle_takes_only_the_ir_from_the_diagram_side():
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("quiddsim"), alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # ``from . import x`` takes modules
                raise AssertionError(
                    f"module import {[a.name for a in node.names]}")
            module = node.module.rpartition(".")[2]
            imported.setdefault(module, set()).update(
                a.name for a in node.names)
    assert "dd" not in imported
    assert imported["linalg"] == {"DENSE_CAP"}
    # Not ``run``, ``apply_*``, ``build_operator`` or ``_embed_operator``.
    ir = {
        "Gate", "Channel", "Measure", "PartialTraceOp", "TraceAllOp",
        "AssertProb", "PrintOp", "BasisInit", "AmplitudeInit",
        "MixtureInit", "Circuit", "MeasurementRecord", "StepStat",
        "RunStats", "RunResult", "CircuitError", "SimulationError",
        "validate", "describe", "format_value", "COLLAPSE_TOL",
    }
    assert imported["circuit"] <= ir, imported["circuit"] - ir


# -- engine agreement --------------------------------------------------------

def test_engines_agree_on_sampled_records():
    c = Circuit(3, ops=[
        gates.h(0), gates.h(1), gates.cnot(1, 2),
        Measure(0, sample=True), Measure(2, sample=True),
        Measure(1, sample=False),
    ])
    for seed in range(8):
        a = run(c, seed=seed)
        b = dense_run(c, seed=seed)
        assert [r.outcome for r in a.records] == \
            [r.outcome for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert abs(ra.p0 - rb.p0) <= 1e-9


def test_differential_battery():
    """100 random circuits, both engines, final states within 1e-9."""
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 31))
        c = random_circuit(rng, n, depth)
        seed = int(rng.integers(0, 2**31))
        mine = run(c, seed=seed)
        ref = dense_run(c, seed=seed)
        assert [r.outcome for r in mine.records] == \
            [r.outcome for r in ref.records], f"trial {trial}"
        delta = float(np.max(np.abs(to_dense(mine.rho) - ref.rho)))
        worst = max(worst, delta)
        assert delta <= 1e-9, f"trial {trial}: |delta| = {delta:.3e}"
    assert worst <= 1e-9
