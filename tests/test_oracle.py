"""Dense reference engine and the engine-vs-engine differential battery."""

import math

import numpy as np
import pytest
from helpers import random_circuit

from quiddsim import gates, oracle
from quiddsim.circuit import (
    AssertProb,
    BasisInit,
    Circuit,
    Measure,
    PartialTraceOp,
    PrintOp,
    SimulationError,
    TraceAllOp,
    run,
)
from quiddsim.linalg import to_dense
from quiddsim.oracle import (
    CapExceeded,
    dense_multiply,
    dense_outer,
    dense_ptrace,
    dense_run,
)

H2 = gates.PAYLOADS["h"]

BELL = np.zeros((4, 4))
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


# -- elementary helpers ------------------------------------------------------

def test_dense_multiply_hh_is_identity():
    assert np.allclose(dense_multiply(H2, H2), np.eye(2), atol=1e-15)


def test_dense_outer_basis_zero():
    assert np.array_equal(dense_outer(np.array([1.0, 0.0])), np.diag([1, 0]))


def test_dense_outer_accepts_column():
    v = np.array([[1.0], [1.0]]) / math.sqrt(2)
    assert np.allclose(dense_outer(v), np.full((2, 2), 0.5), atol=1e-15)


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
