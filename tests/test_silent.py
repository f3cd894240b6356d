"""Controlled units whose controls fire nowhere on the state.

``apply_one_target`` and ``apply_fanout`` first test, with
``circuit._silent``, whether every entry of the state whose row or
whose column meets a unit's controls is zero. Then the walk would give
back the state's own root, so they return the state itself and make no
node. The walks take any matrix, so the test must look at rows and
columns apart: the guards below are matrices on which a test of rows
alone, of columns alone or of the diagonal alone would skip the walk
wrongly.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_silent_circuit, random_unitary
from quiddsim import circuit, dd, gates, oracle
from quiddsim.circuit import (
    Circuit,
    MixtureInit,
    _silent,
    apply_fanout,
    apply_one_target,
    run,
)
from quiddsim.linalg import from_dense, new_manager, to_dense

X = gates.PAYLOADS["x"]


def firing(n, terms):
    """Per basis index: whether any of ``terms`` fires on it."""
    index = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=bool)
    for term in terms:
        fires = np.ones(1 << n, dtype=bool)
        for q, p in term:
            fires &= (index >> (n - 1 - q) & 1) == p
        out |= fires
    return out


def dense_silent(rho, term):
    """``_silent``'s answer, read off the dense matrix."""
    dense = to_dense(rho)
    fires = firing(rho.n_qubits, [term])
    return not (dense[fires, :].any() or dense[:, fires].any())


@contextlib.contextmanager
def watching_units():
    """Wraps the two walks as ``run`` calls them. On every controlled
    unit, ``_silent`` must agree with the dense matrix on each term, and
    a unit whose every term is silent must return its state itself and
    allocate nothing. Yields the list of (terms, silent) seen."""
    seen = []
    one, fanout = circuit.apply_one_target, circuit.apply_fanout

    def check(apply, rho, terms, *args):
        answers = [_silent(rho, t) for t in terms]
        assert answers == [dense_silent(rho, t) for t in terms]
        silent = bool(terms) and all(answers)
        before = rho.manager.node_count
        out = apply(rho, *args)
        if silent:
            assert out is rho
            assert rho.manager.node_count == before
        seen.append((terms, silent))
        return out

    def one_target(rho, op):
        terms = [op.controls] if op.controls else []
        return check(one, rho, terms, op)

    def fan(rho, terms, targets):
        return check(fanout, rho, list(terms), terms, targets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "apply_one_target", one_target)
        mp.setattr(circuit, "apply_fanout", fan)
        yield seen


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6),
       depth=st.integers(1, 10))
def test_silent_unit_returns_the_state(seed, n, depth):
    """On the states of ``random_silent_circuit``, every silent unit
    gives back ``rho`` itself, so its root, and allocates no node."""
    c = random_silent_circuit(np.random.default_rng(seed), n, depth)
    with watching_units():
        run(c, seed=seed)


def test_silent_circuits_agree_with_dense_oracle():
    rng = np.random.default_rng(1618)
    with watching_units() as seen:
        for _ in range(60):
            n = int(rng.integers(3, 7))
            c = random_silent_circuit(rng, n, int(rng.integers(1, 12)))
            seed = int(rng.integers(0, 2**31))
            mine, ref = run(c, seed=seed), oracle.dense_run(c, seed=seed)
            assert np.abs(to_dense(mine.rho) - ref.rho).max() <= 1e-9
            assert [(r.step, r.qubit, r.outcome) for r in mine.records] == \
                [(r.step, r.qubit, r.outcome) for r in ref.records]
            for a, b in zip(mine.records, ref.records):
                assert abs(a.p0 - b.p0) <= 1e-9
    silent = [s for _, s in seen]
    assert sum(silent) > 100 and silent.count(False) > 20
    assert sum(s and len(t) > 1 for t, s in seen) > 20  # parity runs


def test_silent_unit_makes_no_node(monkeypatch):
    c = Circuit(3, initial=MixtureInit(((1.0, 0b010), (2.0, 0b011))),
                ops=[gates.h(2)])
    rho = run(c).rho
    made = []

    def making(self, *args):
        made.append(args)
        raise AssertionError("a silent unit made a node")

    monkeypatch.setattr(dd.DDManager, "_mk", making)
    monkeypatch.setattr(dd.DDManager, "mk_internal", making)
    assert apply_one_target(rho, gates.controlled(gates.h(2), [(0, 1)])) \
        is rho
    assert apply_one_target(rho, gates.toffoli(1, 0, 2)) is rho
    assert apply_fanout(rho, [((0, 1),)], (1, 2)) is rho
    assert apply_fanout(rho, [((0, 1),), ((1, 0),)], (2,)) is rho
    assert made == []


# -- guards: matrices on which a one-sided or diagonal test is wrong --------

def dense_unitary(n, terms, targets, payload):
    """The unit's n-qubit unitary: ``payload`` on each target where an
    odd number of terms fire (one term: where it fires), built over
    basis indices by numpy alone."""
    dim = 1 << n
    fires = np.zeros(dim, dtype=int)
    for term in terms:
        fires += firing(n, [term])
    u = np.eye(dim, dtype=complex)
    for t in targets:
        bit = 1 << (n - 1 - t)
        step = np.eye(dim, dtype=complex)
        for i in range(dim):
            if fires[i] % 2 and not i & bit:
                j = i | bit
                step[np.ix_([i, j], [i, j])] = payload
        u = step @ u
    return u


def guard_matrix(rng, n, terms, kind):
    """A random n-qubit matrix, not positive semidefinite, that is zero
    where ``kind`` says, given the rows and columns the terms fire on."""
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    fires = firing(n, terms)
    if kind == "rows":  # firing rows zero, firing columns not
        a[fires, :] = 0
    elif kind == "columns":  # its transpose
        a[:, fires] = 0
    else:  # the firing diagonal block zero, the firing off-blocks not
        a[np.ix_(fires, fires)] = 0
    return a


U = random_unitary(np.random.default_rng(4), 2)

UNITS = {
    # name: (terms, targets, payload), applied as run applies them
    "cu-below": ([((0, 1),)], (2,), U),
    "cu-above": ([((2, 0), (1, 1))], (0,), U),
    "fanout": ([((1, 1),)], (0, 2), X),
    "parity": ([((0, 1),), ((2, 0),)], (1,), X),
}


def apply_unit(rho, terms, targets, payload):
    if payload is X:
        return apply_fanout(rho, terms, targets)
    (target,), (controls,) = targets, terms
    return apply_one_target(
        rho, gates.Gate("u1", (target,), payload, controls))


@pytest.mark.parametrize("kind", ["rows", "columns", "diagonal-block"])
@pytest.mark.parametrize("unit", UNITS)
def test_one_sided_zeros_take_the_walk(unit, kind):
    terms, targets, payload = UNITS[unit]
    n = 3
    rng = np.random.default_rng(7)
    a = guard_matrix(rng, n, terms, kind)
    rho = from_dense(new_manager(n), a)
    assert not any(_silent(rho, t) for t in terms)
    got = apply_unit(rho, terms, targets, payload)
    u = dense_unitary(n, terms, targets, payload)
    want = u @ a @ u.conj().T
    assert got is not rho and got.root is not rho.root
    assert np.abs(to_dense(got) - want).max() <= 1e-12
