"""Collection of dead nodes between the steps of a run.

A run that collects after every step must give the same results, bit for
bit, as one that never collects: terminals are never collected, so every
value keeps its cell claimant. Node numbering and allocation counts are
the only things a collection may change.
"""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_circuit
from quiddsim import circuit, dd, gates
from quiddsim.circuit import Circuit, Measure, PartialTraceOp, PrintOp, TraceAllOp, run
from quiddsim.dd import DDManager
from quiddsim.lang import interpret, parse
from quiddsim.linalg import to_dense

SCRIPTS = sorted((pathlib.Path(__file__).parent / "scripts").glob("*.qpd"))


def observe(c, seed, collect: bool):
    """What a run reports, and how often it collected. ``collect``
    collects after every step; otherwise the run never collects."""
    calls = []
    real = DDManager.collect

    def counted(self, roots):
        calls.append(None)
        return real(self, roots)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DDManager, "collect", counted)
        mp.setattr(dd, "FLOOR", 0 if collect else sys.maxsize)
        mp.setattr(dd, "K", 0)
        r = run(c, seed=seed)
    seen = (to_dense(r.rho).tobytes(), r.records, r.stats.prints,
            [s.nodes for s in r.stats.steps])
    return seen, len(calls)


def assert_exact(c, seed):
    always, collections = observe(c, seed, collect=True)
    never, none = observe(c, seed, collect=False)
    assert (collections, none) == (len(c.ops), 0)
    assert always == never


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_collection_is_exact_on_scripts(script, seed):
    assert_exact(interpret(parse(script.read_text())), seed)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       depth=st.integers(0, 8))
def test_collection_is_exact_on_generated_circuits(seed, n, depth):
    """Gates, channels and measurements, a partial trace, more of them
    on the narrower state, probes, then a trace over every wire."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, depth)
    c.ops.append(PartialTraceOp(int(rng.integers(0, n))))
    c.ops += random_circuit(rng, n - 1, depth).ops
    c.ops += [Measure(0, sample=True), PrintOp("probs", 0), PrintOp("trace"),
              PrintOp("nodes"), TraceAllOp(), PrintOp("trace")]
    assert_exact(c, seed)


def clifford_rounds(n, rounds):
    """H on every wire, a ring of CNOTs and S on the even wires, repeated.
    Stabilizer states take few distinct values, so the terminals, which
    are never collected, stay few while the run allocates on."""
    c = Circuit(n)
    for r in range(rounds):
        c.ops += [gates.h(q) for q in range(n)]
        c.ops += [gates.cnot(q, (q + 1 + r % (n - 1)) % n) for q in range(n)]
        c.ops += [gates.s(q) for q in range(0, n, 2)]
    return c


def test_unique_table_stays_bounded(monkeypatch):
    # Not Grover: each of its iterations makes new amplitudes, so what a
    # collection keeps is mostly terminals, and the table tracks their
    # number rather than the allocations.
    managers, kept, checks, handed = [], [0], [], []
    new_manager, collect, describe = (
        circuit.new_manager, DDManager.collect, circuit.describe)

    def recorded(n):
        managers.append(new_manager(n))
        return managers[-1]

    def collecting(self, roots):
        handed.append(list(roots))
        kept.append(collect(self, handed[-1]))
        return kept[-1]

    def describing(op):  # run describes every step after its collection
        checks.append((managers[0].table_size,
                       max(dd.FLOOR, dd.K * kept[-1])))
        return describe(op)

    monkeypatch.setattr(circuit, "new_manager", recorded)
    monkeypatch.setattr(DDManager, "collect", collecting)
    monkeypatch.setattr(circuit, "describe", describing)
    stats = run(clifford_rounds(8, 6)).stats
    assert len(checks) == 120  # every step
    assert len(kept) > 2  # it collected more than once
    assert all(len(roots) == 1 for roots in handed)  # the state alone
    assert all(size <= bound for size, bound in checks)
    # Every bound here is the floor. Pinned like the allocation counts of
    # test_allocation_counts_pinned: the run allocates about four times
    # the largest table, and a kernel that allocates other nodes, or in
    # another number, moves both.
    assert (max(size for size, _ in checks), stats.manager_nodes) == (
        16184, 65537)
