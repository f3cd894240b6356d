"""Controlled X runs, applied by ``run`` as one walk over the state
(``circuit.apply_fanout``): fan-out runs, library X gates on distinct
targets that share one control tuple, and parity runs, library X gates
onto one target that each have one control."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    random_circuit,
    random_fanout_circuit,
    random_parity_circuit,
)
from quiddsim import circuit, gates, linalg, oracle
from quiddsim.circuit import (
    MAX_QUBITS,
    Circuit,
    Measure,
    MixtureInit,
    apply_fanout,
    apply_one_target,
    run,
)
from quiddsim.linalg import to_dense

X = gates.PAYLOADS["x"]


def cx(controls, target):
    return gates.Gate("x", (target,), X, tuple(controls))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7),
       depth=st.integers(0, 4), data=st.data())
def test_fanout_walk_gives_the_gates_root(seed, n, depth, data):
    """One walk gives the very node that walking the run's gates one by
    one gives. The state is pure or mixed: a random initial state (a
    vector, a basis state or a mixture) and a few random ops, channels
    included; 1-3 controls of either polarity and 2-4 targets above,
    between and below them."""
    rng = np.random.default_rng(seed)
    rho = run(random_circuit(rng, n, depth, with_measures=False)).rho
    k = data.draw(st.integers(1, min(3, n - 2)))
    m = data.draw(st.integers(2, min(4, n - k)))
    wires = [int(q) for q in rng.permutation(n)]
    controls = tuple((q, int(rng.integers(0, 2))) for q in wires[:k])
    targets = wires[k:k + m]
    want = rho
    for t in targets:
        want = apply_one_target(want, cx(controls, t))
    assert apply_fanout(rho, [controls], targets).root is want.root


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7),
       depth=st.integers(0, 4), k=st.integers(2, 5))
def test_parity_walk_gives_the_gates_root(seed, n, depth, k):
    """One walk gives the very node that walking the run's CNOTs one by
    one gives, on the same kind of states as above: k controls of either
    polarity, repeats allowed, and the target above, between or below
    them."""
    rng = np.random.default_rng(seed)
    rho = run(random_circuit(rng, n, depth, with_measures=False)).rho
    target = int(rng.integers(0, n))
    others = [q for q in range(n) if q != target]
    controls = [(int(rng.choice(others)), int(rng.integers(0, 2)))
                for _ in range(k)]
    want = rho
    for c in controls:
        want = apply_one_target(want, cx([c], target))
    got = apply_fanout(rho, [(c,) for c in controls], (target,))
    assert got.root is want.root


def _units(ops):
    """The op lists ``run`` applies as one unit each."""
    units, i = [], 0
    while i < len(ops):
        length = circuit._unit_length(ops, i)
        units.append(ops[i:i + length])
        i += length
    return units


def test_run_ends_where_the_rule_ends_it():
    own = ((0, 1),)
    ops = [cx(own, 1), cx(own, 2),
           cx(((0, 0),), 3),  # other controls
           cx(((0, 0),), 1), cx(((0, 0),), 1),  # a repeated target
           cx(own, 2), cx(own, 3),
           gates.controlled(gates.h(1), own),  # another payload
           cx(own, 2), gates.Gate("u1", (3,), X.copy(), own)]
    assert [len(u) for u in _units(ops)] == [2, 2, 1, 2, 1, 1, 1]


def test_parity_run_ends_where_the_rule_ends_it():
    ops = [cx([(0, 1)], 3), cx([(1, 0)], 3),
           cx([(2, 1)], 4),  # another target
           cx([(0, 1)], 3), cx([(1, 1)], 3),
           gates.toffoli(0, 1, 3),  # two controls
           cx([(0, 1)], 3), cx([(2, 1)], 3),
           gates.controlled(gates.h(3), [(1, 1)]),  # another payload
           cx([(0, 1)], 3), cx([(2, 1)], 3),
           gates.Gate("u1", (3,), X.copy(), ((1, 1),)),  # a u1 equal to X
           cx([(0, 1)], 3), cx([(2, 1)], 3), Measure(3),
           cx([(0, 1)], 3), cx([(2, 0)], 3), gates.bit_flip(3, 0.1),
           cx([(0, 1)], 3), cx([(0, 1)], 3), cx([(0, 1)], 3)]
    assert [len(u) for u in _units(ops)] == \
        [2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 3]


def test_repeated_control_fuses_and_gives_back_the_root():
    c = Circuit(3, initial=MixtureInit(((1.0, 0b000), (2.0, 0b110))),
                ops=[gates.h(0), gates.h(2)])
    rho = run(c).rho
    c.ops += [cx([(0, 1)], 1), cx([(0, 1)], 1)]
    assert [len(u) for u in _units(c.ops)] == [2, 2]
    assert apply_fanout(rho, [((0, 1),), ((0, 1),)], (1,)).root is rho.root
    steps = run(c).stats.steps
    assert [s.nodes is None for s in steps[2:]] == [True, False]
    assert steps[3].nodes == steps[1].nodes


def test_u1_equal_to_x_is_not_fused_and_gives_the_same_state():
    # The run rule tests the payload by identity, as Gate does for its
    # unitarity check: a user matrix equal to X starts no run.
    c = Circuit(4, initial=MixtureInit(((1.0, 0b1000), (2.0, 0b1101))),
                ops=[gates.h(0), cx([(0, 1)], 1),
                     gates.Gate("u1", (2,), X.copy(), ((0, 1),)),
                     cx([(0, 1)], 3)])
    fused = Circuit(c.n_qubits, c.ops[:2] + [cx([(0, 1)], 2)] + c.ops[3:],
                    c.initial)
    mine, lib = run(c), run(fused)
    assert [s.nodes is None for s in mine.stats.steps] == [False] * 4
    assert [s.nodes is None for s in lib.stats.steps] == \
        [False, True, True, False]
    assert np.array_equal(to_dense(mine.rho), to_dense(lib.rho))


def test_only_runs_take_the_fanout_walk(monkeypatch):
    # A lone controlled X stays on apply_one_target, a controlled swap on
    # the operator path and a Toffoli pair onto one target on two lone
    # walks; a fan-out run of two X gates and a parity run take the walk.
    walked = []
    fanout = circuit.apply_fanout

    def recording(rho, terms, targets):
        walked.append((list(terms), list(targets)))
        return fanout(rho, terms, targets)

    monkeypatch.setattr(circuit, "apply_fanout", recording)
    c = Circuit(4, initial=MixtureInit(((1.0, 0b0100), (3.0, 0b0011))),
                ops=[gates.h(0), cx([(0, 1)], 1),
                     gates.controlled(gates.swap(1, 3), [(0, 1)]),
                     cx([(0, 1)], 2), cx([(0, 1)], 3),
                     gates.toffoli(0, 1, 2), gates.toffoli(0, 3, 2),
                     cx([(0, 1)], 2), cx([(3, 0)], 2)])
    r = run(c)
    assert walked == [([((0, 1),)], [2, 3]),
                      ([((0, 1),), ((3, 0),)], [2])]
    assert np.abs(to_dense(r.rho) - oracle.dense_run(c).rho).max() <= 1e-12


def test_steps_inside_a_run_record_no_count():
    c = Circuit(4, ops=[gates.h(3), cx([(3, 0)], 0), cx([(3, 0)], 2),
                        cx([(3, 0)], 1), Measure(1)])
    steps = run(c).stats.steps
    assert [(s.nodes, s.wall_ms) for s in steps[1:3]] == [(None, 0.0)] * 2
    assert steps[3].nodes is not None and steps[3].wall_ms > 0
    assert steps[4].nodes == steps[3].nodes


def test_uncontrolled_x_gates_still_multiply(monkeypatch):
    calls = []
    multiply = linalg.matrix_multiply

    def counting(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(linalg, "matrix_multiply", counting)
    r = run(Circuit(3, ops=[gates.x(0), gates.x(2), gates.x(1)]))
    assert calls
    assert to_dense(r.rho)[7, 7] == 1


@pytest.mark.parametrize("controls, target", [
    ([(0, 1), (1, 0)], MAX_QUBITS - 1),
    ([(MAX_QUBITS - 1, 1), (MAX_QUBITS - 2, 0)], 0),
], ids=["target-at-bottom", "target-on-top"])
def test_parity_run_at_max_qubits(controls, target):
    # With the target at the bottom the walk carries one node and both
    # sides' parities down to it; with the target on top it carries four
    # cells all the way down.
    n = MAX_QUBITS
    ops = [gates.h(q) for q, _ in controls]
    ops += [cx([c], target) for c in controls] + [Measure(target)]
    r = run(Circuit(n, ops=ops))
    assert [s.nodes is None for s in r.stats.steps[2:4]] == [True, False]
    (rec,) = r.records
    assert (rec.p0, rec.p1) == pytest.approx((0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize("controls, targets", [
    (((0, 1),), (MAX_QUBITS - 2, MAX_QUBITS - 1)),
    (((MAX_QUBITS - 1, 1),), (0, 1)),
], ids=["control-on-top", "control-at-bottom"])
def test_fanout_at_max_qubits(controls, targets):
    # The walk descends one level per call, as the lone gate walk does;
    # with the control at the bottom it carries four cells all the way.
    n = MAX_QUBITS
    (c, _), = controls
    ops = [gates.h(c)] + [cx(controls, t) for t in targets]
    r = run(Circuit(n, ops=ops + [Measure(t) for t in targets]))
    assert [s.nodes is None for s in r.stats.steps[1:3]] == [True, False]
    for rec in r.records:
        assert (rec.p0, rec.p1) == pytest.approx((0.5, 0.5), abs=1e-12)


def _x_runs_agreeing_with_dense_oracle(draw, rng):
    """Runs 60 circuits from ``draw`` on both engines and checks that
    they agree, <= 1e-9, with the same records; returns the units of two
    or more controlled X gates in them."""
    runs = []
    for _ in range(60):
        n = int(rng.integers(3, 7))
        c = draw(rng, n, int(rng.integers(1, 12)))
        seed = int(rng.integers(0, 2**31))
        mine, ref = run(c, seed=seed), oracle.dense_run(c, seed=seed)
        assert np.abs(to_dense(mine.rho) - ref.rho).max() <= 1e-9
        assert [(r.step, r.qubit, r.outcome) for r in mine.records] == \
            [(r.step, r.qubit, r.outcome) for r in ref.records]
        runs += [u for u in _units(c.ops) if len(u) > 1 and u[0].controls]
    return runs


def test_fanout_circuits_agree_with_dense_oracle():
    """Circuits dense in fan-out runs and the ops that end them."""
    runs = _x_runs_agreeing_with_dense_oracle(
        random_fanout_circuit, np.random.default_rng(2718))
    assert len(runs) > 60


def test_parity_circuits_agree_with_dense_oracle():
    """Circuits dense in parity runs and the ops that end them."""
    runs = _x_runs_agreeing_with_dense_oracle(
        random_parity_circuit, np.random.default_rng(3141))
    assert sum(u[0].targets == u[1].targets for u in runs) > 60


def test_fanout_rejects_bad_wires():
    rho = run(Circuit(3)).rho
    for terms, targets in [([], (1, 2)), ([()], (1, 2)), ([((0, 1),)], ()),
                           ([((0, 1),)], (1, 1)), ([((0, 1),)], (0, 2)),
                           ([((0, 1), (0, 0))], (1,)),
                           ([((1, 1),), ((0, 1),)], (1,))]:
        with pytest.raises(ValueError):
            apply_fanout(rho, terms, targets)
    with pytest.raises(circuit.CircuitError, match="out of range"):
        apply_fanout(rho, [((0, 1),)], (1, 3))
    with pytest.raises(circuit.CircuitError, match="out of range"):
        apply_fanout(rho, [((0, 1),), ((3, 0),)], (1,))
