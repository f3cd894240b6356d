"""Shared builders for the test suite."""

import numpy as np

from quiddsim import gates
from quiddsim.circuit import (
    AmplitudeInit,
    BasisInit,
    Circuit,
    Measure,
    MixtureInit,
)

ONE_QUBIT = (gates.h, gates.x, gates.y, gates.z, gates.s, gates.t)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_initial(rng, n_qubits):
    dim = 1 << n_qubits
    pick = int(rng.integers(0, 4))
    if pick == 0:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return AmplitudeInit(tuple(v))
    if pick == 1:
        terms = tuple(
            (float(rng.uniform(0.1, 1.0)), int(rng.integers(0, dim)))
            for _ in range(int(rng.integers(1, 4))))
        return MixtureInit(terms)
    return BasisInit(int(rng.integers(0, dim)))


def random_op(rng, n_qubits, with_measures=True):
    """One draw from the whole gate library plus channels and measures."""
    roll = rng.random()
    qs = [int(q) for q in rng.permutation(n_qubits)]
    if roll < 0.55 or n_qubits < 2:
        kind = int(rng.integers(0, len(ONE_QUBIT) + 1))
        if kind == len(ONE_QUBIT):
            return gates.u1(qs[0], random_unitary(rng, 2))
        return ONE_QUBIT[kind](qs[0])
    if roll < 0.80:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return gates.cnot(qs[0], qs[1])
        if kind == 1:
            return gates.swap(qs[0], qs[1])
        if kind == 2 and n_qubits >= 3:
            return gates.toffoli(qs[0], qs[1], qs[2])
        pol = int(rng.integers(0, 2))
        return gates.controlled(
            gates.u1(qs[1], random_unitary(rng, 2)), [(qs[0], pol)])
    if roll < 0.92:
        p = float(rng.uniform(0.0, 0.3))
        make = gates.bit_flip if rng.random() < 0.5 else gates.phase_flip
        return make(qs[0], p)
    if with_measures:
        return Measure(qs[0], sample=bool(rng.random() < 0.4))
    return gates.h(qs[0])


def random_circuit(rng, n_qubits, depth, with_measures=True):
    """Draw from the whole gate library plus channels and measures."""
    c = Circuit(n_qubits, initial=random_initial(rng, n_qubits))
    for _ in range(depth):
        c.ops.append(random_op(rng, n_qubits, with_measures))
    return c


def random_fanout_circuit(rng, n_qubits, depth, with_measures=True):
    """Fan-out runs (library X gates on distinct targets that share one
    control tuple) between draws of ``random_op``. A run may be followed
    by an op that ends it although it shares the run's controls: an X on
    a target the run already has, an H, or a ``u1`` whose matrix equals
    X."""
    c = Circuit(n_qubits, initial=random_initial(rng, n_qubits))
    x = gates.PAYLOADS["x"]
    for _ in range(depth):
        if n_qubits < 3 or rng.random() < 0.4:
            c.ops.append(random_op(rng, n_qubits, with_measures))
            continue
        qs = [int(q) for q in rng.permutation(n_qubits)]
        k = int(rng.integers(1, min(3, n_qubits - 2) + 1))
        controls = tuple((q, int(rng.integers(0, 2))) for q in qs[:k])
        targets = qs[k:k + int(rng.integers(2, n_qubits - k + 1))]
        c.ops.extend(gates.Gate("x", (t,), x, controls) for t in targets)
        end = int(rng.integers(0, 4))
        if end == 1:
            c.ops.append(gates.Gate("x", (targets[0],), x, controls))
        elif end == 2:
            c.ops.append(gates.controlled(gates.h(targets[0]), controls))
        elif end == 3:
            c.ops.append(gates.Gate("u1", (targets[-1],), x.copy(), controls))
    return c


def random_parity_circuit(rng, n_qubits, depth, with_measures=True):
    """Parity runs (library X gates onto one target, each with one
    control of either polarity, controls repeated at will) between draws
    of ``random_op``. A run may be followed by an op on its target that
    ends it: a Toffoli, an H, or a ``u1`` whose matrix equals X."""
    c = Circuit(n_qubits, initial=random_initial(rng, n_qubits))
    x = gates.PAYLOADS["x"]
    for _ in range(depth):
        if n_qubits < 3 or rng.random() < 0.4:
            c.ops.append(random_op(rng, n_qubits, with_measures))
            continue
        qs = [int(q) for q in rng.permutation(n_qubits)]
        target, others = qs[0], qs[1:]
        for _ in range(int(rng.integers(2, 6))):
            control = (int(rng.choice(others)), int(rng.integers(0, 2)))
            c.ops.append(gates.Gate("x", (target,), x, (control,)))
        end = int(rng.integers(0, 4))
        if end == 1:
            c.ops.append(gates.toffoli(others[0], others[1], target))
        elif end == 2:
            c.ops.append(gates.h(target))
        elif end == 3:
            c.ops.append(gates.Gate("u1", (target,), x.copy(),
                                    ((others[0], 1),)))
    return c


def _free_op(rng, free):
    """A random gate or channel that acts on the ``free`` wires only."""
    qs = [int(q) for q in rng.permutation(free)]
    roll = rng.random()
    if roll < 0.5:
        kind = int(rng.integers(0, len(ONE_QUBIT) + 1))
        if kind == len(ONE_QUBIT):
            return gates.u1(qs[0], random_unitary(rng, 2))
        return ONE_QUBIT[kind](qs[0])
    if roll < 0.8:
        return gates.cnot(qs[0], qs[1])
    make = gates.bit_flip if rng.random() < 0.5 else gates.phase_flip
    return make(qs[0], float(rng.uniform(0.0, 0.3)))


def random_silent_circuit(rng, n_qubits, depth):
    """Controlled gates that mostly fire nowhere on the state.

    ``n_qubits >= 3``. 1-3 wires are collapsed: the initial state, pure
    or mixed, holds each at a drawn bit, and a sampled measurement of
    each collapses it with certainty. The other (free) wires carry a
    random state, which ops on free wires alone change. Then ``depth``
    draws: lone controlled gates (a library payload or a ``u1``),
    fan-out runs and parity runs whose every term has a literal on a
    collapsed wire that asks for the other bit, so they fire only on
    the discarded outcome, and ops on the free wires. About one draw in
    six fires instead: its literals on collapsed wires ask for their
    bits, and its targets are free wires.
    """
    k = int(rng.integers(1, min(3, n_qubits - 2) + 1))
    wires = [int(q) for q in rng.permutation(n_qubits)]
    bits = {q: int(rng.integers(0, 2)) for q in wires[:k]}
    free = wires[k:]
    dim = 1 << n_qubits
    place = 0  # the collapsed wires' bits, in index position
    for q, b in bits.items():
        place |= b << (n_qubits - 1 - q)
    fixed = sum(1 << (n_qubits - 1 - q) for q in bits)
    allowed = [i for i in range(dim) if i & fixed == place]
    if rng.random() < 0.5:
        amps = np.zeros(dim, dtype=complex)
        amps[allowed] = (rng.normal(size=len(allowed))
                         + 1j * rng.normal(size=len(allowed)))
        initial = AmplitudeInit(tuple(amps))
    else:
        initial = MixtureInit(tuple(
            (float(rng.uniform(0.1, 1.0)), int(rng.choice(allowed)))
            for _ in range(int(rng.integers(1, 4)))))
    c = Circuit(n_qubits, initial=initial)
    c.ops += [_free_op(rng, free) for _ in range(int(rng.integers(0, 4)))]
    c.ops += [Measure(q, sample=True) for q in bits]
    x = gates.PAYLOADS["x"]

    def term(fires, avoid=(), size=None):
        # One collapsed literal, for its bit if ``fires`` else against
        # it, then up to two more on other wires; free ones if it fires.
        q = int(rng.choice([w for w in bits if w not in avoid]))
        lits = [(q, bits[q] if fires else 1 - bits[q])]
        pool = [w for w in (free if fires else wires)
                if w != q and w not in avoid]
        more = int(rng.integers(0, 3)) if size is None else size - 1
        for w in rng.permutation(pool)[:more]:
            lits.append((int(w), int(rng.integers(0, 2))))
        return tuple(lits)

    for _ in range(depth):
        roll = rng.random()
        fires = rng.random() < 1 / 6
        if roll < 0.2:
            c.ops.append(_free_op(rng, free))
        elif roll < 0.5:
            controls = term(fires)
            used = {q for q, _ in controls}
            pool = [w for w in (free if fires else wires) if w not in used]
            if not pool:
                continue
            target = int(rng.choice(pool))
            kind = int(rng.integers(0, len(ONE_QUBIT) + 1))
            inner = (gates.u1(target, random_unitary(rng, 2))
                     if kind == len(ONE_QUBIT) else ONE_QUBIT[kind](target))
            c.ops.append(gates.controlled(inner, controls))
        elif roll < 0.75:
            controls = term(fires)
            used = {q for q, _ in controls}
            pool = [w for w in (free if fires else wires) if w not in used]
            targets = rng.permutation(pool)[:int(rng.integers(2, 4))]
            if len(targets) < 2:
                continue
            c.ops += [gates.Gate("x", (int(t),), x, controls)
                      for t in targets]
        else:
            target = int(rng.choice(free if fires else wires))
            if not [w for w in bits if w != target]:
                continue
            run = [term(False, (target,), 1)
                   for _ in range(int(rng.integers(2, 5)))]
            if fires:
                run[int(rng.integers(0, len(run)))] = term(
                    True, (target,), 1)
            c.ops += [gates.Gate("x", (target,), x, lits) for lits in run]
    return c
