"""Gate/channel construction and validation."""

import math
import warnings

import numpy as np
import pytest

from quiddsim import gates
from quiddsim.gates import Channel, Gate, PAYLOADS, UNITARY_TOL


def test_payloads_are_unitary():
    for name, m in PAYLOADS.items():
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12), name


@pytest.mark.parametrize("make, checked", [
    (lambda: gates.cnot(0, 1), False),
    (lambda: gates.toffoli(0, 1, 2), False),
    (lambda: gates.h(0), False),
    (lambda: gates.swap(0, 1), False),
    (lambda: gates.controlled(gates.h(0), [(1, 0), (2, 1)]), False),
    (lambda: gates.u1(0, PAYLOADS["x"].copy()), True),
], ids=["cnot", "toffoli", "h", "swap", "controlled-h", "u1-copy"])
def test_library_payloads_skip_the_unitarity_check(make, checked,
                                                   monkeypatch):
    calls = []
    real = gates._identity_deviation

    def spy(matrices):
        calls.append(matrices)
        return real(matrices)

    monkeypatch.setattr(gates, "_identity_deviation", spy)
    make()
    assert bool(calls) == checked


def test_library_payloads_are_read_only():
    with pytest.raises(ValueError):
        PAYLOADS["x"][0, 0] = 1
    with pytest.raises(ValueError):
        gates.swap(0, 1).matrix[0, 0] = 0
    assert np.array_equal(PAYLOADS["x"], [[0, 1], [1, 0]])


def test_named_constructors():
    g = gates.h(3)
    assert g.name == "h" and g.targets == (3,) and g.controls == ()
    assert np.allclose(g.matrix, PAYLOADS["h"])
    assert gates.gate("y", 0).name == "y"
    sw = gates.swap(1, 4)
    assert sw.targets == (1, 4)
    assert sw.matrix.shape == (4, 4)


def test_gate_name_validation():
    with pytest.raises(ValueError):
        gates.gate("q", 0)
    with pytest.raises(ValueError):
        gates.gate("h", 0, 1)  # single-target gate
    with pytest.raises(ValueError):
        gates.gate("swap", 0)


@pytest.mark.parametrize("make", [
    lambda q: gates.h(q),
    lambda q: gates.cnot(q, 0),
    lambda q: gates.swap(0, q),
    lambda q: gates.bit_flip(q, 0.25),
    lambda q: gates.controlled(gates.x(0), [(q, 1)]),
], ids=["h", "cnot-control", "swap", "bitflip", "controlled"])
def test_gates_take_only_integer_wires(make):
    with pytest.raises(TypeError):
        make(1.5)
    with pytest.raises(TypeError):
        make(1.0)
    op = make(np.int64(1))  # numpy integers are integers
    assert 1 in op.qubits
    assert all(type(q) is int for q in op.qubits)


def test_cnot_and_toffoli_are_controlled_x():
    c = gates.cnot(0, 2)
    assert c.controls == ((0, 1),) and c.targets == (2,)
    assert np.array_equal(c.matrix, PAYLOADS["x"])
    tof = gates.toffoli(0, 1, 2)
    assert tof.controls == ((0, 1), (1, 1))
    assert tof.qubits == (0, 1, 2)


def test_controlled_merges_and_keeps_polarity():
    g = gates.controlled(gates.x(2), [(0, 0), (1, 1)])
    assert g.controls == ((0, 0), (1, 1))
    g2 = gates.controlled(gates.cnot(0, 2), [(1, 0)])
    assert g2.controls == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        gates.controlled(gates.x(2), [(0, 2)])  # bad polarity


def test_polarities_are_integers_zero_or_one():
    with pytest.raises(ValueError):  # was truncated to a polarity-0 control
        Gate("x", (1,), PAYLOADS["x"], ((0, 0.5),))
    with pytest.raises(TypeError):  # as a float wire is
        Gate("x", (1,), PAYLOADS["x"], ((0, 1.0),))
    g = Gate("x", (1,), PAYLOADS["x"], ((0, np.int64(1)),))
    assert g.controls == ((0, 1),) and type(g.controls[0][1]) is int


def test_u1_accepts_any_unitary():
    theta = 0.37
    m = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    g = gates.u1(1, m)
    assert g.name == "u1"
    assert np.allclose(g.matrix, m)


def test_u1_rejects_non_unitary():
    with pytest.raises(ValueError):
        gates.u1(0, np.array([[1, 0], [0, 2]]))
    with pytest.raises(ValueError):
        gates.u1(0, np.ones((2, 3)))


NON_FINITE = [
    np.array([[math.nan, 0], [0, 1]]),
    np.array([[math.inf, 0], [0, 1]]),
    # finite, but the products overflow to inf and then to nan
    np.array([[1e200, 1e200], [1e200, -1e200]]),
]
MAKERS = {
    "u1": lambda m: gates.u1(0, m),
    "controlled": lambda m: Gate("u", (1,), m, ((0, 1),)),
    "kraus": lambda m: gates.kraus_channel((0,), [m]),
}


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["nan", "inf", "huge"])
@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_non_finite_payloads_are_rejected_without_warning(make, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="deviation inf"):
            make(matrix)


def test_gate_overlap_validation():
    with pytest.raises(ValueError):
        Gate("x", (0, 0), np.eye(4))
    with pytest.raises(ValueError):
        Gate("x", (1,), PAYLOADS["x"], ((1, 1),))  # control is target
    with pytest.raises(ValueError):
        Gate("x", (2,), PAYLOADS["x"], ((0, 1), (0, 0)))  # duplicate control


def test_gate_payload_shape_must_match_targets():
    with pytest.raises(ValueError):
        Gate("u", (0, 1), PAYLOADS["x"])  # 2x2 payload for two targets


def test_gate_key_distinguishes_everything():
    a = gates.h(0).key()
    b = gates.h(1).key()
    c = gates.x(0).key()
    d = gates.controlled(gates.h(0), [(1, 1)]).key()
    assert len({a, b, c, d}) == 4
    assert gates.h(0).key() == gates.h(0).key()


def test_bit_flip_channel_shape():
    ch = gates.bit_flip(0, 0.25)
    assert ch.kind == "bitflip" and ch.p == 0.25
    k0, k1 = ch.kraus
    assert np.allclose(k0, math.sqrt(0.75) * np.eye(2))
    assert np.allclose(k1, math.sqrt(0.25) * PAYLOADS["x"])


def test_phase_flip_channel_shape():
    ch = gates.phase_flip(1, 0.5)
    assert ch.kind == "phaseflip"
    k0, k1 = ch.kraus
    assert np.allclose(k1, math.sqrt(0.5) * PAYLOADS["z"])


def test_channel_probability_range():
    for bad in (-0.1, 1.0001):
        with pytest.raises(ValueError):
            gates.bit_flip(0, bad)
        with pytest.raises(ValueError):
            gates.phase_flip(0, bad)
    # boundaries are legal
    gates.bit_flip(0, 0.0)
    gates.bit_flip(0, 1.0)


def test_kraus_completeness_enforced():
    half = math.sqrt(0.5)
    ok = gates.kraus_channel((0,), [half * np.eye(2),
                                    half * PAYLOADS["x"]])
    assert len(ok.kraus) == 2
    with pytest.raises(ValueError):
        gates.kraus_channel((0,), [np.eye(2), PAYLOADS["x"]])  # sums to 2I
    with pytest.raises(ValueError):
        gates.kraus_channel((0,), [])
    with pytest.raises(ValueError):
        gates.kraus_channel((0, 1), [np.eye(2)])  # wrong dimension


def test_channel_key_and_qubits():
    a = gates.bit_flip(0, 0.25)
    b = gates.bit_flip(0, 0.5)
    assert a.key() != b.key()
    assert a.qubits == (0,)


def test_unitary_tolerance_is_loose_enough_for_float_noise():
    # a unitary computed through a QR factorization carries ~1e-15 error
    rng = np.random.default_rng(42)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    gates.u1(0, q)  # must not raise
    assert UNITARY_TOL >= 1e-12
