"""Gate and channel definitions.

Gates carry an explicit payload unitary on their target qubits plus an
optional list of (qubit, polarity) controls; polarity 1 fires on |1>,
polarity 0 on |0>. Payload index bits follow the target list order with
the first target most significant. Channels are Kraus-operator lists over
their targets; the built-in bit/phase flip channels are just convenience
constructors for the corresponding two-operator sets.

Both engines apply a gate as a one-operator channel: ``Gate.kraus`` is
``(matrix,)`` and ``Channel.controls`` is ``()``, so every gate and
channel is ``targets``, ``controls`` and a Kraus list.

Validation happens at construction: payloads must be finite and
unitary within 1e-9 (channels: the completeness sum within 1e-9), target
and control sets must be disjoint and duplicate-free. The library
payloads (``PAYLOADS`` and the swap matrix) are read-only arrays, and a
gate that carries one of them itself, not a copy, skips the unitarity
check. Qubit range checks against a concrete circuit width happen later,
at circuit validation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNITARY_TOL",
    "Gate",
    "Channel",
    "gate",
    "h",
    "x",
    "y",
    "z",
    "s",
    "t",
    "u1",
    "cnot",
    "toffoli",
    "swap",
    "controlled",
    "bit_flip",
    "phase_flip",
    "kraus_channel",
    "PAYLOADS",
]

UNITARY_TOL = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)

PAYLOADS = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}

_SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

# Read-only, so that a gate carrying one of them is known to be unitary.
_LIBRARY = (*PAYLOADS.values(), _SWAP)
for _m in _LIBRARY:
    _m.flags.writeable = False
del _m


def _identity_deviation(matrices) -> float:
    """Largest entry of ``|sum(k^H k) - I|``: the deviation of a payload
    from unitarity, or of a Kraus set from completeness. A non-finite
    entry, or a product beyond float range, makes it ``inf``; numpy's
    warnings about them are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(k.conj().T @ k for k in matrices)
        err = float(np.abs(total - np.eye(len(total))).max())
    return err if math.isfinite(err) else math.inf


def _polarity(p) -> int:
    """A control polarity: 0 or 1 as an integer; 0.5 is a ValueError
    and a float 1.0 a TypeError, as a float wire is."""
    if p not in (0, 1):
        raise ValueError("control polarity must be 0 or 1")
    return operator.index(p)


@dataclass(eq=False)
class Gate:
    """A unitary applied to ``targets``, gated by ``controls``."""

    name: str
    targets: tuple[int, ...]
    matrix: np.ndarray
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        self.targets = tuple(operator.index(q) for q in self.targets)
        self.controls = tuple((operator.index(q), _polarity(p))
                              for q, p in self.controls)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        control_qubits = [q for q, _ in self.controls]
        if len(set(control_qubits)) != len(control_qubits):
            raise ValueError("duplicate control qubits")
        if set(control_qubits) & set(self.targets):
            raise ValueError("control and target qubits overlap")
        if self.matrix.shape != (1 << len(self.targets),) * 2:
            raise ValueError(
                f"payload {self.matrix.shape} does not match "
                f"{len(self.targets)} target(s)")
        if any(self.matrix is m for m in _LIBRARY):
            return
        err = _identity_deviation([self.matrix])
        if err > UNITARY_TOL:
            raise ValueError(f"payload is not unitary (deviation {err:.3g})")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.controls) + self.targets

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return (self.matrix,)

    def key(self):
        return ("gate", self.name, self.targets, self.controls,
                self.matrix.tobytes())

    def __repr__(self):
        ctrl = f" controls={list(self.controls)}" if self.controls else ""
        return f"<Gate {self.name} targets={list(self.targets)}{ctrl}>"


@dataclass(eq=False)
class Channel:
    """A Kraus-operator channel acting on ``targets``."""

    kind: str
    targets: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]
    p: float | None = None
    controls = ()  # not a field: a channel acts unconditionally

    def __post_init__(self):
        self.targets = tuple(operator.index(q) for q in self.targets)
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        self.kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not self.kraus:
            raise ValueError("channel needs at least one Kraus operator")
        dim = 1 << len(self.targets)
        for k in self.kraus:
            if k.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"{len(self.targets)} target(s)")
        err = _identity_deviation(self.kraus)
        if err > UNITARY_TOL:
            raise ValueError(
                f"Kraus operators are not trace-preserving "
                f"(completeness deviation {err:.3g})")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets

    def key(self):
        return ("channel", self.kind, self.targets,
                tuple(k.tobytes() for k in self.kraus))

    def __repr__(self):
        p = f" p={self.p}" if self.p is not None else ""
        return f"<Channel {self.kind} targets={list(self.targets)}{p}>"


# -- gate constructors ------------------------------------------------------

def gate(name: str, *targets: int, controls=()) -> Gate:
    """Library gate by name (h x y z s t swap)."""
    if name in PAYLOADS:
        if len(targets) != 1:
            raise ValueError(f"{name} takes exactly one target")
        return Gate(name, targets, PAYLOADS[name], tuple(controls))
    if name == "swap":
        if len(targets) != 2:
            raise ValueError("swap takes exactly two targets")
        return Gate("swap", targets, _SWAP, tuple(controls))
    raise ValueError(f"unknown gate {name!r}")


def h(q: int) -> Gate:
    return gate("h", q)


def x(q: int) -> Gate:
    return gate("x", q)


def y(q: int) -> Gate:
    return gate("y", q)


def z(q: int) -> Gate:
    return gate("z", q)


def s(q: int) -> Gate:
    return gate("s", q)


def t(q: int) -> Gate:
    return gate("t", q)


def u1(q: int, matrix) -> Gate:
    """Arbitrary single-qubit unitary."""
    return Gate("u1", (q,), matrix)


def cnot(control: int, target: int) -> Gate:
    return Gate("x", (target,), PAYLOADS["x"], ((control, 1),))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate("x", (target,), PAYLOADS["x"], ((c1, 1), (c2, 1)))


def swap(a: int, b: int) -> Gate:
    return gate("swap", a, b)


def controlled(inner: Gate, controls) -> Gate:
    """Add controls to an existing gate (merged with any it already has)."""
    return Gate(inner.name, inner.targets, inner.matrix,
                inner.controls + tuple(controls))


# -- channel constructors ---------------------------------------------------

def bit_flip(q: int, p: float) -> Channel:
    """With probability p the qubit is flipped: (1-p) rho + p X rho X."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    kraus = (np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * PAYLOADS["x"])
    return Channel("bitflip", (q,), kraus, p)


def phase_flip(q: int, p: float) -> Channel:
    """With probability p the qubit is dephased: (1-p) rho + p Z rho Z."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    kraus = (np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * PAYLOADS["z"])
    return Channel("phaseflip", (q,), kraus, p)


def kraus_channel(targets, matrices, kind: str = "kraus") -> Channel:
    """General operator-sum channel from explicit Kraus matrices."""
    return Channel(kind, tuple(targets), tuple(matrices))
