"""Circuit representation and the diagram-based density matrix engine.

A circuit is a qubit count, an initial state and a flat list of
operations: gates, channels, measurements (deterministic probes and
sampled collapses), partial traces and diagnostic probes. ``run``
executes it on diagram-backed density matrices; the numpy reference
engine in :mod:`quiddsim.oracle` interprets the same IR independently.

Gates and channels share one model: a gate is a channel with the single
Kraus operator ``U``, and the state becomes ``sum_k K_k rho K_k+``.

A lone gate or channel with one target wire is applied by one walk over
the state, with no operator and no ``K·rho`` intermediate: side flags
above the target and the target's four cofactors below it. A gate's new
cells are its rows, then its columns; a channel's are each one
combination of the four cofactors through its 4×4 superoperator, so no
Kraus term is built on its own (``apply_one_target`` gives the details).
A sampled measurement of outcome ``b`` collapses by the same walk, with
the projector ``|b><b|`` as its one Kraus operator, and divides by the
outcome's probability, which ``measure_prob`` sums in one walk over the
diagonal.

Runs of controlled X gates are applied by one walk over the state,
which carries at most four nodes however long the run is
(``apply_fanout`` gives the details); their length is not capped. A
fan-out run is two or more consecutive library X gates, each on one
target, that share one identical, non-empty control tuple, on distinct
target wires (the CNOT fan-outs of code encoders). A parity run is two
or more consecutive library X gates that each have exactly one control
and share one target (the syndrome bits of a code, the sum bits of an
adder); its controls may change, repeat and have either polarity. Only
the library payload counts, tested by identity: a ``u1`` whose matrix
equals X is applied on its own. Lone gates stay on
``apply_one_target``, which is cheaper for one gate, and so do runs of
gates with two or more controls onto one target, such as an adder's
Toffoli pairs: a lone walk stops at a node as soon as both its flags
clear.

A controlled unit whose controls fire nowhere on the state leaves it as
it is: when every entry whose row meets the controls, and every entry
whose column does, is zero (a syndrome value or an adder's carry that
reads 0), both walks return the state itself. ``_silent`` tests that
in one walk that makes no node, and makes it before any of the unit's
own setup.

Every other unit goes through full n-qubit operator diagrams, built for
each application, and two matrix multiplications per Kraus operator:
layers, ``swap``, two-target ``u1`` gates and channels on more than one
wire. Every operator diagram is built by one walk over the wires that
splits at the targets, follows the firing cell at the controls, scales
by a one-qubit factor's entries at a factor's wire and is identity
elsewhere.

A layer is a run of consecutive uncontrolled one-target gates with
library payloads (``gates.PAYLOADS``, tested by identity) on distinct
wires, at most ``LAYER_WIRES`` of them. It is applied as a
single operator, the tensor product of the payloads with the identity on
the other wires, which the walk builds with one factor per gate (H on n
wires takes 4n nodes), so the run costs two multiplications. Layers keep
the operator because one walk per gate leaves larger intermediate
states: ``run(bench.gen_grover(15))`` peaks at 228 nodes with layers and
at 395 with every gate walked. A ``u1`` is walked on its own: a layer
of generic payloads is an operator of 2^(2k+1)-1 nodes for k gates. A
measurement, probe, trace, channel, ``u1``, controlled or multi-target
gate, a repeated wire or a full layer ends the run. A layer or a run of
X gates takes effect at its last gate; the steps before it report no
node count and no time, as no state exists after them.
"""

from __future__ import annotations

import gc
import numbers
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import dd, linalg
from ._rng import XorShift64Star
from .dd import ADD, LINCOMB, DDManager, Node, count_nodes
from .gates import PAYLOADS, Channel, Gate
from .linalg import MATRIX, QuIDD, new_manager

__all__ = [
    "CircuitError",
    "SimulationError",
    "BasisInit",
    "AmplitudeInit",
    "MixtureInit",
    "Measure",
    "PartialTraceOp",
    "TraceAllOp",
    "AssertProb",
    "PrintOp",
    "Circuit",
    "MeasurementRecord",
    "StepStat",
    "RunStats",
    "RunResult",
    "validate",
    "build_operator",
    "apply_gate",
    "apply_channel",
    "apply_one_target",
    "apply_fanout",
    "measure_prob",
    "collapse",
    "sample_measure",
    "run",
    "describe",
    "format_value",
    "COLLAPSE_TOL",
    "MAX_QUBITS",
    "LAYER_WIRES",
]

# Outcome probabilities at or below this cannot be collapsed onto.
COLLAPSE_TOL = 1e-12
# Widest circuit accepted. The recursive walks descend two levels per
# qubit; under Python's default recursion limit of 1000 a gate, a
# channel, a measurement and a partial trace still run at 480 qubits and
# fail at 500. This leaves room for the callers' own stack frames.
MAX_QUBITS = 400
# Most gates applied as one layer. Wider layers cost accuracy, though
# a layer holds only library payloads: the first 81 steps of a
# 15-qubit Grover search as one layer per run of gates end about 4e-9
# off, because a block sum of the multiply below dd.ZERO_EPS snaps to
# zero and every entry built on it inherits that error.
LAYER_WIRES = 8
# The payloads a unit may carry, recognised by identity (``id``) like the
# library payloads that skip the unitarity check: the library X for a
# run of controlled X gates, any library payload for a layer.
_X_RUN = frozenset((id(PAYLOADS["x"]),))
_LAYER = frozenset(id(m) for m in PAYLOADS.values())


class _StepError(Exception):
    """An error that may belong to one step; ``str()`` leads with it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.message = message
        self.step = step


class CircuitError(_StepError):
    """Structurally invalid circuit (bad ranges, shapes, weights)."""


class SimulationError(_StepError):
    """Runtime failure at a specific step (first failure aborts)."""


# -- initial states ---------------------------------------------------------

@dataclass(frozen=True)
class BasisInit:
    """|index> with qubit 0 the most significant index bit."""
    index: int = 0


@dataclass(frozen=True)
class AmplitudeInit:
    """Explicit state vector; normalized at build time."""
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True)
class MixtureInit:
    """Classical mixture of basis states; weights normalized to sum 1."""
    terms: tuple[tuple[float, int], ...]


# -- non-gate operations ----------------------------------------------------

@dataclass(frozen=True)
class Measure:
    qubit: int
    sample: bool = False  # False: record probabilities only, no collapse


@dataclass(frozen=True)
class PartialTraceOp:
    qubit: int


@dataclass(frozen=True)
class TraceAllOp:
    pass


@dataclass(frozen=True)
class AssertProb:
    qubit: int
    outcome: int
    value: float
    tol: float


@dataclass(frozen=True)
class PrintOp:
    what: str  # "probs" | "trace" | "nodes"
    qubit: int | None = None


@dataclass
class Circuit:
    n_qubits: int
    ops: list = field(default_factory=list)
    initial: object = BasisInit(0)


@dataclass(frozen=True)
class MeasurementRecord:
    step: int
    qubit: int
    outcome: int | None  # None for deterministic probes
    p0: float
    p1: float


@dataclass
class StepStat:
    step: int
    op: str
    nodes: int | None
    wall_ms: float


@dataclass
class RunStats:
    engine: str
    n_qubits: int
    seed: int
    steps: list[StepStat]
    peak_nodes: int | None
    wall_ms: float
    prints: list[tuple[int, str]]
    manager_nodes: int | None = None


@dataclass
class RunResult:
    rho: object
    records: list[MeasurementRecord]
    stats: RunStats


# -- validation -------------------------------------------------------------

def _check_qubit(q: int, n: int, what: str, step: int) -> None:
    if not isinstance(q, numbers.Integral):
        raise CircuitError(f"{what} qubit {q!r} is not an integer", step)
    if not 0 <= q < n:
        raise CircuitError(f"{what} qubit {q} out of range for {n} qubit(s)",
                           step)


def _check_index(index, n: int, what: str) -> None:
    if not isinstance(index, numbers.Integral):
        raise CircuitError(f"{what} {index!r} is not an integer")
    if not 0 <= index < 1 << n:
        raise CircuitError(f"{what} {index} out of range")


def _finite(value, kind, convert, what: str):
    """``convert(value)``, if ``value`` is a ``kind`` number in float
    range."""
    if isinstance(value, kind):
        try:
            return convert(value)
        except OverflowError:
            pass
    # No repr: a huge int has more digits than str() may print.
    raise CircuitError(f"{what} is not a finite number")


def validate(circuit: Circuit) -> None:
    """Static checks; simulates the width changes from partial traces."""
    n = circuit.n_qubits
    if n < 1:
        raise CircuitError("circuit needs at least one qubit")
    if n > MAX_QUBITS:
        raise CircuitError(f"circuit has more than {MAX_QUBITS} qubits")
    init = circuit.initial
    if isinstance(init, BasisInit):
        _check_index(init.index, n, "initial basis index")
    elif isinstance(init, AmplitudeInit):
        if len(init.amplitudes) != 1 << n:
            raise CircuitError(
                f"amplitude list has {len(init.amplitudes)} entries, "
                f"expected {1 << n}")
        amps = [_finite(a, numbers.Complex, complex, "amplitude")
                for a in init.amplitudes]
        with np.errstate(over="ignore"):  # an overflow is reported below
            norm = np.linalg.norm(amps)
        if not np.isfinite(norm):
            raise CircuitError("amplitude list has no finite norm")
        if not norm > 0:
            raise CircuitError("amplitude list has zero norm")
    elif isinstance(init, MixtureInit):
        if not init.terms:
            raise CircuitError("mixture needs at least one term")
        total = 0.0
        for w, index in init.terms:
            w = _finite(w, numbers.Real, float, "mixture weight")
            if w < 0:
                raise CircuitError(f"negative mixture weight {w}")
            _check_index(index, n, "mixture basis index")
            total += w
        if not np.isfinite(total):
            raise CircuitError("mixture weights have no finite sum")
        if not total > 0:
            raise CircuitError("mixture weights sum to zero")
    else:
        raise CircuitError(f"unknown initial state {init!r}")

    for step, op in enumerate(circuit.ops):
        if isinstance(op, (Gate, Channel)):
            qubits = op.qubits
            for q in qubits:
                _check_qubit(q, n, "gate" if isinstance(op, Gate) else "channel",
                             step)
        elif isinstance(op, Measure):
            _check_qubit(op.qubit, n, "measure", step)
        elif isinstance(op, PartialTraceOp):
            _check_qubit(op.qubit, n, "ptrace", step)
            n -= 1
        elif isinstance(op, TraceAllOp):
            n = 0
        elif isinstance(op, AssertProb):
            _check_qubit(op.qubit, n, "assert_prob", step)
            if op.outcome not in (0, 1):
                raise CircuitError("outcome must be 0 or 1", step)
            if not 0.0 <= op.value <= 1.0:
                raise CircuitError(
                    f"probability {op.value} outside [0, 1]", step)
            if not op.tol >= 0:  # also rejects NaN
                raise CircuitError(f"tolerance {op.tol} is not >= 0", step)
        elif isinstance(op, PrintOp):
            if op.what not in ("probs", "trace", "nodes"):
                raise CircuitError(f"unknown print {op.what!r}", step)
            if op.what == "probs":
                _check_qubit(op.qubit, n, "print probs", step)
        else:
            raise CircuitError(f"unknown operation {op!r}", step)


# -- operator construction --------------------------------------------------

def _embed_operator(mgr: DDManager, matrix: np.ndarray, targets, controls,
                    n: int, factors=()) -> QuIDD:
    """n-qubit operator acting as ``matrix`` on the control-matched
    subspace of the targets, as the 2x2 payload of each ``(wire,
    payload)`` in ``factors`` on its wire, and as identity elsewhere.

    One walk down the wires carries the payload row and column bits
    chosen so far (the first target is the most significant): a target
    splits into its four cells, a control continues on the diagonal cell
    of its polarity and puts the identity below on the other one (zero
    off the payload's diagonal), a factor scales the product below by
    each of its entries other than 0 and 1, and any other wire is
    identity. Payload entries are rounded once and claim their terminals
    in row-major order. A control's identity ignores factors, which
    therefore come with an uncontrolled payload only.
    """
    ids = []  # ids[q]: identity on wires q.., for the controls
    if controls:
        ids.append(linalg.identity(mgr, n).root)
        for _ in range(n):
            ids.append(ids[-1].lo.lo)
    zero = mgr.terminal(0.0)
    entries = [[mgr.terminal(v) for v in row] for row in matrix]
    shift = {q: len(targets) - 1 - m for m, q in enumerate(targets)}
    polarity = dict(controls)
    factors = dict(factors)
    cells = ((1, 1), (1, 0), (0, 1), (0, 0))
    mk = mgr._mk

    def walk(q: int, i: int, j: int) -> Node:
        if q == n:
            return entries[i][j]
        b = shift.get(q)
        if b is not None:
            e11, e10, e01, e00 = [walk(q + 1, i | x << b, j | y << b)
                                  for x, y in cells]
        else:
            below = walk(q + 1, i, j)
            e11, e10, e01, e00 = below, zero, zero, below
            if q in polarity:
                other = ids[q + 1] if i == j else zero
                if polarity[q]:
                    e00 = other
                else:
                    e11 = other
            elif q in factors:
                f = factors[q]
                e11, e10, e01, e00 = [mgr._scale(below, complex(f[x, y]))
                                      for x, y in cells]
        c = 2 * q + 1
        return mk(c - 1, mk(c, e11, e10), mk(c, e01, e00))

    root = walk(0, 0, 0)
    del walk
    return linalg._quidd(mgr, root, n, MATRIX)


def _unit_operators(mgr: DDManager, unit: list, n: int) -> list[QuIDD]:
    """Operators of a unit: a lone op's Kraus operators, or a layer's one
    operator with a factor per gate."""
    if len(unit) > 1:
        factors = [(g.targets[0], g.matrix) for g in unit]
        return [_embed_operator(mgr, np.ones((1, 1)), (), (), n, factors)]
    op = unit[0]
    return [_embed_operator(mgr, k, op.targets, op.controls, n)
            for k in op.kraus]


def build_operator(mgr: DDManager, g: Gate, n: int) -> QuIDD:
    """Full n-qubit unitary diagram for a gate."""
    for q in g.qubits:
        if not 0 <= q < n:
            raise CircuitError(f"gate qubit {q} out of range for {n} qubit(s)")
    return _embed_operator(mgr, g.matrix, g.targets, g.controls, n)


def apply_gate(rho: QuIDD, op: QuIDD) -> QuIDD:
    """Conjugate the state with a prebuilt operator: U rho U+."""
    return linalg.matrix_multiply(
        linalg.matrix_multiply(op, rho), linalg.conj_transpose(op))


def apply_channel(rho: QuIDD, operators: list[QuIDD]) -> QuIDD:
    """Operator-sum application over prebuilt Kraus operator diagrams."""
    total = None
    for k in operators:
        term = apply_gate(rho, k)
        total = term if total is None else linalg.add(total, term)
    return total


def _silent(rho: QuIDD, term) -> bool:
    """Whether ``term``, a non-empty tuple of ``(wire, polarity)``
    literals, fires nowhere on ``rho``: every entry whose row meets all
    of the literals, and every entry whose column does, is zero.

    One depth-first walk from the root carries two flags, "row side
    live" and "column side live", as ``apply_one_target``'s walk does: at
    a literal's row level the branch that misses it clears the row flag,
    at its column level the column flag. A branch with both flags clear
    or at the zero node passes; below the last literal's levels a live
    branch passes only at the zero node. A skipped literal level keeps
    the flags, as its matching branch does, and that branch asks for
    more than the other. The walk stops at the first branch that fails,
    visits each ``(node, flags)`` once and makes no node. It tests rows
    and columns apart: a test of the diagonal or of a trace holds only
    for a positive semidefinite state, and the walks take any matrix.
    """
    # The flags as one int, 2·row + col, and per level down to the last
    # literal the masks that its hi and lo branches keep of them.
    last = 2 * max(q for q, _ in term) + 1
    masks = [(3, 3)] * (last + 1)
    for q, p in term:
        masks[2 * q] = (3, 1) if p else (1, 3)
        masks[2 * q + 1] = (3, 2) if p else (2, 3)
    root = rho.root
    if root.value == 0:
        return True
    seen = {root.idx << 2 | 3}
    stack = [(root, 3)]
    while stack:
        x, f = stack.pop()
        lv = x.level
        if lv > last:  # a nonzero node below the literals, a side live
            return False
        mh, ml = masks[lv]
        g = f & mh
        if g:
            y = x.hi
            if y.value != 0:  # internal nodes hold value None
                key = y.idx << 2 | g
                if key not in seen:
                    seen.add(key)
                    stack.append((y, g))
        g = f & ml
        if g:
            y = x.lo
            if y.value != 0:
                key = y.idx << 2 | g
                if key not in seen:
                    seen.add(key)
                    stack.append((y, g))
    return True


def apply_one_target(rho: QuIDD, op) -> QuIDD:
    """``sum_k K~_k rho K~_k+`` for a gate or channel ``op`` with one
    target wire, by one memoized walk over ``rho`` (``K~``: the Kraus
    operator ``K`` on the target where the controls fire, identity
    elsewhere).

    Above the target the walk carries two flags, "row side live" and
    "column side live". At a control's row level the non-firing cofactor
    clears the row flag, at its column level the column flag; a node with
    both flags clear is kept as it is. The target's row and column levels
    split a node into its four cofactors ``x_rc``, which are carried
    together past the controls below the target, with the same flags.
    At the bottom the new cells ``z_ab`` take one of two forms, picked
    once per call from the number of Kraus operators. With one (a gate,
    or ``collapse``'s projector) it gives ``y_ad = K[a][0]·x_0d +
    K[a][1]·x_1d`` if the row side is live, then ``z_ab =
    conj(K[b][0])·y_a0 + conj(K[b][1])·y_a1`` if the column side is, each
    one cached ``LINCOMB`` apply. With more (a channel, which has no
    controls, so both sides are live) it computes the Liouville
    superoperator ``S[ab][rc] = sum_k K_k[a][r]·conj(K_k[b][c])`` once
    and forms ``z_ab = sum_rc S[ab][rc]·x_rc`` from the non-zeros of row
    ``ab``: a lone one is a rebuild, a pair one ``LINCOMB`` apply, and
    more are pairs summed with ``ADD``. A bit or phase flip has at most
    two non-zeros per row, so each cell is one apply and no per-Kraus
    term is built. A unitary keeps the row-then-column form: its ``S``
    can be dense (an ``h`` has 16 non-zeros, 12 applies per quadruple
    against 8). A node that skips a level stands for both of its
    cofactors; a zero block stays zero. A 0 coefficient drops its term
    and a 1 keeps its operand node, so ``x``, ``cnot`` and ``toffoli``
    only permute cofactors, ``collapse``'s projector only zeroes some,
    and they allocate nothing but their result. A gate whose controls
    fire nowhere on ``rho`` (``_silent``) returns ``rho`` itself before
    the walk: every cell the walk would combine is the zero node, so it
    would give back ``rho.root``.
    """
    if len(op.targets) != 1:
        raise ValueError(f"{op!r} does not have exactly one target")
    if op.controls and len(op.kraus) > 1:
        raise ValueError(f"{op!r} is a channel with controls")
    for q in op.qubits:
        if not 0 <= q < rho.n_qubits:
            raise CircuitError(
                f"qubit {q} out of range for {rho.n_qubits} qubit(s)")
    if op.controls and _silent(rho, op.controls):
        return rho
    mgr = rho.manager
    (target,) = op.targets
    rt, ct = 2 * target, 2 * target + 1
    # Each control level with the flags its hi and lo cofactors keep:
    # (level, row_hi, col_hi, row_lo, col_lo). A control's row level
    # clears the row flag where it does not fire, its column level the
    # column flag.
    levels = sorted(
        [(2 * q, p == 1, True, p == 0, True) for q, p in op.controls]
        + [(2 * q + 1, True, p == 1, True, p == 0) for q, p in op.controls])
    above = [c for c in levels if c[0] < rt]
    above.append((rt, True, True, True, True))
    below = [c for c in levels if c[0] > ct]
    mk = mgr._mk
    ap = mgr._apply
    memo: dict = {}
    if len(op.kraus) == 1:
        # The rows of K, then the rows of conj(K).
        (k,) = op.kraus
        r0, r1, c0, c1 = ((complex(row[0]), complex(row[1]))
                          for row in (k[0], k[1], k[0].conj(), k[1].conj()))

        def cells(x00, x01, x10, x11, row, col):
            # The target's new cells: rows by K, then columns by K+.
            if row:
                x00, x10 = ap(x00, x10, LINCOMB, r0), ap(x00, x10, LINCOMB, r1)
                x01, x11 = ap(x01, x11, LINCOMB, r0), ap(x01, x11, LINCOMB, r1)
            if col:
                x00, x01 = ap(x00, x01, LINCOMB, c0), ap(x00, x01, LINCOMB, c1)
                x10, x11 = ap(x10, x11, LINCOMB, c0), ap(x10, x11, LINCOMB, c1)
            return x00, x01, x10, x11
    else:
        # S[ab][rc] = sum_k K_k[a][r]·conj(K_k[b][c]), summed in the
        # order of the Kraus operators. Per cell ab, the non-zeros of its
        # row in pairs: (rc, rc', (S, S')), or (rc, None, S) for the last
        # of an odd count.
        ks = [[[complex(v) for v in row] for row in k] for k in op.kraus]
        quad_bits = ((0, 0), (0, 1), (1, 0), (1, 1))
        plans = []
        for a, b in quad_bits:
            nz = []
            for i, (r, c) in enumerate(quad_bits):
                s = sum((k[a][r] * k[b][c].conjugate() for k in ks), 0j)
                if s != 0:
                    nz.append((i, s))
            plan = [(i, j, (s, t))
                    for (i, s), (j, t) in zip(nz[::2], nz[1::2])]
            if len(nz) % 2:
                plan.append((nz[-1][0], None, nz[-1][1]))
            plans.append(plan)
        scale = mgr._scale

        def cells(x00, x01, x10, x11, row, col):
            # The target's new cells z_ab = sum_rc S[ab][rc]·x_rc: a
            # LINCOMB apply per pair of non-zeros, a rebuild for a lone
            # one, and ADD over the pairs.
            x = (x00, x01, x10, x11)
            out = []
            for plan in plans:
                z = None
                for i, j, s in plan:
                    y = scale(x[i], s) if j is None else ap(x[i], x[j],
                                                           LINCOMB, s)
                    z = y if z is None else ap(z, y, ADD)
                out.append(mgr.terminal(0.0) if z is None else z)
            return out

    # Both walks split nodes inline, without a helper: the split runs for
    # every entry of a walk, and a call per split costs about 8 % of a
    # noisy Steane run.
    def quad(x00, x01, x10, x11, k, row, col):
        # The target's four cells, past the controls below[k:].
        if not (row or col) or (x00 is x01 is x10 is x11
                                and x00.value == 0):
            return x00, x01, x10, x11
        key = (x00.idx, x01.idx, x10.idx, x11.idx, k, row, col)
        r = memo.get(key)
        if r is not None:
            return r
        if k == len(below):
            r = cells(x00, x01, x10, x11, row, col)
        else:
            lv, rh, ch, rl, cl = below[k]
            top = min(x00.level, x01.level, x10.level, x11.level)
            if top < lv:  # a level between: every cell tests it
                lv = top
                rh, ch, rl, cl = row, col, row, col
            else:
                k += 1
                rh, ch, rl, cl = row and rh, col and ch, row and rl, col and cl
            h00, l00 = (x00.hi, x00.lo) if x00.level == lv else (x00, x00)
            h01, l01 = (x01.hi, x01.lo) if x01.level == lv else (x01, x01)
            h10, l10 = (x10.hi, x10.lo) if x10.level == lv else (x10, x10)
            h11, l11 = (x11.hi, x11.lo) if x11.level == lv else (x11, x11)
            h00, h01, h10, h11 = quad(h00, h01, h10, h11, k, rh, ch)
            l00, l01, l10, l11 = quad(l00, l01, l10, l11, k, rl, cl)
            r = (mk(lv, h00, l00), mk(lv, h01, l01),
                 mk(lv, h10, l10), mk(lv, h11, l11))
        memo[key] = r
        return r

    def walk(x: Node, k: int, row: bool, col: bool) -> Node:
        if x.value == 0 or not (row or col):
            return x
        key = (x.idx, k, row, col)
        r = memo.get(key)
        if r is not None:
            return r
        lv, rh, ch, rl, cl = above[k]
        if x.level < lv:
            r = mk(x.level, walk(x.hi, k, row, col), walk(x.lo, k, row, col))
        elif lv == rt:
            hi, lo = (x.hi, x.lo) if x.level == rt else (x, x)
            x11, x10 = (hi.hi, hi.lo) if hi.level == ct else (hi, hi)
            x01, x00 = (lo.hi, lo.lo) if lo.level == ct else (lo, lo)
            z00, z01, z10, z11 = quad(x00, x01, x10, x11, 0, row, col)
            r = mk(rt, mk(ct, z11, z10), mk(ct, z01, z00))
        else:
            hi, lo = (x.hi, x.lo) if x.level == lv else (x, x)
            r = mk(lv, walk(hi, k + 1, row and rh, col and ch),
                   walk(lo, k + 1, row and rl, col and cl))
        memo[key] = r
        return r

    root = walk(rho.root, 0, True, True)
    del walk, quad
    return linalg._quidd(mgr, root, rho.n_qubits, MATRIX)


def apply_fanout(rho: QuIDD, terms, targets) -> QuIDD:
    """``U rho U+`` for ``U`` the X gate on every wire of ``targets``
    where an odd number of ``terms`` fire, identity elsewhere. A term is
    a non-empty tuple of ``(wire, polarity)`` literals and fires where
    all of them hold; no term has a wire twice or a target wire. One
    memoized walk over ``rho`` applies the whole unit. A fan-out is one
    term with many targets; a parity run is one target with a
    one-literal term per CNOT.

    Entry ``(r, c)`` of the result is entry ``(r', c')`` of ``rho``,
    where ``r'`` is ``r`` with the target bits flipped if the terms fire
    an odd number of times on ``r`` (the row side fires), and likewise
    ``c'``. Each side carries a small int: 0 or 1 once its outcome is
    settled (1: it fires), else ``2·mask + parity``, with ``mask`` the
    terms still open and ``parity`` that of the terms fired so far. At
    a control's row level each branch drops the row terms whose literal
    there misses and fires those whose last literal there matches;
    column levels do the same for the column side. Above the first
    target every cell is one node, which the walk carries alone. From
    the first target on, while a side is open, the walk carries the
    state under both outcomes: up to four cells ``y_ab``, where ``a``
    says the row side fires and ``b`` the column side. At a target's row
    level the ``a=1`` cells take swapped children, at its column level
    the ``b=1`` cells. A side that settles keeps the cells of its
    outcome in both of its slots, and a later control of that side is
    an ordinary level. Once both sides are settled, the walk goes on
    over one node, swapping children at the target levels of each side
    that fires. X permutes cofactors and makes no terminal, so the
    result is the node that the gates applied one by one give. A unit
    none of whose terms fires anywhere on ``rho`` (``_silent``) returns
    ``rho`` itself once the arguments are checked, before the move
    tables are built.
    """
    n = rho.n_qubits
    if len(set(targets)) != len(targets):
        raise ValueError("an X unit's targets must be distinct")
    targets = set(targets)
    # Per control wire: its literals, as (term bit, polarity, whether it
    # is the term's last literal).
    literals: dict = {}
    for i, term in enumerate(terms):
        if not term:
            raise ValueError("an X unit's terms need controls")
        bottom = max(q for q, _ in term)
        for q, p in term:
            literals.setdefault(q, []).append((1 << i, p, q == bottom))
        if len({q for q, _ in term}) != len(term):
            raise ValueError("a term's wires must be distinct")
    if not literals or not targets:
        raise ValueError("an X unit needs terms and targets")
    if literals.keys() & targets:
        raise ValueError("a target wire cannot be a control")
    for q in literals.keys() | targets:
        if not 0 <= q < n:
            raise CircuitError(f"qubit {q} out of range for {n} qubit(s)")
    if all(_silent(rho, term) for term in terms):
        return rho
    mgr = rho.manager

    # Per control wire, in order: each open side state that reaches it,
    # mapped to the states below its hi and lo branches. Below a branch
    # the open terms whose literal there misses drop, and those whose
    # last literal there matches fire.
    opened = 2 * ((1 << len(terms)) - 1)  # every term open, parity 0
    moves: dict = {}
    reach = (opened,)
    for q in sorted(literals):
        step = moves[q] = {}
        for s in reach:
            pair = []
            for b in (1, 0):
                mask, parity = s >> 1, s & 1
                for bit, p, last in literals[q]:
                    if mask & bit and (p != b or last):
                        mask ^= bit
                        parity ^= p == b
                pair.append(2 * mask + parity if mask else parity)
            step[s] = tuple(pair)
        reach = {s for pair in step.values() for s in pair if s > 1}
    # The levels the walk treats apart, in order: (level, is_row, moves),
    # with moves None at a target's levels.
    marks = sorted((2 * q + col, not col, moves.get(q))
                   for q in literals.keys() | targets for col in (0, 1))
    first_target = 2 * min(targets)
    # Per settled outcome 2a+b: the levels whose children swap, and the
    # last of them.
    rows = {2 * t for t in targets}
    cols = {2 * t + 1 for t in targets}
    swaps = [(), cols, rows, rows | cols]
    last_target = 2 * max(targets) + 1
    lasts = [-1, last_target, last_target - 1, last_target]
    mk = mgr._mk
    memo: dict = {}
    settled_memo: dict = {}

    def settled(x: Node, m: int) -> Node:
        lv = x.level
        if lv > lasts[m]:
            return x
        key = (x.idx, m)
        r = settled_memo.get(key)
        if r is None:
            if lv in swaps[m]:
                r = mk(lv, settled(x.lo, m), settled(x.hi, m))
            else:
                r = mk(lv, settled(x.hi, m), settled(x.lo, m))
            settled_memo[key] = r
        return r

    def top(x: Node, k: int, rs: int, cs: int) -> Node:
        # One node above the first target, with at least one side open.
        lv = x.level
        if lv > last_target:
            return x
        key = (x.idx, k, rs, cs)
        r = memo.get(key)
        if r is not None:
            return r
        mark, is_row, step = marks[k]
        if lv < mark:
            r = mk(lv, top(x.hi, k, rs, cs), top(x.lo, k, rs, cs))
        elif step is None:  # the first target
            r = walk(x, x, x, x, k, rs, cs)
        else:
            hi, lo = (x.hi, x.lo) if lv == mark else (x, x)
            rh = rl = rs
            ch = cl = cs
            if is_row:
                if rs > 1:
                    rh, rl = step[rs]
            elif cs > 1:
                ch, cl = step[cs]
            r = mk(mark,
                   top(hi, k + 1, rh, ch) if rh > 1 or ch > 1
                   else settled(hi, 2 * rh + ch),
                   top(lo, k + 1, rl, cl) if rl > 1 or cl > 1
                   else settled(lo, 2 * rl + cl))
        memo[key] = r
        return r

    def walk(y00, y01, y10, y11, k, rs, cs) -> Node:
        # The four cells from the first target on, with at least one side
        # open.
        if y00 is y01 is y10 is y11 and y00.level > last_target:
            return y00
        key = (y00.idx, y01.idx, y10.idx, y11.idx, k, rs, cs)
        r = memo.get(key)
        if r is not None:
            return r
        lv, is_row, step = marks[k]
        top_level = min(y00.level, y01.level, y10.level, y11.level)
        if top_level < lv:  # a level between: every cell tests it
            lv, k1 = top_level, k
        else:
            k1 = k + 1
        h00, l00 = (y00.hi, y00.lo) if y00.level == lv else (y00, y00)
        h01, l01 = (y01.hi, y01.lo) if y01.level == lv else (y01, y01)
        h10, l10 = (y10.hi, y10.lo) if y10.level == lv else (y10, y10)
        h11, l11 = (y11.hi, y11.lo) if y11.level == lv else (y11, y11)
        hi = h00, h01, h10, h11
        lo = l00, l01, l10, l11
        rh = rl = rs
        ch = cl = cs
        side = rs if is_row else cs
        if k1 == k or side < 2 and step is not None:
            pass
        elif step is None:  # a target: the cells of a firing side swap
            if side > 1:
                if is_row:
                    hi, lo = (h00, h01, l10, l11), (l00, l01, h10, h11)
                else:
                    hi, lo = (h00, l01, h10, l11), (l00, h01, l10, h11)
            elif side:
                hi, lo = lo, hi
        else:  # a literal of an open side
            # A branch that settles the side keeps the cells of its
            # outcome in both of the side's slots.
            sh, sl = step[side]
            if is_row:
                rh, rl = sh, sl
                if sh < 2:
                    hi = hi[2 * sh], hi[2 * sh + 1]
                    hi = hi + hi
                if sl < 2:
                    lo = lo[2 * sl], lo[2 * sl + 1]
                    lo = lo + lo
            else:
                ch, cl = sh, sl
                if sh < 2:
                    hi = hi[sh], hi[sh], hi[2 + sh], hi[2 + sh]
                if sl < 2:
                    lo = lo[sl], lo[sl], lo[2 + sl], lo[2 + sl]
        if rh > 1 or ch > 1:
            new_hi = walk(*hi, k1, rh, ch)
        else:
            new_hi = settled(hi[0], 2 * rh + ch)
        if rl > 1 or cl > 1:
            new_lo = walk(*lo, k1, rl, cl)
        else:
            new_lo = settled(lo[0], 2 * rl + cl)
        r = mk(lv, new_hi, new_lo)
        memo[key] = r
        return r

    root = top(rho.root, 0, opened, opened)
    del top, walk, settled
    return linalg._quidd(mgr, root, n, MATRIX)


# -- measurement ------------------------------------------------------------

def measure_prob(rho: QuIDD, qubit: int) -> tuple[float, float]:
    """(p0, p1) for a computational basis measurement of ``qubit``.

    One walk over the diagonal, the recursion of ``linalg.trace`` with
    the qubit's two diagonal cells summed apart: a node above the qubit
    sums the pairs of its two diagonal cofactors, and at the qubit the
    pair's entry ``b`` is the trace of the block whose row and column
    bits of the qubit are both ``b``. It allocates no node. The skipped
    qubits' power-of-two factors are exact, so entry ``b`` is bitwise the
    trace of the projection ``P rho P`` that ``collapse`` forms for it.
    """
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    cache = rho.manager._cache
    n = rho.n_qubits
    lr, lc = 2 * qubit, 2 * qubit + 1
    cof, diagonal_sum = linalg._cof, linalg._diagonal_sum

    def split(node: Node, k: int) -> tuple[complex, complex]:
        top = node.level // 2  # past every qubit for a terminal
        if top >= qubit:
            scale = 1 << (qubit - k)
            d0 = cof(cof(node, lr, 0), lc, 0)
            d1 = cof(cof(node, lr, 1), lc, 1)
            return (diagonal_sum(cache, n, d0, qubit + 1) * scale,
                    diagonal_sum(cache, n, d1, qubit + 1) * scale)
        key = ("mp", n, qubit, node.idx)
        core = cache.get(key)
        if core is None:
            ur, uc = 2 * top, 2 * top + 1
            h0, h1 = split(cof(cof(node, ur, 1), uc, 1), top + 1)
            l0, l1 = split(cof(cof(node, ur, 0), uc, 0), top + 1)
            core = h0 + l0, h1 + l1
            cache[key] = core
        scale = 1 << (top - k)
        return core[0] * scale, core[1] * scale

    p0, p1 = split(rho.root, 0)
    del split
    return p0.real, p1.real


def collapse(rho: QuIDD, qubit: int, outcome: int) -> QuIDD:
    """Project onto ``outcome`` and renormalize: P rho P / p.

    ``p`` comes from ``measure_prob`` and is checked before anything is
    built; ``apply_one_target`` then projects, with ``P =
    |outcome><outcome|`` as its one Kraus operator.
    """
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    p = measure_prob(rho, qubit)[outcome]
    if p <= COLLAPSE_TOL:
        raise SimulationError(
            f"collapse onto outcome {outcome} of qubit {qubit} has "
            f"probability {p:.3g}")
    projector = SimpleNamespace(targets=(qubit,), controls=(), qubits=(qubit,),
                                kraus=(np.diag([1.0 - outcome, outcome]),))
    return linalg.scalar_op(apply_one_target(rho, projector), p, "divide")


def sample_measure(rho: QuIDD, qubit: int, rng: XorShift64Star):
    """Draw an outcome from the qubit's distribution and collapse.

    Returns (outcome, rho', p0, p1). Consumes exactly one uniform draw,
    compared against p0, so both engines sample identically for a seed.
    """
    p0, p1 = measure_prob(rho, qubit)
    outcome = 0 if rng.uniform() < p0 else 1
    return outcome, collapse(rho, qubit, outcome), p0, p1


# -- execution --------------------------------------------------------------

def describe(op) -> str:
    """One-line label of an operation, as reported per step."""
    if isinstance(op, Gate):
        base = f"gate {op.name} {list(op.targets)}"
        if op.controls:
            base += f" controls {list(op.controls)}"
        return base
    if isinstance(op, Channel):
        extra = f" p={op.p}" if op.p is not None else ""
        return f"channel {op.kind} {list(op.targets)}{extra}"
    if isinstance(op, Measure):
        return f"{'pmeasure' if op.sample else 'measure'} {op.qubit}"
    if isinstance(op, PartialTraceOp):
        return f"ptrace {op.qubit}"
    if isinstance(op, TraceAllOp):
        return "trace_all"
    if isinstance(op, AssertProb):
        return f"assert_prob {op.qubit} {op.outcome}"
    if isinstance(op, PrintOp):
        return f"print {op.what}" + (f" {op.qubit}" if op.qubit is not None else "")
    return repr(op)


def format_value(v: complex) -> str:
    """Probe output form of a complex value: real part alone if the
    imaginary part is negligible."""
    if abs(v.imag) < dd.ZERO_EPS:
        return f"{v.real:.12g}"
    return f"{v.real:.12g}{v.imag:+.12g}i"


def initial_density(mgr: DDManager, circuit: Circuit) -> QuIDD:
    """Build the starting density matrix on ``mgr``."""
    n = circuit.n_qubits
    init = circuit.initial
    if isinstance(init, BasisInit):
        v = linalg.basis_vector(mgr, n, init.index)
        return linalg.outer_product(v)
    if isinstance(init, AmplitudeInit):
        amps = np.asarray(init.amplitudes, dtype=complex)
        amps = amps / np.linalg.norm(amps)
        v = linalg.from_dense(mgr, amps)
        return linalg.outer_product(v)
    if isinstance(init, MixtureInit):
        total = sum(w for w, _ in init.terms)
        rho = None
        for w, index in init.terms:
            term = linalg.outer_product(linalg.basis_vector(mgr, n, index))
            term = linalg.scalar_op(term, w / total, "multiply")
            rho = term if rho is None else linalg.add(rho, term)
        return rho
    raise CircuitError(f"unknown initial state {init!r}")


def _unit_length(ops: list, start: int) -> int:
    """Number of ops from ``start`` on that form one unit: a parity run,
    a fan-out run, a layer, or 1 for a lone op.

    A parity run is library X gates that each have exactly one control
    and share one target. A fan-out run is library X gates, each on one
    target, with one identical, non-empty control tuple; a layer is
    uncontrolled one-target gates with library payloads, at most
    ``LAYER_WIRES`` of them; a ``u1`` is a lone op and ends a layer.
    Either of the last two covers distinct target wires. The second op
    decides between a parity run and a fan-out run, which cannot both
    hold for it; the first op's run is then as long as it goes."""
    first = ops[start]
    if not isinstance(first, Gate) or len(first.targets) != 1:
        return 1
    controls = first.controls
    payloads = _X_RUN if controls else _LAYER
    if id(first.matrix) not in payloads:
        return 1
    # The second op tells a parity run from a fan-out run.
    after = ops[start + 1] if start + 1 < len(ops) else None
    parity = (len(controls) == 1 and isinstance(after, Gate)
              and after.targets == first.targets)
    end = len(ops) if controls else min(len(ops), start + LAYER_WIRES)
    wires = {first.targets[0]}
    for i in range(start + 1, end):
        op = ops[i]
        if not (isinstance(op, Gate) and len(op.targets) == 1
                and id(op.matrix) in payloads):
            return i - start
        if parity:
            joins = len(op.controls) == 1 and op.targets == first.targets
        else:
            joins = op.controls == controls and op.targets[0] not in wires
        if not joins:
            return i - start
        wires.add(op.targets[0])
    return end - start


def run(circuit: Circuit, seed: int = 0) -> RunResult:
    """Execute on the diagram engine. Deterministic for a given seed.

    Between steps the manager collects the nodes that the state does not
    reach, once its unique table holds more than ``max(dd.FLOOR, dd.K *
    kept)`` nodes (``kept``: the nodes the last collection kept).
    Collection never changes a result.

    A lone gate or channel on one target wire is applied by one walk
    over the state, and so is a fan-out run of X gates that share their
    controls or a parity run of CNOTs onto one target; a layer of gates,
    a multi-target gate or channel by operators built for that step (see
    the module docstring). A layer or a run of X gates is applied at its
    last step; its earlier steps record ``nodes=None`` and
    ``wall_ms=0.0``. ``peak_nodes`` is the largest state the run forms,
    so it does not see the states between the gates of a unit. A step
    that leaves the state's root node as it was reuses the last node
    count, which depends on the root alone.

    Python's cyclic garbage collector is off while a run works, from
    ``validate`` to the result, and on again afterwards if it was on
    before, however the run ends. The setting is process-wide for as
    long as the run lasts (the manager is not thread-safe either). This
    is safe because the kernel makes no reference cycles (see the ``dd``
    module docstring), so a pass during a run would free nothing;
    ``test_run_leaves_no_cyclic_garbage`` in ``tests/test_collector.py``
    guards that.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(circuit, seed)
    finally:
        if enabled:
            gc.enable()


def _run(circuit: Circuit, seed: int) -> RunResult:
    """``run``'s work, with the cyclic collector off."""
    t_start = time.perf_counter()
    validate(circuit)
    mgr = new_manager(circuit.n_qubits)
    rng = XorShift64Star(seed)
    rho = initial_density(mgr, circuit)
    records: list[MeasurementRecord] = []
    prints: list[tuple[int, str]] = []
    steps: list[StepStat] = []
    counted, nodes = rho.root, count_nodes(rho.root)  # last root counted
    peak = nodes
    kept = 0  # nodes kept by the last collection
    unit_from = unit_to = 0  # ops[unit_from:unit_to] is the unit

    for step, op in enumerate(circuit.ops):
        t0 = time.perf_counter()
        if step >= unit_to:
            unit_from, unit_to = step, step + _unit_length(circuit.ops, step)
        try:
            if step < unit_to - 1:
                pass  # applied with the rest of its unit
            elif isinstance(op, (Gate, Channel)):
                unit = circuit.ops[unit_from:unit_to]
                if len(unit) == 1 and len(op.targets) == 1:
                    rho = apply_one_target(rho, op)
                elif len(unit) > 1 and op.targets == unit[0].targets:
                    rho = apply_fanout(rho, [g.controls for g in unit],
                                       op.targets)
                elif len(unit) > 1 and op.controls:
                    rho = apply_fanout(rho, [op.controls],
                                       [g.targets[0] for g in unit])
                else:
                    rho = apply_channel(
                        rho, _unit_operators(mgr, unit, rho.n_qubits))
            elif isinstance(op, Measure):
                if op.sample:
                    outcome, rho, p0, p1 = sample_measure(rho, op.qubit, rng)
                    records.append(
                        MeasurementRecord(step, op.qubit, outcome, p0, p1))
                else:
                    p0, p1 = measure_prob(rho, op.qubit)
                    records.append(
                        MeasurementRecord(step, op.qubit, None, p0, p1))
            elif isinstance(op, PartialTraceOp):
                rho = linalg.partial_trace(rho, op.qubit)
            elif isinstance(op, TraceAllOp):
                value = linalg.trace(rho)
                rho = linalg._quidd(mgr, mgr.terminal(value), 0, MATRIX)
                prints.append((step, f"trace_all: {format_value(value)}"))
            elif isinstance(op, AssertProb):
                p0, p1 = measure_prob(rho, op.qubit)
                got = p1 if op.outcome else p0
                if abs(got - op.value) > op.tol:
                    raise SimulationError(
                        f"assert_prob failed on qubit {op.qubit}: "
                        f"P({op.outcome}) = {got:.12g}, expected "
                        f"{op.value:.12g} within {op.tol:g}", step)
            elif isinstance(op, PrintOp):
                if op.what == "probs":
                    p0, p1 = measure_prob(rho, op.qubit)
                    prints.append(
                        (step, f"probs {op.qubit}: p0={p0:.12g} p1={p1:.12g}"))
                elif op.what == "trace":
                    prints.append(
                        (step, f"trace: {format_value(linalg.trace(rho))}"))
                else:
                    prints.append((step, f"nodes: {count_nodes(rho.root)}"))
            else:
                raise SimulationError(f"unknown operation {op!r}", step)
        except SimulationError as exc:
            if exc.step is not None:
                raise
            raise SimulationError(exc.message, step) from exc
        except (CircuitError, ValueError) as exc:
            raise SimulationError(str(exc), step) from exc
        if mgr.table_size > max(dd.FLOOR, dd.K * kept):
            kept = mgr.collect([rho.root])
        if step < unit_to - 1:
            steps.append(StepStat(step, describe(op), None, 0.0))
            continue
        if rho.root is not counted:
            counted, nodes = rho.root, count_nodes(rho.root)
            peak = max(peak, nodes)
        steps.append(StepStat(step, describe(op), nodes,
                              (time.perf_counter() - t0) * 1e3))

    stats = RunStats(
        engine="quidd",
        n_qubits=circuit.n_qubits,
        seed=seed,
        steps=steps,
        peak_nodes=peak,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        prints=prints,
        manager_nodes=mgr.node_count,
    )
    return RunResult(rho, records, stats)
