"""Reduced ordered decision diagrams with complex-valued terminals.

This is the structural core of the simulator. A manager owns every node it
creates and guarantees canonicity through two reduction rules:

* no two structurally identical nodes exist (a uniqueness table shares
  them), and
* no internal node has identical then/else children (``mk_internal``
  returns the child instead).

Terminal uniqueness is decided per component on a lattice of cells, one
cell per value rounded to :data:`SIG_DIGITS` significant decimal digits
(round-half-even, negative zero normalized to +0.0, components below
:data:`ZERO_EPS` snapped to exact zero). The first value to land in a
cell claims it and is stored at full double precision; later values in
the same cell share the claimant's node. Two diagrams built through one
manager denote the same function, up to that cell resolution, iff they
are the same node object.

Variables are plain integer levels, ordered ``0 < 1 < ... < num_vars-1``
with terminals after all variables. Matrix semantics upstream interleave
row and column index bits: level ``2k`` carries the k-th row bit (``R_k``)
and level ``2k+1`` the k-th column bit (``C_k``); bit k is the k-th most
significant index bit. This module is agnostic to that convention except
for the ``R``/``C`` labels used in DOT output.

Operations are memoized in a computed table owned by the manager. Caches
are never invalidated (nodes are immortal); ``clear_cache`` exists for
memory pressure and for demonstrating that memoization does not change
results. The manager is not thread-safe; share nothing or lock externally.

Recursive walks are closures that refer to themselves, and through their
locals to the manager. Each walk deletes its name once it returns, which
breaks that cycle, so a finished manager is freed at once rather than
when the cyclic collector next runs.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, Iterable, Mapping

__all__ = [
    "DDError",
    "OrderingError",
    "EvaluationError",
    "DDManager",
    "Node",
    "TERMINAL_LEVEL",
    "SIG_DIGITS",
    "ZERO_EPS",
    "ADD",
    "MUL",
    "CONJ",
    "row_var",
    "col_var",
    "var_name",
    "count_nodes",
    "support",
]

TERMINAL_LEVEL = sys.maxsize

# Significant decimal digits of the terminal uniqueness key. Two values
# agreeing per component to this many digits share one terminal node.
# Only the key is rounded; stored values keep full double precision, so
# repeated arithmetic does not drift the values off their lattice.
SIG_DIGITS = 12
# Components smaller than this collapse to exact 0.0 before keying.
# Cancellations of long sums leave residue around 1e-14 after thousands
# of operations; without the floor every distinct residue would claim its
# own terminal. Well below any amplitude the supported widths can produce
# (a uniform 20-qubit density matrix still has entries around 1e-6).
ZERO_EPS = 1e-12
# Below this magnitude keys switch to fixed point (see _key_component).
_ABS_CUTOFF = 10.0 ** (SIG_DIGITS - 16)
_KEY_SPEC = f".{SIG_DIGITS - 1}e"

# Stable callables for the common terminal operations. Using module-level
# objects keeps computed-table keys valid for the life of the manager.
ADD = operator.add
MUL = operator.mul


def CONJ(value: complex) -> complex:
    return value.conjugate()


class DDError(Exception):
    """Base class for diagram-level failures."""


class OrderingError(DDError):
    """A construction would violate the fixed variable order.

    This is always a programming error in the caller, never a data error.
    """


class EvaluationError(DDError):
    """An evaluation was missing a bit for a variable in the support."""


def row_var(qubit: int) -> int:
    """Level of the row bit for ``qubit`` under the interleaved order."""
    return 2 * qubit


def col_var(qubit: int) -> int:
    """Level of the column bit for ``qubit``."""
    return 2 * qubit + 1


def var_name(level: int) -> str:
    if level == TERMINAL_LEVEL:
        return "terminal"
    return ("R%d" if level % 2 == 0 else "C%d") % (level // 2)


class Node:
    """One diagram node. Created only by a manager; compare with ``is``."""

    __slots__ = ("level", "hi", "lo", "value", "idx")

    def __init__(self, level, hi, lo, value, idx):
        self.level = level
        self.hi = hi
        self.lo = lo
        self.value = value
        self.idx = idx

    @property
    def is_terminal(self) -> bool:
        return self.level == TERMINAL_LEVEL

    def __repr__(self):
        if self.level == TERMINAL_LEVEL:
            return f"<T {self.value!r}>"
        return f"<{var_name(self.level)} #{self.idx}>"


class DDManager:
    """Owns nodes, the uniqueness tables and the computed table.

    ``num_vars`` is the fixed variable capacity: levels ``0..num_vars-1``
    are usable, and growing a diagram past them is an ordering error.
    Terminal keys use the module constants :data:`SIG_DIGITS` (relative
    resolution, capped at 15 decimal places absolute) and
    :data:`ZERO_EPS` (components below it become exact zero), the same
    for every manager.
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self.num_vars = num_vars
        self.memoize = True
        self._terminals: dict[tuple[str, str], Node] = {}
        self._internal: dict[tuple[int, int, int], Node] = {}
        self._nodes: list[Node] = []
        self._cache: dict = {}

    # -- node accounting ----------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of live nodes. Nodes are never collected, so this is
        also the peak."""
        return len(self._nodes)

    def clear_cache(self) -> None:
        """Drop the computed table. Does not affect nodes or canonicity."""
        self._cache.clear()

    def _owns(self, node: Node) -> bool:
        idx = node.idx
        return 0 <= idx < len(self._nodes) and self._nodes[idx] is node

    def _check_owned(self, node: Node) -> None:
        if not self._owns(node):
            raise DDError("node belongs to a different manager")

    # -- construction -------------------------------------------------------

    def _canonical_component(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"terminal component is not finite: {x!r}")
        if abs(x) < ZERO_EPS:
            return 0.0  # also folds -0.0 into +0.0
        return x

    def _key_component(self, x: float) -> str:
        # Cells are 10^(1-SIG_DIGITS) relative, but never narrower than
        # 1e-15 absolute. Cancellation of O(1)-scale sums leaves a few
        # 1e-16 of absolute noise on the result; for a small result that
        # is thousands of relative-width cells, and a lattice finer than
        # the noise floor splits mathematically equal values into
        # permanent near-duplicate terminals.
        if abs(x) < _ABS_CUTOFF:
            return f"{x:.15f}"
        return format(x, _KEY_SPEC)

    def terminal(self, value: complex) -> Node:
        """Canonical terminal for ``value``.

        Uniqueness is decided per component at :data:`SIG_DIGITS`
        significant decimal digits (scientific notation formatting,
        which rounds half to even), with absolute resolution capped at
        15 decimal places. The first value to claim a cell is the one
        stored, at full precision; later values landing in the same
        cell share its node.
        """
        c = complex(value)
        re = self._canonical_component(c.real)
        im = self._canonical_component(c.imag)
        key = (self._key_component(re), self._key_component(im))
        node = self._terminals.get(key)
        if node is None:
            node = Node(TERMINAL_LEVEL, None, None, complex(re, im),
                        len(self._nodes))
            self._nodes.append(node)
            self._terminals[key] = node
        return node

    def mk_internal(self, level: int, hi: Node, lo: Node) -> Node:
        """Canonical internal node testing ``level``.

        ``hi`` is followed when the variable is 1. Returns ``hi`` itself
        when both children coincide (reduction), so the result may be a
        node at a deeper level or a terminal.
        """
        if hi is lo:
            return hi
        if not 0 <= level < self.num_vars:
            raise OrderingError(
                f"level {level} outside manager capacity {self.num_vars}")
        if hi.level <= level or lo.level <= level:
            raise OrderingError(
                f"children of level {level} must test later variables "
                f"(got {var_name(hi.level)}, {var_name(lo.level)})")
        key = (level, hi.idx, lo.idx)
        node = self._internal.get(key)
        if node is None:
            node = Node(level, hi, lo, None, len(self._nodes))
            self._nodes.append(node)
            self._internal[key] = node
        return node

    # -- operations ---------------------------------------------------------

    def apply(self, f: Node, g: Node, op: Callable[[complex, complex], complex]) -> Node:
        """Combine two diagrams pointwise with a binary terminal op.

        Standard recursive apply: descend the smaller level of the two
        operands (both when equal), combine terminal values at the bottom.
        Memoized on ``(op, f, g)``. ``ADD`` and ``MUL`` get algebraic
        shortcuts (0 annihilates / 1 is neutral for MUL, 0 is neutral for
        ADD); the shortcuts return identical canonical nodes to the
        un-shortcut recursion.
        """
        self._check_owned(f)
        self._check_owned(g)
        return self._apply(f, g, op)

    def _apply(self, f, g, op):
        cache = self._cache if self.memoize else None
        mk = self.mk_internal
        term = self.terminal
        is_mul = op is MUL
        is_add = op is ADD
        TL = TERMINAL_LEVEL

        def rec(a, b):
            al = a.level
            bl = b.level
            if al == TL:
                if is_mul:
                    v = a.value
                    if v == 0:
                        return a
                    if v == 1:
                        return b
                elif is_add and a.value == 0:
                    return b
                if bl == TL:
                    return term(op(a.value, b.value))
            if bl == TL:
                if is_mul:
                    v = b.value
                    if v == 0:
                        return b
                    if v == 1:
                        return a
                elif is_add and b.value == 0:
                    return a
            if cache is not None:
                key = ("ap", op, a.idx, b.idx)
                hit = cache.get(key)
                if hit is not None:
                    return hit
            if al <= bl:
                lv, at, ae = al, a.hi, a.lo
            else:
                lv, at, ae = bl, a, a
            if bl <= al:
                bt, be = b.hi, b.lo
            else:
                bt, be = b, b
            r = mk(lv, rec(at, bt), rec(ae, be))
            if cache is not None:
                cache[key] = r
            return r

        root = rec(f, g)
        del rec
        return root

    def map_terminals(self, f: Node, op: Callable[..., complex],
                      *args) -> Node:
        """Rebuild ``f`` with each terminal value ``v`` replaced by
        ``op(v, *args)``.

        Memoized on ``(op, args)``: pass a stable callable such as ``MUL``
        with its operands, not a fresh closure per call.
        """
        self._check_owned(f)
        cache = self._cache if self.memoize else None
        mk = self.mk_internal
        term = self.terminal
        TL = TERMINAL_LEVEL

        def rec(a):
            if a.level == TL:
                return term(op(a.value, *args))
            if cache is not None:
                key = ("map", op, args, a.idx)
                hit = cache.get(key)
                if hit is not None:
                    return hit
            r = mk(a.level, rec(a.hi), rec(a.lo))
            if cache is not None:
                cache[key] = r
            return r

        root = rec(f)
        del rec
        return root

    def cofactor(self, f: Node, level: int, bit: int) -> Node:
        """Restrict variable ``level`` to ``bit`` (0 or 1).

        Diagrams that do not mention ``level`` are returned unchanged.
        """
        self._check_owned(f)
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        return self._cofactor(f, level, bit)

    def _cofactor(self, f, level, bit):
        cache = self._cache if self.memoize else None
        mk = self.mk_internal

        def rec(a):
            if a.level > level:
                return a
            if a.level == level:
                return a.hi if bit else a.lo
            if cache is not None:
                key = ("cof", level, bit, a.idx)
                hit = cache.get(key)
                if hit is not None:
                    return hit
            r = mk(a.level, rec(a.hi), rec(a.lo))
            if cache is not None:
                cache[key] = r
            return r

        root = rec(f)
        del rec
        return root

    def shift_variables(self, f: Node, threshold: int, delta: int) -> Node:
        """Relabel every level ``>= threshold`` by ``+delta``.

        Used to renumber qubits after tensor products and partial traces.
        Shifted levels must stay inside the manager's capacity, and no
        shifted variable may collide with or cross an unshifted one; both
        conditions surface as :class:`OrderingError`.
        """
        self._check_owned(f)
        if delta == 0:
            return f
        cache = self._cache if self.memoize else None
        mk = self.mk_internal
        num_vars = self.num_vars
        TL = TERMINAL_LEVEL

        def rec(a):
            if a.level == TL:
                return a
            if cache is not None:
                key = ("sh", threshold, delta, a.idx)
                hit = cache.get(key)
                if hit is not None:
                    return hit
            lv = a.level
            if lv >= threshold:
                lv += delta
                if lv < 0 or lv >= num_vars:
                    raise OrderingError(
                        f"shift moves {var_name(a.level)} to level {lv}, "
                        f"outside 0..{num_vars - 1}")
            # mk_internal rejects any crossing with unshifted levels
            r = mk(lv, rec(a.hi), rec(a.lo))
            if cache is not None:
                cache[key] = r
            return r

        root = rec(f)
        del rec
        return root

    def evaluate(self, f: Node, assignment: Mapping[int, int]) -> complex:
        """Value of the diagram under a level -> bit assignment.

        Every variable actually tested along the path must be assigned;
        a missing one raises :class:`EvaluationError`. Extra assignments
        are ignored (skipped variables do not affect the value).
        """
        self._check_owned(f)
        node = f
        while node.level != TERMINAL_LEVEL:
            try:
                bit = assignment[node.level]
            except KeyError:
                raise EvaluationError(
                    f"no assignment for {var_name(node.level)}") from None
            node = node.hi if bit else node.lo
        return node.value

    # -- export -------------------------------------------------------------

    def to_dot(self, f: Node, name: str = "dd") -> str:
        """GraphViz rendering. Solid edges are then (bit 1), dashed else."""
        self._check_owned(f)
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        seen = set()
        order: list[Node] = []

        def visit(node):
            if node.idx in seen:
                return
            seen.add(node.idx)
            if node.level != TERMINAL_LEVEL:
                visit(node.hi)
                visit(node.lo)
            order.append(node)

        visit(f)
        del visit
        for node in order:
            if node.level == TERMINAL_LEVEL:
                v = node.value
                label = f"{v.real:.6g}" if v.imag == 0 else f"{v.real:.6g}{v.imag:+.6g}i"
                lines.append(
                    f'  n{node.idx} [shape=box, label="{label}"];')
            else:
                lines.append(
                    f'  n{node.idx} [shape=circle, label="{var_name(node.level)}"];')
        for node in order:
            if node.level != TERMINAL_LEVEL:
                lines.append(f"  n{node.idx} -> n{node.hi.idx};")
                lines.append(f"  n{node.idx} -> n{node.lo.idx} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


def count_nodes(f: Node) -> int:
    """Number of distinct nodes reachable from ``f``, terminals included."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node.idx in seen:
            continue
        seen.add(node.idx)
        if node.level != TERMINAL_LEVEL:
            stack.append(node.hi)
            stack.append(node.lo)
    return len(seen)


def support(f: Node) -> set[int]:
    """Set of levels actually tested anywhere in the diagram."""
    levels: set[int] = set()
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node.idx in seen or node.level == TERMINAL_LEVEL:
            continue
        seen.add(node.idx)
        levels.add(node.level)
        stack.append(node.hi)
        stack.append(node.lo)
    return levels


def iter_nodes(f: Node) -> Iterable[Node]:
    """Depth-first iteration over distinct reachable nodes."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node.idx in seen:
            continue
        seen.add(node.idx)
        yield node
        if node.level != TERMINAL_LEVEL:
            stack.append(node.hi)
            stack.append(node.lo)
