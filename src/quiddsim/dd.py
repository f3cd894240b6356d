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
are the same node object. A manager also maps each exact value it has
been asked for to its node, so a repeated value skips the cell key; the
cell's claimant never changes, so the map returns the node the key would.

Variables are plain integer levels, ordered ``0 < 1 < ... < num_vars-1``
with terminals after all variables. Matrix semantics upstream interleave
row and column index bits: level ``2k`` carries the k-th row bit (``R_k``)
and level ``2k+1`` the k-th column bit (``C_k``); bit k is the k-th most
significant index bit. This module is agnostic to that convention except
for the ``R``/``C`` labels used in DOT output.

Every recursive operation caches its results in a computed table owned
by the manager, always. One memoized rebuild walk (``rebuild``) both
maps terminal values and moves levels; ``map_terminals`` and
``shift_variables`` are calls of it. One apply combines two diagrams
pointwise through a binary op, with extra constant operands cached
alongside it: ``apply(f, g, LINCOMB, (c0, c1))`` is ``c0·f + c1·g``,
the step a gate walk takes at its target. Its one recursion is built by
``_applier`` once per operation: once per ``apply`` call, and once per
matrix multiply for all of that multiply's block sums. Apply results are
keyed by a string tag for the kernel's ops, and for ``ADD`` and ``MUL``
in either operand order alike (see :meth:`DDManager.apply`).

``collect(roots)`` drops every internal node not reachable from ``roots``
from the unique table, together with the whole computed table; a
dropped node is foreign to the manager from then on. Terminals are never
collected, so every value keeps the cell claimant it had, and a result
computed again after a collection has the same structure and the same
terminal nodes as the one dropped; a kept result is the same node. A
node's ``idx`` is never reused. The manager is not thread-safe; share
nothing or lock externally.

Recursive walks are closures that refer, through their locals, to the
manager. A closure that calls itself by name would also refer to itself,
a cycle that only the cyclic collector frees. Each walk deletes its name
once it returns; the apply recursion, which outlives one call, takes
itself as its first argument instead. Either way a finished manager is
freed at once rather than when the cyclic collector next runs, and since
nothing else in the kernel makes a cycle either, ``circuit.run`` can
turn that collector off for the length of a run.
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
    "FLOOR",
    "K",
    "ADD",
    "MUL",
    "CONJ",
    "LINCOMB",
    "row_var",
    "col_var",
    "var_name",
    "iter_nodes",
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
# A run collects once its unique table holds more than
# max(FLOOR, K * nodes kept by the last collection) nodes. The floor
# keeps small circuits from collecting at all; the factor bounds the
# work of a collection by a constant share of the allocations before it.
FLOOR = 2**14
K = 4

# Stable callables for the common terminal operations. Using module-level
# objects keeps computed-table keys valid for the life of the manager.
ADD = operator.add
MUL = operator.mul


def CONJ(value: complex) -> complex:
    return value.conjugate()


def LINCOMB(u: complex, v: complex, c0: complex, c1: complex) -> complex:
    """``c0·u + c1·v``: the binary op of a linear combination, with the
    coefficients as ``apply``'s ``args``."""
    return c0 * u + c1 * v


# How apply and rebuild keys name the kernel's own ops. A key made of
# strings, ints and tuples of complex numbers holds nothing the cyclic
# collector must follow; any other op keeps its callable in the key.
_OP_TAGS = {ADD: "add", MUL: "mul", LINCOMB: "lincomb", CONJ: "conj"}


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
        self._terminals: dict[tuple[str, str], Node] = {}
        self._exact: dict[complex, Node] = {}
        self._internal: dict[tuple[int, int, int], Node] = {}
        self._cache: dict = {}
        self._allocated = 0

    # -- node accounting ----------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes allocated over the manager's life, collected
        ones included."""
        return self._allocated

    @property
    def table_size(self) -> int:
        """Number of nodes the unique tables hold, terminals included."""
        return len(self._terminals) + len(self._internal)

    def collect(self, roots: Iterable[Node]) -> int:
        """Keep every terminal and every internal node reachable from
        ``roots``; drop every other node and the computed table.

        Returns the number of nodes kept. Nodes held elsewhere but not
        reachable from ``roots`` become foreign to the manager.
        """
        seen: set[int] = set()
        internal = {}
        for root in roots:
            self._check_owned(root)
            for n in iter_nodes(root, seen):
                if n.level != TERMINAL_LEVEL:
                    internal[n.level, n.hi.idx, n.lo.idx] = n
        self._internal = internal
        self._cache.clear()
        return self.table_size

    def _owns(self, node: Node) -> bool:
        if node.level == TERMINAL_LEVEL:
            v = node.value
            key = (self._key_component(v.real), self._key_component(v.imag))
            return self._terminals.get(key) is node
        key = (node.level, node.hi.idx, node.lo.idx)
        return self._internal.get(key) is node

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
        cell share its node. Each value asked for is remembered exactly
        (``-0.0`` and ``0.0`` are one key, as they share a cell), and a
        repeat returns its node without computing the key. Non-finite
        values are never remembered and always raise ``ValueError``.
        """
        c = complex(value)
        node = self._exact.get(c)
        if node is not None:
            return node
        re = self._canonical_component(c.real)
        im = self._canonical_component(c.imag)
        key = (self._key_component(re), self._key_component(im))
        node = self._terminals.get(key)
        if node is None:
            node = Node(TERMINAL_LEVEL, None, None, complex(re, im),
                        self._allocated)
            self._allocated += 1
            self._terminals[key] = node
        self._exact[c] = node
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
        return self._mk(level, hi, lo)

    def _mk(self, level: int, hi: Node, lo: Node) -> Node:
        """``mk_internal`` without its range and order checks, for the
        kernel's own walks, whose levels are right by construction:
        reduction, then the unique-table lookup."""
        if hi is lo:
            return hi
        key = (level, hi.idx, lo.idx)
        node = self._internal.get(key)
        if node is None:
            node = Node(level, hi, lo, None, self._allocated)
            self._allocated += 1
            self._internal[key] = node
        return node

    # -- operations ---------------------------------------------------------

    def apply(self, f: Node, g: Node, op: Callable[..., complex],
              args: tuple = ()) -> Node:
        """Combine two diagrams pointwise: each pair of terminal values
        ``u, v`` becomes ``op(u, v, *args)``.

        Standard recursive apply: descend the smaller level of the two
        operands (both when equal), combine terminal values at the bottom.
        The recursion is built once for the call (:meth:`_applier`) and
        caches each pair on ``(tag, args, f.idx, g.idx)``. The tag is
        ``"add"``, ``"mul"`` or ``"lincomb"`` for the kernel's ops and
        the callable itself for any other, so the kernel's keys hold
        only strings, ints and complex numbers, which the cyclic
        collector stops tracking. IEEE ``+`` and ``×`` are commutative,
        so for ``ADD`` and ``MUL`` the swapped pair is the same node: the
        smaller ``idx`` comes first and ``apply(g, f)`` finds the entry
        ``apply(f, g)`` made. ``ADD``, ``MUL`` and ``LINCOMB``
        get algebraic shortcuts: 0 annihilates and 1 is neutral for MUL,
        0 is neutral for ADD, and for ``LINCOMB`` with ``args = (c0,
        c1)`` a term whose coefficient or operand is 0 drops out, a
        coefficient 1 keeps its operand as it is, one other coefficient
        scales its operand through :meth:`rebuild`, and ``(1, 1)`` is
        ``ADD``. The shortcuts return identical canonical nodes to the
        un-shortcut recursion.
        """
        self._check_owned(f)
        self._check_owned(g)
        return self._apply(f, g, op, args)

    def _scale(self, f: Node, c: complex) -> Node:
        # c·f, as LINCOMB's recursion would build it from one term.
        if c == 1:
            return f
        if c == 0:
            return self.terminal(0.0)
        return self._rebuild(f, MUL, (c,), 0, 0)

    def _apply(self, f, g, op, args=()):
        # LINCOMB's shortcuts run before the recursion is built: a gate
        # walk's combinations often end in them.
        if op is LINCOMB:
            c0, c1 = args
            if c0 == 0:
                return self._scale(g, c1)
            if c1 == 0:
                return self._scale(f, c0)
            if c0 == 1 and c1 == 1:
                op, args = ADD, ()
        rec = self._applier(op, args)
        return rec(rec, f, g)

    def _applier(self, op, args=()):
        """The memoized recursion of ``apply`` for ``op`` and ``args``,
        called as ``rec(rec, f, g)``.

        It takes itself as its first argument rather than through a
        closure cell, so it holds no reference to itself and is freed
        with its last caller. Callers that combine many pairs through one
        op, such as the block sums of a multiply, build it once.
        """
        cache = self._cache
        mk = self._mk
        term = self.terminal
        scale = self._scale
        is_mul = op is MUL
        is_add = op is ADD
        is_lin = op is LINCOMB
        order_free = is_mul or is_add
        tag = _OP_TAGS.get(op, op)
        c0, c1 = args if is_lin else (None, None)
        TL = TERMINAL_LEVEL

        def rec(rec, a, b):
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
                elif is_lin and a.value == 0:
                    return scale(b, c1)
                if bl == TL:
                    return term(op(a.value, b.value, *args))
            if bl == TL:
                if is_mul:
                    v = b.value
                    if v == 0:
                        return b
                    if v == 1:
                        return a
                elif is_add and b.value == 0:
                    return a
                elif is_lin and b.value == 0:
                    return scale(a, c0)
            i = a.idx
            j = b.idx
            if order_free and j < i:
                key = (tag, args, j, i)
            else:
                key = (tag, args, i, j)
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
            r = mk(lv, rec(rec, at, bt), rec(rec, ae, be))
            cache[key] = r
            return r

        return rec

    def rebuild(self, f: Node, op: Callable[..., complex] | None = None,
                args: tuple = (), threshold: int = 0, delta: int = 0) -> Node:
        """Rebuild ``f`` with every level ``>= threshold`` moved by
        ``delta`` and, given ``op``, each terminal value ``v`` replaced by
        ``op(v, *args)``.

        Cached on ``(op, args, threshold, delta)``, with the kernel's ops
        named by the same string tags as in :meth:`apply`. Moved levels must
        stay inside the manager's capacity and may not collide with or
        cross an unmoved one; both surface as :class:`OrderingError`.
        """
        self._check_owned(f)
        return self._rebuild(f, op, args, threshold, delta)

    def _rebuild(self, f, op, args, threshold, delta):
        if op is None and delta == 0:
            return f
        cache = self._cache
        mk = self.mk_internal
        term = self.terminal
        num_vars = self.num_vars
        tag = _OP_TAGS.get(op, op)
        TL = TERMINAL_LEVEL

        def rec(a):
            lv = a.level
            if lv == TL:
                return a if op is None else term(op(a.value, *args))
            key = ("rb", tag, args, threshold, delta, a.idx)
            hit = cache.get(key)
            if hit is not None:
                return hit
            if lv >= threshold:
                lv += delta
                if lv < 0 or lv >= num_vars:
                    raise OrderingError(
                        f"shift moves {var_name(a.level)} to level {lv}, "
                        f"outside 0..{num_vars - 1}")
            # mk_internal rejects any crossing with unmoved levels
            r = mk(lv, rec(a.hi), rec(a.lo))
            cache[key] = r
            return r

        root = rec(f)
        del rec
        return root

    def map_terminals(self, f: Node, op: Callable[..., complex],
                      *args) -> Node:
        """Rebuild ``f`` with each terminal value ``v`` replaced by
        ``op(v, *args)``.

        Cached on ``(op, args)``: pass a stable callable such as ``MUL``
        with its operands, not a fresh closure per call.
        """
        return self.rebuild(f, op, args)

    def cofactor(self, f: Node, level: int, bit: int) -> Node:
        """Restrict variable ``level`` to ``bit`` (0 or 1).

        Diagrams that do not mention ``level`` are returned unchanged.
        """
        self._check_owned(f)
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        cache = self._cache
        mk = self._mk

        def rec(a):
            if a.level > level:
                return a
            if a.level == level:
                return a.hi if bit else a.lo
            key = ("cof", level, bit, a.idx)
            hit = cache.get(key)
            if hit is not None:
                return hit
            r = mk(a.level, rec(a.hi), rec(a.lo))
            cache[key] = r
            return r

        root = rec(f)
        del rec
        return root

    def shift_variables(self, f: Node, threshold: int, delta: int) -> Node:
        """Relabel every level ``>= threshold`` by ``+delta``, as
        :meth:`rebuild` does.

        Used to renumber qubits after tensor products and partial traces.
        """
        return self.rebuild(f, None, (), threshold, delta)

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
        order = list(iter_nodes(f))
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


def iter_nodes(f: Node, seen: set[int] | None = None) -> Iterable[Node]:
    """Depth-first iteration over distinct reachable nodes.

    The reachability walk that :func:`support`,
    :meth:`DDManager.collect` and :meth:`DDManager.to_dot` reduce over;
    :func:`count_nodes` has its own loop. Nodes whose ``idx`` is in
    ``seen`` are skipped, and every node visited is added to it, so walks
    that share ``seen`` visit each node once.
    """
    if seen is None:
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


def count_nodes(f: Node) -> int:
    """Number of distinct nodes reachable from ``f``, terminals included.

    ``run`` counts every state it makes, so this is a flat loop that
    marks each child as it is pushed, rather than a sum over
    :func:`iter_nodes`, whose generator resumes once per node.
    """
    seen = {f.idx}
    stack = [f]
    pop, push, mark = stack.pop, stack.append, seen.add
    while stack:
        node = pop()
        if node.level != TERMINAL_LEVEL:
            y = node.hi
            if y.idx not in seen:
                mark(y.idx)
                push(y)
            y = node.lo
            if y.idx not in seen:
                mark(y.idx)
                push(y)
    return len(seen)


def support(f: Node) -> set[int]:
    """Set of levels actually tested anywhere in the diagram."""
    return {n.level for n in iter_nodes(f)} - {TERMINAL_LEVEL}
