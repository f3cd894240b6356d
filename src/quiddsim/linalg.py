"""Vectors and matrices stored as shared decision diagrams.

A :class:`QuIDD` wraps a canonical diagram root together with a qubit
count and a kind. Matrices live on the interleaved variable order
``R_0 < C_0 < R_1 < C_1 < ...`` (level ``2k`` is the k-th row bit, level
``2k+1`` the k-th column bit, bit k being the k-th most significant index
bit). Column vectors use only the row levels; a vector therefore doubles
as the matrix whose columns are all equal, which is exactly what the
block-recursive multiplication below assumes.

Multiplication follows the classic recursive block decomposition for
algebraic decision diagrams: at each qubit the operands split into four
cofactors over (row bit, summation bit) and (summation bit, column bit),
the four result blocks are sums of two recursive products, and whenever
both operands skip a summation variable the result picks up a factor of
two. The outer product of a column vector runs the same multiplication
against the conjugated, column-shifted copy of the vector; because the
vector-as-matrix has all columns equal, the product overcounts by 2^n,
which :func:`outer_product` divides back out.

All operations require both operands to come from the same manager.
Recursive helpers delete their own name once done, for the reason given
in :mod:`quiddsim.dd`.
"""

from __future__ import annotations

import operator

import numpy as np

from .dd import (
    ADD,
    CONJ,
    MUL,
    TERMINAL_LEVEL,
    DDManager,
    Node,
    count_nodes,
    support,
)

__all__ = [
    "MATRIX",
    "VECTOR",
    "DENSE_CAP",
    "QuIDD",
    "new_manager",
    "from_dense",
    "to_dense",
    "tensor",
    "conj_transpose",
    "matrix_multiply",
    "matrix_vector",
    "outer_product",
    "partial_trace",
    "partial_trace_multi",
    "trace",
    "scalar_op",
    "add",
    "entry",
    "identity",
    "basis_vector",
    "uniform_superposition",
]

MATRIX = "matrix"
VECTOR = "vector"

# Largest explicit representation anyone should ask for; 2^11 x 2^11
# complex doubles is 64 MiB, which is the edge of reasonable on a desk.
DENSE_CAP = 11


class QuIDD:
    """A diagram-backed vector or matrix over ``n_qubits`` qubits."""

    __slots__ = ("manager", "root", "n_qubits", "kind")

    def __init__(self, manager: DDManager, root: Node, n_qubits: int, kind: str):
        if kind not in (MATRIX, VECTOR):
            raise ValueError(f"unknown kind {kind!r}")
        if n_qubits < 0:
            raise ValueError("n_qubits must be >= 0")
        manager._check_owned(root)
        limit = 2 * n_qubits
        for level in support(root):
            if level >= limit:
                raise ValueError(
                    f"diagram tests level {level}, beyond {n_qubits} qubits")
            if kind == VECTOR and level % 2:
                raise ValueError(
                    "column vectors may only test row variables")
        self.manager = manager
        self.root = root
        self.n_qubits = n_qubits
        self.kind = kind

    @property
    def node_count(self) -> int:
        return count_nodes(self.root)

    def to_dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        return to_dense(self, cap)

    def entry(self, row: int, col: int | None = None) -> complex:
        return entry(self, row, col)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuIDD)
            and self.manager is other.manager
            and self.root is other.root
            and self.n_qubits == other.n_qubits
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((id(self.manager), self.root.idx, self.n_qubits, self.kind))

    def __repr__(self):
        return f"<QuIDD {self.kind} n={self.n_qubits} nodes={self.node_count}>"


def new_manager(max_qubits: int) -> DDManager:
    """Manager sized for matrices up to ``max_qubits`` qubits."""
    return DDManager(2 * max_qubits)


def _require_same_manager(a: QuIDD, b: QuIDD) -> DDManager:
    if a.manager is not b.manager:
        raise ValueError("operands belong to different managers")
    return a.manager


def _cof(node: Node, level: int, bit: int) -> Node:
    # Local cofactor for callers that guarantee node.level >= level.
    if node.level == level:
        return node.hi if bit else node.lo
    return node


# -- dense conversion -------------------------------------------------------

def from_dense(manager: DDManager, array, kind: str | None = None) -> QuIDD:
    """Build a QuIDD from an explicit numpy vector or matrix.

    Shapes must be ``(2^n,)``, ``(2^n, 1)`` or ``(2^n, 2^n)``. Entries go
    through terminal rounding, so evaluating the result reproduces the
    input up to that rounding.
    """
    arr = np.asarray(array, dtype=complex)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim == 1:
        inferred = VECTOR
    elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        inferred = MATRIX
    else:
        raise ValueError(f"unsupported shape {arr.shape}")
    if kind is not None and kind != inferred:
        raise ValueError(f"shape {arr.shape} is not a {kind}")
    size = arr.shape[0]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"dimension {size} is not a power of two")
    mk = manager.mk_internal
    term = manager.terminal

    if inferred == VECTOR:
        def build_v(base: int, length: int, k: int) -> Node:
            if length == 1:
                return term(arr[base])
            half = length // 2
            return mk(2 * k,
                      build_v(base + half, half, k + 1),
                      build_v(base, half, k + 1))
        root = build_v(0, size, 0)
        del build_v
        return QuIDD(manager, root, n, VECTOR)

    def build_m(r: int, c: int, length: int, k: int) -> Node:
        if length == 1:
            return term(arr[r, c])
        half = length // 2
        q00 = build_m(r, c, half, k + 1)
        q01 = build_m(r, c + half, half, k + 1)
        q10 = build_m(r + half, c, half, k + 1)
        q11 = build_m(r + half, c + half, half, k + 1)
        return mk(2 * k, mk(2 * k + 1, q11, q10), mk(2 * k + 1, q01, q00))

    root = build_m(0, 0, size, 0)
    del build_m
    return QuIDD(manager, root, n, MATRIX)


def to_dense(q: QuIDD, cap: int = DENSE_CAP) -> np.ndarray:
    """Explicit numpy form of ``q``; refuses more than ``cap`` qubits."""
    if q.n_qubits > cap:
        raise ValueError(
            f"{q.n_qubits} qubits exceeds the dense cap of {cap}")
    n = q.n_qubits
    if q.kind == VECTOR:
        out = np.empty(1 << n, dtype=complex)

        def fill_v(node: Node, k: int, base: int) -> None:
            if k == n:
                out[base] = node.value
                return
            half = 1 << (n - k - 1)
            fill_v(_cof(node, 2 * k, 0), k + 1, base)
            fill_v(_cof(node, 2 * k, 1), k + 1, base + half)

        fill_v(q.root, 0, 0)
        del fill_v
        return out

    out = np.empty((1 << n, 1 << n), dtype=complex)

    def fill_m(node: Node, k: int, r: int, c: int) -> None:
        if k == n:
            out[r, c] = node.value
            return
        half = 1 << (n - k - 1)
        lr, lc = 2 * k, 2 * k + 1
        n0 = _cof(node, lr, 0)
        n1 = _cof(node, lr, 1)
        fill_m(_cof(n0, lc, 0), k + 1, r, c)
        fill_m(_cof(n0, lc, 1), k + 1, r, c + half)
        fill_m(_cof(n1, lc, 0), k + 1, r + half, c)
        fill_m(_cof(n1, lc, 1), k + 1, r + half, c + half)

    fill_m(q.root, 0, 0, 0)
    del fill_m
    return out


def entry(q: QuIDD, row: int, col: int | None = None) -> complex:
    """Single element lookup by integer index, without densifying."""
    n = q.n_qubits
    if not 0 <= row < 1 << n:
        raise ValueError(f"row {row} out of range for {n} qubits")
    assignment = {}
    for k in range(n):
        assignment[2 * k] = (row >> (n - 1 - k)) & 1
    if q.kind == MATRIX:
        if col is None:
            raise ValueError("matrix entry needs a column index")
        if not 0 <= col < 1 << n:
            raise ValueError(f"col {col} out of range for {n} qubits")
        for k in range(n):
            assignment[2 * k + 1] = (col >> (n - 1 - k)) & 1
    elif col is not None:
        raise ValueError("vector entry takes no column index")
    return q.manager.evaluate(q.root, assignment)


# -- constructors -----------------------------------------------------------

def identity(manager: DDManager, n: int) -> QuIDD:
    """Identity matrix on ``n`` qubits, built directly (O(n) nodes)."""
    node = manager.terminal(1.0)
    zero = manager.terminal(0.0)
    for k in reversed(range(n)):
        node = manager.mk_internal(
            2 * k,
            manager.mk_internal(2 * k + 1, node, zero),
            manager.mk_internal(2 * k + 1, zero, node))
    return QuIDD(manager, node, n, MATRIX)


def basis_vector(manager: DDManager, n: int, index: int) -> QuIDD:
    """Computational basis column vector |index> on ``n`` qubits."""
    if not 0 <= index < 1 << n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    node = manager.terminal(1.0)
    zero = manager.terminal(0.0)
    for k in reversed(range(n)):
        if (index >> (n - 1 - k)) & 1:
            node = manager.mk_internal(2 * k, node, zero)
        else:
            node = manager.mk_internal(2 * k, zero, node)
    return QuIDD(manager, node, n, VECTOR)


def uniform_superposition(manager: DDManager, n: int) -> QuIDD:
    """Equal superposition over all 2^n basis states: a single terminal."""
    return QuIDD(manager, manager.terminal(2.0 ** (-n / 2)), n, VECTOR)


# -- structural operations --------------------------------------------------

def tensor(a: QuIDD, b: QuIDD) -> QuIDD:
    """Kronecker product; ``a`` supplies the high-order qubits.

    Implemented by shifting ``b``'s variables past ``a``'s (2*n_A levels,
    i.e. n_A qubit positions) and multiplying the now variable-disjoint
    diagrams pointwise.
    """
    mgr = _require_same_manager(a, b)
    if a.kind != b.kind:
        raise ValueError(f"cannot tensor {a.kind} with {b.kind}")
    shifted = mgr.shift_variables(b.root, 0, 2 * a.n_qubits)
    root = mgr.apply(a.root, shifted, MUL)
    return QuIDD(mgr, root, a.n_qubits + b.n_qubits, a.kind)


def conj_transpose(a: QuIDD) -> QuIDD:
    """Adjoint: exchange each row variable with its column twin and
    conjugate every terminal. Self-inverse."""
    if a.kind != MATRIX:
        raise ValueError("conj_transpose expects a matrix")
    mgr = a.manager
    cache = mgr._cache if mgr.memoize else None
    mk = mgr.mk_internal

    def rec(node: Node) -> Node:
        if node.level == TERMINAL_LEVEL:
            return mgr.terminal(CONJ(node.value))
        if cache is not None:
            key = ("ct", node.idx)
            hit = cache.get(key)
            if hit is not None:
                return hit
        top = node.level // 2
        lr, lc = 2 * top, 2 * top + 1
        n0 = _cof(node, lr, 0)
        n1 = _cof(node, lr, 1)
        f00 = _cof(n0, lc, 0)
        f01 = _cof(n0, lc, 1)
        f10 = _cof(n1, lc, 0)
        f11 = _cof(n1, lc, 1)
        # result(i, j) = conj(f(j, i))
        r = mk(lr,
               mk(lc, rec(f11), rec(f01)),
               mk(lc, rec(f10), rec(f00)))
        if cache is not None:
            cache[key] = r
        return r

    root = rec(a.root)
    del rec
    return QuIDD(mgr, root, a.n_qubits, MATRIX)


# -- multiplication ---------------------------------------------------------

def _multiply_nodes(mgr: DDManager, a: Node, b: Node, n: int) -> Node:
    """Matrix product of two diagram operands over ``n`` qubits.

    ``a``'s column variables and ``b``'s row variables play the role of
    the summation index. Each qubit level contributes four block sums;
    summation variables skipped by both operands double the result, which
    the factor ``2^(top-k)`` (and ``2^(n-k)`` at the terminals) accounts
    for in one step. The block expansion itself is memoized on the
    operand pair; the skip factor is applied outside the memo so the
    cached value is position-independent.
    """
    cache = mgr._cache if mgr.memoize else None
    term = mgr.terminal
    mk = mgr.mk_internal
    ap = mgr._apply
    TL = TERMINAL_LEVEL

    def mm(a: Node, b: Node, k: int) -> Node:
        al, bl = a.level, b.level
        if al == TL:
            if a.value == 0:
                return a
            if bl == TL:
                if b.value == 0:
                    return b
                return term(a.value * b.value * (1 << (n - k)))
        elif bl == TL and b.value == 0:
            return b
        top = (al if al < bl else bl) // 2
        core = None
        if cache is not None:
            key = ("mm", n, a.idx, b.idx)
            core = cache.get(key)
        if core is None:
            lr = 2 * top
            lc = lr + 1
            k1 = top + 1
            a0 = _cof(a, lr, 0)
            a1 = _cof(a, lr, 1)
            a00 = _cof(a0, lc, 0)
            a01 = _cof(a0, lc, 1)
            a10 = _cof(a1, lc, 0)
            a11 = _cof(a1, lc, 1)
            b0 = _cof(b, lr, 0)
            b1 = _cof(b, lr, 1)
            b00 = _cof(b0, lc, 0)
            b01 = _cof(b0, lc, 1)
            b10 = _cof(b1, lc, 0)
            b11 = _cof(b1, lc, 1)
            c00 = ap(mm(a00, b00, k1), mm(a01, b10, k1), ADD)
            c01 = ap(mm(a00, b01, k1), mm(a01, b11, k1), ADD)
            c10 = ap(mm(a10, b00, k1), mm(a11, b10, k1), ADD)
            c11 = ap(mm(a10, b01, k1), mm(a11, b11, k1), ADD)
            core = mk(lr, mk(lc, c11, c10), mk(lc, c01, c00))
            if cache is not None:
                cache[key] = core
        if top > k:
            return mgr.map_terminals(core, MUL, 1 << (top - k))
        return core

    root = mm(a, b, 0)
    del mm
    return root


def matrix_multiply(a: QuIDD, b: QuIDD) -> QuIDD:
    mgr = _require_same_manager(a, b)
    if a.kind != MATRIX or b.kind != MATRIX:
        raise ValueError("matrix_multiply expects two matrices")
    if a.n_qubits != b.n_qubits:
        raise ValueError("operand qubit counts differ")
    root = _multiply_nodes(mgr, a.root, b.root, a.n_qubits)
    return QuIDD(mgr, root, a.n_qubits, MATRIX)


def matrix_vector(a: QuIDD, v: QuIDD) -> QuIDD:
    """Apply a matrix to a column vector.

    The vector participates as the all-columns-equal matrix; since its
    column variables are absent rather than summed twice, the product is
    the plain matrix-vector result with no correction factor.
    """
    mgr = _require_same_manager(a, v)
    if a.kind != MATRIX or v.kind != VECTOR:
        raise ValueError("matrix_vector expects (matrix, vector)")
    if a.n_qubits != v.n_qubits:
        raise ValueError("operand qubit counts differ")
    root = _multiply_nodes(mgr, a.root, v.root, a.n_qubits)
    return QuIDD(mgr, root, a.n_qubits, VECTOR)


def _outer_product_raw(v: QuIDD) -> QuIDD:
    mgr = v.manager
    if v.kind != VECTOR:
        raise ValueError("outer_product expects a column vector")
    # Row variables move to their column twins (level + 1), conjugated.
    ct = mgr.map_terminals(mgr.shift_variables(v.root, 0, 1), CONJ)
    root = _multiply_nodes(mgr, v.root, ct, v.n_qubits)
    return QuIDD(mgr, root, v.n_qubits, MATRIX)


def outer_product(v: QuIDD) -> QuIDD:
    """Density matrix ``v v†`` of a column vector.

    The multiplication sums over all 2^n absent summation variables, so
    the raw product is ``2^n`` times too large; the division below is
    part of the operation, not a caller concern.
    """
    raw = _outer_product_raw(v)
    root = raw.manager.map_terminals(raw.root, operator.truediv,
                                     1 << v.n_qubits)
    return QuIDD(raw.manager, root, v.n_qubits, MATRIX)


def scalar_op(q: QuIDD, c: complex, op: str = "multiply") -> QuIDD:
    """Multiply or divide every entry by a scalar."""
    if op == "multiply":
        root = q.manager.map_terminals(q.root, MUL, complex(c))
    elif op == "divide":
        if c == 0:
            raise ZeroDivisionError("scalar division by zero")
        root = q.manager.map_terminals(q.root, operator.truediv,
                                       complex(c))
    else:
        raise ValueError(f"unknown scalar op {op!r}")
    return QuIDD(q.manager, root, q.n_qubits, q.kind)


def add(a: QuIDD, b: QuIDD) -> QuIDD:
    """Entrywise sum of two same-shaped operands."""
    mgr = _require_same_manager(a, b)
    if a.kind != b.kind or a.n_qubits != b.n_qubits:
        raise ValueError("add expects operands of identical shape")
    return QuIDD(mgr, mgr.apply(a.root, b.root, ADD), a.n_qubits, a.kind)


# -- trace operations -------------------------------------------------------

def partial_trace(rho: QuIDD, qubit: int) -> QuIDD:
    """Trace out one qubit of a density matrix.

    For each path the traced qubit's diagonal blocks are summed: the
    result is ``Apply(f[R=1,C=1], f[R=0,C=0], +)``. Below the traced
    levels both restrictions coincide, so the sum degenerates to
    Apply(Q, Q, +), doubling the subdiagram. Afterwards every deeper
    variable shifts up two levels to close the hole, leaving a well-formed
    (n-1)-qubit matrix whose qubit indices above ``qubit`` drop by one.
    """
    if rho.kind != MATRIX:
        raise ValueError("partial_trace expects a matrix")
    n = rho.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    mgr = rho.manager
    lr, lc = 2 * qubit, 2 * qubit + 1
    cache = mgr._cache if mgr.memoize else None
    mk = mgr.mk_internal
    ap = mgr._apply

    def pt(node: Node) -> Node:
        if node.level > lc:
            # traced variables absent below this point: sum of two equal
            # cofactors, i.e. a doubling
            return ap(node, node, ADD)
        if cache is not None:
            key = ("pt", qubit, node.idx)
            hit = cache.get(key)
            if hit is not None:
                return hit
        if node.level < lr:
            r = mk(node.level, pt(node.hi), pt(node.lo))
        else:
            d1 = _cof(_cof(node, lr, 1), lc, 1)
            d0 = _cof(_cof(node, lr, 0), lc, 0)
            r = ap(d1, d0, ADD)
        if cache is not None:
            cache[key] = r
        return r

    root = pt(rho.root)
    del pt
    root = mgr.shift_variables(root, lc + 1, -2)
    return QuIDD(mgr, root, n - 1, MATRIX)


def partial_trace_multi(rho: QuIDD, qubits) -> QuIDD:
    """Trace out several qubits, highest index first so the remaining
    indices stay valid while iterating."""
    out = rho
    for q in sorted(set(qubits), reverse=True):
        out = partial_trace(out, q)
    return out


def trace(rho: QuIDD) -> complex:
    """Full trace of a density matrix (diagonal sum).

    Skipped qubits contribute a factor of two each, handled in one step
    via the gap to the next tested level.
    """
    if rho.kind != MATRIX:
        raise ValueError("trace expects a matrix")
    mgr = rho.manager
    n = rho.n_qubits
    cache = mgr._cache if mgr.memoize else None

    def tr(node: Node, k: int) -> complex:
        if node.level == TERMINAL_LEVEL:
            return node.value * (1 << (n - k))
        top = node.level // 2
        core = None
        if cache is not None:
            key = ("tr", n, node.idx)
            core = cache.get(key)
        if core is None:
            lr, lc = 2 * top, 2 * top + 1
            d1 = _cof(_cof(node, lr, 1), lc, 1)
            d0 = _cof(_cof(node, lr, 0), lc, 0)
            core = tr(d1, top + 1) + tr(d0, top + 1)
            if cache is not None:
                cache[key] = core
        return core * (1 << (top - k))

    value = tr(rho.root, 0)
    del tr
    return value
