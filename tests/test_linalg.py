"""Linear algebra on diagrams, cross-checked against explicit numpy.

Edge identity (``a.root is b.root``) is asserted wherever the operands
are exact dyadic values or the cell rounding guarantees coincidence;
numeric comparisons elsewhere use 1e-9 unless the construction is exact.
"""

import math

import numpy as np
import pytest

from quiddsim import gates, linalg, oracle
from quiddsim.circuit import build_operator
from quiddsim.dd import ADD, TERMINAL_LEVEL, count_nodes, support
from quiddsim.linalg import (
    DENSE_CAP,
    MATRIX,
    VECTOR,
    QuIDD,
    add,
    basis_vector,
    conj_transpose,
    entry,
    from_dense,
    identity,
    matrix_multiply,
    new_manager,
    outer_product,
    partial_trace,
    partial_trace_multi,
    scalar_op,
    tensor,
    to_dense,
    trace,
    uniform_superposition,
)

H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def random_density(rng, n):
    """Random full-rank mixed state, trace exactly 1 up to float error."""
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unit(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


# -- dense conversion --------------------------------------------------------

def test_identity_2x2_shape_and_roundtrip():
    mgr = new_manager(1)
    q = from_dense(mgr, np.eye(2))
    assert q.node_count == 5  # R0, two C0 nodes, terminals 1 and 0
    assert support(q.root) == {0, 1}
    assert np.array_equal(to_dense(q), np.eye(2))


def test_constant_matrix_is_single_terminal():
    mgr = new_manager(2)
    q = from_dense(mgr, np.full((4, 4), 0.25))
    assert q.node_count == 1
    assert q.root.is_terminal and q.root.value == 0.25
    assert np.array_equal(to_dense(q), np.full((4, 4), 0.25))


def test_quarter_sign_matrix_skips_first_qubit():
    # rows/columns repeat in 2x2 blocks, so neither level 0 nor 1 is tested
    m = 0.25 * np.array([
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
        [1, -1, 1, -1],
        [-1, 1, -1, 1],
    ])
    mgr = new_manager(2)
    q = from_dense(mgr, m)
    assert support(q.root) == {2, 3}
    assert q.node_count == 5
    assert entry(q, 0, 0) == 0.25
    assert np.array_equal(to_dense(q), m)


def test_from_dense_vector_shapes():
    mgr = new_manager(2)
    v = np.array([1, 0, 0, 0], dtype=complex)
    assert from_dense(mgr, v).kind == VECTOR
    assert from_dense(mgr, v.reshape(4, 1)).kind == VECTOR
    assert np.array_equal(to_dense(from_dense(mgr, v)), v)


def test_from_dense_validation():
    mgr = new_manager(2)
    with pytest.raises(ValueError):
        from_dense(mgr, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        from_dense(mgr, np.zeros(3))
    with pytest.raises(ValueError):
        from_dense(mgr, np.eye(2), kind=VECTOR)


def test_to_dense_respects_cap():
    mgr = new_manager(12)
    q = QuIDD(mgr, mgr.terminal(1.0), 12, VECTOR)
    with pytest.raises(ValueError):
        to_dense(q)
    q = QuIDD(mgr, mgr.terminal(1.0), DENSE_CAP, VECTOR)
    assert to_dense(q).shape == (1 << DENSE_CAP,)


def test_entry_matches_dense():
    rng = np.random.default_rng(21)
    mgr = new_manager(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    q = from_dense(mgr, m)
    d = to_dense(q)
    for r in (0, 3, 5, 7):
        for c in (0, 2, 6):
            assert entry(q, r, c) == d[r, c]
    v = from_dense(mgr, m[:, 0])
    dv = to_dense(v)
    assert entry(v, 5) == dv[5]


def test_entry_validation():
    mgr = new_manager(1)
    q = from_dense(mgr, np.eye(2))
    v = from_dense(mgr, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        entry(q, 0)  # matrix needs a column
    with pytest.raises(ValueError):
        entry(v, 0, 0)  # vector takes none
    with pytest.raises(ValueError):
        entry(q, 2, 0)


def test_quidd_kind_validation():
    mgr = new_manager(1)
    col = mgr.mk_internal(1, mgr.terminal(1.0), mgr.terminal(0.0))
    with pytest.raises(ValueError):
        QuIDD(mgr, col, 1, VECTOR)  # vectors cannot test column vars
    with pytest.raises(ValueError):
        QuIDD(mgr, mgr.terminal(1.0), 1, "row")
    deep = mgr.mk_internal(1, mgr.terminal(1.0), mgr.terminal(0.0))
    with pytest.raises(ValueError):
        QuIDD(mgr, deep, 0, MATRIX)  # support beyond qubit count


# -- constructors ------------------------------------------------------------

def test_identity_constructor():
    mgr = new_manager(3)
    for n in (0, 1, 3):
        q = identity(mgr, n)
        assert np.array_equal(to_dense(q), np.eye(1 << n))
    # canonical: direct build equals from_dense route
    assert identity(mgr, 2).root is from_dense(mgr, np.eye(4)).root


def test_basis_vector_constructor():
    mgr = new_manager(3)
    for idx in (0, 5, 7):
        v = to_dense(basis_vector(mgr, 3, idx))
        want = np.zeros(8)
        want[idx] = 1
        assert np.array_equal(v, want)
    with pytest.raises(ValueError):
        basis_vector(mgr, 3, 8)


def test_uniform_superposition_is_one_node():
    mgr = new_manager(6)
    v = uniform_superposition(mgr, 6)
    assert v.node_count == 1
    assert np.allclose(to_dense(v), np.full(64, 1 / 8), atol=1e-15)


# -- tensor ------------------------------------------------------------------

def test_tensor_identity_blocks():
    mgr = new_manager(2)
    i1 = identity(mgr, 1)
    t = tensor(i1, i1)
    assert np.array_equal(to_dense(t), np.eye(4))
    assert t.root is identity(mgr, 2).root


def test_tensor_hadamard_entries():
    mgr = new_manager(2)
    hh = tensor(from_dense(mgr, H2), from_dense(mgr, H2))
    assert np.allclose(np.abs(to_dense(hh)), 0.5, atol=1e-12)
    assert np.allclose(to_dense(hh), np.kron(H2, H2), atol=1e-12)


def test_tensor_scalar_unit():
    mgr = new_manager(3)
    rng = np.random.default_rng(22)
    q = from_dense(mgr, random_density(rng, 2))
    unit = QuIDD(mgr, mgr.terminal(1.0), 0, MATRIX)
    assert tensor(q, unit).root is q.root
    assert tensor(unit, q).root is q.root


def test_tensor_random_matches_kron():
    rng = np.random.default_rng(23)
    mgr = new_manager(4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = tensor(from_dense(mgr, a), from_dense(mgr, b))
    assert np.allclose(to_dense(t), np.kron(a, b), atol=1e-9)


def test_tensor_kind_mismatch():
    mgr = new_manager(2)
    with pytest.raises(ValueError):
        tensor(identity(mgr, 1), basis_vector(mgr, 1, 0))


# -- adjoint -----------------------------------------------------------------

def test_conj_transpose_identity_fixed_point():
    mgr = new_manager(2)
    i2 = identity(mgr, 2)
    assert conj_transpose(i2).root is i2.root


def test_conj_transpose_hermitian_fixed_point():
    mgr = new_manager(1)
    y = from_dense(mgr, np.array([[0, -1j], [1j, 0]]))
    assert conj_transpose(y).root is y.root


def test_conj_transpose_matches_numpy_and_is_involution():
    rng = np.random.default_rng(24)
    mgr = new_manager(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q = from_dense(mgr, m)
    ct = conj_transpose(q)
    assert np.allclose(to_dense(ct), m.conj().T, atol=1e-9)
    assert conj_transpose(ct).root is q.root


def test_conj_transpose_rejects_vector():
    mgr = new_manager(1)
    with pytest.raises(ValueError):
        conj_transpose(basis_vector(mgr, 1, 0))


# -- multiplication ----------------------------------------------------------

def test_multiply_identity_is_noop():
    rng = np.random.default_rng(25)
    mgr = new_manager(3)
    rho = from_dense(mgr, random_density(rng, 3))
    assert matrix_multiply(identity(mgr, 3), rho).root is rho.root
    assert matrix_multiply(rho, identity(mgr, 3)).root is rho.root


def test_hadamard_squares_to_identity():
    mgr = new_manager(1)
    i1 = identity(mgr, 1)  # claim the exact 1.0 and 0.0 cells first
    h = from_dense(mgr, H2)
    assert matrix_multiply(h, h).root is i1.root


# A zeroed 2x2 block of either operand, in every position, makes a zero
# factor in the block sums of the multiply; ("cancel", k) sets the k-th
# product of a block sum to zero although neither factor is.
ZEROED_BLOCKS = [None, ("cancel", 0), ("cancel", 1)] + [
    (operand, r, c) for operand in "ab" for r in range(4) for c in range(4)]


@pytest.mark.parametrize(
    "zeroed", ZEROED_BLOCKS,
    ids=lambda z: "-".join(map(str, z)) if z else "dense")
def test_multiply_random_matches_oracle(zeroed):
    rng = np.random.default_rng(26)
    mgr = new_manager(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    if zeroed is not None and zeroed[0] == "cancel":
        k = 2 * zeroed[1]
        a[:2, k:k + 2] = 1
        b[k:k + 2, :2] = [[1, -1], [-1, 1]]
    elif zeroed is not None:
        operand, r, c = zeroed
        (a if operand == "a" else b)[2 * r:2 * r + 2, 2 * c:2 * c + 2] = 0
    got = to_dense(matrix_multiply(from_dense(mgr, a), from_dense(mgr, b)))
    assert np.max(np.abs(got - a @ b)) <= 1e-9


def test_multiply_skips_sums_with_zero(monkeypatch):
    # A gate operator is mostly zero blocks; none of them may reach ADD.
    rng = np.random.default_rng(4)
    mgr = new_manager(4)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho_dense = m @ m.conj().T
    rho_dense /= np.trace(rho_dense)
    rho = from_dense(mgr, rho_dense)
    # The Hadamard adds sums of two nonzero products for the spy to see.
    ops = [build_operator(mgr, g, 4) for g in (gates.cnot(1, 3), gates.h(2))]
    daggers = [conj_transpose(u) for u in ops]
    operands = []
    applier = mgr._applier

    def spying_applier(op, args=()):
        # Every block sum is one call of the ADD recursion the multiply
        # builds; the recursion's own descent is not watched.
        rec = applier(op, args)
        if op is not ADD:
            return rec

        def spy(_, f, g):
            operands.extend((f, g))
            return rec(rec, f, g)

        return spy

    monkeypatch.setattr(mgr, "_applier", spying_applier)
    got = rho
    for u, u_dag in zip(ops, daggers):
        got = matrix_multiply(matrix_multiply(u, got), u_dag)
    assert operands
    assert not [x for x in operands
                if x.level == TERMINAL_LEVEL and x.value == 0]
    want = rho_dense
    for u in ops:
        u_dense = to_dense(u)
        want = u_dense @ want @ u_dense.conj().T
    assert np.max(np.abs(to_dense(got) - want)) <= 1e-12


def test_multiply_scales_skipped_levels_before_the_zero_snap():
    # A is diag(1e-7, 1e-7) on the last of 20 qubits and tests no other
    # level, so it is constant over the other 19: each entry of A·A sums
    # 2^19 products of 1e-14. The product of one pair is below
    # dd.ZERO_EPS, the sum is not.
    n = 20
    mgr = new_manager(n)
    t, zero = mgr.terminal(1e-7), mgr.terminal(0.0)
    lr, lc = 2 * (n - 1), 2 * (n - 1) + 1
    mk = mgr.mk_internal
    a = QuIDD(mgr, mk(lr, mk(lc, t, zero), mk(lc, zero, t)), n, MATRIX)
    got = matrix_multiply(a, a)
    assert entry(got, 0, 0) == pytest.approx(2**19 * 1e-14, rel=1e-12)
    assert entry(got, 1, 0) == 0


def test_multiply_validation():
    mgr = new_manager(2)
    with pytest.raises(ValueError):
        matrix_multiply(identity(mgr, 1), identity(mgr, 2))
    with pytest.raises(ValueError):
        matrix_multiply(identity(mgr, 1), basis_vector(mgr, 1, 0))
    other = new_manager(1)
    with pytest.raises(ValueError):
        matrix_multiply(identity(mgr, 1), identity(other, 1))


# -- outer product -----------------------------------------------------------

def test_outer_product_basis_state():
    mgr = new_manager(1)
    rho = outer_product(basis_vector(mgr, 1, 0))
    assert rho.root is from_dense(mgr, np.diag([1.0, 0.0])).root


def test_outer_product_plus_state():
    mgr = new_manager(1)
    plus = from_dense(mgr, np.array([1, 1]) / math.sqrt(2))
    rho = outer_product(plus)
    assert np.allclose(to_dense(rho), np.full((2, 2), 0.5), atol=1e-12)
    assert rho.node_count == 1  # all four entries round to one cell


def test_outer_product_hadamard_01_state():
    mgr = new_manager(2)
    v = from_dense(mgr, np.kron(H2, H2) @ np.eye(4)[0b01])
    rho = outer_product(v)
    assert support(rho.root) == {2, 3}  # first qubit's vars absent
    want = np.outer(to_dense(v), to_dense(v).conj())
    assert np.allclose(to_dense(rho), want, atol=1e-12)
    assert abs(entry(rho, 0, 0) - 0.25) <= 1e-9


def test_outer_product_trace_normalization():
    rng = np.random.default_rng(28)
    for n in (1, 3, 6):
        mgr = new_manager(n)
        v = from_dense(mgr, random_unit(rng, n))
        assert abs(trace(outer_product(v)) - 1) <= 1e-9
        # the raw product is v v† times 2^n
        raw = linalg._outer_product_raw(v)
        assert abs(trace(raw) - (1 << n)) <= 1e-6


def test_outer_product_matches_oracle():
    rng = np.random.default_rng(29)
    mgr = new_manager(3)
    v = random_unit(rng, 3)
    got = to_dense(outer_product(from_dense(mgr, v)))
    assert np.max(np.abs(got - np.outer(v, v.conj()))) <= 1e-9


def outer_vectors(n):
    """Unit vectors on ``n`` qubits, from incompressible to structured."""
    rng = np.random.default_rng(40 + n)
    d = 1 << n
    dense = rng.normal(size=d) + 1j * rng.normal(size=d)
    sparse = dense * (rng.random(d) < 0.5)
    sparse[0] = 1
    blocks = np.kron(dense[:1 << (n // 2)], np.ones(1 << (n - n // 2)))
    phases = np.array([1, -1, 1j, -1j])[rng.integers(4, size=d)]
    for v in (dense, dense.real, sparse, blocks, phases):
        yield v / np.linalg.norm(v)


@pytest.mark.parametrize("n", range(1, 8))
def test_outer_product_allocates_little_beyond_its_result(n):
    # One rebuild (conjugated, on the column levels) and one pointwise
    # product: every node allocated is a node of one of those results.
    for v in outer_vectors(n):
        mgr = new_manager(n)
        q = from_dense(mgr, v)
        before = mgr.node_count
        rho = outer_product(q)
        assert mgr.node_count - before <= rho.node_count + q.node_count


@pytest.mark.parametrize("n", range(1, 8))
def test_outer_product_is_hermitian_and_exact(n):
    for v in outer_vectors(n):
        rho = outer_product(from_dense(new_manager(n), v))
        assert conj_transpose(rho).root is rho.root
        assert np.max(np.abs(to_dense(rho) - np.outer(v, v.conj()))) <= 1e-15


# -- partial trace -----------------------------------------------------------

def test_partial_trace_product_state_factor():
    rng = np.random.default_rng(30)
    mgr = new_manager(4)
    rho_a = from_dense(mgr, random_density(rng, 2))
    rho_b = from_dense(mgr, random_density(rng, 2))
    joint = tensor(rho_a, rho_b)
    reduced = partial_trace_multi(joint, (2, 3))
    assert reduced.root is rho_a.root


def test_partial_trace_bell_state():
    mgr = new_manager(2)
    bell = np.zeros((4, 4))
    for r in (0, 3):
        for c in (0, 3):
            bell[r, c] = 0.5
    rho = from_dense(mgr, bell)
    reduced = partial_trace(rho, 1)
    assert reduced.root is from_dense(mgr, np.diag([0.5, 0.5])).root
    assert reduced.n_qubits == 1


def test_partial_trace_constant_block_doubles():
    mgr = new_manager(1)
    rho = QuIDD(mgr, mgr.terminal(0.25), 1, MATRIX)
    out = partial_trace(rho, 0)
    assert out.n_qubits == 0
    assert out.root is mgr.terminal(0.5)


def test_partial_trace_matches_oracle_every_qubit():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        mgr = new_manager(n)
        dense = random_density(rng, n)
        rho = from_dense(mgr, dense)
        for qb in range(n):
            got = to_dense(partial_trace(rho, qb))
            assert np.max(np.abs(got - oracle.dense_ptrace(dense, qb))) <= 1e-9


def test_partial_trace_literal_cofactor_identity():
    """ptrace(rho, i) is the shifted sum of the two diagonal cofactors."""
    rng = np.random.default_rng(32)
    mgr = new_manager(3)
    rho = from_dense(mgr, random_density(rng, 3))
    for qb in range(3):
        lr, lc = 2 * qb, 2 * qb + 1
        d1 = mgr.cofactor(mgr.cofactor(rho.root, lr, 1), lc, 1)
        d0 = mgr.cofactor(mgr.cofactor(rho.root, lr, 0), lc, 0)
        literal = mgr.shift_variables(mgr.apply(d1, d0, ADD), lc + 1, -2)
        assert partial_trace(rho, qb).root is literal


def test_partial_trace_multi_order_insensitive():
    rng = np.random.default_rng(33)
    mgr = new_manager(3)
    rho = from_dense(mgr, random_density(rng, 3))
    a = partial_trace(partial_trace(rho, 0), 1)  # 0 first, then old wire 2
    b = partial_trace(partial_trace(rho, 2), 0)
    assert a.root is b.root
    assert partial_trace_multi(rho, (2, 0)).root is a.root


def test_partial_trace_validation():
    mgr = new_manager(2)
    with pytest.raises(ValueError):
        partial_trace(basis_vector(mgr, 2, 0), 0)
    with pytest.raises(ValueError):
        partial_trace(identity(mgr, 2), 2)


# -- trace -------------------------------------------------------------------

def test_trace_identity():
    mgr = new_manager(5)
    for n in (0, 1, 5):
        assert trace(identity(mgr, n)) == 1 << n


def test_trace_random_matches_numpy():
    rng = np.random.default_rng(34)
    mgr = new_manager(3)
    dense = random_density(rng, 3)
    assert abs(trace(from_dense(mgr, dense)) - np.trace(dense)) <= 1e-9


def test_trace_linearity():
    rng = np.random.default_rng(35)
    mgr = new_manager(2)
    a = from_dense(mgr, random_density(rng, 2))
    b = from_dense(mgr, random_density(rng, 2))
    lhs = trace(add(scalar_op(a, 0.3), scalar_op(b, 0.7)))
    rhs = 0.3 * trace(a) + 0.7 * trace(b)
    assert abs(lhs - rhs) <= 1e-9


# -- scalar ops and addition -------------------------------------------------

def test_scalar_multiply_by_one_is_identity():
    rng = np.random.default_rng(36)
    mgr = new_manager(2)
    q = from_dense(mgr, random_density(rng, 2))
    assert scalar_op(q, 1).root is q.root


def test_scalar_divide_terminal():
    mgr = new_manager(1)
    q = QuIDD(mgr, mgr.terminal(4.0), 1, MATRIX)
    assert scalar_op(q, 2, "divide").root is mgr.terminal(2.0)


def test_scalar_distributes_over_add():
    rng = np.random.default_rng(37)
    mgr = new_manager(2)
    a = from_dense(mgr, random_density(rng, 2))
    b = from_dense(mgr, random_density(rng, 2))
    c = 0.25 + 0.5j
    lhs = to_dense(scalar_op(add(a, b), c))
    rhs = to_dense(add(scalar_op(a, c), scalar_op(b, c)))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_scalar_op_validation():
    mgr = new_manager(1)
    q = identity(mgr, 1)
    with pytest.raises(ZeroDivisionError):
        scalar_op(q, 0, "divide")
    with pytest.raises(ValueError):
        scalar_op(q, 2, "plus")


def test_add_zero_is_identity():
    rng = np.random.default_rng(38)
    mgr = new_manager(2)
    q = from_dense(mgr, random_density(rng, 2))
    zero = QuIDD(mgr, mgr.terminal(0.0), 2, MATRIX)
    assert add(q, zero).root is q.root


def test_add_weighted_projectors_form_mixture():
    mgr = new_manager(1)
    p0 = outer_product(basis_vector(mgr, 1, 0))
    p1 = outer_product(basis_vector(mgr, 1, 1))
    p = 0.125
    mix = add(scalar_op(p0, 1 - p), scalar_op(p1, p))
    assert abs(trace(mix) - 1) <= 1e-9
    assert np.allclose(to_dense(mix), np.diag([1 - p, p]), atol=1e-12)


def test_add_shape_validation():
    mgr = new_manager(2)
    with pytest.raises(ValueError):
        add(identity(mgr, 1), identity(mgr, 2))
    with pytest.raises(ValueError):
        add(identity(mgr, 1), basis_vector(mgr, 1, 0))


# -- algebraic edge properties ----------------------------------------------

def test_conjugation_result_is_hermitian_edge():
    """U rho U-dagger equals its own adjoint as the same canonical edge."""
    rng = np.random.default_rng(39)
    for n in (1, 2, 3):
        mgr = new_manager(n)
        u = from_dense(mgr, random_unitary(rng, 1 << n))
        rho = outer_product(from_dense(mgr, random_unit(rng, n)))
        s = matrix_multiply(matrix_multiply(u, rho), conj_transpose(u))
        assert conj_transpose(s).root is s.root


def test_compression_uniform_density():
    for n in (1, 4, 8):
        mgr = new_manager(n)
        rho = outer_product(uniform_superposition(mgr, n))
        assert rho.node_count == 1


def test_compression_hadamard_operator_affine():
    counts = []
    for n in range(2, 11):
        mgr = new_manager(n)
        op = from_dense(mgr, H2)
        full = op
        for _ in range(n - 1):
            full = tensor(full, op)
        counts.append(full.node_count)
    diffs = {b - a for a, b in zip(counts, counts[1:])}
    assert len(diffs) == 1  # affine growth


# -- well-formed results -----------------------------------------------------

OPERATIONS = (
    "from_dense_vector", "from_dense_matrix", "identity", "basis_vector",
    "uniform_superposition", "tensor", "conj_transpose", "matrix_multiply",
    "outer_product", "scalar_op", "add", "partial_trace",
    "partial_trace_multi")


def _operation_results(mgr):
    """One result of every public operation, built on a 3-qubit manager."""
    rng = np.random.default_rng(41)
    vec = from_dense(mgr, random_unit(rng, 2))
    mat = from_dense(mgr, random_unitary(rng, 4))
    rho = from_dense(mgr, random_density(rng, 3))
    return {
        "from_dense_vector": vec,
        "from_dense_matrix": mat,
        "identity": identity(mgr, 2),
        "basis_vector": basis_vector(mgr, 3, 5),
        "uniform_superposition": uniform_superposition(mgr, 3),
        "tensor": tensor(from_dense(mgr, H2), mat),
        "conj_transpose": conj_transpose(mat),
        "matrix_multiply": matrix_multiply(mat, conj_transpose(mat)),
        "outer_product": outer_product(vec),
        "scalar_op": scalar_op(mat, 0.5j),
        "add": add(mat, identity(mgr, 2)),
        "partial_trace": partial_trace(rho, 1),
        "partial_trace_multi": partial_trace_multi(rho, [0, 2]),
    }


@pytest.mark.parametrize("name", OPERATIONS)
def test_operation_results_pass_the_constructor_checks(name):
    """Results skip the support walk, so check here that they would pass
    it: re-wrapping through ``QuIDD`` runs every check."""
    r = _operation_results(new_manager(3))[name]
    assert QuIDD(r.manager, r.root, r.n_qubits, r.kind) == r


def test_operation_results_skip_the_support_walk(monkeypatch):
    calls = []

    def counting_support(root):
        calls.append(root)
        return support(root)

    monkeypatch.setattr(linalg, "support", counting_support)
    mgr = new_manager(3)
    _operation_results(mgr)
    assert calls == []
    QuIDD(mgr, mgr.terminal(1.0), 1, MATRIX)
    assert len(calls) == 1  # roots from outside are still checked


def test_constructors_reject_negative_width():
    mgr = new_manager(1)
    for make in (identity, uniform_superposition):
        with pytest.raises(ValueError):
            make(mgr, -1)
