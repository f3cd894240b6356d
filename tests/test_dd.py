"""Structural tests for the decision-diagram core.

Everything here works at the manager level: canonicity of terminals and
internal nodes, the apply recursion, restriction, relabeling, evaluation.
Edges from one manager are compared with ``is``; that is the whole point
of the reduction rules.
"""

import math
import operator

import numpy as np
import pytest

from quiddsim import dd
from quiddsim.dd import (
    ADD,
    CONJ,
    LINCOMB,
    MUL,
    DDError,
    DDManager,
    EvaluationError,
    OrderingError,
    TERMINAL_LEVEL,
    count_nodes,
    row_var,
    col_var,
    support,
    var_name,
)
from quiddsim.linalg import QuIDD, from_dense, new_manager, to_dense


def rand_diagram(mgr, rng, level, num_vars, stop=0.3):
    """Random diagram with small integer terminals (exact arithmetic)."""
    if level >= num_vars or rng.random() < stop:
        return mgr.terminal(complex(int(rng.integers(-2, 3)),
                                    int(rng.integers(-2, 3))))
    hi = rand_diagram(mgr, rng, level + 1, num_vars, stop)
    lo = rand_diagram(mgr, rng, level + 1, num_vars, stop)
    return mgr.mk_internal(level, hi, lo)


def all_assignments(num_vars):
    for bits in range(1 << num_vars):
        yield {lv: (bits >> lv) & 1 for lv in range(num_vars)}


# -- terminals ---------------------------------------------------------------

def test_terminal_uniqueness():
    mgr = DDManager(2)
    assert mgr.terminal(1.0) is mgr.terminal(1.0)
    assert mgr.terminal(2 + 3j) is mgr.terminal(2 + 3j)
    assert mgr.terminal(1.0) is not mgr.terminal(-1.0)


def test_terminal_key_rounding_shares_nodes():
    mgr = DDManager(2)
    # agree to 12 significant digits -> same cell, first claimant's value
    a = mgr.terminal(0.1234567890123456)
    b = mgr.terminal(0.12345678901231)
    assert a is b
    assert a.value == 0.1234567890123456
    # 11th digit differs -> distinct
    assert mgr.terminal(0.123456789112) is not a


def test_terminal_negative_zero_folds():
    mgr = DDManager(2)
    t = mgr.terminal(complex(-0.0, -0.0))
    assert t is mgr.terminal(0.0)
    assert math.copysign(1.0, t.value.real) == 1.0


def test_terminal_zero_floor():
    # components below ZERO_EPS collapse to exact zero
    mgr = DDManager(2)
    assert mgr.terminal(1e-13) is mgr.terminal(0.0)
    assert mgr.terminal(complex(1.0, -4e-14)) is mgr.terminal(1.0)
    assert mgr.terminal(1e-11) is not mgr.terminal(0.0)


def test_terminal_absolute_resolution_floor():
    # below 1e-4 the key lattice is absolute (15 decimal places): twelve
    # significant digits of a 1e-8-scale value would resolve far beyond
    # what double cancellation noise supports
    mgr = DDManager(2)
    a = mgr.terminal(2.9798684402647593e-08)
    b = mgr.terminal(2.9798684399000000e-08)  # same 1e-15 cell
    assert a is b
    assert a.value == 2.9798684402647593e-08
    # a full cell apart stays distinct
    assert mgr.terminal(2.9798700000000000e-08) is not a


def test_terminal_rejects_non_finite():
    mgr = DDManager(2)
    for _ in range(2):  # a rejected value is not remembered either
        with pytest.raises(ValueError):
            mgr.terminal(float("nan"))
        with pytest.raises(ValueError):
            mgr.terminal(complex(0.0, float("inf")))


def test_terminal_repeat_skips_the_key(monkeypatch):
    mgr = DDManager(2)
    a = mgr.terminal(0.1234567890123456 + 2j)
    b = mgr.terminal(0.12345678901231 + 2j)  # same cell as a
    zero = mgr.terminal(0.0)
    keyed = []
    key = mgr._key_component

    def spy(x):
        keyed.append(x)
        return key(x)

    monkeypatch.setattr(mgr, "_key_component", spy)
    assert mgr.terminal(0.1234567890123456 + 2j) is a
    assert mgr.terminal(0.12345678901231 + 2j) is a
    assert b is a
    assert mgr.terminal(complex(-0.0, -0.0)) is zero
    assert keyed == []
    assert mgr.terminal(3.0) is not a  # a new value is still keyed
    assert len(keyed) == 2


# -- mk_internal reduction rules ---------------------------------------------

def test_rule2_equal_children_collapse():
    mgr = DDManager(2)
    one = mgr.terminal(1.0)
    before = mgr.node_count
    assert mgr.mk_internal(row_var(0), one, one) is one
    assert mgr.node_count == before  # no node created


def test_rule1_structural_uniqueness():
    mgr = DDManager(2)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    f = mgr.mk_internal(row_var(0), one, zero)
    g = mgr.mk_internal(row_var(0), one, zero)
    assert f is g


def test_rule2_on_composed_call():
    mgr = DDManager(2)
    e1, e2 = mgr.terminal(1.0), mgr.terminal(2.0)
    c = mgr.mk_internal(col_var(0), e1, e2)
    assert mgr.mk_internal(row_var(0), c, c) is c


def test_mk_internal_ordering_guards():
    mgr = DDManager(4)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    deep = mgr.mk_internal(2, one, zero)
    with pytest.raises(OrderingError):
        mgr.mk_internal(2, deep, zero)  # child at same level
    with pytest.raises(OrderingError):
        mgr.mk_internal(3, deep, zero)  # child at earlier level
    with pytest.raises(OrderingError):
        mgr.mk_internal(4, one, zero)  # outside capacity
    with pytest.raises(OrderingError):
        mgr.mk_internal(-1, one, zero)


def test_unchecked_mk_shares_the_unique_table():
    mgr = DDManager(4)
    one, two = mgr.terminal(1.0), mgr.terminal(2.0)
    c = mgr._mk(col_var(0), one, two)
    assert mgr.mk_internal(col_var(0), one, two) is c
    before = mgr.node_count
    assert mgr._mk(row_var(0), c, one) is mgr.mk_internal(row_var(0), c, one)
    assert mgr.node_count == before + 1
    assert mgr._mk(row_var(0), c, c) is c  # reduction, no node


def test_rebuild_keeps_the_order_check():
    # The kernel's walks build with the unchecked _mk; a rebuild that
    # moves level 2 to 0, across its unmoved level-1 parent, still raises.
    mgr = DDManager(6)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    f = mgr._mk(1, mgr._mk(2, one, zero), zero)
    with pytest.raises(OrderingError):
        mgr.rebuild(f, threshold=2, delta=-2)


def test_no_reachable_node_violates_reduction():
    rng = np.random.default_rng(11)
    mgr = DDManager(6)
    roots = [rand_diagram(mgr, rng, 0, 6) for _ in range(8)]
    combined = roots[0]
    for r in roots[1:]:
        combined = mgr.apply(combined, r, ADD)
        combined = mgr.apply(combined, roots[0], MUL)
    seen = {}
    for node in dd.iter_nodes(combined):
        if node.is_terminal:
            continue
        assert node.hi is not node.lo
        key = (node.level, node.hi.idx, node.lo.idx)
        assert key not in seen
        seen[key] = node
        # uniqueness table agrees
        assert mgr.mk_internal(node.level, node.hi, node.lo) is node


# -- apply -------------------------------------------------------------------

def test_apply_xor_on_terminals():
    mgr = DDManager(2)

    def xor(a, b):
        return complex(int(a.real) ^ int(b.real))

    r = mgr.apply(mgr.terminal(1.0), mgr.terminal(0.0), xor)
    assert r is mgr.terminal(1.0)


def test_apply_multiply_absorbing_zero():
    rng = np.random.default_rng(3)
    mgr = DDManager(6)
    zero = mgr.terminal(0.0)
    for _ in range(10):
        f = rand_diagram(mgr, rng, 0, 6)
        assert mgr.apply(f, zero, MUL) is zero
        assert mgr.apply(zero, f, MUL) is zero


def test_apply_add_neutral_zero():
    rng = np.random.default_rng(4)
    mgr = DDManager(6)
    zero = mgr.terminal(0.0)
    for _ in range(10):
        f = rand_diagram(mgr, rng, 0, 6)
        assert mgr.apply(f, zero, ADD) is f
        assert mgr.apply(zero, f, ADD) is f


def test_apply_two_variable_dense_equivalence():
    rng = np.random.default_rng(5)
    mgr = DDManager(2)
    for _ in range(20):
        f = rand_diagram(mgr, rng, 0, 2, stop=0.2)
        g = rand_diagram(mgr, rng, 0, 2, stop=0.2)
        fg = mgr.apply(f, g, ADD)
        for a in all_assignments(2):
            assert mgr.evaluate(fg, a) == mgr.evaluate(f, a) + mgr.evaluate(g, a)


def test_apply_soundness_exhaustive_eight_vars():
    """eval(apply(f,g,op), a) == op(eval(f,a), eval(g,a)) for every a."""
    rng = np.random.default_rng(6)
    mgr = DDManager(8)
    for op in (ADD, MUL):
        for _ in range(4):
            f = rand_diagram(mgr, rng, 0, 8, stop=0.25)
            g = rand_diagram(mgr, rng, 0, 8, stop=0.25)
            fg = mgr.apply(f, g, op)
            for a in all_assignments(8):
                assert mgr.evaluate(fg, a) == op(mgr.evaluate(f, a),
                                                 mgr.evaluate(g, a))


def test_apply_commutative_routes_share_edge():
    # canonicity: the same function reached two ways is the same edge.
    # ADD and MUL key a pair in either order alike, so the swapped call
    # is one computed-table hit.
    rng = np.random.default_rng(7)
    mgr = DDManager(6)
    for _ in range(10):
        f = rand_diagram(mgr, rng, 0, 6)
        g = rand_diagram(mgr, rng, 0, 6)
        for op in (ADD, MUL):
            r = mgr.apply(f, g, op)
            size, allocated = len(mgr._cache), mgr.node_count
            assert mgr.apply(g, f, op) is r
            assert (len(mgr._cache), mgr.node_count) == (size, allocated)
        mgr.apply(f, g, LINCOMB, (0.5, -2j))
    assert mgr._cache
    # The kernel's ops leave no callable in a key, for the cyclic
    # collector to follow.
    assert not [key for key in mgr._cache if any(map(callable, key))]


def test_apply_rejects_foreign_nodes():
    m1, m2 = DDManager(2), DDManager(2)
    with pytest.raises(DDError):
        m1.apply(m1.terminal(1.0), m2.terminal(1.0), ADD)


def test_apply_lincomb_is_pointwise_and_cached():
    rng = np.random.default_rng(11)
    mgr = DDManager(6)
    c0, c1 = 0.5 - 2j, 3.0
    for _ in range(6):
        f = rand_diagram(mgr, rng, 0, 6, stop=0.2)
        g = rand_diagram(mgr, rng, 0, 6, stop=0.2)
        r = mgr.apply(f, g, LINCOMB, (c0, c1))
        for a in all_assignments(6):
            assert mgr.evaluate(r, a) == (c0 * mgr.evaluate(f, a)
                                          + c1 * mgr.evaluate(g, a))
        if f.is_terminal or g.is_terminal:
            continue
        assert mgr._cache[("lincomb", (c0, c1), f.idx, g.idx)] is r
        size, allocated = len(mgr._cache), mgr.node_count
        assert mgr.apply(f, g, LINCOMB, (c0, c1)) is r
        assert (len(mgr._cache), mgr.node_count) == (size, allocated)


@pytest.mark.parametrize("coeffs", [
    (0, 0), (1, 0), (0, 1), (1, 1), (0, -1j), (0.3 - 0.7j, 0), (2, -1)])
def test_lincomb_shortcuts_match_the_plain_recursion(coeffs):
    # A 0 coefficient or operand drops its term, a 1 keeps its operand
    # and (1, 1) is ADD; an op with no shortcuts builds the same nodes.
    def plain(u, v, c0, c1):
        return LINCOMB(u, v, c0, c1)

    rng = np.random.default_rng(12)
    mgr = DDManager(6)
    for _ in range(10):
        f = rand_diagram(mgr, rng, 0, 6)  # often with zero terminals
        g = rand_diagram(mgr, rng, 0, 6)
        assert (mgr.apply(f, g, LINCOMB, coeffs)
                is mgr.apply(f, g, plain, coeffs))
    if coeffs in ((1, 0), (0, 1)):
        assert mgr.apply(f, g, LINCOMB, coeffs) is (f if coeffs[0] else g)


def test_memoization_transparency():
    def operands(mgr):
        rng = np.random.default_rng(8)
        return (rand_diagram(mgr, rng, 0, 6, stop=0.2),
                rand_diagram(mgr, rng, 0, 6, stop=0.2))

    mgr = DDManager(6)
    f, g = operands(mgr)
    first = mgr.apply(f, g, ADD)
    mgr.collect([f, g, first])  # keeps all three, empties the cache
    assert not mgr._cache
    assert mgr.apply(f, g, ADD) is first  # recomputed, not looked up
    fresh = DDManager(6)
    other = fresh.apply(*operands(fresh), ADD)
    for a in all_assignments(6):
        assert mgr.evaluate(first, a) == fresh.evaluate(other, a)


# -- collect -----------------------------------------------------------------

def test_collect_drops_unreachable_nodes():
    mgr = DDManager(4)
    one, two, three = (mgr.terminal(v) for v in (1.0, 2.0, 3.0))
    inner = mgr.mk_internal(1, one, two)
    kept = mgr.mk_internal(0, inner, three)
    dropped = mgr.mk_internal(2, three, one)
    mgr.apply(kept, dropped, ADD)
    assert mgr._cache
    allocated = mgr.node_count
    kept_count = len(mgr._terminals) + 2  # inner and kept
    assert mgr.collect([kept]) == mgr.table_size == kept_count
    assert not mgr._cache
    assert mgr.node_count == allocated  # counts allocations, not live nodes
    assert mgr.mk_internal(1, one, two) is inner
    with pytest.raises(DDError):
        mgr.apply(kept, dropped, ADD)
    assert mgr.apply(kept, one, MUL) is kept
    again = mgr.mk_internal(2, three, one)
    assert again is not dropped
    assert again.idx == allocated  # a dropped idx is never reused


def test_collect_keeps_every_terminal():
    mgr = DDManager(2)
    lone = mgr.terminal(0.25)
    mgr.collect([])
    assert mgr.terminal(0.25) is lone
    assert mgr.terminal(0.25 + 1e-14) is lone  # the cell keeps its claimant
    assert mgr.apply(lone, lone, ADD) is mgr.terminal(0.5)


def test_collect_rejects_foreign_roots():
    m1, m2 = DDManager(2), DDManager(2)
    with pytest.raises(DDError):
        m1.collect([m2.mk_internal(0, m2.terminal(1.0), m2.terminal(0.0))])


# -- map_terminals -----------------------------------------------------------

def test_map_terminals_conjugate():
    mgr = DDManager(2)
    assert mgr.map_terminals(mgr.terminal(2 + 3j), CONJ) is mgr.terminal(2 - 3j)


def test_map_terminals_identity():
    rng = np.random.default_rng(9)
    mgr = DDManager(4)
    f = rand_diagram(mgr, rng, 0, 4)
    assert mgr.map_terminals(f, lambda v: v) is f


def test_map_terminals_can_trigger_rule2():
    mgr = DDManager(2)
    f = mgr.mk_internal(row_var(0), mgr.terminal(0.5), mgr.terminal(-0.5))
    r = mgr.map_terminals(f, lambda v: complex(abs(v)))
    assert r is mgr.terminal(0.5)  # children became equal, node collapsed


@pytest.mark.parametrize("op, arg", [
    (MUL, 2), (MUL, 0.5 - 1j), (operator.truediv, 4),
    (operator.truediv, 3 + 1j)])
def test_map_terminals_arithmetic(op, arg):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mgr = new_manager(3)
    q = from_dense(mgr, m)
    r = mgr.map_terminals(q.root, op, arg)
    got = to_dense(QuIDD(mgr, r, q.n_qubits, q.kind))
    assert np.allclose(got, op(to_dense(q), arg), rtol=0, atol=1e-10)


def test_map_terminals_memoized_on_args():
    rng = np.random.default_rng(9)
    mgr = DDManager(4)
    f = rand_diagram(mgr, rng, 0, 4, stop=0.0)
    r = mgr.map_terminals(f, MUL, 3)
    entries = len(mgr._cache)
    assert mgr.map_terminals(f, MUL, 3) is r
    assert len(mgr._cache) == entries  # answered from the computed table


# -- cofactor ----------------------------------------------------------------

def test_cofactor_of_terminal():
    mgr = DDManager(2)
    t = mgr.terminal(3.0)
    assert mgr.cofactor(t, 0, 0) is t
    assert mgr.cofactor(t, 1, 1) is t


def test_cofactor_selects_child():
    mgr = DDManager(2)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    f = mgr.mk_internal(row_var(0), one, zero)
    assert mgr.cofactor(f, row_var(0), 1) is one
    assert mgr.cofactor(f, row_var(0), 0) is zero


def test_cofactor_absent_variable_is_identity():
    mgr = DDManager(12)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    f = mgr.mk_internal(row_var(0), one, zero)
    assert mgr.cofactor(f, col_var(5), 0) is f


def test_cofactor_bit_validation():
    mgr = DDManager(2)
    with pytest.raises(ValueError):
        mgr.cofactor(mgr.terminal(1.0), 0, 2)


# -- shift_variables ---------------------------------------------------------

def test_shift_zero_delta_is_identity():
    rng = np.random.default_rng(10)
    mgr = DDManager(4)
    f = rand_diagram(mgr, rng, 0, 4)
    assert mgr.shift_variables(f, 0, 0) is f


def test_shift_relabels_levels():
    mgr = DDManager(4)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    inner = mgr.mk_internal(3, one, zero)      # C1
    f = mgr.mk_internal(2, inner, zero)        # R1 over C1
    g = mgr.shift_variables(f, 2, -2)
    assert support(g) == {0, 1}
    for a in all_assignments(2):
        shifted = {lv + 2: bit for lv, bit in a.items()}
        assert mgr.evaluate(g, a) == mgr.evaluate(f, shifted)


def test_shift_out_of_range_raises():
    mgr = DDManager(4)
    f = mgr.mk_internal(0, mgr.terminal(1.0), mgr.terminal(0.0))
    with pytest.raises(OrderingError):
        mgr.shift_variables(f, 0, -1)
    with pytest.raises(OrderingError):
        mgr.shift_variables(f, 0, 4)


def test_shift_crossing_unshifted_raises():
    mgr = DDManager(6)
    one, zero = mgr.terminal(1.0), mgr.terminal(0.0)
    inner = mgr.mk_internal(2, one, zero)
    f = mgr.mk_internal(1, inner, zero)
    # moving level 2 to 0 would jump over the unshifted level-1 parent
    with pytest.raises(OrderingError):
        mgr.shift_variables(f, 2, -2)


# -- evaluate ----------------------------------------------------------------

def test_evaluate_terminal_ignores_assignment():
    mgr = DDManager(2)
    assert mgr.evaluate(mgr.terminal(2 - 1j), {}) == 2 - 1j


def test_evaluate_follows_path():
    mgr = DDManager(2)
    f = mgr.mk_internal(0, mgr.terminal(1.0), mgr.terminal(0.0))
    assert mgr.evaluate(f, {0: 1}) == 1.0
    assert mgr.evaluate(f, {0: 0}) == 0.0
    assert mgr.evaluate(f, {0: 0, 1: 1}) == 0.0  # extra keys ignored


def test_evaluate_missing_variable_raises():
    mgr = DDManager(2)
    f = mgr.mk_internal(0, mgr.terminal(1.0), mgr.terminal(0.0))
    with pytest.raises(EvaluationError):
        mgr.evaluate(f, {1: 0})


# -- counting, naming, export ------------------------------------------------

def test_count_nodes_terminal():
    mgr = DDManager(2)
    assert count_nodes(mgr.terminal(0.0)) == 1


def test_count_nodes_small_diagram():
    mgr = DDManager(2)
    f = mgr.mk_internal(0, mgr.terminal(1.0), mgr.terminal(0.0))
    assert count_nodes(f) == 3


def test_var_name_convention():
    assert var_name(0) == "R0"
    assert var_name(1) == "C0"
    assert var_name(4) == "R2"
    assert var_name(TERMINAL_LEVEL) == "terminal"
    assert row_var(3) == 6 and col_var(3) == 7


def test_to_dot_shape():
    mgr = DDManager(2)
    f = mgr.mk_internal(0, mgr.terminal(1.0), mgr.terminal(0.0))
    dot = mgr.to_dot(f, name="g")
    assert dot.startswith("digraph g {")
    assert dot.count("shape=box") == 2
    assert dot.count("style=dashed") == 1
    assert "R0" in dot
    # deterministic
    assert dot == mgr.to_dot(f, name="g")


def test_node_count_in_sync_with_arena():
    mgr = DDManager(2)
    n0 = mgr.node_count
    mgr.terminal(5.0)
    mgr.mk_internal(0, mgr.terminal(5.0), mgr.terminal(7.0))
    assert mgr.node_count == n0 + 3
