"""Read entries of a finished density-matrix diagram without quiddsim.

The output checks must not trust the code they check, so these walkers
use only the diagram's documented layout: each node has ``level``,
``hi`` (the 1-branch), ``lo`` and, on terminals (``hi is None``), a
complex ``value``. Level ``2q`` is the row bit and ``2q + 1`` the column
bit of qubit ``q``; qubit 0 is the most significant index bit. A level
missing on a path means the entry does not depend on that bit.
"""

from __future__ import annotations


def _bit(index: int, qubit: int, n: int) -> int:
    return (index >> (n - 1 - qubit)) & 1


def _child(node, level: int, bit: int):
    if node.hi is None or node.level != level:
        return node
    return node.hi if bit else node.lo


def entry(root, n: int, row: int, col: int) -> complex:
    """rho[row, col] of an n-qubit density-matrix diagram."""
    node = root
    while node.hi is not None:
        q, is_col = divmod(node.level, 2)
        node = node.hi if _bit(col if is_col else row, q, n) else node.lo
    return node.value


def trace(root, n: int) -> complex:
    """Sum of the diagonal. A qubit absent from a path doubles its sum."""
    memo: dict[int, complex] = {}

    def top(node) -> int:
        return n if node.hi is None else node.level // 2

    def diag(node) -> complex:
        # Diagonal sum over the qubits from top(node) to n - 1.
        if node.hi is None:
            return node.value
        got = memo.get(id(node))
        if got is None:
            q = top(node)
            got = 0j
            for b in (0, 1):
                sub = _child(_child(node, 2 * q, b), 2 * q + 1, b)
                got += diag(sub) * (1 << (top(sub) - q - 1))
            memo[id(node)] = got
        return got

    return diag(root) * (1 << top(root))


def projector_deviation(root, n: int, index: int) -> float:
    """max over all entries of |rho - |index><index||."""
    memo: dict[int, float] = {}

    def largest(node) -> float:
        # Every terminal below a reduced ordered diagram is some entry.
        if node.hi is None:
            return abs(node.value)
        got = memo.get(id(node))
        if got is None:
            got = max(largest(node.hi), largest(node.lo))
            memo[id(node)] = got
        return got

    node, worst = root, 0.0
    for level in range(2 * n):
        bit = _bit(index, level // 2, n)
        worst = max(worst, largest(_child(node, level, 1 - bit)))
        node = _child(node, level, bit)
    return max(worst, abs(node.value - 1))
