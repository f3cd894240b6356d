"""Property tests over generated circuits.

Hypothesis draws the circuit shape and the seed of ``random_circuit``.
The settings are fixed (derandomized, no example database) so that a
run is reproducible and writes nothing next to the suite.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import random_circuit
from quiddsim.circuit import run
from quiddsim.linalg import to_dense


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       depth=st.integers(0, 12))
def test_density_matrix_invariants(seed, n, depth):
    """Gates, channels and measurements keep a density matrix: trace 1,
    Hermitian, positive semidefinite."""
    circuit = random_circuit(np.random.default_rng(seed), n, depth)
    rho = to_dense(run(circuit, seed=seed).rho)
    assert abs(np.trace(rho) - 1) < 1e-9
    assert np.abs(rho - rho.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-9
