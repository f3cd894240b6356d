"""``run`` and Python's cyclic garbage collector.

A run turns the collector off while it works and restores it after,
whatever way the run ends. That is safe only because the kernel makes
no reference cycles: every diagram is freed by reference counting once
its last reference goes, so a run leaves nothing for the collector. The
tests here hold both halves.
"""

import contextlib
import gc
import io
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_circuit
from quiddsim import circuit, cli, gates
from quiddsim.bench import gen_code_demo
from quiddsim.circuit import (
    AssertProb,
    Circuit,
    CircuitError,
    PartialTraceOp,
    SimulationError,
    run,
)

SCRIPTS = sorted((pathlib.Path(__file__).parent / "scripts").glob("*.qpd"))


@pytest.fixture
def collector():
    """Restore the collector's state after a test that changes it."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def _fails_in_validate():
    run(Circuit(1, ops=[gates.h(3)]))


def _fails_in_assert_prob():
    run(Circuit(1, ops=[gates.h(0), AssertProb(0, 1, 1.0, 1e-12)]))


def _fails_in_assert_prob_quietly():
    with contextlib.suppress(SimulationError):
        _fails_in_assert_prob()


def test_no_collection_during_run(collector):
    # A pass counts if it starts while run's frame is on the stack: after
    # a run the collector may well run at the caller's next allocation.
    passes = []

    def hook(phase, info):
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None and frame.f_code is not run.__code__:
            frame = frame.f_back
        if frame is not None:
            passes.append(info)

    gc.enable()
    gc.callbacks.append(hook)
    try:
        run(gen_code_demo("steane7", ("x", 3)))
    finally:
        gc.callbacks.remove(hook)
    assert passes == []


@pytest.mark.parametrize("execute, error", [
    (lambda: run(gen_code_demo("steane7", ("x", 3))), None),
    (_fails_in_assert_prob, SimulationError),
    (_fails_in_validate, CircuitError),
], ids=["normal", "assert-prob", "validate"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_restores_collector_state(collector, execute, error, enabled):
    # A collector the caller had disabled stays disabled.
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(700, 10, 10)
    with pytest.raises(error) if error else contextlib.nullcontext():
        execute()
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == (700, 10, 10)


@pytest.mark.parametrize("error", [RecursionError, MemoryError,
                                   KeyboardInterrupt])
def test_run_reenables_collector_on_any_exit(collector, error, monkeypatch):
    def failing(*args):
        raise error

    monkeypatch.setattr(circuit, "initial_density", failing)
    gc.enable()
    with pytest.raises(error):
        run(Circuit(1, ops=[gates.h(0)]))
    assert gc.isenabled()


def _cyclic_garbage_of(execute) -> int:
    """Objects that only the cyclic collector frees, left by ``execute``
    once its result is dropped."""
    gc.collect()
    gc.disable()
    execute()
    return gc.collect()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       depth=st.integers(0, 20))
def test_run_leaves_no_cyclic_garbage(seed, n, depth):
    # Measurements and channels come with the draw; a partial trace and
    # a second draw on the remaining wires follow it.
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, depth)
    c.ops.append(PartialTraceOp(int(rng.integers(0, n))))
    c.ops += random_circuit(rng, n - 1, depth).ops
    enabled = gc.isenabled()
    try:
        assert _cyclic_garbage_of(lambda: run(c, seed=seed)) == 0
        assert _cyclic_garbage_of(_fails_in_assert_prob_quietly) == 0
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_cli_run_leaves_no_cyclic_garbage(collector, script, seed, tmp_path):
    # ``--stats`` is left out: json's encoder with an indent builds its
    # writer from closures that refer to each other (33 objects a call).
    # ``--check`` adds a dense run.
    argv = ["run", str(script), "--seed", str(seed), "--check",
            "--dump-dot", str(tmp_path / "state.dot")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert _cyclic_garbage_of(lambda: cli.main(argv)) == 0


def test_cli_failing_run_leaves_no_cyclic_garbage(collector, tmp_path):
    script = tmp_path / "fails.qpd"
    script.write_text("qubits 1\nh 0\nassert_prob 0 1 1.0 1e-9\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert _cyclic_garbage_of(lambda: cli.main(["run", str(script)])) \
            == 0
    assert err.getvalue().startswith("runtime error: step 1: assert_prob")


def test_cli_plain_run_leaves_no_cyclic_garbage(collector):
    # The argparse parser, which holds reference cycles, is built once per
    # process and not at every call.
    argv = ["run", str(SCRIPTS[0].with_name("bell.qpd"))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert _cyclic_garbage_of(lambda: cli.main(argv)) == 0
