"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

Each workload runs one round, untraced and traced, and every metric
named in BENCHMARK.json comes out. A wrong expected value counts its
circuit as failed. The independent readers agree with quiddsim's own
dense conversion.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import readout  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quiddsim import bench, gates  # noqa: E402
from quiddsim.circuit import Circuit, run  # noqa: E402
from quiddsim.linalg import to_dense  # noqa: E402
from worker import measure  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NO_SCALING = lambda: 1.0  # noqa: E731
TINY = {
    "grover": partial(workloads.grover_cases, widths=(3, 4)),
    "adder": partial(workloads.adder_cases, pairs=3),
    "qec_noise": partial(workloads.qec_cases, wires=(4,)),
}


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_each_workload_runs_and_passes():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]}
    for name, make in TINY.items():
        cases = make(seed=3)
        out = measure(cases, 0, NO_SCALING)
        assert out["failures"] == [], (name, out["failures"])
        assert out["attempted"] == len(cases) and out["rounds"] == 1
        # run.py adds setup_s.
        assert set(out["metrics"]) | {"setup_s"} == _names("end_to_end")
        assert all(m["value"] > 0 for m in out["metrics"].values()), name


def test_traced_run_reports_every_layer():
    for name, make in TINY.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out = measure(make(seed=3), 0, NO_SCALING, tracer=tracer)
        finally:
            tracer.uninstall()
        assert out["failed"] == 0, out["failures"]
        assert set(out["metrics"]) == _names("per_layer"), name
        assert out["metrics"]["linalg.matrix_multiply.calls"]["value"] > 0


def test_same_seed_same_inputs():
    for make in TINY.values():
        assert ([c.label for c in make(seed=5)]
                == [c.label for c in make(seed=5)])


def _broken(case, **wrong):
    return replace(case, check=partial(case.check.func, **{
        **case.check.keywords, **wrong}))


def test_wrong_expected_value_is_a_failed_circuit():
    g = workloads.grover_cases(seed=1, widths=(3,))[0]
    a = workloads.adder_cases(seed=1, pairs=1)[0]
    q = workloads.qec_cases(seed=1, wires=(0,))[0]
    cases = [
        _broken(g, p=g.check.keywords["p"] + 1e-6),
        _broken(g, marked=g.check.keywords["marked"] ^ 1),
        _broken(a, index=a.check.keywords["index"] ^ 1),
        replace(q, check=partial(q.check,
                                 expected=((0.36, 0.48), (0.48, 0.64)))),
    ]
    out = measure(cases, 0, NO_SCALING)
    assert out["attempted"] == 4 and out["failed"] == 4, out["failures"]


def test_adder_index_matches_the_circuit_asserts():
    # gen_rc_adder asserts the sum bits itself; a failing assert raises.
    for x, y in ((0, 0), (15, 15), (9, 7)):
        index = workloads.adder_basis_index(x, y)
        result = run(bench.gen_rc_adder(x, y))
        assert readout.projector_deviation(result.rho.root, 16, index) < 1e-9


def test_readout_agrees_with_dense():
    c = Circuit(3, ops=[gates.h(0), gates.cnot(0, 1), gates.t(2),
                        gates.h(2), gates.bit_flip(1, 0.2),
                        gates.phase_flip(2, 0.3)])
    rho = run(c).rho
    dense = to_dense(rho)
    got = np.array([[readout.entry(rho.root, 3, r, k) for k in range(8)]
                    for r in range(8)])
    assert np.allclose(got, dense, atol=1e-12)
    assert abs(readout.trace(rho.root, 3) - np.trace(dense)) < 1e-12
    basis = run(Circuit(3, ops=[gates.x(0), gates.x(2)])).rho
    assert readout.projector_deviation(basis.root, 3, 0b101) < 1e-12
    assert abs(readout.projector_deviation(basis.root, 3, 0b100) - 1) < 1e-12
    assert abs(readout.projector_deviation(rho.root, 3, 0)
               - np.abs(dense - np.diag(np.eye(8)[0])).max()) < 1e-12


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
