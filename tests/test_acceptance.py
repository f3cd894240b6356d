"""Acceptance gate: one test per criterion, one verdict line each.

Every test prints ``[ACCEPTANCE] <criterion>: PASS|FAIL`` so the suite
doubles as a checklist. Tolerances are part of the contract and are not
loosened to make runs pass.
"""

import math
import re
import time
from pathlib import Path

import numpy as np

from helpers import random_circuit
from quiddsim import bench, gates, linalg, oracle
from quiddsim.bench import (
    gen_bb84,
    gen_code_demo,
    gen_grover,
    gen_rc_adder,
    grover_success_probability,
    scaling_harness,
)
from quiddsim.circuit import measure_prob, run
from quiddsim.dd import ADD
from quiddsim.lang import ParseError, ScriptError, interpret, parse, pretty
from quiddsim.linalg import (
    entry,
    from_dense,
    new_manager,
    outer_product,
    partial_trace,
    to_dense,
    trace,
    uniform_superposition,
)

SCRIPTS = Path(__file__).parent / "scripts"

PREP = np.array([0.8, 0.6])  # logical state used by the code demos


def _verdict(name: str, failures: list, detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    tail = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{tail}", flush=True)
    assert not failures, f"{name}: {failures[:5]}"


def test_acceptance_differential():
    """200 random circuits, diagram engine vs dense oracle, <= 1e-9."""
    rng = np.random.default_rng(31415)
    failures = []
    worst = 0.0
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 31))
        c = random_circuit(rng, n, depth, with_measures=False)
        seed = int(rng.integers(0, 2**31))
        delta = float(np.max(np.abs(
            to_dense(run(c, seed=seed).rho) - oracle.dense_run(c, seed=seed).rho)))
        worst = max(worst, delta)
        if delta > 1e-9:
            failures.append((trial, delta))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(("runtime_s", elapsed))
    _verdict("differential-200", failures,
             f"worst |delta| {worst:.3e}, {elapsed:.1f}s")


def test_acceptance_partial_trace():
    """50 mixed states, every qubit: dense match + literal cofactor identity."""
    rng = np.random.default_rng(27182)
    failures = []
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(1 << n, 1 << n)) \
            + 1j * rng.normal(size=(1 << n, 1 << n))
        dense = a @ a.conj().T
        dense /= np.trace(dense).real
        mgr = new_manager(n)
        rho = from_dense(mgr, dense)
        for qb in range(n):
            delta = float(np.max(np.abs(
                to_dense(partial_trace(rho, qb))
                - oracle.dense_ptrace(dense, qb))))
            worst = max(worst, delta)
            if delta > 1e-9:
                failures.append((trial, qb, delta))
            # the definition, written out: add the two diagonal
            # cofactors of this qubit's variable pair, close the gap
            lr, lc = 2 * qb, 2 * qb + 1
            d1 = mgr.cofactor(mgr.cofactor(rho.root, lr, 1), lc, 1)
            d0 = mgr.cofactor(mgr.cofactor(rho.root, lr, 0), lc, 0)
            literal = mgr.shift_variables(
                mgr.apply(d1, d0, ADD), lc + 1, -2)
            if partial_trace(rho, qb).root is not literal:
                failures.append((trial, qb, "edge mismatch"))
    _verdict("partial-trace-50", failures, f"worst |delta| {worst:.3e}")


def test_acceptance_outer_product():
    """50 unit vectors: trace 1 +- 1e-9; undivided form pins trace 2^n."""
    rng = np.random.default_rng(16180)
    failures = []
    for trial in range(50):
        n = int(rng.integers(1, 7))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        mgr = new_manager(n)
        vec = from_dense(mgr, v)
        t = trace(outer_product(vec))
        if abs(t - 1) > 1e-9:
            failures.append((trial, "normalized", t))
        t_raw = trace(linalg._outer_product_raw(vec))
        if abs(t_raw - (1 << n)) > 1e-6:
            failures.append((trial, "raw", t_raw))
    _verdict("outer-product-50", failures)


def test_acceptance_compression():
    """Uniform rho is 1 node for n=1..20; H tensor powers grow affinely."""
    failures = []
    for n in range(1, 21):
        mgr = new_manager(n)
        rho = outer_product(uniform_superposition(mgr, n))
        if rho.node_count != 1:
            failures.append((n, "uniform", rho.node_count))
    mgr = new_manager(10)
    h1 = from_dense(mgr, gates.PAYLOADS["h"])
    counts = []
    op = h1
    for n in range(2, 11):
        op = linalg.tensor(op, h1)
        counts.append(op.node_count)
    diffs = {b - a for a, b in zip(counts, counts[1:])}
    if len(diffs) != 1:
        failures.append(("hadamard_diffs", counts))
    _verdict("compression", failures,
             f"H-power counts {counts[0]}..{counts[-1]}, step {diffs}")


def test_acceptance_grover_scaling():
    """n=5..16 completes; peak growth bounded; dense refuses n > 11."""
    failures = []
    t0 = time.perf_counter()
    rows = scaling_harness("grover", range(5, 17))
    elapsed = time.perf_counter() - t0
    peaks = {row.n: row.peak_nodes for row in rows}
    if any(row.status != "ok" for row in rows):
        failures.append(("status", [row.status for row in rows]))
    ratios = {n: peaks[n + 1] / peaks[n] for n in range(10, 16)}
    for n, ratio in ratios.items():
        if ratio > 1.5:
            failures.append((n, ratio))
    if elapsed >= 600:
        failures.append(("runtime_s", elapsed))
    dense_rows = scaling_harness("grover", [12, 13], engine="dense")
    if any(row.status != "OVER-CAP" for row in dense_rows):
        failures.append(("dense", [row.status for row in dense_rows]))
    _verdict("grover-scaling", failures,
             f"max ratio {max(ratios.values()):.3f}, {elapsed:.0f}s, "
             f"peaks 5..16 {[peaks[n] for n in range(5, 17)]}")


def test_acceptance_grover_probability():
    """Success probability matches the closed form for n = 2..13."""
    failures = []
    worst = 0.0
    for n in range(2, 14):
        c = gen_grover(n)
        marked = int("".join("1" if q % 2 == 0 else "0" for q in range(n)), 2)
        p = entry(run(c).rho, marked, marked).real
        diff = abs(p - grover_success_probability(n))
        worst = max(worst, diff)
        if diff > 1e-6:
            failures.append((n, diff))
    _verdict("grover-probability", failures, f"worst diff {worst:.3e}")


def test_acceptance_adder():
    """All 256 operand pairs: correct sum and carry, one shared peak."""
    failures = []
    peaks = set()
    for x in range(16):
        for y in range(16):
            c = gen_rc_adder(x, y)
            result = run(c)  # built-in assert_prob ops fire on any error
            peaks.add(result.stats.peak_nodes)
            total = 0
            for i in range(4):
                total |= int(measure_prob(result.rho, 8 + i)[1] > 0.5) << i
            total |= int(measure_prob(result.rho, 15)[1] > 0.5) << 4
            if total != x + y:
                failures.append((x, y, total))
    if len(peaks) != 1:
        failures.append(("peaks", sorted(peaks)))
    _verdict("adder-256", failures, f"peak {sorted(peaks)}")


def test_acceptance_error_correction():
    """bitflip3 survives every X (oracle-checked); steane7 every X and Z."""
    failures = []

    def fidelity(rho):
        return float(PREP @ np.real(rho) @ PREP)

    for err in [None, ("x", 0), ("x", 1), ("x", 2)]:
        c = gen_code_demo("bitflip3", err)
        fq = fidelity(to_dense(run(c).rho))
        fd = fidelity(oracle.dense_run(c).rho)
        if abs(fq - 1) > 1e-9:
            failures.append(("bitflip3", err, "quidd", fq))
        if abs(fd - 1) > 1e-9:
            failures.append(("bitflip3", err, "dense", fd))

    steane_errors = [None] + [(kind, w) for kind in ("x", "z")
                              for w in range(7)]
    for err in steane_errors:
        c = gen_code_demo("steane7", err)
        f = fidelity(to_dense(run(c).rho))
        if abs(f - 1) > 1e-6:
            failures.append(("steane7", err, f))
    _verdict("error-correction", failures)


def test_acceptance_bb84():
    """Conditional sifted-key error rate: 0 without Eve, 1/4 with."""
    failures = []
    for eve, want in ((False, 0.0), (True, 0.25)):
        c = gen_bb84(eve)
        for label, rho in (("quidd", to_dense(run(c).rho)),
                           ("dense", oracle.dense_run(c).rho)):
            diag = np.real(np.diag(rho))
            cond = diag[3] / (diag[2] + diag[3])
            if abs(cond - want) > 1e-9:
                failures.append((eve, label, cond))
    _verdict("bb84", failures)


def test_acceptance_parser():
    """Golden corpus round-trips; malformed fixtures report exact spots."""
    failures = []
    goldens = sorted(SCRIPTS.glob("*.qpd"))
    if len(goldens) < 15:
        failures.append(("corpus", len(goldens)))
    for path in goldens:
        ast = parse(path.read_text())
        if parse(pretty(ast)) != ast:
            failures.append(("round-trip", path.name))
    directive = re.compile(r"# expect (parse|script) (\d+):(\d+)")
    malformed = sorted((SCRIPTS / "malformed").glob("*.qpd"))
    for path in malformed:
        text = path.read_text()
        m = directive.match(text)
        kind, line, col = m.group(1), int(m.group(2)), int(m.group(3))
        try:
            interpret(parse(text))
            failures.append(("accepted", path.name))
        except (ParseError, ScriptError) as exc:
            wrong_kind = isinstance(exc, ParseError) != (kind == "parse")
            if wrong_kind or (exc.line, exc.col) != (line, col):
                failures.append((path.name, exc.line, exc.col))
    _verdict("parser-goldens", failures,
             f"{len(goldens)} goldens, {len(malformed)} malformed")
