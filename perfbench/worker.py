"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/worker.py --workload adder --seed 1 --setup-only

``run.py`` starts this in a fresh process per run and answers its
requests for the speed factor; it is not meant to be called by hand.

The timed phase runs whole rounds, one pass over the workload's cases,
starting a new round while less than ``--seconds`` have passed. Only the
``circuit.run`` call of each case is timed; its check runs after. Every
1.5 s or so of timed work, the worker asks run.py, on its standard input
and output, for the machine's speed factor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _quantile(values: list[float], k: int) -> float:
    """k-th of the nine deciles, or the only value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[k - 1]


def _peak_rss_mib() -> float:
    """This process's peak resident set size.

    Read from VmHWM, not ru_maxrss: Linux carries ru_maxrss over exec, so
    it would report run.py's memory at the moment it started this worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(circuit, cases, scaler) -> dict:
    """One pass over ``cases``; each time is a [measured, scaled] cell."""
    times, failures, dd = [], [], []
    for case in cases:
        t0 = time.perf_counter()
        try:
            result = circuit.run(case.circuit)
        except Exception as exc:  # a run that raises is a failed circuit
            times.append(scaler.add(time.perf_counter() - t0))
            failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
            continue
        times.append(scaler.add(time.perf_counter() - t0))
        problem = case.check(result)
        if problem:
            failures.append(f"{case.label}: {problem}")
        dd.append((result.stats.manager_nodes, result.stats.peak_nodes))
    return {"times": times, "failures": failures, "dd": dd}


class Scaler:
    """Scales measured times by the machine's speed around them.

    Circuits are grouped into segments of about ``SEGMENT_S`` seconds of
    measured time. ``speed()`` is called before the first segment and
    after each one, and a segment's times are multiplied by the mean of
    the two factors around it. The machine's speed changes within
    seconds, so a shorter segment tracks it better; each call costs about
    0.12 s.
    """

    SEGMENT_S = 1.5

    def __init__(self, speed):
        self.speed = speed
        self.factors = [speed()]
        self.segment: list[list] = []

    def add(self, seconds: float) -> list:
        cell = [seconds, None]
        self.segment.append(cell)
        if sum(c[0] for c in self.segment) >= self.SEGMENT_S:
            self.close()
        return cell

    def close(self) -> None:
        if not self.segment:
            return
        self.factors.append(self.speed())
        factor = (self.factors[-2] + self.factors[-1]) / 2
        for cell in self.segment:
            cell[1] = cell[0] * factor
        self.segment = []


def _layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer figures of each round; the median over rounds is kept."""
    per_round = []
    for r in rounds:
        scale = sum(c[1] for c in r["times"]) / sum(c[0] for c in r["times"])
        self_s, calls, ms = r["self_s"], r["calls"], 1e3 * scale
        m = {f"{name}.ms": self_s.get(name, 0.0) * ms for name in (
            "linalg.matrix_multiply", "circuit.build_operator",
            "linalg.conj_transpose", "circuit.init", "circuit.measure",
            "linalg.trace", "circuit.stats", "circuit.other")}
        m["circuit.apply.self_ms"] = self_s.get("circuit.apply", 0.0) * ms
        for name in ("linalg.matrix_multiply", "linalg.add",
                     "linalg.partial_trace"):
            m[f"{name}.calls"] = calls[f"quiddsim.{name}"]
        builds = calls["quiddsim.circuit._embed_operator"]
        # apply_channel applies each Kraus operator through apply_gate.
        applied = calls["quiddsim.circuit.apply_gate"]
        m["circuit.build_operator.calls"] = builds
        m["circuit.op_cache.hit_ratio"] = 1 - builds / max(applied, 1)
        if r["dd"]:
            m["dd.nodes_allocated"] = sum(a for a, _ in r["dd"])
            m["dd.peak_live_nodes"] = max(p for _, p in r["dd"])
            m["dd.alloc_per_live"] = max(a / p for a, p in r["dd"])
        per_round.append(m)
    units = {"calls": "count", "hit_ratio": "ratio", "nodes_allocated": "count",
             "peak_live_nodes": "count", "alloc_per_live": "ratio"}
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round if name in m]
        unit = units.get(name.rsplit(".", 1)[-1], "ms")
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def speed_factor() -> float:
    """Ask run.py for the machine's speed factor now (see run.Speed)."""
    print("speed?", flush=True)
    return float(sys.stdin.readline())


def measure(cases, seconds: float, speed, tracer=None) -> dict:
    """Run whole rounds of ``cases`` for about ``seconds``; report.

    Times are scaled by ``speed()`` factors, see ``Scaler``.
    """
    from quiddsim import circuit

    rounds = []
    scaler = Scaler(speed)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        before = tracer.snapshot() if tracer else None
        r = run_round(circuit, cases, scaler)
        if tracer:
            after = tracer.snapshot()
            r["self_s"] = {k: v - before[0].get(k, 0.0)
                           for k, v in after[0].items()}
            r["calls"] = after[1] - before[1]
        rounds.append(r)
    scaler.close()

    times = [scaled for r in rounds for _, scaled in r["times"]]
    failures = [f for r in rounds for f in r["failures"]]
    wall = statistics.median(
        sum(scaled for _, scaled in r["times"]) for r in rounds)
    if tracer:
        metrics = _layer_metrics(rounds)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "circuit_ms.p50": {"value": _quantile(times, 5) * 1e3,
                               "unit": "ms"},
            "circuit_ms.p90": {"value": _quantile(times, 9) * 1e3,
                               "unit": "ms"},
            "peak_rss_mib": {"value": _peak_rss_mib(), "unit": "MiB"},
        }
    return {"attempted": len(times), "failed": len(failures),
            "failures": failures, "rounds": len(rounds),
            "raw_wall_s": statistics.median(
                sum(measured for measured, _ in r["times"]) for r in rounds),
            "speed": statistics.mean(scaler.factors), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "quiddsim" / "__init__.py").is_file():
        print(f"no quiddsim source under {SRC}", file=sys.stderr)
        return 2

    # Set-up: import of the program (numpy included) and the inputs.
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import quiddsim
    import workloads
    cases = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    if Path(quiddsim.__file__).resolve().parent != SRC / "quiddsim":
        print(f"imported quiddsim from {quiddsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    print(json.dumps(measure(cases, args.seconds, speed_factor, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
