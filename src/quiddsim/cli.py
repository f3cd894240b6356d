"""Command line front end.

``quiddsim run script.qpd`` executes a script on the diagram engine (or
the dense reference engine with ``--engine dense``) and prints probe
output. ``--check`` cross-runs the other engine and exits 2 if the
final states deviate by more than 1e-9. ``quiddsim bench`` sweeps a
benchmark family and writes CSV or JSON rows.

Exit codes: 0 success, 1 any user error (parse, validation, runtime,
io), 2 a ``--check`` mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import scaling_harness, write_csv, write_json
from .circuit import CircuitError, RunResult, SimulationError, run
from .lang import ParseError, ScriptError, interpret, parse
from .linalg import QuIDD, to_dense
from .oracle import CapExceeded, dense_run

__all__ = ["main"]

CHECK_TOL = 1e-9
# A circuit too wide or too unstructured for this machine ends in a
# RecursionError or a MemoryError: a user error, not a crash.
_RUNTIME_ERRORS = (SimulationError, CircuitError, RecursionError, MemoryError)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for --check here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="quiddsim",
                             description="decision-diagram density matrix "
                                         "circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .qpd script")
    p_run.add_argument("script", help="path to the script")
    p_run.add_argument("--engine", choices=["quidd", "dense"],
                       default="quidd")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--stats", metavar="PATH",
                       help="write a JSON run report")
    p_run.add_argument("--check", action="store_true",
                       help="cross-check against the other engine")
    p_run.add_argument("--dump-dot", metavar="PATH",
                       help="write the final state diagram as DOT "
                            "(quidd engine only)")

    p_bench = sub.add_parser(
        "bench", help="run a benchmark sweep",
        description="peak_bytes is an estimate, not measured memory: "
                    "peak_nodes * NODE_BYTES on the quidd engine, the size "
                    "of one dense 2^n x 2^n matrix on the dense engine.")
    p_bench.add_argument("--family", choices=["grover", "rc_adder"],
                         default="grover")
    p_bench.add_argument("--n-min", type=int, default=5)
    p_bench.add_argument("--n-max", type=int, default=10)
    p_bench.add_argument("--engine", choices=["quidd", "dense"],
                         default="quidd")
    p_bench.add_argument("--out", metavar="PATH",
                         help="output file; .json selects JSON, anything "
                              "else CSV (default: CSV on stdout)")
    return parser


# Built once: an argparse parser holds reference cycles, so one built
# per call would leave garbage that only the cyclic collector frees.
_PARSER = _build_parser()


def _final_array(result: RunResult) -> np.ndarray:
    rho = result.rho
    if isinstance(rho, QuIDD):
        return to_dense(rho)
    return np.asarray(rho)


def _stats_payload(result: RunResult) -> dict:
    stats = result.stats
    return {
        "schema": 1,
        "engine": stats.engine,
        "n_qubits": stats.n_qubits,
        "seed": stats.seed,
        "wall_ms": stats.wall_ms,
        "peak_nodes": stats.peak_nodes,
        "manager_nodes": stats.manager_nodes,
        "steps": [
            {"step": s.step, "op": s.op, "nodes": s.nodes,
             "wall_ms": s.wall_ms}
            for s in stats.steps],
        "records": [
            {"step": r.step, "qubit": r.qubit, "outcome": r.outcome,
             "p0": r.p0, "p1": r.p1}
            for r in result.records],
        "prints": [
            {"step": step, "text": text} for step, text in stats.prints],
    }


def _print_events(result: RunResult) -> None:
    events = list(result.stats.prints)
    for r in result.records:
        if r.outcome is None:
            text = f"measure {r.qubit}: p0={r.p0:.12g} p1={r.p1:.12g}"
        else:
            text = (f"pmeasure {r.qubit} -> {r.outcome} "
                    f"(p0={r.p0:.12g} p1={r.p1:.12g})")
        events.append((r.step, text))
    for _, text in sorted(events, key=lambda e: e[0]):
        print(text)


def _runtime_error(exc: BaseException) -> None:
    # MemoryError usually carries no message; name it instead.
    print(f"runtime error: {str(exc) or type(exc).__name__}",
          file=sys.stderr)


def _cmd_run(args) -> int:
    if args.dump_dot and args.engine != "quidd":
        print("validation error: --dump-dot requires the quidd engine",
              file=sys.stderr)
        return 1
    try:
        with open(args.script) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    try:
        script = parse(text)
    except ParseError as exc:
        print(f"parse error: {args.script}:{exc}", file=sys.stderr)
        return 1
    try:
        circuit = interpret(script)
    except ScriptError as exc:
        print(f"validation error: {args.script}:{exc}", file=sys.stderr)
        return 1

    engine = run if args.engine == "quidd" else dense_run
    try:
        result = engine(circuit, seed=args.seed)
    except (*_RUNTIME_ERRORS, CapExceeded) as exc:
        _runtime_error(exc)
        return 1

    _print_events(result)

    try:
        if args.stats:
            with open(args.stats, "w") as fh:
                json.dump(_stats_payload(result), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
        if args.dump_dot:
            rho = result.rho
            with open(args.dump_dot, "w") as fh:
                fh.write(rho.manager.to_dot(rho.root))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1

    if args.check:
        other_engine = dense_run if args.engine == "quidd" else run
        try:
            other = other_engine(circuit, seed=args.seed)
        except CapExceeded as exc:
            print(f"check skipped: {exc}")
            return 0
        except _RUNTIME_ERRORS as exc:
            _runtime_error(exc)
            return 1
        diff = float(np.abs(_final_array(result) - _final_array(other)).max())
        if diff > CHECK_TOL:
            print(f"check failed: max deviation {diff:.3g}")
            return 2
        print(f"check ok: max deviation {diff:.3g}")
    return 0


def _cmd_bench(args) -> int:
    if args.n_min > args.n_max:
        print("validation error: --n-min is greater than --n-max",
              file=sys.stderr)
        return 1
    try:
        rows = scaling_harness(args.family, range(args.n_min, args.n_max + 1),
                               engine=args.engine)
    except (ValueError, *_RUNTIME_ERRORS) as exc:
        _runtime_error(exc)
        return 1
    try:
        if args.out is None:
            write_csv(rows, sys.stdout)
        elif args.out.endswith(".json"):
            write_json(rows, args.out)
        else:
            write_csv(rows, args.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_bench(args)
