"""quiddsim benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload grover --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The workload runs in a fresh single-threaded worker process
(``worker.py``). With ``--trace 0`` the last line of standard output
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones, as

    {"correct": true, "attempted": 20, "failed": 0, "metrics": {...}}

Times are in reference seconds: a measured time multiplied by the speed
factor of this machine at that moment (see ``Speed``). ``setup_s`` is
the median over ``SETUP_PROBES`` fresh processes, each timing the import
of quiddsim and the generation of the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"
WORKLOADS = ("grover", "adder", "qec_noise")
SETUP_PROBES = 7
# A run must end within 180 s, whatever the worker does.
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Speed:
    """How fast this machine runs memory-bound Python right now.

    On shared hardware that speed drifts by tens of percent within a
    minute, and the diagram code, whose working set is tens of MiB,
    drifts with it. A reference loop of random reads over a 72 MiB table
    tracks it: its time correlated 0.90-0.94 with round times of the
    workloads. It runs here, in a process apart from the worker, so that
    it adds nothing to the worker's memory or garbage collection, and
    only while the worker waits.
    """

    # Fixes the unit: near the loop's median time on the VM of the
    # README's figures. A time multiplied by ``factor()`` is in
    # reference seconds.
    REFERENCE_S = 0.040
    SIZE = 2_000_000
    READS = 60_000

    def __init__(self):
        self.table = list(range(self.SIZE))

    def _loop(self) -> float:
        table, size, x, total = self.table, self.SIZE, 12345, 0
        t0 = time.perf_counter()
        for _ in range(self.READS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[x % size]
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Reference seconds per measured second now: below 1 while the
        machine is slow."""
        loop_s = statistics.median(self._loop() for _ in range(3))
        return self.REFERENCE_S / loop_s


class WorkerError(Exception):
    pass


def _worker(args: list[str], env: dict, deadline: float,
            speed: Speed) -> dict:
    """Run worker.py, answer its ``speed?`` requests, return its result."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            if line == "speed?\n":
                proc.stdin.write(f"{speed.factor()!r}\n")
                proc.stdin.flush()
            else:
                last = line
    except BrokenPipeError:
        proc.kill()
    finally:
        timer.cancel()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return json.loads(last)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quiddsim" / "__init__.py").is_file():
        print(f"no quiddsim source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    speed = Speed()
    setups = []
    try:
        if not args.trace:
            before = speed.factor()
            for _ in range(SETUP_PROBES):
                raw = _worker(common + ["--setup-only"], env, deadline,
                              speed)["setup_s"]
                after = speed.factor()
                setups.append(raw * (before + after) / 2)
                before = after
        out = _worker(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline,
                      speed)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    for failure in out["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{out['rounds']} rounds, measured wall_s={out['raw_wall_s']:.4f}, "
          f"speed factor {out['speed']:.4f}", file=sys.stderr)
    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
