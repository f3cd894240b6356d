"""Self time and call counts at the public entry points of each layer.

The program is not changed: ``Tracer.install`` swaps module attributes
for timing wrappers, which every call made through the module (``run``
calls ``apply_gate``, ``circuit`` calls ``linalg.matrix_multiply``)
then passes through. A span's self time is its duration minus the
durations of the spans opened inside it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from quiddsim import circuit, linalg

# (module, attribute, span name). ``_embed_operator`` is the one place
# where both gate operators and the Kraus operators of channels are
# built; ``count_nodes`` is the per-step node count ``run`` records.
# A span name of None counts calls only and leaves the time to the
# caller's span: ``add`` and ``partial_trace`` never run on two of the
# three workloads, where a time of theirs would read 0 on every run.
SPANS = (
    (circuit, "run", "circuit.other"),
    (circuit, "initial_density", "circuit.init"),
    (circuit, "_embed_operator", "circuit.build_operator"),
    (circuit, "apply_gate", "circuit.apply"),
    (circuit, "apply_channel", "circuit.apply"),
    (circuit, "measure_prob", "circuit.measure"),
    (circuit, "sample_measure", "circuit.measure"),
    (circuit, "collapse", "circuit.measure"),
    (circuit, "count_nodes", "circuit.stats"),
    (linalg, "matrix_multiply", "linalg.matrix_multiply"),
    (linalg, "conj_transpose", "linalg.conj_transpose"),
    (linalg, "add", None),
    (linalg, "partial_trace", None),
    (linalg, "trace", "linalg.trace"),
)


class Tracer:
    def __init__(self):
        # Self time by span name, calls by wrapped function.
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # Per open span: seconds spent in the spans opened inside it.
        self._children: list[float] = []
        self._originals: list = []

    def _wrap(self, fn, name: str | None, qualname: str):
        clock = time.perf_counter
        children = self._children
        self_s, calls = self.self_s, self.calls

        if name is None:
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - t0
                self_s[name] += spent - children.pop()
                calls[qualname] += 1
                if children:
                    children[-1] += spent

        return traced

    def install(self) -> None:
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr,
                    self._wrap(fn, name, f"{module.__name__}.{attr}"))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def snapshot(self) -> tuple[dict, Counter]:
        return dict(self.self_s), Counter(self.calls)
