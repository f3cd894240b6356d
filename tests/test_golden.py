"""Golden corpus: every script under ``tests/scripts`` at seeds 0 and 7.

Each ``tests/golden/<script>.<seed>.json`` holds what ``quiddsim run``
reports for that script and seed on the diagram engine: the ``--stats``
payload with every ``wall_ms`` set to null, the stdout lines and the
``--dump-dot`` rendering of the final state. Refactors of the kernel must
leave all three unchanged.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from quiddsim.cli import main

HERE = pathlib.Path(__file__).parent
SCRIPTS = sorted((HERE / "scripts").glob("*.qpd"))
GOLDEN = HERE / "golden"
SEEDS = (0, 7)


def observe(script: pathlib.Path, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = pathlib.Path(tmp, "stats.json")
        dot_path = pathlib.Path(tmp, "state.dot")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", str(script), "--seed", str(seed),
                         "--stats", str(stats_path),
                         "--dump-dot", str(dot_path)])
        assert code == 0, f"{script.name} seed {seed} exited {code}"
        stats = json.loads(stats_path.read_text())
        dot = dot_path.read_text().splitlines()
    stats["wall_ms"] = None
    for step in stats["steps"]:
        step["wall_ms"] = None
    return {"stats": stats, "stdout": out.getvalue().splitlines(),
            "dot": dot}


def golden_path(script: pathlib.Path, seed: int) -> pathlib.Path:
    return GOLDEN / f"{script.stem}.{seed}.json"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_golden_run(script, seed):
    want = json.loads(golden_path(script, seed).read_text())
    assert observe(script, seed) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for script in SCRIPTS:
        for seed in SEEDS:
            with open(golden_path(script, seed), "w") as fh:
                json.dump(observe(script, seed), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
