"""Command line behavior: exit codes, stats reports, cross-checks."""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quiddsim.cli import main

BELL = "qubits 2\nh 0\ncnot 0 1\nmeasure 0\npmeasure 1\n"
MALFORMED = sorted(
    (Path(__file__).parent / "scripts" / "malformed").glob("*.qpd"))


@pytest.fixture
def bell_script(tmp_path):
    path = tmp_path / "bell.qpd"
    path.write_text(BELL)
    return path


def test_run_ok(bell_script, capsys):
    assert main(["run", str(bell_script)]) == 0
    out = capsys.readouterr().out
    assert "measure 0: p0=0.5 p1=0.5" in out
    assert "pmeasure 1 -> " in out


def test_run_engines_agree_on_stdout(bell_script, capsys):
    assert main(["run", str(bell_script), "--seed", "7"]) == 0
    quidd_out = capsys.readouterr().out
    assert main(["run", str(bell_script), "--seed", "7",
                 "--engine", "dense"]) == 0
    assert capsys.readouterr().out == quidd_out


def test_run_parse_error_position(tmp_path, capsys):
    path = tmp_path / "bad.qpd"
    path.write_text("qubits 1\nwobble 0\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"parse error: {path}:2:1:" in err


def test_run_validation_error_position(tmp_path, capsys):
    path = tmp_path / "bad.qpd"
    path.write_text("qubits 1\nx 3\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"validation error: {path}:2:1:" in err


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_malformed_script_exits_1_at_its_position(path, capsys):
    kind, line, col = re.match(r"# expect (parse|script) (\d+):(\d+)",
                               path.read_text()).groups()
    label = "parse" if kind == "parse" else "validation"
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith(f"{label} error: {path}:{line}:{col}: ")
    assert out.out == ""


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.qpd")]) == 1
    assert "io error:" in capsys.readouterr().err


def test_run_runtime_error(tmp_path, capsys):
    path = tmp_path / "fail.qpd"
    path.write_text("qubits 1\nassert_prob 0 1 1 1e-9\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "runtime error:" in err and "assert_prob" in err


def test_run_too_wide_for_recursion_exits_1(tmp_path, capsys):
    path = tmp_path / "wide.qpd"
    path.write_text("qubits 500\nh 0\nmeasure 0\n")
    assert main(["run", str(path)]) == 1
    assert "validation error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target", [
    (["run", "{script}"], "quiddsim.cli.run"),
    (["run", "{script}", "--engine", "dense", "--check"], "quiddsim.cli.run"),
    (["bench", "--n-min", "5", "--n-max", "5"],
     "quiddsim.cli.scaling_harness"),
])
@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_out_of_resources_exits_1(argv, target, error, bell_script, capsys,
                                  monkeypatch):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, exhausted)
    argv = [a.format(script=bell_script) for a in argv]
    assert main(argv) == 1
    assert f"runtime error: {error.__name__}" in capsys.readouterr().err


def test_stats_report(bell_script, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(["run", str(bell_script), "--seed", "3",
                 "--stats", str(stats_path)]) == 0
    capsys.readouterr()
    payload = json.loads(stats_path.read_text())
    assert payload["schema"] == 1
    assert payload["engine"] == "quidd"
    assert payload["n_qubits"] == 2
    assert payload["seed"] == 3
    assert payload["peak_nodes"] >= 1
    assert [s["op"] for s in payload["steps"]] == \
        ["gate h [0]", "gate x [1] controls [(0, 1)]",
         "measure 0", "pmeasure 1"]
    assert payload["records"][0]["outcome"] is None
    assert payload["records"][1]["outcome"] in (0, 1)


def _strip_wall(payload):
    payload["wall_ms"] = None
    for step in payload["steps"]:
        step["wall_ms"] = None
    return payload


def test_stats_deterministic_up_to_wall_times(bell_script, tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["run", str(bell_script), "--seed", "11",
                     "--stats", str(p)]) == 0
    capsys.readouterr()
    a, b = (json.loads(p.read_text()) for p in paths)
    assert _strip_wall(a) == _strip_wall(b)


def test_check_ok(bell_script, capsys):
    assert main(["run", str(bell_script), "--check"]) == 0
    assert "check ok:" in capsys.readouterr().out


def test_check_skipped_over_cap(tmp_path, capsys):
    path = tmp_path / "wide.qpd"
    path.write_text("qubits 12\nh 0\n")
    assert main(["run", str(path), "--check"]) == 0
    assert "check skipped: 12 qubits" in capsys.readouterr().out


def test_over_cap_wording_is_the_same_for_run_and_check(tmp_path, capsys):
    path = tmp_path / "wide.qpd"
    path.write_text("qubits 12\nh 0\n")
    assert main(["run", str(path), "--engine", "dense"]) == 1
    err = capsys.readouterr().err.strip()
    assert main(["run", str(path), "--check"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert err.startswith("runtime error: ")
    assert out.startswith("check skipped: ")
    assert err.removeprefix("runtime error: ") == \
        out.removeprefix("check skipped: ")


def test_check_mismatch_exits_2(bell_script, capsys, monkeypatch):
    wrong = np.eye(4) * 0.25  # far from any collapsed projector

    def fake_dense_run(circuit, seed=0):
        return SimpleNamespace(rho=wrong)

    monkeypatch.setattr("quiddsim.cli.dense_run", fake_dense_run)
    assert main(["run", str(bell_script), "--check"]) == 2
    assert "check failed:" in capsys.readouterr().out


def test_dump_dot(bell_script, tmp_path, capsys):
    dot_path = tmp_path / "state.dot"
    assert main(["run", str(bell_script), "--dump-dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert dot_path.read_text().startswith("digraph")


def test_dump_dot_requires_quidd(bell_script, capsys):
    assert main(["run", str(bell_script), "--engine", "dense",
                 "--dump-dot", "x.dot"]) == 1
    assert "--dump-dot" in capsys.readouterr().err


def test_bench_stdout_csv(capsys):
    assert main(["bench", "--n-min", "5", "--n-max", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,gates,engine,wall_ms,peak_nodes,peak_bytes"
    assert len(lines) == 3
    assert lines[1].startswith("5,") and lines[2].startswith("6,")


def test_bench_output_files(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    assert main(["bench", "--n-min", "5", "--n-max", "5",
                 "--out", str(csv_path)]) == 0
    assert main(["bench", "--n-min", "5", "--n-max", "5",
                 "--out", str(json_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_text().startswith("n,gates,engine")
    assert json.loads(json_path.read_text())[0]["n"] == 5


def test_bench_dense_over_cap_rows(capsys):
    assert main(["bench", "--family", "rc_adder", "--n-min", "0",
                 "--n-max", "1", "--engine", "dense"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all("OVER-CAP" in line for line in lines[1:])  # 16 > cap


def test_bench_bad_range(capsys):
    assert main(["bench", "--n-min", "7", "--n-max", "5"]) == 1
    assert "--n-min" in capsys.readouterr().err


def test_bench_takes_no_seed(capsys):
    # Neither family samples a measurement, so a seed would change no row.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n-min", "5", "--n-max", "5", "--seed", "3"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "x.qpd", "--engine", "warp"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_entry_point_subprocess(bell_script):
    proc = subprocess.run(
        [sys.executable, "-m", "quiddsim", "run", str(bell_script)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "measure 0: p0=0.5" in proc.stdout
