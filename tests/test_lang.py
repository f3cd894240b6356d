"""Parser, validator, interpreter, and the golden script corpus."""

import re
from pathlib import Path

import numpy as np
import pytest

from quiddsim import gates
from quiddsim.circuit import (
    AmplitudeInit,
    AssertProb,
    BasisInit,
    Circuit,
    Measure,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    TraceAllOp,
    run,
)
from quiddsim.lang import (
    ParseError,
    Script,
    ScriptError,
    interpret,
    parse,
    pretty,
    script_from_circuit,
    validate_script,
)

SCRIPTS = Path(__file__).parent / "scripts"
GOLDENS = sorted(SCRIPTS.glob("*.qpd"))
MALFORMED = sorted((SCRIPTS / "malformed").glob("*.qpd"))

DIRECTIVE = re.compile(r"# expect (parse|script) (\d+):(\d+)")


def test_corpus_sizes():
    assert len(GOLDENS) >= 15
    assert len(MALFORMED) >= 10


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_golden_round_trip(path):
    ast = parse(path.read_text())
    text = pretty(ast)
    again = parse(text)
    assert again == ast
    assert pretty(again) == text  # canonical form is a fixed point


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_golden_executes(path):
    circuit = interpret(parse(path.read_text()))
    result = run(circuit, seed=0)
    assert result.stats.engine == "quidd"


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_malformed_positions(path):
    text = path.read_text()
    m = DIRECTIVE.match(text)
    assert m, f"{path.name} is missing its expect directive"
    kind, line, col = m.group(1), int(m.group(2)), int(m.group(3))
    expected = ParseError if kind == "parse" else ScriptError
    with pytest.raises(expected) as err:
        validate_script(parse(text))
    assert (err.value.line, err.value.col) == (line, col), path.name
    assert str(err.value).startswith(f"{line}:{col}: ")


# -- parse shapes ------------------------------------------------------------

def test_parse_minimal():
    ast = parse("qubits 1\nh 0\n")
    assert len(ast.statements) == 2
    assert ast.statements[0].count == 1
    assert ast.statements[1].name == "h"
    assert ast.statements[1].qubits == (0,)


def test_parse_positions_recorded():
    ast = parse("qubits 2\n\n  cnot 0 1\n")
    stmt = ast.statements[1]
    assert (stmt.line, stmt.col) == (3, 3)


def test_parse_init_ket_index():
    ast = parse("qubits 2\ninit |01>\n")
    assert ast.statements[1].bits == "01"
    assert interpret(ast).initial == BasisInit(1)


def test_parse_cu_polarities():
    ast = parse("qubits 3\ncu [ -0, 1 ] x 2\n")
    stmt = ast.statements[1]
    assert stmt.controls == ((0, 0), (1, 1))
    assert stmt.inner.name == "x"
    assert stmt.inner.qubits == (2,)
    g = interpret(ast).ops[0]
    assert g.name == "x"
    assert g.controls == ((0, 0), (1, 1))
    assert g.targets == (2,)


def test_parse_missing_statement_end():
    with pytest.raises(ParseError):
        parse("qubits 2 h 0\n")


def test_parse_number_forms():
    ast = parse("qubits 1\nbitflip 0 0.25\nphaseflip 0 1e-2\n"
                "assert_prob 0 0 1 0\n")
    assert ast.statements[1].p == 0.25
    assert ast.statements[2].p == 0.01
    assert ast.statements[3].value == 1.0


@pytest.mark.parametrize("text, position", [
    ("qubits " + "9" * 5000, (1, 8)),  # past int()'s digit limit
    ("qubits 1\ninit mix 1" + "0" * 400 + " |0>", (2, 10)),  # past float
    ("qubits 1\nassert_prob 0 0 0.5 1e400\n", (2, 21)),
    ("qubits 1\nbitflip 0 -1.8e308\n", (2, 12)),
], ids=["long-int", "int-weight", "float-literal", "negative-float"])
def test_parse_numbers_out_of_range(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == position


# -- interpret ---------------------------------------------------------------

def test_interpret_bell():
    c = interpret(parse("qubits 2\nh 0\ncnot 0 1\n"))
    assert c.n_qubits == 2
    assert [op.key() for op in c.ops] == \
        [gates.h(0).key(), gates.cnot(0, 1).key()]


def test_interpret_ptrace_renumbering():
    """After ptrace 0 the old wire 2 answers to the name 1."""
    text = "qubits 3\ninit |001>\nptrace 0\nmeasure 1\nmeasure 0\n"
    result = run(interpret(parse(text)))
    by_wire = {r.qubit: r for r in result.records}
    assert by_wire[1].p1 == pytest.approx(1.0)  # old wire 2 carried the 1
    assert by_wire[0].p0 == pytest.approx(1.0)  # old wire 1 carried a 0


def test_interpret_mixture():
    c = interpret(parse("qubits 2\ninit mix 0.75 |00> 0.25 |10>\n"))
    assert c.initial == MixtureInit(((0.75, 0), (0.25, 2)))
    from quiddsim.linalg import to_dense
    rho = to_dense(run(c).rho)
    assert np.allclose(rho, np.diag([0.75, 0, 0.25, 0]), atol=1e-12)


def test_interpret_channels_and_probes():
    c = interpret(parse(
        "qubits 1\nbitflip 0 0.125\nphaseflip 0 0.5\nmeasure 0\n"
        "pmeasure 0\nprint nodes\ntrace_all\n"))
    kinds = [type(op).__name__ for op in c.ops]
    assert kinds == ["Channel", "Channel", "Measure", "Measure",
                     "PrintOp", "TraceAllOp"]
    assert c.ops[0].kind == "bitflip" and c.ops[0].p == 0.125
    assert c.ops[2].sample is False and c.ops[3].sample is True


def test_no_partial_execution():
    # the bad statement is last; interpret must refuse the whole script
    text = "qubits 1\nh 0\nx 9\n"
    with pytest.raises(ScriptError) as err:
        interpret(parse(text))
    assert (err.value.line, err.value.col) == (3, 1)


def test_validate_script_reports_inner_u1():
    text = "qubits 2\ncu [ 0 ] u1 1 1 0 0 0 0 0 0 0\n"
    with pytest.raises(ScriptError) as err:
        validate_script(parse(text))
    assert "unitary" in err.value.message
    assert (err.value.line, err.value.col) == (2, 10)


@pytest.mark.parametrize("text, position", [
    ("qubits 2\nx 5\nqubits 2\n", (2, 1)),
    ("qubits 2\nh 9\nbitflip 0 1.5\n", (2, 1)),
    ("qubits 1\ninit mix -1 |0>\nh 0\ninit |0>\n", (2, 1)),
    ("qubits 401\nbitflip 0 1.5\n", (1, 1)),
    ("qubits 401\ninit |" + "0" * 401 + ">\n", (1, 1)),
    # a cu's own wire faults, at the cu, come before its u1's payload
    ("qubits 2\ncu [ 5 ] u1 0 1 0 0 0 0 0 0 0\n", (2, 1)),
    ("qubits 2\ncu [ 0 ] u1 0 1 0 0 0 0 0 0 0\n", (2, 1)),
    ("qubits 2\nptrace 0\ncu [ 1 ] u1 0 1 0 0 0 0 0 0 0\n", (3, 1)),
], ids=["range-then-duplicate-qubits", "range-then-bad-probability",
        "weight-then-late-init", "width-then-bad-probability",
        "width-with-a-ket-as-wide",
        "cu-range-around-bad-u1", "cu-overlap-around-bad-u1",
        "cu-range-after-ptrace"])
def test_first_fault_in_source_order_wins(text, position):
    with pytest.raises(ScriptError) as err:
        interpret(parse(text))
    assert (err.value.line, err.value.col) == position


# -- exporting circuits ------------------------------------------------------

def _op_key(op):
    return op.key() if hasattr(op, "key") else op


def test_script_from_circuit_round_trip():
    c = Circuit(3, initial=MixtureInit(((0.5, 1), (0.5, 6))))
    c.ops = [
        gates.h(0),
        gates.cnot(0, 1),
        gates.toffoli(0, 1, 2),
        gates.swap(1, 2),
        gates.controlled(gates.z(2), [(0, 0), (1, 1)]),
        gates.u1(1, gates.PAYLOADS["s"]),
        gates.bit_flip(2, 0.25),
        gates.phase_flip(0, 0.0),
        Measure(0, sample=False),
        Measure(1, sample=True),
        PrintOp("probs", 2),
        PrintOp("trace"),
        AssertProb(2, 0, 0.5, 0.5),
        PartialTraceOp(2),
        TraceAllOp(),
    ]
    text = script_from_circuit(c)
    back = interpret(parse(text))
    assert back.n_qubits == c.n_qubits
    assert back.initial == c.initial
    assert [_op_key(op) for op in back.ops] == [_op_key(op) for op in c.ops]


def test_script_from_circuit_default_init_is_implicit():
    text = script_from_circuit(Circuit(2, ops=[gates.h(0)]))
    assert text == "qubits 2\nh 0\n"


def test_script_from_circuit_rejects_unrepresentable():
    with pytest.raises(ValueError):
        script_from_circuit(Circuit(1, initial=AmplitudeInit((1.0, 0.0))))
    k = [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]])]
    with pytest.raises(ValueError):
        script_from_circuit(
            Circuit(1, ops=[gates.kraus_channel((0,), k)]))


def test_pretty_rejects_foreign_statement():
    with pytest.raises(ValueError):
        pretty(Script([object()]))
