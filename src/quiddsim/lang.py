"""The .qpd circuit description language.

A script is line-oriented: one statement per line, ``#`` comments, blank
lines ignored. The first statement must be ``qubits N``; an optional
``init`` statement (basis ket or weighted mixture of kets) comes next,
then gates, channels, measurements and probes::

    qubits 3
    init |000>
    h 0
    cnot 0 1
    cu [ -0, 1 ] x 2        # negative-polarity control on 0
    bitflip 2 0.125
    measure 0               # deterministic probe, records p0/p1
    pmeasure 1              # sampled collapse using the run seed
    ptrace 2
    print probs 0
    assert_prob 0 1 0.5 1e-9

Kets list wires left to right starting at wire 0, which is the most
significant index bit. ``u1 q`` takes eight numbers: the 2x2 payload in
row-major order, real part before imaginary part. ``cu`` wraps one plain
gate clause and adds controls; ``-q`` in the bracket list fires on |0>.
After ``ptrace q`` all later qubit references use the renumbered wires
(everything above ``q`` drops by one).

A number literal beyond float range is a :class:`ParseError`. The script
has three rules of its own: ``qubits`` comes first and once, ``init``
directly after it, and kets are as wide as the circuit. Every other rule
(widths, wire ranges and overlaps, unitarity, weights, probabilities) is
the circuit IR's; :func:`interpret` reports its fault as a
:class:`ScriptError` at the statement that lowered the faulty part, and
the first fault in source order wins. Both errors carry 1-based
line:column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates as _g
from .circuit import (
    AssertProb,
    BasisInit,
    Circuit,
    CircuitError,
    Measure,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    TraceAllOp,
    validate,
)
from .gates import Gate

__all__ = [
    "ParseError",
    "ScriptError",
    "Script",
    "parse",
    "validate_script",
    "interpret",
    "pretty",
]

_SIMPLE_GATES = ("h", "x", "y", "z", "s", "t")
_GATE_HEADS = _SIMPLE_GATES + ("u1", "cnot", "toffoli", "swap")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ScriptError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- AST --------------------------------------------------------------------
# Positions never participate in equality so that pretty-printed round
# trips compare equal.

def _pos_field():
    return field(default=0, compare=False)


@dataclass
class QubitsStmt:
    count: int
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class InitKet:
    bits: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class InitMix:
    terms: tuple  # ((weight, bits), ...)
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class SimpleGate:
    name: str
    qubits: tuple
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class U1Stmt:
    qubit: int
    entries: tuple  # 8 floats, row-major re/im pairs
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class CuStmt:
    controls: tuple  # ((qubit, polarity), ...)
    inner: object  # SimpleGate | U1Stmt
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class ChannelStmt:
    kind: str  # bitflip | phaseflip
    qubit: int
    p: float
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class MeasureStmt:
    qubit: int
    sample: bool
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class PtraceStmt:
    qubit: int
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class TraceAllStmt:
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class PrintStmt:
    what: str  # probs | trace | nodes
    qubit: int | None = None
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class AssertProbStmt:
    qubit: int
    outcome: int
    value: float
    tol: float
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass
class Script:
    statements: list


# -- lexer ------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token("NEWLINE", None, line, col))
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < size and text[i] != "\n":
                i += 1
                col += 1
        elif ch == "|":
            start_col = col
            j = i + 1
            bits = []
            while j < size and text[j] in "01":
                bits.append(text[j])
                j += 1
            if not bits:
                raise ParseError("ket needs at least one bit", line, start_col)
            if j >= size or text[j] not in (">", "⟩"):
                raise ParseError("unterminated ket", line, start_col)
            tokens.append(_Token("KET", "".join(bits), line, start_col))
            col += j + 1 - i
            i = j + 1
        elif ch == "[":
            tokens.append(_Token("LBRACK", None, line, col))
            i += 1
            col += 1
        elif ch == "]":
            tokens.append(_Token("RBRACK", None, line, col))
            i += 1
            col += 1
        elif ch == ",":
            tokens.append(_Token("COMMA", None, line, col))
            i += 1
            col += 1
        elif ch == "-":
            tokens.append(_Token("MINUS", None, line, col))
            i += 1
            col += 1
        elif "0" <= ch <= "9":
            start_col = col
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            is_float = False
            if j < size and text[j] == ".":
                is_float = True
                j += 1
                while j < size and "0" <= text[j] <= "9":
                    j += 1
            if j < size and text[j] in "eE":
                k = j + 1
                if k < size and text[k] in "+-":
                    k += 1
                if k >= size or not "0" <= text[k] <= "9":
                    raise ParseError("malformed number", line, start_col)
                is_float = True
                j = k
                while j < size and "0" <= text[j] <= "9":
                    j += 1
            word = text[i:j]
            if is_float:
                value = float(word)
                if value == float("inf"):
                    raise ParseError("number out of range", line, start_col)
                tokens.append(_Token("FLOAT", value, line, start_col))
            else:
                try:
                    value = int(word)
                except ValueError:  # beyond sys.get_int_max_str_digits()
                    raise ParseError("integer too long", line,
                                     start_col) from None
                tokens.append(_Token("INT", value, line, start_col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.advance()

    def expect_int(self, what: str) -> int:
        return self.expect("INT", what).value

    def number(self, what: str) -> float:
        tok = self.peek()
        sign = 1.0
        if tok.kind == "MINUS":
            self.advance()
            sign = -1.0
            tok = self.peek()
        if tok.kind not in ("INT", "FLOAT"):
            raise ParseError(f"expected {what}", tok.line, tok.col)
        self.advance()
        try:
            return sign * float(tok.value)
        except OverflowError:
            raise ParseError(f"{what} out of range", tok.line,
                             tok.col) from None

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise ParseError("unexpected trailing input", tok.line, tok.col)

    def parse_script(self) -> Script:
        statements = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "NEWLINE":
                self.advance()
                continue
            statements.append(self.statement())
            self.end_statement()
        return Script(statements)

    def statement(self):
        tok = self.expect("IDENT", "a statement")
        name = tok.value
        line, col = tok.line, tok.col
        if name == "qubits":
            return QubitsStmt(self.expect_int("a qubit count"), line, col)
        if name == "init":
            return self.init_statement(line, col)
        if name in ("measure", "pmeasure"):
            return MeasureStmt(self.expect_int("a qubit index"),
                               name == "pmeasure", line, col)
        if name == "ptrace":
            return PtraceStmt(self.expect_int("a qubit index"), line, col)
        if name == "trace_all":
            return TraceAllStmt(line, col)
        if name == "print":
            return self.print_statement(line, col)
        if name in ("bitflip", "phaseflip"):
            q = self.expect_int("a qubit index")
            p = self.number("a probability")
            return ChannelStmt(name, q, p, line, col)
        if name == "assert_prob":
            q = self.expect_int("a qubit index")
            outcome = self.expect_int("an outcome bit")
            value = self.number("a probability")
            tol = self.number("a tolerance")
            return AssertProbStmt(q, outcome, value, tol, line, col)
        if name == "cu":
            return self.cu_statement(line, col)
        if name in _GATE_HEADS:
            return self.gate_clause(name, line, col)
        raise ParseError(f"unknown statement {name!r}", line, col)

    def init_statement(self, line, col):
        tok = self.peek()
        if tok.kind == "KET":
            self.advance()
            return InitKet(tok.value, line, col)
        if tok.kind == "IDENT" and tok.value == "mix":
            self.advance()
            terms = []
            while self.peek().kind in ("INT", "FLOAT", "MINUS"):
                w = self.number("a weight")
                ket = self.expect("KET", "a ket")
                terms.append((w, ket.value))
            if not terms:
                tok = self.peek()
                raise ParseError("mixture needs at least one term",
                                 tok.line, tok.col)
            return InitMix(tuple(terms), line, col)
        raise ParseError("expected a ket or 'mix'", tok.line, tok.col)

    def print_statement(self, line, col):
        tok = self.expect("IDENT", "'probs', 'trace' or 'nodes'")
        if tok.value == "probs":
            return PrintStmt("probs", self.expect_int("a qubit index"),
                             line, col)
        if tok.value in ("trace", "nodes"):
            return PrintStmt(tok.value, None, line, col)
        raise ParseError("expected 'probs', 'trace' or 'nodes'",
                         tok.line, tok.col)

    def cu_statement(self, line, col):
        self.expect("LBRACK", "'['")
        controls = [self.control_entry()]
        while self.peek().kind == "COMMA":
            self.advance()
            controls.append(self.control_entry())
        self.expect("RBRACK", "']'")
        head = self.expect("IDENT", "a gate name")
        if head.value == "cu":
            raise ParseError("cu cannot wrap another cu", head.line, head.col)
        if head.value not in _GATE_HEADS:
            raise ParseError(f"cannot control {head.value!r}",
                             head.line, head.col)
        inner = self.gate_clause(head.value, head.line, head.col)
        return CuStmt(tuple(controls), inner, line, col)

    def control_entry(self):
        tok = self.peek()
        polarity = 1
        if tok.kind == "MINUS":
            self.advance()
            polarity = 0
        q = self.expect_int("a control qubit")
        return (q, polarity)

    def gate_clause(self, name, line, col):
        if name in _SIMPLE_GATES:
            return SimpleGate(name, (self.expect_int("a qubit index"),),
                              line, col)
        if name == "u1":
            q = self.expect_int("a qubit index")
            entries = tuple(self.number("a matrix entry") for _ in range(8))
            return U1Stmt(q, entries, line, col)
        if name == "cnot":
            c = self.expect_int("a control qubit")
            t = self.expect_int("a target qubit")
            return SimpleGate("cnot", (c, t), line, col)
        if name == "toffoli":
            c1 = self.expect_int("a control qubit")
            c2 = self.expect_int("a control qubit")
            t = self.expect_int("a target qubit")
            return SimpleGate("toffoli", (c1, c2, t), line, col)
        if name == "swap":
            a = self.expect_int("a qubit index")
            b = self.expect_int("a qubit index")
            return SimpleGate("swap", (a, b), line, col)
        raise ParseError(f"unknown gate {name!r}", line, col)


def parse(text: str) -> Script:
    """Parse source text into an AST; raises :class:`ParseError`."""
    return _Parser(_lex(text)).parse_script()


# -- interpretation ---------------------------------------------------------

def _u1_matrix(stmt: U1Stmt) -> np.ndarray:
    e = stmt.entries
    return np.array(
        [[complex(e[0], e[1]), complex(e[2], e[3])],
         [complex(e[4], e[5]), complex(e[6], e[7])]])


def _lower_init(stmt, n: int):
    kets = [stmt.bits] if isinstance(stmt, InitKet) else [
        b for _, b in stmt.terms]
    for bits in kets:
        if len(bits) != n:
            raise ValueError(f"ket |{bits}> has {len(bits)} bits, expected {n}")
    if isinstance(stmt, InitKet):
        return BasisInit(int(stmt.bits, 2))
    return MixtureInit(tuple((w, int(bits, 2)) for w, bits in stmt.terms))


def _lower_gate(stmt, controls=()) -> Gate:
    """The gate of a clause, with a ``cu``'s ``controls`` after its own."""
    if isinstance(stmt, U1Stmt):
        return Gate("u1", (stmt.qubit,), _u1_matrix(stmt), controls)
    if stmt.name in ("cnot", "toffoli"):
        *own, target = stmt.qubits
        return Gate("x", (target,), _g.PAYLOADS["x"],
                    tuple((q, 1) for q in own) + controls)
    return _g.gate(stmt.name, *stmt.qubits, controls=controls)


def _lower_op(stmt):
    if isinstance(stmt, (SimpleGate, U1Stmt)):
        return _lower_gate(stmt)
    if isinstance(stmt, CuStmt):
        return _lower_gate(stmt.inner, stmt.controls)
    if isinstance(stmt, ChannelStmt):
        maker = _g.bit_flip if stmt.kind == "bitflip" else _g.phase_flip
        return maker(stmt.qubit, stmt.p)
    if isinstance(stmt, MeasureStmt):
        return Measure(stmt.qubit, stmt.sample)
    if isinstance(stmt, PtraceStmt):
        return PartialTraceOp(stmt.qubit)
    if isinstance(stmt, TraceAllStmt):
        return TraceAllOp()
    if isinstance(stmt, PrintStmt):
        return PrintOp(stmt.what, stmt.qubit)
    if isinstance(stmt, AssertProbStmt):
        return AssertProb(stmt.qubit, stmt.outcome, stmt.value, stmt.tol)
    raise ValueError(f"unexpected statement {stmt!r}")


def interpret(script: Script) -> Circuit:
    """Lower an AST to the circuit IR in one pass; raises
    :class:`ScriptError` at the first faulty statement.

    Only the script's own rules are checked here: ``qubits`` comes first
    and once, ``init`` directly after it, and kets are as wide as the
    circuit. Every other rule is the IR's (:func:`circuit.validate` and
    the gate and channel constructors); its fault is reported at the
    statement that lowered the faulty part. Before a statement's own
    fault is reported, what was lowered ahead of it is validated, so the
    first fault in source order wins.
    """
    stmts = script.statements
    if not stmts or not isinstance(stmts[0], QubitsStmt):
        line, col = (stmts[0].line, stmts[0].col) if stmts else (1, 1)
        raise ScriptError("script must start with 'qubits N'", line, col)
    circuit = Circuit(stmts[0].count)
    at: list = []  # the statement that lowered each step
    header = stmts[0]  # where a fault outside the steps lies

    def check() -> None:
        try:
            validate(circuit)
        except CircuitError as exc:
            stmt = header if exc.step is None else at[exc.step]
            raise ScriptError(exc.message, stmt.line, stmt.col) from None

    check()  # the width, before an init takes over ``header``
    for i, stmt in enumerate(stmts[1:], start=1):
        where = stmt
        try:
            if isinstance(stmt, QubitsStmt):
                raise ValueError("duplicate qubits statement")
            if isinstance(stmt, (InitKet, InitMix)):
                if i != 1:
                    raise ValueError("init must come directly after qubits")
                circuit.initial = _lower_init(stmt, circuit.n_qubits)
                header = stmt
                continue
            at.append(stmt)
            if isinstance(stmt, CuStmt) and isinstance(stmt.inner, U1Stmt):
                # The cu's own wire faults come before its u1 payload's:
                # lower it first on a library payload, which is unchecked.
                circuit.ops.append(
                    _g.gate("x", stmt.inner.qubit, controls=stmt.controls))
                where = stmt.inner
                circuit.ops[-1] = _lower_op(stmt)
            else:
                circuit.ops.append(_lower_op(stmt))
        except ValueError as exc:
            check()  # an earlier fault wins
            raise ScriptError(str(exc), where.line, where.col) from None
    check()
    return circuit


def validate_script(script: Script) -> None:
    """:func:`interpret` with the circuit dropped."""
    interpret(script)


# -- pretty printing --------------------------------------------------------

def _num(v: float) -> str:
    return repr(float(v))


def _format_controls(controls) -> str:
    parts = [("-" if pol == 0 else "") + str(q) for q, pol in controls]
    return "[" + ", ".join(parts) + "]"


def _format_gate_clause(stmt) -> str:
    if isinstance(stmt, U1Stmt):
        return f"u1 {stmt.qubit} " + " ".join(_num(e) for e in stmt.entries)
    return stmt.name + " " + " ".join(str(q) for q in stmt.qubits)


def pretty(script: Script) -> str:
    """Canonical text form; parsing it back gives an equal AST."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, QubitsStmt):
            lines.append(f"qubits {stmt.count}")
        elif isinstance(stmt, InitKet):
            lines.append(f"init |{stmt.bits}>")
        elif isinstance(stmt, InitMix):
            body = " ".join(f"{_num(w)} |{bits}>" for w, bits in stmt.terms)
            lines.append(f"init mix {body}")
        elif isinstance(stmt, (SimpleGate, U1Stmt)):
            lines.append(_format_gate_clause(stmt))
        elif isinstance(stmt, CuStmt):
            lines.append(
                f"cu {_format_controls(stmt.controls)} "
                f"{_format_gate_clause(stmt.inner)}")
        elif isinstance(stmt, ChannelStmt):
            lines.append(f"{stmt.kind} {stmt.qubit} {_num(stmt.p)}")
        elif isinstance(stmt, MeasureStmt):
            lines.append(
                f"{'pmeasure' if stmt.sample else 'measure'} {stmt.qubit}")
        elif isinstance(stmt, PtraceStmt):
            lines.append(f"ptrace {stmt.qubit}")
        elif isinstance(stmt, TraceAllStmt):
            lines.append("trace_all")
        elif isinstance(stmt, PrintStmt):
            if stmt.what == "probs":
                lines.append(f"print probs {stmt.qubit}")
            else:
                lines.append(f"print {stmt.what}")
        elif isinstance(stmt, AssertProbStmt):
            lines.append(
                f"assert_prob {stmt.qubit} {stmt.outcome} "
                f"{_num(stmt.value)} {_num(stmt.tol)}")
        else:
            raise ValueError(f"cannot print {stmt!r}")
    return "\n".join(lines) + "\n"
