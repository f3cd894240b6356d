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
(everything above ``q`` drops by one). Parse and validation errors carry
1-based line:column positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates as _g
from .circuit import (
    MAX_QUBITS,
    AssertProb,
    BasisInit,
    Circuit,
    Measure,
    MixtureInit,
    PartialTraceOp,
    PrintOp,
    TraceAllOp,
)
from .gates import Channel, Gate

__all__ = [
    "ParseError",
    "ScriptError",
    "Script",
    "parse",
    "validate_script",
    "interpret",
    "pretty",
    "script_from_circuit",
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
                tokens.append(_Token("FLOAT", float(word), line, start_col))
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


# -- validation -------------------------------------------------------------

def _u1_matrix(stmt: U1Stmt) -> np.ndarray:
    e = stmt.entries
    return np.array(
        [[complex(e[0], e[1]), complex(e[2], e[3])],
         [complex(e[4], e[5]), complex(e[6], e[7])]])


def _gate_wires(stmt) -> list[int]:
    if isinstance(stmt, U1Stmt):
        return [stmt.qubit]
    return list(stmt.qubits)


def validate_script(script: Script) -> None:
    """Static checks with positions: structure, ranges, unitarity.

    Width changes from ptrace/trace_all are simulated so that later
    statements are checked against the renumbered wires.
    """
    stmts = script.statements
    if not stmts or not isinstance(stmts[0], QubitsStmt):
        line = stmts[0].line if stmts else 1
        col = stmts[0].col if stmts else 1
        raise ScriptError("script must start with 'qubits N'", line, col)
    head = stmts[0]
    if head.count < 1:
        raise ScriptError("qubit count must be positive", head.line, head.col)
    if head.count > MAX_QUBITS:
        raise ScriptError(f"qubit count above the maximum of {MAX_QUBITS}",
                          head.line, head.col)
    n = head.count

    def check_wire(q: int, stmt, what: str = "qubit") -> None:
        if not 0 <= q < n:
            raise ScriptError(
                f"{what} {q} out of range (current width {n})",
                stmt.line, stmt.col)

    for i, stmt in enumerate(stmts[1:], start=1):
        if isinstance(stmt, QubitsStmt):
            raise ScriptError("duplicate qubits statement",
                              stmt.line, stmt.col)
        if isinstance(stmt, (InitKet, InitMix)):
            if i != 1:
                raise ScriptError("init must come directly after qubits",
                                  stmt.line, stmt.col)
            kets = [stmt.bits] if isinstance(stmt, InitKet) else [
                b for _, b in stmt.terms]
            for bits in kets:
                if len(bits) != n:
                    raise ScriptError(
                        f"ket |{bits}> has {len(bits)} bits, expected {n}",
                        stmt.line, stmt.col)
            if isinstance(stmt, InitMix):
                total = 0.0
                for w, _ in stmt.terms:
                    if w < 0:
                        raise ScriptError(f"negative weight {w!r}",
                                          stmt.line, stmt.col)
                    total += w
                if not np.isfinite(total):
                    raise ScriptError("mixture weights have no finite sum",
                                      stmt.line, stmt.col)
                if not total > 0:
                    raise ScriptError("mixture weights sum to zero",
                                      stmt.line, stmt.col)
        elif isinstance(stmt, SimpleGate):
            wires = list(stmt.qubits)
            if len(set(wires)) != len(wires):
                raise ScriptError("repeated qubit in gate",
                                  stmt.line, stmt.col)
            for q in wires:
                check_wire(q, stmt)
        elif isinstance(stmt, U1Stmt):
            check_wire(stmt.qubit, stmt)
            m = _u1_matrix(stmt)
            err = np.abs(m.conj().T @ m - np.eye(2)).max()
            if err > _g.UNITARY_TOL:
                raise ScriptError(
                    f"matrix is not unitary (deviation {err:.3g})",
                    stmt.line, stmt.col)
        elif isinstance(stmt, CuStmt):
            inner_wires = _gate_wires(stmt.inner)
            control_wires = [q for q, _ in stmt.controls]
            all_wires = control_wires + inner_wires
            if len(set(all_wires)) != len(all_wires):
                raise ScriptError("control and target qubits overlap",
                                  stmt.line, stmt.col)
            for q in all_wires:
                check_wire(q, stmt)
            if isinstance(stmt.inner, U1Stmt):
                m = _u1_matrix(stmt.inner)
                err = np.abs(m.conj().T @ m - np.eye(2)).max()
                if err > _g.UNITARY_TOL:
                    raise ScriptError(
                        f"matrix is not unitary (deviation {err:.3g})",
                        stmt.inner.line, stmt.inner.col)
        elif isinstance(stmt, ChannelStmt):
            check_wire(stmt.qubit, stmt)
            if not 0.0 <= stmt.p <= 1.0:
                raise ScriptError(f"probability {stmt.p!r} outside [0, 1]",
                                  stmt.line, stmt.col)
        elif isinstance(stmt, MeasureStmt):
            check_wire(stmt.qubit, stmt)
        elif isinstance(stmt, PtraceStmt):
            check_wire(stmt.qubit, stmt)
            n -= 1
        elif isinstance(stmt, TraceAllStmt):
            n = 0
        elif isinstance(stmt, PrintStmt):
            if stmt.what == "probs":
                check_wire(stmt.qubit, stmt)
        elif isinstance(stmt, AssertProbStmt):
            check_wire(stmt.qubit, stmt)
            if stmt.outcome not in (0, 1):
                raise ScriptError("outcome must be 0 or 1",
                                  stmt.line, stmt.col)
            if not 0.0 <= stmt.value <= 1.0:
                raise ScriptError(
                    f"probability {stmt.value!r} outside [0, 1]",
                    stmt.line, stmt.col)
            if stmt.tol < 0:
                raise ScriptError("negative tolerance", stmt.line, stmt.col)
        else:
            raise ScriptError(f"unexpected statement {stmt!r}",
                              stmt.line, stmt.col)


# -- interpretation ---------------------------------------------------------

def _lower_gate(stmt) -> Gate:
    if isinstance(stmt, U1Stmt):
        return _g.u1(stmt.qubit, _u1_matrix(stmt))
    if stmt.name in _SIMPLE_GATES:
        return _g.gate(stmt.name, stmt.qubits[0])
    if stmt.name == "cnot":
        return _g.cnot(*stmt.qubits)
    if stmt.name == "toffoli":
        return _g.toffoli(*stmt.qubits)
    if stmt.name == "swap":
        return _g.swap(*stmt.qubits)
    raise ScriptError(f"unknown gate {stmt.name!r}", stmt.line, stmt.col)


def interpret(script: Script) -> Circuit:
    """Lower a validated AST to the circuit IR."""
    validate_script(script)
    stmts = script.statements
    n = stmts[0].count
    circuit = Circuit(n)
    for stmt in stmts[1:]:
        if isinstance(stmt, InitKet):
            circuit.initial = BasisInit(int(stmt.bits, 2))
        elif isinstance(stmt, InitMix):
            circuit.initial = MixtureInit(
                tuple((w, int(bits, 2)) for w, bits in stmt.terms))
        elif isinstance(stmt, (SimpleGate, U1Stmt)):
            circuit.ops.append(_lower_gate(stmt))
        elif isinstance(stmt, CuStmt):
            circuit.ops.append(
                _g.controlled(_lower_gate(stmt.inner), stmt.controls))
        elif isinstance(stmt, ChannelStmt):
            maker = _g.bit_flip if stmt.kind == "bitflip" else _g.phase_flip
            circuit.ops.append(maker(stmt.qubit, stmt.p))
        elif isinstance(stmt, MeasureStmt):
            circuit.ops.append(Measure(stmt.qubit, stmt.sample))
        elif isinstance(stmt, PtraceStmt):
            circuit.ops.append(PartialTraceOp(stmt.qubit))
        elif isinstance(stmt, TraceAllStmt):
            circuit.ops.append(TraceAllOp())
        elif isinstance(stmt, PrintStmt):
            circuit.ops.append(PrintOp(stmt.what, stmt.qubit))
        elif isinstance(stmt, AssertProbStmt):
            circuit.ops.append(
                AssertProb(stmt.qubit, stmt.outcome, stmt.value, stmt.tol))
    return circuit


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


# -- exporting circuits back to source --------------------------------------

def _gate_to_stmt(op: Gate):
    if not op.controls:
        if op.name in _SIMPLE_GATES and len(op.targets) == 1:
            return SimpleGate(op.name, op.targets)
        if op.name == "swap":
            return SimpleGate("swap", op.targets)
        if len(op.targets) == 1:
            m = op.matrix
            entries = (m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag,
                       m[1, 0].real, m[1, 0].imag, m[1, 1].real, m[1, 1].imag)
            return U1Stmt(op.targets[0], entries)
        raise ValueError(f"gate {op!r} has no script form")
    if op.name == "x" and len(op.targets) == 1:
        if len(op.controls) == 1 and op.controls[0][1] == 1:
            return SimpleGate("cnot", (op.controls[0][0], op.targets[0]))
        if len(op.controls) == 2 and all(p == 1 for _, p in op.controls):
            return SimpleGate(
                "toffoli",
                (op.controls[0][0], op.controls[1][0], op.targets[0]))
    bare = Gate(op.name, op.targets, op.matrix)
    return CuStmt(op.controls, _gate_to_stmt(bare))


def script_from_circuit(circuit: Circuit) -> str:
    """Source text reproducing a circuit built in Python.

    Works for everything the grammar can say; circuits with amplitude
    initial states or raw Kraus channels have no script form and raise.
    """
    stmts: list = [QubitsStmt(circuit.n_qubits)]
    init = circuit.initial
    if isinstance(init, BasisInit):
        if init.index != 0:
            stmts.append(InitKet(format(init.index, f"0{circuit.n_qubits}b")))
    elif isinstance(init, MixtureInit):
        stmts.append(InitMix(tuple(
            (w, format(index, f"0{circuit.n_qubits}b"))
            for w, index in init.terms)))
    else:
        raise ValueError(f"initial state {init!r} has no script form")
    for op in circuit.ops:
        if isinstance(op, Gate):
            stmts.append(_gate_to_stmt(op))
        elif isinstance(op, Channel):
            if op.kind not in ("bitflip", "phaseflip") or op.p is None:
                raise ValueError(f"channel {op!r} has no script form")
            stmts.append(ChannelStmt(op.kind, op.targets[0], op.p))
        elif isinstance(op, Measure):
            stmts.append(MeasureStmt(op.qubit, op.sample))
        elif isinstance(op, PartialTraceOp):
            stmts.append(PtraceStmt(op.qubit))
        elif isinstance(op, TraceAllOp):
            stmts.append(TraceAllStmt())
        elif isinstance(op, PrintOp):
            stmts.append(PrintStmt(op.what, op.qubit))
        elif isinstance(op, AssertProb):
            stmts.append(
                AssertProbStmt(op.qubit, op.outcome, op.value, op.tol))
        else:
            raise ValueError(f"operation {op!r} has no script form")
    return pretty(Script(stmts))
