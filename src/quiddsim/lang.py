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

import math
import re
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
    "interpret",
    "pretty",
]


class _PositionedError(Exception):
    """An error at a 1-based ``line:col`` of the script text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ParseError(_PositionedError):
    """The text is not a script: a fault of the lexer or the grammar."""


class ScriptError(_PositionedError):
    """The script parses but breaks a rule of the language or the IR."""


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
# One alternative per token kind; blanks and comments match unnamed. The
# last alternative takes any character, so the matches tile the text.
# Digits are ASCII only. ``\w`` is ``str.isalnum()`` or ``_``; a word that
# does not start with a letter or ``_`` is refused in ``_lex``.

_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<KET>\|(?P<bits>[01]*)(?P<close>[>⟩])?)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<IDENT>\w+)|(?P<PUNCT>[\[\],-])|(?P<BAD>.)")


@dataclass(frozen=True)
class _Token:
    kind: str  # NEWLINE KET INT FLOAT IDENT EOF, or the punctuation itself
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, start = 1, 0  # ``start``: the offset where the line begins
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "KET":
            if not m["bits"]:
                raise ParseError("ket needs at least one bit", line, col)
            if not m["close"]:
                raise ParseError("unterminated ket", line, col)
            value = m["bits"]
        elif kind == "NUMBER":
            if value[-1] in "eE+-":
                raise ParseError("malformed number", line, col)
            if value.isdigit():
                kind = "INT"
                try:
                    value = int(value)
                except ValueError:  # beyond sys.get_int_max_str_digits()
                    raise ParseError("integer too long", line, col) from None
            else:
                kind, value = "FLOAT", float(value)
                if value == math.inf:
                    raise ParseError("number out of range", line, col)
        elif kind == "PUNCT":
            kind = value
        elif kind == "BAD" or kind == "IDENT" and not (
                value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        if kind is not None:
            tokens.append(_Token(kind, value, line, col))
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
    tokens.append(_Token("EOF", None, line, len(text) - start + 1))
    return tokens


# -- statement forms --------------------------------------------------------
# Every statement but ``init``, ``cu`` and ``print`` is a head and a fixed
# list of arguments. Its form gives the AST class, the fields the head
# fixes, and the arguments field by field, each named by the text of the
# error at it ("expected a qubit index"); a tuple of texts reads a tuple
# field. The arguments in _NUMBERS are numbers, the others integers. The
# parser and ``pretty`` both read this table.

_QUBIT = "a qubit index"
_CONTROL = "a control qubit"
_PROB = "a probability"
_NUMBERS = (_PROB, "a tolerance", "a matrix entry", "a weight")

_FORMS = {
    "qubits": (QubitsStmt, {}, {"count": "a qubit count"}),
    **{name: (SimpleGate, {"name": name}, {"qubits": (_QUBIT,)})
       for name in _g.PAYLOADS},
    "u1": (U1Stmt, {}, {"qubit": _QUBIT, "entries": ("a matrix entry",) * 8}),
    "cnot": (SimpleGate, {"name": "cnot"},
             {"qubits": (_CONTROL, "a target qubit")}),
    "toffoli": (SimpleGate, {"name": "toffoli"},
                {"qubits": (_CONTROL, _CONTROL, "a target qubit")}),
    "swap": (SimpleGate, {"name": "swap"}, {"qubits": (_QUBIT, _QUBIT)}),
    "bitflip": (ChannelStmt, {"kind": "bitflip"},
                {"qubit": _QUBIT, "p": _PROB}),
    "phaseflip": (ChannelStmt, {"kind": "phaseflip"},
                  {"qubit": _QUBIT, "p": _PROB}),
    "measure": (MeasureStmt, {"sample": False}, {"qubit": _QUBIT}),
    "pmeasure": (MeasureStmt, {"sample": True}, {"qubit": _QUBIT}),
    "ptrace": (PtraceStmt, {}, {"qubit": _QUBIT}),
    "trace_all": (TraceAllStmt, {}, {}),
    "assert_prob": (AssertProbStmt, {},
                    {"qubit": _QUBIT, "outcome": "an outcome bit",
                     "value": _PROB, "tol": "a tolerance"}),
}


# -- parser -----------------------------------------------------------------

def _error(message: str, tok: _Token) -> ParseError:
    return ParseError(message, tok.line, tok.col)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, kind: str, *words: str) -> _Token | None:
        """The next token if it is a ``kind`` (one of ``words``, if any
        are given), consumed; else None."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or words and tok.value not in words:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.accept(kind)
        if tok is None:
            raise _error(f"expected {what}", self.peek())
        return tok

    def arg(self, what: str):
        if what not in _NUMBERS:
            return self.expect("INT", what).value
        sign = -1.0 if self.accept("-") else 1.0
        tok = self.accept("INT") or self.accept("FLOAT")
        if tok is None:
            raise _error(f"expected {what}", self.peek())
        try:
            return sign * float(tok.value)
        except OverflowError:
            raise _error(f"{what} out of range", tok) from None

    def parse_script(self) -> Script:
        statements = []
        while self.peek().kind != "EOF":
            if self.accept("NEWLINE"):
                continue
            statements.append(self.statement())
            if not self.accept("NEWLINE") and self.peek().kind != "EOF":
                raise _error("unexpected trailing input", self.peek())
        return Script(statements)

    def statement(self):
        head = self.expect("IDENT", "a statement")
        if head.value == "init":
            return self.init_statement(head)
        if head.value == "cu":
            return self.cu_statement(head)
        if head.value == "print":
            return self.print_statement(head)
        if head.value not in _FORMS:
            raise _error(f"unknown statement {head.value!r}", head)
        return self.form(head)

    def form(self, head: _Token):
        cls, fixed, args = _FORMS[head.value]
        values = {
            name: tuple(map(self.arg, what)) if isinstance(what, tuple)
            else self.arg(what)
            for name, what in args.items()}
        return cls(**fixed, **values, line=head.line, col=head.col)

    def init_statement(self, head: _Token):
        ket = self.accept("KET")
        if ket:
            return InitKet(ket.value, head.line, head.col)
        if not self.accept("IDENT", "mix"):
            raise _error("expected a ket or 'mix'", self.peek())
        terms = []
        while self.peek().kind in ("INT", "FLOAT", "-"):
            w = self.arg("a weight")
            terms.append((w, self.expect("KET", "a ket").value))
        if not terms:
            raise _error("mixture needs at least one term", self.peek())
        return InitMix(tuple(terms), head.line, head.col)

    def print_statement(self, head: _Token):
        what = self.accept("IDENT", "probs", "trace", "nodes")
        if what is None:
            raise _error("expected 'probs', 'trace' or 'nodes'", self.peek())
        qubit = self.arg(_QUBIT) if what.value == "probs" else None
        return PrintStmt(what.value, qubit, head.line, head.col)

    def cu_statement(self, head: _Token):
        self.expect("[", "'['")
        controls = [self.control()]
        while self.accept(","):
            controls.append(self.control())
        self.expect("]", "']'")
        gate = self.expect("IDENT", "a gate name")
        if gate.value == "cu":
            raise _error("cu cannot wrap another cu", gate)
        if gate.value not in _FORMS or \
                _FORMS[gate.value][0] not in (SimpleGate, U1Stmt):
            raise _error(f"cannot control {gate.value!r}", gate)
        return CuStmt(tuple(controls), self.form(gate), head.line, head.col)

    def control(self) -> tuple:
        polarity = 0 if self.accept("-") else 1
        return (self.arg(_CONTROL), polarity)


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


# -- pretty printing --------------------------------------------------------

def _format_form(stmt) -> str:
    """The text of a statement of the ``_FORMS`` table."""
    for head, (cls, fixed, args) in _FORMS.items():
        if type(stmt) is cls and all(
                getattr(stmt, k) == v for k, v in fixed.items()):
            words = [head]
            for name, what in args.items():
                value = getattr(stmt, name)
                pairs = (zip(what, value, strict=True)
                         if isinstance(what, tuple) else [(what, value)])
                words += [repr(float(v)) if w in _NUMBERS else str(v)
                          for w, v in pairs]
            return " ".join(words)
    raise ValueError(f"cannot print {stmt!r}")


def pretty(script: Script) -> str:
    """Canonical text form; parsing it back gives an equal AST."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, InitKet):
            lines.append(f"init |{stmt.bits}>")
        elif isinstance(stmt, InitMix):
            body = " ".join(f"{float(w)!r} |{bits}>" for w, bits in stmt.terms)
            lines.append(f"init mix {body}")
        elif isinstance(stmt, CuStmt):
            controls = ", ".join(("-" if pol == 0 else "") + str(q)
                                 for q, pol in stmt.controls)
            lines.append(f"cu [{controls}] {_format_form(stmt.inner)}")
        elif isinstance(stmt, PrintStmt):
            lines.append(f"print probs {stmt.qubit}" if stmt.what == "probs"
                         else f"print {stmt.what}")
        else:
            lines.append(_format_form(stmt))
    return "\n".join(lines) + "\n"
