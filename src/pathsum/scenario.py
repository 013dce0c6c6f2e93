"""Scenario data model and the ``.scn`` text format.

A scenario declares subsystems, an initial state, and a time-ordered event
sequence of unitaries and measurements.  Each measurement carries a record
policy: RETAINED records survive to the end of the experiment and appear in
outcome tuples, ERASED records are destroyed by a later measurement and do
not.

The ``.scn`` format is line oriented (UTF-8, ``#`` comments)::

    subsystem NAME LABEL...
    state COMPLEX...                      # prod(dims) amplitudes, row-major
    unitary TIME TARGETS COMPLEX...       # d^2 matrix entries, row-major
    measure TIME AGENT TARGETS RECORD (LABEL: COMPLEX...)...
    final TIME                            # optional, defaults to last event

    TARGETS := NAME[,NAME...]             # coordinate order as written
    RECORD  := retained | erased
    COMPLEX := REAL | REALi | REAL+REALi | REAL-REALi
    REAL    := product/quotient chain of INT, FLOAT, INT/INT, sqrt(REAL),
               (REAL), with unary minus; e.g. 1/sqrt(2), -sqrt(2/3), 0.6

The parser is total: every input yields a Scenario or a ScenarioParseError
carrying a line and column.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ATOL_STRUCT,
    Basis,
    HilbertError,
    Operator,
    StateVector,
)


class ScenarioParseError(ValueError):
    """Syntax or semantic error in ``.scn`` input, with source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = int(line)
        self.col = int(col)
        super().__init__(f"line {self.line}, col {self.col}: {message}")
        self.message = message


class ScenarioValidationError(ValueError):
    """A constructed Scenario violates a structural invariant.

    ``event`` is the offending event, or None for a scenario-wide rule.
    """

    def __init__(self, message: str, event: Event | None = None):
        super().__init__(message)
        self.event = event


class RecordErasedError(ValueError):
    """A query named an outcome whose record was erased before the end."""

    def __init__(self, agent: str):
        self.agent = agent
        super().__init__(
            f"record of agent {agent!r} erased; outcome undefined at end of experiment"
        )


class Record(enum.Enum):
    RETAINED = "RETAINED"
    ERASED = "ERASED"


@dataclass(frozen=True)
class SubsystemSpec:
    name: str
    dim: int
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if self.dim < 1:
            raise ScenarioValidationError(f"subsystem {self.name!r} has dim {self.dim}")
        if len(self.basis_labels) != self.dim:
            raise ScenarioValidationError(
                f"subsystem {self.name!r}: {len(self.basis_labels)} labels for dim {self.dim}"
            )
        if len(set(self.basis_labels)) != self.dim:
            raise ScenarioValidationError(
                f"subsystem {self.name!r} has duplicate basis labels"
            )


@dataclass(frozen=True)
class UnitaryEvent:
    time_index: int
    targets: tuple[str, ...]
    op: Operator

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        self.op.require_unitary(f"unitary at time {self.time_index}")


@dataclass(frozen=True)
class MeasurementEvent:
    time_index: int
    agent: str
    targets: tuple[str, ...]
    basis: Basis
    record: Record

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels


Event = UnitaryEvent | MeasurementEvent


@dataclass(frozen=True)
class Scenario:
    """Subsystems, initial state and events, sorted by time on construction.

    Constructing one enforces every scenario rule; a violation raises
    ScenarioValidationError naming the first rule broken.
    """

    subsystems: tuple[SubsystemSpec, ...]
    initial: StateVector
    events: tuple[Event, ...]
    final_time: int = -1

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        # ties between same-time events on disjoint targets are broken by
        # subsystem declaration order, so outcome tuples are deterministic
        order = {s.name: k for k, s in enumerate(self.subsystems)}
        events = tuple(
            sorted(
                self.events,
                key=lambda e: (e.time_index,
                               min((order.get(t, len(order)) for t in e.targets), default=0)),
            )
        )
        object.__setattr__(self, "events", events)
        if self.final_time < 0 and events:
            object.__setattr__(
                self, "final_time", max(e.time_index for e in events)
            )
        _check(self)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    def subsystem_index(self, name: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.name == name:
                return i
        raise ScenarioValidationError(f"unknown subsystem {name!r}")

    def slots(self, targets: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.subsystem_index(n) for n in targets)

    def measurements(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        """(event_index, event) for measurement events, in time order."""
        return tuple(
            (i, e) for i, e in enumerate(self.events) if isinstance(e, MeasurementEvent)
        )

    def retained(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return tuple(
            (i, e) for i, e in self.measurements() if e.record is Record.RETAINED
        )

    def erased(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return tuple(
            (i, e) for i, e in self.measurements() if e.record is Record.ERASED
        )

    def agent_event(self, agent: str) -> tuple[int, MeasurementEvent]:
        for i, e in self.measurements():
            if e.agent == agent:
                return i, e
        raise ScenarioValidationError(f"unknown agent {agent!r}")

    def agents(self) -> tuple[str, ...]:
        return tuple(e.agent for _, e in self.measurements())


def _check(s: Scenario) -> None:
    """Raise ScenarioValidationError for the first violated invariant."""
    if not s.subsystems:
        raise ScenarioValidationError("no subsystems declared")
    names = [sub.name for sub in s.subsystems]
    if len(set(names)) != len(names):
        raise ScenarioValidationError("duplicate subsystem names")

    if s.initial.dims != s.dims:
        raise ScenarioValidationError(
            f"initial state dims {s.initial.dims} do not match subsystems {s.dims}"
        )
    if not s.initial.is_normalized():
        raise ScenarioValidationError(f"initial state norm != 1 (got {s.initial.norm():.6g})")

    if not s.events:
        raise ScenarioValidationError("scenario has no events")

    name_set = set(names)
    for i, e in enumerate(s.events):
        if len(set(e.targets)) != len(e.targets):
            raise ScenarioValidationError(f"event {i}: duplicate targets {e.targets}", e)
        unknown = [t for t in e.targets if t not in name_set]
        if unknown:
            raise ScenarioValidationError(f"event {i}: unknown subsystem {unknown[0]!r}", e)
        tdims = tuple(s.subsystems[s.subsystem_index(t)].dim for t in e.targets)
        obj = e.op if isinstance(e, UnitaryEvent) else e.basis
        if obj.dims != tdims:
            raise ScenarioValidationError(
                f"event {i}: operator/basis dims {obj.dims} do not match targets {tdims}", e
            )
        if e.time_index < 0:
            raise ScenarioValidationError(f"event {i}: negative time index", e)

    # strict ordering for events acting on overlapping targets
    for i, a in enumerate(s.events):
        for j in range(i + 1, len(s.events)):
            b = s.events[j]
            if a.time_index == b.time_index and set(a.targets) & set(b.targets):
                raise ScenarioValidationError(
                    f"events {i} and {j} share time {a.time_index} and overlapping targets", b
                )

    measurements = s.measurements()
    if not measurements:
        raise ScenarioValidationError("scenario has no measurements")

    agents = [e.agent for _, e in measurements]
    if len(set(agents)) != len(agents):
        raise ScenarioValidationError("agent names are not unique across measurement events")

    t_max = max(e.time_index for e in s.events)
    if s.final_time < t_max:
        raise ScenarioValidationError("final_time is earlier than the last event")

    # rule B: the experiment must end on surviving records
    for e in s.events:
        if e.time_index == t_max and (
            not isinstance(e, MeasurementEvent) or e.record is not Record.RETAINED
        ):
            raise ScenarioValidationError(
                "no surviving final record (last event must be a retained measurement)", e
            )

    # rule F: an erased record must actually be destroyed by a later measurement
    for i, e in measurements:
        if e.record is not Record.ERASED:
            continue
        targets = set(e.targets)
        if not any(j > i and targets <= set(f.targets) for j, f in measurements):
            raise ScenarioValidationError(
                f"event {i}: ERASED record of agent {e.agent!r} is never erased "
                f"(needs a later measurement covering {e.targets})",
                e,
            )


# ---------------------------------------------------------------------------
# constant-expression grammar for complex literals
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?", re.ASCII)
_MAX_DEPTH = 32


class _ExprParser:
    """Character-level parser for one whitespace-free complex literal."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, msg: str):
        raise ValueError(f"{msg} in literal {self.text!r}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def parse_complex(self) -> complex:
        re_part = self.parse_real(0)
        if self.pos >= len(self.text):
            return complex(re_part, 0.0)
        if self.take("i"):
            if self.pos != len(self.text):
                self.fail("trailing characters after imaginary unit")
            return complex(0.0, re_part)
        if self.peek() in "+-":
            sign = -1.0 if self.take("-") else (self.take("+") and 1.0)
            im_part = self.parse_real(0)
            if not self.take("i") or self.pos != len(self.text):
                self.fail("imaginary part must end with 'i'")
            return complex(re_part, sign * im_part)
        self.fail(f"unexpected character {self.peek()!r}")

    def parse_real(self, depth: int) -> float:
        if depth > _MAX_DEPTH:
            self.fail("expression too deeply nested")
        value = self.parse_factor(depth)
        while True:
            if self.take("*"):
                value *= self.parse_factor(depth)
            elif self.peek() == "/" and not self.text.startswith("//", self.pos):
                self.pos += 1
                divisor = self.parse_factor(depth)
                if divisor == 0.0:
                    self.fail("division by zero")
                value /= divisor
            else:
                return value

    def parse_factor(self, depth: int) -> float:
        if depth > _MAX_DEPTH:
            self.fail("expression too deeply nested")
        if self.take("-"):
            return -self.parse_factor(depth + 1)
        if self.take("sqrt("):
            arg = self.parse_real(depth + 1)
            if not self.take(")"):
                self.fail("unclosed sqrt(")
            if arg < 0:
                self.fail("sqrt of a negative value")
            return math.sqrt(arg)
        if self.take("("):
            value = self.parse_real(depth + 1)
            if not self.take(")"):
                self.fail("unclosed parenthesis")
            return value
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            self.fail(f"expected a number at position {self.pos}")
        self.pos = m.end()
        value = float(m.group(0))
        if not math.isfinite(value):
            self.fail("numeric literal overflows")
        return value


def parse_complex_literal(token: str) -> complex:
    """Parse one complex literal, e.g. ``1/sqrt(2)``, ``0.5-0.5i``, ``1i``."""
    if not token:
        raise ValueError("empty literal")
    return _ExprParser(token).parse_complex()


# ---------------------------------------------------------------------------
# .scn parser
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z", re.ASCII)


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0]
        toks = [
            _Tok(m.group(0), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", body)
        ]
        if toks:
            yield toks


def _ident(tok: _Tok, what: str) -> str:
    if not _IDENT_RE.match(tok.text):
        raise ScenarioParseError(f"invalid {what} {tok.text!r}", tok.line, tok.col)
    return tok.text


def _complex(tok: _Tok) -> complex:
    try:
        return parse_complex_literal(tok.text)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), tok.line, tok.col) from None


def _int(tok: _Tok, what: str) -> int:
    try:
        value = int(tok.text)
    except ValueError:
        raise ScenarioParseError(f"{what} must be an integer, got {tok.text!r}",
                                 tok.line, tok.col) from None
    if value < 0:
        raise ScenarioParseError(f"{what} must be non-negative", tok.line, tok.col)
    return value


def _targets(tok: _Tok, dim_of: dict[str, int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """An event's comma-separated target list and the targets' dims."""
    targets = tuple(tok.text.split(","))
    for t in targets:
        if not _IDENT_RE.match(t):
            raise ScenarioParseError(f"invalid target list {tok.text!r}", tok.line, tok.col)
    for t in targets:
        if t not in dim_of:
            raise ScenarioParseError(f"unknown subsystem {t!r}", tok.line, tok.col)
    return targets, tuple(dim_of[t] for t in targets)


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse ``.scn`` source into a validated Scenario.

    Total: any input produces either a Scenario or a ScenarioParseError with
    a line/column diagnostic.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"input is not valid UTF-8 ({exc.reason})", 1, 1) from None

    subsystems: list[SubsystemSpec] = []
    dim_of: dict[str, int] = {}
    initial: StateVector | None = None
    state_line = 0
    events: list[Event] = []
    event_lines: list[int] = []
    explicit_final: int | None = None

    for toks in _tokenize(text):
        head = toks[0]
        rest = toks[1:]
        if head.text == "subsystem":
            if len(rest) < 2:
                raise ScenarioParseError("subsystem needs a name and at least one label",
                                         head.line, head.col)
            name = _ident(rest[0], "subsystem name")
            if name in dim_of:
                raise ScenarioParseError(f"subsystem {name!r} already declared",
                                         rest[0].line, rest[0].col)
            labels = [_ident(t, "basis label") for t in rest[1:]]
            if len(set(labels)) != len(labels):
                raise ScenarioParseError(f"duplicate basis labels for subsystem {name!r}",
                                         head.line, head.col)
            if initial is not None or events:
                raise ScenarioParseError("subsystem declared after state/events",
                                         head.line, head.col)
            subsystems.append(SubsystemSpec(name, len(labels), tuple(labels)))
            dim_of[name] = len(labels)
        elif head.text == "state":
            if not subsystems:
                raise ScenarioParseError("no subsystems declared", head.line, head.col)
            if initial is not None:
                raise ScenarioParseError("state already declared", head.line, head.col)
            dims = tuple(s.dim for s in subsystems)
            need = math.prod(dims)
            if len(rest) != need:
                raise ScenarioParseError(
                    f"state needs {need} amplitudes, got {len(rest)}", head.line, head.col
                )
            amps = [_complex(t) for t in rest]
            try:
                initial = StateVector(dims, amps).require_normalized("initial state")
            except HilbertError as exc:
                raise ScenarioParseError(str(exc), head.line, head.col) from None
            state_line = head.line
        elif head.text == "unitary":
            if len(rest) < 2:
                raise ScenarioParseError("unitary needs a time and targets", head.line, head.col)
            time = _int(rest[0], "time")
            targets, dims = _targets(rest[1], dim_of)
            side = math.prod(dims)
            entry_toks = rest[2:]
            if len(entry_toks) != side * side:
                raise ScenarioParseError(
                    f"unitary on {rest[1].text} needs {side * side} entries, "
                    f"got {len(entry_toks)}",
                    head.line, head.col,
                )
            entries = np.array([_complex(t) for t in entry_toks]).reshape(side, side)
            try:
                events.append(UnitaryEvent(time, targets, Operator(dims, entries)))
            except HilbertError as exc:
                raise ScenarioParseError(f"non-unitary matrix: {exc}", head.line, head.col) from None
            event_lines.append(head.line)
        elif head.text == "measure":
            if len(rest) < 4:
                raise ScenarioParseError(
                    "measure needs time, agent, targets and a record policy",
                    head.line, head.col,
                )
            time = _int(rest[0], "time")
            agent = _ident(rest[1], "agent name")
            targets, dims = _targets(rest[2], dim_of)
            record_tok = rest[3]
            try:
                record = Record[record_tok.text.upper()]
            except KeyError:
                raise ScenarioParseError(
                    f"record policy must be 'retained' or 'erased', got {record_tok.text!r}",
                    record_tok.line, record_tok.col,
                ) from None
            labels, vectors = _parse_basis_groups(rest[4:], dims, head)
            try:
                basis = Basis(dims, tuple(labels), tuple(vectors))
            except HilbertError as exc:
                raise ScenarioParseError(f"invalid measurement basis: {exc}",
                                         head.line, head.col) from None
            events.append(MeasurementEvent(time, agent, targets, basis, record))
            event_lines.append(head.line)
        elif head.text == "final":
            if len(rest) != 1:
                raise ScenarioParseError("final takes one time index", head.line, head.col)
            if explicit_final is not None:
                raise ScenarioParseError("final already declared", head.line, head.col)
            explicit_final = _int(rest[0], "final time")
        else:
            raise ScenarioParseError(f"unknown directive {head.text!r}", head.line, head.col)

    if not subsystems:
        raise ScenarioParseError("no subsystems declared", 1, 1)
    if initial is None:
        raise ScenarioParseError("no initial state declared", 1, 1)
    if not events:
        raise ScenarioParseError("no events declared", 1, 1)

    try:
        return Scenario(
            tuple(subsystems), initial, tuple(events),
            -1 if explicit_final is None else explicit_final,
        )
    except ScenarioValidationError as exc:
        # events were sorted by time inside Scenario; map back to source lines
        line = next((ln for ev, ln in zip(events, event_lines) if ev is exc.event),
                    state_line or 1)
        raise ScenarioParseError(str(exc), line, 1) from None


def _parse_basis_groups(toks, dims, head):
    need = math.prod(dims)
    labels: list[str] = []
    vectors: list[StateVector] = []
    i = 0
    while i < len(toks):
        label_tok = toks[i]
        if not label_tok.text.endswith(":"):
            raise ScenarioParseError(
                f"expected 'label:' before basis vector, got {label_tok.text!r}",
                label_tok.line, label_tok.col,
            )
        label = label_tok.text[:-1]
        if not _IDENT_RE.match(label):
            raise ScenarioParseError(f"invalid outcome label {label!r}",
                                     label_tok.line, label_tok.col)
        if len(toks) - (i + 1) < need:
            raise ScenarioParseError(
                f"basis vector {label!r} needs {need} amplitudes",
                label_tok.line, label_tok.col,
            )
        amps = [_complex(t) for t in toks[i + 1 : i + 1 + need]]
        try:
            vectors.append(StateVector(dims, amps))
        except HilbertError as exc:
            raise ScenarioParseError(str(exc), label_tok.line, label_tok.col) from None
        labels.append(label)
        i += 1 + need
    if len(labels) != need:
        raise ScenarioParseError(
            f"measurement basis needs {need} vectors, got {len(labels)}",
            head.line, head.col,
        )
    return labels, vectors


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_real(z.real)
    if z.real == 0.0:
        return _fmt_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def serialize_scenario(s: Scenario) -> str:
    """Emit canonical ``.scn`` source; parsing it back reproduces ``s``."""
    lines = []
    for sub in s.subsystems:
        lines.append("subsystem " + sub.name + " " + " ".join(sub.basis_labels))
    lines.append("")
    lines.append("state " + " ".join(format_complex(a) for a in s.initial.amps))
    lines.append("")
    for e in s.events:
        targets = ",".join(e.targets)
        if isinstance(e, UnitaryEvent):
            entries = " ".join(format_complex(z) for z in e.op.entries.reshape(-1))
            lines.append(f"unitary {e.time_index} {targets} {entries}")
        else:
            groups = " ".join(
                f"{label}: " + " ".join(format_complex(a) for a in vec.amps)
                for label, vec in zip(e.basis.labels, e.basis.vectors)
            )
            lines.append(
                f"measure {e.time_index} {e.agent} {targets} {e.record.value.lower()} {groups}"
            )
    if s.events and s.final_time != max(e.time_index for e in s.events):
        lines.append(f"final {s.final_time}")
    return "\n".join(lines) + "\n"


def scenario_equal(a: Scenario, b: Scenario, atol: float = ATOL_STRUCT) -> bool:
    """Structural equality with amplitude tolerance ``atol``."""
    if [(s.name, s.dim, s.basis_labels) for s in a.subsystems] != \
       [(s.name, s.dim, s.basis_labels) for s in b.subsystems]:
        return False
    if not a.initial.allclose(b.initial, atol=atol):
        return False
    if len(a.events) != len(b.events):
        return False
    for ea, eb in zip(a.events, b.events):
        if type(ea) is not type(eb):
            return False
        if (ea.time_index, ea.targets) != (eb.time_index, eb.targets):
            return False
        if isinstance(ea, UnitaryEvent):
            if not np.allclose(ea.op.entries, eb.op.entries, rtol=0.0, atol=atol):
                return False
        else:
            if (ea.agent, ea.record, ea.basis.labels) != (eb.agent, eb.record, eb.basis.labels):
                return False
            for va, vb in zip(ea.basis.vectors, eb.basis.vectors):
                if not va.allclose(vb, atol=atol):
                    return False
    return a.final_time == b.final_time


# ---------------------------------------------------------------------------
# canonical JSON interchange
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def scenario_to_json(s: Scenario) -> str:
    doc = {
        "subsystems": [
            {"name": sub.name, "dim": sub.dim, "basis_labels": list(sub.basis_labels)}
            for sub in s.subsystems
        ],
        "initial": {
            "dims": list(s.initial.dims),
            "amps": [_c2j(a) for a in s.initial.amps],
        },
        "events": [],
        "final_time": s.final_time,
    }
    for e in s.events:
        if isinstance(e, UnitaryEvent):
            doc["events"].append(
                {
                    "kind": "unitary",
                    "time_index": e.time_index,
                    "targets": list(e.targets),
                    "op": {
                        "dims": list(e.op.dims),
                        "entries": [[_c2j(z) for z in row] for row in e.op.entries],
                    },
                }
            )
        else:
            doc["events"].append(
                {
                    "kind": "measurement",
                    "time_index": e.time_index,
                    "agent": e.agent,
                    "targets": list(e.targets),
                    "record": e.record.value,
                    "basis": {
                        "dims": list(e.basis.dims),
                        "labels": list(e.basis.labels),
                        "vectors": [[_c2j(a) for a in v.amps] for v in e.basis.vectors],
                    },
                }
            )
    return json.dumps(doc, indent=2)


def _strings(items) -> tuple[str, ...]:
    if isinstance(items, str) or not all(isinstance(x, str) for x in items):
        raise TypeError(f"expected a list of strings, got {items!r}")
    return tuple(items)


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _dims(items) -> tuple[int, ...]:
    return tuple(_integer(x, "dims entry") for x in items)


def scenario_from_json(text: str | bytes) -> Scenario:
    """Load the canonical JSON form into a validated Scenario.

    Total: any input produces either a Scenario or a ScenarioParseError that
    names the entry at fault (``events[0]``) or the JSON syntax error's line.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except (ValueError, RecursionError) as exc:  # undecodable bytes, nesting too deep
        raise ScenarioParseError(f"invalid JSON: {exc}", 1, 1) from None
    where = "document"
    try:
        subs, init, evs = doc["subsystems"], doc["initial"], doc["events"]
        final_time = _integer(doc.get("final_time", -1), "final_time")
        subsystems = []
        for k, d in enumerate(subs):
            where = f"subsystems[{k}]"
            (name,) = _strings([d["name"]])
            subsystems.append(SubsystemSpec(name, _integer(d["dim"], "dim"),
                                             _strings(d["basis_labels"])))
        where = "initial"
        initial = StateVector(_dims(init["dims"]), [_j2c(p) for p in init["amps"]])
        events: list[Event] = []
        for k, d in enumerate(evs):
            where = f"events[{k}]"
            targets = _strings(d["targets"])
            time = _integer(d["time_index"], "time_index")
            if d["kind"] == "unitary":
                op = Operator(
                    _dims(d["op"]["dims"]),
                    np.array([[_j2c(z) for z in row] for row in d["op"]["entries"]]),
                )
                events.append(UnitaryEvent(time, targets, op))
            elif d["kind"] == "measurement":
                dims = _dims(d["basis"]["dims"])
                basis = Basis(
                    dims,
                    _strings(d["basis"]["labels"]),
                    tuple(StateVector(dims, [_j2c(p) for p in vec])
                          for vec in d["basis"]["vectors"]),
                )
                (agent,) = _strings([d["agent"]])
                events.append(MeasurementEvent(time, agent, targets, basis,
                                               Record(d["record"])))
            else:
                raise ValueError(f"kind must be 'unitary' or 'measurement', got {d['kind']!r}")
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise ScenarioParseError(f"{where}: {exc!r}") from None
    try:
        return Scenario(tuple(subsystems), initial, tuple(events), final_time)
    except ScenarioValidationError as exc:
        raise ScenarioParseError(str(exc)) from None
