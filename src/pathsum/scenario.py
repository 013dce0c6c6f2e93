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

    TIME    := [0-9]+                     # ASCII digits only
    TARGETS := NAME[,NAME...]             # coordinate order as written
    RECORD  := retained | erased
    COMPLEX := REAL | REALi | REAL+REALi | REAL-REALi
    REAL    := product/quotient chain of INT, FLOAT, INT/INT, sqrt(REAL),
               (REAL), with unary minus; e.g. 1/sqrt(2), -sqrt(2/3), 0.6

The parser is total: every input yields a Scenario or a ScenarioParseError
carrying a line and column.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    ATOL_STRUCT,
    Basis,
    HilbertError,
    Operator,
    StateVector,
    gram_defects,
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
    ScenarioValidationError naming the first rule broken.  A valid scenario
    then derives its index once: its dims, the slot of each subsystem name,
    and its measurements, retained and erased, which every reader shares.
    The index is not a field, so equality, repr and ``dataclasses.replace``
    see only the fields, and a replaced scenario derives its own.
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
        unknown = len(order)
        events = tuple(
            sorted(
                self.events,
                key=lambda e: (e.time_index,
                               min([order.get(t, unknown) for t in e.targets], default=0)),
            )
        )
        object.__setattr__(self, "events", events)
        if self.final_time < 0 and events:
            object.__setattr__(
                self, "final_time", max(e.time_index for e in events)
            )
        _check(self)
        measurements = tuple(
            (i, e) for i, e in enumerate(events) if isinstance(e, MeasurementEvent)
        )
        self.__dict__.update(  # the names are unique, so ``order`` is the slot map
            _dims=tuple(s.dim for s in self.subsystems),
            _slot=order,
            _measurements=measurements,
            _retained=tuple(m for m in measurements if m[1].record is Record.RETAINED),
            _erased=tuple(m for m in measurements if m[1].record is Record.ERASED),
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def subsystem_index(self, name: str) -> int:
        try:
            return self._slot[name]
        except KeyError:
            raise ScenarioValidationError(f"unknown subsystem {name!r}") from None

    def slots(self, targets: tuple[str, ...]) -> tuple[int, ...]:
        try:
            return tuple([self._slot[n] for n in targets])
        except KeyError:
            return tuple(map(self.subsystem_index, targets))  # raises for the first unknown

    def measurements(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        """(event_index, event) for measurement events, in time order."""
        return self._measurements

    def retained(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return self._retained

    def erased(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return self._erased

    def agent_event(self, agent: str) -> tuple[int, MeasurementEvent]:
        for i, e in self._measurements:
            if e.agent == agent:
                return i, e
        raise ScenarioValidationError(f"unknown agent {agent!r}")

    def agents(self) -> tuple[str, ...]:
        return tuple(e.agent for _, e in self._measurements)


def _check(s: Scenario) -> None:
    """Raise ScenarioValidationError for the first violated invariant.

    One pass over the events raises an event's own violation at once and
    keeps the first violation of each scenario-wide rule, which is raised
    after the pass in the rules' order.
    """
    if not s.subsystems:
        raise ScenarioValidationError("no subsystems declared")
    dim_of = {sub.name: sub.dim for sub in s.subsystems}
    if len(dim_of) != len(s.subsystems):
        raise ScenarioValidationError("duplicate subsystem names")

    dims = tuple(dim_of.values())
    if s.initial.dims != dims:
        raise ScenarioValidationError(
            f"initial state dims {s.initial.dims} do not match subsystems {dims}"
        )
    if not s.initial.is_normalized():
        raise ScenarioValidationError(f"initial state norm != 1 (got {s.initial.norm():.6g})")

    if not s.events:
        raise ScenarioValidationError("scenario has no events")

    t_max = s.events[-1].time_index  # events are sorted by time
    # strict ordering for events acting on overlapping targets: each event is
    # paired with the first event at each of its (time, target) slots, and
    # the least pair (i, j) is the first a scan over all pairs finds
    first: dict[tuple[int, str], int] = {}
    clash: tuple[int, int] | None = None
    agents: list[str] = []
    unfinished: Event | None = None  # rule B
    pending: list[tuple[int, MeasurementEvent, set[str]]] = []  # rule F
    for j, e in enumerate(s.events):
        targets = e.targets
        cover = set(targets)
        if len(cover) != len(targets):
            raise ScenarioValidationError(f"event {j}: duplicate targets {targets}", e)
        for t in targets:
            if t not in dim_of:
                raise ScenarioValidationError(f"event {j}: unknown subsystem {t!r}", e)
        tdims = tuple([dim_of[t] for t in targets])
        obj = e.op if isinstance(e, UnitaryEvent) else e.basis
        if obj.dims != tdims:
            raise ScenarioValidationError(
                f"event {j}: operator/basis dims {obj.dims} do not match targets {tdims}", e
            )
        if e.time_index < 0:
            raise ScenarioValidationError(f"event {j}: negative time index", e)

        for t in targets:
            i = first.setdefault((e.time_index, t), j)
            if i != j and (clash is None or (i, j) < clash):
                clash = (i, j)
        measured = isinstance(e, MeasurementEvent)
        if measured:
            agents.append(e.agent)
            # rule F: an erased record must be destroyed by a later measurement
            pending = [p for p in pending if not p[2] <= cover]
            if e.record is Record.ERASED:
                pending.append((j, e, cover))
        # rule B: the experiment must end on surviving records
        if unfinished is None and e.time_index == t_max and (
                not measured or e.record is not Record.RETAINED):
            unfinished = e

    if clash is not None:
        i, j = clash
        raise ScenarioValidationError(
            f"events {i} and {j} share time {s.events[i].time_index} and overlapping targets",
            s.events[j],
        )
    if not agents:
        raise ScenarioValidationError("scenario has no measurements")
    if len(set(agents)) != len(agents):
        raise ScenarioValidationError("agent names are not unique across measurement events")
    if s.final_time < t_max:
        raise ScenarioValidationError("final_time is earlier than the last event")
    if unfinished is not None:
        raise ScenarioValidationError(
            "no surviving final record (last event must be a retained measurement)", unfinished
        )
    if pending:
        i, e, _ = pending[0]
        raise ScenarioValidationError(
            f"event {i}: ERASED record of agent {e.agent!r} is never erased "
            f"(needs a later measurement covering {e.targets})",
            e,
        )


# ---------------------------------------------------------------------------
# constant-expression grammar for complex literals
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?", re.ASCII)
# a run of plain ``a`` or ``a+bi``/``a-bi`` literals, one space apart, which
# needs none of the grammar below
_PLAIN = rf"-?{_NUMBER_RE.pattern}(?:[-+]{_NUMBER_RE.pattern}i)?"
_PLAIN_RUN_RE = re.compile(rf"{_PLAIN}(?: {_PLAIN})*", re.ASCII)
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


class _BadLiteral(ValueError):
    """A literal the grammar rejects; ``index`` is its place in the run."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _literals(tokens: list[str], starts: Sequence[int] = (0,)) -> list[complex]:
    """The values of whitespace-free literals, in order.

    A list of plain literals is checked by one match of the joined list, and
    each token is converted by complex(), which rounds each part as the
    grammar's float() does, so every value is bit-identical, -0 included.
    Otherwise each run, cut at ``starts``, is tried the same way on its own,
    and a run that is not plain, or that overflows, goes through the grammar
    token by token; the first bad token raises _BadLiteral.
    """
    run = " ".join(tokens)
    if _PLAIN_RUN_RE.fullmatch(run):
        values = list(map(complex, run.replace("i", "j").split(" ")))
        # a token with a space in it splits in two and takes the grammar
        if len(values) == len(tokens) and all(map(cmath.isfinite, values)):
            return values
    values = []
    if len(starts) > 1:
        for a, b in itertools.pairwise((*starts, len(tokens))):
            try:
                values += _literals(tokens[a:b])
            except _BadLiteral as exc:
                raise _BadLiteral(a + exc.index, str(exc)) from None
        return values
    for k, tok in enumerate(tokens):
        try:
            values.append(_ExprParser(tok).parse_complex())
        except ValueError as exc:
            raise _BadLiteral(k, str(exc)) from None
    return values


def parse_complex_literal(token: str) -> complex:
    """Parse one complex literal, e.g. ``1/sqrt(2)``, ``0.5-0.5i``, ``1i``."""
    if not token:
        raise ValueError("empty literal")
    return _literals([token])[0]


# ---------------------------------------------------------------------------
# .scn parser
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z", re.ASCII)
_TIME_RE = re.compile(r"[0-9]+")
_TOKEN_RE = re.compile(r"\S+")


class _Line:
    """One source line with tokens: its number, its text before any ``#``,
    and its tokens, which ``str.split`` and ``\\S+`` both cut at the
    characters ``str.isspace`` accepts."""

    __slots__ = ("number", "body", "toks")

    def __init__(self, number: int, body: str, toks: list[str]):
        self.number = number
        self.body = body
        self.toks = toks

    def error(self, k: int, message: str) -> ScenarioParseError:
        """An error at token ``k``; its column is looked up only now."""
        match = next(itertools.islice(_TOKEN_RE.finditer(self.body), k, None))
        return ScenarioParseError(message, self.number, match.start() + 1)


def _lines(text: str):
    for number, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0]
        toks = body.split()
        if toks:
            yield _Line(number, body, toks)


def _ident(ln: _Line, k: int, what: str) -> str:
    if not _IDENT_RE.match(ln.toks[k]):
        raise ln.error(k, f"invalid {what} {ln.toks[k]!r}")
    return ln.toks[k]


def _int(ln: _Line, k: int, what: str) -> int:
    text = ln.toks[k]
    if _TIME_RE.fullmatch(text):
        return int(text)
    if text.startswith("-") and _TIME_RE.fullmatch(text, 1):
        raise ln.error(k, f"{what} must be non-negative")
    raise ln.error(k, f"{what} must be an integer, got {text!r}")


def _targets(ln: _Line, k: int,
             dim_of: dict[str, int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """An event's comma-separated target list and the targets' dims."""
    targets = tuple(ln.toks[k].split(","))
    for t in targets:
        if not _IDENT_RE.match(t):
            raise ln.error(k, f"invalid target list {ln.toks[k]!r}")
    for t in targets:
        if t not in dim_of:
            raise ln.error(k, f"unknown subsystem {t!r}")
    return targets, tuple(dim_of[t] for t in targets)


class _Item:
    """One line's literals, which the value pass converts and checks.

    ``kind`` is "state", "unitary" or "basis".  The literals are
    ``flat[start:start + size]`` of the file's list, and a basis' are its
    vectors, ``side`` literals each, with a label token before each one.
    ``k`` is the line's token of the first literal, and ``args`` what the
    item's object is built from: None for the complete vectors of a measure
    line the structure pass stopped on, which are checked one by one only.
    """

    __slots__ = ("kind", "ln", "k", "start", "size", "side", "args")

    def __init__(self, kind, ln, k, start, size, side, args):
        self.kind, self.ln, self.k, self.start = kind, ln, k, start
        self.size, self.side, self.args = size, side, args

    def error(self, offset: int, message: str, label: bool = False) -> ScenarioParseError:
        """An error at literal ``offset``, or at the label of its vector."""
        if self.kind != "basis":
            return self.ln.error(self.k + offset, message)
        vector, entry = divmod(offset, self.side)
        return self.ln.error(self.k + vector * (self.side + 1) + (-1 if label else entry),
                             message)


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse ``.scn`` source into a validated Scenario.

    Total: any input produces either a Scenario or a ScenarioParseError with
    a line/column diagnostic.  The structure pass reads every line without
    its numbers; the value pass then converts and checks them in bulk.  The
    error reported is the first in source order.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"input is not valid UTF-8 ({exc.reason})", 1, 1) from None

    subsystems: list[SubsystemSpec] = []
    dim_of: dict[str, int] = {}
    items: list[_Item] = []
    flat: list[str] = []  # every amplitude token, in source order
    state_line = 0
    explicit_final: int | None = None
    error = None

    try:
        for ln in _lines(text):
            toks = ln.toks
            head, n_rest = toks[0], len(toks) - 1
            if head == "subsystem":
                if n_rest < 2:
                    raise ln.error(0, "subsystem needs a name and at least one label")
                name = _ident(ln, 1, "subsystem name")
                if name in dim_of:
                    raise ln.error(1, f"subsystem {name!r} already declared")
                labels = [_ident(ln, k, "basis label") for k in range(2, len(toks))]
                if len(set(labels)) != len(labels):
                    raise ln.error(0, f"duplicate basis labels for subsystem {name!r}")
                if items:
                    raise ln.error(0, "subsystem declared after state/events")
                subsystems.append(SubsystemSpec(name, len(labels), tuple(labels)))
                dim_of[name] = len(labels)
            elif head == "state":
                if not subsystems:
                    raise ln.error(0, "no subsystems declared")
                if state_line:
                    raise ln.error(0, "state already declared")
                dims = tuple(s.dim for s in subsystems)
                need = math.prod(dims)
                if n_rest != need:
                    raise ln.error(0, f"state needs {need} amplitudes, got {n_rest}")
                items.append(_Item("state", ln, 1, len(flat), need, 0, dims))
                flat += toks[1:]
                state_line = ln.number
            elif head == "unitary":
                if n_rest < 2:
                    raise ln.error(0, "unitary needs a time and targets")
                time = _int(ln, 1, "time")
                targets, dims = _targets(ln, 2, dim_of)
                side = math.prod(dims)
                if n_rest - 2 != side * side:
                    raise ln.error(0, f"unitary on {toks[2]} needs {side * side} entries, "
                                      f"got {n_rest - 2}")
                items.append(_Item("unitary", ln, 3, len(flat), n_rest - 2, side,
                                   (time, targets, dims)))
                flat += toks[3:]
            elif head == "measure":
                if n_rest < 4:
                    raise ln.error(0, "measure needs time, agent, targets and a record policy")
                time = _int(ln, 1, "time")
                agent = _ident(ln, 2, "agent name")
                targets, dims = _targets(ln, 3, dim_of)
                try:
                    record = Record[toks[4].upper()]
                except KeyError:
                    raise ln.error(
                        4, f"record policy must be 'retained' or 'erased', got {toks[4]!r}"
                    ) from None
                need = math.prod(dims)
                labels, amps, malformed = _vectors(ln, need)
                args = (time, agent, targets, dims, labels, record)
                items.append(_Item("basis", ln, 6, len(flat), len(amps), need,
                                   None if malformed else args))
                flat += amps
                if malformed is not None:
                    raise malformed
            elif head == "final":
                if n_rest != 1:
                    raise ln.error(0, "final takes one time index")
                if explicit_final is not None:
                    raise ln.error(0, "final already declared")
                explicit_final = _int(ln, 1, "final time")
            else:
                raise ln.error(0, f"unknown directive {head!r}")
    except ScenarioParseError as exc:
        error = exc  # reported after any value error before it

    initial, events, event_lines = _values(items, flat)
    if error is not None:
        raise error
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


def _vectors(ln: _Line, need: int):
    """The ``label: COMPLEX...`` groups from token 5 on: their labels, the
    literals of every complete group, and the first error or None."""
    toks = ln.toks
    heads = toks[5::need + 1]
    labels = tuple(tok[:-1] for tok in heads)
    k = 5
    for tok, label in zip(heads, labels):
        if not tok.endswith(":"):
            error = ln.error(k, f"expected 'label:' before basis vector, got {tok!r}")
        elif not _IDENT_RE.match(label):
            error = ln.error(k, f"invalid outcome label {label!r}")
        elif len(toks) - (k + 1) < need:
            error = ln.error(k, f"basis vector {label!r} needs {need} amplitudes")
        else:
            k += 1 + need
            continue
        break
    else:
        if len(labels) != need:
            error = ln.error(0, f"measurement basis needs {need} vectors, got {len(labels)}")
        elif len(set(labels)) != need:
            error = ln.error(0, f"invalid measurement basis: duplicate basis labels in {labels!r}")
        else:
            error = None
    amps = toks[6:k]
    del amps[need::need + 1]
    return labels, amps, error


# the context a state's, unitary's or basis' own check is reported in
_CONTEXT = {"state": "", "unitary": "non-unitary matrix: ", "basis": "invalid measurement basis: "}


def _values(items: list[_Item], flat: list[str]):
    """The value pass: convert every literal at once, check every item, and
    build the initial state (None if there is none) and the events, with
    each event's line.  The error raised is the first in source order."""
    try:
        vals = np.array(_literals(flat, [it.start for it in items if it.size]), dtype=complex)
    except _BadLiteral as exc:
        j = next(j for j, it in enumerate(items) if it.start + it.size > exc.index)
        bad, offset = items[j], exc.index - items[j].start
        # anything wrong before it comes first, the vectors before it included
        head = items[:j]
        done = offset - offset % bad.side if bad.kind == "basis" else 0
        if done:
            head.append(_Item("basis", bad.ln, bad.k, bad.start, done, bad.side, None))
        _values(head, flat[:bad.start + done])
        raise bad.error(offset, str(exc)) from None
    finite = np.isfinite(vals)
    all_finite = bool(finite.all())
    matrices = _gram_checks(items, vals)
    initial, events, lines = None, [], []
    for j, it in enumerate(items):
        if it.kind == "basis" and not all_finite:
            nonfinite = np.flatnonzero(~finite[it.start:it.start + it.size])
            if nonfinite.size:
                raise it.error(int(nonfinite[0]), "non-finite amplitude (NaN or Inf)", label=True)
        if it.args is None:
            continue
        try:
            if it.kind == "state":
                initial = StateVector(it.args, vals[it.start:it.start + it.size])
                initial.require_normalized("initial state")
                continue
            # a matrix that failed the stacked check is checked again on its own
            matrix, passed = matrices[j]
            if it.kind == "unitary":
                time, targets, dims = it.args
                if not passed:
                    UnitaryEvent(time, targets, Operator(dims, matrix))
                events.append(_prechecked(UnitaryEvent, time_index=time, targets=targets,
                                          op=_prechecked(Operator, dims=dims, entries=matrix)))
            else:
                time, agent, targets, dims, labels, record = it.args
                if not passed:
                    Basis(dims, labels, matrix)
                basis = _prechecked(Basis, dims=dims, labels=labels, matrix=matrix)
                events.append(MeasurementEvent(time, agent, targets, basis, record))
        except HilbertError as exc:
            raise it.ln.error(0, _CONTEXT[it.kind] + str(exc)) from None
        lines.append(it.ln.number)
    return initial, events, lines


def _gram_checks(items: list[_Item], vals: np.ndarray) -> dict[int, tuple[np.ndarray, bool]]:
    """(frozen matrix, whether it passed) for each unitary and basis item,
    by index, from one ``gram_defects`` call per matrix side.  A basis'
    vectors are its columns, and it passes at half the tolerance, as in
    ``validate_basis``."""
    sides: dict[int, list[int]] = {}
    for j, it in enumerate(items):
        if it.side and it.args is not None:
            sides.setdefault(it.side, []).append(j)
    out = {}
    for side, js in sides.items():
        stack = np.array([_matrix(items[j], vals) for j in js])
        stack.setflags(write=False)
        for j, matrix, defect in zip(js, stack, gram_defects(stack).tolist()):
            out[j] = matrix, defect <= (ATOL_STRUCT / 2 if items[j].kind == "basis"
                                        else ATOL_STRUCT)
    return out


def _matrix(it: _Item, vals: np.ndarray) -> np.ndarray:
    """A unitary's entries, or a basis' vectors as columns."""
    rows = vals[it.start:it.start + it.side * it.side].reshape(it.side, it.side)
    return rows.T if it.kind == "basis" else rows


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` as given
    and its own checks skipped, for values the value pass has checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex) -> str:
    """Text that parses back to ``z`` bit for bit; a part is left out only
    if it is +0.0, so a -0.0 keeps its sign."""
    z = complex(z)
    if z.imag == 0.0 and math.copysign(1.0, z.imag) > 0:
        return _fmt_real(z.real)
    if z.real == 0.0 and math.copysign(1.0, z.real) > 0:
        return _fmt_real(z.imag) + "i"
    sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
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
                f"{label}: " + " ".join(format_complex(a) for a in vec)
                for label, vec in zip(e.basis.labels, e.basis.matrix.T)
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
            if (ea.agent, ea.record, ea.basis.labels, ea.basis.dims) != \
               (eb.agent, eb.record, eb.basis.labels, eb.basis.dims):
                return False
            if not np.allclose(ea.basis.matrix, eb.basis.matrix, rtol=0.0, atol=atol):
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
                        "vectors": [[_c2j(a) for a in v] for v in e.basis.matrix.T],
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
                vectors = [[_j2c(p) for p in vec] for vec in d["basis"]["vectors"]]
                basis = Basis(_dims(d["basis"]["dims"]), _strings(d["basis"]["labels"]),
                              np.array(vectors, dtype=complex).T)
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
