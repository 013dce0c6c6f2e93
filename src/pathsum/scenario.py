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
import operator
import re
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ATOL_STRUCT,
    Basis,
    HilbertError,
    Operator,
    StateVector,
    apply_to_slots,
    are_names,
    check_budget,
    gram_defects,
    is_int,
)


class ScenarioParseError(ValueError):
    """Syntax or semantic error in ``.scn`` input, with source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = int(line)
        self.col = int(col)
        super().__init__(f"line {self.line}, col {self.col}: {message}")
        self.message = message


class ScenarioValidationError(ValueError):
    """A constructed Scenario, or a part of one, violates an invariant.

    ``event`` is the offending event, or None for a scenario-wide rule or a field.
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


def _fields(obj, **rules) -> None:
    """Raise ScenarioValidationError naming ``obj``'s class and the first of
    its fields whose value fails its rule, a (test, description) pair."""
    for name, (test, what) in rules.items():
        if not test(value := getattr(obj, name)):
            raise ScenarioValidationError(
                f"{type(obj).__name__}.{name} must be {what}, got {value!r}")


_TIME = (lambda v: is_int(v) and v >= 0, "a non-negative int")
_STR = (lambda v: isinstance(v, str), "a str")
_NAMES = (are_names, "a tuple or list of str")


@dataclass(frozen=True)
class SubsystemSpec:
    name: str
    dim: int
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        _fields(self, name=_STR, dim=(is_int, "an int"), basis_labels=_NAMES)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if self.dim < 1:
            raise ScenarioValidationError(f"subsystem {self.name!r} has dim {self.dim}")
        if len(self.basis_labels) != self.dim:
            raise ScenarioValidationError(
                f"subsystem {self.name!r}: {len(self.basis_labels)} labels for dim {self.dim}")
        if len(set(self.basis_labels)) != self.dim:
            raise ScenarioValidationError(f"subsystem {self.name!r} has duplicate basis labels")


@dataclass(frozen=True)
class UnitaryEvent:
    time_index: int
    targets: tuple[str, ...]
    op: Operator

    def __post_init__(self):
        _fields(self, time_index=_TIME, targets=_NAMES,
                op=(lambda v: isinstance(v, Operator), "an Operator"))
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
        _fields(self, time_index=_TIME, agent=_STR, targets=_NAMES,
                basis=(lambda v: isinstance(v, Basis), "a Basis"),
                record=(lambda v: isinstance(v, Record), "Record.RETAINED or Record.ERASED"))
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels


Event = UnitaryEvent | MeasurementEvent
# measurement event index -> the erased records whose lifts it consumes, in
# order; erased event index -> the time of the unitary that reversed its lift
Erasures = tuple[dict[int, tuple[int, ...]], dict[int, int]]


@dataclass(frozen=True)
class Scenario:
    """Subsystems, initial state and events, sorted by time on construction.

    Constructing one enforces every scenario rule; a violation raises
    ScenarioValidationError naming the first rule broken.  A valid scenario
    then derives its index once: its dims, the slot of each subsystem name,
    its measurements, retained and erased, each erased record's eraser, the
    (agent, label) axes of its retained outcomes and its regime tag, which
    every reader shares.  Whether the erasures are realizable is decided on
    first use of ``erasures`` and kept.
    The index is not a field, so equality, repr and ``dataclasses.replace``
    see only the fields, and a replaced scenario derives its own.
    """

    subsystems: tuple[SubsystemSpec, ...]
    initial: StateVector
    events: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        events = tuple(self.events)
        _check_types(self.subsystems, events)  # the time sort reads their fields
        order = {s.name: k for k, s in enumerate(self.subsystems)}
        times = [e.time_index for e in events]
        if not all(map(operator.lt, times, times[1:])):  # else already in time order
            # ties between same-time events on disjoint targets are broken by
            # subsystem declaration order, so outcome tuples are deterministic
            unknown = len(order)
            events = tuple(
                sorted(
                    events,
                    key=lambda e: (e.time_index,
                                   min([order.get(t, unknown) for t in e.targets], default=0)),
                )
            )
        object.__setattr__(self, "events", events)
        measurements, erasers = _check(self)
        retained = tuple([m for m in measurements if m[1].record is Record.RETAINED])
        erased = tuple([m for m in measurements if m[1].record is Record.ERASED])
        tag = "retained=" + ",".join([e.agent for _, e in retained])
        if erased:
            tag += "; erased=" + ",".join([e.agent for _, e in erased])
        self.__dict__.update(  # the names are unique, so ``order`` is the slot map
            _dims=tuple(s.dim for s in self.subsystems),
            _slot=order,
            _measurements=measurements,
            _retained=retained,
            _erased=erased,
            _erasers=erasers,
            _retained_axes=tuple([tuple([(e.agent, label) for label in e.labels])
                                  for _, e in retained]),
            _regime_tag=tag,
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def slots(self, targets: tuple[str, ...]) -> tuple[int, ...]:
        try:
            return tuple([self._slot[n] for n in targets])
        except KeyError as exc:  # the first unknown name
            raise ScenarioValidationError(f"unknown subsystem {exc.args[0]!r}") from None

    def measurements(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        """(event_index, event) for measurement events, in time order."""
        return self._measurements

    def retained(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return self._retained

    def erased(self) -> tuple[tuple[int, MeasurementEvent], ...]:
        return self._erased

    def retained_axes(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """The (agent, label) pairs of each retained event, in time order."""
        return self._retained_axes

    def regime_tag(self) -> str:
        """``retained=A,B``, then ``; erased=C`` when a record is erased."""
        return self._regime_tag

    def erasers(self) -> dict[int, int]:
        """Erased event index -> the index of its eraser, the first later
        measurement that covers its targets, in the eraser's time order."""
        return self._erasers

    def erasures(self, error: type[ValueError]) -> Erasures:
        """How the dilation realizes the erased records (see ``_realize``),
        decided on first use and kept; raises ``error`` with the refusal if
        no eraser can realize them, so both engines refuse the same ones."""
        if "_erasures" not in self.__dict__:
            try:
                self.__dict__["_erasures"] = _realize(self)
            except _Unrealizable as exc:
                self.__dict__["_erasures"] = str(exc)
        if isinstance(self._erasures, str):
            raise error(self._erasures)
        return self._erasures

    def agent_event(self, agent: str) -> tuple[int, MeasurementEvent]:
        for i, e in self._measurements:
            if e.agent == agent:
                return i, e
        raise ScenarioValidationError(f"unknown agent {agent!r}")


def _check_types(subsystems: tuple, events: tuple) -> None:
    """Raise ScenarioValidationError for the first subsystem or event of a
    scenario built in code that is not of its class."""
    for k, sub in enumerate(subsystems):
        if not isinstance(sub, SubsystemSpec):
            raise ScenarioValidationError(f"subsystem {k}: expected a SubsystemSpec, got {sub!r}")
    for j, e in enumerate(events):
        if not isinstance(e, (UnitaryEvent, MeasurementEvent)):
            raise ScenarioValidationError(
                f"event {j}: expected a UnitaryEvent or MeasurementEvent, got {e!r}")


def _check(s: Scenario) -> tuple[tuple[tuple[int, MeasurementEvent], ...], dict[int, int]]:
    """Raise ScenarioValidationError for the first violated invariant, or
    return the measurements' (index, event) pairs, each record a ``Record``
    member, and each erased record's eraser (see ``Scenario.erasers``).

    One pass over the events raises an event's own violation at once and
    keeps the first violation of each scenario-wide rule, which is raised
    after the pass in the rules' order.
    """
    if not s.subsystems:
        raise ScenarioValidationError("no subsystems declared")
    dim_of = {sub.name: sub.dim for sub in s.subsystems}
    if len(dim_of) != len(s.subsystems):
        raise ScenarioValidationError("duplicate subsystem names")

    if not isinstance(s.initial, StateVector):
        raise ScenarioValidationError(f"initial state must be a StateVector, got {s.initial!r}")
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
    measurements: list[tuple[int, MeasurementEvent]] = []
    unfinished: Event | None = None  # rule B
    pending: list[tuple[int, MeasurementEvent, set[str]]] = []  # rule F
    erasers: dict[int, int] = {}
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

        for t in targets:
            i = first.setdefault((e.time_index, t), j)
            if i != j and (clash is None or (i, j) < clash):
                clash = (i, j)
        measured = isinstance(e, MeasurementEvent)
        if measured:
            measurements.append((j, e))
            # rule F: an erased record must be destroyed by a later
            # measurement; the first that covers its targets is its eraser
            kept = [p for p in pending if not p[2] <= cover]
            if len(kept) < len(pending):
                erasers.update([(p[0], j) for p in pending if p[2] <= cover])
                pending = kept
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
    if not measurements:
        raise ScenarioValidationError("scenario has no measurements")
    if len({e.agent for _, e in measurements}) != len(measurements):
        raise ScenarioValidationError("agent names are not unique across measurement events")
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
    return tuple(measurements), erasers


class _Unrealizable(ValueError):
    """An erasure the dilation cannot realize; ``Scenario.erasures`` keeps its text."""


def _realize(s: Scenario) -> Erasures:
    """``Scenario.erasures``' two maps, from one pass over the events; raise
    _Unrealizable at the first event that leaves an erasure unrealizable.

    An erased record's lift L, its coupling and then the lifts it consumed,
    acts on its span; a measurement that meets the span consumes L and must
    cover the record.  At its eraser W, the events since the record decide
    (``_lift_reversed``).  A retained W leaves L factored out of the
    oracle's stored state, which would take a later unitary U on L's span
    as L U L^dagger, so U must commute with L, and no U may act on a
    reversed lift.
    """
    erasers = s.erasers()
    lifts: dict[int, tuple[int, ...]] = {}
    reversed_at: dict[int, int] = {}
    chains: dict[int, tuple[int, ...]] = {}  # erased record -> the records of its lift's chain
    # erased record -> the subsystems its lift acts on; the records' own
    # targets are pairwise disjoint, and this order is each ``lifts`` entry's
    active: dict[int, set[int]] = {}
    for i, e in enumerate(s.events):
        tslots = s.slots(e.targets)
        if isinstance(e, UnitaryEvent):
            for p, span in active.items():
                if erasers[p] < i and span.intersection(tslots):
                    residual = _disturbance(s, chains[p], e, reversed_at)
                    if residual**2 > ATOL_STRUCT:
                        raise _Unrealizable(
                            f"erased record was disturbed after "
                            f"{s.events[erasers[p]].agent!r}'s measurement by the "
                            f"unitary at time {e.time_index} (commutator residual {residual:.3g})"
                        )
            continue
        lifts[i] = hit = tuple([p for p, span in active.items() if span.intersection(tslots)])
        for p in hit:
            if not set(tslots).issuperset(s.slots(s.events[p].targets)):
                raise _Unrealizable(
                    f"measurement by {e.agent!r} overlaps an erased record on "
                    f"subsystem slots {sorted(active[p])} without covering it; "
                    f"no composite-basis erasure exists"
                )
        for p in hit:
            # later measurements through the same lift destroy nothing new
            if erasers[p] == i:
                active[p] = _lift_reversed(s, p, active[p], i, chains[p], reversed_at) or active[p]
        if e.record is Record.ERASED:
            chains[i] = (i,) + tuple([q for p in hit for q in chains[p]])
            active[i] = set(tslots).union(*[active.pop(p) for p in hit])
    return lifts, reversed_at


def _lift_reversed(s: Scenario, p: int, span, eraser_index, chain, reversed_at):
    """The support the erased record ``p``'s lift L spans if the unitaries
    between ``p`` and its eraser W reversed L, else None.  L acts on
    ``span``, and ``chain`` holds its records; the support is ``span``
    grown by the targets of every unitary that meets it.  Either every
    unitary on the span commutes with the projectors of L's chain, and L is
    unchanged; or every unitary on the support acts inside W's targets and
    no other measurement meets it, and W measures in the basis of
    V L V^dagger, V those unitaries, which runs the laboratory's evolution
    back (Deutsch's reversible friend).  A reversed lift is put in
    ``reversed_at``; a disturbed lift that is not reversed is refused."""
    support, on = set(span), []  # ``on``: the events that meet the support, in time order
    for f in s.events[p + 1:eraser_index]:
        tslots = s.slots(f.targets)
        if support.intersection(tslots):
            if isinstance(f, UnitaryEvent):
                support.update(tslots)
            on.append(f)
    for u in on:
        if isinstance(u, UnitaryEvent) and span.intersection(s.slots(u.targets)):
            residual = _disturbance(s, chain, u, reversed_at)
            if residual**2 > ATOL_STRUCT:  # a population, like the norm check's
                break
    else:
        return None
    eraser = s.events[eraser_index]
    inside = set(s.slots(eraser.targets)).issuperset
    for f in on:
        if not (isinstance(f, UnitaryEvent) and inside(s.slots(f.targets))):
            what = (f"the unitary at time {f.time_index} acts on its support beyond its targets"
                    if isinstance(f, UnitaryEvent) else
                    f"{f.agent!r}'s measurement at time {f.time_index} meets its support")
            raise _Unrealizable(
                f"erased record was disturbed before {eraser.agent!r}'s measurement by the "
                f"unitary at time {u.time_index} (commutator residual {residual:.3g}), "
                f"and {what}; this erasure is not realizable"
            )
    reversed_at[p] = u.time_index
    return support


def _disturbance(s: Scenario, chain, u: UnitaryEvent, reversed_at) -> float:
    """How far the unitary event ``u`` disturbs the erased record whose lift
    holds the records ``chain``: their commutator residual, or inf if a
    unitary reversed a lift in the chain."""
    return math.inf if reversed_at.keys() & set(chain) else _commutator(s, chain, u)


def _commutator(s: Scenario, chain, u: UnitaryEvent) -> float:
    """max_k ||[U, P_k]||_F over the measurement events ``chain`` and the
    unitary event ``u``, each applied to an identity over the union of their
    slots; P_k = w_k w_k^dagger for each basis vector w_k of a measurement.

    One projector at a time, each from its own identity, which is dropped
    once P_k is built: the check holds at most four side^2 arrays (U, P_k and
    the two products), not the n-projector stack it is budgeted on."""
    union = sorted(set(s.slots(s.events[chain[0]].targets)).union(s.slots(u.targets)))
    axis = {slot: a for a, slot in enumerate(union)}
    dims = [s.dims[sl] for sl in union]
    side = math.prod(dims)
    check_budget(max([len(s.events[q].labels) for q in chain]) * side * side, len(union) + 1,
                 _Unrealizable, "commutator needs")

    def eye():
        return np.eye(side, dtype=complex).reshape(dims + [side])

    op = apply_to_slots(u.op.entries, u.op.dims, [axis[sl] for sl in s.slots(u.targets)],
                        eye()).reshape(side, side)
    residual = 0.0
    for q in chain:
        basis = s.events[q].basis
        slots = [axis[sl] for sl in s.slots(s.events[q].targets)]
        for w in basis.matrix.T:  # P_k from one product per entry, as a fire block holds it
            proj = apply_to_slots(np.einsum("i,j->ij", w, w.conj()), basis.dims, slots,
                                  eye()).reshape(side, side)
            comm = proj @ op
            comm -= op @ proj
            del proj  # the norm below takes two temporaries of its own
            # axis=(0, 1) sums |.|^2 elementwise; without it the norm takes a
            # dot product, which rounds differently
            residual = max(residual, np.linalg.norm(comm, axis=(0, 1)))
    return float(residual)


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
    """A literal the grammar rejects; ``index`` is its place in the list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _literals(tokens: list[str]) -> list[complex]:
    """The values of whitespace-free literals, in order.

    A list of plain literals is checked by one match of the joined list, and
    each token is converted by complex(), which rounds each part as the
    grammar's float() does, so every value is bit-identical, -0 included.
    A list that is not plain, or that overflows, goes through the grammar
    token by token; the first bad token raises _BadLiteral.
    """
    run = " ".join(tokens)
    if _PLAIN_RUN_RE.fullmatch(run):
        values = list(map(complex, run.replace("i", "j").split(" ")))
        # a token with a space in it splits in two and takes the grammar
        if len(values) == len(tokens) and all(map(cmath.isfinite, values)):
            return values
    values = []
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
    error reported is the first in source order.  A leading byte order mark
    (the bytes ``EF BB BF``, or U+FEFF at the start of a str) is skipped.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"input is not valid UTF-8 ({exc.reason})", 1, 1) from None
    if text[:1] == "\ufeff":
        text = text[1:]

    subsystems: list[SubsystemSpec] = []
    dim_of: dict[str, int] = {}
    items: list[_Item] = []
    flat: list[str] = []  # every amplitude token, in source order
    state_line = 0
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
        return Scenario(tuple(subsystems), initial, tuple(events))
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
        vals = np.array(_literals(flat), dtype=complex)
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
                events.append(_prechecked(MeasurementEvent, time_index=time, agent=agent,
                                          targets=targets, basis=basis, record=record))
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

def format_complex(z: complex) -> str:
    """Text that parses back to ``z`` bit for bit; a part is left out only
    if it is +0.0, so a -0.0 keeps its sign."""
    z = complex(z)
    if z.imag == 0.0 and math.copysign(1.0, z.imag) > 0:
        return repr(z.real)
    if z.real == 0.0 and math.copysign(1.0, z.real) > 0:
        return repr(z.imag) + "i"
    sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def serialize_scenario(s: Scenario) -> str:
    """Emit canonical ``.scn`` source; parsing it back reproduces ``s``.  A
    name or label that is not a ``.scn`` identifier has no such text, so the
    first one, in text order, raises ValueError and nothing is returned."""
    lines = []
    for sub in s.subsystems:
        _require_identifiers("subsystem name", sub.name)
        _require_identifiers("basis label", *sub.basis_labels)
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
            _require_identifiers("agent name", e.agent)
            _require_identifiers("outcome label", *e.labels)
            groups = " ".join(
                f"{label}: " + " ".join(format_complex(a) for a in vec)
                for label, vec in zip(e.basis.labels, e.basis.matrix.T)
            )
            lines.append(
                f"measure {e.time_index} {e.agent} {targets} {e.record.value.lower()} {groups}"
            )
    return "\n".join(lines) + "\n"


def _require_identifiers(what: str, *names: str) -> None:
    """Raise ValueError for the first of ``names`` no ``.scn`` text can hold."""
    for name in names:
        if not _IDENT_RE.match(name):
            raise ValueError(f"cannot serialize: {what} {name!r} is not a .scn identifier")


def scenario_equal(a: Scenario, b: Scenario) -> bool:
    """Structural equality with amplitude tolerance ``ATOL_STRUCT``."""
    if [(s.name, s.dim, s.basis_labels) for s in a.subsystems] != \
       [(s.name, s.dim, s.basis_labels) for s in b.subsystems]:
        return False
    if not a.initial.allclose(b.initial):
        return False
    if len(a.events) != len(b.events):
        return False
    for ea, eb in zip(a.events, b.events):
        if type(ea) is not type(eb):
            return False
        if (ea.time_index, ea.targets) != (eb.time_index, eb.targets):
            return False
        if isinstance(ea, UnitaryEvent):
            if not np.allclose(ea.op.entries, eb.op.entries, rtol=0.0, atol=ATOL_STRUCT):
                return False
        else:
            if (ea.agent, ea.record, ea.basis.labels, ea.basis.dims) != \
               (eb.agent, eb.record, eb.basis.labels, eb.basis.dims):
                return False
            if not np.allclose(ea.basis.matrix, eb.basis.matrix, rtol=0.0, atol=ATOL_STRUCT):
                return False
    return True


# ---------------------------------------------------------------------------
# canonical JSON interchange
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(pair) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise TypeError(f"a complex number must be a list of two numbers, got {pair!r}")
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
        subsystems = []
        for k, d in enumerate(subs):
            where = f"subsystems[{k}]"
            subsystems.append(SubsystemSpec(d["name"], d["dim"], d["basis_labels"]))
        where = "initial"
        initial = StateVector(init["dims"], [_j2c(p) for p in init["amps"]])
        events: list[Event] = []
        for k, d in enumerate(evs):
            where = f"events[{k}]"
            if d["kind"] == "unitary":
                op = Operator(d["op"]["dims"],
                              [[_j2c(z) for z in row] for row in d["op"]["entries"]])
                events.append(UnitaryEvent(d["time_index"], d["targets"], op))
            elif d["kind"] == "measurement":
                vectors = [[_j2c(p) for p in vec] for vec in d["basis"]["vectors"]]
                basis = Basis(d["basis"]["dims"], d["basis"]["labels"],
                              np.array(vectors, dtype=complex).T)
                events.append(MeasurementEvent(d["time_index"], d["agent"], d["targets"], basis,
                                               Record(d["record"])))
            else:
                raise ValueError(f"kind must be 'unitary' or 'measurement', got {d['kind']!r}")
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise ScenarioParseError(f"{where}: {exc!r}") from None
    try:
        return Scenario(tuple(subsystems), initial, tuple(events))
    except ScenarioValidationError as exc:
        raise ScenarioParseError(str(exc)) from None
