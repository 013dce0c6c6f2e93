"""Independent verification engine built on explicit pointer ancillas.

Every measurement event is replaced by a unitary coupling between its
targets and a fresh pointer ancilla (dimension = outcome count + 1, state 0
meaning "not yet triggered"): |D(0)> x |v_k>  ->  |D(k)> x |v_k> for each
basis vector v_k.  Probabilities are never assigned during the run; at the
end they are expectation values of pointer projectors on the evolved state.

Record erasure is realized the way an observer who measures a whole
laboratory does: when a later measurement's targets cover an erased record
still in place, its coupling is taken in the composite basis that
entangles the erased ancilla with the erased event's own basis vectors,
that is, conjugated by the erased event's lift L = F C: the chain of its
``CouplingPlan``, its coupling C followed by the lifts F it consumed.  L
stays active until a later erased measurement consumes it into its own
lift.  ``evolve`` stores the state with every active lift factored out,
so conjugating by L costs nothing: an erased measurement E that consumes
L leaves the stored state as it is, (L C_E)^dagger (L C_E L^dagger) L = 1;
a retained measurement applies only its own coupling; a unitary acts
directly on the stored state.  Active lifts that no unitary reversed sit
on disjoint slots and commute.  ``evolve`` applies each chain still
active once, after the last event, for ``psi``, ``joint_probability`` and
``inspect_record``.  ``distribution`` never does: a lift acts on erased
pointers and subsystems only, so it commutes with the retained pointer
projectors it reads.

A unitary acts directly only where the erasure stays realizable, which
the scenario decides once, for both engines (``Scenario.erasures``):
``dilate`` refuses what it cannot realize and takes each plan's consumed
lifts from it.  A unitary that moved a record inside its eraser's
targets reversed its lift to V L V^dagger; ``evolve`` and
``erasure_basis`` refuse past it.

Each pointer axis of the stored state holds one of two ranges of levels,
kept next to the tensor: {0} (untriggered, length 1) or {1..n} (fired,
length n).  A coupling fires a {0} axis by writing the n projections
P_k psi onto levels 1..n (``fire_block``, the block of C from pointer 0 to
pointers 1..n), so a chain of N qubit measurements keeps 2 * 2^N of its
2 * 3^N dilated amplitudes.  After ``evolve`` every pointer is fired.  A
run is budgeted on what it stores, on one axis per subsystem and per
measurement: ``evolve`` stores the base dims times every outcome count,
``distribution`` the base dims times the retained ones (the path engine's
count, checked before ``dilate`` runs).  ``dilate`` budgets the couplings'
fire blocks and builds them all, in one stacked product per (side, n)
shape.  The walk checks the norm after every event it applies.
``DilatedState.psi`` spans the full dilated dims; it is built on first
access, and budgeted then.

The 1e-9 gate between this engine and ``paths`` compares two kernels and
two readouts: fire blocks and a pointer marginal against the path
engine's branch batch.  It does not compare two erasure semantics; both
engines apply nothing for an erased measurement.  That semantics is
checked by the test-time eager definition, which conjugates every eraser
in the composite basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .hilbert import ATOL_STRUCT, MAX_AMPLITUDES, StateVector, apply_to_slots, check_budget
from .paths import OutcomeDistribution, outcome_distribution
from .scenario import Record, RecordErasedError, Scenario, UnitaryEvent


class OracleError(ValueError):
    """Dilation cannot realize the scenario, or the run left its hypotheses."""


_UNTRIGGERED = range(1)  # the levels of a pointer no coupling has fired


@dataclass(frozen=True, eq=False)  # compared by identity: ``columns`` is an ndarray
class CouplingPlan:
    event_index: int
    slots: tuple[int, ...]  # (ancilla slot, *target slots)
    columns: np.ndarray = field(repr=False)  # basis vectors w_k, in label order
    lifts: tuple[CouplingPlan, ...]  # the erased records' plans this measurement consumed
    # rows (k, targets), columns targets: the projectors P_k stacked, the block
    # of the coupling C from pointer 0 to pointers 1..n; built by ``dilate``
    fire_block: np.ndarray = field(repr=False)

    @property  # not cached: a plan holding a tuple of itself would be a reference cycle
    def chain(self) -> tuple[CouplingPlan, ...]:
        """This coupling followed by the consumed ones; an erased event's lift."""
        return (self,) + self.consumed

    @property
    def consumed(self) -> tuple[CouplingPlan, ...]:
        """The consumed lifts' couplings, in application order: each lift's chain in turn."""
        return tuple(q for p in self.lifts for q in p.chain)

    @property
    def consumed_anc_slots(self) -> tuple[int, ...]:
        """The consumed couplings' pointer slots: each lift's consumed ones, then its own."""
        return tuple(sl for p in self.lifts for sl in p.consumed_anc_slots + p.slots[:1])

    @property
    def consumed_ops(self) -> tuple[tuple[int, ...], ...]:
        """The slots of the consumed couplings, in application order."""
        return tuple(p.slots for p in self.consumed)


@dataclass(frozen=True)
class DilatedScenario:
    base: Scenario
    dims: tuple[int, ...]  # base dims followed by ancilla dims, event order
    ancillas: dict[int, int]  # measurement event index -> its pointer slot
    couplings: tuple[CouplingPlan, ...]

    def _refuse_reversed(self, erased_events) -> None:
        """Refuse the first record whose lift L the unitaries V reversed to V L V^dagger."""
        reversed_at = self.base.erasures(OracleError)[1]
        for j in erased_events:
            if j in reversed_at:
                raise OracleError(f"the unitary at time {reversed_at[j]} reversed the "
                                  f"lift of {self.base.events[j].agent!r}'s erased record")

    def erasure_basis(self, erased_event: int) -> np.ndarray:
        """Columns of the composite basis |E_k> = L(|0...0> x w_k) that erased a record.

        L is the chain the eraser consumed and w_k its basis vectors, over
        the consumed ancilla slots followed by the eraser's target slots.
        Built on call: the run never reads it, only inspection does.  The
        composite dims are budgeted first; a reversed lift in L is refused.
        """
        i = self.base.erasers()[erased_event]
        plan = next(p for p in self.couplings if p.event_index == i)
        self._refuse_reversed([q.event_index for q in plan.consumed])
        composite = plan.consumed_anc_slots + plan.slots[1:]
        axis = {slot: a for a, slot in enumerate(composite)}  # the last axis is k
        dims = tuple(self.dims[sl] for sl in composite) + plan.columns.shape[1:]
        check_budget(math.prod(dims), len(dims), OracleError, "dilated state needs")
        n_anc = len(plan.consumed_anc_slots)
        ranges = [_UNTRIGGERED] * n_anc + [range(n) for n in dims[n_anc:]]
        cols = plan.columns.reshape((1,) * n_anc + dims[n_anc:])
        for q in plan.consumed:
            cols = _couple(replace(q, slots=tuple(axis[sl] for sl in q.slots)), cols, ranges, dims)
        return _embed(cols, ranges, dims).reshape(-1, dims[-1])


@dataclass(frozen=True, eq=False)
class DilatedState:
    stored: np.ndarray = field(repr=False)  # amplitudes over ``ranges``
    ranges: tuple[range, ...]  # the levels stored on each axis
    time_index: int
    dilated: DilatedScenario

    @cached_property
    def psi(self) -> StateVector:
        """The state over the full dilated dims; levels not stored are zero.

        The full dims are budgeted first."""
        dims = self.dilated.dims
        check_budget(math.prod(dims), len(dims), OracleError, "dilated state needs")
        return StateVector(dims, _embed(self.stored, self.ranges, dims).reshape(-1))


def _check_stored(s: Scenario, fired) -> None:
    """Budget a walk of ``s`` that fires the pointers of the measurements ``fired``."""
    check_budget(math.prod(s.dims) * math.prod([len(e.labels) for _, e in fired]),
                 len(s.dims) + len(s.measurements()), OracleError,
                 "stored state needs", "dilated state needs")


def _embed(stored, ranges, dims):
    """``stored``, which holds levels ``ranges``, zero-padded to ``dims``."""
    full = np.zeros(dims, dtype=complex)
    full[tuple(slice(r.start, r.stop) for r in ranges)] = stored
    return full


def fire_blocks(columns) -> np.ndarray:
    """The fire blocks of bases whose columns ``columns`` share one shape
    (side, n), stacked, from one einsum: rows (k, i), column j hold
    w_k[i] conj(w_k[j]), the projectors P_k stacked, one product per entry."""
    cols = np.array([c.T for c in columns])  # (measurement, k, target)
    g, n, side = cols.shape
    return np.einsum("gki,gkj->gkij", cols, cols.conj()).reshape(g, n * side, side)


def dilate(s: Scenario) -> DilatedScenario:
    """Attach one pointer ancilla per measurement and plan all couplings;
    refuse, after the fire blocks' budget, what no eraser realizes."""
    measurements, base = s.measurements(), s.dims
    ancillas = {i: len(base) + k for k, (i, _) in enumerate(measurements)}
    outcomes = [len(e.labels) for _, e in measurements]
    dims = base + tuple([n + 1 for n in outcomes])
    # each coupling is built as its fire block: outcomes x target dimension^2
    n_entries = sum([n * e.basis.matrix.size for n, (_, e) in zip(outcomes, measurements)])
    if n_entries > MAX_AMPLITUDES:
        raise OracleError(
            f"couplings need {n_entries} matrix entries, over the budget of {MAX_AMPLITUDES}"
        )
    lifts = s.erasures(OracleError)[0]
    # every fire block, one stacked product per (side, n) shape
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, e in measurements:
        shapes.setdefault(e.basis.matrix.shape, []).append(i)
    blocks = {}
    for events in shapes.values():
        blocks.update(zip(events, fire_blocks([s.events[i].basis.matrix for i in events])))

    plans: dict[int, CouplingPlan] = {}
    for i, e in measurements:
        plans[i] = CouplingPlan(i, (ancillas[i],) + s.slots(e.targets), e.basis.matrix,
                                tuple([plans[p] for p in lifts[i]]), blocks[i])
    return DilatedScenario(s, dims, ancillas, tuple(plans.values()))


def evolve(d: DilatedScenario, upto_time: int | None = None) -> DilatedState:
    """Apply free unitaries and couplings in time order; norm is conserved.

    The walk stores the physical state with every active lift factored out;
    the chains still active after the last event are applied once, so that
    ``psi``, ``joint_probability`` and ``inspect_record`` read the physical
    state.  A run past a unitary that reversed a lift is refused before it
    starts.  Every pointer starts at {0} and a coupling fires it to {1..n}
    (see ``_couple``); the returned state keeps those ranges, and its
    ``psi`` spans the full dims.

    ``upto_time`` stops after the last event with time_index <= upto_time,
    which exposes intermediate states for inspection.  A full run is budgeted.
    """
    d._refuse_reversed([j for j, t in d.base.erasures(OracleError)[1].items()
                        if upto_time is None or t <= upto_time])
    _check_stored(d.base, d.base.measurements())
    state, ranges, time, active = _walk(d, upto_time)
    for p in active:
        for q in p.chain:
            state = _couple(q, state, ranges, d.dims)
    _check_norm(state, time)
    return DilatedState(state, tuple(ranges), time, d)


def _walk(d: DilatedScenario, upto_time: int | None):
    """The event loop of ``evolve`` and ``distribution``: the stored state,
    its ranges, the time of the last event walked, and the lifts still
    factored out of the state."""
    s = d.base
    base, n_anc = s.dims, len(d.dims) - len(s.subsystems)
    state = s.initial.as_tensor().reshape(base + (1,) * n_anc)
    ranges = [range(n) for n in base] + [_UNTRIGGERED] * n_anc
    plan_by_event = {p.event_index: p for p in d.couplings}
    active: list[CouplingPlan] = []  # the lifts factored out of ``state``

    time = -1
    for i, e in enumerate(s.events):
        if upto_time is not None and e.time_index > upto_time:
            break
        time = e.time_index
        if isinstance(e, UnitaryEvent):
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
        elif e.record is Record.ERASED:
            plan = plan_by_event[i]
            active = [p for p in active if p not in plan.lifts]
            active.append(plan)
            continue  # nothing applied: the state is the one checked last
        else:
            state = _couple(plan_by_event[i], state, ranges, d.dims)
        _check_norm(state, time)
    return state, ranges, time, active


def _couple(plan, state, ranges, dims):
    """Fire ``plan``'s untriggered pointer and update ``ranges`` in place:
    ``fire_block`` writes P_k psi onto levels 1..n."""
    a = plan.slots[0]
    ranges[a] = range(1, dims[a])
    return _apply(plan.fire_block, plan.slots, [len(r) for r in ranges], state)


def _apply(matrix, slots, dims, state):
    """``matrix`` on the axes ``slots``, giving them lengths ``dims[slot]``.

    ``slots`` are a pointer and its targets.  The matrix's column count
    gives the pointer's length before: a ``fire_block`` maps an untriggered
    pointer (length 1) to its fired levels.
    """
    out = tuple(dims[x] for x in slots)
    in_dims = (matrix.shape[1] // math.prod(out[1:]),) + out[1:]
    return apply_to_slots(matrix, out, slots, state, in_dims)


def _check_norm(state, time_index):
    """Refuse a norm drift over 1e-12; ``ravel(order="K")`` views the walked
    state, dense in a permuted axis order, so the norm is one dot."""
    flat = state.ravel(order="K")
    drift = abs(math.sqrt(np.vdot(flat, flat).real) - 1.0)
    if not drift <= ATOL_STRUCT:  # a NaN drifts too
        raise OracleError(f"norm drifted by {drift:.3g} at time {time_index}")


def _pointer(d: DilatedScenario, i: int, label: str | None) -> tuple[int, int]:
    """(slot, index) of measurement ``i``'s pointer at outcome ``label``; None is pointer 0."""
    if label is None:
        return d.ancillas[i], 0
    e = d.base.events[i]
    if label not in e.labels:
        raise ValueError(f"unknown outcome label {label!r} for agent {e.agent!r}")
    return d.ancillas[i], e.labels.index(label) + 1


def _selection_slices(st: DilatedState, selection: dict[str, str]):
    d = st.dilated
    pairs = []
    for agent, label in selection.items():
        i, e = d.base.agent_event(agent)  # raises on unknown agent
        if e.record is Record.ERASED:
            raise RecordErasedError(agent)
        pairs.append(_pointer(d, i, label))
    return pairs


def _pointer_probability(st: DilatedState, pairs) -> float:
    sl = [slice(None)] * len(st.dilated.dims)
    for slot, idx in pairs:
        sl[slot] = idx
    sub = st.psi.as_tensor()[tuple(sl)]
    return float(np.linalg.norm(sub)) ** 2


def joint_probability(st: DilatedState, selection: dict[str, str]) -> float:
    """Expectation of the product of pointer projectors for retained events.

    Partial selections marginalize implicitly over the unselected retained
    pointers.  Naming an erased agent raises RecordErasedError.
    """
    return _pointer_probability(st, _selection_slices(st, selection))


def inspect_record(st: DilatedState, agent: str, pointer_label: str | None,
                   final_selection: dict[str, str] | None = None) -> float:
    """Joint probability of finding an erased ancilla at a given pointer.

    The reading exists (the ancilla is still there to look at) but does not
    certify the pre-erasure branch: the which-branch information was lost to
    interference when the eraser measured the composite.
    """
    d = st.dilated
    i, e = d.base.agent_event(agent)
    if e.record is not Record.ERASED:
        raise ValueError(
            f"record of agent {agent!r} is retained; use joint_probability"
        )
    eraser_time = d.base.events[d.base.erasers()[i]].time_index
    if st.time_index < eraser_time:
        raise OracleError(
            f"state at time {st.time_index} has not evolved past the erasing "
            f"measurement at time {eraser_time}"
        )
    pairs = [_pointer(d, i, pointer_label)] + _selection_slices(st, final_selection or {})
    return _pointer_probability(st, pairs)


def distribution(s: Scenario) -> OutcomeDistribution:
    """Full retained-outcome distribution from pointer projectors.

    Read from the walked state; the lifts still active are never applied.
    They hold only erased measurements' couplings, and the unitaries of a
    reversed lift, on erased pointers and subsystems, so they commute with
    every retained pointer projector.
    One reduction: every retained pointer is fired, so its stored levels
    are 1..n, and every erased one is an untriggered axis of length 1; sum
    |psi|^2 over the subsystem axes, which leaves the retained pointers, in
    time order, and the tuples in row-major order.
    """
    _check_stored(s, s.retained())
    state = _walk(dilate(s), None)[0]
    density = state.real**2 + state.imag**2
    del state  # the stored state, and the density below, are released before the table is built
    weights = density.sum(axis=tuple(range(len(s.dims))))
    del density
    return outcome_distribution(weights.reshape(-1), s, OracleError)
