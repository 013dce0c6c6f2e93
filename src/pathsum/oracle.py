"""Independent verification engine built on explicit pointer ancillas.

Every measurement event is replaced by a unitary coupling between its
targets and a fresh pointer ancilla (dimension = outcome count + 1, state 0
meaning "not yet triggered"): |D(0)> x |v_k>  ->  |D(k)> x |v_k> for each
basis vector v_k.  Probabilities are never assigned during the run; at the
end they are expectation values of pointer projectors on the evolved state.

Record erasure is realized the way an observer who measures a whole
laboratory does: when a later measurement's targets cover an erased record
still in place, its coupling is taken in the composite basis that
entangles the erased ancilla with the erased event's own basis vectors.
Operationally the coupling is conjugated by the erased event's coupling
chain L, which maps the plain basis onto exactly that composite basis.
This is realizable only if the record is not disturbed between its
creation and its erasure.

The erased measurement's own ``CouplingPlan`` is the only record of its
lift L = F C: the plan's ``chain``, its coupling C followed by the lifts F
it consumed.  L stays active on the record's targets until a later erased
measurement consumes it into its own lift.  ``evolve`` stores the state
with every active lift factored out, so conjugating by L costs nothing:
an erased measurement E that consumes L leaves the stored state as it is,
(L C_E)^dagger (L C_E L^dagger) L = 1; a retained measurement applies
only its own coupling; a unitary U acts directly once the record is
erased, and as C^dagger U C before the eraser.  Active lifts sit on
disjoint slots and commute.  ``evolve`` applies each chain still active
once, after the last event, for ``psi``, ``joint_probability`` and
``inspect_record``.  ``distribution`` never does: a lift acts on erased
pointers and their targets only, so it commutes with the retained pointer
projectors it reads.

Each pointer axis of the stored state holds one of two ranges of levels,
kept next to the tensor: {0} (untriggered, length 1) or {1..n} (fired,
length n).  A coupling fires a {0} axis by writing the n projections
P_k psi onto levels 1..n (``fire_block``, the block of C from pointer 0 to
pointers 1..n), so a chain of N qubit measurements keeps 2 * 2^N of its
2 * 3^N dilated amplitudes.  C is completed involutively, so a sandwich's
C^dagger un-fires the pointer through ``fire_block``^dagger, back to {0},
and leaves (1 - P_k) psi_k on level k: the population U moved out of the
record's branch.  Above 1e-12 that is a disturbed record, refused at the
unitary.  After ``evolve`` every pointer is fired.  ``dilate`` budgets
that stored size, the base dims times every measurement's outcome count.
``DilatedState.psi`` spans the full dilated dims; it is built on first
access, and its own budget check is made then.

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

from .hilbert import ATOL_STRUCT, MAX_AMPLITUDES, MAX_AXES, StateVector, apply_to_slots
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

    @cached_property
    def fire_block(self) -> np.ndarray:
        """Rows (k, targets), columns targets: the projectors P_k stacked.

        The block of the coupling C from pointer 0 to pointers 1..n, all C
        does to an untriggered pointer.  C is completed involutively
        (|k> x w_k swaps back to |0> x w_k, every other sector is left
        alone), so its block from pointers 1..n to pointer 0 is the
        conjugate transpose.
        """
        side, n = self.columns.shape
        return np.einsum("ik,jk->kij", self.columns, self.columns.conj()).reshape(n * side, side)

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
    erasure_map: dict[int, int]  # erased event index -> eraser event index
    frames: dict[int, tuple[CouplingPlan, ...]]  # unitary event index -> active lifts there

    def erasure_basis(self, erased_event: int) -> np.ndarray:
        """Columns of the composite basis |E_k> = L(|0...0> x w_k) that erased a record.

        L is the chain the eraser consumed and w_k its basis vectors, over
        the consumed ancilla slots followed by the eraser's target slots.
        Built on call: the run never reads it, only inspection does.  The
        composite dims are checked against the amplitude budget first.
        """
        i = self.erasure_map[erased_event]
        plan = next(p for p in self.couplings if p.event_index == i)
        composite = plan.consumed_anc_slots + plan.slots[1:]
        axis = {slot: a for a, slot in enumerate(composite)}  # the last axis is k
        dims = tuple(self.dims[sl] for sl in composite) + plan.columns.shape[1:]
        _check_dims(dims)
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

        The full dims are checked against the amplitude budget first."""
        dims = self.dilated.dims
        _check_dims(dims)
        return StateVector(dims, _embed(self.stored, self.ranges, dims).reshape(-1))


def _check_dims(dims):
    n_amps = math.prod(dims)
    if n_amps > MAX_AMPLITUDES:
        raise OracleError(
            f"dilated state needs {n_amps} amplitudes, over the budget of {MAX_AMPLITUDES}"
        )


def _embed(stored, ranges, dims):
    """``stored``, which holds levels ``ranges``, zero-padded to ``dims``."""
    full = np.zeros(dims, dtype=complex)
    full[tuple(slice(r.start, r.stop) for r in ranges)] = stored
    return full


def dilate(s: Scenario) -> DilatedScenario:
    """Attach one pointer ancilla per measurement and plan all couplings."""
    measurements, base = s.measurements(), s.dims
    ancillas = {i: len(base) + k for k, (i, _) in enumerate(measurements)}
    outcomes = [len(e.labels) for _, e in measurements]
    dims = base + tuple([n + 1 for n in outcomes])
    # the most a run stores: every pointer fired, at its n levels 1..n
    n_amps = math.prod(base) * math.prod(outcomes)
    if n_amps > MAX_AMPLITUDES:
        raise OracleError(
            f"stored state needs {n_amps} amplitudes, over the budget of {MAX_AMPLITUDES}"
        )
    # each coupling is built as its fire block: outcomes x target dimension^2
    n_entries = sum([n * e.basis.matrix.size for n, (_, e) in zip(outcomes, measurements)])
    if n_entries > MAX_AMPLITUDES:
        raise OracleError(
            f"couplings need {n_entries} matrix entries, over the budget of {MAX_AMPLITUDES}"
        )
    if len(dims) > MAX_AXES:
        raise OracleError(
            f"dilated state needs {len(dims)} axes, over numpy's limit of {MAX_AXES}"
        )

    couplings = []
    erasure_map: dict[int, int] = {}
    frames: dict[int, tuple[CouplingPlan, ...]] = {}
    # erased record's target slots -> its plan; the keys are pairwise disjoint
    active: dict[frozenset[int], CouplingPlan] = {}
    for i, e in enumerate(s.events):
        tslots = s.slots(e.targets)
        hit = [key for key in active if key.intersection(tslots)]
        if isinstance(e, UnitaryEvent):
            if hit:
                frames[i] = tuple([active[key] for key in hit])
            continue
        for key in hit:
            if not key.issubset(tslots):
                raise OracleError(
                    f"measurement by {e.agent!r} overlaps an erased record on "
                    f"subsystem slots {sorted(key)} without covering it; "
                    f"no composite-basis erasure exists"
                )
        plan = CouplingPlan(i, (ancillas[i],) + tslots, e.basis.matrix,
                            tuple([active[key] for key in hit]))
        couplings.append(plan)
        for p in plan.lifts:
            # the first consumer is the eraser; later measurements through
            # the same lift do not destroy anything new
            erasure_map.setdefault(p.event_index, i)
        if e.record is Record.ERASED:
            for key in hit:
                del active[key]
            active[frozenset(tslots)] = plan

    return DilatedScenario(s, dims, ancillas, tuple(couplings), erasure_map, frames)


def evolve(d: DilatedScenario, upto_time: int | None = None) -> DilatedState:
    """Apply free unitaries and couplings in time order; norm is conserved.

    The stored state is the physical one with the lift of every active
    erased record factored out: physical = (product of their chains) stored.
    An erased measurement therefore applies nothing (its lift replaces the
    lifts it consumes), a retained one applies its own coupling C, and a
    unitary acts directly, sandwiched as C^dagger U C by the coupling of each
    record on its targets whose eraser is still to come.  The chains still
    active after the last event are applied once, so that ``psi``,
    ``joint_probability`` and ``inspect_record`` read the physical state.

    Every pointer starts at {0}.  A coupling fires it to {1..n} (see
    ``_couple``), and a sandwich's C^dagger takes it back to {0} (see
    ``_unfire``), so after a full run every pointer is fired.  The returned
    state keeps those ranges; its ``psi`` spans the full dims.

    ``upto_time`` stops after the last event with time_index <= upto_time,
    which exposes intermediate states for inspection.
    """
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
            recording = [p for p in d.frames.get(i, ()) if d.erasure_map[p.event_index] > i]
            for p in recording:
                state = _couple(p, state, ranges, d.dims)
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
            for p in recording:
                state = _unfire(p, state, ranges, s.events[d.erasure_map[p.event_index]].agent)
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


def _unfire(plan, state, ranges, agent):
    """Apply C^dagger to ``plan``'s fired pointer, taking it back to {0}.

    The block of C^dagger from levels 1..n to level 0 is ``fire_block``
    conjugate-transposed; what C^dagger leaves on level k is (1 - P_k) psi_k,
    the record's population outside the composite-basis block, which the
    eraser ``agent`` cannot realize.
    """
    before = float(np.linalg.norm(state)) ** 2
    ranges[plan.slots[0]] = _UNTRIGGERED
    state = _apply(plan.fire_block.conj().T, plan.slots, [len(r) for r in ranges], state)
    leak = before - float(np.linalg.norm(state)) ** 2
    if leak > ATOL_STRUCT:
        raise OracleError(
            f"erased record was disturbed before {agent!r}'s measurement "
            f"(population {leak:.3g} outside the composite-basis block); "
            f"this erasure is not realizable"
        )
    return state


def _apply(matrix, slots, dims, state):
    """``matrix`` on the axes ``slots``, giving them lengths ``dims[slot]``.

    ``slots`` are a pointer and its targets.  The matrix's column count
    gives the pointer's length before: a ``fire_block`` maps an untriggered
    pointer (length 1) to its fired levels, its conjugate transpose maps
    them back.
    """
    out = tuple(dims[x] for x in slots)
    in_dims = (matrix.shape[1] // math.prod(out[1:]),) + out[1:]
    return apply_to_slots(matrix, out, slots, state, in_dims)


def _check_norm(state, time_index):
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if drift > ATOL_STRUCT:
        raise OracleError(f"norm drifted by {drift:.3g} at time {time_index}")


def _pointer(d: DilatedScenario, i: int, label: str | None) -> tuple[int, int]:
    """(slot, index) of measurement ``i``'s pointer at ``label``; None and "0" are pointer 0."""
    if label is None or label == "0":
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
    eraser_time = d.base.events[d.erasure_map[i]].time_index
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
    They hold only erased measurements' couplings, on erased pointers and
    their targets, so they commute with every retained pointer projector.
    One reduction: every retained pointer is fired, so its stored levels
    are 1..n; sum |psi|^2 over all axes but the retained pointers, whose
    slots are in time order, which leaves the tuples in row-major order.
    """
    d = dilate(s)
    state = _walk(d, None)[0]
    pointers = {d.ancillas[i] for i, _ in s.retained()}
    density = state.real**2 + state.imag**2
    del state  # the stored state, and the density below, are released before the table is built
    weights = density.sum(axis=tuple([x for x in range(density.ndim) if x not in pointers]))
    del density
    return outcome_distribution(weights.reshape(-1), s, OracleError)
