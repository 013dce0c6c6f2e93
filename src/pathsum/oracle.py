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
The conjugation also exposes the realizability condition: after undoing
the chain, the consumed ancillas must sit back at pointer 0 (population
outside <= 1e-12), i.e. the record must not have been disturbed between
its creation and its erasure.

The erased measurement's own ``CouplingPlan`` is the only record of its
lift L = F C: the plan's ``chain``, its coupling C followed by the lifts F
it consumed.  L stays active on the record's targets until a later erased
measurement consumes it into its own lift.  ``evolve`` stores the state
with every active lift factored out, so conjugating by L costs nothing:
an erased measurement E that consumes L leaves the stored state as it is,
(L C_E)^dagger (L C_E L^dagger) L = 1; a retained measurement applies
only its own coupling; a unitary U acts directly once the record is
erased, and as C^dagger U C before the eraser, so a U that disturbs the
record shows up in the check above.  Active lifts sit on disjoint slots
and commute, and each chain is applied once, at the end.

Each pointer axis of the stored state holds one of three ranges of
levels, kept next to the tensor: {0} (untriggered, length 1), {1..n}
(fired, length n) or {0..n} (full).  A coupling that fires on a {0} axis
writes the n projections P_k psi onto levels 1..n (``fire_block``, the
block of C from pointer 0 to pointers 1..n), so level 0 of a fired pointer
is never stored and a chain of N qubit measurements keeps 2 * 2^N of its
2 * 3^N dilated amplitudes.  Only a sandwich's C^dagger meets a fired
axis: it widens the axis to {0..n} and applies the dense coupling, and
the axis stays full from then on.  The readout works on the stored
ranges; ``DilatedState.psi`` spans the full dilated dims and is built on
first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hilbert import ATOL_STRUCT, MAX_AMPLITUDES, StateVector, apply_to_slots
from .paths import OutcomeDistribution, outcome_distribution, retained_keys
from .scenario import Record, RecordErasedError, Scenario, UnitaryEvent


class OracleError(ValueError):
    """Dilation cannot realize the scenario, or the run left its hypotheses."""


# one lift op: (full-space slots, unitary matrix on those slots)
LiftOp = tuple[tuple[int, ...], np.ndarray]

_UNTRIGGERED = range(1)  # the levels of a pointer no coupling has fired


@dataclass(frozen=True, eq=False)  # compared by identity: ``columns`` is an ndarray
class CouplingPlan:
    event_index: int
    slots: tuple[int, ...]  # (ancilla slot, *target slots)
    columns: np.ndarray = field(repr=False)  # basis vectors w_k, in label order
    consumed: tuple[CouplingPlan, ...]  # the consumed lifts' couplings, in application order
    consumed_anc_slots: tuple[int, ...]

    @cached_property
    def fire_block(self) -> np.ndarray:
        """Rows (k, targets), columns targets: the projectors P_k stacked.

        The block of ``matrix`` from pointer 0 to pointers 1..n, all a
        coupling does to an untriggered pointer.
        """
        side, n = self.columns.shape
        return np.einsum("ik,jk->kij", self.columns, self.columns.conj()).reshape(n * side, side)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense coupling on ancilla x targets; built and checked on first use."""
        return _coupling_matrix(self.fire_block)

    @property  # not cached: a plan holding a tuple of itself would be a reference cycle
    def chain(self) -> tuple[CouplingPlan, ...]:
        """This coupling followed by the consumed ones; an erased event's lift."""
        return (self,) + self.consumed

    @property
    def consumed_ops(self) -> tuple[LiftOp, ...]:
        return tuple((p.slots, p.matrix) for p in self.consumed)


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
        Built on call: the run never reads it, only inspection does.
        """
        i = self.erasure_map[erased_event]
        plan = next(p for p in self.couplings if p.event_index == i)
        vectors = self.base.events[i].basis.vectors
        composite = plan.consumed_anc_slots + plan.slots[1:]
        n_anc, n_k = len(plan.consumed_anc_slots), len(vectors)
        axis = {slot: a + 1 for a, slot in enumerate(composite)}  # axis 0 is k
        cols = np.zeros((n_k,) + tuple(self.dims[sl] for sl in composite), dtype=complex)
        cols[(slice(None),) + (0,) * n_anc] = np.stack([v.amps for v in vectors]).reshape(
            cols.shape[:1] + cols.shape[1 + n_anc:])
        for slots, m in plan.consumed_ops:
            cols = apply_to_slots(m, tuple(self.dims[sl] for sl in slots),
                                  tuple(axis[sl] for sl in slots), cols)
        return cols.reshape(n_k, -1).T


@dataclass(frozen=True, eq=False)
class DilatedState:
    stored: np.ndarray = field(repr=False)  # amplitudes over ``ranges``
    ranges: tuple[range, ...]  # the levels stored on each axis
    time_index: int
    dilated: DilatedScenario

    @cached_property
    def psi(self) -> StateVector:
        """The state over the full dilated dims; levels not stored are zero."""
        full = np.zeros(self.dilated.dims, dtype=complex)
        full[tuple(slice(r.start, r.stop) for r in self.ranges)] = self.stored
        return StateVector(self.dilated.dims, full.reshape(-1))


def _coupling_matrix(fire_block: np.ndarray) -> np.ndarray:
    """Unitary on ancilla x targets sending |0> x w_k to |k+1> x w_k.

    Completed involutively: |k+1> x w_k swaps back to |0> x w_k and every
    other sector is left alone.  Any unitary completion works because those
    sectors are never populated; this one is deterministic and exact.
    """
    side = fire_block.shape[1]
    n_labels = fire_block.shape[0] // side
    anc_dim = n_labels + 1
    # blocks m[i, :, j, :] on (ancilla pointer i <- j) x targets
    m = np.zeros((anc_dim, side, anc_dim, side), dtype=complex)
    proj = fire_block.reshape(n_labels, side, side)
    fired = np.arange(1, anc_dim)
    m[fired, :, 0, :] = proj
    m[0, :, fired, :] = proj
    m[fired, :, fired, :] = np.eye(side) - proj
    m = m.reshape(anc_dim * side, anc_dim * side)
    defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if defect > ATOL_STRUCT:
        raise OracleError(f"coupling completion is not unitary (defect {defect:.3g})")
    return m


def dilate(s: Scenario) -> DilatedScenario:
    """Attach one pointer ancilla per measurement and plan all couplings."""
    measurements = s.measurements()
    ancillas = {i: len(s.dims) + k for k, (i, _) in enumerate(measurements)}
    dims = s.dims + tuple(len(e.labels) + 1 for _, e in measurements)
    n_amps = math.prod(dims)
    if n_amps > MAX_AMPLITUDES:
        raise OracleError(
            f"dilated state needs {n_amps} amplitudes, over the budget of {MAX_AMPLITUDES}"
        )
    # each coupling is a dense matrix on (outcomes + 1) x its targets
    n_entries = sum(((len(e.labels) + 1) * math.prod(e.basis.dims)) ** 2 for _, e in measurements)
    if n_entries > MAX_AMPLITUDES:
        raise OracleError(
            f"couplings need {n_entries} matrix entries, over the budget of {MAX_AMPLITUDES}"
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
                frames[i] = tuple(active[key] for key in hit)
            continue
        for key in hit:
            if not key.issubset(tslots):
                raise OracleError(
                    f"measurement by {e.agent!r} overlaps an erased record on "
                    f"subsystem slots {sorted(key)} without covering it; "
                    f"no composite-basis erasure exists"
                )
        consumed = tuple(active[key] for key in hit)
        plan = CouplingPlan(
            i, (ancillas[i],) + tslots, e.basis.matrix(),
            tuple(q for p in consumed for q in p.chain),
            tuple(sl for p in consumed for sl in p.consumed_anc_slots + p.slots[:1]),
        )
        couplings.append(plan)
        for p in consumed:
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
    record on its targets whose eraser is still to come.  The active chains
    are applied once, at the end.

    Every pointer starts at {0}.  A coupling fires it to {1..n} (see
    ``_couple``), and only a sandwich's C^dagger widens a fired pointer, to
    {0..n}.  The returned state keeps those ranges; its ``psi`` spans the
    full dims.

    ``upto_time`` stops after the last event with time_index <= upto_time,
    which exposes intermediate states for inspection.
    """
    s = d.base
    n_anc = len(d.dims) - len(s.subsystems)
    state = s.initial.as_tensor().reshape(s.dims + (1,) * n_anc)
    ranges = [range(n) for n in s.dims] + [_UNTRIGGERED] * n_anc
    plan_by_event = {p.event_index: p for p in d.couplings}
    active: list[CouplingPlan] = []  # the lifts factored out of ``state``

    time = -1
    for i, e in enumerate(s.events):
        if upto_time is not None and e.time_index > upto_time:
            break
        if isinstance(e, UnitaryEvent):
            recording = [p for p in d.frames.get(i, ()) if d.erasure_map[p.event_index] > i]
            for p in recording:
                state = _couple(p, state, ranges, d.dims)
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
            for p in recording:
                state = _couple(p, state, ranges, d.dims, inverse=True)
        else:
            plan = plan_by_event[i]
            # consumed pointers are erased ones: stored at {0} or {0..n}
            _check_records_intact(state, plan.consumed_anc_slots, e.agent)
            if e.record is Record.ERASED:
                active = [p for p in active if p.slots[0] not in plan.consumed_anc_slots]
                active.append(plan)
            else:
                state = _couple(plan, state, ranges, d.dims)
        _check_norm(state, e.time_index)
        time = e.time_index
    for p in active:
        for q in p.chain:
            state = _couple(q, state, ranges, d.dims)
    _check_norm(state, time)
    return DilatedState(state, tuple(ranges), time, d)


def _couple(plan, state, ranges, dims, inverse=False):
    """Apply ``plan``'s coupling (or its inverse) and update ``ranges`` in place.

    On an untriggered pointer the coupling fires: ``fire_block`` writes
    P_k psi onto levels 1..n.  Anything else widens the pointer to {0..n}
    and applies the dense matrix.
    """
    a = plan.slots[0]
    if not inverse and ranges[a] == _UNTRIGGERED:
        ranges[a] = range(1, dims[a])
        return _apply(plan.fire_block, plan.slots, [len(r) for r in ranges], state)
    state = _relevel(state, a, ranges[a], range(dims[a]))
    ranges[a] = range(dims[a])
    return _apply(plan.matrix.conj().T if inverse else plan.matrix, plan.slots, dims, state)


def _apply(matrix, slots, dims, state):
    """``matrix`` on the axes ``slots``, giving them lengths ``dims[slot]``.

    ``slots`` are a pointer and its targets.  A dense coupling maps the
    full pointer to itself; a ``fire_block`` maps an untriggered pointer
    (length 1) to its fired levels.  The matrix's column count tells which.
    """
    out = tuple(dims[x] for x in slots)
    in_dims = (matrix.shape[1] // math.prod(out[1:]),) + out[1:]
    return apply_to_slots(matrix, out, slots, state, in_dims)


def _relevel(state, slot, old: range, new: range):
    """Store axis ``slot``, which holds levels ``old``, over levels ``new``.

    One range contains the other.  A wider ``new`` pads zeros; a narrower
    one is a view that drops levels the caller knows it does not need.
    """
    idx = [slice(None)] * state.ndim
    if old.start <= new.start and new.stop <= old.stop:
        idx[slot] = slice(new.start - old.start, new.stop - old.start)
        return state[tuple(idx)]
    out = np.zeros(state.shape[:slot] + (len(new),) + state.shape[slot + 1:], dtype=complex)
    idx[slot] = slice(old.start - new.start, old.stop - new.start)
    out[tuple(idx)] = state
    return out


def _check_norm(state, time_index):
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if drift > ATOL_STRUCT:
        raise OracleError(f"norm drifted by {drift:.3g} at time {time_index}")


def _check_records_intact(state, anc_slots, agent):
    """With the consumed lifts factored out, their ancillas must read pointer 0.

    Each of ``anc_slots`` must store its level 0 first: {0} or {0..n}.
    """
    if not anc_slots:
        return
    sl = [slice(None)] * state.ndim
    for a in anc_slots:
        sl[a] = 0
    inside = float(np.linalg.norm(state[tuple(sl)])) ** 2
    leak = float(np.linalg.norm(state)) ** 2 - inside
    if leak > ATOL_STRUCT:
        raise OracleError(
            f"erased record was disturbed before {agent!r}'s measurement "
            f"(population {leak:.3g} outside the composite-basis block); "
            f"this erasure is not realizable"
        )


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

    One reduction over the stored state: keep levels 1..n of every retained
    pointer and sum |psi|^2 over all other axes, which leaves the tuples in
    row-major order.
    """
    st = evolve(dilate(s))
    pointers = [st.dilated.ancillas[i] for i, _ in s.retained()]
    psi = st.stored
    for a in pointers:
        psi = _relevel(psi, a, st.ranges[a], range(1, st.dilated.dims[a]))
    density = psi.real**2 + psi.imag**2
    weights = np.einsum(density, list(range(psi.ndim)), pointers)
    return outcome_distribution(dict(zip(retained_keys(s), weights.reshape(-1).tolist())), s,
                                OracleError)
