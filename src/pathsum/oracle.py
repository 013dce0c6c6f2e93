"""Independent verification engine built on explicit pointer ancillas.

Every measurement event is replaced by a unitary coupling between its
targets and a fresh pointer ancilla (dimension = outcome count + 1, state 0
meaning "not yet triggered"): |D(0)> x |v_k>  ->  |D(k)> x |v_k| for each
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

An untriggered pointer is stored as a size-1 axis: it holds exactly pointer
0, so psi x |0> needs no zeros.  The axis is widened to its full dimension
when a coupling first acts on it, and whatever is still narrow is widened
once at the end, so the state ``evolve`` returns always spans the full
dilated dims.
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


@dataclass(frozen=True, eq=False)  # compared by identity: ``matrix`` is an ndarray
class CouplingPlan:
    event_index: int
    slots: tuple[int, ...]  # (ancilla slot, *target slots)
    matrix: np.ndarray = field(repr=False)
    consumed_ops: tuple[LiftOp, ...]
    consumed_anc_slots: tuple[int, ...]

    @cached_property
    def chain(self) -> tuple[LiftOp, ...]:
        """C followed by the consumed ops, in application order; an erased event's lift."""
        return ((self.slots, self.matrix),) + self.consumed_ops


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


@dataclass(frozen=True)
class DilatedState:
    psi: StateVector
    time_index: int
    dilated: DilatedScenario


def _coupling_matrix(basis_columns: np.ndarray) -> np.ndarray:
    """Unitary on ancilla x targets sending |0> x w_k to |k+1> x w_k.

    Completed involutively: |k+1> x w_k swaps back to |0> x w_k and every
    other sector is left alone.  Any unitary completion works because those
    sectors are never populated; this one is deterministic and exact.
    """
    side, n_labels = basis_columns.shape
    anc_dim = n_labels + 1
    # blocks m[i, :, j, :] on (ancilla pointer i <- j) x targets
    m = np.zeros((anc_dim, side, anc_dim, side), dtype=complex)
    proj = np.einsum("ik,jk->kij", basis_columns, basis_columns.conj())
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
            i, (ancillas[i],) + tslots, _coupling_matrix(e.basis.matrix()),
            tuple(op for p in consumed for op in p.chain),
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
    are applied once, at the end.  Ancilla axes start at size 1 and
    ``_apply`` widens them when an op first acts on them.

    ``upto_time`` stops after the last event with time_index <= upto_time,
    which exposes intermediate states for inspection.
    """
    s = d.base
    n_anc = len(d.dims) - len(s.subsystems)
    state = s.initial.as_tensor().reshape(s.dims + (1,) * n_anc)
    plan_by_event = {p.event_index: p for p in d.couplings}
    active: list[CouplingPlan] = []  # the lifts factored out of ``state``

    time = -1
    for i, e in enumerate(s.events):
        if upto_time is not None and e.time_index > upto_time:
            break
        if isinstance(e, UnitaryEvent):
            recording = [p for p in d.frames.get(i, ()) if d.erasure_map[p.event_index] > i]
            for p in recording:
                state = _apply(p.matrix, p.slots, d.dims, state)
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
            for p in recording:
                state = _apply(p.matrix.conj().T, p.slots, d.dims, state)
        else:
            plan = plan_by_event[i]
            _check_records_intact(state, plan.consumed_anc_slots, e.agent)
            if e.record is Record.ERASED:
                active = [p for p in active if p.slots[0] not in plan.consumed_anc_slots]
                active.append(plan)
            else:
                state = _apply(plan.matrix, plan.slots, d.dims, state)
        _check_norm(state, e.time_index)
        time = e.time_index
    for p in active:
        for slots, m in p.chain:
            state = _apply(m, slots, d.dims, state)
    _check_norm(state, time)
    state = _widen(state, d.dims, range(len(d.dims)))
    return DilatedState(StateVector(d.dims, state.reshape(-1)), time, d)


def _apply(matrix, slots, dims, state):
    state = _widen(state, dims, slots)
    return apply_to_slots(matrix, tuple(dims[x] for x in slots), slots, state)


def _widen(state, dims, slots):
    """Grow the size-1 (untriggered, pointer 0) axes among ``slots`` to ``dims``.

    Exact: the old amplitudes land at pointer 0 and every new entry is zero.
    """
    shape = tuple(dims[x] if x in slots else n for x, n in enumerate(state.shape))
    if shape == state.shape:
        return state
    wide = np.zeros(shape, dtype=complex)
    wide[tuple(slice(n) for n in state.shape)] = state
    return wide


def _check_norm(state, time_index):
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if drift > ATOL_STRUCT:
        raise OracleError(f"norm drifted by {drift:.3g} at time {time_index}")


def _check_records_intact(state, anc_slots, agent):
    """With the consumed lifts factored out, their ancillas must read pointer 0."""
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

    One reduction: keep pointers 1..n of every retained ancilla and sum
    |psi|^2 over all other axes, which leaves the tuples in row-major order.
    """
    st = evolve(dilate(s))
    pointers = [st.dilated.ancillas[i] for i, _ in s.retained()]
    psi = st.psi.as_tensor()
    density = psi.real**2 + psi.imag**2
    fired = tuple(slice(1, None) if a in pointers else slice(None) for a in range(psi.ndim))
    weights = np.einsum(density[fired], list(range(psi.ndim)), pointers)
    return outcome_distribution(dict(zip(retained_keys(s), weights.reshape(-1).tolist())), s,
                                OracleError)
