"""Independent verification engine built on explicit pointer ancillas.

Every measurement event is replaced by a unitary coupling between its
targets and a fresh pointer ancilla (dimension = outcome count + 1, state 0
meaning "not yet triggered"): |D(0)> x |v_k>  ->  |D(k)> x |v_k| for each
basis vector v_k.  Probabilities are never assigned during the run; at the
end they are expectation values of pointer projectors on the evolved state.

Record erasure is realized the way an observer who measures a whole
laboratory does: when a later measurement's targets cover a pending erased
record, its coupling is taken in the composite basis that entangles the
erased ancilla with the erased event's own basis vectors.  Operationally
the coupling is conjugated by the erased event's coupling chain L, which
maps the plain basis onto exactly that composite basis.  The conjugation
also exposes the realizability condition: after undoing the chain, the
consumed ancillas must sit back at pointer 0 (population outside <= 1e-12),
i.e. the record must not have been disturbed between its creation and its
erasure.

Each coupling is applied once.  ``evolve`` keeps the chains it has not yet
applied pending, and a chain round trip L L^dagger with nothing on its
slots in between is the identity: the eraser's L^dagger cancels the pending
L, so only its own coupling joins the chain.  Pending chains are applied
when another event touches their slots, and at the end.

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


@dataclass(frozen=True)
class AncillaSpec:
    event_index: int
    agent: str
    slot: int
    dim: int
    labels: tuple[str, ...]

    def pointer_index(self, label: str | None) -> int:
        if label is None or label == "0":
            return 0
        if label not in self.labels:
            raise ValueError(f"unknown outcome label {label!r} for agent {self.agent!r}")
        return self.labels.index(label) + 1


@dataclass(frozen=True)
class CouplingPlan:
    event_index: int
    slots: tuple[int, ...]  # (ancilla slot, *target slots)
    matrix: np.ndarray = field(repr=False)
    consumed_ops: tuple[LiftOp, ...]
    consumed_anc_slots: tuple[int, ...]


@dataclass(frozen=True)
class EraserRealization:
    """The composite-basis measurement that destroyed an erased record."""

    erased_event: int
    eraser_event: int
    anc_slots: tuple[int, ...]  # consumed ancilla slots
    target_slots: tuple[int, ...]  # eraser target slots
    labels: tuple[str, ...]
    dims: tuple[int, ...] = field(repr=False)  # dilated dims
    chain: tuple[LiftOp, ...] = field(repr=False, compare=False)  # consumed lift ops
    vectors: tuple[StateVector, ...] = field(repr=False, compare=False)  # eraser basis

    @property
    def composite_slots(self) -> tuple[int, ...]:
        return self.anc_slots + self.target_slots

    @cached_property
    def basis(self) -> np.ndarray:
        """Columns of the composite basis |E_k> = chain(|0...0> x w_k).

        Built on first access: the run never reads it, only inspection does.
        """
        n_anc, n_k = len(self.anc_slots), len(self.vectors)
        axis = {slot: a + 1 for a, slot in enumerate(self.composite_slots)}  # axis 0 is k
        cols = np.zeros((n_k,) + tuple(self.dims[sl] for sl in self.composite_slots),
                        dtype=complex)
        cols[(slice(None),) + (0,) * n_anc] = np.stack([v.amps for v in self.vectors]).reshape(
            cols.shape[:1] + cols.shape[1 + n_anc:])
        for slots, m in self.chain:
            cols = apply_to_slots(m, tuple(self.dims[sl] for sl in slots),
                                  tuple(axis[sl] for sl in slots), cols)
        return cols.reshape(n_k, -1).T


@dataclass(frozen=True)
class DilatedScenario:
    base: Scenario
    dims: tuple[int, ...]  # base dims followed by ancilla dims, event order
    ancillas: dict[int, AncillaSpec]  # measurement event index -> its pointer
    couplings: tuple[CouplingPlan, ...]
    erasure_map: dict[int, EraserRealization]


@dataclass(frozen=True)
class DilatedState:
    psi: StateVector
    time_index: int
    dilated: DilatedScenario


@dataclass(frozen=True)
class _Lift:
    footprint: frozenset[int]
    anc_slots: tuple[int, ...]
    ops: tuple[LiftOp, ...]  # applied first-to-last, maps |0...0> x v to the composite vector
    events: tuple[int, ...]  # erased events encoded in this chain


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
    base_n = len(s.subsystems)
    measurements = s.measurements()
    dims = list(s.dims)
    ancillas = {}
    for k, (i, e) in enumerate(measurements):
        ancillas[i] = AncillaSpec(i, e.agent, base_n + k, len(e.labels) + 1, e.labels)
        dims.append(len(e.labels) + 1)
    n_amps = math.prod(dims)
    if n_amps > MAX_AMPLITUDES:
        raise OracleError(
            f"dilated state needs {n_amps} amplitudes, over the budget of {MAX_AMPLITUDES}"
        )

    couplings = []
    erasure_map: dict[int, EraserRealization] = {}
    active: list[_Lift] = []
    for i, e in measurements:
        tslots = s.slots(e.targets)
        tset = set(tslots)
        consumed = [lift for lift in active if lift.footprint & tset]
        for lift in consumed:
            if not lift.footprint <= tset:
                raise OracleError(
                    f"measurement by {e.agent!r} overlaps an erased record on "
                    f"subsystem slots {sorted(lift.footprint)} without covering it; "
                    f"no composite-basis erasure exists"
                )
        anc = ancillas[i]
        matrix = _coupling_matrix(e.basis.matrix())
        consumed_ops = tuple(op for lift in consumed for op in lift.ops)
        consumed_anc = tuple(sl for lift in consumed for sl in lift.anc_slots)
        plan = CouplingPlan(i, (anc.slot,) + tslots, matrix, consumed_ops, consumed_anc)
        couplings.append(plan)

        for lift in consumed:
            for erased_event in lift.events:
                # the first consumer is the eraser; later measurements
                # through the same chain do not destroy anything new
                erasure_map.setdefault(
                    erased_event,
                    EraserRealization(erased_event, i, consumed_anc, tslots, e.labels,
                                      tuple(dims), consumed_ops, e.basis.vectors),
                )
        if e.record is Record.ERASED:
            new = _Lift(
                footprint=frozenset(tset),
                anc_slots=consumed_anc + (anc.slot,),
                ops=((plan.slots, matrix),) + consumed_ops,
                events=tuple(ev for lift in consumed for ev in lift.events) + (i,),
            )
            active = [lift for lift in active if lift not in consumed] + [new]

    return DilatedScenario(s, tuple(dims), ancillas, tuple(couplings), erasure_map)


def evolve(d: DilatedScenario, upto_time: int | None = None) -> DilatedState:
    """Apply free unitaries and couplings in time order; norm is conserved.

    Each coupling is applied once.  Chains not yet applied stay pending on
    pairwise disjoint slots, so the physical state is the pending chains
    applied to ``state``.  A measurement conjugates its coupling by the chain
    L it consumes; when L is exactly what is pending on its slots, L^dagger
    cancels it and the coupling just joins the chain.  Ancilla axes start at
    size 1 and ``_apply`` widens them when an op first acts on them.

    ``upto_time`` stops after the last event with time_index <= upto_time,
    which exposes intermediate states for inspection.
    """
    s = d.base
    n_anc = len(d.dims) - len(s.subsystems)
    state = s.initial.as_tensor().reshape(s.dims + (1,) * n_anc)
    plan_by_event = {p.event_index: p for p in d.couplings}
    pending: list[tuple[frozenset[int], tuple[LiftOp, ...]]] = []

    time = -1
    for i, e in enumerate(s.events):
        if upto_time is not None and e.time_index > upto_time:
            break
        if isinstance(e, UnitaryEvent):
            slots = s.slots(e.targets)
            state, pending = _undo_chain(state, pending, frozenset(slots), (), d.dims)
            state = apply_to_slots(e.op.entries, e.op.dims, slots, state)
        else:
            plan = plan_by_event[i]
            chain = ((plan.slots, plan.matrix),) + plan.consumed_ops
            footprint = frozenset(sl for slots, _ in chain for sl in slots)
            state, pending = _undo_chain(state, pending, footprint, plan.consumed_ops, d.dims)
            _check_records_intact(state, plan.consumed_anc_slots, e.agent)
            pending.append((footprint, chain))
        _check_norm(state, e.time_index)
        time = e.time_index
    for _, chain in pending:
        state = _apply_chain(chain, d.dims, state)
    _check_norm(state, time)
    state = _widen(state, d.dims, range(len(d.dims)))
    return DilatedState(StateVector(d.dims, state.reshape(-1)), time, d)


def _undo_chain(state, pending, footprint, consumed, dims):
    """Apply ``consumed``^dagger to the physical state on ``footprint``.

    Returns the new stored state and the chains still pending.  If the
    chains pending on ``footprint`` are exactly ``consumed``, L^dagger L = I
    and nothing is applied; otherwise they are applied, then L^dagger.
    """
    hit = [op for slots, chain in pending if slots & footprint for op in chain]
    rest = [(slots, chain) for slots, chain in pending if not slots & footprint]
    if len(hit) != len(consumed) or any(a is not b for (_, a), (_, b) in zip(hit, consumed)):
        state = _apply_chain(hit, dims, state)
        for slots, m in reversed(consumed):
            state = _apply(m.conj().T, slots, dims, state)
    return state, rest


def _apply_chain(chain, dims, state):
    for slots, m in chain:
        state = _apply(m, slots, dims, state)
    return state


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
    """After undoing a lift chain, consumed ancillas must read pointer 0."""
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


def _selection_slices(st: DilatedState, selection: dict[str, str]):
    d = st.dilated
    pairs = []
    for agent, label in selection.items():
        i, e = d.base.agent_event(agent)  # raises on unknown agent
        if e.record is Record.ERASED:
            raise RecordErasedError(agent)
        anc = d.ancillas[i]
        pairs.append((anc.slot, anc.pointer_index(label)))
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
    eraser = d.erasure_map[i]
    eraser_time = d.base.events[eraser.eraser_event].time_index
    if st.time_index < eraser_time:
        raise OracleError(
            f"state at time {st.time_index} has not evolved past the erasing "
            f"measurement at time {eraser_time}"
        )
    anc = d.ancillas[i]
    pairs = [(anc.slot, anc.pointer_index(pointer_label))]
    pairs += _selection_slices(st, final_selection or {})
    return _pointer_probability(st, pairs)


def distribution(s: Scenario) -> OutcomeDistribution:
    """Full retained-outcome distribution from pointer projectors.

    One reduction: keep pointers 1..n of every retained ancilla and sum
    |psi|^2 over all other axes, which leaves the tuples in row-major order.
    """
    st = evolve(dilate(s))
    pointers = [st.dilated.ancillas[i].slot for i, _ in s.retained()]
    psi = st.psi.as_tensor()
    density = psi.real**2 + psi.imag**2
    fired = tuple(slice(1, None) if a in pointers else slice(None) for a in range(psi.ndim))
    weights = np.einsum(density[fired], list(range(psi.ndim)), pointers)
    return outcome_distribution(dict(zip(retained_keys(s), weights.reshape(-1).tolist())), s,
                                OracleError)
