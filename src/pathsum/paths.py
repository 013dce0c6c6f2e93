"""Path engines: retained-outcome distributions and signed path amplitudes.

Paths that agree on every RETAINED outcome but differ on ERASED ones are
indistinguishable at the end of the experiment, so their amplitudes are
added before squaring; RETAINED outcomes distinguish paths, so their
probabilities are added.  Summing over an erased event's outcomes inserts
sum_k |v_k><v_k| = I, so the erased event drops out of the amplitude
altogether.  ``distribution`` therefore computes the Born rule over the
retained events only and skips every erased one.  All three entry points
refuse, with the oracle's text, what the dilation cannot realize
(``Scenario.erasures``), so both engines answer the same scenarios.

``enumerate_paths`` gives the signed-amplitude table: one complex array,
one axis per measurement event in time order, whose entry [l1, l2, ...] is
the amplitude of the path with those outcomes, the product of evolution
matrix elements between consecutive branch states.
``reduce(enumerate_paths(s), s)`` adds it over the erased events' axes and
squares; it is the definition ``distribution`` is tested against.  One walk
over the events serves all three: it splits a batch of branch states on the
labels it is given for each measurement, in one contraction with those
labels' basis columns (``hilbert.split_slots``), and skips the other
measurements.  ``distribution`` gives it the retained events,
``enumerate_paths`` every measurement but each subsystem's last one (its
final), and ``path_amplitude`` those with their one assigned label; both
then apply each final's basis^dagger to its slots, which turns every
subsystem axis into a label axis: one amplitude per path, as budgeted.
Scalar path amplitudes exist only when the final state of every subsystem
is pinned by its last measurement, so ``enumerate_paths`` and
``path_amplitude`` require:

* every subsystem is measured at least once,
* no unitary acts on a subsystem after its last measurement,
* a measurement on several subsystems jointly is the last event on all of
  its targets (its basis may be entangled, so no later event may split it).

Then the finals cover every subsystem once, each with a full basis.  These
hold for all built-in scenarios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hilbert import ATOL_PROB, ATOL_STRUCT, apply_to_slots, check_budget, split_slots
from .scenario import Scenario, UnitaryEvent

# (agent, outcome label) per retained event, in time order
OutcomeTuple = tuple[tuple[str, str], ...]


class PathEngineError(ValueError):
    """Scenario outside the scalar-amplitude engine's supported class."""


@dataclass(frozen=True, eq=False)  # ``__eq__`` below: ``table`` is an ndarray
class OutcomeDistribution:
    """Probabilities over the retained-record outcome tuples, as one table.

    ``axes`` holds one tuple of (agent, label) pairs per retained event, in
    time order, and ``table`` the probabilities row-major over ``axes``, so
    the outcome tuple of row r is ``keys[r]``.  ``table`` may be given as
    a list; it is kept as a read-only float64 array, a view of a float64
    array given, not a copy.  ``probs`` (the rows as a list of floats),
    ``keys`` and ``weights`` (outcome tuple -> probability) are built on
    first read.
    """

    axes: tuple[tuple[tuple[str, str], ...], ...]
    table: np.ndarray = field(repr=False)
    regime_tag: str = ""

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float).view()
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        rows = math.prod(len(axis) for axis in self.axes)
        if table.shape != (rows,):
            raise ValueError(f"{table.size} probabilities for a table of {rows} rows")

    def __eq__(self, other):
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return (self.axes == other.axes and self.regime_tag == other.regime_tag
                and bool(np.array_equal(self.table, other.table)))

    @cached_property
    def probs(self) -> list[float]:
        return self.table.tolist()

    @cached_property
    def keys(self) -> tuple[OutcomeTuple, ...]:
        return tuple(itertools.product(*self.axes))

    @cached_property
    def weights(self) -> dict[OutcomeTuple, float]:
        return dict(zip(self.keys, self.probs))

    def agents(self) -> tuple[str, ...]:
        return tuple(axis[0][0] for axis in self.axes)

    def probability(self, selection: dict[str, str]) -> float:
        """Marginal probability of a partial agent -> label selection."""
        unknown = set(selection) - set(self.agents())
        if unknown:
            raise ValueError(f"unknown agent {sorted(unknown)[0]!r} in distribution")
        mask = np.ones((1,) * len(self.axes), dtype=bool)
        for agent, label in selection.items():
            mask = mask & _holds(self, agent, label)
        return _masked_sum(self, mask)

    def total(self) -> float:
        return float(sum(self.probs))


def _holds(d: OutcomeDistribution, agent: str, label: str) -> np.ndarray:
    """Whether each row's outcome tuple holds (agent, label), as a bool
    array that broadcasts over the grid of ``d.axes``."""
    if agent not in d.agents():
        raise ValueError(f"unknown agent {agent!r} in distribution")
    for k, axis in enumerate(d.axes):
        if (agent, label) in axis:
            hit = np.array([entry == (agent, label) for entry in axis])
            return hit.reshape([-1 if j == k else 1 for j in range(len(d.axes))])
    raise ValueError(f"unknown label {label!r} for agent {agent!r}")


def _ordered_sums(rows: np.ndarray) -> np.ndarray:
    """Each row of the scratch array ``rows`` added left to right from +0.0,
    as a loop over floats adds (``np.sum`` adds pairwise); overwrites ``rows``."""
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1])
    return np.add.accumulate(rows, axis=-1, out=rows)[..., -1] + 0.0  # -0.0 -> 0.0


def _masked_sum(d: OutcomeDistribution, mask: np.ndarray) -> float:
    """The rows where ``mask``, broadcast over the axis grid, holds, in row-major order."""
    grid = d.table.reshape([len(axis) for axis in d.axes])
    return float(_ordered_sums(grid[np.broadcast_to(mask, grid.shape)]))


@dataclass(frozen=True)
class ImplicationResult:
    given: tuple[str, str]
    then: tuple[str, str]
    holds: bool
    counter_probability: float


@dataclass(frozen=True)
class RealPathGraph:
    """Layered network of distinguishable outcomes with edge probabilities."""

    layers: tuple[tuple[str, tuple[str, ...]], ...]  # (agent, labels) per layer
    edges: tuple[tuple[int, str, str, float, bool], ...]
    # (source layer, source label, target label, weight, vanishing)


def _engine_preconditions(s: Scenario) -> tuple[int, ...]:
    """Check the pinned class; return the last measurement on each subsystem, in time order."""
    last: dict[int, int] = {}  # subsystem slot -> last covering event index
    for i, e in s.measurements():
        for slot in s.slots(e.targets):
            last[slot] = i
    unmeasured = [sub.name for k, sub in enumerate(s.subsystems) if k not in last]
    if unmeasured:
        raise PathEngineError(
            f"subsystem {unmeasured[0]!r} is never measured; "
            f"path amplitudes need every subsystem pinned by a final measurement"
        )
    for i, e in enumerate(s.events):
        if isinstance(e, UnitaryEvent):
            late = [t for t, slot in zip(e.targets, s.slots(e.targets)) if last[slot] < i]
            if late:
                raise PathEngineError(
                    f"unitary at time {e.time_index} acts on {late[0]!r} "
                    f"after its last measurement"
                )
    # no unitary follows a last measurement, so an event after a joint
    # measurement on its targets means a later measurement on one of them
    for i, e in s.measurements():
        if len(e.targets) > 1 and any(last[slot] != i for slot in s.slots(e.targets)):
            raise PathEngineError(
                f"joint measurement by {e.agent!r} is followed by another "
                f"event on its targets; entangled branch states cannot be split"
            )
    return tuple(sorted(set(last.values())))


def _branch_states(s: Scenario, split: dict[int, tuple[str, ...]]) -> np.ndarray:
    """Walk ``s.events`` once; return the branch states, one axis per split
    event in time order, then the subsystems' axes.

    A unitary acts on every branch.  Measurement ``i`` in ``split`` splits
    every branch on the vectors of the labels ``split[i]``; other
    measurements are skipped.  While walking, the branches are the last
    axis, the latest split's label most significant.  The batch only grows,
    so its final amplitudes and axes are budgeted up front.
    """
    dims = s.dims
    d, k = len(dims), len(split)
    check_budget(math.prod(len(labels) for labels in split.values()) * math.prod(dims),
                 d + max(1, k), PathEngineError, "branch states need")
    s.erasures(PathEngineError)  # refuse what the dilation cannot realize
    state = s.initial.as_tensor()[..., np.newaxis]
    for i, e in enumerate(s.events):
        if isinstance(e, UnitaryEvent):
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
        elif i in split:
            columns = e.basis.matrix[:, [e.labels.index(label) for label in split[i]]]
            state = split_slots(columns, e.basis.dims, s.slots(e.targets), state)
    state = state.reshape(dims + tuple(len(labels) for labels in reversed(split.values())))
    return state.transpose(tuple(range(d + k - 1, d - 1, -1)) + tuple(range(d)))


def _path_table(s: Scenario, finals: tuple[int, ...],
                split: dict[int, tuple[str, ...]]) -> np.ndarray:
    """Path amplitudes over the labels ``split`` gives each non-final
    measurement and every label of each final one, one axis per measurement
    in time order.

    The branch states are split on the non-final measurements, then each
    final's basis^dagger is applied to its slots: the finals cover every
    slot once with a full basis, so each subsystem axis becomes a label axis
    of its final, and the state's entries are the paths' amplitudes.
    """
    state = _branch_states(s, split)
    k = len(split)
    for i in finals:
        e = s.events[i]
        state = apply_to_slots(e.basis.matrix.conj().T, e.basis.dims,
                               [k + x for x in s.slots(e.targets)], state)
    position = {i: j for j, i in enumerate(split)}
    order = []
    for i, e in s.measurements():
        order.extend([position[i]] if i in split else [k + x for x in s.slots(e.targets)])
    return state.transpose(order).reshape([len(split.get(i, e.labels))
                                           for i, e in s.measurements()])


def path_amplitude(branches, s: Scenario) -> complex:
    """Product of evolution matrix elements along one branch assignment.

    ``branches`` is an iterable of (event index, label) covering every
    measurement event of the scenario.
    """
    finals = _engine_preconditions(s)
    assignment = dict(branches)
    expected = {i for i, _ in s.measurements()}
    if set(assignment) != expected:
        raise PathEngineError(
            f"branch assignment covers events {sorted(assignment)}, "
            f"expected {sorted(expected)}"
        )
    table = _path_table(s, finals, {i: (label,) for i, label in assignment.items()
                                    if i not in finals})
    return complex(table[tuple(e.labels.index(assignment[i]) if i in finals else 0
                               for i, e in s.measurements())])


def enumerate_paths(s: Scenario) -> np.ndarray:
    """The amplitude of every virtual path (one outcome per measurement
    event), as one read-only complex array: one axis per measurement in
    time order, as long as its ``labels``, so entry [l1, l2, ...] is the
    path with those label indices.
    """
    finals = _engine_preconditions(s)
    table = _path_table(s, finals, {i: e.labels for i, e in s.measurements()
                                    if i not in finals})
    table.setflags(write=False)
    return table


def outcome_distribution(weights: np.ndarray, s: Scenario,
                         error: type[ValueError]) -> OutcomeDistribution:
    """Both engines' result from their weights, row-major over the retained
    events' labels: the weights as given must total 1 within 1e-9 or
    ``error`` is raised, also for a NaN; then weights <= 1e-12 are clamped to 0."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if not abs(total - 1.0) <= ATOL_PROB:
        raise error(f"probabilities sum to {total!r}, expected 1")
    return OutcomeDistribution(s.retained_axes(), np.where(w <= ATOL_STRUCT, 0.0, w),
                               s.regime_tag())


def reduce(table: np.ndarray, s: Scenario) -> OutcomeDistribution:
    """Add a path table's amplitudes over the erased events' axes, square.

    The weights sum to 1 within 1e-9; then weights below 1e-12 are clamped
    to exact 0 so vanishing outcomes print as 0.
    """
    erased = {i for i, _ in s.erased()}
    sums = np.sum(table, axis=tuple(k for k, (i, _) in enumerate(s.measurements())
                                    if i in erased))
    return outcome_distribution((abs(sums) ** 2).ravel(), s, PathEngineError)


def distribution(s: Scenario) -> OutcomeDistribution:
    """Born rule over the retained events; erased events are skipped.

    The branch states are split on the retained events only, so there is
    one batch entry per retained outcome tuple and its weight is the
    entry's squared norm; the weights sum to 1 within 1e-9 and are then
    clamped to exact 0 below 1e-12.  Equal to ``reduce(enumerate_paths(s), s)`` wherever
    that is defined.
    """
    states = _branch_states(s, {i: e.labels for i, e in s.retained()})
    weights = (states.real ** 2 + states.imag ** 2).sum(axis=tuple(range(-len(s.dims), 0)))
    del states  # released before the table is built
    return outcome_distribution(weights.ravel(), s, PathEngineError)


def marginal(d: OutcomeDistribution, keep) -> OutcomeDistribution:
    """Sum out every agent not in ``keep``; total probability is preserved.
    The kept axes are moved to the front, so a kept tuple's rows are one row
    of the copy, in the order a loop over the table meets them."""
    keep = set(keep)
    agents = d.agents()
    unknown = keep - set(agents)
    if unknown:
        raise ValueError(f"unknown agent {sorted(unknown)[0]!r} in distribution")
    kept = [k for k, agent in enumerate(agents) if agent in keep]
    shape = [len(axis) for axis in d.axes]
    rows = d.table.reshape(shape).transpose(
        kept + [k for k, agent in enumerate(agents) if agent not in keep]).copy()
    sums = _ordered_sums(rows.reshape(math.prod(shape[k] for k in kept), -1))
    names = ",".join(agents[k] for k in kept)
    return OutcomeDistribution(tuple(d.axes[k] for k in kept), sums,
                               f"marginal[{names}] of ({d.regime_tag})")


def implication(d: OutcomeDistribution, given: tuple[str, str],
                then: tuple[str, str]) -> ImplicationResult:
    """Does ``given`` imply ``then``?  Holds iff P(given and not then) <= 1e-9."""
    counter = _masked_sum(d, _holds(d, *given) & ~_holds(d, *then))
    return ImplicationResult(given, then, counter <= ATOL_PROB, counter)


def real_path_graph(d: OutcomeDistribution) -> RealPathGraph:
    """Layered graph of retained outcomes, one layer per axis of ``d``;
    consecutive-layer edge weights are pairwise marginals, row-major over the
    two layers' labels.  Vanishing edges are flagged (dashed in DOT).
    """
    layers = tuple((axis[0][0], tuple([label for _, label in axis])) for axis in d.axes)
    edges = []
    for k in range(len(layers) - 1):
        (agent_a, labels_a), (agent_b, labels_b) = layers[k], layers[k + 1]
        pair = marginal(d, (agent_a, agent_b)).table.tolist()
        for (la, lb), w in zip(itertools.product(labels_a, labels_b), pair):
            w = 0.0 if w <= ATOL_STRUCT else w
            edges.append((k, la, lb, w, w == 0.0))
    return RealPathGraph(layers, tuple(edges))
