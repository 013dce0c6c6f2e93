"""Path engines: retained-outcome distributions and signed path amplitudes.

Paths that agree on every RETAINED outcome but differ on ERASED ones are
indistinguishable at the end of the experiment, so their amplitudes are
added before squaring; RETAINED outcomes distinguish paths, so their
probabilities are added.  Summing over an erased event's outcomes inserts
sum_k |v_k><v_k| = I, so the erased event drops out of the amplitude
altogether.  ``distribution`` therefore computes the Born rule over the
retained events only and skips every erased one.  It works for any valid
scenario.

``enumerate_paths`` gives the signed-amplitude table: one complex amplitude
per assignment of an outcome to every measurement event, the product of
evolution matrix elements between consecutive branch states, and
``reduce(enumerate_paths(s), s)`` is the definition ``distribution`` is
tested against.  One walk over the events serves all three: it splits a
batch of branch states on the labels it is given for each measurement, in
one contraction with those labels' basis columns (``hilbert.split_slots``),
and skips the other measurements.  ``distribution`` gives it the retained
events, ``enumerate_paths`` every measurement, and ``path_amplitude`` every
measurement with its one assigned label.  Scalar path amplitudes exist only
when the final state of every subsystem is pinned by its last measurement,
so ``enumerate_paths`` and ``path_amplitude`` require:

* every subsystem is measured at least once,
* no unitary acts on a subsystem after its last measurement,
* a measurement on several subsystems jointly is the last event on all of
  its targets (its basis may be entangled, so no later event may split it).

These hold for all built-in scenarios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hilbert import (ATOL_PROB, ATOL_STRUCT, MAX_AMPLITUDES, MAX_AXES, apply_to_slots,
                      split_slots)
from .scenario import Scenario, UnitaryEvent

_MAX_PATHS = 1 << 20  # virtual paths enumerated, retained tuples distributed

# (agent, outcome label) per retained event, in time order
OutcomeTuple = tuple[tuple[str, str], ...]


class PathEngineError(ValueError):
    """Scenario outside the scalar-amplitude engine's supported class."""


@dataclass(frozen=True)
class VirtualPath:
    """One outcome label per measurement event, with its amplitude."""

    branches: tuple[tuple[int, str], ...]  # (event index, label), time order
    amplitude: complex

    @property
    def is_zero(self) -> bool:
        return abs(self.amplitude) <= ATOL_STRUCT


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the retained-record outcome tuples, as one table.

    ``axes`` holds one tuple of (agent, label) pairs per retained event, in
    time order, and ``probs`` the probabilities row-major over ``axes``, so
    the outcome tuple of row r is ``keys[r]``.  ``keys`` and ``weights``
    (outcome tuple -> probability) are built on first read.
    """

    axes: tuple[tuple[tuple[str, str], ...], ...]
    probs: list[float] = field(repr=False)
    regime_tag: str = ""

    def __post_init__(self):
        rows = math.prod(len(axis) for axis in self.axes)
        if len(self.probs) != rows:
            raise ValueError(f"{len(self.probs)} probabilities for a table of {rows} rows")

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
        for agent, label in selection.items():
            _check_label(self, agent, label)
        total = 0.0
        for key, w in zip(self.keys, self.probs):
            if all((agent, selection[agent]) in key for agent in selection):
                total += w
        return total

    def total(self) -> float:
        return float(sum(self.probs))


def _check_label(d: OutcomeDistribution, agent: str, label: str) -> None:
    if not any((agent, label) in axis for axis in d.axes):
        raise ValueError(f"unknown label {label!r} for agent {agent!r}")


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
            late = [t for t in e.targets if last[s.subsystem_index(t)] < i]
            if late:
                raise PathEngineError(
                    f"unitary at time {e.time_index} acts on {late[0]!r} "
                    f"after its last measurement"
                )
    for i, e in s.measurements():
        if len(e.targets) < 2:
            continue
        for j, f in enumerate(s.events):
            if j > i and set(f.targets) & set(e.targets):
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
    axis, the latest split's label most significant.  Limits are checked up
    front: the branch and amplitude budgets, then numpy's axis limit.
    """
    n_branches = math.prod(len(labels) for labels in split.values())
    if n_branches > _MAX_PATHS:
        raise PathEngineError(f"{n_branches} branches exceed the enumeration cap")
    dims = s.dims
    n_amps = n_branches * math.prod(dims)  # the batch only grows, so this is its peak
    if n_amps > MAX_AMPLITUDES:
        raise PathEngineError(
            f"branch states need {n_amps} amplitudes, over the budget of {MAX_AMPLITUDES}"
        )
    d, k = len(dims), len(split)
    if d + max(1, k) > MAX_AXES:  # the walk's batch axis, or one axis per split event
        raise PathEngineError(
            f"branch states need {d + max(1, k)} axes, over numpy's limit of {MAX_AXES}"
        )
    state = s.initial.as_tensor()[..., np.newaxis]
    for i, e in enumerate(s.events):
        if isinstance(e, UnitaryEvent):
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
        elif i in split:
            columns = e.basis.matrix[:, [e.labels.index(label) for label in split[i]]]
            state = split_slots(columns, e.basis.dims, s.slots(e.targets), state)
    state = state.reshape(dims + tuple(len(labels) for labels in reversed(split.values())))
    return state.transpose(tuple(range(d + k - 1, d - 1, -1)) + tuple(range(d)))


def _scalarize(s: Scenario, finals: tuple[int, ...], assignment: dict[int, str],
               state: np.ndarray) -> complex:
    """Contract a walked state against the unit tensor that pins every
    subsystem to the outcome of its final measurement in ``assignment``."""
    ref = np.ones(())
    slot_order: list[int] = []
    for i in finals:
        e = s.events[i]
        v = e.basis.matrix[:, e.labels.index(assignment[i])]
        ref = np.multiply.outer(ref, v.reshape(e.basis.dims))
        slot_order.extend(s.slots(e.targets))
    ref = np.moveaxis(ref, range(len(slot_order)), slot_order)
    amp = complex(np.vdot(ref, state))
    residual = float(np.linalg.norm(state)) ** 2 - abs(amp) ** 2
    if residual > 1e-10:
        raise PathEngineError(
            f"path state is not pinned by the final measurements "
            f"(residual population {residual:.3g}); scenario outside engine class"
        )
    return amp


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
    state = _branch_states(s, {i: (label,) for i, label in assignment.items()})
    return _scalarize(s, finals, assignment, state.reshape(s.dims))


def enumerate_paths(s: Scenario) -> tuple[VirtualPath, ...]:
    """All virtual paths (one outcome per measurement event) with amplitudes.

    Paths come out row-major over the measurement events' labels.  Paths
    with |amplitude| <= 1e-12 are kept and flagged via ``is_zero``.
    """
    finals = _engine_preconditions(s)
    split = {i: e.labels for i, e in s.measurements()}  # time order, like the batch
    out = []
    states = _branch_states(s, split).reshape((-1,) + s.dims)
    for labels, state in zip(itertools.product(*split.values()), states):
        assignment = dict(zip(split, labels))
        out.append(VirtualPath(tuple(assignment.items()),
                               _scalarize(s, finals, assignment, state)))
    return tuple(out)


def retained_axes(s: Scenario) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The (agent, label) pairs of each retained event, in time order."""
    return tuple([tuple([(e.agent, label) for label in e.labels]) for _, e in s.retained()])


def retained_keys(s: Scenario):
    """Outcome tuples of the retained events, row-major over their labels."""
    return itertools.product(*retained_axes(s))


def outcome_distribution(weights: np.ndarray, s: Scenario,
                         error: type[ValueError]) -> OutcomeDistribution:
    """Both engines' result from their weights, row-major over the retained
    events' labels: the weights as given must total 1 within 1e-9 or
    ``error`` is raised; then weights <= 1e-12 are clamped to exact 0."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if abs(total - 1.0) > ATOL_PROB:
        raise error(f"probabilities sum to {total!r}, expected 1")
    retained = ",".join([e.agent for _, e in s.retained()])
    erased = ",".join([e.agent for _, e in s.erased()])
    return OutcomeDistribution(
        retained_axes(s),
        np.where(w <= ATOL_STRUCT, 0.0, w).tolist(),
        f"retained={retained}" + (f"; erased={erased}" if erased else ""),
    )


def reduce(paths, s: Scenario) -> OutcomeDistribution:
    """Group by retained outcomes, add amplitudes over erased branches, square.

    The weights sum to 1 within 1e-9; then weights below 1e-12 are clamped
    to exact 0 so vanishing outcomes print as 0.
    """
    retained = {i for i, e in s.retained()}
    sums: dict[OutcomeTuple, complex] = {}
    for p in paths:
        key = tuple(
            (s.events[i].agent, label) for i, label in p.branches if i in retained
        )
        sums[key] = sums.get(key, 0.0) + p.amplitude
    return outcome_distribution([abs(sums[key]) ** 2 for key in retained_keys(s)], s,
                                PathEngineError)


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
    """Sum out every agent not in ``keep``; total probability is preserved."""
    keep = set(keep)
    agents = d.agents()
    unknown = keep - set(agents)
    if unknown:
        raise ValueError(f"unknown agent {sorted(unknown)[0]!r} in distribution")
    # rows come in row-major order, so the kept tuples first appear in
    # row-major order over the kept axes
    weights: dict[OutcomeTuple, float] = {}
    for key, w in zip(d.keys, d.probs):
        sub = tuple(entry for entry in key if entry[0] in keep)
        weights[sub] = weights.get(sub, 0.0) + w
    kept = ",".join(a for a in agents if a in keep)
    return OutcomeDistribution(tuple(axis for axis in d.axes if axis[0][0] in keep),
                               list(weights.values()), f"marginal[{kept}] of ({d.regime_tag})")


def implication(d: OutcomeDistribution, given: tuple[str, str],
                then: tuple[str, str]) -> ImplicationResult:
    """Does ``given`` imply ``then``?  Holds iff P(given and not then) <= 1e-9."""
    agents = set(d.agents())
    for agent, label in (given, then):
        if agent not in agents:
            raise ValueError(f"unknown agent {agent!r} in distribution")
        _check_label(d, agent, label)
    counter = 0.0
    for key, w in zip(d.keys, d.probs):
        if given in key and then not in key:
            counter += w
    return ImplicationResult(given, then, counter <= ATOL_PROB, counter)


def real_path_graph(d: OutcomeDistribution, s: Scenario) -> RealPathGraph:
    """Layered graph of retained outcomes; consecutive-layer edge weights are
    pairwise marginals.  Vanishing edges are flagged (drawn dashed in DOT).
    """
    present = set(d.agents())
    retained = tuple((i, e) for i, e in s.retained() if e.agent in present)
    layers = tuple((e.agent, e.labels) for _, e in retained)
    edges = []
    for k in range(len(retained) - 1):
        agent_a, labels_a = layers[k]
        agent_b, labels_b = layers[k + 1]
        pair = marginal(d, (agent_a, agent_b)).weights
        for la in labels_a:
            for lb in labels_b:
                w = pair.get(((agent_a, la), (agent_b, lb)), 0.0)
                w = 0.0 if w <= ATOL_STRUCT else w
                edges.append((k, la, lb, w, w == 0.0))
    return RealPathGraph(layers, tuple(edges))
