"""Random valid scenarios for property tests and engine cross-checks.

Generated scenarios stay inside the class both engines support and the
composite-basis erasure can realize:

* every subsystem's last event is a retained measurement (a coverage tail),
* once a subsystem hosts an erased record, no unitary ever acts on it again,
* joint measurements appear only in the tail, where nothing follows them.

The second rule is stricter than the engines need (``Scenario.erasures``),
and is kept so that every seed keeps its scenario.

Within that class the generator exercises erasure chains, superset erasers
(a joint tail measurement erasing a single-subsystem record), interleaved
unitaries and 1- to 3-subsystem systems of mixed dimension 2 and 3.

``random_unpinned_scenario`` leaves that class on purpose: it produces
unmeasured subsystems, unitaries after a subsystem's last measurement and
events after a joint measurement, which ``paths.distribution`` and the oracle
answer but ``enumerate_paths`` refuses.

``random_unrestricted_scenario`` keeps no rule at all: it puts unitaries
between records and their erasers and measurements that partly overlap an
erased record, which both engines may refuse, so it measures how far the
engine-equivalence check reaches.  Most of its seeds break a scenario rule
and raise ``ScenarioValidationError``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .hilbert import Basis, Operator, StateVector, tensor
from .scenario import (
    MeasurementEvent,
    Record,
    Scenario,
    ScenarioValidationError,
    SubsystemSpec,
    UnitaryEvent,
)


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector((dim,), z / np.linalg.norm(z))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_basis(rng: np.random.Generator, dims: tuple[int, ...],
                 prefix: str = "m") -> Basis:
    side = math.prod(dims)
    u = random_unitary(rng, side)
    return Basis(dims, tuple(f"{prefix}{j}" for j in range(side)), u)


def random_scenario(seed_or_rng) -> Scenario:
    """One random scenario: <= 3 subsystems of dim <= 3, <= 4 events."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    n_sub = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(2, 4)) for _ in range(n_sub))
    subsystems = tuple(
        SubsystemSpec(f"s{k}", dims[k], tuple(f"b{j}" for j in range(dims[k])))
        for k in range(n_sub)
    )
    initial = functools.reduce(tensor, [random_state(rng, d) for d in dims])

    # coverage tail: every subsystem's last event is a retained measurement,
    # occasionally a joint one on a pair
    order = list(rng.permutation(n_sub))
    groups: list[tuple[int, ...]] = []
    while order:
        if len(order) >= 2 and rng.random() < 0.3:
            groups.append((order.pop(), order.pop()))
        else:
            groups.append((order.pop(),))

    prefix_budget = 4 - len(groups)
    n_prefix = int(rng.integers(0, prefix_budget + 1))

    events: list = []
    # no unitary on a subsystem that ever hosted an erased record; kept so
    # that seeds keep their scenarios (see the module docstring)
    ever_erased: set[int] = set()
    time = 0
    for _ in range(n_prefix):
        time += 1
        make_unitary = rng.random() < 0.35
        open_slots = [k for k in range(n_sub) if k not in ever_erased]
        if make_unitary and open_slots:
            n_targets = 1 if len(open_slots) == 1 or rng.random() < 0.5 else 2
            slots = sorted(rng.choice(open_slots, size=n_targets, replace=False).tolist())
            tdims = tuple(dims[k] for k in slots)
            op = Operator(tdims, random_unitary(rng, math.prod(tdims)))
            events.append(UnitaryEvent(time, tuple(f"s{k}" for k in slots), op))
        else:
            k = int(rng.integers(0, n_sub))
            erase = rng.random() < 0.45
            record = Record.ERASED if erase else Record.RETAINED
            events.append(
                MeasurementEvent(
                    time, f"A{time}", (f"s{k}",), random_basis(rng, (dims[k],)), record
                )
            )
            if erase:
                ever_erased.add(k)
    for group in groups:
        time += 1
        tdims = tuple(dims[k] for k in group)
        events.append(
            MeasurementEvent(
                time,
                f"A{time}",
                tuple(f"s{k}" for k in group),
                random_basis(rng, tdims),
                Record.RETAINED,
            )
        )
    return Scenario(subsystems, initial, tuple(events))


def random_unpinned_scenario(seed: int) -> Scenario:
    """One random scenario outside the pinned class: <= 3 subsystems, <= 8 events.

    Only the first ``measured`` subsystems are ever measured, joint
    measurements can be followed by anything, and unitaries may come after a
    subsystem's last measurement.  Erased records sit on one subsystem, so
    every eraser covers its record, and a subsystem that ever hosted one is
    never touched by a unitary again, as in ``random_scenario``.
    """
    rng = np.random.default_rng(seed)
    n_sub = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(2, 4)) for _ in range(n_sub))
    names = tuple(f"s{k}" for k in range(n_sub))
    subsystems = tuple(
        SubsystemSpec(names[k], dims[k], tuple(f"b{j}" for j in range(dims[k])))
        for k in range(n_sub)
    )
    initial = StateVector(dims, random_state(rng, math.prod(dims)).amps)  # entangled
    measured = int(rng.integers(1, n_sub + 1))

    events: list = []
    ever_erased: set[int] = set()
    uncovered: set[int] = set()  # erased records still waiting for an eraser

    def measure(targets, record):
        time = len(events) + 1
        basis = random_basis(rng, tuple(dims[k] for k in targets))
        events.append(MeasurementEvent(time, f"A{time}", tuple(names[k] for k in targets),
                                       basis, record))
        uncovered.difference_update(targets)
        if record is Record.ERASED:
            ever_erased.update(targets)
            uncovered.update(targets)

    for _ in range(int(rng.integers(2, 6))):
        free = [k for k in range(n_sub) if k not in ever_erased]
        if free and rng.random() < 0.4:
            n_targets = 1 if len(free) == 1 or rng.random() < 0.6 else 2
            slots = sorted(rng.choice(free, size=n_targets, replace=False).tolist())
            tdims = tuple(dims[k] for k in slots)
            events.append(UnitaryEvent(len(events) + 1, tuple(names[k] for k in slots),
                                       Operator(tdims, random_unitary(rng, math.prod(tdims)))))
        elif measured >= 2 and rng.random() < 0.3:
            measure(sorted(rng.choice(measured, size=2, replace=False).tolist()),
                    Record.RETAINED)
        else:
            erase = rng.random() < 0.4
            measure([int(rng.integers(measured))], Record.ERASED if erase else Record.RETAINED)
    for k in sorted(uncovered):
        measure([k], Record.RETAINED)
    if not isinstance(events[-1], MeasurementEvent) or events[-1].record is Record.ERASED:
        measure([int(rng.integers(measured))], Record.RETAINED)
    return Scenario(subsystems, initial, tuple(events))


def erased_qubit_chain(n: int) -> Scenario:
    """One qubit measured n times in random bases; only the last record kept."""
    rng = np.random.default_rng(n)
    events = tuple(
        MeasurementEvent(t, f"A{t}", ("q",), random_basis(rng, (2,)),
                         Record.RETAINED if t == n else Record.ERASED)
        for t in range(1, n + 1)
    )
    return Scenario((SubsystemSpec("q", 2, ("b0", "b1")),), random_state(rng, 2), events)


def random_unrestricted_scenario(seed: int) -> Scenario:
    """2-3 qubits and 3-8 events, one per time step: 40% unitaries on 1-2
    random qubits, the rest measurements on 1-2 qubits in random bases, 40%
    of them erased.  Raises ``ScenarioValidationError`` for an invalid one."""
    rng = np.random.default_rng(seed)
    n_sub = int(rng.integers(2, 4))
    names = tuple(f"q{k}" for k in range(n_sub))
    subsystems = tuple(SubsystemSpec(name, 2, ("0", "1")) for name in names)
    initial = StateVector((2,) * n_sub, random_state(rng, 2**n_sub).amps)  # entangled
    events: list = []
    for time in range(1, int(rng.integers(3, 9)) + 1):
        n_targets = int(rng.integers(1, 3))
        targets = tuple(names[k] for k in sorted(rng.choice(n_sub, n_targets, replace=False)))
        tdims = (2,) * n_targets
        if rng.random() < 0.4:
            events.append(UnitaryEvent(time, targets,
                                       Operator(tdims, random_unitary(rng, 2**n_targets))))
        else:
            record = Record.ERASED if rng.random() < 0.4 else Record.RETAINED
            events.append(MeasurementEvent(time, f"A{time}", targets,
                                           random_basis(rng, tdims), record))
    return Scenario(subsystems, initial, tuple(events))


@functools.cache
def unrestricted_scenarios(seeds: range = range(1000)) -> dict[int, Scenario]:
    """Seed -> the valid scenario ``random_unrestricted_scenario`` gives on it,
    for ``seeds``: 226 of seeds 0-999.  Built once per ``seeds``."""
    valid = {}
    for seed in seeds:
        try:
            valid[seed] = random_unrestricted_scenario(seed)
        except ScenarioValidationError:
            pass
    return valid
