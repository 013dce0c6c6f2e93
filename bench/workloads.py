"""Benchmark inputs and their references, written without importing pathsum.

Each workload is a list of ``Input``: the ``.scn`` text the program reads and
a reference distribution computed here with numpy alone.  Generating the text
here, not through ``pathsum.testing`` or ``serialize_scenario``, keeps a
workload fixed for a given seed when the program's own generators change.

References (outcome tuple -> probability):

* shipped scenarios: their closed-form tables, written as fractions;
* random corpus scenarios: the Born rule over retained measurements only,
  applied in time order; an erased measurement contributes the sum of its
  projectors, which is the identity, so it is skipped;
* ``chain_erased``: the Born rule of the last basis on the initial state;
* ``chain_retained``: |<v1|psi>|^2 * prod_k |<v(k+1)|v(k)>|^2.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("corpus", "chain_erased", "chain_retained")

CORPUS_RANDOM = 200
# The corpus draws its scenario structures from this fixed seed and only the
# numbers from the workload seed, so every seed has the same cost profile
# and op-time quantiles compare across seeds.
CORPUS_SHAPE_SEED = 2021
CHAIN_INPUTS = 8
CHAIN_ERASED_N = 9
CHAIN_RETAINED_N = 10

SHIPPED_DIR = Path("src/pathsum/scenarios")

# retained agents with their labels in event order, then the probabilities in
# row-major order over those labels (the order `pathsum run` prints rows in)
_TWO_WIGNERS = (("Wbar", ("fail_bar", "ok_bar")), ("W", ("fail", "ok")))
_WFS = (("F", ("up", "down")), ("W", ("fail", "ok")))
SHIPPED_TABLES = {
    "2w2f_both_erased": (_TWO_WIGNERS, "9/12 1/12 1/12 1/12"),
    "2w2f_fbar_preserved": (
        (("Fbar", ("heads", "tails")),) + _TWO_WIGNERS,
        "1/12 1/12 1/12 1/12 1/3 0 1/3 0",
    ),
    "2w2f_f_preserved": (
        (("F", ("up", "down")),) + _TWO_WIGNERS,
        "1/12 1/12 1/12 1/12 1/3 1/3 0 0",
    ),
    "2w2f_both_preserved": (
        (("Fbar", ("heads", "tails")), ("F", ("up", "down"))) + _TWO_WIGNERS,
        "0 0 0 0 " + "1/12 " * 12,
    ),
    "double_slit": (_WFS, "9/50 9/50 8/25 8/25"),
    "wfs_case1": (_WFS, "9/50 9/50 8/25 8/25"),
    "wfs_case2": ((("W", ("fail", "ok")),), "49/50 1/50"),
}

Reference = dict[tuple[tuple[str, str], ...], float]


@dataclass(frozen=True)
class Unitary:
    targets: tuple[int, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class Measure:
    agent: str
    targets: tuple[int, ...]
    erased: bool
    labels: tuple[str, ...]
    basis: np.ndarray  # columns are the basis vectors, row-major over targets


@dataclass(frozen=True)
class Spec:
    dims: tuple[int, ...]
    state: np.ndarray  # row-major over dims
    events: tuple  # Unitary | Measure, one per time step 1, 2, ...


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    reference: Reference


def _fmt(z: complex) -> str:
    re, im = repr(float(z.real)), float(z.imag)
    if im == 0.0:
        return re
    return f"{re}{'+' if im > 0 else '-'}{abs(im)!r}i"


def scn_text(spec: Spec) -> str:
    """``.scn`` source for a spec; repr floats parse back bit for bit."""
    lines = [
        f"subsystem s{k} " + " ".join(f"b{j}" for j in range(d))
        for k, d in enumerate(spec.dims)
    ]
    lines.append("state " + " ".join(_fmt(a) for a in spec.state))
    for time, e in enumerate(spec.events, start=1):
        targets = ",".join(f"s{k}" for k in e.targets)
        if isinstance(e, Unitary):
            entries = " ".join(_fmt(z) for z in e.matrix.reshape(-1))
            lines.append(f"unitary {time} {targets} {entries}")
        else:
            record = "erased" if e.erased else "retained"
            groups = " ".join(
                f"{label}: " + " ".join(_fmt(a) for a in e.basis[:, k])
                for k, label in enumerate(e.labels)
            )
            lines.append(f"measure {time} {e.agent} {targets} {record} {groups}")
    return "\n".join(lines) + "\n"


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _measure(rng, time: int, targets, dims, erased: bool) -> Measure:
    side = math.prod(dims[k] for k in targets)
    labels = tuple(f"m{j}" for j in range(side))
    return Measure(f"A{time}", tuple(targets), erased, labels, random_unitary(rng, side))


def random_corpus_spec(shape: np.random.Generator, values: np.random.Generator) -> Spec:
    """1-3 subsystems of dimension 2-3, product initial state, <= 4 events.

    Every subsystem ends in a retained measurement (sometimes a joint one on
    a pair), before which come up to four unitaries or single-subsystem
    measurements, 45% of them erased.  No unitary touches a subsystem that
    holds an erased record, so each erasure stays realizable.  ``shape``
    draws the structure and ``values`` the states, unitaries and bases.
    """
    n_sub = int(shape.integers(1, 4))
    dims = tuple(int(shape.integers(2, 4)) for _ in range(n_sub))
    state = np.ones(1, dtype=complex)
    for d in dims:
        state = np.kron(state, random_state(values, d))

    order = [int(k) for k in shape.permutation(n_sub)]
    tail = []
    while order:
        if len(order) >= 2 and shape.random() < 0.3:
            tail.append((order.pop(), order.pop()))
        else:
            tail.append((order.pop(),))

    events: list = []
    holds_erased: set[int] = set()
    for _ in range(int(shape.integers(0, 4 - len(tail) + 1))):
        time = len(events) + 1
        free = [k for k in range(n_sub) if k not in holds_erased]
        if shape.random() < 0.35 and free:
            n_targets = 1 if len(free) == 1 or shape.random() < 0.5 else 2
            targets = sorted(int(k) for k in shape.choice(free, size=n_targets, replace=False))
            side = math.prod(dims[k] for k in targets)
            events.append(Unitary(tuple(targets), random_unitary(values, side)))
        else:
            k = int(shape.integers(0, n_sub))
            erased = bool(shape.random() < 0.45)
            events.append(_measure(values, time, (k,), dims, erased))
            if erased:
                holds_erased.add(k)
    for group in tail:
        events.append(_measure(values, len(events) + 1, group, dims, False))
    return Spec(dims, state, tuple(events))


def chain_spec(rng: np.random.Generator, n: int, retain_all: bool) -> Spec:
    """One qubit measured ``n`` times in random bases; only the last record
    is kept unless ``retain_all``."""
    events = tuple(
        _measure(rng, t, (0,), (2,), erased=not retain_all and t < n)
        for t in range(1, n + 1)
    )
    return Spec((2,), random_state(rng, 2), events)


def _apply(matrix: np.ndarray, targets, dims, psi: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to the ``targets`` axes of ``psi`` (shape ``dims``)."""
    moved = np.moveaxis(psi, targets, range(len(targets)))
    flat = matrix @ moved.reshape(matrix.shape[0], -1)
    return np.moveaxis(flat.reshape(moved.shape), range(len(targets)), targets)


def born_reference(spec: Spec) -> Reference:
    branches = {(): spec.state.reshape(spec.dims)}
    for e in spec.events:
        if isinstance(e, Unitary):
            branches = {k: _apply(e.matrix, e.targets, spec.dims, v) for k, v in branches.items()}
        elif not e.erased:
            projectors = [np.outer(e.basis[:, j], e.basis[:, j].conj())
                          for j in range(len(e.labels))]
            branches = {
                key + ((e.agent, label),): _apply(p, e.targets, spec.dims, v)
                for key, v in branches.items()
                for label, p in zip(e.labels, projectors)
            }
    return {key: float(np.vdot(v, v).real) for key, v in branches.items()}


def chain_reference(spec: Spec) -> Reference:
    measures = spec.events
    last = measures[-1]
    if any(m.erased for m in measures):
        # every record but the last erased: the erased projectors sum to I
        p = np.abs(last.basis.conj().T @ spec.state) ** 2
        return {((last.agent, lab),): float(w) for lab, w in zip(last.labels, p)}
    p = np.abs(measures[0].basis.conj().T @ spec.state) ** 2
    for prev, nxt in zip(measures, measures[1:]):
        step = np.abs(nxt.basis.conj().T @ prev.basis) ** 2  # [next, prev]
        p = p[..., None] * step.T
    keys = itertools.product(*[[(m.agent, lab) for lab in m.labels] for m in measures])
    return dict(zip(keys, p.reshape(-1).tolist()))


def shipped_reference(name: str) -> Reference:
    agents, table = SHIPPED_TABLES[name]
    keys = itertools.product(*[[(a, lab) for lab in labels] for a, labels in agents])
    return {k: float(Fraction(f)) for k, f in zip(keys, table.split())}


def generate(workload: str, seed: int, corpus_random: int = CORPUS_RANDOM,
             chain_inputs: int = CHAIN_INPUTS, chain_erased_n: int = CHAIN_ERASED_N,
             chain_retained_n: int = CHAIN_RETAINED_N) -> list[Input]:
    """The workload's inputs for ``seed``; sizes are overridable for checks."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "corpus":
        out = [
            Input(f"{name}.scn", (SHIPPED_DIR / f"{name}.scn").read_text("utf-8"),
                  shipped_reference(name))
            for name in SHIPPED_TABLES
        ]
        shape = np.random.default_rng(CORPUS_SHAPE_SEED)
        for k in range(corpus_random):
            spec = random_corpus_spec(shape, rng)
            out.append(Input(f"random{k:03d}.scn", scn_text(spec), born_reference(spec)))
        return out
    retain_all = workload == "chain_retained"
    n = chain_retained_n if retain_all else chain_erased_n
    out = []
    for k in range(chain_inputs):
        spec = chain_spec(rng, n, retain_all)
        out.append(Input(f"chain{k}.scn", scn_text(spec), chain_reference(spec)))
    return out


def digest(inputs: list[Input]) -> str:
    """sha256 over the input names and texts, in order."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(inp.name.encode() + b"\0" + inp.text.encode() + b"\0")
    return h.hexdigest()
