"""Dense complex linear algebra for small tensor-product Hilbert spaces.

Everything is dense and double precision, and states are bounded by
``MAX_AMPLITUDES`` (2^24).  All values are immutable after construction
and every operation is pure.

Two tolerances are used throughout the package:

* ``ATOL_STRUCT`` (1e-12) for structural checks (orthonormality, unitarity,
  normalization),
* ``ATOL_PROB`` (1e-9) for engine-to-engine probability comparisons.

``MAX_AMPLITUDES`` bounds the path engine's batched branch states and the
oracle's dilated state; both check it before allocating.  The oracle
counts the full dilated dims, although it stores less (see ``oracle``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ATOL_STRUCT = 1e-12
ATOL_PROB = 1e-9
MAX_AMPLITUDES = 1 << 24  # 256 MiB of complex128


class HilbertError(ValueError):
    """Dimension mismatch or a malformed state/operator/basis."""


def _frozen_array(data, shape=None) -> np.ndarray:
    try:
        arr = np.array(data, dtype=complex)
        if shape is not None:
            arr = arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise HilbertError(f"bad amplitude data: {exc}") from None
    if not np.all(np.isfinite(arr.view(float))):
        raise HilbertError("non-finite amplitude (NaN or Inf)")
    arr.setflags(write=False)
    return arr


def _dims_tuple(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise HilbertError(f"invalid subsystem dimensions {out!r}")
    return out


@dataclass(frozen=True)
class StateVector:
    """State over a tensor product of subsystems, row-major over ``dims``."""

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        amps = _frozen_array(self.amps, shape=(math.prod(self.dims),))
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, atol: float = ATOL_STRUCT) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def require_normalized(self, what: str = "state") -> "StateVector":
        if not self.is_normalized():
            raise HilbertError(f"{what} norm is {self.norm():.6g}, expected 1")
        return self

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def allclose(self, other: "StateVector", atol: float = ATOL_STRUCT) -> bool:
        return self.dims == other.dims and bool(
            np.allclose(self.amps, other.amps, rtol=0.0, atol=atol)
        )


@dataclass(frozen=True)
class Operator:
    """Square operator on a tensor product of subsystems, row-major."""

    dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        side = math.prod(self.dims)
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (side, side):
            raise HilbertError(
                f"operator entries have shape {entries.shape}, expected {(side, side)}"
            )
        object.__setattr__(self, "entries", _frozen_array(entries))

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def unitarity_defect(self) -> float:
        """Max-norm of U^dagger U - I."""
        eye = np.eye(self.side)
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - eye)))

    def require_unitary(self, what: str = "operator") -> "Operator":
        defect = self.unitarity_defect()
        if defect > ATOL_STRUCT:
            raise HilbertError(f"{what} is not unitary (defect {defect:.3g})")
        return self


@dataclass(frozen=True)
class Basis:
    """Complete orthonormal measurement basis with one label per vector.

    A partial basis (fewer vectors than the space dimension) is a
    constructor error; degenerate measurements are not modeled.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "vectors", tuple(self.vectors))
        side = math.prod(self.dims)
        if len(self.labels) != len(self.vectors):
            raise HilbertError("basis needs one vector per label")
        if len(set(self.labels)) != len(self.labels):
            raise HilbertError(f"duplicate basis labels in {self.labels!r}")
        if len(self.vectors) != side:
            raise HilbertError(
                f"partial basis: {len(self.vectors)} vectors for dimension {side}"
            )
        for v in self.vectors:
            if v.dims != self.dims:
                raise HilbertError(
                    f"basis vector dims {v.dims} do not match basis dims {self.dims}"
                )
        report = validate_basis(self)
        if report:
            raise HilbertError(report[0])

    def matrix(self) -> np.ndarray:
        """Vectors as columns, in label order."""
        return np.column_stack([v.amps for v in self.vectors])

    def vector(self, label: str) -> StateVector:
        try:
            return self.vectors[self.labels.index(label)]
        except ValueError:
            raise HilbertError(f"unknown basis label {label!r}") from None


def validate_basis(b: Basis | Sequence[StateVector]) -> list[str]:
    """Check pairwise orthonormality to 1e-12; return violations (empty if ok).

    Each violation names the offending pair and the inner product magnitude.
    """
    vectors = b.vectors if isinstance(b, Basis) else tuple(b)
    report = []
    for i, v in enumerate(vectors):
        n = v.norm()
        if abs(n - 1.0) > ATOL_STRUCT:
            report.append(f"basis vector {i} has norm {n:.12g}, expected 1")
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            ov = abs(inner(vectors[i], vectors[j]))
            if ov > ATOL_STRUCT:
                report.append(
                    f"basis vectors {i} and {j} are not orthogonal (|overlap| = {ov:.12g})"
                )
    return report


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; dims concatenate, amplitudes kron in row-major order."""
    return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))


def tensor_many(states: Sequence[StateVector]) -> StateVector:
    if not states:
        raise HilbertError("tensor_many needs at least one state")
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.dims != b.dims:
        raise HilbertError(f"inner product dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def apply_to_slots(op_entries: np.ndarray, op_dims: Sequence[int],
                   slots: Sequence[int], state: np.ndarray,
                   in_dims: Sequence[int] | None = None) -> np.ndarray:
    """Apply a small operator to the given axes of a state tensor.

    ``state`` is the full state reshaped to its dims tuple.  The operator's
    rows run over ``op_dims``, which become those axes' lengths in the
    result, and its columns over ``in_dims`` (default ``op_dims``, a square
    operator), which must be their lengths in ``state``.  Avoids ever
    materializing the embedded full-space matrix.
    """
    op_dims, slots = tuple(op_dims), tuple(slots)
    in_dims = op_dims if in_dims is None else tuple(in_dims)
    k = len(op_dims)
    op_t = np.asarray(op_entries).reshape(op_dims + in_dims)
    moved = np.tensordot(op_t, state, axes=(tuple(range(k, 2 * k)), slots))
    # tensordot puts the operator's output axes first; restore positions
    return np.moveaxis(moved, tuple(range(k)), slots)


def project_slots(vec: np.ndarray, vec_dims: Sequence[int],
                  slots: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Contract <vec| over ``slots`` of a state tensor.

    Returns the (unnormalized) remainder tensor on the other axes, in their
    original relative order.
    """
    v = np.asarray(vec).reshape(tuple(vec_dims))
    return np.tensordot(v.conj(), state, axes=(tuple(range(v.ndim)), tuple(slots)))


def insert_slots(vec: np.ndarray, vec_dims: Sequence[int],
                 slots: Sequence[int], remainder: np.ndarray) -> np.ndarray:
    """Inverse of :func:`project_slots`: tensor ``vec`` back onto ``slots``."""
    v = np.asarray(vec).reshape(tuple(vec_dims))
    out = np.multiply.outer(v, remainder)
    return np.moveaxis(out, tuple(range(v.ndim)), tuple(slots))
