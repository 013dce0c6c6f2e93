"""Dense complex linear algebra for small tensor-product Hilbert spaces.

Everything is dense and double precision, and states are bounded by
``MAX_AMPLITUDES`` (2^24).  All values are immutable after construction
and every operation is pure.

Two tolerances are used throughout the package:

* ``ATOL_STRUCT`` (1e-12) for structural checks (orthonormality, unitarity,
  normalization),
* ``ATOL_PROB`` (1e-9) for engine-to-engine probability comparisons.

A measurement basis is ``Basis(dims, labels, matrix)``: one frozen
side x side matrix whose columns are the vectors in label order.

``StateVector``, ``Operator`` and ``Basis`` compare equal when their
fields are equal and their arrays exactly equal, entry for entry; each
hashes its shape fields only, which equal values share.

Orthonormal columns and unitarity are one check, ``gram_defects``: for a
``(k, d, n)`` stack it makes one stacked Gram product and returns
max|M^H M - I| for each matrix, NaN for a matrix holding a NaN.  A
``Basis`` and ``Operator.unitarity_defect`` apply it to a stack of one; the
``.scn`` parser applies it once per matrix side to every basis and unitary
of a file.  Only a basis that fails it is checked again vector by vector,
to name the first violation.

Before allocating, both engines pass ``check_budget`` the amplitudes and
axes of what they are about to store: ``MAX_AMPLITUDES`` bounds the stored
state, and a step holds its input and its output, so a run peaks near
twice that, 512 MiB (``paths.enumerate_paths`` holds a copy too: three
times).  ``MAX_AXES`` is numpy's limit on an array's axes.

Every state update in both engines makes one ``np.dot``: ``apply_to_slots``
and ``split_slots`` transpose the target axes into place, reshape, make
that ``dot`` and transpose back, so a result may be a non-contiguous view.
Both first check the target axes' lengths, which a reshape would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

ATOL_STRUCT = 1e-12
ATOL_PROB = 1e-9
MAX_AMPLITUDES = 1 << 24  # a stored state, 256 MiB; a run peaks at 2x, enumerate_paths at 3x
# the most axes an ndarray may have: 64 from numpy 2.0, 32 before
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def check_budget(amplitudes: int, axes: int, error: type[ValueError], needs: str,
                 axes_needs: str | None = None) -> None:
    """Raise ``error`` if ``amplitudes`` are over budget, then if ``axes`` are
    over numpy's limit; each message opens with ``needs`` ("stored state
    needs"), the axis one with ``axes_needs`` if it is given."""
    if amplitudes > MAX_AMPLITUDES:
        raise error(f"{needs} {amplitudes} amplitudes, over the budget of {MAX_AMPLITUDES}")
    if axes > MAX_AXES:
        raise error(f"{axes_needs or needs} {axes} axes, over numpy's limit of {MAX_AXES}")


class HilbertError(ValueError):
    """Dimension mismatch or a malformed state/operator/basis."""


def is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def are_names(value) -> bool:
    """Whether ``value`` is a tuple or list of str."""
    return isinstance(value, (tuple, list)) and all([isinstance(x, str) for x in value])


def _frozen_array(data, shape=None) -> np.ndarray:
    """``data`` as a read-only complex array: finite numbers, not bools or strings."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind not in "iufc":
            raise TypeError(f"entries of dtype {arr.dtype} are not numbers")
        arr = np.array(arr, dtype=complex, order="C")
        if shape is not None:
            arr = arr.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise HilbertError(f"bad amplitude data: {exc}") from None
    if not np.isfinite(arr).all():
        raise HilbertError("non-finite amplitude (NaN or Inf)")
    arr.setflags(write=False)
    return arr


def _dims_tuple(dims: Sequence[int]) -> tuple[int, ...]:
    if isinstance(dims, (tuple, list)) and dims and all([is_int(d) and d >= 1 for d in dims]):
        return tuple(dims)
    raise HilbertError(f"invalid subsystem dimensions {dims!r}")


@dataclass(frozen=True, eq=False)  # ``__eq__`` below: ``amps`` is an ndarray
class StateVector:
    """State over a tensor product of subsystems, row-major over ``dims``."""

    dims: tuple[int, ...]
    amps: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.amps, other.amps))

    def __hash__(self):
        return hash(self.dims)

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        object.__setattr__(self, "amps", _frozen_array(self.amps, shape=(math.prod(self.dims),)))

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        """The 2-norm of the amplitudes divided by their largest real or
        imaginary part, times that part, so that no square overflows.
        Computed on first use; the amplitudes are read-only."""
        scale = float(np.abs(self.amps.view(float)).max())
        return scale * float(np.linalg.norm(self.amps / scale)) if scale else 0.0

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= ATOL_STRUCT

    def require_normalized(self, what: str = "state") -> "StateVector":
        if not self.is_normalized():
            raise HilbertError(f"{what} norm is {self.norm():.6g}, expected 1")
        return self

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def allclose(self, other: "StateVector") -> bool:
        return self.dims == other.dims and bool(
            np.allclose(self.amps, other.amps, rtol=0.0, atol=ATOL_STRUCT)
        )


@dataclass(frozen=True, eq=False)  # ``__eq__`` below: ``entries`` is an ndarray
class Operator:
    """Square operator on a tensor product of subsystems, row-major."""

    dims: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash(self.dims)

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        side = math.prod(self.dims)
        entries = _frozen_array(self.entries)
        if entries.shape != (side, side):
            raise HilbertError(
                f"operator entries have shape {entries.shape}, expected {(side, side)}")
        object.__setattr__(self, "entries", entries)

    def unitarity_defect(self) -> float:
        """Max-norm of U^dagger U - I."""
        return float(gram_defects(self.entries[np.newaxis])[0])

    def require_unitary(self, what: str = "operator") -> "Operator":
        defect = self.unitarity_defect()
        if defect > ATOL_STRUCT:
            raise HilbertError(f"{what} is not unitary (defect {defect:.3g})")
        return self


@dataclass(frozen=True, eq=False)  # ``__eq__`` below: ``matrix`` is an ndarray
class Basis:
    """Complete orthonormal measurement basis with one label per vector.

    ``matrix`` is side x side, its columns the vectors in label order, each
    row-major over ``dims``.  A partial basis (fewer vectors than the space
    dimension) is a constructor error; degenerate measurements are not
    modeled.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, Basis):
            return NotImplemented
        return (self.dims == other.dims and self.labels == other.labels
                and bool(np.array_equal(self.matrix, other.matrix)))

    def __hash__(self):
        return hash((self.dims, self.labels))

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims_tuple(self.dims))
        if not are_names(self.labels):
            raise HilbertError(f"basis labels must be a tuple or list of str, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        matrix = _frozen_array(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        side = math.prod(self.dims)
        if matrix.ndim != 2 or matrix.shape[0] != side:
            raise HilbertError(
                f"basis matrix has shape {matrix.shape}, expected {side} rows for dims {self.dims}"
            )
        n = matrix.shape[1]
        if len(self.labels) != n:
            raise HilbertError("basis needs one vector per label")
        if len(set(self.labels)) != len(self.labels):
            raise HilbertError(f"duplicate basis labels in {self.labels!r}")
        if n != side:
            raise HilbertError(f"partial basis: {n} vectors for dimension {side}")
        if report := validate_basis(matrix):
            raise HilbertError(report[0])

    def vector(self, label: str) -> StateVector:
        try:
            k = self.labels.index(label)
        except ValueError:
            raise HilbertError(f"unknown basis label {label!r}") from None
        return StateVector(self.dims, self.matrix[:, k])


def gram_defects(stack: np.ndarray) -> np.ndarray:
    """max|M^H M - I| for each matrix M of a ``(k, d, n)`` stack: how far its
    n columns are from orthonormal, NaN if it holds a NaN."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.matmul(stack.conj().transpose(0, 2, 1), stack)
        gram.reshape(len(gram), -1)[:, :: gram.shape[-1] + 1] -= 1.0
        return np.abs(gram).max(axis=(1, 2), initial=0.0)


def validate_basis(matrix: np.ndarray) -> list[str]:
    """Check the columns of ``matrix`` for orthonormality to 1e-12; return
    violations (empty if ok).

    ``gram_defects`` decides.  Its test is half the tolerance, so a basis it
    passes also passes the per-vector checks, however the two round; a NaN
    fails it.  Only a failed basis is checked vector by vector, norms first
    and then pairs i < j, each violation naming the offending vector or pair
    and the norm or inner product magnitude.  A NaN, which no comparison
    catches, is reported as the first non-finite entry.
    """
    m = np.asarray(matrix)
    if gram_defects(m[np.newaxis])[0] <= ATOL_STRUCT / 2:
        return []
    vectors = m.T.copy()  # contiguous: BLAS may sum a strided vector in another order
    report = []
    with np.errstate(invalid="ignore", over="ignore"):  # a huge vector's norm is inf
        for i, v in enumerate(vectors):
            n = float(np.linalg.norm(v))
            if abs(n - 1.0) > ATOL_STRUCT:
                report.append(f"basis vector {i} has norm {n:.12g}, expected 1")
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                ov = abs(complex(np.vdot(vectors[i], vectors[j])))
                if ov > ATOL_STRUCT:
                    report.append(
                        f"basis vectors {i} and {j} are not orthogonal (|overlap| = {ov:.12g})"
                    )
    bad = np.argwhere(~np.isfinite(m))
    if not report and len(bad):  # a NaN fails the Gram test but no comparison above
        row, col = bad[0]
        report.append(f"basis vector {col} has non-finite entry {m[row, col]} at row {row}")
    return report


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; dims concatenate, amplitudes kron in row-major order."""
    return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.dims != b.dims:
        raise HilbertError(f"inner product dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def apply_to_slots(op_entries: np.ndarray, op_dims: Sequence[int],
                   slots: Sequence[int], state: np.ndarray,
                   in_dims: Sequence[int] | None = None) -> np.ndarray:
    """Apply a small operator to the given axes of a state tensor.

    ``state`` has one axis per subsystem, plus the path engine's batch axis
    last.  The operator's rows run over ``op_dims``, which become those
    axes' lengths in the result, and its columns over ``in_dims`` (default
    ``op_dims``, a square operator), which must be their lengths in
    ``state``.  Avoids ever materializing the embedded full-space matrix.
    """
    op_dims, slots = tuple(op_dims), tuple(slots)
    in_dims = op_dims if in_dims is None else tuple(in_dims)
    order, inverse = _axis_order(state, slots, in_dims)
    moved = state.transpose(order)
    out = np.dot(np.asarray(op_entries).reshape(math.prod(op_dims), math.prod(in_dims)),
                 moved.reshape(math.prod(in_dims), -1))
    return out.reshape(op_dims + moved.shape[len(slots):]).transpose(inverse)


def split_slots(columns: np.ndarray, vec_dims: Sequence[int],
                slots: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Split a batch of B states, held on the last axis of ``state``, on the
    n vectors v_l that are the columns of ``columns``, each row-major over
    ``vec_dims``, the lengths of the axes ``slots``.  Entry l * B + b of the
    result's last axis is v_l (x) <v_l|psi_b>, entry b's projection onto v_l.
    """
    slots = tuple(slots)
    order, inverse = _axis_order(state, slots, tuple(vec_dims))
    moved = state.transpose(order)
    side, n = columns.shape
    coeffs = np.dot(columns.conj().T, moved.reshape(side, -1)).reshape(n, -1, state.shape[-1])
    # C order, so that merging the label and batch axes below is a view
    out = np.multiply(columns[:, np.newaxis, :, np.newaxis], coeffs.transpose(1, 0, 2),
                      order="C")
    return out.reshape(moved.shape[:-1] + (-1,)).transpose(inverse)


def _axis_order(state: np.ndarray, slots: tuple, dims: tuple) -> tuple[tuple, list[int]]:
    """Check the ``slots`` axes' lengths; return the axis order that puts
    ``slots`` first and the others after them in order, and its inverse."""
    shape = state.shape
    found = tuple([shape[x] for x in slots])
    if found != dims:
        raise HilbertError(f"axes {slots} have lengths {found}, expected {dims}")
    order = slots + tuple([x for x in range(len(shape)) if x not in slots])
    inverse = [0] * len(order)  # one pass: axis order[k] goes back to place k
    for k, x in enumerate(order):
        inverse[x] = k
    return order, inverse
