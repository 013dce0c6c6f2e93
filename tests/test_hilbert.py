import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum.hilbert import (
    ATOL_STRUCT,
    Basis,
    HilbertError,
    Operator,
    StateVector,
    apply_to_slots,
    gram_defects,
    inner,
    split_slots,
    tensor,
    validate_basis,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def identity(dims):
    return Operator(tuple(dims), np.eye(math.prod(dims)))


def embed(op, target_slots, full_dims):
    """The full-space matrix of ``op`` acting on ``target_slots`` of
    ``full_dims`` and as identity elsewhere: ``apply_to_slots`` on every
    basis vector at once."""
    full_dims, slots = tuple(full_dims), tuple(target_slots)
    if len(set(slots)) != len(slots) or tuple(full_dims[s] for s in slots) != op.dims:
        raise HilbertError(f"operator dims {op.dims} do not match slots {slots!r} of {full_dims}")
    side = math.prod(full_dims)
    eye = np.eye(side).reshape(full_dims + full_dims)
    return Operator(full_dims, apply_to_slots(op.entries, op.dims, slots, eye).reshape(side, side))


def q(*amps):
    return StateVector((2,), list(amps))


def columns(*vectors):
    """The basis matrix whose columns are ``vectors``."""
    return np.column_stack([v.amps for v in vectors])


def coin_spin_u():
    return Operator(
        (2, 2),
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, SQ2, SQ2],
            [0, 0, -SQ2, SQ2],
        ],
    )


unit_complex = st.builds(
    lambda m, p: m * np.exp(1j * p),
    st.floats(0.1, 1.0),
    st.floats(0.0, 2 * math.pi),
)


def random_pair(draw_re):
    z = np.array(draw_re[:2]) + 1j * np.array(draw_re[2:])
    n = np.linalg.norm(z)
    return z / n if n > 1e-6 else np.array([1.0, 0.0])


qubitish = st.builds(
    random_pair,
    st.lists(st.floats(-1, 1), min_size=4, max_size=4),
)


class TestStateVector:
    def test_length_must_match_dims(self):
        with pytest.raises(HilbertError):
            StateVector((2, 2), [1, 0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(HilbertError, match="non-finite"):
            StateVector((2,), [float("nan"), 0])
        with pytest.raises(HilbertError, match="non-finite"):
            StateVector((2,), [float("inf"), 0])

    def test_amps_are_immutable(self):
        v = q(1, 0)
        with pytest.raises(ValueError):
            v.amps[0] = 2.0


class TestTensor:
    def test_computational_basis(self):
        out = tensor(q(1, 0), q(1, 0))
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amps, [1, 0, 0, 0], atol=1e-15)

    def test_coin_spin_preparation(self):
        # [(1/sqrt3)|h> + (sqrt2/sqrt3)|t>] x |down>, row-major (h up, h down, t up, t down)
        coin = q(SQ3, math.sqrt(2) * SQ3)
        spin = q(0, 1)
        out = tensor(coin, spin)
        np.testing.assert_allclose(
            out.amps, [0, SQ3, 0, math.sqrt(2) * SQ3], atol=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(qubitish, qubitish)
    def test_norm_multiplicative(self, a, b):
        out = tensor(StateVector((2,), a), StateVector((2,), b))
        assert abs(inner(out, out) - 1.0) <= 1e-12


class TestInner:
    def test_identity_overlap(self):
        assert inner(q(1, 0), q(1, 0)) == pytest.approx(1.0)

    def test_conjugates_first_argument(self):
        alpha = 0.6 * np.exp(0.3j)
        beta = 0.8 * np.exp(-1.1j)
        fail = q(alpha, beta)
        up = q(1, 0)
        assert inner(fail, up) == pytest.approx(np.conj(alpha))

    @settings(max_examples=50, deadline=None)
    @given(qubitish, qubitish)
    def test_hermitian_symmetry(self, a, b):
        va, vb = StateVector((2,), a), StateVector((2,), b)
        assert inner(va, vb) == pytest.approx(np.conj(inner(vb, va)))

    def test_dim_mismatch(self):
        with pytest.raises(HilbertError):
            inner(q(1, 0), StateVector((3,), [1, 0, 0]))


class TestApplyEmbed:
    def test_identity_application(self):
        psi = q(0.6, 0.8)
        np.testing.assert_allclose(identity((2,)).entries @ psi.amps, psi.amps)

    def test_identity_embeds_to_identity(self):
        out = embed(identity((2,)), (0,), (2, 2))
        np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-15)

    def test_coin_controlled_rotation_blocks(self):
        u = coin_spin_u()
        # identity block on heads, rotation (1 + |u><d| - |d><u|)/sqrt2 on tails
        np.testing.assert_allclose(u.entries[:2, :2], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            u.entries[2:, 2:], [[SQ2, SQ2], [-SQ2, SQ2]], atol=1e-15
        )
        assert u.unitarity_defect() <= 1e-12

    def test_rotation_sends_tails_down_to_superposition(self):
        psi = tensor(q(0, 1), q(0, 1))  # |tails, down>
        out = coin_spin_u().entries @ psi.amps
        np.testing.assert_allclose(out, [0, 0, SQ2, SQ2], atol=1e-15)

    def test_rotation_leaves_heads_down_alone(self):
        psi = tensor(q(1, 0), q(0, 1))  # |heads, down>
        out = coin_spin_u().entries @ psi.amps
        np.testing.assert_allclose(out, psi.amps, atol=1e-15)

    def test_embed_then_embed_equals_single_step(self):
        u = Operator((2,), [[SQ2, SQ2], [SQ2, -SQ2]])
        once = embed(u, (1,), (2, 2, 2))
        inner_op = embed(u, (1,), (2, 2))
        twice = embed(inner_op, (0, 1), (2, 2, 2))
        np.testing.assert_allclose(once.entries, twice.entries, atol=1e-14)

    def test_embed_out_of_order_slots(self):
        # operator written for (spin, coin) order embedded into (coin, spin)
        u = coin_spin_u()
        swapped = embed(u, (1, 0), (2, 2))
        psi = tensor(q(0, 1), q(0, 1))  # slot0=spin down, slot1=coin tails
        out = swapped.entries @ psi.amps
        # tails controls the rotation of slot 0
        np.testing.assert_allclose(out, [0, SQ2, 0, SQ2], atol=1e-15)

    def test_embed_slot_mismatch(self):
        with pytest.raises(HilbertError):
            embed(identity((3,)), (0,), (2, 2))

    @settings(max_examples=40, deadline=None)
    @given(qubitish, st.integers(0, 10 ** 6))
    def test_unitaries_preserve_norm(self, amps, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        psi = StateVector((2,), amps)
        out = Operator((2,), u).entries @ psi.amps
        assert abs(np.linalg.norm(out) - psi.norm()) <= 1e-12


def _subscripts(ndim, slots):
    """einsum letters: the state's axes, its ``slots`` axes, their new
    letters, and the state's axes with ``slots`` renamed to those."""
    sub, outs = "abcdefgh"[:ndim], "PQRS"[:len(slots)]
    result = list(sub)
    for x, letter in zip(slots, outs):
        result[x] = letter
    return sub, "".join(sub[x] for x in slots), outs, "".join(result)


def dense_apply(op_entries, op_dims, slots, state, in_dims):
    """``apply_to_slots`` by its definition, one explicit einsum."""
    sub, ins, outs, result = _subscripts(state.ndim, slots)
    op = np.asarray(op_entries).reshape(tuple(op_dims) + tuple(in_dims))
    return np.einsum(f"{outs}{ins},{sub}->{result}", op, state)


def dense_split(columns, vec_dims, slots, state):
    """``split_slots`` by its definition: with the batch on the last axis,
    entry (l, b) is v_l (x) <v_l|psi_b>."""
    sub, ins, outs, result = _subscripts(state.ndim, slots)
    v = np.asarray(columns).reshape(tuple(vec_dims) + (columns.shape[1],))
    out = np.einsum(f"{outs}L,{ins}L,{sub}->{result[:-1]}L{sub[-1]}", v, v.conj(), state)
    return out.reshape(out.shape[:-2] + (-1,))


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKernels:
    """``apply_to_slots`` and ``split_slots`` against explicit einsums, which
    share no code with them."""

    def test_apply_matches_dense_definition(self):
        rng = np.random.default_rng(0)
        orders = set()
        for _ in range(400):
            k = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(k, 6))))
            slots = tuple(int(x) for x in rng.permutation(len(dims))[:k])
            op_dims = tuple(dims[x] for x in slots)
            side = math.prod(op_dims)
            op, state = random_complex(rng, (side, side)), random_complex(rng, dims)
            got = apply_to_slots(op, op_dims, slots, state)
            np.testing.assert_allclose(got, dense_apply(op, op_dims, slots, state, op_dims),
                                       rtol=1e-13, atol=1e-13)
            orders.add("sorted" if list(slots) == sorted(slots) else
                       "reversed" if list(slots) == sorted(slots, reverse=True) else "mixed")
        assert orders == {"sorted", "reversed", "mixed"}

    @pytest.mark.parametrize("dims, slots", [((3, 1, 2), (1, 0)), ((2, 4, 1), (2, 0, 1)),
                                             ((1, 3), (0, 1))])
    def test_rectangular_fire_block(self, dims, slots):
        # a length-1 pointer fired to n levels, and its conjugate transpose back
        rng = np.random.default_rng(1)
        n, targets = 3, tuple(dims[x] for x in slots[1:])
        fired, idle = (n,) + targets, (1,) + targets
        block = random_complex(rng, (math.prod(fired), math.prod(idle)))
        state = random_complex(rng, dims)
        up = apply_to_slots(block, fired, slots, state, idle)
        np.testing.assert_allclose(up, dense_apply(block, fired, slots, state, idle),
                                   rtol=1e-13, atol=1e-13)
        down = apply_to_slots(block.conj().T, idle, slots, up, fired)
        np.testing.assert_allclose(down, dense_apply(block.conj().T, idle, slots, up, fired),
                                   rtol=1e-13, atol=1e-13)
        assert down.shape == state.shape

    def test_split_matches_dense_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(k, 5))))
            slots = tuple(int(x) for x in rng.permutation(len(dims))[:k])
            vec_dims = tuple(dims[x] for x in slots)
            side = math.prod(vec_dims)
            u, _ = np.linalg.qr(random_complex(rng, (side, side)))
            # a subset of the labels, in an order other than the basis order
            columns = u[:, rng.permutation(side)[:int(rng.integers(1, side + 1))]]
            state = random_complex(rng, dims + (int(rng.integers(1, 5)),))
            got = split_slots(columns, vec_dims, slots, state)
            np.testing.assert_allclose(got, dense_split(columns, vec_dims, slots, state),
                                       rtol=1e-13, atol=1e-13)

    def test_swapped_axis_lengths_raise(self):
        # a reshape alone would take (3, 2) axes as (2, 3)
        state = np.ones((3, 2))
        with pytest.raises(HilbertError, match=r"axes \(0, 1\) have lengths \(3, 2\), "
                                               r"expected \(2, 3\)"):
            apply_to_slots(np.eye(6), (2, 3), (0, 1), state)
        with pytest.raises(HilbertError, match="expected"):
            split_slots(np.eye(6), (2, 3), (0, 1), state[..., np.newaxis])
        with pytest.raises(HilbertError, match="expected"):
            apply_to_slots(np.ones((6, 3)), (3, 2), (0, 1), state, (3, 1))


class TestBasisValidation:
    def test_up_down_ok(self):
        assert validate_basis(columns(q(1, 0), q(0, 1))) == []

    def test_half_sum_half_difference_ok(self):
        assert validate_basis(columns(q(SQ2, SQ2), q(SQ2, -SQ2))) == []

    def test_duplicate_vector_reports_pair_and_overlap(self):
        report = validate_basis(columns(q(1, 0), q(1, 0)))
        assert any("0 and 1" in line and "1" in line for line in report)

    def test_unnormalized_vector_reported(self):
        report = validate_basis(columns(q(1, 1), q(0, 1)))
        assert any("norm" in line for line in report)

    def test_nan_entry_reported(self):
        # every comparison with a NaN is false, so only the entry itself can report it
        report = validate_basis(np.array([[math.nan, 0], [0, 1]]))
        assert report == ["basis vector 0 has non-finite entry nan at row 0"]

    def test_partial_basis_is_constructor_error(self):
        with pytest.raises(HilbertError, match="partial"):
            Basis((2,), ("only",), columns(q(1, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(HilbertError, match="duplicate"):
            Basis((2,), ("a", "a"), columns(q(1, 0), q(0, 1)))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, math.pi / 2 - 0.05), st.floats(0, 2 * math.pi),
           st.floats(0, 2 * math.pi))
    def test_unit_modulus_rotated_pairs_accepted(self, theta, p1, p2):
        # second row gamma = conj(beta), delta = -conj(alpha) is orthonormal
        alpha = math.cos(theta) * np.exp(1j * p1)
        beta = math.sin(theta) * np.exp(1j * p2)
        gamma, delta = np.conj(beta), -np.conj(alpha)
        assert alpha * np.conj(gamma) + beta * np.conj(delta) == pytest.approx(0.0, abs=1e-12)
        assert validate_basis(columns(q(alpha, beta), q(gamma, delta))) == []

    def test_non_orthogonal_rotated_pair_rejected(self):
        report = validate_basis(columns(q(0.6, 0.8), q(0.8, 0.6)))
        assert report and "orthogonal" in report[0]


class TestGramDefects:
    """One stacked Gram product gives each matrix the defect its own check
    computes."""

    @pytest.mark.parametrize("side, k", [(1, 3), (2, 9), (3, 5), (12, 4)])
    def test_stack_equals_per_matrix_checks(self, side, k):
        rng = np.random.default_rng(side * 100 + k)
        stack = []
        for j in range(k):
            shape = (side, side)
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            if j % 3 < 2:  # unitary, and for j % 3 == 1 perturbed past the tolerance
                m = np.linalg.qr(m)[0] + (j % 3) * 1e-7 * rng.normal(size=shape)
            stack.append(m)
        defects = gram_defects(np.array(stack))
        for m, defect in zip(stack, defects):
            assert defect == Operator((side,), m).unitarity_defect()
            assert (validate_basis(m) == []) == (defect <= ATOL_STRUCT / 2)

    def test_nan_fails_its_matrix_only(self):
        stack = np.array([np.eye(2), [[np.nan, 0], [0, 1]], [[0, 1j], [1, 0]]], dtype=complex)
        assert (gram_defects(stack) <= ATOL_STRUCT).tolist() == [True, False, True]


class TestOperator:
    def test_non_square_rejected(self):
        with pytest.raises(HilbertError):
            Operator((2,), [[1, 0, 0], [0, 1, 0]])

    def test_unitarity_defect(self):
        assert identity((2, 2)).unitarity_defect() <= 1e-15
        skew = Operator((2,), [[1, 0], [0.1, 1]])
        assert skew.unitarity_defect() > 1e-12
        with pytest.raises(HilbertError, match="not unitary"):
            skew.require_unitary()
