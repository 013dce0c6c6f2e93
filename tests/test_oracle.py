import functools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum import cli, library, oracle, paths, scenario
from pathsum.hilbert import (MAX_AMPLITUDES, MAX_AXES, Basis, Operator, StateVector,
                             apply_to_slots, check_budget)
from pathsum.oracle import (
    OracleError,
    dilate,
    distribution,
    evolve,
    inspect_record,
    joint_probability,
)
from pathsum.paths import PathEngineError
from pathsum.scenario import (
    MeasurementEvent,
    Record,
    RecordErasedError,
    Scenario,
    SubsystemSpec,
    UnitaryEvent,
    parse_scenario,
    serialize_scenario,
)
from pathsum.testing import (
    erased_qubit_chain,
    random_basis,
    random_scenario,
    random_state,
    random_unitary,
    random_unpinned_scenario,
    unrestricted_scenarios,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
ALPHA, BETA, GAMMA, DELTA = library.HADAMARD
S0 = library.GENERIC_S0


def _reversed_lifts(s):
    """Erased event index -> the time of the unitary that reversed its lift."""
    return s.erasures(OracleError)[1]


def amp(j, i, s0):
    """A(j <- i <- s0) for the two-level system with no own dynamics."""
    overlaps = {"fail": (ALPHA, BETA), "ok": (GAMMA, DELTA)}
    idx = {"up": 0, "down": 1}
    return np.conj(overlaps[j][idx[i]]) * s0[idx[i]]


class TestDilate:
    def test_one_ancilla_per_measurement(self):
        d = dilate(library.two_wigners(library.RegimeTag.BOTH_ERASED))
        assert len(d.ancillas) == 4
        assert d.dims == (2, 2, 3, 3, 3, 3)

    def test_single_measurement_adds_exactly_one_ancilla(self):
        s = parse_scenario(
            "subsystem sys up down\nstate 0.6 0.8\n"
            "measure 1 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
        )
        d = dilate(s)
        assert len(d.ancillas) == 1
        assert d.dims == (2, 3)

    def test_couplings_are_unitary(self):
        d = dilate(library.two_wigners(library.RegimeTag.F_PRESERVED))
        for plan in d.couplings:
            m = dense_coupling(plan)
            defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            assert defect <= 1e-12

    def test_erasure_map_points_at_the_eraser(self):
        s = library.wfs("II")
        d = dilate(s)
        (erased_event, _), = s.erased()
        eraser = s.events[d.base.erasers()[erased_event]]
        assert eraser.agent == "W"

    def test_erasure_basis_entangles_pointer_with_branch(self):
        # composite vectors alpha |D(up)> x |up> + beta |D(down)> x |down>
        d = dilate(library.wfs("II"))
        fail_col = d.erasure_basis(next(iter(d.base.erasers())))[:, 0]
        # axes (ancilla dim 3, system dim 2); pointer up = 1, down = 2
        expected = np.zeros(6, dtype=complex)
        expected[2] = ALPHA  # (ptr=up, sys=up)
        expected[5] = BETA  # (ptr=down, sys=down)
        np.testing.assert_allclose(fail_col, expected, atol=1e-12)

    def test_consumed_lifts_keep_their_order(self):
        # W erases F's and G's records and V erases W's: a plan stores only
        # its direct lifts, and the chain in application order puts each lift
        # before what it consumed, while the pointer slots put it after
        standard = " ".join(f"w{k}: " + " ".join("1" if j == k else "0" for j in range(4))
                            for k in range(4))
        s = parse_scenario(
            "subsystem a up down\nsubsystem b up down\nstate 0.6 0 0 0.8\n"
            "measure 1 F a erased up: 1 0 down: 0 1\n"
            "measure 2 G b erased up: 1 0 down: 0 1\n"
            f"measure 3 W a,b erased {standard}\n"
            f"measure 4 V a,b retained {standard}\n"
        )
        v = dilate(s).couplings[-1]
        assert [p.event_index for p in v.lifts] == [2]
        assert [p.event_index for p in v.chain] == [3, 2, 0, 1]
        assert v.consumed_anc_slots == (2, 3, 4)
        assert v.consumed_ops == ((4, 0, 1), (2, 0), (3, 1))


class TestEvolve:
    def test_norm_conserved_at_every_boundary(self):
        s = library.two_wigners(library.RegimeTag.BOTH_ERASED)
        d = dilate(s)
        for t in range(1, 6):
            st = evolve(d, upto_time=t)
            assert st.psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_identity_only_prefix_leaves_ancillas_untriggered(self):
        s = parse_scenario(
            "subsystem sys up down\nstate 0.6 0.8\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
        )
        d = dilate(s)
        st = evolve(d, upto_time=0)
        tensor = st.psi.as_tensor()
        np.testing.assert_allclose(tensor[:, 0], [0.6, 0.8], atol=1e-15)
        assert np.linalg.norm(tensor[:, 1:]) == pytest.approx(0.0, abs=1e-15)

    def test_state_before_observers_has_no_heads_up_branch(self):
        s = library.two_wigners(library.RegimeTag.BOTH_PRESERVED)
        st = evolve(dilate(s), upto_time=3)
        psi = st.psi.as_tensor()  # axes: coin, spin, DFbar, DF, DWbar, DW
        assert psi[0, 0, 1, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)
        for idx in ((0, 1, 1, 2, 0, 0), (1, 0, 2, 1, 0, 0), (1, 1, 2, 2, 0, 0)):
            assert psi[idx] == pytest.approx(SQ3, abs=1e-12)

    # the Hadamard on F's record does not commute with its projectors, but
    # acts inside W's targets: W measures in the basis of H L H^dagger
    REVERSED = (
        "subsystem sys up down\n"
        "state 0.6 0.8\n"
        "measure 1 F sys erased up: 1 0 down: 0 1\n"
        "unitary 2 sys 1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)\n"
        "measure 3 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
    )
    # a CNOT from an ancilla in |+> spreads F's record before W, which measures only sys
    SPREAD = (
        "subsystem anc a0 a1\n"
        "subsystem sys up down\n"
        "state 0.6/sqrt(2) 0.8/sqrt(2) 0.6/sqrt(2) 0.8/sqrt(2)\n"
        "measure 1 F sys erased up: 1 0 down: 0 1\n"
        "unitary 2 anc,sys 1 0 0 0 0 1 0 0 0 0 0 1 0 0 1 0\n"
        "measure 3 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
    )

    def test_record_moved_inside_its_eraser_is_answered(self):
        s = parse_scenario(self.REVERSED)
        pd, od = paths.distribution(s), distribution(s)
        assert cli.equivalence_delta(pd, od) <= 1e-9
        # the Hadamard maps W's basis vectors to up and down: fail 0.36, ok 0.64
        assert od.probability({"W": "fail"}) == pytest.approx(0.36, abs=1e-12)
        _assert_eager_distribution(s)

    def test_evolve_refuses_past_the_unitary_that_reversed_the_lift(self):
        s = parse_scenario(self.REVERSED)
        assert cli.equivalence_delta(paths.distribution(s), distribution(s)) <= 1e-9
        d = dilate(s)
        assert _reversed_lifts(s) == {0: 2}
        message = "the unitary at time 2 reversed the lift of 'F''s erased record"
        np.testing.assert_allclose(evolve(d, upto_time=1).psi.as_tensor(), eager_evolve(d, 1),
                                   rtol=0, atol=1e-12)
        for t in (2, 3, None):
            with pytest.raises(OracleError) as info:
                evolve(d, upto_time=t)
            assert str(info.value) == message
        with pytest.raises(OracleError) as info:
            d.erasure_basis(0)
        assert str(info.value) == message

    def test_record_spread_outside_its_eraser_is_refused_by_dilate(self):
        # the CNOT does not commute with F's projectors, and the ancilla lies
        # outside W's targets
        s = parse_scenario(self.SPREAD)
        tracemalloc.start()
        try:
            with pytest.raises(OracleError) as info:
                dilate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(info.value) == (
            "erased record was disturbed before 'W''s measurement by the unitary at time 2 "
            "(commutator residual 1.41), and the unitary at time 2 acts on its support beyond "
            "its targets; this erasure is not realizable")
        with pytest.raises(OracleError, match="was disturbed"):
            distribution(s)
        _assert_paths_refuse(s, str(info.value))

    # F's record on a, with b in |+>; a CNOT from b onto a, inside W's targets
    # a and b, moves the record onto both before W measures them
    MOVED_ONTO_B = (
        "subsystem a up down\nsubsystem b up down\nsubsystem c up down\n"
        "state 0.3 0.3 0.3 0.3 0.4 0.4 0.4 0.4\n"
        "measure 1 F a erased up: 1 0 down: 0 1\n"
        "unitary 2 a,b 1 0 0 0 0 0 0 1 0 0 1 0 0 1 0 0\n"
    )
    W_ON_AB = "measure 4 W a,b retained w1: 1 0 0 0 w2: 0 1 0 0 w3: 0 0 1 0 w4: 0 0 0 1\n"

    def test_record_moved_onto_the_erasers_targets_is_answered(self):
        s = parse_scenario(self.MOVED_ONTO_B + self.W_ON_AB)
        assert _reversed_lifts(s) == {0: 2}
        assert cli.equivalence_delta(paths.distribution(s), distribution(s)) <= 1e-9
        _assert_eager_distribution(s)

    @pytest.mark.parametrize("event,what", [
        ("measure 3 R b retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n",
         "'R''s measurement at time 3 meets its support"),
        ("unitary 3 b,c 1 0 0 0 0 0 1 0 0 1 0 0 0 0 0 1\n",
         "the unitary at time 3 acts on its support beyond its targets"),
    ], ids=["measured", "swapped_out"])
    def test_later_event_on_the_moved_record_is_refused(self, monkeypatch, event, what):
        # after the CNOT, F's record lies on a and b: a measurement of b, or a
        # SWAP of b with c outside W's targets, leaves no composite basis of W
        # that erases it
        s = parse_scenario(self.MOVED_ONTO_B + event + self.W_ON_AB)
        with pytest.raises(OracleError) as info:
            dilate(s)
        assert str(info.value) == (
            "erased record was disturbed before 'W''s measurement by the unitary at time 2 "
            f"(commutator residual 1.41), and {what}; this erasure is not realizable")
        _assert_paths_refuse(s, str(info.value))
        # accepted as a reversed lift anyway, W's basis CNOT L CNOT^dagger does
        # not take F's pointer back to 0: the eager definition finds the record.
        # ``s`` keeps its refusal, so a replaced copy decides again
        monkeypatch.setattr(scenario, "_lift_reversed",
                            lambda s, p, *args: args[-1].setdefault(p, 2) == 2)
        with pytest.raises(AssertionError, match="W"):
            eager_evolve(dilate(replace(s)))

    def test_commutation_is_with_the_whole_chain(self):
        # the phase gate commutes with W's projectors (up, down) but not with
        # F's (+, -), which W's lift carries: X measures in the basis the gate
        # moved the chain to
        s = parse_scenario(
            "subsystem a up down\nstate 0.6 0.8\n"
            "measure 1 F a erased p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "measure 2 W a erased up: 1 0 down: 0 1\n"
            "unitary 3 a 1 0 0 1i\n"
            "measure 4 X a retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
        )
        assert _reversed_lifts(s) == {1: 3}
        _assert_eager_distribution(s)


class TestCouplingBudget:
    """One 257-level subsystem measured once: 66,306 dilated amplitudes, but a
    fire block of 257 * 257^2 entries, which is refused before it is built."""

    N = 257

    def _scenario(self):
        labels = tuple(f"l{k}" for k in range(self.N))
        eye = np.eye(self.N)
        basis = Basis((self.N,), labels, eye)
        return Scenario((SubsystemSpec("q", self.N, labels),), StateVector((self.N,), eye[0]),
                        (MeasurementEvent(1, "F", ("q",), basis, Record.RETAINED),))

    def test_oracle_refuses_before_allocating(self):
        s = self._scenario()
        assert math.prod(s.dims) * (self.N + 1) <= MAX_AMPLITUDES  # the state fits
        tracemalloc.start()
        try:
            with pytest.raises(OracleError, match="couplings need 16974593 matrix entries"):
                distribution(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cli_paths_answers_and_oracle_exits_2(self, tmp_path, capsys):
        target = tmp_path / "wide.scn"
        target.write_text(serialize_scenario(self._scenario()), "utf-8")
        assert cli.main(["run", str(target), "--engine", "paths", "--format", "json"]) == 0
        outcomes = json.loads(capsys.readouterr().out)["outcomes"]
        assert outcomes[0] == {"tuple": [["F", "l0"]], "p": pytest.approx(1.0, abs=1e-12)}
        for engine in ("both", "oracle"):
            assert cli.main(["run", str(target), "--engine", engine]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: couplings need") and "Traceback" not in err


class TestCommutatorBudget:
    """A record on a qubit a and a 16-level c, moved by a unitary on a and a
    32-level b: the realizability check's commutator spans a, b and c, 1024
    levels, so 32 * 1024^2 entries, and is refused before it is built,
    though the record's fire block and the unitary are each small."""

    def test_dilate_refuses_before_allocating(self):
        rng = np.random.default_rng(4)
        subsystems = tuple(SubsystemSpec(name, dim, tuple(f"{name}{k}" for k in range(dim)))
                           for name, dim in (("a", 2), ("b", 32), ("c", 16)))
        initial = StateVector((2, 32, 16), np.eye(2 * 32 * 16)[0])
        s = Scenario(subsystems, initial, (
            MeasurementEvent(1, "F", ("a", "c"), random_basis(rng, (2, 16)), Record.ERASED),
            UnitaryEvent(2, ("a", "b"), Operator((2, 32), random_unitary(rng, 64))),
            MeasurementEvent(3, "W", ("a", "c"), random_basis(rng, (2, 16)), Record.RETAINED),
        ))
        tracemalloc.start()
        try:
            with pytest.raises(OracleError) as info:
                dilate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"commutator needs {32 * 1024**2} amplitudes, "
                                   f"over the budget of {MAX_AMPLITUDES}")
        # refused before either fire block (0.5 MiB each) is built; the commutator is 512 MiB
        assert peak < 64 << 10
        _assert_paths_refuse(s, str(info.value))

    def test_commuting_unitary_on_a_wide_union_leaves_the_lift(self):
        # U = (V D V^dagger) x R commutes with F's projectors V_k V_k^dagger
        # exactly; over a 512-level union its commutator's round-off, an
        # amplitude, is compared as a population, like the norm check's
        rng = np.random.default_rng(5)
        subsystems = tuple(SubsystemSpec(name, dim, tuple(f"{name}{k}" for k in range(dim)))
                           for name, dim in (("a", 4), ("b", 128)))
        basis = random_basis(rng, (4,))
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4)))
        u = np.kron(basis.matrix @ phases @ basis.matrix.conj().T, random_unitary(rng, 128))
        s = Scenario(subsystems, StateVector((4, 128), random_state(rng, 512).amps), (
            MeasurementEvent(1, "F", ("a",), basis, Record.ERASED),
            UnitaryEvent(2, ("a", "b"), Operator((4, 128), u)),
            MeasurementEvent(3, "W", ("a",), random_basis(rng, (4,)), Record.RETAINED),
        ))
        assert 0 < scenario._commutator(s, (0,), s.events[1]) < 1e-13
        assert _reversed_lifts(s) == {}
        _assert_matches_eager(s)

    @pytest.mark.parametrize("levels", [4, 2])
    def test_check_peaks_within_twice_its_budget(self, levels):
        # a record on a 4- or 2-level a and a unitary over a and b, 256 levels
        # in all: the budget is 4 or 2 projectors, 4 or 2 MiB; the check holds
        # U, one projector and its two products, 4 MiB, plus a few KiB of
        # bookkeeping
        rng = np.random.default_rng(6)
        subsystems = tuple(SubsystemSpec(name, dim, tuple(f"{name}{k}" for k in range(dim)))
                           for name, dim in (("a", levels), ("b", 256 // levels)))
        s = Scenario(subsystems, StateVector((levels, 256 // levels),
                                             random_state(rng, 256).amps), (
            MeasurementEvent(1, "F", ("a",), random_basis(rng, (levels,)), Record.ERASED),
            MeasurementEvent(2, "W", ("a",), random_basis(rng, (levels,)), Record.RETAINED),
            UnitaryEvent(3, ("b", "a"), Operator((256 // levels, levels),
                                                 random_unitary(rng, 256))),
            MeasurementEvent(4, "X", ("a",), random_basis(rng, (levels,)), Record.RETAINED),
        ))
        # ``s`` is refused by this very check of F's chain, its own coupling
        tracemalloc.start()
        try:
            residual = scenario._commutator(s, (0,), s.events[2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual > 1
        assert peak <= 2 * (levels * 256**2) * 16 + (64 << 10)


class TestStoredBudget:
    """The 16-chain, erased or all retained, stores 2 * 2^16 amplitudes, within
    budget, of its 2 * 3^16 dilated ones, which are over it."""

    N = 16

    def _chains(self):
        chain = erased_qubit_chain(self.N)
        kept = replace(chain, events=tuple(replace(e, record=Record.RETAINED)
                                           for e in chain.events))
        return chain, kept

    def test_both_engines_answer(self):
        for s in self._chains():
            pd, od = paths.distribution(s), distribution(s)
            assert pd.axes == od.axes
            assert max(abs(a - b) for a, b in zip(pd.probs, od.probs)) <= 1e-9

    def test_full_state_is_refused_before_allocating(self):
        for s in self._chains():
            st = evolve(dilate(s))
            tracemalloc.start()
            try:
                with pytest.raises(OracleError, match="dilated state needs 86093442 amplitudes"):
                    st.psi
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_erasure_basis_is_refused_before_allocating(self):
        # A16's composite basis spans the 15 consumed pointers: 3^15 * 2 * 2
        d = dilate(erased_qubit_chain(self.N))
        tracemalloc.start()
        try:
            with pytest.raises(OracleError, match="dilated state needs 57395628 amplitudes"):
                d.erasure_basis(self.N - 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


_LEVEL = Basis((1,), ("z",), [[1]])  # the one outcome of a one-level subsystem


def _level_chain(n, kept=False):
    """One one-level subsystem measured n times, only the last record kept
    unless ``kept``: a state of one amplitude over 1 + n dilated axes."""
    return Scenario((SubsystemSpec("q", 1, ("z",)),), StateVector((1,), [1]), tuple(
        MeasurementEvent(t, f"A{t}", ("q",), _LEVEL,
                         Record.RETAINED if kept or t == n else Record.ERASED)
        for t in range(1, n + 1)))


class TestAxisLimit:
    """Chains far inside every amplitude budget that need more axes than
    numpy allows (64 from numpy 2.0, so the chains below are 60 and 70 long
    there): each engine refuses what its states cannot hold, and the oracle
    reads out past einsum's 52 labels."""

    FITS, OVER = MAX_AXES - 4, MAX_AXES + 6

    def test_erased_chain_within_the_limit_both_engines_answer_and_agree(self):
        s = _level_chain(self.FITS)
        pd, od = paths.distribution(s), distribution(s)
        assert pd.axes == od.axes == (((f"A{self.FITS}", "z"),),)
        assert pd.probs == od.probs == [1.0]

    def test_erased_chain_over_the_limit_oracle_refused_paths_answers(self):
        s = _level_chain(self.OVER)
        with pytest.raises(OracleError) as info:
            distribution(s)
        assert str(info.value) == (f"dilated state needs {self.OVER + 1} axes, "
                                   f"over numpy's limit of {MAX_AXES}")
        assert paths.distribution(s).probs == [1.0]

    def test_kept_chain_over_the_limit_both_refused(self):
        s = _level_chain(self.OVER, kept=True)
        with pytest.raises(OracleError, match=f"^dilated state needs {self.OVER + 1} axes"):
            distribution(s)
        with pytest.raises(paths.PathEngineError) as info:
            paths.distribution(s)
        assert str(info.value) == (f"branch states need {self.OVER + 1} axes, "
                                   f"over numpy's limit of {MAX_AXES}")

    def test_too_many_subsystems_both_refused(self):
        n = MAX_AXES + 1  # the measurement adds a pointer axis, or the walk a batch axis
        s = Scenario(tuple(SubsystemSpec(f"q{k}", 1, ("z",)) for k in range(n)),
                     StateVector((1,) * n, [1]),
                     (MeasurementEvent(1, "A", ("q0",), _LEVEL, Record.RETAINED),))
        with pytest.raises(OracleError, match=f"^dilated state needs {n + 1} axes"):
            distribution(s)
        with pytest.raises(paths.PathEngineError, match=f"^branch states need {n + 1} axes"):
            paths.distribution(s)

    def test_budget_refusals_come_first(self):
        # the all-retained qubit chain of the same length is over both budgets too
        s = _all_retained(erased_qubit_chain(self.OVER))
        with pytest.raises(OracleError, match="stored state needs .* amplitudes"):
            distribution(s)
        with pytest.raises(paths.PathEngineError, match="branch states need .* amplitudes"):
            paths.distribution(s)

    def test_cli_exits_2_with_the_typed_message(self, tmp_path, capsys):
        target = tmp_path / "chain.scn"
        target.write_text(serialize_scenario(_level_chain(self.OVER)), "utf-8")
        assert cli.main(["run", str(target), "--engine", "oracle"]) == 2
        assert capsys.readouterr().err == (f"error: dilated state needs {self.OVER + 1} axes, "
                                           f"over numpy's limit of {MAX_AXES}\n")
        assert cli.main(["run", str(target), "--engine", "paths", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcomes"] == [
            {"tuple": [[f"A{self.OVER}", "z"]], "p": 1.0}]


class TestPeakMemory:
    """Traced peaks on the 18-, 20- and 21-chains stay at or under the ones
    measured once both engines released their states before building the
    table, rounded up to 0.01 MiB: an extra copy of a state would add at
    least 4 MiB on the 18-chain and 16 MiB on the 20-chain.  A run peaks at
    twice the state it stores, since a step holds its input and its output:
    2 * 2^21 amplitudes, 64 MiB, peak at 128 MiB on the 21-chain.  An erased
    chain's oracle never applies its lifts and fires only the retained
    pointer, so it stores a handful of amplitudes, the 23- and 40-chains
    included, where the lifts stored 2 * 2^23.  ``enumerate_paths`` on the
    erased 20-chain peaks at three times its 16 MiB table: its last step
    holds its input, a transposed copy of it and its output."""

    @pytest.mark.parametrize("engine, kept, n, mib", [
        (paths.distribution, True, 18, 16.02),
        (distribution, True, 18, 16.03),
        (distribution, False, 18, 0.02),
        (distribution, False, 23, 0.02),
        (paths.distribution, True, 20, 64.01),
        (distribution, True, 20, 64.03),
        (paths.distribution, True, 21, 128.02),
        (distribution, True, 21, 128.04),
        (distribution, False, 40, 0.05),
        (paths.enumerate_paths, False, 20, 48.02),
    ], ids=["paths-retained", "oracle-retained", "oracle-erased", "oracle-erased23",
            "paths-retained20", "oracle-retained20", "paths-retained21", "oracle-retained21",
            "oracle-erased40", "paths-enumerate20"])
    def test_peak_is_bounded(self, engine, kept, n, mib):
        s = erased_qubit_chain(n)
        s = _all_retained(s) if kept else s
        tracemalloc.start()
        try:
            engine(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= mib * (1 << 20)


class TestNormCheck:
    """The norm is checked after every event the walk applies: a drift over
    1e-12 is refused, rounding is not, whether the state is contiguous or
    dense in a permuted axis order, as the walk leaves it."""

    @staticmethod
    def _states(norm):
        rng = np.random.default_rng(5)
        state = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        state *= norm / np.linalg.norm(state)
        permuted = state.transpose(2, 0, 1)
        assert not permuted.flags.c_contiguous
        return state, permuted

    def test_drift_is_refused(self):
        for state in self._states(1 + 1e-9):
            with pytest.raises(OracleError, match=r"^norm drifted by 1e-09 at time 3$"):
                oracle._check_norm(state, 3)

    def test_rounding_passes(self):
        for state in self._states(1 + 1e-13):
            oracle._check_norm(state, 3)

    def test_nan_is_refused(self):
        state, permuted = self._states(1.0)
        state[1, 2, 3] = math.nan  # ``permuted`` is a view of ``state``
        for s in (state, permuted):
            with pytest.raises(OracleError, match=r"^norm drifted by nan at time 3$"):
                oracle._check_norm(s, 3)


class TestBudgetEdge:
    """The all-retained 24-chain is just over the one budget both engines
    share: each would store 2^24 branches of 2 amplitudes, 2 * 2^24 in all,
    and refuses with that count before allocating."""

    N = 24

    def _kept(self):
        return _all_retained(erased_qubit_chain(self.N))

    @pytest.mark.parametrize("engine, error, message", [
        (paths.distribution, paths.PathEngineError, "branch states need 33554432 amplitudes"),
        (distribution, OracleError, "stored state needs 33554432 amplitudes"),
    ], ids=["paths", "oracle"])
    def test_engine_refuses_before_allocating(self, engine, error, message):
        s = self._kept()
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                engine(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cli_exits_2(self, tmp_path, capsys):
        target = tmp_path / "chain24.scn"
        target.write_text(serialize_scenario(self._kept()), "utf-8")
        assert cli.main(["run", str(target), "--engine", "both"]) == 2
        assert "branch states need 33554432 amplitudes" in capsys.readouterr().err


def _refusal(exc):
    """Whether ``exc`` is one of the two refusals of an erasure the dilation
    cannot realize, which ``random_unrestricted_scenario`` reaches."""
    return isinstance(exc, (OracleError, PathEngineError)) and (
        "was disturbed" in str(exc) or "overlaps an erased record" in str(exc))


def _assert_paths_refuse(s, message):
    """The path engine refuses ``s`` with the oracle's ``message``."""
    with pytest.raises(PathEngineError) as info:
        paths.distribution(s)
    assert str(info.value) == message


@functools.cache
def _answered_unrestricted():
    """Seed -> the ``random_unrestricted_scenario`` scenario the oracle answers."""
    answered = {}
    for seed, s in unrestricted_scenarios().items():
        try:
            distribution(s)
        except OracleError as exc:
            assert _refusal(exc), exc
            continue
        answered[seed] = s
    return answered


class TestSizeSymmetry:
    """Both engines budget what they store, by one formula, the base dims
    times the retained outcome counts, so they refuse the same scenarios for
    size; ``TestBudgetEdge`` has both refuse the all-retained 24-chain with
    one count.  Two asymmetries remain: the oracle gives every pointer an axis,
    so past numpy's axis limit it refuses an erased chain that the path
    engine holds on 2 axes, and only the oracle budgets fire blocks
    (``TestCouplingBudget``)."""

    def test_erased_chains_both_answer_and_the_oracle_stores_a_handful(self, monkeypatch):
        real, sizes = oracle._apply, []

        def spy(*args):
            out = real(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(oracle, "_apply", spy)
        for n in range(20, 41):
            s = erased_qubit_chain(n)
            sizes.clear()
            od = distribution(s)
            assert max(sizes) <= 8, n
            assert cli.equivalence_delta(paths.distribution(s), od) <= 1e-9, n

    def test_all_retained_21_chain_both_answer_and_agree(self):
        s = _all_retained(erased_qubit_chain(21))
        assert cli.equivalence_delta(paths.distribution(s), distribution(s)) <= 1e-9

    def test_erased_chain_past_the_axis_limit_is_refused_by_the_oracle_only(self):
        # a qubit chain of n measurements dilates to 1 + n axes
        fits, over = erased_qubit_chain(MAX_AXES - 1), erased_qubit_chain(MAX_AXES)
        assert cli.equivalence_delta(paths.distribution(fits), distribution(fits)) <= 1e-9
        with pytest.raises(OracleError) as info:
            distribution(over)
        assert str(info.value) == (f"dilated state needs {MAX_AXES + 1} axes, "
                                   f"over numpy's limit of {MAX_AXES}")
        assert len(paths.distribution(over).probs) == 2


class TestStoredWithinBudget:
    """Each engine budgets, before allocating, the most it will store, and a
    spy on every state its walk stores shows that it stores no more.
    ``distribution`` on either engine stores at most the base dims times
    the retained outcome counts, since the oracle's walk fires only the
    retained pointers; ``evolve`` stores at most the base dims times every
    outcome count.  The realizability check in the scenario index budgets
    each commutator it builds on its own, which the spy does not see; a
    scenario it refuses, or whose lift a unitary reversed, has no
    ``evolve`` run."""

    @staticmethod
    def _spies(monkeypatch):
        checked, stored = [], []

        def check(amplitudes, *args):
            checked.append(amplitudes)
            return check_budget(amplitudes, *args)

        def storing(apply):
            def spy(*args):
                out = apply(*args)
                stored.append(out.size)
                return out
            return spy

        monkeypatch.setattr(oracle, "check_budget", check)
        monkeypatch.setattr(paths, "check_budget", check)
        monkeypatch.setattr(oracle, "_apply", storing(oracle._apply))
        monkeypatch.setattr(paths, "apply_to_slots", storing(paths.apply_to_slots))
        monkeypatch.setattr(paths, "split_slots", storing(paths.split_slots))
        return checked, stored

    @staticmethod
    def _assert_within(s, checked, stored):
        base = math.prod(s.dims)
        retained = base * math.prod([len(e.labels) for _, e in s.retained()])
        fired = base * math.prod([len(e.labels) for _, e in s.measurements()])
        runs = [(paths.distribution, retained), (distribution, retained)]
        try:
            d = dilate(s)
        except OracleError as exc:  # ``evolve`` has no plan to run
            assert _refusal(exc), exc
        else:
            if not _reversed_lifts(s):  # ``evolve`` refuses to run past a reversed lift
                runs.append((lambda s: evolve(d), fired))
        for run, budget in runs:
            checked.clear()
            stored.clear()
            try:
                run(s)
            except (OracleError, PathEngineError) as exc:
                assert _refusal(exc), exc
            assert checked == [budget] and max(stored, default=0) <= budget

    @staticmethod
    def _scenarios():
        yield from (library.builtin(name) for name in library.builtin_names())
        yield from (library.two_wigners(regime) for regime in library.RegimeTag)
        for seed in range(200):
            yield random_scenario(seed)
            yield random_unpinned_scenario(seed)
        yield from unrestricted_scenarios().values()
        for joint in (False, True):
            yield TestCouplingsAppliedOnce._diagonal_unitary_before_eraser(joint)

    def test_largest_stored_state_is_within_the_budget(self, monkeypatch):
        checked, stored = self._spies(monkeypatch)
        for s in self._scenarios():
            self._assert_within(s, checked, stored)


class TestGateReach:
    """How far the 1e-9 gate reaches on ``random_unrestricted_scenario``,
    which keeps no rule: seeds 0-999 give 226 valid scenarios.  Both engines
    refuse, with one text, what the dilation cannot realize: 25 records
    disturbed beyond their eraser's targets before it, or by a unitary after
    it that does not commute with the record's lift, and 34 measurements
    that partly overlap an erased record, two of them a record a unitary
    moved onto their targets.  Both answer the other 167, and agree."""

    VALID, ANSWERED = 226, 167
    DISTURBED, PARTIAL = 25, 34

    def test_both_engines_answer_the_same_scenarios_and_agree(self):
        answered = _answered_unrestricted()
        for s in answered.values():
            assert cli.equivalence_delta(paths.distribution(s), distribution(s)) <= 1e-9
        kinds = {"was disturbed": 0, "overlaps an erased record": 0}
        for seed, s in unrestricted_scenarios().items():
            if seed not in answered:
                with pytest.raises(OracleError) as info:
                    dilate(s)
                _assert_paths_refuse(s, str(info.value))
                kinds[next(k for k in kinds if k in str(info.value))] += 1
        assert len(unrestricted_scenarios()) == self.VALID
        assert len(answered) == self.ANSWERED
        assert list(kinds.values()) == [self.DISTURBED, self.PARTIAL]


class TestRealizabilityDecidedOnce:
    """The scenario index decides realizability in one pass, on first use,
    and keeps the result: the consumed lifts and reversed lifts, or the
    refusal, which each engine raises as its own error type."""

    AFTER = ("subsystem sys up down\nstate 0.6 0.8\n"
             "measure 1 F sys erased up: 1 0 down: 0 1\n"
             "measure 2 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
             "unitary 3 sys 1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)\n"
             "measure 4 R sys retained up: 1 0 down: 0 1\n")

    @staticmethod
    def _count_passes(monkeypatch):
        real, calls = scenario._realize, []

        def spy(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(scenario, "_realize", spy)
        return calls

    @pytest.mark.parametrize("regime", [r.value for r in library.RegimeTag])
    def test_one_pass_for_a_run_on_both_engines(self, monkeypatch, capsys, regime):
        calls = self._count_passes(monkeypatch)
        assert cli.main(["run", "2w2f", "--regime", regime, "--engine", "both"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_a_refusal_is_decided_once_and_raised_by_each_engine(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        s = parse_scenario(self.AFTER)
        message = ("erased record was disturbed after 'W''s measurement by the unitary at "
                   "time 3 (commutator residual 1)")
        for engine, error in [(distribution, OracleError), (paths.distribution, PathEngineError),
                              (paths.enumerate_paths, PathEngineError)]:
            with pytest.raises(error) as info:
                engine(s)
            assert str(info.value) == message
        assert len(calls) == 1
        assert "_erasures" not in repr(s) and replace(s) == s
        with pytest.raises(OracleError):
            dilate(replace(s))  # a replaced scenario decides again
        assert len(calls) == 2


def dense_coupling(plan):
    """The coupling C on ancilla x targets: |0> x w_k -> |k> x w_k.

    Completed involutively: |k> x w_k swaps back to |0> x w_k and every
    other sector is left alone.  ``fire_block`` is its block from pointer 0
    to pointers 1..n, and ``fire_block``^dagger its block back.
    """
    side, n = plan.columns.shape
    proj = np.einsum("ik,jk->kij", plan.columns, plan.columns.conj())
    m = np.zeros((n + 1, side, n + 1, side), dtype=complex)  # (pointer i <- j) x targets
    fired = np.arange(1, n + 1)
    m[fired, :, 0, :] = proj
    m[0, :, fired, :] = proj
    m[fired, :, fired, :] = np.eye(side) - proj
    return m.reshape((n + 1) * side, (n + 1) * side)


def _reversal(d, p):
    """V for the erased record ``p``: the unitaries between it and its eraser
    that act inside the eraser's targets, as (matrix, slots) in time order."""
    s = d.base
    j = s.erasers()[p.event_index]
    inside = set(s.events[j].targets).issuperset
    return [(e.op.entries, s.slots(e.targets)) for e in s.events[p.event_index + 1:j]
            if isinstance(e, UnitaryEvent) and inside(e.targets)]


def _lift_ops(d, plan):
    """The lifts ``plan`` consumed, each one p as V L_p V^dagger (see
    ``_reversal``), as (matrix, slots) in application order: V^dagger, p's
    coupling, the lifts p consumed, V.  V L_p V^dagger is L_p unless a
    unitary in V moved the record."""
    ops = []
    for p in plan.lifts:
        v = _reversal(d, p)
        ops += [(m.conj().T, slots) for m, slots in reversed(v)]
        ops += [(dense_coupling(p), p.slots)] + _lift_ops(d, p) + v
    return ops


def eager_evolve(d, upto_time=None):
    """The definition ``evolve`` must reproduce: every measurement applies
    its consumed lifts' L^dagger, checks the records, then C, then L."""
    s = d.base
    state = np.zeros(d.dims, dtype=complex)
    n_anc = len(d.dims) - len(s.subsystems)
    state[(slice(None),) * len(s.subsystems) + (0,) * n_anc] = s.initial.as_tensor()
    plan_by_event = {p.event_index: p for p in d.couplings}
    for i, e in enumerate(s.events):
        if upto_time is not None and e.time_index > upto_time:
            break
        if isinstance(e, UnitaryEvent):
            state = apply_to_slots(e.op.entries, e.op.dims, s.slots(e.targets), state)
            continue
        plan = plan_by_event[i]
        lifts = _lift_ops(d, plan)
        for m, slots in reversed(lifts):
            state = oracle._apply(m.conj().T, slots, d.dims, state)
        at_zero = tuple(0 if x in plan.consumed_anc_slots else slice(None)
                        for x in range(state.ndim))
        assert np.linalg.norm(state) ** 2 - np.linalg.norm(state[at_zero]) ** 2 <= 1e-12, e.agent
        state = oracle._apply(dense_coupling(plan), plan.slots, d.dims, state)
        for m, slots in lifts:
            state = oracle._apply(m, slots, d.dims, state)
    return state


def _assert_eager_distribution(s):
    """The eager definition's retained statistics are the oracle's.  For a
    reversed lift, which ``evolve`` refuses, this checks that its eraser
    realizes the erasure and that the walk reads the same statistics."""
    d = dilate(s)
    state = eager_evolve(d)
    for key, w in distribution(s).weights.items():
        at = [slice(None)] * state.ndim
        for agent, label in key:
            slot, level = oracle._pointer(d, s.agent_event(agent)[0], label)
            at[slot] = level
        assert np.linalg.norm(state[tuple(at)]) ** 2 == pytest.approx(w, abs=1e-12), key


def _all_retained(s):
    return Scenario(s.subsystems, s.initial,
                    tuple(replace(e, record=Record.RETAINED) for e in s.events))


def _assert_matches_eager(s):
    d = dilate(s)
    for t in sorted({0} | {e.time_index for e in s.events}) + [None]:
        got = evolve(d, upto_time=t).psi.as_tensor()
        np.testing.assert_allclose(got, eager_evolve(d, t), rtol=0, atol=1e-12, err_msg=str(t))


class TestCouplingsAppliedOnce:
    """``evolve`` applies each coupling once; the eager definition applies a
    consumed chain twice per consumer.  The states must agree."""

    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        _assert_matches_eager(library.builtin(name))

    @pytest.mark.parametrize("regime", [r.value for r in library.RegimeTag])
    def test_2w2f_regimes(self, regime):
        _assert_matches_eager(library.two_wigners(library.RegimeTag(regime)))

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_random_scenarios(self, start):
        for seed in range(start, start + 50):
            _assert_matches_eager(random_scenario(seed))

    def test_erased_chain(self):
        _assert_matches_eager(erased_qubit_chain(6))

    def test_unrestricted_scenarios(self):
        # of the 167 scenarios both engines answer on seeds 0-999, 11 move a
        # record by a unitary inside its eraser's targets, where ``evolve``
        # matches up to that unitary and refuses from there on, and the eager
        # definition's statistics are the oracle's; every other one matches
        # the eager definition at every time
        eager, reversed_ = 0, []
        for seed, s in _answered_unrestricted().items():
            d = dilate(s)
            if _reversed_lifts(s):
                first = min(_reversed_lifts(s).values())
                for t in sorted({0} | {e.time_index for e in s.events}):
                    if t < first:
                        np.testing.assert_allclose(evolve(d, upto_time=t).psi.as_tensor(),
                                                   eager_evolve(d, t), rtol=0, atol=1e-12)
                    else:
                        with pytest.raises(OracleError, match="reversed the lift"):
                            evolve(d, upto_time=t)
                _assert_eager_distribution(s)
                reversed_.append(seed)
            else:
                _assert_matches_eager(s)
                eager += 1
        assert eager == 156
        assert reversed_ == [117, 200, 286, 316, 464, 529, 561, 606, 630, 815, 844]

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_unpinned_scenarios(self, start):
        # unmeasured subsystems keep their ancilla-free axes; untriggered
        # pointers at an intermediate upto_time are widened at the end
        for seed in range(start, start + 50):
            _assert_matches_eager(random_unpinned_scenario(seed))

    def _applied_sizes(self, monkeypatch, s):
        """Amplitude count of the state each ``oracle._apply`` call acts on."""
        real, sizes = oracle._apply, []

        def spy(*args):
            out = real(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(oracle, "_apply", spy)
        evolve(dilate(s))
        return sizes

    def _count_applies(self, monkeypatch, s):
        return len(self._applied_sizes(monkeypatch, s))

    @pytest.mark.parametrize("s", [erased_qubit_chain(6), erased_qubit_chain(9),
                                   _all_retained(erased_qubit_chain(8))],
                             ids=["erased6", "erased9", "retained8"])
    def test_untriggered_pointers_cost_nothing(self, monkeypatch, s):
        # a pointer axis grows when its coupling fires, so the applies cost
        # about 1.5x the final size; allocating every pointer up front costs
        # one final size per apply
        final_size = math.prod(dilate(s).dims)
        sizes = self._applied_sizes(monkeypatch, s)
        assert len(sizes) == len(s.events)
        assert sum(sizes) < 2 * final_size

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_erased_chain_applies_each_coupling_once(self, monkeypatch, n):
        assert self._count_applies(monkeypatch, erased_qubit_chain(n)) == n

    @staticmethod
    def _diagonal_unitary_before_eraser(joint):
        # the unitary is diagonal in F's basis (+/-), so it commutes with F's
        # coupling and leaves the record intact.  With ``joint``, R's record
        # on a second subsystem is pending when W measures both.
        had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        phase = had @ np.diag([1, np.exp(0.7j)]) @ had
        entries = " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in phase.reshape(-1))
        plus_minus = "p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)"
        record = f"measure 1 F a erased {plus_minus}\nunitary 2 a {entries}\n"
        if not joint:
            return parse_scenario(
                "subsystem a up down\nstate 0.6 0.8\n" + record
                + "measure 3 W a retained u: 0.6 0.8 v: -0.8 0.6\n"
            )
        return parse_scenario(
            "subsystem a up down\nsubsystem b up down\nstate 0.36 0.48 0.48 0.64\n" + record
            + f"measure 3 R b retained {plus_minus}\n"
            "measure 4 W a,b retained w1: 1 0 0 0 w2: 0 0.6 0.8 0"
            " w3: 0 -0.8 0.6 0 w4: 0 0 0 1\n"
        )

    @pytest.mark.parametrize("joint,applies", [(False, 2), (True, 3)])
    def test_unitary_between_record_and_eraser_acts_directly(
        self, monkeypatch, joint, applies
    ):
        # W erases F's record after the unitary, which commutes with F's
        # projectors and so acts directly; W applies its own coupling, R its
        # own, and F's chain is applied once at the end
        s = self._diagonal_unitary_before_eraser(joint)
        assert self._count_applies(monkeypatch, s) == applies
        _assert_matches_eager(s)
        pd, od = paths.distribution(s), distribution(s)
        assert set(pd.weights) == set(od.weights)
        for key, w in pd.weights.items():
            assert od.weights[key] == pytest.approx(w, abs=1e-9), key

    def test_unitary_after_a_retained_eraser_applies_each_coupling_once(self, monkeypatch):
        # X's lift stays factored out of the stored state: A and B apply their
        # own couplings, the unitary, diagonal in X's basis, acts directly,
        # X's chain is applied at the end
        s = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 X sys erased up: 1 0 down: 0 1\n"
            "measure 2 A sys retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "unitary 3 sys 1 0 0 1i\n"
            "measure 4 B sys retained up: 1 0 down: 0 1\n"
        )
        assert self._count_applies(monkeypatch, s) == 3

    @pytest.mark.parametrize("generate", [random_scenario, random_unpinned_scenario])
    def test_generators_apply_once_per_measurement(self, monkeypatch, generate):
        real, calls = oracle._apply, []
        monkeypatch.setattr(oracle, "_apply", lambda *args: calls.append(args) or real(*args))
        for seed in range(200):
            s = generate(seed)
            calls.clear()
            evolve(dilate(s))
            assert len(calls) == len(s.measurements()), seed


def _read_after_lifts(s):
    """The retained-pointer table of ``evolve``'s state, every active lift applied."""
    st = evolve(dilate(s))
    density = np.abs(st.stored) ** 2
    pointers = [st.dilated.ancillas[i] for i, _ in s.retained()]
    weights = np.einsum(density, list(range(density.ndim)), pointers).reshape(-1)
    return paths.outcome_distribution(weights, s, OracleError).probs


class TestReadoutBeforeLifts:
    """``distribution`` reads the walked state and never applies the lifts
    still active.  They hold only erased measurements' couplings, which
    commute with every retained pointer projector, so the table is the one
    read after them."""

    @staticmethod
    def _assert_same(s):
        np.testing.assert_allclose(distribution(s).probs, _read_after_lifts(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        self._assert_same(library.builtin(name))

    @pytest.mark.parametrize("regime", [r.value for r in library.RegimeTag])
    def test_2w2f_regimes(self, regime):
        self._assert_same(library.two_wigners(library.RegimeTag(regime)))

    @pytest.mark.parametrize("generate", [random_scenario, random_unpinned_scenario])
    def test_generators(self, generate):
        for seed in range(200):
            self._assert_same(generate(seed))

    @pytest.mark.parametrize("n", [1, 9, 23])
    def test_erased_chain_applies_only_the_retained_coupling(self, monkeypatch, n):
        real, calls = oracle._apply, []
        monkeypatch.setattr(oracle, "_apply", lambda *args: calls.append(args) or real(*args))
        distribution(erased_qubit_chain(n))
        assert len(calls) == 1


def _fired_block_size(d):
    """Amplitudes with every pointer fired: base dims times n per pointer."""
    n_base = len(d.base.subsystems)
    return math.prod(d.dims[:n_base]) * math.prod(n - 1 for n in d.dims[n_base:])


class TestStoredRanges:
    """A fired pointer is stored without its empty level 0."""

    @staticmethod
    def _scenarios():
        yield from (library.builtin(name) for name in library.builtin_names())
        yield from (library.two_wigners(regime) for regime in library.RegimeTag)
        for seed in range(200):
            yield random_scenario(seed)
            yield random_unpinned_scenario(seed)

    def test_fire_equals_the_dense_coupling(self):
        rng = np.random.default_rng(3)
        for s in self._scenarios():
            for plan in dilate(s).couplings:
                tdims = tuple(s.dims[x] for x in plan.slots[1:])
                n = plan.columns.shape[1]
                psi = rng.normal(size=tdims) + 1j * rng.normal(size=tdims)
                slots = tuple(range(len(plan.slots)))
                fired = oracle._apply(plan.fire_block, slots, (n,) + tdims, psi[None])
                full = np.zeros((n + 1,) + tdims, dtype=complex)
                full[0] = psi
                m = dense_coupling(plan)
                dense = oracle._apply(m, slots, (n + 1,) + tdims, full)
                np.testing.assert_allclose(dense[0], 0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(fired, dense[1:], rtol=0, atol=1e-12)
                # C^dagger from pointers 1..n to pointer 0
                side = math.prod(tdims)
                np.testing.assert_allclose(plan.fire_block.conj().T, m.conj().T[:side, side:],
                                           rtol=0, atol=1e-12)

    def test_pointers_are_untriggered_or_fired(self):
        for s in self._scenarios():
            d = dilate(s)
            n_base = len(s.subsystems)
            for t in sorted({0} | {e.time_index for e in s.events}) + [None]:
                ranges = evolve(d, upto_time=t).ranges
                for a, dim in enumerate(d.dims[n_base:], n_base):
                    fired = range(1, dim)
                    # after a full run every pointer is fired
                    assert ranges[a] == fired or (t is not None and ranges[a] == range(1)), (t, a)

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("retain_all", [False, True], ids=["erased", "retained"])
    def test_stored_amplitudes_stay_in_the_fired_block(self, monkeypatch, n, retain_all):
        s = erased_qubit_chain(n)
        if retain_all:
            s = _all_retained(s)
        d = dilate(s)
        real, sizes = oracle._apply, []

        def spy(*args):
            out = real(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(oracle, "_apply", spy)
        sizes.append(evolve(d).stored.size)
        assert max(sizes) <= 2 * _fired_block_size(d)

    @pytest.mark.parametrize("text", [
        "subsystem a x\nstate 1\nmeasure 1 W a retained only: 1\n",
        "subsystem a x\nsubsystem b up down\nstate 0.6 0.8\n"
        "measure 1 E a erased only: 1\nmeasure 2 W a,b retained u: 1 0 v: 0 1\n",
    ], ids=["retained", "erased"])
    def test_one_outcome_measurement(self, text):
        # a fired pointer {1..1} has the length of an untriggered one {0}
        s = parse_scenario(text)
        pd, od = paths.distribution(s), distribution(s)
        assert set(pd.weights) == set(od.weights)
        for key, w in pd.weights.items():
            assert od.weights[key] == pytest.approx(w, abs=1e-9), key
        st = evolve(dilate(s))
        assert st.ranges[st.dilated.ancillas[0]] == range(1, 2)
        if s.events[0].record is Record.RETAINED:
            assert joint_probability(st, {"W": "only"}) == pytest.approx(1.0, abs=1e-12)
        else:
            assert inspect_record(st, "E", "only") == pytest.approx(1.0, abs=1e-12)

    def test_one_wide_measurement_builds_no_dense_coupling(self):
        # measured once: the dense coupling alone would be 41 MiB at 40
        # levels and 1.52 GiB at 100; the fire block is 16 n^3 bytes
        for n in (40, 100):
            basis = random_basis(np.random.default_rng(0), (n,), prefix="l")
            s = Scenario((SubsystemSpec("q", n, basis.labels),), basis.vector(basis.labels[0]),
                         (MeasurementEvent(1, "F", ("q",), basis, Record.RETAINED),))
            tracemalloc.start()
            try:
                od = distribution(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < (8 << 20) * (n / 40) ** 3, n
            assert od.weights[(("F", "l0"),)] == pytest.approx(1.0, abs=1e-12)


def _single_fire_block(plan):
    """One plan's fire block on its own: the projectors P_k = w_k w_k^dagger."""
    side, n = plan.columns.shape
    return np.einsum("ik,jk->kij", plan.columns, plan.columns.conj()).reshape(n * side, side)


class TestFireBlocks:
    """``dilate`` builds every plan's fire block in one stacked product per
    (side, n) shape; every block is bit for bit the plan's own product, and
    a relabelled copy carries its plan's block."""

    @staticmethod
    def _mixed_shapes():
        # side 2 twice, side 3 twice and a joint side-4 measurement, which
        # erases the first record on a
        rng = np.random.default_rng(8)
        subsystems = (SubsystemSpec("a", 2, ("a0", "a1")),
                      SubsystemSpec("b", 3, ("b0", "b1", "b2")),
                      SubsystemSpec("c", 2, ("c0", "c1")))
        z = rng.normal(size=12) + 1j * rng.normal(size=12)
        events = (
            MeasurementEvent(1, "A", ("a",), random_basis(rng, (2,), "x"), Record.ERASED),
            MeasurementEvent(2, "B1", ("b",), random_basis(rng, (3,), "y"), Record.RETAINED),
            MeasurementEvent(3, "C", ("c",), random_basis(rng, (2,), "z"), Record.RETAINED),
            MeasurementEvent(4, "B2", ("b",), random_basis(rng, (3,), "v"), Record.RETAINED),
            MeasurementEvent(5, "AC", ("a", "c"), random_basis(rng, (2, 2), "w"), Record.RETAINED),
        )
        return Scenario(subsystems, StateVector((2, 3, 2), z / np.linalg.norm(z)), events)

    def _scenarios(self):
        yield from TestStoredRanges._scenarios()
        yield self._mixed_shapes()

    def test_stacked_blocks_equal_each_plans_own(self):
        for s in self._scenarios():
            for plan in dilate(s).couplings:
                assert "fire_block" in vars(plan)  # built by ``dilate``
                assert np.array_equal(plan.fire_block, _single_fire_block(plan))

    def test_mixed_shapes_keep_each_plans_block(self):
        s = self._mixed_shapes()
        couplings = dilate(s).couplings
        assert [p.columns.shape for p in couplings] == [(2, 2), (3, 3), (2, 2), (3, 3), (4, 4)]
        blocks = [p.fire_block for p in couplings]
        for plan, block in zip(couplings, blocks):
            assert np.array_equal(block, _single_fire_block(plan))
        assert not np.array_equal(blocks[0], blocks[2])
        assert not np.array_equal(blocks[1], blocks[3])
        pd, od = paths.distribution(s), distribution(s)
        assert cli.equivalence_delta(pd, od) <= 1e-9

    def test_relabelled_copies_carry_the_plans_block(self, monkeypatch):
        real, copies = oracle._couple, []

        def spy(plan, *args):
            copies.append(plan)
            return real(plan, *args)

        monkeypatch.setattr(oracle, "_couple", spy)
        total = 0
        for s in self._scenarios():
            d = dilate(s)
            built = {p.event_index: p.fire_block for p in d.couplings}
            for erased in d.base.erasers():
                d.erasure_basis(erased)
            for plan in copies:
                assert plan.fire_block is built[plan.event_index]
                assert np.array_equal(plan.fire_block, _single_fire_block(plan))
            total += len(copies)
            copies.clear()
        assert total > 100

    @pytest.mark.parametrize("regime", [library.RegimeTag.BOTH_ERASED,
                                        library.RegimeTag.F_PRESERVED])
    def test_one_stacked_product_per_shape(self, monkeypatch, regime):
        # the realizability check in the scenario index builds its own
        # projectors, so the four qubit measurements are one stack
        real, stacks = oracle.fire_blocks, []

        def spy(columns):
            stacks.append(len(columns))
            return real(columns)

        monkeypatch.setattr(oracle, "fire_blocks", spy)
        dilate(library.two_wigners(regime))
        assert stacks == [4]
        for s in self._scenarios():
            stacks.clear()
            shapes = [p.columns.shape for p in dilate(s).couplings]
            assert stacks == [shapes.count(shape) for shape in dict.fromkeys(shapes)]


def _answered_unrestricted_scenario(seed):
    """The answered ``random_unrestricted_scenario`` scenario ``seed`` picks."""
    answered = tuple(_answered_unrestricted().values())
    return answered[seed % len(answered)]


class TestInsertedErasedMeasurement:
    """The paper's claim: a record erased by the very next measurement of its
    subsystem leaves no trace in the retained statistics.

    On the unrestricted scenarios the inserted record may sit inside a joint
    erased record, which its one-subsystem measurement partly overlaps, or
    become the eraser of a record that a joint unitary moved.  On any
    scenario, a retained eraser leaves the inserted record's lift in place,
    and a later unitary on its subsystem that does not commute with the
    lift disturbs it.  There both engines refuse the new scenario with one
    text; everywhere else both are compared."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([random_scenario, _answered_unrestricted_scenario]),
           st.integers(0, 10**6), st.integers(0, 10**6))
    def test_distribution_unchanged_on_both_engines(self, generate, scenario_seed, insert_seed):
        s = generate(scenario_seed)
        rng = np.random.default_rng(insert_seed)
        candidates = [(e, target) for _, e in s.measurements() for target in e.targets]
        eraser, target = candidates[int(rng.integers(len(candidates)))]
        dim = s.dims[s.slots((target,))[0]]
        inserted = MeasurementEvent(2 * eraser.time_index - 1, "X", (target,),
                                    random_basis(rng, (dim,)), Record.ERASED)
        doubled = tuple(replace(e, time_index=2 * e.time_index) for e in s.events)
        s2 = Scenario(s.subsystems, s.initial, doubled + (inserted,))
        try:
            dilate(s2)
        except OracleError as exc:
            assert _refusal(exc) and (generate is not random_scenario
                                      or "disturbed after" in str(exc)), exc
            _assert_paths_refuse(s2, str(exc))
        else:
            _assert_same_distribution(s, s2)


def _assert_same_distribution(s, s2):
    for engine in (paths.distribution, distribution):
        before, after = engine(s).weights, engine(s2).weights
        assert set(before) == set(after)
        for key, w in before.items():
            assert after[key] == pytest.approx(w, abs=1e-9), (engine.__module__, key)


_generators = st.sampled_from([random_scenario, random_unpinned_scenario,
                               _answered_unrestricted_scenario])
_seeds = st.integers(0, 10**6)


class TestInvariances:
    """Physical invariances (ROADMAP item 4, i-iv), on both engines."""

    @settings(max_examples=40, deadline=None)
    @given(_generators, _seeds, st.floats(0, 2 * math.pi))
    def test_global_phase_of_the_initial_state(self, generate, seed, theta):
        s = generate(seed)
        rotated = StateVector(s.dims, s.initial.amps * np.exp(1j * theta))
        _assert_same_distribution(s, Scenario(s.subsystems, rotated, s.events))

    @settings(max_examples=40, deadline=None)
    @given(_generators, _seeds, _seeds)
    def test_phase_of_one_measurement_basis_vector(self, generate, seed, pick_seed):
        s = generate(seed)
        rng = np.random.default_rng(pick_seed)
        i, e = s.measurements()[int(rng.integers(len(s.measurements())))]
        j = int(rng.integers(len(e.labels)))
        matrix = e.basis.matrix.copy()
        matrix[:, j] = matrix[:, j] * np.exp(1j * rng.uniform(0, 7))
        events = list(s.events)
        events[i] = replace(e, basis=Basis(e.basis.dims, e.labels, matrix))
        _assert_same_distribution(s, Scenario(s.subsystems, s.initial, tuple(events)))

    @settings(max_examples=40, deadline=None)
    @given(_generators, _seeds, _seeds)
    def test_order_of_subsystem_declarations(self, generate, seed, perm_seed):
        s = generate(seed)
        perm = np.random.default_rng(perm_seed).permutation(len(s.subsystems))
        subsystems = tuple(s.subsystems[k] for k in perm)
        initial = StateVector(tuple(sub.dim for sub in subsystems),
                              s.initial.as_tensor().transpose(perm).reshape(-1))
        _assert_same_distribution(s, Scenario(subsystems, initial, s.events))

    @settings(max_examples=40, deadline=None)
    @given(_generators, _seeds, _seeds)
    def test_splitting_a_unitary_into_two_events(self, generate, seed, split_seed):
        s = generate(seed)
        rng = np.random.default_rng(split_seed)
        events = [replace(e, time_index=2 * e.time_index + 2) for e in s.events]
        unitaries = [k for k, e in enumerate(events) if isinstance(e, UnitaryEvent)]
        if unitaries:
            k = unitaries[int(rng.integers(len(unitaries)))]
        else:  # none to split: start with one, before any record exists
            sub = s.subsystems[int(rng.integers(len(s.subsystems)))]
            events.append(UnitaryEvent(2, (sub.name,),
                                       Operator((sub.dim,), random_unitary(rng, sub.dim))))
            k = len(events) - 1
        u = events[k]
        first = random_unitary(rng, u.op.entries.shape[0])
        second = u.op.entries @ first.conj().T
        split = events[:k] + events[k + 1:] + [
            UnitaryEvent(u.time_index - 1, u.targets, Operator(u.op.dims, first)),
            UnitaryEvent(u.time_index, u.targets, Operator(u.op.dims, second)),
        ]
        _assert_same_distribution(Scenario(s.subsystems, s.initial, tuple(events)),
                                  Scenario(s.subsystems, s.initial, tuple(split)))


class TestReversedLift:
    """A unitary U and then U^dagger between an erased record and its eraser,
    on the record's subsystems, inside the eraser's targets: the eraser
    measures in the basis of U L U^dagger, runs the record's evolution back,
    and every retained statistic is the original scenario's, on both
    engines.  Two Hadamards on one record are one instance."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([random_scenario, random_unpinned_scenario]), _seeds, _seeds)
    def test_distribution_unchanged_on_both_engines(self, generate, seed, insert_seed):
        s = generate(seed)
        while not s.erased():  # about a third of random_scenario's seeds erase a record
            seed += 1
            s = generate(seed)
        rng = np.random.default_rng(insert_seed)
        erased, _ = s.erased()[int(rng.integers(len(s.erased())))]
        record = s.events[erased]
        dims = tuple(s.dims[sl] for sl in s.slots(record.targets))
        u = random_unitary(rng, math.prod(dims))
        t = 3 * record.time_index  # every time tripled: two free times after the record
        s2 = Scenario(s.subsystems, s.initial, tuple(
            replace(e, time_index=3 * e.time_index) for e in s.events) + (
            UnitaryEvent(t + 1, record.targets, Operator(dims, u)),
            UnitaryEvent(t + 2, record.targets, Operator(dims, u.conj().T))))
        assert s2.agent_event(record.agent)[0] in _reversed_lifts(s2)
        _assert_same_distribution(s, s2)
        _assert_eager_distribution(s2)

    def test_hadamard_twice_is_answered(self):
        had = "1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)"
        s = parse_scenario(
            "subsystem sys up down\nstate 0.6 0.8\n"
            "measure 1 F sys erased up: 1 0 down: 0 1\n"
            f"unitary 2 sys {had}\nunitary 3 sys {had}\n"
            "measure 4 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
        )
        assert _reversed_lifts(s) == {0: 2}
        pd, od = paths.distribution(s), distribution(s)
        assert cli.equivalence_delta(pd, od) <= 1e-9
        assert od.probability({"W": "fail"}) == pytest.approx(0.98, abs=1e-12)
        _assert_eager_distribution(s)


class TestJointProbability:
    def test_which_way_statistics(self):
        # both probes engaged: P(i, j) = |A(j <- i <- s0)|^2
        st = evolve(dilate(library.double_slit()))
        for i in ("up", "down"):
            for j in ("fail", "ok"):
                expected = abs(amp(j, i, S0)) ** 2
                assert joint_probability(st, {"F": i, "W": j}) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_partial_selection_marginalizes(self):
        st = evolve(dilate(library.double_slit()))
        p_ok = joint_probability(st, {"W": "ok"})
        expected = sum(abs(amp("ok", i, S0)) ** 2 for i in ("up", "down"))
        assert p_ok == pytest.approx(expected, abs=1e-12)

    def test_selection_completeness(self):
        st = evolve(dilate(library.two_wigners(library.RegimeTag.BOTH_ERASED)))
        total = sum(joint_probability(st, {"W": label}) for label in ("fail", "ok"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_both_erased_okbar_ok_is_one_twelfth(self):
        st = evolve(dilate(library.two_wigners(library.RegimeTag.BOTH_ERASED)))
        p = joint_probability(st, {"Wbar": "ok_bar", "W": "ok"})
        assert p == pytest.approx(1 / 12, abs=1e-9)

    def test_all_retained_heads_up_is_zero(self):
        st = evolve(dilate(library.two_wigners(library.RegimeTag.BOTH_PRESERVED)))
        assert joint_probability(st, {"Fbar": "heads", "F": "up"}) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_erased_selection_is_a_typed_error(self):
        st = evolve(dilate(library.two_wigners(library.RegimeTag.BOTH_ERASED)))
        with pytest.raises(RecordErasedError, match="outcome undefined"):
            joint_probability(st, {"Fbar": "heads"})

    def test_outcome_labelled_zero_is_a_label(self):
        # the label "0" is an outcome, not the untriggered pointer level
        s = Scenario((SubsystemSpec("q", 2, ("a", "b")),), StateVector((2,), [0.6, 0.8]), (
            MeasurementEvent(1, "A", ("q",), Basis((2,), ("0", "1"), np.eye(2)),
                             Record.RETAINED),))
        want = paths.distribution(s).probability({"A": "0"})
        assert want == pytest.approx(0.36, abs=1e-12)
        assert joint_probability(evolve(dilate(s)), {"A": "0"}) == pytest.approx(want, abs=1e-12)

    def test_unknown_agent_and_label(self):
        st = evolve(dilate(library.double_slit()))
        with pytest.raises(ValueError, match="unknown agent"):
            joint_probability(st, {"nobody": "ok"})
        with pytest.raises(ValueError, match="unknown outcome label"):
            joint_probability(st, {"W": "sideways"})


class TestInterferenceRestoration:
    def test_without_probe_amplitudes_add(self):
        st = evolve(dilate(library.double_slit(engage_first_probe=False)))
        expected = abs(amp("ok", "up", S0) + amp("ok", "down", S0)) ** 2
        assert joint_probability(st, {"W": "ok"}) == pytest.approx(expected, abs=1e-12)

    def test_case1_sums_probabilities_case2_sums_amplitudes(self):
        p_sum = sum(abs(amp("ok", i, S0)) ** 2 for i in ("up", "down"))
        a_sum = abs(amp("ok", "up", S0) + amp("ok", "down", S0)) ** 2
        d1 = distribution(library.wfs("I"))
        d2 = distribution(library.wfs("II"))
        assert d1.probability({"W": "ok"}) == pytest.approx(p_sum, abs=1e-12)
        assert d2.probability({"W": "ok"}) == pytest.approx(a_sum, abs=1e-12)
        assert abs(p_sum - a_sum) > 0.1  # generic preparation: they differ

    def test_erasure_equals_never_measured(self):
        erased = distribution(library.wfs("II"))
        bare = distribution(library.double_slit(engage_first_probe=False))
        for label in ("fail", "ok"):
            assert erased.probability({"W": label}) == pytest.approx(
                bare.probability({"W": label}), abs=1e-12
            )


class TestInspectRecord:
    def _state(self, s0=S0):
        return evolve(dilate(library.wfs("II", s0=s0)))

    def test_joint_with_ok_carries_gamma_squared(self):
        st = self._state()
        a_ok = amp("ok", "up", S0) + amp("ok", "down", S0)
        expected = abs(GAMMA) ** 2 * abs(a_ok) ** 2
        assert inspect_record(st, "F", "up", {"W": "ok"}) == pytest.approx(
            expected, abs=1e-12
        )

    def test_joint_with_fail_carries_alpha_squared(self):
        st = self._state()
        a_fail = amp("fail", "up", S0) + amp("fail", "down", S0)
        expected = abs(ALPHA) ** 2 * abs(a_fail) ** 2
        assert inspect_record(st, "F", "up", {"W": "fail"}) == pytest.approx(
            expected, abs=1e-12
        )

    def test_marginal_is_sum_over_final_selection(self):
        st = self._state()
        total = inspect_record(st, "F", "up")
        by_parts = inspect_record(st, "F", "up", {"W": "ok"}) + inspect_record(
            st, "F", "up", {"W": "fail"}
        )
        assert total == pytest.approx(by_parts, abs=1e-12)

    def test_reading_does_not_certify_the_branch(self):
        # the record reads 'up' with probability built from interference
        # sums, not from the pre-erasure branch probability |<up|s0>|^2
        st = self._state()
        p_up = inspect_record(st, "F", "up")
        assert abs(p_up - S0[0] ** 2) > 0.1

    def test_untriggered_pointer_after_coupling_is_zero(self):
        st = self._state()
        assert inspect_record(st, "F", None) == pytest.approx(0.0, abs=1e-12)

    def test_outcome_labelled_zero_is_a_label(self):
        # F's basis relabelled ("0", "1"): "0" names F's first outcome, read
        # as "up" is, and None stays the untriggered level
        s = library.wfs("II")
        f = s.events[0]
        relabelled = replace(s, events=(replace(f, basis=Basis(f.basis.dims, ("0", "1"),
                                                               f.basis.matrix)),) + s.events[1:])
        st = evolve(dilate(relabelled))
        assert inspect_record(st, "F", "0", {"W": "ok"}) == pytest.approx(
            inspect_record(self._state(), "F", "up", {"W": "ok"}), abs=1e-12)
        assert inspect_record(st, "F", "0") > 0.1
        assert inspect_record(st, "F", None) == pytest.approx(0.0, abs=1e-12)

    def test_retained_record_directs_to_joint_probability(self):
        st = evolve(dilate(library.wfs("I")))
        with pytest.raises(ValueError, match="joint_probability"):
            inspect_record(st, "F", "up")

    def test_before_erasure_is_an_error(self):
        d = dilate(library.wfs("II"))
        st = evolve(d, upto_time=1)
        with pytest.raises(OracleError, match="not evolved past"):
            inspect_record(st, "F", "up")


class TestErasureTopologies:
    def _delta(self, s):
        pd = paths.distribution(s)
        od = distribution(s)
        keys = set(pd.weights) | set(od.weights)
        return pd, od, max(
            abs(pd.weights.get(k, 0.0) - od.weights.get(k, 0.0)) for k in keys
        )

    def test_chained_erasure_restores_full_interference(self):
        # two erased measurements in a row: the final statistics are those of
        # measuring the preparation directly
        s = parse_scenario(
            "subsystem a x y\n"
            "state 0.6 0.8\n"
            "measure 1 P a erased x: 1 0 y: 0 1\n"
            "measure 2 Q a erased f: 1/sqrt(2) 1/sqrt(2) o: 1/sqrt(2) -1/sqrt(2)\n"
            "measure 3 R a retained u: 0.6 0.8 v: -0.8 0.6\n"
        )
        pd, od, delta = self._delta(s)
        assert delta <= 1e-9
        assert pd.probability({"R": "u"}) == pytest.approx(1.0, abs=1e-9)
        assert pd.probability({"R": "v"}) == pytest.approx(0.0, abs=1e-9)

    def test_remeasuring_after_a_retained_eraser(self):
        # P's record is erased by Q; a later measurement of the same system
        # sees Q's branches, not P's
        s = parse_scenario(
            "subsystem a x y\n"
            "state 0.6 0.8\n"
            "measure 1 P a erased x: 1 0 y: 0 1\n"
            "measure 2 Q a retained f: 1/sqrt(2) 1/sqrt(2) o: 1/sqrt(2) -1/sqrt(2)\n"
            "measure 3 R a retained x: 1 0 y: 0 1\n"
        )
        pd, od, delta = self._delta(s)
        assert delta <= 1e-9
        # P(Q=m, R=n) = |<n|m>|^2 |<m|psi>|^2 with psi = 0.6|x> + 0.8|y>
        expected = {
            ("f", "x"): 0.49, ("f", "y"): 0.49, ("o", "x"): 0.01, ("o", "y"): 0.01,
        }
        for key, w in pd.weights.items():
            labels = tuple(label for _, label in key)
            assert w == pytest.approx(expected[labels], abs=1e-9)

    def test_joint_measurement_erases_a_single_subsystem_record(self):
        s = parse_scenario(
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 0.6 0 0.8 0\n"
            "measure 1 P a erased x: 1 0 y: 0 1\n"
            "measure 2 Q a,b retained"
            " p1: 1/sqrt(2) 0 0 1/sqrt(2)"
            " p2: 1/sqrt(2) 0 0 -1/sqrt(2)"
            " p3: 0 1/sqrt(2) 1/sqrt(2) 0"
            " p4: 0 1/sqrt(2) -1/sqrt(2) 0\n"
        )
        pd, od, delta = self._delta(s)
        assert delta <= 1e-9
        # amplitudes interfere through the erased record: |0.6<k|xx> + 0.8<k|yx>|^2
        assert pd.probability({"Q": "p1"}) == pytest.approx(0.18, abs=1e-9)
        assert pd.probability({"Q": "p3"}) == pytest.approx(0.32, abs=1e-9)

    def test_unitary_after_a_retained_eraser(self, monkeypatch):
        # A erases X's record, and X's lift stays factored out of the stored
        # state; the unitary after A does not commute with it, so the stored
        # state would take L U L^dagger for U, and the oracle refuses before
        # it walks.  The path engine, which skips X, refuses it too.
        s = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 X sys erased up: 1 0 down: 0 1\n"
            "measure 2 A sys retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "unitary 3 sys 0.6 0.8 -0.8 0.6\n"
            "measure 4 B sys retained up: 1 0 down: 0 1\n"
        )
        monkeypatch.setattr(oracle, "_walk", None)  # a walk would raise TypeError
        monkeypatch.setattr(paths, "split_slots", None)
        with pytest.raises(OracleError) as info:
            distribution(s)
        # ||[U, P_up]||_F = 0.8 sqrt(2)
        assert str(info.value) == ("erased record was disturbed after 'A''s measurement by "
                                   "the unitary at time 3 (commutator residual 1.13)")
        _assert_paths_refuse(s, str(info.value))

    def test_unitary_after_the_eraser_of_a_reversed_lift(self):
        # V moves F's record inside W's targets, so W erases it in the basis
        # of V L V^dagger; any later unitary on that support is refused, even
        # one diagonal in F's own basis
        text = ("subsystem sys up down\n"
                "state 0.6 0.8\n"
                "measure 1 F sys erased up: 1 0 down: 0 1\n"
                "unitary 2 sys 1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)\n"
                "measure 3 W sys retained up: 1 0 down: 0 1\n")
        assert _reversed_lifts(parse_scenario(text)) == {0: 2}
        s = parse_scenario(text + "unitary 4 sys 1 0 0 1i\n"
                                  "measure 5 R sys retained up: 1 0 down: 0 1\n")
        with pytest.raises(OracleError) as info:
            dilate(s)
        assert str(info.value) == ("erased record was disturbed after 'W''s measurement by "
                                   "the unitary at time 4 (commutator residual inf)")

    def test_joint_unitary_over_two_erased_records(self):
        s = parse_scenario(
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 0.36 0.48 0.48 0.64\n"
            "measure 1 P a erased x: 1 0 y: 0 1\n"
            "measure 2 Q b erased x: 1 0 y: 0 1\n"
            "measure 3 R a retained f: 1/sqrt(2) 1/sqrt(2) o: 1/sqrt(2) -1/sqrt(2)\n"
            "measure 4 S b retained f: 1/sqrt(2) 1/sqrt(2) o: 1/sqrt(2) -1/sqrt(2)\n"
        )
        rng = np.random.default_rng(5)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 4)))
        joint = MeasurementEvent(6, "T", ("a", "b"), random_basis(rng, (2, 2)), Record.RETAINED)
        # the unitary acts after both erasers; diagonal in both records'
        # bases, it entangles a and b and commutes with both lifts
        s2 = Scenario(s.subsystems, s.initial, s.events + (
            UnitaryEvent(5, ("a", "b"), Operator((2, 2), phases)), joint))
        assert s2.erasers() == {0: 2, 1: 3} and _reversed_lifts(s2) == {}
        assert self._delta(s2)[2] <= 1e-9
        _assert_matches_eager(s2)
        # a generic one commutes with neither and is refused at P's record
        s2 = Scenario(s.subsystems, s.initial, s.events + (
            UnitaryEvent(5, ("a", "b"), Operator((2, 2), random_unitary(rng, 4))), joint))
        with pytest.raises(OracleError, match="disturbed after 'R''s measurement"):
            dilate(s2)

    def test_unitary_after_an_erased_eraser(self):
        # Y erases X's record and keeps its own; the unitary (Pauli X, diagonal
        # in Y's basis) is conjugated by X's lift and leaves Y's record intact
        s = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 X sys erased up: 1 0 down: 0 1\n"
            "measure 2 Y sys erased p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "unitary 3 sys 0 1 1 0\n"
            "measure 4 B sys retained up: 1 0 down: 0 1\n"
        )
        pd, od, delta = self._delta(s)
        assert delta <= 1e-9
        assert od.probability({"B": "up"}) == pytest.approx(0.64, abs=1e-9)


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        s = library.builtin(name)
        pd = paths.distribution(s)
        od = distribution(s)
        for key in set(pd.weights) | set(od.weights):
            assert pd.weights.get(key, 0.0) == pytest.approx(
                od.weights.get(key, 0.0), abs=1e-9
            )

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_unpinned_scenarios(self, start):
        for seed in range(start, start + 50):
            s = random_unpinned_scenario(seed)
            pd, od = paths.distribution(s), distribution(s)
            assert set(pd.weights) == set(od.weights)
            for key, w in pd.weights.items():
                assert od.weights[key] == pytest.approx(w, abs=1e-9), (seed, key)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_scenarios(self, seed):
        s = random_scenario(seed + 9000)
        pd = paths.distribution(s)
        od = distribution(s)
        for key in set(pd.weights) | set(od.weights):
            assert pd.weights.get(key, 0.0) == pytest.approx(
                od.weights.get(key, 0.0), abs=1e-9
            )
