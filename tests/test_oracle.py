import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum import cli, library, oracle, paths
from pathsum.hilbert import (MAX_AMPLITUDES, MAX_AXES, Basis, Operator, StateVector,
                             apply_to_slots)
from pathsum.oracle import (
    OracleError,
    dilate,
    distribution,
    evolve,
    inspect_record,
    joint_probability,
)
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
    random_unitary,
    random_unpinned_scenario,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
ALPHA, BETA, GAMMA, DELTA = library.HADAMARD
S0 = library.GENERIC_S0


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
        eraser = s.events[d.erasure_map[erased_event]]
        assert eraser.agent == "W"

    def test_erasure_basis_entangles_pointer_with_branch(self):
        # composite vectors alpha |D(up)> x |up> + beta |D(down)> x |down>
        d = dilate(library.wfs("II"))
        fail_col = d.erasure_basis(next(iter(d.erasure_map)))[:, 0]
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

    def test_disturbed_record_raises(self):
        bad = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 F sys erased up: 1 0 down: 0 1\n"
            "unitary 2 sys 1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)\n"
            "measure 3 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
        )
        with pytest.raises(OracleError, match="disturbed"):
            evolve(dilate(bad))

    def test_disturbed_record_raises_at_the_unitary(self):
        # the Hadamard leaves half of F's branch population outside the
        # composite basis; C^dagger after it finds that before W measures
        bad = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 F sys erased up: 1 0 down: 0 1\n"
            "unitary 2 sys 1/sqrt(2) 1/sqrt(2) 1/sqrt(2) -1/sqrt(2)\n"
            "measure 3 W sys retained fail: 1/sqrt(2) 1/sqrt(2) ok: 1/sqrt(2) -1/sqrt(2)\n"
        )
        message = ("erased record was disturbed before 'W''s measurement (population 0.5 "
                   "outside the composite-basis block); this erasure is not realizable")
        d = dilate(bad)
        for t in (2, None):
            with pytest.raises(OracleError) as info:
                evolve(d, upto_time=t)
            assert str(info.value) == message


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
        with pytest.raises(paths.PathEngineError, match="exceed the enumeration cap"):
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
    """Traced peaks on the 18-chain stay at or under the ones measured once
    both engines released their states before building the table, rounded
    up to 0.01 MiB: an extra copy of a state would add at least 4 MiB.  An
    erased chain's oracle never applies its lifts, so it stores a handful
    of amplitudes, the 23-chain included, where the lifts stored 2 * 2^23."""

    @pytest.mark.parametrize("engine, kept, n, mib", [
        (paths.distribution, True, 18, 16.02),
        (distribution, True, 18, 16.03),
        (distribution, False, 18, 0.02),
        (distribution, False, 23, 0.02),
    ], ids=["paths-retained", "oracle-retained", "oracle-erased", "oracle-erased23"])
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


class TestBudgetEdge:
    """The all-retained 24-chain is just over both engines' budgets: 2^24
    branches against the path engine's enumeration cap, and 2 * 2^24 stored
    amplitudes against the oracle's.  Each refuses before allocating."""

    N = 24

    def _kept(self):
        return _all_retained(erased_qubit_chain(self.N))

    @pytest.mark.parametrize("engine, error, message", [
        (paths.distribution, paths.PathEngineError,
         "16777216 branches exceed the enumeration cap"),
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
        assert "exceed the enumeration cap" in capsys.readouterr().err


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


def eager_evolve(d, upto_time=None):
    """The definition ``evolve`` must reproduce: every measurement applies
    its consumed chain's L^dagger, checks the records, then C, then L."""
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
        for q in reversed(plan.consumed):
            state = oracle._apply(dense_coupling(q).conj().T, q.slots, d.dims, state)
        at_zero = tuple(0 if x in plan.consumed_anc_slots else slice(None)
                        for x in range(state.ndim))
        assert np.linalg.norm(state) ** 2 - np.linalg.norm(state[at_zero]) ** 2 <= 1e-12, e.agent
        state = oracle._apply(dense_coupling(plan), plan.slots, d.dims, state)
        for q in plan.consumed:
            state = oracle._apply(dense_coupling(q), q.slots, d.dims, state)
    return state


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

    @pytest.mark.parametrize("joint,applies", [(False, 4), (True, 5)])
    def test_unitary_between_record_and_eraser_applies_the_chain_first(
        self, monkeypatch, joint, applies
    ):
        # W erases F's record after the unitary, so the unitary is sandwiched
        # between F's coupling and its inverse; W applies its own coupling,
        # R its own, and F's chain is applied once at the end
        s = self._diagonal_unitary_before_eraser(joint)
        assert self._count_applies(monkeypatch, s) == applies
        _assert_matches_eager(s)
        pd, od = paths.distribution(s), distribution(s)
        assert set(pd.weights) == set(od.weights)
        for key, w in pd.weights.items():
            assert od.weights[key] == pytest.approx(w, abs=1e-9), key

    def test_unitary_after_a_retained_eraser_applies_each_coupling_once(self, monkeypatch):
        # X's lift stays factored out of the stored state: A and B apply their
        # own couplings, the unitary acts directly, X's chain is applied at the end
        s = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 X sys erased up: 1 0 down: 0 1\n"
            "measure 2 A sys retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "unitary 3 sys 0.6 0.8 -0.8 0.6\n"
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


class TestInsertedErasedMeasurement:
    """The paper's claim: a record erased by the very next measurement of its
    subsystem leaves no trace in the retained statistics."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_distribution_unchanged_on_both_engines(self, scenario_seed, insert_seed):
        s = random_scenario(scenario_seed)
        rng = np.random.default_rng(insert_seed)
        candidates = [(e, target) for _, e in s.measurements() for target in e.targets]
        eraser, target = candidates[int(rng.integers(len(candidates)))]
        dim = s.dims[s.slots((target,))[0]]
        inserted = MeasurementEvent(2 * eraser.time_index - 1, "X", (target,),
                                    random_basis(rng, (dim,)), Record.ERASED)
        doubled = tuple(replace(e, time_index=2 * e.time_index) for e in s.events)
        s2 = Scenario(s.subsystems, s.initial, doubled + (inserted,))
        for engine in (paths.distribution, distribution):
            before, after = engine(s).weights, engine(s2).weights
            assert set(before) == set(after)
            for key, w in before.items():
                assert after[key] == pytest.approx(w, abs=1e-9), (engine.__module__, key)


def _assert_same_distribution(s, s2):
    for engine in (paths.distribution, distribution):
        before, after = engine(s).weights, engine(s2).weights
        assert set(before) == set(after)
        for key, w in before.items():
            assert after[key] == pytest.approx(w, abs=1e-9), (engine.__module__, key)


_generators = st.sampled_from([random_scenario, random_unpinned_scenario])
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
        first = random_unitary(rng, u.op.side)
        second = u.op.entries @ first.conj().T
        split = events[:k] + events[k + 1:] + [
            UnitaryEvent(u.time_index - 1, u.targets, Operator(u.op.dims, first)),
            UnitaryEvent(u.time_index, u.targets, Operator(u.op.dims, second)),
        ]
        _assert_same_distribution(Scenario(s.subsystems, s.initial, tuple(events)),
                                  Scenario(s.subsystems, s.initial, tuple(split)))


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
        assert inspect_record(st, "F", "0") == pytest.approx(0.0, abs=1e-12)

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

    def test_unitary_after_a_retained_eraser(self):
        # A erases X's record; the unitary acts after that, so the oracle
        # conjugates it by X's lift instead of reading it as a disturbance
        s = parse_scenario(
            "subsystem sys up down\n"
            "state 0.6 0.8\n"
            "measure 1 X sys erased up: 1 0 down: 0 1\n"
            "measure 2 A sys retained p: 1/sqrt(2) 1/sqrt(2) m: 1/sqrt(2) -1/sqrt(2)\n"
            "unitary 3 sys 0.6 0.8 -0.8 0.6\n"
            "measure 4 B sys retained up: 1 0 down: 0 1\n"
        )
        pd, od, delta = self._delta(s)
        assert delta <= 1e-9
        expected = {("p", "up"): 0.9604, ("p", "down"): 0.0196,
                    ("m", "up"): 0.0004, ("m", "down"): 0.0196}
        for dist in (pd, od):
            for key, w in dist.weights.items():
                assert w == pytest.approx(expected[tuple(label for _, label in key)], abs=1e-9)

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
        s = Scenario(s.subsystems, s.initial, s.events + (
            UnitaryEvent(5, ("a", "b"), Operator((2, 2), random_unitary(rng, 4))),
            MeasurementEvent(6, "T", ("a", "b"), random_basis(rng, (2, 2)), Record.RETAINED),
        ))
        assert [p.event_index for p in dilate(s).frames[4]] == [0, 1]
        assert self._delta(s)[2] <= 1e-9

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
