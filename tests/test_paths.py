import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pathsum import cli, library, oracle
from pathsum.hilbert import Basis, Operator, StateVector
from pathsum.paths import (
    OutcomeDistribution,
    PathEngineError,
    distribution,
    enumerate_paths,
    implication,
    marginal,
    path_amplitude,
    real_path_graph,
    reduce,
    retained_keys,
)
from pathsum.scenario import (
    MeasurementEvent,
    Record,
    Scenario,
    SubsystemSpec,
    UnitaryEvent,
    parse_scenario,
    serialize_scenario,
)
from pathsum.testing import erased_qubit_chain, random_scenario, random_unpinned_scenario

SQ12 = 1.0 / math.sqrt(12.0)

# the twelve nonzero virtual paths of the coin+spin composite, as
# (coin at t1, spin at t2, Wbar reading, W reading) -> sign of 1/sqrt(12)
TWELVE_AMPLITUDES = {
    ("heads", "down", "fail_bar", "fail"): +1,
    ("tails", "down", "fail_bar", "fail"): +1,
    ("tails", "up", "fail_bar", "fail"): +1,
    ("heads", "down", "fail_bar", "ok"): -1,
    ("tails", "down", "fail_bar", "ok"): -1,
    ("tails", "up", "fail_bar", "ok"): +1,
    ("heads", "down", "ok_bar", "fail"): +1,
    ("tails", "down", "ok_bar", "fail"): -1,
    ("tails", "up", "ok_bar", "fail"): -1,
    ("heads", "down", "ok_bar", "ok"): -1,
    ("tails", "down", "ok_bar", "ok"): +1,
    ("tails", "up", "ok_bar", "ok"): -1,
}

# both friend records erased: w(Wbar, W) in twelfths
BOTH_ERASED_TWELFTHS = {
    ("fail_bar", "fail"): 9,
    ("fail_bar", "ok"): 1,
    ("ok_bar", "fail"): 1,
    ("ok_bar", "ok"): 1,
}

# only Fbar's record preserved: w(Fbar, Wbar, W) in twelfths
FBAR_PRESERVED_TWELFTHS = {
    ("heads", "fail_bar", "fail"): 1,
    ("heads", "fail_bar", "ok"): 1,
    ("heads", "ok_bar", "fail"): 1,
    ("heads", "ok_bar", "ok"): 1,
    ("tails", "fail_bar", "fail"): 4,
    ("tails", "fail_bar", "ok"): 0,
    ("tails", "ok_bar", "fail"): 4,
    ("tails", "ok_bar", "ok"): 0,
}

# only F's record preserved: w(F, Wbar, W) in twelfths
F_PRESERVED_TWELFTHS = {
    ("up", "fail_bar", "fail"): 1,
    ("up", "fail_bar", "ok"): 1,
    ("up", "ok_bar", "fail"): 1,
    ("up", "ok_bar", "ok"): 1,
    ("down", "fail_bar", "fail"): 4,
    ("down", "fail_bar", "ok"): 4,
    ("down", "ok_bar", "fail"): 0,
    ("down", "ok_bar", "ok"): 0,
}


def two_wigners(regime):
    return library.two_wigners(library.RegimeTag(regime))


def labels_of(path):
    return tuple(label for _, label in path.branches)


def weights_by_labels(dist):
    return {tuple(label for _, label in key): w for key, w in dist.weights.items()}


class TestTwelveAmplitudes:
    def test_sixteen_paths_twelve_nonzero(self):
        paths = enumerate_paths(two_wigners("both_preserved"))
        assert len(paths) == 16
        assert sum(not p.is_zero for p in paths) == 12

    def test_signs_and_magnitudes(self):
        paths = enumerate_paths(two_wigners("both_preserved"))
        for p in paths:
            expected = TWELVE_AMPLITUDES.get(labels_of(p), 0) * SQ12
            assert p.amplitude == pytest.approx(expected, abs=1e-12), labels_of(p)

    def test_amplitudes_recomputable(self):
        s = two_wigners("both_erased")
        for p in enumerate_paths(s):
            again = path_amplitude(p.branches, s)
            assert again == pytest.approx(p.amplitude, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_amplitudes_recomputable_random(self, seed):
        s = random_scenario(seed + 7000)
        for p in enumerate_paths(s):
            assert path_amplitude(p.branches, s) == pytest.approx(p.amplitude, abs=1e-12)

    def test_regime_does_not_change_amplitudes(self):
        a = enumerate_paths(two_wigners("both_erased"))
        b = enumerate_paths(two_wigners("both_preserved"))
        for pa, pb in zip(a, b):
            assert pa.amplitude == pytest.approx(pb.amplitude, abs=1e-14)


class TestSimplePaths:
    def test_measuring_preparation_basis_is_deterministic(self):
        s = parse_scenario(
            "subsystem sys up down\nstate 1 0\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
        )
        amps = {labels_of(p): p.amplitude for p in enumerate_paths(s)}
        assert amps[("up",)] == pytest.approx(1.0, abs=1e-12)
        assert amps[("down",)] == pytest.approx(0.0, abs=1e-12)

    def test_double_slit_amplitudes_are_products_of_overlaps(self):
        alpha, beta, gamma, delta = library.HADAMARD
        s0 = (0.6, 0.8)
        s = library.double_slit(alpha, beta, gamma, delta, s0)
        amps = {labels_of(p): p.amplitude for p in enumerate_paths(s)}
        assert len(amps) == 4
        overlaps = {"fail": (alpha, beta), "ok": (gamma, delta)}
        for i, way in enumerate(("up", "down")):
            for out in ("fail", "ok"):
                expected = np.conj(overlaps[out][i]) * s0[i]
                assert amps[(way, out)] == pytest.approx(expected, abs=1e-12)


class TestReduce:
    @pytest.mark.parametrize(
        "regime,table",
        [
            ("both_erased", BOTH_ERASED_TWELFTHS),
            ("fbar_preserved", FBAR_PRESERVED_TWELFTHS),
            ("f_preserved", F_PRESERVED_TWELFTHS),
        ],
    )
    def test_regime_tables(self, regime, table):
        dist = distribution(two_wigners(regime))
        got = weights_by_labels(dist)
        assert set(got) == set(table)
        for key, twelfths in table.items():
            assert got[key] == pytest.approx(twelfths / 12.0, abs=1e-9), key

    def test_all_retained_table(self):
        dist = distribution(two_wigners("both_preserved"))
        got = weights_by_labels(dist)
        assert len(got) == 16
        for key, w in got.items():
            expected = 0.0 if (key[0], key[1]) == ("heads", "up") else 1 / 12
            assert w == pytest.approx(expected, abs=1e-9), key

    def test_zero_weights_are_exactly_zero(self):
        dist = distribution(two_wigners("fbar_preserved"))
        got = weights_by_labels(dist)
        assert got[("tails", "fail_bar", "ok")] == 0.0
        assert got[("tails", "ok_bar", "ok")] == 0.0

    def test_weights_sum_to_one(self):
        for regime in library.RegimeTag:
            assert distribution(two_wigners(regime.value)).total() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_scenarios_normalize(self, seed):
        dist = distribution(random_scenario(seed + 3000))
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0.0 for w in dist.weights.values())

    def test_total_is_checked_before_the_clamp(self):
        # 2^18 retained tuples; the 3,353 weights clamped to 0 held about
        # 1.6e-9, more than the total's tolerance
        chain = erased_qubit_chain(18)
        s = Scenario(chain.subsystems, chain.initial, tuple(
            dataclasses.replace(e, record=Record.RETAINED) for e in chain.events))
        dist = distribution(s)
        assert len(dist.weights) == 2**18
        assert abs(dist.total() - 1.0) > 1e-9
        assert 0.0 in dist.weights.values()


class TestMarginal:
    def test_friend_pair_marginal(self):
        dist = distribution(two_wigners("both_preserved"))
        pair = marginal(dist, {"Fbar", "F"})
        got = weights_by_labels(pair)
        assert got[("heads", "up")] == pytest.approx(0.0, abs=1e-9)
        for key in (("heads", "down"), ("tails", "down"), ("tails", "up")):
            assert got[key] == pytest.approx(1 / 3, abs=1e-9)

    def test_keep_all_is_identity(self):
        dist = distribution(two_wigners("both_erased"))
        same = marginal(dist, set(dist.agents()))
        assert same.weights == dist.weights

    def test_erased_ensemble_is_not_a_marginal(self):
        # W,Wbar marginal of the all-retained run differs from the run in
        # which the observers erased the friends' records
        preserved = marginal(distribution(two_wigners("both_preserved")), {"Wbar", "W"})
        erased = distribution(two_wigners("both_erased"))
        key = (("Wbar", "fail_bar"), ("W", "fail"))
        assert preserved.weights[key] == pytest.approx(3 / 12, abs=1e-9)
        assert erased.weights[key] == pytest.approx(9 / 12, abs=1e-9)

    def test_unknown_agent(self):
        dist = distribution(two_wigners("both_erased"))
        with pytest.raises(ValueError, match="unknown agent"):
            marginal(dist, {"nobody"})

    def test_probability_rejects_unknown_label(self):
        dist = distribution(two_wigners("both_erased"))
        with pytest.raises(ValueError, match="unknown label"):
            dist.probability({"W": "sideways"})

    def test_total_preserved(self):
        dist = distribution(random_scenario(77))
        keep = set(list(dist.agents())[:1])
        assert marginal(dist, keep).total() == pytest.approx(dist.total(), abs=1e-12)


def _dict_marginal(d, keep):
    """The marginal by definition: sum the weights dict over each kept sub-tuple."""
    weights = {}
    for key, w in d.weights.items():
        sub = tuple(entry for entry in key if entry[0] in keep)
        weights[sub] = weights.get(sub, 0.0) + w
    return weights


class TestTable:
    def test_probs_must_cover_the_table(self):
        d = distribution(two_wigners("both_preserved"))
        for probs in (d.probs[:-1], d.probs + [0.0], []):
            with pytest.raises(ValueError, match=f"{len(probs)} probabilities for a table of 16 rows"):
                OutcomeDistribution(d.axes, probs, d.regime_tag)

    def test_marginal_matches_the_dict_accumulation(self):
        scenarios = [library.builtin(name) for name in library.builtin_names()]
        scenarios += [two_wigners(regime.value) for regime in library.RegimeTag]
        scenarios += [random_scenario(seed) for seed in range(200)]
        for s in scenarios:
            d = distribution(s)
            agents = d.agents()
            for r in range(len(agents) + 1):
                for keep in itertools.combinations(agents, r):
                    want = _dict_marginal(d, set(keep))
                    got = marginal(d, keep).weights
                    # same rows in the same order, with the same floats
                    assert list(got.items()) == list(want.items()), (s, keep)

    def test_unknown_agent_and_label_messages(self):
        d = distribution(two_wigners("fbar_preserved"))
        cases = [
            (lambda: d.probability({"nobody": "ok"}), "unknown agent 'nobody' in distribution"),
            (lambda: d.probability({"W": "maybe"}), "unknown label 'maybe' for agent 'W'"),
            (lambda: d.probability({"W": "heads"}), "unknown label 'heads' for agent 'W'"),
            (lambda: implication(d, ("nobody", "ok"), ("W", "ok")),
             "unknown agent 'nobody' in distribution"),
            (lambda: implication(d, ("W", "ok"), ("Fbar", "edge")),
             "unknown label 'edge' for agent 'Fbar'"),
            (lambda: implication(d, ("Fbar", "ok"), ("W", "ok")),
             "unknown label 'ok' for agent 'Fbar'"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestImplication:
    def test_ok_implies_heads_when_fbar_preserved(self):
        dist = distribution(two_wigners("fbar_preserved"))
        result = implication(dist, ("W", "ok"), ("Fbar", "heads"))
        assert result.holds and result.counter_probability <= 1e-9

    def test_okbar_implies_up_when_f_preserved(self):
        dist = distribution(two_wigners("f_preserved"))
        result = implication(dist, ("Wbar", "ok_bar"), ("F", "up"))
        assert result.holds

    def test_up_implies_tails_when_both_preserved(self):
        dist = distribution(two_wigners("both_preserved"))
        result = implication(dist, ("F", "up"), ("Fbar", "tails"))
        assert result.holds

    def test_failed_implication_reports_counter_probability(self):
        dist = distribution(two_wigners("both_erased"))
        result = implication(dist, ("Wbar", "ok_bar"), ("W", "ok"))
        assert not result.holds
        assert result.counter_probability == pytest.approx(1 / 12, abs=1e-9)

    def test_unknown_agent_and_label(self):
        dist = distribution(two_wigners("both_erased"))
        with pytest.raises(ValueError, match="unknown agent"):
            implication(dist, ("F", "up"), ("W", "ok"))
        with pytest.raises(ValueError, match="unknown label"):
            implication(dist, ("W", "sideways"), ("Wbar", "ok_bar"))


class TestRealPathGraph:
    def test_no_pathway_between_heads_and_up(self):
        s = two_wigners("both_preserved")
        graph = real_path_graph(distribution(s), s)
        edge = next(
            e for e in graph.edges if e[0] == 0 and e[1] == "heads" and e[2] == "up"
        )
        assert edge[3] == 0.0 and edge[4] is True

    def test_both_erased_has_four_real_paths(self):
        s = two_wigners("both_erased")
        graph = real_path_graph(distribution(s), s)
        assert len(graph.layers) == 2
        assert len(graph.edges) == 4
        assert all(not vanishing for *_, vanishing in graph.edges)

    def test_single_retained_measurement_single_layer(self):
        s = parse_scenario(
            "subsystem sys up down\nstate 0.6 0.8\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
        )
        graph = real_path_graph(distribution(s), s)
        assert len(graph.layers) == 1 and graph.edges == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_outgoing_weights_match_marginals(self, seed):
        s = random_scenario(seed + 5000)
        dist = distribution(s)
        graph = real_path_graph(dist, s)
        if len(graph.layers) < 2:
            return
        agent0 = graph.layers[0][0]
        for label in graph.layers[0][1]:
            outgoing = sum(w for k, la, _, w, _ in graph.edges if k == 0 and la == label)
            assert outgoing == pytest.approx(dist.probability({agent0: label}), abs=1e-9)


class TestEnginePreconditions:
    def _qubit(self, name="sys"):
        return SubsystemSpec(name, 2, ("u", "d"))

    def _basis(self):
        return Basis((2,), ("u", "d"), [[1, 0], [0, 1]])

    def _unmeasured_subsystem(self):
        return Scenario(
            (self._qubit("a"), self._qubit("b")),
            StateVector((2, 2), [1, 0, 0, 0]),
            (MeasurementEvent(1, "F", ("a",), self._basis(), Record.RETAINED),),
        )

    def _unitary_after_last_measurement(self):
        had = Operator((2,), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        return Scenario(
            (self._qubit("a"), self._qubit("b")),
            StateVector((2, 2), [1, 0, 0, 0]),
            (
                MeasurementEvent(1, "F", ("a",), self._basis(), Record.RETAINED),
                UnitaryEvent(2, ("a",), had),
                MeasurementEvent(3, "W", ("b",), self._basis(), Record.RETAINED),
            ),
        )

    def test_unmeasured_subsystem_rejected(self):
        with pytest.raises(PathEngineError, match="never measured"):
            enumerate_paths(self._unmeasured_subsystem())

    def test_unitary_after_last_measurement_rejected(self):
        with pytest.raises(PathEngineError, match="after its last measurement"):
            enumerate_paths(self._unitary_after_last_measurement())

    @pytest.mark.parametrize("build", ["_unmeasured_subsystem", "_unitary_after_last_measurement"])
    def test_distribution_outside_path_class_matches_oracle(self, build):
        s = getattr(self, build)()
        pd, od = distribution(s), oracle.distribution(s)
        assert set(pd.weights) == set(od.weights)
        for key, w in od.weights.items():
            assert pd.weights[key] == pytest.approx(w, abs=1e-9), key


def _assert_matches_definition(s):
    got = distribution(s).weights
    want = reduce(enumerate_paths(s), s).weights
    assert set(got) == set(want)
    for key, w in want.items():
        assert got[key] == pytest.approx(w, abs=1e-12), key


class TestDefinitionalEquivalence:
    """distribution(s) skips erased events; reduce(enumerate_paths(s)) sums
    amplitudes over their outcomes.  The two must agree wherever both exist."""

    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        _assert_matches_definition(library.builtin(name))

    @pytest.mark.parametrize("regime", [r.value for r in library.RegimeTag])
    def test_2w2f_regimes(self, regime):
        _assert_matches_definition(two_wigners(regime))

    @pytest.mark.parametrize("start", range(0, 500, 100))
    def test_random_scenarios(self, start):
        for seed in range(start, start + 100):
            _assert_matches_definition(random_scenario(seed))


class TestLongErasedChain:
    N = 25  # 2**25 virtual paths, 2 * 3**25 oracle amplitudes

    def test_distribution_is_the_last_basis_born_rule(self):
        s = erased_qubit_chain(self.N)
        last = s.events[-1].basis
        dist = distribution(s)
        assert len(dist.weights) == 2
        for label, v in zip(last.labels, last.matrix.T):
            born = abs(np.vdot(v, s.initial.amps)) ** 2
            assert dist.weights[((f"A{self.N}", label),)] == pytest.approx(born, abs=1e-12)

    def test_enumeration_hits_its_cap(self):
        with pytest.raises(PathEngineError, match="enumeration cap"):
            enumerate_paths(erased_qubit_chain(self.N))

    def test_oracle_refuses_before_allocating(self):
        s = erased_qubit_chain(self.N)
        tracemalloc.start()
        try:
            with pytest.raises(oracle.OracleError, match="amplitudes"):
                oracle.dilate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cli_exits_2(self, tmp_path, capsys):
        target = tmp_path / "chain.scn"
        target.write_text(serialize_scenario(erased_qubit_chain(self.N)), "utf-8")
        assert cli.main(["run", str(target), "--engine", "both"]) == 2
        assert "amplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("engine", [distribution, enumerate_paths], ids=lambda f: f.__name__)
def test_distribution_refuses_oversized_batch_before_allocating(engine):
    # 13 qubits each measured once: 2**13 tuples (and paths) of 2**13 amplitudes each
    n = 13
    basis = Basis((2,), ("0", "1"), [[1, 0], [0, 1]])
    initial = np.zeros(2**n)
    initial[0] = 1.0
    s = Scenario(
        tuple(SubsystemSpec(f"q{k}", 2, ("0", "1")) for k in range(n)),
        StateVector((2,) * n, initial),
        tuple(MeasurementEvent(1, f"A{k}", (f"q{k}",), basis, Record.RETAINED)
              for k in range(n)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(PathEngineError, match="amplitudes"):
            engine(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("regime", [r.value for r in library.RegimeTag])
def test_engines_leave_no_cyclic_garbage(regime):
    # garbage in a reference cycle waits for the cyclic collector, so large
    # evolved states would pile up between collections
    s = two_wigners(regime)
    gc.collect()
    gc.disable()
    try:
        distribution(s)
        enumerate_paths(s)
        oracle.distribution(s)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _sorted_outcomes(d, s):
    """Row order by definition: event time order, then basis label order."""
    label_order = {
        e.agent: {label: j for j, label in enumerate(e.labels)}
        for _, e in s.measurements()
    }
    return sorted(d.weights.items(),
                  key=lambda item: tuple(label_order[a][label] for a, label in item[0]))


def _order_scenarios():
    """The built-ins, both generators on seeds 0-199, and a 10-chain erased and kept."""
    yield from (library.builtin(name) for name in library.builtin_names())
    yield from (random_scenario(seed) for seed in range(200))
    yield from (random_unpinned_scenario(seed) for seed in range(200))
    chain = erased_qubit_chain(10)
    yield chain
    yield Scenario(chain.subsystems, chain.initial, tuple(
        dataclasses.replace(e, record=Record.RETAINED) for e in chain.events))


class TestDeterminism:
    def test_sorted_outcomes_are_stable(self):
        # both engines emit their rows row-major over the retained events'
        # labels, which is the sorted order, so renderers print them as built
        for s in _order_scenarios():
            keys = list(retained_keys(s))
            for engine in (distribution, oracle.distribution):
                d = engine(s)
                assert list(d.weights) == keys
                assert [key for key, _ in _sorted_outcomes(d, s)] == keys

    def test_reduce_is_deterministic(self):
        s = two_wigners("both_erased")
        paths = enumerate_paths(s)
        assert reduce(paths, s).weights == reduce(paths, s).weights
