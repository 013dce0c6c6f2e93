import dataclasses
import gc
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from pathsum import cli, library, oracle, paths
from pathsum.hilbert import Basis, Operator, StateVector
from pathsum.paths import (
    OutcomeDistribution,
    PathEngineError,
    distribution,
    enumerate_paths,
    implication,
    marginal,
    outcome_distribution,
    path_amplitude,
    real_path_graph,
    reduce,
)
from pathsum.scenario import (
    MeasurementEvent,
    Record,
    Scenario,
    ScenarioValidationError,
    SubsystemSpec,
    UnitaryEvent,
    parse_scenario,
    serialize_scenario,
)
from pathsum.testing import (
    erased_qubit_chain,
    random_scenario,
    random_unpinned_scenario,
    random_unrestricted_scenario,
)

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


def amplitudes_by_labels(s):
    """The path table of ``s`` as {one label per measurement, in time order: amplitude}."""
    labels = itertools.product(*(e.labels for _, e in s.measurements()))
    return dict(zip(labels, enumerate_paths(s).ravel().tolist()))


def branches_of(s, labels):
    """The (event index, label) assignment giving each measurement its label."""
    return tuple(zip((i for i, _ in s.measurements()), labels))


def weights_by_labels(dist):
    return {tuple(label for _, label in key): w for key, w in dist.weights.items()}


class TestTwelveAmplitudes:
    def test_sixteen_paths_twelve_nonzero(self):
        table = enumerate_paths(two_wigners("both_preserved"))
        assert table.size == 16
        assert np.count_nonzero(abs(table) > 1e-12) == 12

    def test_signs_and_magnitudes(self):
        for labels, amp in amplitudes_by_labels(two_wigners("both_preserved")).items():
            expected = TWELVE_AMPLITUDES.get(labels, 0) * SQ12
            assert amp == pytest.approx(expected, abs=1e-12), labels

    def test_amplitudes_recomputable(self):
        s = two_wigners("both_erased")
        for labels, amp in amplitudes_by_labels(s).items():
            again = path_amplitude(branches_of(s, labels), s)
            assert again == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_amplitudes_recomputable_random(self, seed):
        s = random_scenario(seed + 7000)
        for labels, amp in amplitudes_by_labels(s).items():
            assert path_amplitude(branches_of(s, labels), s) == pytest.approx(amp, abs=1e-12)

    def test_regime_does_not_change_amplitudes(self):
        a = enumerate_paths(two_wigners("both_erased"))
        b = enumerate_paths(two_wigners("both_preserved"))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


class TestSimplePaths:
    def test_measuring_preparation_basis_is_deterministic(self):
        s = parse_scenario(
            "subsystem sys up down\nstate 1 0\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
        )
        amps = amplitudes_by_labels(s)
        assert amps[("up",)] == pytest.approx(1.0, abs=1e-12)
        assert amps[("down",)] == pytest.approx(0.0, abs=1e-12)

    def test_double_slit_amplitudes_are_products_of_overlaps(self):
        alpha, beta, gamma, delta = library.HADAMARD
        s0 = (0.6, 0.8)
        s = library.double_slit(alpha, beta, gamma, delta, s0)
        amps = amplitudes_by_labels(s)
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


    @pytest.mark.parametrize("error", [PathEngineError, oracle.OracleError])
    def test_a_nan_total_is_refused(self, error):
        weights = np.full(4, 0.25)
        weights[1] = math.nan
        with pytest.raises(error) as info:
            outcome_distribution(weights, two_wigners("both_erased"), error)
        assert str(info.value) == "probabilities sum to nan, expected 1"

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

    def test_a_list_and_an_array_give_the_same_table(self):
        d = distribution(two_wigners("both_preserved"))
        from_list = OutcomeDistribution(d.axes, list(d.probs), d.regime_tag)
        from_array = OutcomeDistribution(d.axes, np.array(d.probs), d.regime_tag)
        assert from_list.probs == from_array.probs == d.probs
        for dist in (from_list, from_array):
            assert all(type(p) is float for p in dist.probs)
            assert from_list == dist

    def test_table_is_read_only_float64(self):
        s = two_wigners("both_preserved")
        for d in (distribution(s), oracle.distribution(s),
                  OutcomeDistribution(((("A", "x"), ("A", "y")),), [0.5, 0.5])):
            assert d.table.dtype == np.float64 and not d.table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                d.table[0] = 1.0

    def test_tables_differing_in_one_row_are_unequal(self):
        d = distribution(two_wigners("both_preserved"))
        for r in range(len(d.probs)):
            probs = list(d.probs)
            probs[r] = math.nextafter(probs[r], 1.0)  # one ulp up
            other = OutcomeDistribution(d.axes, probs, d.regime_tag)
            assert other != d and d != other, r
        assert OutcomeDistribution(d.axes, d.table, d.regime_tag) == d
        assert OutcomeDistribution(d.axes, d.table, "other") != d

    def test_engines_do_not_build_the_list(self):
        s = two_wigners("both_preserved")
        for engine in (distribution, oracle.distribution):
            d = engine(s)
            assert "probs" not in vars(d)
            assert d.probs == d.table.tolist() and "probs" in vars(d)

    def test_engines_share_the_scenarios_axes_and_tag(self):
        for s in (two_wigners("fbar_preserved"), erased_qubit_chain(6)):
            for engine in (distribution, oracle.distribution):
                d = engine(s)
                assert d.axes is s.retained_axes() and d.regime_tag is s.regime_tag()

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


def _reference_marginal(d, keep):
    """The per-row definition of ``marginal``: add each row's weight, from
    +0.0 in row order, to its kept sub-tuple."""
    keep = set(keep)
    weights = {}
    for key, w in zip(d.keys, d.probs):
        sub = tuple(entry for entry in key if entry[0] in keep)
        weights[sub] = weights.get(sub, 0.0) + w
    kept = ",".join(a for a in d.agents() if a in keep)
    return OutcomeDistribution(tuple(axis for axis in d.axes if axis[0][0] in keep),
                               list(weights.values()), f"marginal[{kept}] of ({d.regime_tag})")


def _reference_probability(d, selection):
    """The per-row definition of ``probability``: the rows holding every
    selected pair, added from +0.0 in row order."""
    total = 0.0
    for key, w in zip(d.keys, d.probs):
        if all((agent, selection[agent]) in key for agent in selection):
            total += w
    return total


def _reference_implication(d, given, then):
    """The per-row definition of ``implication``'s counter probability."""
    counter = 0.0
    for key, w in zip(d.keys, d.probs):
        if given in key and then not in key:
            counter += w
    return counter


def _reference_real_path_graph(d, s):
    """The per-row definition of ``real_path_graph``: each edge looks its
    pair up in the reference marginal's weights."""
    layers = tuple((e.agent, e.labels) for _, e in s.retained() if e.agent in d.agents())
    edges = []
    for k in range(len(layers) - 1):
        (agent_a, labels_a), (agent_b, labels_b) = layers[k], layers[k + 1]
        pair = _reference_marginal(d, (agent_a, agent_b)).weights
        for la in labels_a:
            for lb in labels_b:
                w = pair.get(((agent_a, la), (agent_b, lb)), 0.0)
                w = 0.0 if w <= 1e-12 else w
                edges.append((k, la, lb, w, w == 0.0))
    return layers, tuple(edges)


def _all_kept(s):
    return dataclasses.replace(s, events=tuple(
        dataclasses.replace(e, record=Record.RETAINED) if isinstance(e, MeasurementEvent) else e
        for e in s.events))


def _axis_scenarios():
    """The built-ins, the four 2w2f regimes, random_scenario seeds 0-199, and
    each of those with every record kept."""
    scenarios = [library.builtin(name) for name in library.builtin_names()]
    scenarios += [two_wigners(regime.value) for regime in library.RegimeTag]
    scenarios += [random_scenario(seed) for seed in range(200)]
    return scenarios + [_all_kept(s) for s in scenarios]


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestAxisSums:
    """``marginal``, ``probability``, ``implication`` and ``real_path_graph``
    read the table by its axes and give the per-row definitions' floats, bit
    for bit, without building the per-row keys."""

    def test_marginal_is_the_reference(self):
        for s in _axis_scenarios():
            d = distribution(s)
            for r in range(min(3, len(d.axes)) + 1):
                for keep in itertools.combinations(d.agents(), r):
                    got, want = marginal(d, keep), _reference_marginal(d, keep)
                    assert got == want and _same_bits(got.table, want.table), (s, keep)

    def test_probability_and_implication_are_the_reference(self):
        for s in _axis_scenarios():
            d = distribution(s)
            pairs = [pair for axis in d.axes for pair in axis]
            selections = [{agent: label} for agent, label in pairs] + [{}]
            selections += [{a: la, b: lb} for (a, la), (b, lb) in itertools.combinations(pairs, 2)
                           if a != b]
            for selection in selections:
                got = d.probability(selection)
                want = _reference_probability(d, selection)
                assert type(got) is float and _same_bits(got, want), (s, selection)
            for given, then in itertools.product(pairs, repeat=2):
                got = implication(d, given, then)
                want = _reference_implication(d, given, then)
                assert type(got.counter_probability) is float, (s, given, then)
                assert _same_bits(got.counter_probability, want), (s, given, then)
                assert got.holds == (want <= 1e-9)

    def test_real_path_graph_is_the_reference(self):
        for s in _axis_scenarios():
            d = distribution(s)
            graph = real_path_graph(d, s)
            layers, edges = _reference_real_path_graph(d, s)
            assert graph.layers == layers
            assert graph.edges == edges
            assert all(_same_bits(a[3], b[3]) for a, b in zip(graph.edges, edges)), s

    def test_signed_zeros_sum_as_the_loop_does(self):
        axes = ((("A", "x"), ("A", "y")), (("B", "u"), ("B", "v")))
        d = OutcomeDistribution(axes, [-0.0, -0.0, 0.5, 0.5])
        for keep in ((), ("A",), ("B",), ("A", "B")):
            assert _same_bits(marginal(d, keep).table, _reference_marginal(d, keep).table)
        for selection in ({"A": "x"}, {"B": "u"}, {"A": "x", "B": "v"}):
            assert _same_bits(d.probability(selection), _reference_probability(d, selection))
        got = implication(d, ("A", "x"), ("B", "v")).counter_probability
        assert _same_bits(got, _reference_implication(d, ("A", "x"), ("B", "v")))


class TestAxisSumsAtScale:
    """A synthetic 2^16-row table over the all-retained 16-chain's axes: DOT
    and queries build no per-row keys and stay within small multiples of the
    table's bytes."""

    @pytest.fixture
    def table(self):  # built per test, so no test sees another's cached keys
        s = _all_kept(erased_qubit_chain(16))
        w = np.random.default_rng(16).random(2**16)
        return OutcomeDistribution(s.retained_axes(), w / w.sum(), s.regime_tag()), s

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dot_and_queries_build_no_keys(self, table):
        d, s = table
        cli.dot_source(d, s)
        assert "keys" not in vars(d) and "weights" not in vars(d)
        implication(d, ("A1", "m0"), ("A16", "m1"))
        d.probability({"A3": "m1", "A9": "m0"})
        assert "keys" not in vars(d) and "weights" not in vars(d)

    def test_sums_are_the_reference(self, table):
        d, s = table
        for keep in (("A2", "A15"), ("A1",), ("A16",)):
            assert _same_bits(marginal(d, keep).table, _reference_marginal(d, keep).table)
        for selection in ({}, {"A3": "m1", "A9": "m0"}):
            assert _same_bits(d.probability(selection), _reference_probability(d, selection))
        got = implication(d, ("A1", "m0"), ("A16", "m1")).counter_probability
        assert _same_bits(got, _reference_implication(d, ("A1", "m0"), ("A16", "m1")))

    def test_dot_graph_costs_a_few_distributions(self, table):
        # the axis sums take about 2x one ``distribution`` of the same chain,
        # a per-row walk of the table about 600x; each the best of 3 runs
        _, s = table
        d = distribution(s)

        def best(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(lambda: real_path_graph(d, s)) <= 5 * best(lambda: distribution(s))

    @pytest.mark.parametrize("call, bound", [
        (lambda d, s: implication(d, ("A1", "m0"), ("A16", "m1")), 2),
        (lambda d, s: d.probability({}), 2),
        (lambda d, s: marginal(d, ("A2", "A15")), 2),
        (lambda d, s: real_path_graph(d, s), 3),
    ], ids=["implication", "probability", "marginal", "real_path_graph"])
    def test_peak_is_a_small_multiple_of_the_table(self, table, call, bound):
        d, s = table
        assert self._peak(lambda: call(d, s)) <= bound * d.table.nbytes


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
    table = enumerate_paths(s)
    assert abs(np.vdot(table, table).real - 1.0) <= 1e-12  # sum over paths of |A|^2
    got = distribution(s).weights
    want = reduce(table, s).weights
    assert set(got) == set(want)
    for key, w in want.items():
        assert got[key] == pytest.approx(w, abs=1e-12), key


def _pinned(scenarios):
    """The scenarios in the class ``enumerate_paths`` answers."""
    for s in scenarios:
        try:
            paths._engine_preconditions(s)
        except PathEngineError:
            continue
        yield s


def _unrestricted(seeds):
    """The valid scenarios ``random_unrestricted_scenario`` gives on ``seeds``."""
    for seed in seeds:
        try:
            yield random_unrestricted_scenario(seed)
        except ScenarioValidationError:
            pass


def _reference_enumerate_paths(s):
    """The per-path definition of ``enumerate_paths``: split the branch
    states on every measurement, then contract each path's state, one path
    at a time, with the unit tensor that pins every subsystem to its final
    measurement's outcome on that path; nothing of the state may be left
    outside that tensor."""
    finals = paths._engine_preconditions(s)
    split = {i: e.labels for i, e in s.measurements()}
    states = paths._branch_states(s, split).reshape((-1,) + s.dims)
    amps = []
    for labels, state in zip(itertools.product(*split.values()), states):
        assignment = dict(zip(split, labels))
        ref = np.ones(())
        slot_order = []
        for i in finals:
            e = s.events[i]
            v = e.basis.matrix[:, e.labels.index(assignment[i])]
            ref = np.multiply.outer(ref, v.reshape(e.basis.dims))
            slot_order.extend(s.slots(e.targets))
        ref = np.moveaxis(ref, range(len(slot_order)), slot_order)
        amp = complex(np.vdot(ref, state))
        assert float(np.linalg.norm(state)) ** 2 - abs(amp) ** 2 <= 1e-10, labels
        amps.append(amp)
    return np.array(amps).reshape([len(labels) for labels in split.values()])


class TestPathTable:
    """``enumerate_paths`` returns one read-only complex array, one axis per
    measurement in time order, equal to the per-path definition."""

    @staticmethod
    def _scenarios():
        """The built-ins, the four 2w2f regimes and random_scenario seeds 0-499."""
        yield from (library.builtin(name) for name in library.builtin_names())
        yield from (two_wigners(regime.value) for regime in library.RegimeTag)
        yield from (random_scenario(seed) for seed in range(500))

    def test_table_is_the_per_path_reference(self):
        count = 0
        for s in self._scenarios():
            got, want = enumerate_paths(s), _reference_enumerate_paths(s)
            assert got.shape == want.shape == tuple(len(e.labels) for _, e in s.measurements())
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(s))
            count += 1
        assert count == 511

    def test_table_is_read_only_complex(self):
        table = enumerate_paths(two_wigners("both_erased"))
        assert table.dtype == np.complex128 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0, 0] = 1.0

    def test_erased_chain_table_takes_a_few_distributions(self):
        # the erased 16-chain's 2^16 paths took about 1x one ``distribution`` of
        # the all-retained 16-chain's 2^16 tuples, one object per path about
        # 85x; each the best of 3 runs
        erased = erased_qubit_chain(16)
        kept = _all_kept(erased)

        def best(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(lambda: enumerate_paths(erased)) <= 5 * best(lambda: distribution(kept))


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

    def test_unpinned_scenarios_in_the_pinned_class(self):
        # 65 of random_unpinned_scenario's seeds 0-199 keep every subsystem pinned
        pinned = list(_pinned(random_unpinned_scenario(seed) for seed in range(200)))
        assert len(pinned) == 65
        for s in pinned:
            _assert_matches_definition(s)

    def test_unrestricted_scenarios_in_the_pinned_class(self):
        # seeds 0-999 give 226 valid scenarios, 29 of them in the pinned class
        pinned = list(_pinned(_unrestricted(range(1000))))
        assert len(pinned) == 29
        for s in pinned:
            _assert_matches_definition(s)


class TestLongErasedChain:
    N = 25  # 2**25 virtual paths, 2 * 3**25 dilated amplitudes

    def test_distribution_is_the_last_basis_born_rule(self):
        s = erased_qubit_chain(self.N)
        last = s.events[-1].basis
        dist = distribution(s)
        assert len(dist.weights) == 2
        for label, v in zip(last.labels, last.matrix.T):
            born = abs(np.vdot(v, s.initial.amps)) ** 2
            assert dist.weights[((f"A{self.N}", label),)] == pytest.approx(born, abs=1e-12)

    def test_enumeration_hits_its_cap(self):
        # one amplitude per path, 2^25, over the amplitude budget
        s = erased_qubit_chain(self.N)
        tracemalloc.start()
        try:
            with pytest.raises(PathEngineError, match="branch states need 33554432 amplitudes"):
                enumerate_paths(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_oracle_refuses_before_allocating(self):
        # ``evolve`` fires every pointer, 2 * 2^25 amplitudes, over the budget;
        # ``distribution`` fires only the retained one and answers
        s = erased_qubit_chain(self.N)
        d = oracle.dilate(s)
        tracemalloc.start()
        try:
            with pytest.raises(oracle.OracleError, match="stored state needs 67108864 amplitudes"):
                oracle.evolve(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        od = oracle.distribution(s)
        assert cli.equivalence_delta(distribution(s), od) <= 1e-9

    def test_cli_exits_2(self, tmp_path, capsys):
        # the oracle budgets only the pointers its walk fires, so both engines answer
        target = tmp_path / "chain.scn"
        target.write_text(serialize_scenario(erased_qubit_chain(self.N)), "utf-8")
        assert cli.main(["run", str(target), "--engine", "both", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta"] <= 1e-9 and len(doc["outcomes"]) == 2


def _thirteen_qubits():
    """13 qubits in |0...0>, each measured once: 2**13 tuples and 2**13 paths."""
    n = 13
    basis = Basis((2,), ("0", "1"), [[1, 0], [0, 1]])
    initial = np.zeros(2**n)
    initial[0] = 1.0
    return Scenario(
        tuple(SubsystemSpec(f"q{k}", 2, ("0", "1")) for k in range(n)),
        StateVector((2,) * n, initial),
        tuple(MeasurementEvent(1, f"A{k}", (f"q{k}",), basis, Record.RETAINED)
              for k in range(n)),
    )


def test_distribution_refuses_oversized_batch_before_allocating():
    # 2**13 tuples of 2**13 amplitudes each
    s = _thirteen_qubits()
    tracemalloc.start()
    try:
        with pytest.raises(PathEngineError, match="branch states need 67108864 amplitudes"):
            distribution(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_paths_answers_the_oversized_batch():
    # every measurement is its subsystem's final, so the table is the rotated
    # state: one amplitude per path, 2**13, all but one of them 0
    table = enumerate_paths(_thirteen_qubits())
    assert table.shape == (2,) * 13
    assert np.count_nonzero(table) == 1 and table[(0,) * 13] == 1.0


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
            keys = list(itertools.product(*s.retained_axes()))
            for engine in (distribution, oracle.distribution):
                d = engine(s)
                assert list(d.weights) == keys
                assert [key for key, _ in _sorted_outcomes(d, s)] == keys

    def test_reduce_is_deterministic(self):
        s = two_wigners("both_erased")
        table = enumerate_paths(s)
        assert reduce(table, s).weights == reduce(table, s).weights
