"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import random

import numpy as np
import pytest

from pathsum import cli, library, oracle, paths
from pathsum.library import RegimeTag
from pathsum.scenario import RecordErasedError, ScenarioParseError, parse_scenario, \
    scenario_equal, serialize_scenario
from pathsum.testing import random_scenario

SQ12 = 1.0 / math.sqrt(12.0)
ALPHA, BETA, GAMMA, DELTA = library.HADAMARD

TWELVE_AMPLITUDE_SIGNS = {
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


def _ok(n, text):
    print(f"ACCEPTANCE {n:>2} PASS  {text}")


def _labels(key):
    return tuple(label for _, label in key)


def test_criterion_01_twelve_amplitude_table():
    s = library.two_wigners(RegimeTag.BOTH_PRESERVED)
    table = paths.enumerate_paths(s)
    assert table.size == 16
    assert np.count_nonzero(abs(table) > 1e-12) == 12
    labels = itertools.product(*(e.labels for _, e in s.measurements()))
    for path, amplitude in zip(labels, table.ravel().tolist()):
        expected = TWELVE_AMPLITUDE_SIGNS.get(path, 0) * SQ12
        assert abs(amplitude - expected) <= 1e-12, path
    _ok(1, "twelve signed path amplitudes = +-1/sqrt(12); 12 of 16 paths nonzero")


def test_criterion_02_both_erased_regime():
    dist = paths.distribution(library.two_wigners(RegimeTag.BOTH_ERASED))
    table = {
        ("fail_bar", "fail"): 9 / 12,
        ("fail_bar", "ok"): 1 / 12,
        ("ok_bar", "fail"): 1 / 12,
        ("ok_bar", "ok"): 1 / 12,
    }
    for key, w in dist.weights.items():
        assert abs(w - table[_labels(key)]) <= 1e-9
    st = oracle.evolve(oracle.dilate(library.two_wigners(RegimeTag.BOTH_ERASED)))
    p = oracle.joint_probability(st, {"Wbar": "ok_bar", "W": "ok"})
    assert abs(p - 1 / 12) <= 1e-9
    _ok(2, "both erased: 9/12, 1/12, 1/12, 1/12; oracle projector gives 1/12 too")


def test_criterion_03_fbar_preserved_regime():
    dist = paths.distribution(library.two_wigners(RegimeTag.FBAR_PRESERVED))
    table = {
        ("heads", "fail_bar", "fail"): 1 / 12,
        ("heads", "fail_bar", "ok"): 1 / 12,
        ("heads", "ok_bar", "fail"): 1 / 12,
        ("heads", "ok_bar", "ok"): 1 / 12,
        ("tails", "fail_bar", "fail"): 1 / 3,
        ("tails", "fail_bar", "ok"): 0.0,
        ("tails", "ok_bar", "fail"): 1 / 3,
        ("tails", "ok_bar", "ok"): 0.0,
    }
    assert len(dist.weights) == 8
    for key, w in dist.weights.items():
        assert abs(w - table[_labels(key)]) <= 1e-9
    result = paths.implication(dist, ("W", "ok"), ("Fbar", "heads"))
    assert result.holds
    _ok(3, "Fbar preserved: eight values incl. two zeros; Ok => Heads HOLDS")


def test_criterion_04_f_preserved_regime():
    dist = paths.distribution(library.two_wigners(RegimeTag.F_PRESERVED))
    table = {
        ("up", "fail_bar", "fail"): 1 / 12,
        ("up", "fail_bar", "ok"): 1 / 12,
        ("up", "ok_bar", "fail"): 1 / 12,
        ("up", "ok_bar", "ok"): 1 / 12,
        ("down", "fail_bar", "fail"): 1 / 3,
        ("down", "fail_bar", "ok"): 1 / 3,
        ("down", "ok_bar", "fail"): 0.0,
        ("down", "ok_bar", "ok"): 0.0,
    }
    assert len(dist.weights) == 8
    for key, w in dist.weights.items():
        assert abs(w - table[_labels(key)]) <= 1e-9
    result = paths.implication(dist, ("Wbar", "ok_bar"), ("F", "up"))
    assert result.holds
    _ok(4, "F preserved: eight values incl. two zeros; Ok_bar => Up HOLDS")


def test_criterion_05_both_preserved_regime():
    dist = paths.distribution(library.two_wigners(RegimeTag.BOTH_PRESERVED))
    assert len(dist.weights) == 16
    zeros = nonzeros = 0
    for key, w in dist.weights.items():
        coin, spin = _labels(key)[:2]
        if (coin, spin) == ("heads", "up"):
            assert abs(w) <= 1e-9
            zeros += 1
        else:
            assert abs(w - 1 / 12) <= 1e-9
            nonzeros += 1
    assert zeros == 4 and nonzeros == 12
    pair = paths.marginal(dist, {"Fbar", "F"})
    assert abs(pair.weights[(("Fbar", "heads"), ("F", "up"))]) <= 1e-9
    for coin, spin in (("heads", "down"), ("tails", "up"), ("tails", "down")):
        assert abs(pair.weights[(("Fbar", coin), ("F", spin))] - 1 / 3) <= 1e-9
    assert paths.implication(dist, ("F", "up"), ("Fbar", "tails")).holds
    _ok(5, "both preserved: 12 x 1/12 and 4 x 0; friend marginals 0,1/3,1/3,1/3; Up => Tails HOLDS")


def test_criterion_06_contradiction_resolved_as_typed_behavior():
    # naming an erased record is an error, never a number
    with pytest.raises(RecordErasedError, match="outcome undefined"):
        cli.run("2w2f", regime="both_erased", queries=("Ok=>Heads",))
    assert cli.main(["run", "2w2f", "--regime", "both_erased", "--query", "Ok=>Heads"]) == 2
    # and the nonzero joint probability coexists with each regime's implication
    erased = paths.distribution(library.two_wigners(RegimeTag.BOTH_ERASED))
    p = erased.weights[(("Wbar", "ok_bar"), ("W", "ok"))]
    assert abs(p - 1 / 12) <= 1e-9 and p > 0
    assert paths.implication(
        paths.distribution(library.two_wigners(RegimeTag.FBAR_PRESERVED)),
        ("W", "ok"), ("Fbar", "heads"),
    ).holds
    assert paths.implication(
        paths.distribution(library.two_wigners(RegimeTag.F_PRESERVED)),
        ("Wbar", "ok_bar"), ("F", "up"),
    ).holds
    all_retained = paths.distribution(library.two_wigners(RegimeTag.BOTH_PRESERVED))
    assert paths.implication(all_retained, ("F", "up"), ("Fbar", "tails")).holds
    # ... and each single-friend implication is regime-bound: with all
    # records retained it visibly fails
    for given, then in ((("W", "ok"), ("Fbar", "heads")),
                        (("Wbar", "ok_bar"), ("F", "up"))):
        result = paths.implication(all_retained, given, then)
        assert not result.holds
        assert abs(result.counter_probability - 1 / 3) <= 1e-9
    _ok(6, "erased-record query is a typed error; P(ok_bar,ok)=1/12 coexists with the "
           "three implications, each holding only under its own regime tag")


def test_criterion_07_engine_equivalence():
    worst = 0.0
    for name in library.builtin_names():
        s = library.builtin(name)
        pd, od = paths.distribution(s), oracle.distribution(s)
        for key in set(pd.weights) | set(od.weights):
            worst = max(worst, abs(pd.weights.get(key, 0.0) - od.weights.get(key, 0.0)))
    rng = np.random.default_rng(20260808)
    for _ in range(200):
        s = random_scenario(rng)
        pd, od = paths.distribution(s), oracle.distribution(s)
        for key in set(pd.weights) | set(od.weights):
            worst = max(worst, abs(pd.weights.get(key, 0.0) - od.weights.get(key, 0.0)))
    assert worst <= 1e-9
    _ok(7, f"7 shipped + 200 random scenarios: max |paths - oracle| = {worst:.3g} <= 1e-9")


def test_criterion_08_double_slit_suite():
    s0 = (0.6, 0.8)
    # independent evaluation of both formulas from the coefficients
    a_ok = {i: np.conj((GAMMA, DELTA)[k]) * s0[k] for k, i in enumerate(("up", "down"))}
    a_fail = {i: np.conj((ALPHA, BETA)[k]) * s0[k] for k, i in enumerate(("up", "down"))}
    p_which_way = sum(abs(a) ** 2 for a in a_ok.values())
    p_interfere = abs(sum(a_ok.values())) ** 2
    assert abs(p_which_way - p_interfere) > 0.1  # generic choice: they differ

    engaged = paths.distribution(library.double_slit(s0=s0))
    bare = paths.distribution(library.double_slit(s0=s0, engage_first_probe=False))
    assert abs(engaged.probability({"W": "ok"}) - p_which_way) <= 1e-9
    assert abs(bare.probability({"W": "ok"}) - p_interfere) <= 1e-9

    # measuring the composite gives the same statistics as never engaging
    composite = oracle.distribution(library.wfs("II", s0=s0))
    assert abs(composite.probability({"W": "ok"}) - p_interfere) <= 1e-9

    # post-erasure record inspection
    st = oracle.evolve(oracle.dilate(library.wfs("II", s0=s0)))
    p_up_ok = oracle.inspect_record(st, "F", "up", {"W": "ok"})
    assert abs(p_up_ok - abs(GAMMA) ** 2 * p_interfere) <= 1e-9
    p_up_fail = oracle.inspect_record(st, "F", "up", {"W": "fail"})
    assert abs(p_up_fail - abs(ALPHA) ** 2 * abs(sum(a_fail.values())) ** 2) <= 1e-9
    p_up = oracle.inspect_record(st, "F", "up")
    assert abs(p_up - (p_up_ok + p_up_fail)) <= 1e-9

    # the erased-record marginal equals the interference probability exactly
    # when the two interference sums have equal modulus; 0.6|up> + 0.8i|down>
    # realizes that while keeping the same branch weights
    s0i = (0.6, 0.8j)
    sti = oracle.evolve(oracle.dilate(library.wfs("II", s0=s0i)))
    di = oracle.distribution(library.wfs("II", s0=s0i))
    assert abs(oracle.inspect_record(sti, "F", "up") - di.probability({"W": "ok"})) <= 1e-9
    _ok(8, "double-slit suite: which-way vs interference differ; composite = unengaged; "
           "record inspection carries |gamma|^2 and marginalizes additively")


def test_criterion_09_interference_witness():
    # brute force over the all-retained table: P(N,M,K,I) = 1/12 unless the
    # friend pair is (heads, up)
    brute = 0.0
    for coin in ("heads", "tails"):
        for spin in ("up", "down"):
            w = 0.0 if (coin, spin) == ("heads", "up") else 1 / 12
            brute += w  # (Wbar, W) fixed at (fail_bar, fail): one tuple each
    assert abs(brute - 3 / 12) <= 1e-12

    preserved = paths.marginal(
        paths.distribution(library.two_wigners(RegimeTag.BOTH_PRESERVED)), {"Wbar", "W"}
    )
    erased = paths.distribution(library.two_wigners(RegimeTag.BOTH_ERASED))
    key = (("Wbar", "fail_bar"), ("W", "fail"))
    assert abs(preserved.weights[key] - 3 / 12) <= 1e-9
    assert abs(erased.weights[key] - 9 / 12) <= 1e-9
    assert abs((erased.weights[key] - preserved.weights[key]) - 0.5) <= 1e-9
    _ok(9, "erased-record ensemble is not a marginal: 9/12 vs 3/12, gap exactly 1/2")


def test_criterion_10_parser_robustness():
    for name in library.builtin_names():
        s = library.load_shipped(name)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))
    rng = random.Random(0)
    outcomes = {"parsed": 0, "diagnosed": 0}
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(160)))
        try:
            parse_scenario(blob)
            outcomes["parsed"] += 1
        except ScenarioParseError as exc:
            assert exc.line >= 0 and exc.col >= 0
            outcomes["diagnosed"] += 1
    assert outcomes["parsed"] + outcomes["diagnosed"] == 10_000
    _ok(10, f"all shipped files round-trip; 10,000 random-byte inputs -> "
            f"{outcomes['diagnosed']} diagnostics, 0 crashes")
