import math

import pytest

from pathsum import library, oracle, paths
from pathsum.hilbert import HilbertError
from pathsum.library import RegimeTag, builtin, builtin_names, double_slit, two_wigners, wfs
from pathsum.scenario import (
    MeasurementEvent,
    Scenario,
    parse_scenario,
    scenario_equal,
    serialize_scenario,
)

SQ2 = 1.0 / math.sqrt(2.0)


class TestShippedFiles:
    @pytest.mark.parametrize("name", builtin_names())
    def test_generator_matches_shipped_file(self, name):
        assert scenario_equal(builtin(name), library.load_shipped(name))

    @pytest.mark.parametrize("name", builtin_names())
    def test_validate_and_round_trip(self, name):
        s = builtin(name)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))


class TestDoubleSlit:
    def test_engaged_probe_adds_probabilities(self):
        dist = paths.distribution(double_slit())
        p_ok = dist.probability({"W": "ok"})
        expected = abs(SQ2 * 0.6) ** 2 + abs(SQ2 * 0.8) ** 2
        assert p_ok == pytest.approx(expected, abs=1e-12)

    def test_unengaged_probe_adds_amplitudes(self):
        dist = paths.distribution(double_slit(engage_first_probe=False))
        p_ok = dist.probability({"W": "ok"})
        expected = abs(SQ2 * 0.6 - SQ2 * 0.8) ** 2
        assert p_ok == pytest.approx(expected, abs=1e-12)

    def test_same_basis_twice_makes_probe_irrelevant(self):
        # readout basis equal to the which-way basis: nothing to interfere
        with_probe = paths.distribution(double_slit(1, 0, 0, 1))
        without = paths.distribution(double_slit(1, 0, 0, 1, engage_first_probe=False))
        for label in ("fail", "ok"):
            assert with_probe.probability({"W": label}) == pytest.approx(
                without.probability({"W": label}), abs=1e-12
            )

    def test_non_unitary_coefficients_rejected(self):
        with pytest.raises(HilbertError, match="non-unitary coefficient"):
            double_slit(1, 0, 1, 0)

    def test_unnormalized_preparation_rejected(self):
        with pytest.raises(HilbertError, match="norm"):
            double_slit(s0=(1, 1))


class TestWfs:
    def test_case1_probability_is_marginal_of_joint(self):
        dist = paths.distribution(wfs("I"))
        for j in ("fail", "ok"):
            total = sum(
                dist.probability({"F": i, "W": j}) for i in ("up", "down")
            )
            assert dist.probability({"W": j}) == pytest.approx(total, abs=1e-12)

    def test_case2_interferes(self):
        dist = paths.distribution(wfs("II"))
        assert dist.probability({"W": "ok"}) == pytest.approx(0.02, abs=1e-12)

    def test_single_branch_preparation_cases_coincide(self):
        # prepared in |up>: only one branch, so nothing can interfere
        d1 = paths.distribution(wfs("I", s0=(1, 0)))
        d2 = paths.distribution(wfs("II", s0=(1, 0)))
        assert d1.probability({"W": "ok"}) == pytest.approx(0.5, abs=1e-12)
        assert d2.probability({"W": "ok"}) == pytest.approx(0.5, abs=1e-12)

    def test_case_spelling(self):
        assert wfs(1).measurements()[0][1].record.value == "RETAINED"
        assert wfs("II").measurements()[0][1].record.value == "ERASED"
        with pytest.raises(ValueError, match="case"):
            wfs("III")


class TestTwoWigners:
    @pytest.mark.parametrize(
        "regime,fbar,f",
        [
            (RegimeTag.BOTH_ERASED, "ERASED", "ERASED"),
            (RegimeTag.FBAR_PRESERVED, "RETAINED", "ERASED"),
            (RegimeTag.F_PRESERVED, "ERASED", "RETAINED"),
            (RegimeTag.BOTH_PRESERVED, "RETAINED", "RETAINED"),
        ],
    )
    def test_regime_sets_record_flags(self, regime, fbar, f):
        s = two_wigners(regime)
        records = {e.agent: e.record.value for _, e in s.measurements()}
        assert records["Fbar"] == fbar and records["F"] == f
        assert records["Wbar"] == "RETAINED" and records["W"] == "RETAINED"

    def test_observer_order_cannot_matter(self):
        # Wbar and W act on disjoint targets; swapping their slots in time
        # must not change any probability
        s = two_wigners(RegimeTag.BOTH_ERASED)
        swapped_events = []
        for e in s.events:
            if isinstance(e, MeasurementEvent) and e.agent == "Wbar":
                swapped_events.append(
                    MeasurementEvent(5, e.agent, e.targets, e.basis, e.record)
                )
            elif isinstance(e, MeasurementEvent) and e.agent == "W":
                swapped_events.append(
                    MeasurementEvent(4, e.agent, e.targets, e.basis, e.record)
                )
            else:
                swapped_events.append(e)
        swapped = Scenario(s.subsystems, s.initial, tuple(swapped_events))
        a = paths.distribution(s)
        b = paths.distribution(swapped)
        by_set_a = {frozenset(k): w for k, w in a.weights.items()}
        by_set_b = {frozenset(k): w for k, w in b.weights.items()}
        assert set(by_set_a) == set(by_set_b)
        for k in by_set_a:
            assert by_set_a[k] == pytest.approx(by_set_b[k], abs=1e-12)

    def test_oracle_agrees_after_swap(self):
        s = two_wigners(RegimeTag.F_PRESERVED)
        od = oracle.distribution(s)
        pd = paths.distribution(s)
        for key in od.weights:
            assert od.weights[key] == pytest.approx(pd.weights[key], abs=1e-9)


class TestBuiltinResolution:
    def test_names_are_stable(self):
        assert set(builtin_names()) == {
            "double_slit",
            "wfs_case1",
            "wfs_case2",
            "2w2f_both_erased",
            "2w2f_fbar_preserved",
            "2w2f_f_preserved",
            "2w2f_both_preserved",
        }

    def test_2w2f_requires_regime(self):
        with pytest.raises(ValueError, match="regime"):
            builtin("2w2f")
        s = builtin("2w2f", "both_erased")
        assert scenario_equal(s, builtin("2w2f_both_erased"))

    def test_regime_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="does not take a regime"):
            builtin("double_slit", "both_erased")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown built-in"):
            builtin("triple_slit")
