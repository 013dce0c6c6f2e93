import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum import library
from pathsum.hilbert import Basis, Operator, StateVector
from pathsum.scenario import (
    MeasurementEvent,
    Record,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    SubsystemSpec,
    UnitaryEvent,
    _ExprParser,
    parse_complex_literal,
    parse_scenario,
    scenario_equal,
    scenario_from_json,
    scenario_to_json,
    serialize_scenario,
)
from pathsum.testing import random_scenario, random_unpinned_scenario

MINIMAL = """
subsystem sys up down
state 1 0
measure 1 F sys retained up: 1 0 down: 0 1
"""


def minimal_json(**event_fields):
    """MINIMAL as a JSON document, with fields of its one event replaced."""
    doc = json.loads(scenario_to_json(parse_scenario(MINIMAL)))
    doc["events"][0].update(event_fields)
    return json.dumps(doc)


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0),
            ("1", 1),
            ("-1", -1),
            ("0.6", 0.6),
            ("3/5", 0.6),
            ("1/sqrt(2)", 1 / math.sqrt(2)),
            ("-1/sqrt(2)", -1 / math.sqrt(2)),
            ("sqrt(2/3)", math.sqrt(2 / 3)),
            ("sqrt(2)/sqrt(3)", math.sqrt(2) / math.sqrt(3)),
            ("1/sqrt(12)", 1 / math.sqrt(12)),
            ("2*sqrt(2)", 2 * math.sqrt(2)),
            ("1e-05", 1e-05),
            ("1.5e+3", 1500.0),
            ("0.5+0.5i", 0.5 + 0.5j),
            ("0.5-0.5i", 0.5 - 0.5j),
            ("1i", 1j),
            ("-1i", -1j),
            ("1/sqrt(2)+1/sqrt(2)i", (1 + 1j) / math.sqrt(2)),
            ("2.5e-1i", 0.25j),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_complex_literal(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize(
        "text",
        ["", "i", "+", "1+", "1+2", "2i3", "sqrt(-1)", "1/0", "sqrt(2", "((1)",
         "1//2", "abc", "1e999", "--" * 40 + "1", "(" * 64 + "1" + ")" * 64],
    )
    def test_rejected_without_crash(self, text):
        with pytest.raises(ValueError):
            parse_complex_literal(text)


def _outcome(parse, text):
    """Bit pattern of the parsed value, or the error message."""
    try:
        z = parse(text)
    except ValueError as exc:
        return str(exc)
    return z.real.hex(), z.imag.hex()


def _grammar(text):
    return _ExprParser(text).parse_complex()


class TestPlainLiteralFastPath:
    """Plain ``a`` and ``a+bi`` literals skip the grammar; the grammar stays
    the definition of their values and of every error message."""

    def test_every_token_of_the_shipped_files(self):
        for name in library.builtin_names():
            for tok in library.shipped_source(name).split():
                assert _outcome(parse_complex_literal, tok) == _outcome(_grammar, tok), tok

    def test_seeded_floats_and_complex_forms(self):
        rng = random.Random(11)
        for _ in range(10_000):
            x = rng.choice([rng.uniform(-2, 2), rng.lognormvariate(0, 40), 0.0, -0.0])
            y = rng.choice([rng.uniform(0, 2), rng.lognormvariate(0, 40), 0.0])
            for text in (repr(x), f"{x!r}+{y!r}i", f"{x!r}-{y!r}i", f"{x:.3e}-{y:.17g}i"):
                assert _outcome(parse_complex_literal, text) == _outcome(_grammar, text), text

    @pytest.mark.parametrize("text,outcome", [
        ("-0", ((-0.0).hex(), (0.0).hex())),
        ("0-0i", ((0.0).hex(), (-0.0).hex())),
        ("--1", ((1.0).hex(), (0.0).hex())),
        ("1e400", "numeric literal overflows in literal '1e400'"),
        ("1+1e400i", "numeric literal overflows in literal '1+1e400i'"),
        ("inf", "expected a number at position 0 in literal 'inf'"),
        ("nan", "expected a number at position 0 in literal 'nan'"),
        ("1_0", "unexpected character '_' in literal '1_0'"),
    ])
    def test_edge_cases_keep_their_outcome(self, text, outcome):
        assert _outcome(parse_complex_literal, text) == outcome
        assert _outcome(_grammar, text) == outcome


class TestParser:
    def test_minimal_scenario(self):
        s = parse_scenario(MINIMAL)
        assert [sub.name for sub in s.subsystems] == ["sys"]

    def test_shipped_files_parse(self):
        for name in library.builtin_names():
            assert isinstance(library.load_shipped(name), Scenario)

    def test_empty_input(self):
        with pytest.raises(ScenarioParseError, match="no subsystems declared"):
            parse_scenario("")

    def test_duplicate_basis_vector_names_pair(self):
        bad = MINIMAL.replace("down: 0 1", "down: 1 0")
        with pytest.raises(ScenarioParseError, match="0 and 1"):
            parse_scenario(bad)

    def test_unknown_subsystem(self):
        bad = MINIMAL.replace("measure 1 F sys", "measure 1 F spin")
        with pytest.raises(ScenarioParseError, match="unknown subsystem 'spin'"):
            parse_scenario(bad)

    def test_unknown_label_after_edit(self):
        text = serialize_scenario(library.two_wigners(library.RegimeTag.BOTH_ERASED))
        bad = text.replace("measure 1 Fbar coin", "measure 1 Fbar penny")
        with pytest.raises(ScenarioParseError, match="unknown subsystem"):
            parse_scenario(bad)

    def test_non_unitary_matrix(self):
        bad = (
            "subsystem sys up down\n"
            "state 1 0\n"
            "unitary 1 sys 1 0 1 1\n"
            "measure 2 F sys retained up: 1 0 down: 0 1\n"
        )
        with pytest.raises(ScenarioParseError, match="non-unitary"):
            parse_scenario(bad)

    def test_unnormalized_state(self):
        bad = MINIMAL.replace("state 1 0", "state 1 1")
        with pytest.raises(ScenarioParseError, match="norm"):
            parse_scenario(bad)

    def test_no_final_retained_measurement(self):
        bad = (
            "subsystem sys up down\n"
            "state 1 0\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
            "unitary 2 sys 0 1 1 0\n"
        )
        with pytest.raises(ScenarioParseError, match="no surviving final record"):
            parse_scenario(bad)

    def test_final_erased_measurement_rejected(self):
        bad = MINIMAL.replace("retained", "erased")
        with pytest.raises(ScenarioParseError, match="no surviving final record"):
            parse_scenario(bad)

    def test_erased_without_eraser_rejected(self):
        bad = (
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 1 0 0 0\n"
            "measure 1 F a erased x: 1 0 y: 0 1\n"
            "measure 2 W b retained x: 1 0 y: 0 1\n"
        )
        with pytest.raises(ScenarioParseError, match="never erased"):
            parse_scenario(bad)

    def test_error_location_points_at_line(self):
        bad = "subsystem sys up down\nstate 1 0\nmeasure 1 F sys retained up: 1 0 down: 0 2\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line == 3

    def test_validation_error_points_at_event_line_after_time_sort(self):
        # the event at time 1 sorts first inside Scenario but sits on line 4
        bad = (
            "subsystem a x y\n"
            "state 1 0\n"
            "measure 5 W a retained x: 1 0 y: 0 1\n"
            "measure 1 F a,a erased p: 1 0 0 0 q: 0 1 0 0 r: 0 0 1 0 s: 0 0 0 1\n"
        )
        with pytest.raises(ScenarioParseError, match="duplicate targets") as err:
            parse_scenario(bad)
        assert err.value.line == 4

    def test_overlapping_same_time_events_rejected(self):
        bad = (
            "subsystem sys up down\n"
            "state 1 0\n"
            "measure 1 F sys retained up: 1 0 down: 0 1\n"
            "measure 1 W sys retained up: 1 0 down: 0 1\n"
        )
        with pytest.raises(ScenarioParseError, match="overlapping"):
            parse_scenario(bad)

    def test_same_time_disjoint_targets_allowed(self):
        text = (
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 1 0 0 0\n"
            "measure 1 F a retained x: 1 0 y: 0 1\n"
            "measure 1 W b retained x: 1 0 y: 0 1\n"
        )
        assert isinstance(parse_scenario(text), Scenario)

    def test_duplicate_agent_names_rejected(self):
        bad = (
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 1 0 0 0\n"
            "measure 1 F a retained x: 1 0 y: 0 1\n"
            "measure 2 F b retained x: 1 0 y: 0 1\n"
        )
        with pytest.raises(ScenarioParseError, match="not unique"):
            parse_scenario(bad)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ScenarioParseError, match="UTF-8"):
            parse_scenario(b"subsystem \xff\xfe sys")

    def test_bytes_input_accepted(self):
        assert scenario_equal(parse_scenario(MINIMAL.encode("utf-8")), parse_scenario(MINIMAL))


class TestRoundTrip:
    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        s = library.builtin(name)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_scenarios(self, seed):
        s = random_scenario(seed)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))

    @pytest.mark.parametrize("seed", range(10))
    def test_json_random(self, seed):
        s = random_scenario(seed + 1000)
        assert scenario_equal(s, scenario_from_json(scenario_to_json(s)))

    def test_json_uses_re_im_pairs(self):
        import json

        doc = json.loads(scenario_to_json(library.builtin("double_slit")))
        assert doc["initial"]["amps"][0] == [0.6, 0.0]
        assert doc["events"][0]["kind"] == "measurement"
        assert doc["events"][0]["record"] == "RETAINED"

    @pytest.mark.parametrize(
        "text",
        [
            '{"subsystems": []}',
            "[]",
            minimal_json(record="erased"),
            minimal_json(targets=[]),
            "{",
            minimal_json(time_index=1.7),
            minimal_json(time_index=True),
        ],
        ids=["no_initial", "not_an_object", "lowercase_record", "empty_targets", "truncated",
             "fractional_time", "boolean_time"],
    )
    def test_malformed_json_raises_parse_error(self, text):
        with pytest.raises(ScenarioParseError):
            scenario_from_json(text)

    @pytest.mark.parametrize(
        "path,value,entry",
        [
            (("events", 0, "time_index"), 1.7, "events[0]: TypeError('time_index"),
            (("events", 0, "time_index"), True, "events[0]: TypeError('time_index"),
            (("subsystems", 0, "dim"), 2.5, "subsystems[0]: TypeError('dim"),
            (("subsystems", 0, "dim"), True, "subsystems[0]: TypeError('dim"),
            (("initial", "dims"), [2.0], "initial: TypeError('dims entry"),
            (("events", 0, "basis", "dims"), [False], "events[0]: TypeError('dims entry"),
            (("final_time",), 1.5, "document: TypeError('final_time"),
        ],
    )
    def test_non_integer_json_numbers_name_the_entry(self, path, value, entry):
        doc = json.loads(minimal_json())
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        node[key] = value
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_json(json.dumps(doc))
        assert entry in str(info.value)

    def test_explicit_final_time_round_trips(self):
        s = Scenario(
            parse_scenario(MINIMAL).subsystems,
            parse_scenario(MINIMAL).initial,
            parse_scenario(MINIMAL).events,
            final_time=9,
        )
        text = serialize_scenario(s)
        assert "final 9" in text
        again = parse_scenario(text)
        assert again.final_time == 9 and scenario_equal(s, again)

    def test_final_before_last_event_rejected(self):
        with pytest.raises(ScenarioParseError, match="final_time is earlier"):
            parse_scenario(MINIMAL + "final 0\n")

    def test_scenario_equal_detects_record_flip(self):
        a = library.two_wigners(library.RegimeTag.BOTH_ERASED)
        b = library.two_wigners(library.RegimeTag.F_PRESERVED)
        assert not scenario_equal(a, b)


def _rule_cases():
    """(rule, scenario parts, expected message, index of the offending event or None).

    The unnormalized initial state is the sixth rule, in its own test below.
    """
    sys_ = (SubsystemSpec("sys", 2, ("up", "down")),)
    ab = (SubsystemSpec("a", 2, ("up", "down")), SubsystemSpec("b", 2, ("up", "down")))
    basis = Basis((2,), ("up", "down"), (StateVector((2,), [1, 0]), StateVector((2,), [0, 1])))
    flip = Operator((2,), [[0, 1], [1, 0]])

    def m(time, agent, target, record=Record.RETAINED):
        return MeasurementEvent(time, agent, (target,), basis, record)

    up, up_a = StateVector((2,), [1, 0]), StateVector((2, 2), [1, 0, 0, 0])
    return [
        ("unknown_target", (sys_, up, (m(1, "F", "spin"),)),
         "event 0: unknown subsystem 'spin'", 0),
        ("overlap_same_time", (sys_, up, (UnitaryEvent(1, ("sys",), flip), m(1, "F", "sys"))),
         "events 0 and 1 share time 1 and overlapping targets", 1),
        ("no_final_retained", (sys_, up, (m(1, "F", "sys"), UnitaryEvent(2, ("sys",), flip))),
         "no surviving final record (last event must be a retained measurement)", 1),
        ("erased_never_erased", (ab, up_a, (m(1, "F", "a", Record.ERASED), m(2, "W", "b"))),
         "event 0: ERASED record of agent 'F' is never erased "
         "(needs a later measurement covering ('a',))", 0),
        ("final_before_last_event", (sys_, up, (m(1, "F", "sys"),), 0),
         "final_time is earlier than the last event", None),
    ]


class TestValidate:
    def test_unnormalized_initial_reported(self):
        sub = SubsystemSpec("sys", 2, ("up", "down"))
        basis = Basis((2,), ("up", "down"),
                      (StateVector((2,), [1, 0]), StateVector((2,), [0, 1])))
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(
                (sub,),
                StateVector((2,), [1, 1]),
                (MeasurementEvent(1, "F", ("sys",), basis, Record.RETAINED),),
            )
        assert str(info.value) == "initial state norm != 1 (got 1.41421)"
        assert info.value.event is None

    @pytest.mark.parametrize("parts, message, index",
                             [case[1:] for case in _rule_cases()],
                             ids=[case[0] for case in _rule_cases()])
    def test_constructor_enforces_rule(self, parts, message, index):
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(*parts)
        assert str(info.value) == message
        events = parts[2]
        assert info.value.event is (None if index is None else events[index])

    def test_builtin_scenarios_validate(self):
        for name in library.builtin_names():
            assert isinstance(library.builtin(name), Scenario)


def _json_slots(node):
    """Every (container, key) pair of a JSON tree, parents first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for k in keys:
        yield node, k
        yield from _json_slots(node[k])


class TestFuzz:
    # JSON text, so every swap-in is a fresh value
    JUNK = ("null", "true", "false", "0.5", '"x"', "[]", "[1, 2]", "1" + "0" * 30)

    def test_seeded_json_mutations_never_crash(self):
        sources = ([library.builtin(name) for name in library.builtin_names()]
                   + [random_scenario(seed) for seed in range(20)]
                   + [random_unpinned_scenario(seed) for seed in range(20)])
        docs = [scenario_to_json(s) for s in sources]
        rng = random.Random(0)
        for _ in range(2000):
            doc = json.loads(rng.choice(docs))
            for _ in range(rng.randrange(1, 4)):
                container, key = rng.choice(list(_json_slots(doc)))
                kind = rng.randrange(3)
                if kind == 0 and isinstance(container, dict):
                    del container[key]
                elif kind == 1 and isinstance(container, list):
                    del container[key:]
                else:
                    container[key] = json.loads(rng.choice(self.JUNK))
            try:
                result = scenario_from_json(json.dumps(doc))
            except ScenarioParseError:
                continue
            assert isinstance(result, Scenario)

    def test_seeded_random_bytes_never_crash(self):
        rng = random.Random(0)
        for _ in range(2000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
            try:
                parse_scenario(blob)
            except ScenarioParseError as exc:
                assert exc.line >= 0 and exc.col >= 0

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, blob):
        try:
            parse_scenario(blob)
        except ScenarioParseError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=400))
    def test_arbitrary_text(self, text):
        try:
            parse_scenario(text)
        except ScenarioParseError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 100))
    def test_mutated_valid_sources(self, seed, cut):
        source = serialize_scenario(random_scenario(seed % 500))
        rng = random.Random(seed)
        chars = list(source)
        for _ in range(cut % 8):
            pos = rng.randrange(len(chars))
            chars[pos] = chr(rng.randrange(32, 127))
        try:
            parse_scenario("".join(chars))
        except ScenarioParseError:
            pass
