import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum import library
from pathsum.hilbert import Basis, HilbertError, Operator, StateVector
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
from pathsum.testing import (
    erased_qubit_chain,
    random_scenario,
    random_unpinned_scenario,
    random_unrestricted_scenario,
    unrestricted_scenarios,
)

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

    def test_parsed_matrices_are_read_only_and_c_contiguous(self):
        # a basis holds its vectors as columns; the engines' last bits were
        # pinned with this layout
        for name in library.builtin_names():
            for array in _amplitude_arrays(library.load_shipped(name)):
                assert array.flags.c_contiguous and not array.flags.writeable, name
        rotated = parse_scenario(MINIMAL.replace("up: 1 0 down: 0 1", "up: 0.6 0.8 down: -0.8 0.6"))
        assert rotated.events[-1].basis.matrix.tolist() == [[0.6, -0.8], [0.8, 0.6]]

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

    @pytest.mark.parametrize("time", ["1_0", "٣", "+3", "３", "1٣"])
    def test_time_is_ascii_digits_only(self, time):
        # int() accepts every one of these
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MINIMAL.replace("measure 1", f"measure {time}"))
        assert (err.value.line, err.value.col) == (4, 9)
        assert err.value.message == f"time must be an integer, got {time!r}"

    def test_final_is_an_unknown_directive(self):
        # the experiment ends at its last event; there is no knob for it
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MINIMAL + "  final 1\n")
        assert (err.value.line, err.value.col) == (5, 3)
        assert err.value.message == "unknown directive 'final'"

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioParseError, match="time must be non-negative"):
            parse_scenario(MINIMAL.replace("measure 1", "measure -3"))

    @pytest.mark.parametrize("group, bad, col", [
        ("up: 1 0", "up: 1e200*1e200 0", 26),
        ("down: 0 1", "down: 0 -1e300/1e-300", 34),
        # a later vector's bad literal or malformed label comes after it
        ("up: 1 0 down: 0 1", "up: 1e200*1e200 0 down: 0 1/0", 26),
        ("up: 1 0 down: 0 1", "up: 1e200*1e200 0 down 0 1", 26),
    ])
    def test_non_finite_basis_vector_points_at_its_label(self, group, bad, col):
        # the grammar multiplies and divides without an overflow check
        text = MINIMAL.replace(group, bad)
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col) == (4, col)
        assert err.value.message == "non-finite amplitude (NaN or Inf)"

    @pytest.mark.parametrize("lines, col, message", [
        (["measure 1 W sys retained fail: 1 0 ok: 0.6 0.8", "rotate 2 sys"], 1,
         "invalid measurement basis: basis vectors 0 and 1 are not orthogonal (|overlap| = 0.6)"),
        (["measure 1 F sys retained up: 1 1/0 down 0 1"], 32, "division by zero in literal '1/0'"),
        (["measure 1 F sys erased up: 1 0 down: 1 0",
          "measure 2 W sys retained up: 1 1 down: 0 1"], 1,
         "invalid measurement basis: basis vectors 0 and 1 are not orthogonal (|overlap| = 1)"),
        (["unitary 1 sys 1 1 1 1", "measure 2 W sys retained fail: 1/0 0 ok: 0 1"], 1,
         "non-unitary matrix: unitary at time 1 is not unitary (defect 2)"),
        (["measure 1 W sys retained fail: 1 0 ok: 0.6 0.8",
          "measure 2 V sys retained a 1 0 b: 0 1"], 1,
         "invalid measurement basis: basis vectors 0 and 1 are not orthogonal (|overlap| = 0.6)"),
    ], ids=["basis-before-unknown-directive", "literal-before-malformed-label",
            "first-of-two-bases", "unitary-before-bad-literal", "basis-before-malformed-label"])
    def test_first_error_in_source_order_is_on_line_3(self, lines, col, message):
        # the Gram checks wait for one stack per matrix side, and are made
        # before a later line's error is reported
        text = "\n".join(["subsystem sys up down", "state 1 0", *lines]) + "\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col, err.value.message) == (3, col, message)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ScenarioParseError, match="UTF-8"):
            parse_scenario(b"subsystem \xff\xfe sys")

    def test_bytes_input_accepted(self):
        assert scenario_equal(parse_scenario(MINIMAL.encode("utf-8")), parse_scenario(MINIMAL))


_SYS = "subsystem sys up down\n"


class TestDiagnostics:
    """Each structural diagnostic is its typed error, with its message and,
    for ``.scn`` input, its line and column."""

    @pytest.mark.parametrize("text, line, col, message", [
        ("subsystem sys\n", 1, 1, "subsystem needs a name and at least one label"),
        (_SYS + "subsystem sys a b\n", 2, 11, "subsystem 'sys' already declared"),
        (_SYS + "state 1 0\nsubsystem b x y\n", 3, 1, "subsystem declared after state/events"),
        ("# no subsystem yet\nstate 1 0\n", 2, 1, "no subsystems declared"),
        ("# nothing\n", 1, 1, "no subsystems declared"),
        (_SYS + "state 1 0\nstate 1 0\n", 3, 1, "state already declared"),
        (_SYS + "state 1 0\nunitary 1\n", 3, 1, "unitary needs a time and targets"),
        (_SYS + "measure 1 F sys retained up: 1 0 down: 0 1\n", 1, 1,
         "no initial state declared"),
        (_SYS + "state 1 0\n", 1, 1, "no events declared"),
        (_SYS + "state 1 0\nmeasure 1 F sys retained up: 1 0 up: 0 1\n", 3, 1,
         "invalid measurement basis: duplicate basis labels in ('up', 'up')"),
        # a state may follow an event, whose Gram check waits but comes first
        (_SYS + "unitary 1 sys 1 1 1 1\nstate 0.6 0.6\n"
         "measure 2 W sys retained up: 1 0 down: 0 1\n", 2, 1,
         "non-unitary matrix: unitary at time 1 is not unitary (defect 2)"),
    ], ids=["subsystem_unnamed", "subsystem_twice", "subsystem_late", "state_first",
            "no_subsystems", "state_twice", "unitary_short", "no_state", "no_events",
            "duplicate_outcome_labels", "unitary_before_state"])
    def test_scn(self, text, line, col, message):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert (info.value.line, info.value.col, info.value.message) == (line, col, message)

    def test_subsystem_spec(self):
        with pytest.raises(ScenarioValidationError) as info:
            SubsystemSpec("q", 0, ())
        assert str(info.value) == "subsystem 'q' has dim 0"
        with pytest.raises(ScenarioValidationError) as info:
            SubsystemSpec("q", 2, ("a",))
        assert str(info.value) == "subsystem 'q': 1 labels for dim 2"

    def test_scenario_rules(self):
        q = SubsystemSpec("q", 1, ("z",))
        one, point = StateVector((1,), [1]), Basis((1,), ("z",), [[1]])
        late = MeasurementEvent(1, "F", ("q",), point, Record.RETAINED)
        with pytest.raises(ScenarioValidationError) as info:
            Scenario((), one, (late,))
        assert str(info.value) == "no subsystems declared" and info.value.event is None
        with pytest.raises(ScenarioValidationError) as info:
            Scenario((q, q), StateVector((1, 1), [1]), (late,))
        assert str(info.value) == "duplicate subsystem names" and info.value.event is None
        # the event refuses a negative time itself, before any scenario holds it
        with pytest.raises(ScenarioValidationError) as info:
            dataclasses.replace(late, time_index=-1)
        assert str(info.value) == "MeasurementEvent.time_index must be a non-negative int, got -1"
        assert info.value.event is None

    @pytest.mark.parametrize("text, message", [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("[" * 100_000, "maximum recursion depth exceeded"),  # the rest names the C scanner
    ], ids=["undecodable", "too_deep"])
    def test_json_errors_beyond_syntax(self, text, message):
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_json(text)
        assert (info.value.line, info.value.col) == (1, 1)
        assert info.value.message.startswith(f"invalid JSON: {message}")


class TestRoundTrip:
    @pytest.mark.parametrize("name", library.builtin_names())
    def test_builtins(self, name):
        s = library.builtin(name)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_scenarios(self, seed):
        s = random_scenario(seed)
        assert scenario_equal(s, parse_scenario(serialize_scenario(s)))

    def test_non_identifier_names_are_refused(self):
        # random_unrestricted_scenario labels its qubits' levels "0" and "1",
        # which no .scn text can hold
        with pytest.raises(ValueError, match="basis label '0' is not a .scn identifier"):
            serialize_scenario(random_unrestricted_scenario(3))

    def test_generated_scenarios_round_trip_exactly(self):
        for seed in range(300):
            for s in (random_scenario(seed), random_unpinned_scenario(seed)):
                assert parse_scenario(serialize_scenario(s)) == s, seed

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
            # each refusal is the class's own, named by the entry it was built from
            (("events", 0, "time_index"), 1.7, "events[0]: ScenarioValidationError("
             "'MeasurementEvent.time_index must be a non-negative int, got 1.7')"),
            (("events", 0, "time_index"), True, "events[0]: ScenarioValidationError("
             "'MeasurementEvent.time_index must be a non-negative int, got True')"),
            (("subsystems", 0, "dim"), 2.5,
             "subsystems[0]: ScenarioValidationError('SubsystemSpec.dim must be an int, got 2.5')"),
            (("subsystems", 0, "dim"), True,
             "subsystems[0]: ScenarioValidationError('SubsystemSpec.dim must be an int, got True')"),
            (("initial", "dims"), [2.0], "initial: HilbertError('invalid subsystem dimensions [2.0]')"),
            (("events", 0, "basis", "dims"), [False],
             "events[0]: HilbertError('invalid subsystem dimensions [False]')"),
            # a complex is a list of exactly two numbers, never strings or booleans
            (("initial", "amps"), [["1", False], [0, "0"]], 'initial: TypeError("a complex'),
            (("events", 0, "basis", "vectors"), [[[True, False], [0, 0]], [[0, 0], [1, 0]]],
             "events[0]: TypeError('a complex"),
            (("initial", "amps"), [[1, 0, 5], [0, 0]], "initial: TypeError('a complex"),
            # more of the classes' refusals, which the loader's string helper made before
            (("events", 0, "basis", "labels"), [1, 2],
             "events[0]: HilbertError('basis labels must be a tuple or list of str, got [1, 2]')"),
            (("subsystems", 0, "basis_labels"), [1, 2], "subsystems[0]: ScenarioValidationError("
             "'SubsystemSpec.basis_labels must be a tuple or list of str, got [1, 2]')"),
            (("events", 0, "agent"), 3, "events[0]: ScenarioValidationError("
             "'MeasurementEvent.agent must be a str, got 3')"),
            (("events", 0, "targets"), "sys", "events[0]: ScenarioValidationError("
             "\"MeasurementEvent.targets must be a tuple or list of str, got 'sys'\")"),
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
        assert info.value.message.startswith(entry)

    def test_scenario_equal_detects_record_flip(self):
        a = library.two_wigners(library.RegimeTag.BOTH_ERASED)
        b = library.two_wigners(library.RegimeTag.F_PRESERVED)
        assert not scenario_equal(a, b)


def _amplitude_arrays(s):
    """The initial state, then each event's unitary entries or basis matrix."""
    yield s.initial.amps
    for e in s.events:
        yield e.op.entries if isinstance(e, UnitaryEvent) else e.basis.matrix


# X with signed zeros, measured in a basis with signed zeros
SIGNED_ZEROS = """
subsystem sys up down
state 1 -0
unitary 1 sys -0-0i 1 1 0-0i
measure 2 F sys retained up: 1 -0 down: -0-0i -1
"""


def _round_trip_sources():
    yield parse_scenario(SIGNED_ZEROS)
    yield from (library.builtin(name) for name in library.builtin_names())
    yield from (library.load_shipped(name) for name in library.builtin_names())
    yield from (library.builtin("2w2f", regime) for regime in library.RegimeTag)
    for seed in range(200):
        yield random_scenario(seed)
        yield random_unpinned_scenario(seed)
    yield erased_qubit_chain(9)
    yield erased_qubit_chain(10)


class TestBitwiseRoundTrip:
    """Both text forms give back every amplitude bit for bit, the sign of
    zero included; TestRoundTrip compares only within a tolerance."""

    @pytest.mark.parametrize("load, dump", [(parse_scenario, serialize_scenario),
                                            (scenario_from_json, scenario_to_json)],
                             ids=["scn", "json"])
    def test_every_amplitude_survives(self, load, dump):
        n_negative_zero = 0
        for s in _round_trip_sources():
            again = load(dump(s))
            assert scenario_equal(s, again)
            for a, b in zip(_amplitude_arrays(s), _amplitude_arrays(again), strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                n_negative_zero += int(np.signbit(a.view(float)[a.view(float) == 0.0]).sum())
        assert n_negative_zero > 0  # the sign of zero is exercised, not vacuous


def _rule_cases():
    """(rule, scenario parts, expected message, index of the offending event or None).

    The unnormalized initial state is the sixth rule, in its own test below.
    """
    sys_ = (SubsystemSpec("sys", 2, ("up", "down")),)
    ab = (SubsystemSpec("a", 2, ("up", "down")), SubsystemSpec("b", 2, ("up", "down")))
    basis = Basis((2,), ("up", "down"), [[1, 0], [0, 1]])
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
    ]


def _type_cases():
    """(case, scenario parts, expected message, index of the offending event or None)
    for parts of a scenario built in code that are not of their class."""
    sub = SubsystemSpec("sys", 2, ("up", "down"))
    up = StateVector((2,), [1, 0])
    basis = Basis((2,), ("up", "down"), [[1, 0], [0, 1]])
    # two events out of time order, so the time sort runs after the checks
    flip = UnitaryEvent(2, ("sys",), Operator((2,), [[0, 1], [1, 0]]))
    late = MeasurementEvent(3, "F", ("sys",), basis, Record.RETAINED)
    return [
        ("initial_none", ((sub,), None, (late,)),
         "initial state must be a StateVector, got None", None),
        ("event_str", ((sub,), up, (late, "measure 1 F sys")),
         "event 1: expected a UnitaryEvent or MeasurementEvent, got 'measure 1 F sys'", None),
        ("subsystem_str", (("sys",), up, (late, flip)),
         "subsystem 0: expected a SubsystemSpec, got 'sys'", None),
    ]


def _field_cases():
    """(case, class, fields, expected message) for a subsystem or an event
    built in code with a field of the wrong type, which the class refuses."""
    basis = Basis((2,), ("up", "down"), [[1, 0], [0, 1]])
    flip = Operator((2,), [[0, 1], [1, 0]])
    sub = dict(name="sys", dim=2, basis_labels=("up", "down"))
    unitary = dict(time_index=2, targets=("sys",), op=flip)
    measure = dict(time_index=3, agent="F", targets=("sys",), basis=basis, record=Record.RETAINED)
    return [
        ("name_int", SubsystemSpec, {**sub, "name": 1}, "SubsystemSpec.name must be a str, got 1"),
        ("dim_str", SubsystemSpec, {**sub, "dim": "2"}, "SubsystemSpec.dim must be an int, got '2'"),
        ("labels_str", SubsystemSpec, {**sub, "basis_labels": "ud"},
         "SubsystemSpec.basis_labels must be a tuple or list of str, got 'ud'"),
        ("unitary_time_float", UnitaryEvent, {**unitary, "time_index": 2.0},
         "UnitaryEvent.time_index must be a non-negative int, got 2.0"),
        ("unitary_targets_int", UnitaryEvent, {**unitary, "targets": ["sys", 1]},
         "UnitaryEvent.targets must be a tuple or list of str, got ['sys', 1]"),
        ("unitary_op_none", UnitaryEvent, {**unitary, "op": None},
         "UnitaryEvent.op must be an Operator, got None"),
        ("agent_none", MeasurementEvent, {**measure, "agent": None},
         "MeasurementEvent.agent must be a str, got None"),
        ("agent_int", MeasurementEvent, {**measure, "agent": 3},
         "MeasurementEvent.agent must be a str, got 3"),
        ("time_str", MeasurementEvent, {**measure, "time_index": "1"},
         "MeasurementEvent.time_index must be a non-negative int, got '1'"),
        ("targets_str", MeasurementEvent, {**measure, "targets": "sys"},
         "MeasurementEvent.targets must be a tuple or list of str, got 'sys'"),
        ("basis_none", MeasurementEvent, {**measure, "basis": None},
         "MeasurementEvent.basis must be a Basis, got None"),
    ]


# values swapped into each field of the built-ins' subsystems and events
_SUBSTITUTES = (None, "1", 1.5, True, math.nan, np.int64(1), [1], {"a": 1}, -1, 0, "", ("x",),
                b"x", object(), 1j)


def _field_substitutions():
    """(built-in, "subsystems" or "events", index, field, value): each field
    of each subsystem and event of each built-in, with each substitute."""
    for name in library.builtin_names():
        s = library.builtin(name)
        for parts in ("subsystems", "events"):
            for k, part in enumerate(getattr(s, parts)):
                for f in dataclasses.fields(part):
                    for value in _SUBSTITUTES:
                        yield s, parts, k, f.name, value


class TestValidate:
    def test_unnormalized_initial_reported(self):
        sub = SubsystemSpec("sys", 2, ("up", "down"))
        basis = Basis((2,), ("up", "down"), [[1, 0], [0, 1]])
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

    @pytest.mark.parametrize("parts, message, index",
                             [case[1:] for case in _type_cases()],
                             ids=[case[0] for case in _type_cases()])
    def test_constructor_refuses_a_part_of_the_wrong_class(self, parts, message, index):
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(*parts)
        assert str(info.value) == message
        assert info.value.event is (None if index is None else parts[2][index])

    @pytest.mark.parametrize("cls, fields, message",
                             [case[1:] for case in _field_cases()],
                             ids=[case[0] for case in _field_cases()])
    def test_each_part_checks_its_own_fields(self, cls, fields, message):
        with pytest.raises(ScenarioValidationError) as info:
            cls(**fields)
        assert str(info.value) == message
        assert info.value.event is None

    @pytest.mark.parametrize("build", [lambda: library.wfs("I"),
                                       lambda: library.two_wigners("both_preserved")],
                             ids=["wfs_case1", "2w2f_both_preserved"])
    @pytest.mark.parametrize("record", ["RETAINED", "ERASED", None, 1])
    def test_record_must_be_a_record_member(self, build, record):
        # a string record passed both identity filters: the path engine read
        # case I as case II, and 2w2f_both_preserved as f_preserved; now the
        # event refuses it, so no scenario can hold it
        s = build()
        with pytest.raises(ScenarioValidationError) as info:
            dataclasses.replace(s.events[0], record=record)
        assert str(info.value) == (
            f"MeasurementEvent.record must be Record.RETAINED or Record.ERASED, got {record!r}")
        assert info.value.event is None

    def test_field_substitutions_are_refused_or_round_trip(self):
        # every construction gives a typed error or a scenario that both text
        # forms load back equal; .scn text cannot hold a name that is not an
        # identifier, and the serializer refuses those
        outcomes = collections.Counter()
        for s, parts, k, field, value in _field_substitutions():
            seq = getattr(s, parts)
            try:
                part = dataclasses.replace(seq[k], **{field: value})
                built = dataclasses.replace(s, **{parts: seq[:k] + (part,) + seq[k + 1:]})
            except (ScenarioValidationError, HilbertError):
                outcomes["refused"] += 1
                continue
            assert scenario_from_json(scenario_to_json(built)) == built
            try:
                text = serialize_scenario(built)
            except ValueError as exc:
                assert str(exc).startswith("cannot serialize: ")
                outcomes["built, no .scn text"] += 1
                continue
            assert parse_scenario(text) == built
            outcomes["built"] += 1
        # the 44 without .scn text have agent "1" or ""
        assert outcomes == {"refused": 2260, "built, no .scn text": 44, "built": 21}


def _index_scenarios():
    """The built-ins, the four 2w2f regimes and both generators on seeds 0-199."""
    yield from (library.builtin(name) for name in library.builtin_names())
    yield from (library.two_wigners(regime) for regime in library.RegimeTag)
    yield from (random_scenario(seed) for seed in range(200))
    yield from (random_unpinned_scenario(seed) for seed in range(200))


def _assert_index_is_its_definition(s):
    """Each derived fact equals the filter or scan it replaced."""
    measurements = tuple((i, e) for i, e in enumerate(s.events)
                         if isinstance(e, MeasurementEvent))
    assert s.measurements() == measurements
    assert s.retained() == tuple(m for m in measurements if m[1].record is Record.RETAINED)
    assert s.erased() == tuple(m for m in measurements if m[1].record is Record.ERASED)
    assert s.dims == tuple(sub.dim for sub in s.subsystems)
    assert s.retained_axes() == tuple(
        tuple((e.agent, label) for label in e.labels) for _, e in s.retained())
    erased = ",".join(e.agent for _, e in s.erased())
    assert s.regime_tag() == "retained=" + ",".join(e.agent for _, e in s.retained()) + (
        f"; erased={erased}" if erased else "")
    names = [sub.name for sub in s.subsystems]
    for e in s.events:
        assert s.slots(e.targets) == tuple(names.index(t) for t in e.targets)
    _assert_erasers_are_the_first_covering_measurements(s)


def _assert_erasers_are_the_first_covering_measurements(s):
    """``erasers()`` maps each erased record to the first later measurement
    that covers its targets, ordered by eraser, then by record."""
    erasers = {i: next(j for j, f in s.measurements()
                       if j > i and set(e.targets) <= set(f.targets))
               for i, e in s.erased()}
    assert list(s.erasers().items()) == sorted(erasers.items(), key=lambda m: (m[1], m[0]))


class TestIndex:
    """A scenario derives its dims, slot map, measurement tuples, retained
    axes and regime tag once."""

    def test_index_equals_its_definitions(self):
        for s in _index_scenarios():
            _assert_index_is_its_definition(s)

    def test_a_second_call_returns_the_same_object(self):
        for s in _index_scenarios():
            assert s.measurements() is s.measurements()
            assert s.retained() is s.retained()
            assert s.erased() is s.erased()
            assert s.dims is s.dims
            assert s.retained_axes() is s.retained_axes()
            assert s.erasers() is s.erasers()

    def test_retained_and_erased_partition_the_measurements(self):
        scenarios = itertools.chain((random_scenario(seed) for seed in range(1000)),
                                    (random_unpinned_scenario(seed) for seed in range(1000)),
                                    unrestricted_scenarios().values())
        for s in scenarios:
            merged = tuple(sorted(s.retained() + s.erased(), key=lambda m: m[0]))
            assert merged == s.measurements()

    def test_erasers_of_unrestricted_scenarios(self):
        # records moved by unitaries and erasers that partly overlap others
        for s in unrestricted_scenarios().values():
            _assert_erasers_are_the_first_covering_measurements(s)
        assert erased_qubit_chain(4).erasers() == {0: 1, 1: 2, 2: 3}

    def test_replace_derives_its_own_index(self):
        chain = erased_qubit_chain(5)
        kept = dataclasses.replace(chain, events=tuple(
            dataclasses.replace(e, record=Record.RETAINED) for e in chain.events))
        assert len(chain.retained()) == 1 and len(chain.erased()) == 4
        assert kept.retained() == kept.measurements() and kept.erased() == ()
        assert [e for _, e in kept.measurements()] == list(kept.events)
        _assert_index_is_its_definition(kept)

    def test_index_is_not_a_field(self):
        s = parse_scenario(MINIMAL)
        assert [f.name for f in dataclasses.fields(s)] == [
            "subsystems", "initial", "events"]
        assert "_slot" not in repr(s)

    @pytest.mark.parametrize("name", ["spin", ""])
    def test_unknown_name_raises_the_same_message(self, name):
        s = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioValidationError) as info:
            s.slots(("sys", name))
        assert str(info.value) == f"unknown subsystem {name!r}"



def _one_ulp_up(values):
    """``values`` with its first nonzero real part moved up by one ulp."""
    out = np.array(values, dtype=complex)
    k = int(np.flatnonzero(out.real)[0])
    out.flat[k] = complex(math.nextafter(out.flat[k].real, math.inf), out.flat[k].imag)
    return out


class TestEquality:
    """A scenario and its events compare by value: separately built copies
    are equal and hash alike, and one ulp in any array makes them unequal."""

    def test_separately_built_copies_are_equal(self):
        for s in _index_scenarios():  # the text round trip is bitwise
            other = parse_scenario(serialize_scenario(s))
            assert other == s and hash(other) == hash(s)
            for e, f in zip(s.events, other.events):
                assert e == f and hash(e) == hash(f)
        for name in library.builtin_names():
            a, b = library.builtin(name), library.builtin(name)
            assert a is not b and a == b and hash(a) == hash(b)

    def test_one_ulp_is_unequal(self):
        s = library.two_wigners(library.RegimeTag.BOTH_ERASED)
        variants = [dataclasses.replace(s, initial=StateVector(
            s.initial.dims, _one_ulp_up(s.initial.amps)))]
        for i, e in enumerate(s.events):
            if isinstance(e, UnitaryEvent):
                changed = dataclasses.replace(e, op=Operator(e.op.dims, _one_ulp_up(e.op.entries)))
            else:
                changed = dataclasses.replace(e, basis=Basis(
                    e.basis.dims, e.labels, _one_ulp_up(e.basis.matrix)))
            assert changed != e and e != changed
            variants.append(dataclasses.replace(s, events=s.events[:i] + (changed,) + s.events[i + 1:]))
        for variant in variants:
            assert variant != s and s != variant

def _first_overlap_pairwise(events):
    """The pairwise scan the one-pass check replaced: the first pair i < j of
    events sharing a time and a target, as (message, event j)."""
    for i, a in enumerate(events):
        for j in range(i + 1, len(events)):
            b = events[j]
            if a.time_index == b.time_index and set(a.targets) & set(b.targets):
                return f"events {i} and {j} share time {a.time_index} and overlapping targets", b
    return None


class TestOverlapCheck:
    def test_one_pass_reports_the_first_pair_of_the_pairwise_scan(self):
        rng = random.Random(5)
        names = ("a", "b", "c", "d")
        order = {name: k for k, name in enumerate(names)}
        subsystems = tuple(SubsystemSpec(name, 2, ("u", "d")) for name in names)
        initial = StateVector((2,) * 4, [1] + [0] * 15)
        bases = {k: Basis((2,) * k, tuple(f"l{x}" for x in range(2 ** k)), np.eye(2 ** k))
                 for k in (1, 2)}
        n_overlaps = 0
        for _ in range(3000):
            events = []
            for k in range(rng.randrange(2, 7)):
                targets = tuple(rng.sample(names, rng.randrange(1, 3)))
                events.append(MeasurementEvent(rng.randrange(1, 4), f"A{k}", targets,
                                               bases[len(targets)], Record.RETAINED))
            # the constructor's own time order
            ordered = sorted(events, key=lambda e: (e.time_index,
                                                    min(order[t] for t in e.targets)))
            expected = _first_overlap_pairwise(ordered)
            try:
                Scenario(subsystems, initial, tuple(events))
                got = None
            except ScenarioValidationError as exc:
                got = (str(exc), exc.event) if "overlapping" in str(exc) else None
            if expected is None:
                assert got is None
            else:
                n_overlaps += 1
                assert got[0] == expected[0] and got[1] is expected[1]
        assert n_overlaps > 1000


def _first_unerased_scan(events):
    """The scan rule F's check replaced: every measurement from the first is
    tried as the eraser, as (message, event) of the first erased record that
    none covers."""
    measurements = [(i, e) for i, e in enumerate(events) if isinstance(e, MeasurementEvent)]
    for i, e in measurements:
        if e.record is not Record.ERASED:
            continue
        targets = set(e.targets)
        if not any(j > i and targets <= set(f.targets) for j, f in measurements):
            return (f"event {i}: ERASED record of agent {e.agent!r} is never erased "
                    f"(needs a later measurement covering {e.targets})", e)
    return None


class TestEraserCheck:
    def test_reports_the_first_violation_of_the_full_scan(self):
        rng = random.Random(6)
        names = ("a", "b", "c", "d")
        subsystems = tuple(SubsystemSpec(name, 2, ("u", "d")) for name in names)
        initial = StateVector((2,) * 4, [1] + [0] * 15)
        bases = {k: Basis((2,) * k, tuple(f"l{x}" for x in range(2 ** k)), np.eye(2 ** k))
                 for k in (1, 2, 3)}
        flip = Operator((2,), [[0, 1], [1, 0]])
        n_violations = 0
        for _ in range(2000):
            n = rng.randrange(2, 9)
            times = rng.sample(range(1, 20), n)
            events = []
            for k, t in enumerate(times):
                targets = tuple(rng.sample(names, rng.randrange(1, 4)))
                if t != max(times) and rng.random() < 0.2:
                    events.append(UnitaryEvent(t, targets[:1], flip))
                    continue
                record = (Record.RETAINED if t == max(times) or rng.random() < 0.3
                          else Record.ERASED)
                events.append(MeasurementEvent(t, f"A{k}", targets, bases[len(targets)], record))
            expected = _first_unerased_scan(sorted(events, key=lambda e: e.time_index))
            try:
                Scenario(subsystems, initial, tuple(events))
                got = None
            except ScenarioValidationError as exc:
                got = (str(exc), exc.event)
            if expected is None:
                assert got is None
            else:
                n_violations += 1
                assert got[0] == expected[0] and got[1] is expected[1]
        assert 500 < n_violations < 1900


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


# single characters swapped into the shipped files: printable ASCII, and
# characters that ``str.isspace`` calls whitespace but ``"\n"`` does not end
# a line on, plus digits and signs that ``int()`` would accept in a time
_ODD_CHARS = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0    　_+٣３"


def _parse_error_corpus():
    """Fixed inputs for the parse-error digest, in a fixed order."""
    rng = random.Random(0)
    for _ in range(2000):
        yield bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
    for seed in range(200):
        source = serialize_scenario(random_scenario(seed))
        for _ in range(3):
            chars = list(source)
            for _ in range(rng.randrange(1, 5)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(32, 127))
            yield "".join(chars)
    alphabet = [chr(c) for c in range(32, 127)] + list(_ODD_CHARS) * 4
    for name in library.builtin_names():
        source = library.shipped_source(name)
        for _ in range(120):
            pos, ch = rng.randrange(len(source)), rng.choice(alphabet)
            yield source[:pos] + ch + source[pos + 1:]  # replace
            yield source[:pos] + ch + source[pos:]  # insert


def _parse_outcomes():
    """(line, col, message) of every ScenarioParseError over the corpus;
    None where the input parses."""
    out = []
    for text in _parse_error_corpus():
        try:
            parse_scenario(text)
        except ScenarioParseError as exc:
            out.append((exc.line, exc.col, exc.message))
        else:
            out.append(None)
    return out


class TestParseErrorDigest:
    """Every parse outcome over a fixed corpus, pinned by one sha256: a
    parser rewrite must report the same first error at the same place."""

    # moved once, when times became ASCII digits only: two shipped-file
    # mutants with a time of '٣' (parsed as 3) and '٣3' (33) now stop there
    DIGEST = "6edefd085d1f27b4e3334ed1774a74e1a85cbb79d5b6255bd1540dc39bb964ad"

    def test_outcomes_match_the_pinned_digest(self):
        outcomes = _parse_outcomes()
        digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
        assert digest == self.DIGEST
