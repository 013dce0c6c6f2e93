import dataclasses
import importlib.util
import json
import math
import operator
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pathsum import cli, library, oracle, paths, scenario
from pathsum.cli import (
    CliError,
    dot_source,
    equivalence_delta,
    format_probability,
    parse_query,
    render_json,
    render_table,
    run,
)
from pathsum.hilbert import Basis, StateVector
from pathsum.scenario import (
    MeasurementEvent,
    Record,
    RecordErasedError,
    Scenario,
    SubsystemSpec,
    serialize_scenario,
)
from pathsum.testing import (
    erased_qubit_chain,
    random_basis,
    random_scenario,
    random_unpinned_scenario,
)


def _reference_render_json(report):
    """The definition of the JSON output: ``json.dumps`` of the whole document."""
    doc = {
        "scenario": report.source,
        "regime": report.regime,
        "engine": report.engine,
        "outcomes": [
            {"tuple": [[agent, label] for agent, label in key], "p": w}
            for key, w in report.dist.weights.items()
        ],
        "delta": report.delta,
    }
    if report.queries:
        doc["queries"] = [
            {
                "query": q.text,
                "given": list(q.given),
                "then": list(q.then),
                "holds": q.holds,
                "counter_probability": q.counter_probability,
            }
            for q in report.queries
        ]
    return json.dumps(doc) + "\n"


def _reference_render_table(report):
    """The definition of the table: one line per outcome tuple, its name padded
    to the longest name or to ``total``, then the total and the queries."""
    dist = report.dist
    lines = [f"scenario: {report.source}", f"records: {dist.regime_tag}"]
    if report.delta is not None:
        lines.append(f"engine: both (max |paths - oracle| = {report.delta:.3g})")
    else:
        lines.append(f"engine: {report.engine}")
    lines.append("")
    rows = [
        (" ".join(f"{agent}={label}" for agent, label in key), format_probability(w))
        for key, w in zip(dist.keys, dist.probs)
    ]
    width = max(len("total"), *(len(name) for name, _ in rows))
    for name, value in rows:
        lines.append(f"{name:<{width}}  {value}")
    lines.append(f"{'total':<{width}}  {format_probability(dist.total())}")
    for q in report.queries:
        verdict = "HOLDS" if q.holds else "FAILS"
        detail = f"P({q.given[0]}={q.given[1]} and not {q.then[0]}={q.then[1]}) = " \
                 f"{format_probability(q.counter_probability)}"
        lines.append(f'query "{q.text}": {verdict}  [{detail}]')
    return "\n".join(lines) + "\n"


def _synthetic_reports():
    """Tables built directly, at the edges of where a render can split its axes:
    one axis, one row, an odd number of axes, an axis with a single label,
    labels and agents of different lengths, uneven axis lengths (27 x 2 x 2)."""
    rng = random.Random(11)
    shapes = {
        "one_axis": [("A", 2)],
        "one_row": [("A", 1)],
        "wide_axis": [("Wigner", 40)],
        "odd": [("A", 2), ("Bb", 3), ("C", 2)],
        "single_label": [("A", 3), ("B", 1), ("C", 4)],
        "all_single": [("A", 1), ("B", 1), ("C", 1)],
        "uneven": [("Friend", 27), ("W", 2), ("Wbar", 2)],
        "uneven_last": [("A", 2), ("B", 2), ("Cc", 27)],
        "five": [(f"A{k}", 2) for k in range(5)],
    }
    lengths = ("x", "yyyy", "zz", "ok", "fail", "\u00f1o")
    reports = []
    for name, shape in shapes.items():
        axes = tuple(
            tuple((agent, lengths[(k + i) % len(lengths)] + str(k)) for k in range(n))
            for i, (agent, n) in enumerate(shape)
        )
        rows = math.prod(n for _, n in shape)
        probs = [rng.choice((0.0, 0.25, 1 / 3, rng.random() / rows, 1e-300))
                 for _ in range(rows)]
        dist = paths.OutcomeDistribution(axes, probs, "synthetic")
        for engine, delta in (("both", 2.5e-16), ("paths", None)):
            reports.append(cli.RunReport(name, None, engine, dist, None, delta, []))
    return reports


def _reference_delta(a, b):
    """The definition of the engine delta: max over the union of outcome tuples."""
    keys = set(a.weights) | set(b.weights)
    return max(abs(a.weights.get(k, 0.0) - b.weights.get(k, 0.0)) for k in keys)


def _queries(s):
    """Two qualified queries between the first and the last retained outcome."""
    retained = [e for _, e in s.retained()]
    first, last = retained[0], retained[-1]
    a = f"{first.agent}.{first.labels[0]}"
    b = f"{last.agent}.{last.labels[-1]}"
    return (f"{a}=>{b}", f"{b}=>{a}")


def _escaped_names_scenario():
    """Agent and labels that JSON must escape: a quote, a backslash, non-ASCII
    letters and control characters (the .scn parser admits none of them)."""
    rng = np.random.default_rng(3)
    labels = ('"up"', "d\\own\x1f", "\u00f1\U0001f600")
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    first = random_basis(rng, (3,))
    second = random_basis(rng, (3,))
    return Scenario(
        (SubsystemSpec("q", 3, labels),),
        StateVector((3,), psi / np.linalg.norm(psi)),
        (MeasurementEvent(1, 'Fr"\\i\u00e9nd\x07', ("q",),
                          Basis((3,), labels, first.matrix), Record.RETAINED),
         MeasurementEvent(2, "W\u00f8\t", ("q",),
                          Basis((3,), ("a", "b", "c"), second.matrix), Record.RETAINED)),
    )


def _builtin_reports():
    """The built-ins by name and as 2w2f with each --regime, with and without
    queries, plus single-engine runs whose delta is None."""
    for name in library.builtin_names():
        s = library.builtin(name)
        yield run(name)
        yield run(name, queries=_queries(s))
    for regime in library.RegimeTag:
        yield run("2w2f", regime=regime.value)
        yield run("2w2f", regime=regime.value,
                  queries=_queries(library.builtin("2w2f", regime.value)))
    for engine in ("paths", "oracle"):
        yield run("2w2f", regime="fbar_preserved", engine=engine)
        yield run("wfs_case2", engine=engine, queries=("W.ok=>W.ok",))


@pytest.fixture(scope="module")
def code_reports():
    """``run`` on scenarios built in code: both generators on seeds 0-199, the
    10-chain erased and kept, and names that JSON must escape."""
    chain = erased_qubit_chain(10)
    kept = Scenario(chain.subsystems, chain.initial, tuple(
        dataclasses.replace(e, record=Record.RETAINED) for e in chain.events))
    escaped = _escaped_names_scenario()
    runs = [(f"random_{seed}", random_scenario(seed), {}) for seed in range(200)]
    runs += [(f"unpinned_{seed}", random_unpinned_scenario(seed), {}) for seed in range(200)]
    runs += [("chain_erased", chain, {}), ("chain_retained", kept, {}),
             ("esc\u00e4ped\\", escaped, {}),
             ("esc\u00e4ped\\", escaped, {"queries": _queries(escaped)}),
             ("esc\u00e4ped\\", escaped, {"engine": "oracle"})]
    reports = []
    with pytest.MonkeyPatch.context() as mp:
        for name, s, kwargs in runs:
            mp.setattr(cli, "resolve_scenario", lambda source, regime, s=s: (s, source))
            reports.append(run(name, **kwargs))
    return reports


class TestRun:
    def test_both_engines_agree_on_2w2f(self):
        report = run("2w2f", regime="both_erased")
        assert report.delta is not None and report.delta <= 1e-9
        key = (("Wbar", "fail_bar"), ("W", "fail"))
        assert report.paths_dist.weights[key] == pytest.approx(0.75, abs=1e-9)

    def test_single_engine_has_no_delta(self):
        report = run("double_slit", engine="paths")
        assert report.delta is None and report.oracle_dist is None

    def test_scn_file_path_source(self, tmp_path):
        target = tmp_path / "mini.scn"
        target.write_text(serialize_scenario(library.wfs("II")), "utf-8")
        report = run(str(target))
        assert report.dist.probability({"W": "ok"}) == pytest.approx(0.02, abs=1e-9)

    def test_unknown_source(self):
        with pytest.raises(CliError, match="unknown scenario"):
            run("no_such_thing")

    def test_unknown_engine(self):
        with pytest.raises(CliError) as info:
            run("wfs_case1", engine="fast")
        assert str(info.value) == "engine must be paths, oracle or both, got 'fast'"

    def test_query_evaluation(self):
        report = run("2w2f", regime="fbar_preserved", queries=("Ok=>Heads",))
        (q,) = report.queries
        assert q.holds and q.given == ("W", "ok") and q.then == ("Fbar", "heads")

    def test_query_on_erased_record_raises(self):
        with pytest.raises(RecordErasedError, match="outcome undefined"):
            run("2w2f", regime="both_erased", queries=("Ok=>Heads",))


class TestQueryParsing:
    def test_bare_labels_resolve_case_insensitively(self):
        s = library.two_wigners(library.RegimeTag.BOTH_PRESERVED)
        given, then = parse_query(s, "Up=>Tails")
        assert given == ("F", "up") and then == ("Fbar", "tails")

    def test_qualified_form(self):
        s = library.two_wigners(library.RegimeTag.BOTH_PRESERVED)
        given, then = parse_query(s, "W.ok=>Fbar.heads")
        assert given == ("W", "ok") and then == ("Fbar", "heads")

    def test_ambiguous_bare_label(self):
        # craft a scenario where two agents share a label name
        shared = (
            "subsystem a x y\n"
            "subsystem b x y\n"
            "state 1 0 0 0\n"
            "measure 1 F a retained same: 1 0 other: 0 1\n"
            "measure 2 W b retained same: 1 0 other: 0 1\n"
        )
        from pathsum.scenario import parse_scenario

        with pytest.raises(CliError, match="ambiguous"):
            parse_query(parse_scenario(shared), "same=>other")

    def test_arrow_required(self):
        s = library.double_slit()
        with pytest.raises(CliError, match="=>"):
            parse_query(s, "ok->fail")

    def test_unknown_outcome(self):
        s = library.double_slit()
        with pytest.raises(CliError, match="no outcome matches"):
            parse_query(s, "ok=>sideways")


class TestRendering:
    def test_probability_formatting(self):
        assert format_probability(0.75) == "0.75 = 3/4"
        assert format_probability(1 / 12) == "0.0833333333 = 1/12"
        assert format_probability(0.0) == "0"
        assert format_probability(1.0) == "1"
        assert format_probability(0.123456789123) == "0.123456789"

    @staticmethod
    def _reference_format(p):
        """The definition: the closest fraction with denominator <= 144."""
        dec = f"{p:.9g}"
        frac = Fraction(p).limit_denominator(144)
        if frac.denominator > 1 and abs(p - float(frac)) <= 1e-9:
            return f"{dec} = {frac.numerator}/{frac.denominator}"
        return dec

    def test_probability_formatting_matches_limit_denominator(self):
        fractions = [k / q for q in range(1, 145) for k in range(q + 1)]
        near = [v + e for v in fractions for e in (5e-10, -5e-10, 2e-9, -2e-9)]
        rng = random.Random(5)
        randoms = [rng.random() for _ in range(20000)] + [rng.uniform(-3, 3) for _ in range(2000)]
        edges = [0.0, -0.0, 1.0, 1 + 1e-10, 1 - 1e-10, -1e-20, 5e-324, 1e300]
        for p in fractions + near + randoms + edges:
            assert format_probability(p) == self._reference_format(p), repr(p)

    def test_table_is_deterministic(self):
        report = run("2w2f", regime="both_erased")
        a = render_table(report)
        b = render_table(run("2w2f", regime="both_erased"))
        assert a == b
        assert "0.75 = 3/4" in a

    def test_json_schema_and_round_trip(self):
        report = run("2w2f", regime="both_erased")
        rendered = render_json(report)
        assert rendered.count("\n") == 1 and rendered.endswith("\n")
        doc = json.loads(rendered)
        assert set(doc) == {"scenario", "regime", "engine", "outcomes", "delta"}
        rebuilt = {
            tuple((a, l) for a, l in entry["tuple"]): entry["p"]
            for entry in doc["outcomes"]
        }
        for key, w in report.dist.weights.items():
            assert rebuilt[key] == pytest.approx(w, abs=1e-12)

    def test_json_is_byte_identical_to_json_dumps(self, code_reports):
        rendered = []
        for report in [*_builtin_reports(), *code_reports]:
            rendered.append(render_json(report))
            assert rendered[-1] == _reference_render_json(report), report.source
        # the inputs reach escaped names in rows and in a queries tail, and a null delta
        assert any('["Fr\\"\\\\i\\u00e9nd\\u0007", "\\"up\\""]' in text
                   and '"queries"' in text for text in rendered)
        assert sum('"delta": null' in text for text in rendered) == 5

    def test_json_matches_the_definition_on_synthetic_tables(self):
        for report in _synthetic_reports():
            assert render_json(report) == _reference_render_json(report), report.source

    def test_table_is_byte_identical_to_the_definition(self, code_reports):
        reports = [*_builtin_reports(), *code_reports, *_synthetic_reports()]
        for report in reports:
            assert render_table(report) == _reference_render_table(report), report.source

    def test_total_row_aligns_with_short_names(self, tmp_path, capsys):
        source = tmp_path / "one.scn"
        source.write_text("subsystem q a b\nstate 0.6 0.8\n"
                          "measure 1 A q retained x: 1 0 y: 0 1\n", "utf-8")
        assert cli.main(["run", str(source), "--engine", "paths"]) == 0
        *_, x, y, total = capsys.readouterr().out.splitlines()
        assert (x, y, total) == ("A=x    0.36 = 9/25", "A=y    0.64 = 16/25", "total  1")

    def test_json_includes_queries_when_asked(self):
        report = run("2w2f", regime="f_preserved", queries=("ok_bar=>Up",))
        doc = json.loads(render_json(report))
        assert doc["queries"][0]["holds"] is True

    def test_dot_dashes_vanishing_edges(self):
        report = run("2w2f", regime="both_preserved", engine="paths")
        dot = dot_source(report.dist)
        assert '"n0_heads" -> "n1_up" [label="0", style=dashed];' in dot

    def test_dot_four_real_paths_when_both_erased(self):
        report = run("2w2f", regime="both_erased", engine="paths")
        dot = dot_source(report.dist)
        assert dot.count("->") == 4
        assert "dashed" not in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        s = _escaped_names_scenario()
        dot = dot_source(paths.distribution(s))
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        for line in dot.splitlines():
            assert '"' not in quoted.sub("", line), line
        strings = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted.findall(dot)}
        agents = {e.agent for e in s.events}
        labels = {label for e in s.events for label in e.labels}
        assert agents | labels | {f"n0_{label}" for label in s.events[0].labels} <= strings

    def test_export_graph_writes_file(self, tmp_path):
        out = tmp_path / "graph.gv"
        argv = ["run", "2w2f", "--regime", "both_erased", "--format", "dot", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_text("utf-8").startswith("digraph real_paths")

    def test_json_run_builds_no_per_row_keys(self, tmp_path, monkeypatch, capsys):
        # engines, delta and both renders read the table's axes and probs;
        # the per-row keys and the weights dict are built only when read
        chain = erased_qubit_chain(10)
        kept = dataclasses.replace(chain, events=tuple(
            dataclasses.replace(e, record=Record.RETAINED) for e in chain.events))
        target = tmp_path / "chain.scn"
        target.write_text(serialize_scenario(kept), "utf-8")
        dists = []
        for module in (paths, oracle):
            monkeypatch.setattr(module, "distribution",
                                lambda s, engine=module.distribution: dists.append(engine(s))
                                or dists[-1])
        assert cli.main(["run", str(target), "--engine", "both", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["outcomes"]) == 1024
        assert cli.main(["run", str(target), "--engine", "both", "--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 + 1024 + 1 and lines[-1].startswith("total ")
        assert len(dists) == 4
        for dist in dists:
            assert len(dist.probs) == 1024
            assert "keys" not in vars(dist) and "weights" not in vars(dist)

    @pytest.mark.parametrize("render, bound", [(render_json, 2), (render_table, 4)])
    def test_render_peak_is_a_small_multiple_of_its_output(self, render, bound):
        # the document is allocated once, by one join over strings that each
        # row refers to, not copied row by row
        axes = tuple(((f"A{k}", "b0"), (f"A{k}", "b1")) for k in range(1, 15))
        rng = random.Random(14)
        probs = [rng.random() / 2 ** 14 for _ in range(2 ** 14)]
        dist = paths.OutcomeDistribution(axes, probs, "synthetic")
        report = cli.RunReport("synthetic", None, "both", dist, dist, 0.0, [])
        tracemalloc.start()
        try:
            rendered = render(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(rendered), (peak, len(rendered))


class TestEquivalenceDelta:
    def test_matches_the_set_union_definition(self, code_reports):
        reports = [r for r in [*_builtin_reports(), *code_reports] if r.engine == "both"]
        assert len(reports) > 400
        for report in reports:
            a, b = report.paths_dist, report.oracle_dist
            assert equivalence_delta(a, b) == _reference_delta(a, b), report.source
            assert report.delta == _reference_delta(a, b)

    def test_equals_the_rowwise_maximum(self, monkeypatch):
        # the array maximum does the same IEEE operations per row as the list
        # one, on the built-ins and on the benchmark's seed-7 inputs
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        monkeypatch.chdir(root)  # the shipped scenarios are read from src/
        scenarios = [library.builtin(name) for name in library.builtin_names()]
        scenarios += [library.builtin("2w2f", r.value) for r in library.RegimeTag]
        for w in workloads.WORKLOADS:
            scenarios += [scenario.parse_scenario(inp.text) for inp in workloads.generate(w, 7)]
        assert len(scenarios) == 11 + 223
        for s in scenarios:
            a, b = paths.distribution(s), oracle.distribution(s)
            want = max(map(abs, map(operator.sub, a.probs, b.probs)))
            got = equivalence_delta(a, b)
            assert type(got) is float and got == want

    def test_different_key_sequences_give_inf(self):
        # both engines give their rows row-major over the retained events'
        # labels, so any other axes, even a reordering of the same labels,
        # are a disagreement
        d = paths.distribution(library.builtin("2w2f", "fbar_preserved"))
        first, second, *rest = d.axes
        renamed = (((first[0][0], "y"),) + first[1:], second, *rest)
        reversed_axis = (first[::-1], second, *rest)
        swapped = (second, first, *rest)
        for axes in (renamed, reversed_axis, swapped):
            other = type(d)(axes, d.probs, d.regime_tag)
            assert equivalence_delta(d, other) == math.inf
            assert equivalence_delta(other, d) == math.inf
        assert equivalence_delta(d, d) == 0.0


class TestMainExitCodes:
    def test_success(self, capsys):
        assert cli.main(["run", "2w2f", "--regime", "both_erased"]) == 0
        out = capsys.readouterr().out
        assert "0.75 = 3/4" in out

    def test_erased_query_fails_with_typed_message(self, capsys):
        code = cli.main(["run", "2w2f", "--regime", "both_erased", "--query", "Ok=>Heads"])
        assert code == 2
        err = capsys.readouterr().err
        assert "record" in err and "erased" in err and "outcome undefined" in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("subsystem sys up down\nstate 1 1\n", "utf-8")
        assert cli.main(["run", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_huge_initial_amplitude_is_a_typed_error_without_a_warning(self, tmp_path, capsys):
        # the norm is scaled before it is squared: 1e200 squared would overflow,
        # and numpy's RuntimeWarning is an error under this suite's filter
        big = tmp_path / "big.scn"
        big.write_text("subsystem sys up down\nstate 1e200 0\n"
                       "measure 1 W sys retained up: 1 0 down: 0 1\n", "utf-8")
        assert cli.main(["run", str(big)]) == 2
        assert capsys.readouterr().err == "error: line 2, col 1: initial state norm is 1e+200, expected 1\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main(
            ["run", "wfs_case2", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        doc = json.loads(target.read_text("utf-8"))
        assert doc["scenario"] == "wfs_case2"

    def test_directory_source_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_missing_source_is_an_unknown_scenario(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.scn")
        for argv in ([missing], [missing, "--regime", "both_erased"]):
            assert cli.main(["run", *argv]) == 2
            assert capsys.readouterr().err.startswith(f"error: unknown scenario {missing!r}; ")

    def test_regime_on_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "mini.scn"
        target.write_text(serialize_scenario(library.wfs("II")), "utf-8")
        assert cli.main(["run", str(target), "--regime", "both_erased"]) == 2
        assert capsys.readouterr().err == "error: --regime only applies to the built-in '2w2f'\n"

    def test_unreadable_source_exits_2_with_its_os_error(self, tmp_path, capsys, monkeypatch):
        # any OSError but a missing file is reported as it is, whoever runs the test
        target = tmp_path / "locked.scn"

        def locked(path, mode="r"):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", locked, raising=False)
        assert cli.main(["run", str(target)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: {str(target)!r}\n"

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        assert cli.main(["run", "wfs_case2", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "No such file" in captured.err
        assert captured.out == "" and not target.parent.exists()

    def test_invalid_utf8_source_gets_the_parser_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"subsystem sys up down\n\xff\n")
        assert cli.main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and "line 1" in err

    def test_run_validates_the_scenario_once(self, monkeypatch, capsys):
        # parsing builds the Scenario, which checks itself; neither engine checks again
        calls = []
        check = scenario._check
        monkeypatch.setattr(scenario, "_check", lambda s: calls.append(s) or check(s))
        shipped = resources.files("pathsum") / "scenarios" / "2w2f_both_erased.scn"
        assert cli.main(["run", str(shipped), "--engine", "both", "--format", "json"]) == 0
        assert len(calls) == 1

    def test_engine_dropping_a_zero_row_is_a_hard_failure(self, capsys, monkeypatch):
        true_distribution = oracle.distribution
        s = library.builtin("2w2f", "fbar_preserved")
        dist = true_distribution(s)
        zero = dist.probs.index(0.0)
        # a table has a row for every outcome tuple, so a dropped row cannot be built
        with pytest.raises(ValueError, match="7 probabilities for a table of 8 rows"):
            type(dist)(dist.axes, dist.probs[:zero] + dist.probs[zero + 1:], dist.regime_tag)

        def reordered(s):
            # the same rows under the last axis reversed: only the axes differ
            dist = true_distribution(s)
            *front, last = dist.axes
            n = len(last)
            probs = [p for r in range(0, len(dist.probs), n) for p in dist.probs[r:r + n][::-1]]
            return type(dist)((*front, last[::-1]), probs, dist.regime_tag)

        # the union definition pairs rows by outcome tuple and sees no disagreement
        assert _reference_delta(paths.distribution(s), reordered(s)) == 0.0
        monkeypatch.setattr(cli.oracle, "distribution", reordered)
        code = cli.main(["run", "2w2f", "--regime", "fbar_preserved", "--format", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["delta"] == math.inf
        assert "engines disagree (max entrywise delta = inf)" in captured.err

    def test_parser_is_reused_without_carrying_queries_over(self, capsys):
        argv = ["run", "2w2f", "--regime", "fbar_preserved", "--format", "json"]
        assert cli.main([*argv, "--query", "Ok=>Heads"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert [q["query"] for q in first["queries"]] == ["Ok=>Heads"]
        assert "queries" not in second

    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "2w2f" in out and "double_slit" in out

    def test_oracle_engine_only(self, capsys):
        assert cli.main(["run", "wfs_case1", "--engine", "oracle"]) == 0
        assert "engine: oracle" in capsys.readouterr().out

    def test_engine_disagreement_is_a_hard_failure(self, capsys, monkeypatch):
        from pathsum import oracle as oracle_mod

        true_distribution = oracle_mod.distribution

        def skewed(scenario):
            dist = true_distribution(scenario)
            probs = list(dist.probs)
            probs[0] += 1e-6
            return type(dist)(dist.axes, probs, dist.regime_tag)

        monkeypatch.setattr(cli.oracle, "distribution", skewed)
        code = cli.main(["run", "2w2f", "--regime", "both_erased"])
        assert code == 3
        assert "engines disagree" in capsys.readouterr().err

    def test_a_nan_delta_is_a_hard_failure(self, capsys, monkeypatch):
        true_distribution = oracle.distribution

        def with_nan(scenario):  # a table that skipped the engines' sum check
            dist = true_distribution(scenario)
            table = dist.table.copy()
            table[0] = math.nan
            return type(dist)(dist.axes, table, dist.regime_tag)

        monkeypatch.setattr(cli.oracle, "distribution", with_nan)
        code = cli.main(["run", "2w2f", "--regime", "both_erased", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out.endswith('"delta": NaN}\n')
        assert err == "error: engines disagree (max entrywise delta = nan)\n"
