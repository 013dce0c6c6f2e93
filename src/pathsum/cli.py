"""Command-line front end: run scenarios, print tables, emit JSON and DOT.

Exit status: 0 on success, 2 on parse/validation/query errors, 3 when the
two engines disagree beyond 1e-9 (the equivalence of the path engine and
the dilation oracle is the package's core claim, so disagreement is a hard
failure, not a warning).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import library, oracle, paths
from .hilbert import ATOL_PROB
from .scenario import Record, RecordErasedError, Scenario, parse_scenario


class CliError(ValueError):
    pass


@dataclass
class QueryOutcome:
    text: str
    given: tuple[str, str]
    then: tuple[str, str]
    holds: bool
    counter_probability: float


@dataclass
class RunReport:
    source: str
    regime: str | None
    engine: str
    paths_dist: paths.OutcomeDistribution | None
    oracle_dist: paths.OutcomeDistribution | None
    delta: float | None
    queries: list[QueryOutcome]
    scenario: Scenario | None = None

    @property
    def dist(self) -> paths.OutcomeDistribution:
        return self.paths_dist if self.paths_dist is not None else self.oracle_dist


def resolve_scenario(source: str, regime: str | None) -> tuple[Scenario, str]:
    """Builtin name or .scn path -> (scenario, display name)."""
    if source == "2w2f" or source in library.builtin_names():
        scenario = library.builtin(source, regime)
        name = source if regime is None else f"{source}_{regime}"
        return scenario, name
    path = Path(source)
    if path.exists():
        if regime is not None:
            raise CliError("--regime only applies to the built-in '2w2f'")
        return parse_scenario(path.read_bytes()), source
    raise CliError(
        f"unknown scenario {source!r}; built-ins: 2w2f, " + ", ".join(library.builtin_names())
    )


def _resolve_query_side(s: Scenario, text: str) -> tuple[str, str]:
    """Resolve 'label' or 'agent.label' (case-insensitive) to (agent, label)."""
    agent_part, _, label_part = text.rpartition(".")
    matches = []
    for _, e in s.measurements():
        if agent_part and e.agent.lower() != agent_part.lower():
            continue
        for label in e.labels:
            if label.lower() == label_part.lower():
                matches.append((e, label))
    if not matches:
        raise CliError(f"no outcome matches {text!r} in this scenario")
    if len(matches) > 1:
        options = ", ".join(f"{e.agent}.{label}" for e, label in matches)
        raise CliError(f"{text!r} is ambiguous; qualify it: {options}")
    event, label = matches[0]
    if event.record is Record.ERASED:
        raise RecordErasedError(event.agent)
    return event.agent, label


def parse_query(s: Scenario, text: str) -> tuple[tuple[str, str], tuple[str, str]]:
    if "=>" not in text:
        raise CliError(f"query {text!r} must look like 'Ok=>Heads'")
    left, right = text.split("=>", 1)
    return _resolve_query_side(s, left.strip()), _resolve_query_side(s, right.strip())


def equivalence_delta(a: paths.OutcomeDistribution, b: paths.OutcomeDistribution) -> float:
    """Max entrywise |a - b|, or inf when the two tables have different axes.

    Both engines give their probabilities row-major over the retained events'
    labels, so equal axes mean the rows pair up; any other axes, a reordered
    axis or label included, are a disagreement.
    """
    if a.axes != b.axes:
        return math.inf
    return max(map(abs, map(operator.sub, a.probs, b.probs)))


def run(source: str, engine: str = "both", regime: str | None = None,
        queries: tuple[str, ...] = ()) -> RunReport:
    """Programmatic core of ``pathsum run``."""
    scenario, name = resolve_scenario(source, regime)
    if engine not in ("paths", "oracle", "both"):
        raise CliError(f"engine must be paths, oracle or both, got {engine!r}")
    paths_dist = paths.distribution(scenario) if engine in ("paths", "both") else None
    oracle_dist = oracle.distribution(scenario) if engine in ("oracle", "both") else None
    delta = None
    if paths_dist is not None and oracle_dist is not None:
        delta = equivalence_delta(paths_dist, oracle_dist)
    report = RunReport(name, regime, engine, paths_dist, oracle_dist, delta, [])
    for q in queries:
        given, then = parse_query(scenario, q)
        result = paths.implication(report.dist, given, then)
        report.queries.append(
            QueryOutcome(q, given, then, result.holds, result.counter_probability)
        )
    report.scenario = scenario
    return report


def format_probability(p: float) -> str:
    """Nine significant digits, plus the nearest small rational when exact.

    Distinct fractions with denominators <= 144 lie at least 1/144^2 apart,
    so at most one is within ATOL_PROB of p.  Such an a/b is a convergent of
    p's continued fraction (|p - a/b| < 1/(2 b^2)), and later convergents are
    closer still, so only the last convergent with denominator <= 144 needs
    the check.
    """
    dec = f"{p:.9g}"
    n, d = p.as_integer_ratio()
    h0, k0, h1, k1 = 0, 1, 1, 0  # the last two convergents h/k
    while d:
        a = n // d
        if k0 + a * k1 > 144:
            break
        h0, k0, h1, k1 = h1, k1, h0 + a * h1, k0 + a * k1
        n, d = d, n - a * d
    if k1 > 1 and abs(p - h1 / k1) <= ATOL_PROB:
        return f"{dec} = {h1}/{k1}"
    return dec


def _join_rows(prefix: str, axes, pair, glue: str, sep: str, close: str, text, probs,
               suffix: str, width: int | None = None) -> str:
    """``prefix``, one row per outcome tuple in row-major order, ``suffix``.

    Row r is ``sep`` (left out of the first row), the (agent, label) pairs of
    its outcome tuple written by ``pair`` and joined by ``glue``, spaces up to
    ``width`` characters when a width is given, ``close`` and
    ``text(probs[r])``.  The names are not built per row: the axes are split
    where the running row count first reaches the square root of the row
    count, each half's names are a prefix product over its axes, and the
    document is one join of ``[prefix, front, back, (padding,) text, ...,
    suffix]``, which refers to each half's strings once per row.  Every valid
    scenario has a retained event, so there is at least one axis.
    """
    rows = len(probs)
    split, count = 1, len(axes[0])
    while count * count < rows:
        count *= len(axes[split])
        split += 1
    end = close if width is None else ""  # with a width, close follows the padding
    last = len(axes) - 1
    fronts, backs = [sep], [""]
    for i, axis in enumerate(axes):
        fragments = [pair(agent, label) + (end if i == last else glue) for agent, label in axis]
        if i < split:
            fronts = [head + fragment for head in fronts for fragment in fragments]
        else:
            backs = [head + fragment for head in backs for fragment in fragments]
    k = 3 if width is None else 4  # strings per row
    parts = [prefix] * (k * rows + 2)
    parts[-1] = suffix
    for j in range(len(backs)):
        parts[1 + k * j:-1:k * len(backs)] = fronts
    parts[1] = fronts[0][len(sep):]
    parts[2:-1:k] = backs * len(fronts)
    if width is not None:
        width += len(sep)
        padding = [" " * n + close for n in range(width + 1)]
        by_length = {length: [padding[width - length - len(back)] for back in backs]
                     for length in set(map(len, fronts))}
        column = []
        for front in fronts:
            column += by_length[len(front)]
        parts[3:-1:k] = column
    parts[k:-1:k] = map(text, probs)
    return "".join(parts)


def _table_pair(agent: str, label: str) -> str:
    return f"{agent}={label}"


def render_table(report: RunReport) -> str:
    """The header, one line per outcome tuple with its name padded to the
    longest name (or to ``total``), the total and one line per query."""
    dist = report.dist
    if report.delta is not None:
        engine = f"both (max |paths - oracle| = {report.delta:.3g})"
    else:
        engine = report.engine
    prefix = f"scenario: {report.source}\nrecords: {dist.regime_tag}\nengine: {engine}\n\n"
    width = max(len("total"), len(dist.axes) - 1 + sum(
        max(len(_table_pair(agent, label)) for agent, label in axis) for axis in dist.axes))
    lines = [f"\n{'total':<{width}}  {format_probability(dist.total())}"]
    for q in report.queries:
        verdict = "HOLDS" if q.holds else "FAILS"
        detail = f"P({q.given[0]}={q.given[1]} and not {q.then[0]}={q.then[1]}) = " \
                 f"{format_probability(q.counter_probability)}"
        lines.append(f'query "{q.text}": {verdict}  [{detail}]')
    return _join_rows(prefix, dist.axes, _table_pair, " ", "\n", "  ", format_probability,
                      dist.probs, "\n".join(lines) + "\n", width)


def _json_pair(agent: str, label: str) -> str:
    return f"[{encode_basestring_ascii(agent)}, {encode_basestring_ascii(label)}]"


def render_json(report: RunReport) -> str:
    """One line, byte for byte ``json.dumps`` of the document

        {"scenario", "regime", "engine",
         "outcomes": [{"tuple": [[agent, label], ...], "p": w}, ...],
         "delta", "queries" (only when asked)}

    The outcome rows are spliced in as text by ``_join_rows``.  A pair's two
    strings are written by ``encode_basestring_ascii``, the encoder's own
    function for them.  Each weight is written with ``float.__repr__``, which
    is what the encoder writes for a finite float.
    ``paths.outcome_distribution`` has checked that the weights sum to 1, so
    none is NaN or infinite.
    """
    head = json.dumps({"scenario": report.source, "regime": report.regime,
                       "engine": report.engine})
    tail = {"delta": report.delta}
    if report.queries:
        tail["queries"] = [
            {
                "query": q.text,
                "given": list(q.given),
                "then": list(q.then),
                "holds": q.holds,
                "counter_probability": q.counter_probability,
            }
            for q in report.queries
        ]
    return _join_rows(head[:-1] + ', "outcomes": [{"tuple": [', report.dist.axes, _json_pair,
                      ", ", '}, {"tuple": [', '], "p": ', float.__repr__, report.dist.probs,
                      "}], " + json.dumps(tail)[1:] + "\n")


def _dot_quoted(text: str) -> str:
    """A DOT double-quoted string: backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_source(d: paths.OutcomeDistribution, s: Scenario) -> str:
    """DOT digraph of the real-path network; vanishing edges are dashed."""
    graph = paths.real_path_graph(d, s)
    lines = ["digraph real_paths {", "  rankdir=LR;", "  node [shape=box];"]
    for k, (agent, labels) in enumerate(graph.layers):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f"    label={_dot_quoted(agent)};")
        for label in labels:
            lines.append(f"    {_dot_quoted(f'n{k}_{label}')} [label={_dot_quoted(label)}];")
        lines.append("  }")
    for k, la, lb, w, vanishing in graph.edges:
        style = ', style=dashed' if vanishing else ""
        lines.append(f"  {_dot_quoted(f'n{k}_{la}')} -> {_dot_quoted(f'n{k + 1}_{lb}')} "
                     f'[label="{w:.9g}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsum",
        description="Run measurement scenarios through the path engine and the dilation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a built-in scenario or a .scn file")
    run_p.add_argument("source", help="built-in name (see 'pathsum list') or path to a .scn file")
    run_p.add_argument("--regime", default=None,
                       help="record regime for the built-in 2w2f "
                            "(both_erased, fbar_preserved, f_preserved, both_preserved)")
    run_p.add_argument("--engine", default="both", choices=("paths", "oracle", "both"))
    run_p.add_argument("--format", dest="fmt", default="table",
                       choices=("table", "json", "dot"))
    run_p.add_argument("--query", action="append", default=[],
                       help="implication query like 'Ok=>Heads' (repeatable)")
    run_p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.add_parser("list", help="list built-in scenarios")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "list":
        print("2w2f  (--regime both_erased | fbar_preserved | f_preserved | both_preserved)")
        for name in library.builtin_names():
            print(name)
        return 0
    try:
        report = run(args.source, engine=args.engine, regime=args.regime,
                     queries=tuple(args.query))
        if args.fmt == "table":
            rendered = render_table(report)
        elif args.fmt == "json":
            rendered = render_json(report)
        else:
            rendered = dot_source(report.dist, report.scenario)
        if args.out:
            Path(args.out).write_text(rendered, "utf-8")
    except (ValueError, OSError) as exc:  # OSError: unreadable source, unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)

    if report.delta is not None and report.delta > ATOL_PROB:
        print(f"error: engines disagree (max entrywise delta = {report.delta:.3g})",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
