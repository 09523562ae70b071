"""Command line front end: ``gonlab <subcommand> ...``.

Exit codes: 0 success, 1 input or usage error, 2 budget exhaustion (a
partial answer is still emitted where the command has one).  A closed
stdout pipe ends the command quietly with 0.  JSON output is
canonical: keys sorted, compact separators, exact rationals rendered as
"p/q" strings; re-serializing the parsed output reproduces it byte for
byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from gonlab.bounds import DEFAULT_EXACT_CHEEGER_CAP, BoundReport, full_report
from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.divisor import format_divisor, parse_divisor
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityCertificate, exact_gonality
from gonlab.graph import GraphParseError, Multigraph, load_graph, named_graph
from gonlab.randgraph import ConfigModelParams, ExperimentCaps, run_experiment, sample_configuration
from gonlab.reduction import find_rank_obstruction, has_positive_rank, v_reduce
from gonlab.spectral import SpectralBound, algebraic_connectivity, spectral_gonality_bound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def resolve_graph(source: str) -> Multigraph:
    try:
        return named_graph(source)
    except KeyError:
        pass
    path = Path(source)
    if path.exists():
        return load_graph(path.read_text())
    raise GraphParseError(f"graph source {source!r} is neither a named graph nor a file")


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if is_dataclass(obj):  # field by field; `asdict` would deep-copy every value first
        return {name: _jsonable(getattr(obj, name)) for name in _field_names(type(obj))}
    return obj


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def emit(payload, fmt: str) -> None:
    payload = _jsonable(payload)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    joiner, layout = (",", "{}\t{}") if fmt == "tsv" else (", ", "{:40s} {}")
    for key, value in _flatten(payload):
        if isinstance(value, list):
            value = joiner.join(_text(v) for v in value)
        print(layout.format(key, _text(value)))


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list) and payload and isinstance(payload[0], dict):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _text(value) -> str:
    """A scalar as the text formats print it: null, true and false as in
    JSON, anything else by str()."""
    return json.dumps(value) if value is None or isinstance(value, bool) else str(value)


def build_budget(args) -> SearchBudget:
    return SearchBudget.with_seconds(args.budget_seconds, max_steps=args.budget)


def _profile_payload(profile) -> dict:
    return {
        "n": profile.n,
        "h": profile.h,
        "points": [
            {"j": p.j, "u": p.u, "h_u": p.value, "witness": p.witness}
            for p in profile.points
        ],
    }


def cmd_cheeger(args) -> int:
    g = resolve_graph(args.graph)
    profile = cheeger_profile(g, build_budget(args))
    emit(_profile_payload(profile), args.format)
    return EXIT_OK


def cmd_bu(args) -> int:
    g = resolve_graph(args.graph)
    try:
        u = Fraction(args.u)
    except ZeroDivisionError:
        raise ValueError(f"u={args.u} has a zero denominator") from None
    cert = b_u(g, u, build_budget(args))
    emit(cert, args.format)
    return EXIT_OK if cert.optimal else EXIT_BUDGET


def _bound_payload(bound: SpectralBound) -> dict:
    return {"value": bound.value, "low": bound.low, "high": bound.high, "ceiling": bound.ceiling}


def cmd_spectral(args) -> int:
    g = resolve_graph(args.graph)
    result = spectral_gonality_bound(g) if g.is_connected() else algebraic_connectivity(g)
    payload = {key: getattr(result, key) for key in ("n", "d_max", "lambda2", "error_bound", "connected")}
    if isinstance(result, SpectralBound):
        payload["gonality_bound"] = _bound_payload(result)
        if result.note is not None:
            payload["note"] = result.note
    emit(payload, args.format)
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = resolve_graph(args.graph)
    d = parse_divisor(args.divisor, g)
    reduced = v_reduce(d, args.at)
    emit(
        {
            "at": args.at,
            "input": list(d.chips),
            "reduced": list(reduced.chips),
            "literal": format_divisor(reduced),
        },
        args.format,
    )
    return EXIT_OK


def cmd_rank(args) -> int:
    g = resolve_graph(args.graph)
    d = parse_divisor(args.divisor, g)
    r = args.at_least
    obstruction = find_rank_obstruction(d, r, build_budget(args))
    emit(
        {
            "degree": d.degree(),
            "at_least": r,
            "holds": obstruction is None,
            "witness": None if obstruction is None else format_divisor(obstruction),
        },
        args.format,
    )
    return EXIT_OK


def cmd_gonality(args) -> int:
    g = resolve_graph(args.graph)
    result = exact_gonality(g, build_budget(args), max_degree=args.max_degree)
    if isinstance(result, GonalityCertificate):
        emit(
            {
                "gonality": result.value,
                "witness": format_divisor(result.witness),
                "witness_chips": list(result.witness.chips),
            },
            args.format,
        )
        return EXIT_OK
    emit(result, args.format)  # the bracket's fields are the keys
    return EXIT_BUDGET


def _grid_bound_payload(bound: tuple[Fraction, Fraction] | None) -> dict | None:
    return None if bound is None else {"value": bound[0], "u": bound[1]}


def _report_payload(report: BoundReport) -> dict:
    return {
        "n": report.n,
        "m": report.m,
        "k": report.k,
        "genus": report.genus,
        "rows": report.rows,
        "separator_bound": _grid_bound_payload(report.separator_bound),
        "cheeger_bound": _grid_bound_payload(report.cheeger_bound),
        "spectral": None
        if report.spectral is None
        else {"lambda2": report.spectral.lambda2, **_bound_payload(report.spectral)},
        "upper_genus": report.upper_genus,
        "upper_independence": report.upper_independence,
        "lower": report.lower,
        "upper": report.upper,
        "notes": list(report.notes),
        "budget_limited": report.budget_limited,
    }


def cmd_bounds(args) -> int:
    g = resolve_graph(args.graph)
    report = full_report(g, build_budget(args), exact_cheeger_cap=args.cheeger_cap)
    emit(_report_payload(report), args.format)
    return EXIT_BUDGET if report.budget_limited else EXIT_OK


def cmd_random(args) -> int:
    params = ConfigModelParams(k=args.k, n=args.n, seed=args.seed, mode=args.mode)
    caps = ExperimentCaps(gonality_cap=args.gonality_cap, cheeger_cap=args.cheeger_cap)
    if args.emit_graphs:  # before the experiment, so a bad path fails at once
        Path(args.emit_graphs).mkdir(parents=True, exist_ok=True)
    records, summary = run_experiment(
        params, args.samples, caps, threads=args.threads, budget=build_budget(args)
    )
    if args.emit_graphs:
        for record in records:
            g = sample_configuration(params, record.index)
            (Path(args.emit_graphs) / f"sample_{record.index:04d}.txt").write_text(g.to_edge_list_text())
    emit(
        {
            "params": params,
            "records": records,
            "summary": summary,
        },
        args.format,
    )
    stopped = any(r.budget_limited or r.gonality_status == "budget" for r in records)
    return EXIT_BUDGET if stopped else EXIT_OK


def cmd_pappus_demo(args) -> int:
    g = named_graph("pappus")
    report = full_report(g, build_budget(args), gonality=True)
    middle_ring = parse_divisor("0:1,1:1,2:1,3:1,4:1,5:1", g)
    result = report.gonality
    certified = isinstance(result, GonalityCertificate)
    payload = {
        "cheeger_table": [{"j": r.j, "u": r.u, "h_u": r.h_u} for r in report.rows],
        "lambda2": report.spectral.lambda2,
        "cheeger_grid_bound": _grid_bound_payload(report.cheeger_bound),
        "spectral_bound": {
            "value": report.spectral.value,
            "ceiling": report.spectral.ceiling,
        },
        "middle_ring_divisor_positive_rank": has_positive_rank(middle_ring),
        "bracket": {"lower": report.lower, "upper": report.upper},
        # the search ran inside the bracket, so a stopped one is already folded
        "gonality": {"value": result.value, "witness": format_divisor(result.witness)}
        if certified
        else {"lower": result.lower, "upper": result.upper},
    }
    emit(payload, args.format)
    return EXIT_OK if certified and not report.budget_limited else EXIT_BUDGET


def _add_common(parser: argparse.ArgumentParser, graph: bool = True, budget: bool = True) -> None:
    """The shared arguments; a command offers the budget flags only when
    its engines read a budget."""
    if graph:
        parser.add_argument("graph", help="named graph (pappus, k4, cycle:<n>, path:<n>) or edge-list file")
    parser.add_argument("--format", choices=("human", "json", "tsv"), default="human")
    if budget:
        parser.add_argument(
            "--budget", type=int, default=DEFAULT_BUDGET.max_steps, help="step cap of each search"
        )
        parser.add_argument("--budget-seconds", type=float, default=None, help="wall clock cap")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_INPUT: its own code 2 is
    this tool's code for a stopped search."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, then shared by every call of `main`
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cheeger", help="exact u-Cheeger profile over the grid")
    _add_common(p)
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("bu", help="minimum separator leaving components of size <= u*n")
    _add_common(p)
    p.add_argument("--u", required=True, help="fraction like 6/18")
    p.set_defaults(func=cmd_bu)

    p = sub.add_parser("spectral", help="algebraic connectivity and the spectral bound")
    _add_common(p, budget=False)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("reduce", help="v-reduced form of a divisor")
    _add_common(p, budget=False)
    p.add_argument("divisor", help="literal like 0:1,4:2 (empty string = zero divisor)")
    p.add_argument("--at", type=int, required=True, help="reduction vertex")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("rank", help="test rank >= r with a failure witness")
    _add_common(p)
    p.add_argument("divisor")
    p.add_argument("--at-least", type=int, default=1)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gonality", help="exact gonality certificate")
    _add_common(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_gonality)

    p = sub.add_parser("bounds", help="full lower/upper bound report")
    _add_common(p)
    p.add_argument("--cheeger-cap", type=int, default=DEFAULT_EXACT_CHEEGER_CAP)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random", help="configuration-model experiment harness")
    _add_common(p, graph=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("multigraph", "simple"), default="multigraph")
    caps = ExperimentCaps()
    p.add_argument("--gonality-cap", type=int, default=caps.gonality_cap)
    p.add_argument("--cheeger-cap", type=int, default=caps.cheeger_cap)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--emit-graphs", default=None, help="write each sample as an edge list into this directory")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("pappus-demo", help="end-to-end walkthrough on the Pappus graph")
    _add_common(p, graph=False)
    p.set_defaults(func=cmd_pappus_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`), which is not an error; Python
        # flushes stdout again at exit, so it writes to os.devnull from now on
        # (the SIGPIPE note of Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except GraphParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
