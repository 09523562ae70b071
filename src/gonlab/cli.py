"""Command line front end: ``gonlab <subcommand> ...``.

Exit codes: 0 success, 1 input error, 2 budget exhaustion (partial output
was still emitted).  JSON output is canonical: keys sorted, compact
separators, exact rationals rendered as "p/q" strings; re-serializing the
parsed output reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from gonlab.bounds import BoundReport, full_report
from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.divisor import format_divisor, parse_divisor
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityCertificate, exact_gonality
from gonlab.graph import GraphParseError, Multigraph, load_graph, named_graph
from gonlab.randgraph import ConfigModelParams, ExperimentCaps, run_experiment, sample_configuration
from gonlab.reduction import find_rank_obstruction, has_positive_rank, v_reduce
from gonlab.spectral import algebraic_connectivity, spectral_gonality_bound

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
    return obj


def emit(payload: dict, fmt: str) -> None:
    payload = _jsonable(payload)
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif fmt == "tsv":
        _emit_tsv(payload)
    else:
        _emit_human(payload)


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


def _emit_tsv(payload: dict) -> None:
    for key, value in _flatten(payload):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        print(f"{key}\t{value}")


def _emit_human(payload: dict) -> None:
    for key, value in _flatten(payload):
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        print(f"{key:40s} {value}")


def _setting(flag, env: str, parse, default=None):
    """The flag if given, else the environment variable if non-empty, else
    the default.  Zero is a value like any other, not "unset"."""
    if flag is not None:
        return flag
    raw = os.environ.get(env)
    return parse(raw) if raw else default


def build_budget(args) -> SearchBudget:
    candidates = _setting(
        getattr(args, "budget", None), "GONLAB_BUDGET_CANDIDATES", int, DEFAULT_BUDGET.max_candidates
    )
    nodes = _setting(None, "GONLAB_BUDGET_NODES", int, DEFAULT_BUDGET.max_nodes)
    seconds = _setting(getattr(args, "budget_seconds", None), "GONLAB_BUDGET_SECONDS", float)
    return SearchBudget.with_seconds(seconds, max_candidates=candidates, max_nodes=nodes)


def _threads(args) -> int:
    return _setting(getattr(args, "threads", None), "GONLAB_THREADS", int, 1)


def _profile_payload(profile) -> dict:
    return {
        "n": profile.n,
        "exact": profile.exact,
        "h": profile.h,
        "points": [
            {"j": p.j, "u": p.u, "h_u": p.value, "witness": p.witness}
            for p in profile.points
        ],
    }


def cmd_cheeger(args) -> int:
    g = resolve_graph(args.graph)
    profile = cheeger_profile(g, build_budget(args), exact_cap=args.exact_max_n)
    emit(_profile_payload(profile), args.format)
    return EXIT_OK


def cmd_bu(args) -> int:
    g = resolve_graph(args.graph)
    u = Fraction(args.u)
    cert = b_u(g, u, build_budget(args))
    emit(
        {
            "u": cert.u,
            "max_component": cert.max_component,
            "size": cert.size,
            "separator": cert.separator,
            "component_sizes": list(cert.component_sizes),
            "optimal": cert.optimal,
            "lower_bound": cert.lower_bound,
        },
        args.format,
    )
    return EXIT_OK if cert.optimal else EXIT_BUDGET


def cmd_spectral(args) -> int:
    g = resolve_graph(args.graph)
    summary = algebraic_connectivity(g, tol=args.tol)
    payload = {
        "n": summary.n,
        "d_max": summary.d_max,
        "lambda2": summary.lambda2,
        "error_bound": summary.error_bound,
        "connected": summary.connected,
    }
    if summary.connected:
        bound = spectral_gonality_bound(g, tol=args.tol)
        payload["gonality_bound"] = {
            "value": bound.value,
            "low": bound.low,
            "high": bound.high,
            "ceiling": bound.ceiling,
        }
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
    result = exact_gonality(
        g, build_budget(args), max_degree=args.max_degree, threads=_threads(args)
    )
    if isinstance(result, GonalityCertificate):
        emit(
            {
                "gonality": result.value,
                "witness": format_divisor(result.witness),
                "witness_chips": list(result.witness.chips),
                "exhaustive": result.exhaustive,
                "cleared_degree": result.cleared_degree,
            },
            args.format,
        )
        return EXIT_OK
    emit(
        {
            "lower": result.lower,
            "upper": result.upper,
            "cleared_degree": result.cleared_degree,
            "reason": result.reason,
        },
        args.format,
    )
    return EXIT_BUDGET


def _grid_bound_payload(bound: tuple[Fraction, Fraction] | None) -> dict | None:
    return None if bound is None else {"value": bound[0], "u": bound[1]}


def _report_payload(report: BoundReport) -> dict:
    return {
        "n": report.n,
        "m": report.m,
        "k": report.k,
        "genus": report.genus,
        "profile_exact": report.profile_exact,
        "rows": [
            {
                "j": r.j,
                "u": r.u,
                "h_u": r.h_u,
                "h_times_un": r.hun,
                "separator_size": r.separator_size,
                "transform": r.transform,
                "row_min_separator": r.row_min_separator,
                "row_min_transform": r.row_min_transform,
            }
            for r in report.rows
        ],
        "separator_bound": _grid_bound_payload(report.separator_bound),
        "cheeger_bound": _grid_bound_payload(report.cheeger_bound),
        "spectral": None
        if report.spectral is None
        else {
            "lambda2": report.spectral.lambda2,
            "value": report.spectral.value,
            "low": report.spectral.low,
            "high": report.spectral.high,
            "ceiling": report.spectral.ceiling,
        },
        "upper_genus": report.upper_genus,
        "upper_genus_loose": report.upper_genus_loose,
        "upper_independence": report.upper_independence,
        "lower": report.lower,
        "upper": report.upper,
        "notes": list(report.notes),
        "budget_limited": report.budget_limited,
    }


def cmd_bounds(args) -> int:
    g = resolve_graph(args.graph)
    report = full_report(
        g,
        build_budget(args),
        exact_cheeger_cap=args.cheeger_cap,
        separator_cap=args.separator_cap,
        tol=args.tol,
    )
    emit(_report_payload(report), args.format)
    return EXIT_BUDGET if report.budget_limited else EXIT_OK


def cmd_random(args) -> int:
    params = ConfigModelParams(k=args.k, n=args.n, seed=args.seed, mode=args.mode)
    caps = ExperimentCaps(
        gonality_cap=args.gonality_cap,
        cheeger_cap=args.cheeger_cap,
        separator_cap=args.separator_cap,
        tol=args.tol,
    )
    records, summary = run_experiment(
        params, args.samples, caps, threads=_threads(args), budget=build_budget(args)
    )
    if args.emit_graphs:
        outdir = Path(args.emit_graphs)
        outdir.mkdir(parents=True, exist_ok=True)
        for record in records:
            g = sample_configuration(params, record.index)
            (outdir / f"sample_{record.index:04d}.txt").write_text(g.to_edge_list_text())
    emit(
        {
            "params": {"k": params.k, "n": params.n, "seed": params.seed, "mode": params.mode},
            "records": [asdict(r) for r in records],
            "summary": asdict(summary),
        },
        args.format,
    )
    return EXIT_OK


def cmd_pappus_demo(args) -> int:
    g = named_graph("pappus")
    budget = build_budget(args)
    report = full_report(g, budget)
    middle_ring = parse_divisor("0:1,1:1,2:1,3:1,4:1,5:1", g)
    result = exact_gonality(g, budget, threads=_threads(args), upper=report.upper)
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
    }
    certified = isinstance(result, GonalityCertificate)
    if certified:
        payload["gonality"] = {
            "value": result.value,
            "witness": format_divisor(result.witness),
            "exhaustive": result.exhaustive,
        }
    else:
        payload["gonality"] = {"lower": result.lower, "upper": result.upper}
    emit(payload, args.format)
    return EXIT_OK if certified and not report.budget_limited else EXIT_BUDGET


def _add_common(parser: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        parser.add_argument("graph", help="named graph (pappus, k4, cycle:<n>, path:<n>) or edge-list file")
    parser.add_argument("--format", choices=("human", "json", "tsv"), default="human")
    parser.add_argument("--budget", type=int, default=None, help="candidate enumeration cap")
    parser.add_argument("--budget-seconds", type=float, default=None, help="wall clock cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cheeger", help="exact u-Cheeger profile over the grid")
    _add_common(p)
    p.add_argument("--exact-max-n", type=int, default=24)
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("bu", help="minimum separator leaving components of size <= u*n")
    _add_common(p)
    p.add_argument("--u", required=True, help="fraction like 6/18")
    p.set_defaults(func=cmd_bu)

    p = sub.add_parser("spectral", help="algebraic connectivity and the spectral bound")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("reduce", help="v-reduced form of a divisor")
    _add_common(p)
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
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_gonality)

    p = sub.add_parser("bounds", help="full lower/upper bound report")
    _add_common(p)
    p.add_argument("--cheeger-cap", type=int, default=24)
    p.add_argument("--separator-cap", type=int, default=24)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random", help="configuration-model experiment harness")
    _add_common(p, graph=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("multigraph", "simple"), default="multigraph")
    p.add_argument("--gonality-cap", type=int, default=12)
    p.add_argument("--cheeger-cap", type=int, default=20)
    p.add_argument("--separator-cap", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--emit-graphs", default=None, help="write each sample as an edge list into this directory")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("pappus-demo", help="end-to-end walkthrough on the Pappus graph")
    _add_common(p, graph=False)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_pappus_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
