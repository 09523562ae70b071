import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gonlab.bounds import DEFAULT_EXACT_CHEEGER_CAP
from gonlab.cli import build_parser, main
from gonlab.randgraph import ConfigModelParams, ExperimentCaps, sample_configuration


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_cheeger_pappus_json(capsys):
    code, payload = run_json(capsys, "cheeger", "pappus")
    assert code == 0
    assert payload["h"] == "7/9"
    table = {p["j"]: p["h_u"] for p in payload["points"]}
    assert table == {1: "3", 2: "2", 3: "5/3", 4: "3/2", 5: "7/5", 6: "1", 7: "1", 8: "1", 9: "7/9"}


def test_cheeger_is_exact_at_any_n(capsys):
    """cycle:30 is above the report's size cap; the scan is still exact."""
    code, payload = run_json(capsys, "cheeger", "cycle:30")
    assert code == 0
    assert payload["h"] == "2/15"
    assert "exact" not in payload


def test_cheeger_stopped_by_budget_exits_two(tmp_path, capsys):
    g = sample_configuration(ConfigModelParams(k=3, n=40, seed=7), 0)
    path = tmp_path / "cubic40.txt"
    path.write_text(g.to_edge_list_text())
    code = main(["cheeger", str(path), "--format", "json", "--budget", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget exhausted" in captured.err


def _main_near_recursion_limit(argv, headroom=100):
    """`main(argv)` with the recursion limit `headroom` frames above the
    current depth, so that a search some hundreds of levels deep reaches it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + headroom)
    try:
        return main(argv)
    finally:
        sys.setrecursionlimit(limit)


def test_cheeger_at_the_recursion_limit_stops_like_a_budget(capsys):
    """The scan recurses once per subset size; a partial scan bounds
    nothing, so it prints nothing and exits 2 with one stderr line."""
    assert _main_near_recursion_limit(["cheeger", "cycle:400", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: cheeger scan reached the recursion limit at n=400\n"


def test_bu_at_the_recursion_limit_keeps_its_incumbent(tmp_path, capsys):
    """The separator search recurses once per removed vertex; at the limit
    it returns its incumbent with the root packing bound, as at a step cap."""
    g = sample_configuration(ConfigModelParams(k=4, n=300, seed=7), 0)
    path = tmp_path / "quartic300.txt"
    path.write_text(g.to_edge_list_text())
    argv = ["bu", str(path), "--u", "1/300", "--format", "json"]
    assert _main_near_recursion_limit(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    cert = json.loads(captured.out)
    assert cert["optimal"] is False
    assert cert["lower_bound"] <= cert["size"] == len(cert["separator"])
    assert cert["component_sizes"] == [1] * (300 - cert["size"])


def test_cheeger_has_no_size_cap_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["cheeger", "pappus", "--exact-max-n", "4"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rank", "k4", "-1:1"), "required: divisor"),
        (("bounds",), "required: graph"),
    ],
    ids=["rank", "bounds"],
)
def test_usage_errors_exit_one_not_the_budget_code(argv, message, capsys):
    """A malformed command line is an input error (1), so a script cannot
    mistake it for a stopped search (2); `--help` still exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: gonlab {argv[0]}")
    assert message in captured.err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


def test_cap_defaults_come_from_the_library():
    """`bounds` and `random` share one Cheeger-cap default, the library's."""
    parser = build_parser()
    bounds = parser.parse_args(["bounds", "pappus"])
    assert bounds.cheeger_cap == DEFAULT_EXACT_CHEEGER_CAP
    random_ = parser.parse_args(["random", "--k", "3", "--n", "8", "--samples", "1"])
    caps = ExperimentCaps()
    assert (random_.gonality_cap, random_.cheeger_cap) == (caps.gonality_cap, caps.cheeger_cap)
    assert random_.cheeger_cap == bounds.cheeger_cap == DEFAULT_EXACT_CHEEGER_CAP


@pytest.mark.parametrize(
    "argv",
    [("bounds", "pappus"), ("random", "--k", "3", "--n", "8", "--samples", "1")],
    ids=["bounds", "random"],
)
def test_separators_have_no_size_cap_of_their_own(argv, capsys):
    """The Cheeger cap caps the scan and its separator searches together."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--separator-cap", "4"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --separator-cap 4" in capsys.readouterr().err


def test_random_runs_separators_up_to_the_cheeger_cap(capsys):
    """At n=18, between the harness's old separator cap (16) and its Cheeger
    cap (24), every connected record carries a certified separator bound."""
    code, payload = run_json(capsys, "random", "--k", "3", "--n", "18", "--samples", "5", "--seed", "7")
    assert code == 0
    connected = [r for r in payload["records"] if r["connected"]]
    assert connected
    for r in connected:
        assert r["separator_bound"] is not None
        assert r["budget_limited"] is False


def test_json_output_round_trips(capsys):
    code, out = run_cli(capsys, "cheeger", "k4", "--format", "json")
    assert code == 0
    text = out.strip()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text


def test_spectral_command(capsys):
    code, payload = run_json(capsys, "spectral", "pappus")
    assert code == 0
    assert abs(payload["lambda2"] - 1.2679491924) < 1e-6
    assert payload["gonality_bound"]["ceiling"] == 6


def test_spectral_command_solves_one_eigenproblem(capsys, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    code, payload = run_json(capsys, "spectral", "pappus")
    assert code == 0 and payload["connected"] is True
    assert len(calls) == 1


def test_spectral_command_notes_the_trivial_ceiling_below_three_vertices(tmp_path, capsys):
    """Below 3 vertices the bound is no theorem: the ceiling is the trivial
    1 next to a formula value above 1, and a `note` says why.  From 3
    vertices on there is no `note` key."""
    double_edge = tmp_path / "double_edge.txt"
    double_edge.write_text("2 2\n0 1\n0 1\n")
    for source in ("path:2", str(double_edge)):
        code, payload = run_json(capsys, "spectral", source)
        assert code == 0
        assert payload["gonality_bound"]["ceiling"] == 1
        assert payload["gonality_bound"]["low"] > 1
        assert payload["note"] == (
            "n=2 below 3: the spectral bound does not apply, its ceiling is the trivial 1"
        )
    code, payload = run_json(capsys, "spectral", "path:3")
    assert code == 0 and "note" not in payload


def test_spectral_command_disconnected(tmp_path, capsys):
    two_edges = tmp_path / "two_edges.txt"
    two_edges.write_text("4 2\n0 1\n2 3\n")
    code, payload = run_json(capsys, "spectral", str(two_edges))
    assert code == 0
    assert payload["connected"] is False
    assert payload["lambda2"] == 0.0
    assert "gonality_bound" not in payload


def test_bu_command(capsys):
    code, payload = run_json(capsys, "bu", "path:5", "--u", "1/2")
    assert code == 0
    assert payload["size"] == 1
    assert payload["separator"] == [2]
    assert payload["optimal"] is True


@pytest.mark.parametrize("u", ["1/0", "abc"])
def test_bu_malformed_u_is_an_input_error(u, capsys):
    assert main(["bu", "pappus", "--u", u]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bounds_stopped_cover_search_note(capsys):
    code, payload = run_json(capsys, "bounds", "pappus", "--cheeger-cap", "0", "--budget", "0")
    assert code == 2
    assert payload["notes"][-1] == (
        "vertex-cover search exhausted budget: independence upper bound 9 "
        "comes from the best cover found"
    )


def test_reduce_command(capsys):
    code, payload = run_json(capsys, "reduce", "path:2", "1:1", "--at", "0")
    assert code == 0
    assert payload["reduced"] == [1, 0]
    assert payload["literal"] == "0:1"


def test_rank_command_with_witness(capsys):
    code, payload = run_json(capsys, "rank", "cycle:4", "0:1", "--at-least", "1")
    assert code == 0
    assert payload["holds"] is False
    assert payload["witness"]  # a failing degree-1 subtrahend

    code, payload = run_json(capsys, "rank", "cycle:4", "0:2", "--at-least", "1")
    assert code == 0
    assert payload["holds"] is True
    assert payload["witness"] is None


def test_gonality_command(capsys):
    code, payload = run_json(capsys, "gonality", "cycle:6")
    assert code == 0
    assert payload["gonality"] == 2
    assert payload["witness_chips"] == [2, 0, 0, 0, 0, 0]


def test_gonality_budget_exit_code(capsys):
    code, payload = run_json(capsys, "gonality", "pappus", "--budget", "50")
    assert code == 2
    assert payload["lower"] >= 1
    assert payload["upper"] == 9


def test_bounds_command(capsys):
    code, payload = run_json(capsys, "bounds", "cycle:6")
    assert code == 0
    rows = {r["j"]: r["h_u"] for r in payload["rows"]}
    assert rows[3] == "2/3"
    assert payload["lower"] == 2
    # genus 1: every degree-2 divisor has rank 1; independence gives 6 - 3 = 3
    assert (payload["upper_genus"], payload["upper_independence"]) == (2, 3)
    assert payload["upper"] == 2
    assert payload["notes"] == []
    assert payload["budget_limited"] is False


def test_bounds_single_vertex(capsys):
    """One vertex has no cut and no λ2: the report skips both stages and
    the upper bounds close the bracket at 1."""
    code, payload = run_json(capsys, "bounds", "path:1")
    assert code == 0
    assert payload["rows"] == [] and payload["spectral"] is None
    assert (payload["lower"], payload["upper"]) == (1, 1)


@pytest.mark.parametrize("command", ["spectral", "cheeger"])
def test_single_vertex_spectral_and_cheeger_are_input_errors(command, capsys):
    assert main([command, "path:1"]) == 1
    assert "2 vertices" in capsys.readouterr().err


def test_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")
    code = main(["bounds", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err


def test_unknown_graph_exit_one(capsys):
    assert main(["spectral", "no-such-graph"]) == 1


def test_graph_from_file(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, payload = run_json(capsys, "gonality", str(path))
    assert code == 0
    assert payload["gonality"] == 2


def test_random_command_json(capsys):
    code, payload = run_json(
        capsys, "random", "--k", "3", "--n", "8", "--samples", "3", "--seed", "7",
        "--gonality-cap", "8", "--cheeger-cap", "10",
    )
    assert code == 0
    assert len(payload["records"]) == 3
    assert payload["summary"]["samples"] == 3
    assert payload["summary"]["sandwich_violations"] == 0


def test_random_emit_graphs(tmp_path, capsys):
    code, _ = run_json(
        capsys, "random", "--k", "2", "--n", "6", "--samples", "2", "--seed", "1",
        "--gonality-cap", "0", "--cheeger-cap", "0",
        "--emit-graphs", str(tmp_path / "out"),
    )
    assert code == 0
    files = sorted((tmp_path / "out").glob("sample_*.txt"))
    assert len(files) == 2
    from gonlab.graph import load_graph
    from gonlab.randgraph import ConfigModelParams, sample_configuration

    g = load_graph(files[0].read_text())
    assert g == sample_configuration(ConfigModelParams(k=2, n=6, seed=1), 0)


def test_a_directory_as_graph_is_an_input_error(tmp_path, capsys):
    assert main(["bounds", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_emit_graphs_onto_a_file_fails_before_the_experiment(tmp_path, capsys, monkeypatch):
    """The output directory is made first: a path that cannot be one stops
    the command before any sample is drawn."""
    target = tmp_path / "taken"
    target.write_text("")
    monkeypatch.setattr("gonlab.cli.run_experiment", lambda *a, **k: pytest.fail("experiment ran"))
    argv = ["random", "--k", "3", "--n", "40", "--samples", "20", "--emit-graphs", str(target)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_human_and_json_agree_numerically(capsys):
    code, payload = run_json(capsys, "spectral", "k4")
    _, human = run_cli(capsys, "spectral", "k4")
    assert code == 0
    assert str(payload["lambda2"]) in human
    assert str(payload["gonality_bound"]["ceiling"]) in human


def test_tsv_format(capsys):
    code, out = run_cli(capsys, "spectral", "k4", "--format", "tsv")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(lines["lambda2"]) == pytest.approx(4.0, abs=1e-9)


def test_text_formats_spell_scalars_like_json(capsys):
    """TSV and human output print null, true and false as JSON does, not
    as Python's None, True and False."""
    code, out = run_cli(capsys, "bounds", "pappus", "--format", "tsv")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert (lines["rows.0.separator_size"], lines["rows.1.separator_size"]) == ("9", "null")
    assert lines["budget_limited"] == "false"
    code, out = run_cli(capsys, "rank", "k4", "0:1,1:1,2:1", "--format", "human")
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert (lines["holds"], lines["witness"]) == ("true", "null")


@pytest.mark.parametrize(
    "argv, code",
    [(("spectral", "pappus"), 0), (("gonality", "cycle:8", "--budget", "0"), 2)],
    ids=["spectral", "stopped-gonality"],
)
def test_python_dash_m_runs_the_cli(argv, code, capsys, cli_env):
    """`python -m gonlab` prints what `main` prints and passes its exit code on."""
    proc = subprocess.run(
        [sys.executable, "-m", "gonlab", *argv, "--format", "json"],
        capture_output=True, text=True, env=cli_env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv, "--format", "json")
    assert proc.returncode == code


def test_reader_that_stops_early_is_not_an_error(cli_env):
    """`gonlab ... | head -c 1`: the reader takes one byte and closes the
    pipe.  The command exits 0 and prints nothing on stderr.  Unbuffered,
    `print` writes the line and its newline apart, so a write usually
    comes after the close."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gonlab", "pappus-demo", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(cli_env, PYTHONUNBUFFERED="1"),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_not_an_error(unbuffered, cli_env):
    """A pipe whose reader is gone before the first byte fails every write,
    whether it comes from `print` (unbuffered) or from the final flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gonlab", "pappus-demo", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(cli_env, PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


IMPORT_FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
import gonlab, gonlab.cli
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = gonlab.cli.main(["spectral", "k4", "--format", "json"])
print(json.dumps({"imported": sorted(imported), "code": code, "numpy_after": "numpy" in sys.modules}))
"""


def test_import_loads_no_pool_numpy_or_hashlib(cli_env):
    """A fresh `import gonlab.cli` loads neither numpy nor the process pool
    nor hashlib; the commands that need them import them on first use.
    Modules the interpreter's start-up already loaded are not counted."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT],
        capture_output=True, text=True, env=cli_env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    packages = {m.partition(".")[0] for m in result["imported"]}
    assert packages & {"numpy", "multiprocessing", "concurrent", "hashlib"} == set()
    assert result["code"] == 0 and result["numpy_after"]


def test_pappus_demo(capsys):
    code, payload = run_json(capsys, "pappus-demo")
    assert code == 0
    assert payload["gonality"] == {"value": 6, "witness": "0:6"}
    assert payload["middle_ring_divisor_positive_rank"] is True
    assert payload["cheeger_grid_bound"] == {"u": "1/3", "value": "9/2"}
    assert payload["spectral_bound"]["ceiling"] == 6
    assert payload["bracket"] == {"lower": 6, "upper": 9}
    table = {row["j"]: row["h_u"] for row in payload["cheeger_table"]}
    assert table[9] == "7/9"


def test_pappus_demo_stopped_search_keeps_report_lower_bound(capsys):
    code, payload = run_json(capsys, "pappus-demo", "--budget-seconds", "0")
    assert code == 2
    assert "value" not in payload["gonality"]
    assert payload["gonality"]["lower"] >= payload["bracket"]["lower"] > 1
    assert payload["gonality"]["upper"] == payload["bracket"]["upper"]


@pytest.mark.parametrize("flag", ["0", "-2"], ids=["flag-zero", "flag-negative"])
def test_threads_below_one_is_an_input_error(capsys, flag):
    argv = ["random", "--k", "3", "--n", "8", "--samples", "2", "--threads", flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "thread count must be at least 1" in captured.err


@pytest.mark.parametrize("flag", ["nan"], ids=["flag"])
def test_nan_budget_seconds_is_an_input_error(capsys, flag):
    """No clock reading passes a NaN deadline, so it would mean "unlimited"."""
    assert main(["gonality", "cycle:8", "--budget-seconds", flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not nan" in captured.err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--budget", "-3", "budget steps"), ("--max-degree", "-5", "max_degree")],
    ids=["budget", "max-degree"],
)
def test_negative_cap_is_an_input_error(capsys, flag, value, message):
    """A negative cap would act as 0 with a wrong message, or print a
    bracket with a negative lower end."""
    assert main(["gonality", "cycle:8", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{message} must not be negative" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "k4", "--cheeger-cap", "-5"], "exact_cheeger_cap"),
        (["random", "--k", "3", "--n", "8", "--samples", "1", "--cheeger-cap", "-1"], "size caps"),
        (["random", "--k", "3", "--n", "8", "--samples", "1", "--gonality-cap", "-1"], "size caps"),
    ],
    ids=["bounds-cheeger", "random-cheeger", "random-gonality"],
)
def test_negative_size_cap_is_an_input_error(capsys, argv, message):
    """A negative size cap used to skip its stage without a word."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{message} must not be negative" in captured.err


def test_infinite_budget_seconds_is_no_deadline(capsys):
    code, payload = run_json(capsys, "gonality", "cycle:8", "--budget-seconds", "inf")
    assert code == 0
    assert payload["gonality"] == 2


@pytest.mark.parametrize("flag", ["--budget", "--budget-seconds"], ids=["flag-steps", "flag-seconds"])
def test_zero_budget_is_a_cap(capsys, flag):
    code, payload = run_json(capsys, "gonality", "cycle:8", flag, "0")
    assert code == 2
    assert payload["lower"] == 1
    assert payload["upper"] == 2


def test_random_honours_budget(capsys):
    code, payload = run_json(
        capsys, "random", "--k", "3", "--n", "8", "--samples", "4", "--seed", "7", "--budget", "0",
    )
    assert code == 2
    assert len(payload["records"]) == 4
    assert all(r["gonality"] is None for r in payload["records"])
    assert all(r["gonality_status"] == "budget" for r in payload["records"])
    assert payload["summary"]["gonality_evaluated"] == 0


def test_random_above_gonality_cap_is_capped_not_stopped(capsys):
    """No search runs (the Cheeger cap skips the scan and the separators),
    so a zero step cap stops nothing."""
    code, payload = run_json(
        capsys, "random", "--k", "3", "--n", "8", "--samples", "4", "--seed", "7", "--budget", "0",
        "--gonality-cap", "6", "--cheeger-cap", "0",
    )
    assert code == 0
    assert len(payload["records"]) == 4
    assert all(r["gonality"] is None for r in payload["records"])
    assert all(r["gonality_status"] == "capped" for r in payload["records"])


def test_random_reports_budget_limited_bound_report(capsys):
    """A 30-step cap stops a search in both samples' reports.  (At 31 the
    seeded scan and rows of the first sample all finish.)"""
    code, payload = run_json(
        capsys, "random", "--k", "3", "--n", "10", "--samples", "2", "--seed", "4", "--budget", "30"
    )
    assert code == 2
    assert [r["budget_limited"] for r in payload["records"]] == [True, True]


def test_bounds_cheeger_budget_gives_partial_report(capsys):
    code, payload = run_json(capsys, "bounds", "pappus", "--budget", "50")
    assert code == 2
    assert payload["budget_limited"] is True
    assert payload["rows"] == []
    assert payload["lower"] <= 6 <= payload["upper"]


def test_gonality_step_cap_counts_steps(capsys):
    """The cap counts search steps, not the compositions of a level: the
    degree-2 witness of cycle:60 takes 60 steps."""
    code, payload = run_json(capsys, "gonality", "cycle:60", "--budget", "500")
    assert code == 0
    assert payload["gonality"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("cheeger", "k4", "--budget", "0"),
        ("bu", "cycle:8", "--u", "1/4", "--budget", "0"),
        ("bounds", "pappus", "--budget", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_budget_flag_accepted(argv):
    """The step cap reaches the Cheeger scan and the separator search, which
    also finds the independence bound's vertex cover."""
    assert build_parser().parse_args(argv).budget == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("spectral", "pappus", "--budget", "0"),
        ("spectral", "pappus", "--budget-seconds", "0"),
        ("reduce", "k4", "0:1", "--at", "0", "--budget", "0"),
        ("reduce", "k4", "0:1", "--at", "0", "--budget-seconds", "0"),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_budget_flags_only_where_read(argv, capsys):
    """`spectral` and `reduce` run no search, so they offer no budget flag."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
