import json

import pytest

from gonlab.cli import main


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
    assert payload["exact"] is True
    assert payload["h"] == "7/9"
    table = {p["j"]: p["h_u"] for p in payload["points"]}
    assert table == {1: "3", 2: "2", 3: "5/3", 4: "3/2", 5: "7/5", 6: "1", 7: "1", 8: "1", 9: "7/9"}


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


def test_bu_command(capsys):
    code, payload = run_json(capsys, "bu", "path:5", "--u", "1/2")
    assert code == 0
    assert payload["size"] == 1
    assert payload["separator"] == [2]
    assert payload["optimal"] is True


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
    assert payload["exhaustive"] is True


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
    # genus-1 bound is loose and excluded; independence gives 6 - 3 = 3
    assert payload["upper"] == 3
    assert payload["upper_genus_loose"] is True
    assert payload["budget_limited"] is False


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


def test_pappus_demo(capsys):
    code, payload = run_json(capsys, "pappus-demo")
    assert code == 0
    assert payload["gonality"]["value"] == 6
    assert payload["gonality"]["exhaustive"] is True
    assert payload["middle_ring_divisor_positive_rank"] is True
    assert payload["cheeger_grid_bound"] == {"u": "1/3", "value": "9/2"}
    assert payload["spectral_bound"]["ceiling"] == 6
    assert payload["bracket"] == {"lower": 6, "upper": 9}
    table = {row["j"]: row["h_u"] for row in payload["cheeger_table"]}
    assert table[9] == "7/9"


def test_threads_env_applies(capsys, monkeypatch):
    monkeypatch.setenv("GONLAB_THREADS", "2")
    code, payload = run_json(capsys, "gonality", "cycle:6")
    assert code == 0
    assert payload["gonality"] == 2


def test_budget_seconds_env(capsys, monkeypatch):
    monkeypatch.setenv("GONLAB_BUDGET_SECONDS", "0.000001")
    code, payload = run_json(capsys, "gonality", "pappus")
    assert code == 2  # partial output: a bracket instead of a certificate
    assert payload["lower"] >= 1
    assert payload["upper"] == 9
    assert "budget" in payload["reason"]


@pytest.mark.parametrize(
    "flag, env",
    [("--budget", None), ("--budget-seconds", None), (None, "GONLAB_BUDGET_CANDIDATES"), (None, "GONLAB_BUDGET_SECONDS")],
    ids=["flag-candidates", "flag-seconds", "env-candidates", "env-seconds"],
)
def test_zero_budget_is_a_cap(capsys, monkeypatch, flag, env):
    if env:
        monkeypatch.setenv(env, "0")
    code, payload = run_json(capsys, "gonality", "cycle:8", *((flag, "0") if flag else ()))
    assert code == 2
    assert payload["lower"] == 1
    assert payload["upper"] == 4
    assert payload["cleared_degree"] == 0


def test_random_honours_budget(capsys):
    code, payload = run_json(
        capsys, "random", "--k", "3", "--n", "8", "--samples", "4", "--seed", "7", "--budget", "0",
    )
    assert code == 0
    assert len(payload["records"]) == 4
    assert all(r["gonality"] is None for r in payload["records"])
    assert payload["summary"]["gonality_evaluated"] == 0


def test_bounds_cheeger_budget_gives_partial_report(capsys, monkeypatch):
    monkeypatch.setenv("GONLAB_BUDGET_NODES", "50")
    code, payload = run_json(capsys, "bounds", "pappus")
    assert code == 2
    assert payload["budget_limited"] is True
    assert payload["rows"] == []
    assert payload["lower"] <= 6 <= payload["upper"]
