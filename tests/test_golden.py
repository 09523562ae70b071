"""Byte-for-byte CLI output against fixtures captured from earlier versions.

The bound report, demo and harness fixtures pin the folded bounds; the
`cheeger` and `bu` fixtures pin the Cheeger witnesses and the separator
sets, which depend on the engines' tie-break rules.  The `rank`, `reduce`
and `gonality` fixtures pin the chip-firing kernels: the witnesses of a
failed rank test, a v-reduced form reached through deficit repair over
several distance layers, and a search's colex-least witness.  A budget-stopped `bu`
fixture pins the incumbent at the stop, which depends on the search order.

The `.human` and `.tsv` fixtures pin the two text formats, and the
`spectral` fixtures the payload of a connected graph, of one below the
spectral bound's 3 vertices (its `note`) and of a disconnected edge list.

Two quartic fixtures pin graphs where a vertex cover could beat the genus
bound: `bounds` on the committed edge list `quartic16.txt` (sample 0 of
`ConfigModelParams(k=4, n=16, seed=7)`), and `random --k 4` samples above
the gonality cap, whose reports run no upper-bound stage.

`bounds` on `irregular9.txt` pins the Cheeger grid columns of an irregular
multigraph, where the transform uses the maximum valence: graph 79 of the
test corpus (`conftest.small_connected_corpus`, a simple Erdos-Renyi
sample) with its edge 0-4 doubled.

A change that alters any of these outputs on purpose regenerates the
fixture with the command in `GOLDEN` or `GOLDEN_STOPPED` (plus
``--format json`` where the command names no format) and says why in
CHANGES.md.
"""

from pathlib import Path

import pytest

from gonlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "bounds_pappus.json": ("bounds", "pappus"),
    "bounds_pappus.tsv": ("bounds", "pappus", "--format", "tsv"),
    "bounds_irregular9.json": ("bounds", str(GOLDEN_DIR / "irregular9.txt")),
    "bounds_quartic16.json": ("bounds", str(GOLDEN_DIR / "quartic16.txt")),
    "bu_pappus_u5_18.json": ("bu", "pappus", "--u", "5/18"),
    "bu_pappus_u9_18.json": ("bu", "pappus", "--u", "9/18"),
    "cheeger_pappus.json": ("cheeger", "pappus"),
    "gonality_cycle80.json": ("gonality", "cycle:80"),
    "pappus_demo.json": ("pappus-demo",),
    "random_k3_n12_s20_seed5.json": ("random", "--k", "3", "--n", "12", "--samples", "20", "--seed", "5"),
    "random_k3_n40_s2_seed42.json": ("random", "--k", "3", "--n", "40", "--samples", "2", "--seed", "42"),
    "random_k4_n16_s4_seed3.json": ("random", "--k", "4", "--n", "16", "--samples", "4", "--seed", "3"),
    "rank_cycle30_at2.json": ("rank", "cycle:30", "0:2", "--at-least", "2"),
    "rank_k4_at2.json": ("rank", "k4", "0:1,1:1,2:1", "--at-least", "2"),
    "rank_path120_at1.json": ("rank", "path:120", "0:1", "--at-least", "1"),
    "reduce_pappus_at9.json": ("reduce", "pappus", "0:-3,5:4,17:2", "--at", "9"),
    "spectral_pappus.json": ("spectral", "pappus"),
    "spectral_pappus.human": ("spectral", "pappus", "--format", "human"),
    "spectral_path2.json": ("spectral", "path:2"),
    "spectral_two_edges.json": ("spectral", str(GOLDEN_DIR / "two_edges.txt")),
}


def _argv(command: tuple[str, ...]) -> list[str]:
    return [*command] if "--format" in command else [*command, "--format", "json"]


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_golden_output(fixture, capsys):
    assert main(_argv(GOLDEN[fixture])) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / fixture).read_text()


# budget-stopped runs exit 2; the incumbent at the stop pins the search order
GOLDEN_STOPPED = {
    "bu_pappus_u9_18_budget500.json": ("bu", "pappus", "--u", "9/18", "--budget", "500"),
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_STOPPED))
def test_golden_output_of_a_budget_stop(fixture, capsys):
    assert main(_argv(GOLDEN_STOPPED[fixture])) == 2
    assert capsys.readouterr().out == (GOLDEN_DIR / fixture).read_text()
