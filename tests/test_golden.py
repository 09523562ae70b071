"""Byte-for-byte CLI output against fixtures captured before the bound
pipeline was merged into `full_report`.

A change that alters any of these outputs on purpose regenerates the
fixture with the command in `GOLDEN` (plus ``--format json``) and says why
in CHANGES.md.
"""

from pathlib import Path

import pytest

from gonlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "bounds_pappus.json": ("bounds", "pappus"),
    "pappus_demo.json": ("pappus-demo",),
    "random_k3_n12_s20_seed5.json": ("random", "--k", "3", "--n", "12", "--samples", "20", "--seed", "5"),
    "random_k3_n40_s2_seed42.json": ("random", "--k", "3", "--n", "40", "--samples", "2", "--seed", "42"),
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_golden_output(fixture, capsys, monkeypatch):
    for var in ("GONLAB_BUDGET_CANDIDATES", "GONLAB_BUDGET_NODES", "GONLAB_BUDGET_SECONDS", "GONLAB_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert main([*GOLDEN[fixture], "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / fixture).read_text()
