"""The benchmark's span tracer patches named functions in gonlab's modules
(perfbench/tracing.py, `BOUNDARIES`) and refuses to start when one of them
is gone.  Constructing a tracer resolves every boundary without patching
any, so this catches a renamed or deleted boundary in the ordinary suite."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_boundary_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracing.Tracer()  # raises AttributeError on a boundary that src/ no longer has
