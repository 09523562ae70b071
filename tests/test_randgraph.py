import pytest

from gonlab.budget import SearchBudget
from gonlab.graph import named_graph
from gonlab.randgraph import (
    ConfigModelParams,
    ExperimentCaps,
    run_experiment,
    sample_configuration,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ConfigModelParams(k=1, n=4, seed=0)
    with pytest.raises(ValueError):
        ConfigModelParams(k=3, n=5, seed=0)  # odd k*n
    with pytest.raises(ValueError):
        ConfigModelParams(k=3, n=4, seed=0, mode="exotic")


def test_samples_are_regular_and_loop_free():
    for k, n in ((2, 8), (3, 10), (4, 9)):
        params = ConfigModelParams(k=k, n=n, seed=5)
        for i in range(10):
            g = sample_configuration(params, i)
            assert g.regularity() == k
            assert g.n == n  # loop-free is structural: Multigraph forbids loops


def test_simple_mode_has_no_parallel_edges():
    params = ConfigModelParams(k=3, n=8, seed=11, mode="simple")
    for i in range(10):
        g = sample_configuration(params, i)
        assert all(mult == 1 for _, _, mult in g.edges)


def test_k3_n4_simple_is_k4():
    params = ConfigModelParams(k=3, n=4, seed=0, mode="simple")
    k4 = named_graph("k4")
    for i in range(5):
        assert sample_configuration(params, i) == k4


def test_k2_n5_simple_is_five_cycle():
    params = ConfigModelParams(k=2, n=5, seed=0, mode="simple")
    c5 = named_graph("cycle:5")
    for i in range(5):
        g = sample_configuration(params, i)
        # 2-regular simple connected on 5 vertices is the 5-cycle up to labels
        assert g.regularity() == 2
        assert g.is_connected()
        assert g.m == c5.m


def test_fixed_seed_reproducible():
    params = ConfigModelParams(k=3, n=100, seed=42)
    a = sample_configuration(params, 7)
    b = sample_configuration(params, 7)
    assert a == b
    assert a.canonical_hash() == b.canonical_hash()


def test_sample_hash_golden():
    # determinism golden: value frozen from the first certified run of this
    # generator (PCG64 + numpy shuffle, derived seed = seed xor splitmix64(i))
    params = ConfigModelParams(k=3, n=100, seed=42)
    assert sample_configuration(params, 0).canonical_hash() == "b61734b7251c9f60"


def test_distinct_samples_differ():
    params = ConfigModelParams(k=3, n=50, seed=1)
    hashes = {sample_configuration(params, i).canonical_hash() for i in range(8)}
    assert len(hashes) > 1


def test_run_experiment_empty():
    records, summary = run_experiment(ConfigModelParams(k=3, n=10, seed=3), 0)
    assert records == []
    assert summary.samples == 0
    assert summary.lambda2_mean is None


def test_run_experiment_records_and_sandwich():
    params = ConfigModelParams(k=3, n=8, seed=9)
    caps = ExperimentCaps(gonality_cap=10, cheeger_cap=12, separator_cap=12)
    records, summary = run_experiment(params, 12, caps)
    assert len(records) == 12
    assert summary.sandwich_violations == 0
    for r in records:
        assert r.index < 12
        assert r.n == 8 and r.m == 12
        if r.connected:
            assert r.lambda2 is not None and r.lambda2 > 0
            assert r.gonality is not None
            assert r.sandwich_ok
            assert r.lower <= r.gonality <= r.upper


def test_run_experiment_thread_invariance():
    params = ConfigModelParams(k=3, n=8, seed=13)
    caps = ExperimentCaps(gonality_cap=8, cheeger_cap=10, separator_cap=10)
    serial_records, serial_summary = run_experiment(params, 6, caps, threads=1)
    parallel_records, parallel_summary = run_experiment(params, 6, caps, threads=3)
    assert serial_records == parallel_records
    assert serial_summary == parallel_summary


def test_disconnected_samples_skipped_not_fatal():
    # k=2, small n: disconnected two-cycle unions are common
    params = ConfigModelParams(k=2, n=8, seed=21)
    records, summary = run_experiment(params, 20, ExperimentCaps(gonality_cap=8))
    disconnected = [r for r in records if not r.connected]
    for r in disconnected:
        assert r.lambda2 is None
        assert r.gonality is None
    assert summary.connected_samples == 20 - len(disconnected)


def test_cheeger_budget_does_not_abort_experiment():
    params = ConfigModelParams(k=3, n=18, seed=4)
    records, summary = run_experiment(params, 3, budget=SearchBudget(max_nodes=50))
    assert summary.samples == 3
    for r in records:
        if r.connected:
            assert r.lambda2 is not None
            assert r.h is None and r.cheeger_bound is None and r.separator_bound is None
