"""Bench E7: insertion-strategy ablation (empty-slot vs block insert).

Quantifies the design choice DESIGN.md calls out: TetrisLock's
empty-slot pair insertion has *zero* depth overhead on every RevLib
benchmark, while the random-block insertion baseline (Das & Ghosh)
always pays depth.  Full table: ``repro experiment run ablation_insertion``.
"""

from repro.experiments import run_ablation


def test_bench_ablation_insertion(benchmark):
    rows = benchmark.pedantic(
        run_ablation,
        kwargs={"iterations": 3, "seed": 11, "num_random_gates": 4},
        rounds=1,
        iterations=1,
    )
    tetris = [r for r in rows if r.scheme == "tetrislock"]
    block = [r for r in rows if r.scheme.startswith("das")]
    assert all(r.depth_overhead == 0.0 for r in tetris)
    mean_block_depth = sum(r.depth_overhead for r in block) / len(block)
    assert mean_block_depth > 1.0
    # both schemes insert a comparable number of gates; the difference
    # is purely where they go
    assert all(0 < r.gate_overhead <= 4 for r in tetris)
    assert all(r.gate_overhead == 4 for r in block)
