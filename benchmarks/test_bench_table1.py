"""Bench E1: regenerate Table I rows (reduced parameters).

Each benchmark function runs the full TetrisLock pipeline — compile
and simulate original, obfuscated and restored circuits on the noisy
Valencia-style backend — for one RevLib circuit and asserts the
paper's structural claims for that row:

* depth is unchanged by obfuscation (0% depth overhead);
* 1–4 random gates inserted (the paper's reported range);
* restored accuracy within a few points of the original.

Full-scale numbers (20 iterations x 1000 shots) are produced by
``repro experiment run table1``; the benches use 1 iteration at
reduced shots so the suite stays fast.  EXPERIMENTS.md records the
full-scale outputs.
"""

import pytest

from repro.core import TetrisLockPipeline
from repro.revlib import TABLE1_PAPER_VALUES, load_benchmark

# shots tuned by circuit width so the bench suite completes quickly
_SHOTS = {
    "mini_alu": 500,
    "4mod5": 500,
    "one_bit_adder": 500,
    "4gt11": 500,
    "4gt13": 500,
    "rd53": 300,
    "rd73": 150,
    "rd84": 100,
}


def _run_row(name: str):
    record = load_benchmark(name)
    pipeline = TetrisLockPipeline(shots=_SHOTS[name], seed=2025)
    return pipeline.evaluate(
        record.circuit(), name=name, output_qubits=record.output_qubits
    )


@pytest.mark.parametrize("name", list(_SHOTS))
def test_bench_table1_row(benchmark, name):
    result = benchmark.pedantic(
        _run_row, args=(name,), rounds=1, iterations=1
    )
    paper = TABLE1_PAPER_VALUES[name]

    # structural columns must match the paper exactly
    assert result.depth_original == paper["depth"]
    assert result.gates_original == paper["gates"]
    assert result.depth_preserved, "depth overhead must be 0%"
    assert 1 <= result.inserted_gates <= 4

    # accuracy shape: restoration tracks the unprotected baseline.
    # Absolute floors depend on the noise calibration (our compiled
    # circuits are deeper than the paper's, see EXPERIMENTS.md), so the
    # asserted claim is the paper's comparative one: restored accuracy
    # within a few points of the original.
    assert result.accuracy_restored > 0.05
    assert result.accuracy_change < 0.2
    if result.gates_original <= 10:
        assert result.accuracy_restored > 0.4
    # obfuscation corrupts the visible circuit at least down to the
    # noise floor (an inserted CX whose control is idle can be a no-op
    # on the all-zeros input, so single iterations may tie)
    assert result.tvd_obfuscated > result.tvd_restored - 0.1
