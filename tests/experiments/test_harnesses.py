"""Smoke + shape tests for the experiment harnesses (tiny parameters)."""

import pytest

from repro.experiments import (
    demo_bruteforce_attack,
    generate_complexity_table,
    generate_figure4,
    generate_table1,
    render_ablation,
    render_complexity_table,
    render_figure4,
    render_table1,
    run_ablation,
)


@pytest.fixture(scope="module")
def small_results():
    return generate_table1(
        iterations=2,
        shots=200,
        seed=77,
        benchmarks=["4gt13", "one_bit_adder"],
    )


class TestTable1:
    def test_rows_present(self, small_results):
        assert set(small_results) == {"4gt13", "one_bit_adder"}

    def test_depth_preserved_everywhere(self, small_results):
        for aggregate in small_results.values():
            assert aggregate.depth_always_preserved
            assert aggregate.depth == aggregate.depth_obfuscated

    def test_gate_increase_in_paper_band(self, small_results):
        """1-4 inserted gates -> bounded relative increase."""
        for aggregate in small_results.values():
            assert 0 < aggregate.gates_obfuscated - aggregate.gates <= 4

    def test_accuracy_sane(self, small_results):
        for aggregate in small_results.values():
            assert 0.5 < aggregate.accuracy <= 1.0
            assert aggregate.accuracy_change_pct < 20.0

    def test_render(self, small_results):
        text = render_table1(small_results)
        assert "4gt13" in text
        assert "(paper)" in text
        assert "Gate+%" in text


class TestFigure4:
    def test_series_shapes(self, small_results):
        figure = generate_figure4(results=small_results)
        for name, series in figure.items():
            obf = series["obfuscated"]
            restored = series["restored"]
            assert len(obf.values) == 2
            # the paper's headline shape: obfuscated >> restored
            assert obf.median > restored.median
            assert 0.0 <= restored.median < 0.5

    def test_render(self, small_results):
        figure = generate_figure4(results=small_results)
        text = render_figure4(figure)
        assert "obfuscated" in text and "restored" in text
        assert "med=" in text

    def test_ascii_box_bounds(self, small_results):
        figure = generate_figure4(results=small_results)
        box = figure["4gt13"]["obfuscated"].ascii_box(20)
        assert len(box) == 20
        assert "#" in box


class TestAttackComplexityHarness:
    def test_table_rows(self):
        rows = generate_complexity_table(
            qubit_counts=(4, 5), nmax_values=(5, 27), k=2
        )
        assert len(rows) == 4
        for row in rows:
            assert row.tetrislock > row.saki
            assert row.ratio > 1.0

    def test_render(self):
        rows = generate_complexity_table(qubit_counts=(4,), nmax_values=(5,))
        assert "Saki" in render_complexity_table(rows)

    def test_bruteforce_demo_succeeds(self):
        demo = demo_bruteforce_attack("4gt13", seed=3)
        assert demo.success
        # pinned payload of the spec's demo cell: 4! matchings, two of
        # which recover the function
        assert (demo.candidates, demo.matches) == (24, 2)


class TestAblationHarness:
    def test_rows_and_shape(self):
        rows = run_ablation(iterations=2, seed=1)
        schemes = {row.scheme for row in rows}
        assert schemes == {"tetrislock", "das-front", "das-middle"}
        tetris = [r for r in rows if r.scheme == "tetrislock"]
        das = [r for r in rows if r.scheme != "tetrislock"]
        # headline ablation shape: TetrisLock never grows depth,
        # block insertion almost always does
        assert all(r.depth_overhead == 0.0 for r in tetris)
        assert sum(r.depth_overhead for r in das) > 0
        assert all(not r.needs_trusted_compiler for r in tetris)
        assert all(r.needs_trusted_compiler for r in das)

    def test_render(self):
        rows = run_ablation(iterations=1, seed=2)
        text = render_ablation(rows)
        assert "tetrislock" in text
