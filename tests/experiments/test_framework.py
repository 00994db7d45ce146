"""Unified experiment framework: registry, store, resume, sharding."""

import json

import numpy as np
import pytest

from repro.experiments.framework import (
    Cell,
    ExperimentSpec,
    ResultStore,
    config_hash,
    get_spec,
    list_specs,
    parse_shard,
    register,
    run_experiment,
    unregister,
)

BUILTIN_SPECS = {
    "table1",
    "figure4",
    "sweep_gate_limit",
    "ablation_insertion",
    "attack_complexity",
}


# ---------------------------------------------------------------------------
# a tiny deterministic spec for fast framework-behaviour tests
# ---------------------------------------------------------------------------

def _toy_cells(config):
    return [
        Cell(f"x{i}", {"i": i}) for i in range(int(config["n"]))
    ]


def _toy_task(config, cell, seed):
    if config.get("bomb_file"):
        import os

        if os.path.exists(config["bomb_file"]) and cell.params["i"] >= 3:
            raise RuntimeError("simulated crash")
    draw = int(np.random.default_rng(seed).integers(0, 1_000_000))
    return {"i": cell.params["i"], "draw": draw,
            "scaled": cell.params["i"] * int(config["factor"])}


def _toy_aggregate(config, results):
    cells = _toy_cells(config)
    return [results[cell.id] for cell in cells]


@pytest.fixture()
def toy_spec():
    spec = register(
        ExperimentSpec(
            name="_toy",
            description="framework test spec",
            defaults={"n": 6, "factor": 2, "seed": 0, "bomb_file": None},
            make_cells=_toy_cells,
            task=_toy_task,
            aggregate=_toy_aggregate,
            render=lambda rows: json.dumps(rows),
        )
    )
    yield spec
    unregister("_toy")


class TestRegistry:
    def test_builtin_specs_registered(self):
        names = {spec.name for spec in list_specs()}
        assert BUILTIN_SPECS <= names

    def test_get_spec_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("no_such_experiment")

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_spec("table1").config({"iterationz": 3})

    def test_config_merges_defaults(self):
        config = get_spec("table1").config({"iterations": 3})
        assert config["iterations"] == 3
        assert config["shots"] == 1000


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = {"iterations": 2, "shots": 100, "seed": 1}
        b = {"seed": 1, "iterations": 2, "shots": 100}
        assert config_hash(a) == config_hash(b)

    def test_changes_with_values(self):
        base = {"iterations": 2, "shots": 100}
        assert config_hash(base) != config_hash(
            {"iterations": 3, "shots": 100}
        )

    def test_tuple_and_list_spellings_agree(self):
        assert config_hash({"grid": (1, 2)}) == config_hash({"grid": [1, 2]})

    def test_execution_knobs_share_a_run_file(self, toy_spec, tmp_path):
        """jobs/shard never enter the checkpoint identity."""
        store = ResultStore(tmp_path)
        one = run_experiment("_toy", store=store)
        two = run_experiment(
            "_toy", jobs=2, shard=(0, 1), resume=True, store=store,
        )
        assert one.config_hash == two.config_hash
        assert two.reused == one.total_cells and two.computed == 0


class TestResume:
    def test_fresh_then_resume_recomputes_nothing(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        fresh = run_experiment("_toy", store=store)
        assert fresh.computed == 6 and fresh.reused == 0 and fresh.complete
        resumed = run_experiment("_toy", resume=True, store=store)
        assert resumed.computed == 0 and resumed.reused == 6
        assert resumed.result == fresh.result

    def test_killed_run_resumes_where_it_stopped(self, toy_spec, tmp_path):
        """Crash mid-run; rerun resumes with zero recomputation."""
        store = ResultStore(tmp_path)
        bomb = tmp_path / "bomb"
        bomb.touch()
        config = {"bomb_file": str(bomb)}
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_experiment("_toy", config, store=store)
        checkpointed = store.load("_toy", config_hash(toy_spec.config(config)))
        assert set(checkpointed) == {"x0", "x1", "x2"}

        bomb.unlink()  # "fix" the crash, rerun with --resume
        resumed = run_experiment("_toy", config, resume=True, store=store)
        assert resumed.reused == 3 and resumed.computed == 3
        fresh = run_experiment("_toy", config)
        assert resumed.result == fresh.result

    def test_non_resume_run_starts_fresh(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment("_toy", store=store)
        again = run_experiment("_toy", store=store)
        assert again.reused == 0 and again.computed == 6

    def test_torn_final_line_is_skipped(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        report = run_experiment("_toy", store=store)
        path = store.run_path("_toy", report.config_hash)
        path.write_text(path.read_text()[:-25])  # torn mid-record write
        resumed = run_experiment("_toy", resume=True, store=store)
        assert resumed.reused == 5 and resumed.computed == 1
        assert resumed.result == report.result

    def test_stale_cells_of_other_grids_ignored(self, toy_spec, tmp_path):
        """Cells outside the current grid never leak into aggregates."""
        store = ResultStore(tmp_path)
        report = run_experiment("_toy", store=store)
        store.append("_toy", report.config_hash, "x999", {"i": 999})
        resumed = run_experiment("_toy", resume=True, store=store)
        assert resumed.result == report.result


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard(None) is None
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("2/2", "-1/2", "0/0", "x/y", "3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shard_union_equals_full_grid(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        partials = [
            run_experiment("_toy", shard=(i, 3), store=store)
            for i in range(3)
        ]
        assert [p.computed for p in partials] == [2, 2, 2]
        assert partials[-1].complete
        full = run_experiment("_toy")
        assert partials[-1].result == full.result

    def test_rerunning_a_shard_reuses_its_cells(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment("_toy", shard=(0, 2), store=store)
        again = run_experiment("_toy", shard=(0, 2), store=store)
        assert again.computed == 0 and again.reused == 3


class TestStore:
    def test_header_and_listing(self, toy_spec, tmp_path):
        store = ResultStore(tmp_path)
        report = run_experiment("_toy", store=store)
        header = store.load_header("_toy", report.config_hash)
        assert header["spec"] == "_toy"
        assert header["config"]["n"] == 6
        runs = list(store.runs())
        assert runs == [("_toy", report.config_hash,
                         store.run_path("_toy", report.config_hash))]

    def test_duplicate_cells_last_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.begin("s", "h", {})
        store.append("s", "h", "a", 1)
        store.append("s", "h", "a", 2)
        assert store.load("s", "h") == {"a": 2}

    def test_load_missing_run(self, tmp_path):
        assert ResultStore(tmp_path).load("s", "h") == {}


class TestInvalidArguments:
    def test_jobs_must_be_positive(self, toy_spec):
        with pytest.raises(ValueError):
            run_experiment("_toy", jobs=0)

    def test_duplicate_cell_ids_rejected(self):
        spec = register(
            ExperimentSpec(
                name="_dup",
                description="duplicate cells",
                defaults={},
                make_cells=lambda config: [Cell("a"), Cell("a")],
                task=lambda config, cell, seed: 0,
                aggregate=lambda config, results: results,
                render=str,
            )
        )
        try:
            with pytest.raises(ValueError, match="duplicate cell ids"):
                run_experiment("_dup")
        finally:
            unregister("_dup")


class TestRealSpecsRoundTrip:
    """encode/decode round-trips are exact for the built-in specs."""

    def test_table1_cell_round_trip(self):
        spec = get_spec("table1")
        config = spec.config({"iterations": 1, "shots": 100,
                              "seed": 5, "benchmarks": ["4gt13"]})
        cells = spec.make_cells(config)
        assert [cell.id for cell in cells] == ["4gt13/0"]
        seed = np.random.SeedSequence(5).spawn(1)[0]
        result = spec.task(config, cells[0], seed)
        decoded = spec.decode(json.loads(json.dumps(spec.encode(result))))
        assert decoded.counts_original == result.counts_original
        assert decoded.counts_obfuscated == result.counts_obfuscated
        assert decoded.counts_restored == result.counts_restored
        assert decoded.counts_original.shots == result.counts_original.shots
        assert decoded.expected_bitstring == result.expected_bitstring
        assert decoded.split_qubits == result.split_qubits
        assert decoded.accuracy_original == result.accuracy_original
        assert decoded.tvd_obfuscated == result.tvd_obfuscated

    def test_table1_resume_aggregates_bit_identical(self, tmp_path):
        """Interrupt-free framework guarantee on a real (tiny) grid."""
        config = {"iterations": 2, "shots": 100, "seed": 21,
                  "benchmarks": ["4gt13"]}
        store = ResultStore(tmp_path)
        # shard 0/2 plays the role of the interrupted half-finished run
        partial = run_experiment("table1", config, shard=(0, 2), store=store)
        assert not partial.complete
        resumed = run_experiment("table1", config, resume=True, store=store)
        assert resumed.reused == partial.computed
        fresh = run_experiment("table1", config)
        key = "4gt13"
        resumed_iters = resumed.result[key].iterations
        fresh_iters = fresh.result[key].iterations
        assert [it.counts_restored for it in resumed_iters] == [
            it.counts_restored for it in fresh_iters
        ]
        assert resumed.result[key].accuracy == fresh.result[key].accuracy
        assert (
            resumed.result[key].tvd_obfuscated_values
            == fresh.result[key].tvd_obfuscated_values
        )

    def test_sweep_cell_round_trip(self):
        spec = get_spec("sweep_gate_limit")
        config = spec.config({"benchmarks": ["4gt13"], "gate_limits": [2],
                              "iterations": 2, "shots": 64, "seed": 3})
        cells = spec.make_cells(config)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        point = spec.task(config, cells[0], seed)
        decoded = spec.decode(json.loads(json.dumps(spec.encode(point))))
        assert decoded == point  # float repr round-trip is exact


class TestSharedStore:
    """figure4 is a view over table1's grid: one checkpoint, two specs."""

    CONFIG = {"iterations": 1, "shots": 64, "seed": 9,
              "benchmarks": ["4gt13"]}

    def test_figure4_reuses_table1_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path)
        table = run_experiment("table1", self.CONFIG, store=store)
        assert table.computed == 1
        figure = run_experiment("figure4", self.CONFIG, store=store)
        assert figure.computed == 0 and figure.reused == 1
        assert figure.store_path == table.store_path
        assert figure.result["4gt13"]["obfuscated"].values == (
            table.result["4gt13"].tvd_obfuscated_values
        )

    def test_figure4_run_feeds_table1(self, tmp_path):
        store = ResultStore(tmp_path)
        figure = run_experiment("figure4", self.CONFIG, store=store)
        assert figure.computed == 1
        table = run_experiment(
            "table1", self.CONFIG, resume=True, store=store
        )
        assert table.computed == 0 and table.reused == 1


class TestBenchmarkValidation:
    def test_unknown_benchmark_rejected(self):
        for spec_name in ("table1", "figure4", "sweep_gate_limit",
                          "ablation_insertion"):
            spec = get_spec(spec_name)
            with pytest.raises(ValueError, match="unknown benchmark"):
                spec.make_cells(spec.config({"benchmarks": ["nope"]}))

    @pytest.mark.parametrize(
        "spec_name",
        ["table1", "figure4", "sweep_gate_limit", "ablation_insertion"],
    )
    def test_non_positive_iterations_rejected(self, spec_name):
        spec = get_spec(spec_name)
        for iterations in (0, -1):
            with pytest.raises(ValueError, match="iterations"):
                spec.config({"iterations": iterations})


class TestKnobUniformity:
    """jobs exists on every harness and never changes a result."""

    def test_sweep_jobs_bit_identical(self):
        from repro.experiments import run_gate_limit_sweep

        kwargs = dict(benchmarks=["4gt13"], gate_limits=(0, 2),
                      iterations=2, shots=64, seed=7)
        assert run_gate_limit_sweep(**kwargs) == run_gate_limit_sweep(
            **kwargs, jobs=2
        )

    def test_ablation_jobs_bit_identical(self):
        from repro.experiments import run_ablation

        kwargs = dict(iterations=2, seed=5, benchmarks=["4gt13", "4mod5"])
        assert run_ablation(**kwargs) == run_ablation(**kwargs, jobs=2)
