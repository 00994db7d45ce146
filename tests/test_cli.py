"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.circuits import from_qasm
from repro.cli import main
from repro.revlib import benchmark_circuit, write_real
from repro.synth import simulate_reversible


@pytest.fixture()
def real_file(tmp_path):
    path = tmp_path / "4gt13.real"
    path.write_text(write_real(benchmark_circuit("4gt13")))
    return path


class TestProtectRestore:
    def test_roundtrip(self, tmp_path, real_file, capsys):
        prefix = tmp_path / "prot"
        code = main(
            ["protect", str(real_file), "-o", str(prefix), "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "random pair" in out

        metadata = json.loads(
            (tmp_path / "prot.tetrislock.json").read_text()
        )
        assert metadata["num_qubits"] == 4
        assert Path(metadata["segment1"]["path"]).exists()
        assert Path(metadata["segment2"]["path"]).exists()
        # depth preserved end to end
        assert metadata["depth_obfuscated"] == metadata["depth_original"]

        restored_path = tmp_path / "restored.qasm"
        code = main(
            [
                "restore",
                str(tmp_path / "prot.tetrislock.json"),
                "-o",
                str(restored_path),
            ]
        )
        assert code == 0
        restored = from_qasm(restored_path.read_text())
        assert simulate_reversible(restored) == simulate_reversible(
            benchmark_circuit("4gt13")
        )

    def test_protect_qasm_input(self, tmp_path, capsys):
        from repro.circuits import to_qasm

        qasm_path = tmp_path / "circ.qasm"
        qasm_path.write_text(to_qasm(benchmark_circuit("4mod5")))
        code = main(
            ["protect", str(qasm_path), "-o", str(tmp_path / "p"),
             "--seed", "1"]
        )
        assert code == 0

    def test_segments_hide_function(self, tmp_path, real_file):
        main(["protect", str(real_file), "-o", str(tmp_path / "p"),
              "--seed", "5"])
        metadata = json.loads(
            (tmp_path / "p.tetrislock.json").read_text()
        )
        if metadata["inserted_pairs"] == 0:
            pytest.skip("no pairs inserted for this seed")
        seg2 = from_qasm(Path(metadata["segment2"]["path"]).read_text())
        # segment 2 alone is not the tail of the original circuit: it
        # contains uncancelled R gates
        assert seg2.size() > 0


class TestInspect:
    def test_inspect_output(self, real_file, capsys):
        code = main(["inspect", str(real_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "qubits: 4" in out
        assert "depth: 4" in out
        assert "empty slots" in out


class TestTranspileCommand:
    def test_reports_pass_timings_and_cache(self, real_file, capsys):
        from repro.transpiler import get_transpile_cache

        get_transpile_cache().clear()
        code = main(["transpile", str(real_file), "--level", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass timings" in out
        assert "TranslateToBasis" in out
        assert "FuseSingleQubitRuns" in out
        assert "transpile cache" in out

    def test_second_run_hits_cache(self, real_file, capsys):
        from repro.transpiler import get_transpile_cache

        get_transpile_cache().clear()
        main(["transpile", str(real_file)])
        code = main(["transpile", str(real_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "from cache" in out
        assert "1 hit(s)" in out

    def test_line_coupling_and_trivial_layout(self, real_file, capsys):
        code = main(
            ["transpile", str(real_file), "--coupling", "line",
             "--layout", "trivial", "--size", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swaps:" in out

    def test_too_small_device_fails_cleanly(self, real_file, capsys):
        code = main(
            ["transpile", str(real_file), "--coupling", "line",
             "--size", "2"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestAttackCommand:
    def test_mismatched_attack_succeeds(self, capsys):
        code = main(["attack", "--benchmark", "4gt13",
                     "--adversary", "mismatched", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adversary: mismatched" in out
        assert "attack succeeds" in out

    def test_same_width_attack_with_jobs(self, capsys):
        code = main(["attack", "--benchmark", "4gt13",
                     "--adversary", "same-width", "--seed", "1",
                     "--jobs", "2", "--chunk-size", "5",
                     "--no-prefilter"])
        assert code == 0
        out = capsys.readouterr().out
        assert "24 tried, 0 pruned of 24 candidates" in out
        assert "attack succeeds" in out

    def test_auto_adversary_and_early_exit(self, capsys):
        code = main(["attack", "--benchmark", "4mod5", "--seed", "3",
                     "--early-exit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "early exit" in out

    def test_list_adversaries(self, capsys):
        code = main(["attack", "--list-adversaries"])
        assert code == 0
        out = capsys.readouterr().out
        assert "same-width" in out and "mismatched" in out

    def test_over_cap_fails_cleanly(self, capsys):
        code = main(["attack", "--benchmark", "rd73",
                     "--adversary", "same-width",
                     "--max-candidates", "100"])
        assert code == 2
        assert "exceed the cap" in capsys.readouterr().err

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        code = main(["attack", "--benchmark", "nosuchbench"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_circuit_file_fails_cleanly(self, capsys):
        code = main(["attack", "--circuit", "/nope/missing.qasm"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "missing.qasm" in err

    def test_circuit_file_input(self, tmp_path, capsys):
        from repro.circuits import to_qasm
        from repro.revlib import benchmark_circuit

        path = tmp_path / "bench.qasm"
        path.write_text(to_qasm(benchmark_circuit("4gt13")))
        code = main(["attack", "--circuit", str(path), "--seed", "0"])
        assert code == 0
        assert "verdict" in capsys.readouterr().out


class TestExperimentCommand:
    def test_list(self, capsys):
        code = main(["experiment", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("table1", "figure4", "sweep_gate_limit",
                     "ablation_insertion", "attack_complexity"):
            assert name in out
        assert "parameters:" in out

    def test_run_checkpoints_and_reports(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        args = ["experiment", "run", "attack_complexity",
                "--set", "qubit_counts=[4,5]", "--set", "nmax_values=[5]",
                "--store", store, "--quiet"]
        code = main(args)
        assert code == 0
        out = capsys.readouterr().out
        assert "3 cell(s), 0 reused, 3 computed" in out
        assert "Saki" in out and "Brute-force" in out

        # resume: everything comes from the checkpoint
        code = main(["experiment", "resume", "attack_complexity",
                     "--set", "qubit_counts=[4,5]", "--set",
                     "nmax_values=[5]", "--store", store, "--quiet"])
        assert code == 0
        assert "3 reused, 0 computed" in capsys.readouterr().out

        # report renders from the store without recomputing
        code = main(["experiment", "report", "attack_complexity",
                     "--set", "qubit_counts=[4,5]", "--set",
                     "nmax_values=[5]", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "Saki" in out and "Brute-force" in out

    def test_sharded_run_then_report(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        base = ["--set", "qubit_counts=[4]", "--set", "nmax_values=[5,27]",
                "--store", store, "--quiet"]
        code = main(["experiment", "run", "attack_complexity",
                     "--shard", "0/2"] + base)
        assert code == 0
        assert "shard incomplete" in capsys.readouterr().out
        code = main(["experiment", "report", "attack_complexity"] + base[:-1])
        assert code == 1  # incomplete -> non-zero, resume hint on stderr
        assert "missing" in capsys.readouterr().err
        code = main(["experiment", "run", "attack_complexity",
                     "--shard", "1/2"] + base)
        assert code == 0
        assert "Brute-force" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        code = main(["experiment", "run", "nope"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_parameter_fails_cleanly(self, capsys):
        code = main(["experiment", "run", "attack_complexity",
                     "--iterations", "3"])
        assert code == 2
        assert "no 'iterations' parameter" in capsys.readouterr().err


class TestCleanErrors:
    """CLI commands report bad input as exit-2, no traceback."""

    def test_protect_missing_file(self, capsys):
        assert main(["protect", "/no/such/file.qasm"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_protect_bad_qasm(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("this is not qasm")
        assert main(["protect", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/no/such/file.real"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_bad_qasm(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg nonsense")
        assert main(["inspect", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_restore_missing_metadata(self, capsys):
        assert main(["restore", "/no/such/meta.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_restore_bad_json(self, tmp_path, capsys):
        meta = tmp_path / "m.json"
        meta.write_text("{broken")
        assert main(["restore", str(meta)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_restore_missing_key(self, tmp_path, capsys):
        meta = tmp_path / "m.json"
        meta.write_text('{"num_qubits": 4}')
        assert main(["restore", str(meta)]) == 2
        assert "missing key" in capsys.readouterr().err

    def test_restore_missing_segment_file(self, tmp_path, capsys):
        meta = tmp_path / "m.json"
        meta.write_text(json.dumps({
            "num_qubits": 4,
            "segment1": {"path": str(tmp_path / "gone.qasm"),
                         "active_qubits": [0, 1]},
            "segment2": {"path": str(tmp_path / "gone2.qasm"),
                         "active_qubits": [2, 3]},
        }))
        assert main(["restore", str(meta)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "transpile"])
    @pytest.mark.parametrize("problem", ["missing", "malformed"])
    def test_bad_input_file(self, tmp_path, capsys, command, problem):
        path = tmp_path / "in.qasm"
        if problem == "malformed":
            path.write_text(
                'OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; foo q[0];'
            )
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_simulate_density_mid_circuit(self, tmp_path, capsys):
        # a gate after a measurement: the density engine cannot sample
        # it, only the trajectory engine can
        qasm = tmp_path / "mid.qasm"
        qasm.write_text(
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; creg c[2]; '
            "h q[0]; measure q[0] -> c[0]; x q[0]; measure q[0] -> c[1];"
        )
        args = ["simulate", str(qasm), "--shots", "50", "--seed", "1"]
        assert main(args + ["--method", "density"]) == 2
        assert "terminal measurements" in capsys.readouterr().err
        assert main(args + ["--method", "trajectory"]) == 0
        assert "engine: trajectory" in capsys.readouterr().out


# `repro submit` argument lists (the circuit path is CIRCUIT) and the
# request each one must build: every field, defaults included
SUBMIT_CASES = [
    (["simulate", "CIRCUIT"],
     {"qasm": "QASM", "shots": 1000, "seed": None, "noisy": False,
      "method": "auto"}),
    (["simulate", "CIRCUIT", "--shots", "200", "--seed", "7", "--noisy",
      "--method", "trajectory"],
     {"qasm": "QASM", "shots": 200, "seed": 7, "noisy": True,
      "method": "trajectory"}),
    (["protect", "CIRCUIT", "--gate-pool", "x", "--seed", "5"],
     {"qasm": "QASM", "gate_limit": 4, "gate_pool": "x", "seed": 5}),
    (["transpile", "CIRCUIT", "--coupling", "line", "--size", "6"],
     {"qasm": "QASM", "coupling": "line", "size": 6, "layout": "greedy",
      "level": 1}),
    (["evaluate", "--iterations", "2", "--seed", "13"],
     {"benchmark": "4gt13", "qasm": None, "shots": 1000, "gate_limit": 4,
      "iterations": 2, "seed": 13}),
    (["evaluate", "--circuit", "CIRCUIT", "--gate-limit", "2"],
     {"benchmark": None, "qasm": "QASM", "shots": 1000, "gate_limit": 2,
      "iterations": 1, "seed": None}),
    (["attack"],
     {"benchmark": "4gt13", "qasm": None, "adversary": "auto", "seed": 0,
      "gate_limit": 4, "max_candidates": 500_000, "prefilter": True,
      "early_exit": False}),
    (["attack", "--circuit", "CIRCUIT", "--adversary", "mismatched",
      "--max-candidates", "1000", "--no-prefilter", "--early-exit"],
     {"benchmark": None, "qasm": "QASM", "adversary": "mismatched",
      "seed": 0, "gate_limit": 4, "max_candidates": 1000,
      "prefilter": False, "early_exit": True}),
]


@pytest.mark.parametrize(
    "argv,expected", SUBMIT_CASES, ids=[" ".join(c[0]) for c in SUBMIT_CASES]
)
def test_submit_builds_each_request_kind(argv, expected, real_file,
                                         monkeypatch, capsys):
    """Options left out of `repro submit` take the request's own
    defaults, and every option lands on its field."""
    from repro.circuits import to_qasm
    from repro.revlib import parse_real
    from repro.service import client as client_module
    from repro.service.requests import request_from_wire

    submitted = []

    class RecordingClient:
        def __init__(self, url, timeout=None):
            pass

        def submit(self, kind, params, priority=0):
            submitted.append((kind, params))
            return "j000001"

        def wait_for(self, job_id, timeout=None):
            return {"id": job_id, "state": "done"}

    monkeypatch.setattr(client_module, "HTTPServiceClient", RecordingClient)
    argv = [str(real_file) if arg == "CIRCUIT" else arg for arg in argv]
    assert main(["submit", *argv]) == 0
    capsys.readouterr()
    (kind, params), = submitted
    assert kind == argv[0]
    qasm = to_qasm(parse_real(real_file.read_text(), name="4gt13"))
    expected = {k: qasm if v == "QASM" else v for k, v in expected.items()}
    assert request_from_wire(kind, params).params() == expected


class TestServeSubmitCLI:
    """`repro submit` against an in-process service HTTP endpoint."""

    @pytest.fixture()
    def server_url(self):
        import threading

        from repro.service import JobService
        from repro.service.http import make_server

        service = JobService(workers=2).start()
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{httpd.server_address[1]}"
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
            service.shutdown(drain=False)

    def test_submit_simulate_and_cache_hit(
        self, server_url, real_file, capsys
    ):
        args = ["submit", "--url", server_url, "simulate", str(real_file),
                "--seed", "7", "--shots", "200"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["state"] == "done"
        assert first["cached"] is False
        assert sum(first["result"]["counts"]["counts"].values()) == 200
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_submit_protect_and_status(self, server_url, real_file, capsys):
        assert main(["submit", "--url", server_url, "protect",
                     str(real_file), "--seed", "5"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] == "done"
        assert "OPENQASM" in view["result"]["segment1_qasm"]
        assert main(["submit", "--url", server_url, "status",
                     view["id"]]) == 0
        polled = json.loads(capsys.readouterr().out)
        assert polled["state"] == "done"

    def test_submit_no_wait(self, server_url, real_file, capsys):
        assert main(["submit", "--url", server_url, "--no-wait",
                     "simulate", str(real_file), "--seed", "1"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["state"] in ("queued", "running", "done")

    def test_submit_unreachable_server(self, real_file, capsys):
        code = main(["submit", "--url", "http://127.0.0.1:9",
                     "simulate", str(real_file)])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_missing_circuit_file(self, server_url, capsys):
        code = main(["submit", "--url", server_url, "simulate",
                     "/no/such.qasm"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
