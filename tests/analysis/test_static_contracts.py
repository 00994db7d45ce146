"""Contract checker: every real plan passes, every corruption is caught."""

import numpy as np
import pytest

from kraus_models import rotated_damping
from reference_sim import LOWERINGS, noise_plan_at, plan_at

from repro.analysis.static import (
    PlanContractError,
    check_noise_plan,
    reset_validation_stats,
    validation_stats,
    verify_plan,
)
from repro.circuits import (
    QuantumCircuit,
    bernstein_vazirani_circuit,
    ghz_circuit,
    grover_circuit,
    qft_circuit,
)
from repro.execution.noise_plan import build_noise_plan
from repro.execution.plan import PlanOp
from repro.execution.plan_cache import PlanCache, get_plan, get_plan_cache
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    ReadoutError,
    amplitude_damping,
    depolarizing,
    fake_valencia,
    valencia_like_backend,
)
from repro.revlib import benchmark_circuit
from repro.revlib.benchmarks import benchmark_names
from repro.transpiler import transpile


def _with_span_ops(plan, ops):
    """*plan* (noise-free, one span) with its span ops replaced."""
    plan.steps = (("span", tuple(ops)),)
    return plan


def _library_circuits():
    yield "ghz", ghz_circuit(4)
    yield "bv", bernstein_vazirani_circuit("1011")
    yield "grover", grover_circuit(3)
    yield "qft", qft_circuit(4)
    for name in benchmark_names():
        yield name, benchmark_circuit(name)


class TestPlanContracts:
    @pytest.mark.parametrize("fusion", LOWERINGS)
    def test_every_benchmark_passes_every_level(self, fusion):
        for name, circuit in _library_circuits():
            report = check_noise_plan(plan_at(circuit, fusion), circuit)
            assert report.ok, f"{name}@{fusion}: {report.violations}"
            assert report.checks > 0

    @pytest.mark.parametrize("fusion", LOWERINGS)
    def test_noisy_plan_path_fake_backend(self, fusion):
        model = fake_valencia().noise_model()
        for name in ("4gt13", "one_bit_adder"):
            circuit = benchmark_circuit(name)
            plan = noise_plan_at(circuit, model, fusion)
            report = check_noise_plan(plan, circuit, model)
            assert report.ok, f"{name}@{fusion}: {report.violations}"

    def test_noisy_plan_mid_circuit_measures(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).measure(0, 0).x(1).cx(0, 1).measure(1, 1)
        model = valencia_like_backend(2).noise_model()
        plan = build_noise_plan(qc, model)
        assert not plan.terminal
        report = check_noise_plan(plan, qc, model)
        assert report.ok, report.violations

    def test_mutated_fused_matrix_rejected_precisely(self):
        circuit = benchmark_circuit("4gt13")
        plan = build_noise_plan(circuit)
        ops = list(plan.steps[0][1])
        idx = next(i for i, op in enumerate(ops) if op.kind == "matrix")
        bad = ops[idx].matrix.copy()
        bad[0, 0] += 0.5
        ops[idx] = PlanOp("matrix", ops[idx].qubits, matrix=bad)
        report = check_noise_plan(_with_span_ops(plan, ops))
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "unitarity" in rules
        # the report names the exact op
        locations = {v.location for v in report.violations}
        assert f"steps[0].ops[{idx}]" in locations

    def test_out_of_range_qubit_rejected(self):
        circuit = ghz_circuit(3)
        plan = plan_at(circuit, "none")
        ops = list(plan.steps[0][1])
        ops[0] = PlanOp("matrix", (7,), matrix=ops[0].matrix)
        report = check_noise_plan(_with_span_ops(plan, ops))
        rules = {v.rule for v in report.violations}
        assert "qubit-range" in rules

    def test_non_ascending_diagonal_rejected(self):
        circuit = QuantumCircuit(3)
        circuit.t(0).cz(0, 1).cp(0.3, 1, 2)
        plan = build_noise_plan(circuit)
        ops = list(plan.steps[0][1])
        idx = next(
            (i for i, op in enumerate(ops) if op.kind == "diagonal"), None
        )
        assert idx is not None, "all-diagonal circuit should fuse to a diagonal op"
        op = ops[idx]
        assert len(op.qubits) >= 2
        ops[idx] = PlanOp(
            "diagonal", tuple(reversed(op.qubits)), diag=op.diag
        )
        report = check_noise_plan(_with_span_ops(plan, ops))
        assert any(
            v.rule == "diagonal-structure" for v in report.violations
        )

    def test_measure_order_mismatch_rejected(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        plan = build_noise_plan(qc)
        plan.entries = plan.entries[::-1]  # swapped program order
        report = check_noise_plan(plan, qc)
        assert any(v.rule == "measure-order" for v in report.violations)

    @pytest.mark.parametrize("model", [None, "valencia"])
    def test_permuted_terminal_clbits_rejected(self, model):
        # entries that report qubit 0's bit as clbit 1 and vice versa
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        if model is not None:
            model = fake_valencia().noise_model()
        plan = build_noise_plan(qc, model)
        assert check_noise_plan(plan, qc, model).ok
        first, second = plan.entries
        plan.entries = (
            first[:1] + second[1:2] + first[2:],
            second[:1] + first[1:2] + second[2:],
        )
        report = check_noise_plan(plan, qc, model)
        assert "measure-order" in {v.rule for v in report.violations}

    def test_unmeasured_entries_report_every_qubit_in_place(self):
        qc = ghz_circuit(3)
        plan = build_noise_plan(qc)
        assert [e[:2] for e in plan.entries] == [(0, 0), (1, 1), (2, 2)]
        plan.entries = plan.entries[:2]  # qubit 2 never reported
        report = check_noise_plan(plan, qc)
        assert {v.rule for v in report.violations} == {"measure-order"}

    def test_channel_binding_corruption_rejected(self):
        model = fake_valencia().noise_model()
        circuit = benchmark_circuit("4gt13")
        plan = build_noise_plan(circuit, model)
        steps = list(plan.steps)
        idx = next(
            i for i, step in enumerate(steps) if step[0] == "channel"
        )
        binding = steps[idx][1]
        # break the cumulative table (no longer sums to 1)
        binding.cumulative = binding.cumulative * 0.5
        report = check_noise_plan(plan)
        assert any(
            v.rule == "cumulative-table" for v in report.violations
        )

    def test_shared_binding_reported_once_at_its_first_step(self):
        backend = fake_valencia()
        # compiled to the device, each gate's error binds once per qubits
        circuit = transpile(
            benchmark_circuit("4gt13"), backend=backend, optimization_level=2
        ).circuit
        plan = build_noise_plan(circuit, backend.noise_model())
        steps_of = {}
        for i, step in enumerate(plan.steps):
            if step[0] == "channel" and step[1].kind == "mixed":
                steps_of.setdefault(id(step[1]), []).append(i)
        shared = max(steps_of.values(), key=len)
        assert len(shared) > 1
        binding = plan.steps[shared[0]][1]
        binding.cumulative = binding.cumulative * 0.5
        report = check_noise_plan(plan)
        locations = {
            v.location
            for v in report.violations
            if v.rule == "cumulative-table"
        }
        assert locations == {f"steps[{shared[0]}]"}

    @pytest.mark.parametrize(
        "table,rule",
        [
            ("stack", "operator-stack"),
            ("jump_bound", "jump-bound"),
            ("fold", "no-jump-fold"),
            ("threshold", "no-jump-fold"),
            ("span_op", "fold-op"),
            ("absorbed", "fold-stream"),
            ("flush", "fold-flush"),
        ],
    )
    def test_kraus_table_corruption_rejected(self, table, rule):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(rotated_damping(0.2), ["h"])
        model.add_all_qubit_quantum_error(amplitude_damping(0.1), ["cx"])
        circuit = ghz_circuit(3)
        plan = build_noise_plan(circuit, model)
        assert check_noise_plan(plan, circuit, model).ok
        bindings = {
            step[1].channel.name: step[1]
            for step in plan.steps
            if step[0] == "channel"
        }
        damping = bindings[amplitude_damping(0.1).name]
        compiled = plan.compiled_steps()
        # the second CX takes the K_0 pending on qubit 1 as perm scalars
        absorbing = next(
            i for i, step in enumerate(compiled)
            if step[0] == "span" and step[1][0][0] == "perm" and step[2]
        )
        if table == "stack":
            stack = damping.stack.copy()
            stack[1, 0, 1] *= 0.5
            damping.stack = stack
        elif table == "jump_bound":
            # thinning would skip shots that can jump
            damping.jump_bound *= 0.5
        elif table == "fold":
            damping.fold = damping.fold * np.array([1.0, 0.9])
        elif table == "threshold":
            damping.threshold = 0.99
        elif table == "span_op":
            # the op that should apply a pending K_0 does not: its
            # cycles move the blocks without their phases
            moves = tuple(
                (blocks, (None,) * len(blocks))
                for blocks, _ in compiled[absorbing][1][0][1]
                if len(blocks) > 1
            )
            compiled[absorbing] = (
                ("span", (("perm", moves),)) + compiled[absorbing][2:]
            )
        elif table == "absorbed":
            # the executor would keep a factor pending that was applied
            compiled[absorbing] = (
                compiled[absorbing][:2] + ((),) + compiled[absorbing][3:]
            )
        else:
            # the final sample would see the stored, not the true, state
            assert compiled[-1][0] == "span" and compiled[-1][2]
            compiled.pop()
        report = check_noise_plan(plan)
        assert rule in {v.rule for v in report.violations}

    @pytest.mark.parametrize("corruption", ["unborn", "reborn", "axes"])
    def test_birth_corruption_rejected(self, corruption):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(amplitude_damping(0.1), ["h", "cx"])
        circuit = ghz_circuit(3)
        plan = build_noise_plan(circuit, model)
        assert check_noise_plan(plan, circuit, model).ok
        compiled = plan.compiled_steps()
        # qubits 0, 1 and 2 are born at the spans of h(0), cx(0, 1) and
        # cx(1, 2), and each anchor follows its gate's span
        births = [
            (i, step[3])
            for i, step in enumerate(compiled)
            if step[0] == "span" and step[3]
        ]
        assert [born for _, born in births] == [(0,), (1,), (2,)]
        last = births[-1][0]
        if corruption == "unborn":
            # cx(1, 2) compiled onto qubit 2 before anything bears it
            compiled[last] = compiled[last][:-1] + ((),)
        elif corruption == "reborn":
            compiled[last] = compiled[last][:-1] + ((0, 2),)
        else:
            # the damping on qubit 2 after cx(1, 2) acts on qubit 1's axis
            anchor = next(
                i for i, step in enumerate(compiled)
                if i > last and step[0] == "channel"
                and step[1].qubits == (2,)
            )
            # every qubit is born: the step stays the plan's own
            assert len(compiled[anchor]) == 3
            compiled[anchor] = compiled[anchor] + (None, (1,), ())
        report = check_noise_plan(plan)
        assert "fold-birth" in {v.rule for v in report.violations}

    @pytest.mark.parametrize(
        "corruption", ["phase", "fake-monomial", "dropped-monomial"]
    )
    def test_branch_monomial_corruption_rejected(self, corruption):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        model = NoiseModel()
        model.add_all_qubit_quantum_error(
            depolarizing(0.1, num_qubits=2), ["cx"]
        )
        # mixed-unitary but not monomial: its H branch stays dense
        model.add_all_qubit_quantum_error(
            QuantumChannel(
                [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * hadamard]
            ),
            ["h"],
        )
        circuit = ghz_circuit(3)
        plan = build_noise_plan(circuit, model)
        assert check_noise_plan(plan, circuit, model).ok
        mixed = [
            step[1]
            for step in plan.steps
            if step[0] == "channel" and step[1].kind == "mixed"
        ]
        pauli = next(b for b in mixed if len(b.qubits) == 2)
        dense = next(b for b in mixed if len(b.qubits) == 1)
        assert dense.monomials[1] is None
        if corruption == "phase":
            # X⊗X's phases flipped: the slice copies would apply -X⊗X
            rows, phases = pauli.monomials[5]
            table = list(pauli.monomials)
            table[5] = (rows, tuple(-p for p in phases))
            pauli.monomials = tuple(table)
        elif corruption == "fake-monomial":
            # the H branch would run as an identity slice copy
            dense.monomials = (dense.monomials[0], ((0, 1), (1, 1)))
        else:
            table = list(pauli.monomials)
            table[5] = None
            pauli.monomials = tuple(table)
        report = check_noise_plan(plan)
        assert {v.rule for v in report.violations} == {"branch-monomials"}

    def test_anchor_crossing_detected(self):
        """Fusing two gates across a channel anchor is rejected."""
        model = valencia_like_backend(2).noise_model()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        plan = noise_plan_at(qc, model, "none")
        # corrupt: merge both spans' ops into the first span, emptying
        # the second — simulating a fusion pass that ignored the anchor
        steps = list(plan.steps)
        span_indices = [
            i for i, step in enumerate(steps) if step[0] == "span"
        ]
        assert len(span_indices) >= 2
        first, second = span_indices[0], span_indices[1]
        merged = steps[first][1] + steps[second][1]
        steps[first] = ("span", merged)
        del steps[second]
        plan.steps = tuple(steps)
        report = check_noise_plan(plan, qc, model)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert rules & {"anchor-structure", "anchor-crossing"}


    @pytest.mark.parametrize("model", ["channels", "readout"])
    def test_noisy_plan_without_its_model_raises(self, model):
        # the walk cannot bind errors without the model: a missing model
        # is reported as such, not as a false anchor-structure violation
        circuit = benchmark_circuit("4gt13")
        if model == "channels":
            noise = valencia_like_backend(circuit.num_qubits).noise_model()
        else:
            noise = NoiseModel()
            noise.add_readout_error(ReadoutError(0.02, 0.05), 0)
        plan = build_noise_plan(circuit, noise)
        assert check_noise_plan(plan, circuit, noise).ok
        with pytest.raises(ValueError, match="noise model"):
            check_noise_plan(plan, circuit)
        with pytest.raises(ValueError, match="noise model"):
            check_noise_plan(plan, circuit, NoiseModel())
        # without a circuit there is no walk, so no model is needed
        assert check_noise_plan(plan).ok

class TestValidateKnob:
    def test_get_plan_validate_passes_clean(self):
        circuit = ghz_circuit(4)
        get_plan_cache().clear()
        plan = get_plan(circuit, validate=True)
        assert plan.num_qubits == 4

    def test_cache_validate_noise_plan(self):
        model = fake_valencia().noise_model()
        circuit = benchmark_circuit("4gt13")
        cache = PlanCache()
        plan = cache.plan_for(circuit, model, validate=True)
        assert plan.num_channels > 0

    def test_validate_raises_with_full_report(self, monkeypatch):
        import repro.execution.plan_cache as plan_cache_mod

        circuit = ghz_circuit(3)
        good = build_noise_plan(circuit)
        ops = list(good.steps[0][1])
        bad = ops[0].to_matrix().copy()
        bad[0, 0] += 1.0
        ops[0] = PlanOp("matrix", ops[0].qubits, matrix=bad)
        _with_span_ops(good, ops)
        monkeypatch.setattr(
            plan_cache_mod, "build_noise_plan", lambda c, m: good
        )
        cache = PlanCache()
        with pytest.raises(PlanContractError) as excinfo:
            cache.plan_for(circuit, validate=True)
        assert excinfo.value.report.violations
        assert "unitarity" in str(excinfo.value)

    def test_broken_plan_not_cached(self, monkeypatch):
        import repro.execution.plan_cache as plan_cache_mod

        circuit = ghz_circuit(3)
        broken = build_noise_plan(circuit)
        ops = list(broken.steps[0][1])
        bad = ops[0].to_matrix().copy()
        bad[0, 0] += 1.0
        ops[0] = PlanOp("matrix", ops[0].qubits, matrix=bad)
        _with_span_ops(broken, ops)
        monkeypatch.setattr(
            plan_cache_mod, "build_noise_plan", lambda c, m: broken
        )
        cache = PlanCache()
        with pytest.raises(PlanContractError):
            cache.plan_for(circuit, validate=True)
        monkeypatch.undo()
        # the poisoned plan must not have been stored
        plan = cache.plan_for(circuit, validate=True)
        report = check_noise_plan(plan, circuit)
        assert report.ok


class TestValidationCounters:
    def test_counters_track_checks_and_violations(self):
        reset_validation_stats()
        circuit = ghz_circuit(3)
        check_noise_plan(build_noise_plan(circuit), circuit)
        plan = build_noise_plan(circuit)
        ops = list(plan.steps[0][1])
        bad = ops[0].to_matrix().copy()
        bad[0, 0] += 1.0
        ops[0] = PlanOp("matrix", ops[0].qubits, matrix=bad)
        check_noise_plan(_with_span_ops(plan, ops))
        stats = validation_stats()
        assert stats["plans_checked"] == 2
        assert stats["violations"] >= 1
        reset_validation_stats()
        assert validation_stats()["plans_checked"] == 0

    def test_service_stats_expose_plan_validation(self):
        from repro.service import JobService

        service = JobService(workers=1)
        stats = service.stats()
        assert "plan_validation" in stats
        assert set(stats["plan_validation"]) == {
            "plans_checked",
            "violations",
        }


class TestVerifyPlanOrchestrator:
    def test_verify_plan_noiseless_and_noisy(self):
        circuit = benchmark_circuit("4gt13")
        model = valencia_like_backend(circuit.num_qubits).noise_model()
        result = verify_plan(circuit, model)
        assert result.ok
        assert result.noise is not None and result.noise.ok
        payload = result.to_dict()
        assert payload["ok"] and payload["noise"]["ok"]
        assert any("contract" in line for line in result.summary_lines())
