"""Request validation, fingerprints, and coalesce keys."""

import typing
from dataclasses import fields

import pytest

from repro.service.requests import (
    MAX_CANDIDATES,
    MAX_DEVICE_QUBITS,
    MAX_GATES,
    MAX_ITERATIONS,
    MAX_QUBITS,
    MAX_SHOTS,
    AttackRequest,
    EvaluateRequest,
    ProtectRequest,
    REQUEST_TYPES,
    RawRequest,
    SimulateRequest,
    TranspileRequest,
    request_from_wire,
)

from service_qasm import BELL_QASM, BELL_UNITARY_QASM, MID_MEASURE_QASM


class TestWireParsing:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            request_from_wire("frobnicate", {})

    def test_unknown_param_rejected(self):
        # "precision" is a retired simulate parameter
        for key in ("nope", "precision"):
            with pytest.raises(ValueError, match=f"unknown parameter.*{key}"):
                request_from_wire("simulate", {"qasm": BELL_QASM, key: 1})

    def test_private_field_not_injectable(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            request_from_wire(
                "simulate", {"qasm": BELL_QASM, "_prepared": "x"}
            )

    @pytest.mark.parametrize("kind", ["simulate", "evaluate"])
    def test_retired_trajectories_key_rejected(self, kind):
        target = {"qasm": BELL_QASM}
        with pytest.raises(ValueError, match="unknown parameter.*trajectories"):
            request_from_wire(kind, {**target, "trajectories": "batched"})

    @pytest.mark.parametrize("kind", ["simulate", "evaluate"])
    def test_retired_chunk_size_key_rejected(self, kind):
        target = {"qasm": BELL_QASM}
        with pytest.raises(ValueError, match="unknown parameter.*chunk_size"):
            request_from_wire(kind, {**target, "chunk_size": 1000})

    def test_bad_qasm_fails_at_submit(self):
        with pytest.raises(ValueError):
            request_from_wire("simulate", {"qasm": "garbage"})

    def test_registered_raw_kind_accepted(self):
        request = request_from_wire("_sleep", {"seconds": 0.01})
        assert isinstance(request, RawRequest)
        assert request.KIND == "_sleep"
        assert request.fingerprint() is None
        assert request.coalesce_key() is None

    def test_params_round_trip(self):
        request = request_from_wire(
            "simulate", {"qasm": BELL_QASM, "seed": 3, "shots": 10}
        )
        clone = request_from_wire("simulate", request.params())
        assert clone.params() == request.params()
        assert clone.fingerprint() == request.fingerprint()


# a valid target per kind, and wrong-typed values per declared type
WIRE_TARGETS = {
    "simulate": {"qasm": BELL_QASM},
    "protect": {"qasm": BELL_UNITARY_QASM},
    "transpile": {"qasm": BELL_QASM},
    "evaluate": {"benchmark": "4gt13"},
    "attack": {"benchmark": "4gt13"},
}
WRONG_TYPED = {
    bool: ["false", 0, 1, None],
    int: [True, False, 2.5, "7", None],
    str: [3, True, None],
    typing.Optional[int]: [True, 1.5, "7"],
    typing.Optional[str]: [3, False],
}


@pytest.mark.parametrize("kind", sorted(REQUEST_TYPES))
def test_wire_values_must_have_the_declared_type(kind):
    """Each public field refuses every value of another type at submit,
    and the cases once accepted by truthiness or coercion are named."""
    cls = REQUEST_TYPES[kind]
    assert set(WIRE_TARGETS) == set(REQUEST_TYPES)
    types = typing.get_type_hints(cls)
    public = [f.name for f in fields(cls) if not f.name.startswith("_")]
    for name in public:
        for value in WRONG_TYPED[types[name]]:
            params = {**WIRE_TARGETS[kind], name: value}
            with pytest.raises(ValueError, match=f"{name}.*must be"):
                request_from_wire(kind, params)
    named = {
        "attack": [("early_exit", "false"), ("prefilter", "no"),
                   ("seed", "7"), ("max_candidates", 2.5),
                   ("gate_limit", 2.5)],
        "simulate": [("shots", True), ("seed", 1.5)],
        "evaluate": [("iterations", True)],
    }
    for name, value in named.get(kind, []):
        with pytest.raises(ValueError, match="must be"):
            request_from_wire(kind, {**WIRE_TARGETS[kind], name: value})
    # the declared types themselves still pass, None where Optional
    request = request_from_wire(kind, dict(WIRE_TARGETS[kind]))
    assert request_from_wire(kind, request.params()).params() == (
        request.params()
    )


class TestValidation:
    def test_simulate_needs_positive_shots(self):
        with pytest.raises(ValueError, match="shots"):
            SimulateRequest(qasm=BELL_QASM, shots=0)

    def test_simulate_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            SimulateRequest(qasm=BELL_QASM, method="nope")

    @pytest.mark.parametrize(
        "method,qasm,noisy",
        [
            ("statevector", BELL_QASM, True),
            ("statevector", MID_MEASURE_QASM, False),
            ("batched", MID_MEASURE_QASM, True),
            ("batched", BELL_QASM, True),
            ("density", MID_MEASURE_QASM, False),
        ],
    )
    def test_simulate_rejects_incompatible_method(self, method, qasm, noisy):
        # "batched" is a retired engine name: refused as unknown
        reason = (
            f"unknown method '{method}'"
            if method == "batched"
            else f"method '{method}' cannot run"
        )
        with pytest.raises(ValueError, match=reason):
            SimulateRequest(qasm=qasm, method=method, noisy=noisy)

    @pytest.mark.parametrize(
        "method,qasm,noisy",
        [
            ("statevector", BELL_QASM, False),
            ("trajectory", BELL_QASM, True),
            ("density", BELL_QASM, True),
            ("trajectory", MID_MEASURE_QASM, True),
        ],
    )
    def test_simulate_accepts_compatible_method(self, method, qasm, noisy):
        request = SimulateRequest(qasm=qasm, method=method, noisy=noisy)
        assert request.method == method

    def test_protect_needs_pool(self):
        with pytest.raises(ValueError, match="gate_pool"):
            ProtectRequest(qasm=BELL_QASM, gate_pool="")

    def test_transpile_rejects_bad_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            TranspileRequest(qasm=BELL_QASM, coupling="torus")

    def test_evaluate_needs_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one"):
            EvaluateRequest()
        with pytest.raises(ValueError, match="exactly one"):
            EvaluateRequest(benchmark="4gt13", qasm=BELL_QASM)

    def test_evaluate_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            EvaluateRequest(benchmark="not_a_benchmark")

    def test_oversized_inputs_refused_at_submit(self):
        wide = 'OPENQASM 2.0; include "qelib1.inc"; qreg q[40]; h q[0];'
        with pytest.raises(ValueError, match="40 qubits"):
            SimulateRequest(qasm=wide)
        with pytest.raises(ValueError, match="40 qubits"):
            EvaluateRequest(qasm=wide)
        # every QASM-carrying request is held to the same circuit caps
        with pytest.raises(ValueError, match="40 qubits"):
            ProtectRequest(qasm=wide)
        with pytest.raises(ValueError, match="40 qubits"):
            TranspileRequest(qasm=wide)
        with pytest.raises(ValueError, match="40 qubits"):
            AttackRequest(qasm=wide)
        long = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; '
            + "x q[0]; " * (MAX_GATES + 1)
        )
        for cls in (SimulateRequest, ProtectRequest, TranspileRequest):
            with pytest.raises(ValueError, match="operations"):
                cls(qasm=long)
        # a transpile device between the circuit width and the cap
        with pytest.raises(ValueError, match="size"):
            TranspileRequest(qasm=BELL_QASM, size=10**6, coupling="full")
        with pytest.raises(ValueError, match="size"):
            TranspileRequest(qasm=BELL_QASM, size=1)
        with pytest.raises(ValueError, match="shots"):
            SimulateRequest(qasm=BELL_QASM, shots=10**12)
        with pytest.raises(ValueError, match="shots"):
            EvaluateRequest(benchmark="4gt13", shots=10**12)
        with pytest.raises(ValueError, match="iterations"):
            EvaluateRequest(benchmark="4gt13", iterations=MAX_ITERATIONS + 1)
        with pytest.raises(ValueError, match="iterations"):
            EvaluateRequest(benchmark="4gt13", iterations=0)

    def test_benchmark_sizes_accepted(self):
        # the service benchmark's largest jobs: a 10-qubit noiseless
        # simulate at 1000 shots, 200-shot noisy simulates and evaluates
        ten = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[10]; '
            + " ".join(f"h q[{q}];" for q in range(10))
        )
        SimulateRequest(qasm=ten, shots=1000, seed=1)
        SimulateRequest(qasm=ten, shots=200, seed=1, noisy=True)
        EvaluateRequest(benchmark="rd73", shots=1000, iterations=20)
        at_caps = "OPENQASM 2.0; qreg q[%d];" % MAX_QUBITS
        SimulateRequest(qasm=at_caps, shots=MAX_SHOTS)
        # the service benchmark's transpiles: up to 11 spare device
        # qubits on the 7-qubit rd53, on any coupling
        seven = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[7]; '
            + " ".join(f"cx q[{q}],q[{q + 1}];" for q in range(6))
        )
        for coupling in ("valencia", "line", "ring", "full"):
            TranspileRequest(qasm=seven, coupling=coupling, size=18)
        TranspileRequest(qasm=seven, size=7)
        TranspileRequest(qasm=at_caps, size=MAX_DEVICE_QUBITS)
        ProtectRequest(qasm=ten, seed=1)
        AttackRequest(qasm=ten)
        # a circuit at the operation cap (measure-all included)
        full = (
            'OPENQASM 2.0; include "qelib1.inc"; qreg q[1]; creg c[1]; '
            + "x q[0]; " * (MAX_GATES - 1)
            + "measure q[0] -> c[0];"
        )
        SimulateRequest(qasm=full, seed=1)

    def test_attack_candidate_cap_refused_at_submit(self):
        AttackRequest(benchmark="4gt13", max_candidates=MAX_CANDIDATES)
        for refused in (0, MAX_CANDIDATES + 1, 10**12):
            with pytest.raises(ValueError, match="max_candidates"):
                AttackRequest(benchmark="4gt13", max_candidates=refused)
        with pytest.raises(ValueError, match="max_candidates"):
            request_from_wire(
                "attack", {"benchmark": "4gt13", "max_candidates": 10**12}
            )

    def test_attack_rejects_unknown_adversary(self):
        with pytest.raises(ValueError, match="adversary"):
            AttackRequest(benchmark="4gt13", adversary="quantum")

    def test_negative_gate_limit_refused_at_submit(self):
        with pytest.raises(ValueError, match="gate_limit"):
            ProtectRequest(qasm=BELL_QASM, gate_limit=-1)
        with pytest.raises(ValueError, match="gate_limit"):
            EvaluateRequest(benchmark="4gt13", gate_limit=-1)
        for adversary in ("auto", "mismatched", "same-width"):
            with pytest.raises(ValueError, match="gate_limit"):
                AttackRequest(
                    benchmark="4gt13", adversary=adversary, gate_limit=-1
                )
        EvaluateRequest(benchmark="4gt13", gate_limit=0)
        AttackRequest(benchmark="4gt13", gate_limit=0)

    @pytest.mark.parametrize("kind", ["simulate", "protect", "evaluate",
                                      "attack"])
    def test_negative_seed_refused_at_submit(self, kind):
        target = {**WIRE_TARGETS[kind]}
        with pytest.raises(ValueError, match="seed must be non-negative"):
            request_from_wire(kind, {**target, "seed": -3})
        request_from_wire(kind, {**target, "seed": 0})

    @pytest.mark.parametrize("pool", ["bogus", "rz", "x,,cx"])
    def test_protect_pool_outside_the_insertion_pool_refused(self, pool):
        with pytest.raises(ValueError, match="gate_pool entry"):
            ProtectRequest(qasm=BELL_UNITARY_QASM, gate_pool=pool)

    def test_protect_pool_inside_the_insertion_pool_accepted(self):
        for pool in ("x", "h", "x,cx", "cz,h,x"):
            ProtectRequest(qasm=BELL_UNITARY_QASM, gate_pool=pool)

    def test_protect_measured_circuit_refused_at_submit(self):
        with pytest.raises(ValueError, match="measurement-free"):
            ProtectRequest(qasm=BELL_QASM)

    def test_evaluate_circuit_it_cannot_score_refused_at_submit(
        self, bench_qasm
    ):
        # the expected output is read from a truth table, so the target
        # must be classical-reversible and measurement-free
        with pytest.raises(ValueError, match="classical-reversible"):
            EvaluateRequest(qasm=BELL_UNITARY_QASM)
        measured = bench_qasm + "creg c[4];\nmeasure q[0] -> c[0];\n"
        with pytest.raises(ValueError, match="measurement-free"):
            EvaluateRequest(qasm=measured)
        EvaluateRequest(qasm=bench_qasm)


class TestFingerprints:
    def test_unseeded_stochastic_not_cacheable(self):
        assert SimulateRequest(qasm=BELL_QASM).fingerprint() is None
        assert ProtectRequest(qasm=BELL_UNITARY_QASM).fingerprint() is None
        assert EvaluateRequest(benchmark="4gt13").fingerprint() is None

    def test_seeded_cacheable(self):
        assert SimulateRequest(qasm=BELL_QASM, seed=1).fingerprint()
        assert ProtectRequest(qasm=BELL_UNITARY_QASM, seed=1).fingerprint()

    def test_transpile_always_cacheable(self):
        assert TranspileRequest(qasm=BELL_QASM).fingerprint()

    def test_attack_always_cacheable(self):
        assert AttackRequest(benchmark="4gt13").fingerprint()

    def test_formatting_does_not_defeat_cache(self):
        spaced = BELL_QASM.replace("cx q[0],q[1]", "cx  q[0], q[1]")
        assert spaced != BELL_QASM
        a = SimulateRequest(qasm=BELL_QASM, seed=5).fingerprint()
        b = SimulateRequest(qasm=spaced, seed=5).fingerprint()
        assert a == b

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 6},
            {"shots": 11},
            {"noisy": True},
            {"method": "trajectory"},
            {"method": "density"},
        ],
    )
    def test_any_param_change_changes_fingerprint(self, override):
        base = dict(qasm=BELL_QASM, seed=5, shots=10)
        reference = SimulateRequest(**base).fingerprint()
        changed = SimulateRequest(**{**base, **override}).fingerprint()
        assert changed != reference

    def test_same_width_fingerprint_ignores_gate_limit(self):
        # a same-width attack searches a plain Saki split: no pairs are
        # inserted, so gate_limit cannot change its result
        def fingerprint(adversary, gate_limit):
            return AttackRequest(
                benchmark="4gt13", adversary=adversary, gate_limit=gate_limit
            ).fingerprint()

        assert fingerprint("same-width", 3) == fingerprint("same-width", 4)
        assert fingerprint("mismatched", 3) != fingerprint("mismatched", 4)
        assert fingerprint("auto", 3) != fingerprint("auto", 4)

    def test_kind_in_fingerprint(self):
        sim = SimulateRequest(qasm=BELL_QASM, seed=1).fingerprint()
        prot = ProtectRequest(qasm=BELL_UNITARY_QASM, seed=1).fingerprint()
        assert sim != prot


class TestCoalesceKeys:
    def test_eligible_requests_share_a_key(self):
        a = SimulateRequest(qasm=BELL_QASM, seed=1, shots=10)
        b = SimulateRequest(qasm=BELL_QASM, seed=2, shots=999)
        assert a.coalesce_key() is not None
        assert a.coalesce_key() == b.coalesce_key()

    def test_different_circuits_do_not_coalesce(self, bench_qasm):
        a = SimulateRequest(qasm=BELL_QASM)
        b = SimulateRequest(qasm=bench_qasm)
        assert a.coalesce_key() != b.coalesce_key()

    def test_noisy_not_coalescable(self):
        assert SimulateRequest(qasm=BELL_QASM, noisy=True).coalesce_key() \
            is None

    def test_forced_engine_not_coalescable(self):
        request = SimulateRequest(qasm=BELL_QASM, method="trajectory")
        assert request.coalesce_key() is None

    def test_mid_circuit_measurement_not_coalescable(self):
        request = SimulateRequest(qasm=MID_MEASURE_QASM)
        assert request.coalesce_key() is None
