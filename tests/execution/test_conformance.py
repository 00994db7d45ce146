"""Conformance: the trajectory ensemble against the exact density engine,
and the exact engine against the per-instruction oracle.

Paper circuits are compiled to the Valencia-like device, so every
physical gate carries the backend's thermal-relaxation + depolarizing
channel and every qubit its readout error.  The trajectory ensemble
(``method="trajectory"``, forced: auto dispatch sends these small
circuits to the exact engine) must reproduce the exact distribution
that ``method="density"`` samples from within shot noise, for the plan
tier's lowering and for the reference lowerings (``reference_sim.\
lowering``) alike.  The exact engine in turn must match
``reference_sim.evolve_density`` — one two-sided pass per gate and per
Kraus operator — to 1e-12.

The bound is fixed from the shot count alone.  For ``N`` shots over
``K = 2^n`` outcomes the empirical distribution ``p_hat`` satisfies
``E ||p_hat - p||_1 <= sum_i sqrt(p_i / N) <= sqrt(K / N)``, and one
shot moves ``||p_hat - p||_1`` by at most ``2 / N``, so McDiarmid gives
``P(||p_hat - p||_1 >= sqrt(K / N) + t) <= exp(-N t^2 / 2)``.  With
``t = sqrt(2 ln(1 / delta) / N)`` and ``delta = 1e-6``:

    TVD <= (sqrt(K / N) + sqrt(2 ln(1e6) / N)) / 2

which is 0.033 for ``n = 4`` at ``N = 20000``.  The noise itself moves
these distributions by well over that, so a dropped channel fails.

Every Kraus channel of the device model is a 1-qubit channel with a
diagonal leading operator, which the trajectory ensemble folds into the
span ops; at the device's rates a shot jumps at ~1% of anchors.  Two
synthetic models cover the ensemble's unfolded general-Kraus anchors
under the same bound (a 2-qubit channel, and a 1-qubit channel whose
leading operator is not diagonal), and the device's channel layout at
exaggerated rates makes jumps and Pauli branches between a fold and its
span op common.
"""

import functools
import math

import numpy as np
import pytest
from birth_circuits import late_birth_circuit, untouched_qubit_circuit
from kraus_models import exaggerated_model, kraus_route_models
from reference_sim import LOWERINGS, apply_readout, evolve_density, lowering

from repro.circuits import QuantumCircuit
from repro.execution import plan_cache, run
from repro.noise import valencia_like_backend
from repro.revlib import benchmark_circuit
from repro.simulator import DensityMatrixSimulator
from repro.transpiler import transpile

SHOTS = 20000
DELTA = 1e-6


def _tvd_bound(num_qubits):
    outcomes = 2 ** num_qubits
    return 0.5 * (
        math.sqrt(outcomes / SHOTS)
        + math.sqrt(2 * math.log(1 / DELTA) / SHOTS)
    )


def _device_circuit(name):
    """*name* compiled to the Valencia-like device, all qubits measured."""
    circuit = benchmark_circuit(name)
    backend = valencia_like_backend(max(circuit.num_qubits, 2))
    compiled = transpile(circuit, backend=backend).circuit.copy()
    compiled.num_clbits = max(compiled.num_clbits, compiled.num_qubits)
    for qubit in range(compiled.num_qubits):
        compiled.measure(qubit, qubit)
    return compiled, backend.noise_model()


def _exact_distribution(circuit, model):
    """The exact engine's outcome distribution, readout included (every
    circuit here measures qubit ``q`` into clbit ``q``)."""
    probs = DensityMatrixSimulator(model).evolve(circuit).probabilities()
    return apply_readout(probs / probs.sum(), model)


@pytest.mark.parametrize("fusion", LOWERINGS)
@pytest.mark.parametrize(
    "name",
    [
        "4gt13",
        "one_bit_adder",
        "ham3",
        "graycode6",
        "4mod5",
        "mini_alu",
        "4gt11",
        "rd53",
    ],
)
def test_trajectory_matches_density(name, fusion):
    circuit, model = _device_circuit(name)
    # u1 is a zero-duration virtual Z: the device model binds no error
    assert all(
        model.errors_for(inst)
        for inst in circuit
        if inst.is_gate and inst.operation.name != "u1"
    ), "every physical gate must carry a noise channel"
    exact = _exact_distribution(circuit, model)

    with lowering(fusion):
        counts = run(
            circuit, SHOTS, noise_model=model, method="trajectory",
            seed=2025,
        )
    empirical = np.zeros_like(exact)
    for bitstring, count in counts.items():
        empirical[int(bitstring, 2)] = count / SHOTS

    distance = 0.5 * np.abs(empirical - exact).sum()
    assert distance <= _tvd_bound(circuit.num_qubits), (
        f"{name}@{fusion}: TVD {distance:.4f} to the density engine"
    )


def _route_circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).ry(0.9, 2).cx(1, 2).h(1).cx(2, 0).x(2).rz(0.4, 0)
    for qubit in range(3):
        qc.measure(qubit, qubit)
    return qc


@pytest.mark.parametrize("fusion", LOWERINGS)
@pytest.mark.parametrize("route", sorted(kraus_route_models()))
def test_kraus_routes_match_density(route, fusion):
    circuit = _route_circuit()
    model = kraus_route_models()[route]
    exact = _exact_distribution(circuit, model)

    with lowering(fusion):
        counts = run(
            circuit, SHOTS, noise_model=model, method="trajectory",
            seed=2025,
        )
    empirical = np.zeros_like(exact)
    for bitstring, count in counts.items():
        empirical[int(bitstring, 2)] = count / SHOTS

    distance = 0.5 * np.abs(empirical - exact).sum()
    assert distance <= _tvd_bound(circuit.num_qubits), (
        f"{route}@{fusion}: TVD {distance:.4f} to the density engine"
    )


def _chain_circuit():
    """A CX chain between h, ry and x layers on 4 qubits."""
    qc = QuantumCircuit(4, 4)
    for qubit in range(4):
        qc.h(qubit).ry(0.3 * qubit, qubit)
    qc.cx(0, 1).cx(1, 2).ry(0.7, 1).cx(2, 3).cx(3, 2).cx(1, 0)
    for qubit in range(4):
        qc.x(qubit).ry(0.9, qubit)
    qc.cx(2, 1).h(2).cx(0, 3)
    for qubit in range(4):
        qc.measure(qubit, qubit)
    return qc


@pytest.mark.parametrize("fusion", LOWERINGS)
def test_exaggerated_rates_match_density(fusion):
    circuit = _chain_circuit()
    model = exaggerated_model()
    exact = _exact_distribution(circuit, model)

    with lowering(fusion):
        counts = run(
            circuit, SHOTS, noise_model=model, method="trajectory",
            seed=2025,
        )
    empirical = np.zeros_like(exact)
    for bitstring, count in counts.items():
        empirical[int(bitstring, 2)] = count / SHOTS

    distance = 0.5 * np.abs(empirical - exact).sum()
    assert distance <= _tvd_bound(circuit.num_qubits), (
        f"exaggerated@{fusion}: TVD {distance:.4f} to the density engine"
    )


@pytest.mark.parametrize("fusion", LOWERINGS)
@pytest.mark.parametrize(
    "make",
    [late_birth_circuit, untouched_qubit_circuit],
    ids=["late-birth", "untouched-qubit"],
)
def test_late_births_match_density(make, fusion):
    """A qubit first touched by the last gate, and a measured qubit no
    gate touches: the ensemble gives each an axis late or only at the
    final sample."""
    circuit = make()
    model = valencia_like_backend(circuit.num_qubits).noise_model()
    exact = _exact_distribution(circuit, model)

    with lowering(fusion):
        counts = run(
            circuit, SHOTS, noise_model=model, method="trajectory",
            seed=2025,
        )
    empirical = np.zeros_like(exact)
    for bitstring, count in counts.items():
        empirical[int(bitstring, 2)] = count / SHOTS

    distance = 0.5 * np.abs(empirical - exact).sum()
    assert distance <= _tvd_bound(circuit.num_qubits), (
        f"{make.__name__}@{fusion}: TVD {distance:.4f} to the density "
        "engine"
    )


@functools.lru_cache(maxsize=None)
def _oracle(name):
    circuit, model = _device_circuit(name)
    return circuit, model, evolve_density(circuit, model).to_matrix()


@pytest.mark.parametrize("fusion", LOWERINGS)
@pytest.mark.parametrize("name", ["4gt13", "mini_alu", "4gt11", "rd53"])
def test_exact_engine_matches_oracle(name, fusion):
    circuit, model, reference = _oracle(name)
    with lowering(fusion):
        exact = DensityMatrixSimulator(model).evolve(circuit)
    np.testing.assert_allclose(
        exact.to_matrix(), reference, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("fusion", LOWERINGS)
@pytest.mark.parametrize("route", sorted(kraus_route_models()))
def test_exact_engine_kraus_routes_match_oracle(route, fusion):
    circuit = _route_circuit()
    model = kraus_route_models()[route]
    reference = evolve_density(circuit, model).to_matrix()
    with lowering(fusion):
        exact = DensityMatrixSimulator(model).evolve(circuit)
    np.testing.assert_allclose(
        exact.to_matrix(), reference, rtol=0, atol=1e-12
    )


def _wide_circuit():
    """8 qubits whose t layers fuse (at ``"full"``) into one 8-qubit
    diagonal, since the Valencia-like model puts no channel on t, around
    a cx chain and a 3-qubit ccx."""
    circuit = QuantumCircuit(8)
    for qubit in range(8):
        circuit.h(qubit).t(qubit)
    for qubit in range(7):
        circuit.cx(qubit, qubit + 1)
    circuit.ccx(0, 3, 6)
    for qubit in range(8):
        circuit.tdg(qubit)
    return circuit.h(7)


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("fusion", LOWERINGS)
def test_exact_engine_wide_ops_match_oracle(fusion, noisy):
    """Ops wider than a block run as ``U rho U^dagger``; a 4^8 x 4^8
    superoperator of the fused diagonal would not fit in memory."""
    circuit = _wide_circuit()
    model = valencia_like_backend(8).noise_model() if noisy else None
    with lowering(fusion):
        plan = plan_cache.get_noise_plan(circuit, model)
        exact = DensityMatrixSimulator(model).evolve(circuit)
    widest = max(
        len(op.qubits)
        for step in plan.steps
        if step[0] == "span"
        for op in step[1]
    )
    assert widest == (8 if fusion == "full" else 3)
    np.testing.assert_allclose(
        exact.to_matrix(),
        evolve_density(circuit, model).to_matrix(),
        rtol=0,
        atol=1e-12,
    )
