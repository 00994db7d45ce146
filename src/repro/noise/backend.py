"""Backend descriptions and the FakeValencia device model.

A :class:`Backend` bundles what the transpiler and the noisy simulators
need to know about a device: qubit count, coupling map, basis gates,
per-qubit coherence/readout calibration and per-gate error/duration.
:func:`fake_valencia` reproduces the 5-qubit ``ibmq_valencia`` device
the paper simulates through Qiskit's ``FakeValencia``;
:func:`valencia_like_backend` extends the same calibration to wider
registers for the 7–12-qubit RevLib benchmarks (see DESIGN.md,
substitutions table).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .channels import ReadoutError, depolarizing, thermal_relaxation
from .model import NoiseModel

__all__ = [
    "QubitCalibration",
    "GateCalibration",
    "Backend",
    "fake_valencia",
    "valencia_like_backend",
    "VALENCIA_BASIS_GATES",
    "VALENCIA_COUPLING",
]

# IBM heavy-T layout of ibmq_valencia:
#
#       0 - 1 - 2
#           |
#           3
#           |
#           4
VALENCIA_COUPLING: List[Tuple[int, int]] = [(0, 1), (1, 2), (1, 3), (3, 4)]
VALENCIA_BASIS_GATES: List[str] = ["id", "u1", "u2", "u3", "cx"]

# representative ibmq_valencia calibration (microseconds / dimensionless);
# values are in the published range for the device in 2020-2021.
_VALENCIA_T1_US = [114.0, 94.0, 122.0, 105.0, 88.0]
_VALENCIA_T2_US = [72.0, 63.0, 98.0, 84.0, 55.0]
_VALENCIA_SQ_ERROR = [3.6e-4, 4.8e-4, 3.1e-4, 4.0e-4, 5.5e-4]
_VALENCIA_READOUT = [
    (0.009, 0.016),
    (0.012, 0.021),
    (0.008, 0.014),
    (0.010, 0.018),
    (0.014, 0.024),
]
_VALENCIA_CX_ERROR: Dict[Tuple[int, int], float] = {
    (0, 1): 5.6e-3,
    (1, 2): 6.8e-3,
    (1, 3): 6.1e-3,
    (3, 4): 7.9e-3,
}
_SQ_GATE_TIME_US = 0.0355
_CX_GATE_TIME_US = 0.40
_MEASURE_TIME_US = 3.55


@dataclass
class QubitCalibration:
    """Coherence and readout data for one physical qubit."""

    t1_us: float
    t2_us: float
    readout_p10: float  # P(read 1 | prepared 0)
    readout_p01: float  # P(read 0 | prepared 1)
    frequency_ghz: float = 4.9

    def readout_error(self) -> ReadoutError:
        return ReadoutError(self.readout_p10, self.readout_p01)


@dataclass
class GateCalibration:
    """Average error and duration for one gate on specific qubits."""

    error: float
    duration_us: float


@dataclass
class Backend:
    """A quantum device description consumable by transpiler + simulator."""

    name: str
    num_qubits: int
    coupling_edges: List[Tuple[int, int]]
    basis_gates: List[str]
    qubits: List[QubitCalibration]
    single_qubit_gates: Dict[int, GateCalibration] = field(default_factory=dict)
    two_qubit_gates: Dict[Tuple[int, int], GateCalibration] = field(
        default_factory=dict
    )
    max_shots: int = 8192
    _noise_model: Optional[NoiseModel] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.qubits) != self.num_qubits:
            raise ValueError("qubit calibration list length mismatch")
        for a, b in self.coupling_edges:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"coupling edge ({a},{b}) out of range")

    # ------------------------------------------------------------------
    def symmetric_edges(self) -> List[Tuple[int, int]]:
        """Coupling edges in both directions."""
        seen = set()
        for a, b in self.coupling_edges:
            seen.add((a, b))
            seen.add((b, a))
        return sorted(seen)

    def cx_error(self, control: int, target: int) -> float:
        cal = self.two_qubit_gates.get((control, target))
        if cal is None:
            cal = self.two_qubit_gates.get((target, control))
        if cal is None:
            raise KeyError(f"no CX calibration for edge ({control},{target})")
        return cal.error

    # ------------------------------------------------------------------
    def noise_model(self) -> NoiseModel:
        """The Aer-style noise model of the calibration data.

        Each basis gate gets depolarizing error at its calibrated rate
        composed with thermal relaxation over its duration; measurement
        qubits get classical readout errors.  Built once per backend and
        shared (with the bindings memoised on its channels) by every
        simulation on it, so callers must not mutate it.
        """
        if self._noise_model is None:
            self._noise_model = self._build_noise_model()
        return self._noise_model

    def _build_noise_model(self) -> NoiseModel:
        model = NoiseModel(name=f"{self.name}-noise")
        for q, cal in enumerate(self.qubits):
            sq = self.single_qubit_gates.get(
                q, GateCalibration(4e-4, _SQ_GATE_TIME_US)
            )
            relax = thermal_relaxation(cal.t1_us, cal.t2_us, sq.duration_us)
            channel = depolarizing(sq.error).compose(relax)
            channel.name = f"sq_error_q{q}"
            model.add_quantum_error(
                channel, ["u2", "u3", "sx", "x", "h"], [q]
            )
            model.add_readout_error(cal.readout_error(), q)
        for (a, b), cal in self.two_qubit_gates.items():
            relax_a = thermal_relaxation(
                self.qubits[a].t1_us, self.qubits[a].t2_us, cal.duration_us
            )
            relax_b = thermal_relaxation(
                self.qubits[b].t1_us, self.qubits[b].t2_us, cal.duration_us
            )
            dep = depolarizing(cal.error, num_qubits=2)
            dep.name = f"cx_dep_{a}_{b}"
            # bound separately (not composed) so the trajectory sampler
            # keeps the cheap mixed-unitary path for the Pauli part
            for control, target in ((a, b), (b, a)):
                model.add_quantum_error(dep, ["cx"], [control, target])
                first_relax = relax_a if control == a else relax_b
                second_relax = relax_b if control == a else relax_a
                model.add_quantum_error(
                    first_relax, ["cx"], [control, target], slots=[0]
                )
                model.add_quantum_error(
                    second_relax, ["cx"], [control, target], slots=[1]
                )
        return model

    def __repr__(self) -> str:
        return (
            f"Backend(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.coupling_edges)})"
        )


def fake_valencia() -> Backend:
    """The 5-qubit ibmq_valencia model used throughout the paper."""
    qubits = [
        QubitCalibration(t1, t2, p10, p01)
        for (t1, t2, (p10, p01)) in zip(
            _VALENCIA_T1_US, _VALENCIA_T2_US, _VALENCIA_READOUT
        )
    ]
    single = {
        q: GateCalibration(err, _SQ_GATE_TIME_US)
        for q, err in enumerate(_VALENCIA_SQ_ERROR)
    }
    two = {
        edge: GateCalibration(err, _CX_GATE_TIME_US)
        for edge, err in _VALENCIA_CX_ERROR.items()
    }
    return Backend(
        name="fake_valencia",
        num_qubits=5,
        coupling_edges=list(VALENCIA_COUPLING),
        basis_gates=list(VALENCIA_BASIS_GATES),
        qubits=qubits,
        single_qubit_gates=single,
        two_qubit_gates=two,
    )


@functools.lru_cache(maxsize=64)
def valencia_like_backend(num_qubits: int) -> Backend:
    """Valencia-calibrated backend widened to *num_qubits* qubits.

    The paper simulates 7–12-qubit RevLib circuits "with FakeValencia"
    although the device has 5 qubits; this constructor makes the
    implied enlargement explicit: a line topology with Valencia error
    rates cycled across qubits and edges.  For ``num_qubits <= 5`` the
    genuine Valencia topology is returned.  One shared backend per
    width (with its one noise model): treat it as read-only.
    """
    if num_qubits <= 5:
        backend = fake_valencia()
        if num_qubits == 5:
            return backend
        edges = [
            (a, b)
            for (a, b) in backend.coupling_edges
            if a < num_qubits and b < num_qubits
        ]
        return Backend(
            name=f"fake_valencia_{num_qubits}q",
            num_qubits=num_qubits,
            coupling_edges=edges,
            basis_gates=list(VALENCIA_BASIS_GATES),
            qubits=backend.qubits[:num_qubits],
            single_qubit_gates={
                q: cal
                for q, cal in backend.single_qubit_gates.items()
                if q < num_qubits
            },
            two_qubit_gates={
                edge: cal
                for edge, cal in backend.two_qubit_gates.items()
                if edge[0] < num_qubits and edge[1] < num_qubits
            },
        )
    qubits = [
        QubitCalibration(
            _VALENCIA_T1_US[q % 5],
            _VALENCIA_T2_US[q % 5],
            *_VALENCIA_READOUT[q % 5],
        )
        for q in range(num_qubits)
    ]
    edges = [(q, q + 1) for q in range(num_qubits - 1)]
    single = {
        q: GateCalibration(_VALENCIA_SQ_ERROR[q % 5], _SQ_GATE_TIME_US)
        for q in range(num_qubits)
    }
    cx_errors = list(_VALENCIA_CX_ERROR.values())
    two = {
        edge: GateCalibration(cx_errors[i % len(cx_errors)], _CX_GATE_TIME_US)
        for i, edge in enumerate(edges)
    }
    return Backend(
        name=f"valencia_like_{num_qubits}q",
        num_qubits=num_qubits,
        coupling_edges=edges,
        basis_gates=list(VALENCIA_BASIS_GATES),
        qubits=qubits,
        single_qubit_gates=single,
        two_qubit_gates=two,
    )
