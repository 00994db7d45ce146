"""Quantum gate library.

Every gate is an immutable object carrying a name, a qubit arity, an
optional parameter list and a unitary matrix.  The matrix convention is
*first listed qubit = most significant bit* of the matrix index: for a
two-qubit gate applied to ``(q0, q1)`` the basis ordering of the 4x4
matrix is ``|q0 q1> = |00>, |01>, |10>, |11>``.  The statevector engine
(:mod:`repro.simulator.statevector`) applies matrices under the same
convention, so circuits behave identically regardless of which physical
qubits a gate touches.

The global *state* indexing used across the project is little-endian
(Qiskit convention): bit ``i`` of a computational basis index is the
state of qubit ``i``, and measurement bitstrings are written with qubit
0 as the right-most character.

Adding a standard gate takes one class and one registry entry.  The
class states its ``name``, ``num_qubits`` (default 1), ``num_params``
(default 0) and ``adjoint`` (the registered name of the gate that
undoes it once its parameters are negated; ``None`` falls back to an
explicit :class:`UnitaryGate`), plus its matrix: a fixed gate holds one
frozen class-level ``matrix``, a parameterised gate implements
``_build_matrix`` (built once per instance).  Listing the class in
:data:`GATE_REGISTRY` makes it reachable by name from
:func:`gate_from_name`, the QASM reader and :func:`random_circuit
<repro.circuits.random_circuits.random_circuit>`.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "Barrier",
    "Measure",
    "GATE_REGISTRY",
    "gate_from_name",
    "standard_gate_names",
    "controlled_matrix",
    "IGate",
    "XGate",
    "YGate",
    "ZGate",
    "HGate",
    "SGate",
    "SdgGate",
    "TGate",
    "TdgGate",
    "SXGate",
    "RXGate",
    "RYGate",
    "RZGate",
    "PhaseGate",
    "U1Gate",
    "U2Gate",
    "U3Gate",
    "CXGate",
    "CYGate",
    "CZGate",
    "CHGate",
    "SwapGate",
    "CRZGate",
    "CPhaseGate",
    "CCXGate",
    "CSwapGate",
    "MCXGate",
    "UnitaryGate",
]

_ATOL = 1e-10


def _is_unitary(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return True when *matrix* is unitary within *atol*."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix @ matrix.conj().T, identity, atol=atol))


def _frozen(values) -> np.ndarray:
    """*values* as a read-only complex matrix (no copy if already complex)."""
    matrix = np.asarray(values, dtype=complex)
    matrix.setflags(write=False)
    return matrix


class Gate:
    """Base class for unitary quantum gates.

    What a subclass states is set out in the module docstring.  Gates
    compare equal when their name and parameters match (modulo floating
    point noise).
    """

    name: str = "gate"
    num_qubits: int = 1
    num_params: int = 0
    # registered name of the gate that, given the negated parameters,
    # implements the adjoint; None falls back to an explicit UnitaryGate
    adjoint: Optional[str] = None
    _matrix: Optional[np.ndarray] = None  # built by the matrix property

    def __init__(self, params: Optional[Sequence[float]] = None) -> None:
        self.params: Tuple[float, ...] = tuple(
            float(p) for p in (() if params is None else params)
        )
        if len(self.params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_params} parameter(s), "
                f"got {len(self.params)}"
            )

    # -- matrix ---------------------------------------------------------
    def _build_matrix(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def matrix(self) -> np.ndarray:
        """The (cached, read-only) unitary matrix of the gate."""
        if self._matrix is None:
            self._matrix = _frozen(self._build_matrix())
        return self._matrix

    # -- algebra --------------------------------------------------------
    def inverse(self) -> "Gate":
        """Return a gate implementing the adjoint of this gate.

        The :attr:`adjoint` gate with every parameter negated (the gate
        itself for self-inverse gates and rotations); without one, a
        :class:`UnitaryGate` wrapping the conjugate transpose.
        """
        if self.adjoint is None:
            return UnitaryGate(self.matrix.conj().T, label=f"{self.name}_dg")
        return GATE_REGISTRY[self.adjoint]([-p for p in self.params])

    def is_self_inverse(self) -> bool:
        """True when ``U @ U`` is the identity."""
        mat = self.matrix
        return bool(np.allclose(mat @ mat, np.eye(mat.shape[0]), atol=1e-8))

    # -- misc -----------------------------------------------------------
    def copy(self) -> "Gate":
        return type(self)(self.params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if self.name != other.name or len(self.params) != len(other.params):
            return False
        return all(
            abs(a - b) < 1e-9 for a, b in zip(self.params, other.params)
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(round(p, 9) for p in self.params)))

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{type(self).__name__}({args})"
        return f"{type(self).__name__}()"


class Barrier:
    """A scheduling barrier.  Not a unitary; blocks layer compaction."""

    name = "barrier"

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = int(num_qubits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Barrier) and other.num_qubits == self.num_qubits

    def __hash__(self) -> int:
        return hash(("barrier", self.num_qubits))

    def __repr__(self) -> str:
        return f"Barrier({self.num_qubits})"


class Measure:
    """A computational-basis measurement of a single qubit."""

    name = "measure"
    num_qubits = 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Measure)

    def __hash__(self) -> int:
        return hash("measure")

    def __repr__(self) -> str:
        return "Measure()"


# ---------------------------------------------------------------------------
# single-qubit gates
# ---------------------------------------------------------------------------


class IGate(Gate):
    """Identity gate."""

    name = "id"
    adjoint = "id"
    matrix = _frozen(np.eye(2))


class XGate(Gate):
    """Pauli-X (NOT) gate."""

    name = "x"
    adjoint = "x"
    matrix = _frozen([[0, 1], [1, 0]])


class YGate(Gate):
    """Pauli-Y gate."""

    name = "y"
    adjoint = "y"
    matrix = _frozen([[0, -1j], [1j, 0]])


class ZGate(Gate):
    """Pauli-Z gate."""

    name = "z"
    adjoint = "z"
    matrix = _frozen([[1, 0], [0, -1]])


class HGate(Gate):
    """Hadamard gate."""

    name = "h"
    adjoint = "h"
    matrix = _frozen(np.array([[1, 1], [1, -1]]) / math.sqrt(2))


class SGate(Gate):
    """Phase gate S = sqrt(Z)."""

    name = "s"
    adjoint = "sdg"
    matrix = _frozen([[1, 0], [0, 1j]])


class SdgGate(Gate):
    """Adjoint of the S gate."""

    name = "sdg"
    adjoint = "s"
    matrix = _frozen([[1, 0], [0, -1j]])


class TGate(Gate):
    """T gate (pi/8 gate)."""

    name = "t"
    adjoint = "tdg"
    matrix = _frozen([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])


class TdgGate(Gate):
    """Adjoint of the T gate."""

    name = "tdg"
    adjoint = "t"
    matrix = _frozen([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])


class SXGate(Gate):
    """Square root of X."""

    name = "sx"
    matrix = _frozen(np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2)

    def inverse(self) -> Gate:
        return UnitaryGate(self.matrix.conj().T, label="sxdg")


class RXGate(Gate):
    """Rotation about the X axis by ``theta``."""

    name = "rx"
    num_params = 1
    adjoint = "rx"

    def _build_matrix(self) -> np.ndarray:
        theta = self.params[0]
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[cos, -1j * sin], [-1j * sin, cos]])


class RYGate(Gate):
    """Rotation about the Y axis by ``theta``."""

    name = "ry"
    num_params = 1
    adjoint = "ry"

    def _build_matrix(self) -> np.ndarray:
        theta = self.params[0]
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[cos, -sin], [sin, cos]])


class RZGate(Gate):
    """Rotation about the Z axis by ``phi`` (global-phase-symmetric)."""

    name = "rz"
    num_params = 1
    adjoint = "rz"

    def _build_matrix(self) -> np.ndarray:
        phi = self.params[0]
        return np.array(
            [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]]
        )


class PhaseGate(Gate):
    """Phase gate ``diag(1, e^{i lambda})``."""

    name = "p"
    num_params = 1
    adjoint = "p"

    def _build_matrix(self) -> np.ndarray:
        return np.array([[1, 0], [0, cmath.exp(1j * self.params[0])]])


class U1Gate(PhaseGate):
    """IBM U1 gate — identical matrix to :class:`PhaseGate`."""

    name = "u1"
    adjoint = "u1"


class U2Gate(Gate):
    """IBM U2(phi, lam) gate: a single-row Bloch rotation.

    ``U2(phi, lam) = U3(pi/2, phi, lam)``.
    """

    name = "u2"
    num_params = 2

    def _build_matrix(self) -> np.ndarray:
        phi, lam = self.params
        return U3Gate([math.pi / 2, phi, lam]).matrix

    def inverse(self) -> Gate:
        phi, lam = self.params
        return U3Gate([-math.pi / 2, -lam, -phi])


class U3Gate(Gate):
    """Generic single-qubit rotation ``U3(theta, phi, lam)``."""

    name = "u3"
    num_params = 3

    def _build_matrix(self) -> np.ndarray:
        theta, phi, lam = self.params
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [cos, -cmath.exp(1j * lam) * sin],
                [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
            ]
        )

    def inverse(self) -> Gate:
        theta, phi, lam = self.params
        return U3Gate([-theta, -lam, -phi])


# ---------------------------------------------------------------------------
# multi-qubit gates
# ---------------------------------------------------------------------------


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Embed *base* as a controlled operation with *num_controls* controls.

    Controls are the most significant qubits, matching the project-wide
    "first listed qubit = most significant" convention, so the base
    operation occupies the bottom-right block.
    """
    dim = base.shape[0] << num_controls
    mat = np.eye(dim, dtype=complex)
    mat[dim - base.shape[0]:, dim - base.shape[0]:] = base
    return mat


class CXGate(Gate):
    """Controlled-NOT gate; qubit order (control, target)."""

    name = "cx"
    num_qubits = 2
    adjoint = "cx"
    matrix = _frozen(controlled_matrix(XGate.matrix))


class CYGate(Gate):
    """Controlled-Y gate; qubit order (control, target)."""

    name = "cy"
    num_qubits = 2
    adjoint = "cy"
    matrix = _frozen(controlled_matrix(YGate.matrix))


class CZGate(Gate):
    """Controlled-Z gate (symmetric in its qubits)."""

    name = "cz"
    num_qubits = 2
    adjoint = "cz"
    matrix = _frozen(controlled_matrix(ZGate.matrix))


class CHGate(Gate):
    """Controlled-Hadamard gate; qubit order (control, target)."""

    name = "ch"
    num_qubits = 2
    adjoint = "ch"
    matrix = _frozen(controlled_matrix(HGate.matrix))


class SwapGate(Gate):
    """SWAP gate."""

    name = "swap"
    num_qubits = 2
    adjoint = "swap"
    matrix = _frozen(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )


class CRZGate(Gate):
    """Controlled-RZ gate; qubit order (control, target)."""

    name = "crz"
    num_qubits = 2
    num_params = 1
    adjoint = "crz"

    def _build_matrix(self) -> np.ndarray:
        return controlled_matrix(RZGate(self.params).matrix)


class CPhaseGate(Gate):
    """Controlled-phase gate (symmetric)."""

    name = "cp"
    num_qubits = 2
    num_params = 1
    adjoint = "cp"

    def _build_matrix(self) -> np.ndarray:
        return controlled_matrix(PhaseGate(self.params).matrix)


class CCXGate(Gate):
    """Toffoli gate; qubit order (control, control, target)."""

    name = "ccx"
    num_qubits = 3
    adjoint = "ccx"
    matrix = _frozen(controlled_matrix(XGate.matrix, num_controls=2))


class CSwapGate(Gate):
    """Fredkin gate; qubit order (control, target, target)."""

    name = "cswap"
    num_qubits = 3
    adjoint = "cswap"
    matrix = _frozen(controlled_matrix(SwapGate.matrix))


class MCXGate(Gate):
    """Multi-controlled X with an arbitrary number of controls.

    ``MCXGate(0)`` degenerates to X and ``MCXGate(1)`` to CX; RevLib
    Toffoli networks routinely use three or more controls.
    """

    num_qubits = 0  # overridden per instance

    def __init__(self, num_controls: int) -> None:
        super().__init__()
        if num_controls < 0:
            raise ValueError("number of controls must be non-negative")
        self.num_controls = int(num_controls)
        self.num_qubits = self.num_controls + 1
        self.name = f"mcx{self.num_controls}" if num_controls > 2 else (
            "ccx" if num_controls == 2 else ("cx" if num_controls == 1 else "x")
        )

    def _build_matrix(self) -> np.ndarray:
        return controlled_matrix(XGate.matrix, num_controls=self.num_controls)

    def inverse(self) -> Gate:
        return MCXGate(self.num_controls)

    def copy(self) -> Gate:
        return MCXGate(self.num_controls)

    def __repr__(self) -> str:
        return f"MCXGate({self.num_controls})"


class UnitaryGate(Gate):
    """An arbitrary unitary supplied as an explicit matrix.

    Its inverse is the base rule's :class:`UnitaryGate` fallback,
    labelled ``<name>_dg``.
    """

    name = "unitary"

    def __init__(self, matrix: np.ndarray, label: Optional[str] = None) -> None:
        super().__init__()
        matrix = np.asarray(matrix, dtype=complex)
        if not _is_unitary(matrix):
            raise ValueError("matrix is not unitary")
        size = matrix.shape[0]
        num_qubits = int(round(math.log2(size)))
        if 2 ** num_qubits != size:
            raise ValueError("matrix dimension must be a power of two")
        self.num_qubits = num_qubits
        if label:
            self.name = label
        self._matrix = _frozen(matrix.copy())

    def copy(self) -> Gate:
        return UnitaryGate(self.matrix, label=self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitaryGate):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool(
            np.allclose(self.matrix, other.matrix, atol=_ATOL)
        )

    def __hash__(self) -> int:
        return hash(("unitary", self.matrix.shape[0]))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

GATE_REGISTRY: Dict[str, type] = {
    cls.name: cls
    for cls in (
        IGate,
        XGate,
        YGate,
        ZGate,
        HGate,
        SGate,
        SdgGate,
        TGate,
        TdgGate,
        SXGate,
        RXGate,
        RYGate,
        RZGate,
        PhaseGate,
        U1Gate,
        U2Gate,
        U3Gate,
        CXGate,
        CYGate,
        CZGate,
        CHGate,
        SwapGate,
        CRZGate,
        CPhaseGate,
        CCXGate,
        CSwapGate,
    )
}


def standard_gate_names() -> List[str]:
    """Names of all registered standard gates."""
    return sorted(GATE_REGISTRY)


def gate_from_name(name: str, params: Optional[Sequence[float]] = None) -> Gate:
    """Instantiate a standard gate by name.

    ``mcxK`` names build :class:`MCXGate` with ``K`` controls.  Raises
    :class:`KeyError` for unknown names and :class:`ValueError` when the
    parameter count does not match.
    """
    name = name.lower()
    params = () if params is None else tuple(params)
    if name.startswith("mcx") and name[3:].isdigit():
        if params:
            raise ValueError(
                f"gate {name!r} expects 0 parameter(s), got {len(params)}"
            )
        return MCXGate(int(name[3:]))
    if name not in GATE_REGISTRY:
        raise KeyError(f"unknown gate: {name!r}")
    return GATE_REGISTRY[name](params)
