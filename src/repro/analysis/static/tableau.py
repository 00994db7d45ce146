"""Stabilizer-tableau symbolic execution and equivalence certificates.

For Clifford circuits, conjugation of the ``2n`` Pauli generators
``X_0..X_{n-1}, Z_0..Z_{n-1}`` determines the unitary up to global
phase — so two op streams are equivalent iff they produce the same
tableau, checkable in polynomial time (no ``2^n`` statevector).  This
module symbolically executes both a circuit's traced gate stream and
the span ops of its noise-free
:class:`~repro.execution.noise_plan.NoisePlan` and issues an
equivalence certificate, a direct stepping stone to the
ROADMAP's stabilizer engine.

Representation: a Pauli is ``i^phase · (∏_q X_q^{x_q}) (∏_q Z_q^{z_q})``
with ``x``/``z`` boolean vectors and ``phase`` mod 4 (X factors
canonically left of Z factors).  The product rule is

    ``(x1,z1,p1)·(x2,z2,p2) = (x1^x2, z1^z2, p1+p2+2·|z1&x2| mod 4)``

from commuting each ``X`` of the right operand through the ``Z`` of the
left (``Z X = -X Z``).

Clifford recognition is *generic*, not name-based: any dense op (a
fused 1q product, a >=2-qubit block, a ``"none"``-level gate) is tested
by conjugating each local generator and decoding the result as a signed
Pauli from its monomial structure — ``U P U†`` must map basis state
``b`` to ``b ⊕ x`` with phases ``c·(-1)^{z·b}``, ``c ∈ {±1, ±i}``.
Fused *diagonal* ops (up to 12 qubits) are recognised directly from the
diagonal vector — ``Z`` images are fixed points and ``X_t`` images
decode from the ratio vector ``d[b⊕e_t]·conj(d[b])`` — so a wide fused
CZ/S run certifies without ever materialising a ``4096x4096`` matrix.
Non-Clifford ops raise :class:`NotCliffordError`; the certificate then
reports ``"not_clifford"`` (certification unavailable) rather than a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ...execution.plan import PlanOp

__all__ = [
    "NotCliffordError",
    "Tableau",
    "TableauCertificate",
    "certify_equivalence",
    "clifford_images",
    "tableau_from_ops",
]

_ATOL = 1e-8


class NotCliffordError(ValueError):
    """An op does not normalise the Pauli group."""

    def __init__(self, message: str, op_index: Optional[int] = None) -> None:
        self.op_index = op_index
        super().__init__(message)


def _popcount(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    count = np.zeros_like(values)
    while values.any():
        count += values & 1
        values >>= 1
    return count


def _decode_phase_vector(
    vals: np.ndarray, k: int, atol: float
) -> Tuple[List[bool], int]:
    """Decode ``vals[b] = i^p · (-1)^{z·b}`` -> (z bits, phase).

    *vals* indexes basis states with the local MSB-first convention
    (bit of local qubit ``t`` at position ``k-1-t``).  Raises
    :class:`NotCliffordError` when the vector is not of that form.
    """
    c = vals[0]
    if abs(abs(c) - 1.0) > atol:
        raise NotCliffordError("conjugated Pauli has a non-unimodular phase")
    ratios = vals / c
    if np.abs(np.imag(ratios)).max() > atol:
        raise NotCliffordError("conjugated Pauli phases are not ±1 relative")
    signs = np.real(ratios)
    if np.abs(np.abs(signs) - 1.0).max() > atol:
        raise NotCliffordError("conjugated Pauli phases are not ±1 relative")
    z = [bool(signs[1 << (k - 1 - t)] < 0) for t in range(k)]
    zmask = 0
    for t in range(k):
        if z[t]:
            zmask |= 1 << (k - 1 - t)
    parity = _popcount(np.arange(1 << k) & zmask) & 1
    if np.abs(signs - (1.0 - 2.0 * parity)).max() > atol:
        raise NotCliffordError("sign pattern is not linear in the basis bits")
    for p in range(4):
        if abs(c - 1j**p) <= atol:
            return z, p
    raise NotCliffordError("global factor is not a power of i")


def _decode_pauli_matrix(
    matrix: np.ndarray, k: int, atol: float
) -> Tuple[List[bool], List[bool], int]:
    """Decode a dense ``U P U†`` as ``i^p X^x Z^z`` or raise."""
    dim = 1 << k
    cols = np.arange(dim)
    rows = np.abs(matrix).argmax(axis=0)
    vals = matrix[rows, cols]
    if np.abs(np.abs(vals) - 1.0).max() > atol:
        raise NotCliffordError("conjugated Pauli is not a monomial matrix")
    x_index = int(rows[0])
    if not np.array_equal(rows, cols ^ x_index):
        raise NotCliffordError("conjugated Pauli is not an X^x Z^z pattern")
    x = [bool((x_index >> (k - 1 - t)) & 1) for t in range(k)]
    z, phase = _decode_phase_vector(vals, k, atol)
    return x, z, phase


def clifford_images(
    matrix: np.ndarray, k: int, *, atol: float = _ATOL
) -> Tuple[List[Tuple], List[Tuple]]:
    """Images ``U X_t U†`` / ``U Z_t U†`` of the local generators.

    Returns two length-*k* lists of ``(x_bits, z_bits, phase)`` local
    Paulis, or raises :class:`NotCliffordError`.
    """
    dim = 1 << k
    adjoint = matrix.conj().T
    idx = np.arange(dim)
    img_x: List[Tuple] = []
    img_z: List[Tuple] = []
    for t in range(k):
        bit = 1 << (k - 1 - t)
        pauli_x = np.zeros((dim, dim), dtype=complex)
        pauli_x[idx ^ bit, idx] = 1.0
        img_x.append(
            _decode_pauli_matrix(matrix @ pauli_x @ adjoint, k, atol)
        )
        pauli_z = np.diag(1.0 - 2.0 * ((idx & bit) != 0).astype(float))
        img_z.append(
            _decode_pauli_matrix(
                matrix @ pauli_z.astype(complex) @ adjoint, k, atol
            )
        )
    return img_x, img_z


def diagonal_clifford_images(
    diag: np.ndarray, k: int, *, atol: float = _ATOL
) -> Tuple[List[Tuple], List[Tuple]]:
    """Generator images for a diagonal unitary, from its vector alone.

    ``D Z_t D† = Z_t`` always; ``D X_t D†`` decodes from the ratio
    vector ``d[b ⊕ e_t] · conj(d[b])``.  Never builds a dense matrix,
    so 12-qubit fused diagonals stay cheap (``O(k · 2^k)``).
    """
    dim = 1 << k
    idx = np.arange(dim)
    img_x: List[Tuple] = []
    img_z: List[Tuple] = []
    for t in range(k):
        bit = 1 << (k - 1 - t)
        ratios = diag[idx ^ bit] * np.conj(diag)
        z, phase = _decode_phase_vector(ratios, k, atol)
        x_bits = [s == t for s in range(k)]
        img_x.append((x_bits, z, phase))
        img_z.append(
            ([False] * k, [s == t for s in range(k)], 0)
        )
    return img_x, img_z


def _mul(
    x1: np.ndarray, z1: np.ndarray, p1: int,
    x2: np.ndarray, z2: np.ndarray, p2: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    phase = (p1 + p2 + 2 * int(np.count_nonzero(z1 & x2))) % 4
    return x1 ^ x2, z1 ^ z2, phase


class Tableau:
    """Images of the ``2n`` Pauli generators under the circuit so far.

    Row ``i`` is the image of ``X_i``, row ``n+i`` the image of
    ``Z_i``.  :meth:`apply` conjugates every row by one more gate.
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        n = num_qubits
        self.xs = np.zeros((2 * n, n), dtype=bool)
        self.zs = np.zeros((2 * n, n), dtype=bool)
        self.phases = np.zeros(2 * n, dtype=np.int64)
        for i in range(n):
            self.xs[i, i] = True
            self.zs[n + i, i] = True

    def apply(
        self,
        qubits: Sequence[int],
        images: Tuple[List[Tuple], List[Tuple]],
    ) -> None:
        """Conjugate every row by a gate on *qubits* with local *images*."""
        n = self.num_qubits
        k = len(qubits)
        q = np.asarray(qubits, dtype=int)
        # embed the local generator images into global Paulis once
        def _embed(local: Tuple) -> Tuple[np.ndarray, np.ndarray, int]:
            lx, lz, p = local
            gx = np.zeros(n, dtype=bool)
            gz = np.zeros(n, dtype=bool)
            gx[q] = lx
            gz[q] = lz
            return gx, gz, p

        img_x = [_embed(im) for im in images[0]]
        img_z = [_embed(im) for im in images[1]]
        for r in range(2 * n):
            a = self.xs[r, q]
            b = self.zs[r, q]
            if not a.any() and not b.any():
                continue
            rest_x = self.xs[r].copy()
            rest_z = self.zs[r].copy()
            rest_x[q] = False
            rest_z[q] = False
            acc_x = np.zeros(n, dtype=bool)
            acc_z = np.zeros(n, dtype=bool)
            acc_p = int(self.phases[r])
            for t in range(k):
                if a[t]:
                    acc_x, acc_z, acc_p = _mul(acc_x, acc_z, acc_p, *img_x[t])
            for t in range(k):
                if b[t]:
                    acc_x, acc_z, acc_p = _mul(acc_x, acc_z, acc_p, *img_z[t])
            # the remainder acts on disjoint qubits: no phase cross-term
            acc_x, acc_z, acc_p = _mul(acc_x, acc_z, acc_p, rest_x, rest_z, 0)
            self.xs[r] = acc_x
            self.zs[r] = acc_z
            self.phases[r] = acc_p

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        self.apply(qubits, clifford_images(matrix, len(qubits)))

    def apply_diagonal(self, diag: np.ndarray, qubits: Sequence[int]) -> None:
        self.apply(qubits, diagonal_clifford_images(diag, len(qubits)))

    def same_as(self, other: "Tableau") -> bool:
        return (
            self.num_qubits == other.num_qubits
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.zs, other.zs)
            and np.array_equal(self.phases, other.phases)
        )

    def first_difference(self, other: "Tableau") -> Optional[str]:
        """Human-readable name of the first differing generator image."""
        n = self.num_qubits
        for r in range(2 * n):
            if (
                not np.array_equal(self.xs[r], other.xs[r])
                or not np.array_equal(self.zs[r], other.zs[r])
                or self.phases[r] != other.phases[r]
            ):
                gen = f"X_{r}" if r < n else f"Z_{r - n}"
                return (
                    f"images of {gen} differ: "
                    f"{self._row_str(r)} vs {other._row_str(r)}"
                )
        return None

    def _row_str(self, r: int) -> str:
        terms = []
        for qq in range(self.num_qubits):
            x, z = bool(self.xs[r, qq]), bool(self.zs[r, qq])
            if x and z:
                terms.append(f"Y_{qq}")
            elif x:
                terms.append(f"X_{qq}")
            elif z:
                terms.append(f"Z_{qq}")
        body = "·".join(terms) if terms else "I"
        prefix = {0: "+", 1: "+i·", 2: "-", 3: "-i·"}[int(self.phases[r]) % 4]
        # X·Z on one qubit is -i·Y, fold that into the printed phase
        return f"{prefix}{body}"


def tableau_from_ops(
    ops: Sequence, num_qubits: int, *, atol: float = _ATOL
) -> Tableau:
    """Symbolically execute an op stream (traced or lowered).

    Accepts :class:`~repro.execution.plan.TracedOp`-likes (``matrix``/
    ``qubits``/``identity``) and :class:`PlanOp`s; identity source ops
    are skipped, matching the lowering.  Raises
    :class:`NotCliffordError` (with the op index) on the first
    non-Clifford op.
    """
    tab = Tableau(num_qubits)
    for i, op in enumerate(ops):
        try:
            if isinstance(op, PlanOp):
                if op.kind == "diagonal":
                    tab.apply_diagonal(op.diag, op.qubits)
                else:
                    tab.apply_matrix(op.matrix, op.qubits)
            else:
                if getattr(op, "identity", False):
                    continue
                tab.apply_matrix(op.matrix, op.qubits)
        except NotCliffordError as exc:
            raise NotCliffordError(
                f"op {i} on qubits {tuple(op.qubits)} is not Clifford: "
                f"{exc}",
                op_index=i,
            ) from None
    return tab


@dataclass
class TableauCertificate:
    """Outcome of a tableau equivalence check between two op streams."""

    status: str  # "certified" | "mismatch" | "not_clifford"
    detail: str
    num_qubits: int
    source_ops: int
    plan_ops: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def ok(self) -> bool:
        """Not a counterexample ("not_clifford" = certificate unavailable)."""
        return self.status != "mismatch"

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "detail": self.detail,
            "num_qubits": self.num_qubits,
            "source_ops": self.source_ops,
            "plan_ops": self.plan_ops,
        }

    def summary(self) -> str:
        return f"tableau: {self.status} ({self.detail})"


def certify_equivalence(
    source_ops: Sequence,
    plan_ops: Sequence,
    num_qubits: int,
    *,
    atol: float = _ATOL,
) -> TableauCertificate:
    """Certify that two op streams implement the same Clifford unitary.

    ``"certified"`` proves equivalence up to global phase in polynomial
    time; ``"mismatch"`` is a hard counterexample naming the first
    generator whose images differ; ``"not_clifford"`` means the streams
    leave the Clifford group and no certificate is available.
    """
    live = sum(
        1 for op in source_ops if not getattr(op, "identity", False)
    )
    counts = dict(
        num_qubits=num_qubits, source_ops=live, plan_ops=len(plan_ops)
    )
    try:
        source_tab = tableau_from_ops(source_ops, num_qubits, atol=atol)
    except NotCliffordError as exc:
        return TableauCertificate("not_clifford", f"source: {exc}", **counts)
    try:
        plan_tab = tableau_from_ops(plan_ops, num_qubits, atol=atol)
    except NotCliffordError as exc:
        return TableauCertificate("not_clifford", f"plan: {exc}", **counts)
    if source_tab.same_as(plan_tab):
        return TableauCertificate(
            "certified",
            f"all {2 * num_qubits} generator images agree",
            **counts,
        )
    return TableauCertificate(
        "mismatch", plan_tab.first_difference(source_tab) or "", **counts
    )
