"""Plan lowering: the op IR every noise plan's spans are made of.

Every engine used to walk ``circuit`` instruction-by-instruction in a
Python loop, re-checking ``is_identity``, re-casting dtypes and
re-deriving reshape strides for the *same* gate of the *same* circuit
on every shot batch, experiment cell and service job.  A circuit is
now traced once into a :class:`~repro.execution.noise_plan.NoisePlan`
(noiseless runs use the noise-free plan, whose steps are pure spans),
and this module holds the two stages that plan is made of:

1. **trace** — :class:`TracedOp`, one resolved gate: matrix looked up,
   identity and diagonal gates classified.  The noise-plan builder
   makes one per gate, validating its arity once per circuit, never
   per gate application.
2. **lower & fuse** (:func:`lower_ops`) — drop identity gates, merge
   runs of adjacent 1-qubit gates on the same qubit into one 2x2
   product, fuse runs of commuting diagonal gates into a single
   elementwise multiply, and group overlapping gates into <=3-qubit
   blocks with precomputed matrices.  There is one lowering per
   circuit; the per-instruction loops it is checked against live in
   the test suite (``tests/reference_sim.py``).

Span ops execute through the shared kernels of
:mod:`repro.simulator.kernels` (:func:`~repro.simulator.kernels.contract_batch`
for matrix ops, :func:`~repro.simulator.kernels.multiply_diagonal`
for diagonals), which choose the GEMM or ``tensordot`` route per op.
Whole plans are cached by :mod:`repro.execution.plan_cache`, so
resimulating a circuit across shots, experiment cells, coalesced
service batches and oracle equivalence checks never re-traces.

Determinism contract
--------------------
Fusion reassociates floating-point products, so a plan agrees with the
per-instruction reference loops to ~1e-12 (relative to unit-norm
states), not bit for bit; sampled counts at fixed seeds are unchanged
unless a random draw lands within that margin of a probability
boundary.  Noisy plans keep every noise channel anchored to its gate,
and only the noiseless spans *between* anchors are fused (through
:func:`lower_ops`), since fusing across an anchor would change which
states the channels see.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.instruction import Instruction
from ..simulator.kernels import matrix_is_identity

__all__ = ["PlanOp", "TracedOp", "lower_ops"]

# fusion caps: blocks stay GEMM-friendly (<= 8x8 matrices); a fused
# diagonal is one elementwise multiply whatever its width, but capping
# it keeps the precomputed diagonal tensor small
_MAX_BLOCK_QUBITS = 3
_MAX_DIAG_QUBITS = 12


def _is_diagonal(matrix: np.ndarray) -> bool:
    """Exact off-diagonal-zero check.

    Gate constructors place literal zeros off the diagonal (rz, cz, cp,
    t, s, ...), so an exact comparison classifies every standard
    diagonal gate without a tolerance that could misclassify a nearly
    diagonal unitary.
    """
    return bool(np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0)


class TracedOp:
    """One resolved gate from the trace pass: a gate's matrix on its
    qubits, or a single-operator (hence unitary) noise channel folded
    into a span like a gate.

    Keeps the source :class:`Instruction` when there is one, plus the
    classification flags the lowering stage and the static checkers
    need.
    """

    __slots__ = ("matrix", "qubits", "instruction", "identity", "diagonal")

    def __init__(
        self,
        matrix: np.ndarray,
        qubits: Tuple[int, ...],
        instruction: Optional[Instruction] = None,
    ) -> None:
        self.instruction = instruction
        self.matrix = matrix
        self.qubits = qubits
        self.identity = matrix_is_identity(matrix)
        self.diagonal = False if self.identity else _is_diagonal(matrix)

    @classmethod
    def of(cls, instruction: Instruction) -> "TracedOp":
        """The traced form of a gate *instruction*."""
        matrix = instruction.operation.matrix
        return cls(matrix, instruction.qubits, instruction)


class PlanOp:
    """One lowered operation of a plan.

    ``kind`` is ``"matrix"`` (dense ``2^k x 2^k`` on ``qubits``, first
    listed qubit = most significant bit, the project-wide convention)
    or ``"diagonal"`` (a length-``2^k`` diagonal applied as an
    elementwise multiply).  Diagonals and composed blocks carry
    ``qubits`` sorted ascending; a matrix op left as a single gate
    keeps the instruction's qubit order.
    """

    __slots__ = ("kind", "matrix", "diag", "qubits")

    def __init__(
        self,
        kind: str,
        qubits: Tuple[int, ...],
        matrix: Optional[np.ndarray] = None,
        diag: Optional[np.ndarray] = None,
    ) -> None:
        self.kind = kind
        self.qubits = qubits
        self.matrix = matrix
        self.diag = diag

    def to_matrix(self) -> np.ndarray:
        """Dense matrix form (used when a diagonal joins a block)."""
        if self.kind == "matrix":
            return self.matrix
        return np.diag(self.diag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanOp({self.kind!r}, qubits={self.qubits})"


def _gate_diag(matrix: np.ndarray, qubits: Tuple[int, ...]) -> PlanOp:
    """Diagonal :class:`PlanOp` for a diagonal gate, qubits ascending.

    The stored vector is re-indexed so the *smallest* qubit is the most
    significant bit — the convention a matrix op with an ascending
    qubit tuple uses, keeping dense reconstruction trivial.
    """
    diag = np.ascontiguousarray(np.diagonal(matrix))
    k = len(qubits)
    order = tuple(sorted(range(k), key=lambda i: qubits[i]))
    if order != tuple(range(k)):
        diag = (
            diag.reshape((2,) * k).transpose(order).reshape(-1)
        )
        diag = np.ascontiguousarray(diag)
    return PlanOp("diagonal", tuple(sorted(qubits)), diag=diag)


def _fuse_1q_runs(ops: List[PlanOp]) -> List[PlanOp]:
    """Merge runs of 1q gates per qubit into one 2x2 product.

    A pending 1q product on qubit ``q`` commutes with every emitted op
    that does not touch ``q``, so it is flushed only when a wider gate
    needs ``q`` (immediately before it) or at the end of the stream.
    """
    out: List[PlanOp] = []
    pending: Dict[int, np.ndarray] = {}

    def _flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is not None:
            out.append(PlanOp("matrix", (qubit,), matrix=matrix))

    for op in ops:
        if op.kind == "matrix" and len(op.qubits) == 1:
            q = op.qubits[0]
            prior = pending.get(q)
            pending[q] = (
                op.matrix if prior is None else op.matrix @ prior
            )
            continue
        for q in op.qubits:
            _flush(q)
        out.append(op)
    for q in sorted(pending):
        _flush(q)
    return out


def _fuse_diagonal_runs(ops: List[PlanOp]) -> List[PlanOp]:
    """Collapse consecutive diagonal gates into one elementwise multiply.

    Diagonal gates all commute, so any run of them — whatever qubits
    each touches — composes into a single diagonal over the union
    (capped at ``_MAX_DIAG_QUBITS`` qubits).
    """
    out: List[PlanOp] = []
    run: List[PlanOp] = []
    run_qubits: set = set()

    def _flush() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        else:
            union = tuple(sorted(run_qubits))
            combined = np.ones((2,) * len(union), dtype=complex)
            for op in run:
                shape = tuple(
                    2 if q in op.qubits else 1 for q in union
                )
                combined = combined * op.diag.reshape(shape)
            out.append(
                PlanOp(
                    "diagonal",
                    union,
                    diag=np.ascontiguousarray(combined.reshape(-1)),
                )
            )
        run.clear()
        run_qubits.clear()

    for op in ops:
        if (
            op.kind == "diagonal"
            and len(run_qubits | set(op.qubits)) <= _MAX_DIAG_QUBITS
        ):
            run.append(op)
            run_qubits.update(op.qubits)
        else:
            _flush()
            if op.kind == "diagonal":
                run.append(op)
                run_qubits.update(op.qubits)
            else:
                out.append(op)
    _flush()
    return out


@lru_cache(maxsize=None)
def _embedding(positions: Tuple[int, ...], m: int) -> Tuple:
    """``(select, same)`` embedding a gate on the local *positions*
    (first listed = most significant) of an *m*-qubit block, local 0
    the block's most significant bit: the embedded matrix is
    ``matrix[select] * same``."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    rest = [p for p in range(m) if p not in positions]
    gate, other = (
        bits[:, list(chosen)] @ (1 << np.arange(len(chosen) - 1, -1, -1))
        for chosen in (positions, rest)
    )
    return np.ix_(gate, gate), other[:, None] == other[None, :]


def _compose_block(ops: Sequence[PlanOp], qubits: Tuple[int, ...]) -> np.ndarray:
    """Dense unitary of *ops* on the block register *qubits* (ascending).

    The result follows the project convention for a gate listed with
    ascending qubits: the smallest qubit is the most significant bit.
    Each op's matrix is embedded in the block's ``2^m`` space and
    multiplied on, one small matmul per op.
    """
    local = {q: j for j, q in enumerate(qubits)}
    unitary = np.eye(1 << len(qubits), dtype=complex)
    for op in ops:
        select, same = _embedding(
            tuple(local[q] for q in op.qubits), len(qubits)
        )
        unitary = (op.to_matrix()[select] * same) @ unitary
    return unitary


def _fuse_blocks(ops: List[PlanOp]) -> List[PlanOp]:
    """Greedy grouping of overlapping gates into <=3-qubit blocks."""
    out: List[PlanOp] = []
    block: List[PlanOp] = []
    block_qubits: set = set()

    def _flush() -> None:
        if not block:
            return
        if len(block) == 1:
            out.append(block[0])
        else:
            qubits = tuple(sorted(block_qubits))
            matrix = _compose_block(block, qubits)
            if _is_diagonal(matrix):
                out.append(_gate_diag(matrix, qubits))
            else:
                out.append(PlanOp("matrix", qubits, matrix=matrix))
        block.clear()
        block_qubits.clear()

    for op in ops:
        if len(op.qubits) > _MAX_BLOCK_QUBITS:
            _flush()
            out.append(op)
            continue
        if not block or len(block_qubits | set(op.qubits)) <= _MAX_BLOCK_QUBITS:
            block.append(op)
            block_qubits.update(op.qubits)
        else:
            _flush()
            block.append(op)
            block_qubits.update(op.qubits)
    _flush()
    return out


def lower_ops(ops: Sequence[TracedOp]) -> List[PlanOp]:
    """Lower one span of traced ops into a fused :class:`PlanOp` stream.

    :func:`~repro.execution.noise_plan.build_noise_plan` fuses every
    noiseless span *between* channel anchors with exactly these passes.
    Accepts any objects exposing the
    ``matrix``/``qubits``/``identity``/``diagonal`` attributes of
    :class:`TracedOp`.  Identity gates are dropped (the kernels skip
    them too).
    """
    lowered = [
        _gate_diag(op.matrix, op.qubits)
        if op.diagonal
        else PlanOp("matrix", op.qubits, matrix=op.matrix)
        for op in ops
        if not op.identity
    ]
    lowered = _fuse_1q_runs(lowered)
    lowered = _fuse_diagonal_runs(lowered)
    return _fuse_blocks(lowered)
