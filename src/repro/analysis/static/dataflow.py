"""Per-qubit dataflow analysis over op streams.

Two jobs:

* **def-use / light-cone analysis** (:func:`def_use_chains`,
  :func:`light_cone`) — which ops touch each qubit, in order, and the
  backward cone of ops that can influence a given qubit's final state.
* **lowering verification** (:func:`verify_lowering`) — a proof that a
  lowered :class:`~repro.execution.plan.PlanOp` stream is a
  reordering-safe fusion of its source ops.

The lowering passes carry no provenance (a fused op does not record
which source gates produced it), so the verifier reconstructs it by
*replay*: for each lowered op with support ``S``, scan the remaining
source ops in program order and greedily absorb every op whose support
is contained in ``S``, composing them on ``S``'s local space.  Ops with
support disjoint from ``S`` commute trivially and are skipped; an op
that *intersects* ``S`` without being contained blocks the scan — it
cannot legally move past the fused op.  The absorbed product must equal
the lowered op's matrix at some absorption point (the last such point
wins, so self-inverse tails like an inserted ``X·X`` pair are consumed
rather than orphaned); leftover source ops at the end of the stream are
a violation.

Soundness: a lowering that reordered two non-commuting ops cannot be
justified this way — the replay composes strictly in source program
order, skipping only provably-commuting (disjoint) ops, so the product
either fails to match the fused matrix or a blocker is reported with
its position.  Completeness holds for the repo's actual passes (1q-run
deferral skips only disjoint ops; diagonal and block fusion absorb
contiguous contained runs).

Diagonal fused ops (up to 12 qubits) are verified in diagonal space —
elementwise vector products, never a ``4096 x 4096`` dense matrix.
Fused ops whose matrix is the identity are additionally flagged as
*dead spans* in the report metadata (legal — obfuscation inserts
self-inverse pairs — but worth surfacing).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...execution.plan import PlanOp, _is_diagonal
from ...simulator.kernels import embed
from .base import Report

__all__ = [
    "dead_ops",
    "def_use_chains",
    "light_cone",
    "verify_lowering",
]


# ---------------------------------------------------------------------------
# def-use chains & light cones
# ---------------------------------------------------------------------------


def def_use_chains(ops: Sequence) -> Dict[int, List[int]]:
    """Map each qubit to the ordered op indices that touch it.

    Accepts any op sequence exposing ``qubits`` (:class:`TracedOp`,
    :class:`PlanOp`, instructions).
    """
    chains: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        for q in op.qubits:
            chains.setdefault(q, []).append(i)
    return chains


def light_cone(ops: Sequence, qubits: Sequence[int]) -> List[int]:
    """Indices of ops that can influence *qubits*' final state.

    Standard backward cone: walk the stream in reverse, growing the
    tracked qubit set whenever an op overlaps it.  Everything outside
    the returned index set is provably irrelevant to measuring
    *qubits*.
    """
    cone: List[int] = []
    tracked = set(qubits)
    for i in range(len(ops) - 1, -1, -1):
        support = set(ops[i].qubits)
        if support & tracked:
            cone.append(i)
            tracked |= support
    cone.reverse()
    return cone


def dead_ops(ops: Sequence[PlanOp], *, atol: float = 1e-12) -> List[int]:
    """Indices of lowered ops whose matrix is (numerically) identity.

    A fused product collapsing to identity is legal — the obfuscation
    baselines insert self-inverse pairs by design — but a span doing no
    work is worth surfacing to callers measuring fusion quality.
    """
    dead: List[int] = []
    for i, op in enumerate(ops):
        if op.kind == "diagonal":
            if np.allclose(op.diag, 1.0, atol=atol):
                dead.append(i)
        elif np.allclose(op.matrix, np.eye(op.matrix.shape[0]), atol=atol):
            dead.append(i)
    return dead


# ---------------------------------------------------------------------------
# lowering verification (replay-absorb)
# ---------------------------------------------------------------------------


def _diag_vector(matrix: np.ndarray, qubits: Tuple[int, ...]) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Diagonal of *matrix* re-indexed to ascending qubits (MSB-first)."""
    diag = np.asarray(np.diagonal(matrix))
    k = len(qubits)
    order = tuple(sorted(range(k), key=lambda i: qubits[i]))
    if order != tuple(range(k)):
        diag = diag.reshape((2,) * k).transpose(order).reshape(-1)
    return tuple(sorted(qubits)), np.ascontiguousarray(diag)


def _embed_diag(diag: np.ndarray, qubits: Tuple[int, ...], support: Tuple[int, ...]) -> np.ndarray:
    """Broadcast a diagonal (ascending *qubits*) over *support* axes."""
    shape = tuple(2 if q in qubits else 1 for q in support)
    return diag.reshape(shape)


def verify_lowering(
    source_ops: Sequence,
    plan_ops: Sequence[PlanOp],
    num_qubits: int,
    *,
    atol: float = 1e-9,
) -> Report:
    """Prove *plan_ops* is a reordering-safe lowering of *source_ops*.

    *source_ops* is any sequence exposing ``matrix``/``qubits``/
    ``identity`` (:class:`TracedOp`); identity ops are ignored,
    matching :func:`repro.execution.plan.lower_ops`.
    Returns a :class:`Report` whose metadata carries the recovered
    ``provenance`` (source indices justifying each lowered op) and any
    ``dead_ops``.
    """
    report = Report("lowering")
    report.metadata["dead_ops"] = dead_ops(plan_ops)
    provenance: List[Tuple[int, ...]] = []
    report.metadata["provenance"] = provenance

    # (source index, op) for non-identity ops, in program order
    remaining: List[Tuple[int, object]] = [
        (i, op)
        for i, op in enumerate(source_ops)
        if not getattr(op, "identity", False)
    ]

    for j, pop in enumerate(plan_ops):
        loc = f"ops[{j}]"
        support = tuple(pop.qubits)
        support_set = set(support)
        diagonal = pop.kind == "diagonal"
        k = len(support)
        if diagonal:
            acc = np.ones((2,) * k, dtype=complex)
            target = pop.diag
        else:
            acc = np.eye(1 << k, dtype=complex)
            target = pop.matrix

        absorbed: List[Tuple[int, object]] = []
        matched_at = -1  # last absorption count at which acc == target
        blocker: Tuple[int, object] | None = None
        for idx, sop in remaining:
            sup = set(sop.qubits)
            if not (sup & support_set):
                continue  # disjoint support: commutes trivially
            if not (sup <= support_set):
                blocker = (idx, sop)
                break
            if diagonal:
                if not _is_diagonal(sop.matrix):
                    blocker = (idx, sop)
                    break
                dq, dvec = _diag_vector(sop.matrix, sop.qubits)
                acc = acc * _embed_diag(dvec, dq, support)
            else:
                acc = embed(sop.matrix, sop.qubits, support) @ acc
            absorbed.append((idx, sop))
            flat = acc.reshape(-1) if diagonal else acc
            if np.allclose(flat, target, atol=atol):
                matched_at = len(absorbed)

        report.checks += 1
        if matched_at < 0:
            name = getattr(
                getattr(blocker[1] if blocker else None, "instruction", None),
                "name",
                None,
            )
            detail = (
                "no prefix of the in-order source ops composes to this "
                f"fused {'diagonal' if diagonal else 'matrix'} on qubits "
                f"{support}"
            )
            if blocker is not None:
                detail += (
                    f"; blocked at source op {blocker[0]}"
                    + (f" ({name!r}" f" on {blocker[1].qubits})" if name else f" on {tuple(blocker[1].qubits)}")
                    + " which overlaps the fused support without being "
                    "contained — a non-commuting reorder"
                )
            report.add("lowering-order", detail, loc)
            # leave `remaining` untouched so later ops report their own
            # independent evidence
            provenance.append(())
            continue

        justified = absorbed[:matched_at]
        consumed = {idx for idx, _ in justified}
        remaining = [
            (idx, sop) for idx, sop in remaining if idx not in consumed
        ]
        provenance.append(tuple(idx for idx, _ in justified))

    report.checks += 1
    if remaining:
        leftover = ", ".join(str(idx) for idx, _ in remaining[:8])
        report.add(
            "lowering-coverage",
            f"{len(remaining)} source op(s) are not justified by any "
            f"lowered op (first indices: {leftover})",
        )
    return report
