"""Shared gate-application kernels for every simulation engine.

All engines (statevector, density and the trajectory samplers)
reduce gate application to the same operation:
contract a ``2^k x 2^k`` matrix into ``k`` qubit axes of a ``(2,)*m``
tensor, optionally carrying a leading batch axis.  This module holds
the one implementation they all share.

Two layouts are supported:

* :func:`apply_matrix_batch` — ``(batch, 2, ..., 2)`` tensors where
  qubit ``q`` lives on array axis ``q + 1`` (the batched sampler's
  shot tensor, or the basis-state batch used to build unitaries);
* :func:`apply_matrix_state` — plain ``(2,)*m`` tensors where the
  target axes are given directly (statevector tensors).

Execution plans (:mod:`repro.execution.plan`) run their fused op
streams through :func:`contract_batch` (the batch contraction without
the identity check) and :func:`multiply_diagonal`.

Fast paths
----------
1- and 2-qubit gates — the overwhelming majority after transpilation —
can avoid the generic ``tensordot`` + ``moveaxis`` route.  Because the
tensors are kept C-contiguous, grouping the axes around a target qubit
is a free ``reshape``; the gate axis is then moved to the front with
one transpose and contracted with a single large GEMM.  That produces
fewer full-size temporaries than ``tensordot``, which matters at
12 qubits x 1000 shots (65 MB per temporary): ~1.5x end-to-end on the
big noiseless batches.  Below ``_FAST_PATH_MIN_SIZE`` elements the
GEMM route's extra transpose overhead outweighs the saved copies
(measured on the 5-qubit Valencia workloads and single statevectors),
so small tensors take the tensordot path.

Gate-matrix convention (project-wide, see :mod:`repro.circuits.gates`):
the first listed qubit is the most significant bit of the matrix index.

The generic path is kept callable as :func:`apply_matrix_generic` so
benchmarks and tests can compare the two routes directly.
"""

from __future__ import annotations

import weakref
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "apply_matrix_batch",
    "apply_matrix_generic",
    "apply_matrix_state",
    "contract_batch",
    "embed",
    "is_identity",
    "matrix_is_identity",
    "multiply_diagonal",
]

_SWAP2 = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# tensor-size crossover (in elements) between the tensordot route and
# the axis-move + GEMM route; see the module docstring
_FAST_PATH_MIN_SIZE = 1 << 16


# identity templates for the common gate sizes, so the check below does
# not allocate a fresh eye on every gate application
_EYES = {dim: np.eye(dim) for dim in (2, 4, 8, 16)}


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of square matrices without its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        len(a) * len(b), -1
    )


def embed(
    matrix: np.ndarray, qubits: Sequence[int], block: Sequence[int]
) -> np.ndarray:
    """*matrix* on *qubits* as an operator on the superset *block* (for
    both, the first listed qubit is the most significant bit)."""
    if tuple(qubits) == tuple(block):
        return matrix
    m = len(block)
    order = list(qubits) + [q for q in block if q not in qubits]
    full = _kron(matrix, np.eye(1 << (m - len(qubits))))
    perm = [order.index(q) for q in block]
    tensor = full.reshape((2,) * (2 * m))
    return tensor.transpose(perm + [m + p for p in perm]).reshape(1 << m, -1)


def is_identity(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """True when *matrix* is the exact identity (within *atol*)."""
    eye = _EYES.get(matrix.shape[0])
    if eye is None:
        eye = np.eye(matrix.shape[0])
    # np.allclose's test (rtol 1e-5) without its per-call overhead
    return bool((np.abs(matrix - eye) <= atol + 1e-5 * eye).all())


# Verdicts memoized per matrix *object*: gate matrices are built once
# per gate instance and frozen (``setflags(write=False)``), so the
# answer can never change for a given array.  Keyed by ``id`` with a
# weakref finalizer evicting the entry when the array dies, which also
# protects against id reuse.  Writable arrays are never memoized — a
# caller could mutate them in place after the first check.
_IDENTITY_MEMO: Dict[int, bool] = {}


def matrix_is_identity(matrix: np.ndarray) -> bool:
    """Memoizing :func:`is_identity` for immutable (frozen) matrices."""
    key = id(matrix)
    hit = _IDENTITY_MEMO.get(key)
    if hit is not None:
        return hit
    flag = is_identity(matrix)
    if not matrix.flags.writeable:
        try:
            weakref.finalize(matrix, _IDENTITY_MEMO.pop, key, None)
        except TypeError:  # pragma: no cover - ndarray is weakref-able
            return flag
        _IDENTITY_MEMO[key] = flag
    return flag


def apply_matrix_batch(
    batch: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit matrix to every entry of a shot batch.

    *batch* has shape ``(shots, 2, ..., 2)`` with qubit ``q`` on axis
    ``q + 1``.  Returns a new array (the input is never mutated);
    identity matrices are skipped and return the input unchanged.
    """
    matrix = np.asarray(matrix)
    if matrix_is_identity(matrix):
        return batch
    return contract_batch(batch, matrix, qubits)


def contract_batch(
    batch: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """:func:`apply_matrix_batch` without the identity skip.

    Always returns a new array.  Execution plans call this directly:
    their ops never hold an exact identity gate, and a fused block that
    happens to multiply out to one is applied like any other matrix.
    """
    matrix = np.asarray(matrix).astype(batch.dtype, copy=False)
    if batch.size < _FAST_PATH_MIN_SIZE:
        return apply_matrix_generic(batch, matrix, qubits)
    shots = batch.shape[0]
    n = batch.ndim - 1
    if len(qubits) == 1 and batch.flags.c_contiguous:
        q = qubits[0]
        left = 2 ** q
        right = 2 ** (n - 1 - q)
        # one large GEMM: move the gate axis to the front, contract,
        # move back.  Broadcasted per-shot matmuls are ~10x slower.
        view = batch.reshape(shots * left, 2, right)
        stacked = np.ascontiguousarray(view.transpose(1, 0, 2)).reshape(
            2, -1
        )
        out = (matrix @ stacked).reshape(2, shots * left, right)
        out = np.ascontiguousarray(out.transpose(1, 0, 2))
        return out.reshape(batch.shape)
    if len(qubits) == 2 and batch.flags.c_contiguous:
        qa, qb = qubits
        if qa > qb:
            # normalise to ascending axis order by conjugating with SWAP
            matrix = (_SWAP2 @ matrix @ _SWAP2).astype(
                batch.dtype, copy=False
            )
            qa, qb = qb, qa
        left = 2 ** qa
        mid = 2 ** (qb - qa - 1)
        right = 2 ** (n - 1 - qb)
        view = batch.reshape(shots * left, 2, mid, 2, right)
        stacked = np.ascontiguousarray(
            view.transpose(1, 3, 0, 2, 4)
        ).reshape(4, -1)
        out = (matrix @ stacked).reshape(
            2, 2, shots * left, mid, right
        )
        out = np.ascontiguousarray(out.transpose(2, 0, 3, 1, 4))
        return out.reshape(batch.shape)
    return apply_matrix_generic(batch, matrix, qubits)


def multiply_diagonal(
    batch: np.ndarray, diag: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Multiply a length-``2^k`` diagonal into a shot batch.

    *qubits* are ascending and the first is the most significant bit of
    the diagonal's index (the convention of a matrix listed on the same
    qubits).  Returns a new array.
    """
    shape = [1] * batch.ndim
    for q in qubits:
        shape[q + 1] = 2
    return batch * diag.astype(batch.dtype, copy=False).reshape(shape)


def apply_matrix_generic(
    batch: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Reference ``tensordot`` path (3+ qubit gates, benchmarks, tests).

    Same contract as :func:`apply_matrix_batch`.  The result is made
    contiguous so that subsequent gates can take the fast paths.
    """
    matrix = np.asarray(matrix).astype(batch.dtype, copy=False)
    k = len(qubits)
    reshaped = matrix.reshape((2,) * (2 * k))
    target_axes = [q + 1 for q in qubits]
    moved = np.tensordot(
        reshaped, batch, axes=(list(range(k, 2 * k)), target_axes)
    )
    # tensordot puts gate row axes first and the batch axis after them
    moved = np.moveaxis(moved, k, 0)
    return np.ascontiguousarray(
        np.moveaxis(moved, range(1, k + 1), target_axes)
    )


def apply_matrix_state(
    tensor: np.ndarray, matrix: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit matrix to the given axes of a ``(2,)*m`` tensor.

    Used by the statevector engine (axes = qubits).  Returns a new,
    C-contiguous array unless the matrix is the identity.
    """
    # a length-1 leading batch axis reuses the batched fast paths; the
    # reshape is free for contiguous tensors and restores contiguity
    # (one copy) otherwise
    batch = tensor.reshape((1,) + tensor.shape)
    out = apply_matrix_batch(batch, matrix, axes)
    return out.reshape(tensor.shape)
