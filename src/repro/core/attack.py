"""Attack-complexity analysis (paper Sec. IV-C, Eq. 1).

Sec. IV-C of the paper compares the qubit-matching search space a pair
of colluding compilers faces:

* cascading split compilation (Saki et al., ICCAD'21): the attacker
  matches two splits with the *same* number of qubits ``n`` —
  ``k_n * n!`` candidates, with ``k_n`` the number of candidate
  ``n``-qubit segments held by the other compiler;

* TetrisLock (Eq. 1): splits may have *different* qubit counts and not
  every qubit crosses the boundary, so the attacker must consider, for
  every candidate segment of ``i`` qubits, every subset of ``j``
  connected qubits on each side and every bijection between them:

  .. math::

     \\sum_{i=1}^{n_{max}} k_i \\sum_{j=0}^{\\min(n,i)}
         \\binom{n}{j} \\binom{i}{j} \\; j!

Everything uses exact integer arithmetic (these numbers overflow
floats quickly).

This module is the *counting* side of Sec. IV-C.  The executed
attacks — the same-width ``n!`` search that breaks a straight split,
the mismatched-width Eq. 1 search, prefilters and parallel streaming —
live in :mod:`repro.attacks`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

__all__ = [
    "saki_attack_complexity",
    "tetrislock_attack_complexity",
    "complexity_ratio",
]


def saki_attack_complexity(n: int, k_n: int = 1) -> int:
    """``k_n * n!`` — matching same-width splits (prior work)."""
    if n < 0:
        raise ValueError("qubit count must be non-negative")
    if k_n < 0:
        raise ValueError("segment count must be non-negative")
    return k_n * math.factorial(n)


def tetrislock_attack_complexity(
    n: int,
    nmax: int,
    k: Union[int, Sequence[int], Callable[[int], int]] = 1,
) -> int:
    """Eq. 1: mismatched-qubit matching space for TetrisLock.

    Parameters
    ----------
    n:
        Qubits in the split the attacker holds.
    nmax:
        Maximum qubit count supported by the target device (the other
        split can have any size up to this).
    k:
        Candidate segment count per size: a constant, a sequence
        ``k[i-1]`` for size ``i`` (its length must equal *nmax*), or a
        callable ``k(i)``.
    """
    if n < 0 or nmax < 1:
        raise ValueError("n must be >= 0 and nmax >= 1")
    if isinstance(k, (list, tuple)) and len(k) != nmax:
        # a short sequence used to zero-fill silently, quietly
        # understating the reported search space
        raise ValueError(
            f"k sequence has {len(k)} entries but Eq. 1 sums sizes "
            f"1..{nmax}; provide exactly one k per size"
        )

    def k_of(i: int) -> int:
        if callable(k):
            return int(k(i))
        if isinstance(k, (list, tuple)):
            return int(k[i - 1])
        return int(k)

    total = 0
    for i in range(1, nmax + 1):
        inner = 0
        for j in range(0, min(n, i) + 1):
            inner += (
                math.comb(n, j) * math.comb(i, j) * math.factorial(j)
            )
        total += k_of(i) * inner
    return total


def complexity_ratio(n: int, nmax: int, k: int = 1) -> float:
    """TetrisLock / Saki complexity ratio (floats, for plotting)."""
    saki = saki_attack_complexity(n, k)
    ours = tetrislock_attack_complexity(n, nmax, k)
    if saki == 0:
        return float("inf")
    return ours / saki
