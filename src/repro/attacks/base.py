"""Search options and outcome records shared by the adversary models.

The models themselves and their fixed name table (``ATTACKS``) live in
:mod:`repro.attacks.bruteforce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["AttackOutcome", "CandidateOutcome", "SearchOptions"]


@dataclass(frozen=True)
class SearchOptions:
    """Execution knobs for an attack search — they bound or
    parallelise the search but never change which candidate matches.

    *max_candidates* caps the search space (exceeding it raises before
    any work starts); *prefilter* enables the structural pruning of
    :mod:`repro.attacks.prefilter`; *jobs* > 1 searches chunks of the
    candidate stream on a process pool, bit-identical to sequential;
    *chunk_size* is the pool's task size and the early-exit unit (a
    sequential full search walks the stream once, whatever its value);
    *early_exit* stops the search after the first chunk (in dispatch
    order) containing a functional match; *record_all* keeps a result
    record for every checked candidate instead of matches only; *seed*
    deterministically shuffles the chunk dispatch order (useful with
    *early_exit* when matches are expected to cluster late in the
    canonical order).
    """

    max_candidates: int = 500_000
    prefilter: bool = True
    jobs: int = 1
    chunk_size: int = 256
    early_exit: bool = False
    record_all: bool = False
    seed: Optional[int] = None


@dataclass(frozen=True)
class CandidateOutcome:
    """One checked candidate matching."""

    index: int  # position in the canonical enumeration
    mapping: Tuple[Tuple[int, int], ...]  # seg2 compact -> candidate slot
    num_qubits: int  # candidate register width
    functional_match: bool

    def mapping_dict(self) -> Dict[int, int]:
        return dict(self.mapping)


@dataclass
class AttackOutcome:
    """Aggregate result of one attack search.

    ``results`` holds matches only unless the search ran with
    ``record_all``; it is always sorted by candidate index.  With
    ``early_exit`` the counters cover exactly the dispatch-order chunk
    prefix up to and including the first matching chunk — the same
    prefix sequential and parallel searches compute, so outcomes stay
    bit-identical for any ``jobs``.
    """

    attack: str
    search_space: int
    candidates_tried: int
    pruned: int
    matches: int
    results: List[CandidateOutcome] = field(default_factory=list)
    early_exit: bool = False

    @property
    def success(self) -> bool:
        return self.matches > 0

    @property
    def first_match(self) -> Optional[CandidateOutcome]:
        for result in self.results:
            if result.functional_match:
                return result
        return None

    @property
    def enumerated(self) -> int:
        """Candidates consumed from the stream (tried + pruned)."""
        return self.candidates_tried + self.pruned
