"""Attack protocol and registry for the adversary subsystem.

Adversary models are registered under a short name ("same-width",
"mismatched", ...) and looked up explicitly (``get_attack("mismatched")``)
or via :func:`select_attack` auto-dispatch.  Third-party adversaries —
SAT-based matchers, ML-guided search, partial-knowledge attackers —
plug in through :func:`register_attack` without touching any caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from .problem import CollusionProblem

__all__ = [
    "Attack",
    "AttackOutcome",
    "CandidateOutcome",
    "SearchOptions",
    "available_attacks",
    "get_attack",
    "register_attack",
    "select_attack",
    "unregister_attack",
]


@dataclass(frozen=True)
class SearchOptions:
    """Execution knobs for an attack search — they bound or
    parallelise the search but never change which candidate matches.

    *max_candidates* caps the search space (exceeding it raises before
    any work starts); *prefilter* enables the structural pruning of
    :mod:`repro.attacks.prefilter`; *jobs* > 1 searches chunks of the
    candidate stream on a process pool, bit-identical to sequential;
    *chunk_size* is the stream slice handed to one worker task;
    *early_exit* stops the search after the first chunk (in dispatch
    order) containing a functional match; *record_all* keeps a result
    record for every checked candidate instead of matches only;
    *use_truth_table* forces or forbids the cheap reversible-function
    oracle path (default: auto); *seed* deterministically shuffles the
    chunk dispatch order (useful with *early_exit* when matches are
    expected to cluster late in the canonical order).
    """

    max_candidates: int = 500_000
    prefilter: bool = True
    jobs: int = 1
    chunk_size: int = 256
    early_exit: bool = False
    record_all: bool = False
    use_truth_table: Optional[bool] = None
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


@runtime_checkable
class Attack(Protocol):
    """What the adversary subsystem requires of an attack.

    ``supports`` is a cheap static check used by auto-dispatch;
    ``search`` may still raise :class:`ValueError` for requests
    outside the attack's contract (an over-cap search space, widths it
    cannot handle, ...).
    """

    name: str

    def supports(self, problem: CollusionProblem) -> bool:
        """True when the attack can search *problem*'s matching space."""
        ...

    def search_space(self, problem: CollusionProblem) -> int:
        """Exact number of candidates a full search would try."""
        ...

    def search(
        self,
        problem: CollusionProblem,
        options: Optional[SearchOptions] = None,
    ) -> AttackOutcome:
        """Run the attack and report per-candidate statistics."""
        ...


_ATTACKS: Dict[str, Attack] = {}


def register_attack(
    attack: Optional[Union[Attack, type]] = None,
    *,
    name: Optional[str] = None,
    replace: bool = False,
) -> Union[Attack, type, Callable]:
    """Register an attack instance or class under its ``name``.

    Usable directly (``register_attack(MyAttack())``) or as a class
    decorator; classes are instantiated with no arguments.
    Registering a name twice raises unless ``replace=True``.
    """

    def _register(obj):
        instance = obj() if isinstance(obj, type) else obj
        key = name or getattr(instance, "name", None)
        if not key:
            raise ValueError(
                "attack must define a non-empty 'name' (or pass name=...)"
            )
        if not replace and key in _ATTACKS:
            raise ValueError(f"attack {key!r} is already registered")
        _ATTACKS[key] = instance
        return obj

    if attack is None:
        return _register
    return _register(attack)


def unregister_attack(name: str) -> None:
    """Remove *name* from the registry (missing names are ignored)."""
    _ATTACKS.pop(name, None)


def get_attack(name: str) -> Attack:
    """Look up a registered attack by name."""
    try:
        return _ATTACKS[name]
    except KeyError:
        known = ", ".join(available_attacks()) or "none"
        raise KeyError(
            f"unknown attack {name!r} (available: {known})"
        ) from None


def available_attacks() -> Tuple[str, ...]:
    """Sorted names of every registered attack."""
    return tuple(sorted(_ATTACKS))


def select_attack(problem: CollusionProblem) -> Attack:
    """Pick the cheapest registered attack that supports *problem*.

    Candidates are ranked by their exact search-space size for this
    problem — for equal-width segments the ``n!`` bijection attack
    beats the Eq. 1 subset matcher, for mismatched widths only the
    subset matcher applies.
    """
    supporting = [
        attack for attack in _ATTACKS.values() if attack.supports(problem)
    ]
    if not supporting:
        raise ValueError(
            f"no registered attack supports this problem "
            f"(widths {problem.widths}); available: "
            f"{', '.join(available_attacks()) or 'none'}"
        )
    return min(
        supporting, key=lambda attack: (attack.search_space(problem), attack.name)
    )
