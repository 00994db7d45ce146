"""The two brute-force adversary models of paper Sec. IV-C.

* :class:`SameWidthBruteForce` — the Saki-scenario adversary: both
  segments expose the same qubit count, the attacker tries every
  bijection (``n!`` candidates), in ``itertools.permutations`` order.
* :class:`MismatchedWidthBruteForce` — the adversary TetrisLock's
  interlocking boundary actually faces (Eq. 1): segments may expose
  different qubit counts and not every qubit crosses the cut, so the
  attacker enumerates every overlap size, every subset pair and every
  bijection between them, placing unmatched segment-2 qubits on fresh
  ancillas.  This is the search whose size the ``attack_complexity``
  experiment only *counts*; here it is executed.

Both stream their candidate space lazily through
:func:`repro.attacks.parallel.run_streaming_search` — structural
prefilters, one oracle check per matching (no candidate circuit for
reversible segments), optional process-pool parallelism and early
exit, all bit-identical to a sequential run.

:data:`ATTACKS` is the fixed name table every caller reads: the CLI's
``--adversary`` choices, the service's ``attack`` requests and the
``attack_bruteforce`` grid.  :func:`select_attack` picks from it by
search-space size, and :func:`plan_attack` pairs a request's split
with the attack it runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..circuits.circuit import QuantumCircuit
from .base import AttackOutcome, SearchOptions
from .matching import same_width_matching_count, subset_matching_count
from .parallel import run_streaming_search
from .problem import CollusionProblem, problem_for

__all__ = [
    "ATTACKS",
    "MismatchedWidthBruteForce",
    "SameWidthBruteForce",
    "get_attack",
    "plan_attack",
    "select_attack",
]


class SameWidthBruteForce:
    """Exhaustive bijection matching between equal-width segments."""

    name = "same-width"
    _kind = "same-width"

    def supports(self, problem: CollusionProblem) -> bool:
        # equal widths alone are not enough: a reference frame wider
        # than the segments means the true recombination parks some
        # seg-2 qubits on ancillas, which no bijection models — only
        # the subset matcher can recover such a problem
        return (
            not problem.mismatched
            and problem.oracle.num_qubits <= problem.segment1.num_qubits
        )

    def search_space(self, problem: CollusionProblem) -> int:
        n1, n2 = problem.widths
        if n1 != n2:
            raise ValueError(
                f"same-width attack needs equal segment widths, got "
                f"{n1} != {n2}; use the 'mismatched' attack for "
                f"interlocking splits"
            )
        return same_width_matching_count(n1)

    def search(
        self,
        problem: CollusionProblem,
        options: Optional[SearchOptions] = None,
    ) -> AttackOutcome:
        self.search_space(problem)  # width validation
        if not self.supports(problem):
            # don't silently search a space that cannot contain the
            # truth and report a false "attack fails"
            raise ValueError(
                f"oracle frame ({problem.oracle.num_qubits} qubits) is "
                f"wider than the segments "
                f"({problem.segment1.num_qubits}): the ground truth "
                f"parks segment-2 qubits on ancillas, which no "
                f"bijection models — use the 'mismatched' attack"
            )
        return run_streaming_search(
            problem,
            kind=self._kind,
            attack_name=self.name,
            options=options or SearchOptions(),
        )


class MismatchedWidthBruteForce:
    """Eq. 1's subset-injection matching attack.

    Handles any width pair (for equal widths its space strictly
    contains the bijection space, since partial overlaps are also
    enumerated), which is why :func:`select_attack` ranks attacks by
    search-space size instead of hard-coding a width rule.
    """

    name = "mismatched"
    _kind = "subset"

    def supports(self, problem: CollusionProblem) -> bool:
        return True

    def search_space(self, problem: CollusionProblem) -> int:
        n1, n2 = problem.widths
        return subset_matching_count(n1, n2)

    def search(
        self,
        problem: CollusionProblem,
        options: Optional[SearchOptions] = None,
    ) -> AttackOutcome:
        return run_streaming_search(
            problem,
            kind=self._kind,
            attack_name=self.name,
            options=options or SearchOptions(),
        )


_Model = Union[SameWidthBruteForce, MismatchedWidthBruteForce]

ATTACKS: Dict[str, _Model] = {
    "same-width": SameWidthBruteForce(),
    "mismatched": MismatchedWidthBruteForce(),
}


def get_attack(name: str) -> _Model:
    """The adversary model called *name* in :data:`ATTACKS`."""
    try:
        return ATTACKS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r} (available: {', '.join(ATTACKS)})"
        ) from None


def select_attack(problem: CollusionProblem) -> _Model:
    """Pick the cheapest attack in :data:`ATTACKS` that supports *problem*.

    Candidates are ranked by their exact search-space size for this
    problem — for equal-width segments the ``n!`` bijection attack
    beats the Eq. 1 subset matcher, for mismatched widths only the
    subset matcher applies (and it supports every problem).
    """
    return min(
        (attack for attack in ATTACKS.values() if attack.supports(problem)),
        key=lambda attack: (attack.search_space(problem), attack.name),
    )


def plan_attack(
    circuit: QuantumCircuit,
    adversary: str,
    *,
    seed: int,
    gate_limit: int = 4,
) -> Tuple[CollusionProblem, _Model]:
    """The split pair an *adversary* request attacks (:func:`problem_for`)
    and the attack it runs: the one :data:`ATTACKS` names, or for
    ``"auto"`` :func:`select_attack`'s.  The CLI, the service handler
    and the service's submit-time check all build their search here."""
    problem = problem_for(circuit, adversary, seed=seed, gate_limit=gate_limit)
    if adversary == "auto":
        return problem, select_attack(problem)
    return problem, get_attack(adversary)
