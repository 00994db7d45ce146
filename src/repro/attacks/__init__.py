"""The adversary subsystem (paper Sec. IV-C).

TetrisLock's security headline is the size of the colluding-compiler
search space (Eq. 1).  This package makes that adversary *real*: the
paper's two attack models in one fixed table (``ATTACKS``: the
same-width ``n!`` matcher and the mismatched-width Eq. 1 matcher), the
scenario each one faces (``problem_for``), lazy candidate-matching
streams that never materialise the factorial-sized space, structural
prefilters, a generous equivalence oracle and a deterministic
process-pool search — so the mismatched-width scenario the paper
argues about can be executed end to end, not just counted.

Quickstart::

    from repro.attacks import get_attack, problem_for, SearchOptions
    problem = problem_for(circuit, "mismatched", seed=0)
    outcome = get_attack("mismatched").search(
        problem, SearchOptions(jobs=4, early_exit=True)
    )
    outcome.success, outcome.candidates_tried, outcome.search_space

The counting side of Sec. IV-C (``saki_attack_complexity``,
``tetrislock_attack_complexity``) lives in :mod:`repro.core.attack`
and is re-exported here for one-stop imports.
"""

from ..core.attack import (
    complexity_ratio,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from .base import AttackOutcome, CandidateOutcome, SearchOptions
from .bruteforce import (
    ATTACKS,
    MismatchedWidthBruteForce,
    SameWidthBruteForce,
    get_attack,
    select_attack,
)
from .matching import (
    Matching,
    iter_same_width_matchings,
    iter_subset_matchings,
    recombine_candidate,
    same_width_matching_count,
    subset_matching_count,
)
from .oracle import EquivalenceOracle, is_reversible
from .prefilter import StructuralPrefilter
from .problem import (
    CollusionProblem,
    find_mismatched_split,
    problem_for,
    problem_from_saki,
    problem_from_split,
)

__all__ = [
    "ATTACKS",
    "AttackOutcome",
    "CandidateOutcome",
    "CollusionProblem",
    "EquivalenceOracle",
    "Matching",
    "MismatchedWidthBruteForce",
    "SameWidthBruteForce",
    "SearchOptions",
    "StructuralPrefilter",
    "complexity_ratio",
    "find_mismatched_split",
    "get_attack",
    "is_reversible",
    "iter_same_width_matchings",
    "iter_subset_matchings",
    "problem_for",
    "problem_from_saki",
    "problem_from_split",
    "recombine_candidate",
    "saki_attack_complexity",
    "same_width_matching_count",
    "select_attack",
    "subset_matching_count",
    "tetrislock_attack_complexity",
]
