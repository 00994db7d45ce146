"""The collusion-attack problem instance handed to an attack.

A :class:`CollusionProblem` is what two colluding compilers actually
hold: the two compact segments as submitted (the adversary view) plus
the evaluation oracle's reference circuit.  The reference lives in the
*attacker frame* — segment-1 compact qubits at slots ``0 .. n1-1``,
unmatched segment-2 qubits on fresh ancillas — so a candidate
recombination can be checked by direct equivalence, no permutation
search.

Builders:

* :func:`problem_from_split` — the TetrisLock scenario: an
  interlocking :class:`~repro.core.split.SplitResult` whose boundary
  metadata (:meth:`~repro.core.split.SplitResult.boundary`) pins down
  the ground-truth matching; the reference is the true recombination
  in the attacker frame, functionally the original circuit (the
  inserted R-dagger/R pairs cancel once the segments are joined).
* :func:`problem_from_saki` — the prior-work baseline: a straight
  same-width :func:`~repro.baselines.saki_split.saki_split`, where
  the segments keep the full register and the original circuit itself
  is the reference.

:func:`problem_for` is the one place a circuit becomes the scenario an
adversary faces; the CLI, the service and the experiment specs all
build their problems through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from .matching import recombine_candidate

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..baselines.saki_split import SakiSplitResult
    from ..core.insertion import InsertionResult
    from ..core.split import SplitResult

__all__ = [
    "CollusionProblem",
    "find_mismatched_split",
    "problem_for",
    "problem_from_saki",
    "problem_from_split",
]


@dataclass(frozen=True)
class CollusionProblem:
    """Two colluding compilers' segments plus the evaluation oracle."""

    segment1: QuantumCircuit
    segment2: QuantumCircuit
    oracle: QuantumCircuit
    description: str = ""

    def __post_init__(self) -> None:
        for segment in (self.segment1, self.segment2):
            if segment.has_measurements():
                raise ValueError(
                    "attack segments must be measurement-free"
                )

    @property
    def widths(self) -> Tuple[int, int]:
        return (self.segment1.num_qubits, self.segment2.num_qubits)

    @property
    def mismatched(self) -> bool:
        a, b = self.widths
        return a != b


def problem_from_split(
    split: "SplitResult", description: Optional[str] = None
) -> CollusionProblem:
    """Attack problem for an interlocking split's two compact segments.

    The oracle reference is built from the split's ground-truth
    boundary matching, so it is itself one of the enumerated
    candidates — the one the attacker is searching for.
    """
    boundary = split.boundary()
    reference = recombine_candidate(
        split.segment1.compact,
        split.segment2.compact,
        boundary.true_matching(),
        boundary.candidate_width,
    )
    name = split.insertion.original.name
    return CollusionProblem(
        segment1=split.segment1.compact,
        segment2=split.segment2.compact,
        oracle=reference,
        description=description
        or f"interlocking split of {name} "
        f"({boundary.widths[0]}x{boundary.widths[1]} qubits, "
        f"{len(boundary.shared_qubits)} crossing)",
    )


def find_mismatched_split(
    insertion: "InsertionResult",
    seeds: Iterable[int] = range(40),
) -> Optional["SplitResult"]:
    """First interlocking split over *seeds* whose segments expose
    different qubit counts — the scenario Eq. 1's search is about.

    Returns ``None`` when no sampled cut is mismatched (rare for real
    obfuscated circuits; callers decide whether to fall back or skip).
    """
    from ..core.split import interlocking_split

    for seed in seeds:
        split = interlocking_split(insertion, seed=seed)
        if split.mismatched_qubits:
            return split
    return None


def problem_from_saki(
    split: "SakiSplitResult", description: Optional[str] = None
) -> CollusionProblem:
    """Attack problem for a straight Saki-style cascading split.

    Both segments span the full original register, so the original
    circuit is directly usable as the oracle reference.  Swap-network
    hardened splits are rejected: their recombination needs the
    inverse network appended, which no qubit matching alone models.
    """
    if split.permutation:
        raise ValueError(
            "swap-network splits are not brute-forceable by qubit "
            "matching alone; attack the plain split instead"
        )
    return CollusionProblem(
        segment1=split.segment1,
        segment2=split.segment2,
        oracle=split.original.remove_final_measurements(),
        description=description
        or f"straight split of {split.original.name} "
        f"(cut layer {split.cut_layer})",
    )


def problem_for(
    circuit: QuantumCircuit,
    adversary: str,
    *,
    seed: int,
    gate_limit: int = 4,
) -> CollusionProblem:
    """The split pair *adversary* attacks, built from *circuit*.

    ``"same-width"`` faces the prior-work scenario: a straight Saki
    split whose segments keep the full register.  Every other
    adversary (``"mismatched"``, or ``"auto"`` dispatch) faces
    TetrisLock's: *gate_limit* random R/R-dagger pairs are inserted and
    the result is cut along an interlocking boundary.  *seed* drives
    both the insertion and the cut; final measurements are dropped
    first, since attack segments must be measurement-free.
    """
    from ..baselines.saki_split import saki_split
    from ..core.insertion import insert_random_pairs
    from ..core.split import interlocking_split

    circuit = circuit.remove_final_measurements()
    if adversary == "same-width":
        return problem_from_saki(saki_split(circuit, seed=seed))
    insertion = insert_random_pairs(circuit, gate_limit=gate_limit, seed=seed)
    return problem_from_split(interlocking_split(insertion, seed=seed))
