"""Experiment E7: executing the collusion attack (paper Sec. IV-C).

Where :mod:`repro.experiments.attack_complexity` *counts* the
colluding-compiler search space, this harness *runs* it: every cell
builds a real split pair — a straight Saki-style cut for the
``same-width`` adversary, an obfuscate-then-interlocking-split pair
for the ``mismatched`` adversary, both built by
:func:`repro.attacks.problem_for` — and lets that attack search the
full matching space against the generous oracle, reporting candidates
tried, structurally pruned and functionally matched.

The grid is benchmark x split seed x adversary model (every key of
:data:`repro.attacks.ATTACKS` by default).  Every cell is
deterministic (splits are seeded explicitly from the config, the
attack search is exhaustive), so the spec is unseeded and any
shard/resume/jobs combination is trivially bit-identical.  The
measured ``search_space`` column is exactly the quantity Eq. 1 sums
over candidate segments — run both harnesses on the same benchmark to
see the counted space and the executed space agree.

Run with ``repro experiment run attack_bruteforce``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..attacks import ATTACKS, SearchOptions, problem_for
from ..revlib.benchmarks import benchmark_circuit
from .framework import Cell, ExperimentSpec, register

__all__ = [
    "ATTACK_BRUTEFORCE_SPEC",
    "AttackRow",
    "render_attack_bruteforce",
    "run_attack_cell",
]


@dataclass
class AttackRow:
    """Outcome of one executed attack cell."""

    adversary: str
    benchmark: str
    split_seed: int
    widths: Tuple[int, int]
    mismatched: bool
    search_space: int
    candidates_tried: int
    pruned: int
    matches: int
    success: bool
    first_match: Optional[int]  # candidate index, None when no match

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "AttackRow":
        payload = dict(payload)
        payload["widths"] = tuple(payload["widths"])
        return cls(**payload)


def run_attack_cell(
    adversary: str,
    benchmark: str,
    split_seed: int,
    *,
    gate_limit: int = 4,
    max_candidates: int = 200_000,
    prefilter: bool = True,
    early_exit: bool = False,
    jobs: int = 1,
) -> AttackRow:
    """Build the split pair for one adversary model and attack it."""
    if adversary not in ATTACKS:
        raise ValueError(
            f"unknown adversary {adversary!r} "
            f"(known: {', '.join(ATTACKS)})"
        )
    problem = problem_for(
        benchmark_circuit(benchmark),
        adversary,
        seed=split_seed,
        gate_limit=gate_limit,
    )
    outcome = ATTACKS[adversary].search(
        problem,
        SearchOptions(
            max_candidates=max_candidates,
            prefilter=prefilter,
            early_exit=early_exit,
            jobs=jobs,
        ),
    )
    first = outcome.first_match
    return AttackRow(
        adversary=adversary,
        benchmark=benchmark,
        split_seed=split_seed,
        widths=problem.widths,
        mismatched=problem.mismatched,
        search_space=outcome.search_space,
        candidates_tried=outcome.candidates_tried,
        pruned=outcome.pruned,
        matches=outcome.matches,
        success=outcome.success,
        first_match=None if first is None else first.index,
    )


# ---------------------------------------------------------------------------
# framework spec
# ---------------------------------------------------------------------------

def _bruteforce_cells(config: Dict[str, Any]) -> List[Cell]:
    return [
        Cell(
            f"{adversary}/{benchmark}/seed{seed}",
            {
                "adversary": str(adversary),
                "benchmark": str(benchmark),
                "split_seed": int(seed),
            },
        )
        for adversary in config["adversaries"]
        for benchmark in config["benchmarks"]
        for seed in config["split_seeds"]
    ]


def _bruteforce_task(
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> Dict[str, Any]:
    row = run_attack_cell(
        cell.params["adversary"],
        cell.params["benchmark"],
        cell.params["split_seed"],
        gate_limit=int(config["gate_limit"]),
        max_candidates=int(config["max_candidates"]),
        prefilter=bool(config["prefilter"]),
        early_exit=bool(config["early_exit"]),
    )
    return asdict(row)


def _aggregate_bruteforce(
    config: Dict[str, Any], results: Dict[str, Any]
) -> Dict[str, Any]:
    rows = [
        AttackRow.from_payload(results[cell.id])
        for cell in _bruteforce_cells(config)
    ]
    return {"rows": rows}


def render_attack_bruteforce(report: Dict[str, Any]) -> str:
    """Per-cell table plus adversary-level success summary."""
    rows: List[AttackRow] = report["rows"]
    lines = [
        f"{'adversary':>12} {'benchmark':>14} {'seed':>5} {'widths':>8} "
        f"{'space':>8} {'tried':>7} {'pruned':>7} {'matches':>7} "
        f"{'success':>7}",
        "-" * 82,
    ]
    for row in rows:
        widths = f"{row.widths[0]}x{row.widths[1]}"
        lines.append(
            f"{row.adversary:>12} {row.benchmark:>14} {row.split_seed:>5} "
            f"{widths:>8} {row.search_space:>8} {row.candidates_tried:>7} "
            f"{row.pruned:>7} {row.matches:>7} "
            f"{'yes' if row.success else 'no':>7}"
        )
    for adversary in ATTACKS:
        subset = [row for row in rows if row.adversary == adversary]
        if not subset:
            continue
        wins = sum(1 for row in subset if row.success)
        space = max(row.search_space for row in subset)
        lines.append(
            f"{adversary}: {wins}/{len(subset)} attacks recover the "
            f"original function (largest space searched: {space})"
        )
    return "\n".join(lines)


ATTACK_BRUTEFORCE_SPEC = register(
    ExperimentSpec(
        name="attack_bruteforce",
        description="execute the brute-force collusion attack on real "
        "split pairs (same-width Saki cut vs mismatched interlocking "
        "cut) and tabulate tried/pruned/matched candidates",
        defaults={
            "benchmarks": ["4gt13", "4mod5"],
            "split_seeds": [0, 1, 2],
            "adversaries": list(ATTACKS),
            "gate_limit": 4,
            "max_candidates": 200_000,
            "prefilter": True,
            "early_exit": False,
        },
        make_cells=_bruteforce_cells,
        task=_bruteforce_task,
        aggregate=_aggregate_bruteforce,
        render=render_attack_bruteforce,
        seeded=False,
    )
)
