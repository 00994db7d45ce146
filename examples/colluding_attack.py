#!/usr/bin/env python3
"""Colluding-compiler attack: straight split vs interlocking split.

Reproduces the security argument of the paper's Sec. IV-C:

* against a *straight* cascading split (Saki et al., ICCAD'21), two
  colluding compilers enumerate all n! qubit matchings and recover the
  original circuit — we run that same-width attack (repro.attacks)
  and watch it succeed;
* against TetrisLock's interlocking split the segments expose
  different qubit counts and hold half of every random pair, so the
  candidate space explodes (Eq. 1) and even a correct matching of the
  visible segment is functionally wrong without R† — we execute that
  mismatched-width search too (repro.attacks), streaming Eq. 1's
  subset matchings with structural prefiltering.

Run:  python examples/colluding_attack.py
"""

import math

from repro import (
    insert_random_pairs,
    interlocking_split,
    saki_attack_complexity,
    tetrislock_attack_complexity,
)
from repro.attacks import (
    SearchOptions,
    find_mismatched_split,
    get_attack,
    problem_for,
    problem_from_split,
    subset_matching_count,
)
from repro.revlib import benchmark_circuit
from repro.synth import simulate_reversible


def attack_straight_split(name: str) -> None:
    print(f"=== Straight split of {name} (prior work) ===")
    circuit = benchmark_circuit(name)
    outcome = get_attack("same-width").search(
        problem_for(circuit, "same-width", seed=1),
        SearchOptions(prefilter=False),
    )
    print(f"candidates tried: {outcome.candidates_tried} "
          f"(= {circuit.num_qubits}! qubit matchings)")
    verdict = "SUCCEEDS" if outcome.success else "fails"
    print(f"functional matches found: {outcome.matches} "
          f"-> attack {verdict}\n")


def attack_interlocking_split(name: str) -> None:
    print(f"=== TetrisLock interlocking split of {name} ===")
    circuit = benchmark_circuit(name)
    insertion = insert_random_pairs(circuit, gate_limit=4, seed=2)
    split = find_mismatched_split(insertion) or interlocking_split(
        insertion, seed=0
    )
    n1, n2 = split.qubit_counts
    print(f"segment qubit counts: {n1} vs {n2} "
          f"(mismatched: {split.mismatched_qubits})")

    print(f"qubit-matching candidates for this pair alone: "
          f"{subset_matching_count(n1, n2)} "
          f"(straight split: {math.factorial(circuit.num_qubits)})")

    # actually run Eq. 1's subset-matching search on this pair: the
    # generous oracle tells the attacker when a candidate is right
    outcome = get_attack("mismatched").search(
        problem_from_split(split), SearchOptions()
    )
    print(f"executed search: {outcome.candidates_tried} simulated, "
          f"{outcome.pruned} structurally pruned, "
          f"{outcome.matches} functional match(es)")

    # even with perfect knowledge, one compiler's share computes the
    # wrong function because its random gates are uncancelled
    rc = insertion.rc_circuit()
    corrupted = simulate_reversible(rc) != simulate_reversible(circuit)
    print(f"compiler 2's reconstruction (RC) corrupted: {corrupted}\n")


def complexity_comparison() -> None:
    print("=== Search-space comparison (Eq. 1, k = 2) ===")
    print(f"{'n':>4} {'device nmax':>12} {'Saki k*n!':>14} "
          f"{'TetrisLock':>14}")
    for n in (4, 5, 7, 10, 12):
        for nmax in (5, 27, 127):
            saki = saki_attack_complexity(n, 2)
            ours = tetrislock_attack_complexity(n, nmax, 2)
            print(f"{n:>4} {nmax:>12} {saki:>14.2e} {ours:>14.2e}")


def main() -> None:
    attack_straight_split("4gt13")
    attack_interlocking_split("4mod5")
    complexity_comparison()


if __name__ == "__main__":
    main()
