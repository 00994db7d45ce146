"""One-call plan verification: contracts + dataflow + tableau.

:func:`verify_plan` builds a fresh plan for a circuit (never through the
shared caches — verification must see exactly what the lowering
produces) and runs every static pass:

* contract check of the noise-free
  :class:`~repro.execution.noise_plan.NoisePlan` against the circuit,
  whose anchor-structure walk re-derives the segment, proves the span
  a lowering of it and holds the measure map to the circuit's;
* dataflow replay proving the lowering never reordered non-commuting
  ops;
* a tableau equivalence certificate when the circuit is Clifford-only;
* optionally, with a noise model: the noise-plan contract check,
  including the anchor-structure proof that fusion never crossed a
  channel anchor.

This is the engine behind ``repro verify-plan`` and the CI
``verify-plans`` smoke job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...circuits.circuit import QuantumCircuit
from ...execution.noise_plan import build_noise_plan
from ...execution.plan import TracedOp
from .base import Report
from .contracts import check_noise_plan
from .dataflow import verify_lowering
from .tableau import TableauCertificate, certify_equivalence

__all__ = ["PlanVerification", "verify_plan"]


@dataclass
class PlanVerification:
    """All static findings for one circuit (and noise model)."""

    contract: Report
    lowering: Report
    tableau: TableauCertificate
    noise: Optional[Report] = None

    @property
    def ok(self) -> bool:
        return (
            self.contract.ok
            and self.lowering.ok
            and self.tableau.ok
            and (self.noise is None or self.noise.ok)
        )

    @property
    def violations(self) -> list:
        out = list(self.contract.violations) + list(self.lowering.violations)
        if self.noise is not None:
            out.extend(self.noise.violations)
        return out

    def to_dict(self) -> dict[str, Any]:
        out = {
            "ok": self.ok,
            "contract": self.contract.to_dict(),
            "lowering": self.lowering.to_dict(),
            "tableau": self.tableau.to_dict(),
        }
        if self.noise is not None:
            out["noise"] = self.noise.to_dict()
        return out

    def summary_lines(self) -> list:
        lines = [
            "plan: " + ("ok" if self.ok else "VIOLATIONS"),
            f"  contract: {self.contract.summary()}",
            f"  lowering: {self.lowering.summary()}"
            + (
                f" [dead ops: {self.lowering.metadata['dead_ops']}]"
                if self.lowering.metadata.get("dead_ops")
                else ""
            ),
            f"  {self.tableau.summary()}",
        ]
        if self.noise is not None:
            lines.append(f"  noise: {self.noise.summary()}")
        for violation in self.violations:
            lines.append(f"    {violation}")
        if self.tableau.status == "mismatch":
            lines.append(f"    [tableau] {self.tableau.detail}")
        return lines


def verify_plan(circuit: QuantumCircuit, noise_model=None) -> PlanVerification:
    """Statically verify the plan(s) *circuit* lowers to."""
    plan = build_noise_plan(circuit, None)
    contract = check_noise_plan(plan, circuit)
    gates = [TracedOp.of(inst) for inst in circuit if inst.is_gate]
    ops = [op for step in plan.steps if step[0] == "span" for op in step[1]]
    lowering = verify_lowering(gates, ops, plan.num_qubits)
    tableau = certify_equivalence(gates, ops, plan.num_qubits)
    noise = None
    if noise_model is not None:
        noise_plan = build_noise_plan(circuit, noise_model)
        noise = check_noise_plan(noise_plan, circuit, noise_model)
    return PlanVerification(
        contract=contract,
        lowering=lowering,
        tableau=tableau,
        noise=noise,
    )
