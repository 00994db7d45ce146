"""Static verification over the plan IR — prove, don't sample.

Three passes over :mod:`repro.execution` plans, none of which executes
a single shot:

* :mod:`~repro.analysis.static.contracts` — structural contract
  checking for :class:`~repro.execution.noise_plan.NoisePlan`, noisy
  or noise-free (index ranges, unitarity, CPTP channel bindings, site
  numbering, anchor structure, measure order);
* :mod:`~repro.analysis.static.dataflow` — def-use/light-cone analysis
  and the replay proof that lowering never reorders non-commuting ops;
* :mod:`~repro.analysis.static.tableau` — stabilizer-tableau symbolic
  execution issuing polynomial-time equivalence certificates for
  Clifford-only circuits and segments.

:func:`~repro.analysis.static.verify.verify_plan` runs all of them;
the ``validate=`` knob on :mod:`repro.execution.plan_cache` calls the
raising wrappers at build time; counters surface in the service
``/stats`` payload.
"""

from .base import Report, Violation
from .contracts import (
    PlanContractError,
    check_noise_plan,
    reset_validation_stats,
    validate_noise_plan,
    validation_stats,
)
from .dataflow import dead_ops, def_use_chains, light_cone, verify_lowering
from .tableau import (
    NotCliffordError,
    Tableau,
    TableauCertificate,
    certify_equivalence,
    clifford_images,
    tableau_from_ops,
)
from .verify import PlanVerification, verify_plan

__all__ = [
    "NotCliffordError",
    "PlanContractError",
    "PlanVerification",
    "Report",
    "Tableau",
    "TableauCertificate",
    "Violation",
    "certify_equivalence",
    "check_noise_plan",
    "clifford_images",
    "dead_ops",
    "def_use_chains",
    "light_cone",
    "reset_validation_stats",
    "tableau_from_ops",
    "validate_noise_plan",
    "validation_stats",
    "verify_lowering",
    "verify_plan",
]
