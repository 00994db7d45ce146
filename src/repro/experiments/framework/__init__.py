"""Unified experiment framework: specs, result store, grid runner.

* :mod:`~repro.experiments.framework.spec` — declarative
  :class:`ExperimentSpec` (parameter grid, per-cell task, aggregator,
  renderer) and the registry every harness module registers into.
* :mod:`~repro.experiments.framework.store` — persistent
  :class:`ResultStore`: one JSONL checkpoint per (spec, config hash)
  under ``results/``, crash-tolerant, shard-mergeable.
* :mod:`~repro.experiments.framework.runner` —
  :func:`run_experiment`: deterministic per-cell seeding, process-pool
  parallelism, ``shard i/n`` splitting, and checkpoint resume — all
  bit-identical to a sequential fresh run for a fixed seed.
* :mod:`~repro.experiments.framework.cli` — the
  ``repro experiment list|run|resume|report`` command.
"""

from .runner import RunReport, parse_shard, run_experiment
from .spec import (
    Cell,
    ExperimentSpec,
    get_spec,
    list_specs,
    register,
    unregister,
)
from .store import ResultStore, config_hash

__all__ = [
    "Cell",
    "ExperimentSpec",
    "ResultStore",
    "RunReport",
    "config_hash",
    "get_spec",
    "list_specs",
    "parse_shard",
    "register",
    "run_experiment",
    "unregister",
]
