"""Experiment harnesses regenerating the paper's tables and figures.

Every harness is a :mod:`repro.experiments.framework` spec — a
declarative (parameter grid, per-cell task, aggregator, renderer)
bundle executed by one shared grid runner with persistent JSONL
checkpoints, ``--shard i/n`` splitting, process-pool parallelism and
exact resume.  :data:`SPECS` is the fixed table of them, and
:func:`run_experiment` (``repro experiment run <name>`` on the command
line) is the one way to run any of them:
``run_experiment("table1", {"iterations": 2}).result``.

* :mod:`repro.experiments.table1` — Table I (overhead + accuracy).
* :mod:`repro.experiments.figure4` — Figure 4 (TVD distributions).
* :mod:`repro.experiments.attack_complexity` — Eq. 1 comparison and
  a same-width brute-force demo on a straight split.
* :mod:`repro.experiments.attack_bruteforce` — the executed collusion
  attack: real split pairs searched end to end by the adversary models
  of :mod:`repro.attacks`.
* :mod:`repro.experiments.ablation_insertion` — insertion-strategy
  ablation (empty-slot vs block prepend).
* :mod:`repro.experiments.sweep_gate_limit` — obfuscation strength vs
  insertion budget.
"""

from typing import Dict

from .ablation_insertion import ABLATION_SPEC, render_ablation
from .sweep_gate_limit import SWEEP_SPEC, render_sweep
from .attack_bruteforce import (
    ATTACK_BRUTEFORCE_SPEC,
    AttackRow,
    render_attack_bruteforce,
    run_attack_cell,
)
from .attack_complexity import (
    ATTACK_SPEC,
    demo_bruteforce_attack,
    render_complexity_table,
)
from .figure4 import FIGURE4_SPEC, render_figure4, tvd_series
from .framework import (
    Cell,
    ExperimentSpec,
    ResultStore,
    RunReport,
    config_hash,
    get_spec,
    list_specs,
    run_experiment,
)
from .table1 import TABLE1_SPEC, AggregateResult, render_table1

SPECS: Dict[str, ExperimentSpec] = {
    "table1": TABLE1_SPEC,
    "figure4": FIGURE4_SPEC,
    "attack_complexity": ATTACK_SPEC,
    "attack_bruteforce": ATTACK_BRUTEFORCE_SPEC,
    "ablation_insertion": ABLATION_SPEC,
    "sweep_gate_limit": SWEEP_SPEC,
}

__all__ = [
    "SPECS",
    "AggregateResult",
    "render_table1",
    "render_figure4",
    "tvd_series",
    "render_complexity_table",
    "demo_bruteforce_attack",
    "AttackRow",
    "render_attack_bruteforce",
    "run_attack_cell",
    "render_ablation",
    "render_sweep",
    # framework
    "Cell",
    "ExperimentSpec",
    "ResultStore",
    "RunReport",
    "config_hash",
    "get_spec",
    "list_specs",
    "run_experiment",
]
