"""Unified execution layer: one ``run()`` for every simulation engine.

Callers never instantiate simulator classes directly — they describe
the request (circuit, shots, noise) and the registry-driven
dispatcher picks the fastest valid engine::

    >>> from repro.execution import run
    >>> counts = run(circuit, shots=1000, noise_model=model, seed=7)

Engines register through :func:`register_engine`, so new backends
(GPU, stabilizer, MPS) slot in without touching the pipeline,
experiment harnesses, or CLI.
"""

from ..simulator.counts import Counts
from .registry import (
    SimulationEngine,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from .api import run, select_engine
from .noise_plan import ChannelBinding, NoisePlan, build_noise_plan
from .plan import ExecutionPlan, FUSION_LEVELS, build_plan
from .plan_cache import (
    PlanCache,
    get_noise_plan,
    get_noise_plan_cache,
    get_plan,
    get_plan_cache,
)
from . import engines as _builtin_engines  # noqa: F401  (registers engines)
from .engines import (
    DensityEngine,
    StatevectorEngine,
    TrajectoryEngine,
)

__all__ = [
    "ChannelBinding",
    "Counts",
    "ExecutionPlan",
    "FUSION_LEVELS",
    "NoisePlan",
    "PlanCache",
    "SimulationEngine",
    "available_engines",
    "build_noise_plan",
    "build_plan",
    "get_engine",
    "get_noise_plan",
    "get_noise_plan_cache",
    "get_plan",
    "get_plan_cache",
    "register_engine",
    "unregister_engine",
    "run",
    "select_engine",
    "DensityEngine",
    "StatevectorEngine",
    "TrajectoryEngine",
]
