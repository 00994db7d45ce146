"""Unified execution layer: one ``run()`` for every simulation engine.

Callers never instantiate simulator classes directly — they describe
the request (circuit, shots, noise) and :func:`run` dispatches it to
the statevector, trajectory or density simulator::

    >>> from repro.execution import run
    >>> counts = run(circuit, shots=1000, noise_model=model, seed=7)

The engine names are :data:`ENGINES`; :func:`refusal` is the one rule
for whether a forced engine can run a request.  Every circuit runs
through a cached :class:`NoisePlan` (:mod:`repro.execution.noise_plan`,
lowered by :mod:`repro.execution.plan`); noiseless runs use the
noise-free plan.
"""

from ..simulator.counts import Counts
from .api import ENGINES, refusal, run, select_engine
from .noise_plan import ChannelBinding, NoisePlan, build_noise_plan
from .plan_cache import (
    PlanCache,
    get_noise_plan,
    get_noise_plan_cache,
    get_plan,
    get_plan_cache,
)

__all__ = [
    "ChannelBinding",
    "Counts",
    "ENGINES",
    "NoisePlan",
    "PlanCache",
    "build_noise_plan",
    "get_noise_plan",
    "get_noise_plan_cache",
    "get_plan",
    "get_plan_cache",
    "refusal",
    "run",
    "select_engine",
]
