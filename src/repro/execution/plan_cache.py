"""Per-process caches of compiled :class:`~repro.execution.noise_plan.NoisePlan`.

Tracing and fusing a circuit is deterministic, so a plan can be shared
by every caller that simulates a structurally equal circuit: repeated
shots in a benchmark suite, experiment grid cells, coalesced service
batches and attack-oracle equivalence checks.  The caches are built on
the shared :class:`~repro._lru.LRUCache` core and keyed by the
circuit's structural hash (:func:`~repro.transpiler.cache.\
circuit_structural_hash`), times the noise model's fingerprint for a
noisy plan.  Plans are immutable once built (their lazily-compiled
ensemble stream is guarded by a per-plan lock), so the copy hooks are
identity — a hit costs one dict lookup.

Two instances: :func:`get_plan` serves the noiseless runs (terminal
sampling, :meth:`~repro.simulator.Statevector.evolve`,
:func:`~repro.simulator.unitary.circuit_unitary`) and
:func:`get_noise_plan` the noise-plan engines.  Cache stats follow the
transpile-cache discipline: ``misses`` counts exactly the circuits that
had to be traced, which is what the bench smoke asserts ("zero
re-traces on cache hits").

The opt-in ``validate=`` knob contract-checks every freshly built plan
(:mod:`repro.analysis.static.contracts`) before it enters the cache —
a broken plan raises :class:`~repro.analysis.static.PlanContractError`
instead of being stored and served to every later caller.  Cache hits
are never re-checked: a plan validated once is immutable.
"""

from __future__ import annotations

from typing import Optional

from .._lru import CacheStats, LRUCache
from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..transpiler.cache import circuit_structural_hash
from .noise_plan import NoisePlan, build_noise_plan

__all__ = [
    "CacheStats",
    "PlanCache",
    "get_noise_plan",
    "get_noise_plan_cache",
    "get_plan",
    "get_plan_cache",
]


class PlanCache(LRUCache):
    """Thread-safe LRU cache of execution plans.

    Plans are immutable, so both copy hooks are the identity (the
    base-class default) — unlike the transpile cache, no cloning is
    needed in either direction.
    """

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)

    def plan_for(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        *,
        validate: bool = False,
    ) -> NoisePlan:
        """The cached plan for (*circuit*, *noise_model*), tracing it on
        first sight.

        A noiseless lookup (``None``) is keyed by the circuit's
        structural hash alone; a model adds its content fingerprint, so
        two different models on one circuit never collide and mutating
        a model (through its ``add_*`` methods) re-keys it.  With
        ``validate=True`` every freshly built plan is contract-checked
        against the circuit and model before it is stored;
        :class:`~repro.analysis.static.PlanContractError` carries the
        full violation report.
        """
        key = circuit_structural_hash(circuit)
        if noise_model is not None:
            key = (key, noise_model.fingerprint())
        plan = self.lookup(key)
        if plan is None:
            plan = build_noise_plan(circuit, noise_model)
            if validate:
                # late import: analysis.static imports the plan IR
                from ..analysis.static.contracts import validate_noise_plan

                validate_noise_plan(plan, circuit, noise_model)
            self.store(key, plan)
        return plan

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"PlanCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses})"
        )


_GLOBAL_CACHE = PlanCache()

# noise-bound plans live in their own cache instance: their entries are
# keyed (and sized) differently, and the bench smoke asserts "zero
# re-traces" against *this* cache's miss counter specifically
_GLOBAL_NOISE_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The per-process cache of noiseless plans."""
    return _GLOBAL_CACHE


def get_noise_plan_cache() -> PlanCache:
    """The per-process cache of noise-bound plans."""
    return _GLOBAL_NOISE_CACHE


def get_plan(
    circuit: QuantumCircuit, *, validate: bool = False
) -> NoisePlan:
    """Cached noise-free plan of *circuit*."""
    return _GLOBAL_CACHE.plan_for(circuit, validate=validate)


def get_noise_plan(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    *,
    validate: bool = False,
) -> NoisePlan:
    """Cached noise-bound trace of (*circuit*, *noise_model*)."""
    return _GLOBAL_NOISE_CACHE.plan_for(
        circuit, noise_model, validate=validate
    )
