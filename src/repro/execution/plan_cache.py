"""Per-process cache of compiled :class:`~repro.execution.plan.ExecutionPlan`.

Tracing and fusing a circuit is deterministic, so a plan can be shared
by every caller that simulates a structurally equal circuit: repeated
shots in a benchmark suite, experiment grid cells, coalesced service
batches and attack-oracle equivalence checks.  The cache is built on
the shared :class:`~repro._lru.LRUCache` core and keyed by the
circuit's structural hash (:func:`~repro.transpiler.cache.\
circuit_structural_hash`).  Plans are immutable once
built (their lazily-compiled per-dtype/layout streams are guarded by a
per-plan lock), so the copy hooks are identity — a hit costs one dict
lookup.

Cache stats follow the transpile-cache discipline: ``misses`` counts
exactly the circuits that had to be traced, which is what the bench
smoke asserts ("zero re-traces on cache hits").

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
from .plan import ExecutionPlan, build_plan

__all__ = [
    "CacheStats",
    "PlanCache",
    "get_noise_plan",
    "get_noise_plan_cache",
    "get_plan",
    "get_plan_cache",
]


def _validate_plan(plan: ExecutionPlan, circuit: QuantumCircuit) -> ExecutionPlan:
    # late import: analysis.static imports the plan IR from this package
    from ..analysis.static.contracts import validate_plan

    return validate_plan(plan, circuit)


def _validate_noise_plan(
    plan: NoisePlan,
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
) -> NoisePlan:
    from ..analysis.static.contracts import validate_noise_plan

    return validate_noise_plan(plan, circuit, noise_model)


class PlanCache(LRUCache):
    """Thread-safe LRU cache of execution plans.

    Plans are immutable, so both copy hooks are the identity (the
    base-class default) — unlike the transpile cache, no cloning is
    needed in either direction.
    """

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)

    def plan_for(
        self, circuit: QuantumCircuit, *, validate: bool = False
    ) -> ExecutionPlan:
        """The cached plan for *circuit*, tracing it on first sight.

        With ``validate=True`` every freshly built plan is
        contract-checked before it is stored;
        :class:`~repro.analysis.static.PlanContractError` carries the
        full violation report.
        """
        key = circuit_structural_hash(circuit)
        plan = self.lookup(key)
        if plan is None:
            plan = build_plan(circuit)
            if validate:
                _validate_plan(plan, circuit)
            self.store(key, plan)
        return plan

    def noise_plan_for(
        self,
        circuit: QuantumCircuit,
        noise_model: Optional[NoiseModel] = None,
        *,
        validate: bool = False,
    ) -> NoisePlan:
        """The cached noise-bound plan for (*circuit*, *noise_model*).

        Keyed by the circuit's structural hash x the model's content
        fingerprint, so two different models on one circuit never
        collide and mutating a model (through its ``add_*`` methods)
        re-keys it.  ``None`` (and trivial models,
        which fingerprint identically regardless of name) gets a
        noiseless key slot of its own.  ``validate=True`` behaves as in
        :meth:`plan_for` (including the anchor-structure proof against
        the circuit and model).
        """
        fingerprint = (
            noise_model.fingerprint() if noise_model is not None else None
        )
        key = (circuit_structural_hash(circuit), fingerprint)
        plan = self.lookup(key)
        if plan is None:
            plan = build_noise_plan(circuit, noise_model)
            if validate:
                _validate_noise_plan(plan, circuit, noise_model)
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
    """The per-process cache every engine consults."""
    return _GLOBAL_CACHE


def get_noise_plan_cache() -> PlanCache:
    """The per-process cache of noise-bound plans."""
    return _GLOBAL_NOISE_CACHE


def get_plan(
    circuit: QuantumCircuit, *, validate: bool = False
) -> ExecutionPlan:
    """Cached trace + lower of *circuit*."""
    return _GLOBAL_CACHE.plan_for(circuit, validate=validate)


def get_noise_plan(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    *,
    validate: bool = False,
) -> NoisePlan:
    """Cached noise-bound trace of (*circuit*, *noise_model*)."""
    return _GLOBAL_NOISE_CACHE.noise_plan_for(
        circuit, noise_model, validate=validate
    )
