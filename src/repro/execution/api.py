"""The single entry point every caller simulates through.

``run(circuit, shots)`` dispatches each request straight to the
simulator that serves it:

* noiseless circuit, terminal measurements -> ``statevector`` (one
  evolution + multinomial sampling, independent of the shot count);
* noisy circuit, terminal measurements, ``2^n < C * shots`` ->
  ``density`` (the noise plan evolved exactly on the density tensor);
* any other noisy circuit, or mid-circuit measurement -> ``trajectory``
  (the trajectory ensemble: per-shot channel sampling and collapse, all
  shots evolved in chunked tensors).

Both noisy engines run the cached noise plan and take one ``entropy``
integer from the caller's generator: the engine moves only the counts.

Pass ``method=<engine name>`` (one of :data:`ENGINES`) to bypass
dispatch; :func:`refusal` is the one rule deciding whether a forced
engine can run a request, shared with the service's submit-time check.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..simulator import density, noisy
from ..simulator.counts import Counts
from ..simulator.trajectory import (
    measures_are_terminal,
    sample_terminal_counts,
    terminal_distribution,
)
from . import plan_cache

__all__ = ["ENGINES", "refusal", "run", "select_engine"]

Seed = Optional[Union[int, np.random.Generator]]

ENGINES = ("density", "statevector", "trajectory")

# Auto dispatch runs a noisy terminal circuit exactly when 2^n < C *
# shots (exact cost ~ 4^n density entries, the ensemble's ~ shots x 2^n
# amplitudes) and n <= 11, where its peak of three complex128 density
# tensors is 192 MB.  On a 2-core x86 VM (Valencia-like noise), exact vs
# 100 / 1000 shots: 4gt13 1.4 vs 7.2 / 11 ms, rd53 18 vs 66 / 191 ms,
# rd73 (n=10) 2.0 vs 0.41 / 3.0 s: break-even at C ~ 1.6 for rd73, none
# for rd53.  C = 2 leans exact: at n = 10, 513-639 shots run <= 1.25x
# slower than the ensemble would.
_EXACT_COST = 2
_EXACT_MAX_QUBITS = 11


def _is_noisy(noise_model: Optional[NoiseModel]) -> bool:
    return noise_model is not None and not noise_model.is_trivial()


def refusal(
    method: str,
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
) -> Optional[str]:
    """Why engine *method* cannot run this request, or ``None``.

    ``trajectory`` runs everything.  ``statevector`` is noiseless, and
    both it and ``density`` sample one final distribution, so neither
    runs a circuit with mid-circuit measurement.
    """
    if method not in ENGINES:
        return (
            f"unknown method {method!r}; expected 'auto' or one of "
            f"{', '.join(ENGINES)}"
        )
    if method == "statevector" and _is_noisy(noise_model):
        return (
            "method 'statevector' cannot run a noisy circuit: the engine "
            "is noiseless; use 'trajectory' or 'density'"
        )
    if method != "trajectory" and not measures_are_terminal(circuit):
        return (
            f"method {method!r} cannot run mid-circuit measurement: it "
            "needs terminal measurements; use 'trajectory'"
        )
    return None


def select_engine(
    circuit: QuantumCircuit,
    *,
    shots: int,
    noise_model: Optional[NoiseModel] = None,
) -> str:
    """Name of the engine auto-dispatch would pick for this request."""
    if not measures_are_terminal(circuit):
        return "trajectory"
    if not _is_noisy(noise_model):
        return "statevector"
    n = circuit.num_qubits
    if n <= _EXACT_MAX_QUBITS and 2 ** n < _EXACT_COST * shots:
        return "density"
    return "trajectory"


def run(
    circuit: QuantumCircuit,
    shots: int = 1000,
    *,
    noise_model: Optional[NoiseModel] = None,
    method: str = "auto",
    seed: Seed = None,
) -> Counts:
    """Simulate *circuit* for *shots* and return its :class:`Counts`.

    Parameters
    ----------
    circuit:
        The circuit to execute.  Circuits without measurements use
        measure-all semantics (every qubit reported).
    shots:
        Number of samples (must be positive).
    noise_model:
        Optional :class:`~repro.noise.model.NoiseModel`; ``None`` or a
        trivial model selects the noiseless fast path.
    method:
        ``"auto"`` (default) picks the engine by :func:`select_engine`;
        any name in :data:`ENGINES` forces that engine, and a request
        it cannot run (see :func:`refusal`) raises :class:`ValueError`.
    seed:
        Integer seed or a shared :class:`numpy.random.Generator`.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if method == "auto":
        method = select_engine(circuit, shots=shots, noise_model=noise_model)
    else:
        reason = refusal(method, circuit, noise_model)
        if reason is not None:
            raise ValueError(reason)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    if (
        method != "density"
        and not _is_noisy(noise_model)
        and measures_are_terminal(circuit)
    ):
        probs, measured = terminal_distribution(circuit)
        return sample_terminal_counts(
            probs,
            measured,
            circuit.num_qubits,
            circuit.num_clbits,
            shots,
            rng,
        )
    # called through their modules so instrumentation that patches
    # ``plan_cache.get_noise_plan`` / ``noisy.run_noise_plan`` sees them
    noise_plan = plan_cache.get_noise_plan(circuit, noise_model)
    entropy = int(rng.integers(0, 2 ** 63))
    if method == "density":
        return density.run_density_plan(noise_plan, shots, entropy=entropy)
    return noisy.run_noise_plan(noise_plan, shots, entropy=entropy)
