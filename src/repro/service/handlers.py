"""Request handlers: the code a worker process runs for one job.

A handler is a pure, picklable, module-level function from a params
dict (the request's canonical wire form) to a JSON-safe result dict.
A typed kind's params carry every field of its request, defaults
filled in and types checked at submit, so handlers read them by name.
:data:`HANDLERS` maps each request kind to its handler: the five typed
kinds of :mod:`repro.service.requests`, plus the internal ``_sleep``
and ``_crash`` kinds that only in-process callers (failure-path tests,
benchmark warm-ups) can submit.

Determinism contract: every typed kind's handler is a pure function of
its params.  Requests carry explicit seeds, multi-iteration work spawns
per-iteration seeds positionally (``SeedSequence(seed).spawn(n)[i]``,
the experiment framework's scheme), and nothing reads ambient state —
so any job's result is reproducible regardless of worker count, queue
order or cache contents.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict

import numpy as np

__all__ = ["HANDLERS", "execute_request"]

Handler = Callable[[Dict[str, Any]], Dict[str, Any]]


# ---------------------------------------------------------------------------
# typed kinds
# ---------------------------------------------------------------------------


def handle_simulate(params: Dict[str, Any]) -> Dict[str, Any]:
    """Noisy/noiseless simulation through :func:`repro.execution.run`."""
    from ..execution import run as execute, select_engine
    from .requests import prepare_circuit, simulate_noise_model

    circuit = prepare_circuit(params["qasm"])
    noise_model = simulate_noise_model(circuit) if params["noisy"] else None
    method, shots = params["method"], params["shots"]
    engine = (
        select_engine(circuit, shots=shots, noise_model=noise_model)
        if method == "auto"
        else method
    )
    counts = execute(
        circuit,
        shots,
        noise_model=noise_model,
        method=engine,  # already resolved; skip a second auto-dispatch
        seed=params["seed"],
    )
    return {
        "counts": counts.to_dict(),
        "engine": engine,
        "shots": counts.shots,
    }


def handle_protect(params: Dict[str, Any]) -> Dict[str, Any]:
    """TetrisLock obfuscation + interlocking split; segments as QASM."""
    from ..circuits.qasm import from_qasm, to_qasm
    from ..core.protect import protect_circuit

    circuit = from_qasm(params["qasm"])
    protection = protect_circuit(
        circuit,
        gate_limit=params["gate_limit"],
        gate_pool=params["gate_pool"].split(","),
        seed=params["seed"],
    )
    return {
        "segment1_qasm": to_qasm(protection.split.segment1.compact),
        "segment2_qasm": to_qasm(protection.split.segment2.compact),
        "metadata": protection.metadata(),
    }


def handle_transpile(params: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic compile through the preset pass schedule."""
    from ..circuits.qasm import from_qasm, to_qasm
    from ..transpiler import DEVICE_TARGETS, transpile

    circuit = from_qasm(params["qasm"])
    size = params["size"] or max(circuit.num_qubits, 2)
    result = transpile(
        circuit,
        **DEVICE_TARGETS[params["coupling"]](size),
        layout_method=params["layout"],
        optimization_level=params["level"],
    )
    return {
        "qasm": to_qasm(result.circuit),
        "size": result.size,
        "depth": result.depth,
        "swap_count": result.swap_count,
        "initial_layout": result.initial_layout.to_dict(),
        "final_layout": result.final_layout.to_dict(),
        "compile_seconds": result.compile_seconds,
    }


def _target_circuit(params: Dict[str, Any]):
    from ..circuits.qasm import from_qasm
    from ..revlib.benchmarks import load_benchmark

    if params["qasm"] is not None:
        return from_qasm(params["qasm"]), None
    record = load_benchmark(params["benchmark"])
    return record.circuit(), record


def handle_evaluate(params: Dict[str, Any]) -> Dict[str, Any]:
    """Full pipeline evaluation (Sec. V) over *iterations* runs."""
    from ..core.pipeline import evaluate_iteration

    circuit, record = _target_circuit(params)
    children = np.random.SeedSequence(params["seed"]).spawn(
        params["iterations"]
    )
    results = []
    for child in children:
        evaluation = evaluate_iteration(
            circuit,
            record.name if record is not None else circuit.name,
            record.output_qubits if record is not None else None,
            shots=params["shots"],
            gate_limit=params["gate_limit"],
            seed=child,
        )
        results.append(
            {
                **evaluation.to_dict(),
                "accuracy_original": evaluation.accuracy_original,
                "accuracy_restored": evaluation.accuracy_restored,
                "tvd_obfuscated": evaluation.tvd_obfuscated,
                "tvd_restored": evaluation.tvd_restored,
            }
        )
    return {"iterations": results}


def handle_attack(params: Dict[str, Any]) -> Dict[str, Any]:
    """One adversary search against a protected split (sequential)."""
    from ..attacks import SearchOptions, get_attack, problem_for, select_attack

    circuit, _ = _target_circuit(params)
    adversary = params["adversary"]
    problem = problem_for(
        circuit,
        adversary,
        seed=params["seed"],
        gate_limit=params["gate_limit"],
    )
    attack = (
        select_attack(problem)
        if adversary == "auto"
        else get_attack(adversary)
    )
    options = SearchOptions(
        max_candidates=params["max_candidates"],
        prefilter=params["prefilter"],
        early_exit=params["early_exit"],
    )
    outcome = attack.search(problem, options)
    first = outcome.first_match
    return {
        "adversary": outcome.attack,
        "widths": list(problem.widths),
        "mismatched": problem.mismatched,
        "search_space": outcome.search_space,
        "candidates_tried": outcome.candidates_tried,
        "pruned": outcome.pruned,
        "matches": outcome.matches,
        "success": outcome.success,
        "early_exit": outcome.early_exit,
        "first_match": None
        if first is None
        else {
            "index": first.index,
            "mapping": [list(pair) for pair in first.mapping],
        },
    }


# -- internal handlers (failure-path tests, benchmarks, smoke) --------------


def _handle_sleep(params: Dict[str, Any]) -> Dict[str, Any]:
    """Hold a worker busy — lets tests observe queue/drain behaviour."""
    seconds = float(params.get("seconds", 0.1))
    time.sleep(seconds)
    return {"slept": seconds}


def _handle_crash(params: Dict[str, Any]) -> Dict[str, Any]:
    """Kill the worker process abruptly (no exception, no cleanup)."""
    os._exit(int(params.get("code", 1)))


HANDLERS: Dict[str, Handler] = {
    "simulate": handle_simulate,
    "protect": handle_protect,
    "transpile": handle_transpile,
    "evaluate": handle_evaluate,
    "attack": handle_attack,
    "_sleep": _handle_sleep,
    "_crash": _handle_crash,
}


def execute_request(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point: run the handler for *kind*."""
    return HANDLERS[kind](params)
