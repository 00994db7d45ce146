"""Request handlers: the code a worker process runs for one job.

A handler is a pure, picklable, module-level function from a params
dict (the request's canonical wire form) to a JSON-safe result dict.
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
    noise_model = (
        simulate_noise_model(circuit) if params.get("noisy") else None
    )
    method = params.get("method", "auto")
    shots = int(params.get("shots", 1000))
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
        seed=params.get("seed"),
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
        gate_limit=int(params.get("gate_limit", 4)),
        gate_pool=tuple(params.get("gate_pool", "x,cx").split(",")),
        seed=params.get("seed"),
    )
    return {
        "segment1_qasm": to_qasm(protection.split.segment1.compact),
        "segment2_qasm": to_qasm(protection.split.segment2.compact),
        "metadata": protection.metadata(),
    }


def handle_transpile(params: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic compile through the preset pass schedule."""
    from ..circuits.qasm import from_qasm, to_qasm
    from ..noise.backend import valencia_like_backend
    from ..transpiler import CouplingMap, transpile

    circuit = from_qasm(params["qasm"])
    size = params.get("size") or max(circuit.num_qubits, 2)
    backend = None
    coupling = None
    kind = params.get("coupling", "valencia")
    if kind == "valencia":
        backend = valencia_like_backend(size)
    elif kind == "line":
        coupling = CouplingMap.line(size)
    elif kind == "ring":
        coupling = CouplingMap.ring(size)
    else:
        coupling = CouplingMap.full(size)
    result = transpile(
        circuit,
        backend=backend,
        coupling=coupling,
        layout_method=params.get("layout", "greedy"),
        optimization_level=int(params.get("level", 1)),
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

    if params.get("qasm") is not None:
        return from_qasm(params["qasm"]), None
    record = load_benchmark(params["benchmark"])
    return record.circuit(), record


def handle_evaluate(params: Dict[str, Any]) -> Dict[str, Any]:
    """Full pipeline evaluation (Sec. V) over *iterations* runs."""
    from ..core.pipeline import TetrisLockPipeline

    circuit, record = _target_circuit(params)
    output_qubits = record.output_qubits if record is not None else None
    iterations = int(params.get("iterations", 1))
    seed = params.get("seed")
    children = np.random.SeedSequence(seed).spawn(iterations)
    results = []
    for child in children:
        pipeline = TetrisLockPipeline(
            shots=int(params.get("shots", 1000)),
            gate_limit=int(params.get("gate_limit", 4)),
            seed=np.random.default_rng(child),
        )
        evaluation = pipeline.evaluate(
            circuit,
            name=record.name if record is not None else circuit.name,
            output_qubits=output_qubits,
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
    adversary = params.get("adversary", "auto")
    problem = problem_for(
        circuit,
        adversary,
        seed=int(params.get("seed", 0)),
        gate_limit=int(params.get("gate_limit", 4)),
    )
    attack = (
        select_attack(problem)
        if adversary == "auto"
        else get_attack(adversary)
    )
    options = SearchOptions(
        max_candidates=int(params.get("max_candidates", 500_000)),
        prefilter=bool(params.get("prefilter", True)),
        early_exit=bool(params.get("early_exit", False)),
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
