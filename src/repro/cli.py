"""Command-line interface: ``python -m repro <command>``.

The practitioner-facing workflow the paper motivates — protecting a
design before sending it to third-party compilers:

* ``protect``  — read a circuit (OpenQASM 2 or RevLib ``.real``),
  obfuscate with TetrisLock, split along an interlocking boundary, and
  write the two compiler-ready segments plus a private metadata file
  the owner keeps for de-obfuscation.
* ``restore``  — stitch two (possibly separately processed) segments
  back together using the metadata and write the restored circuit.
* ``inspect``  — show a circuit's stats, layer grid and drawing.
* ``simulate`` — run a circuit through the unified execution layer
  (:func:`repro.execution.run`), optionally under the Valencia-style
  noise model, with engine selection.
* ``transpile`` — compile a circuit for a device through the preset
  pass schedule and report per-pass wall times plus transpile-cache
  statistics.
* ``attack`` — run one of the paper's adversary models from
  :mod:`repro.attacks` against a real split pair (straight Saki cut
  or obfuscate+interlocking cut) of a benchmark or circuit file, with
  ``--jobs`` parallel search, prefilter and early-exit knobs.
* ``verify-plan`` — static verification of the compiled-execution
  tier (:mod:`repro.analysis.static`): contract-check the plan a
  circuit lowers to, replay-prove the lowering never reordered
  non-commuting ops, and issue a stabilizer-tableau equivalence
  certificate for Clifford-only circuits; exit 0 clean / 2 on
  violations, ``--format json`` for CI.
* ``lint`` — the determinism linter (:mod:`repro.lint`): AST rules
  over library code (unseeded RNGs, stdlib ``random``, non-picklable
  registrations, raw ``hashlib``); flags pass through to
  ``python -m repro.lint``.
* ``serve``    — run the protection-as-a-service front-end: an HTTP/
  JSON endpoint over :class:`repro.service.JobService` (priority job
  queue, process-pool workers, circuit-hash result cache, simulate
  coalescing); drains gracefully on SIGINT/SIGTERM.
* ``submit``   — client for a running ``repro serve``: submit
  protect / simulate / transpile / evaluate / attack jobs, poll
  status, cancel; circuits travel as OpenQASM 2.
* ``experiment`` — the unified experiment framework:
  ``repro experiment list|run|resume|report`` runs any registered
  experiment grid with persistent JSONL checkpoints under
  ``results/``, exact resume after an interruption, ``--shard i/n``
  splitting for multi-machine runs, and a uniform ``--jobs`` knob.
  It is the one way to run the paper's experiments: ``repro
  experiment run table1`` (or ``figure4``, ``attack_complexity``,
  ...); ``repro experiment list`` shows every spec and its
  parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from .attacks import ATTACKS, SearchOptions
from .circuits import QuantumCircuit, draw_circuit, from_qasm, to_qasm
from .circuits.grid import OccupancyGrid
from .execution import (
    ENGINES,
    get_noise_plan_cache,
    get_plan_cache,
    run as execute,
    select_engine,
)
from .noise import valencia_like_backend
from .revlib import parse_real, write_real
from .transpiler import DEVICE_TARGETS

__all__ = ["main"]


def _load_circuit(path: str) -> QuantumCircuit:
    text = Path(path).read_text()
    if path.endswith(".real"):
        return parse_real(text, name=Path(path).stem)
    return from_qasm(text)


def _fail(exc: BaseException) -> int:
    """Report *exc* as a clean CLI error (exit 2, no traceback).

    ``OSError.args[0]`` is the bare errno, so those keep ``str()``
    (which includes the filename); everything else prefers the first
    argument to avoid repr noise.
    """
    message = (
        str(exc)
        if isinstance(exc, OSError)
        else exc.args[0] if exc.args else str(exc)
    )
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_circuit(circuit: QuantumCircuit, path: str) -> None:
    if path.endswith(".real"):
        Path(path).write_text(write_real(circuit))
    else:
        Path(path).write_text(to_qasm(circuit))


def _cmd_protect(args: argparse.Namespace) -> int:
    from .core.protect import protect_circuit

    stem = Path(args.output_prefix)
    seg1_path = f"{stem}.seg1.qasm"
    seg2_path = f"{stem}.seg2.qasm"
    try:
        circuit = _load_circuit(args.circuit)
        protection = protect_circuit(
            circuit,
            gate_limit=args.gate_limit,
            gate_pool=tuple(args.gate_pool.split(",")),
            seed=args.seed,
        )
        split = protection.split
        _write_circuit(split.segment1.compact, seg1_path)
        _write_circuit(split.segment2.compact, seg2_path)
        metadata = protection.metadata(seg1_path, seg2_path)
        meta_path = f"{stem}.tetrislock.json"
        Path(meta_path).write_text(json.dumps(metadata, indent=2))
    except (OSError, ValueError) as exc:
        # missing/unreadable files, malformed QASM/RevLib input
        return _fail(exc)
    insertion = protection.insertion
    print(f"inserted {insertion.num_pairs} random pair(s); depth "
          f"{circuit.depth()} -> {insertion.obfuscated.depth()}")
    print(f"segment 1: {seg1_path} "
          f"({split.segment1.num_active_qubits} qubits)")
    print(f"segment 2: {seg2_path} "
          f"({split.segment2.num_active_qubits} qubits)")
    print(f"private metadata (keep secret): {meta_path}")
    return 0


def _cmd_verify_plan(args: argparse.Namespace) -> int:
    from .analysis.static import verify_plan
    from .revlib.benchmarks import benchmark_circuit

    try:
        if args.circuit:
            circuit = _load_circuit(args.circuit)
            name = args.circuit
        else:
            circuit = benchmark_circuit(args.benchmark)
            name = args.benchmark
        noise_model = None
        if args.noisy:
            noise_model = valencia_like_backend(
                circuit.num_qubits
            ).noise_model()
        result = verify_plan(circuit, noise_model)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(exc)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "circuit": name,
                    "num_qubits": circuit.num_qubits,
                    "noisy": bool(args.noisy),
                    **result.to_dict(),
                },
                indent=2,
            )
        )
        return 0 if result.ok else 2
    print(f"verify-plan: {name} ({circuit.num_qubits} qubits)")
    for line in result.summary_lines():
        print(f"  {line}")
    print(
        "result: all plans verified"
        if result.ok
        else "result: VIOLATIONS found"
    )
    return 0 if result.ok else 2


def _cmd_restore(args: argparse.Namespace) -> int:
    try:
        metadata = json.loads(Path(args.metadata).read_text())
        seg1 = _load_circuit(metadata["segment1"]["path"])
        seg2 = _load_circuit(metadata["segment2"]["path"])
        n = metadata["num_qubits"]
        restored = QuantumCircuit(n, name="restored")
        mapping1 = {
            compact: original
            for compact, original in enumerate(
                metadata["segment1"]["active_qubits"]
            )
        }
        mapping2 = {
            compact: original
            for compact, original in enumerate(
                metadata["segment2"]["active_qubits"]
            )
        }
        restored.extend(seg1.remap_qubits(mapping1, n).instructions)
        restored.extend(seg2.remap_qubits(mapping2, n).instructions)
        _write_circuit(restored, args.output)
    except KeyError as exc:
        print(
            f"error: metadata {args.metadata} is missing key {exc.args[0]!r}",
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError, TypeError) as exc:
        # missing metadata/segment files, bad JSON, malformed QASM
        return _fail(exc)
    print(f"restored circuit written to {args.output} "
          f"({restored.size()} gates, depth {restored.depth()})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        circuit = _load_circuit(args.circuit)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    grid = OccupancyGrid(circuit)
    print(f"name:   {circuit.name}")
    print(f"qubits: {circuit.num_qubits}")
    print(f"gates:  {circuit.size()}  depth: {circuit.depth()}")
    print(f"ops:    {dict(circuit.count_ops())}")
    print(f"empty slots: {grid.total_free_slots()} "
          f"(occupancy {grid.occupancy_ratio():.0%})")
    print(f"idle staircase: {grid.staircase()}")
    print()
    print(draw_circuit(circuit))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        circuit = _load_circuit(args.circuit)
        if not circuit.has_measurements():
            circuit = circuit.copy().measure_all()
        noise_model = None
        if args.noisy:
            backend = valencia_like_backend(max(circuit.num_qubits, 2))
            noise_model = backend.noise_model()
        method = args.method
        engine = (
            select_engine(circuit, shots=args.shots, noise_model=noise_model)
            if method == "auto"
            else method
        )
        counts = execute(
            circuit,
            args.shots,
            noise_model=noise_model,
            method=method,
            seed=args.seed,
        )
    except (OSError, ValueError, TypeError) as exc:
        # missing/malformed input, or an engine that cannot run it
        return _fail(exc)
    print(f"engine: {engine}  shots: {counts.shots}  "
          f"noise: {'valencia-like' if noise_model else 'none'}")
    for bitstring, count in counts.top(args.top):
        print(f"  {bitstring}  {count:>6}  ({count / counts.shots:.3f})")
    stats = get_plan_cache().stats()
    print(f"plan cache: {stats.size}/{stats.maxsize} entries, "
          f"{stats.hits} hit(s), {stats.misses} miss(es)")
    if noise_model is not None:
        noise_stats = get_noise_plan_cache().stats()
        print(f"noise-plan cache: {noise_stats.size}/"
              f"{noise_stats.maxsize} entries, {noise_stats.hits} "
              f"hit(s), {noise_stats.misses} miss(es)")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    from .transpiler import get_transpile_cache, transpile

    try:
        circuit = _load_circuit(args.circuit)
        size = args.size or max(circuit.num_qubits, 2)
        result = transpile(
            circuit,
            **DEVICE_TARGETS[args.coupling](size),
            layout_method=args.layout,
            optimization_level=args.level,
        )
    except (OSError, ValueError) as exc:
        return _fail(exc)
    print(f"size:  {circuit.size()} -> {result.size}   "
          f"depth: {circuit.depth()} -> {result.depth}   "
          f"swaps: {result.swap_count}")
    print(f"initial layout: {result.initial_layout}")
    print(f"final layout:   {result.final_layout}")
    print("pass timings"
          + ("  (from cache; timings are the original compile's)"
             if result.from_cache else "") + ":")
    for name, seconds in result.pass_timings.items():
        print(f"  {name:<22s} {seconds * 1e3:8.3f} ms")
    print(f"  {'total':<22s} {result.compile_seconds * 1e3:8.3f} ms")
    stats = get_transpile_cache().stats()
    print(f"transpile cache: {stats.size}/{stats.maxsize} entries, "
          f"{stats.hits} hit(s), {stats.misses} miss(es)")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    import time

    from .attacks import plan_attack
    from .revlib.benchmarks import benchmark_circuit

    if args.list_adversaries:
        for name in sorted(ATTACKS):
            print(name)
        return 0
    try:
        if args.circuit is not None:
            circuit = _load_circuit(args.circuit)
        else:
            circuit = benchmark_circuit(args.benchmark)
        problem, attack = plan_attack(
            circuit, args.adversary, seed=args.seed,
            gate_limit=args.gate_limit,
        )
        options = SearchOptions(
            max_candidates=args.max_candidates,
            prefilter=not args.no_prefilter,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            early_exit=args.early_exit,
            seed=args.search_seed,
        )
        started = time.perf_counter()
        outcome = attack.search(problem, options)
        elapsed = time.perf_counter() - started
    except (KeyError, ValueError, RuntimeError, OSError) as exc:
        return _fail(exc)
    n1, n2 = problem.widths
    print(f"target:    {problem.description}")
    print(f"adversary: {outcome.attack}  segments: {n1}x{n2} qubits "
          f"({'mismatched' if problem.mismatched else 'same width'})")
    print(f"search:    {outcome.candidates_tried} tried, "
          f"{outcome.pruned} pruned of {outcome.search_space} "
          f"candidates ({elapsed * 1e3:.1f} ms, jobs={args.jobs}"
          f"{', early exit' if outcome.early_exit else ''})")
    first = outcome.first_match
    if first is not None:
        mapping = ", ".join(
            f"{src}->{dst}" for src, dst in first.mapping
        )
        print(f"matches:   {outcome.matches} functional match(es); "
              f"first at candidate {first.index} ({mapping})")
    print(f"verdict:   attack "
          f"{'succeeds' if outcome.success else 'fails'}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import JobService
    from .service.http import make_server

    try:
        service = JobService(
            workers=args.workers,
            cache_size=args.cache_size,
            coalesce=not args.no_coalesce,
            max_batch=args.max_batch,
        ).start()
    except (ValueError, OSError) as exc:
        return _fail(exc)
    try:
        httpd = make_server(
            service, args.host, args.port, quiet=not args.verbose
        )
    except OSError as exc:
        service.shutdown(drain=False)
        return _fail(exc)
    host, port = httpd.server_address[:2]
    print(
        f"repro service on http://{host}:{port}  "
        f"(workers={args.workers}, "
        f"coalesce={'off' if args.no_coalesce else 'on'}, "
        f"cache={args.cache_size})",
        flush=True,
    )

    def _stop(signum, frame):
        # shutdown() waits for serve_forever to exit, which this very
        # thread is blocked in — run it from a helper thread
        threading.Thread(
            target=httpd.shutdown, name="repro-serve-signal"
        ).start()

    signal.signal(signal.SIGTERM, _stop)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        print("draining jobs...", flush=True)
        service.shutdown(drain=True)
        print("service stopped", flush=True)
    return 0


def _submit_params(args: argparse.Namespace) -> dict:
    """The job's wire params: only the options given, by field name,
    so an omitted one takes the request's own default."""
    from .service.requests import REQUEST_TYPES

    names = {f.name for f in fields(REQUEST_TYPES[args.action])}
    params = {k: v for k, v in vars(args).items() if k in names}
    if "qasm" in params:
        params["qasm"] = to_qasm(_load_circuit(params["qasm"]))
        params.pop("benchmark", None)  # --circuit replaces the default
    return params


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import HTTPServiceClient, ServiceError

    client = HTTPServiceClient(args.url)
    try:
        if args.action == "status":
            print(json.dumps(client.status(args.job_id), indent=2))
            return 0
        if args.action == "cancel":
            cancelled = client.cancel(args.job_id)
            print(json.dumps({"id": args.job_id, "cancelled": cancelled}))
            return 0 if cancelled else 2
        job_id = client.submit(
            args.action, _submit_params(args), priority=args.priority
        )
        if args.no_wait:
            print(json.dumps(client.status(job_id), indent=2))
            return 0
        view = client.wait_for(job_id, timeout=args.timeout)
        if view is None:
            print(
                f"error: job {job_id} not finished after "
                f"{args.timeout}s (it keeps running; poll with "
                f"'repro submit status {job_id}')",
                file=sys.stderr,
            )
            return 2
    except (ServiceError, OSError, ValueError) as exc:
        return _fail(exc)
    print(json.dumps(view, indent=2))
    if view["state"] != "done":
        print(
            f"error: job {job_id} {view['state']}: {view.get('error')}",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="TetrisLock split compilation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    protect = sub.add_parser("protect", help="obfuscate + split a circuit")
    protect.add_argument("circuit", help=".qasm or .real input")
    protect.add_argument("-o", "--output-prefix", default="protected")
    protect.add_argument("--gate-limit", type=int, default=4)
    protect.add_argument("--gate-pool", default="x,cx")
    protect.add_argument("--seed", type=int, default=None)
    protect.set_defaults(func=_cmd_protect)

    restore = sub.add_parser("restore", help="recombine split segments")
    restore.add_argument("metadata", help="*.tetrislock.json file")
    restore.add_argument("-o", "--output", default="restored.qasm")
    restore.set_defaults(func=_cmd_restore)

    inspect = sub.add_parser("inspect", help="show circuit statistics")
    inspect.add_argument("circuit")
    inspect.set_defaults(func=_cmd_inspect)

    simulate = sub.add_parser(
        "simulate", help="run a circuit through repro.execution.run"
    )
    simulate.add_argument("circuit", help=".qasm or .real input")
    simulate.add_argument("--shots", type=int, default=1000)
    simulate.add_argument(
        "--method", default="auto",
        help="engine name or 'auto' (available: "
        + ", ".join(ENGINES) + ")",
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--noisy", action="store_true",
        help="attach the Valencia-style noise model",
    )
    simulate.add_argument("--top", type=int, default=5,
                          help="outcomes to print")
    simulate.set_defaults(func=_cmd_simulate)

    transpile_cmd = sub.add_parser(
        "transpile",
        help="compile a circuit and report per-pass timings",
    )
    transpile_cmd.add_argument("circuit", help=".qasm or .real input")
    transpile_cmd.add_argument(
        "--coupling", default="valencia",
        choices=DEVICE_TARGETS,
        help="target topology (default: Valencia-style backend)",
    )
    transpile_cmd.add_argument(
        "--size", type=int, default=None,
        help="device qubit count (default: circuit size)",
    )
    transpile_cmd.add_argument(
        "--layout", default="greedy", choices=("greedy", "trivial")
    )
    transpile_cmd.add_argument("--level", type=int, default=1,
                               help="optimization level 0-3")
    transpile_cmd.set_defaults(func=_cmd_transpile)

    attack = sub.add_parser(
        "attack",
        help="run one of the paper's adversary models against a "
        "split pair",
    )
    target = attack.add_mutually_exclusive_group()
    target.add_argument(
        "--benchmark", default="4gt13",
        help="RevLib benchmark to protect and attack",
    )
    target.add_argument(
        "--circuit", default=None,
        help=".qasm or .real input instead of a named benchmark",
    )
    attack.add_argument(
        "--adversary", default="auto", choices=("auto", *ATTACKS),
        help="adversary model: 'same-width' brute-forces a "
        "straight Saki split, 'mismatched' the obfuscated "
        "interlocking split (Eq. 1); 'auto' picks the cheapest "
        "supporting attack for the interlocking split",
    )
    attack.add_argument("--seed", type=int, default=0,
                        help="obfuscation/split seed")
    attack.add_argument("--gate-limit", type=int, default=4,
                        help="inserted-pair budget before splitting")
    attack.add_argument("--jobs", type=int, default=1,
                        help="parallel search processes")
    attack.add_argument(
        "--chunk-size", type=int, default=SearchOptions.chunk_size,
        help="candidates per pool task and per early-exit step (a "
        "sequential full search walks the stream once)",
    )
    attack.add_argument("--max-candidates", type=int, default=500_000,
                        help="refuse searches larger than this")
    attack.add_argument(
        "--no-prefilter", action="store_true",
        help="disable structural pruning (exact per-candidate counts)",
    )
    attack.add_argument(
        "--early-exit", action="store_true",
        help="stop after the first functional match",
    )
    attack.add_argument(
        "--search-seed", type=int, default=None,
        help="deterministic shuffle of the chunk dispatch order",
    )
    attack.add_argument(
        "--list-adversaries", action="store_true",
        help="print the adversary model names and exit",
    )
    attack.set_defaults(func=_cmd_attack)

    verify = sub.add_parser(
        "verify-plan",
        help="statically verify the execution plan(s) a circuit "
        "lowers to: contracts + lowering proof + tableau certificate",
    )
    verify_target = verify.add_mutually_exclusive_group()
    verify_target.add_argument(
        "--benchmark", default="4gt13",
        help="RevLib benchmark to verify",
    )
    verify_target.add_argument(
        "--circuit", default=None,
        help=".qasm or .real input instead of a named benchmark",
    )
    verify.add_argument(
        "--noisy", action="store_true",
        help="also build and contract-check the noise-bound plan "
        "against a Valencia-style noise model (anchor-crossing proof)",
    )
    verify.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (default: text)",
    )
    verify.set_defaults(func=_cmd_verify_plan)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON job service (protection as a service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8976,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes / max in-flight batches")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable simulate-request batching")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="max coalesced jobs per worker call")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit jobs to a running `repro serve`"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8976")
    submit.add_argument("--priority", type=int, default=0,
                        help="lower values run first (default 0)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the queued job and exit immediately")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for completion")
    actions = submit.add_subparsers(dest="action", required=True)

    def _job_parser(kind, summary):
        # an omitted option stays out of the namespace: the request's
        # own default applies, stated once on its dataclass
        job = actions.add_parser(
            kind, help=summary, argument_default=argparse.SUPPRESS
        )
        job.set_defaults(func=_cmd_submit)
        if kind in ("evaluate", "attack"):
            target = job.add_mutually_exclusive_group()
            target.add_argument("--benchmark", default="4gt13",
                                help="RevLib benchmark name")
            target.add_argument("--circuit", dest="qasm", metavar="CIRCUIT",
                                help=".qasm or .real input instead")
        else:
            job.add_argument("qasm", metavar="circuit",
                             help=".qasm or .real input")
        return job

    sim_job = _job_parser("simulate", "noisy/noiseless run")
    sim_job.add_argument("--shots", type=int)
    sim_job.add_argument("--seed", type=int)
    sim_job.add_argument("--noisy", action="store_true")
    sim_job.add_argument("--method")

    protect_job = _job_parser("protect", "obfuscate + split via the service")
    protect_job.add_argument("--gate-limit", type=int)
    protect_job.add_argument("--gate-pool")
    protect_job.add_argument("--seed", type=int)

    transpile_job = _job_parser("transpile", "compile for a device topology")
    transpile_job.add_argument("--coupling", choices=DEVICE_TARGETS)
    transpile_job.add_argument("--size", type=int)
    transpile_job.add_argument("--layout", choices=("greedy", "trivial"))
    transpile_job.add_argument("--level", type=int)

    evaluate_job = _job_parser(
        "evaluate", "full pipeline evaluation (Sec. V)"
    )
    evaluate_job.add_argument("--shots", type=int)
    evaluate_job.add_argument("--gate-limit", type=int)
    evaluate_job.add_argument("--iterations", type=int)
    evaluate_job.add_argument("--seed", type=int)

    attack_job = _job_parser(
        "attack", "adversary search against a protected split"
    )
    attack_job.add_argument("--adversary", choices=("auto", *ATTACKS))
    attack_job.add_argument("--seed", type=int)
    attack_job.add_argument("--gate-limit", type=int)
    attack_job.add_argument("--max-candidates", type=int)
    attack_job.add_argument("--no-prefilter", dest="prefilter",
                            action="store_false")
    attack_job.add_argument("--early-exit", action="store_true")

    status_job = actions.add_parser("status", help="poll one job")
    status_job.add_argument("job_id")
    status_job.set_defaults(func=_cmd_submit)

    cancel_job = actions.add_parser("cancel", help="cancel a queued job")
    cancel_job.add_argument("job_id")
    cancel_job.set_defaults(func=_cmd_submit)

    # add_help=False on the forwarding stubs: -h lands in `extra` and
    # reaches the real parser, so `repro experiment run -h` shows the
    # framework's help instead of the stub's empty usage line
    experiment = sub.add_parser(
        "experiment",
        add_help=False,
        help="declarative experiment framework: list|run|resume|report "
        "(checkpointed, resumable, shardable grids)",
    )
    experiment.set_defaults(func=None, forward="experiment")

    lint = sub.add_parser(
        "lint",
        add_help=False,
        help="determinism linter over library code "
        "(flags pass through to python -m repro.lint)",
    )
    lint.set_defaults(func=None, forward="lint")

    # parse_known_args forwards the experiment and lint flags to their
    # own parsers instead of rejecting them
    args, extra = parser.parse_known_args(argv)
    if args.func is None:
        if args.forward == "lint":
            from .lint.cli import main as lint_main

            return lint_main(extra)
        from .experiments.framework.cli import main as experiment_main

        return experiment_main(extra)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
