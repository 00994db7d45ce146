"""``repro experiment`` — one CLI for every experiment.

Subcommands::

    repro experiment list
    repro experiment run <name> [config flags] [execution flags]
    repro experiment resume <name> [...]      # run with --resume implied
    repro experiment report <name> [config flags]

Config flags: ``--iterations``, ``--shots``, ``--seed`` and
``--benchmarks`` map onto the spec's config when the spec defines that
parameter; any other parameter is reachable as ``--set key=value``
(values parse as JSON, falling back to a plain string).  Execution
flags (``--jobs``, ``--shard i/n``, ``--resume``) never change results
or the checkpoint identity.

Runs checkpoint into ``results/<spec>/<config-hash>.jsonl`` (override
the root with ``--store``, disable with ``--no-store``); ``report``
renders a stored run without recomputing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .runner import parse_shard, run_experiment
from .spec import get_spec, list_specs
from .store import ResultStore, config_hash

__all__ = ["main"]


def _parse_set(values: Sequence[str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for item in values:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _collect_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    spec = get_spec(args.name)
    overrides = _parse_set(args.set or [])
    for key in ("iterations", "shots", "seed", "benchmarks"):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key not in spec.defaults:
            raise ValueError(
                f"experiment {args.name!r} has no {key!r} parameter"
            )
        overrides[key] = value
    return overrides


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="registered experiment name")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--shots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="subset of benchmark names",
    )
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", default=[],
        help="override any other spec parameter (value parsed as JSON)",
    )
    parser.add_argument(
        "--store", default="results",
        help="result-store root directory (default: results/)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers over grid cells (bit-identical to jobs=1)",
    )
    parser.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only cells with index %% N == I (for multi-machine runs)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse checkpointed cells instead of starting fresh",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="in-memory run: no checkpoint written, resume impossible",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    for spec in list_specs():
        print(f"{spec.name:<18s} {spec.description}")
        defaults = ", ".join(
            f"{key}={value!r}" for key, value in spec.defaults.items()
        )
        print(f"{'':18s} parameters: {defaults}")
    return 0


def _cmd_run(args: argparse.Namespace, resume: bool = False) -> int:
    overrides = _collect_overrides(args)
    store = None if args.no_store else ResultStore(args.store)
    resume = resume or args.resume
    if args.no_store and resume:
        print("error: --resume needs a store", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(line, flush=True)
    report = run_experiment(
        args.name,
        overrides,
        jobs=args.jobs,
        shard=parse_shard(args.shard),
        resume=resume,
        store=store,
        progress=progress,
    )
    print(
        f"experiment {report.spec} config {report.config_hash}: "
        f"{report.total_cells} cell(s), {report.reused} reused, "
        f"{report.computed} computed"
        + (f"  [{report.store_path}]" if report.store_path else "")
    )
    if not args.quiet and report.computed:
        # compiled-execution tier reuse across the grid's simulations
        # (per-process; parallel workers warm their own caches)
        from ...execution.plan_cache import (
            get_noise_plan_cache,
            get_plan_cache,
        )

        stats = get_plan_cache().stats()
        if stats.hits or stats.misses:
            print(
                f"plan cache: {stats.size}/{stats.maxsize} entries, "
                f"{stats.hits} hit(s), {stats.misses} trace(s)"
            )
        noise_stats = get_noise_plan_cache().stats()
        if noise_stats.hits or noise_stats.misses:
            print(
                f"noise-plan cache: {noise_stats.size}/"
                f"{noise_stats.maxsize} entries, {noise_stats.hits} "
                f"hit(s), {noise_stats.misses} trace(s)"
            )
    if report.complete:
        print(report.render())
        return 0
    print(
        f"shard incomplete: {report.reused + report.computed}/"
        f"{report.total_cells} cells stored; run the remaining shards, "
        f"then `repro experiment report {report.spec}`"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = get_spec(args.name)
    config = spec.config(_collect_overrides(args))
    cfg_hash = config_hash(config)
    store = ResultStore(args.store)
    raw = store.load(spec.store_key, cfg_hash)
    cells = spec.make_cells(config)
    have = [cell for cell in cells if cell.id in raw]
    if len(have) < len(cells):
        missing = len(cells) - len(have)
        print(
            f"experiment {spec.name} config {cfg_hash}: {len(have)}/"
            f"{len(cells)} cell(s) stored, {missing} missing — resume "
            f"with `repro experiment resume {spec.name} ...`",
            file=sys.stderr,
        )
        return 1
    results = {cell.id: spec.decode(raw[cell.id]) for cell in cells}
    print(
        f"experiment {spec.name} config {cfg_hash}: {len(cells)} "
        f"cell(s), all from {store.run_path(spec.store_key, cfg_hash)}"
    )
    print(spec.render(spec.aggregate(config, results)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiment",
        description="declarative experiment runner with persistent, "
        "resumable, shardable grids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    list_parser = sub.add_parser("list", help="registered experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run an experiment grid")
    _add_run_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    resume_parser = sub.add_parser(
        "resume", help="continue a checkpointed run (run --resume)"
    )
    _add_run_flags(resume_parser)
    resume_parser.set_defaults(func=lambda a: _cmd_run(a, resume=True))

    report_parser = sub.add_parser(
        "report", help="render a stored run without recomputing"
    )
    _add_config_flags(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
