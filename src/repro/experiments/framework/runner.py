"""One grid runner for every registered experiment.

Execution model
---------------

``make_cells(config)`` expands the spec's parameter grid into an
ordered cell list.  Every cell gets an independent seed spawned
positionally from the root seed — ``SeedSequence(seed).spawn(n)[i]``
for cell *i*.  Because a cell's seed depends only on the root seed and
the cell's position in the full grid (never on which cells run, in
what order, or on which machine), the following are all bit-identical
for a fixed seed:

* sequential and ``jobs=N`` parallel runs,
* a fresh run and an interrupted run resumed from its checkpoint,
* the union of ``--shard i/n`` runs and the unsharded run.

Checkpointing appends each finished cell to the
:class:`~repro.experiments.framework.store.ResultStore` as it
completes, so a killed run resumes exactly where it stopped and never
recomputes a finished cell.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .spec import Cell, get_spec
from .store import ResultStore, config_hash

__all__ = ["RunReport", "run_experiment", "parse_shard"]


@dataclass
class RunReport:
    """Outcome of one :func:`run_experiment` invocation."""

    spec: str
    config: Dict[str, Any]
    config_hash: str
    total_cells: int
    reused: int
    computed: int
    complete: bool
    result: Any  # aggregate; None while a sharded run is incomplete
    store_path: Optional[str] = None

    def render(self) -> str:
        """Render the aggregate with the spec's renderer."""
        if not self.complete:
            raise ValueError(
                f"run is incomplete ({self.reused + self.computed}/"
                f"{self.total_cells} cells) — nothing to render"
            )
        return get_spec(self.spec).render(self.result)


def parse_shard(text: Optional[str]) -> Optional[Tuple[int, int]]:
    """Parse ``"i/n"`` into a (shard index, shard count) pair."""
    if text is None:
        return None
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"invalid shard {text!r}; expected i/n") from None
    if count <= 0 or not 0 <= index < count:
        raise ValueError(f"invalid shard {text!r}; need 0 <= i < n")
    return index, count


def _execute_cell(
    spec_name: str,
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> Any:
    """Run one cell — module-level so the process pool can pickle it."""
    spec = get_spec(spec_name)
    return spec.task(config, cell, seed)


def run_experiment(
    name: str,
    overrides: Optional[Dict[str, Any]] = None,
    *,
    jobs: int = 1,
    shard: Optional[Tuple[int, int]] = None,
    resume: bool = False,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run (or resume, or shard) one registered experiment.

    *store* enables checkpointing; without it the run is purely
    in-memory (the library wrappers use that mode).  Existing cells are
    reused when *resume* is set — and always for sharded runs, so
    repeated shard invocations accumulate instead of recomputing.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    spec = get_spec(name)
    config = spec.config(overrides)
    cfg_hash = config_hash(config)

    cells = spec.make_cells(config)
    if spec.seeded:
        seeds: List[Optional[np.random.SeedSequence]] = list(
            np.random.SeedSequence(config.get("seed")).spawn(len(cells))
        ) if cells else []
    else:
        seeds = [None] * len(cells)

    store_key = spec.store_key
    reuse_existing = (
        resume or shard is not None or spec.store_as is not None
    )
    done: Dict[str, Any] = {}
    store_path: Optional[str] = None
    if store is not None:
        store_path = str(
            store.begin(
                store_key, cfg_hash, config, fresh=not reuse_existing
            )
        )
        if reuse_existing:
            done = {
                cell_id: spec.decode(payload)
                for cell_id, payload in store.load(
                    store_key, cfg_hash
                ).items()
            }

    known_ids = {cell.id for cell in cells}
    if len(known_ids) != len(cells):
        raise ValueError(f"experiment {name!r} produced duplicate cell ids")
    done = {k: v for k, v in done.items() if k in known_ids}

    pending = [
        (index, cell)
        for index, cell in enumerate(cells)
        if cell.id not in done
        and (shard is None or index % shard[1] == shard[0])
    ]

    computed: Dict[str, Any] = {}

    def _record(cell: Cell, result: Any) -> None:
        computed[cell.id] = result
        if store is not None:
            store.append(store_key, cfg_hash, cell.id, spec.encode(result))
        if progress is not None:
            progress(
                f"[{len(done) + len(computed)}/{len(cells)}] {cell.id}"
            )

    if jobs == 1 or len(pending) <= 1:
        for index, cell in pending:
            _record(
                cell, _execute_cell(name, config, cell, seeds[index])
            )
    else:
        workers = min(jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            futures = {
                pool.submit(
                    _execute_cell, name, config, cell, seeds[index]
                ): cell
                for index, cell in pending
            }
            # checkpoint each cell the moment it completes, not at the
            # end — a kill mid-run keeps everything already finished
            for future in concurrent.futures.as_completed(futures):
                _record(futures[future], future.result())

    results = {
        cell.id: (computed[cell.id] if cell.id in computed else done[cell.id])
        for cell in cells
        if cell.id in computed or cell.id in done
    }
    complete = len(results) == len(cells)
    aggregate = spec.aggregate(config, results) if complete else None
    return RunReport(
        spec=name,
        config=config,
        config_hash=cfg_hash,
        total_cells=len(cells),
        reused=len(done),
        computed=len(computed),
        complete=complete,
        result=aggregate,
        store_path=store_path,
    )
