"""The trajectory ensemble: chunked executor for noise-bound plans.

Runs a :class:`~repro.execution.noise_plan.NoisePlan` for ``shots``
trajectories in chunks of ``W``.  A chunk evolves only its *distinct*
states: ``R <= W`` rows of :data:`ENSEMBLE_DTYPE` amplitudes in a
``(W, 2, ..., 2)`` buffer, with shot ``s`` holding row ``row_of[s]``.
Every shot starts in |0...0>, so a chunk starts as one row; a row
splits only where its shots draw different branches (one state per
distinct jump record, the quantum-jump view).

The buffer holds only the qubits *born* so far, one axis each, in
physical order (the live layout).  A qubit no step has touched is
exactly |0> and a tensor factor of every row (Nielsen & Chuang, §4.4),
so a chunk starts with no qubit axis, and the plan's compiled stream
names the qubits born at each step and compiles every span op, mixed
branch program and Kraus anchor onto the layout of the qubits born by
then.  The buffer and its spare are C-contiguous prefix views of two
flat stores sized for every qubit; a birth writes the live rows into
the spare view one axis wider, with a zero |1> half, and swaps — at
most ``n`` such copies per chunk and no allocation.  Every qubit not yet
born is born before a mid-circuit measurement and after the last step,
so collapses and the final sample see the full layout.  Per step:

* fused noiseless spans execute through span programs compiled for the
  chunk layout: diagonals are one broadcast in-place multiply, monomial
  gates (X, CX, SWAP, CCX, ...) are in-place cycle moves of strided
  blocks — a cycle saves one block into scratch from the spare store
  and shifts the others along, a fixed point with a phase is one
  in-place multiply and one with phase 1 costs nothing — and dense 1q
  gates are four elementwise axpy passes over the two sub-lattices
  into the spare buffer; none of them pays the transpose-copy sandwich
  of the GEMM route;
* mixed-unitary channels draw every shot's branch with one
  ``searchsorted`` against the precomputed cumulative table.  Rows
  split by branch — no-op branches share one column, so they never
  split a row — and each branch runs on its gathered rows: monomial
  (Pauli) branches as the span kernels' cycle moves with phases,
  others through :func:`~repro.simulator.kernels.apply_matrix_batch`;
* general Kraus channels touch only the shots that might jump — the
  no-jump evolution of the quantum-jump method (Dalibard, Castin &
  Mølmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)).
  Any state takes branch 0 with ``p_0 >= 1 - B``, ``B = sum_{j>=1}
  ||K_j||_2^2``, so only shots whose uniform exceeds ``1 - B`` are
  candidates.  Their rows are gathered, their exact branch norms taken
  from the reduced density matrix, and each candidate draws against
  its row's cumulative table.  The plan folds a diagonal ``K_0`` into
  the span ops (:meth:`~repro.execution.noise_plan.NoisePlan.\
compiled_steps`), so a row on branch 0 is never touched; rows that
  jump split off and are rewritten, renormalised.  An anchor whose
  ``K_0`` cannot fold makes every shot a candidate and rewrites every
  row;
* measurements weigh each row's outcomes, draw each shot's outcome
  against its row's weights, split rows by outcome and collapse them
  in place, renormalised by the kept weight;
  terminal measurement is one joint sample of the final distribution
  — one cumulative table per row, each shot's draw against its row's
  (deferred-measurement equivalence: nothing touches a terminally
  measured qubit afterwards, so the statistics are identical).

Determinism
-----------
Randomness is drawn per *site*, not per chunk: every stochastic site
of the plan (each channel anchor, measurement and readout entry) has
its full ``(shots,)`` uniform array drawn up front (:func:`site_draws`),
and a chunk consumes ``[lo:hi)`` slices.  Channel anchors and
mid-circuit measurements and readouts are the rows of one
``(sites, shots)`` matrix from one generator; the final sample and the
terminal readouts each draw from their own ``SeedSequence`` child,
which the exact engine shares.  The draws are therefore exactly
independent of the chunk size.  Each shot
draws with its own uniform against its row's table, by the same rule
as if it held the row alone, and a split copies the row bit for bit,
so a shot's arithmetic does not depend on which shots share its row.
Span op routes are chosen by matrix structure, never by the number of
rows, and the Kraus kernel's per row, by the branch that row drew; its
norms and images are one small matrix product per gathered row.  Rows
are stored unnormalised and scaled by the plan's pending no-jump
factors; the plan renormalises them at a fixed place wherever the
shrink it allows since the last normalisation falls below its floor,
which keeps complex64 amplitudes far from underflow.  All of these are
elementwise, slice-wise or matrix-wise per row, so their arithmetic is
bit-exact across chunk widths and row sharing: ``chunk_size=1`` (one
row per shot) and the default chunk give the same counts.  Births are
fixed by the plan, so every chunk runs the same layouts; against a
full-width run they drop only exact zeros, which leaves elementwise
and slice-wise arithmetic unchanged and shortens a Kraus anchor's norm
and a renormalisation's sums by zero terms.  The only
size-dependent arithmetic left is the GEMM route of
:func:`~repro.simulator.kernels.apply_matrix_batch`, which non-monomial
mixed-unitary branches and ``gen`` span ops (dense gates on 2+ qubits)
take: above its crossover the BLAS blocking depends on the number of
rows it runs on — for a mixed branch, the subset of rows that drew it —
and is equal only to ~1 ulp, so a count can differ across chunk sizes
iff a *later* draw lands within ~1e-16 of a branch boundary.
"""

from __future__ import annotations

import bisect
import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from .counts import Counts, counts_from_outcomes
from .kernels import apply_matrix_batch

__all__ = [
    "ENSEMBLE_DTYPE",
    "default_chunk_size",
    "run_noise_plan",
    "site_draws",
]

# The ensemble's amplitude type.  Measured on a 2-core x86 box: Table I
# cells of the five <=5-qubit circuits at 1000 shots took 2.71-3.31 s
# per round in complex64 against 3.47-3.65 s in complex128, with
# identical counts in 20/20 cells; a 5-qubit mid-circuit noisy circuit
# at 4000 shots took 0.92-0.97 s against 1.05-1.08 s, counts identical.
ENSEMBLE_DTYPE = np.dtype(np.complex64)
_REAL_DTYPE = np.finfo(ENSEMBLE_DTYPE).dtype

# chunk sizing: cap the working tensor near 2^21 complex entries
# (~16 MB at complex64) so deep circuits stay cache-friendly while
# small circuits still run every shot in one chunk
_CHUNK_BUDGET = 1 << 21


def default_chunk_size(shots: int, num_qubits: int) -> int:
    """The executor's default ``W``: whole batch, capped by memory."""
    return min(shots, max(1, _CHUNK_BUDGET >> num_qubits))


def run_noise_plan(
    plan,
    shots: int,
    *,
    entropy: int,
    chunk_size: Optional[int] = None,
) -> Counts:
    """Execute *plan* for *shots* trajectories and return the counts.

    *entropy* seeds every site's uniforms (:func:`site_draws`); two runs
    with the same entropy produce identical counts for any *chunk_size*.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if chunk_size is None:
        chunk_size = default_chunk_size(shots, plan.num_qubits)
    chunk_size = max(1, int(chunk_size))
    draws = site_draws(plan, shots, entropy=entropy)
    values = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, chunk_size):
        hi = min(shots, lo + chunk_size)
        values[lo:hi] = _run_chunk(plan, draws, lo, hi)
    return counts_from_outcomes(values, plan.width, shots=shots)


def site_draws(
    plan, shots: int, *, entropy: int, steps: bool = True
) -> List[Optional[np.ndarray]]:
    """Each random site's ``(shots,)`` uniforms, indexed by site: the
    stream rule of both engines.

    A terminal plan's final-sample and readout sites (numbered after
    every other site) draw site ``s`` from child ``s`` of
    ``SeedSequence(entropy)``, so the exact engine and the ensemble
    report through the same uniforms.  Every other site — each channel
    anchor, mid-circuit measurement and its readout — is row ``s`` of
    one ``(num_sites, shots)`` matrix drawn from
    ``SeedSequence(entropy, spawn_key=(num_sites,))``, a key no child
    of the spawn takes (only its leading rows that some site reads are
    drawn).  With *steps* false those entries are ``None``: the exact
    engine reads the terminal sites only.
    """
    terminal = [plan.sample_site] + [entry[3] for entry in plan.entries]
    terminal = [site for site in terminal if site is not None]
    stepwise = plan.sample_site if plan.terminal else plan.num_sites
    draws: List[Optional[np.ndarray]] = [None] * plan.num_sites
    if steps and stepwise:
        seed = np.random.SeedSequence(entropy, spawn_key=(plan.num_sites,))
        draws[:stepwise] = np.random.default_rng(seed).random(
            (stepwise, shots)
        )
    for site in terminal:
        seed = np.random.SeedSequence(entropy, spawn_key=(site,))
        draws[site] = np.random.default_rng(seed).random(shots)
    return draws


def _run_chunk(plan, draws: List[np.ndarray], lo: int, hi: int) -> np.ndarray:
    rows, clbits = _evolve(plan, draws, lo, hi)
    if not plan.terminal:
        return clbits
    outcomes = _sample_joint(rows, draws[plan.sample_site][lo:hi])
    return report_outcomes(plan, outcomes, draws, lo, hi)


def _evolve(
    plan, draws: List[np.ndarray], lo: int, hi: int
) -> Tuple["_Rows", np.ndarray]:
    """Run shots ``[lo, hi)`` through the compiled steps; returns the
    final rows, every qubit born, and the mid-circuit clbit values."""
    n = plan.num_qubits
    rows = _Rows.fresh(hi - lo, n)
    clbits = np.zeros(hi - lo, dtype=np.int64)
    # qubit -> diagonal: no-jump factors the plan has folded into a
    # later span op (see noise_plan._fold_steps)
    pending = {}
    born: List[int] = []  # the qubits with an axis, ascending
    axes: Dict[int, int] = {}  # each born qubit's axis
    for step in plan.compiled_steps():
        kind = step[0]
        if kind == "span":
            _, ops, absorbed, births = step
            if births:
                axes = _bear(rows, born, births)
            _execute_span(rows, ops)
            for qubit in absorbed:
                del pending[qubit]
        elif kind == "channel":
            binding, site = step[1], step[2]
            # a channel step carried as the plan's own: no factor, no
            # birth, its qubits on their own axes
            factor, targets, births = step[3:] or (None, binding.qubits, ())
            if births:
                axes = _bear(rows, born, births)
            uniforms = draws[site][lo:hi]
            if binding.kind == "mixed":
                _apply_mixed(rows, binding, uniforms, targets)
                continue
            folded = None
            if binding.fold is not None:
                folded = binding.fold if factor is None else factor
                folded = folded.astype(ENSEMBLE_DTYPE)
            _apply_kraus(
                rows, binding, uniforms, pending, folded, targets, axes
            )
            if folded is not None:
                pending[binding.qubits[0]] = folded
        elif kind == "normalise":
            _normalise(rows)
        else:  # "measure": every qubit is born before a collapse
            axes = _bear(rows, born, range(n))
            _, qubit, clbit, site, readout, readout_site = step
            outcome = _collapse_measure(rows, qubit, draws[site][lo:hi])
            bits = outcome.astype(np.int64)
            if readout is not None:
                flips = draws[readout_site][lo:hi] < np.where(
                    outcome, readout.prob_0_given_1, readout.prob_1_given_0
                )
                bits ^= flips.astype(np.int64)
            clbits = (clbits & ~(1 << clbit)) | (bits << clbit)
    _bear(rows, born, range(n))
    return rows, clbits


def _bear(rows: "_Rows", born: List[int], qubits) -> Dict[int, int]:
    """Give each of *qubits* not in *born* (the chunk's layout, ascending)
    an axis in |0>, in physical order; returns each born qubit's axis."""
    for qubit in qubits:
        if qubit not in born:
            axis = bisect.bisect(born, qubit)
            born.insert(axis, qubit)
            rows.bear(axis)
    return {qubit: axis for axis, qubit in enumerate(born)}


def report_outcomes(plan, outcomes: np.ndarray, draws, lo: int, hi: int):
    """The clbit values a terminal *plan* reports for shots ``[lo, hi)``
    from their basis-index *outcomes*: each entry copies its qubit's bit,
    with the readout flips drawn at its site (``draws[site]`` is that
    site's ``(shots,)`` uniform array).  Shared with the exact engine."""
    values = np.zeros(hi - lo, dtype=np.int64)
    for qubit, clbit, readout, readout_site in plan.entries:
        bits = (outcomes >> qubit) & 1
        if readout is not None:
            flips = draws[readout_site][lo:hi] < np.where(
                bits == 1, readout.prob_0_given_1, readout.prob_1_given_0
            )
            bits = bits ^ flips.astype(np.int64)
        values = (values & ~(1 << clbit)) | (bits << clbit)
    return values


class _Rows:
    """A chunk's distinct states and the row each shot holds.

    ``buffer[:count]`` are the live rows of a ``(W, 2, ..., 2)`` buffer,
    one axis per born qubit, and shot ``s`` holds row ``row_of[s]``.
    A dense 1q gate writes into :meth:`output`, and :meth:`swap` makes
    that the buffer; every other op runs in place, and a monomial op
    takes its cycle scratch from the spare store ``stores[1]``.
    :meth:`split` appends rows into the buffer's free tail.  Every row
    is held by at least one shot, so ``count <= W``.  ``buffer`` and
    ``spare`` are C-contiguous prefix views of the two flat ``stores``;
    :meth:`bear` widens both by one axis, so no step reallocates the
    chunk.
    """

    __slots__ = ("buffer", "spare", "row_of", "count", "stores")

    def __init__(
        self,
        buffer: np.ndarray,
        row_of: np.ndarray,
        count: Optional[int] = None,
        stores: Optional[List[np.ndarray]] = None,
    ) -> None:
        if stores is None:
            stores = [buffer.reshape(-1), np.empty(buffer.size, buffer.dtype)]
        self.stores = stores
        self.buffer = buffer
        self.spare = stores[1][: buffer.size].reshape(buffer.shape)
        self.row_of = row_of
        self.count = buffer.shape[0] if count is None else count

    @classmethod
    def fresh(cls, shots: int, num_qubits: int) -> "_Rows":
        """*shots* shots sharing one row of no qubit axis (the state
        ``1``), with stores that fit every one of *num_qubits* born."""
        stores = [
            np.empty(shots << num_qubits, dtype=ENSEMBLE_DTYPE)
            for _ in range(2)
        ]
        rows = cls(
            stores[0][:shots], np.zeros(shots, dtype=np.intp), 1, stores
        )
        rows.buffer[0] = 1.0
        return rows

    @property
    def states(self) -> np.ndarray:
        return self.buffer[: self.count]

    def output(self) -> np.ndarray:
        """The spare buffer's live prefix, to receive an op's result."""
        return self.spare[: self.count]

    def swap(self) -> None:
        self.buffer, self.spare = self.spare, self.buffer
        self.stores.reverse()

    def bear(self, axis: int) -> None:
        """Insert a qubit in |0> at layout *axis*: the live rows move into
        the spare store one axis wider, with a zero |1> half, and the
        stores swap."""
        shots, count = self.buffer.shape[0], self.count
        shape = (shots,) + (2,) * self.buffer.ndim
        size = shots << (len(shape) - 1)
        wider = self.stores[1][:size].reshape(shape)
        halves = wider[:count].reshape(count << axis, 2, -1)
        halves[:, 0] = self.states.reshape(count << axis, -1)
        halves[:, 1] = 0
        self.buffer = wider
        self.spare = self.stores[0][:size].reshape(shape)
        self.stores.reverse()

    def split(
        self, choice: np.ndarray, columns: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Give every (row, column) pair that shots drew its own row.

        *choice* is each shot's column in ``range(columns)``.  The first
        column present on a row keeps the row in place; every other
        present pair copies its source row into an appended row, and its
        shots move there.  Returns each row's
        column and the source row of each appended row.
        """
        count = self.count
        kept = np.empty(count, dtype=np.intp)
        kept[self.row_of] = choice
        if (kept[self.row_of] == choice).all():
            return kept, self.row_of[:0]  # each row drew one column
        # the (row, column) presence table, flat: pair key row * columns
        # + column (1-D fancy indexing is much cheaper than 2-D)
        key = self.row_of * columns + choice
        present = np.zeros(count * columns, dtype=bool)
        present[key] = True
        kept = present.reshape(count, columns).argmax(axis=1)
        firsts = np.arange(0, count * columns, columns) + kept
        present[firsts] = False
        pairs = np.flatnonzero(present)
        sources, extra = np.divmod(pairs, columns)
        end = count + pairs.size
        index = np.empty(count * columns, dtype=np.intp)
        index[firsts] = np.arange(count)
        index[pairs] = np.arange(count, end)
        self.row_of = index[key]
        self.buffer[count:end] = self.buffer[sources]
        self.count = end
        return np.concatenate([kept, extra]), sources


def _permute(batch: np.ndarray, moves, store: np.ndarray) -> None:
    """A monomial op's in-place cycle moves on *batch* (see
    :func:`repro.execution.noise_plan._perm_moves`): a cycle saves its
    last block into scratch taken from the flat *store* (which must not
    hold *batch*), moves every other block one place along, and writes
    the saved block to the first place."""
    for blocks, phases in moves:
        last = batch[blocks[-1]]
        if len(blocks) == 1:
            last *= phases[0]
            continue
        saved = store[: last.size].reshape(last.shape)
        saved[...] = last
        for i in range(len(blocks) - 1, 0, -1):
            _move(batch[blocks[i - 1]], phases[i - 1], batch[blocks[i]])
        _move(saved, phases[-1], batch[blocks[0]])


def _move(source: np.ndarray, phase, out: np.ndarray) -> None:
    if phase is None:
        out[...] = source
    else:
        np.multiply(source, phase, out=out)


def _execute_span(rows: _Rows, ops) -> None:
    """Run one compiled span program over a chunk's rows.

    Op forms come from :func:`repro.execution.noise_plan._compile_span`
    and are all memory-lean: no route here materialises the
    transpose-copy sandwich the GEMM kernels pay, which dominated the
    profile of noisy circuits (every gate anchors a channel, so spans
    are short and per-op overhead is the whole game).
    """
    for op in ops:
        tag = op[0]
        batch = rows.states
        if tag == "diag":
            batch *= op[1]
        elif tag == "perm":
            _permute(batch, op[1], rows.stores[1])
        elif tag == "mul1":
            _, matrix, qubit = op
            n = batch.ndim - 1
            left = batch.shape[0] << qubit
            right = 1 << (n - 1 - qubit)
            view = batch.reshape(left, 2, right)
            # prefixes of C-order buffers: both reshapes are views
            result = rows.output().reshape(left, 2, right)
            v0 = view[:, 0, :]
            v1 = view[:, 1, :]
            np.multiply(v0, matrix[0, 0], out=result[:, 0, :])
            result[:, 0, :] += matrix[0, 1] * v1
            np.multiply(v0, matrix[1, 0], out=result[:, 1, :])
            result[:, 1, :] += matrix[1, 1] * v1
            rows.swap()
        else:  # "gen"
            batch[...] = apply_matrix_batch(batch, op[1], op[2])


def _apply_mixed(
    rows: _Rows, binding, uniforms: np.ndarray, targets: Tuple[int, ...]
) -> None:
    """One mixed-unitary channel: each shot draws its branch from the
    fixed cumulative table, rows split by branch, and each branch's
    program runs on its rows (no-op branches share one column).
    *targets* are the binding's qubits in the chunk's layout."""
    columns, programs = binding.mixed_program(targets, rows.buffer.ndim - 1)
    branches = np.minimum(
        np.searchsorted(binding.cumulative, uniforms, side="right"),
        binding.num_branches - 1,
    )
    row_columns, _ = rows.split(columns[branches], binding.num_branches)
    batch = rows.states
    for column in np.unique(row_columns):
        program = programs[column]
        if program is None:
            continue
        drew = np.flatnonzero(row_columns == column)
        source = batch[drew]
        if program[0] == "perm":
            _permute(source, program[1], rows.stores[1])
        else:
            op = binding.scaled_ops[program[1]]
            source = apply_matrix_batch(source, op, targets)
        batch[drew] = source


def _scale(rows: np.ndarray, factors, axes=None) -> None:
    """Multiply flat ``(R, 2^w)`` *rows* in place by per-qubit diagonals
    ``{qubit: f}``, axis 0 most significant, in one broadcast multiply;
    *axes* maps each qubit to its axis (default: the full layout, where
    they are equal)."""
    width = rows.shape[1].bit_length() - 1
    product = None
    for qubit, factor in factors.items():
        shape = [1] * width
        shape[qubit if axes is None else axes[qubit]] = 2
        factor = factor.reshape(shape)
        product = factor if product is None else product * factor
    if product is not None:
        rows *= np.broadcast_to(product, (2,) * width).reshape(-1)


def _local(factors, qubits: Tuple[int, ...]) -> np.ndarray:
    """The diagonals ``{qubit: f}`` on *qubits* as one ``2^k`` vector
    over a gate's index (first listed qubit most significant)."""
    vector = _ONE
    for qubit in qubits:
        vector = np.multiply.outer(vector, factors.get(qubit, _PAIR)).ravel()
    return vector


_ONE = np.ones(1, dtype=ENSEMBLE_DTYPE)
_PAIR = np.ones(2, dtype=ENSEMBLE_DTYPE)


@functools.lru_cache(maxsize=1024)
def _target_axes(axes: Tuple[int, ...], width: int) -> Tuple:
    """The transpose of a ``(R, 2, ..., 2)`` batch of *width* qubit axes
    that puts *axes* first, in the listed order, and its inverse."""
    order = [1 + a for a in axes]
    order = [0] + order + [a for a in range(1, width + 1) if a not in order]
    return tuple(order), tuple(np.argsort(order))


def _apply_kraus(
    rows: _Rows,
    binding,
    uniforms: np.ndarray,
    pending=None,
    folded=None,
    targets=None,
    axes=None,
) -> np.ndarray:
    """A general Kraus channel on a chunk; returns each shot's branch.

    *pending* maps each qubit whose no-jump factor the plan applies in a
    later span op to that diagonal, so a row's true state is its stored
    copy times every pending factor; *folded* is this anchor's own
    pending factor after it, ``None`` when the anchor does not fold.
    *targets* are the binding's qubits in the chunk's layout and *axes*
    maps every born qubit to its axis (both default to the full
    layout, where axes are qubits).
    Only *candidate* shots, whose uniform exceeds ``binding.threshold``,
    can leave branch 0 (any state has ``p_0 >= 1 - B``).  Their rows
    are gathered and scaled to the true state, and each candidate draws
    against its row's cumulative table of exact branch norms ``Tr(K^†
    K rho)``.  Rows split by branch; a row on branch 0 of a folded
    anchor stays as it is, every other row becomes ``K_j`` times its
    true copy over ``sqrt(norm_j)``, divided by every factor pending
    after the anchor.
    """
    row_of = rows.row_of
    choice = np.zeros(row_of.size, dtype=np.intp)
    candidates = np.flatnonzero(uniforms > binding.threshold)
    if not candidates.size:
        return choice
    sources = row_of[candidates]
    if sources.size > 1:
        sources = np.unique(sources)
    n = rows.buffer.ndim - 1
    k = len(binding.qubits)
    targets = binding.qubits if targets is None else targets
    forward, inverse = _target_axes(targets, n)
    layout = (sources.size,) + (2,) * n

    def targets_first(batch):
        # (row, target index, rest), the first listed target most
        # significant
        return batch.reshape(layout).transpose(forward).reshape(
            sources.size, 1 << k, -1
        )

    pending = pending or {}
    stored = rows.states.reshape(rows.count, -1)[sources]
    true = stored
    if pending:
        true = stored.copy()
        _scale(true, pending, axes)
    psi = targets_first(true)
    rho = psi @ psi.conj().transpose(0, 2, 1)
    norms = np.einsum("bij,sji->bs", binding.grams, rho).real
    cumulative = np.cumsum(np.maximum(norms, 0.0, out=norms), axis=0)
    cumulative /= np.maximum(cumulative[-1], 1e-300)
    # a shot draws the number of its row's cumulative entries below its
    # uniform
    at = np.searchsorted(sources, row_of[candidates])
    drawn = np.minimum(
        (uniforms[candidates, None] > cumulative.T[at]).sum(axis=1),
        binding.num_branches - 1,
    )
    stay = 0 if binding.fold is not None else -1
    if (drawn == stay).all():
        return choice
    choice[candidates] = drawn
    count = rows.count
    branches, copied = rows.split(choice, binding.num_branches)
    moved = np.flatnonzero(branches != stay)
    origins = moved.copy()
    appended = moved >= count
    origins[appended] = copied[moved[appended] - count]
    at = np.searchsorted(sources, origins)
    drawn = branches[moved]
    ops = binding.stack[drawn]
    ops *= (1.0 / np.sqrt(np.maximum(norms[drawn, at], 1e-300)))[
        :, None, None
    ]
    # pending factors on other qubits commute with K_j, so a jumped row
    # is d'^-1 K_j d times its stored copy, d and d' the factors pending
    # on the anchor's qubits before and after it
    after = dict(pending)
    if folded is not None:
        after[binding.qubits[0]] = folded
    ops *= _local(pending, binding.qubits)
    ops /= _local(after, binding.qubits)[:, None]
    images = (ops @ targets_first(stored)[at]).reshape(
        (moved.size,) + layout[1:]
    )
    rows.states.reshape(rows.count, -1)[moved] = images.transpose(
        inverse
    ).reshape(moved.size, -1)
    return choice


def _normalise(rows: _Rows) -> None:
    """Scale every row to unit norm (rows shrink under folded
    anchors; the plan places these steps, see ``_NORM_FLOOR``)."""
    batch = rows.states
    floats = batch.reshape(rows.count, -1).view(_REAL_DTYPE)
    norm2 = np.einsum("si,si->s", floats, floats, order="C")
    batch /= np.sqrt(np.maximum(norm2, 1e-300)).reshape(
        (-1,) + (1,) * (batch.ndim - 1)
    ).astype(_REAL_DTYPE)


def _collapse_measure(
    rows: _Rows, qubit: int, uniforms: np.ndarray
) -> np.ndarray:
    """Measure *qubit* on every shot of the chunk, collapsing in place.

    Returns the boolean outcome array.  Convention matches
    :meth:`Statevector.measure_qubit`: outcome 1 iff ``u < P(1)``, with
    ``P(1)`` from the shot's row; rows split by outcome.  Rows may
    arrive unnormalised; each leaves normalised.
    """
    count = rows.count
    view = np.moveaxis(rows.states, qubit + 1, 1)
    weight0, weight1 = (
        (np.abs(view[:, b]) ** 2).reshape(count, -1).sum(axis=1)
        for b in (0, 1)
    )
    ratio = weight1 / np.maximum(weight0 + weight1, 1e-300)
    outcome = uniforms < ratio[rows.row_of]
    kept_ones, copied = rows.split(outcome.astype(np.intp), 2)
    if copied.size:
        weight0 = np.concatenate([weight0, weight0[copied]])
        weight1 = np.concatenate([weight1, weight1[copied]])
    batch = rows.states
    view = np.moveaxis(batch, qubit + 1, 1)
    view[np.flatnonzero(kept_ones), 0] = 0
    view[np.flatnonzero(kept_ones == 0), 1] = 0
    kept = np.where(kept_ones, weight1, weight0)
    batch /= np.sqrt(np.maximum(kept, 1e-300)).reshape(
        (-1,) + (1,) * (batch.ndim - 1)
    )
    return outcome


def _sample_joint(rows: _Rows, uniforms: np.ndarray) -> np.ndarray:
    """One little-endian basis index per shot from its row's final
    state: one cumulative table per row, each shot's draw against its
    row's."""
    batch = rows.states
    n = batch.ndim - 1
    axes = (0,) + tuple(range(n, 0, -1))
    probs = np.abs(batch.transpose(axes).reshape(rows.count, -1)) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    outcomes = (uniforms[:, None] > cumulative[rows.row_of]).sum(axis=1)
    return np.minimum(outcomes, probs.shape[1] - 1)
