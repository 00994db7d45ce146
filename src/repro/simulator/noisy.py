"""The trajectory ensemble: chunked executor for noise-bound plans.

Runs a :class:`~repro.execution.noise_plan.NoisePlan` for ``shots``
trajectories in chunks of ``W``.  A chunk evolves only its *distinct*
states: ``R <= W`` rows of :data:`ENSEMBLE_DTYPE` amplitudes in a
``(W, 2, ..., 2)`` buffer, with shot ``s`` holding row ``row_of[s]``.
Every shot starts in |0...0>, so a chunk starts as one row; a row
splits only where its shots draw different branches (one state per
distinct jump record, the quantum-jump view).  Per step:

* fused noiseless spans execute through span programs compiled for the
  chunk layout: diagonals are one broadcast in-place multiply, monomial
  gates (X, CX, SWAP, CCX, ...) are strided slice copies, dense 1q
  gates are four elementwise axpy passes over the two sub-lattices —
  none of which pays the transpose-copy sandwich of the GEMM route;
* mixed-unitary channels draw every shot's branch with one
  ``searchsorted`` against the precomputed cumulative table.  Rows
  split by branch — no-op branches share one column, so they never
  split a row — and each branch runs on its rows: monomial (Pauli)
  branches as the span kernels' slice copies with phases, others
  through :func:`~repro.simulator.kernels.apply_matrix_batch`;
* general Kraus channels touch only the rows and amplitudes that
  change.  Kraus states are stored unnormalised, with each row's
  ``||psi||^2`` carried in a ``mass`` vector (spans and mixed-unitary
  channels leave it unchanged), as quantum-jump samplers carry the norm
  of the no-jump evolution.  When all Gram matrices ``K^† K`` are
  diagonal every branch norm comes from the |amp|^2 masses of target
  sub-lattices ``1..`` (sub-lattice 0 holds the rest of ``mass``); the
  reduced density matrix gives them otherwise.  Each shot draws a
  branch against its row's cumulative table and rows split by branch.
  A row on a diagonal branch with ``K[0, 0] != 0`` keeps ``K psi /
  K[0, 0]``: sub-lattices ``1..`` scale in place, sub-lattice 0 is
  never touched and no renormalisation pass runs.  Rows on any other
  branch are gathered, get ``K[b_r] / sqrt(norm_r)`` as multiply-adds
  and are scattered back with mass 1;
* measurements weigh each row's outcomes, draw each shot's outcome
  against its row's weights, split rows by outcome and collapse them
  in place, renormalised by the true kept mass;
  terminal measurement is one joint sample of the final distribution
  — one cumulative table per row, each shot's draw against its row's
  (deferred-measurement equivalence: nothing touches a terminally
  measured qubit afterwards, so the statistics are identical).

Determinism
-----------
Randomness is drawn per *site*, not per chunk: the executor spawns one
``SeedSequence`` child per stochastic site of the plan (every channel
anchor, measurement and readout entry) and pre-draws that site's full
``(shots,)`` uniform array; a chunk consumes ``[lo:hi)`` slices.  The
draws are therefore exactly independent of the chunk size.  Each shot
draws with its own uniform against its row's table, by the same rule
as if it held the row alone, and a split copies the row bit for bit,
so a shot's arithmetic does not depend on which shots share its row.
Span op routes are chosen by matrix structure, never by the number of
rows, and the Kraus kernel's per row, by the branch that row drew; a
row is renormalised whenever its mass leaves ``[0.1, 10]``, which
keeps the tracked mass within ~1e-5 of ``||psi||^2`` (relative) and
complex64 amplitudes far from underflow.  All of these are elementwise
or slice-wise per row, so their arithmetic is bit-exact across chunk
widths and row sharing: ``chunk_size=1`` (one row per shot) and the
default chunk give the same counts.  The only size-dependent
arithmetic left is the GEMM route of
:func:`~repro.simulator.kernels.apply_matrix_batch`, which non-monomial
mixed-unitary branches and ``gen`` span ops (dense gates on 2+ qubits)
take: above its crossover the BLAS blocking depends on the number of
rows it runs on — for a mixed branch, the subset of rows that drew it —
and is equal only to ~1 ulp, so a count can differ across chunk sizes
iff a *later* draw lands within ~1e-16 of a branch boundary.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from .counts import Counts, counts_from_outcomes
from .kernels import apply_matrix_batch

__all__ = ["ENSEMBLE_DTYPE", "default_chunk_size", "run_noise_plan"]

# The ensemble's amplitude type.  Measured on a 2-core x86 box: Table I
# cells of the five <=5-qubit circuits at 1000 shots took 2.71-3.31 s
# per round in complex64 against 3.47-3.65 s in complex128, with
# identical counts in 20/20 cells; a 5-qubit mid-circuit noisy circuit
# at 4000 shots took 0.92-0.97 s against 1.05-1.08 s, counts identical.
ENSEMBLE_DTYPE = np.dtype(np.complex64)
_REAL_DTYPE = np.finfo(ENSEMBLE_DTYPE).dtype

# A shot's sub-lattice-0 mass is a difference, ``mass - sum``, whose
# absolute error is set at the scale of the shot's last normalisation;
# renormalising (by the true norm) once the mass leaves [_MASS_FLOOR,
# 1 / _MASS_FLOOR] caps its relative error at ten times that.  Cheap
# branches need |K[0, 0]| > _LEAD_MIN, so one anchor moves a mass by at
# most 1e12 and complex64 |amp|^2 stays finite.
_MASS_FLOOR = 0.1
_LEAD_MIN = 1e-6

# Kraus kernels keep a sub-lattice's contiguous tail as the inner loop
# when it holds at least this many amplitudes; shorter tails give way
# to the longest group (see _sub_lattices)
_CONTIGUOUS_ROW = 8

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

    *entropy* seeds the per-site ``SeedSequence`` spawn; two runs with
    the same entropy produce identical counts for any *chunk_size*.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if chunk_size is None:
        chunk_size = default_chunk_size(shots, plan.num_qubits)
    chunk_size = max(1, int(chunk_size))
    children = np.random.SeedSequence(entropy).spawn(max(plan.num_sites, 1))
    draws = [
        np.random.default_rng(child).random(shots) for child in children
    ]
    values = np.empty(shots, dtype=np.int64)
    for lo in range(0, shots, chunk_size):
        hi = min(shots, lo + chunk_size)
        values[lo:hi] = _run_chunk(plan, draws, lo, hi)
    return counts_from_outcomes(values, plan.width, shots=shots)


def _run_chunk(plan, draws: List[np.ndarray], lo: int, hi: int) -> np.ndarray:
    width = hi - lo
    n = plan.num_qubits
    buffer = np.empty((width,) + (2,) * n, dtype=ENSEMBLE_DTYPE)
    buffer[0] = 0
    buffer[(0,) * (n + 1)] = 1.0
    rows = _Rows(buffer, np.zeros(width, dtype=np.intp), count=1)

    clbits = np.zeros(width, dtype=np.int64)
    for step in plan.compiled_steps():
        kind = step[0]
        if kind == "span":
            _execute_span(rows, step[1])
        elif kind == "channel":
            binding = step[1]
            if binding.kind == "mixed":
                _apply_mixed(rows, binding, draws[step[2]][lo:hi])
            else:
                _apply_kraus(rows, binding, draws[step[2]][lo:hi])
        else:  # "measure"
            _, qubit, clbit, site, readout, readout_site = step
            outcome = _collapse_measure(rows, qubit, draws[site][lo:hi])
            bits = outcome.astype(np.int64)
            if readout is not None:
                flips = draws[readout_site][lo:hi] < np.where(
                    outcome, readout.prob_0_given_1, readout.prob_1_given_0
                )
                bits ^= flips.astype(np.int64)
            clbits = (clbits & ~(1 << clbit)) | (bits << clbit)
    if not plan.terminal:
        return clbits
    outcomes = _sample_joint(rows, draws[plan.sample_site][lo:hi])
    return report_outcomes(plan, outcomes, draws, lo, hi)


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
    ``mass[:count]`` their stored ``||psi||^2``, and shot ``s`` holds
    row ``row_of[s]``.  An op that cannot run in place writes into
    :meth:`output`, and :meth:`swap` makes that the buffer;
    :meth:`split` appends rows into the buffer's free tail.  Every row
    is held by at least one shot, so ``count <= W`` and no step
    reallocates the chunk.
    """

    __slots__ = ("buffer", "spare", "mass", "row_of", "count")

    def __init__(
        self,
        buffer: np.ndarray,
        row_of: np.ndarray,
        count: Optional[int] = None,
    ) -> None:
        self.buffer = buffer
        self.spare = np.empty_like(buffer)
        self.mass = np.ones(buffer.shape[0])
        self.row_of = row_of
        self.count = buffer.shape[0] if count is None else count

    @property
    def states(self) -> np.ndarray:
        return self.buffer[: self.count]

    @property
    def masses(self) -> np.ndarray:
        return self.mass[: self.count]

    def output(self) -> np.ndarray:
        """The spare buffer's live prefix, to receive an op's result."""
        return self.spare[: self.count]

    def swap(self) -> None:
        self.buffer, self.spare = self.spare, self.buffer

    def split(
        self, choice: np.ndarray, columns: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Give every (row, column) pair that shots drew its own row.

        *choice* is each shot's column in ``range(columns)``.  The first
        column present on a row keeps the row in place; every other
        present pair copies its source row (and its mass) into an
        appended row, and its shots move there.  Returns each row's
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
        self.mass[count:end] = self.mass[sources]
        self.count = end
        return np.concatenate([kept, extra]), sources


def _permute(batch: np.ndarray, moves, out: np.ndarray) -> np.ndarray:
    """A monomial op as its ``(out_sel, in_sel, phase)`` slice copies
    from *batch* into *out* (phase ``None`` means exactly 1)."""
    for out_sel, in_sel, phase in moves:
        if phase is None:
            out[out_sel] = batch[in_sel]
        else:
            np.multiply(batch[in_sel], phase, out=out[out_sel])
    return out


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
            _permute(batch, op[1], rows.output())
            rows.swap()
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


def _apply_mixed(rows: _Rows, binding, uniforms: np.ndarray) -> None:
    """One mixed-unitary channel: each shot draws its branch from the
    fixed cumulative table, rows split by branch, and each branch's
    program runs on its rows (no-op branches share one column)."""
    columns, programs = binding.mixed_program(rows.buffer.ndim - 1)
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
        targets = np.flatnonzero(row_columns == column)
        source = batch[targets]
        if program[0] == "perm":
            out = _permute(source, program[1], np.empty_like(source))
        else:
            op = binding.scaled_ops[program[1]]
            out = apply_matrix_batch(source, op, binding.qubits)
        batch[targets] = out


@functools.lru_cache(maxsize=4096)
def _sub_lattices(qubits: Tuple[int, ...], num_qubits: int) -> Tuple:
    """How elementwise kernels slice a chunk into *qubits*' sub-lattices.

    Returns ``(shape, selectors, axes)``.  A C-contiguous ``(W, 2, ...,
    2)`` chunk reshapes for free to ``(W,) + shape``, which groups the
    qubits between consecutive targets into one axis each:
    ``(A_0, 2, A_1, ..., 2, A_k)`` over the targets in ascending order.
    ``selectors[j]`` fixes the targets to the bits of gate index ``j``
    (first listed qubit most significant), leaving a ``(W, A_0, ...,
    A_k)`` view, and ``axes`` transposes that view so a long group runs
    innermost: ufuncs called with ``order="C"`` then iterate over long
    rows instead of a short contiguous tail.
    """
    order = sorted(qubits)
    shape: List[int] = []
    prev = -1
    for qubit in order:
        shape += [1 << (qubit - prev - 1), 2]
        prev = qubit
    shape.append(1 << (num_qubits - 1 - prev))
    k = len(qubits)
    selectors = []
    for index in range(1 << k):
        sel: List = [slice(None)] * (len(shape) + 1)
        for t, qubit in enumerate(qubits):
            sel[2 + 2 * order.index(qubit)] = (index >> (k - 1 - t)) & 1
        selectors.append(tuple(sel))
    groups = shape[::2]
    inner = k
    if groups[-1] < _CONTIGUOUS_ROW:
        inner = max(range(k + 1), key=groups.__getitem__)
    axes = [0] + [1 + g for g in range(k + 1) if g != inner] + [1 + inner]
    return tuple(shape), tuple(selectors), tuple(axes)


def _apply_kraus(rows: _Rows, binding, uniforms: np.ndarray) -> None:
    """A general Kraus channel on a chunk of unnormalised rows.

    Every branch norm ``||K psi||^2 = Tr(K^† K rho)`` of every row, then
    one categorical draw per shot against its row's cumulative table;
    rows split by branch.  Rows on a cheap branch (diagonal, ``K[0, 0]
    != 0``) are scaled in place by ``K[j, j] / K[0, 0]`` on sub-lattices
    ``1..``, with mass ``norm / |K[0, 0]|^2``; the others are gathered,
    get ``K[b_r] / sqrt(norm_r)`` as multiply-adds and are scattered
    back with mass 1.
    """
    shape, selectors, axes = _sub_lattices(
        binding.qubits, rows.buffer.ndim - 1
    )
    subscripts = list(range(len(axes)))
    grouped = rows.states.reshape((rows.count,) + shape)
    if binding.gram_diagonals is not None:
        # diagonal Grams weigh only each sub-lattice's |amp|^2 mass;
        # sub-lattice 0 holds what the others leave of the row's mass
        floats = grouped.view(_REAL_DTYPE)
        masses = []
        for sel in selectors[1:]:
            part = floats[sel].transpose(axes)
            masses.append(
                np.einsum(part, subscripts, part, subscripts, [0], order="C")
            )
        masses.insert(0, rows.masses - sum(masses))
        norms = 0.0
        for j, sub_mass in enumerate(masses):
            norms = norms + binding.gram_diagonals[:, j, None] * sub_mass
    else:
        # rho[i, j] = <i|rho|j> per row, from sub-lattice overlaps
        views = [grouped[sel].transpose(axes) for sel in selectors]
        conjugates = [view.conj() for view in views]
        rho = np.array(
            [
                [
                    np.einsum(vi, subscripts, vj, subscripts, [0], order="C")
                    for vj in conjugates
                ]
                for vi in views
            ]
        )
        norms = np.einsum("bij,jis->bs", binding.grams, rho).real
    norms = np.maximum(norms, 0.0)
    totals = np.maximum(norms.sum(axis=0), 1e-300)
    cumulative = np.cumsum(norms / totals, axis=0)
    # a shot draws the number of its row's cumulative entries below its
    # uniform; the table is monotone, so only the few shots past entry
    # 0 need the rest of it
    row_of = rows.row_of
    past = np.flatnonzero(uniforms > cumulative[0][row_of])
    choice = np.zeros(row_of.size, dtype=np.intp)
    if past.size:
        above = uniforms[past, None] > cumulative.T[row_of[past]]
        choice[past] = np.minimum(above.sum(axis=1), binding.num_branches - 1)
    branches, copied = rows.split(choice, binding.num_branches)
    if copied.size:
        norms = np.concatenate([norms, norms[:, copied]], axis=1)
    count = rows.count
    mass = rows.masses
    grouped = rows.states.reshape((count,) + shape)
    views = [grouped[sel].transpose(axes) for sel in selectors]
    chosen = np.maximum(norms[branches, np.arange(count)], 1e-300)
    jumps = np.flatnonzero(~binding.cheap[branches])
    # gathered before the in-place pass, which scales their rows by one
    sources = grouped[jumps]
    if jumps.size < count:
        ratios = binding.lead_ratios[branches]
        ratios = ratios.reshape(ratios.shape + (1,) * (len(axes) - 1))
        for j in range(1, len(views)):
            np.multiply(views[j], ratios[:, j], out=views[j], order="C")
    np.divide(chosen, binding.lead_scales[branches], out=mass)
    if jumps.size:
        ops = binding.stack[branches[jumps]]
        ops *= (1.0 / np.sqrt(chosen[jumps]))[:, None, None]
        # per-row coefficients broadcast over one sub-lattice view
        coef = ops.reshape(ops.shape + (1,) * (len(axes) - 1))
        parts = [sources[sel].transpose(axes) for sel in selectors]
        out = np.empty_like(sources)
        product = np.empty(parts[0].shape, dtype=grouped.dtype)
        for i, sel in enumerate(selectors):
            target = out[sel].transpose(axes)
            np.multiply(parts[0], coef[:, i, 0], out=target, order="C")
            for j in range(1, len(parts)):
                np.multiply(parts[j], coef[:, i, j], out=product, order="C")
                np.add(target, product, out=target, order="C")
        grouped[jumps] = out
        mass[jumps] = 1.0
    drifted = np.flatnonzero((mass < _MASS_FLOOR) | (mass > 1 / _MASS_FLOOR))
    if drifted.size:
        # renormalise by the true norm, which also drops the error the
        # tracked mass gathered since the row was last normalised
        part = grouped[drifted].reshape(drifted.size, -1)
        floats = part.view(_REAL_DTYPE)
        true = np.einsum("si,si->s", floats, floats, order="C")
        part /= np.sqrt(np.maximum(true, 1e-300))[:, None]
        grouped[drifted] = part.reshape((-1,) + shape)
        mass[drifted] = 1.0


def _collapse_measure(
    rows: _Rows, qubit: int, uniforms: np.ndarray
) -> np.ndarray:
    """Measure *qubit* on every shot of the chunk, collapsing in place.

    Returns the boolean outcome array.  Convention matches
    :meth:`Statevector.measure_qubit`: outcome 1 iff ``u < P(1)``, with
    ``P(1)`` from the shot's row; rows split by outcome.  Rows may
    arrive unnormalised; each leaves with unit mass.
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
    rows.masses[:] = 1.0
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
