"""The trajectory ensemble: chunked executor for noise-bound plans.

Runs a :class:`~repro.execution.noise_plan.NoisePlan` for ``shots``
trajectories, evolving the shots in chunks of ``W`` as one
``(W, 2, ..., 2)`` tensor of :data:`ENSEMBLE_DTYPE` amplitudes:

* fused noiseless spans execute through span programs compiled for the
  chunk layout: diagonals are one broadcast in-place multiply, monomial
  gates (X, CX, SWAP, CCX, ...) are strided slice copies, dense 1q
  gates are four elementwise axpy passes over the two sub-lattices —
  none of which pays the transpose-copy sandwich of the GEMM route;
* mixed-unitary channels draw all branch indices of a chunk with one
  ``searchsorted`` against the precomputed cumulative table, then apply
  each distinct branch matrix to its grouped sub-batch (no-op branches
  skipped via the channel's identity flags);
* general Kraus channels touch only the shots and amplitudes that
  change.  Kraus states are stored unnormalised, with each shot's
  ``||psi||^2`` carried in a ``mass`` vector (spans and mixed-unitary
  channels leave it unchanged), as quantum-jump samplers carry the norm
  of the no-jump evolution.  When all Gram matrices ``K^† K`` are
  diagonal every branch norm comes from the |amp|^2 masses of target
  sub-lattices ``1..`` (sub-lattice 0 holds the rest of ``mass``); the
  reduced density matrix gives them otherwise.  One draw per shot picks
  a branch.  A shot that drew a diagonal branch with ``K[0, 0] != 0``
  keeps ``K psi / K[0, 0]``: sub-lattices ``1..`` scale in place,
  sub-lattice 0 is never touched and no renormalisation pass runs.
  Shots that drew any other branch are gathered, get ``K[b_s] /
  sqrt(norm_s)`` as multiply-adds over the sub-lattices and are
  scattered back with mass 1;
* measurements collapse the chunk with vectorised probability gathers
  and renormalise by the true kept mass;
  terminal measurement is one joint sample of the final distribution
  (deferred-measurement equivalence: nothing touches a terminally
  measured qubit afterwards, so the statistics are identical).

Determinism
-----------
Randomness is drawn per *site*, not per chunk: the executor spawns one
``SeedSequence`` child per stochastic site of the plan (every channel
anchor, measurement and readout entry) and pre-draws that site's full
``(shots,)`` uniform array; a chunk consumes ``[lo:hi)`` slices.  The
draws are therefore exactly independent of the chunk size.  Span op
routes are chosen by matrix structure, never by batch size, and the
Kraus kernel's per shot, by the branch that shot drew; a shot is
renormalised whenever its mass leaves ``[0.1, 10]``, which keeps the
tracked mass within ~1e-5 of ``||psi||^2`` (relative) and complex64
amplitudes far from underflow.  All of these are elementwise or
slice-wise per shot, so their arithmetic is bit-exact across chunk
widths too.  The only size-dependent arithmetic left is
the GEMM route of
:func:`~repro.simulator.kernels.apply_matrix_batch`, which mixed-unitary
branches and ``gen`` span ops (dense gates on 2+ qubits) still take:
above its crossover the BLAS blocking is equal only to ~1 ulp, so a
count can differ across chunk sizes iff a *later* draw lands within
~1e-16 of a branch boundary.  Below that crossover ``chunk_size=1`` and
``chunk_size=64`` are bit-identical.
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
    batch = np.zeros((width,) + (2,) * n, dtype=ENSEMBLE_DTYPE)
    batch[(slice(None),) + (0,) * n] = 1.0
    mass = np.ones(width)
    steps = plan.compiled_steps()

    clbits = np.zeros(width, dtype=np.int64)
    for step in steps:
        kind = step[0]
        if kind == "span":
            batch = _execute_span(batch, step[1])
        elif kind == "channel":
            batch = _apply_channel_chunk(
                batch, mass, step[1], draws[step[2]][lo:hi]
            )
        else:  # "measure"
            _, qubit, clbit, site, readout, readout_site = step
            outcome = _collapse_measure(
                batch, mass, qubit, draws[site][lo:hi]
            )
            bits = outcome.astype(np.int64)
            if readout is not None:
                flips = draws[readout_site][lo:hi] < np.where(
                    outcome, readout.prob_0_given_1, readout.prob_1_given_0
                )
                bits ^= flips.astype(np.int64)
            clbits = (clbits & ~(1 << clbit)) | (bits << clbit)
    if not plan.terminal:
        return clbits
    outcomes = _sample_joint(batch, draws[plan.sample_site][lo:hi])
    values = np.zeros(width, dtype=np.int64)
    for qubit, clbit, readout, readout_site in plan.entries:
        bits = (outcomes >> qubit) & 1
        if readout is not None:
            flips = draws[readout_site][lo:hi] < np.where(
                bits == 1, readout.prob_0_given_1, readout.prob_1_given_0
            )
            bits = bits ^ flips.astype(np.int64)
        values = (values & ~(1 << clbit)) | (bits << clbit)
    return values


def _execute_span(batch: np.ndarray, ops) -> np.ndarray:
    """Run one compiled span program over a ``(W, 2, ..., 2)`` chunk.

    Op forms come from :func:`repro.execution.noise_plan._compile_span`
    and are all memory-lean: no route here materialises the
    transpose-copy sandwich the GEMM kernels pay, which dominated the
    profile of noisy circuits (every gate anchors a channel, so spans
    are short and per-op overhead is the whole game).
    """
    for op in ops:
        tag = op[0]
        if tag == "diag":
            # in place: the executor owns the chunk tensor
            batch *= op[1]
        elif tag == "perm":
            out = np.empty_like(batch)
            for out_sel, in_sel, phase in op[1]:
                if phase is None:
                    out[out_sel] = batch[in_sel]
                else:
                    np.multiply(batch[in_sel], phase, out=out[out_sel])
            batch = out
        elif tag == "mul1":
            _, matrix, qubit = op
            n = batch.ndim - 1
            left = batch.shape[0] << qubit
            right = 1 << (n - 1 - qubit)
            view = batch.reshape(left, 2, right)
            # C-order allocation guarantees the reshape below is a view
            out = np.empty(batch.shape, dtype=batch.dtype)
            result = out.reshape(left, 2, right)
            v0 = view[:, 0, :]
            v1 = view[:, 1, :]
            np.multiply(v0, matrix[0, 0], out=result[:, 0, :])
            result[:, 0, :] += matrix[0, 1] * v1
            np.multiply(v0, matrix[1, 0], out=result[:, 1, :])
            result[:, 1, :] += matrix[1, 1] * v1
            batch = out
        else:  # "gen"
            batch = apply_matrix_batch(batch, op[1], op[2])
    return batch


def _apply_channel_chunk(
    batch: np.ndarray, mass: np.ndarray, binding, uniforms: np.ndarray
) -> np.ndarray:
    """One stochastic channel on a whole chunk; Kraus channels update
    the per-shot *mass* in place."""
    qubits = binding.qubits
    if binding.kind == "mixed":
        last = binding.num_branches - 1
        branches = np.minimum(
            np.searchsorted(binding.cumulative, uniforms, side="right"),
            last,
        )
        for index in np.unique(branches):
            op = binding.scaled_ops[index]
            if op is None or binding.identity_flags[index]:
                continue
            mask = branches == index
            if mask.all():
                batch = apply_matrix_batch(batch, op, qubits)
            else:
                batch[mask] = apply_matrix_batch(batch[mask], op, qubits)
        return batch
    return _apply_kraus_chunk(batch, mass, binding, uniforms)


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


def _apply_kraus_chunk(
    batch: np.ndarray, mass: np.ndarray, binding, uniforms: np.ndarray
) -> np.ndarray:
    """A general Kraus channel on a whole chunk of unnormalised shots.

    Every branch norm ``||K psi||^2 = Tr(K^† K rho)`` of every shot,
    then one categorical draw per shot.  Shots that drew a cheap branch
    (diagonal, ``K[0, 0] != 0``) are scaled in place by ``K[j, j] /
    K[0, 0]`` on sub-lattices ``1..``, with mass ``norm / |K[0, 0]|^2``;
    the others are gathered, get ``K[b_s] / sqrt(norm_s)`` as
    multiply-adds and are scattered back with mass 1.
    """
    shots = batch.shape[0]
    shape, selectors, axes = _sub_lattices(binding.qubits, batch.ndim - 1)
    batch = np.ascontiguousarray(batch)
    grouped = batch.reshape((shots,) + shape)
    views = [grouped[sel].transpose(axes) for sel in selectors]
    subscripts = list(range(len(axes)))
    if binding.gram_diagonals is not None:
        # diagonal Grams weigh only each sub-lattice's |amp|^2 mass;
        # sub-lattice 0 holds what the others leave of the shot's mass
        floats = grouped.view(_REAL_DTYPE)
        masses = []
        for sel in selectors[1:]:
            part = floats[sel].transpose(axes)
            masses.append(
                np.einsum(part, subscripts, part, subscripts, [0], order="C")
            )
        masses.insert(0, mass - sum(masses))
        norms = 0.0
        for j, sub_mass in enumerate(masses):
            norms = norms + binding.gram_diagonals[:, j, None] * sub_mass
    else:
        # rho[i, j] = <i|rho|j> per shot, from sub-lattice overlaps
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
    branches = (uniforms[None, :] > cumulative).sum(axis=0)
    branches = np.minimum(branches, binding.num_branches - 1)
    chosen = np.maximum(norms[branches, np.arange(shots)], 1e-300)
    jumps = np.flatnonzero(~binding.cheap[branches])
    # gathered before the in-place pass, which scales their rows by one
    sources = grouped[jumps]
    if jumps.size < shots:
        ratios = binding.lead_ratios[branches]
        ratios = ratios.reshape(ratios.shape + (1,) * (len(axes) - 1))
        for j in range(1, len(views)):
            np.multiply(views[j], ratios[:, j], out=views[j], order="C")
    np.divide(chosen, binding.lead_scales[branches], out=mass)
    if jumps.size:
        ops = binding.stack[branches[jumps]]
        ops *= (1.0 / np.sqrt(chosen[jumps]))[:, None, None]
        # per-shot coefficients broadcast over one sub-lattice view
        coef = ops.reshape(ops.shape + (1,) * (len(axes) - 1))
        parts = [sources[sel].transpose(axes) for sel in selectors]
        out = np.empty_like(sources)
        product = np.empty(parts[0].shape, dtype=batch.dtype)
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
        # tracked mass gathered since the shot was last normalised
        part = grouped[drifted].reshape(drifted.size, -1)
        floats = part.view(_REAL_DTYPE)
        true = np.einsum("si,si->s", floats, floats, order="C")
        part /= np.sqrt(np.maximum(true, 1e-300))[:, None]
        grouped[drifted] = part.reshape((-1,) + shape)
        mass[drifted] = 1.0
    return batch


def _collapse_measure(
    batch: np.ndarray, mass: np.ndarray, qubit: int, uniforms: np.ndarray
) -> np.ndarray:
    """Measure *qubit* on every shot of the chunk, collapsing in place.

    Returns the boolean outcome array.  Convention matches
    :meth:`Statevector.measure_qubit`: outcome 1 iff ``u < P(1)``.
    Shots may arrive unnormalised; each leaves with unit *mass*.
    """
    shots = batch.shape[0]
    view = np.moveaxis(batch, qubit + 1, 1)
    weight0, weight1 = (
        (np.abs(view[:, b]) ** 2).reshape(shots, -1).sum(axis=1)
        for b in (0, 1)
    )
    outcome = uniforms < weight1 / np.maximum(weight0 + weight1, 1e-300)
    ones = np.nonzero(outcome)[0]
    zeros = np.nonzero(~outcome)[0]
    view[ones, 0] = 0
    view[zeros, 1] = 0
    kept = np.where(outcome, weight1, weight0)
    batch /= np.sqrt(np.maximum(kept, 1e-300)).reshape(
        (-1,) + (1,) * (batch.ndim - 1)
    )
    mass[:] = 1.0
    return outcome


def _sample_joint(batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One little-endian basis index per shot from the final state."""
    shots = batch.shape[0]
    n = batch.ndim - 1
    axes = (0,) + tuple(range(n, 0, -1))
    probs = np.abs(batch.transpose(axes).reshape(shots, -1)) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    outcomes = (uniforms[:, None] > cumulative).sum(axis=1)
    return np.minimum(outcomes, probs.shape[1] - 1)
