"""Noise-bound lowering: compile a (circuit, noise model) pair once.

This is the one plan IR of the execution tier: noisy runs and
noiseless ones (the noise-free plan, ``noise_model=None``) alike.
Walking the instruction list on every application would re-resolve
``NoiseModel.errors_for`` and re-classify channels each time; this
module lifts all of that to trace time:

* every gate's bound channels are resolved to physical qubits once
  (:class:`ChannelBinding`), classified once (unitary-only /
  mixed-unitary / general Kraus), with branch matrices pre-scaled
  (``K_i / sqrt(p_i)``), cumulative probability tables precomputed,
  Kraus operators stacked in the ensemble dtype with their Gram
  matrices, jump bound and no-jump fold.  Bindings
  are shared per (channel, physical qubits) —
  :meth:`ChannelBinding.bind` memoises them on the channel — so every
  anchor of every cached plan that binds one channel to the same
  qubits holds one set of read-only arrays;
* readout errors are bound per measured qubit, for mid-circuit measure
  steps and for the terminal report entries alike;
* the noiseless spans *between* channel anchors are fused by
  :func:`~repro.execution.plan.lower_ops`, so a weakly-noisy circuit
  still gets 1q-run merging, diagonal fusion and blocking inside each
  span, and a noise-free plan is a single fused span per measure-free
  stretch (:meth:`NoisePlan.execute` runs it);
* single-operator channels are CPTP, hence unitary — they fold into
  the surrounding span instead of anchoring a stochastic step;
* for the trajectory ensemble only, :meth:`NoisePlan.compiled_steps`
  folds each Kraus anchor's diagonal no-jump operator ``K_0`` forward
  into the next span op on its qubit (the rare-jump form of the
  quantum-jump method: Dalibard, Castin & Mølmer, PRL 68, 580 (1992)),
  and gives each qubit an axis of the ensemble's layout only at the
  first step that touches it: an untouched qubit is exactly |0> and a
  tensor factor, so every op before that step runs on the narrower
  layout of the qubits already born.

The result is a :class:`NoisePlan`: a flat step stream (span / channel
/ measure) plus a random-site numbering that assigns every stochastic
decision in the plan a fixed index.  The trajectory ensemble
(:func:`repro.simulator.noisy.run_noise_plan`) draws every site's
uniforms for all shots up front
(:func:`repro.simulator.noisy.site_draws`), which is what makes its
output independent of the chunk size.
The exact engine (:func:`repro.simulator.density.run_density_plan`)
runs terminal plans on the density tensor.  Plans are cached in
:mod:`repro.execution.plan_cache`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.channels import _read_only
from ..noise.model import NoiseModel
from ..simulator.kernels import (
    contract_batch,
    embed,
    multiply_diagonal,
)
from ..simulator.noisy import ENSEMBLE_DTYPE
from ..simulator.trajectory import measures_are_terminal
from .plan import PlanOp, TracedOp, lower_ops

__all__ = ["ChannelBinding", "NoisePlan", "build_noise_plan"]

# A shot whose uniform is at most ``1 - B - _DRAW_MARGIN`` takes branch
# 0 unseen: the margin covers the rounding of the branch norms it would
# have been drawn against, so thinning never changes a draw.
_DRAW_MARGIN = 1e-6

# Each folded anchor shrinks a row's norm^2 by at least ``1 - B``, and
# its pending factor spans the same range.  Once the product since the
# rows were last normalised falls below this floor, the compiled stream
# flushes every pending factor and renormalises the rows, which keeps
# complex64 amplitudes far from underflow and overflow.
_NORM_FLOOR = 1e-8


def _monomial_decomposition(matrix: np.ndarray):
    """``(rows, phases)`` when *matrix* is monomial, else ``None``.

    A monomial matrix (exactly one non-zero entry per row and column —
    X, CX, SWAP, CCX, Y, ...) maps each basis state to a single basis
    state with a phase: applying it moves at most ``2^k`` strided blocks
    in place (:func:`_perm_moves`) instead of a dense contraction.
    Detection is exact (``!= 0``): gate constructors emit literal
    zeros, and fused products with float dust simply stay on the dense
    route.
    """
    nonzero = matrix != 0
    if not (nonzero.sum(axis=0) == 1).all():
        return None
    if not (nonzero.sum(axis=1) == 1).all():
        return None
    rows = nonzero.argmax(axis=0)  # column j -> its non-zero row
    phases = matrix[rows, np.arange(matrix.shape[0])]
    return rows, phases


def _monomial_table(matrix: np.ndarray):
    """:func:`_monomial_decomposition` as hashable ``(rows, phases)``
    tuples (the :func:`_perm_moves` key), or ``None``; memoised per
    distinct matrix (by its bytes, so equal tables are one object)."""
    return _monomial_of(matrix.shape[0], matrix.dtype, matrix.tobytes())


@functools.lru_cache(maxsize=4096)
def _monomial_of(dim: int, dtype: np.dtype, data: bytes):
    matrix = np.frombuffer(data, dtype=dtype).reshape(dim, dim)
    monomial = _monomial_decomposition(matrix)
    if monomial is None:
        return None
    rows, phases = monomial
    return tuple(rows.tolist()), tuple(phases.tolist())


@functools.lru_cache(maxsize=1024)
def _shared(table: Tuple) -> Tuple:
    """The first-seen copy of an equal tuple: every binding of a
    same-shaped Pauli channel holds one monomial table, and every span
    that absorbs the same qubits one tuple of them, whatever plan it is
    in."""
    return table


@functools.lru_cache(maxsize=1024)
def _mixed_program(
    monomials: Tuple,
    noops: Tuple[bool, ...],
    axes: Tuple[int, ...],
    width: int,
) -> Tuple[np.ndarray, Tuple]:
    """A mixed-unitary binding's per-branch programs for the executor.

    Returns ``(columns, programs)``: ``columns[b]`` is branch ``b``'s
    column in the executor's row-split table, with every no-op branch
    (``None`` or a scalar identity) sharing the first one's, so they
    never split a row; ``programs[b]`` is ``None`` for a no-op,
    ``("perm", moves)`` for a monomial (Pauli) branch — the span
    kernels' in-place cycle moves — and ``("gen", b)`` for a dense one,
    applied from the binding's ``scaled_ops[b]``.  *axes* are the
    binding's qubits in a layout of *width* born qubits.  Keyed by
    value, so equal channels on equal axes share one program.
    """
    columns: List[int] = []
    programs: List = []
    for b, (monomial, noop) in enumerate(zip(monomials, noops)):
        if noop:
            columns.append(noops.index(True))
            programs.append(None)
            continue
        columns.append(b)
        if monomial is None:
            programs.append(("gen", b))
        else:
            moves = _perm_moves(*monomial, axes, width, ENSEMBLE_DTYPE)
            programs.append(("perm", moves))
    return _read_only(columns, np.intp), tuple(programs)


@functools.lru_cache(maxsize=4096)
def _basis_selector(index: int, axes: Tuple[int, ...], width: int) -> Tuple:
    """Selector of a ``(W, 2, ..., 2)`` batch of *width* qubit axes that
    fixes *axes* to the bits of *index*.

    Axis 0 is the shot axis; layout axis ``a`` is batch axis ``a + 1``.
    Bit ordering follows the gate-matrix convention: the first listed
    axis is the most significant bit of *index*.  Memoised, so every
    compiled perm span on the same axes shares its selectors.
    """
    sel: List = [slice(None)] * (width + 1)
    k = len(axes)
    for t, axis in enumerate(axes):
        sel[axis + 1] = (index >> (k - 1 - t)) & 1
    return tuple(sel)


@functools.lru_cache(maxsize=4096)
def _perm_moves(
    rows: Tuple[int, ...],
    phases: Tuple[complex, ...],
    axes: Tuple[int, ...],
    width: int,
    dtype: np.dtype,
) -> Tuple:
    """A monomial gate on *axes* of a *width*-qubit layout as in-place
    cycle moves ``(blocks, phases)``; memoised, so every compiled span
    applying the same permutation on the same axes shares one.

    *blocks* are the selectors of one cycle of the permutation: block
    ``i`` moves to block ``i + 1`` (the last to the first), multiplied
    by ``phases[i]`` (``None`` means exactly 1).  A one-block cycle is a
    fixed point with a phase, one in-place multiply; a fixed point with
    phase 1 emits nothing.  Each element still gets one copy or one
    multiply, so the result equals the out-of-place application bit for
    bit.

    Phases are tested after the cast to *dtype*: a Pauli channel's
    ``K / sqrt(p)`` has complex128 entries one ulp off 1 that are
    exactly 1 in complex64.  A gate on the last axis keeps the unit
    phases of its cycles: its selectors fix the innermost axis, and
    numpy copies such unit-stride-free views ~3x slower than it
    multiplies them by one (measured on 10-qubit, 50-row chunks).
    """
    inner = width - 1 in axes
    cast = [dtype.type(phase) for phase in phases]
    moves = []
    seen = set()
    for start in range(len(rows)):
        if start in seen:
            continue
        cycle = [start]
        while rows[cycle[-1]] != start:
            cycle.append(rows[cycle[-1]])
        seen.update(cycle)
        if len(cycle) == 1 and cast[start] == 1:
            continue
        moves.append(
            (
                tuple(_basis_selector(j, axes, width) for j in cycle),
                tuple(
                    None if cast[j] == 1 and not inner else cast[j]
                    for j in cycle
                ),
            )
        )
    return tuple(moves)


def _compile_span(
    ops: Sequence[PlanOp], dtype: np.dtype, layout: Dict[int, int]
) -> Tuple[Tuple, ...]:
    """Lower a span's :class:`PlanOp` list for the chunked executor.

    *layout* maps each qubit with an axis in the executor's chunk (each
    born qubit) to that axis, and every op compiles onto the axes of
    its qubits.  The layout keeps physical order, so an ascending qubit
    tuple maps to ascending axes.

    Emits one of four op forms, chosen by matrix *structure* only —
    never by batch size — so a fixed seed gives bit-identical counts
    for every chunk width:

    * ``("diag", tensor)`` — broadcast in-place multiply;
    * ``("perm", ((blocks, phases), ...))`` — monomial matrix as
      in-place cycle moves (:func:`_perm_moves`);
    * ``("mul1", matrix, axis)`` — dense 1q gate as four elementwise
      axpy ops on the two sub-lattices (no transpose copies);
    * ``("gen", matrix, axes)`` — dense multi-qubit fallback through
      :func:`~repro.simulator.kernels.apply_matrix_batch`.
    """
    width = len(layout)
    compiled: List[Tuple] = []
    for op in ops:
        axes = tuple(layout[qubit] for qubit in op.qubits)
        if op.diag is not None:
            # diagonal PlanOps store the smallest qubit as the most
            # significant bit, which is exactly the broadcast layout
            shape = [1] * (width + 1)
            for axis in axes:
                shape[axis + 1] = 2
            diag = op.diag.astype(dtype, copy=False)
            compiled.append(
                ("diag", np.ascontiguousarray(diag).reshape(shape))
            )
            continue
        matrix = np.ascontiguousarray(op.matrix.astype(dtype))
        monomial = _monomial_table(matrix)
        if monomial is not None:
            moves = _perm_moves(*monomial, axes, width, dtype)
            compiled.append(("perm", moves))
        elif len(axes) == 1:
            compiled.append(("mul1", matrix, axes[0]))
        else:
            compiled.append(("gen", matrix, axes))
    return tuple(compiled)


class ChannelBinding:
    """A channel resolved to physical qubits, classified at trace time.

    ``kind`` is ``"mixed"`` (every Kraus operator is ``sqrt(p) x
    unitary`` — branch probabilities are state-independent) or
    ``"kraus"`` (branch probabilities are ``Tr(K^† K rho)``).  All the
    per-application work of a per-shot sampler is resolved here, once
    per (channel, qubits):

    * mixed channels carry the cumulative table, the pre-scaled
      branches ``op / sqrt(p)``, the no-op branch flags and each
      branch's ``monomials`` entry: its :func:`_monomial_decomposition`
      as ``(rows, phases)`` tuples, ``None`` when the branch is not
      monomial (or has ``p = 0``) — Pauli branches then run as slice
      copies with phases — and, per place in a chunk layout, the
      executor's branch programs (:meth:`mixed_program`; both tables
      are shared by value across bindings);
    * Kraus channels carry the operator ``stack`` in
      :data:`~repro.simulator.noisy.ENSEMBLE_DTYPE`, the Gram matrices
      ``K^† K`` (candidate rows' branch norms come from their reduced
      density matrices), the jump bound ``jump_bound = B = sum_{j>=1}
      ||K_j||_2^2`` (squared spectral norms) and the no-jump ``fold``:
      the diagonal of ``K_0`` when the channel is on one qubit, ``K_0``
      is diagonal and ``B < 1`` (so ``|K_0[i, i]|^2 >= 1 - B > 0``),
      else ``None``.  Any state has ``p_0 >= 1 - B``, so a shot whose
      uniform is at most ``threshold = 1 - B - _DRAW_MARGIN`` takes
      branch 0 without a norm; an anchor without a fold has threshold
      ``-inf`` (every shot is a candidate and branch 0 applies
      ``K_0``).  ``fold`` is scaled to ``fold[0] = 1`` (a row's scale
      is free), and :meth:`NoisePlan.compiled_steps` folds it into the
      span ops, so a row that does not jump is never touched;
    * both kinds memoise their superoperator per block it is embedded
      in (:meth:`superoperator`, the exact engine's form), so these
      memos are bounded by the number of bindings, not of plans.

    Every array is read-only.  Use :meth:`bind`: it shares one binding
    per (channel, qubits) across every anchor of every plan.
    """

    __slots__ = (
        "channel",
        "qubits",
        "kind",
        "operators",
        "cumulative",
        "scaled_ops",
        "monomials",
        "programs",
        "superops",
        "identity_flags",
        "grams",
        "stack",
        "jump_bound",
        "fold",
        "threshold",
    )

    def __init__(self, channel, qubits: Sequence[int]) -> None:
        self.channel = channel
        self.qubits = tuple(qubits)
        # the channel's own tables are frozen and shared: no copies here
        self.operators = tuple(channel.kraus_operators)
        self.identity_flags = tuple(channel.scalar_identity_flags)
        self.cumulative = self.scaled_ops = self.monomials = None
        self.programs: Dict[Tuple, Tuple] = {}
        self.superops: Dict[Tuple[int, ...], np.ndarray] = {}
        self.grams = self.stack = self.jump_bound = self.fold = None
        self.threshold = None
        if channel.mixed_unitary_probs is not None:
            self.kind = "mixed"
            self.cumulative = channel.mixed_unitary_cumulative
            self.scaled_ops = channel.mixed_unitary_scaled
            self.monomials = _shared(
                tuple(
                    None if op is None else _monomial_table(op)
                    for op in self.scaled_ops
                )
            )
            return
        self.kind = "kraus"
        operators = np.array(self.operators)
        self.stack = _read_only(operators, ENSEMBLE_DTYPE)
        self.grams = _read_only(channel.kraus_grams)
        self.jump_bound = float(
            sum(np.linalg.norm(op, 2) ** 2 for op in operators[1:])
        )
        lead = operators[0]
        self.threshold = -np.inf
        if (
            lead.shape == (2, 2)
            and not lead[0, 1]
            and not lead[1, 0]
            and self.jump_bound < 1.0
        ):
            self.fold = _read_only(np.diagonal(lead) / lead[0, 0])
            self.threshold = 1.0 - self.jump_bound - _DRAW_MARGIN

    @classmethod
    def bind(cls, channel, qubits: Sequence[int]) -> "ChannelBinding":
        """The one binding of *channel* on *qubits*, memoised on the
        channel like its Gram matrices."""
        qubits = tuple(qubits)
        binding = channel.bindings.get(qubits)
        if binding is None:
            binding = channel.bindings.setdefault(
                qubits, cls(channel, qubits)
            )
        return binding

    def mixed_program(
        self, axes: Tuple[int, ...], width: int
    ) -> Tuple[np.ndarray, Tuple]:
        """This mixed-unitary binding's executor programs with its
        qubits on *axes* of a *width*-qubit chunk layout (see
        :func:`_mixed_program`)."""
        key = (axes, width)
        program = self.programs.get(key)
        if program is None:
            noops = tuple(
                op is None or identity
                for op, identity in zip(self.scaled_ops, self.identity_flags)
            )
            program = self.programs.setdefault(
                key, _mixed_program(self.monomials, noops, axes, width)
            )
        return program

    def superoperator(self, block: Tuple[int, ...]) -> np.ndarray:
        """``sum_i K_i (x) conj(K_i)`` embedded in *block* (ascending
        qubits, a superset of :attr:`qubits`), for the exact engine
        (:func:`repro.simulator.density.evolve_plan`)."""
        matrix = self.superops.get(block)
        if matrix is None:
            kraus = [embed(op, self.qubits, block) for op in self.operators]
            matrix = self.superops.setdefault(
                block, _read_only(sum(np.kron(k, k.conj()) for k in kraus))
            )
        return matrix

    @property
    def num_branches(self) -> int:
        return len(self.operators)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChannelBinding({self.kind!r}, qubits={self.qubits}, "
            f"branches={self.num_branches})"
        )


def _diagonal_tensor(
    factors: Dict[int, np.ndarray], layout: Dict[int, int]
):
    """Per-qubit diagonals ``{qubit: f}`` as one ``diag`` span op tensor,
    broadcasting over a ``(W, 2, ..., 2)`` chunk in *layout* (see
    :func:`_compile_span`)."""
    width = len(layout)
    tensor = np.ones((1,) * (width + 1))
    for qubit, factor in factors.items():
        shape = [1] * (width + 1)
        shape[layout[qubit] + 1] = 2
        tensor = tensor * np.reshape(factor, shape)
    return _read_only(tensor, ENSEMBLE_DTYPE)


def _absorb(op: PlanOp, pending: Dict[int, np.ndarray]) -> PlanOp:
    """*op* with the pending factors on its qubits applied first (``op ·
    diag(factors)``, still diagonal or monomial if *op* was); those
    factors leave *pending*."""
    if pending.keys().isdisjoint(op.qubits):
        return op
    # diagonal ops keep their qubits ascending, which is also their
    # index order; matrices index their first listed qubit highest
    scale = _ONE
    for qubit in op.qubits:
        scale = np.multiply.outer(scale, pending.pop(qubit, _PAIR)).ravel()
    if op.diag is not None:
        return PlanOp("diagonal", op.qubits, diag=op.diag * scale)
    return PlanOp("matrix", op.qubits, matrix=op.matrix * scale)


_ONE = np.ones(1)
_PAIR = np.ones(2)


def _fold_steps(
    steps: Sequence[Tuple], num_qubits: int, terminal: bool
) -> List[Tuple]:
    """Lower a plan's steps for the trajectory ensemble.

    **Births.**  The executor starts with no qubit axis (every qubit is
    exactly |0>, a tensor factor) and gives a qubit its axis at the
    first step that touches it.  The born qubits, in physical order,
    are the layout every op of a step compiles onto
    (:func:`_compile_span`).  A span or channel step names the qubits
    born at it, before its ops run; every qubit not yet born is born,
    implicitly, before a mid-circuit measurement and after the last
    step, so the collapse and the final sample see the full layout.

    **Folds.**  Spans become layout-bound op lists of
    :data:`~repro.simulator.noisy.ENSEMBLE_DTYPE` amplitudes, and each
    folded Kraus anchor's no-jump diagonal ``K_0`` is deferred: it stays
    *pending* on its qubit until the next span op on that qubit applies
    it first.  A row that does not jump is then never touched at the
    anchor; the executor keeps ``stored row = D^-1 · true state`` (up to
    a scalar), ``D`` the product of every qubit's pending factor, and
    rewrites a row that jumps as ``D'^-1 K_j D ·`` its copy, ``D'`` the
    product after the anchor.

    A pending factor is the diagonal ``f`` (``f[0] = 1``).  The executor
    tracks which are pending from the stream.  Steps become

    * ``("span", ops, absorbed, born)``, where the qubits in *absorbed*
      leave pending;
    * ``("channel", binding, site, factor, axes, born)``: *axes* are
      the binding's qubits in the layout, and a folded Kraus anchor
      makes its binding's ``fold`` pending on its qubit — or, where one
      was pending there already, the product *factor* (else ``None``).
      A channel step with no factor and no birth whose qubits sit on
      their own axes stays the plan's ``("channel", binding, site)``.

    Pending factors are flushed — applied as one ``diag`` span — before
    a mixed-unitary anchor on their qubit (its branches do not commute
    with them), before a mid-circuit measurement and before the final
    sample.  Where the product of ``1 - B`` over folded anchors since
    the rows were last normalised falls below :data:`_NORM_FLOOR`, a
    flush of every pending factor and a ``("normalise",)`` step follow
    the anchor.  Measure steps pass through unchanged.
    """
    compiled: List[Tuple] = []
    pending: Dict[int, np.ndarray] = {}  # qubit -> diagonal still owed
    layout: Dict[int, int] = {}  # born qubit -> its axis
    shrink = 1.0

    def bear(qubits) -> Tuple[int, ...]:
        if len(layout) == num_qubits:
            return ()
        born = tuple(sorted({q for q in qubits if q not in layout}))
        if born:
            live = sorted([*layout, *born])
            layout.update((q, axis) for axis, q in enumerate(live))
        return born

    def flush(qubits) -> None:
        owed = {q: pending.pop(q) for q in qubits if q in pending}
        if owed:
            tensor = _diagonal_tensor(owed, layout)
            compiled.append(
                ("span", (("diag", tensor),), _shared(tuple(owed)), ())
            )

    for step in steps:
        kind = step[0]
        if kind == "span":
            born = bear(q for op in step[1] for q in op.qubits)
            before = set(pending)
            ops = [_absorb(op, pending) for op in step[1]]
            compiled.append(
                (
                    "span",
                    _compile_span(ops, ENSEMBLE_DTYPE, layout),
                    _shared(tuple(sorted(before - set(pending)))),
                    born,
                )
            )
            continue
        if kind == "measure":
            flush(list(pending))
            bear(range(num_qubits))
            shrink = 1.0  # the collapse renormalises every row
            compiled.append(step)
            continue
        binding = step[1]
        if binding.kind == "mixed":
            flush(binding.qubits)
        born = bear(binding.qubits)
        factor = None
        if binding.fold is not None:
            qubit = binding.qubits[0]
            if qubit in pending:
                product = binding.fold * pending[qubit]
                factor = pending[qubit] = _read_only(product / product[0])
            else:
                pending[qubit] = binding.fold
            shrink *= 1.0 - binding.jump_bound
        axes = tuple(layout[q] for q in binding.qubits)
        if factor is not None or born or axes != binding.qubits:
            step = step + (factor, _shared(axes), born)
        compiled.append(step)
        if shrink < _NORM_FLOOR:
            flush(list(pending))
            compiled.append(("normalise",))
            shrink = 1.0
    if terminal:
        flush(list(pending))
    return compiled


class NoisePlan:
    """A traced (circuit, noise model) pair, ready for batched execution.

    ``steps`` is a flat tuple of

    * ``("span", (PlanOp, ...))`` — fused noiseless ops;
    * ``("channel", ChannelBinding, site)`` — one stochastic channel;
    * ``("measure", qubit, clbit, site, readout, readout_site)`` —
      a mid-circuit measurement with its bound readout error (or
      ``None``), only present on non-terminal plans.

    Terminal plans instead carry :attr:`sample_site` (the joint
    final-state draw) and :attr:`entries` — ``(qubit, clbit, readout,
    readout_site)`` report tuples in program order.  ``site`` indices
    number every stochastic decision ``0..num_sites-1`` in program
    order; the engines draw one independent uniform stream per site
    (:func:`repro.simulator.noisy.site_draws`).

    Immutable once built; the compiled span stream is lazily built
    under a lock.
    """

    def __init__(
        self,
        *,
        num_qubits: int,
        width: int,
        terminal: bool,
        steps: Sequence[Tuple],
        entries: Sequence[Tuple],
        sample_site: Optional[int],
        num_sites: int,
        source_gates: int,
        trace_seconds: float,
    ) -> None:
        self.num_qubits = num_qubits
        self.width = width
        self.terminal = terminal
        self.steps: Tuple[Tuple, ...] = tuple(steps)
        self.entries: Tuple[Tuple, ...] = tuple(entries)
        self.sample_site = sample_site
        self.num_sites = num_sites
        self.source_gates = source_gates
        self.trace_seconds = trace_seconds
        self._compiled: Optional[List[Tuple]] = None
        self._lock = threading.Lock()

    @property
    def num_channels(self) -> int:
        return sum(1 for step in self.steps if step[0] == "channel")

    @property
    def num_spans(self) -> int:
        return sum(1 for step in self.steps if step[0] == "span")

    def execute(self, batch: np.ndarray) -> np.ndarray:
        """Apply a noise-free plan's span ops to a ``(batch, 2, ..., 2)``
        tensor in its own dtype, skipping measure steps.

        Each op goes through :func:`~repro.simulator.kernels.contract_batch`
        or :func:`~repro.simulator.kernels.multiply_diagonal`, which pick
        the GEMM or ``tensordot`` route per op.
        """
        for step in self.steps:
            if step[0] == "channel":
                raise ValueError("execute() runs noise-free plans only")
            if step[0] != "span":
                continue
            for op in step[1]:
                if op.kind == "diagonal":
                    batch = multiply_diagonal(batch, op.diag, op.qubits)
                else:
                    batch = contract_batch(batch, op.matrix, op.qubits)
        return batch

    def compiled_steps(self) -> List[Tuple]:
        """The step stream the trajectory ensemble runs (see
        :func:`_fold_steps`); the exact engine reads :attr:`steps`."""
        if self._compiled is not None:
            return self._compiled
        compiled = _fold_steps(self.steps, self.num_qubits, self.terminal)
        with self._lock:
            if self._compiled is None:
                self._compiled = compiled
            return self._compiled

    def __repr__(self) -> str:
        return (
            f"NoisePlan(qubits={self.num_qubits}, "
            f"spans={self.num_spans}, channels={self.num_channels}, "
            f"terminal={self.terminal}, sites={self.num_sites})"
        )


def build_noise_plan(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
) -> NoisePlan:
    """Trace *circuit* against *noise_model* into a :class:`NoisePlan`.

    Channels anchor to their gate in program order; identity gates are
    dropped from the spans but their channels are kept (a model may
    bind errors to ``id``).  A trivial (or absent) model produces a
    plan whose steps are pure spans — the executor then degenerates to
    a noiseless ensemble evolution.
    """
    t0 = time.perf_counter()
    noisy = noise_model is not None and not noise_model.is_trivial()
    terminal = measures_are_terminal(circuit)
    steps: List[Tuple] = []
    span: List = []
    measured: List[Tuple[int, int]] = []
    site = 0
    source_gates = 0

    def _readout(qubit: int):
        if noise_model is None:
            return None
        return noise_model.readout_error(qubit)

    def _flush_span() -> None:
        if span:
            ops = lower_ops(span)
            if ops:
                steps.append(("span", tuple(ops)))
            span.clear()

    for inst in circuit:
        if inst.is_barrier:
            continue
        if inst.is_measure:
            qubit, clbit = inst.qubits[0], inst.clbits[0]
            measured.append((qubit, clbit))
            if not terminal:
                _flush_span()
                readout = _readout(qubit)
                measure_site = site
                site += 1
                readout_site = None
                if readout is not None:
                    readout_site = site
                    site += 1
                steps.append(
                    (
                        "measure",
                        qubit,
                        clbit,
                        measure_site,
                        readout,
                        readout_site,
                    )
                )
            continue
        op = TracedOp.of(inst)
        dim = 1 << len(op.qubits)
        if op.matrix.shape != (dim, dim):
            raise ValueError(
                f"gate {inst.name!r} matrix shape {op.matrix.shape} does "
                f"not match its {len(op.qubits)} qubit(s)"
            )
        source_gates += 1
        if not op.identity:
            span.append(op)
        if not noisy:
            continue
        for bound in noise_model.errors_for(inst):
            qubits = bound.resolve(inst)
            channel = bound.channel
            if len(channel.kraus_operators) == 1:
                # single Kraus + CPTP => unitary: no randomness, so it
                # joins the span (and fuses) instead of anchoring
                span.append(
                    TracedOp(np.asarray(channel.kraus_operators[0]), qubits)
                )
                continue
            _flush_span()
            steps.append(
                ("channel", ChannelBinding.bind(channel, qubits), site)
            )
            site += 1
    _flush_span()

    entries: List[Tuple] = []
    sample_site: Optional[int] = None
    if terminal:
        sample_site = site
        site += 1
        if measured:
            width = max(circuit.num_clbits, 1)
            report = measured
        else:
            # measure-all semantics for unmeasured circuits
            width = circuit.num_qubits
            report = [(q, q) for q in range(circuit.num_qubits)]
        for qubit, clbit in report:
            readout = _readout(qubit)
            if readout is not None:
                entries.append((qubit, clbit, readout, site))
                site += 1
            else:
                entries.append((qubit, clbit, None, None))
    else:
        width = max(circuit.num_clbits, 1)

    return NoisePlan(
        num_qubits=circuit.num_qubits,
        width=width,
        terminal=terminal,
        steps=steps,
        entries=entries,
        sample_site=sample_site,
        num_sites=site,
        source_gates=source_gates,
        trace_seconds=time.perf_counter() - t0,
    )
