"""Plan contract checking: validate plan IR without executing it.

The compiled-execution tier's one plan IR
(:class:`~repro.execution.noise_plan.NoisePlan`, noisy or noise-free,
its spans lowered by :mod:`repro.execution.plan`) carries a set of
structural invariants that every engine, codegen backend and cache
consumer relies on.  This module states them as executable contracts:

* every qubit/clbit index in range, no duplicate qubits per op;
* every fused matrix unitary to tolerance, every diagonal op truly a
  unit-modulus diagonal with its qubits ascending (the storage
  convention :func:`repro.execution.plan._gate_diag` establishes);
* random sites numbered ``0..num_sites-1`` in program order, spans
  never adjacent (an anchor sits between any two), every
  :class:`~repro.execution.noise_plan.ChannelBinding` CPTP with a
  monotone cumulative table summing to 1, every Kraus binding's
  operator stack, jump bound ``sum ||K_j||_2^2`` and no-jump fold
  agreeing with its operators, every mixed binding's per-branch
  monomial table rebuilding its branches, monomial classifications
  exact, and — when the source circuit and model are supplied — fusion
  provably never crossing a noise anchor (each span re-derived and
  justified from its own segment only, via
  :func:`repro.analysis.static.dataflow.verify_lowering`) and the
  measure ordering preserved against the circuit;
* the trajectory ensemble's compiled stream: every qubit born once,
  before its first op, and every op compiled onto the layout of the
  qubits born by then; every span op equal to its source op times the
  no-jump factors it absorbs, every Kraus anchor's pending factors
  matching the folds re-derived from the operators, flushes and
  renormalisations where the fold rule puts them.

Checking never executes a plan (it builds the plan's lazily compiled
stream to check it).  :func:`check_noise_plan` returns a
:class:`~.base.Report`; :func:`validate_noise_plan` raises
:class:`PlanContractError` instead — that is what the opt-in
``validate=`` knob on the plan caches calls at build time.  Module
counters (:func:`validation_stats`) feed the service ``/stats``
endpoint.
"""

from __future__ import annotations

import functools
import threading
from typing import Optional, Sequence

import numpy as np

from ...circuits.circuit import QuantumCircuit
from ...execution.noise_plan import (
    _DRAW_MARGIN,
    _NORM_FLOOR,
    ChannelBinding,
    NoisePlan,
    _compile_span,
    _diagonal_tensor,
    _monomial_decomposition,
)
from ...execution.plan import PlanOp, TracedOp
from ...simulator.noisy import ENSEMBLE_DTYPE
from ...simulator.trajectory import measures_are_terminal
from .base import Report

__all__ = [
    "PlanContractError",
    "check_noise_plan",
    "reset_validation_stats",
    "validate_noise_plan",
    "validation_stats",
]

# tolerance for unitarity / channel algebra on fused float products
_ATOL = 1e-8
_CPTP_ATOL = 1e-6  # matches QuantumChannel's own completeness check
_STACK_ATOL = 1e-6  # Kraus stacks are stored in single precision

_STATS_LOCK = threading.Lock()
_STATS = {"plans_checked": 0, "violations": 0}


def validation_stats() -> dict:
    """Snapshot of the validation counters (surfaced in ``/stats``)."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_validation_stats() -> None:
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0


def _count(report: Report) -> Report:
    with _STATS_LOCK:
        _STATS["plans_checked"] += 1
        _STATS["violations"] += len(report.violations)
    return report


class PlanContractError(ValueError):
    """A plan violated its structural contract.

    Raised by the ``validate=`` build-time knob; carries the full
    :class:`~.base.Report` so callers (CLI, service) can render every
    violation, not just the first.
    """

    def __init__(self, report: Report) -> None:
        self.report = report
        lines = [report.summary()] + [f"  {v}" for v in report.violations]
        super().__init__("\n".join(lines))


# ---------------------------------------------------------------------------
# op-level checks
# ---------------------------------------------------------------------------


def _check_qubits(
    report: Report, qubits: Sequence[int], num_qubits: int, loc: str
) -> bool:
    ok = report.check(
        all(0 <= q < num_qubits for q in qubits),
        "qubit-range",
        f"qubits {tuple(qubits)} out of range for {num_qubits} qubit(s)",
        loc,
    )
    ok &= report.check(
        len(set(qubits)) == len(qubits),
        "qubit-duplicate",
        f"duplicate qubits in {tuple(qubits)}",
        loc,
    )
    return bool(ok)


def _check_plan_op(
    report: Report, op: PlanOp, num_qubits: int, loc: str, atol: float
) -> None:
    if not report.check(
        op.kind in ("matrix", "diagonal"),
        "op-kind",
        f"unknown plan-op kind {op.kind!r}",
        loc,
    ):
        return
    if not _check_qubits(report, op.qubits, num_qubits, loc):
        return
    dim = 1 << len(op.qubits)
    if op.kind == "matrix":
        matrix = op.matrix
        if not report.check(
            matrix is not None and matrix.shape == (dim, dim),
            "matrix-shape",
            f"matrix shape {getattr(matrix, 'shape', None)} does not "
            f"match {len(op.qubits)} qubit(s)",
            loc,
        ):
            return
        report.check(
            np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=atol),
            "unitarity",
            "fused matrix is not unitary to tolerance "
            f"(max |U U^† - I| = "
            f"{np.abs(matrix @ matrix.conj().T - np.eye(dim)).max():.3e})",
            loc,
        )
    else:
        diag = op.diag
        if not report.check(
            diag is not None and diag.shape == (dim,),
            "diagonal-shape",
            f"diagonal vector shape {getattr(diag, 'shape', None)} does "
            f"not match {len(op.qubits)} qubit(s)",
            loc,
        ):
            return
        report.check(
            bool(np.allclose(np.abs(diag), 1.0, atol=atol)),
            "unitarity",
            "diagonal op is not unit-modulus "
            f"(max ||d| - 1| = {np.abs(np.abs(diag) - 1.0).max():.3e})",
            loc,
        )
        report.check(
            tuple(op.qubits) == tuple(sorted(op.qubits)),
            "diagonal-structure",
            f"diagonal op qubits {op.qubits} are not ascending (the "
            "storage convention puts the smallest qubit at the most "
            "significant bit)",
            loc,
        )


# ---------------------------------------------------------------------------
# ChannelBinding / NoisePlan contracts
# ---------------------------------------------------------------------------


def _check_channel_binding(
    report: Report, binding: ChannelBinding, num_qubits: int, loc: str
) -> None:
    if not _check_qubits(report, binding.qubits, num_qubits, loc):
        return
    dim = 1 << len(binding.qubits)
    operators = binding.operators
    if not report.check(
        len(operators) >= 1
        and all(op.shape == (dim, dim) for op in operators),
        "channel-shape",
        f"channel operators do not all have shape ({dim}, {dim})",
        loc,
    ):
        return
    report.check(
        len(operators) >= 2,
        "channel-anchor",
        "single-operator (unitary) channel anchored as a stochastic "
        "step — it must fold into the surrounding span",
        loc,
    )
    total = sum(op.conj().T @ op for op in operators)
    report.check(
        bool(np.allclose(total, np.eye(dim), atol=_CPTP_ATOL)),
        "cptp",
        "channel is not trace-preserving "
        f"(max |sum K^†K - I| = {np.abs(total - np.eye(dim)).max():.3e})",
        loc,
    )
    report.check(
        binding.kind in ("mixed", "kraus"),
        "channel-kind",
        f"unknown channel kind {binding.kind!r}",
        loc,
    )
    if binding.kind == "mixed":
        cumulative = binding.cumulative
        if report.check(
            cumulative is not None and len(cumulative) == len(operators),
            "cumulative-table",
            "mixed channel cumulative table missing or mis-sized",
            loc,
        ):
            diffs = np.diff(np.concatenate(([0.0], cumulative)))
            report.check(
                bool((diffs >= -_CPTP_ATOL).all()),
                "cumulative-table",
                "cumulative probability table is not monotone",
                loc,
            )
            report.check(
                bool(abs(cumulative[-1] - 1.0) <= _CPTP_ATOL),
                "cumulative-table",
                f"cumulative probabilities sum to {cumulative[-1]:.9f}, "
                "not 1",
                loc,
            )
            for b, (op, p) in enumerate(zip(operators, diffs)):
                scaled = binding.scaled_ops[b]
                if p > 1e-12:
                    report.check(
                        scaled is not None
                        and bool(
                            np.allclose(scaled * np.sqrt(p), op, atol=_ATOL)
                        ),
                        "scaled-branch",
                        f"branch {b} pre-scaled operator does not equal "
                        "K / sqrt(p)",
                        loc,
                    )
        _check_branch_monomials(report, binding, loc)
    else:
        grams = binding.grams
        if report.check(
            grams is not None and len(grams) == len(operators),
            "gram-table",
            "kraus channel Gram table missing or mis-sized",
            loc,
        ):
            for b, (op, gram) in enumerate(zip(operators, grams)):
                report.check(
                    bool(np.allclose(gram, op.conj().T @ op, atol=_ATOL)),
                    "gram-table",
                    f"branch {b} cached Gram matrix does not equal K^†K",
                    loc,
                )
        _check_kraus_tables(report, binding, dim, loc)
    if report.check(
        len(binding.identity_flags) == len(operators),
        "identity-flags",
        "identity-flag table mis-sized",
        loc,
    ):
        for b, (op, flag) in enumerate(
            zip(operators, binding.identity_flags)
        ):
            scalar_id = bool(
                abs(op[0, 0]) > 1e-12
                and np.allclose(op, op[0, 0] * np.eye(dim), atol=1e-12)
            )
            report.check(
                flag == scalar_id,
                "identity-flags",
                f"branch {b} identity flag {flag} disagrees with the "
                "operator",
                loc,
            )


def _check_branch_monomials(
    report: Report, binding: ChannelBinding, loc: str
) -> None:
    """The ``(rows, phases)`` tables mixed branches run as cycle moves.

    A monomial entry must rebuild its pre-scaled branch exactly; a
    branch that is not monomial (or has ``p = 0``) must be marked
    ``None``, so it takes the dense route.
    """
    monomials = binding.monomials
    if not report.check(
        monomials is not None and len(monomials) == len(binding.operators),
        "branch-monomials",
        "mixed channel monomial table missing or mis-sized",
        loc,
    ):
        return
    for b, (scaled, entry) in enumerate(zip(binding.scaled_ops, monomials)):
        monomial = None if scaled is None else _monomial_decomposition(scaled)
        if monomial is None or entry is None:
            ok = monomial is None and entry is None
        else:
            rows, phases = entry
            rebuilt = np.zeros_like(scaled)
            rebuilt[list(rows), np.arange(len(rows))] = phases
            ok = len(rows) == len(scaled) and np.array_equal(rebuilt, scaled)
        report.check(
            ok,
            "branch-monomials",
            f"branch {b} monomial entry does not rebuild its pre-scaled "
            "operator exactly, or marks a monomial branch as dense",
            loc,
        )


def _check_kraus_tables(
    report: Report, binding: ChannelBinding, dim: int, loc: str
) -> None:
    """The tables the Kraus kernel reads: the operator stack, the jump
    bound ``B = sum_{j>=1} ||K_j||_2^2`` and the no-jump fold with its
    candidate threshold."""
    operators = np.array(binding.operators)
    stack = binding.stack
    report.check(
        stack is not None
        and stack.dtype == ENSEMBLE_DTYPE
        and stack.shape == operators.shape
        and bool(np.allclose(stack, operators, atol=_STACK_ATOL)),
        "operator-stack",
        "kraus channel operator stack does not equal its operators",
        loc,
    )
    bound = float(
        sum(
            np.linalg.svd(op, compute_uv=False).max() ** 2
            for op in operators[1:]
        )
    )
    if not report.check(
        binding.jump_bound is not None
        and abs(binding.jump_bound - bound) <= _ATOL,
        "jump-bound",
        f"jump bound {binding.jump_bound} is not sum ||K_j||_2^2 = "
        f"{bound:.12g}",
        loc,
    ):
        return
    lead = operators[0]
    if dim == 2 and lead[0, 1] == 0 and lead[1, 0] == 0 and bound < 1:
        ok = (
            binding.fold is not None
            and bool(
                np.allclose(binding.fold, np.diagonal(lead) / lead[0, 0])
            )
            and binding.threshold == 1.0 - binding.jump_bound - _DRAW_MARGIN
        )
    else:
        ok = binding.fold is None and binding.threshold == -np.inf
    report.check(
        ok,
        "no-jump-fold",
        "fold or threshold disagrees with the leading operator: a "
        "1-qubit diagonal K_0 with B < 1 folds as its diagonal over "
        "K_0[0, 0], with threshold 1 - B - margin; any other anchor has "
        "none and threshold -inf",
        loc,
    )


def _check_readout(report: Report, readout, loc: str) -> None:
    if readout is None:
        return
    report.check(
        0.0 <= readout.prob_1_given_0 <= 1.0
        and 0.0 <= readout.prob_0_given_1 <= 1.0,
        "readout-probability",
        "readout flip probabilities outside [0, 1]",
        loc,
    )


def check_noise_plan(
    plan: NoisePlan,
    circuit: Optional[QuantumCircuit] = None,
    noise_model=None,
    *,
    atol: float = _ATOL,
) -> Report:
    """Contract-check one :class:`NoisePlan` without executing it.

    With *circuit* supplied, the anchor structure is re-derived
    independently and each span is proven to be a correct lowering of
    its own segment only — i.e. fusion never crossed a noise anchor —
    and the measure map is held to the circuit's measures.  The walk
    binds the circuit's errors from *noise_model*, so a noisy plan must
    come with the model it was built with: a plan with a channel anchor
    or a readout error and no (or a trivial) model raises
    :class:`ValueError`.  *noise_model* is optional for a noise-free
    plan and when *circuit* is omitted.
    """
    from .dataflow import verify_lowering

    noiseless = noise_model is None or noise_model.is_trivial()
    if circuit is not None and noiseless:
        readouts = [step[4] for step in plan.steps if step[0] == "measure"]
        readouts += [entry[2] for entry in plan.entries]
        if plan.num_channels or any(r is not None for r in readouts):
            raise ValueError(
                "check_noise_plan: this plan carries noise; pass the noise "
                "model it was built with to check it against its circuit"
            )

    report = Report("plan")
    report.metadata.update(
        {
            "num_qubits": plan.num_qubits,
            "spans": plan.num_spans,
            "channels": plan.num_channels,
            "terminal": plan.terminal,
            "num_sites": plan.num_sites,
        }
    )
    report.check(plan.width >= 1, "width", f"width {plan.width} < 1")
    n = plan.num_qubits

    sites: list = []
    # steps share one ChannelBinding per channel and qubit tuple
    # (ChannelBinding.bind): check each once, reporting at its first step
    checked: set = set()
    prev_kind: Optional[str] = None
    for s, step in enumerate(plan.steps):
        kind = step[0]
        loc = f"steps[{s}]"
        if not report.check(
            kind in ("span", "channel", "measure"),
            "step-kind",
            f"unknown step kind {kind!r}",
            loc,
        ):
            prev_kind = kind
            continue
        if kind == "span":
            report.check(
                prev_kind != "span",
                "adjacent-spans",
                "two adjacent spans with no anchor between them — the "
                "lowering should have fused them",
                loc,
            )
            for j, op in enumerate(step[1]):
                _check_plan_op(report, op, n, f"{loc}.ops[{j}]", atol)
                if op.kind == "matrix":
                    _check_monomial_classification(
                        report, op.matrix, f"{loc}.ops[{j}]"
                    )
        elif kind == "channel":
            if id(step[1]) not in checked:
                checked.add(id(step[1]))
                _check_channel_binding(report, step[1], n, loc)
            sites.append(step[2])
        else:  # measure
            qubit, clbit, site, readout, readout_site = step[1:]
            report.check(
                not plan.terminal,
                "terminal-structure",
                "terminal plan contains a mid-circuit measure step",
                loc,
            )
            report.check(
                0 <= qubit < n,
                "qubit-range",
                f"measured qubit {qubit} out of range",
                loc,
            )
            report.check(
                0 <= clbit < plan.width,
                "clbit-range",
                f"clbit {clbit} out of range for width {plan.width}",
                loc,
            )
            _check_readout(report, readout, loc)
            sites.append(site)
            report.check(
                (readout is None) == (readout_site is None),
                "site-order",
                "readout site present iff a readout error is bound",
                loc,
            )
            if readout_site is not None:
                sites.append(readout_site)
        prev_kind = kind

    if plan.terminal:
        report.check(
            plan.sample_site is not None,
            "terminal-structure",
            "terminal plan has no sample site",
        )
        if plan.sample_site is not None:
            sites.append(plan.sample_site)
        for e, entry in enumerate(plan.entries):
            qubit, clbit, readout, readout_site = entry
            loc = f"entries[{e}]"
            report.check(
                0 <= qubit < n,
                "qubit-range",
                f"entry qubit {qubit} out of range",
                loc,
            )
            report.check(
                0 <= clbit < plan.width,
                "clbit-range",
                f"entry clbit {clbit} out of range for width {plan.width}",
                loc,
            )
            _check_readout(report, readout, loc)
            report.check(
                (readout is None) == (readout_site is None),
                "site-order",
                "entry readout site present iff a readout error is bound",
                loc,
            )
            if readout_site is not None:
                sites.append(readout_site)
    else:
        report.check(
            plan.sample_site is None and not plan.entries,
            "terminal-structure",
            "non-terminal plan carries terminal sampling structure",
        )

    report.check(
        sites == list(range(plan.num_sites)),
        "site-order",
        "random sites are not numbered 0..num_sites-1 in program order "
        f"(got {sites}, expected 0..{plan.num_sites - 1})",
    )

    _check_folds(report, plan)
    if circuit is not None:
        _check_anchor_structure(
            report, plan, circuit, noise_model, verify_lowering, atol
        )
    return _count(report)


def _same_compiled_op(got, want) -> bool:
    """Two compiled span ops (``_compile_span`` forms) agree: the same
    form and qubits, entries within the stack tolerance."""
    if got[0] != want[0] or len(got) != len(want):
        return False
    if got[0] == "perm":
        got_moves, want_moves = _block_moves(got[1]), _block_moves(want[1])
        return (
            got_moves is not None
            and len(got_moves) == len(want_moves)
            and all(
                g[:2] == w[:2] and abs(g[2] - w[2]) <= _STACK_ATOL
                for g, w in zip(got_moves, want_moves)
            )
        )
    return (
        got[2:] == want[2:]
        and got[1].shape == want[1].shape
        and bool(np.allclose(got[1], want[1], atol=_STACK_ATOL))
    )


def _block_moves(cycles) -> list:
    """In-place cycle moves (``_perm_moves``) as sorted ``(to, from,
    phase)`` block moves, each block a tuple of fixed bits (``-1`` for
    a free axis); fixed points within tolerance of phase 1 are dropped,
    as the compiler drops those exactly 1.  ``None`` when a cycle is
    malformed: blocks repeated, a phase missing, or a fixed point
    without one (the executor multiplies a fixed point by its phase)."""
    def key(block):
        return tuple(-1 if isinstance(b, slice) else b for b in block)

    moves = []
    for blocks, phases in cycles:
        if (
            len(phases) != len(blocks)
            or len(set(map(key, blocks))) != len(blocks)
            or len(blocks) == 1 and phases[0] is None
        ):
            return None
        for i, (block, phase) in enumerate(zip(blocks, phases)):
            to = key(blocks[(i + 1) % len(blocks)])
            phase = 1 if phase is None else complex(phase)
            if to != key(block) or abs(phase - 1) > _STACK_ATOL:
                moves.append((to, key(block), phase))
    return sorted(moves, key=lambda move: move[:2])


def _check_folds(report: Report, plan: NoisePlan) -> None:
    """The trajectory ensemble's stream (:meth:`NoisePlan.compiled_steps`)
    against the plan's own steps.

    Tracks births and pending factors from the stream the way the
    executor does, and re-derives from each Kraus anchor's ``K_0``
    which no-jump factors are pending where (normalised to a leading
    1).  Every qubit is born once, before its first op: a step's births
    name qubits not yet born, its ops and anchor act only on born
    qubits, and an anchor's axes are its qubits' places among them
    (every qubit is born at a measurement).  Every compiled span op
    must equal its source op times the factors on its qubits, compiled
    onto the layout of the born qubits, and name the qubits it absorbs;
    the factors tracked at and after every Kraus anchor must be the
    derived ones (``D`` and ``D'``), and flushes and renormalisations
    must sit where the fold rule puts them.
    """
    n = plan.num_qubits
    stream = iter(plan.compiled_steps())
    pending: dict = {}  # derived: qubit -> diagonal
    tracked: dict = {}  # from the stream, as the executor tracks it
    layout: dict = {}  # born qubit -> axis, as the executor tracks them
    shrink = 1.0

    def agree() -> bool:
        return tracked.keys() == pending.keys() and all(
            np.allclose(tracked[q], pending[q], atol=_STACK_ATOL)
            for q in pending
        )

    def flush(qubits, loc) -> bool:
        owed = {q: pending.pop(q) for q in qubits if q in pending}
        if not owed:
            return True
        step = next(stream, None)
        want = _diagonal_tensor(owed, layout)
        for q in owed:
            tracked.pop(q, None)
        return report.check(
            step is not None
            and step[0] == "span"
            and len(step) == 4
            and not step[3]
            and [op[0] for op in step[1]] == ["diag"]
            and set(step[2]) == set(owed)
            and step[1][0][1].shape == want.shape
            and bool(np.allclose(step[1][0][1], want, atol=_STACK_ATOL)),
            "fold-flush",
            f"expected a flush of the factors pending on qubits "
            f"{sorted(owed)} here",
            loc,
        )

    for s, step in enumerate(plan.steps):
        loc = f"steps[{s}]"
        kind = step[0]
        binding = step[1] if kind == "channel" else None
        if kind == "measure" or binding is not None and binding.kind == "mixed":
            qubits = list(pending) if kind == "measure" else binding.qubits
            if not flush(qubits, loc):
                return
            shrink = 1.0 if kind == "measure" else shrink
        touched = (
            {q for op in step[1] for q in op.qubits}
            if kind == "span"
            else set(binding.qubits) if binding is not None else set()
        )
        absorbed = pending.keys() & touched
        compiled = next(stream, None)
        if not report.check(
            compiled is not None
            and (
                compiled[0] == "span"
                and len(compiled) == 4
                and len(compiled[1]) == len(step[1])
                and set(compiled[2]) == absorbed
                if kind == "span"
                else len(compiled) in (3, 6) and compiled[:3] == step
                if binding is not None
                else compiled is step
            ),
            "fold-stream",
            f"compiled stream does not carry this {kind} step here (with "
            "the qubits whose pending factors a span absorbs and the "
            "qubits born at it)",
            loc,
        ):
            return
        if kind == "measure":
            layout = {q: q for q in range(n)}
            continue
        if kind == "span":
            carried, axes, births = None, None, compiled[3]
        else:  # a step left as the plan's own keeps its qubits' axes
            carried, axes, births = compiled[3:] or (None, binding.qubits, ())
        fresh = len(set(births)) == len(births) and all(
            0 <= q < n and q not in layout for q in births
        )
        live = sorted({*layout, *births})
        layout = {q: axis for axis, q in enumerate(live)}
        if not report.check(
            fresh
            and touched <= layout.keys()
            and (
                binding is None
                or axes == tuple(layout[q] for q in binding.qubits)
            ),
            "fold-birth",
            f"births {tuple(births)} name a qubit born before, or the "
            f"step acts on a qubit not yet born (born: {live}), or an "
            "anchor's axes are not its qubits' places among them",
            loc,
        ):
            return
        if kind == "span":
            want = []
            for op in step[1]:
                if not pending.keys().isdisjoint(op.qubits):
                    owed = [pending.pop(q, np.ones(2)) for q in op.qubits]
                    scale = functools.reduce(np.kron, owed, np.ones(1))
                    op = (
                        PlanOp("diagonal", op.qubits, diag=op.diag * scale)
                        if op.diag is not None
                        else PlanOp(
                            "matrix",
                            op.qubits,
                            matrix=op.matrix @ np.diag(scale),
                        )
                    )
                want.append(op)
            want = _compile_span(want, ENSEMBLE_DTYPE, layout)
            for q in absorbed:
                tracked.pop(q, None)
            for j, (g, w) in enumerate(zip(compiled[1], want)):
                report.check(
                    _same_compiled_op(g, w),
                    "fold-op",
                    "compiled span op is not its source op times the "
                    "no-jump factors pending on its qubits",
                    f"{loc}.ops[{j}]",
                )
        if binding is None or binding.kind != "kraus":
            continue
        ok = agree()
        if binding.fold is not None:
            qubit = binding.qubits[0]
            factor = np.diagonal(binding.operators[0]) * pending.get(qubit, 1)
            pending[qubit] = factor / factor[0]
            shrink *= 1.0 - binding.jump_bound
            tracked[qubit] = binding.fold if carried is None else carried
        report.check(
            ok and agree(),
            "fold-anchor",
            "the no-jump factors pending at this anchor, or after it, "
            "disagree with the folds pending there",
            loc,
        )
        if shrink < _NORM_FLOOR:
            if not flush(list(pending), loc):
                return
            report.check(
                next(stream, None) == ("normalise",),
                "fold-flush",
                "expected a renormalisation after the shrink floor",
                loc,
            )
            shrink = 1.0
    if plan.terminal and not flush(list(pending), "end"):
        return
    report.check(
        next(stream, None) is None,
        "fold-stream",
        "compiled stream has steps past the plan's end",
    )


def _check_monomial_classification(
    report: Report, matrix: np.ndarray, loc: str
) -> None:
    """Monomial structure classification must hold exactly.

    The chunked executor routes monomial matrices through strided block
    moves; a decomposition that does not reconstruct the stored matrix
    bit-for-bit would silently change the arithmetic.
    """
    monomial = _monomial_decomposition(matrix)
    report.checks += 1
    if monomial is None:
        return
    rows, phases = monomial
    rebuilt = np.zeros_like(matrix)
    rebuilt[rows, np.arange(matrix.shape[0])] = phases
    if not np.array_equal(rebuilt, matrix):
        report.add(
            "monomial-structure",
            "monomial decomposition does not reconstruct the stored "
            "matrix",
            loc,
        )


def _check_anchor_structure(
    report: Report,
    plan: NoisePlan,
    circuit: QuantumCircuit,
    noise_model,
    verify_lowering,
    atol: float,
) -> None:
    """Re-derive the segment/anchor skeleton and justify every span.

    Walks the circuit exactly like the builder does, producing the
    expected sequence of anchors (multi-branch channels, mid-circuit
    measures) and the gate segment between consecutive anchors.  The
    plan's step stream must interleave identically, and every span must
    be a provable lowering of *its own* segment — which is precisely the
    statement that fusion never crossed a noise anchor.  A terminal
    plan's report entries must name the circuit's measures in program
    order — every qubit as ``(q, q)`` for an unmeasured circuit.
    """
    report.check(
        plan.num_qubits == circuit.num_qubits,
        "register-mismatch",
        f"plan has {plan.num_qubits} qubit(s), the circuit "
        f"{circuit.num_qubits}",
    )
    report.check(
        plan.terminal == measures_are_terminal(circuit),
        "terminal-structure",
        f"plan.terminal={plan.terminal} disagrees with the circuit",
    )
    noisy = noise_model is not None and not noise_model.is_trivial()

    # expected stream: ("segment", [gates...]) / ("channel", qubits,
    # operators) / ("measure", qubit, clbit) — segments may be empty
    segment: list = []
    expected: list = []
    measures: list = []

    def _flush() -> None:
        live = [op for op in segment if not op.identity]
        if live:
            expected.append(("segment", live))
        segment.clear()

    for inst in circuit:
        if inst.is_barrier:
            continue
        if inst.is_measure:
            measures.append((inst.qubits[0], inst.clbits[0]))
            if not plan.terminal:
                _flush()
                expected.append(("measure",) + measures[-1])
            continue
        segment.append(TracedOp.of(inst))
        if not noisy:
            continue
        for bound in noise_model.errors_for(inst):
            qubits = bound.resolve(inst)
            channel = bound.channel
            if len(channel.kraus_operators) == 1:
                segment.append(
                    TracedOp(np.asarray(channel.kraus_operators[0]), qubits)
                )
                continue
            _flush()
            expected.append(("channel", tuple(qubits), channel))
    _flush()

    if plan.terminal:
        want = measures or [(q, q) for q in range(circuit.num_qubits)]
        got = [entry[:2] for entry in plan.entries]
        report.check(
            got == want,
            "measure-order",
            f"terminal report entries {got} do not name the circuit's "
            f"measures {want} in program order",
        )

    steps = list(plan.steps)
    if not report.check(
        len(steps) == len(expected),
        "anchor-structure",
        f"plan has {len(steps)} step(s) but the circuit walk expects "
        f"{len(expected)}",
    ):
        return
    for s, (step, want) in enumerate(zip(steps, expected)):
        loc = f"steps[{s}]"
        if want[0] == "segment":
            if not report.check(
                step[0] == "span",
                "anchor-structure",
                f"expected a span here, found {step[0]!r}",
                loc,
            ):
                continue
            lowering = verify_lowering(
                want[1], step[1], plan.num_qubits, atol=max(atol, 1e-9)
            )
            report.checks += lowering.checks
            for violation in lowering.violations:
                report.add(
                    "anchor-crossing",
                    f"span is not a lowering of its own segment — "
                    f"{violation.message}",
                    f"{loc}.{violation.location or ''}",
                )
        elif want[0] == "channel":
            if not report.check(
                step[0] == "channel",
                "anchor-structure",
                f"expected a channel anchor here, found {step[0]!r}",
                loc,
            ):
                continue
            binding = step[1]
            report.check(
                binding.qubits == want[1]
                and len(binding.operators)
                == len(want[2].kraus_operators)
                and all(
                    np.array_equal(a, np.asarray(b))
                    for a, b in zip(
                        binding.operators, want[2].kraus_operators
                    )
                ),
                "anchor-structure",
                "channel anchor does not match the circuit's bound "
                "channel",
                loc,
            )
        else:  # measure
            report.check(
                step[0] == "measure" and step[1:3] == want[1:3],
                "anchor-structure",
                "mid-circuit measure does not match the circuit's "
                "measure ordering",
                loc,
            )


# ---------------------------------------------------------------------------
# raising wrappers (the build-time ``validate=`` knob)
# ---------------------------------------------------------------------------


def validate_noise_plan(
    plan: NoisePlan,
    circuit: Optional[QuantumCircuit] = None,
    noise_model=None,
) -> NoisePlan:
    """:func:`check_noise_plan`, raising on failure."""
    report = check_noise_plan(plan, circuit, noise_model)
    if not report.ok:
        raise PlanContractError(report)
    return plan
