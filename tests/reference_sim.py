"""Reference simulators the test suite checks the engines against.

Three kinds of reference live here, outside the package:

* per-instruction loops — one kernel call per gate, no plan, no fusion.
  Plans agree with them to 1e-12 (``tests/execution/test_plan.py``).
  :func:`evolve_density` applies every Kraus operator as its own
  two-sided pass; it is the oracle the exact engine
  (``repro.simulator.density``) is held to within 1e-12;
* reference lowerings (:func:`lower`, :func:`lowering`) — the plan
  tier lowers every circuit one way (``"full"``); ``"none"`` (one op
  per non-identity gate, bit-identical to the loops above) and
  ``"1q"`` (1-qubit runs merged, nothing else) are other correct op
  streams for the same circuit, so the executors and the static
  checkers are held to every one of them;
* :class:`PerShotSampler` — one statevector per shot, every noise
  channel sampled after its gate, measurements collapsing the state.
  It is the statistical oracle for the trajectory ensemble
  (``tests/simulator/test_trajectory_batched.py``), and
  :func:`kraus_draws` its general-Kraus draw on given states and
  uniforms, the per-decision oracle of the ensemble's Kraus kernel.
"""

from collections import Counter
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np

from repro.execution import (
    build_noise_plan,
    get_noise_plan_cache,
    get_plan_cache,
)
from repro.execution import noise_plan as noise_plan_module
from repro.execution import plan as plan_module
from repro.simulator import (
    Counts,
    DensityMatrix,
    Statevector,
    format_bitstring,
)
from repro.simulator.kernels import apply_matrix_batch, apply_matrix_state


def _gates(circuit):
    return (inst for inst in circuit if inst.is_gate)


def traced_gates(circuit):
    """The gates of *circuit* as :class:`~repro.execution.plan.TracedOp`
    in program order, identities included."""
    return [plan_module.TracedOp.of(inst) for inst in _gates(circuit)]


def span_ops(plan):
    """Every span op of a noise plan, in program order."""
    return tuple(
        op for step in plan.steps if step[0] == "span" for op in step[1]
    )


def _measured(circuit):
    return [
        (inst.qubits[0], inst.clbits[0]) for inst in circuit if inst.is_measure
    ]


def evolve_state(circuit):
    """Statevector after every gate of *circuit*, one kernel call each."""
    tensor = Statevector(circuit.num_qubits)._tensor
    for inst in _gates(circuit):
        tensor = apply_matrix_state(
            tensor, np.asarray(inst.operation.matrix, dtype=complex),
            inst.qubits,
        )
    return tensor


def terminal_distribution(circuit):
    """Final outcome distribution and the ``(qubit, clbit)`` measure map."""
    state = Statevector(circuit.num_qubits)
    for inst in _gates(circuit):
        state.apply_matrix(inst.operation.matrix, inst.qubits)
    return state.probabilities(), _measured(circuit)


def evolve_batch(circuit, batch):
    """Apply every gate of *circuit* to a ``(shots, 2, ..., 2)`` batch."""
    for inst in _gates(circuit):
        batch = apply_matrix_batch(batch, inst.operation.matrix, inst.qubits)
    return batch


def circuit_unitary(circuit):
    """Little-endian unitary: every basis state evolved as one batch."""
    n = circuit.num_qubits
    dim = 2 ** n
    axes = (0,) + tuple(range(n, 0, -1))
    eye = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * n)
    batch = evolve_batch(circuit, np.ascontiguousarray(eye.transpose(axes)))
    return np.ascontiguousarray(batch.transpose(axes).reshape(dim, dim).T)


def apply_matrix(rho, matrix, qubits):
    """rho -> U rho U^dagger on *qubits*: ``U`` on the row axes, then
    ``conj(U)`` on the mirrored column axes."""
    n = rho.num_qubits
    matrix = np.asarray(matrix, dtype=complex)
    tensor = apply_matrix_state(rho._tensor, matrix, list(qubits))
    rho._tensor = apply_matrix_state(
        tensor, matrix.conj(), [n + q for q in qubits]
    )
    return rho


def apply_channel(rho, channel, qubits):
    """rho -> sum_i K_i rho K_i^dagger on *qubits*, one pass per K_i."""
    original = rho._tensor
    accumulator = None
    for op in channel.kraus_operators:
        rho._tensor = original
        apply_matrix(rho, op, qubits)
        if accumulator is None:
            accumulator = rho._tensor
        else:
            accumulator = accumulator + rho._tensor
    rho._tensor = accumulator
    return rho


def evolve_density(circuit, noise_model=None):
    """Density matrix after every gate and its bound noise channels."""
    rho = DensityMatrix(circuit.num_qubits)
    for inst in _gates(circuit):
        apply_matrix(rho, inst.operation.matrix, inst.qubits)
        if noise_model is not None:
            for bound in noise_model.errors_for(inst):
                apply_channel(rho, bound.channel, bound.resolve(inst))
    return rho


def apply_readout(probs, noise_model):
    """A little-endian outcome distribution after every qubit's readout
    error (a 2x2 stochastic matrix on that qubit's bit)."""
    n = int(np.log2(len(probs)))
    tensor = np.asarray(probs, dtype=float).reshape((2,) * n)
    for qubit in range(n):
        error = noise_model.readout_error(qubit)
        if error is None:
            continue
        # flat little-endian -> axis 0 is the most significant = qubit n-1
        axis = n - 1 - qubit
        flipped = np.tensordot(
            error.assignment_matrix(), np.moveaxis(tensor, axis, 0),
            axes=(1, 0),
        )
        tensor = np.moveaxis(flipped, 0, axis)
    return tensor.reshape(-1)


LOWERINGS = ("none", "1q", "full")

_lower_full = plan_module.lower_ops


def lower(ops, level):
    """Traced *ops* lowered at *level* (one of :data:`LOWERINGS`).

    ``"full"`` is the plan tier's own :func:`~repro.execution.plan.\
lower_ops`; ``"none"`` keeps one matrix op per non-identity gate, in
    the gate's qubit order; ``"1q"`` only merges runs of 1-qubit gates.
    """
    if level == "full":
        return _lower_full(ops)
    live = [op for op in ops if not op.identity]
    if level == "none":
        return [
            plan_module.PlanOp("matrix", op.qubits, matrix=op.matrix)
            for op in live
        ]
    assert level == "1q", level
    return plan_module._fuse_1q_runs(
        [
            plan_module._gate_diag(op.matrix, op.qubits)
            if op.diagonal
            else plan_module.PlanOp("matrix", op.qubits, matrix=op.matrix)
            for op in live
        ]
    )


@contextmanager
def lowering(level):
    """Build every plan inside the block at *level*.

    Both global plan caches are cleared on entry and on exit, so the
    block never reads a plan lowered another way and never leaves one
    behind for later callers.
    """
    if level == "full":
        yield
        return
    lower_at = partial(lower, level=level)
    get_plan_cache().clear()
    get_noise_plan_cache().clear()
    try:
        with mock.patch.object(noise_plan_module, "lower_ops", lower_at):
            yield
    finally:
        get_plan_cache().clear()
        get_noise_plan_cache().clear()


def plan_at(circuit, level):
    """A fresh noise-free :class:`~repro.execution.NoisePlan` at *level*."""
    return noise_plan_at(circuit, None, level)


def noise_plan_at(circuit, noise_model, level):
    """A fresh :class:`~repro.execution.NoisePlan` at *level*."""
    with lowering(level):
        return build_noise_plan(circuit, noise_model)


class PerShotSampler:
    """Quantum trajectories, one shot at a time.

    Circuits without measurements report every qubit (measure-all);
    circuits with measures report their classical register.
    """

    def __init__(self, noise_model=None, seed=None):
        self.noise_model = noise_model
        self.rng = np.random.default_rng(seed)

    def run(self, circuit, shots):
        explicit = circuit.has_measurements()
        width = (
            max(circuit.num_clbits, 1) if explicit else circuit.num_qubits
        )
        histogram = Counter(
            self._shot(circuit, explicit) for _ in range(shots)
        )
        return Counts(
            {format_bitstring(k, width): v for k, v in histogram.items()},
            shots=shots,
        )

    def _shot(self, circuit, explicit):
        state = Statevector(circuit.num_qubits)
        clbits = 0
        for inst in circuit:
            if inst.is_measure:
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                bit = self._measure(state, qubit)
                clbits = (clbits & ~(1 << clbit)) | (bit << clbit)
            elif inst.is_gate:
                state.apply_matrix(inst.operation.matrix, inst.qubits)
                if self.noise_model is not None:
                    for bound in self.noise_model.errors_for(inst):
                        self._channel(
                            state, bound.channel, bound.resolve(inst)
                        )
        if explicit:
            return clbits
        return sum(
            self._measure(state, q) << q for q in range(circuit.num_qubits)
        )

    def _measure(self, state, qubit):
        outcome = state.measure_qubit(qubit, self.rng)
        error = (
            None
            if self.noise_model is None
            else self.noise_model.readout_error(qubit)
        )
        return outcome if error is None else error.apply(outcome, self.rng)

    def _channel(self, state, channel, qubits):
        """Sample one Kraus branch and renormalise."""
        operators = channel.kraus_operators
        if len(operators) == 1:
            state.apply_matrix(operators[0], qubits)
            return
        probs = channel.mixed_unitary_probs
        if probs is not None:
            # state-independent branch weights: K_i = sqrt(p_i) U_i
            index = int(np.searchsorted(np.cumsum(probs), self.rng.random()))
            index = min(index, len(operators) - 1)
            if probs[index] > 0:
                state.apply_matrix(
                    operators[index] / np.sqrt(probs[index]), qubits
                )
            return
        # general Kraus: branch i with probability ||K_i psi||^2
        draw = self.rng.random()
        saved = state._tensor.copy()
        total = 0.0
        for index, op in enumerate(operators):
            state.apply_matrix(op, qubits)
            total += state.norm() ** 2
            if draw < total or index == len(operators) - 1:
                norm = state.norm()
                # a zero-probability branch forced on the last operator
                # keeps the unperturbed state
                state._tensor = saved if norm < 1e-12 else state._tensor / norm
                return
            state._tensor = saved.copy()


def kraus_draws(states, operators, qubits, uniforms):
    """The per-shot general-Kraus draw, in complex128.

    Shot ``s`` holds the ``(2,) * n`` tensor ``states[s]`` (any norm)
    and draws branch ``j``: the number of cumulative probabilities
    ``||K_i psi||^2 / ||psi||^2`` below ``uniforms[s]``, capped at the
    last branch.  Returns ``(j, K_j psi / ||K_j psi||, edge)`` per shot,
    ``edge`` the distance from the uniform to the nearest cumulative
    entry (a draw that close can go either way under rounding).
    """
    results = []
    for psi, uniform in zip(states, uniforms):
        images = [apply_matrix_state(psi, op, qubits) for op in operators]
        norms = np.array([np.vdot(phi, phi).real for phi in images])
        cumulative = np.cumsum(norms / norms.sum())
        branch = min(int((uniform > cumulative).sum()), len(norms) - 1)
        image = images[branch] / np.sqrt(norms[branch])
        results.append((branch, image, np.abs(cumulative - uniform).min()))
    return results
