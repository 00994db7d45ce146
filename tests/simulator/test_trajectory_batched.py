"""The trajectory ensemble (all shots in chunked tensors) vs the
per-shot reference sampler.

The contract under test (see ``repro/simulator/noisy.py``):

* the per-shot oracle (``tests/reference_sim.py``) is pinned at fixed
  seeds — the hard-coded dicts below were captured on the per-shot
  engine the package used to ship, so the oracle is that algorithm;
* the ensemble is statistically equivalent to the oracle for
  every channel family (single-operator, mixed-unitary, general Kraus,
  readout, mid-circuit measures);
* the general-Kraus kernel reproduces the per-shot complex128 draw
  (``reference_sim.kraus_draws``: same uniforms, same branches, except
  within 1e-6 of a cumulative edge) up to its state contract: a row
  that stays on a folded anchor's branch 0 is not touched, every other
  row holds its renormalised image under the factors pending after the
  anchor; thinned draws keep every branch's frequency, and rows under
  thousands of no-jump anchors neither underflow nor drift;
* counts are independent of the chunk size for a fixed seed —
  ``chunk_size=1``, ``7`` and ``64`` are bit-identical, on every
  general-Kraus route (1- and 2-qubit, diagonal and non-diagonal
  Grams) and on the Valencia-like device model, and ``chunk_size=1``
  (one row per shot) matches the default chunk (shots sharing rows)
  on paper circuits;
* monomial ops (span gates and Pauli branches) run as in-place cycle
  moves equal bit for bit to out-of-place block moves, and to the
  dense matrix within single precision;
* rows split only where their shots draw different branches or
  outcomes: the first branch present keeps the row, each other one is
  appended;
* the retired ``trajectories`` option is gone from ``run()``.
"""

import numpy as np
import pytest

from kraus_models import kraus_route_models, rotated_damping, two_qubit_kraus
from reference_sim import PerShotSampler, kraus_draws

from repro.circuits import QuantumCircuit
from repro.circuits.gates import gate_from_name
from repro.execution import get_noise_plan_cache, plan_cache, run
from repro.execution.noise_plan import (
    ChannelBinding,
    _absorb,
    _basis_selector,
    _compile_span,
    _monomial_decomposition,
)
from repro.execution.plan import PlanOp
from repro.metrics import tvd_counts
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    depolarizing,
    fake_valencia,
    thermal_relaxation,
    valencia_like_backend,
)
from repro.revlib import benchmark_circuit
from repro.simulator import noisy
from repro.simulator.kernels import apply_matrix_batch, apply_matrix_state
from repro.simulator.noisy import (
    ENSEMBLE_DTYPE,
    _apply_kraus,
    _apply_mixed,
    _collapse_measure,
    _execute_span,
    _Rows,
    default_chunk_size,
)
from repro.transpiler.transpile import transpile


def _circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).rz(0.3, 1).cx(1, 2).x(2)
    for q in range(3):
        qc.measure(q, q)
    return qc


def _mixed_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing(0.02), ["h", "x", "rz"])
    model.add_all_qubit_quantum_error(
        depolarizing(0.05, num_qubits=2), ["cx"]
    )
    model.add_readout_error(ReadoutError(0.03, 0.06), 0)
    model.add_readout_error(ReadoutError(0.02, 0.01), 2)
    return model


def _kraus_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(amplitude_damping(0.08), ["h", "x"])
    model.add_all_qubit_quantum_error(
        thermal_relaxation(50.0, 70.0, 2.0), ["cx"]
    )
    return model


def _dense_mixed_model():
    """A mixed-unitary channel whose second branch (H) is not monomial,
    so it runs through the dense route on the rows that drew it."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    model = NoiseModel()
    model.add_all_qubit_quantum_error(
        QuantumChannel([np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * hadamard]),
        ["h", "x", "rz"],
    )
    return model


def _unitary_model():
    """Single-operator channels: a coherent over-rotation after each gate."""
    model = NoiseModel()
    model.add_all_qubit_quantum_error(
        QuantumChannel([gate_from_name("rx", [0.2]).matrix]), ["h", "x", "rz"]
    )
    model.add_readout_error(ReadoutError(0.04, 0.02), 1)
    return model


def _mid_circuit():
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.x(0)
    qc.cx(0, 1)
    qc.measure(1, 1)
    return qc


def _anchored_mid_circuit():
    """Kraus anchors leave qubit 1 superposed and unnormalised when it is
    measured mid-circuit; more anchors follow the collapse."""
    qc = QuantumCircuit(3, 3)
    qc.h(0).h(1)
    for _ in range(4):
        qc.x(1)
    qc.cx(0, 1).h(2)
    qc.measure(1, 1)
    qc.h(1).cx(1, 2).x(0).h(0)
    qc.measure(0, 0)
    qc.measure(2, 2)
    return qc


def _mid_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(bit_flip(0.1), ["x", "h"])
    model.add_readout_error(ReadoutError(0.05, 0.05), 0)
    return model


class TestLegacyBitIdentity:
    """Pinned outputs of the retired per-shot engine — the oracle
    reproduces them bit for bit."""

    def test_mixed_unitary_with_readout(self):
        sim = PerShotSampler(_mixed_model(), 123)
        assert dict(sim.run(_circuit(), 400)) == {
            "100": 171, "011": 182, "010": 16, "000": 9,
            "101": 14, "001": 2, "110": 2, "111": 4,
        }

    def test_general_kraus(self):
        sim = PerShotSampler(_kraus_model(), 7)
        assert dict(sim.run(_circuit(), 300)) == {
            "011": 115, "100": 150, "010": 5, "000": 12,
            "001": 5, "101": 8, "111": 5,
        }

    def test_mid_circuit_measurement(self):
        sim = PerShotSampler(_mid_model(), 42)
        assert dict(sim.run(_mid_circuit(), 300)) == {
            "01": 127, "10": 134, "00": 21, "11": 18,
        }

    def test_backend_noise_model(self):
        model = fake_valencia().noise_model()
        qc = QuantumCircuit(2, 2)
        qc.h(0).cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        sim = PerShotSampler(model, 99)
        assert dict(sim.run(qc, 200)) == {
            "00": 100, "11": 92, "01": 4, "10": 4,
        }

    def test_unmeasured_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        sim = PerShotSampler(_mid_model(), 5)
        assert dict(sim.run(qc, 200)) == {
            "00": 86, "11": 104, "10": 6, "01": 4,
        }


class TestBatchedEquivalence:
    """TVD(batched, oracle) within shot noise per channel family."""

    @pytest.mark.parametrize(
        "circuit,model",
        [
            (_circuit(), _mixed_model()),
            (_circuit(), _kraus_model()),
            (_mid_circuit(), _mid_model()),
            (_circuit(), _unitary_model()),
            (_mid_circuit(), _kraus_model()),
            (_anchored_mid_circuit(), _kraus_model()),
            (_circuit(), _dense_mixed_model()),
        ],
        ids=[
            "mixed-readout",
            "general-kraus",
            "mid-circuit",
            "single-operator",
            "mid-circuit-kraus",
            "collapse-after-anchors",
            "dense-mixed-branch",
        ],
    )
    def test_distributions_agree(self, circuit, model):
        shots = 8000
        oracle = PerShotSampler(model, 11).run(circuit, shots)
        batched = run(
            circuit, shots, noise_model=model, method="trajectory", seed=22
        )
        assert tvd_counts(oracle, batched) < 0.035

    def test_trivial_model_matches_noiseless_exactly(self):
        qc = _circuit()
        trivial = run(qc, 500, noise_model=NoiseModel(), seed=9)
        noiseless = run(qc, 500, seed=9)
        assert trivial == noiseless


def _ensemble(circuit, shots, model, seed, chunk_size=None):
    """Counts of the trajectory ensemble at one chunk size."""
    plan = plan_cache.get_noise_plan(circuit, model)
    entropy = int(np.random.default_rng(seed).integers(0, 2 ** 63))
    return noisy.run_noise_plan(
        plan, shots, entropy=entropy, chunk_size=chunk_size
    )


class TestChunkInvariance:
    def test_chunk_sizes_are_bit_identical(self):
        reference = None
        for chunk in (1, 7, 64, None):
            counts = dict(
                _ensemble(_circuit(), 400, _mixed_model(), 123, chunk)
            )
            if reference is None:
                reference = counts
            assert counts == reference, f"chunk_size={chunk} diverged"

    def test_dense_mixed_branch_chunk_invariance(self):
        # below the GEMM crossover the dense route is bit-exact on any
        # subset of rows
        model = _dense_mixed_model()
        reference = None
        for chunk in (1, 7, None):
            counts = dict(_ensemble(_circuit(), 400, model, 8, chunk))
            if reference is None:
                reference = counts
            assert counts == reference, f"chunk_size={chunk} diverged"

    def test_kraus_chunk_invariance(self):
        models = {
            "kraus": _kraus_model(),
            "valencia": valencia_like_backend(3).noise_model(),
            **kraus_route_models(),
        }
        for name, model in models.items():
            reference = None
            for chunk in (1, 7, 64):
                counts = dict(_ensemble(_circuit(), 300, model, 3, chunk))
                if reference is None:
                    reference = counts
                assert counts == reference, f"{name}: chunk_size={chunk}"

    @pytest.mark.parametrize("name,shots", [("4mod5", 200), ("rd53", 64)])
    def test_shared_rows_match_one_row_per_shot(self, name, shots):
        # chunk_size=1 leaves one row per shot; the default chunk runs
        # every shot in one chunk, where shots share rows
        circuit = benchmark_circuit(name)
        backend = valencia_like_backend(circuit.num_qubits)
        compiled = transpile(circuit, backend=backend).circuit.copy()
        compiled.measure_all()
        model = backend.noise_model()
        per_shot = _ensemble(compiled, shots, model, 5, chunk_size=1)
        shared = _ensemble(compiled, shots, model, 5)
        assert dict(shared) == dict(per_shot)

    def test_default_chunk_size_caps_memory(self):
        assert default_chunk_size(100, 2) == 100  # whole batch
        assert default_chunk_size(10 ** 9, 21) == 1
        assert default_chunk_size(4096, 12) == min(4096, 1 << 9)


def _uniforms_for(states, binding, targets):
    """Draws that pick branch ``targets[s]`` for shot ``s``: the midpoint
    of that branch's cumulative interval."""
    uniforms = []
    for psi, branch in zip(states, targets):
        norms = [
            np.vdot(phi, phi).real
            for phi in (
                apply_matrix_state(psi, op, binding.qubits)
                for op in binding.operators
            )
        ]
        edges = np.concatenate([[0.0], np.cumsum(norms) / np.sum(norms)])
        uniforms.append(0.5 * (edges[branch] + edges[branch + 1]))
    return np.array(uniforms)


def _random_states(shots, n, seed=5):
    rng = np.random.default_rng(seed)
    shape = (shots,) + (2,) * n
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return states / np.linalg.norm(states.reshape(shots, -1), axis=1).reshape(
        (shots,) + (1,) * n
    )


def _valencia_bindings():
    """The device model's two Kraus channels on qubit 0: the 16-operator
    depolarizing∘thermal after a 1-qubit gate and the 4-operator thermal
    relaxation after a CX."""
    model = valencia_like_backend(2).noise_model()
    circuit = QuantumCircuit(2)
    circuit.u2(0.3, 0.7, 0).cx(0, 1)
    plan = plan_cache.get_noise_plan(circuit, model)
    bindings = {
        step[1].num_branches: step[1]
        for step in plan.steps
        if step[0] == "channel"
        and step[1].kind == "kraus"
        and step[1].qubits == (0,)
    }
    return [bindings[16], bindings[4]]


def _factors(factors, n):
    """Per-qubit diagonals ``{qubit: f}`` as one ``(2,) * n`` tensor."""
    tensor = np.ones((2,) * n, dtype=complex)
    for qubit, factor in factors.items():
        shape = [1] * n
        shape[qubit] = 2
        tensor = tensor * np.reshape(factor, shape)
    return tensor


class TestKrausKernel:
    """The general-Kraus kernel against the per-shot reference.

    State contract: with no-jump factors pending on some qubits, a
    row's true state is its stored copy times every pending factor.
    A shot's branch is the reference draw on that true state.  A row on
    branch 0 of a folded anchor is not touched (the plan applies ``K_0``
    in a later span op); every other row leaves holding ``K_j psi /
    ||K_j psi||`` divided by every factor pending after the anchor, the
    anchor's own included.
    """

    @staticmethod
    def _check(states, binding, uniforms, row_of=None, pending=None):
        """Run the kernel once on *states* (true states) as rows, shot
        ``s`` holding row ``row_of[s]`` (one row per shot by default),
        stored under the *pending* factors; check every shot against
        the reference and return the branches drawn."""
        if row_of is None:
            row_of = np.arange(states.shape[0])
        pending = dict(pending or {})
        n = states.ndim - 1
        stored = states / _factors(pending, n)
        batch = np.zeros((len(row_of),) + states.shape[1:], ENSEMBLE_DTYPE)
        batch[: states.shape[0]] = stored
        before = batch.copy()
        rows = _Rows(batch, row_of.copy(), count=states.shape[0])
        after = dict(pending)
        folded = None
        if binding.fold is not None:
            qubit = binding.qubits[0]
            folded = binding.fold * pending.get(qubit, 1.0)
            after[qubit] = folded
        drawn = _apply_kraus(rows, binding, uniforms, pending, folded)
        # in place, in the chunk's own buffer
        assert rows.buffer is batch
        expected = kraus_draws(
            states[row_of], binding.operators, binding.qubits, uniforms
        )
        for s, (branch, image, _) in enumerate(expected):
            assert drawn[s] == branch
            row = rows.row_of[s]
            if branch == 0 and binding.fold is not None:
                np.testing.assert_array_equal(batch[row], before[row_of[s]])
                continue
            true = batch[row] * _factors(after, n)
            # complex64 rounding on unit-scale states
            np.testing.assert_allclose(true, image, atol=2e-6)
        return drawn

    @pytest.mark.parametrize(
        "channel,qubits,folds",
        [
            (amplitude_damping(0.3), (2,), True),
            (
                depolarizing(0.3).compose(thermal_relaxation(50, 70, 10)),
                (0,),
                True,
            ),
            # a non-diagonal or 2-qubit K_0 does not fold: every row is
            # rewritten, branch 0 included
            (rotated_damping(0.3), (1,), False),
            (two_qubit_kraus(), (3, 1), False),
        ],
        ids=["damping", "depolarizing-thermal", "non-diagonal-gram", "2q"],
    )
    @pytest.mark.parametrize("jumps", [False, True], ids=["no-jump", "jump"])
    def test_matches_per_shot_reference(self, channel, qubits, folds, jumps):
        states = _random_states(16, 4)
        # tiny draws pick branch 0, the no-jump branch of every channel;
        # draws spread over [0, 1) reach the jump branches too
        if jumps:
            uniforms = np.linspace(0.01, 0.99, len(states))
        else:
            uniforms = np.full(len(states), 1e-3)
        binding = ChannelBinding(channel, qubits)
        assert (binding.fold is not None) == folds
        branches = self._check(states, binding, uniforms)
        assert jumps == any(branches)

    def test_one_jump_in_sixteen(self):
        states = _random_states(16, 4)
        binding = ChannelBinding(thermal_relaxation(50, 70, 10), (2,))
        # the amplitude-damping jump |0><1|
        jump = int(np.flatnonzero(binding.stack[:, 0, 1])[0])
        targets = np.zeros(len(states), dtype=int)
        targets[7] = jump
        branches = self._check(
            states, binding, _uniforms_for(states, binding, targets)
        )
        np.testing.assert_array_equal(branches, targets)

    def test_complex_lead_branch(self):
        # depolarizing∘thermal's T·Y branches are diagonal with an
        # imaginary K[0, 0]; like every jump, a row that draws one is
        # rewritten as K psi / ||K psi||
        states = _random_states(16, 4)
        channel = depolarizing(0.3).compose(thermal_relaxation(50, 70, 10))
        binding = ChannelBinding(channel, (1,))
        stack = binding.stack
        diagonal = ~(stack[:, 0, 1].astype(bool) | stack[:, 1, 0].astype(bool))
        complex_leads = np.flatnonzero(diagonal & (stack[:, 0, 0].imag != 0))
        assert complex_leads.size
        targets = np.resize(complex_leads, len(states))
        targets[::4] = 0
        branches = self._check(
            states, binding, _uniforms_for(states, binding, targets)
        )
        np.testing.assert_array_equal(branches, targets)

    @pytest.mark.parametrize("index", [0, 1], ids=["16-op", "4-op"])
    def test_branch_frequencies_in_binomial_bands(self, index):
        # one row shared by 200k shots: thinned draws must still pick
        # branch j with probability Tr(K_j^† K_j rho)
        binding = _valencia_bindings()[index]
        shots = 200_000
        state = _random_states(1, 3, seed=11)
        rows = _Rows(
            np.zeros((shots, 2, 2, 2), ENSEMBLE_DTYPE),
            np.zeros(shots, dtype=np.intp),
            count=1,
        )
        rows.buffer[0] = state[0]
        uniforms = np.random.default_rng(3).random(shots)
        drawn = _apply_kraus(rows, binding, uniforms, {}, binding.fold)
        probs = np.array(
            [
                np.vdot(phi, phi).real
                for phi in (
                    apply_matrix_state(state[0], op, binding.qubits)
                    for op in binding.operators
                )
            ]
        )
        counts = np.bincount(drawn, minlength=binding.num_branches)
        band = 5 * np.sqrt(shots * probs * (1 - probs)) + 1
        assert (np.abs(counts - shots * probs) <= band).all()
        # thinning: most shots never reached the norms
        assert (uniforms > binding.threshold).mean() < 0.02

    @pytest.mark.parametrize(
        "index", [0, 1, 2], ids=["16-op", "4-op", "unfolded"]
    )
    def test_decisions_match_reference_sampler(self, index):
        # near-threshold draws on random states, with no-jump factors
        # pending on the anchor's qubit and on two others: every
        # decision is the reference's except within 1e-6 of an edge; an
        # anchor that does not fold conjugates its branches by them
        if index == 2:
            binding = ChannelBinding(rotated_damping(0.3), (0,))
        else:
            binding = _valencia_bindings()[index]
        states = _random_states(64, 4, seed=2)
        rng = np.random.default_rng(9)
        edge = max(binding.threshold, 0.0)
        uniforms = np.concatenate(
            [rng.uniform(edge, 1.0, 48), rng.random(16)]
        )
        n = 4
        pending = {
            0: np.array([1.0, 0.93]),
            2: np.array([1.0, 0.97]),
            3: np.array([1.0, 1.05]),
        }
        stored = states / _factors(pending, n)
        rows = _Rows(stored.astype(ENSEMBLE_DTYPE), np.arange(64))
        folded = None if binding.fold is None else binding.fold * pending[0]
        drawn = _apply_kraus(rows, binding, uniforms, pending, folded)
        expected = kraus_draws(
            states, binding.operators, binding.qubits, uniforms
        )
        knife = [e for _, _, e in expected]
        agree = drawn == [branch for branch, _, _ in expected]
        assert all(a or k < 1e-6 for a, k in zip(agree, knife))
        assert 0 < drawn.astype(bool).sum() < 64
        # and every rewritten row holds the reference image under the
        # factors pending after the anchor
        self._check(states, binding, uniforms, pending=pending)

    def test_no_jump_anchors_neither_underflow_nor_drift(self):
        # |1> (x) |+> under 3000 amplitude-damping anchors that never
        # jump: the no-jump factors fold into no span op (identity gates
        # carry the channel), so the plan flushes them and renormalises
        # whenever (0.9)^k falls below its floor
        model = NoiseModel()
        model.add_all_qubit_quantum_error(amplitude_damping(0.1), ["id"])
        circuit = QuantumCircuit(2)
        circuit.x(0).h(1)
        for _ in range(3000):
            circuit.i(0)
        plan = plan_cache.get_noise_plan(circuit, model)
        steps = plan.compiled_steps()
        assert sum(step[0] == "normalise" for step in steps) >= 15
        # every anchor's draw below its threshold: no shot is a candidate
        draws = [np.full(3, 1e-3) for _ in range(plan.num_sites)]
        rows, _ = noisy._evolve(plan, draws, 0, 3)
        assert rows.count == 1
        state = rows.states[0].astype(complex)
        assert np.isfinite(state).all()
        norm2 = np.vdot(state, state).real
        assert 1e-8 <= norm2 <= 1.0
        expected = np.zeros((2, 2))
        expected[1, :] = np.sqrt(0.5)  # qubit 0 on axis 0
        np.testing.assert_allclose(
            state / np.sqrt(norm2), expected, atol=1e-6
        )

    def test_collapse_of_unnormalised_shots(self):
        # |amp|^2 of 0.1 on each amplitude: P(1) = 0.5 of the true total
        batch = np.full((2, 2, 2), np.sqrt(0.1), dtype=ENSEMBLE_DTYPE)
        rows = _Rows(batch, np.arange(2))
        outcome = _collapse_measure(rows, 0, np.array([0.45, 0.55]))
        np.testing.assert_array_equal(outcome, [True, False])
        assert rows.count == 2 and rows.buffer is batch
        norm2 = (np.abs(batch) ** 2).reshape(2, -1).sum(axis=1)
        np.testing.assert_allclose(norm2, 1.0, rtol=1e-6)
        assert not batch[0, 0].any() and not batch[1, 1].any()


class TestBirth:
    """A chunk starts with no qubit axis; a birth adds one in |0>."""

    def test_bear_inserts_a_zero_half_in_place(self):
        rows = _Rows.fresh(5, 3)
        stores = [id(store) for store in rows.stores]
        assert rows.states.shape == (1,) and rows.states[0] == 1
        rows.bear(0)
        np.testing.assert_array_equal(rows.states, [[1, 0]])
        rng = np.random.default_rng(4)
        rows.count = 2
        rows.states[...] = rng.standard_normal((2, 2))
        before = rows.states.copy()
        rows.bear(0)  # before the born axis: it moves to axis 1
        rows.bear(2)  # after both
        expected = np.zeros((2, 2, 2, 2), dtype=ENSEMBLE_DTYPE)
        expected[:, 0, :, 0] = before
        np.testing.assert_array_equal(rows.states, expected)
        assert rows.buffer.shape == rows.spare.shape == (5, 2, 2, 2)
        assert rows.buffer.flags.c_contiguous
        # the two stores swapped roles, nothing was allocated
        assert sorted(id(store) for store in rows.stores) == sorted(stores)
        assert np.shares_memory(rows.buffer, rows.stores[0])
        assert np.shares_memory(rows.spare, rows.stores[1])


def _gate(name):
    return gate_from_name(name).matrix


class TestCyclePrograms:
    """Monomial ops compile to in-place cycle moves
    (``noise_plan._perm_moves``) that the executor runs on the rows
    themselves: every amplitude equals the out-of-place block moves'
    bit for bit (one copy or one multiply each) and the dense matrix
    within single precision."""

    WIDTH = 4

    @classmethod
    def _states(cls, count=3):
        shape = (count,) + (2,) * cls.WIDTH
        rng = np.random.default_rng(11)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return states.astype(ENSEMBLE_DTYPE)

    @classmethod
    def _rows(cls, states):
        count = len(states)
        return _Rows(states.copy(), np.arange(count), count=count)

    @classmethod
    def _check(cls, states, result, matrix, axes):
        """*result* is *matrix* on *axes* of *states*: bit for bit
        against out-of-place block moves in the ensemble dtype, and
        against the dense complex128 product."""
        matrix = matrix.astype(ENSEMBLE_DTYPE)
        rows, phases = _monomial_decomposition(matrix)
        moved = np.empty_like(states)
        for j, (row, phase) in enumerate(zip(rows, phases)):
            out = _basis_selector(int(row), axes, cls.WIDTH)
            moved[out] = states[_basis_selector(j, axes, cls.WIDTH)] * phase
        np.testing.assert_array_equal(result, moved)
        dense = apply_matrix_batch(
            states.astype(complex), matrix.astype(complex), axes
        )
        np.testing.assert_allclose(result, dense, rtol=0, atol=1e-6)

    def _span(self, matrix, qubits, pending=None):
        op = PlanOp("matrix", qubits, matrix=matrix)
        if pending:
            op = _absorb(op, dict(pending))
        layout = {q: q for q in range(self.WIDTH)}
        (compiled,) = _compile_span([op], ENSEMBLE_DTYPE, layout)
        assert compiled[0] == "perm"
        states = self._states()
        rows = self._rows(states)
        buffer = rows.buffer
        _execute_span(rows, (compiled,))
        # in place: no swap into the spare store
        assert rows.buffer is buffer
        self._check(states, rows.states, op.matrix, qubits)
        return compiled[1]

    @pytest.mark.parametrize(
        "name,qubits",
        [
            ("x", (1,)),
            ("y", (0,)),
            ("z", (2,)),
            ("swap", (0, 2)),
            ("ccx", (2, 0, 1)),
            ("cx", (0, 1)),
            ("cx", (1, 0)),
        ],
    )
    def test_gate_matches_dense(self, name, qubits):
        moves = self._span(_gate(name), qubits)
        if name == "z":
            # |0> is fixed with phase 1 and emits nothing; |1> is one
            # in-place multiply by -1
            ((blocks, phases),) = moves
            assert len(blocks) == 1 and phases[0] == -1
        if name.startswith("c"):
            # a controlled gate's control-0 blocks are fixed points
            assert len(moves) == 1 and len(moves[0][0]) == 2

    @pytest.mark.parametrize("qubits", [(0, 2), (2, 0)])
    def test_cx_absorbs_pending_factors(self, qubits):
        pending = {
            0: np.array([1.0, 0.8 * np.exp(0.3j)]),
            2: np.array([1.0, 0.6 * np.exp(-1.1j)]),
        }
        moves = self._span(_gate("cx"), qubits, pending)
        # the control-0 blocks become fixed points scaled by the target's
        # factor (one of them phase 1: nothing to do), and the cycle of
        # the control-1 blocks multiplies by both factors
        assert sorted(len(blocks) for blocks, _ in moves) == [1, 2]
        assert all(p is not None for _, phases in moves for p in phases)

    def test_gate_on_the_last_axis_multiplies_by_one(self):
        moves = self._span(_gate("x"), (self.WIDTH - 1,))
        ((blocks, phases),) = moves
        assert len(blocks) == 2
        assert [complex(p) for p in phases] == [1, 1]

    def test_mixed_pauli_branches(self):
        binding = ChannelBinding(depolarizing(0.3, num_qubits=2), (3, 1))
        edges = np.concatenate([[0.0], binding.cumulative])
        ran = 0
        for b in range(binding.num_branches):
            if binding.monomials[b] is None or binding.identity_flags[b]:
                continue
            _, programs = binding.mixed_program((3, 1), self.WIDTH)
            assert programs[b][0] == "perm"
            states = self._states()
            rows = self._rows(states)
            uniforms = np.full(len(states), 0.5 * (edges[b] + edges[b + 1]))
            _apply_mixed(rows, binding, uniforms, (3, 1))
            self._check(states, rows.states, binding.scaled_ops[b], (3, 1))
            ran += 1
        assert ran == 15


class TestRowSplit:
    """Shots share a row until they draw different branches."""

    @staticmethod
    def _one_row(n=3, shots=9):
        rng = np.random.default_rng(3)
        state = rng.standard_normal((2,) * n) + 1j * rng.standard_normal(
            (2,) * n
        )
        return (state / np.linalg.norm(state))[None], np.zeros(
            shots, dtype=np.intp
        )

    def test_one_branch_keeps_the_row(self):
        states, row_of = self._one_row()
        binding = ChannelBinding(thermal_relaxation(50, 70, 10), (1,))
        uniforms = np.full(len(row_of), 1e-3)  # every shot: branch 0
        rows = _Rows(np.zeros((len(row_of),) + states.shape[1:],
                              ENSEMBLE_DTYPE), row_of.copy(), count=1)
        rows.buffer[0] = states[0]
        _apply_kraus(rows, binding, uniforms, {}, binding.fold)
        assert rows.count == 1
        np.testing.assert_array_equal(rows.row_of, 0)
        # and the kernel's per-shot contract holds on the shared row
        TestKrausKernel._check(states, binding, uniforms, row_of)

    def test_three_branches_append_two_rows(self):
        states, row_of = self._one_row()
        channel = depolarizing(0.3).compose(thermal_relaxation(50, 70, 10))
        binding = ChannelBinding(channel, (2,))
        # branch 2 is an off-diagonal jump, branch 12 a diagonal one
        drawn = [0, 12, 0, 2, 12, 0, 2, 2, 0]
        uniforms = _uniforms_for(states[row_of], binding, drawn)
        branches = TestKrausKernel._check(states, binding, uniforms, row_of)
        np.testing.assert_array_equal(branches, drawn)
        # replay to read the split: branch 0 keeps row 0, then the
        # other present branches are appended in ascending order
        rows = _Rows(np.zeros((len(row_of),) + states.shape[1:],
                              ENSEMBLE_DTYPE), row_of.copy(), count=1)
        rows.buffer[0] = states[0]
        _apply_kraus(rows, binding, uniforms, {}, binding.fold)
        assert rows.count == 3
        np.testing.assert_array_equal(
            rows.row_of, [{0: 0, 2: 1, 12: 2}[b] for b in drawn]
        )

    def test_collapse_splits_a_superposed_row(self):
        # |+> on qubit 0, |0> on qubit 1: P(1) = 0.5 on the one row
        batch = np.zeros((5, 2, 2), dtype=ENSEMBLE_DTYPE)
        batch[0, :, 0] = np.sqrt(0.5)
        rows = _Rows(batch, np.zeros(5, dtype=np.intp), count=1)
        uniforms = np.array([0.7, 0.2, 0.9, 0.4, 0.6])
        outcome = _collapse_measure(rows, 0, uniforms)
        np.testing.assert_array_equal(outcome, uniforms < 0.5)
        assert rows.count == 2
        # outcome 0 keeps row 0; outcome 1 moved to the appended row
        np.testing.assert_array_equal(rows.row_of, outcome.astype(int))
        np.testing.assert_allclose(abs(batch[0]), [[1, 0], [0, 0]])
        np.testing.assert_allclose(abs(batch[1]), [[0, 0], [1, 0]])


class TestKnobsAndRouting:
    def test_unknown_mode_rejected(self):
        # the trajectories option is retired: every mode is unknown
        for mode in ("vectorised", "batched", "legacy"):
            with pytest.raises(TypeError, match="trajectories"):
                run(_circuit(), 10, trajectories=mode)

    def test_default_noisy_dispatch_is_batched(self):
        # every noisy terminal run looks up one noise-bound plan
        cache = get_noise_plan_cache()
        before = cache.stats()
        counts = run(_circuit(), 50, noise_model=_mixed_model(), seed=1)
        after = cache.stats()
        assert counts.shots == 50
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1

    def test_seed_determinism_across_runs(self):
        a = run(
            _circuit(), 300, noise_model=_mixed_model(), seed=17
        )
        b = run(
            _circuit(), 300, noise_model=_mixed_model(), seed=17
        )
        assert a == b
