"""Noise-bound lowering: trace-time classification, caching, keying.

The contract under test (see ``repro/execution/noise_plan.py``):

* channels are resolved and classified once per (channel, qubits) —
  mixed-unitary channels carry precomputed cumulative tables and
  pre-scaled branch matrices, general Kraus channels carry an operator
  stack, Gram matrices, their diagonals when all are diagonal and
  per-branch off-diagonal flags; every table is read-only and every
  anchor of one channel on one set of qubits shares one binding;
* single-operator (unitary) channels fold into the surrounding span
  instead of anchoring a stochastic step;
* the cache key is structural hash x noise fingerprint — two
  models on one circuit never collide, and mutating a model re-keys it;
* a cache hit does zero re-tracing (misses == traces).
"""

import numpy as np
import pytest

from kraus_models import rotated_damping
from reference_sim import noise_plan_at

from repro.circuits import QuantumCircuit
from repro.execution import (
    build_noise_plan,
    get_noise_plan,
    get_noise_plan_cache,
)
from repro.execution.noise_plan import ChannelBinding
from repro.execution.plan_cache import PlanCache
from repro.noise import (
    NoiseModel,
    QuantumChannel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    depolarizing,
    valencia_like_backend,
)
from repro.simulator import noisy
from repro.simulator.noisy import ENSEMBLE_DTYPE


def _circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).x(2)
    for q in range(3):
        qc.measure(q, q)
    return qc


def _mixed_model():
    model = NoiseModel()
    model.add_all_qubit_quantum_error(depolarizing(0.02), ["h", "x"])
    model.add_all_qubit_quantum_error(
        depolarizing(0.05, num_qubits=2), ["cx"]
    )
    model.add_readout_error(ReadoutError(0.03, 0.06), 0)
    return model


class TestChannelPrecompute:
    def test_cumulative_table_cached_on_channel(self):
        channel = depolarizing(0.1)
        table = channel.mixed_unitary_cumulative
        assert table is channel.mixed_unitary_cumulative  # memoized
        np.testing.assert_allclose(
            table, np.cumsum(channel.mixed_unitary_probs)
        )
        assert table[-1] == pytest.approx(1.0)

    def test_scaled_branches_cached_and_prescaled(self):
        channel = bit_flip(0.25)
        scaled = channel.mixed_unitary_scaled
        assert scaled is channel.mixed_unitary_scaled
        probs = channel.mixed_unitary_probs
        for op, weight, ref in zip(
            scaled, probs, channel.kraus_operators
        ):
            np.testing.assert_array_equal(op, ref / np.sqrt(weight))

    def test_kraus_grams_cached(self):
        channel = amplitude_damping(0.2)
        grams = channel.kraus_grams
        assert grams is channel.kraus_grams
        for gram, op in zip(grams, channel.kraus_operators):
            np.testing.assert_allclose(gram, op.conj().T @ op)

    def test_binding_classification(self):
        mixed = ChannelBinding(depolarizing(0.1), (0,))
        assert mixed.kind == "mixed"
        assert mixed.cumulative is not None and mixed.grams is None
        assert mixed.stack is None and mixed.fold is None
        assert mixed.jump_bound is None
        kraus = ChannelBinding(amplitude_damping(0.2), (1,))
        assert kraus.kind == "kraus"
        assert kraus.cumulative is None and kraus.grams is not None
        assert kraus.qubits == (1,)

    def test_kraus_tables(self):
        channel = amplitude_damping(0.2)
        binding = ChannelBinding(channel, (0,))
        assert binding.stack.dtype == ENSEMBLE_DTYPE
        np.testing.assert_allclose(
            binding.stack, np.array(channel.kraus_operators), atol=1e-7
        )
        # K0 = diag(1, sqrt(1-g)), K1 = sqrt(g)|0><1|: B = ||K1||^2 = g,
        # and the diagonal K0 folds
        assert binding.jump_bound == pytest.approx(0.2)
        np.testing.assert_allclose(binding.fold, [1.0, np.sqrt(0.8)])
        assert binding.threshold == pytest.approx(0.8 - 1e-6, abs=1e-12)
        # a rotated K0 is not diagonal: no fold, every shot a candidate
        rotated = ChannelBinding(rotated_damping(0.2), (0,))
        assert rotated.fold is None and rotated.threshold == -np.inf

    def test_fold_lives_in_the_compiled_stream_only(self):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(amplitude_damping(0.2), ["h"])
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        plan = noise_plan_at(circuit, model, "none")
        steps = [step for step in plan.steps]
        compiled = plan.compiled_steps()
        # the exact engine's steps are untouched
        assert list(plan.steps) == steps
        assert [s[0] for s in steps] == ["span", "channel", "span",
                                         "channel"]
        # K0 on qubit 0 is pending after the first anchor; the CX takes
        # it as the phases of its one cycle (the control-1 blocks swap;
        # the control-0 blocks are fixed with phase 1 and emit nothing)
        # and the final sample flushes qubit 1
        span, absorbed = compiled[2][1], compiled[2][2]
        assert absorbed == (0,)
        (blocks, phases), = span[0][1]
        assert [block[1:] for block in blocks] == [(1, 0), (1, 1)]
        np.testing.assert_allclose(phases, [np.sqrt(0.8)] * 2, atol=1e-6)
        assert compiled[-1][0] == "span" and compiled[-1][2] == (1,)

    def test_qubits_are_born_at_their_first_step(self):
        # qubit 2 is first touched by the CX, qubit 0 by the last gate,
        # and qubit 3 by no gate: the final sample bears it
        model = NoiseModel()
        model.add_all_qubit_quantum_error(amplitude_damping(0.2), ["h"])
        circuit = QuantumCircuit(4)
        circuit.h(1).cx(1, 2).h(0)
        plan = noise_plan_at(circuit, model, "none")
        compiled = plan.compiled_steps()
        assert [s[0] for s in compiled] == [
            "span", "channel", "span", "channel", "span"
        ]
        assert [compiled[i][3] for i in (0, 2, 4)] == [(1,), (0, 2), ()]
        # h(1) runs on a 1-qubit layout, where its anchor sits on axis 0
        assert compiled[0][1][0][0] == "mul1" and compiled[0][1][0][2] == 0
        assert compiled[1][3:] == (None, (0,), ())
        # the span of the CX and h(0) bears qubits 0 and 2 first and
        # holds 0, 1, 2 on axes 0, 1, 2
        cx, h0 = compiled[2][1]
        assert cx[0] == "perm" and all(
            len(block) == 4 for blocks, _ in cx[1] for block in blocks
        )
        assert h0[0] == "mul1" and h0[2] == 0
        # qubit 0 sits on axis 0: h(0)'s anchor stays the plan's step
        assert compiled[3] == plan.steps[3]
        # the flush of qubit 0's pending K0 before the final sample
        assert compiled[4][2] == (0,) and compiled[4][1][0][1].ndim == 4
        rows, _ = noisy._evolve(
            plan, [np.full(2, 0.5)] * plan.num_sites, 0, 2
        )
        assert rows.states.shape == (1, 2, 2, 2, 2)

    def test_trace_time_arrays_are_frozen(self):
        for channel in (depolarizing(0.1), amplitude_damping(0.2)):
            binding = ChannelBinding(channel, (0,))
            tables = [*binding.operators, binding.cumulative, binding.stack]
            tables += [binding.grams, binding.fold]
            tables += list(binding.scaled_ops or ())
            for table in tables:
                if table is not None:
                    assert not table.flags.writeable

    def test_bind_shares_one_binding_per_channel_and_qubits(self):
        channel = amplitude_damping(0.2)
        first = ChannelBinding.bind(channel, [1])
        assert ChannelBinding.bind(channel, (1,)) is first
        assert ChannelBinding.bind(channel, (0,)) is not first
        assert ChannelBinding.bind(amplitude_damping(0.2), (1,)) is not first


class TestErrorsForMemo:
    def test_memoized_per_name_and_qubits(self):
        model = _mixed_model()
        qc = _circuit()
        gates = [inst for inst in qc if not inst.is_measure]
        first = model.errors_for(gates[0])
        assert model.errors_for(gates[0]) is first

    def test_mutation_invalidates_memo_and_fingerprint(self):
        model = _mixed_model()
        qc = _circuit()
        gate = next(iter(qc))
        before = model.errors_for(gate)
        fp_before = model.fingerprint()
        assert model.fingerprint() == fp_before  # stable until mutated
        model.add_all_qubit_quantum_error(bit_flip(0.01), ["h"])
        after = model.errors_for(gate)
        assert after is not before
        assert len(after) == len(before) + 1
        assert model.fingerprint() != fp_before

    def test_fingerprint_distinguishes_models(self):
        a = _mixed_model().fingerprint()
        b = _mixed_model().fingerprint()
        assert a == b  # deterministic across equal builds
        other = NoiseModel()
        other.add_all_qubit_quantum_error(depolarizing(0.021), ["h", "x"])
        assert other.fingerprint() != a


class TestBuildNoisePlan:
    def test_channels_anchor_and_spans_fuse(self):
        plan = build_noise_plan(_circuit(), _mixed_model())
        assert plan.terminal
        # h, cx, cx, x carry channels; rz has none bound
        assert plan.num_channels == 4
        assert plan.source_gates == 5
        # one readout entry bound, on qubit 0
        readouts = [e for e in plan.entries if e[2] is not None]
        assert [e[0] for e in readouts] == [0]
        # sites: 4 channels + 1 terminal sample + 1 readout
        assert plan.num_sites == 6

    def test_trivial_model_is_pure_spans(self):
        plan = build_noise_plan(_circuit(), NoiseModel())
        assert plan.num_channels == 0
        assert plan.num_spans >= 1
        assert plan.num_sites == 1  # just the terminal sample

    def test_single_kraus_channel_folds_into_span(self):
        unitary = QuantumChannel([np.diag([1.0, 1j])], "s-rot")
        model = NoiseModel()
        model.add_all_qubit_quantum_error(unitary, ["h"])
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        plan = build_noise_plan(qc, model)
        assert plan.num_channels == 0  # folded: unitary, no randomness
        assert plan.num_spans == 1

    def test_identity_gate_keeps_its_channel(self):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(bit_flip(0.3), ["id"])
        qc = QuantumCircuit(1, 1)
        qc.i(0)
        qc.measure(0, 0)
        plan = build_noise_plan(qc, model)
        assert plan.num_spans == 0  # identity dropped from the span
        assert plan.num_channels == 1  # but its channel is kept

    def test_mid_circuit_measure_steps_carry_sites(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(0.1, 0.1), 0)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(1, 1)
        plan = build_noise_plan(qc, model)
        assert not plan.terminal
        measures = [s for s in plan.steps if s[0] == "measure"]
        assert len(measures) == 2
        # qubit 0's measure has a bound readout + its own site
        assert measures[0][4] is not None
        assert measures[0][5] is not None
        # qubit 1 has no readout error bound
        assert measures[1][4] is None

    def test_anchors_share_bindings_across_plans(self):
        model = valencia_like_backend(3).noise_model()
        plans = [build_noise_plan(_circuit(), model) for _ in range(2)]
        shared = {}
        for plan in plans:
            for step in plan.steps:
                if step[0] != "channel":
                    continue
                binding = step[1]
                key = (id(binding.channel), binding.qubits)
                assert shared.setdefault(key, binding) is binding
        # h, x and both cx gates anchor channels on repeated qubits
        assert sum(p.num_channels for p in plans) > len(shared)


class TestNoisePlanCache:
    def test_hit_miss_and_zero_retrace(self):
        cache = PlanCache(maxsize=8)
        qc = _circuit()
        model = _mixed_model()
        first = cache.plan_for(qc, model)
        again = cache.plan_for(qc, model)
        assert again is first  # hit: zero re-trace
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_two_models_never_collide(self):
        cache = PlanCache(maxsize=8)
        qc = _circuit()
        a = cache.plan_for(qc, _mixed_model())
        other = NoiseModel()
        other.add_all_qubit_quantum_error(amplitude_damping(0.1), ["h"])
        b = cache.plan_for(qc, other)
        assert b is not a
        assert cache.stats().misses == 2
        assert b.num_channels != a.num_channels

    def test_mutated_model_rekeys(self):
        cache = PlanCache(maxsize=8)
        qc = _circuit()
        model = _mixed_model()
        first = cache.plan_for(qc, model)
        model.add_all_qubit_quantum_error(bit_flip(0.01), ["rz"])
        second = cache.plan_for(qc, model)
        assert second is not first
        assert second.num_channels == first.num_channels + 1

    def test_global_helper_caches(self):
        cache = get_noise_plan_cache()
        cache.clear()
        qc = _circuit()
        model = _mixed_model()
        a = get_noise_plan(qc, model)
        b = get_noise_plan(qc, model)
        assert a is b
        assert (cache.stats().misses, cache.stats().hits) == (1, 1)
