"""Tests for the .real format and the benchmark registry."""

import pytest

from repro.circuits import QuantumCircuit
from repro.revlib import (
    BENCHMARKS,
    RealFormatError,
    TABLE1_PAPER_VALUES,
    benchmark_circuit,
    benchmark_names,
    load_benchmark,
    paper_suite,
    parse_real,
    write_real,
)
from repro.synth import simulate_reversible
from reference_truthtable import simulate_reversible_loops


class TestRealFormat:
    def test_parse_basic(self):
        circuit = parse_real(
            ".numvars 3\n.variables a b c\n.begin\nt1 a\nt2 a b\n"
            "t3 a b c\n.end\n"
        )
        assert circuit.num_qubits == 3
        assert [inst.name for inst in circuit] == ["x", "cx", "ccx"]

    def test_parse_mct(self):
        circuit = parse_real(
            ".numvars 5\n.variables a b c d e\n.begin\nt5 a b c d e\n.end"
        )
        assert circuit[0].name == "mcx4"

    def test_parse_fredkin(self):
        circuit = parse_real(
            ".numvars 3\n.variables a b c\n.begin\nf3 a b c\n.end"
        )
        assert circuit[0].name == "cswap"

    def test_comments_and_directives_skipped(self):
        circuit = parse_real(
            "# a comment\n.version 2.0\n.numvars 2\n.variables a b\n"
            ".inputs a b\n.outputs a b\n.constants --\n.garbage --\n"
            ".begin\nt2 a b # inline comment\n.end\n"
        )
        assert circuit.size() == 1

    def test_numvars_without_names(self):
        circuit = parse_real(".numvars 2\n.begin\nt1 x0\nt2 x0 x1\n.end")
        assert circuit.num_qubits == 2

    def test_missing_header_rejected(self):
        with pytest.raises(RealFormatError):
            parse_real(".begin\nt1 a\n.end")

    def test_unknown_variable_rejected(self):
        with pytest.raises(RealFormatError):
            parse_real(".numvars 1\n.variables a\n.begin\nt1 z\n.end")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(RealFormatError):
            parse_real(".numvars 2\n.variables a b\n.begin\nt3 a b\n.end")

    def test_unsupported_gate_rejected(self):
        with pytest.raises(RealFormatError):
            parse_real(".numvars 1\n.variables a\n.begin\nv a\n.end")

    def test_roundtrip(self):
        circuit = benchmark_circuit("rd53")
        text = write_real(circuit)
        assert simulate_reversible(parse_real(text)) == simulate_reversible(
            circuit
        )

    def test_write_rejects_non_toffoli(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        with pytest.raises(RealFormatError):
            write_real(qc)

    def test_write_variable_mismatch(self):
        with pytest.raises(RealFormatError):
            write_real(QuantumCircuit(2), variables=["a"])


class TestBenchmarks:
    def test_registry_contents(self):
        names = benchmark_names(table1_only=True)
        assert names == [
            "mini_alu", "4mod5", "one_bit_adder", "4gt11", "4gt13",
            "rd53", "rd73", "rd84",
        ]
        assert len(benchmark_names()) >= 10

    @pytest.mark.parametrize("name", [
        "mini_alu", "4mod5", "one_bit_adder", "4gt11", "4gt13",
        "rd53", "rd73", "rd84",
    ])
    def test_counts_match_table1(self, name):
        """Reconstructions match Table I qubit/gate/depth exactly."""
        record = load_benchmark(name)
        circuit = record.circuit()
        assert circuit.num_qubits == record.num_qubits
        assert circuit.size() == record.gate_count
        assert circuit.depth() == record.depth
        paper = TABLE1_PAPER_VALUES[name]
        assert circuit.depth() == paper["depth"]
        assert circuit.size() == paper["gates"]

    def test_qubit_sizes_span_paper_range(self):
        sizes = {r.num_qubits for r in paper_suite()}
        assert sizes == {4, 5, 7, 10, 12}

    def test_expected_outputs_deterministic(self):
        for record in paper_suite():
            expected = record.expected_output()
            assert len(expected) == record.num_qubits
            assert set(expected) <= {"0", "1"}
            # recompute through the truth table directly
            table = simulate_reversible(record.circuit())
            assert int(expected, 2) == table(0)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_expected_output_equals_the_per_entry_table(self, name):
        record = load_benchmark(name)
        table = simulate_reversible_loops(record.circuit())
        assert record.expected_output() == format(
            table(0), f"0{record.num_qubits}b"
        )

    def test_output_bits_subset(self):
        record = load_benchmark("rd84")
        assert record.output_qubits == (8, 9, 10, 11)
        assert len(record.expected_output_bits()) == 4

    def test_expected_output_bits_consistent(self):
        record = load_benchmark("rd53")
        full = record.expected_output()[::-1]
        bits = record.expected_output_bits()[::-1]
        for position, qubit in enumerate(sorted(record.output_qubits)):
            assert bits[position] == full[qubit]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_benchmark("does_not_exist")

    def test_all_circuits_are_toffoli_networks(self):
        for name in benchmark_names():
            circuit = benchmark_circuit(name)
            for inst in circuit.gates():
                assert inst.name in ("x", "cx", "ccx") or inst.name.startswith(
                    "mcx"
                )

    def test_gate_limit_range_matches_paper_claim(self):
        """Paper: benchmarks have 4..32 gates on 4..12 qubits."""
        for record in paper_suite():
            assert 4 <= record.gate_count <= 32
            assert 4 <= record.num_qubits <= 12
