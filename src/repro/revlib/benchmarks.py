"""RevLib benchmark suite used in the paper's evaluation (Table I).

The eight circuits are reconstructions: exact RevLib variant files are
not redistributable offline, so each netlist below was authored to
match the paper's Table I *exactly* in qubit count, gate count and
circuit depth, while computing a function in the documented family
(ripple adders, mod-5 checkers, greater-than comparators, rdXY
weight-style counters).  See DESIGN.md for the substitution rationale.

All are multiple-control Toffoli networks in RevLib ``.real`` syntax,
parsed through :mod:`repro.revlib.real_format`.  The registry exposes
metadata (expected stats, the paper's Table I values, the deterministic
``|0...0>`` output used by the accuracy metric) plus loader helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..circuits.circuit import QuantumCircuit
from ..synth.truthtable import simulate_reversible
from .real_format import parse_real

__all__ = [
    "BenchmarkRecord",
    "BENCHMARKS",
    "benchmark_names",
    "load_benchmark",
    "benchmark_circuit",
    "paper_suite",
    "TABLE1_PAPER_VALUES",
]

_MINI_ALU = """\
.version 2.0
.numvars 5
.variables a b c d e
.begin
t3 a b e
t3 c d e
t2 a e
t1 c
t2 b e
t3 a c e
t2 d e
t1 e
t2 e d
.end
"""

_4MOD5 = """\
.version 2.0
.numvars 5
.variables a b c d e
.begin
t2 d e
t2 c e
t3 c d e
t1 b
t2 b e
t3 a b e
.end
"""

_ONE_BIT_ADDER = """\
.version 2.0
.numvars 4
.variables a b cin s
.begin
t3 a b s
t1 cin
t2 a b
t1 s
t3 b cin s
t2 b cin
t2 a b
.end
"""

_4GT11 = """\
.version 2.0
.numvars 5
.variables a b c d e
.begin
t2 a e
t2 b e
t3 a b e
t2 c e
t3 b c e
t2 d e
t3 c d e
t1 e
t3 a c e
t2 a e
t3 a d e
t2 b e
t3 b d e
.end
"""

_4GT13 = """\
.version 2.0
.numvars 4
.variables a b c d
.begin
t3 a b d
t2 b d
t1 d
t2 d c
.end
"""

_RD53 = """\
.version 2.0
.numvars 7
.variables x0 x1 x2 x3 x4 c0 c1
.begin
t3 x0 c0 c1
t2 x0 c0
t3 x1 c0 c1
t2 x1 c0
t3 x2 c0 c1
t2 x2 c0
t3 x3 c0 c1
t2 x3 c0
t3 x4 c0 c1
t2 x4 c0
t2 x0 x1
t2 x2 x3
t3 x0 x1 c1
t3 x2 x3 c1
t2 x4 c1
t1 c1
t3 c0 c1 x4
t2 c0 c1
t2 c1 c0
.end
"""

_RD73 = """\
.version 2.0
.numvars 10
.variables x0 x1 x2 x3 x4 x5 x6 c0 c1 c2
.begin
t4 x0 c0 c1 c2
t3 x0 c0 c1
t2 x0 c0
t4 x1 c0 c1 c2
t3 x1 c0 c1
t2 x1 c0
t4 x2 c0 c1 c2
t3 x2 c0 c1
t2 x2 c0
t2 x3 x4
t2 x5 x6
t2 x0 c0
t2 x4 c1
t2 x6 c2
t3 x3 x5 c0
t2 x0 x1
t3 x4 x6 c1
t2 x3 c2
t2 x1 x2
t2 x5 x0
t2 c0 c1
t1 c2
t2 x1 x3
.end
"""

_RD84 = """\
.version 2.0
.numvars 12
.variables x0 x1 x2 x3 x4 x5 x6 x7 c0 c1 c2 c3
.begin
t4 x0 c0 c1 c2
t3 x0 c0 c1
t2 x0 c0
t4 x1 c0 c1 c2
t3 x1 c0 c1
t2 x1 c0
t4 x2 c0 c1 c2
t3 x2 c0 c1
t2 x2 c0
t2 x4 x5
t2 x6 x7
t2 x3 c3
t3 x4 x5 c3
t3 x6 x7 c3
t2 x0 x1
t2 x4 x6
t2 x5 x7
t3 x3 x0 c0
t2 x1 x2
t3 x4 x6 c1
t3 x5 x7 c2
t2 x3 x4
t2 x0 x5
t3 x1 x2 c3
t2 x6 c0
t2 x7 c1
t3 x3 x6 c2
t2 x4 c3
t2 c0 c1
t2 c1 c2
t2 c2 c3
t1 c3
.end
"""

# extra circuits beyond Table I: used by tests/examples
_GRAYCODE6 = """\
.version 2.0
.numvars 6
.variables a b c d e f
.begin
t2 a b
t2 b c
t2 c d
t2 d e
t2 e f
.end
"""

_HAM3 = """\
.version 2.0
.numvars 3
.variables a b c
.begin
t2 b c
t2 c a
t3 a b c
t2 c b
t1 a
.end
"""


@dataclass
class BenchmarkRecord:
    """One benchmark with its source text and Table I metadata."""

    name: str
    source: str
    num_qubits: int
    gate_count: int
    depth: int
    description: str
    in_table1: bool = True
    # qubits carrying the primary outputs; the paper measures only
    # these ("b represents the number of output qubits", Eq. 2) —
    # small circuits report 1 bit, the rd family 3–4 bits
    output_qubits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.output_qubits:
            self.output_qubits = tuple(range(self.num_qubits))

    def circuit(self) -> QuantumCircuit:
        return parse_real(self.source, name=self.name)

    def expected_output(self) -> str:
        """Deterministic full-register output on the all-zero input.

        RevLib circuits are classical-reversible, so the noiseless
        output of ``|0...0>`` is a single basis state — the reference
        the paper's accuracy metric counts "correct outcomes" against.
        """
        table = simulate_reversible(self.circuit())
        return format(table(0), f"0{self.num_qubits}b")

    def expected_output_bits(self) -> str:
        """Expected value of the output qubits only (qubit order,
        lowest-index right-most)."""
        full = self.expected_output()[::-1]  # index by qubit
        return "".join(full[q] for q in sorted(self.output_qubits))[::-1]


BENCHMARKS: Dict[str, BenchmarkRecord] = {
    record.name: record
    for record in [
        BenchmarkRecord(
            "mini_alu", _MINI_ALU, 5, 9, 8,
            "Miniature ALU slice (reconstruction of RevLib mini-alu)",
            output_qubits=(4,),
        ),
        BenchmarkRecord(
            "4mod5", _4MOD5, 5, 6, 5,
            "(x mod 5) detector on 4-bit input (RevLib 4mod5 family)",
            output_qubits=(4,),
        ),
        BenchmarkRecord(
            "one_bit_adder", _ONE_BIT_ADDER, 4, 7, 5,
            "1-bit full adder with inverted carry-in (RevLib rd32 family)",
            output_qubits=(3,),
        ),
        BenchmarkRecord(
            "4gt11", _4GT11, 5, 13, 13,
            "4-bit greater-than-11 comparator (RevLib 4gt11 family)",
            output_qubits=(4,),
        ),
        BenchmarkRecord(
            "4gt13", _4GT13, 4, 4, 4,
            "4-bit greater-than-13 comparator (RevLib 4gt13-v1 family)",
            output_qubits=(2,),
        ),
        BenchmarkRecord(
            "rd53", _RD53, 7, 19, 16,
            "5-input weight-function circuit (RevLib rd53 family)",
            output_qubits=(4, 5, 6),
        ),
        BenchmarkRecord(
            "rd73", _RD73, 10, 23, 13,
            "7-input weight-function circuit (RevLib rd73 family)",
            output_qubits=(7, 8, 9),
        ),
        BenchmarkRecord(
            "rd84", _RD84, 12, 32, 15,
            "8-input weight-function circuit (RevLib rd84 family)",
            output_qubits=(8, 9, 10, 11),
        ),
        BenchmarkRecord(
            "graycode6", _GRAYCODE6, 6, 5, 5,
            "6-bit Gray-code converter (RevLib graycode6)",
            in_table1=False,
        ),
        BenchmarkRecord(
            "ham3", _HAM3, 3, 5, 5,
            "3-bit Hamming-optimal circuit (RevLib ham3 family)",
            in_table1=False,
        ),
    ]
}

# Table I reference values: depth, obf. depth, gates, obf. gates (mean),
# gate change %, accuracy, restored accuracy, accuracy change %
TABLE1_PAPER_VALUES: Dict[str, Dict[str, float]] = {
    "mini_alu": {
        "depth": 8, "depth_obf": 8, "gates": 9, "gates_obf": 11,
        "gate_change_pct": 22.2, "accuracy": 0.974,
        "accuracy_restored": 0.974, "accuracy_change_pct": 0.06,
    },
    "4mod5": {
        "depth": 5, "depth_obf": 5, "gates": 6, "gates_obf": 8,
        "gate_change_pct": 33.3, "accuracy": 0.973,
        "accuracy_restored": 0.967, "accuracy_change_pct": 0.6,
    },
    "one_bit_adder": {
        "depth": 5, "depth_obf": 5, "gates": 7, "gates_obf": 8,
        "gate_change_pct": 14.2, "accuracy": 0.976,
        "accuracy_restored": 0.976, "accuracy_change_pct": 0.12,
    },
    "4gt11": {
        "depth": 13, "depth_obf": 13, "gates": 13, "gates_obf": 15,
        "gate_change_pct": 15.4, "accuracy": 0.986,
        "accuracy_restored": 0.983, "accuracy_change_pct": 0.30,
    },
    "4gt13": {
        "depth": 4, "depth_obf": 4, "gates": 4, "gates_obf": 6.7,
        "gate_change_pct": 67.5, "accuracy": 0.976,
        "accuracy_restored": 0.977, "accuracy_change_pct": 0.95,
    },
    "rd53": {
        "depth": 16, "depth_obf": 16, "gates": 19, "gates_obf": 22,
        "gate_change_pct": 15.7, "accuracy": 0.88,
        "accuracy_restored": 0.869, "accuracy_change_pct": 1.09,
    },
    "rd73": {
        "depth": 13, "depth_obf": 13, "gates": 23, "gates_obf": 26,
        "gate_change_pct": 13.0, "accuracy": 0.892,
        "accuracy_restored": 0.884, "accuracy_change_pct": 0.73,
    },
    "rd84": {
        "depth": 15, "depth_obf": 15, "gates": 32, "gates_obf": 36,
        "gate_change_pct": 12.5, "accuracy": 0.867,
        "accuracy_restored": 0.863, "accuracy_change_pct": 0.42,
    },
}


def benchmark_names(table1_only: bool = False) -> List[str]:
    """Registered benchmark names in Table I order."""
    return [
        name
        for name, record in BENCHMARKS.items()
        if record.in_table1 or not table1_only
    ]


def load_benchmark(name: str) -> BenchmarkRecord:
    if name not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {benchmark_names()}"
        )
    return BENCHMARKS[name]


def benchmark_circuit(name: str) -> QuantumCircuit:
    """Parse and return the named benchmark circuit."""
    return load_benchmark(name).circuit()


def paper_suite() -> List[BenchmarkRecord]:
    """The eight Table I benchmarks, in table order."""
    return [BENCHMARKS[name] for name in benchmark_names(table1_only=True)]
