"""Sample QASM programs shared by the service tests."""

BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""

# BELL_QASM before measurement: protect inserts its pairs into the
# unitary circuit and refuses a measured one
BELL_UNITARY_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
"""

MID_MEASURE_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
measure q[0] -> c[0];
x q[0];
measure q[1] -> c[1];
"""
