"""Unit tests for the gate library."""

import math

import numpy as np
import pytest

from repro.circuits.gates import (
    Barrier,
    CCXGate,
    CPhaseGate,
    CRZGate,
    CXGate,
    CZGate,
    GATE_REGISTRY,
    HGate,
    IGate,
    MCXGate,
    Measure,
    PhaseGate,
    RXGate,
    RYGate,
    RZGate,
    SdgGate,
    SGate,
    SwapGate,
    SXGate,
    TdgGate,
    TGate,
    U1Gate,
    U2Gate,
    U3Gate,
    UnitaryGate,
    XGate,
    YGate,
    ZGate,
    controlled_matrix,
    gate_from_name,
    standard_gate_names,
)


# sample parameters of every parameterised registered gate
_PARAMS = {
    "rx": [0.3], "ry": [0.7], "rz": [1.1], "p": [0.5],
    "u1": [0.4], "u2": [0.2, 0.9], "u3": [0.3, 0.5, 0.7],
    "crz": [0.6], "cp": [0.8],
}
_FIXED = [name for name in standard_gate_names() if name not in _PARAMS]


def _all_standard_gates():
    return [
        gate_from_name(name, _PARAMS.get(name, []))
        for name in standard_gate_names()
    ]


class TestUnitarity:
    @pytest.mark.parametrize(
        "gate", _all_standard_gates(), ids=lambda g: g.name
    )
    def test_every_registered_gate_is_unitary(self, gate):
        mat = gate.matrix
        identity = np.eye(mat.shape[0])
        assert np.allclose(mat @ mat.conj().T, identity, atol=1e-10)

    @pytest.mark.parametrize(
        "gate", _all_standard_gates(), ids=lambda g: g.name
    )
    def test_inverse_matrix_is_adjoint(self, gate):
        inv = gate.inverse()
        assert np.allclose(
            inv.matrix, gate.matrix.conj().T, atol=1e-10
        )

    def test_matrix_dimensions_match_arity(self):
        for gate in _all_standard_gates():
            assert gate.matrix.shape == (
                2 ** gate.num_qubits,
                2 ** gate.num_qubits,
            )

    def test_matrix_is_readonly(self):
        mat = XGate().matrix
        with pytest.raises(ValueError):
            mat[0, 0] = 5


class TestSpecificMatrices:
    def test_x_matrix(self):
        assert np.allclose(XGate().matrix, [[0, 1], [1, 0]])

    def test_hadamard_squares_to_identity(self):
        h = HGate().matrix
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)

    def test_s_squared_is_z(self):
        s = SGate().matrix
        assert np.allclose(s @ s, ZGate().matrix)

    def test_t_squared_is_s(self):
        t = TGate().matrix
        assert np.allclose(t @ t, SGate().matrix)

    def test_sx_squared_is_x(self):
        sx = SXGate().matrix
        assert np.allclose(sx @ sx, XGate().matrix, atol=1e-12)

    def test_cx_flips_when_control_set(self):
        # |10> (control=1, target=0) -> |11>
        cx = CXGate().matrix
        state = np.zeros(4)
        state[2] = 1.0  # |q0 q1> = |10> with first qubit MSB
        out = cx @ state
        assert np.allclose(out, [0, 0, 0, 1])

    def test_cx_identity_when_control_clear(self):
        cx = CXGate().matrix
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert np.allclose(cx @ state, state)

    def test_swap_exchanges_basis_states(self):
        swap = SwapGate().matrix
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        out = swap @ state
        expected = np.zeros(4)
        expected[2] = 1.0  # |10>
        assert np.allclose(out, expected)

    def test_ccx_is_controlled_cx(self):
        assert np.allclose(
            CCXGate().matrix, controlled_matrix(CXGate().matrix)
        )

    def test_u2_equals_u3_with_pi_over_2(self):
        u2 = U2Gate([0.3, 0.8])
        u3 = U3Gate([math.pi / 2, 0.3, 0.8])
        assert np.allclose(u2.matrix, u3.matrix, atol=1e-12)

    def test_u1_equals_phase(self):
        assert np.allclose(
            U1Gate([0.7]).matrix, PhaseGate([0.7]).matrix
        )

    def test_rz_is_u1_up_to_phase(self):
        rz = RZGate([0.9]).matrix
        u1 = U1Gate([0.9]).matrix
        ratio = u1[0, 0] / rz[0, 0]
        assert np.allclose(rz * ratio, u1, atol=1e-12)


class TestSelfInverse:
    @pytest.mark.parametrize("cls", [XGate, YGate, ZGate, HGate, CXGate,
                                     CZGate, SwapGate, CCXGate, IGate])
    def test_self_inverse_gates(self, cls):
        assert cls().is_self_inverse()

    @pytest.mark.parametrize("cls", [SGate, TGate])
    def test_non_self_inverse_gates(self, cls):
        assert not cls().is_self_inverse()

    def test_rotation_inverse_negates_angle(self):
        for cls in (RXGate, RYGate, RZGate):
            gate = cls([0.37])
            assert gate.inverse().params == (-0.37,)

    def test_s_inverse_is_sdg(self):
        assert isinstance(SGate().inverse(), SdgGate)
        assert isinstance(SdgGate().inverse(), SGate)
        assert isinstance(TGate().inverse(), TdgGate)

    def test_u3_inverse_composes_to_identity(self):
        gate = U3Gate([0.3, 0.5, 0.7])
        product = gate.inverse().matrix @ gate.matrix
        assert np.allclose(product, np.eye(2), atol=1e-10)


# every gate's inverse: (gate, inverse class, inverse name, inverse params)
_INVERSES = [
    ("ccx", CCXGate(), "CCXGate", "ccx", ()),
    ("ch", gate_from_name("ch"), "CHGate", "ch", ()),
    ("cp", CPhaseGate([0.8]), "CPhaseGate", "cp", (-0.8,)),
    ("crz", CRZGate([0.6]), "CRZGate", "crz", (-0.6,)),
    ("cswap", gate_from_name("cswap"), "CSwapGate", "cswap", ()),
    ("cx", CXGate(), "CXGate", "cx", ()),
    ("cy", gate_from_name("cy"), "CYGate", "cy", ()),
    ("cz", CZGate(), "CZGate", "cz", ()),
    ("h", HGate(), "HGate", "h", ()),
    ("id", IGate(), "IGate", "id", ()),
    ("p", PhaseGate([0.5]), "PhaseGate", "p", (-0.5,)),
    ("rx", RXGate([0.3]), "RXGate", "rx", (-0.3,)),
    ("ry", RYGate([0.7]), "RYGate", "ry", (-0.7,)),
    ("rz", RZGate([1.1]), "RZGate", "rz", (-1.1,)),
    ("s", SGate(), "SdgGate", "sdg", ()),
    ("sdg", SdgGate(), "SGate", "s", ()),
    ("swap", SwapGate(), "SwapGate", "swap", ()),
    ("sx", SXGate(), "UnitaryGate", "sxdg", ()),
    ("t", TGate(), "TdgGate", "tdg", ()),
    ("tdg", TdgGate(), "TGate", "t", ()),
    ("u1", U1Gate([0.4]), "U1Gate", "u1", (-0.4,)),
    ("u2", U2Gate([0.2, 0.9]), "U3Gate", "u3", (-math.pi / 2, -0.9, -0.2)),
    ("u3", U3Gate([0.3, 0.5, 0.7]), "U3Gate", "u3", (-0.3, -0.7, -0.5)),
    ("x", XGate(), "XGate", "x", ()),
    ("y", YGate(), "YGate", "y", ()),
    ("z", ZGate(), "ZGate", "z", ()),
    ("mcx0", MCXGate(0), "MCXGate", "x", ()),
    ("mcx1", MCXGate(1), "MCXGate", "cx", ()),
    ("mcx2", MCXGate(2), "MCXGate", "ccx", ()),
    ("mcx3", MCXGate(3), "MCXGate", "mcx3", ()),
    ("mcx4", MCXGate(4), "MCXGate", "mcx4", ()),
    ("unitary", UnitaryGate(HGate().matrix, label="had"), "UnitaryGate",
     "had_dg", ()),
]


class TestInversePins:
    def test_table_covers_the_registry(self):
        assert set(standard_gate_names()) <= {row[0] for row in _INVERSES}

    @pytest.mark.parametrize(
        "gate, cls, name, params", [row[1:] for row in _INVERSES],
        ids=[row[0] for row in _INVERSES],
    )
    def test_inverse_class_name_and_params(self, gate, cls, name, params):
        inverse = gate.inverse()
        assert type(inverse).__name__ == cls
        assert inverse.name == name
        assert inverse.params == params


class TestMCX:
    def test_mcx_zero_controls_is_x(self):
        assert np.allclose(MCXGate(0).matrix, XGate().matrix)
        assert MCXGate(0).name == "x"

    def test_mcx_one_control_is_cx(self):
        assert np.allclose(MCXGate(1).matrix, CXGate().matrix)
        assert MCXGate(1).name == "cx"

    def test_mcx_two_controls_is_ccx(self):
        assert np.allclose(MCXGate(2).matrix, CCXGate().matrix)

    def test_mcx_three_controls_flips_only_all_ones(self):
        mat = MCXGate(3).matrix
        expected = np.eye(16)
        expected[[14, 15]] = expected[[15, 14]]
        assert np.allclose(mat, expected)

    def test_mcx_negative_controls_rejected(self):
        with pytest.raises(ValueError):
            MCXGate(-1)

    def test_mcx_from_name(self):
        gate = gate_from_name("mcx5")
        assert gate.num_qubits == 6

    def test_mcx_copy_preserves_controls(self):
        gate = MCXGate(4)
        assert gate.copy().num_controls == 4


class TestUnitaryGate:
    def test_accepts_unitary(self):
        gate = UnitaryGate(HGate().matrix, label="had")
        assert gate.name == "had"
        assert gate.num_qubits == 1

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.array([[1, 0], [0, 2]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.eye(3))

    def test_inverse_roundtrip(self):
        gate = UnitaryGate(U3Gate([0.2, 0.4, 0.6]).matrix)
        product = gate.inverse().matrix @ gate.matrix
        assert np.allclose(product, np.eye(2), atol=1e-10)

    def test_equality_by_matrix(self):
        a = UnitaryGate(HGate().matrix)
        b = UnitaryGate(HGate().matrix)
        assert a == b


class TestRegistry:
    def test_every_name_constructs(self):
        assert len(standard_gate_names()) == len(GATE_REGISTRY)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            gate_from_name("nope")

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError):
            gate_from_name("rx")
        with pytest.raises(ValueError):
            gate_from_name("x", [0.1])

    def test_array_parameters(self):
        params = np.array([0.3, 0.5, 0.7])
        assert U3Gate(params) == gate_from_name("u3", params)
        assert U3Gate(params).params == (0.3, 0.5, 0.7)

    @pytest.mark.parametrize("name", _FIXED)
    def test_fixed_gate_refuses_parameters(self, name):
        with pytest.raises(ValueError, match="expects 0 parameter"):
            GATE_REGISTRY[name]([0.1])

    def test_equality_and_hash(self):
        assert XGate() == XGate()
        assert RXGate([0.5]) == RXGate([0.5])
        assert RXGate([0.5]) != RXGate([0.6])
        assert hash(RXGate([0.5])) == hash(RXGate([0.5]))
        assert XGate() != YGate()


class TestNonUnitaryOps:
    def test_barrier_equality(self):
        assert Barrier(3) == Barrier(3)
        assert Barrier(3) != Barrier(2)

    def test_measure_equality(self):
        assert Measure() == Measure()
        assert Measure().num_qubits == 1
