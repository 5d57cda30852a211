import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens import (ZERO_NOISE, Circuit, CXGate, StructuralError, UGate, ValidationError,
                   load_preset, preset_names, run_ideal, run_noisy)
from qcens.circuits import light_cone


def test_cx_rejects_equal_control_target():
    with pytest.raises(StructuralError):
        Circuit(2, (CXGate(1, 1),), (0,))


def test_gate_indices_must_be_in_range():
    with pytest.raises(StructuralError):
        Circuit(2, (UGate(2, 0.0, 0.0, 0.0),), (0,))
    with pytest.raises(StructuralError):
        Circuit(2, (CXGate(0, 5),), (0,))


def test_angles_must_be_finite():
    with pytest.raises(ValidationError):
        Circuit(1, (UGate(0, math.nan, 0.0, 0.0),), (0,))
    with pytest.raises(ValidationError):
        Circuit(1, (UGate(0, 0.0, math.inf, 0.0),), (0,))


def test_measured_qubits_validation():
    with pytest.raises(ValidationError):
        Circuit(2, (), ())
    with pytest.raises(StructuralError):
        Circuit(2, (), (0, 0))
    with pytest.raises(StructuralError):
        Circuit(2, (), (0, 3))


def test_register_width_cap():
    with pytest.raises(ValidationError):
        Circuit(17, (), (0,))
    Circuit(16, (), (0,))  # at the cap is fine


def test_output_domain_size():
    c = Circuit(4, (), (0, 1))
    assert c.num_output_bits == 2
    assert c.num_output_values == 4


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 12) -> Circuit:
    """Random U/CX circuits over 1 to ``max_qubits`` qubits, any non-empty measured set.
    Angles come from a drawn seed: Hypothesis favours 0 and 2*pi, whose U gates act
    trivially and would hide a wrong cone."""
    n = draw(st.integers(1, max_qubits))
    wires = st.tuples(st.integers(0, n - 1))
    if n > 1:
        wires = wires | st.permutations(range(n)).map(lambda order: tuple(order[:2]))
    angles = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 2 * math.pi,
                                                                            (max_gates, 3))
    gates = tuple(UGate(w[0], *map(float, a)) if len(w) == 1 else CXGate(*w)
                  for w, a in zip(draw(st.lists(wires, max_size=max_gates)), angles))
    measured = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return Circuit(n, gates, tuple(measured))


MODELS = [ZERO_NOISE] + [load_preset(name) for name in preset_names()]


@settings(deadline=None, max_examples=60)
@given(circuit=circuits(), seed=st.integers(0, 2**32 - 1))
def test_light_cone_keeps_the_measured_law_ideal_and_noisy(circuit, seed):
    cone = light_cone(circuit)
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(3, 1 << circuit.num_qubits, 2)) @ np.array([1.0, 1j])
    batch /= np.linalg.norm(batch, axis=-1, keepdims=True)  # entangled starts too
    for init in (None, batch):
        np.testing.assert_allclose(run_ideal(cone, init), run_ideal(circuit, init),
                                   rtol=0, atol=1e-12)
        for model in MODELS:
            np.testing.assert_allclose(run_noisy(cone, init, model),
                                       run_noisy(circuit, init, model), rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(circuit=circuits(max_gates=16))
def test_light_cone_is_an_idempotent_subsequence(circuit):
    cone = light_cone(circuit)
    assert light_cone(cone) is cone
    assert (cone.num_qubits, cone.measured_qubits) == (circuit.num_qubits,
                                                      circuit.measured_qubits)
    rest = iter(circuit.gates)
    assert all(any(g is h for h in rest) for g in cone.gates)  # in order, each gate kept as is
    if len(circuit.measured_qubits) == circuit.num_qubits:
        assert cone is circuit


def test_light_cone_of_a_circuit_with_only_dead_gates_is_empty():
    dead = Circuit(3, (UGate(2, 1.0, 0.0, 0.0), CXGate(1, 2), UGate(1, 0.5, 0.2, 0.1)), (0,))
    assert light_cone(dead) == Circuit(3, (), (0,))
    late = Circuit(2, (UGate(0, 1.0, 0.0, 0.0), CXGate(0, 1), UGate(0, 2.0, 0.0, 0.0)), (1,))
    assert light_cone(late).gates == late.gates[:2]  # a U after the last CX never reaches qubit 1
