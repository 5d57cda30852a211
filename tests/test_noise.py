import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens import Circuit, NoiseModel, UGate, ValidationError, ZERO_NOISE
from qcens.ensemble import Ensemble, TestCase, ensemble_fitness
from qcens.noise import (
    apply_readout_error,
    density_from_state,
    depolarize,
    run_noisy,
)
from qcens.noisefiles import (
    load_noise_file,
    load_preset,
    parse_noise_config,
    preset_names,
    resolve_noise,
    write_noise_config,
)
from qcens.statevector import run_ideal, u_matrix, zero_state

from conftest import X, bell_circuit, random_test_circuit, tv_distance


def test_noise_model_validates_probabilities():
    with pytest.raises(ValidationError):
        NoiseModel(p1=-0.1, p2=0.0, readout_flip_0to1=0.0, readout_flip_1to0=0.0)
    with pytest.raises(ValidationError):
        NoiseModel(p1=0.0, p2=1.5, readout_flip_0to1=0.0, readout_flip_1to0=0.0)


def test_depolarize_p0_is_identity():
    rho = density_from_state(zero_state(2))
    np.testing.assert_array_equal(depolarize(rho, (0,), 0.0), rho)


def test_depolarize_p1_fully_mixes_a_qubit():
    rho = density_from_state(zero_state(1))
    np.testing.assert_allclose(depolarize(rho, (0,), 1.0), np.eye(2) / 2, atol=1e-12)


def test_depolarize_fixed_point_maximally_mixed():
    rho = np.eye(8) / 8.0
    for p in (0.1, 0.5, 1.0):
        np.testing.assert_allclose(depolarize(rho, (0, 2), p), rho, atol=1e-12)


def test_depolarize_rejects_bad_probability():
    rho = density_from_state(zero_state(1))
    with pytest.raises(ValidationError):
        depolarize(rho, (0,), 1.2)


def test_depolarize_preserves_trace_and_hermiticity(rng):
    state = np.exp(1j * rng.uniform(0, 2 * math.pi, 8)) * rng.uniform(0.1, 1, 8)
    state /= np.linalg.norm(state)
    rho = density_from_state(state)
    for qubits, p in (((0,), 0.3), ((1, 2), 0.7)):
        rho = depolarize(rho, qubits, p)
        assert abs(np.trace(rho) - 1.0) < 1e-9
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-9)
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))


def embed(ops: dict, n: int) -> np.ndarray:
    """Full 2**n operator with ops[q] on qubit q (qubit 0 is the lowest bit)."""
    full = np.eye(1)
    for q in reversed(range(n)):
        full = np.kron(full, ops.get(q, np.eye(2)))
    return full


def kraus_run_noisy_oracle(circuit, init, noise):
    """Dense-matrix reference: each gate as a full unitary, each depolarizing
    channel as the average over Pauli strings on its qubits, and the readout
    as a loop over (basis state, read value) pairs."""
    n = circuit.num_qubits
    rho = np.einsum("ti,tj->tij", init, init.conj())
    for gate in circuit.gates:
        if isinstance(gate, UGate):
            unitary = embed({gate.target: u_matrix(gate.theta, gate.phi, gate.lam)}, n)
            qubits, p = (gate.target,), noise.p1
        else:
            unitary = (embed({gate.control: np.diag([1.0, 0.0])}, n)
                       + embed({gate.control: np.diag([0.0, 1.0]), gate.target: PAULIS[1]}, n))
            qubits, p = (gate.control, gate.target), noise.p2
        rho = unitary @ rho @ unitary.conj().T
        strings = [embed({q: PAULIS[i] for q, i in zip(qubits, ops)}, n)
                   for ops in np.ndindex(*(4,) * len(qubits))]
        mixed = sum(s @ rho @ s.conj().T for s in strings) / len(strings)
        rho = (1.0 - p) * rho + p * mixed
    probs = np.real(np.einsum("tii->ti", rho))
    # basis state i reads value w when each measured bit b independently reads c
    f01, f10 = noise.readout_flip_0to1, noise.readout_flip_1to0
    law = ((1.0 - f01, f01), (f10, 1.0 - f10))  # law[b][c]
    dist = np.zeros((len(probs), 1 << circuit.num_output_bits))
    for i in range(1 << n):
        for w in range(dist.shape[1]):
            dist[:, w] += probs[:, i] * math.prod(
                law[(i >> q) & 1][(w >> pos) & 1]
                for pos, q in enumerate(circuit.measured_qubits))
    return dist


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_run_noisy_matches_kraus_oracle(seed, n):
    rng = np.random.default_rng(seed)
    circuit = random_test_circuit(rng, num_qubits=n)
    noise = NoiseModel(*rng.uniform(0.0, 1.0, size=4))
    init = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    np.testing.assert_allclose(run_noisy(circuit, init, noise),
                               kraus_run_noisy_oracle(circuit, init, noise), rtol=0, atol=1e-12)
    ideal = run_ideal(circuit, init)
    np.testing.assert_allclose(ideal, kraus_run_noisy_oracle(circuit, init, ZERO_NOISE),
                               rtol=0, atol=1e-12)
    readout_only = NoiseModel(0.0, 0.0, noise.readout_flip_0to1, noise.readout_flip_1to0)
    np.testing.assert_allclose(
        apply_readout_error(ideal, noise.readout_flip_0to1, noise.readout_flip_1to0),
        kraus_run_noisy_oracle(circuit, init, readout_only), rtol=0, atol=1e-12)


def test_run_noisy_zero_noise_matches_ideal(rng):
    for _ in range(20):
        circuit = random_test_circuit(rng, num_qubits=3)
        assert tv_distance(run_noisy(circuit, noise=ZERO_NOISE),
                           run_ideal(circuit)) < 1e-10


def test_run_noisy_fully_randomized_readout():
    circuit = Circuit(2, (), (0, 1))
    noise = NoiseModel(0.0, 0.0, 0.5, 0.5)
    np.testing.assert_allclose(run_noisy(circuit, noise=noise), [0.25] * 4, atol=1e-12)


def test_run_noisy_full_depolarization_after_x():
    circuit = Circuit(1, (UGate(0, *X),), (0,))
    noise = NoiseModel(1.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(run_noisy(circuit, noise=noise), [0.5, 0.5], atol=1e-12)


def test_bell_fitness_degrades_monotonically_with_noise():
    circuit = bell_circuit()
    test = TestCase(expected=0, features=(0.0, 0.0))
    values = []
    for p in (0.0, 0.05, 0.1, 0.2):
        noise = NoiseModel(p, p, 0.0, 0.0)
        report = ensemble_fitness(Ensemble((circuit,)), [test], noise=noise)
        values.append(report.fitness)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_readout_flip_composition(rng):
    # two independent flips of strength q equal one flip of strength 2q(1-q)
    dist = rng.dirichlet(np.ones(4))
    q = 0.23
    twice = apply_readout_error(apply_readout_error(dist, q, q), q, q)
    once = apply_readout_error(dist, 2 * q * (1 - q), 2 * q * (1 - q))
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_run_noisy_register_cap():
    with pytest.raises(ValidationError):
        run_noisy(Circuit(11, (), (0,)))


def test_preset_files_ship_ten_models():
    names = preset_names()
    assert len(names) == 10
    for name in names:
        model = load_preset(name)
        assert model.name == name
        assert 0.001 <= model.p1 <= 0.02
        assert 0.005 <= model.p2 <= 0.05
        assert 0.01 <= model.readout_flip_0to1 <= 0.05
        assert 0.01 <= model.readout_flip_1to0 <= 0.05


def test_unknown_preset_lists_available():
    with pytest.raises(ValidationError, match="feather"):
        load_preset("nonexistent")


def test_noise_config_round_trip(tmp_path):
    model = NoiseModel(0.01, 0.02, 0.03, 0.04, name="custom")
    path = tmp_path / "custom.txt"
    write_noise_config(model, path)
    assert load_noise_file(path) == model
    assert resolve_noise(str(path)) == model


def test_noise_config_parse_errors():
    from qcens.errors import ParseError

    with pytest.raises(ParseError, match="missing keys"):
        parse_noise_config("name = x\np1 = 0.1\n")
    with pytest.raises(ParseError, match="not a number"):
        parse_noise_config("p1 = oops\np2 = 0\nreadout_flip_0to1 = 0\nreadout_flip_1to0 = 0")
    for extra in ("q = 1", "nmae = x"):
        with pytest.raises(ParseError, match="unknown key .*keys are name, p1, p2"):
            parse_noise_config("p1 = 0\np2 = 0\nreadout_flip_0to1 = 0\n"
                               f"readout_flip_1to0 = 0\n{extra}\n")
    for repeated in ("p1 = 0", "p2 = 0.5", "name = a\nname = b"):
        with pytest.raises(ParseError, match="repeated key '(p1|p2|name)'"):
            parse_noise_config("p1 = 0\np2 = 0\nreadout_flip_0to1 = 0\n"
                               f"readout_flip_1to0 = 0\n{repeated}\n")


@pytest.mark.parametrize("name", ["a\nb", "a\rb", " a", "a\t"])
def test_noise_config_writer_refuses_names_that_do_not_read_back(tmp_path, name):
    path = tmp_path / "noise.txt"
    with pytest.raises(ValidationError, match="name must be one line"):
        write_noise_config(NoiseModel(0.01, 0.02, 0.03, 0.04, name=name), path)
    assert not path.exists()
