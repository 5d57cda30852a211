import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forward_noise_oracle
from qcens import CXGate, Circuit, NoiseModel, UGate, ValidationError, ZERO_NOISE
from qcens.ensemble import Ensemble, Evaluator, TestCase, _vote_batch
from qcens.noise import _block_indices, _depolarize_in_place, _stacks, run_noisy
from qcens.noisefiles import (
    load_noise_file,
    load_preset,
    parse_noise_config,
    preset_names,
    resolve_noise,
    write_noise_config,
)
from qcens.statevector import _output_map, run_ideal, u_matrix, zero_state

from conftest import X, bell_circuit, random_test_circuit, tv_distance


def test_noise_model_validates_probabilities():
    with pytest.raises(ValidationError):
        NoiseModel(p1=-0.1, p2=0.0, readout_flip_0to1=0.0, readout_flip_1to0=0.0)
    with pytest.raises(ValidationError):
        NoiseModel(p1=0.0, p2=1.5, readout_flip_0to1=0.0, readout_flip_1to0=0.0)


def density(state):
    return np.einsum("...i,...j->...ij", state, np.conj(state))


def depolarized(rho, qubits, p):
    """The depolarizing channel on a copy of rho, as a (2**n, 2**n, 1) stack."""
    out = np.array(rho, dtype=np.complex128)[..., None]
    _depolarize_in_place(out, out.shape[0].bit_length() - 1, qubits, p, np.empty_like(out))
    return out[..., 0]


def test_depolarize_p1_fully_mixes_a_qubit():
    rho = density(zero_state(1))
    np.testing.assert_allclose(depolarized(rho, (0,), 1.0), np.eye(2) / 2, atol=1e-12)


def test_depolarize_fixed_point_maximally_mixed():
    rho = np.eye(8) / 8.0
    for p in (0.1, 0.5, 1.0):
        np.testing.assert_allclose(depolarized(rho, (0, 2), p), rho, atol=1e-12)


def test_depolarize_preserves_trace_and_hermiticity(rng):
    state = np.exp(1j * rng.uniform(0, 2 * math.pi, 8)) * rng.uniform(0.1, 1, 8)
    state /= np.linalg.norm(state)
    rho = density(state)
    for qubits, p in (((0,), 0.3), ((1, 2), 0.7)):
        rho = depolarized(rho, qubits, p)
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
    np.testing.assert_allclose(run_noisy(circuit, init, readout_only),
                               kraus_run_noisy_oracle(circuit, init, readout_only),
                               rtol=0, atol=1e-12)


NOISE_MODELS = st.deferred(
    lambda: st.sampled_from([load_preset(name) for name in preset_names()] + [ZERO_NOISE]))
RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(1, 6), batch=st.integers(1, 3), p=RATES)
def test_block_indices_are_the_per_call_construction_cached(data, n, batch, p):
    qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n),
                                      unique=True)))
    cached = _block_indices(n, qubits)
    assert list(cached) == forward_noise_oracle.per_call_block_indices(n, qubits)
    assert _block_indices(n, qubits) is cached
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n, 1 << n, batch)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = rho.copy()
    _depolarize_in_place(rho, n, qubits, p, np.empty_like(rho))
    forward_noise_oracle.per_call_depolarize_in_place(want, n, qubits, p, np.empty_like(want))
    assert rho.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       batch=st.sampled_from([None, (), (0,), "T", (2, 3)]),
       layout=st.sampled_from(["C", "F", "reversed", "real"]),
       noise=NOISE_MODELS | st.builds(NoiseModel, RATES, RATES, RATES, RATES))
def test_run_noisy_matches_forward_oracle_bit_for_bit(seed, n, batch, layout, noise):
    rng = np.random.default_rng(seed)
    circuit = random_test_circuit(rng, num_qubits=n)
    init = None
    if batch is not None:
        shape = (int(rng.integers(1, 9)),) if batch == "T" else batch
        init = rng.normal(size=shape + (1 << n,))
        if layout != "real":
            init = init + 1j * rng.normal(size=init.shape)
        init /= np.linalg.norm(init, axis=-1, keepdims=True)
        init = {"F": np.asfortranarray, "reversed": lambda a: a[::-1]}.get(layout, np.asarray)(init)
    got = run_noisy(circuit, init, noise)
    # the oracle's last bits depend on the memory layout of init (its stack follows it), so it
    # sees a C-contiguous copy; run_noisy's do not
    want = forward_noise_oracle.run_noisy(
        circuit, None if init is None else np.ascontiguousarray(init), noise)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    if init is not None:
        assert got.tobytes() == run_noisy(circuit, np.ascontiguousarray(init), noise).tobytes()


def test_run_noisy_reuses_its_stacks_unseen_from_outside():
    # interleaved shapes and models each match the oracle, and a later call, of the same shape
    # or another, leaves every earlier result as it was
    rng = np.random.default_rng(20)
    models = [load_preset(name) for name in preset_names()] + [ZERO_NOISE]
    shapes = [(4, 100), (4, 100), (2, 7), (4, 100), (3, None), (2, 7), (5, 50), (4, 100),
              (1, 1), (3, None), (2, 7), (4, 100)]
    kept = []
    for i, (n, batch) in enumerate(shapes):
        circuit, noise = random_test_circuit(rng, num_qubits=n), models[i % len(models)]
        init = None
        if batch is not None:
            init = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
            init /= np.linalg.norm(init, axis=1, keepdims=True)
        got = run_noisy(circuit, init, noise)
        want = forward_noise_oracle.run_noisy(circuit, init, noise)
        assert got.tobytes() == want.tobytes()
        # one shape's stacks at most, and no result is a view of them
        assert _stacks.cache_info().currsize == 1
        assert not any(np.shares_memory(got, stack) for stack in _stacks(1 << n, batch or 1))
        kept.append((got, want))
    for got, want in kept:
        assert got.tobytes() == want.tobytes()


def test_run_noisy_peak_memory_stays_below_the_forward_loop():
    # a full-size temporary per gate, or stacks made and freed by every call, would make the
    # allocator return and re-fault memory
    rng = np.random.default_rng(16)
    circuit = Circuit(4, (UGate(1, 0.3, 0.2, 0.1), CXGate(0, 2), UGate(3, 1.1, 2.2, 0.4),
                          CXGate(3, 1), UGate(0, 2.0, 0.5, 1.5)), (0, 1))
    init = rng.normal(size=(100, 16)) + 1j * rng.normal(size=(100, 16))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    storm = load_preset("storm")

    def peak_in_stacks():
        tracemalloc.start()
        try:
            run_noisy(circuit, init, storm)
            return tracemalloc.get_traced_memory()[1] / (16 * 16 * 100 * 16)
        finally:
            tracemalloc.stop()

    run_noisy(circuit, init[:50], storm)  # fill every cache but the stacks of this shape
    # a new shape makes the stack and its scratch (2.13 when measured); a buffered full-size
    # copy, such as a CX take in mode="raise" makes, reaches 3
    assert peak_in_stacks() <= 2.5
    # a warmed shape reuses both (0.13 when measured; 2.13 when each call made its own)
    assert peak_in_stacks() <= 0.5


def test_vote_peak_memory_holds_one_gather_at_a_time():
    # two steps' gathers alive at once make the allocator trim and re-fault its heap each vote
    n, k, batch = 7, 4, 100
    dists = np.random.default_rng(18).random((n, batch, k))
    dists /= dists.sum(axis=2, keepdims=True)
    _vote_batch(dists)  # fill the count-table cache first
    tracemalloc.start()
    try:
        _vote_batch(dists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in last-step gathers, (k, C(n+k-1, k-1), batch) floats: one gather, the probability
    # vectors and the inputs reach 1.31 (when measured); the previous step's gather, 0.7 of
    # the last, kept alive while the last is made, brings that above 1.9
    last_gather = k * math.comb(n + k - 1, k - 1) * batch * 8
    assert peak <= 1.5 * last_gather


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
        report = Evaluator([test], noise=noise).score([Ensemble((circuit,))])[0]
        values.append(report.fitness)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_readout_flip_composition(rng):
    # two independent flips of strength q equal one flip of strength 2q(1-q)
    dist = rng.dirichlet(np.ones(4))
    q = 0.23
    flip = forward_noise_oracle._readout_matrix(2, q, q)
    twice = dist @ flip.T @ flip.T
    once = dist @ forward_noise_oracle._readout_matrix(2, 2 * q * (1 - q), 2 * q * (1 - q)).T
    np.testing.assert_allclose(twice, once, atol=1e-12)


@settings(deadline=None, max_examples=80)
@given(data=st.data(), n=st.integers(1, 6), f01=RATES, f10=RATES)
def test_output_map_is_the_value_map_times_the_readout_law(data, n, f01, f10):
    order = data.draw(st.permutations(range(n)))
    measured = tuple(order[:data.draw(st.integers(1, n))])
    got = _output_map(n, measured, f01, f10)
    want = (forward_noise_oracle._value_map(n, measured)
            @ forward_noise_oracle._readout_matrix(len(measured), f01, f10).T)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert _output_map(n, measured, f01, f10) is got
    with pytest.raises(ValueError):
        got[0, 0] = 0.5


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


def test_noise_config_skips_comments_and_blank_lines():
    text = ("# a custom model\n\nname = custom\n   # indented comment\np1 = 0.01\n\t\n"
            "p2 = 0.02\nreadout_flip_0to1 = 0.03\nreadout_flip_1to0 = 0.04\n\n")
    assert parse_noise_config(text) == NoiseModel(0.01, 0.02, 0.03, 0.04, name="custom")


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
