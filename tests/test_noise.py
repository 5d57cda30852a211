import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forward_noise_oracle
from qcens import CXGate, Circuit, NoiseModel, UGate, ValidationError, ZERO_NOISE
from qcens.ensemble import Ensemble, Evaluator, TestCase, _vote_batch
from qcens.noise import _block_indices, _depolarize_in_place, _stacks, _u_map, run_noisy
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


# run_noisy on the live qubits and the full-register oracle each stay within 1e-15 of the exact
# law of their inputs (8.7e-16 at most over 600 random circuits with untouched qubits, against
# a dense oracle in extended precision), in either direction, so they can differ by up to twice
# that: Hypothesis found 1.22e-15 (one live qubit of two). Applying each run of U gates as one
# 4x4 map moves run_noisy's last bits, not this bound: 1.0e-15 at most over 8,000 random cases
FULL_REGISTER_ATOL = 2e-15

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
    # sees a C-contiguous copy; run_noisy's do not. Both start from the partial trace over the
    # qubits the circuit leaves untouched, which is |init><init| when there are none, and apply
    # each run of U gates on a qubit as one 4x4 map
    contiguous = None if init is None else np.ascontiguousarray(init)
    want = forward_noise_oracle.run_noisy(circuit, contiguous, noise, live_only=True, u_runs=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the plain loop, gate by gate on the full register, is the independent reference
    np.testing.assert_allclose(got, forward_noise_oracle.run_noisy(circuit, contiguous, noise),
                               rtol=0, atol=FULL_REGISTER_ATOL)
    if init is not None:
        assert got.tobytes() == run_noisy(circuit, np.ascontiguousarray(init), noise).tobytes()


ANGLES = st.floats(-4 * math.pi, 4 * math.pi)


@settings(deadline=None, max_examples=200)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES, p=RATES, seed=st.integers(0, 2**32 - 1))
def test_u_map_is_the_noisy_u_step_and_its_dagger_the_adjoint_step(theta, phi, lam, p, seed):
    rng = np.random.default_rng(seed)
    u = u_matrix(theta, phi, lam)
    s = _u_map(u.tolist(), 1.0 - p)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    out = (s @ rho.reshape(4)).reshape(2, 2)  # S acts on the entry (r, c) at index 2r + c
    np.testing.assert_allclose(out, (1 - p) * u @ rho @ u.conj().T + p * np.eye(2) / 2,
                               rtol=0, atol=1e-15)
    # the backward step: S^dagger on an effect E, 0 <= E <= I, is its map's conjugate transpose,
    # which is E -> (1 - p) U^dagger E U + p Tr(E) I/2, and Tr(E S(rho)) = Tr(S^dagger(E) rho)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    effect = b @ b.conj().T / np.linalg.eigvalsh(b @ b.conj().T)[-1]
    back = (s.conj().T @ effect.reshape(4)).reshape(2, 2)
    np.testing.assert_allclose(back, (1 - p) * u.conj().T @ effect @ u
                               + p * np.trace(effect) * np.eye(2) / 2, rtol=0, atol=1e-15)
    assert abs(np.trace(effect @ out) - np.trace(back @ rho)) <= 1e-15


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       noise=NOISE_MODELS | st.builds(NoiseModel, RATES, RATES, RATES, RATES))
def test_u_gates_on_a_qubit_merge_across_other_qubits_and_split_at_a_cx_on_it(seed, n, noise):
    # U gates on q with gates on the other qubits between them are one step; the same circuit
    # with a CX on q among those gates is two, and either way run_noisy is the oracle's
    rng = np.random.default_rng(seed)
    q = int(rng.integers(n))
    others = [int(o) for o in rng.permutation(n) if o != q]

    def on_q():
        return UGate(q, *(float(a) for a in rng.uniform(0, 2 * math.pi, 3)))

    def elsewhere():
        if len(others) > 1 and rng.random() < 0.5:
            return CXGate(*(int(o) for o in rng.choice(others, size=2, replace=False)))
        return UGate(int(rng.choice(others)), *(float(a) for a in rng.uniform(0, 2 * math.pi, 3)))

    head, tail = [on_q(), elsewhere(), on_q()], [elsewhere(), on_q(), elsewhere()]
    cx = CXGate(q, others[0]) if rng.random() < 0.5 else CXGate(others[0], q)
    measured = tuple(int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    init = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    for gates, runs_on_q in ((head + tail, 1), (head + [cx] + tail, 2)):
        circuit = Circuit(n, tuple(gates), measured)
        steps = forward_noise_oracle.u_run_steps(circuit, noise.p1)
        assert sum(isinstance(step, tuple) and step[0] == q for step in steps) == runs_on_q
        got = run_noisy(circuit, init, noise)
        want = forward_noise_oracle.run_noisy(circuit, init, noise, live_only=True, u_runs=True)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, forward_noise_oracle.run_noisy(circuit, init, noise),
                                   rtol=0, atol=FULL_REGISTER_ATOL)


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
        want = forward_noise_oracle.run_noisy(circuit, init, noise, live_only=True, u_runs=True)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, forward_noise_oracle.run_noisy(circuit, init, noise),
                                   rtol=0, atol=FULL_REGISTER_ATOL)
        # one shape's stacks at most, and no result is a view of them
        assert _stacks.cache_info().currsize == 1
        assert not any(np.shares_memory(got, stack) for stack in _stacks(1 << n, batch or 1))
        kept.append((got, want))
    for got, want in kept:
        assert got.tobytes() == want.tobytes()


def on_qubits(circuit, qubits, n):
    """``circuit`` moved onto ``qubits`` (its qubit j onto qubits[j]) of an n-qubit register."""
    gates = tuple(UGate(qubits[g.target], g.theta, g.phi, g.lam) if isinstance(g, UGate)
                  else CXGate(qubits[g.control], qubits[g.target]) for g in circuit.gates)
    return Circuit(n, gates, tuple(qubits[q] for q in circuit.measured_qubits))


ALL_MODELS = [*preset_names(), "zero"]


def model(name):
    return ZERO_NOISE if name == "zero" else load_preset(name)


@pytest.mark.parametrize("name", ALL_MODELS)
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), batch=st.sampled_from([None, 1, 7]))
def test_run_noisy_on_untouched_qubits_stays_close_to_the_full_register(name, seed, n, batch):
    # random complex states entangle the untouched qubits with the live ones
    rng = np.random.default_rng(seed)
    qubits = [int(q) for q in rng.permutation(n)[:rng.integers(1, n)]]
    circuit = on_qubits(random_test_circuit(rng, num_qubits=len(qubits)), qubits, n)
    assert len(forward_noise_oracle.live_qubits(circuit)) < n
    init = None
    if batch is not None:
        init = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
        init /= np.linalg.norm(init, axis=1, keepdims=True)
    noise = model(name)
    got = run_noisy(circuit, init, noise)
    want = forward_noise_oracle.run_noisy(circuit, init, noise)
    assert np.abs(got - want).max() <= FULL_REGISTER_ATOL
    assert got.tobytes() == forward_noise_oracle.run_noisy(circuit, init, noise, live_only=True,
                                                           u_runs=True).tobytes()


def entangled_inits():
    """A Bell pair on qubits 0 and 2, and the GHZ state, of three qubits."""
    bell, ghz = np.zeros((2, 8), dtype=np.complex128)
    bell[[0b000, 0b101]] = ghz[[0b000, 0b111]] = 1 / math.sqrt(2)
    return np.stack([bell, ghz])


@pytest.mark.parametrize("name", ALL_MODELS)
def test_run_noisy_traces_out_an_untouched_qubit_entangled_with_a_live_one(name):
    # qubit 2 is untouched, but entangled with qubit 0: the live pair starts mixed, and starting
    # it from any pure state (such as the branch where qubit 2 reads 0) gives another law
    noise = model(name)
    for gates in ((), (UGate(0, 0.4, 1.2, 0.3),), (UGate(1, 0.9, 0.1, 2.0), CXGate(0, 1))):
        circuit = Circuit(3, gates, (0, 1))
        got = run_noisy(circuit, entangled_inits(), noise)
        want = forward_noise_oracle.run_noisy(circuit, entangled_inits(), noise)
        assert np.abs(got - want).max() <= FULL_REGISTER_ATOL
    # with no gates and no noise, each start reads its qubit 0 as a fair coin
    plain = run_noisy(Circuit(3, (), (0,)), entangled_inits())
    np.testing.assert_allclose(plain, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)


def test_evaluator_under_noise_traces_out_a_qubit_entangled_by_a_test_case():
    # each test case entangles qubit 2, which no member touches, with qubit 0 through a CX
    tests = [TestCase(expected=e, init_gates=(UGate(0, a, 0.3, 0.0), CXGate(0, 2),
                                              UGate(1, 1.1 * a, 0.0, 0.2)))
             for e, a in ((0, 0.7), (1, 1.9), (2, 2.6), (3, 0.2))]
    members = (Circuit(3, (UGate(0, 0.5, 0.1, 0.2), CXGate(0, 1)), (0, 1)),
               Circuit(3, (CXGate(1, 0), UGate(1, 1.3, 0.0, 0.7)), (0, 1)),
               Circuit(3, (UGate(1, 2.2, 0.4, 0.0),), (0, 1)))
    states = np.stack([t.init_state(3) for t in tests])
    expected = [t.expected for t in tests]
    storm = load_preset("storm")
    laws = np.stack([forward_noise_oracle.run_noisy(c, states, storm) for c in members])
    for size in (1, 3):
        report = Evaluator(tests, noise=storm).score([Ensemble(members[:size])])[0]
        want = _vote_batch(laws[:size])[np.arange(len(tests)), expected]
        assert np.abs(np.array(report.per_test) - want).max() <= FULL_REGISTER_ATOL


def test_calls_on_fewer_live_qubits_share_the_full_register_stacks():
    # circuits on at most 2, 3 and 4 qubits of a 4-qubit register, interleaved, each use a
    # prefix of the one held pair of (16, 16, 100) stacks, and leave no earlier result changed
    rng = np.random.default_rng(22)
    init = rng.normal(size=(100, 16)) + 1j * rng.normal(size=(100, 16))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    storm = load_preset("storm")
    run_noisy(Circuit(4, (), (0, 1, 2, 3)), init, storm)
    held = _stacks(16, 100)
    kept = []
    for i in range(12):
        m = (2, 3, 4)[i % 3]
        circuit = on_qubits(random_test_circuit(rng, num_qubits=m, max_gates=12),
                            [int(q) for q in rng.permutation(4)[:m]], 4)
        got = run_noisy(circuit, init, storm)
        want = forward_noise_oracle.run_noisy(circuit, init, storm, live_only=True, u_runs=True)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, forward_noise_oracle.run_noisy(circuit, init, storm),
                                   rtol=0, atol=FULL_REGISTER_ATOL)
        assert _stacks.cache_info().currsize == 1 and _stacks(16, 100) is held
        assert not any(np.shares_memory(got, stack) for stack in held)
        kept.append((got, want))
    for got, want in kept:
        assert got.tobytes() == want.tobytes()


def test_run_noisy_peak_memory_stays_below_the_forward_loop():
    # a full-size temporary per gate, or stacks made and freed by every call, would make the
    # allocator return and re-fault memory
    # on all 4 qubits, then on 3 and on 2 live qubits, which use a prefix of the same stacks
    rng = np.random.default_rng(16)
    circuits = (Circuit(4, (UGate(1, 0.3, 0.2, 0.1), CXGate(0, 2), UGate(3, 1.1, 2.2, 0.4),
                            CXGate(3, 1), UGate(0, 2.0, 0.5, 1.5)), (0, 1)),
                Circuit(4, (UGate(1, 0.3, 0.2, 0.1), CXGate(3, 1), UGate(3, 1.1, 2.2, 0.4),
                            CXGate(1, 0)), (0, 1)),
                Circuit(4, (UGate(1, 0.3, 0.2, 0.1), CXGate(1, 2), UGate(2, 2.0, 0.5, 1.5)), (2,)))
    init = rng.normal(size=(100, 16)) + 1j * rng.normal(size=(100, 16))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    storm = load_preset("storm")

    def peak_in_stacks(circuit):
        tracemalloc.start()
        try:
            run_noisy(circuit, init, storm)
            return tracemalloc.get_traced_memory()[1] / (16 * 16 * 100 * 16)
        finally:
            tracemalloc.stop()

    for circuit in circuits:  # fill every cache but the stacks of this shape
        run_noisy(circuit, init[:50], storm)
    # a new shape makes the stack and its scratch, on all qubits or fewer (2.13 on both when
    # measured); a buffered full-size copy, such as a CX take in mode="raise" makes, reaches 3
    for circuit in circuits[:2]:
        run_noisy(circuits[0], init[:50], storm)  # hold the other shape's stacks
        assert peak_in_stacks(circuit) <= 2.5
    # a warmed shape reuses both (0.13 when measured on 4, 3 and 2 qubits, with the states'
    # reordered copy; 2.13 when each call made its own stacks)
    for circuit in circuits * 2:
        assert peak_in_stacks(circuit) <= 0.5


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


def test_output_map_cache_stays_bounded_and_gives_the_law_a_cleared_cache_gives(rng):
    """Every noise model adds keys of its own flip rates, so the cache must be bounded."""
    circuit = random_test_circuit(rng, 3)
    models = [NoiseModel(0.01, 0.02, *rng.uniform(0, 0.5, size=2)) for _ in range(200)]
    laws = [run_noisy(circuit, noise=model) for model in models]
    info = _output_map.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    _output_map.cache_clear()
    for model, law in zip(models, laws):
        assert run_noisy(circuit, noise=model).tobytes() == law.tobytes()


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
    """A preset is one of ``preset_names()``, never a path that reaches one."""
    for name in ("nonexistent", "./storm", "../noise/storm"):
        with pytest.raises(ValidationError, match="feather"):
            load_preset(name)


def test_the_ideal_backend_name_is_reserved(tmp_path):
    """Rows evaluated under a noise model so named would read as the noiseless rows."""
    with pytest.raises(ValidationError, match="'ideal' is reserved"):
        NoiseModel(0.2, 0.0, 0.0, 0.0, name="ideal")
    path = tmp_path / "loud.txt"
    with pytest.raises(ValidationError, match="'ideal' is reserved"):
        write_noise_config(replace(ZERO_NOISE, name="ideal"), path)
    assert not path.exists()
    path.write_text("name = ideal\np1 = 0.2\np2 = 0\nreadout_flip_0to1 = 0\n"
                    "readout_flip_1to0 = 0\n")
    with pytest.raises(ValidationError, match=f"{path}: .*'ideal' is reserved"):
        load_noise_file(path)


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
