import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens import Circuit, StructuralError, UGate, ValidationError
from qcens.statevector import (
    _apply_gate,
    apply_cx,
    apply_u,
    run_ideal,
    sample_shots,
    u_matrix,
    zero_state,
)

from conftest import HADAMARD, X, bell_circuit, tv_distance

INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def fancy_index_gate_oracle(state, n, gate):
    """The U kernel as an index gather: the amplitudes whose target bit is 0, and
    their partners with the bit set, are copied out, combined and scattered back."""
    idx = np.arange(1 << n)
    i0 = idx[(idx >> gate.target) & 1 == 0]
    i1 = i0 | (1 << gate.target)
    mat = u_matrix(gate.theta, gate.phi, gate.lam)
    out = np.empty_like(state)
    a = state[..., i0]
    b = state[..., i1]
    out[..., i0] = mat[0, 0] * a + mat[0, 1] * b
    out[..., i1] = mat[1, 0] * a + mat[1, 1] * b
    return out


def basis(num_qubits, index):
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


def test_u_identity():
    state = apply_u(zero_state(1), 0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(state, [1.0, 0.0], atol=1e-12)


def test_u_as_x_gate():
    state = apply_u(zero_state(1), 0, *X)
    np.testing.assert_allclose(np.abs(state), [0.0, 1.0], atol=1e-12)


def test_u_as_hadamard():
    state = apply_u(zero_state(1), 0, *HADAMARD)
    np.testing.assert_allclose(state, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_cx_truth_table():
    # |10> (qubit1=1, qubit0=0) -> |11>
    np.testing.assert_allclose(apply_cx(basis(2, 0b10), 1, 0), basis(2, 0b11), atol=0)
    # |01>: control qubit1 is 0, nothing happens
    np.testing.assert_allclose(apply_cx(basis(2, 0b01), 1, 0), basis(2, 0b01), atol=0)


def test_cx_linearity_bell():
    plus_on_q1 = (basis(2, 0b00) + basis(2, 0b10)) * INV_SQRT2
    bell = apply_cx(plus_on_q1, 1, 0)
    np.testing.assert_allclose(bell, (basis(2, 0b00) + basis(2, 0b11)) * INV_SQRT2,
                               atol=1e-12)


def test_cx_rejects_bad_qubits():
    with pytest.raises(StructuralError):
        apply_cx(zero_state(2), 1, 1)
    with pytest.raises(StructuralError):
        apply_cx(zero_state(2), 0, 2)


def test_apply_u_rejects_bad_target_and_angle():
    with pytest.raises(StructuralError):
        apply_u(zero_state(1), 1, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        apply_u(zero_state(1), 0, math.nan, 0.0, 0.0)


def test_run_ideal_noop_circuit():
    circuit = Circuit(4, (), (0, 1))
    np.testing.assert_allclose(run_ideal(circuit), [1.0, 0.0, 0.0, 0.0], atol=0)


def test_run_ideal_hadamard_measurement():
    circuit = Circuit(1, (UGate(0, *HADAMARD),), (0,))
    np.testing.assert_allclose(run_ideal(circuit), [0.5, 0.5], atol=1e-12)


def test_run_ideal_bell_marginals():
    np.testing.assert_allclose(run_ideal(bell_circuit()), [0.5, 0.0, 0.0, 0.5],
                               atol=1e-12)


def test_run_ideal_dimension_mismatch():
    with pytest.raises(StructuralError):
        run_ideal(Circuit(2, (), (0,)), zero_state(3))


def test_run_ideal_batch_matches_single(rng):
    circuit = bell_circuit()
    states = np.stack([zero_state(2), basis(2, 0b01), basis(2, 0b11)])
    batched = run_ideal(circuit, states)
    for i, state in enumerate(states):
        np.testing.assert_allclose(batched[i], run_ideal(circuit, state), atol=1e-12)


@given(theta=angles, phi=angles, lam=angles)
def test_u_matrix_is_unitary(theta, phi, lam):
    mat = u_matrix(theta, phi, lam)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)


@given(theta=angles, phi=angles, lam=angles, init_angle=angles)
def test_u_inverse_parameterization(theta, phi, lam, init_angle):
    # U(theta, phi, lam)^(-1) = U(-theta, -lam, -phi)
    state = apply_u(zero_state(1), 0, init_angle, 0, 0)
    forward = apply_u(state, 0, theta, phi, lam)
    back = apply_u(forward, 0, -theta, -lam, -phi)
    np.testing.assert_allclose(back, state, atol=1e-10)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_preserved_by_random_gate_sequences(seed):
    from conftest import random_test_circuit

    rng = np.random.default_rng(seed)
    circuit = random_test_circuit(rng, num_qubits=3)
    state = zero_state(3)
    for gate in circuit.gates:
        state = _apply_gate(state, 3, gate)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 7),
       batch=st.sampled_from([(), (1,), (5,), (3, 2)]),
       theta=angles, phi=angles, lam=angles)
def test_u_kernel_is_bit_identical_to_the_index_gather(data, n, batch, theta, phi, lam):
    gate = UGate(data.draw(st.integers(0, n - 1), label="target"), theta, phi, lam)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = batch + (1 << n,)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.array_equal(_apply_gate(state, n, gate), fancy_index_gate_oracle(state, n, gate))


def test_one_gate_helpers_take_the_circuit_register_cap():
    # apply_u and apply_cx run their gate as a one-gate Circuit, capped at 16 qubits
    state = np.zeros(1 << 17, dtype=np.complex128)
    state[0] = 1.0
    with pytest.raises(ValidationError, match=r"num_qubits must be in \[1, 16\], got 17"):
        apply_u(state, 0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="got 17"):
        apply_cx(state, 0, 1)


def test_gate_locality_on_product_state():
    # rotating qubit 2 must not change the marginal over qubits {0, 1}
    base = Circuit(3, (UGate(0, 1.1, 0.2, 0.3), UGate(1, 0.7, 0.0, 0.5)), (0, 1))
    touched = Circuit(3, base.gates + (UGate(2, 2.2, 1.0, 0.1),), (0, 1))
    np.testing.assert_allclose(run_ideal(base), run_ideal(touched), atol=1e-12)


def test_sample_shots_deterministic_source(rng):
    dist = np.array([1.0, 0.0])
    np.testing.assert_allclose(sample_shots(dist, 1000, rng), [1.0, 0.0], atol=0)


def test_sample_shots_seed_determinism():
    dist = np.array([0.3, 0.7])
    a = sample_shots(dist, 1000, np.random.default_rng(5))
    b = sample_shots(dist, 1000, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_sample_shots_binomial_bound(rng):
    # 5 sigma band around 0.5 at 1000 shots, sigma ~ 0.0158
    dist = np.array([0.5, 0.5])
    empirical = sample_shots(dist, 1000, rng)
    assert abs(empirical[0] - 0.5) < 5 * math.sqrt(0.25 / 1000)


def test_sample_shots_concentration(rng):
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    empirical = sample_shots(dist, 10**6, rng)
    assert tv_distance(empirical, dist) < 0.005


def test_sample_shots_rejects_zero_shots(rng):
    with pytest.raises(ValidationError):
        sample_shots(np.array([1.0]), 0, rng)


masses = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
# A row repeats masses from a small pool, as circuit laws do.  With two equal
# entries last, numpy's multinomial ends on a binomial at p near 0.5, and it
# draws p > 0.5 as n minus a draw at 1 - p: an ulp of the normalized law then
# flips the draw, so such rows pin the bits of the normalization.
laws = st.integers(1, 8).flatmap(lambda k: st.lists(
    st.lists(masses, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    .filter(lambda row: sum(row) > 0), min_size=1, max_size=6))


@settings(deadline=None)
@given(block=laws, shots=st.integers(1, 10**6), seed=st.integers(0, 2**32 - 1))
def test_a_block_draws_each_row_as_a_single_law_from_its_start(block, shots, seed):
    """Unnormalized rows with zero entries: the block draws, bit for bit, what one
    single-law call per row draws from ``rng`` restored at that row's start, and
    a single law draws what ``multinomial(shots, d / d.sum()) / shots`` draws."""
    block = np.array(block)
    starts = [np.random.PCG64(np.random.SeedSequence((seed, t))).state
              for t in range(len(block))]
    got = sample_shots(block, shots, np.random.default_rng(0), starts)
    rng = np.random.default_rng(0)
    for law, start, row in zip(block, starts, got):
        rng.bit_generator.state = start
        single = sample_shots(law, shots, rng)
        rng.bit_generator.state = start
        formula = rng.multinomial(shots, law / law.sum()) / shots
        assert row.tobytes() == single.tobytes() == formula.tobytes()


@pytest.mark.parametrize("law", [[0.0, 0.0], [0.5, -0.1, 0.6], [math.nan, 1.0],
                                 [math.inf, 1.0]], ids=["zero-sum", "negative", "nan", "inf"])
@pytest.mark.parametrize("as_block", [False, True], ids=["law", "block"])
def test_sample_shots_refuses_a_law_it_cannot_normalize(law, as_block, rng):
    dists = np.array(law)
    if as_block:
        dists = np.stack([np.full(len(law), 1.0), dists])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide or invalid-value warning first
        with pytest.raises(ValidationError, match="finite, non-negative entries"):
            sample_shots(dists, 100, rng)


def test_run_ideal_distribution_validity(rng):
    from conftest import random_test_circuit

    for _ in range(50):
        circuit = random_test_circuit(rng, num_qubits=4)
        dist = run_ideal(circuit)
        assert np.all(dist >= -1e-15)
        assert abs(dist.sum() - 1.0) < 1e-9
