"""``Evaluator`` end to end against the benchmark's independent reference,
``perfbench/oracle.py``: dense kron-built unitaries, an explicit density matrix
with partial-trace depolarizing, a full readout matrix, the enumerated vote
and a fresh ``SeedSequence`` per (test, member) shot draw."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens import Circuit, NoiseModel
from qcens.ensemble import Ensemble, Evaluator, TestCase
from qcens.noisefiles import load_preset, preset_names

from conftest import load_perfbench, random_test_circuit

oracle = load_perfbench("oracle")
rates = st.floats(0.0, 1.0)
noise_models = st.one_of(st.none(), st.sampled_from(preset_names()).map(load_preset),
                         st.builds(NoiseModel, rates, rates, rates, rates))


def draw_case(rng, num_qubits: int, k: int) -> TestCase:
    expected = int(rng.integers(k))
    if rng.random() < 0.5:
        return TestCase(expected, features=tuple(rng.uniform(0, np.pi, num_qubits)))
    return TestCase(expected, init_gates=random_test_circuit(rng, num_qubits, 4).gates)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 4),
    n=st.integers(1, 7),
    num_tests=st.integers(1, 20),
    noise=noise_models,
    shots=st.sampled_from([None, 1, 100]),
)
def test_evaluator_matches_the_reference_oracle(seed, num_qubits, n, num_tests, noise, shots):
    rng = np.random.default_rng(seed)
    measured = tuple(int(q) for q in rng.permutation(num_qubits))
    # the oracle enumerates all k**n joint outcomes: keep k**n <= 4**7
    measured = measured[:max(1, min(len(measured), 14 // n))]
    k = 1 << len(measured)
    members = Ensemble(tuple(Circuit(num_qubits, random_test_circuit(rng, num_qubits).gates,
                                     measured) for _ in range(n)))
    tests = [draw_case(rng, num_qubits, k) for _ in range(num_tests)]
    evaluator = Evaluator(tests, noise=noise, shots=shots, seed=seed)
    scorer = oracle.Scorer(tests, num_qubits, noise=noise, shots=shots, seed=seed)

    laws = [Evaluator(tests, noise=noise).member_distributions(c) for c in members.circuits]
    for law, circuit in zip(laws, members.circuits):
        np.testing.assert_allclose(law, scorer.member(circuit), rtol=0, atol=oracle.TOL)
    report = evaluator.ensemble_fitness(members)
    np.testing.assert_allclose(report.per_test, scorer.per_test(members.circuits, laws),
                               rtol=0, atol=oracle.TOL)
    evaluator.next_generation()
    assert evaluator.ensemble_fitness(members) == report
