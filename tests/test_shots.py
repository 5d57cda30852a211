"""Shots mode: each member slot feeds the vote shot estimates drawn from the RNG
streams keyed by (seed, test, slot), sampled once per (circuit, slot) while
the circuit stays in the two-generation cache."""

from array import array

import numpy as np
import pytest

import qcens.ensemble as ensemble
from qcens import Circuit, CXGate, EvolutionConfig, UGate, evolve
from qcens.ensemble import Ensemble, Evaluator, FitnessReport, TestCase, _vote_batch
from qcens.errors import ValidationError
from qcens.iris import bundled_dataset_path, encode_all, load_dataset, split
from qcens.serialization import read_population, write_population
from qcens.statevector import sample_shots

from conftest import (THREE_QUBIT_TESTS, circuits_sharing_a_light_cone, load_perfbench,
                      random_test_circuit)

IRIS_TESTS = split(encode_all(load_dataset(bundled_dataset_path())), 100, 3)[0][:30]
oracle = load_perfbench("oracle")


def shot_estimates(laws, shots: int, seed: int) -> np.ndarray:
    """(n, T, k) exact laws -> the oracle's shot estimates of each member slot."""
    return np.stack([oracle.shot_estimates(law, shots, seed, m) for m, law in enumerate(laws)])


def oracle_report(members, tests, shots: int, seed: int) -> FitnessReport:
    exact = Evaluator(tests)
    laws = [exact.member_distributions(c) for c in members]
    vote = _vote_batch(shot_estimates(laws, shots, seed))
    per_test = vote[np.arange(len(tests)), [t.expected for t in tests]]
    return FitnessReport(round(float(per_test.mean()), ensemble.SELECTION_DECIMALS), per_test)


@pytest.mark.parametrize("shots", [1, 100, 1000])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_shot_fitness_matches_the_per_pair_seed_sequence_oracle(n, shots):
    rng = np.random.default_rng(100 * n + shots)
    pool = [Circuit(4, random_test_circuit(rng, 4).gates, (0, 1)) for _ in range(n + 2)]
    evaluator = Evaluator(IRIS_TESTS, shots=shots, seed=17)
    for generation in range(3):  # cache hits, slot moves and a fresh pool member
        members = [pool[(generation + m) % len(pool)] for m in range(n)]
        got, = evaluator.score([Ensemble(members)])
        want = oracle_report(members, IRIS_TESTS, shots, 17)
        assert (got.fitness, list(got.per_test)) == (want.fitness, list(want.per_test))


def count_draws(monkeypatch) -> list:
    """Patches ``sample_shots`` to record ``shots`` once per law drawn: a block
    call adds one entry per row."""
    draws = []

    def counting_sample_shots(dists, shots, rng, starts=None):
        draws.extend([shots] * len(dists))
        return sample_shots(dists, shots, rng, starts)

    monkeypatch.setattr(ensemble, "sample_shots", counting_sample_shots)
    return draws


def test_circuit_slot_is_sampled_once_per_two_generations(monkeypatch):
    draws = count_draws(monkeypatch)
    a, b = (Circuit(2, (UGate(q, 1.0, 0.5, 0.0), CXGate(q, 1 - q)), (0, 1)) for q in (0, 1))
    c = Circuit(2, (UGate(0, 2.0, 0.0, 0.0),), (0, 1))
    tests = [TestCase(expected=t % 4, features=(0.3 * t, 0.5 * t)) for t in range(7)]
    evaluator = Evaluator(tests, shots=50, seed=4)
    per_generation = []
    for generation in ([a, b], [a, b], [a, c], [a, b]):
        before = len(draws)
        evaluator.score([Ensemble(tuple(generation))])
        per_generation.append((len(draws) - before) // len(tests))
    # (a, 0) stays cached throughout; (b, 1) is absent from the third generation
    assert per_generation == [2, 0, 1, 1]


def test_one_circuit_in_two_slots_gets_each_slots_estimate():
    circuit = Circuit(2, (UGate(0, 1.3, 0.0, 0.0), UGate(1, 2.1, 0.0, 0.0)), (0, 1))
    tests = [TestCase(expected=0, features=(0.1 * t, 0.2 * t)) for t in range(6)]
    evaluator = Evaluator(tests, shots=100, seed=8)
    report = evaluator.ensemble_fitness(Ensemble((circuit, circuit)))
    laws = Evaluator(tests).member_distributions(circuit)
    estimates = [evaluator.member_distributions(circuit, slot) for slot in (0, 1)]
    assert not np.array_equal(estimates[0], estimates[1])
    want = shot_estimates([laws, laws], 100, 8)
    np.testing.assert_array_equal(np.stack(estimates), want)
    assert report == oracle_report([circuit, circuit], tests, 100, 8)


def test_circuits_that_differ_outside_the_light_cone_share_one_estimate_per_slot(monkeypatch):
    draws = count_draws(monkeypatch)
    cone, a, b = circuits_sharing_a_light_cone()
    evaluator = Evaluator(THREE_QUBIT_TESTS, shots=50, seed=4)
    evaluator.score([Ensemble((a, b)), Ensemble((b, a)), Ensemble((cone, cone))])
    assert len(draws) == 2 * len(THREE_QUBIT_TESTS)  # one block per slot
    law = Evaluator(THREE_QUBIT_TESTS).member_distributions(cone)
    for slot in (0, 1):
        estimates = [evaluator.member_distributions(c, slot) for c in (a, b, cone)]
        assert estimates[0] is estimates[1] is estimates[2]
        np.testing.assert_array_equal(estimates[0], oracle.shot_estimates(law, 50, 4, slot))
    assert not np.array_equal(evaluator.member_distributions(a, 0),
                              evaluator.member_distributions(a, 1))


def test_fitness_report_holds_per_test_as_float64_array(tmp_path):
    config = EvolutionConfig(population_size=6, generations=2, ensemble_size=3, seed=5,
                             shots=100, tournament_size=3)
    population = evolve(config, IRIS_TESTS)
    for report in population.fitnesses:
        assert isinstance(report.per_test, array) and report.per_test.typecode == "d"
        assert FitnessReport(report.fitness, tuple(report.per_test)) == report
    path = tmp_path / "population.json"
    write_population(population, path)
    restored = read_population(path)
    assert restored == population
    assert all(isinstance(r.per_test, array) for r in restored.fitnesses)


def test_shot_counts_run_up_to_the_int64_bound_of_numpys_multinomial():
    circuit = Circuit(4, (UGate(0, 1.0, 0.0, 0.0),), (0, 1))
    report, = Evaluator(IRIS_TESTS[:3], shots=2**63 - 1).score([Ensemble((circuit,))])
    assert 0.0 <= report.fitness <= 1.0
    refusals = (lambda shots: Evaluator(IRIS_TESTS, shots=shots),
                lambda shots: EvolutionConfig(shots=shots),
                lambda shots: sample_shots(np.array([0.5, 0.5]), shots, np.random.default_rng(0)))
    for shots in (0, 2**63):
        for refuse in refusals:
            with pytest.raises(ValidationError, match=r"shots must be in \[1, 2\*\*63 - 1\]"):
                refuse(shots)
