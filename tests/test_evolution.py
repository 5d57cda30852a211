import math

import numpy as np
import pytest

from qcens import (
    Circuit,
    CXGate,
    EvolutionConfig,
    StructuralError,
    UGate,
    ValidationError,
    crossover,
    evolve,
    mutate,
    random_circuit,
)
import qcens.ensemble as ensemble
import qcens.evolution as evolution
from qcens.ensemble import Ensemble, Evaluator, FitnessReport, TestCase
from qcens.evolution import Population, random_ensemble
from qcens.iris import bundled_dataset_path, encode_all, load_dataset, split
from qcens.noisefiles import load_preset
from qcens.serialization import _population_text
from qcens.statevector import run_ideal

from conftest import (THREE_QUBIT_TESTS, circuits_sharing_a_light_cone, count_votes,
                      load_perfbench)

oracle = load_perfbench("oracle")


def small_config(**kw):
    defaults = dict(num_qubits=2, measured_qubits=(0, 1), population_size=8,
                    generations=3, ensemble_size=3, gate_cap=5, seed=1)
    defaults.update(kw)
    return EvolutionConfig(**defaults)


TRIVIAL_TEST = [TestCase(expected=0, features=(0.0, 0.0))]


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(population_size=1)
    with pytest.raises(ValidationError):
        small_config(generations=0)
    with pytest.raises(ValidationError):
        small_config(crossover_rate=1.5)
    with pytest.raises(ValidationError):
        small_config(tournament_size=9)
    with pytest.raises(ValidationError):
        small_config(num_qubits=0)
    with pytest.raises(StructuralError):
        small_config(measured_qubits=(0, 2))
    with pytest.raises(ValidationError):
        small_config(seed=-1)
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="angle_sigma must be finite"):
            small_config(angle_sigma=sigma)
    for field in ("ensemble_size", "gate_cap"):
        with pytest.raises(ValidationError, match=f"{field} must be >= 1"):
            small_config(**{field: 0})
    with pytest.raises(ValidationError, match=r"shots must be in \[1, 2\*\*63 - 1\]"):
        small_config(shots=0)


def test_population_refuses_unequal_lengths():
    individual = random_ensemble(small_config(), np.random.default_rng(0))
    with pytest.raises(StructuralError, match="equal length"):
        Population((individual, individual), (FitnessReport(1.0, (1.0,)),), 0)


@pytest.mark.parametrize("num_qubits, measured, error", [
    (3, (0, 1), r"^ensemble 2 has 3 qubits measured on \(0, 1\), but ensemble 0 has 2 "),
    (2, (1, 0), r"^ensemble 2 has 2 qubits measured on \(1, 0\), but ensemble 0 has 2 "),
])
def test_population_refuses_a_second_register(num_qubits, measured, error):
    rng = np.random.default_rng(0)
    same = random_ensemble(small_config(), rng)
    other = random_ensemble(small_config(num_qubits=num_qubits, measured_qubits=measured), rng)
    with pytest.raises(StructuralError, match=error):
        Population((same, same, other), (FitnessReport(1.0, (1.0,)),) * 3, 0)


def test_random_circuit_forced_length():
    config = small_config(gate_cap=1)
    circuit = random_circuit(config, np.random.default_rng(0))
    assert len(circuit.gates) == 1


def test_random_circuit_single_qubit_is_u_only():
    config = small_config(num_qubits=1, measured_qubits=(0,))
    rng = np.random.default_rng(0)
    for _ in range(20):
        circuit = random_circuit(config, rng)
        assert all(isinstance(g, UGate) for g in circuit.gates)


def test_random_circuit_seed_determinism():
    config = small_config()
    a = random_circuit(config, np.random.default_rng(42))
    b = random_circuit(config, np.random.default_rng(42))
    assert a == b


def test_mutate_respects_gate_cap():
    config = small_config(gate_cap=3)
    rng = np.random.default_rng(0)
    circuit = random_circuit(config, rng)
    for _ in range(200):
        circuit = mutate(circuit, config, rng)
        assert 1 <= len(circuit.gates) <= 3


def test_mutate_never_empties_a_single_gate_circuit():
    config = small_config(gate_cap=1)
    rng = np.random.default_rng(1)
    circuit = random_circuit(config, rng)
    for _ in range(100):
        circuit = mutate(circuit, config, rng)
        assert len(circuit.gates) == 1


def test_mutate_zero_sigma_perturbation_is_identity():
    config = small_config(angle_sigma=0.0)
    rng = np.random.default_rng(0)
    circuit = random_circuit(config, rng)
    # draw until the perturb operator fires; angles must be unchanged then
    for _ in range(500):
        mutated = mutate(circuit, config, rng)
        if (len(mutated.gates) == len(circuit.gates)
                and all(type(a) is type(b) for a, b in zip(mutated.gates, circuit.gates))):
            pass  # replace can also preserve shape; just check validity below
        for gate in mutated.gates:
            gate.validate(config.num_qubits)


def test_crossover_of_clones_returns_clones():
    config = small_config()
    rng = np.random.default_rng(5)
    parent = random_ensemble(config, rng)
    child_a, child_b = crossover(parent, parent, config, rng)
    # gate-level crossover between identical members still reproduces them
    assert child_a == parent and child_b == parent


def test_crossover_slot_swap_conserves_members():
    config = small_config()
    rng = np.random.default_rng(6)
    a = random_ensemble(config, rng)
    b = random_ensemble(config, rng)
    for _ in range(50):
        child_a, child_b = crossover(a, b, config, rng)
        parent_multiset = sorted(map(repr, a.circuits + b.circuits))
        child_multiset = sorted(map(repr, child_a.circuits + child_b.circuits))
        if child_multiset == parent_multiset:
            break
    else:
        pytest.fail("no pure slot-swap event observed in 50 crossovers")


def test_crossover_size_mismatch():
    config = small_config()
    rng = np.random.default_rng(0)
    a = random_ensemble(config, rng)
    b = random_ensemble(small_config(ensemble_size=2), rng)
    with pytest.raises(StructuralError):
        crossover(a, b, config, rng)


@pytest.mark.parametrize("register", [dict(num_qubits=3), dict(measured_qubits=(1, 0))],
                         ids=["width", "measured-order"])
def test_crossover_refuses_ensembles_on_different_registers(register):
    config = small_config()
    rng = np.random.default_rng(0)
    a = random_ensemble(config, rng)
    b = random_ensemble(small_config(**register), rng)
    with pytest.raises(StructuralError, match="different register dimensions"):
        crossover(a, b, config, rng)


def test_pure_elitism_returns_initial_population():
    config = small_config(generations=1, elite_fraction=1.0)
    population = evolve(config, TRIVIAL_TEST)
    rng = np.random.default_rng(config.seed)
    initial = [random_ensemble(config, rng) for _ in range(config.population_size)]
    assert sorted(map(repr, population.individuals)) == sorted(map(repr, initial))


def test_a_tournament_picks_its_fittest_contender_and_the_lower_index_on_a_tie(monkeypatch):
    """With no elites, crossover or mutation, each offspring is one tournament's winner."""
    fitness = [0.5, 1.0, 0.0, 1.0, 0.25, 1.0, 0.0, 0.5]
    scored, draws = [], []

    class ScriptedEvaluator:  # generation 0 scores ``fitness``
        def __init__(self, *args, **kwargs):
            pass

        def score(self, individuals):
            scored.append(list(individuals))
            return [FitnessReport(f, [f]) for f in fitness]

    seeded = np.random.default_rng

    class RecordingGenerator:  # records the contenders each tournament draws
        def __init__(self, seed):
            self.rng = seeded(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def integers(self, *args, size=None):
            values = self.rng.integers(*args, size=size)
            if size is not None:
                draws.append(values.tolist())
            return values

    monkeypatch.setattr(evolution, "Evaluator", ScriptedEvaluator)
    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    config = small_config(population_size=len(fitness), generations=1, ensemble_size=1,
                          tournament_size=3, elite_fraction=0.0, crossover_rate=0.0,
                          mutation_rate=0.0, seed=4)
    evolve(config, TRIVIAL_TEST)
    first, offspring = scored
    assert len(draws) == len(offspring) == len(fitness)
    tied = 0
    for contenders, child in zip(draws, offspring):
        best = max(fitness[i] for i in contenders)
        fittest = sorted({i for i in contenders if fitness[i] == best})
        assert child == first[fittest[0]]
        tied += len(fittest) > 1
    assert tied > 0


def test_evolve_seed_determinism():
    config = small_config(generations=5)
    a = evolve(config, TRIVIAL_TEST)
    b = evolve(config, TRIVIAL_TEST)
    assert _population_text(a) == _population_text(b)


def test_small_run_solves_trivial_problem():
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1),
                             population_size=20, generations=50,
                             ensemble_size=1, gate_cap=6, seed=3)
    tests = [TestCase(expected=0, features=(0.0, 0.0, 0.0, 0.0))]
    population = evolve(config, tests)
    best = max(r.fitness for r in population.fitnesses)
    assert best >= 0.99


def test_monotone_elite_best_fitness():
    config = small_config(generations=10, elite_fraction=0.25)
    bests = []
    evolve(config, TRIVIAL_TEST,
           log=lambda line: bests.append(float(line.split("best")[1].split()[0])))
    assert bests == sorted(bests)


def test_population_invariants_after_evolution():
    config = small_config(generations=5, gate_cap=4)
    population = evolve(config, TRIVIAL_TEST)
    assert len(population.individuals) == config.population_size
    assert len(population.fitnesses) == config.population_size
    for ensemble in population.individuals:
        assert len(ensemble) == config.ensemble_size
        for circuit in ensemble.circuits:
            assert 1 <= len(circuit.gates) <= config.gate_cap
            assert circuit.num_qubits == config.num_qubits
            assert circuit.measured_qubits == config.measured_qubits
            for gate in circuit.gates:
                gate.validate(config.num_qubits)
                if isinstance(gate, CXGate):
                    assert gate.control != gate.target
    for report in population.fitnesses:
        assert 0.0 <= report.fitness <= 1.0


def test_evolve_rejects_empty_tests():
    with pytest.raises(ValidationError):
        evolve(small_config(), [])


def test_shots_mode_evolution_is_deterministic():
    config = small_config(generations=2, shots=100)
    a = evolve(config, TRIVIAL_TEST)
    b = evolve(config, TRIVIAL_TEST)
    assert _population_text(a) == _population_text(b)


def test_population_does_not_depend_on_vote_summation_order(monkeypatch):
    """The DP and the k**n enumeration differ in the last bits, not in selection."""
    dataset = load_dataset(bundled_dataset_path())
    tests, _ = split(encode_all(dataset), 100, 0)
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=20,
                             generations=30, ensemble_size=5, seed=0)
    by_dp = evolve(config, tests)
    monkeypatch.setattr(ensemble, "_vote_batch", oracle.vote)
    by_enumeration = evolve(config, tests)
    assert by_dp.individuals == by_enumeration.individuals


IRIS_TESTS = split(encode_all(load_dataset(bundled_dataset_path())), 100, 0)[0][:20]


@pytest.mark.parametrize("noise, shots", [(None, None), ("storm", None), (None, 100)],
                         ids=["ideal", "storm", "shots-100"])
def test_two_generation_cache_evolves_the_uncached_population(monkeypatch, noise, shots):
    """Oracle: a fresh Evaluator for every ensemble simulates every circuit again
    and votes every repeat again."""
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=12,
                             generations=8, ensemble_size=3, gate_cap=6, seed=2, shots=shots)
    model = load_preset(noise) if noise else None
    cached = evolve(config, IRIS_TESTS, noise=model)

    def score_uncached(self, ensembles):
        return [Evaluator(self.tests, noise=self.noise, shots=self.shots,
                          seed=self.seed).ensemble_fitness(e) for e in ensembles]

    monkeypatch.setattr(Evaluator, "score", score_uncached)
    assert _population_text(evolve(config, IRIS_TESTS, noise=model)) == \
        _population_text(cached)


def count_simulations(monkeypatch) -> list:
    calls = []

    def counting_run_ideal(circuit, states):
        calls.append(circuit)
        return run_ideal(circuit, states)

    monkeypatch.setattr(ensemble, "run_ideal", counting_run_ideal)
    return calls


def test_circuit_in_consecutive_generations_is_simulated_once(monkeypatch):
    calls = count_simulations(monkeypatch)
    config = small_config(generations=6, crossover_rate=0.0, mutation_rate=0.0)
    rng = np.random.default_rng(config.seed)
    initial = {c for _ in range(config.population_size)
               for c in random_ensemble(config, rng).circuits}
    evolve(config, TRIVIAL_TEST)  # offspring are copies, so no circuit returns after a gap
    assert sorted(map(repr, calls)) == sorted(map(repr, initial))


def test_circuit_absent_for_a_generation_is_simulated_again(monkeypatch):
    calls = count_simulations(monkeypatch)
    a, b = (Circuit(2, (UGate(q, 1.0, 0.0, 0.0),), (0, 1)) for q in (0, 1))
    evaluator = Evaluator(TRIVIAL_TEST)
    for generation in ([a, a, b], [a], [a, b]):
        evaluator.score([Ensemble(tuple(generation))])
    assert calls == [a, b, b]  # a stays cached; b, absent from the middle generation, does not


def test_repeats_in_one_score_call_are_each_voted_to_equal_reports(monkeypatch):
    simulated = count_simulations(monkeypatch)
    voted = count_votes(monkeypatch)
    a, b = (Circuit(2, (UGate(q, 1.0, 0.0, 0.0),), (0, 1)) for q in (0, 1))
    first = Ensemble((a, b))
    ensembles = [first, Ensemble((b, a)), Ensemble((a, b)), first]
    reports = Evaluator(TRIVIAL_TEST).score(ensembles)
    assert [id(e) for e in voted] == [id(e) for e in ensembles]
    assert reports[0] == reports[2] == reports[3]
    assert simulated == [a, b]  # repeats and reordered members vote on cached laws


@pytest.mark.parametrize("noise", [None, "storm"])
def test_circuits_that_differ_outside_the_light_cone_share_one_simulation(monkeypatch, noise):
    simulated = []
    for name in ("run_ideal", "run_noisy"):
        def counting(circuit, *args, real=getattr(ensemble, name)):
            simulated.append(circuit)
            return real(circuit, *args)
        monkeypatch.setattr(ensemble, name, counting)
    cone, a, b = circuits_sharing_a_light_cone()
    evaluator = Evaluator(THREE_QUBIT_TESTS, noise=load_preset(noise) if noise else None)
    for generation in ([a, b], [cone], [a]):  # a, absent for a call, finds the cone's law
        evaluator.score([Ensemble(tuple(generation))])
    assert simulated == [cone]
    laws = [evaluator.member_distributions(c) for c in (a, b, cone)]
    assert laws[0] is laws[1] is laws[2]


@pytest.mark.parametrize("noise, shots", [(None, None), ("storm", None), (None, 20)],
                         ids=["ideal", "storm", "shots-20"])
def test_member_distributions_is_looked_up_once_per_member_slot(monkeypatch, noise, shots):
    """perfbench counts ``ensemble.member_lookups`` by wrapping this method, so the
    light cone must be resolved without calling it again."""
    looked_up = []
    real = Evaluator.member_distributions

    def counting(self, circuit, slot=0):
        looked_up.append(slot)
        return real(self, circuit, slot)

    monkeypatch.setattr(Evaluator, "member_distributions", counting)
    voted = count_votes(monkeypatch)
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=10,
                             generations=4, ensemble_size=3, gate_cap=8, seed=5, shots=shots)
    evolve(config, IRIS_TESTS, noise=load_preset(noise) if noise else None)
    cone, a, b = circuits_sharing_a_light_cone()
    evaluator = Evaluator(THREE_QUBIT_TESTS, shots=shots)
    voted_before = len(voted)
    evaluator.score([Ensemble((a, b, cone)), Ensemble((cone, a, a)), Ensemble((b, b, b))])
    assert len(voted) == voted_before + 3
    assert looked_up == [m for e in voted for m in range(len(e))]
