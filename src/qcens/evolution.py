"""Evolutionary search over populations of fixed-size circuit ensembles.

Generational loop with elitism, tournament selection, ensemble-level uniform
crossover (optionally followed by one-point gate-list crossover on one member
pair) and a five-way circuit mutation menu.  Everything is driven by a single
seeded RNG, so runs are fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, CXGate, Gate, UGate
from .ensemble import Ensemble, Evaluator, FitnessReport
from .errors import StructuralError, ValidationError
from .noise import NoiseModel

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EvolutionConfig:
    num_qubits: int = 4
    measured_qubits: tuple[int, ...] = (0, 1)
    population_size: int = 60
    generations: int = 200
    ensemble_size: int = 5
    gate_cap: int = 12
    crossover_rate: float = 0.7
    mutation_rate: float = 0.2  # per member circuit
    tournament_size: int = 5
    elite_fraction: float = 0.05
    angle_sigma: float = 0.1
    seed: int = 0
    shots: int | None = None  # None = exact fitness; paper-style runs use 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured_qubits", tuple(self.measured_qubits))
        Circuit(self.num_qubits, (), self.measured_qubits)  # checks the register
        if self.population_size < 2:
            raise ValidationError("population_size must be >= 2")
        if self.generations < 1:
            raise ValidationError("generations must be >= 1")
        if self.ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")
        if self.gate_cap < 1:
            raise ValidationError("gate_cap must be >= 1")
        for name in ("crossover_rate", "mutation_rate", "elite_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValidationError("tournament_size must be in [1, population_size]")
        if self.angle_sigma < 0.0:
            raise ValidationError("angle_sigma must be >= 0")
        if self.shots is not None and self.shots < 1:
            raise ValidationError("shots must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class Population:
    individuals: tuple[Ensemble, ...]
    fitnesses: tuple[FitnessReport, ...]
    generation: int
    config: EvolutionConfig | None = None

    def __post_init__(self) -> None:
        if len(self.individuals) != len(self.fitnesses):
            raise StructuralError("individuals and fitnesses must have equal length")


def _random_gate(config: EvolutionConfig, rng: np.random.Generator) -> Gate:
    if config.num_qubits >= 2 and rng.random() < 0.5:
        control, target = rng.choice(config.num_qubits, size=2, replace=False)
        return CXGate(int(control), int(target))
    target = int(rng.integers(config.num_qubits))
    theta, phi, lam = rng.uniform(0.0, TWO_PI, size=3)
    return UGate(target, float(theta), float(phi), float(lam))


def random_circuit(config: EvolutionConfig, rng: np.random.Generator) -> Circuit:
    """Uniform-length random circuit over the U/CX gate distribution."""
    length = int(rng.integers(1, config.gate_cap + 1))
    gates = tuple(_random_gate(config, rng) for _ in range(length))
    return Circuit(config.num_qubits, gates, config.measured_qubits)


_MUTATIONS = ("insert", "delete", "replace", "perturb", "rewire")


def mutate(circuit: Circuit, config: EvolutionConfig, rng: np.random.Generator) -> Circuit:
    """Apply one applicable mutation operator, re-drawing inapplicable picks."""
    gates = list(circuit.gates)
    while True:
        op = _MUTATIONS[int(rng.integers(len(_MUTATIONS)))]
        if op == "insert" and len(gates) < config.gate_cap:
            pos = int(rng.integers(len(gates) + 1))
            gates.insert(pos, _random_gate(config, rng))
            break
        if op == "delete" and len(gates) > 1:
            del gates[int(rng.integers(len(gates)))]
            break
        if op == "replace":
            gates[int(rng.integers(len(gates)))] = _random_gate(config, rng)
            break
        if op == "perturb":
            u_positions = [i for i, g in enumerate(gates) if isinstance(g, UGate)]
            if not u_positions:
                continue
            pos = u_positions[int(rng.integers(len(u_positions)))]
            gate = gates[pos]
            which = ("theta", "phi", "lam")[int(rng.integers(3))]
            delta = float(rng.normal(0.0, config.angle_sigma)) if config.angle_sigma > 0 else 0.0
            gates[pos] = replace(gate, **{which: getattr(gate, which) + delta})
            break
        if op == "rewire":
            pos = int(rng.integers(len(gates)))
            gate = gates[pos]
            if isinstance(gate, UGate):
                gates[pos] = replace(gate, target=int(rng.integers(config.num_qubits)))
                break
            if config.num_qubits < 2:
                continue
            slot = "control" if rng.random() < 0.5 else "target"
            other = gate.target if slot == "control" else gate.control
            choices = [q for q in range(config.num_qubits) if q != other]
            gates[pos] = replace(gate, **{slot: choices[int(rng.integers(len(choices)))]})
            break
    return Circuit(circuit.num_qubits, tuple(gates), circuit.measured_qubits)


def _one_point_gate_crossover(a: Circuit, b: Circuit, cap: int,
                              rng: np.random.Generator) -> tuple[Circuit, Circuit]:
    # shared cut point keeps crossover of identical parents an identity
    cut = int(rng.integers(1, min(len(a.gates), len(b.gates)) + 1))
    gates_a = (a.gates[:cut] + b.gates[cut:])[:cap]
    gates_b = (b.gates[:cut] + a.gates[cut:])[:cap]
    return (
        Circuit(a.num_qubits, gates_a, a.measured_qubits),
        Circuit(b.num_qubits, gates_b, b.measured_qubits),
    )


def crossover(a: Ensemble, b: Ensemble, config: EvolutionConfig,
              rng: np.random.Generator) -> tuple[Ensemble, Ensemble]:
    """Uniform member-slot crossover, plus an optional gate-level one-point event."""
    if len(a) != len(b):
        raise StructuralError(f"ensemble size mismatch: {len(a)} vs {len(b)}")
    if a.num_qubits != b.num_qubits or a.measured_qubits != b.measured_qubits:
        raise StructuralError("ensembles have different register dimensions")
    members_a = list(a.circuits)
    members_b = list(b.circuits)
    for slot in range(len(members_a)):
        if rng.random() < 0.5:
            members_a[slot], members_b[slot] = members_b[slot], members_a[slot]
    if rng.random() < 0.5:
        slot = int(rng.integers(len(members_a)))
        members_a[slot], members_b[slot] = _one_point_gate_crossover(
            members_a[slot], members_b[slot], config.gate_cap, rng
        )
    return Ensemble(tuple(members_a)), Ensemble(tuple(members_b))


def random_ensemble(config: EvolutionConfig, rng: np.random.Generator) -> Ensemble:
    return Ensemble(tuple(random_circuit(config, rng) for _ in range(config.ensemble_size)))


def _tournament(fitnesses: list[float], config: EvolutionConfig,
                rng: np.random.Generator) -> int:
    contenders = rng.integers(len(fitnesses), size=config.tournament_size)
    best = None
    for i in sorted(int(c) for c in contenders):  # ties go to the lower index
        if best is None or fitnesses[i] > fitnesses[best]:
            best = i
    return best


def evolve(config: EvolutionConfig, evolution_tests,
           noise: NoiseModel | None = None, log=None) -> Population:
    """Run the generational loop and return the final evaluated population."""
    if not evolution_tests:
        raise ValidationError("evolution test list must be non-empty")
    rng = np.random.default_rng(config.seed)
    evaluator = Evaluator(evolution_tests, noise=noise,
                          shots=config.shots, seed=config.seed)
    individuals = [random_ensemble(config, rng) for _ in range(config.population_size)]
    reports = _evaluate_all(evaluator, individuals)
    _log_generation(log, 0, reports)
    elite_count = math.ceil(config.elite_fraction * config.population_size)
    for generation in range(1, config.generations + 1):
        fitnesses = [r.fitness for r in reports]  # rounded by the Evaluator
        order = sorted(range(len(individuals)), key=lambda i: (-fitnesses[i], i))
        offspring = [individuals[i] for i in order[:elite_count]]
        while len(offspring) < config.population_size:
            parent_a = individuals[_tournament(fitnesses, config, rng)]
            parent_b = individuals[_tournament(fitnesses, config, rng)]
            if rng.random() < config.crossover_rate:
                child_a, child_b = crossover(parent_a, parent_b, config, rng)
            else:
                child_a, child_b = parent_a, parent_b
            for child in (child_a, child_b):
                members = tuple(
                    mutate(c, config, rng) if rng.random() < config.mutation_rate else c
                    for c in child.circuits
                )
                offspring.append(Ensemble(members))
                if len(offspring) == config.population_size:
                    break
        individuals = offspring
        reports = _evaluate_all(evaluator, individuals)
        _log_generation(log, generation, reports)
    return Population(tuple(individuals), tuple(reports), config.generations, config)


def _evaluate_all(evaluator: Evaluator, individuals) -> list[FitnessReport]:
    # Laws of this generation and the one before stay cached: survivors are not
    # simulated again, and memory is bounded by two generations' circuits.
    evaluator.next_generation()
    return [evaluator.ensemble_fitness(e) for e in individuals]


def _log_generation(log, generation: int, reports) -> None:
    if log is None:
        return
    fits = [r.fitness for r in reports]
    log(f"gen {generation:4d}  best {max(fits):.6f}  mean {sum(fits) / len(fits):.6f}")
