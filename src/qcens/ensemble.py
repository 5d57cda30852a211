"""Ensemble semantics: plurality voting and fitness evaluation.

An ensemble's output value is the most frequent among its member circuits'
outputs; ties are split uniformly at random among the tied values.  The vote
depends only on how many members output each value, and members are
independent, so the exact output distribution follows from a dynamic program
over member-value count vectors: C(n+k-1, k-1) states for n members and k
values, rather than k**n joint outcomes.  Fitness is the mean probability of
producing the expected output value over a set of test cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit
from .errors import StructuralError, ValidationError
from .noise import NoiseModel, run_noisy
from .statevector import run_ideal, sample_shots, state_from_angles, evolve_state, zero_state

# Ensemble fitness is reported rounded to this many decimals.  Fitnesses that
# are equal in exact arithmetic but differ in their last bits, by the summation
# order of the vote or the simulation, then tie, so neither evolution's
# selection nor a comparison's ranks depend on that order.
SELECTION_DECIMALS = 12


@dataclass(frozen=True)
class Ensemble:
    """Fixed-size list of circuits sharing register width and measured qubits."""

    circuits: tuple[Circuit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "circuits", tuple(self.circuits))
        if not self.circuits:
            raise ValidationError("ensemble must have at least one member")
        first = self.circuits[0]
        for c in self.circuits[1:]:
            if c.num_qubits != first.num_qubits or c.measured_qubits != first.measured_qubits:
                raise StructuralError(
                    "ensemble members must share num_qubits and measured_qubits"
                )

    def __len__(self) -> int:
        return len(self.circuits)

    @property
    def num_qubits(self) -> int:
        return self.circuits[0].num_qubits

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return self.circuits[0].measured_qubits


@dataclass(frozen=True)
class TestCase:
    """Register initialization plus the expected output value.

    ``features`` holds one rotation angle per qubit (the register is prepared
    as a product of single-qubit Y rotations); ``init_gates`` holds an explicit
    initialization gate list.  Exactly one of the two must be given.
    """

    __test__ = False  # keep pytest from collecting this dataclass

    expected: int
    features: tuple[float, ...] | None = None
    init_gates: tuple | None = None

    def __post_init__(self) -> None:
        if (self.features is None) == (self.init_gates is None):
            raise ValidationError("test case needs exactly one of features / init_gates")
        if self.features is not None:
            object.__setattr__(self, "features", tuple(float(f) for f in self.features))
        else:
            object.__setattr__(self, "init_gates", tuple(self.init_gates))
        if self.expected < 0:
            raise ValidationError(f"expected output must be >= 0, got {self.expected}")

    def init_state(self, num_qubits: int) -> np.ndarray:
        if self.features is not None:
            if len(self.features) != num_qubits:
                raise StructuralError(
                    f"test case has {len(self.features)} features "
                    f"but the register has {num_qubits} qubits"
                )
            return state_from_angles(self.features)
        init_circuit = Circuit(num_qubits, self.init_gates, tuple(range(num_qubits)))
        return evolve_state(init_circuit, zero_state(num_qubits))


@dataclass(frozen=True)
class FitnessReport:
    """Mean probability of the expected output, with the per-test breakdown."""

    fitness: float
    per_test: tuple[float, ...]


@lru_cache(maxsize=None)
def _count_tables(k: int, n: int) -> tuple[tuple, np.ndarray]:
    """Tables of the count-vector DP for n members over k output values.

    Count vectors start as the k unit vectors of the first member's value.
    Each later member step has one ``target`` array that maps the pair (count
    vector, next value), flattened, to the index of the grown count vector.
    The final (states, k) matrix puts 1/|W| on each value in the set W of
    plurality winners of a count vector.
    """
    steps = []
    counts = np.eye(k, dtype=np.int64)
    for _ in range(n - 1):
        grown = (counts[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k)
        counts, target = np.unique(grown, axis=0, return_inverse=True)
        steps.append((target.ravel(), len(counts)))
    winners = counts == counts.max(axis=1, keepdims=True)
    return tuple(steps), winners / winners.sum(axis=1, keepdims=True)


def _vote_batch(member_dists: np.ndarray) -> np.ndarray:
    """Exact vote over dists of shape (n_members, batch, k) -> (batch, k)."""
    n, batch, k = member_dists.shape
    steps, split = _count_tables(k, n)
    prob = member_dists[0]  # P(count vector) over the members seen so far
    for dist, (target, states) in zip(member_dists[1:], steps):
        joint = prob[:, :, None] * dist[:, None, :]
        index = target + states * np.arange(batch)[:, None]
        prob = np.bincount(index.ravel(), weights=joint.ravel(),
                           minlength=batch * states).reshape(batch, states)
    return prob @ split


def vote_distribution(member_dists) -> np.ndarray:
    """Ensemble output distribution under plurality voting with uniform ties.

    Exact for any ensemble size: a DP over member-value count vectors.
    """
    dists = [np.asarray(d, dtype=np.float64) for d in member_dists]
    if not dists:
        raise ValidationError("vote over an empty member list")
    k = dists[0].shape[-1]
    for d in dists:
        if d.shape != (k,):
            raise StructuralError("member distributions must share one output domain")
    return _vote_batch(np.stack(dists)[:, None, :])[0]


def replicate_homogeneous(circuit: Circuit, n: int) -> Ensemble:
    """Homogeneous ensemble: the same circuit repeated n times."""
    if n < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {n}")
    return Ensemble((circuit,) * n)


class Evaluator:
    """Evaluates ensemble fitness against a fixed test set.

    Precomputes initialization states once and caches per-circuit output
    distributions (member laws) for two generations: the laws looked up since
    the last ``next_generation()`` and those of the generation before, so a
    circuit that appears in many ensembles (elites, homogeneous replicas) or
    survives into the next generation is simulated once.  A circuit absent for
    a whole generation is simulated again.  ``shots=None`` keeps the exact
    member distributions; otherwise each (test, member) pair degrades its
    distribution to a ``shots``-sample empirical estimate using an RNG stream
    derived from (seed, test index, member index), making results independent
    of evaluation order.
    """

    def __init__(self, tests, noise: NoiseModel | None = None,
                 shots: int | None = None, seed: int = 0):
        self.tests = list(tests)
        if not self.tests:
            raise ValidationError("test list must be non-empty")
        if shots is not None and shots < 1:
            raise ValidationError(f"shots must be >= 1, got {shots}")
        self.noise = noise
        self.shots = shots
        self.seed = seed
        self._init_states: np.ndarray | None = None
        self._expected: np.ndarray = np.array([t.expected for t in self.tests])
        self._max_expected = int(self._expected.max())
        self._dist_cache: dict[Circuit, np.ndarray] = {}
        self._previous: dict[Circuit, np.ndarray] = {}

    def _states_for(self, num_qubits: int) -> np.ndarray:
        if self._init_states is None:
            self._init_states = np.stack(
                [t.init_state(num_qubits) for t in self.tests]
            )
        elif self._init_states.shape[-1] != 1 << num_qubits:
            raise StructuralError("test cases were prepared for a different register width")
        return self._init_states

    def next_generation(self) -> None:
        """Keep only the laws looked up since the last call, as the previous generation."""
        self._previous, self._dist_cache = self._dist_cache, {}

    def member_distributions(self, circuit: Circuit) -> np.ndarray:
        """Per-test output distributions for one circuit, shape (T, k)."""
        dists = self._dist_cache.get(circuit)
        if dists is not None:
            return dists
        dists = self._previous.get(circuit)
        if dists is None:
            states = self._states_for(circuit.num_qubits)
            if self.noise is None:
                dists = run_ideal(circuit, states)
            else:
                dists = run_noisy(circuit, states, self.noise)
        self._dist_cache[circuit] = dists
        return dists

    def ensemble_fitness(self, ensemble: Ensemble) -> FitnessReport:
        k = ensemble.circuits[0].num_output_values
        if self._max_expected >= k:
            t = int(np.argmax(self._expected >= k))
            raise ValidationError(
                f"test {t} expects value {self._expected[t]}, "
                f"but circuits output only {k} values"
            )
        member_dists = np.stack(
            [self.member_distributions(c) for c in ensemble.circuits]
        )
        if self.shots is not None:
            member_dists = self._degrade_to_shots(member_dists)
        vote = _vote_batch(member_dists)
        per_test = vote[np.arange(len(self.tests)), self._expected]
        return FitnessReport(round(float(per_test.mean()), SELECTION_DECIMALS),
                             tuple(per_test.tolist()))

    def _degrade_to_shots(self, member_dists: np.ndarray) -> np.ndarray:
        n, num_tests, _ = member_dists.shape
        out = np.empty_like(member_dists)
        for t in range(num_tests):
            for m in range(n):
                rng = np.random.default_rng(np.random.SeedSequence((self.seed, t, m)))
                out[m, t] = sample_shots(member_dists[m, t], self.shots, rng)
        return out


def ensemble_fitness(ensemble: Ensemble, tests, noise: NoiseModel | None = None,
                     shots: int | None = None, seed: int = 0) -> FitnessReport:
    """Fitness of one ensemble: mean expected-output probability over tests."""
    return Evaluator(tests, noise=noise, shots=shots, seed=seed).ensemble_fitness(ensemble)
