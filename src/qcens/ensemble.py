"""Ensemble semantics: plurality voting and fitness evaluation.

An ensemble's output value is the most frequent among its member circuits'
outputs; ties are split uniformly at random among the tied values.  The vote
depends only on how many members output each value, and members are
independent, so the exact output distribution follows from a dynamic program
over member-value count vectors: C(n+k-1, k-1) states for n members and k
values, rather than k**n joint outcomes.  Each member step gathers the mass
of every grown count vector t from its predecessors t - e_v.  For increasing
v these have increasing lexicographic index, so the terms are added in the
order a scatter over (previous vector, value) pairs adds them, and a missing
predecessor adds +0.0 to a non-negative sum: the gather is bit-identical to
that scatter (``bincount_vote_oracle`` in the tests).  Fitness is the mean
probability of producing the expected output value over a set of test cases.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, UGate
from .errors import StructuralError, ValidationError
from .noise import NoiseModel, run_noisy
from .statevector import evolve_state, run_ideal, sample_shots, zero_state

# Ensemble fitness is reported rounded to this many decimals.  Fitnesses that
# are equal in exact arithmetic but differ in their last bits, by the summation
# order of the vote or the simulation, then tie, so neither evolution's
# selection nor a comparison's ranks depend on that order.
SELECTION_DECIMALS = 12


@dataclass(frozen=True, slots=True)
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

    ``features`` holds one rotation angle per qubit, shorthand for the gates
    U(a_j, 0, 0) on qubit j; ``init_gates`` holds an explicit initialization
    gate list.  Exactly one of the two must be given; both prepare the
    register by running their gates on |0...0>.
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
        gates = self.init_gates
        if self.features is not None:
            if len(self.features) != num_qubits:
                raise StructuralError(
                    f"test case has {len(self.features)} features "
                    f"but the register has {num_qubits} qubits"
                )
            gates = tuple(UGate(j, a, 0.0, 0.0) for j, a in enumerate(self.features))
        init_circuit = Circuit(num_qubits, gates, tuple(range(num_qubits)))
        return evolve_state(init_circuit, zero_state(num_qubits))


@dataclass(frozen=True, slots=True)
class FitnessReport:
    """Mean probability of the expected output, with the per-test breakdown.

    ``per_test`` is kept as one float64 buffer, ``array('d')``, whatever
    sequence it is given, so reports compare element by element.
    """

    fitness: float
    per_test: array

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_test", array("d", self.per_test))


@lru_cache(maxsize=None)
def _count_tables(k: int, n: int) -> tuple[tuple, np.ndarray]:
    """Tables of the count-vector DP for n members over k output values.

    Count vectors start as the k unit vectors of the first member's value and
    are kept in ``np.unique`` (lexicographic) order.  Each later member step
    has a (k, S') predecessor table: ``pred[v, t]`` is the index of count
    vector t - e_v among the S previous count vectors, or S, the index of an
    all-zero row, when t has no vote for v.  The final (states, k) matrix puts
    1/|W| on each value in the set W of plurality winners of a count vector.
    """
    steps = []
    counts = np.eye(k, dtype=np.int64)
    for _ in range(n - 1):
        grown = (counts[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k)
        grown_counts, target = np.unique(grown, axis=0, return_inverse=True)
        pred = np.full((k, len(grown_counts)), len(counts), dtype=np.intp)
        pred[np.arange(k), target.reshape(len(counts), k)] = np.arange(len(counts))[:, None]
        steps.append(pred)
        counts = grown_counts
    winners = counts == counts.max(axis=1, keepdims=True)
    return tuple(steps), winners / winners.sum(axis=1, keepdims=True)


def _vote_batch(member_dists: np.ndarray) -> np.ndarray:
    """Exact vote over dists of shape (n_members, batch, k) -> (batch, k).

    P(count vector) is held as (states + 1, batch), the last row zero.  Each
    member step gathers a grown vector's mass from its predecessors, one
    term per value v in increasing v, and sums the k terms in that order.
    """
    n, batch, k = member_dists.shape
    steps, split = _count_tables(k, n)
    dists = np.ascontiguousarray(member_dists.transpose(0, 2, 1))  # (n, k, batch)
    prob = np.zeros((k + 1, batch))
    prob[:-1] = dists[0]
    for dist, pred in zip(dists[1:], steps):
        terms = prob[pred]  # (k, states, batch)
        terms *= dist[:, None, :]
        prob = np.empty((pred.shape[1] + 1, batch))
        prob[-1] = 0.0
        np.add.reduce(terms, axis=0, out=prob[:-1])  # adds term v after terms 0..v-1
    # (batch, states) @ (states, k) on a C-contiguous copy: the product on the
    # transposed view sums in another order, and its last bits differ
    return prob[:-1].T.copy() @ split


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

    Precomputes initialization states once and caches what each member slot
    feeds the vote for two generations: the values looked up since the last
    ``next_generation()`` and those of the generation before.  A circuit that
    appears in many ensembles (elites, homogeneous replicas) or survives into
    the next generation is simulated once; one absent for a whole generation
    is simulated again.  ``shots=None`` feeds the exact member distributions
    (member laws), cached per circuit.  Otherwise each slot feeds
    ``shots``-sample empirical estimates of its circuit's law, cached per
    (circuit, slot): test t of slot m is sampled from the RNG stream derived
    from (seed, t, m), so results do not depend on evaluation order.
    """

    def __init__(self, tests, noise: NoiseModel | None = None,
                 shots: int | None = None, seed: int = 0):
        self.tests = list(tests)
        if not self.tests:
            raise ValidationError("test list must be non-empty")
        if shots is not None and shots < 1:
            raise ValidationError(f"shots must be >= 1, got {shots}")
        if seed < 0:
            raise ValidationError("seed must be >= 0")
        self.noise = noise
        self.shots = shots
        self.seed = seed
        self._init_states: np.ndarray | None = None
        self._expected: np.ndarray = np.array([t.expected for t in self.tests])
        self._max_expected = int(self._expected.max())
        self._dist_cache: dict = {}  # key: circuit, or (circuit, slot) with shots
        self._previous: dict = {}
        # per slot, the (state, inc) of each test's PCG64 stream before its first draw
        self._streams: dict[int, list[tuple[int, int]]] = {}
        self._rng = np.random.default_rng(0)  # restarted from a stream before each draw

    def _states_for(self, num_qubits: int) -> np.ndarray:
        if self._init_states is None:
            self._init_states = np.stack(
                [t.init_state(num_qubits) for t in self.tests]
            )
        elif self._init_states.shape[-1] != 1 << num_qubits:
            raise StructuralError("test cases were prepared for a different register width")
        return self._init_states

    def next_generation(self) -> None:
        """Keep only the values looked up since the last call, as the previous generation."""
        self._previous, self._dist_cache = self._dist_cache, {}

    def member_distributions(self, circuit: Circuit, slot: int = 0) -> np.ndarray:
        """What member slot ``slot`` feeds the vote for ``circuit``, shape (T, k):
        the exact per-test output distributions, or their shot estimates."""
        key = circuit if self.shots is None else (circuit, slot)
        dists = self._dist_cache.get(key)
        if dists is not None:
            return dists
        dists = self._previous.get(key)
        if dists is None:
            states = self._states_for(circuit.num_qubits)
            if self.noise is None:
                dists = run_ideal(circuit, states)
            else:
                dists = run_noisy(circuit, states, self.noise)
            if self.shots is not None:
                dists = self._degrade_to_shots(dists, slot)
        self._dist_cache[key] = dists
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
            [self.member_distributions(c, m) for m, c in enumerate(ensemble.circuits)]
        )
        vote = _vote_batch(member_dists)
        per_test = vote[np.arange(len(self.tests)), self._expected]
        return FitnessReport(round(float(per_test.mean()), SELECTION_DECIMALS),
                             per_test.tolist())

    def _degrade_to_shots(self, dists: np.ndarray, slot: int) -> np.ndarray:
        """Shot estimates of per-test laws (T, k): test t is drawn from stream
        (seed, t, slot), restarted from its start state, derived once per slot."""
        streams = self._streams.get(slot)
        if streams is None:
            starts = (np.random.PCG64(np.random.SeedSequence((self.seed, t, slot))).state["state"]
                      for t in range(len(self.tests)))
            streams = self._streams[slot] = [(s["state"], s["inc"]) for s in starts]
        out = np.empty_like(dists)
        for t, (state, inc) in enumerate(streams):
            self._rng.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            out[t] = sample_shots(dists[t], self.shots, self._rng)
        return out


def ensemble_fitness(ensemble: Ensemble, tests, noise: NoiseModel | None = None,
                     shots: int | None = None, seed: int = 0) -> FitnessReport:
    """Fitness of one ensemble: mean expected-output probability over tests."""
    return Evaluator(tests, noise=noise, shots=shots, seed=seed).ensemble_fitness(ensemble)
