"""Slow, independent reference for the outputs the benchmark checks.

Everything here is written from the definitions in FORMATS.md, not from the
qcens simulators: each gate is a dense 2**q x 2**q unitary built with
``kron``; noise evolves an explicit density matrix and depolarizes by an
explicit partial trace; readout error is a full 2**m x 2**m transition
matrix; the plurality vote enumerates every joint member outcome.  Circuits
and test cases are read through their data-class fields only (``gates``,
``measured_qubits``, ``init_gates``, ``features``, ``expected``).

Run ``python3 perfbench/oracle.py`` to check the oracle on known cases.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache, reduce

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
P0 = np.diag([1.0, 0.0]).astype(np.complex128)
P1 = np.diag([0.0, 1.0]).astype(np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
TOL = 1e-9
VOTE_CHUNK = 8  # tests per block in the vote, which keeps the oracle's memory small


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -cmath.exp(1j * lam) * s],
                     [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]])


def _on_qubits(ops: dict, num_qubits: int) -> np.ndarray:
    """kron of per-qubit 2x2 operators; qubit 0 is the least significant bit."""
    return reduce(np.kron, [ops.get(q, I2) for q in reversed(range(num_qubits))])


def gate_unitary(gate, num_qubits: int) -> np.ndarray:
    if hasattr(gate, "control"):
        return (_on_qubits({gate.control: P0}, num_qubits)
                + _on_qubits({gate.control: P1, gate.target: PAULI_X}, num_qubits))
    return _on_qubits({gate.target: u_matrix(gate.theta, gate.phi, gate.lam)}, num_qubits)


def gate_qubits(gate) -> tuple[int, ...]:
    return (gate.control, gate.target) if hasattr(gate, "control") else (gate.target,)


def initial_states(tests, num_qubits: int) -> np.ndarray:
    """(T, 2**q) register states prepared by each test case."""
    states = []
    for case in tests:
        if case.features is not None:
            qubits = {q: np.array([math.cos(a / 2.0), math.sin(a / 2.0)])
                      for q, a in enumerate(case.features)}
            states.append(reduce(np.kron, [qubits[q] for q in reversed(range(num_qubits))])
                          .astype(np.complex128))
        else:
            psi = np.zeros(1 << num_qubits, dtype=np.complex128)
            psi[0] = 1.0
            for gate in case.init_gates:
                psi = gate_unitary(gate, num_qubits) @ psi
            states.append(psi)
    return np.stack(states)


def marginal(probs: np.ndarray, measured: tuple[int, ...]) -> np.ndarray:
    """(T, 2**q) basis probabilities -> (T, 2**m) output-value probabilities."""
    out = np.zeros((probs.shape[0], 1 << len(measured)))
    for index in range(probs.shape[1]):
        value = sum(((index >> q) & 1) << pos for pos, q in enumerate(measured))
        out[:, value] += probs[:, index]
    return out


def ideal_dists(circuit, states: np.ndarray) -> np.ndarray:
    psi = states
    for gate in circuit.gates:
        psi = psi @ gate_unitary(gate, circuit.num_qubits).T
    return marginal(np.abs(psi) ** 2, circuit.measured_qubits)


@lru_cache(maxsize=None)
def _partial_trace_indices(num_qubits: int, qubits: tuple[int, ...]):
    """Index arrays for Tr_Q: out[i, j] = sum_a rho[i|a, j|a] where i, j agree on Q."""
    mask = sum(1 << q for q in qubits)
    subsets = [sum(1 << q for q, bit in zip(qubits, bits) if bit)
               for bits in itertools.product((0, 1), repeat=len(qubits))]
    rows, cols = [], []
    for i in range(1 << num_qubits):
        for j in range(1 << num_qubits):
            if i & mask == j & mask:
                rows.append(i)
                cols.append(j)
    rows, cols = np.array(rows), np.array(cols)
    sources = [((rows & ~mask) | a, (cols & ~mask) | a) for a in subsets]
    return rows, cols, sources


def depolarize(rho: np.ndarray, qubits: tuple[int, ...], p: float, num_qubits: int) -> np.ndarray:
    """(1 - p) rho + p (I_Q / 2**|Q|) (x) Tr_Q rho, by explicit partial trace."""
    if p == 0.0:
        return rho
    rows, cols, sources = _partial_trace_indices(num_qubits, tuple(sorted(qubits)))
    mixed = np.zeros_like(rho)
    mixed[:, rows, cols] = sum(rho[:, r, c] for r, c in sources) / (1 << len(qubits))
    return (1.0 - p) * rho + p * mixed


def readout_matrix(m: int, flip_0to1: float, flip_1to0: float) -> np.ndarray:
    """M[out, in] = prod over bits of P(out bit | in bit)."""
    law = {(0, 0): 1.0 - flip_0to1, (1, 0): flip_0to1, (0, 1): flip_1to0, (1, 1): 1.0 - flip_1to0}
    k = 1 << m
    return np.array([[math.prod(law[((o >> b) & 1, (i >> b) & 1)] for b in range(m))
                      for i in range(k)] for o in range(k)])


def noisy_dists(circuit, states: np.ndarray, noise) -> np.ndarray:
    """``noise`` has p1, p2, readout_flip_0to1 and readout_flip_1to0."""
    q = circuit.num_qubits
    rho = states[:, :, None] * states.conj()[:, None, :]
    for gate in circuit.gates:
        u = gate_unitary(gate, q)
        rho = u @ rho @ u.conj().T
        qubits = gate_qubits(gate)
        rho = depolarize(rho, qubits, noise.p2 if len(qubits) == 2 else noise.p1, q)
    probs = np.real(np.diagonal(rho, axis1=1, axis2=2))
    dist = marginal(probs, circuit.measured_qubits)
    trans = readout_matrix(len(circuit.measured_qubits),
                           noise.readout_flip_0to1, noise.readout_flip_1to0)
    return dist @ trans.T


def shot_estimates(dists: np.ndarray, shots: int, seed: int, member: int) -> np.ndarray:
    """Empirical law of ``shots`` draws per test, RNG stream (seed, test, member)."""
    out = np.empty_like(dists)
    for t, dist in enumerate(dists):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t, member)))
        out[t] = rng.multinomial(shots, dist / dist.sum()) / float(shots)
    return out


@lru_cache(maxsize=None)
def vote_table(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every joint outcome of n members over k values, and its vote split."""
    outcomes = list(itertools.product(range(k), repeat=n))
    split = np.zeros((len(outcomes), k))
    for row, outcome in enumerate(outcomes):
        counts = [outcome.count(v) for v in range(k)]
        winners = [v for v in range(k) if counts[v] == max(counts)]
        for v in winners:
            split[row, v] = 1.0 / len(winners)
    return np.array(outcomes), split


def vote(member_dists: np.ndarray) -> np.ndarray:
    """(n, T, k) member laws -> (T, k) plurality-vote law with uniform ties."""
    n, num_tests, k = member_dists.shape
    outcomes, split = vote_table(k, n)
    out = np.empty((num_tests, k))
    for start in range(0, num_tests, VOTE_CHUNK):
        block = member_dists[:, start:start + VOTE_CHUNK]
        joint = np.ones((block.shape[1], len(outcomes)))
        for m in range(n):
            joint *= block[m][:, outcomes[:, m]]
        out[start:start + VOTE_CHUNK] = joint @ split
    return out


class Scorer:
    """Reference fitness of ensembles on one test set under one backend."""

    def __init__(self, tests, num_qubits: int, noise=None, shots: int | None = None,
                 seed: int = 0):
        self.states = initial_states(tests, num_qubits)
        self.expected = np.array([case.expected for case in tests])
        self.noise, self.shots, self.seed = noise, shots, seed
        self._dists: dict = {}

    def member(self, circuit) -> np.ndarray:
        if circuit not in self._dists:
            self._dists[circuit] = (ideal_dists(circuit, self.states) if self.noise is None
                                    else noisy_dists(circuit, self.states, self.noise))
        return self._dists[circuit]

    def per_test(self, circuits, laws=None) -> np.ndarray:
        """Per-test fitness.  With shots, ``laws`` are the exact member laws to
        sample from: a multinomial draw is discontinuous in the last ulp of its
        law, so the caller passes the program's own laws once they have been
        checked against ``member`` to ``TOL``."""
        dists = [self.member(c) for c in circuits]
        if self.shots is not None:
            dists = [shot_estimates(d, self.shots, self.seed, m)
                     for m, d in enumerate(dists if laws is None else laws)]
        law = vote(np.stack(dists))
        return law[np.arange(len(self.expected)), self.expected]

    def fitness(self, circuits) -> float:
        return float(self.per_test(circuits).mean())


def selfcheck() -> list[str]:
    """Known cases; returns the names of those the oracle gets wrong."""
    from types import SimpleNamespace as NS

    def u(target, theta, phi, lam):
        return NS(target=target, theta=theta, phi=phi, lam=lam)

    def circuit(q, gates, measured):
        return NS(num_qubits=q, gates=tuple(gates), measured_qubits=tuple(measured))

    zero = lambda q: initial_states([NS(features=None, init_gates=())], q)  # noqa: E731
    x_gate = u(0, math.pi, 0.0, math.pi)
    hadamard = u(0, math.pi / 2, 0.0, math.pi)
    bell = circuit(2, [hadamard, NS(control=0, target=1)], (0, 1))
    quiet = NS(p1=0.0, p2=0.0, readout_flip_0to1=0.0, readout_flip_1to0=0.0)
    cases = {
        "x": (ideal_dists(circuit(1, [x_gate], (0,)), zero(1))[0], [0.0, 1.0]),
        "bell": (ideal_dists(bell, zero(2))[0], [0.5, 0.0, 0.0, 0.5]),
        "bell-noisy-zero": (noisy_dists(bell, zero(2), quiet)[0], [0.5, 0.0, 0.0, 0.5]),
        "full-depolarizing": (
            noisy_dists(circuit(1, [x_gate], (0,)), zero(1),
                        NS(p1=1.0, p2=0.0, readout_flip_0to1=0.0, readout_flip_1to0=0.0))[0],
            [0.5, 0.5]),
        "readout-flip": (
            noisy_dists(circuit(1, [x_gate], (0,)), zero(1),
                        NS(p1=0.0, p2=0.0, readout_flip_0to1=0.0, readout_flip_1to0=0.1))[0],
            [0.1, 0.9]),
        "vote-tie-split": (vote(np.array([[[0.6, 0.4]], [[0.5, 0.5]]]))[0], [0.55, 0.45]),
        "vote-majority": (vote(np.array([[[0.9, 0.1]]] * 3))[0],
                          [0.9**3 + 3 * 0.9**2 * 0.1, 0.1**3 + 3 * 0.1**2 * 0.9]),
    }
    return [name for name, (got, want) in cases.items()
            if not np.allclose(got, want, rtol=0.0, atol=1e-12)]


if __name__ == "__main__":
    wrong = selfcheck()
    print("oracle self-check:", "ok" if not wrong else "FAILED " + ", ".join(wrong))
    raise SystemExit(1 if wrong else 0)
