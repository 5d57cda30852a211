"""Parametric noise models and density-matrix simulation.

A NoiseModel applies a depolarizing channel after every gate (strength p1 for
single-qubit U gates, p2 on both qubits touched by a CX) and classical readout
bit-flips to the final measured distribution.  Simulation evolves a density
matrix, so results are exact and deterministic.  It evolves only the m live qubits, those a
gate acts on or that are measured: no channel acts on the others, so the measured law follows
from the partial trace of |init><init| over them (Nielsen & Chuang, §2.4.3 and §8.2-8.3), at
4**m rather than 4**n per test and gate.  A U gate and the depolarizing after it are one linear
map on the four (row bit, column bit) entries of its target, a 4x4 superoperator, and the
depolarizing commutes with any unitary on its qubit (§8.2-8.3); so each run of U gates on a qubit
with no CX on it between is applied as one step, the product of their maps, which is the same
channel.  ``run_noisy`` updates its B states (the flattened test
batch) in place: one (2**n, 2**n, B) stack, and one scratch stack, of which m live qubits use a
(2**m, 2**m, B) prefix.  Both are reused across calls of one shape and held until a call of
another, so only one thread may run it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .circuits import Circuit, UGate
from .errors import ValidationError
from .statevector import _cx_permutation, _initial_state, _output_map, u_matrix

MAX_DENSITY_QUBITS = 10
IDEAL = "ideal"  # the result-row backend of a noiseless evaluation; no noise model may take it


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strengths plus per-bit readout flip probabilities."""

    p1: float
    p2: float
    readout_flip_0to1: float
    readout_flip_1to0: float
    name: str = ""

    def __post_init__(self) -> None:
        for field in RATE_FIELDS:
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{field} must be in [0, 1], got {value}")
        if self.name == IDEAL:
            raise ValidationError(f"noise model name {IDEAL!r} is reserved for noiseless rows")


RATE_FIELDS = tuple(f.name for f in fields(NoiseModel) if f.type == "float")
ZERO_NOISE = NoiseModel(0.0, 0.0, 0.0, 0.0, name="zero")


@lru_cache(maxsize=1)
def _stacks(d: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``run_noisy``'s (d, d, b) state and scratch stacks, held for the last shape only."""
    return np.empty((d, d, b), np.complex128), np.empty((d, d, b), np.complex128)


@lru_cache(maxsize=None)
def _block_indices(n: int, qubits: tuple[int, ...]) -> tuple[tuple, ...]:
    """Index of each block of a (2,) * 2n + (B,) stack where row and column agree on ``qubits``."""
    axes = {a: k for k, q in enumerate(qubits) for a in (n - 1 - q, 2 * n - 1 - q)}  # row, column
    return tuple(tuple(bits[axes[a]] if a in axes else slice(None) for a in range(2 * n))
                 for bits in itertools.product((0, 1), repeat=len(qubits)))


def _depolarize_in_place(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: float,
                         scratch: np.ndarray) -> None:
    """rho <- (1 - p) * rho + p * (I / 2**m on the m qubits, tensor their partial trace) on a
    (2**n, 2**n, B) stack: that is their blocks' mean, added where row and column agree on them."""
    tensor = rho.reshape((2,) * (2 * n) + rho.shape[-1:])
    blocks = [tensor[i] for i in _block_indices(n, qubits)]
    mixed = scratch.reshape(-1)[:blocks[0].size].reshape(blocks[0].shape)
    mixed[...] = 0  # as sum(blocks) starts, so the sign of a zero sum is the same
    for block in blocks:
        mixed += block
    mixed *= p / len(blocks)
    rho *= 1.0 - p
    for block in blocks:
        block += mixed


def _u_map(u: list, keep: float) -> np.ndarray:
    """The 4x4 superoperator of rho -> keep * U rho U^dagger + (1 - keep) * Tr(rho) * I/2 on one
    qubit's entries (row bit r, column bit c) at index 2r + c: keep * U (x) conj(U), plus
    (1 - keep)/2 where r == c in both. ``u`` is U as nested lists: plain Python is faster here."""
    mix = (1.0 - keep) / 2
    s = [[keep * u[i][k] * u[j][l].conjugate() for k in (0, 1) for l in (0, 1)]
         for i in (0, 1) for j in (0, 1)]
    for row in (s[0], s[3]):
        row[0] += mix
        row[3] += mix
    return np.array(s)


def _apply_u_rho(rho: np.ndarray, spare: np.ndarray, n: int, target: int, s: np.ndarray) -> None:
    """rho <- S(rho) in place on a (2**n, 2**n, B) stack, S a 4x4 map on the target (``_u_map``);
    ``spare`` is scratch. The stack is copied with the target's row and column axes in front, so
    S is one (4, 4) @ (4, 4**(n-1) * B) product, written to rho's buffer; then it goes back."""
    hi, lo, b = 1 << (n - 1 - target), 1 << target, rho.shape[-1]
    front = spare.reshape(2, 2, hi, lo, hi, lo, b)  # row target, column target, the rest
    np.copyto(front, rho.reshape(hi, 2, lo, hi, 2, lo, b).transpose(1, 4, 0, 2, 3, 5, 6))
    np.matmul(s, spare.reshape(4, -1), out=rho.reshape(4, -1))
    np.copyto(spare, rho)  # a copy back from rho to itself would buffer a full temporary
    np.copyto(rho.reshape(hi, 2, lo, hi, 2, lo, b), front.transpose(2, 0, 3, 4, 1, 5, 6))


def run_noisy(circuit: Circuit, init: np.ndarray | None = None,
              noise: NoiseModel = ZERO_NOISE) -> np.ndarray:
    """Output distribution under depolarizing gate noise and readout error, in the shape
    ``run_ideal`` gives: |init><init|, traced over the qubits the circuit neither acts on nor
    measures, evolves through the gates on the live qubits left, each gate followed by a
    depolarizing channel, then is marginalized over the measured qubits and read out with
    bit-flips. Each run of U gates on a qubit, up to a CX on it, is one 4x4 map (``_u_map``).
    That is the full-register gate-by-gate law up to its last bits. It reuses the last shape's
    stacks, so it must not run in two threads at once."""
    n = circuit.num_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValidationError(
            f"noisy simulation capped at {MAX_DENSITY_QUBITS} qubits, circuit has {n}"
        )
    init = _initial_state(circuit, init)
    flat = init.reshape(-1, 1 << n)
    b = flat.shape[0]
    # the live qubits, those a gate acts on or that are measured, relabelled 0..m-1 in order
    live = sorted(set(circuit.measured_qubits).union(
        *((g.target,) if isinstance(g, UGate) else (g.control, g.target) for g in circuit.gates)))
    m, label = len(live), {q: j for j, q in enumerate(live)}
    # gates reuse a scratch stack, calls both: temporaries or per-call stacks re-fault the heap.
    # In a (2**m, 2**m, B) prefix of each, the partial trace of |init><init| over the other
    # qubits, none when every qubit is live: their bits go last in each state's index, summed
    rho, spare = (s.ravel()[:b << 2 * m].reshape(1 << m, 1 << m, b) for s in _stacks(1 << n, b))
    dead = [q for q in range(n) if q not in label]
    order = [0] + [n - q for q in reversed(live)] + [n - q for q in reversed(dead)]
    split = flat.reshape((b,) + (2,) * n).transpose(order).reshape(b, 1 << m, 1 << n - m)
    np.einsum("tld,tmd->lmt", split, np.conj(split), out=rho)
    # each run of U gates on a qubit since the last CX on it is one step at its first gate (the
    # gates between act on other qubits): the map of its product V with keep = (1 - p1)**k
    steps, runs = [], {}  # a CX's (control, target), or a run's [target, V, keep]; runs by target
    for gate in circuit.gates:  # validated with the circuit, so unchecked here
        if isinstance(gate, UGate):
            u, q = u_matrix(gate.theta, gate.phi, gate.lam).tolist(), label[gate.target]
            if q in runs:  # V <- U V
                run = runs[q]
                run[1] = [[u[i][0] * run[1][0][k] + u[i][1] * run[1][1][k] for k in (0, 1)]
                          for i in (0, 1)]
                run[2] *= 1.0 - noise.p1
            else:
                runs[q] = [q, u, 1.0 - noise.p1]
                steps.append(runs[q])
        else:
            steps.append((label[gate.control], label[gate.target]))
            for q in steps[-1]:
                runs.pop(q, None)
    for step in steps:
        if isinstance(step, list):
            q, v, keep = step
            _apply_u_rho(rho, spare, m, q, _u_map(v, keep))
        else:  # perm is a permutation, so "clip" never clips; it avoids a buffered copy
            control, target = step
            perm = _cx_permutation(m, control, target)
            np.take(rho, perm, axis=0, out=spare, mode="clip")
            np.take(spare, perm, axis=1, out=rho, mode="clip")
            if noise.p2:
                _depolarize_in_place(rho, m, (control, target), noise.p2, spare)
    # matmul rounds by operand strides, so the diagonal sits as in a (..., 2**m, 2**m) stack
    diag = np.einsum("...ii->...i", spare.reshape(init.shape[:-1] + rho.shape[:2]))
    diag[...] = np.einsum("iit->ti", rho).reshape(diag.shape)
    measured = tuple(label[q] for q in circuit.measured_qubits)
    return np.real(diag) @ _output_map(m, measured, noise.readout_flip_0to1,
                                       noise.readout_flip_1to0)
