"""Parametric noise models and density-matrix simulation.

A NoiseModel applies a depolarizing channel after every gate (strength p1 for
single-qubit U gates, p2 on both qubits touched by a CX) and classical readout
bit-flips to the final measured distribution.  Simulation evolves a density
matrix, so results are exact and deterministic.  ``run_noisy`` holds its B states
(the flattened test batch) as one C-contiguous (2**n, 2**n, B) stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .circuits import Circuit, UGate
from .errors import ValidationError
from .statevector import _cx_permutation, _initial_state, _value_map, u_matrix

MAX_DENSITY_QUBITS = 10


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


RATE_FIELDS = tuple(f.name for f in fields(NoiseModel) if f.type == "float")
ZERO_NOISE = NoiseModel(0.0, 0.0, 0.0, 0.0, name="zero")


def _depolarize_in_place(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: float,
                         scratch: np.ndarray) -> None:
    """rho <- (1 - p) * rho + p * (I / 2**m on the m qubits, tensor their partial trace) on a
    (2**n, 2**n, B) stack: that is their blocks' mean, added where row and column agree on them."""
    axes = {a: k for k, q in enumerate(qubits) for a in (n - 1 - q, 2 * n - 1 - q)}  # row, column
    tensor = rho.reshape((2,) * (2 * n) + rho.shape[-1:])
    blocks = [tensor[tuple(bits[axes[a]] if a in axes else slice(None) for a in range(2 * n))]
              for bits in itertools.product((0, 1), repeat=len(qubits))]
    mixed = scratch.reshape(-1)[:blocks[0].size].reshape(blocks[0].shape)
    mixed[...] = 0  # as sum(blocks) starts, so the sign of a zero sum is the same
    for block in blocks:
        mixed += block
    mixed *= p / len(blocks)
    rho *= 1.0 - p
    for block in blocks:
        block += mixed


def _apply_u_rho(rho: np.ndarray, spare: np.ndarray, n: int, target: int, mat: np.ndarray,
                 p: float) -> tuple[np.ndarray, np.ndarray]:
    """U rho U^dagger of a (2**n, 2**n, B) stack, depolarized on the target with strength p;
    returns (result, scratch), which are ``rho`` and ``spare`` in some order. Each pass mixes
    the contiguous halves of a copy with its axis in front: numpy buffers strided half-views."""
    hi, lo, b = 1 << (n - 1 - target), 1 << target, rho.shape[-1]
    shape = split = (hi, 2, lo, hi, 2, lo, b)  # row: high, target, low bits; column; batch
    # U mixes the row's target bit, then conj(U) the column's; rho names the current stack
    for perm, m in (((1, 0, 2, 3, 4, 5, 6), mat), ((4, 0, 1, 2, 3, 5, 6), np.conj(mat))):
        np.copyto(spare.reshape([shape[a] for a in perm]), rho.reshape(shape).transpose(perm))
        shape = [shape[a] for a in perm]
        pair, scratch = spare.reshape(2, -1), rho.reshape(2, -1)
        np.multiply(pair[0], m[1, 0], out=scratch[0])
        np.multiply(pair[1], m[0, 1], out=scratch[1])
        for i in (0, 1):  # each product keeps its operand order; a sum of two commutes bitwise
            pair[i] *= m[i, i]
            pair[i] += scratch[1 - i]
        rho, spare = spare, rho
    if p:  # the axes are (column target, row target, ...): a one-qubit stack with a long batch
        _depolarize_in_place(rho.reshape(2, 2, -1), 1, (0,), p, spare)
    np.copyto(spare.reshape(split), rho.reshape(shape).transpose(2, 1, 3, 4, 0, 5, 6))
    return spare, rho


def _readout_matrix(m: int, flip_0to1: float, flip_1to0: float) -> np.ndarray:
    """(k, k) law of independent flips on m bits; column j is the output law for input j."""
    bit = np.array([[1.0 - flip_0to1, flip_1to0], [flip_0to1, 1.0 - flip_1to0]])
    return reduce(np.kron, [bit] * m, np.eye(1))


def run_noisy(circuit: Circuit, init: np.ndarray | None = None,
              noise: NoiseModel = ZERO_NOISE) -> np.ndarray:
    """Output distribution under depolarizing gate noise and readout error, in the shape
    ``run_ideal`` gives: |init><init| evolves through the gates, each followed by a depolarizing
    channel, then is marginalized over the measured qubits and read out with bit-flips."""
    n = circuit.num_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValidationError(
            f"noisy simulation capped at {MAX_DENSITY_QUBITS} qubits, circuit has {n}"
        )
    init = _initial_state(circuit, init)
    flat = init.reshape(-1, 1 << n)
    rho = np.einsum("ti,tj->ijt", flat, np.conj(flat), order="C")  # |init><init|, batch last
    # gates reuse one scratch buffer the size of rho: full-size temporaries re-fault the heap
    spare = np.empty_like(rho)
    for gate in circuit.gates:  # validated with the circuit, so unchecked here
        if isinstance(gate, UGate):
            mat = u_matrix(gate.theta, gate.phi, gate.lam)
            rho, spare = _apply_u_rho(rho, spare, n, gate.target, mat, noise.p1)
        else:  # perm is a permutation, so "clip" never clips; it avoids a buffered copy
            perm = _cx_permutation(n, gate.control, gate.target)
            np.take(rho, perm, axis=0, out=spare, mode="clip")
            np.take(spare, perm, axis=1, out=rho, mode="clip")
            if noise.p2:
                _depolarize_in_place(rho, n, (gate.control, gate.target), noise.p2, spare)
    # matmul rounds by operand strides, so the diagonal sits as in a (..., 2**n, 2**n) stack
    diag = np.einsum("...ii->...i", spare.reshape(init.shape[:-1] + rho.shape[:2]))
    diag[...] = np.einsum("iit->ti", rho).reshape(diag.shape)
    readout = _readout_matrix(circuit.num_output_bits,
                              noise.readout_flip_0to1, noise.readout_flip_1to0)
    # one (2**n, k) map: basis state -> measured value -> read-out value
    return np.real(diag) @ (_value_map(n, circuit.measured_qubits) @ readout.T)
