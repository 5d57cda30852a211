"""Exact statevector simulation of gate-list circuits.

All functions are pure.  States are numpy arrays whose last axis has length
2**num_qubits; a leading axis may hold a batch of states, which every
operation applies to element-wise.  Output distributions are probability
vectors of length 2**m over the m measured bits (see circuits module for the
bit-ordering convention).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import Circuit, CXGate, Gate, UGate
from .errors import StructuralError, ValidationError


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """2x2 unitary for the three-angle rotation gate.

    U = [[cos(t/2),            -e^{i*lam} sin(t/2)],
         [e^{i*phi} sin(t/2),   e^{i*(phi+lam)} cos(t/2)]]
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


@lru_cache(maxsize=None)
def _pair_indices(num_qubits: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with target bit 0, and the partners with target bit 1."""
    idx = np.arange(1 << num_qubits)
    i0 = idx[(idx >> target) & 1 == 0]
    return i0, i0 | (1 << target)


@lru_cache(maxsize=None)
def _cx_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    return idx ^ (((idx >> control) & 1) << target)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate after checking it against the state's register width."""
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise StructuralError(f"state dimension {dim} is not a power of two")
    gate.validate(n)
    return _apply_gate(state, n, gate)


def apply_u(state: np.ndarray, target: int, theta: float, phi: float, lam: float) -> np.ndarray:
    """Apply a U gate to the target qubit; returns a new state array."""
    return apply_gate(state, UGate(target, theta, phi, lam))


def apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply a controlled-not gate; returns a new state array."""
    return apply_gate(state, CXGate(control, target))


def _apply_gate(state: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """``apply_gate`` without its checks, for gates already validated on n qubits."""
    if isinstance(gate, CXGate):
        return state[..., _cx_permutation(n, gate.control, gate.target)]
    mat = u_matrix(gate.theta, gate.phi, gate.lam)
    i0, i1 = _pair_indices(n, gate.target)
    out = np.empty_like(state)
    a = state[..., i0]
    b = state[..., i1]
    out[..., i0] = mat[0, 0] * a + mat[0, 1] * b
    out[..., i1] = mat[1, 0] * a + mat[1, 1] * b
    return out


def evolve_state(circuit: Circuit, init: np.ndarray) -> np.ndarray:
    """Final state of a validated circuit, so its gates are not checked again."""
    if init.shape[-1] != 1 << circuit.num_qubits:
        raise StructuralError(
            f"init dimension {init.shape[-1]} does not match "
            f"{circuit.num_qubits}-qubit circuit"
        )
    state = np.asarray(init, dtype=np.complex128)
    for gate in circuit.gates:
        state = _apply_gate(state, circuit.num_qubits, gate)
    return state


@lru_cache(maxsize=None)
def _value_map(num_qubits: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """(2**n, k) 0/1 matrix: row i has its 1 in the value that basis state i reads."""
    idx = np.arange(1 << num_qubits)
    values = np.zeros_like(idx)
    for pos, q in enumerate(measured_qubits):
        values |= ((idx >> q) & 1) << pos
    return (values[:, None] == np.arange(1 << len(measured_qubits))).astype(np.float64)


def run_ideal(circuit: Circuit, init: np.ndarray | None = None) -> np.ndarray:
    """Exact output distribution over the measured qubits.

    ``init`` defaults to the all-zeros state.  A batch of initial states (one
    per row) yields a batch of distributions.
    """
    if init is None:
        init = zero_state(circuit.num_qubits)
    probs = np.abs(evolve_state(circuit, init)) ** 2
    return probs @ _value_map(circuit.num_qubits, circuit.measured_qubits)


def sample_shots(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical distribution of ``shots`` independent draws from ``dist``."""
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    dist = np.asarray(dist, dtype=np.float64)
    counts = rng.multinomial(shots, dist / dist.sum())
    return counts / float(shots)
