"""Exact statevector simulation of gate-list circuits.

All functions are pure.  States are numpy arrays whose last axis has length
2**num_qubits; a leading axis may hold a batch of states, which every
operation applies to element-wise.  Output distributions are probability
vectors of length 2**m over the m measured bits (see circuits module for the
bit-ordering convention).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

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
def _cx_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)
    return idx ^ (((idx >> control) & 1) << target)


def apply_u(state: np.ndarray, target: int, theta: float, phi: float, lam: float) -> np.ndarray:
    """Apply a U gate to the target qubit; returns a new state array."""
    return _run_gate(state, UGate(target, theta, phi, lam))


def apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply a controlled-not gate; returns a new state array."""
    return _run_gate(state, CXGate(control, target))


def _run_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Run ``gate`` as a one-gate circuit on the state's register width, so
    ``Circuit`` checks the gate and ``evolve_state`` the width."""
    n = state.shape[-1].bit_length() - 1
    return evolve_state(Circuit(n, (gate,), (0,)), state)


def _apply_gate(state: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """New state after one gate already validated on n qubits.  U reads the
    amplitude pairs of its target bit t as axis -2 of a (..., 2**(n-1-t), 2, 2**t)
    view of the state."""
    if isinstance(gate, CXGate):
        return state[..., _cx_permutation(n, gate.control, gate.target)]
    mat = u_matrix(gate.theta, gate.phi, gate.lam)
    pairs = state.reshape(state.shape[:-1] + (1 << (n - 1 - gate.target), 2, 1 << gate.target))
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    out = np.empty_like(pairs)
    for i in (0, 1):  # mat[i, 0] * a + mat[i, 1] * b, one temporary fewer
        row = mat[i, 0] * a
        row += mat[i, 1] * b
        out[..., i, :] = row
    return out.reshape(state.shape)


def _initial_state(circuit: Circuit, init: np.ndarray | None) -> np.ndarray:
    """Where a run of ``circuit`` starts: |0...0> for ``None``, else ``init`` (one
    state or a batch) as complex128, after checking its width."""
    if init is None:
        return zero_state(circuit.num_qubits)
    if init.shape[-1] != 1 << circuit.num_qubits:
        raise StructuralError(
            f"init dimension {init.shape[-1]} does not match "
            f"{circuit.num_qubits}-qubit circuit"
        )
    return np.asarray(init, dtype=np.complex128)


def evolve_state(circuit: Circuit, init: np.ndarray | None) -> np.ndarray:
    """Final state of a validated circuit run from ``init`` (|0...0> for ``None``);
    its gates are not checked again."""
    state = _initial_state(circuit, init)
    for gate in circuit.gates:
        state = _apply_gate(state, circuit.num_qubits, gate)
    return state


@lru_cache(maxsize=64)  # bounded: its keys hold flip rates, new with every noise model
def _output_map(num_qubits: int, measured_qubits: tuple[int, ...], flip_0to1: float = 0.0,
                flip_1to0: float = 0.0) -> np.ndarray:
    """(2**n, k) read-out law: row i is the law of the value basis state i reads when each
    measured bit flips independently (0/1 without flips). Read-only: every caller shares it."""
    idx = np.arange(1 << num_qubits)
    values = np.zeros_like(idx)
    for pos, q in enumerate(measured_qubits):
        values |= ((idx >> q) & 1) << pos
    bit = np.array([[1.0 - flip_0to1, flip_0to1], [flip_1to0, 1.0 - flip_1to0]])  # row: the bit
    out = reduce(np.kron, [bit] * len(measured_qubits), np.eye(1))[values]
    out.setflags(write=False)
    return out


def run_ideal(circuit: Circuit, init: np.ndarray | None = None) -> np.ndarray:
    """Exact output distribution over the measured qubits.

    ``init`` defaults to the all-zeros state.  A batch of initial states (one
    per row) yields a batch of distributions.  Unlike ``run_noisy`` it runs on
    every qubit: traced over untouched qubits, a state is in general mixed, and
    a pure state that stands for it (a purification) has T * 2**n amplitudes again.
    """
    probs = np.abs(evolve_state(circuit, init)) ** 2
    return probs @ _output_map(circuit.num_qubits, circuit.measured_qubits)


MAX_SHOTS = 2**63 - 1  # numpy's multinomial draws an int64 count


def check_shots(shots: int) -> int:
    """``shots`` if it is in [1, MAX_SHOTS]; every way in checks it here."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must be in [1, 2**63 - 1], got {shots}")
    return shots


def sample_shots(dists: np.ndarray, shots: int, rng: np.random.Generator,
                 starts=None) -> np.ndarray:
    """Empirical laws of ``shots`` independent draws from each law of ``dists``:
    one law (k,) or a block (T, k), returned in the same shape.

    The block is checked, normalized and scaled once.  Row t is one
    ``rng.multinomial`` draw, from ``rng`` restarted at bit-generator state
    ``starts[t]`` when ``starts`` is given, so a row's draw depends only on its
    law and its start; without ``starts`` the rows draw from ``rng`` in turn.
    A law with a negative or non-finite entry, or no mass, is refused.
    """
    check_shots(shots)
    dists = np.asarray(dists, dtype=np.float64)
    valid = (dists >= 0).all()  # NaN compares False; checked before the sum can warn
    if valid:
        sums = dists.sum(axis=-1, keepdims=True)
        valid = (np.isfinite(sums) & (sums > 0)).all()
    if not valid:
        raise ValidationError(
            "a law to sample needs finite, non-negative entries and a positive sum")
    pvals = np.atleast_2d(dists / sums)
    counts = np.empty(pvals.shape, dtype=np.int64)
    bit_generator = rng.bit_generator
    for t, law in enumerate(pvals):
        if starts is not None:
            bit_generator.state = starts[t]
        counts[t] = rng.multinomial(shots, law)
    return (counts / float(shots)).reshape(dists.shape)
