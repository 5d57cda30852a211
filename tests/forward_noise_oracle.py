"""The forward density-matrix loop of ``qcens.noise.run_noisy`` as it was before the
test batch moved to the last axis: a (..., 2**n, 2**n) stack with the batch in front.

The functions are kept as they were; only the imports and ``run_noisy``'s ``live_only``
start are new. ``_value_map`` and ``_readout_matrix`` are the read-out helpers the program
had before ``statevector._output_map`` replaced them, so the oracle shares no read-out code
with what it checks.

``run_noisy(..., live_only=True)`` starts from the partial trace of |init><init| over the
qubits the circuit neither acts on nor measures (``live_register``), and runs the same loop
on the qubits left, relabelled in order; without untouched qubits it is ``run_noisy``.
``qcens.noise.run_noisy``, which runs on the live qubits, must give its outputs bit for bit;
it stays within rounding of the full-register ``run_noisy``.

``per_call_block_indices`` and ``per_call_depolarize_in_place`` are the batch-last
``qcens.noise._depolarize_in_place`` as it was before ``_block_indices`` cached its block
indices: they build the indices on every call, as that code did.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache, reduce

import numpy as np

from qcens.circuits import Circuit, UGate
from qcens.errors import ValidationError
from qcens.noise import MAX_DENSITY_QUBITS, ZERO_NOISE, NoiseModel
from qcens.statevector import _cx_permutation, _initial_state, u_matrix


@lru_cache(maxsize=None)
def _value_map(num_qubits: int, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """(2**n, k) 0/1 matrix: row i has its 1 in the value that basis state i reads."""
    idx = np.arange(1 << num_qubits)
    values = np.zeros_like(idx)
    for pos, q in enumerate(measured_qubits):
        values |= ((idx >> q) & 1) << pos
    return (values[:, None] == np.arange(1 << len(measured_qubits))).astype(np.float64)


def _readout_matrix(m: int, flip_0to1: float, flip_1to0: float) -> np.ndarray:
    """(k, k) law of independent flips on m bits; column j is the output law for input j."""
    bit = np.array([[1.0 - flip_0to1, flip_1to0], [flip_0to1, 1.0 - flip_1to0]])
    return reduce(np.kron, [bit] * m, np.eye(1))


def _apply_u_rho(rho: np.ndarray, n: int, target: int, mat: np.ndarray,
                 spare: np.ndarray, half: np.ndarray) -> None:
    """rho <- U rho U^dagger in place on n qubits; ``spare`` and ``half`` are scratch."""
    batch, hi, lo, dim = rho.shape[:-2], 1 << (n - 1 - target), 1 << target, 1 << n
    # U acts on the target bit of the row index, then conj(U) on that of the column
    for src, dst, shape, m in ((rho, spare, (hi, 2, lo * dim), mat),
                               (spare, rho, (dim * hi, 2, lo), np.conj(mat))):
        src, dst = src.reshape(batch + shape), dst.reshape(batch + shape)
        scratch = half.reshape(dst[..., 0, :].shape)
        for i in (0, 1):
            np.multiply(src[..., 0, :], m[i, 0], out=dst[..., i, :])
            np.multiply(src[..., 1, :], m[i, 1], out=scratch)
            dst[..., i, :] += scratch


def _depolarize_in_place(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: float) -> None:
    """rho <- (1 - p) * rho + p * (I / 2**m on the m qubits, tensor their partial trace).

    The mixed part is nonzero only on the blocks whose row and column agree on
    the listed qubits, where it equals their mean, so it is added in place.
    """
    tensor = rho.reshape(rho.shape[:-2] + (2,) * (2 * n))
    nb = rho.ndim - 2
    blocks = []
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        index = [slice(None)] * tensor.ndim
        for q, bit in zip(qubits, bits):  # row axis of qubit q, then its column axis
            index[nb + n - 1 - q] = index[nb + 2 * n - 1 - q] = slice(bit, bit + 1)
        blocks.append(tensor[tuple(index)])
    mixed = sum(blocks) * (p / len(blocks))
    rho *= 1.0 - p
    for block in blocks:
        block += mixed


def partial_trace(rho: np.ndarray, n: int, kept: list[int]) -> np.ndarray:
    """Tr over the qubits not in ``kept`` of a (..., 2**n, 2**n) stack, on the kept qubits
    relabelled in order: the sum, from zero and in increasing order of d, of the blocks whose
    row and column both hold the dropped qubits in basis state d."""
    dropped = [q for q in reversed(range(n)) if q not in kept]  # the highest is d's top bit
    batch = rho.shape[:-2]
    tensor = rho.reshape(batch + (2,) * (2 * n))
    out = np.zeros(batch + (1 << len(kept),) * 2, dtype=rho.dtype)
    for bits in itertools.product((0, 1), repeat=len(dropped)):
        index = [slice(None)] * tensor.ndim
        for q, bit in zip(dropped, bits):  # row axis of qubit q, then its column axis
            index[len(batch) + n - 1 - q] = index[len(batch) + 2 * n - 1 - q] = bit
        out += tensor[tuple(index)].reshape(out.shape)
    return out


def live_qubits(circuit: Circuit) -> list[int]:
    """The qubits a gate of ``circuit`` acts on or that it measures, in order."""
    touched = [(g.target,) if isinstance(g, UGate) else (g.control, g.target)
               for g in circuit.gates]
    return sorted(set(circuit.measured_qubits).union(*touched))


def live_register(circuit: Circuit, rho: np.ndarray) -> tuple[Circuit, np.ndarray]:
    """``circuit`` on its live qubits (``live_qubits``), relabelled 0..m-1 in order, with
    ``rho`` traced over the others; both as given if all are live."""
    live = live_qubits(circuit)
    if len(live) == circuit.num_qubits:
        return circuit, rho
    label = {q: j for j, q in enumerate(live)}
    gates = tuple(replace(g, target=label[g.target]) if isinstance(g, UGate)
                  else replace(g, control=label[g.control], target=label[g.target])
                  for g in circuit.gates)
    live_circuit = Circuit(len(live), gates, tuple(label[q] for q in circuit.measured_qubits))
    return live_circuit, partial_trace(rho, circuit.num_qubits, live)


def run_noisy(circuit: Circuit, init: np.ndarray | None = None,
              noise: NoiseModel = ZERO_NOISE, live_only: bool = False) -> np.ndarray:
    """Output distribution under depolarizing gate noise and readout error.

    Evolves |init><init| through the gate list, applying a depolarizing
    channel after each gate, then marginalizes over the measured qubits and
    applies the readout bit-flips.  With ``live_only`` it evolves the partial
    trace over the untouched qubits instead (``live_register``).
    """
    n = circuit.num_qubits
    if n > MAX_DENSITY_QUBITS:
        raise ValidationError(
            f"noisy simulation capped at {MAX_DENSITY_QUBITS} qubits, circuit has {n}"
        )
    init = _initial_state(circuit, init)
    rho = np.einsum("...i,...j->...ij", init, np.conj(init))  # |init><init|
    if live_only:
        circuit, rho = live_register(circuit, rho)
        n = circuit.num_qubits
    # gates update rho in place, with these two buffers as scratch: full-size
    # temporaries per gate would make the allocator return and re-fault memory
    spare = np.empty_like(rho)
    half = np.empty(rho.size // 2, dtype=rho.dtype)
    for gate in circuit.gates:  # validated with the circuit, so unchecked here
        if isinstance(gate, UGate):
            mat = u_matrix(gate.theta, gate.phi, gate.lam)
            _apply_u_rho(rho, n, gate.target, mat, spare, half)
            qubits, p = (gate.target,), noise.p1
        else:
            perm = _cx_permutation(n, gate.control, gate.target)
            np.take(rho, perm, axis=-2, out=spare)
            np.take(spare, perm, axis=-1, out=rho)
            qubits, p = (gate.control, gate.target), noise.p2
        if p:
            _depolarize_in_place(rho, n, qubits, p)
    probs = np.real(np.einsum("...ii->...i", rho))
    readout = _readout_matrix(circuit.num_output_bits,
                              noise.readout_flip_0to1, noise.readout_flip_1to0)
    # one (2**n, k) map: basis state -> measured value -> read-out value
    return probs @ (_value_map(n, circuit.measured_qubits) @ readout.T)


def per_call_block_indices(n: int, qubits: tuple[int, ...]) -> list[tuple]:
    """The indices ``per_call_depolarize_in_place`` builds, in its order."""
    axes = {a: k for k, q in enumerate(qubits) for a in (n - 1 - q, 2 * n - 1 - q)}  # row, column
    return [tuple(bits[axes[a]] if a in axes else slice(None) for a in range(2 * n))
            for bits in itertools.product((0, 1), repeat=len(qubits))]


def per_call_depolarize_in_place(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: float,
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
