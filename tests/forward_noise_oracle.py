"""The forward density-matrix loop of ``qcens.noise.run_noisy`` as it was before the
test batch moved to the last axis: a (..., 2**n, 2**n) stack with the batch in front.

The functions are kept as they were; only the imports, ``run_noisy``'s ``live_only`` start
and its ``u_runs`` steps are new. ``_value_map`` and ``_readout_matrix`` are the read-out
helpers the program had before ``statevector._output_map`` replaced them, so the oracle
shares no read-out code with what it checks.

``run_noisy(..., live_only=True)`` starts from the partial trace of |init><init| over the
qubits the circuit neither acts on nor measures (``live_register``), and runs the same loop
on the qubits left, relabelled in order; without untouched qubits it is ``run_noisy``.
``qcens.noise.run_noisy``, which runs on the live qubits, must give its outputs bit for bit;
it stays within rounding of the full-register ``run_noisy``.

``run_noisy(..., u_runs=True)`` applies the U gates as ``qcens.noise.run_noisy`` does
(``u_run_steps``): each run of U gates on a qubit since the last CX on it is one step at the
run's first gate, a 4x4 map built in the same arithmetic and applied by the same batch-last
(4, 4) @ (4, .) product (``apply_u_map``). The CX steps and their depolarizing are the loop's
own. With both options it must give ``qcens.noise.run_noisy``'s outputs bit for bit; the plain
loop stays the independent reference, which both stay within rounding of.

``per_call_block_indices`` and ``per_call_depolarize_in_place`` are the batch-last
``qcens.noise._depolarize_in_place`` as it was before ``_block_indices`` cached its block
indices: they build the indices on every call, as that code did.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache, reduce

import numpy as np

from qcens.circuits import Circuit, CXGate, UGate
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


def u_run_steps(circuit: Circuit, p1: float) -> list:
    """The gates of ``circuit`` as its CX gates and ``(target, S)`` steps: the U gates on a
    qubit since the last CX on it, which commute past the gates between, are one step at the
    first one's place, with S the map of their product V and keep = (1 - p1)**k."""
    steps = []  # a gate, or [target, V, keep] for a run of U gates
    for gate in circuit.gates:
        if isinstance(gate, CXGate):
            steps.append(gate)
            continue
        u = u_matrix(gate.theta, gate.phi, gate.lam).tolist()
        for step in reversed(steps):  # the target's open run, if no CX on it came since
            if isinstance(step, list) and step[0] == gate.target:
                v = step[1]
                step[1] = [[u[i][0] * v[0][k] + u[i][1] * v[1][k] for k in (0, 1)]
                           for i in (0, 1)]
                step[2] = step[2] * (1.0 - p1)
                break
            if isinstance(step, CXGate) and gate.target in (step.control, step.target):
                steps.append([gate.target, u, 1.0 - p1])
                break
        else:
            steps.append([gate.target, u, 1.0 - p1])
    return [(step[0], u_map(step[1], step[2])) if isinstance(step, list) else step
            for step in steps]


def u_map(v: list, keep: float) -> np.ndarray:
    """S[2i + j, 2k + l] = keep * v[i][k] * conj(v[j][l]), plus (1 - keep) / 2 where i == j
    and k == l: rho -> keep * V rho V^dagger + (1 - keep) * Tr(rho) * I/2 on one qubit."""
    rows = []
    for i, j in itertools.product((0, 1), repeat=2):
        row = []
        for k, l in itertools.product((0, 1), repeat=2):
            entry = keep * v[i][k] * v[j][l].conjugate()
            if i == j and k == l:
                entry += (1.0 - keep) / 2
            row.append(entry)
        rows.append(row)
    return np.array(rows)


def apply_u_map(rho: np.ndarray, n: int, target: int, s: np.ndarray) -> None:
    """rho <- S(rho) in place on a (..., 2**n, 2**n) stack: a copy with the target's row and
    column bits in front and the flattened batch last, as ``qcens.noise`` holds it, through one
    (4, 4) @ (4, .) product, written back."""
    hi, lo = 1 << (n - 1 - target), 1 << target
    tensor = rho.reshape((-1, hi, 2, lo, hi, 2, lo))
    front = np.ascontiguousarray(tensor.transpose(2, 5, 1, 3, 4, 6, 0))
    mixed = np.matmul(s, front.reshape(4, -1)).reshape(front.shape)
    tensor[...] = mixed.transpose(6, 2, 0, 3, 4, 1, 5)


def run_noisy(circuit: Circuit, init: np.ndarray | None = None,
              noise: NoiseModel = ZERO_NOISE, live_only: bool = False,
              u_runs: bool = False) -> np.ndarray:
    """Output distribution under depolarizing gate noise and readout error.

    Evolves |init><init| through the gate list, applying a depolarizing
    channel after each gate, then marginalizes over the measured qubits and
    applies the readout bit-flips.  With ``live_only`` it evolves the partial
    trace over the untouched qubits instead (``live_register``); with ``u_runs``
    each run of U gates is one step (``u_run_steps``).
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
    steps = u_run_steps(circuit, noise.p1) if u_runs else circuit.gates
    for gate in steps:  # validated with the circuit, so unchecked here
        if isinstance(gate, tuple):  # a run of U gates, (target, S)
            apply_u_map(rho, n, *gate)
            continue
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
