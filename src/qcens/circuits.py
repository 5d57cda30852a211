"""Gate-list circuit representation.

A circuit is an ordered list of gates acting on an n-qubit register, plus the
list of qubits that are measured at the end.  Two gate types exist: the
three-angle single-qubit rotation U and the controlled-not CX, which together
form a universal set.

Bit ordering convention (used everywhere in this package): qubit 0 is the
least-significant bit of statevector indices and of classical output values.
Measured qubit at position i of ``measured_qubits`` produces classical bit i,
so the output value is sum(bit_i * 2**i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StructuralError, ValidationError

MAX_QUBITS = 16


@dataclass(frozen=True, slots=True)
class UGate:
    """Generic single-qubit rotation with angles (theta, phi, lam)."""

    target: int
    theta: float
    phi: float
    lam: float

    def validate(self, num_qubits: int) -> None:
        if not 0 <= self.target < num_qubits:
            raise StructuralError(
                f"U target {self.target} out of range for {num_qubits} qubits"
            )
        for name, angle in (("theta", self.theta), ("phi", self.phi), ("lam", self.lam)):
            if not math.isfinite(angle):
                raise ValidationError(f"U angle {name} is not finite: {angle!r}")


@dataclass(frozen=True, slots=True)
class CXGate:
    """Controlled-not: flips target when control is 1."""

    control: int
    target: int

    def validate(self, num_qubits: int) -> None:
        if self.control == self.target:
            raise StructuralError(f"CX control equals target ({self.control})")
        for q in (self.control, self.target):
            if not 0 <= q < num_qubits:
                raise StructuralError(
                    f"CX qubit {q} out of range for {num_qubits} qubits"
                )


Gate = UGate | CXGate


@dataclass(frozen=True, slots=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits with measured qubits."""

    num_qubits: int
    gates: tuple[Gate, ...]
    measured_qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured_qubits", tuple(self.measured_qubits))
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValidationError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        if not self.measured_qubits:
            raise ValidationError("measured_qubits must be non-empty")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise StructuralError(f"measured_qubits not distinct: {self.measured_qubits}")
        for q in self.measured_qubits:
            if not 0 <= q < self.num_qubits:
                raise StructuralError(f"measured qubit {q} out of range")
        for gate in self.gates:
            gate.validate(self.num_qubits)

    @property
    def num_output_bits(self) -> int:
        return len(self.measured_qubits)

    @property
    def num_output_values(self) -> int:
        return 1 << self.num_output_bits


def light_cone(circuit: Circuit) -> Circuit:
    """The gates that can reach a measured qubit, in order; ``circuit`` itself if that is all.

    Walking back from the measured qubits, a gate is kept if it touches a live qubit, and a kept
    CX makes both its qubits live.  A dropped gate acts only on qubits that never again meet a
    live one, and every channel here (a gate, its depolarizing, the readout flips) is
    trace-preserving on its own qubits, so the measured marginal is the same, ideal or noisy.
    """
    live = set(circuit.measured_qubits)
    kept = []
    for gate in reversed(circuit.gates):
        if isinstance(gate, CXGate):
            if gate.control in live or gate.target in live:
                live.update((gate.control, gate.target))
                kept.append(gate)
        elif gate.target in live:
            kept.append(gate)
    if len(kept) == len(circuit.gates):
        return circuit
    return Circuit(circuit.num_qubits, tuple(reversed(kept)), circuit.measured_qubits)
