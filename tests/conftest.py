import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qcens import Circuit, CXGate, UGate

X = (math.pi, 0.0, math.pi)
HADAMARD = (math.pi / 2, 0.0, math.pi)


def bell_circuit() -> Circuit:
    """Hadamard on qubit 0 then CX(0->1): marginals {00: 0.5, 11: 0.5}."""
    return Circuit(2, (UGate(0, *HADAMARD), CXGate(0, 1)), (0, 1))


def load_perfbench(name: str):
    """Module ``perfbench/<name>.py`` loaded from its file; perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def random_test_circuit(rng: np.random.Generator, num_qubits: int,
                        max_gates: int = 8) -> Circuit:
    """Random U/CX circuit for fuzzing, independent of the evolution module."""
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        if num_qubits >= 2 and rng.random() < 0.5:
            c, t = rng.choice(num_qubits, size=2, replace=False)
            gates.append(CXGate(int(c), int(t)))
        else:
            gates.append(UGate(int(rng.integers(num_qubits)),
                               *(float(a) for a in rng.uniform(0, 2 * math.pi, 3))))
    m = int(rng.integers(1, num_qubits + 1))
    measured = tuple(int(q) for q in rng.choice(num_qubits, size=m, replace=False))
    return Circuit(num_qubits, tuple(gates), measured)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
