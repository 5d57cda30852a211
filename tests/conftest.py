import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qcens import Circuit, CXGate, Evaluator, TestCase, UGate

X = (math.pi, 0.0, math.pi)
HADAMARD = (math.pi / 2, 0.0, math.pi)


def bell_circuit() -> Circuit:
    """Hadamard on qubit 0 then CX(0->1): marginals {00: 0.5, 11: 0.5}."""
    return Circuit(2, (UGate(0, *HADAMARD), CXGate(0, 1)), (0, 1))


def circuits_sharing_a_light_cone() -> tuple[Circuit, Circuit, Circuit]:
    """A 3-qubit circuit measuring qubit 0, then two circuits that add to it only gates
    that cannot reach qubit 0: the first is the light cone of the other two."""
    kept = (UGate(1, 0.7, 0.2, 0.0), CXGate(1, 0), UGate(0, 1.1, 0.0, 0.4))
    return (Circuit(3, kept, (0,)),
            Circuit(3, kept + (UGate(2, 0.4, 0.0, 0.0),), (0,)),
            Circuit(3, (UGate(2, 1.9, 0.0, 0.0),) + kept + (UGate(1, 0.3, 0.0, 0.0),), (0,)))


THREE_QUBIT_TESTS = [TestCase(expected=t % 2, features=(0.4 * t, 0.9 * t, 1.3 * t))
                     for t in range(5)]


def load_perfbench(name: str):
    """Module ``perfbench/<name>.py`` loaded from its file; perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_votes(monkeypatch) -> list:
    """Patch ``Evaluator.ensemble_fitness`` to record each ensemble it votes."""
    voted = []
    real = Evaluator.ensemble_fitness

    def counting_ensemble_fitness(self, members):
        voted.append(members)
        return real(self, members)

    monkeypatch.setattr(Evaluator, "ensemble_fitness", counting_ensemble_fitness)
    return voted


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
