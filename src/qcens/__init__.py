"""Evolving heterogeneous ensembles of probabilistic quantum circuits.

Library layout:

- circuits: gate-list circuit representation (U / CX gates)
- statevector: exact ideal simulation and shot sampling
- noise: parametric depolarizing + readout noise, density-matrix simulation
- noisefiles: noise-config files and the 10 shipped presets
- ensemble: plurality voting and fitness evaluation
- evolution: the evolutionary algorithm over ensemble populations
- iris: dataset ingestion, angle encoding, evolution/evaluation split
- stats: two-tailed Mann-Whitney U test with rank-biserial effect size
- serialization: test-case / population / config / result file formats
- harness: experiment orchestration; cli: command-line front end
"""

from .circuits import Circuit, CXGate, Gate, UGate
from .ensemble import (
    Ensemble,
    Evaluator,
    FitnessReport,
    TestCase,
    replicate_homogeneous,
    vote_distribution,
)
from .errors import ParseError, QcensError, StructuralError, ValidationError
from .evolution import EvolutionConfig, Population, crossover, evolve, mutate, random_circuit
from .noise import ZERO_NOISE, NoiseModel, run_noisy
from .noisefiles import load_preset, preset_names
from .statevector import apply_cx, apply_u, run_ideal, sample_shots
from .stats import MannWhitneyResult, mann_whitney, median

__all__ = [
    "Circuit", "CXGate", "Gate", "UGate",
    "Ensemble", "Evaluator", "FitnessReport", "TestCase",
    "replicate_homogeneous", "vote_distribution",
    "ParseError", "QcensError", "StructuralError", "ValidationError",
    "EvolutionConfig", "Population", "crossover", "evolve", "mutate", "random_circuit",
    "ZERO_NOISE", "NoiseModel", "run_noisy",
    "load_preset", "preset_names",
    "apply_cx", "apply_u", "run_ideal", "sample_shots",
    "MannWhitneyResult", "mann_whitney", "median",
]

__version__ = "0.1.0"
