"""Iris dataset ingestion, angle encoding, and the evolution/evaluation split.

Each of the four features is min-max scaled over the full dataset to an angle
in [0, pi] and prepared on its own qubit via a Y rotation (U(theta, 0, 0)), so
the feature extremes map to the orthogonal states |0> and |1>.  The class
label is encoded in the two measured bits: setosa -> 0, versicolor -> 1,
virginica -> 2; value 3 is the unused "invalid" class.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .circuits import UGate
from .ensemble import TestCase
from .errors import ParseError, ValidationError

NUM_FEATURES = 4
SPECIES = ("setosa", "versicolor", "virginica")
DEFAULT_CLASS_MAP = {"setosa": 0, "versicolor": 1, "virginica": 2}
INVALID_CLASS_VALUE = 3
EXAMPLES_PER_CLASS = 50


@dataclass(frozen=True)
class LabeledExample:
    features: tuple[float, float, float, float]
    class_label: str


@dataclass(frozen=True)
class EncodingSpec:
    """Per-feature scaling bounds; classes map to bits by ``DEFAULT_CLASS_MAP``."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self) -> None:
        for j, (lo, hi) in enumerate(zip(self.mins, self.maxs)):
            if not lo < hi:
                raise ValidationError(f"feature {j}: min {lo} must be < max {hi}")

    @classmethod
    def from_examples(cls, examples) -> "EncodingSpec":
        arr = np.array([e.features for e in examples])
        return cls(mins=tuple(arr.min(axis=0)), maxs=tuple(arr.max(axis=0)))


def bundled_dataset_path() -> Path:
    return Path(str(resources.files("qcens.assets") / "iris.csv"))


def _normalize_label(raw: str) -> str:
    label = raw.strip().lower()
    if label.startswith("iris-"):
        label = label[len("iris-"):]
    return label


def load_dataset(path) -> list[LabeledExample]:
    """Parse the 5-column comma-separated Iris file and validate class counts."""
    path = Path(path)
    examples: list[LabeledExample] = []
    with path.open(newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != NUM_FEATURES + 1:
                raise ParseError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            try:
                feats = tuple(float(v) for v in row[:NUM_FEATURES])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric feature in {row!r}") from None
            if any(not math.isfinite(f) or f <= 0 for f in feats):
                raise ValidationError(f"{path}:{lineno}: features must be finite and positive")
            label = _normalize_label(row[NUM_FEATURES])
            if label not in SPECIES:
                raise ParseError(f"{path}:{lineno}: unknown species {row[NUM_FEATURES]!r}")
            examples.append(LabeledExample(feats, label))
    if not examples:
        raise ParseError(f"{path}: no data rows")
    counts = {s: sum(1 for e in examples if e.class_label == s) for s in SPECIES}
    if any(c != EXAMPLES_PER_CLASS for c in counts.values()):
        raise ValidationError(f"{path}: expected 50 examples per class, got {counts}")
    return examples


def encode(example: LabeledExample, spec: EncodingSpec) -> TestCase:
    """Angle-encode one example into an initialization gate list + expected value."""
    gates = []
    for j, x in enumerate(example.features):
        lo, hi = spec.mins[j], spec.maxs[j]
        scaled = (min(max(x, lo), hi) - lo) / (hi - lo)  # clamp, then [0, 1]
        gates.append(UGate(target=j, theta=math.pi * scaled, phi=0.0, lam=0.0))
    return TestCase(expected=DEFAULT_CLASS_MAP[example.class_label], init_gates=tuple(gates))


def encode_all(examples, spec: EncodingSpec | None = None) -> list[TestCase]:
    if spec is None:
        spec = EncodingSpec.from_examples(examples)
    return [encode(e, spec) for e in examples]


def split(items, n_evolution: int, seed: int, stratified: bool = False,
          labels=None) -> tuple[list, list]:
    """Random partition into (evolution, evaluation) sets, deterministic per seed."""
    items = list(items)
    total = len(items)
    if not 0 < n_evolution < total:
        raise ValidationError(
            f"n_evolution must be in (0, {total}), got {n_evolution}"
        )
    rng = np.random.default_rng(seed)
    if not stratified:
        order = rng.permutation(total)
        chosen = set(order[:n_evolution].tolist())
    else:
        if labels is None:
            labels = [getattr(it, "class_label") for it in items]
        chosen = set()
        by_label: dict = {}
        for i, lab in enumerate(labels):
            by_label.setdefault(lab, []).append(i)
        quota, remainder = divmod(n_evolution, len(by_label))
        for extra, (_, indices) in enumerate(sorted(by_label.items())):
            take = quota + (1 if extra < remainder else 0)
            perm = rng.permutation(len(indices))
            chosen.update(indices[i] for i in perm[:take])
    evolution = [items[i] for i in range(total) if i in chosen]
    evaluation = [items[i] for i in range(total) if i not in chosen]
    return evolution, evaluation
