"""Iris dataset ingestion, angle encoding, and the evolution/evaluation split.

``encode_all`` min-max scales each of the four features to an angle in
[0, pi], with bounds taken from the examples it is given; callers pass the
full dataset before splitting it, so the bounds are those of the whole
dataset.  Each angle is prepared on its own qubit via a Y rotation
(U(theta, 0, 0)), so the feature extremes map to the orthogonal states |0>
and |1>.  The class label is encoded in the two measured bits: setosa -> 0,
versicolor -> 1, virginica -> 2; value 3 is the unused "invalid" class.
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
from .serialization import decode_file, json_number

NUM_FEATURES = 4
DEFAULT_CLASS_MAP = {"setosa": 0, "versicolor": 1, "virginica": 2}
SPECIES = tuple(DEFAULT_CLASS_MAP)
EXAMPLES_PER_CLASS = 50


@dataclass(frozen=True)
class LabeledExample:
    features: tuple[float, float, float, float]
    class_label: str


def bundled_dataset_path() -> Path:
    return Path(str(resources.files("qcens.assets") / "iris.csv"))


def _normalize_label(raw: str) -> str:
    label = raw.strip().lower()
    if label.startswith("iris-"):
        label = label[len("iris-"):]
    return label


def load_dataset(path) -> list[LabeledExample]:
    """Parse the 5-column comma-separated Iris file and validate class counts."""
    return decode_file(path, _examples_from_lines, by_line=True)


def _examples_from_lines(lines) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    for row in csv.reader(lines):
        if len(row) != NUM_FEATURES + 1:
            raise ParseError(f"expected 5 columns, got {len(row)}")
        feats = tuple(json_number(v, f"feature {j}") for j, v in enumerate(row[:NUM_FEATURES]))
        if any(f <= 0 for f in feats):
            raise ValidationError("features must be positive")
        label = _normalize_label(row[NUM_FEATURES])
        if label not in SPECIES:
            raise ParseError(f"unknown species {row[NUM_FEATURES]!r}")
        examples.append(LabeledExample(feats, label))
    if not examples:
        raise ParseError("no data rows")
    counts = {s: sum(1 for e in examples if e.class_label == s) for s in SPECIES}
    if any(c != EXAMPLES_PER_CLASS for c in counts.values()):
        raise ValidationError(f"expected 50 examples per class, got {counts}")
    return examples


def encode_all(examples) -> list[TestCase]:
    """Angle-encode examples, scaling each feature by its bounds over ``examples``."""
    bounds = [(min(column), max(column)) for column in zip(*(e.features for e in examples))]
    for j, (lo, hi) in enumerate(bounds):
        if not lo < hi:
            raise ValidationError(f"feature {j}: min {lo} must be < max {hi}")
    cases = []
    for example in examples:
        gates = tuple(
            UGate(target=j, theta=math.pi * ((x - lo) / (hi - lo)), phi=0.0, lam=0.0)
            for j, (x, (lo, hi)) in enumerate(zip(example.features, bounds))
        )
        cases.append(TestCase(expected=DEFAULT_CLASS_MAP[example.class_label],
                              init_gates=gates))
    return cases


def split(items, n_evolution: int, seed: int, labels=None) -> tuple[list, list]:
    """Random partition into (evolution, evaluation) sets, deterministic per seed.

    With ``labels`` (one per item) the split is stratified: each label gets an
    equal share of the evolution set, the first labels in sorted order one
    more when the shares do not divide evenly; a label with fewer items than
    its share is refused.  Without, every item shares one label.
    """
    items = list(items)
    total = len(items)
    if not 0 < n_evolution < total:
        raise ValidationError(
            f"n_evolution must be in (0, {total}), got {n_evolution}"
        )
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if labels is None:
        labels = [0] * total
    if len(labels) != total:
        raise ValidationError(f"{len(labels)} labels for {total} items")
    rng = np.random.default_rng(seed)
    chosen = set()
    by_label: dict = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    quota, remainder = divmod(n_evolution, len(by_label))
    groups = sorted(by_label.items())
    takes = [quota + (1 if extra < remainder else 0) for extra in range(len(groups))]
    for (label, indices), take in zip(groups, takes):  # refused before any draw
        if take > len(indices):
            raise ValidationError(
                f"label {label!r} has {len(indices)} items, fewer than its share {take}")
    for (_, indices), take in zip(groups, takes):
        perm = rng.permutation(len(indices))
        chosen.update(indices[i] for i in perm[:take])
    evolution = [items[i] for i in range(total) if i in chosen]
    evaluation = [items[i] for i in range(total) if i not in chosen]
    return evolution, evaluation
