import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcens.errors import ParseError, ValidationError
from qcens.iris import (
    LabeledExample,
    bundled_dataset_path,
    encode_all,
    load_dataset,
    split,
)
from qcens.statevector import run_ideal
from qcens.circuits import Circuit


@pytest.fixture(scope="module")
def dataset():
    return load_dataset(bundled_dataset_path())


def test_load_bundled_dataset(dataset):
    assert len(dataset) == 150
    histogram = {}
    for example in dataset:
        histogram[example.class_label] = histogram.get(example.class_label, 0) + 1
    assert histogram == {"setosa": 50, "versicolor": 50, "virginica": 50}


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_dataset(path)


def test_load_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5.1,3.5,1.4,Iris-setosa\n")
    with pytest.raises(ParseError, match=":1"):
        load_dataset(path)


def test_load_non_numeric_feature(tmp_path):
    """Features are JSON numbers: float() would read the last three as 51.0, 0.5 and 3.5."""
    path = tmp_path / "bad.csv"
    for feature in ("oops", "5_1", ".5", "\uff13.5"):
        path.write_text(f"5.1,{feature},1.4,0.2,Iris-setosa\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f":1: feature 1 is not a number: '{feature}'"):
            load_dataset(path)


def test_load_unknown_species(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5.1,3.5,1.4,0.2,Iris-setosa\n4.9,3.0,1.4,0.2,Iris-rosa\n")
    with pytest.raises(ParseError, match=":2: unknown species 'Iris-rosa'"):
        load_dataset(path)


def test_load_wrong_class_counts(tmp_path):
    rows = "\n".join("5.1,3.5,1.4,0.2,Iris-setosa" for _ in range(150))
    path = tmp_path / "lopsided.csv"
    path.write_text(rows + "\n")
    with pytest.raises(ValidationError, match="50 examples per class"):
        load_dataset(path)


def test_encode_all_rejects_constant_feature_column():
    examples = [LabeledExample((0.0, 0.0, 0.0, 1.0), "setosa"),
                LabeledExample((1.0, 1.0, 1.0, 1.0), "virginica")]
    with pytest.raises(ValidationError, match="feature 3"):
        encode_all(examples)


def test_encode_edges_and_midpoint():
    low, high, mid = encode_all([
        LabeledExample((0.0, 0.0, 0.0, 0.0), "setosa"),
        LabeledExample((2.0, 2.0, 2.0, 2.0), "virginica"),
        LabeledExample((1.0, 1.0, 1.0, 1.0), "versicolor"),
    ])
    assert all(g.theta == 0.0 for g in low.init_gates)
    assert all(abs(g.theta - math.pi) < 1e-12 for g in high.init_gates)
    assert all(abs(g.theta - math.pi / 2) < 1e-12 for g in mid.init_gates)
    # qubit at the midpoint measures 0/1 with equal probability
    circuit = Circuit(4, mid.init_gates, (0,))
    np.testing.assert_allclose(run_ideal(circuit), [0.5, 0.5], atol=1e-12)
    # lower edge keeps |0>, upper edge reaches |1>
    np.testing.assert_allclose(run_ideal(Circuit(4, low.init_gates, (0,))), [1, 0], atol=1e-12)
    np.testing.assert_allclose(run_ideal(Circuit(4, high.init_gates, (0,))), [0, 1], atol=1e-12)


def test_encode_all_angles_in_range_and_monotone(dataset):
    cases = encode_all(dataset)
    assert len(cases) == 150
    for case in cases:
        assert case.expected in (0, 1, 2)  # never the invalid value 3
        for gate in case.init_gates:
            assert type(gate.theta) is float
            assert 0.0 <= gate.theta <= math.pi
    # monotone per feature: sort examples by feature 2, angles must not decrease
    order = sorted(range(len(dataset)), key=lambda i: dataset[i].features[2])
    thetas = [cases[i].init_gates[2].theta for i in order]
    assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))


def test_split_sizes_and_partition(dataset):
    evo, eva = split(dataset, 100, seed=5)
    assert len(evo) == 100 and len(eva) == 50
    evo_set = {id(e) for e in evo}
    eva_set = {id(e) for e in eva}
    assert not evo_set & eva_set
    assert evo_set | eva_set == {id(e) for e in dataset}


def test_split_determinism(dataset):
    assert split(dataset, 100, seed=3) == split(dataset, 100, seed=3)
    assert split(dataset, 100, seed=3) != split(dataset, 100, seed=4)


def test_split_rejects_degenerate_sizes(dataset):
    with pytest.raises(ValidationError):
        split(dataset, 0, seed=1)
    with pytest.raises(ValidationError):
        split(dataset, 150, seed=1)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 149))
def test_split_partition_property(seed, n):
    items = list(range(150))
    evo, eva = split(items, n, seed)
    assert len(evo) == n and len(eva) == 150 - n
    assert sorted(evo + eva) == items


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), total=st.integers(2, 200), data=st.data())
def test_split_without_labels_is_the_one_label_stratified_split(seed, total, data):
    n = data.draw(st.integers(1, total - 1))
    items = list(range(total))
    evo, eva = split(items, n, seed)
    assert (evo, eva) == split(items, n, seed, labels=["any"] * total)
    # oracle: the first n of one permutation of all the items
    chosen = set(np.random.default_rng(seed).permutation(total)[:n].tolist())
    assert evo == [i for i in items if i in chosen]


def test_stratified_split(dataset):
    evo, eva = split(dataset, 99, seed=2, labels=[e.class_label for e in dataset])
    counts = {}
    for e in evo:
        counts[e.class_label] = counts.get(e.class_label, 0) + 1
    assert counts == {"setosa": 33, "versicolor": 33, "virginica": 33}


def test_split_refuses_labels_that_do_not_match_the_items():
    for labels in (["a"] * 9, ["a"] * 11):
        with pytest.raises(ValidationError, match="labels for 10 items"):
            split(range(10), 5, seed=0, labels=labels)


def test_stratified_split_refuses_a_label_short_of_its_share():
    # 'a' would need 30 of the 60 evolution items, but has 10
    with pytest.raises(ValidationError, match="label 'a' has 10 items, fewer than its share 30"):
        split(range(100), 60, 0, labels=["a"] * 10 + ["b"] * 90)
    evolution, _ = split(range(100), 20, 0, labels=["a"] * 10 + ["b"] * 90)
    assert sorted(i < 10 for i in evolution) == [False] * 10 + [True] * 10


def test_split_refuses_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        split(range(10), 5, seed=-1)
