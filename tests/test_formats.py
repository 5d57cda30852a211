"""Properties of the file formats in FORMATS.md.

Valid files round-trip byte for byte.  Malformed files (arbitrary bytes, a
required key dropped or repeated, a value swapped for one of another type, an
integer swapped for a float or a bool, a float swapped for a numeric string, a
bool, NaN, an infinity or an integer too large for a float) make the reader raise a
``QcensError`` and never any other exception.  A number in a text format too large
for a float, or of over 4,300 digits, is a ``ParseError`` that names its key and
does not echo the digits.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcens import Circuit, CXGate, EvolutionConfig, NoiseModel, UGate
from qcens.ensemble import Ensemble, FitnessReport, TestCase
from qcens.errors import ParseError, QcensError, ValidationError
from qcens.evolution import Population
from qcens.iris import SPECIES, load_dataset
from qcens.noisefiles import load_noise_file, parse_noise_config, write_noise_config
from qcens.serialization import (
    RESULT_FIELDS,
    ResultRow,
    config_to_obj,
    decode_file,
    population_to_obj,
    read_config,
    read_population,
    read_test_cases,
    result_rows_from_csv,
    result_rows_to_csv,
    test_case_to_obj as case_to_obj,
    write_config,
    write_population,
    write_test_cases,
)

TOO_LARGE = "1" * 400  # an integer beyond the float range
TOO_LONG = "1" * 5000  # over the 4,300 digits that int() reads
PROPERTY = settings(deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One scratch file, rewritten by every example of a property."""
    return tmp_path_factory.mktemp("formats") / "file"


def read_rows(path):
    return decode_file(path, result_rows_from_csv)


def reads_or_raises_qcens_error(read, path) -> None:
    try:
        read(path)
    except QcensError:
        pass


# --- strategies for valid objects ---

@st.composite
def gates(draw, num_qubits: int):
    if num_qubits >= 2 and draw(st.booleans()):
        control, target = draw(st.permutations(range(num_qubits)))[:2]
        return CXGate(control, target)
    return UGate(draw(st.integers(0, num_qubits - 1)), draw(finite), draw(finite), draw(finite))


@st.composite
def registers(draw):
    num_qubits = draw(st.integers(1, 4))
    measured = draw(st.permutations(range(num_qubits)))
    return num_qubits, tuple(measured[:draw(st.integers(1, num_qubits))])


@st.composite
def circuits(draw, register):
    num_qubits, measured = register
    return Circuit(num_qubits, tuple(draw(st.lists(gates(num_qubits), max_size=4))), measured)


@st.composite
def cases(draw):
    expected = draw(st.integers(0, 2**40))
    if draw(st.booleans()):
        return TestCase(expected=expected, features=tuple(draw(st.lists(finite, max_size=5))))
    return TestCase(expected=expected, init_gates=tuple(draw(st.lists(gates(3), max_size=4))))


@st.composite
def configs(draw):
    num_qubits, measured = draw(registers())
    population_size = draw(st.integers(2, 500))
    return EvolutionConfig(
        num_qubits=num_qubits, measured_qubits=measured, population_size=population_size,
        generations=draw(st.integers(1, 10**6)), ensemble_size=draw(st.integers(1, 9)),
        gate_cap=draw(st.integers(1, 100)), crossover_rate=draw(unit),
        mutation_rate=draw(unit), tournament_size=draw(st.integers(1, population_size)),
        elite_fraction=draw(unit), angle_sigma=draw(st.floats(0.0, 1e6)),
        seed=draw(st.integers(0, 2**63)), shots=draw(st.none() | st.integers(1, 10**6)),
    )


@st.composite
def populations(draw):
    register = draw(registers())
    size = draw(st.integers(1, 3))
    individuals = draw(st.lists(
        st.lists(circuits(register), min_size=size, max_size=size).map(Ensemble),
        min_size=1, max_size=3))
    fitnesses = [FitnessReport(draw(unit), tuple(draw(st.lists(unit, max_size=4))))
                 for _ in individuals]
    return Population(tuple(individuals), tuple(fitnesses), draw(st.integers(0, 10**6)),
                      draw(st.none() | configs()))


backend_names = st.text(st.characters(codec="ascii", exclude_characters="\r\n"), max_size=12)
result_rows = st.lists(st.builds(ResultRow, backend_names, st.integers(-10**6, 10**6),
                                 finite, finite, finite, finite), min_size=1, max_size=5)
noise_models = st.builds(NoiseModel, unit, unit, unit, unit,  # "ideal" names the noiseless rows
                         name=st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", max_size=10)
                         .filter(lambda name: name != "ideal"))


def dataset_text(seed: int) -> str:
    """150 rows of positive features, 50 per species, in a seeded order."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(3), 50))
    return "".join(
        ",".join(repr(float(x)) for x in rng.uniform(0.1, 10.0, 4)) + f",Iris-{SPECIES[i]}\n"
        for i in labels
    )


def dataset_rows_text(examples) -> str:
    return "".join(",".join(repr(x) for x in e.features) + f",Iris-{e.class_label}\n"
                   for e in examples)


# --- round trips ---

@PROPERTY
@given(written=st.lists(cases(), min_size=1, max_size=4))
def test_test_case_files_round_trip(path, written):
    write_test_cases(written, path)
    text = path.read_bytes()
    assert read_test_cases(path) == written
    write_test_cases(read_test_cases(path), path)
    assert path.read_bytes() == text


@PROPERTY
@given(config=configs())
def test_config_files_round_trip(path, config):
    write_config(config, path)
    text = path.read_bytes()
    assert read_config(path) == config
    write_config(read_config(path), path)
    assert path.read_bytes() == text


@PROPERTY
@given(population=populations())
def test_population_files_round_trip(path, population):
    write_population(population, path)
    text = path.read_bytes()
    assert read_population(path) == population
    write_population(read_population(path), path)
    assert path.read_bytes() == text


@PROPERTY
@given(rows=result_rows)
def test_result_row_files_round_trip(path, rows):
    text = result_rows_to_csv(rows)
    path.write_text(text)
    assert read_rows(path) == rows
    assert result_rows_to_csv(read_rows(path)) == text


@PROPERTY
@given(model=noise_models)
def test_noise_config_files_round_trip(path, model):
    write_noise_config(model, path)
    text = path.read_bytes()
    assert load_noise_file(path) == model
    write_noise_config(load_noise_file(path), path)
    assert path.read_bytes() == text


@PROPERTY
@given(model=st.builds(NoiseModel, unit, unit, unit, unit,
                       name=st.text(st.characters(codec="ascii"), max_size=6)))
def test_noise_config_names_round_trip_or_are_refused(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("names") / "noise.txt"
    try:
        write_noise_config(model, path)
    except ValidationError:
        assert not path.exists()
        return
    assert load_noise_file(path) == model


NON_UTF8_LOCALE_ROUND_TRIP = r"""
import locale, sys
from pathlib import Path
from qcens import NoiseModel
from qcens.noisefiles import load_noise_file, write_noise_config

model = NoiseModel(0.01, 0.02, 0.03, 0.04, name="bris\u00e9e")
given, written = Path(sys.argv[1]) / "given.txt", Path(sys.argv[1]) / "written.txt"
given.write_bytes(
    "name = bris\u00e9e\np1 = 0.01\np2 = 0.02\n"
    "readout_flip_0to1 = 0.03\nreadout_flip_1to0 = 0.04\n".encode("utf-8"))
assert load_noise_file(given) == model
write_noise_config(model, written)
assert written.read_bytes() == given.read_bytes()
assert load_noise_file(written) == model
print(locale.getpreferredencoding(False))
"""


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale with no UTF-8 mode, Python's default text encoding is ASCII."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", NON_UTF8_LOCALE_ROUND_TRIP, str(tmp_path)],
                          env=env, capture_output=True, text=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert "utf" not in done.stdout.lower().replace("-", "")  # the locale did not fall back


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_dataset_files_round_trip(path, seed):
    text = dataset_text(seed)
    path.write_text(text)
    assert dataset_rows_text(load_dataset(path)) == text


# --- malformed files ---

READERS = {
    "test cases": read_test_cases, "config": read_config, "population": read_population,
    "result rows": read_rows, "noise config": load_noise_file, "dataset": load_dataset,
}


@PROPERTY
@given(reader=st.sampled_from(sorted(READERS)), content=st.binary(max_size=300))
def test_arbitrary_bytes_raise_only_qcens_errors(path, reader, content):
    path.write_bytes(content)
    reads_or_raises_qcens_error(READERS[reader], path)


def value_paths(obj, prefix=()):
    """Paths to every value inside a JSON tree, containers included."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def json_edits(obj):
    """Every edit of a JSON tree: each key dropped, each value set to null and to
    "x", each integer set to 1.5 and to true, each float set to its own digits
    as a string, to true, to NaN, to Infinity and to an integer too large for a float.

    Yields (edited tree, the dropped key's path or None).
    """
    for where in value_paths(obj):
        value = obj
        for key in where:
            value = value[key]
        edits = ["drop", None, "x"]
        if type(value) is int:
            edits += [1.5, True]
        elif type(value) is float:
            edits += [repr(value), True, math.nan, math.inf, int(TOO_LARGE)]
        for edit in edits:
            if edit == "drop" and not isinstance(where[-1], str):
                continue
            tree = copy.deepcopy(obj)
            parent = tree
            for key in where[:-1]:
                parent = parent[key]
            if edit == "drop":
                del parent[where[-1]]
            else:
                parent[where[-1]] = edit
            yield tree, where if edit == "drop" else None


EDITS = settings(PROPERTY, max_examples=15)


@EDITS
@given(written=st.lists(cases(), min_size=1, max_size=3))
def test_edited_test_case_files_raise_qcens_errors(path, written):
    for obj, _ in json_edits([case_to_obj(c) for c in written]):
        path.write_text("".join(json.dumps(line) + "\n" for line in obj))
        with pytest.raises(QcensError):
            read_test_cases(path)


@EDITS
@given(config=configs())
def test_edited_config_files_raise_qcens_errors(path, config):
    for obj, dropped in json_edits(config_to_obj(config)):
        path.write_text(json.dumps(obj))
        if dropped:  # every config field has a default
            reads_or_raises_qcens_error(read_config, path)
        else:
            with pytest.raises(QcensError):
                read_config(path)


@EDITS
@given(population=populations())
def test_edited_population_files_raise_qcens_errors(path, population):
    for obj, dropped in json_edits(population_to_obj(population)):
        path.write_text(json.dumps(obj))
        if dropped and dropped[0] == "config":  # the config and its fields are optional
            reads_or_raises_qcens_error(read_population, path)
        else:
            with pytest.raises(QcensError):
                read_population(path)


@PROPERTY
@given(rows=result_rows, data=st.data())
def test_edited_result_row_files_raise_qcens_errors(path, rows, data):
    lines = [line.split(",") for line in result_rows_to_csv(rows).split("\n")[:-1]]
    index = data.draw(st.integers(0, len(lines) - 1))
    named = ""
    if data.draw(st.booleans()):
        del lines[index][-1]
    else:
        lines[index][-1] = data.draw(st.sampled_from(["x", "", "nan", "Infinity", "1_0",
                                                      TOO_LARGE, TOO_LONG]))
        named = "effect_r" if index else ""  # line 0 is the header
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    with pytest.raises(QcensError, match=named or None) as error:
        read_rows(path)
    if named:
        assert "1" * 100 not in str(error.value)


@PROPERTY
@given(model=noise_models, data=st.data())
def test_edited_noise_config_files_raise_qcens_errors(path, model, data):
    write_noise_config(model, path)
    lines = path.read_text().splitlines()
    index = data.draw(st.integers(1, len(lines) - 1))  # line 0 is the optional name
    # float() would read 1_0e-3, .5 and the fullwidth digits as 0.01, 0.5 and 0.5
    edit = data.draw(st.sampled_from(["drop", "repeat", "x", "1_0e-3", ".5", "\uff10.\uff15",
                                      TOO_LARGE, TOO_LONG]))
    named = ""
    if edit == "drop":
        del lines[index]
    elif edit == "repeat":
        lines.insert(index, lines[data.draw(st.integers(0, len(lines) - 1))])
    else:
        key = lines[index].partition("=")[0]
        lines[index] = key + "= " + edit
        named = f": {key.strip()} "
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=named or None) as error:
        load_noise_file(path)
    assert "1" * 100 not in str(error.value)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_edited_dataset_files_raise_qcens_errors(path, seed, data):
    lines = [line.split(",") for line in dataset_text(seed).splitlines()]
    row = lines[data.draw(st.integers(0, len(lines) - 1))]
    column = data.draw(st.integers(0, len(row) - 1))
    named = ""
    if data.draw(st.booleans()):
        del row[column]
    else:  # float() reads 5_1 as 51.0
        row[column] = data.draw(st.sampled_from(["x", "5_1", TOO_LARGE, TOO_LONG]))
        named = f"feature {column} " if column < len(row) - 1 else "unknown species"
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    with pytest.raises(QcensError, match=rf":\d+: {named}") as error:
        load_dataset(path)
    if named.startswith("feature"):
        assert "1" * 100 not in str(error.value)


@pytest.mark.parametrize("digits", [TOO_LARGE, TOO_LONG], ids=["too-large", "too-long"])
def test_numbers_a_float_cannot_hold_are_parse_errors_naming_their_key(digits):
    header = ",".join(RESULT_FIELDS) + "\n"
    rates = "p1 = 0\np2 = {}\nreadout_flip_0to1 = 0\nreadout_flip_1to0 = 0\n"
    refused = "(must be a finite float|has over 4,300 digits)"
    for number in (digits, "-" + digits):
        with pytest.raises(ParseError, match=f"^p2 {refused}") as error:
            parse_noise_config(rates.format(number))
        assert "1" * 100 not in str(error.value)
        with pytest.raises(ParseError, match=f"^p_value {refused}") as error:
            result_rows_from_csv(header + f"ideal,5,0.8,0.7,{number},0.5\n")
        assert "1" * 100 not in str(error.value)
    if digits is TOO_LONG:  # n is an integer field, so 400 digits read as an int
        with pytest.raises(ParseError, match="^n has over 4,300 digits"):
            result_rows_from_csv(header + f"ideal,{digits},0.8,0.7,0.01,0.5\n")


@pytest.mark.parametrize("reader, content", [
    pytest.param("population", '{"format": "qcens-population-v1", "generation": 1e999,'
                               ' "ensembles": [], "fitnesses": []}', id="int-of-infinity"),
    pytest.param("population", "[" * 100_000, id="json-nested-too-deep"),
    pytest.param("dataset", "1" * 200_000 + ",1,1,1,Iris-setosa\n", id="dataset-huge-field"),
    pytest.param("result rows", "backend,n,median_het,median_hom,p_value,effect_r\n"
                 + "x" * 200_000, id="rows-huge-field"),
])
def test_overflow_deep_nesting_and_huge_fields_raise_parse_errors(tmp_path, reader, content):
    path = tmp_path / "file"
    path.write_text(content)
    with pytest.raises(ParseError, match=str(path)):
        READERS[reader](path)
