import json
import math
import re
from pathlib import Path

import pytest

from qcens import Circuit, CXGate, EvolutionConfig, UGate, evolve
from qcens.ensemble import TestCase
from qcens.errors import ParseError, ValidationError
from qcens.serialization import (
    RESULT_FIELDS,
    ResultRow,
    circuit_from_obj,
    circuit_to_obj,
    config_from_obj,
    config_to_obj,
    parse_eval_mode,
    read_config,
    read_population,
    read_test_cases,
    result_rows_from_csv,
    result_rows_to_csv,
    result_table_text,
    write_config,
    write_atomic,
    write_population,
    write_test_cases,
)


def test_circuit_round_trip():
    circuit = Circuit(3, (UGate(0, 0.1, 0.2, 0.3), CXGate(2, 1)), (0, 2))
    assert circuit_from_obj(circuit_to_obj(circuit)) == circuit


def test_a_gate_of_no_known_type_is_refused_when_written():
    class SwapGate:  # ``Circuit`` asks a gate only to validate itself
        def validate(self, num_qubits):
            pass

    with pytest.raises(ValidationError, match="unknown gate type: SwapGate"):
        circuit_to_obj(Circuit(2, (SwapGate(),), (0,)))


def test_circuit_round_trip_preserves_full_angle_precision():
    theta = math.pi / 7 + 1e-16
    circuit = Circuit(1, (UGate(0, theta, 1 / 3, 2 / 3),), (0,))
    restored = circuit_from_obj(json.loads(json.dumps(circuit_to_obj(circuit))))
    assert restored.gates[0].theta == circuit.gates[0].theta
    assert restored.gates[0].phi == circuit.gates[0].phi


def test_test_case_file_round_trip(tmp_path):
    cases = [
        TestCase(expected=2, features=(0.1, 0.2, 0.3, 0.4)),
        TestCase(expected=0, init_gates=(UGate(0, 1.0, 0.0, 0.0), CXGate(0, 1))),
    ]
    path = tmp_path / "cases.jsonl"
    write_test_cases(cases, path)
    assert read_test_cases(path) == cases


def test_test_case_file_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ParseError, match=":1"):
        read_test_cases(path)
    path.write_text("")
    with pytest.raises(ParseError, match="no test cases"):
        read_test_cases(path)


def test_test_case_line_with_both_init_forms_is_refused(tmp_path):
    path = tmp_path / "both.jsonl"
    write_test_cases([TestCase(expected=1, features=(0.1, 0.2))], path)
    both = {"expected": 1, "features": [0.1, 0.2],
            "init_gates": [{"gate": "cx", "control": 0, "target": 1}]}
    path.write_text(path.read_text() + json.dumps(both) + "\n")
    with pytest.raises(ValidationError, match=f"{path}:2: test case needs exactly one"):
        read_test_cases(path)


def test_config_round_trip(tmp_path):
    config = EvolutionConfig(num_qubits=3, measured_qubits=(0, 2), population_size=10,
                             generations=7, ensemble_size=3, gate_cap=9, seed=11,
                             shots=500)
    path = tmp_path / "config.json"
    write_config(config, path)
    assert read_config(path) == config


def test_eval_mode_parsing():
    assert parse_eval_mode("exact") is None
    assert parse_eval_mode("shots:1000") == 1000
    with pytest.raises(ParseError):
        parse_eval_mode("shots:abc")
    with pytest.raises(ParseError):
        parse_eval_mode("fuzzy")


@pytest.mark.parametrize("mode", [5, None, ["exact"]])
def test_eval_mode_names_the_grammar_for_a_non_string(tmp_path, mode):
    with pytest.raises(ParseError, match=r"eval mode must be 'exact' or 'shots:<count>'"):
        parse_eval_mode(mode)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eval_mode": mode}))
    with pytest.raises(ParseError, match=f"{path}: eval mode must be"):
        read_config(path)


@pytest.mark.parametrize("mode", ["shots: 5", "shots:+5", "shots:1_000", "shots:007",
                                  "shots:\u0665", "shots:0", "shots:5 ", "shots:5\n",
                                  "shots:", "Shots:5", " exact"])
def test_eval_mode_refuses_counts_that_would_not_write_back(mode):
    with pytest.raises(ParseError, match="eval mode"):
        parse_eval_mode(mode)


@pytest.mark.parametrize("digits", [str(2**63), "9" * 20, "9" * 5000])
def test_eval_mode_refuses_counts_over_the_int64_bound_naming_the_file(tmp_path, digits):
    assert parse_eval_mode(f"shots:{2**63 - 1}") == 2**63 - 1
    with pytest.raises(ValidationError, match=r"^shots must be in \[1, 2\*\*63 - 1\]"):
        parse_eval_mode(f"shots:{digits}")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eval_mode": f"shots:{digits}"}))
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: shots must be in \[1, 2\*\*63 - 1\]"):
        read_config(path)


def test_config_key_shots_is_refused_naming_eval_mode():
    with pytest.raises(ParseError, match="unknown config key 'shots'.*eval_mode"):
        config_from_obj({"shots": 1000})


def test_config_obj_stable():
    config = EvolutionConfig()
    assert config_from_obj(config_to_obj(config)) == config


def test_population_file_round_trip(tmp_path):
    config = EvolutionConfig(num_qubits=2, measured_qubits=(0, 1), population_size=4,
                             generations=2, ensemble_size=2, gate_cap=4, seed=9, tournament_size=3)
    population = evolve(config, [TestCase(expected=0, features=(0.0, 0.0))])
    path = tmp_path / "pop.json"
    write_population(population, path)
    restored = read_population(path)
    assert restored == population


def test_population_serialization_is_byte_deterministic(tmp_path):
    config = EvolutionConfig(num_qubits=2, measured_qubits=(0, 1), population_size=4,
                             generations=2, ensemble_size=2, gate_cap=4, seed=9, tournament_size=3)
    tests = [TestCase(expected=0, features=(0.0, 0.0))]
    for name in ("a.json", "b.json"):
        write_population(evolve(config, tests), tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_population_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ParseError, match="not a population file"):
        read_population(path)


SAMPLE_ROWS = [
    ResultRow("ideal", 3, 0.782, 0.757, 1e-5, 0.9),
    ResultRow("ideal", 5, 0.920, 0.775, 1e-6, 0.95),
    ResultRow("ideal", 7, 0.920, 0.783, 1e-6, 0.96),
]


def test_result_rows_csv_round_trip():
    text = result_rows_to_csv(SAMPLE_ROWS)
    assert result_rows_from_csv(text) == SAMPLE_ROWS


def test_result_rows_skip_blank_lines_between_rows():
    header, *rows = result_rows_to_csv(SAMPLE_ROWS).splitlines(keepends=True)
    assert result_rows_from_csv(header + rows[0] + "\n" + "".join(rows[1:]) + "\n") == SAMPLE_ROWS


def test_result_rows_reject_empty():
    with pytest.raises(ValidationError):
        result_rows_to_csv([])
    with pytest.raises(ValidationError):
        result_table_text([])
    with pytest.raises(ParseError, match="result file has no rows"):
        result_rows_from_csv(",".join(RESULT_FIELDS) + "\n\n\n")


def test_result_table_layout():
    table = result_table_text(SAMPLE_ROWS)
    lines = table.strip().splitlines()
    assert len(lines) == 2  # header + one backend row
    numeric_cells = lines[1].split()[1:]
    assert len(numeric_cells) == 12  # 4 columns for each of the 3 sizes


def test_result_table_marks_a_missing_backend_and_size_with_dashes():
    rows = [ResultRow("ideal", 3, 0.8, 0.7, 0.01, 0.5), ResultRow("storm", 5, 0.6, 0.5, 0.2, 0.1)]
    ideal, storm = [line.split() for line in result_table_text(rows).splitlines()[1:]]
    assert ideal[0] == "ideal" and ideal[5:] == ["-"] * 4
    assert storm[0] == "storm" and storm[1:5] == ["-"] * 4


def test_result_table_refuses_two_rows_for_one_cell():
    with pytest.raises(ValidationError, match="two rows for backend 'ideal', n=5"):
        result_table_text([*SAMPLE_ROWS, ResultRow("ideal", 5, 0.5, 0.5, 1.0, 0.0)])


@pytest.mark.parametrize("row", ["ideal, 5,0.8,0.7,0.01,0.5", "ideal,5,0.8 ,0.7,0.01,0.5",
                                 "ideal,5,0.8,0.7,0.01,\t0.5"], ids=["n", "median", "tab"])
def test_result_number_cells_with_spaces_are_refused(row):
    """JSON would skip the spaces, and the row would not write back as it was read."""
    with pytest.raises(ParseError, match="may not carry spaces"):
        result_rows_from_csv(f"{','.join(RESULT_FIELDS)}\n{row}\n")


@pytest.mark.parametrize("cell", ["0.80", "1e0", "1E-6"])
def test_result_float_cells_not_spelled_by_repr_are_refused(cell):
    """The writer would write these back as ``0.8``, ``1.0`` and ``1e-06``."""
    with pytest.raises(ParseError, match=f"p_value cell '{cell}' is not written as"):
        result_rows_from_csv(f"{','.join(RESULT_FIELDS)}\nideal,5,0.8,0.7,{cell},0.5\n")


def test_write_atomic_writes_every_file_or_none(tmp_path, monkeypatch):
    real_write_text = Path.write_text

    def write_text(self, data, *args, **kwargs):
        if self.name == "b.txt.tmp":
            raise OSError("disk full")
        return real_write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    with pytest.raises(OSError, match="disk full"):
        write_atomic((tmp_path / "a.txt", "a"), (tmp_path / "b.txt", "b"))
    assert not any(tmp_path.iterdir())


def test_write_atomic_leaves_an_existing_temp_named_file_intact(tmp_path):
    (tmp_path / "x.tmp").write_text("a user's file")
    write_atomic((tmp_path / "x", "new"))
    assert (tmp_path / "x").read_text() == "new"
    assert (tmp_path / "x.tmp").read_text() == "a user's file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x", "x.tmp"]


def test_write_atomic_gives_its_outputs_a_plain_writes_mode(tmp_path):
    (tmp_path / "plain").write_text("a")
    write_atomic((tmp_path / "atomic", "a"))
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_write_atomic_refuses_one_file_given_twice(tmp_path):
    with pytest.raises(ValidationError, match="given twice"):
        write_atomic((tmp_path / "a.txt", "a"), (tmp_path / "." / "a.txt", "b"))
    assert not any(tmp_path.iterdir())


def test_result_csv_bad_header():
    with pytest.raises(ParseError):
        result_rows_from_csv("nope\n1,2,3\n")
