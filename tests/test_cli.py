import json
import math

import pytest

import qcens.cli as cli
from qcens import Circuit, EvolutionConfig, UGate
from qcens.cli import main
from qcens.ensemble import Ensemble, FitnessReport, TestCase
from qcens.evolution import Population
from qcens.harness import compare_populations
from qcens.iris import bundled_dataset_path
from qcens.serialization import (
    config_to_obj,
    population_to_obj,
    read_population,
    read_test_cases,
    result_rows_from_csv,
    write_config,
    write_population,
    write_test_cases,
)


@pytest.fixture
def trivial_setup(tmp_path):
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=16,
                             generations=30, ensemble_size=1, gate_cap=6, seed=3)
    config_path = tmp_path / "config.json"
    write_config(config, config_path)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    return config_path, tests_path


def noop_population(tmp_path, n_members=1, count=3):
    noop = Circuit(4, (UGate(2, 0.0, 0.0, 0.0),), (0, 1))
    individuals = tuple(Ensemble((noop,) * n_members) for _ in range(count))
    fitnesses = tuple(FitnessReport(1.0, (1.0,)) for _ in range(count))
    population = Population(individuals, fitnesses, 0)
    path = tmp_path / f"noop_n{n_members}.json"
    write_population(population, path)
    return path


def test_evolve_command_solves_trivial_problem(trivial_setup, tmp_path, capsys):
    config_path, tests_path = trivial_setup
    out = tmp_path / "pop.json"
    code = main(["evolve", "--config", str(config_path), "--tests", str(tests_path),
                 "--population", str(out)])
    assert code == 0
    assert out.exists()
    population = read_population(out)
    assert max(r.fitness for r in population.fitnesses) >= 0.99
    stdout = capsys.readouterr().out
    assert "best" in stdout and "mean" in stdout


def test_evolve_missing_test_file_exits_2(trivial_setup, tmp_path, capsys):
    config_path, _ = trivial_setup
    out = tmp_path / "pop.json"
    for tests in (tmp_path / "missing.jsonl", tmp_path):  # absent, then a directory
        code = main(["evolve", "--config", str(config_path),
                     "--tests", str(tests), "--population", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err


def test_evolve_same_seed_byte_identical(trivial_setup, tmp_path):
    config_path, tests_path = trivial_setup
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["evolve", "--config", str(config_path), "--tests", str(tests_path),
                     "--population", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_evaluate_noop_population(tmp_path, capsys):
    pop_path = noop_population(tmp_path)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    assert main(["evaluate", "--population", str(pop_path), "--tests", str(tests_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [float(line.split(",")[1]) for line in lines] == [1.0, 1.0, 1.0]


def test_evaluate_zero_noise_matches_ideal(tmp_path, capsys):
    pop_path = noop_population(tmp_path)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.3, 0.7, 0.0, 0.0))], tests_path)
    zero_noise = tmp_path / "zero.txt"
    zero_noise.write_text("name = zero\np1 = 0\np2 = 0\n"
                          "readout_flip_0to1 = 0\nreadout_flip_1to0 = 0\n")
    assert main(["evaluate", "--population", str(pop_path), "--tests", str(tests_path)]) == 0
    ideal = capsys.readouterr().out
    assert main(["evaluate", "--population", str(pop_path), "--tests", str(tests_path),
                 "--noise", str(zero_noise)]) == 0
    noisy = capsys.readouterr().out
    for li, ln in zip(ideal.splitlines(), noisy.splitlines()):
        assert abs(float(li.split(",")[1]) - float(ln.split(",")[1])) < 1e-10


def test_evaluate_full_readout_flip_gives_quarter(tmp_path, capsys):
    pop_path = noop_population(tmp_path)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=2, features=(0.0,) * 4)], tests_path)
    flip = tmp_path / "flip.txt"
    flip.write_text("name = flip\np1 = 0\np2 = 0\n"
                    "readout_flip_0to1 = 0.5\nreadout_flip_1to0 = 0.5\n")
    assert main(["evaluate", "--population", str(pop_path), "--tests", str(tests_path),
                 "--noise", str(flip)]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        assert abs(float(line.split(",")[1]) - 0.25) < 1e-12


def test_evaluate_unknown_noise_name_lists_presets(tmp_path, capsys):
    pop_path = noop_population(tmp_path)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    code = main(["evaluate", "--population", str(pop_path), "--tests", str(tests_path),
                 "--noise", "bogus"])
    assert code == 2
    assert "feather" in capsys.readouterr().err


def test_compare_identical_populations(tmp_path, capsys):
    het = noop_population(tmp_path, n_members=3)
    hom = noop_population(tmp_path, n_members=1)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    rows_path = tmp_path / "rows.csv"
    assert main(["compare", "--het-population", str(het), "--hom-population", str(hom),
                 "--ensemble-size", "3", "--tests", str(tests_path),
                 "--append-to", str(rows_path)]) == 0
    rows = result_rows_from_csv(rows_path.read_text())
    assert rows[0].effect_r == 0.0
    assert rows[0].p_value == 1.0


def test_compare_rejects_size_mismatch(tmp_path, capsys):
    het = noop_population(tmp_path, n_members=3)
    hom = noop_population(tmp_path, n_members=1)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    code = main(["compare", "--het-population", str(het), "--hom-population", str(hom),
                 "--ensemble-size", "5", "--tests", str(tests_path)])
    assert code == 2


def test_report_round_trip(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(
        "backend,n,median_het,median_hom,p_value,effect_r\n"
        "gale,3,0.7,0.6,0.01,0.5\n"
        "ideal,3,0.8,0.7,0.001,0.9\n"
    )
    out_csv = tmp_path / "table.csv"
    out_table = tmp_path / "table.txt"
    assert main(["report", "--rows", str(rows_path), "--out-csv", str(out_csv),
                 "--out-table", str(out_table)]) == 0
    rows = result_rows_from_csv(out_csv.read_text())
    assert rows[0].backend_name == "ideal"  # ideal row first
    table = out_table.read_text()
    assert table.splitlines()[1].split()[0] == "ideal"


def test_compare_refuses_a_second_row_for_one_backend_and_size(tmp_path, capsys):
    het = noop_population(tmp_path, n_members=3)
    hom = noop_population(tmp_path, n_members=1)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    rows_path = tmp_path / "rows.csv"
    argv = ["compare", "--het-population", str(het), "--hom-population", str(hom),
            "--ensemble-size", "3", "--tests", str(tests_path), "--append-to", str(rows_path)]
    assert main(argv) == 0
    written = rows_path.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: two rows for backend 'ideal', n=3\n"
    assert captured.out == ""
    assert rows_path.read_bytes() == written
    assert not list(tmp_path.glob("*.tmp"))


def test_report_writes_both_outputs_or_neither(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(GOOD_ROWS)
    code = main(["report", "--rows", str(rows_path), "--out-csv", str(tmp_path / "ok.csv"),
                 "--out-table", str(tmp_path / "missing" / "t.txt")])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_report_refuses_a_directory_as_either_output(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(GOOD_ROWS)
    (tmp_path / "table").mkdir()
    code = main(["report", "--rows", str(rows_path), "--out-csv", str(tmp_path / "ok.csv"),
                 "--out-table", str(tmp_path / "table")])
    assert code == 2
    assert "is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "table"]


def test_report_refuses_one_file_for_both_outputs(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(GOOD_ROWS)
    out = str(tmp_path / "out.txt")
    assert main(["report", "--rows", str(rows_path), "--out-csv", out, "--out-table", out]) == 2
    assert "given twice" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_encode_dataset_single_file(tmp_path):
    out = tmp_path / "cases.jsonl"
    assert main(["encode-dataset", "--input", str(bundled_dataset_path()),
                 "--output", str(out)]) == 0
    cases = read_test_cases(out)
    assert len(cases) == 150
    assert {c.expected for c in cases} == {0, 1, 2}


def test_encode_dataset_split_files(tmp_path):
    evo = tmp_path / "evolution.jsonl"
    eva = tmp_path / "evaluation.jsonl"
    assert main(["encode-dataset", "--input", str(bundled_dataset_path()),
                 "--evolution-out", str(evo), "--evaluation-out", str(eva),
                 "--n-evolution", "100", "--seed", "4"]) == 0
    assert len(read_test_cases(evo)) == 100
    assert len(read_test_cases(eva)) == 50


def test_encode_dataset_writes_both_splits_or_neither(tmp_path, capsys):
    code = main(["encode-dataset", "--input", str(bundled_dataset_path()),
                 "--evolution-out", str(tmp_path / "evo.jsonl"),
                 "--evaluation-out", str(tmp_path / "missing" / "eva.jsonl")])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("stratified", [[], ["--stratified"]], ids=["random", "stratified"])
def test_encode_dataset_negative_seed_exits_2(tmp_path, capsys, stratified):
    code = main(["encode-dataset", "--input", str(bundled_dataset_path()),
                 "--evolution-out", str(tmp_path / "evo.jsonl"),
                 "--evaluation-out", str(tmp_path / "eva.jsonl"), "--seed", "-1", *stratified])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: seed must be >= 0\n"
    assert not any(tmp_path.iterdir())


def test_evaluate_negative_seed_exits_2(tmp_path, capsys):
    population = noop_population(tmp_path)
    tests = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests)
    code = main(["evaluate", "--population", str(population), "--tests", str(tests),
                 "--mode", "shots:10", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: seed must be >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("outputs", [
    ["--output", "cases", "--evolution-out", "evo", "--evaluation-out", "eva"],
    ["--output", "cases", "--evaluation-out", "eva"],
    ["--output", "cases", "--stratified"],
    ["--evolution-out", "evo"],
    ["--evaluation-out", "eva", "--stratified"],
], ids=["output-and-splits", "output-and-one-split", "output-stratified", "one-split",
        "one-split-stratified"])
def test_encode_dataset_refuses_mixed_outputs(tmp_path, capsys, outputs):
    argv = ["encode-dataset", "--input", str(bundled_dataset_path())]
    argv += [arg if arg.startswith("--") else str(tmp_path / arg) for arg in outputs]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error: encode-dataset takes either --output" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_encode_dataset_requires_output(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["encode-dataset", "--input", str(bundled_dataset_path())])
    assert excinfo.value.code == 2


NOOP_POPULATION_OBJ = population_to_obj(Population(
    (Ensemble((Circuit(4, (UGate(2, 0.0, 0.0, 0.0),), (0, 1)),)),),
    (FitnessReport(1.0, (1.0,)),), 0))
SMALL_CONFIG_OBJ = config_to_obj(EvolutionConfig(population_size=4, generations=1,
                                                 tournament_size=2))
GOOD_ROWS = "backend,n,median_het,median_hom,p_value,effect_r\nideal,3,0.8,0.7,0.001,0.9\n"
GOOD_NOISE = "p1 = 0\np2 = 0\nreadout_flip_0to1 = 0\nreadout_flip_1to0 = 0\n"


def edited_population(edit) -> str:
    obj = json.loads(json.dumps(NOOP_POPULATION_OBJ))
    edit(obj)
    return json.dumps(obj)


# (file role, file content): one malformed file per case; the other inputs are valid
MALFORMED_FILES = [
    pytest.param("population", edited_population(lambda o: o.pop("ensembles")),
                 id="population-missing-ensembles"),
    pytest.param("population", "[1, 2]", id="population-top-level-list"),
    pytest.param("population",
                 edited_population(lambda o: o["ensembles"][0][0]["gates"][0].pop("theta")),
                 id="population-gate-without-theta"),
    pytest.param("population", edited_population(lambda o: o.update(generation="x")),
                 id="population-generation-x"),
    pytest.param("config", json.dumps({**SMALL_CONFIG_OBJ, "eval_mode": 5}),
                 id="config-eval-mode-5"),
    pytest.param("config", "[1, 2]", id="config-top-level-list"),
    pytest.param("config", json.dumps({**SMALL_CONFIG_OBJ, "num_qubits": "four"}),
                 id="config-num-qubits-four"),
    pytest.param("config", json.dumps({**SMALL_CONFIG_OBJ, "generations": 1.5}),
                 id="config-generations-float"),
    pytest.param("config", json.dumps({**SMALL_CONFIG_OBJ, "angle_sigma": math.inf}),
                 id="config-angle-sigma-infinity"),
    pytest.param("config", json.dumps({**SMALL_CONFIG_OBJ, "angle_sigma": math.nan}),
                 id="config-angle-sigma-nan"),
    pytest.param("population", edited_population(
        lambda o: o["fitnesses"][0].update(fitness=math.nan)), id="population-fitness-nan"),
    pytest.param("tests", '{"expected": 0, "features": [0.0, 0.0, NaN, 0.0]}\n',
                 id="tests-feature-nan"),
    pytest.param("tests", '{"expected": 0, "features": [0.0, 0.0, 0.0, 0.0],'
                          ' "init_gates": [{"gate": "cx", "control": 0, "target": 1}]}\n',
                 id="tests-both-init-forms"),
    pytest.param("rows", GOOD_ROWS.replace("0.8", "abc"), id="rows-median-abc"),
    pytest.param("rows", GOOD_ROWS.replace("ideal,3", "ideal,x"), id="rows-n-x"),
    pytest.param("rows", GOOD_ROWS.replace("ideal,3", "ideal,1_0"), id="rows-n-underscore"),
    pytest.param("rows", GOOD_ROWS.replace("ideal,3", "ideal,5.0"), id="rows-n-float"),
    pytest.param("rows", GOOD_ROWS.replace("0.8", "nan"), id="rows-median-nan"),
    pytest.param("rows", GOOD_ROWS + "ideal,3,0.5,0.4,0.01,0.2\n", id="rows-duplicate-cell"),
    pytest.param("rows", GOOD_ROWS.replace("0.8", "0.80"), id="rows-median-trailing-zero"),
    pytest.param("rows", GOOD_ROWS.replace("0.9", "1e0"), id="rows-effect-exponent"),
    pytest.param("rows", GOOD_ROWS.replace("0.001", "1E-6"), id="rows-p-value-capital-e"),
    pytest.param("population", b"\xff\xfe{", id="population-non-utf8"),
    pytest.param("tests", b"\xff\n", id="tests-non-utf8"),
    pytest.param("rows", GOOD_ROWS.encode() + b"\xff\n", id="rows-non-utf8"),
    pytest.param("dataset", b"5.1,3.5,1.4,0.2,Iris-setosa\n\xff\n", id="dataset-non-utf8"),
    pytest.param("noise", GOOD_NOISE + "q = 1\n", id="noise-unknown-key"),
]


@pytest.mark.parametrize("existing, error", [
    (GOOD_ROWS, "two rows for backend 'ideal', n=3"),
    (GOOD_ROWS.replace("0.8", "0.80"), "median_het cell '0.80' is not written as 0.8"),
], ids=["duplicate-row", "malformed-file"])
def test_compare_checks_the_rows_file_before_scoring(existing, error, tmp_path, capsys,
                                                     monkeypatch):
    scored = []

    def counted(*args, **kwargs):
        scored.append(args)
        return compare_populations(*args, **kwargs)

    monkeypatch.setattr(cli, "compare_populations", counted)
    het = noop_population(tmp_path, n_members=3)
    hom = noop_population(tmp_path, n_members=1)
    tests_path = tmp_path / "tests.jsonl"
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], tests_path)
    rows_path = tmp_path / "rows.csv"
    rows_path.write_text(existing)
    written = rows_path.read_bytes()
    argv = ["compare", "--het-population", str(het), "--hom-population", str(hom),
            "--ensemble-size", "3", "--tests", str(tests_path), "--append-to", str(rows_path)]
    assert main(argv) == 2
    assert error in capsys.readouterr().err
    assert scored == []
    assert rows_path.read_bytes() == written
    assert main([*argv[:-1], str(tmp_path / "fresh.csv")]) == 0
    assert len(scored) == 1


@pytest.mark.parametrize("role, content", MALFORMED_FILES)
def test_malformed_file_exits_2_naming_the_file(role, content, tmp_path, capsys):
    inputs = {"population": noop_population(tmp_path), "tests": tmp_path / "tests.jsonl",
              "config": tmp_path / "config.json", "rows": tmp_path / "rows.csv",
              "dataset": bundled_dataset_path(), "noise": tmp_path / "noise.txt"}
    write_test_cases([TestCase(expected=0, features=(0.0,) * 4)], inputs["tests"])
    inputs["config"].write_text(json.dumps(SMALL_CONFIG_OBJ))
    inputs["rows"].write_text(GOOD_ROWS)
    inputs["noise"].write_text(GOOD_NOISE)
    bad = inputs[role] = tmp_path / f"malformed-{role}"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    out = tmp_path / "out"
    evaluate = ["evaluate", "--population", inputs["population"], "--tests", inputs["tests"],
                "--noise", inputs["noise"]]
    argv = {
        "population": evaluate, "tests": evaluate, "noise": evaluate,
        "config": ["evolve", "--config", inputs["config"], "--tests", inputs["tests"],
                   "--population", out / "pop.json"],
        "rows": ["report", "--rows", inputs["rows"], "--out-csv", out / "rows.csv",
                 "--out-table", out / "table.txt"],
        "dataset": ["encode-dataset", "--input", inputs["dataset"],
                    "--output", out / "cases.jsonl"],
    }[role]
    out.mkdir()
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {bad}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not any(out.iterdir())
