from dataclasses import replace
from pathlib import Path

import pytest

import qcens.ensemble as ensemble
import qcens.harness as harness
from qcens import EvolutionConfig, ValidationError, evolve
from qcens.harness import ExperimentPlan, compare_populations, run_experiment
from qcens.iris import bundled_dataset_path, encode_all, load_dataset, split
from qcens.serialization import read_population, result_rows_from_csv

from conftest import load_perfbench

oracle = load_perfbench("oracle")


def small_plan(tmp_path, **kw):
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=8,
                             generations=3, ensemble_size=1, gate_cap=5,
                             tournament_size=3)
    defaults = dict(ensemble_sizes=(1, 3), base_config=config,
                    output_dir=str(tmp_path / "out"), seed=5, n_evolution=100)
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_plan_requires_size_one_for_baselines(tmp_path):
    with pytest.raises(ValidationError):
        small_plan(tmp_path, ensemble_sizes=(3, 5))
    small_plan(tmp_path, ensemble_sizes=(1,))  # size 1 alone is fine


@pytest.mark.parametrize("sizes", [(0,), (), (1, -3)])
def test_plan_refuses_sizes_below_one(tmp_path, sizes):
    with pytest.raises(ValidationError, match="ensemble_sizes must be non-empty, all >= 1"):
        small_plan(tmp_path, ensemble_sizes=sizes)


@pytest.mark.parametrize("kw, message", [
    (dict(ensemble_sizes=(1, 3, 3)), r"ensemble_sizes repeats a value: \(1, 3, 3\)"),
    (dict(noise_names=("storm", "storm")), "noise_names repeats a value"),
    (dict(noise_names=("storm", "no-such-preset")),
     "unknown noise preset 'no-such-preset'; available: .*storm"),
    (dict(noise_names=("storm", "./storm")), r"unknown noise preset '\./storm'; available"),
    (dict(noise_names=("../noise/storm",)), r"unknown noise preset '\.\./noise/storm'"),
], ids=["size", "noise-name", "unknown-preset", "preset-alias", "preset-path"])
def test_plan_refuses_what_run_experiment_would_refuse_late(tmp_path, kw, message):
    """Refused when planned: ``run_experiment`` would evolve and write every size first."""
    with pytest.raises(ValidationError, match=message):
        run_experiment(small_plan(tmp_path, **kw))
    assert not (tmp_path / "out").exists()


def test_negative_plan_seed_is_refused_before_anything_is_written(tmp_path):
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        run_experiment(small_plan(tmp_path, seed=-1))
    assert not (tmp_path / "out").exists()


def test_run_experiment_writes_artifacts(tmp_path):
    plan = small_plan(tmp_path)
    result = run_experiment(plan)
    out = tmp_path / "out"
    assert (out / "population_n1_seed5.json").is_file()
    assert (out / "population_n3_seed5.json").is_file()
    assert (out / "results_seed5.csv").is_file()
    assert (out / "results_seed5.txt").is_file()
    rows = result_rows_from_csv((out / "results_seed5.csv").read_text())
    assert [r.ensemble_size for r in rows] == [3]
    assert rows[0].backend_name == "ideal"
    assert len(result.evolution_tests) == 100
    assert len(result.evaluation_tests) == 50
    pop = read_population(out / "population_n3_seed5.json")
    assert all(len(e) == 3 for e in pop.individuals)


def test_run_experiment_with_noise_rows(tmp_path):
    plan = small_plan(tmp_path, noise_names=("feather", "tempest"))
    result = run_experiment(plan)
    backends = [r.backend_name for r in result.rows]
    assert backends == ["ideal", "feather", "tempest"]


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(small_plan(tmp_path, output_dir=str(tmp_path / "a")))
    b = run_experiment(small_plan(tmp_path, output_dir=str(tmp_path / "b")))
    assert (tmp_path / "a" / "results_seed5.csv").read_bytes() == \
        (tmp_path / "b" / "results_seed5.csv").read_bytes()
    assert (tmp_path / "a" / "population_n3_seed5.json").read_bytes() == \
        (tmp_path / "b" / "population_n3_seed5.json").read_bytes()
    assert a.rows == b.rows


def test_protocol_uses_correct_test_sets(tmp_path, monkeypatch):
    """Evolution sees only the evolution split; comparisons only the held-out split."""
    seen = {"evolve": [], "compare": []}
    real_evolve = harness.evolve
    real_compare = harness.compare_populations

    def spy_evolve(config, tests, **kw):
        seen["evolve"].append(len(tests))
        return real_evolve(config, tests, **kw)

    def spy_compare(het, hom, n, tests, **kw):
        seen["compare"].append(len(tests))
        return real_compare(het, hom, n, tests, **kw)

    monkeypatch.setattr(harness, "evolve", spy_evolve)
    monkeypatch.setattr(harness, "compare_populations", spy_compare)
    run_experiment(small_plan(tmp_path))
    assert seen["evolve"] == [100, 100]
    assert seen["compare"] == [50]


@pytest.mark.parametrize("failing", ["population_n3_seed5.json", "results_seed5.csv"])
def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch, failing):
    """A write that dies halfway leaves neither the target nor a temp file."""
    real_write_text = Path.write_text

    def half_write_text(self, data, *args, **kwargs):
        if self.name.startswith(failing):
            real_write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("disk full")
        return real_write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", half_write_text)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(small_plan(tmp_path))
    out = tmp_path / "out"
    assert not (out / failing).exists()
    assert not list(out.glob("*.tmp"))
    assert (out / "population_n1_seed5.json").is_file()  # written before the failure


def test_result_csv_and_table_are_written_together_or_not_at_all(tmp_path, monkeypatch):
    real_write_text = Path.write_text

    def write_text(self, data, *args, **kwargs):
        if self.name.startswith("results_seed5.txt"):
            raise OSError("disk full")
        return real_write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(small_plan(tmp_path))
    out = tmp_path / "out"
    assert not list(out.glob("results_seed5*"))
    assert (out / "population_n3_seed5.json").is_file()


def test_compare_rejects_wrong_baseline_sizes(tmp_path):
    plan = small_plan(tmp_path)
    result = run_experiment(plan)
    pops = result.populations
    with pytest.raises(ValidationError):
        compare_populations(pops[3], pops[3], 3, result.evaluation_tests)
    with pytest.raises(ValidationError):
        compare_populations(pops[3], pops[1], 5, result.evaluation_tests)


def test_compare_complete_separation_gives_r_plus_one(tmp_path):
    plan = small_plan(tmp_path)
    result = run_experiment(plan)
    # compare the n=3 population against a deliberately broken baseline whose
    # circuits always miss: separation must give r = +1
    import math

    from qcens import Circuit, UGate
    from qcens.ensemble import Ensemble, FitnessReport
    from qcens.evolution import Population

    flip_all = Circuit(4, (UGate(0, math.pi, 0.0, math.pi),
                           UGate(1, math.pi, 0.0, math.pi)), (0, 1))
    bad = Population(tuple(Ensemble((flip_all,)) for _ in range(8)),
                     tuple(FitnessReport(0.0, (0.0,)) for _ in range(8)), 0)
    tests = [t for t in result.evaluation_tests if t.expected == 0][:5]
    row = compare_populations(result.populations[3], bad, 3, tests)
    assert row.effect_r == 1.0


def test_compare_row_does_not_depend_on_vote_summation_order(monkeypatch):
    """Scoring the same populations by the k**n enumeration, or by the DP over
    reversed members, moves fitnesses in their last bits but not the row."""
    train, evaluation = split(encode_all(load_dataset(bundled_dataset_path())), 100, 0)
    config = EvolutionConfig(num_qubits=4, measured_qubits=(0, 1), population_size=20,
                             generations=30, ensemble_size=5, seed=0)
    het = evolve(config, train)
    hom = evolve(replace(config, ensemble_size=1), train)
    row = compare_populations(het, hom, 5, evaluation)
    by_dp = ensemble._vote_batch
    for vote in (oracle.vote, lambda dists: by_dp(dists[::-1])):
        monkeypatch.setattr(ensemble, "_vote_batch", vote)
        assert compare_populations(het, hom, 5, evaluation) == row

