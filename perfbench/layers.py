"""Per-layer metrics of a traced run, from the spans ``tracer.py`` records.

Self time is a span's time minus its child spans'.  Time and work are given
per unit of the end-to-end figure the layer moves: per ensemble evaluation
for the layers under ``Evaluator`` (they move ``ens_per_s``), per step for
breeding and for the file, statistics, harness and CLI layers (they move
``step_s_p50``).  Shares are of the traced units' timed seconds, so they
show which layer dominates a workload.  A layer a workload does not reach
reads 0.
"""

from __future__ import annotations

import statistics

from tracer import Totals, unique_per_generation

LAYERS = {  # name: (unit, better); BENCHMARK.json lists the same
    "ensemble.vote_s": ("s/ens", "lower"),
    "ensemble.fitness_calls": ("count", "higher"),
    "ensemble.member_lookups": ("1/ens", "lower"),
    "ensemble.sim_calls": ("1/ens", "lower"),
    "ensemble.sim_per_lookup": ("ratio", "lower"),
    "ensemble.shots_s": ("s/ens", "lower"),
    "ensemble.shot_draws": ("1/ens", "lower"),
    "noise.run_noisy_s": ("s/ens", "lower"),
    "noise.run_noisy_calls": ("1/ens", "lower"),
    "noise.rho_bytes_computed": ("B/ens", "lower"),
    "statevector.run_ideal_s": ("s/ens", "lower"),
    "statevector.run_ideal_calls": ("1/ens", "lower"),
    "statevector.amp_updates_computed": ("1/ens", "lower"),
    "evolution.breed_s": ("s/step", "lower"),
    "evolution.unique_circuits_per_gen": ("count", "lower"),
    "serialization.read_s": ("s/step", "lower"),
    "serialization.read_bytes": ("B/step", "lower"),
    "serialization.write_s": ("s/step", "lower"),
    "serialization.write_bytes": ("B/step", "lower"),
    "noisefiles.resolve_s": ("s/step", "lower"),
    "stats.mann_whitney_s": ("s/step", "lower"),
    "stats.mann_whitney_calls": ("1/step", "lower"),
    "harness.compare_self_s": ("s/step", "lower"),
    "cli.self_s": ("s/step", "lower"),
    "iris.prepare_s": ("s", "lower"),
    "ensemble.vote_share": ("ratio", "lower"),
    "ensemble.shots_share": ("ratio", "lower"),
    "noise.run_noisy_share": ("ratio", "lower"),
    "statevector.run_ideal_share": ("ratio", "lower"),
    "evolution.breed_share": ("ratio", "lower"),
    "trace.ens_per_s_ratio": ("ratio", "higher"),
    "trace.steps": ("count", "higher"),
    "run.steps": ("count", "higher"),
}

READS = ("serialization.read_population", "serialization.read_test_cases",
         "serialization.result_rows_from_csv")
WRITES = ("serialization.result_rows_to_csv", "serialization.result_table_text",
          "serialization.write_population", "serialization.write_test_cases")
IRIS = ("iris.load_dataset", "iris.encode_all", "iris.split")


def layer_metrics(spans, traced, untraced, setup_ranges, run_steps: int) -> dict:
    """``traced``/``untraced`` are the units run with and without the tracer;
    ``setup_ranges`` are the span ranges of the set-ups."""
    t = Totals(spans, [u.spans for u in traced])
    setup = Totals(spans, setup_ranges)
    evals = sum(u.evaluations for u in traced)
    steps = sum(len(u.steps) for u in traced)
    seconds = sum(u.seconds for u in traced)
    untraced_rate = sum(u.evaluations for u in untraced) / sum(u.seconds for u in untraced)
    unique = [c for u in traced for c in unique_per_generation(spans, u.spans)]
    lookups = t.calls["ensemble.member_distributions"]
    sims = t.calls["noise.run_noisy"] + t.calls["statevector.run_ideal"]
    shots = t.total["ensemble.degrade_to_shots"]  # the per-(test, member) sampling loop
    vote = t.self_time["ensemble.ensemble_fitness"]
    breed = t.self_time["evolution.evolve"]
    values = {
        "ensemble.vote_s": vote / evals,
        "ensemble.fitness_calls": t.calls["ensemble.ensemble_fitness"],
        "ensemble.member_lookups": lookups / evals,
        "ensemble.sim_calls": sims / evals,
        "ensemble.sim_per_lookup": sims / lookups if lookups else 0.0,
        "ensemble.shots_s": shots / evals,
        "ensemble.shot_draws": t.work["ensemble.sample_shots"] / evals,
        "noise.run_noisy_s": t.total["noise.run_noisy"] / evals,
        "noise.run_noisy_calls": t.calls["noise.run_noisy"] / evals,
        "noise.rho_bytes_computed": t.work["noise.run_noisy"] / evals,
        "statevector.run_ideal_s": t.total["statevector.run_ideal"] / evals,
        "statevector.run_ideal_calls": t.calls["statevector.run_ideal"] / evals,
        "statevector.amp_updates_computed": t.work["statevector.run_ideal"] / evals,
        "evolution.breed_s": breed / steps,
        "evolution.unique_circuits_per_gen": statistics.fmean(unique) if unique else 0.0,
        "serialization.read_s": sum(t.total[n] for n in READS) / steps,
        "serialization.read_bytes": sum(t.work[n] for n in READS) / steps,
        "serialization.write_s": sum(t.total[n] for n in WRITES) / steps,
        "serialization.write_bytes": sum(t.work[n] for n in WRITES) / steps,
        "noisefiles.resolve_s": t.total["noisefiles.resolve_noise"] / steps,
        "stats.mann_whitney_s": t.total["stats.mann_whitney"] / steps,
        "stats.mann_whitney_calls": t.calls["stats.mann_whitney"] / steps,
        "harness.compare_self_s": t.self_time["harness.compare_populations"] / steps,
        "cli.self_s": t.self_time["cli.main"] / steps,
        "iris.prepare_s": sum(setup.total[n] for n in IRIS) / len(setup_ranges),
        "ensemble.vote_share": vote / seconds,
        "ensemble.shots_share": shots / seconds,
        "noise.run_noisy_share": t.total["noise.run_noisy"] / seconds,
        "statevector.run_ideal_share": t.total["statevector.run_ideal"] / seconds,
        "evolution.breed_share": breed / seconds,
        "trace.ens_per_s_ratio": evals / seconds / untraced_rate,
        "trace.steps": steps,
        "run.steps": run_steps,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYERS.items()}
