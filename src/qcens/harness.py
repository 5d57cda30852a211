"""Experiment orchestration: evolve, evaluate, compare, report.

The heterogeneous-vs-homogeneous protocol: evolve one population per ensemble
size (size 1 evolves individual circuits); build homogeneous baselines by
replicating each size-1 circuit; evaluate both populations on the held-out
evaluation tests; compare the fitness samples with a two-tailed Mann-Whitney
U test, heterogeneous always as sample A so a positive effect size favors it.
Noise rows re-evaluate the same ideally-evolved populations under each noise
model; evolution itself is never repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .ensemble import Evaluator, replicate_homogeneous
from .errors import StructuralError, ValidationError
from .evolution import EvolutionConfig, Population, evolve, register_text
from .iris import bundled_dataset_path, encode_all, load_dataset, split
from .noise import IDEAL, NoiseModel
from .noisefiles import load_preset
from .serialization import (
    ResultRow, result_rows_to_csv, result_table_text, write_atomic, write_population,
)
from .stats import mann_whitney, median


@dataclass(frozen=True)
class ExperimentPlan:
    """A full heterogeneous-vs-homogeneous comparison.  ``base_config.seed`` draws the split,
    seeds every evolution and names the files; ``base_config.ensemble_size`` is set in turn
    to each of ``ensemble_sizes``."""

    ensemble_sizes: tuple[int, ...] = (1, 3, 5, 7)
    base_config: EvolutionConfig = field(default_factory=EvolutionConfig)
    noise_names: tuple[str, ...] = ()  # empty = ideal evaluation only
    output_dir: str = "results"
    n_evolution: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "ensemble_sizes", tuple(self.ensemble_sizes))
        object.__setattr__(self, "noise_names", tuple(self.noise_names))
        if not self.ensemble_sizes or any(n < 1 for n in self.ensemble_sizes):
            raise ValidationError("ensemble_sizes must be non-empty, all >= 1")
        if any(n > 1 for n in self.ensemble_sizes) and 1 not in self.ensemble_sizes:
            raise ValidationError("size 1 must be included to build homogeneous baselines")
        for what, values in (("ensemble_sizes", self.ensemble_sizes),
                             ("noise_names", self.noise_names)):
            if len(set(values)) != len(values):
                raise ValidationError(f"{what} repeats a value: {values}")
        for name in self.noise_names:  # an unknown name fails here, before any evolution
            load_preset(name)


def backend_name(noise: NoiseModel | None) -> str:
    """The result-row backend of an evaluation: ``ideal``, or the noise model's name;
    an unnamed model is refused, since its row would show a blank backend."""
    if noise is not None and not noise.name:
        raise ValidationError("a noise model without a name cannot label a result row")
    return noise.name if noise is not None else IDEAL


def compare_populations(het: Population, hom_base: Population, n: int, tests,
                        noise: NoiseModel | None = None) -> ResultRow:
    """Heterogeneous population vs. size-1 circuits replicated to size n."""
    backend = backend_name(noise)  # refused before anything is scored
    het_sizes = {len(e) for e in het.individuals}
    if het_sizes != {n}:
        raise ValidationError(f"heterogeneous population has sizes {het_sizes}, expected {{{n}}}")
    if {len(e) for e in hom_base.individuals} != {1}:
        raise ValidationError("homogeneous base population must have ensemble size 1")
    # each population shares one register (Population checks it), so the first ensembles tell
    het_register, hom_register = (register_text(p.individuals[0]) for p in (het, hom_base))
    if het_register != hom_register:
        raise StructuralError(f"heterogeneous population has {het_register}, "
                              f"but homogeneous base population has {hom_register}")
    hom = [replicate_homogeneous(e.circuits[0], n) for e in hom_base.individuals]
    fits = [r.fitness for r in Evaluator(tests, noise=noise).score([*het.individuals, *hom])]
    het_fits, hom_fits = fits[:len(het.individuals)], fits[len(het.individuals):]
    result = mann_whitney(het_fits, hom_fits)
    return ResultRow(
        backend_name=backend,
        ensemble_size=n,
        median_het=median(het_fits),
        median_hom=median(hom_fits),
        p_value=result.p_value,
        effect_r=result.effect_size_r,
    )


@dataclass
class ExperimentResult:
    populations: dict[int, Population]
    rows: list[ResultRow]
    evolution_tests: list
    evaluation_tests: list


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Evolve all sizes, compare against homogeneous baselines, write artifacts."""
    seed = plan.base_config.seed
    dataset = load_dataset(bundled_dataset_path())
    cases = encode_all(dataset)
    evolution_tests, evaluation_tests = split(cases, plan.n_evolution, seed)

    out_dir = Path(plan.output_dir)

    populations: dict[int, Population] = {}
    for size in plan.ensemble_sizes:
        population = evolve(replace(plan.base_config, ensemble_size=size), evolution_tests)
        populations[size] = population
        out_dir.mkdir(parents=True, exist_ok=True)  # once there is a file to write
        write_population(population, out_dir / f"population_n{size}_seed{seed}.json")

    noise_models = [load_preset(name) for name in plan.noise_names]
    rows: list[ResultRow] = []
    hom_base = populations.get(1)
    comparison_sizes = [s for s in plan.ensemble_sizes if s > 1]
    for noise in [None, *noise_models]:
        for size in comparison_sizes:
            rows.append(compare_populations(
                populations[size], hom_base, size, evaluation_tests, noise=noise
            ))
    if rows:
        write_atomic((out_dir / f"results_seed{seed}.csv", result_rows_to_csv(rows)),
                     (out_dir / f"results_seed{seed}.txt", result_table_text(rows)))
    return ExperimentResult(populations, rows, evolution_tests, evaluation_tests)
