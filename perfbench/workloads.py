"""The four desk-scale workloads of the qcens benchmark.

Every workload starts from the bundled Iris data, encoded and split 100/50
with the workload seed, and uses population 60 and gate cap 12.  A workload
runs *units* back to back until the timed run is long enough; units of one
run use distinct seeds derived from the workload seed, so nothing a program
keeps between calls can turn later units into repeats of earlier ones.

- ``evolve-*``: a unit is one ``qcens.evolution.evolve`` call of
  ``generations`` generations; a step is one generation (generation 0 is
  the random initial population).
- ``cli-compare-n5-sweep``: a unit is the README steps 3-4 loop through
  ``qcens.cli.main``: ``compare --append-to`` ideal and under each of the 10
  presets, then ``report``; a step is one ``compare`` invocation.  Set-up
  evolves one het/hom population pair per unit (cycled if a run outlasts
  them) and writes the held-out tests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from qcens import cli, ensemble, evolution, iris, noisefiles, serialization

import oracle

POPULATION = 60
GATE_CAP = 12
N_EVOLUTION = 100
NUM_QUBITS = 4
SHOTS = 1000
WARMUP_POPULATION = 6
SWEEP_PAIRS = 4  # distinct het/hom pairs, one per sweep unit, cycled if a run outlasts them
ORACLE_SAMPLE = (0, POPULATION // 2, POPULATION - 1)  # population indices re-scored


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str  # layer expected to take most of the timed run
    ensemble_size: int
    generations: int  # per unit (evolve) or per set-up population (sweep)
    noise: str | None = None
    shots: int | None = None
    sweep: bool = False

    def size(self) -> dict:
        return {"n": self.ensemble_size, "population": POPULATION, "gate_cap": GATE_CAP,
                "tests": 50 if self.sweep else N_EVOLUTION,
                "preset": "ideal + all 10" if self.sweep else (self.noise or "ideal"),
                "mode": f"shots:{self.shots}" if self.shots else "exact"}


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("evolve-n7-ideal", "ensemble.vote", ensemble_size=7, generations=5),
    Workload("evolve-n3-storm", "noise.run_noisy", ensemble_size=3, generations=5, noise="storm"),
    Workload("evolve-n5-shots", "ensemble.shots", ensemble_size=5, generations=4, shots=SHOTS),
    # one generation keeps the sweep's het/hom pairs close in size: their unique-circuit
    # gate totals vary by ~8% across seeds, against ~13% after two generations
    Workload("cli-compare-n5-sweep", "noise.run_noisy", ensemble_size=5, generations=1,
             sweep=True),
)}


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class Unit:
    """One unit of timed work and what the checks need from it."""

    index: int
    attempted: int  # steps the unit sets out to run
    seconds: float = 0.0
    steps: list = field(default_factory=list)
    evaluations: int = 0
    digest: str = ""
    error: str = ""
    detail: object = None
    spans: tuple | None = None  # (first, last) span indices when traced


class Runner:
    """Set-up, timed units and output checks for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w, self.seed, self.dir = workload, seed, work_dir
        self.noise = noisefiles.load_preset(workload.noise) if workload.noise else None
        self.presets = noisefiles.preset_names()
        self.on_generation = None  # set by the tracer to mark generation boundaries

    def config(self, seed: int, size: int | None = None, generations: int | None = None):
        return evolution.EvolutionConfig(
            num_qubits=NUM_QUBITS, measured_qubits=(0, 1), population_size=POPULATION,
            generations=generations or self.w.generations,
            ensemble_size=size or self.w.ensemble_size, gate_cap=GATE_CAP,
            seed=seed, shots=self.w.shots)

    def warmup_config(self):
        """A small evolve run under a seed no unit uses: it fills the program's
        lazy tables without priming anything a timed unit could reuse.  The
        seed does not depend on the workload seed, so every run sets up the
        same amount of work."""
        return replace(self.config(derived_seed(1), generations=1),
                       population_size=WARMUP_POPULATION)

    # --- set-up ---

    def setup(self) -> str:
        """Load, encode and split the data, make inputs, warm up; returns a digest."""
        dataset = iris.load_dataset(iris.bundled_dataset_path())
        self.train, self.evaluation = iris.split(iris.encode_all(dataset), N_EVOLUTION, self.seed)
        digest = hashlib.sha256()
        if not self.w.sweep:
            warm = self.dir / "warmup.json"
            serialization.write_population(
                evolution.evolve(self.warmup_config(), self.train, noise=self.noise), warm)
            digest.update(warm.read_bytes())
            return digest.hexdigest()
        self.tests_path = self.dir / "evaluation.jsonl"
        serialization.write_test_cases(self.evaluation, self.tests_path)
        self.pairs = []
        for i in range(SWEEP_PAIRS):
            het = evolution.evolve(self.config(derived_seed(self.seed, 0, i)), self.train)
            hom = evolution.evolve(self.config(derived_seed(self.seed, 0, i), size=1), self.train)
            paths = (self.dir / f"het{i}.json", self.dir / f"hom{i}.json")
            for population, path in zip((het, hom), paths):
                serialization.write_population(population, path)
                digest.update(path.read_bytes())
            self.pairs.append((het, hom, paths))
        # warm-up on small populations under a noise model no timed step uses
        het, hom, noise = (self.dir / "warmup-het.json", self.dir / "warmup-hom.json",
                           self.dir / "warmup-noise.txt")
        serialization.write_population(evolution.evolve(self.warmup_config(), self.train), het)
        serialization.write_population(
            evolution.evolve(replace(self.warmup_config(), ensemble_size=1), self.train), hom)
        noise.write_text("name = warmup\np1 = 0.001\np2 = 0.002\n"
                         "readout_flip_0to1 = 0.003\nreadout_flip_1to0 = 0.004\n")
        digest.update(self._cli(["compare", "--het-population", str(het), "--hom-population",
                                 str(hom), "--ensemble-size", str(self.w.ensemble_size),
                                 "--tests", str(self.tests_path), "--noise", str(noise)]).encode())
        return digest.hexdigest()

    # --- timed units ---

    def run_unit(self, u: int) -> Unit:
        return self._sweep_unit(u) if self.w.sweep else self._evolve_unit(u)

    def _evolve_unit(self, u: int) -> Unit:
        unit = Unit(u, self.w.generations + 1, evaluations=POPULATION * (self.w.generations + 1))
        config = self.config(derived_seed(self.seed, 2, u))
        marks = []

        def log(_message):
            marks.append(perf_counter())
            if self.on_generation:
                self.on_generation()

        start = perf_counter()
        try:
            population = evolution.evolve(config, self.train, noise=self.noise, log=log)
        except Exception as exc:  # a raising step is a failed step, not a crash
            unit.error = f"{type(exc).__name__}: {exc}"
            population = None
        unit.seconds = perf_counter() - start
        unit.steps = np.diff([start] + marks).tolist()
        unit.detail = (config, population)
        return unit

    def _cli(self, argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qcens {argv[0]} exited {code}: {out.getvalue().strip()}")
        return out.getvalue()

    def _sweep_unit(self, u: int) -> Unit:
        het, hom, (het_path, hom_path) = self.pairs[u % len(self.pairs)]
        rows = self.dir / "rows.csv"
        rows.unlink(missing_ok=True)
        (self.dir / "results.txt").unlink(missing_ok=True)
        unit = Unit(u, 1 + len(self.presets),
                    evaluations=2 * POPULATION * (1 + len(self.presets)))
        common = ["--het-population", str(het_path), "--hom-population", str(hom_path),
                  "--ensemble-size", str(self.w.ensemble_size), "--tests", str(self.tests_path),
                  "--append-to", str(rows)]
        start = perf_counter()
        try:
            for backend in ["ideal", *self.presets]:
                step_start = perf_counter()
                noise = [] if backend == "ideal" else ["--noise", backend]
                self._cli(["compare", *common, *noise])
                unit.steps.append(perf_counter() - step_start)
            self._cli(["report", "--rows", str(rows), "--out-csv", str(self.dir / "results.csv"),
                       "--out-table", str(self.dir / "results.txt")])
        except Exception as exc:
            unit.error = f"{type(exc).__name__}: {exc}"
        unit.seconds = perf_counter() - start
        table = self.dir / "results.txt"
        unit.detail = (het, hom, rows.read_bytes() if rows.is_file() else b"",
                       table.read_text() if table.is_file() else "")
        return unit

    # --- checks, outside the timed run ---

    def finish(self, unit: Unit, with_oracle: bool) -> list[str]:
        """Digest the unit's output file and check it; returns what was wrong."""
        if unit.error:
            return [unit.error]
        if self.w.sweep:
            return self._check_sweep(unit, with_oracle)
        return self._check_evolve(unit, with_oracle)

    def _check_evolve(self, unit: Unit, with_oracle: bool) -> list[str]:
        config, population = unit.detail
        path = self.dir / "population.json"
        serialization.write_population(population, path)
        unit.digest = hashlib.sha256(path.read_bytes()).hexdigest()
        problems = []
        if len(population.individuals) != POPULATION or any(
                len(e) != self.w.ensemble_size for e in population.individuals):
            problems.append("population has the wrong shape")
        if any(not 0.0 <= r.fitness <= 1.0 for r in population.fitnesses):
            problems.append("fitness outside [0, 1]")
        if not with_oracle:
            return problems
        scorer = oracle.Scorer(self.train, NUM_QUBITS, noise=self.noise, shots=self.w.shots,
                               seed=config.seed)
        exact = ensemble.Evaluator(self.train, noise=self.noise)
        fresh = (ensemble.Evaluator(self.train, shots=self.w.shots, seed=config.seed)
                 if self.w.shots else None)
        for i in ORACLE_SAMPLE:
            members, report = population.individuals[i], population.fitnesses[i]
            laws = [exact.member_distributions(c) for c in members.circuits]
            gap = max(float(np.max(np.abs(law - scorer.member(c))))
                      for law, c in zip(laws, members.circuits))
            want = scorer.per_test(members.circuits, laws)
            gap = max(gap, float(np.max(np.abs(want - np.array(report.per_test)))))
            if gap > oracle.TOL or abs(float(want.mean()) - report.fitness) > oracle.TOL:
                problems.append(f"ensemble {i} differs from the oracle by {gap:.3g}")
            if fresh is not None and fresh.ensemble_fitness(members) != report:
                problems.append(f"ensemble {i}: a fresh shots Evaluator does not reproduce it")
        return problems

    def _check_sweep(self, unit: Unit, with_oracle: bool) -> list[str]:
        het, hom, text, table = unit.detail
        unit.digest = hashlib.sha256(text).hexdigest()
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        problems = []
        if [r["backend"] for r in rows] != ["ideal", *self.presets]:
            problems.append("result rows are not ideal + every preset in order")
        elif any(int(r["n"]) != self.w.ensemble_size for r in rows):
            problems.append("result rows have the wrong n")
        if len(table.splitlines()) != 2 + len(self.presets):
            problems.append("report table is missing rows")
        if problems or not with_oracle:
            return problems
        n = self.w.ensemble_size
        for backend in ("ideal", self.presets[self.seed % len(self.presets)]):
            noise = None if backend == "ideal" else noisefiles.load_preset(backend)
            scorer = oracle.Scorer(self.evaluation, NUM_QUBITS, noise=noise)
            want = (statistics.median(scorer.fitness(e.circuits) for e in het.individuals),
                    statistics.median(scorer.fitness(e.circuits * n) for e in hom.individuals))
            row = next(r for r in rows if r["backend"] == backend)
            got = (float(row["median_het"]), float(row["median_hom"]))
            if max(abs(a - b) for a, b in zip(want, got)) > oracle.TOL:
                problems.append(f"{backend} medians {got} differ from the oracle's {want}")
        return problems
