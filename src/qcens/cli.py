"""Command-line interface.

Subcommands: evolve, evaluate, compare, report, encode-dataset.  All commands
exit 2 on invalid input (missing files, bad formats) and remove any partially
written output file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import serialization as ser
from .ensemble import Evaluator
from .errors import QcensError
from .evolution import evolve
from .harness import backend_name, compare_populations
from .iris import encode_all, load_dataset, split
from .noise import IDEAL
from .noisefiles import resolve_noise


def cmd_evolve(args) -> int:
    config = ser.read_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.qubits is not None:
        config = replace(config, num_qubits=args.qubits)
    if args.ensemble_size is not None:
        config = replace(config, ensemble_size=args.ensemble_size)
    if args.mode is not None:
        config = replace(config, shots=ser.parse_eval_mode(args.mode))
    tests = ser.read_test_cases(args.tests)
    noise = resolve_noise(args.noise)
    ser.check_outputs(args.population)  # refused now, not after the last generation
    population = evolve(config, tests, noise=noise, log=print)
    ser.write_population(population, args.population)
    return 0


def cmd_evaluate(args) -> int:
    population = ser.read_population(args.population)
    tests = ser.read_test_cases(args.tests)
    noise = resolve_noise(args.noise)
    shots = ser.parse_eval_mode(args.mode) if args.mode is not None else None
    evaluator = Evaluator(tests, noise=noise, shots=shots, seed=args.seed or 0)
    for index, report in enumerate(evaluator.score(population.individuals)):
        print(f"{index},{report.fitness!r}")
    return 0


def cmd_compare(args) -> int:
    het = ser.read_population(args.het_population)
    hom = ser.read_population(args.hom_population)
    tests = ser.read_test_cases(args.tests)
    noise = resolve_noise(args.noise)
    # a malformed rows file, a bad path, or a second row for one cell is refused unscored
    if args.append_to:
        path = Path(args.append_to)
        rows = ser.decode_file(path, ser.result_rows_from_csv) if path.exists() else []
        ser.check_outputs(path)
        ser.refuse_shared_cells([*(r.cell for r in rows),
                                 (backend_name(noise), args.ensemble_size)])
    row = compare_populations(het, hom, args.ensemble_size, tests, noise=noise)
    if args.append_to:
        ser.write_atomic((path, ser.result_rows_to_csv([*rows, row])))
    print(ser.result_rows_to_csv([row]), end="")
    return 0


def cmd_report(args) -> int:
    def render(text):
        rows = ser.result_rows_from_csv(text)
        # ideal first, then noise backends in file order
        rows.sort(key=lambda r: (r.backend_name != IDEAL,))
        return ser.result_rows_to_csv(rows), ser.result_table_text(rows)

    # both outputs are built, and a duplicate row refused, before either is written
    csv_text, table = ser.decode_file(args.rows, render)
    ser.write_atomic((args.out_csv, csv_text), (args.out_table, table))
    print(table, end="")
    return 0


def cmd_encode_dataset(args) -> int:
    dataset = load_dataset(args.input)
    cases = encode_all(dataset)
    if args.output:
        ser.write_test_cases(cases, args.output)
        return 0
    labels = [e.class_label for e in dataset] if args.stratified else None
    evo, eva = split(cases, args.n_evolution, args.seed or 0, labels=labels)
    ser.write_atomic((args.evolution_out, ser.cases_to_jsonl(evo)),
                     (args.evaluation_out, ser.cases_to_jsonl(eva)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcens",
        description="Evolve and evaluate heterogeneous ensembles of quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evolve a population of ensembles")
    p.add_argument("--config", required=True, help="evolution config file (JSON)")
    p.add_argument("--tests", required=True, help="test-case file (JSON lines)")
    p.add_argument("--population", required=True, help="population output file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--qubits", type=int, help="override the register width")
    p.add_argument("--ensemble-size", type=int, help="override the ensemble size")
    p.add_argument("--noise", help="noise preset name or config file")
    p.add_argument("--mode", help="exact or shots:<count>")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", help="evaluate every ensemble in a population")
    p.add_argument("--population", required=True)
    p.add_argument("--tests", required=True)
    p.add_argument("--noise", help="noise preset name or config file")
    p.add_argument("--mode", help="exact or shots:<count>")
    p.add_argument("--seed", type=int, help="shot-sampling seed")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="heterogeneous vs. homogeneous comparison")
    p.add_argument("--het-population", required=True)
    p.add_argument("--hom-population", required=True, help="size-1 base population")
    p.add_argument("--ensemble-size", type=int, required=True)
    p.add_argument("--tests", required=True, help="evaluation test-case file")
    p.add_argument("--noise", help="noise preset name or config file")
    p.add_argument("--append-to", help="result CSV to append the row to")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render result rows as CSV + aligned table")
    p.add_argument("--rows", required=True, help="result CSV from compare")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-table", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("encode-dataset", help="encode an Iris file into test cases")
    p.add_argument("--input", required=True, help="5-column Iris CSV")
    p.add_argument("--output", help="test-case output file (single file mode)")
    p.add_argument("--evolution-out", help="evolution-split output file")
    p.add_argument("--evaluation-out", help="evaluation-split output file")
    p.add_argument("--n-evolution", type=int, default=100)
    p.add_argument("--seed", type=int, help="split seed")
    p.add_argument("--stratified", action="store_true", help="stratify the split by class")
    p.set_defaults(func=cmd_encode_dataset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "encode-dataset" and not (
        (args.output and not (args.evolution_out or args.evaluation_out or args.stratified))
        or (not args.output and args.evolution_out and args.evaluation_out)
    ):
        parser.error("encode-dataset takes either --output, or --evolution-out and "
                     "--evaluation-out with an optional --stratified")
    try:
        return args.func(args)
    except (QcensError, OSError) as exc:  # readers raise OSError for missing files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
