"""File formats: test cases, populations, evolution configs, result tables.

All formats are plain text (JSON / JSON-lines / CSV) and deterministic:
serializing the same objects twice yields byte-identical files.  Floats are
written with full round-trip precision.  See FORMATS.md at the repository
root for the complete reference.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
import reprlib
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .circuits import Circuit, CXGate, Gate, UGate
from .ensemble import Ensemble, FitnessReport, TestCase
from .errors import ParseError, QcensError, ValidationError
from .evolution import EvolutionConfig, Population
from .statevector import MAX_SHOTS, check_shots

POPULATION_FORMAT = "qcens-population-v1"


def write_atomic(*files) -> None:
    """Write each ``(path, text)`` pair so that all of the files land or none does.

    Every text goes, as UTF-8, to a new temp file next to its path, named as no
    existing file and no output of this call; only when all are written are they
    renamed into place, and a failure removes every temp file.  Every writer in
    the package goes through here.
    """
    paths = [Path(path) for path, _ in files]
    outputs = {p.resolve() for p in paths}
    if len(outputs) != len(paths):
        raise ValidationError("one output file is given twice")
    for path in paths:  # renaming onto a directory fails, perhaps after other renames
        if path.is_dir():
            raise ValidationError(f"output path {path} is a directory")
    tmps = []
    try:
        for path, (_, text) in zip(paths, files):
            tmps.append(_new_temp(path, outputs))
            tmps[-1].write_text(text, encoding="utf-8")
        for tmp, path in zip(tmps, paths):
            tmp.replace(path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _new_temp(path: Path, outputs: set) -> Path:
    """An empty file made next to ``path``, ``<name>.tmp`` or else ``<name>.<k>.tmp``, that
    neither existed nor is in ``outputs``; made exclusively, with a plain write's mode."""
    for k in itertools.count():
        tmp = path.with_name(f"{path.name}.{k}.tmp" if k else f"{path.name}.tmp")
        if tmp.resolve() not in outputs:
            try:
                tmp.touch(exist_ok=False)
                return tmp
            except FileExistsError:
                pass


def decode_file(path, parse, by_line: bool = False):
    """Return ``parse`` of the text of ``path``; every file reader goes through here.

    ``parse`` gets the whole text or, with ``by_line``, an iterator over the
    non-blank lines.  A decoding failure becomes a ``ParseError`` located at
    ``path``, or ``path:line`` while a line is parsed; a ``QcensError`` keeps
    its type and gains the location.  ``OSError`` passes through.
    """
    path = Path(path)
    where = str(path)

    def lines(text):
        nonlocal where
        for lineno, line in enumerate(text.split("\n"), start=1):
            if line.strip():
                where = f"{path}:{lineno}"
                yield line
        where = str(path)

    try:
        text = path.read_text(encoding="utf-8")
        return parse(lines(text) if by_line else text)
    except QcensError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    # ValueError includes UnicodeDecodeError and JSONDecodeError; the last three
    # come from int(1e999), JSON nested too deep and CSV fields over 128 KiB.
    except (ValueError, LookupError, TypeError, AttributeError,
            OverflowError, RecursionError, csv.Error) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"{where}: {detail}") from None


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float (even ``2.0``) or a bool is refused."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """``value`` as a float if it is a JSON number a float holds; a string, a bool,
    NaN, an infinity or an integer beyond the float range is refused."""
    # compares an int of any size exactly, where math.isfinite would overflow; NaN fails it
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ParseError(f"{what} must be a finite float, got {reprlib.repr(value)}")
    return float(value)


def json_number(text: str, what: str, read=_json_float):
    """``read`` of the JSON number that ``text`` spells, named ``what`` in errors; every number
    in a text file is read here, so ``1_0``, ``.5`` and non-ASCII digits are refused."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise ParseError(f"{what} is not a number: {reprlib.repr(text)}") from None
    except ValueError:  # json reads integers with int(), which refuses over 4,300 digits
        raise ParseError(f"{what} has over 4,300 digits") from None
    return read(value, what)  # outside the try: read's ParseError is a ValueError too


# --- gates and circuits ---

def gate_to_obj(gate: Gate) -> dict:
    if isinstance(gate, UGate):
        return {"gate": "u", "target": gate.target,
                "theta": gate.theta, "phi": gate.phi, "lambda": gate.lam}
    if isinstance(gate, CXGate):
        return {"gate": "cx", "control": gate.control, "target": gate.target}
    raise ValidationError(f"unknown gate type: {type(gate).__name__}")


def gate_from_obj(obj: dict) -> Gate:
    kind = obj.get("gate")
    if kind == "u":
        return UGate(_json_int(obj["target"], "target"),
                     *(_json_float(obj[key], key) for key in ("theta", "phi", "lambda")))
    if kind == "cx":
        return CXGate(_json_int(obj["control"], "control"), _json_int(obj["target"], "target"))
    raise ParseError(f"unknown gate record: {obj!r}")


def circuit_to_obj(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "measured_qubits": list(circuit.measured_qubits),
        "gates": [gate_to_obj(g) for g in circuit.gates],
    }


def circuit_from_obj(obj: dict) -> Circuit:
    return Circuit(
        _json_int(obj["num_qubits"], "num_qubits"),
        tuple(gate_from_obj(g) for g in obj["gates"]),
        tuple(_json_int(q, "measured qubit") for q in obj["measured_qubits"]),
    )


# --- test-case files (JSON lines) ---

def test_case_to_obj(case: TestCase) -> dict:
    obj: dict = {"expected": case.expected}
    if case.features is not None:
        obj["features"] = list(case.features)
    else:
        obj["init_gates"] = [gate_to_obj(g) for g in case.init_gates]
    return obj


def test_case_from_obj(obj: dict) -> TestCase:
    """Both init forms are passed on, so ``TestCase`` refuses a line with both."""
    return TestCase(
        expected=_json_int(obj["expected"], "expected"),
        features=(tuple(_json_float(f, "feature") for f in obj["features"])
                  if "features" in obj else None),
        init_gates=(tuple(gate_from_obj(g) for g in obj["init_gates"])
                    if "init_gates" in obj else None),
    )


def cases_to_jsonl(cases) -> str:
    return "".join(_dumps(test_case_to_obj(c)) + "\n" for c in cases)


def write_test_cases(cases, path) -> None:
    write_atomic((path, cases_to_jsonl(cases)))


def read_test_cases(path) -> list[TestCase]:
    return decode_file(path, _test_cases_from_lines, by_line=True)


def _test_cases_from_lines(lines) -> list[TestCase]:
    cases = [test_case_from_obj(json.loads(line)) for line in lines]
    if not cases:
        raise ParseError("no test cases")
    return cases


# --- evolution configs (JSON) ---

def config_to_obj(config: EvolutionConfig) -> dict:
    """Every ``EvolutionConfig`` field, with ``shots`` written as ``eval_mode``."""
    obj = asdict(config)
    shots = obj.pop("shots")
    obj["measured_qubits"] = list(config.measured_qubits)
    obj["eval_mode"] = "exact" if shots is None else f"shots:{shots}"
    return obj


def config_from_obj(obj: dict) -> EvolutionConfig:
    """Inverse of ``config_to_obj``; absent fields take the ``EvolutionConfig`` defaults."""
    obj = dict(obj)
    if "shots" in obj:  # a field of EvolutionConfig, but files set it as eval_mode
        raise ParseError("unknown config key 'shots'; set the evaluation mode with eval_mode")
    for field in fields(EvolutionConfig):
        read = {"int": _json_int, "float": _json_float}.get(field.type)
        if read is not None and field.name in obj:
            obj[field.name] = read(obj[field.name], field.name)
    for q in obj.get("measured_qubits", ()):
        _json_int(q, "measured qubit")
    obj["shots"] = parse_eval_mode(obj.pop("eval_mode", "exact"))
    return EvolutionConfig(**obj)


def parse_eval_mode(mode: str) -> int | None:
    """'exact' -> None; 'shots:<count>' -> count, written in ASCII digits without a leading 0."""
    if mode == "exact":
        return None
    if isinstance(mode, str) and re.fullmatch(r"shots:[1-9][0-9]*", mode):
        digits = mode[len("shots:"):]
        if len(digits) > len(str(MAX_SHOTS)):  # before int(), which refuses 4,301 digits
            raise ValidationError(f"shots must be in [1, 2**63 - 1], got {len(digits)} digits")
        return check_shots(int(digits))
    raise ParseError(f"eval mode must be 'exact' or 'shots:<count>', got {mode!r}")


def write_config(config: EvolutionConfig, path) -> None:
    write_atomic((path, _dumps(config_to_obj(config), indent=2) + "\n"))


def read_config(path) -> EvolutionConfig:
    return decode_file(path, lambda text: config_from_obj(json.loads(text)))


# --- population files (JSON) ---

def population_to_obj(population: Population) -> dict:
    obj = {
        "format": POPULATION_FORMAT,
        "generation": population.generation,
        "ensembles": [
            [circuit_to_obj(c) for c in e.circuits] for e in population.individuals
        ],
        "fitnesses": [
            {"fitness": r.fitness, "per_test": list(r.per_test)}
            for r in population.fitnesses
        ],
    }
    if population.config is not None:
        obj["config"] = config_to_obj(population.config)
    return obj


def population_from_obj(obj: dict) -> Population:
    if obj.get("format") != POPULATION_FORMAT:
        raise ParseError(f"not a population file (format={obj.get('format')!r})")
    individuals = tuple(
        Ensemble(tuple(circuit_from_obj(c) for c in members))
        for members in obj["ensembles"]
    )
    fitnesses = tuple(
        FitnessReport(_json_float(r["fitness"], "fitness"),
                      [_json_float(p, "per_test") for p in r["per_test"]])
        for r in obj["fitnesses"]
    )
    config = config_from_obj(obj["config"]) if "config" in obj else None
    return Population(individuals, fitnesses, _json_int(obj["generation"], "generation"), config)


def write_population(population: Population, path) -> None:
    write_atomic((path, _dumps(population_to_obj(population)) + "\n"))


def read_population(path) -> Population:
    return decode_file(path, lambda text: population_from_obj(json.loads(text)))


# --- result rows (CSV + aligned text table) ---

@dataclass(frozen=True)
class ResultRow:
    """One backend/ensemble-size comparison: medians, p-value, effect size."""

    backend_name: str
    ensemble_size: int
    median_het: float
    median_hom: float
    p_value: float
    effect_r: float

    @property
    def cell(self) -> tuple[str, int]:
        """The (backend, n) cell of the result table that this row fills."""
        return self.backend_name, self.ensemble_size


RESULT_FIELDS = ("backend", "n", "median_het", "median_hom", "p_value", "effect_r")


def result_rows_to_csv(rows) -> str:
    rows = list(rows)
    if not rows:
        raise ValidationError("no result rows to write")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for row in rows:
        writer.writerow([
            row.backend_name, row.ensemble_size,
            repr(row.median_het), repr(row.median_hom),
            repr(row.p_value), repr(row.effect_r),
        ])
    return out.getvalue()


def _number_cell(cell: str, read, what: str):
    """``read`` of the JSON number in ``cell``, which must be spelled as the
    writer spells that value (``repr``), so the file round-trips byte for byte."""
    value = json_number(cell, what, read)
    if repr(value) != cell:
        raise ParseError(f"{what} cell {reprlib.repr(cell)} is not written as {value!r}: "
                         "number cells may not carry spaces or a second spelling")
    return value


def result_rows_from_csv(text: str) -> list[ResultRow]:
    """Numeric cells are read as JSON numbers, by the rules of the JSON formats,
    and must be spelled as ``result_rows_to_csv`` writes them."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(RESULT_FIELDS):
        raise ParseError(f"bad result-file header: {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(RESULT_FIELDS):
            raise ParseError(f"bad result row: {record!r}")
        name, n, *floats = record
        rows.append(ResultRow(name, _number_cell(n, _json_int, "n"),
                              *(_number_cell(cell, _json_float, field)
                                for cell, field in zip(floats, RESULT_FIELDS[2:]))))
    if not rows:
        raise ParseError("result file has no rows")
    return rows


def refuse_shared_cells(cells) -> None:
    """Refuses a (backend, n) cell given twice: its two rows would share a cell
    of the result table."""
    seen = set()
    for cell in cells:
        if cell in seen:
            raise ValidationError(f"two rows for backend {cell[0]!r}, n={cell[1]}")
        seen.add(cell)


def result_table_text(rows) -> str:
    """Aligned text table, one line per backend, columns grouped by n.

    Refuses two rows with the same backend and n, which would share a cell.
    """
    rows = list(rows)
    if not rows:
        raise ValidationError("no result rows to format")
    sizes = sorted({r.ensemble_size for r in rows})
    backends = list(dict.fromkeys(r.backend_name for r in rows))
    refuse_shared_cells(r.cell for r in rows)
    by_key = {r.cell: r for r in rows}
    header = ["backend"]
    for n in sizes:
        header += [f"het(n={n})", f"hom(n={n})", f"p(n={n})", f"r(n={n})"]
    lines = [header]
    for backend in backends:
        line = [backend]
        for n in sizes:
            row = by_key.get((backend, n))
            if row is None:
                line += ["-"] * 4
            else:
                line += [f"{row.median_het:.3f}", f"{row.median_hom:.3f}",
                         f"{row.p_value:.3g}", f"{row.effect_r:+.3f}"]
        lines.append(line)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in lines
    ) + "\n"


def _dumps(obj, indent: int | None = None) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent,
                      separators=(",", ": ") if indent else (",", ":"))
