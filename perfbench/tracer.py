"""Spans around the calls into each qcens layer, recorded from outside.

The tracer replaces a public name where its caller looks it up (for example
``qcens.ensemble.run_noisy``, which ``Evaluator`` calls, not
``qcens.noise.run_noisy``) with a wrapper that records one span per call:
name, start, end, parent span and an optional work count taken from the
arguments.  ``uninstall`` puts every original back.  Spans stay in memory
until ``write`` stores them once, at the end of the run.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


def _gate_rows(args, kwargs) -> tuple[int, int]:
    """(gates x initial states, qubits) of a run_ideal / run_noisy call."""
    circuit = args[0]
    init = args[1] if len(args) > 1 else kwargs.get("init")
    rows = init.shape[0] if getattr(init, "ndim", 1) == 2 else 1
    return len(circuit.gates) * rows, circuit.num_qubits


def _noisy_bytes(args, kwargs, result) -> int:
    gate_rows, q = _gate_rows(args, kwargs)
    return gate_rows * 4**q * 16  # one complex128 density matrix per test, per gate


def _ideal_amps(args, kwargs, result) -> int:
    gate_rows, q = _gate_rows(args, kwargs)
    return gate_rows * 2**q


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[-1])


def _text_bytes_in(args, kwargs, result) -> int:
    return len(args[0].encode())


def _text_bytes_out(args, kwargs, result) -> int:
    return len(result.encode())


# (span name, module or class holding the name, attribute, work count)
HOOKS = (
    ("cli.main", "qcens.cli", "main", None),
    ("noisefiles.resolve_noise", "qcens.cli", "resolve_noise", None),
    ("harness.compare_populations", "qcens.cli", "compare_populations", None),
    ("stats.mann_whitney", "qcens.harness", "mann_whitney", None),
    ("stats.median", "qcens.harness", "median", None),
    ("serialization.read_population", "qcens.serialization", "read_population", _file_bytes),
    ("serialization.read_test_cases", "qcens.serialization", "read_test_cases", _file_bytes),
    ("serialization.result_rows_from_csv", "qcens.serialization", "result_rows_from_csv",
     _text_bytes_in),
    ("serialization.result_rows_to_csv", "qcens.serialization", "result_rows_to_csv",
     _text_bytes_out),
    ("serialization.result_table_text", "qcens.serialization", "result_table_text",
     _text_bytes_out),
    ("serialization.write_population", "qcens.serialization", "write_population", _file_bytes),
    ("serialization.write_test_cases", "qcens.serialization", "write_test_cases", _file_bytes),
    ("evolution.evolve", "qcens.evolution", "evolve", None),
    ("ensemble.ensemble_fitness", "qcens.ensemble:Evaluator", "ensemble_fitness", None),
    ("ensemble.member_distributions", "qcens.ensemble:Evaluator", "member_distributions",
     lambda args, kwargs, result: args[1]),
    ("ensemble.degrade_to_shots", "qcens.ensemble:Evaluator", "_degrade_to_shots", None),
    ("ensemble.sample_shots", "qcens.ensemble", "sample_shots",
     lambda args, kwargs, result: args[1]),
    ("noise.run_noisy", "qcens.ensemble", "run_noisy", _noisy_bytes),
    ("statevector.run_ideal", "qcens.ensemble", "run_ideal", _ideal_amps),
    ("iris.load_dataset", "qcens.iris", "load_dataset", None),
    ("iris.encode_all", "qcens.iris", "encode_all", None),
    ("iris.split", "qcens.iris", "split", None),
)

GENERATION_MARK = "evolution.generation"


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every hook; a hook whose name is gone is an error, because its
        time would otherwise move silently into its caller's self time."""
        missing = [f"{where}.{attr}" for _, where, attr, _ in HOOKS
                   if attr not in vars(_owner(where))]
        if missing:
            raise RuntimeError(f"tracer hooks not found: {', '.join(missing)}")
        for name, where, attr, work in HOOKS:
            owner = _owner(where)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, original, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def mark(self, name: str) -> None:
        now = perf_counter()
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1, None])

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")


class Totals:
    """Per-name inclusive time, self time, call count and summed work of the
    spans in the given ``[first, last)`` index ranges."""

    def __init__(self, spans, ranges):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        for first, last in ranges:
            child_time = defaultdict(float)
            for _, start, end, parent, _ in spans[first:last]:
                child_time[parent] += end - start
            for index in range(first, last):
                name, start, end, _, work = spans[index]
                self.total[name] += end - start
                self.self_time[name] += end - start - child_time[index]
                self.calls[name] += 1
                if isinstance(work, (int, float)):
                    self.work[name] += work


def unique_per_generation(spans, span_range) -> list[int]:
    """Distinct circuits looked up between consecutive generation marks."""
    counts, seen = [], set()
    for name, _, _, _, work in spans[span_range[0]:span_range[1]]:
        if name == "ensemble.member_distributions":
            seen.add(work)
        elif name == GENERATION_MARK:
            counts.append(len(seen))
            seen = set()
    return counts
