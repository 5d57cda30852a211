"""Benchmark of qcens: one workload, timed, with its outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcens source tree; the benchmark imports ``qcens``
from ``src/`` there and nowhere else.  It runs units of the workload until
their summed time reaches ``--seconds``, setting the workload up before every
unit and after the last until there are at least ``SETUP_REPS`` set-ups
(``setup_s`` is their median).  Then it checks every unit's output file against the digest earlier
runs of the same sources recorded for the same seed and against unit 0 run
again in a fresh process, and re-scores a fixed sample of it with the
independent oracle in ``oracle.py``.  A step of a unit that raised or failed a
check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each unit
traced and then untraced, and reports per-layer metrics from the spans of
the traced runs (see ``tracer.py``).  The last line of standard output is the
JSON result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 6  # at least; one set-up runs before every unit, the rest after the last
REPLAY_TIMEOUT_S = 120


def import_qcens():
    if not (SRC / "qcens" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qcens sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qcens
    if Path(qcens.__file__).resolve().parent != (SRC / "qcens").resolve():
        sys.exit(f"perfbench: imported qcens from {qcens.__file__}, not from {SRC}")


def source_facts() -> dict:
    files = sorted((SRC / "qcens").rglob("*"))
    digest = hashlib.sha256()
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "qcens").glob("*.py"))
    return {"fingerprint": digest.hexdigest(), "src_qcens_py_lines": lines}


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # do not report an enclosing repository's commit
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def blas_facts() -> dict:
    import numpy as np
    facts = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
             "blas_threads": None,
             "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ}}
    try:  # the OpenBLAS that numpy loaded, to ask it for its thread count
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def load_digests() -> dict:
    path = WORK / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def save_digests(digests: dict) -> None:
    tmp = WORK / "digests.json.tmp"
    tmp.write_text(json.dumps(digests, sort_keys=True, indent=0))
    tmp.replace(WORK / "digests.json")


def replay(runner) -> int:
    """Set up and run unit 0 alone, then print its output digest: the parent
    run compares it with its own unit 0, which catches output that depends on
    the process, such as hash-seed ordering or unseeded randomness."""
    runner.setup()
    unit = runner.run_unit(0)
    problems = runner.finish(unit, with_oracle=False)
    print(json.dumps({"digest": unit.digest, "problems": problems}))
    return 0


def start_replay(args):
    env = dict(os.environ, PYTHONHASHSEED="random")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--replay"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def replay_problems(child, digest: str) -> list[str]:
    """Wait for the replay and compare its unit-0 digest with ``digest``."""
    try:
        out, err = child.communicate(timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return [f"the fresh-process replay took over {REPLAY_TIMEOUT_S} s"]
    if child.returncode != 0:
        return [f"the fresh-process replay exited {child.returncode}: {err.strip()[-300:]}"]
    result = json.loads(out.strip().splitlines()[-1])
    if result["problems"]:
        return [f"fresh-process replay: {p}" for p in result["problems"]]
    if result["digest"] != digest:
        return ["output differs from the same unit run in a fresh process"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.dont_write_bytecode = True  # leave no caches in the source tree
    import_qcens()
    import numpy as np
    import oracle
    from layers import layer_metrics
    from tracer import GENERATION_MARK, Tracer
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.replay:
        work_dir = WORK / workload.name / "replay"
        work_dir.mkdir(parents=True, exist_ok=True)
        return replay(Runner(workload, args.seed, work_dir))
    wrong = oracle.selfcheck()
    if wrong:
        sys.exit(f"perfbench: the oracle fails its known cases: {', '.join(wrong)}")
    work_dir = WORK / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    facts = source_facts()
    runner = Runner(workload, args.seed, work_dir)
    tracer = Tracer() if args.trace else None

    setup_times, setup_digests, setup_ranges = [], [], []

    def set_up():
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        try:
            start = perf_counter()
            setup_digests.append(runner.setup())
            setup_times.append(perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
                setup_ranges.append((first, len(tracer.spans)))

    # A set-up runs before every unit and the rest after the last, so that
    # the median of the set-ups samples the machine over the same stretch of
    # time as the timed run: on a shared 2-vCPU VM, speed drifts by a third
    # over a minute, and the median of few set-ups lands on one extreme.
    # With tracing, each unit runs traced and then again untraced on the same
    # inputs: the pair gives the tracing overhead and one more determinism
    # check.
    units, timed = [], 0.0
    while timed < args.seconds:
        set_up()
        index = len(units) // 2 if tracer else len(units)
        if tracer:
            first = len(tracer.spans)
            runner.on_generation = lambda: tracer.mark(GENERATION_MARK)
            tracer.install()
            try:
                unit = runner.run_unit(index)
            finally:
                tracer.uninstall()
                runner.on_generation = None
            unit.spans = (first, len(tracer.spans))
            units.append(unit)
            timed += unit.seconds
        unit = runner.run_unit(index)
        units.append(unit)
        timed += unit.seconds
    set_up()
    while len(setup_times) < SETUP_REPS:
        set_up()
    # the process's peak before the checks, whose oracle and extra evaluators
    # would otherwise count in it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The replay of unit 0 runs in its own process while this one checks.
    child = start_replay(args)
    try:
        digests = load_digests()
        setup_agrees = len(set(setup_digests)) == 1
        problems = [] if setup_agrees else ["set-up outputs differ between repetitions"]
        attempted = failed = 0
        last = units[-1].index
        for unit in units:
            unit_problems = runner.finish(unit,
                                          with_oracle=unit.index in (0, last) and not unit.spans)
            key = f"{facts['fingerprint'][:16]}/{workload.name}/{args.seed}/{unit.index}"
            if unit.digest and digests.setdefault(key, unit.digest) != unit.digest:
                unit_problems.append("output differs from an earlier run's at this seed")
            if unit.index == 0 and not unit.spans:
                unit_problems += replay_problems(child, unit.digest)
            attempted += unit.attempted
            if unit_problems or not setup_agrees:
                failed += unit.attempted
            problems += [f"unit {unit.index}: {p}" for p in unit_problems]
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    save_digests(digests)

    step_times = [s for u in units for s in u.steps]
    if tracer:
        tracer.write(work_dir / f"spans-seed{args.seed}.csv")
        metrics = layer_metrics(tracer.spans, [u for u in units if u.spans],
                                [u for u in units if not u.spans], setup_ranges,
                                len(step_times))
    else:
        metrics = {
            "ens_per_s": {"value": sum(u.evaluations for u in units) / timed, "unit": "1/s"},
            "step_s_p50": {"value": statistics.median(step_times) if step_times else timed,
                           "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    context = {
        "workload": workload.name, "dominant_layer": workload.dominant, "size": workload.size(),
        "seed": args.seed, "trace": args.trace, "units": len(units), "steps": len(step_times),
        "timed_s": timed, "setup_s_each": setup_times,
        "failed_op_ratio": failed / attempted if attempted else 1.0,
        "output_sha256": units[0].digest, "problems": problems,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        **blas_facts(), "git_commit": git_commit(), **facts,
    }
    print("perfbench context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"perfbench metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
