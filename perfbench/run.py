"""Benchmark for raagspine: one workload, timed for a fixed run length.

    python3 perfbench/run.py --workload search --seed 1 --seconds 24 --trace 0

Workloads: search, session, retract, census (see workloads.py and README.md).
The package is imported from ``src/`` of the checkout this file sits in.

A run sets the workload up several times (``setup_s`` is the median), then
repeats passes over the workload's fixed task list until ``--seconds`` have
gone.  Every answer is checked against its reference.  With ``--trace 0`` the
passes run on the untouched package and the end-to-end metrics are printed.
With ``--trace 1`` untraced and traced passes alternate; the traced ones run
with the tracer's wrappers installed and give the per-layer metrics, and
``trace.overhead`` compares the two.  A human-readable summary, with the run
each number came from, precedes the last line of standard output, which is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (every answer, the census graph list, the traced call tree) is written
to ``.bench_run/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 9
RUN_LIMIT_S = 150.0  # every run ends well inside 180 s, whatever the program does


class DeadlineExceeded(BaseException):
    """Raised in a task that outlives its deadline.

    A BaseException, so that the package's own ``except Exception`` handlers
    (the compatibility cache has one) cannot swallow it.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    name: str
    seconds: float
    status: str  # ok | wrong | failed | deadline
    answer: object = None
    problem: str | None = None


def run_task(task, run_start: float) -> Result:
    limit = min(task.deadline_s, max(0.1, RUN_LIMIT_S - (perf_counter() - run_start)))
    start = perf_counter()
    try:
        with deadline(limit):
            start = perf_counter()
            raw = task.run()
            seconds = perf_counter() - start
    except DeadlineExceeded as exc:
        return Result(task.name, perf_counter() - start, "deadline", problem=str(exc))
    except Exception as exc:  # a failed task is counted, and the run goes on
        return Result(task.name, perf_counter() - start, "failed", problem=repr(exc))
    answer = task.answer(raw)
    if task.exit_code is not None and answer["exit"] != task.exit_code:
        return Result(task.name, seconds, "failed", answer, f"exit code {answer['exit']}")
    problem = (task.verify(raw) if task.verify else None) or task.check(answer)
    return Result(task.name, seconds, "wrong" if problem else "ok", answer, problem)


def import_package():
    """A fresh import of raagspine and of the submodules the benchmark uses."""
    for name in [n for n in sys.modules if n == "raagspine" or n.startswith("raagspine.")]:
        del sys.modules[name]
    rs = importlib.import_module("raagspine")
    for sub in ("cli", "families", "search"):
        importlib.import_module(f"raagspine.{sub}")
    return rs


def set_up(workload_name: str, seed: int, tiny: bool, scratch: Path):
    """Import the package and build the workload's inputs, several times."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        rs = import_package()
        workload = workloads.WORKLOADS[workload_name](rs, random.Random(seed), tiny, scratch)
        times.append(perf_counter() - start)
    return workload, times


def run_pass(workload, run_start: float) -> list[Result]:
    workload.before_pass()
    try:
        return [run_task(task, run_start) for task in workload.tasks]
    finally:
        workload.after_pass()


def measure(workload, seconds: float, trace: bool, run_start: float) -> list[dict]:
    """Passes until the run length is used up; traced runs alternate the two kinds."""
    from tracer import Tracer, installed_wrappers

    tracer = Tracer() if trace else None
    kinds = ("untraced", "traced") if trace else ("untraced",)
    passes: list[dict] = []
    cycles: list[float] = []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for kind in kinds:
            gc.collect()
            if kind == "traced":
                tracer.reset()
                tracer.install()
            elif installed_wrappers():
                raise RuntimeError("untraced pass found tracer wrappers installed")
            try:
                results = run_pass(workload, run_start)
            finally:
                if kind == "traced":
                    tracer.uninstall()
            record = {"run": kind, "wall_s": sum(r.seconds for r in results), "results": results}
            if kind == "traced":
                record["layers"] = tracer.layer_metrics(record["wall_s"])
                record["call_tree"] = tracer.call_tree()
            passes.append(record)
        cycles.append(perf_counter() - cycle_start)
        elapsed = perf_counter() - start
        cycle = statistics.median(cycles)
        if elapsed + cycle / 2 >= seconds or (perf_counter() - run_start) + cycle > RUN_LIMIT_S:
            return passes


def tail_percentile(tasks: int) -> float:
    """The highest percentile with ten of the tasks beyond it.

    Task lists shorter than 20 have no such tail; they report the slowest
    task (percentile 100) instead.
    """
    return 100 * (1 - 10 / tasks) if tasks >= 20 else 100.0


def percentile(times: list[float], q: float) -> float:
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def check_passes(passes: list[dict]) -> list[str]:
    """Every pass must give the first pass's answers (traced ones included)."""
    first = passes[0]["results"]
    problems = []
    for p in passes[1:]:
        for a, b in zip(first, p["results"]):
            if a.status in ("ok", "wrong") and b.status in ("ok", "wrong") and a.answer != b.answer:
                problems.append(f"{b.name}: answer changed between passes ({p['run']} pass)")
    return problems


def summarise(args, workload, setup_times, passes, probe, oracle_problems) -> dict:
    """The run's record: metrics with the run each came from, answers, failures."""
    untraced = [p for p in passes if p["run"] == "untraced"]
    traced = [p for p in passes if p["run"] == "traced"]
    results = [r for p in passes for r in p["results"]]
    problems = [r.problem for r in results if r.status == "wrong"]
    problems += check_passes(passes) + oracle_problems
    failures = [r for r in results if r.status in ("failed", "deadline")]
    probe_failed = probe is not None and probe.status != "ok"
    attempted = len(results) + (probe is not None)
    # Each task's median over the untraced passes; the task metrics are taken
    # over these, so a pass count that varies between runs does not move them.
    per_task = [
        statistics.median(p["results"][i].seconds for p in untraced)
        for i in range(len(workload.tasks))
    ]
    tail_q = tail_percentile(len(per_task))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)

    metrics = {  # name -> (value, run it came from)
        "setup_s": (statistics.median(setup_times), "setup"),
        "wall_s": (untraced_wall, "untraced"),
        "task_p50_s": (statistics.median(per_task), "untraced"),
        "task_tail_s": (percentile(per_task, tail_q), "untraced"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "whole run"),
    }
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = (statistics.median(p["layers"][name] for p in traced), "traced")
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead"] = (traced_wall / untraced_wall, "traced / untraced")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "tasks_per_pass": len(workload.tasks),
        "attempted": attempted,
        "task_tail_percentile": tail_q,
        "wrong_answers": len(problems),
        "failed_frac": (len(failures) + probe_failed) / attempted,
        "problems": problems,
        "failures": [{"name": r.name, "status": r.status, "problem": r.problem} for r in failures],
        "probe": None if probe is None else {
            "name": probe.name, "status": probe.status, "seconds": probe.seconds,
            "answer": probe.answer, "problem": probe.problem,
        },
        "setup_s_samples": setup_times,
        "metrics": {k: {"value": v, "from": src} for k, (v, src) in metrics.items()},
        "answers": [
            {
                "name": r.name,
                "status": r.status,
                "answer": r.answer,
                "median_s": per_task[i],
            }
            for i, r in enumerate(passes[0]["results"])
        ],
        "pass_walls": [{"run": p["run"], "wall_s": p["wall_s"]} for p in passes],
        "call_tree": traced[0]["call_tree"] if traced else None,
        "inputs": workload.inputs,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "session", "retract", "census"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "raagspine" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: no raagspine package under {SRC} or no {spec_file.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [str(HERE), str(SRC)]
    run_start = perf_counter()
    scratch = RUN_DIR / f"tmp-{os.getpid()}"
    workload = None
    try:
        workload, setup_times = set_up(args.workload, args.seed, args.tiny, scratch)
        passes = measure(workload, args.seconds, bool(args.trace), run_start)
        probe = run_task(workload.probe, run_start) if workload.probe else None
        oracle_problems = workload.oracle() if workload.oracle else []
        report = summarise(args, workload, setup_times, passes, probe, oracle_problems)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            workload.finish()
        shutil.rmtree(scratch, ignore_errors=True)

    computed = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        # The envelope probe's expected deadline is reported apart, in failed_frac.
        "failed": len(report["failures"]),
        "metrics": {
            m["name"]: {"value": computed[m["name"]]["value"], "unit": m["unit"]} for m in declared
        },
    }
    RUN_DIR.mkdir(exist_ok=True)
    record = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1, default=str))

    census = workload.inputs.get("graphs")
    print(f"workload {args.workload}  seed {args.seed}  run {args.seconds:g} s  "
          f"passes {report['passes']['untraced']} untraced + {report['passes']['traced']} traced  "
          f"tasks/pass {report['tasks_per_pass']}")
    for m in declared:
        value, source = computed[m["name"]]["value"], computed[m["name"]]["from"]
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<6} [{source}]")
    print(f"  {'wrong_answers':<30} {report['wrong_answers']:>14d} count  [all passes]")
    print(f"  {'failed_frac':<30} {report['failed_frac']:>14.6g} ratio  [all passes, probe included]")
    if not args.trace:
        print(f"  task_p50_s and task_tail_s (p{report['task_tail_percentile']:.4g}) are "
              f"taken over the {report['tasks_per_pass']} tasks' median times")
    if report["probe"]:
        p = report["probe"]
        print(f"  envelope probe {p['name']}: {p['status']} after {p['seconds']:.2f} s")
    if census:
        digest = hashlib.sha256("".join(g["text"] for g in census).encode()).hexdigest()[:16]
        print(f"  census: {len(census)} graphs, sha256 {digest}, listed in the record")
    for problem in report["problems"][:10]:
        print(f"  WRONG {problem}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
