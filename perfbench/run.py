"""Benchmark for the akizuki library: seeded, closed-loop, single-client workloads.

Run from the repository root:

    python3 perfbench/run.py --workload completion-fp511 --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 58

With ``--trace 0`` a run measures set-up time in fresh interpreters, warms
up on a block of tasks that is never timed, then runs whole blocks of the
seeded task list, checking every result outside the timer, until the loop
has run for ``--seconds`` and timed at least 100 tasks, and prints the
end-to-end metrics.  With ``--trace 1`` it runs each task of a fixed prefix
of the task list untraced and again with the span recorder installed, and
prints the per-layer metrics; spans are written to ``.bench_out/``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# A timed run measures whole blocks until both --seconds of loop time and
# this many tasks are reached, so task_p90_ms has ten samples beyond it.
MIN_TASKS = 100
# Stop starting new blocks after this much real time, so a run always ends
# well inside its time limit even when tasks are far slower than expected.
LOOP_DEADLINE_S = 120.0
WORKLOAD_NAMES = ("completion-fp511", "cli-desk")

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2] the
# workload's set-up code; prints the seconds from before `import akizuki`
# until the workload's rings are built.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
exec(sys.argv[2])
print(time.perf_counter() - start)
"""


def load_library():
    """Import akizuki from this checkout's src/, or exit 2 without a result."""
    init = SRC / "akizuki" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: library not found at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import akizuki

    if Path(akizuki.__file__).resolve() != init.resolve():
        print(f"perfbench: imported akizuki from {akizuki.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)


class Tally:
    """Per-task wall and CPU times and the failures of one pass; ``untimed``
    counts checked tasks whose times are not among the samples."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.completed = 0
        self.failures: list[str] = []
        self.untimed = 0

    @property
    def attempted(self) -> int:
        return len(self.walls) + self.untimed


def run_jobs(workload, jobs, tally, recorder=None, first=0):
    """Run prepared jobs one at a time (closed loop), timing each and checking
    its result outside the timer.  With a recorder, spans carry the task's
    index in ``jobs`` plus ``first``."""
    for index, job in enumerate(jobs, first):
        if recorder is not None:
            recorder.task = index
            recorder.active = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run(job)
            error = None
        except Exception as exc:  # a failed task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        cpu1, wall1 = time.process_time(), time.perf_counter()
        if recorder is not None:
            recorder.active = False
        tally.walls.append(wall1 - wall0)
        tally.cpus.append(cpu1 - cpu0)
        if error is None:
            tally.completed += 1
            try:
                error = workload.check(job, result)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            tally.failures.append(error)


def measure_setup(workload) -> list[float]:
    """Set-up seconds in fresh interpreters, after one unmeasured warm-up
    (which also writes the bytecode cache that every later start reads)."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), workload.setup_code]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i > 0:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_run(workload, seed: int, seconds: float):
    """Whole blocks of the task list, with their checks, until the loop has
    run for ``seconds`` and timed at least MIN_TASKS tasks."""
    tally = Tally()
    start = time.monotonic()
    index = 0
    while time.monotonic() - start < LOOP_DEADLINE_S and (
        time.monotonic() - start < seconds or tally.attempted < MIN_TASKS
    ):
        jobs = [workload.prepare(spec) for spec in workload.block(seed, index)]
        run_jobs(workload, jobs, tally)
        index += 1
    return tally


def end_to_end(workload, seed: int, seconds: float):
    setup = measure_setup(workload)
    # warm-up on block -1, which the timed loop (blocks 0, 1, ...) never runs
    warm_up = Tally()
    run_jobs(workload, [workload.prepare(spec) for spec in workload.block(seed, -1)], warm_up)
    tally = timed_run(workload, seed, seconds)
    tally.untimed = warm_up.attempted
    tally.failures[:0] = warm_up.failures
    n = len(tally.walls)
    walls_ms = [w * 1e3 for w in tally.walls]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "tasks_per_s": (tally.completed / sum(tally.walls), "1/s", n),
        "task_p50_ms": (statistics.median(walls_ms), "ms", n),
        "task_p90_ms": (statistics.quantiles(walls_ms, n=10)[8], "ms", n),
        "cpu_ms_per_task": (sum(tally.cpus) * 1e3 / n, "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    return tally, metrics


def traced(workload, seed: int, limit: int | None = None):
    """The fixed prefix (``limit`` tasks, default the workload's trace
    blocks), each task untraced and traced; per-layer metrics and the
    recorder."""
    import spans

    specs = [s for b in range(workload.trace_blocks) for s in workload.block(seed, b)]
    jobs = [workload.prepare(spec) for spec in specs[:limit]]
    warm_up = Tally()
    run_jobs(workload, [workload.prepare(spec) for spec in workload.block(seed, -1)], warm_up)
    plain, tally = Tally(), Tally()
    recorder = spans.Recorder()

    def run_traced(index, job):
        recorder.install()
        try:
            run_jobs(workload, [job], tally, recorder, index)
        finally:
            recorder.uninstall()

    # Each task runs untraced and traced back to back, in alternating order,
    # so both runs of a task meet the same load on the host.
    for index, job in enumerate(jobs):
        if index % 2:
            run_traced(index, job)
            run_jobs(workload, [job], plain)
        else:
            run_jobs(workload, [job], plain)
            run_traced(index, job)
    values = recorder.metrics(len(jobs))
    values["trace.overhead_frac"] = sum(tally.cpus) / sum(plain.cpus) - 1
    tally.walls += plain.walls
    tally.completed += plain.completed
    tally.failures += warm_up.failures + plain.failures
    tally.untimed = warm_up.attempted
    metrics = {name: (values[name], unit, len(jobs)) for name, unit in spans.metric_names()}
    return tally, metrics, recorder


def report(workload, seed, tally, metrics, trace):
    print(f"workload {workload.name} seed {seed} trace {trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    failed = len(tally.failures)
    print(f"  error_rate = {failed / tally.attempted:.6g} ratio (n={tally.attempted})")
    for message in tally.failures[:5]:
        print(f"  FAILED: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    if args.workload == "all":
        return run_all(args)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        tally, metrics, recorder = traced(workload, args.seed)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
    else:
        tally, metrics = end_to_end(workload, args.seed, args.seconds)
    return report(workload, args.seed, tally, metrics, args.trace)


if __name__ == "__main__":
    sys.exit(main())
