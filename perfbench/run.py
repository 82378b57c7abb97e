"""fell-lab benchmark: one workload through ``fell_lab.cli.main``, in-process.

    python3 perfbench/run.py --workload grid-verify --seed 1 --seconds 34 --trace 0

One client runs ops in a closed loop in this single process, with stdout and
stderr captured.  Inputs come from ``--seed`` (see workloads.py) and are
generated outside the timed interval; outputs are checked against the
generator's expectations after the timed loop.  An op fails if it raises,
prints a traceback, exits with another code than expected or prints output
that disagrees with the expectation; a failing op never stops the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and under ``tracer.Tracer``, and reports per-op layer
figures plus the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and run details.  Exit code 2, with
no result, means the program could not be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 21  # timed ops, so that the tail has ten ops beyond it and sits at or above p50
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s budget of a run
SETUP_SAMPLES = 7  # spread evenly over the timed loop, so drift during a run averages out
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "cpu_p50_ms": "ms",
    "cpu_tail_ms": "ms",
    "ops_per_cpu_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "spaces.resolve_orbit.calls": "calls/op",
    "spaces.resolve_orbit.self_s": "s/op",
    "spaces.sample_base_points.self_s": "s/op",
    "spaces.model_from_dict.self_s": "s/op",
    "conv.evaluate.calls": "calls/op",
    "conv.evaluate.self_s": "s/op",
    "conv.evaluate.calls_per_sample": "ratio",
    "conv.verify_projection.self_s": "s/op",
    "conv.verify_fullness_witness.self_s": "s/op",
    "conv.check_branch_continuity.self_s": "s/op",
    "conv.grid_element.self_s": "s/op",
    "conv.GridRule.lookup.calls": "calls/op",
    "conv.GridRule.lookup.self_s": "s/op",
    "ktheory.smith_normal_form.calls": "calls/op",
    "ktheory.smith_normal_form.self_s": "s/op",
    "ktheory.snf_calls_per_matrix": "ratio",
    "ktheory.solve_six_term.self_s": "s/op",
    "ktheory.ses_from_dict.self_s": "s/op",
    "scenarios.run_scenario.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "trace_overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The checkout does not hold a program this benchmark can run."""


def import_cli():
    """Import ``fell_lab.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fell_lab" / "cli.py").is_file():
        raise SetupError(f"no fell_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fell_lab import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"fell_lab.cli was imported from {cli.__file__}, not {SRC}")
    return cli


def child_cpu_s() -> float:
    """CPU time, user and system, of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_fresh_import() -> tuple[float, float]:
    """Wall and CPU time of a fresh interpreter importing ``fell_lab.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start, cpu_start = time.perf_counter(), child_cpu_s()
    subprocess.run(
        [sys.executable, "-c", "import fell_lab.cli"],
        env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start, child_cpu_s() - cpu_start


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    seconds: float  # wall time
    cpu_seconds: float  # CPU time of this process, all threads, user and system


def run_op(main, argv: list[str]) -> Outcome:
    """One ``cli.main`` call with stdout and stderr captured and timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = main(argv)
        except (Exception, SystemExit):
            # A crashing op is a failed op, not a crashed benchmark.
            rc = None
            traceback.print_exc()
        cpu_seconds = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, cpu_seconds)


def complaint(op: workloads.Op, outcome: Outcome) -> str | None:
    """Why an op failed, or None when its outcome is correct."""
    printed = outcome.out + outcome.err
    if "Traceback (most recent call last)" in printed:
        return "raised or printed a traceback: " + printed.strip().splitlines()[-1]
    if outcome.rc != op.expect_rc:
        return f"exit code {outcome.rc}, expected {op.expect_rc}"
    return op.check(outcome.out)


class Run:
    """The ops of one benchmark run and the failures among them."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.path = workdir / "input.json"
        self.cycle = workloads.CYCLE[workload]
        self.next_index = 0
        self.failures: list[str] = []
        self.attempted = 0

    def next_op(self) -> workloads.Op:
        op = workloads.make_op(self.workload, self.seed, self.next_index, self.path)
        self.next_index += 1
        return op

    def record(self, op: workloads.Op, outcome: Outcome) -> None:
        self.attempted += 1
        why = complaint(op, outcome)
        if why is not None:
            self.failures.append(f"op {' '.join(op.argv)}: {why}")

    def done(self, ops: int, measured_s: float, started: float, min_ops: int = 0) -> bool:
        """Stop after ``--seconds`` of measured time, on a whole size cycle."""
        if time.monotonic() - started > WALL_LIMIT_S:
            return True
        return ops % self.cycle == 0 and ops >= min_ops and measured_s >= self.seconds


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops above it, and its value."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def host_steal() -> tuple[int, int]:
    """Ticks the hypervisor took from this machine's CPUs, and all ticks.

    Read from the ``cpu`` line of /proc/stat; (0, 0) where there is none.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = [int(t) for t in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def end_to_end(run: Run, cli, started: float) -> tuple[dict, dict]:
    time_fresh_import()  # unmeasured: writes the bytecode caches an installed copy has
    run.record(warm := run.next_op(), run_op(cli.main, warm.argv))
    walls, cpus, sizes, checks, imports = [], [], [], [], []
    steal_start = host_steal()
    while not run.done(len(walls), sum(walls), started, MIN_OPS):
        due = len(imports) * run.seconds <= (SETUP_SAMPLES - 1) * sum(walls)
        if due and len(imports) < SETUP_SAMPLES:
            imports.append(time_fresh_import())
        op = run.next_op()
        outcome = run_op(cli.main, op.argv)
        walls.append(outcome.seconds)
        cpus.append(outcome.cpu_seconds)
        sizes.append(op.size)
        checks.append((op, outcome))
    steal = [end - start for end, start in zip(host_steal(), steal_start)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, outcome in checks:
        run.record(op, outcome)
    percentile, cpu_tail_s = tail(cpus)
    metrics = {
        "cpu_p50_ms": 1000.0 * statistics.median(cpus),
        "cpu_tail_ms": 1000.0 * cpu_tail_s,
        "ops_per_cpu_s": len(cpus) / sum(cpus),
        "ok_frac": 1.0 - len(run.failures) / run.attempted,
        "setup_s": statistics.median(cpu for _, cpu in imports),
        "peak_rss_mb": peak_rss_mb,
    }
    by_size = {
        str(size): 1000.0 * statistics.median(t for s, t in zip(sizes, cpus) if s == size)
        for size in sorted(set(sizes))
    }
    details = {
        "timed_ops": len(cpus),
        "setup_samples": len(imports),
        "tail_percentile": percentile,
        "tail_ops_beyond": TAIL_BEYOND,
        "cpu_p50_ms_by_size": by_size,
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "latency_tail_ms": 1000.0 * tail(walls)[1],
        "ops_per_s": len(walls) / sum(walls),
        "setup_wall_s": statistics.median(wall for wall, _ in imports),
        "host_steal_frac": steal[0] / steal[1] if steal[1] else None,
    }
    return metrics, details


def traced(run: Run, cli, started: float) -> tuple[dict, dict]:
    tracer = Tracer()
    run.record(warm := run.next_op(), run_op(cli.main, warm.argv))
    plain_s = traced_s = 0.0
    ops = 0
    while not run.done(ops, plain_s + traced_s, started):
        op = run.next_op()
        # Alternate which side goes first so that drift hits both alike.
        for side in (("plain", "traced") if ops % 2 == 0 else ("traced", "plain")):
            if side == "traced":
                with tracer:
                    outcome = run_op(cli.main, op.argv)
                traced_s += outcome.seconds
            else:
                outcome = run_op(cli.main, op.argv)
                plain_s += outcome.seconds
            run.record(op, outcome)
        ops += 1

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in PER_LAYER_UNITS:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = per_op(tracer.calls[span])
        elif stat == "self_s":
            metrics[name] = per_op(tracer.self_s[span])
    metrics["conv.evaluate.calls_per_sample"] = ratio(
        tracer.calls["conv.evaluate"], tracer.samples_verified
    )
    metrics["ktheory.snf_calls_per_matrix"] = ratio(
        tracer.calls["ktheory.smith_normal_form"], 2 * tracer.calls["ktheory.solve_six_term"]
    )
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    details = {
        "traced_ops": ops,
        "spans_per_op": {
            span: {"calls": per_op(tracer.calls[span]), "self_s": per_op(tracer.self_s[span])}
            for span in tracer.calls
        },
    }
    return metrics, details


def git_commit() -> str | None:
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        cli = import_cli()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        measure = traced if args.trace else end_to_end
        metrics, details = measure(run, cli, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for failure in run.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    details.update(
        workload=args.workload,
        attempted=run.attempted,
        failed=len(run.failures),
        failed_frac=len(run.failures) / run.attempted,
        env=environment(args.seed),
    )
    print(json.dumps(details))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
