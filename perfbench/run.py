"""Benchmark of the flipswitch command line, one workload per process.

    python3 perfbench/run.py --workload figures|search|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The process imports ``flipswitch`` from
the checkout's ``src/`` and calls ``flipswitch.cli.main(argv)`` in-process
for each job of the workload, one after another (a closed loop with one
client).  After an untimed warm-up job it times whole passes over the job
list, at least one, until another pass as long as the longest so far would
end after ``--seconds``.  Every job's outputs are verified after its
pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes (see spans.py) together with their overhead ratio.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
import time
from dataclasses import dataclass
from pathlib import Path

import setup_probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up probes run before every timed pass, so that they sample the
# machine over the whole run rather than over its first seconds.  setup_s
# is their minimum: on a machine whose speed drifts with its neighbours'
# load, the minimum of 12-21 probes varied half as much from run to run as
# their median, and work added to set-up still raises it in full.
SETUP_PROBES_PER_PASS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Per-layer metric -> (span field, scale, unit).  The span is the metric
# name without its last component.
_LAYER_FIELDS = {
    "self_ms": ("self_s", 1e3, "ms"),
    "ms": ("seconds", 1e3, "ms"),
    "calls": ("calls", 1, "count"),
    "points": ("points", 1, "count"),
    "out_bytes": ("out_bytes", 1, "bytes"),
    "samples": ("samples", 1, "count"),
}
LAYER_METRICS = (
    "measures.entanglement_signals.self_ms",
    "measures.conditional_kraus.self_ms",
    "measures.conditional_kraus.points",
    "measures.conditional_kraus.out_bytes",
    "measures.pair_search.self_ms",
    "measures.pair_search.samples",
    "measures.backflow_accumulate.calls",
    "measures.backflow_accumulate.ms",
    "measures.pair_evolution.self_ms",
    "measures.distance_trajectory.self_ms",
    "measures.bell_evolution.self_ms",
    "channels.lindblad_rates.calls",
    "channels.lindblad_rates.ms",
    "channels.cptp_check.calls",
    "channels.params_at.calls",
    "channels.family_triples.ms",
    "channels.kraus_stack.ms",
    "matcore.check_density_matrix.calls",
)


@dataclass
class JobRun:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None  # the exception a job raised instead of returning


def run_job(cli, argv: list[str]) -> JobRun:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return JobRun(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start, error)


def run_pass(cli, jobs, workdir: str, tracer=None) -> tuple[float, list[JobRun]]:
    out_dir = Path(workdir) / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argvs = [job.materialize(workdir) for job in jobs]
    runs = []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for argv in argvs:
            runs.append(run_job(cli, argv))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return wall, runs


def output_bytes(runs: list[JobRun], workdir: str) -> int:
    files = sum(p.stat().st_size for p in (Path(workdir) / "out").rglob("*") if p.is_file())
    return files + sum(len(r.stdout.encode()) + len(r.stderr.encode()) for r in runs)


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def layer_metrics(summary: dict, cli_out_bytes: int) -> dict[str, tuple]:
    """(value, unit) of every per-layer metric for one traced pass."""
    metrics = {}
    for name in LAYER_METRICS:
        span, suffix = name.rsplit(".", 1)
        field, scale, unit = _LAYER_FIELDS[suffix]
        metrics[name] = (summary.get(span, {}).get(field, 0) * scale, unit)
    cli_self = sum(v["self_s"] for k, v in summary.items() if k.startswith("cli."))
    metrics["cli.main.self_ms"] = (1e3 * cli_self, "ms")
    metrics["cli.out_bytes"] = (cli_out_bytes, "bytes")
    return metrics


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, one after another."""
    times = []
    for i in range(count):
        workdir = WORK_ROOT / f"probe-{workload}-{os.getpid()}-{i}"
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
                capture_output=True, text=True, timeout=120, check=False,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(jobs) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "grid_points": workloads.grid_points(jobs),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def blas_oversubscribed() -> str | None:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value and value.isdigit() and int(value) > nproc:
            return f"{var}={value} exceeds the {nproc} available cores"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "search", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One BLAS thread unless the caller chose otherwise: the program is
    # single-threaded by design, and a second spinning BLAS thread bought 2%
    # of sweep wall time for 55% more CPU on the reference machine, which
    # makes timings depend on the load of neighbouring processes.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    cli = setup_probe.load_cli()
    if cli is None:
        print(f"error: flipswitch is not importable from {setup_probe.SRC}", file=sys.stderr)
        return 2
    problem = blas_oversubscribed()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    jobs = workloads.generate(args.workload, args.seed)
    # Jobs run inside a private work directory with relative paths, so that
    # their outputs do not depend on where the checkout is.
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        workloads.write_inputs(jobs, ".")
        return run_benchmark(cli, jobs, ".", args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def run_benchmark(cli, jobs, workdir, args) -> int:
    import verify  # imports flipswitch, so only after load_cli

    print("env: " + json.dumps(environment(jobs), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} jobs={len(jobs)} job_list_sha256={workloads.job_list_hash(jobs)}")

    warmup = run_job(cli, workloads.warmup_job(jobs).materialize(workdir))
    correct = warmup.rc == 0 and warmup.error is None
    if not correct:
        print(f"FAILED warm-up job: rc={warmup.rc} {warmup.error or warmup.stderr.strip()}", file=sys.stderr)

    tracer = spans.Tracer() if args.trace else None
    modes = (None, tracer) if tracer else (None,)
    walls = {False: [], True: []}
    latencies: list[float] = []
    setup_times: list[float] = []
    layer_passes: list[dict] = []
    attempted = failed = 0
    measured = 0.0
    round_walls: list[float] = []
    while True:
        for mode in modes:
            traced = mode is not None
            if not args.trace:
                setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES_PER_PASS)
            wall, runs = run_pass(cli, jobs, workdir, mode)
            measured += wall
            walls[traced].append(wall)
            if traced:
                layer_passes.append(layer_metrics(spans.summarize(tracer.take()), output_bytes(runs, workdir)))
            else:
                latencies += [r.seconds for r in runs]
            pass_index = len(walls[False]) + len(walls[True])
            for i, (job, r) in enumerate(zip(jobs, runs)):
                attempted += 1
                problems = [r.error] if r.error else verify.verify_job(
                    job.expect, r.rc, r.stdout, r.stderr, workdir,
                    (args.seed, pass_index, i),
                )
                if problems:
                    failed += 1
                    print(f"FAILED pass {pass_index} job {i} {' '.join(job.argv)}: {problems[0]}", file=sys.stderr)
        round_walls.append(measured - sum(round_walls))
        if measured + max(round_walls) > args.seconds:
            break
    # ru_maxrss covers the jobs and the verification between passes; the
    # verification works on grids no larger than the jobs' own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6g}")
    print("pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + ("; traced " + " ".join(f"{w:.3f}" for w in walls[True]) if tracer else ""))
    if tracer is None:
        metrics = {
            "setup_s": (min(setup_times), "s", len(setup_times)),
            "wall_s": (statistics.median(walls[False]), "s", len(walls[False])),
            "job_p50_ms": (1e3 * statistics.median(latencies), "ms", len(latencies)),
            "job_p90_ms": (1e3 * percentile(latencies, 90), "ms", len(latencies)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
    else:
        metrics = {
            name: (statistics.median(p[name][0] for p in layer_passes), unit, len(layer_passes))
            for name, (_, unit) in layer_passes[0].items()
        }
        ratio = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics["trace_overhead_ratio"] = (ratio, "ratio", len(walls[True]))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit:<6} n={count}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
