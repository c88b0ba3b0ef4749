"""Benchmark for the ``overgap`` command line, run in-process.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload (see ``workloads.py``) is a closed loop with one client:
``overgap.cli.main(argv)`` runs one job at a time in this process, with
stdout and stderr captured in memory, and the next job starts when the
previous one returns.  Whole rounds of jobs run until the time spent
inside ``main`` is as near ``--seconds`` as whole rounds allow.  Every
job's output is checked by ``checks.py``, in a child process and outside
the timed region; a wrong exit code or output counts as failed.  Running in-process means
interpreter start and import are paid once; they are measured apart as
``setup_s``, the median over fresh interpreters that import ``overgap``
and ``overgap.cli``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` one round runs, each job first
untraced and then with every layer function wrapped (``spans.py``); the
last line holds the per-layer metrics and the tracing overhead, and the
spans are written under ``bench/out/``.  ``--workload all`` runs each
workload in a fresh process and prints every end-to-end metric, with
``failed_ratio``, by name and unit.  The line before the result holds
the Python version, CPU count, seed, job-list digest, tail percentile,
sample count and whether the distinct jobs ran out before ``--seconds``
(a warning on stderr says so too); ``bench/out/`` keeps a record of
every run.  Metric names and units come from ``BENCHMARK.json``.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

SETUP_STARTS = 9
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_cli():
    """The CLI module from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "overgap" / "__init__.py").is_file():
        raise SystemExit(f"bench: no overgap package under {SRC}")
    sys.path.insert(0, str(SRC))
    import overgap.cli

    if Path(overgap.__file__).resolve().parent != SRC / "overgap":
        raise SystemExit(f"bench: imported overgap from {overgap.__file__}")
    return overgap.cli


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import overgap, overgap.cli"]
    subprocess.run(argv, env=env, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_STARTS):
        began = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def run_job(entry, argv: list[str]) -> tuple[float, int, str]:
    """One closed-loop job: (seconds inside entry, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        began = time.perf_counter()
        code = entry(argv)
        took = time.perf_counter() - began
    return took, code, out.getvalue()


class Checker:
    """``checks.check_job`` in a child process, so that the memory the
    checks take stays out of this process's ``peak_rss_mb``."""

    def __enter__(self) -> "Checker":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "checks.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self, argv: list[str], code: int, out: str) -> str | None:
        self.proc.stdin.write(json.dumps([argv, code, out]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Pass:
    """Timings and failures of one pass over a list of jobs."""

    def __init__(self, check=checks.check_job):
        self.check = check
        self.exhausted = False
        self.jobs: list[list[str]] = []
        self.times: list[float] = []
        self.failures: list[str] = []
        self.bad_exits = 0
        self.bytes_out = 0
        self.digests: list[str] = []

    def run(self, entry, argv: list[str], tracer=None) -> None:
        if tracer is not None:
            tracer.job_id = len(self.jobs)
        took, code, out = run_job(entry, argv)
        self.jobs.append(argv)
        self.times.append(took)
        self.bad_exits += code != 0
        self.bytes_out += len(out.encode())
        self.digests.append(hashlib.sha256(out.encode()).hexdigest())
        reason = self.check(argv, code, out)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")

    @property
    def busy(self) -> float:
        return sum(self.times)


def timed_pass(cli, workload: str, seed: int, seconds: float, check) -> Pass:
    """Whole rounds, as many as bring the time inside ``main`` nearest to
    ``seconds``: stop once another round like the last would overshoot by
    more than half its length.  ``exhausted`` is set when the distinct
    jobs run out first."""
    done = Pass(check)
    for jobs in rounds(workload, seed):
        began = done.busy
        for argv in jobs:
            done.run(cli.main, argv)
        if done.busy + (done.busy - began) / 2 >= seconds:
            break
    else:
        done.exhausted = True
    return done


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 jobs beyond it."""
    ranked = sorted(times)
    if len(ranked) <= 10:
        return 100.0, ranked[-1]
    return 100.0 * (len(ranked) - 10) / len(ranked), ranked[-11]


def job_digest(jobs: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(" ".join(a) for a in jobs).encode()).hexdigest()[:16]


def info(args, jobs: list[list[str]]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(jobs),
        "jobs_sha256": job_digest(jobs),
    }


def pick(values: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def end_to_end(args, cli) -> tuple[dict, dict, list[Pass]]:
    setup = measure_setup()
    with Checker() as check:
        done = timed_pass(cli, args.workload, args.seed, args.seconds, check)
    if done.exhausted:
        print(f"bench: {args.workload} ran out of distinct jobs after "
              f"{done.busy:.1f} of {args.seconds} s", file=sys.stderr)
    pct, slow = tail(done.times)
    values = {
        "jobs_per_s": len(done.times) / done.busy,
        "job_p50_ms": statistics.median(done.times) * 1000,
        "job_tail_ms": slow * 1000,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = info(args, done.jobs)
    extra.update(
        tail_percentile=round(pct, 2),
        samples=len(done.times),
        failed_ratio=len(done.failures) / len(done.times),
        rounds_exhausted=done.exhausted,
    )
    return pick(values, SPEC["end_to_end"]), extra, [done]


def per_layer(args, cli) -> tuple[dict, dict, list[Pass]]:
    """One round, each job untraced and then traced, so drift cancels."""
    jobs = next(rounds(args.workload, args.seed))
    plain, traced, tracer = Pass(), Pass(), spans.Tracer()
    for index, argv in enumerate(jobs):
        plain.run(cli.main, argv)
        with tracer:
            traced.run(cli.main, argv, tracer)
        if plain.digests[index] != traced.digests[index]:
            traced.failures.append(f"{' '.join(argv)}: stdout differs when traced")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", jobs)
    values = spans.layer_metrics(
        tracer, jobs, traced.bad_exits, traced.bytes_out, traced.busy / plain.busy
    )
    return pick(values, SPEC["per_layer"]), info(args, jobs), [plain, traced]


def run_all(args) -> int:
    """Each workload in a fresh process; print every end-to-end metric."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed with status {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        extra, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{workload}  ({extra['samples']} jobs, seed {args.seed})")
        for name, metric in result["metrics"].items():
            label = name
            if name == "job_tail_ms":
                label += f" (p{extra['tail_percentile']})"
            print(f"  {label:<22} {metric['value']:>12.4f} {metric['unit']}")
        print(f"  {'failed_ratio':<22} {extra['failed_ratio']:>12.4f} ratio")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    cli = import_cli()
    measure = per_layer if args.trace else end_to_end
    metrics, extra, passes = measure(args, cli)
    failures = [failure for done in passes for failure in done.failures]
    result = {
        "correct": not failures,
        "attempted": sum(len(done.jobs) for done in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "info": extra,
        **result,
        "failures": failures,
        "passes": [list(zip(map(" ".join, done.jobs), done.times)) for done in passes],
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(extra))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
