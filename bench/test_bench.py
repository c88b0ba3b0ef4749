"""Tests of the benchmark's own checks, job mixes and tracing.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

cli = run.import_cli()
from overgap import qseries  # noqa: E402

SMALL_JOBS = [
    ["table", "--t", "6", "--max-n", "60", "--z", "tracked", "--format", "text"],
    ["table", "--t", "4", "--max-n", "40", "--z", "one", "--format", "csv"],
    ["table", "--t", "9", "--max-n", "50", "--z", "zero", "--format", "json"],
    ["table", "--check", "--t", "3", "--max-n", "12", "--z", "tracked", "--format", "json"],
    ["verify", "--suite", "chain", "--t", "2", "--order", "20"],
    ["verify", "--suite", "transform", "--t", "3", "--order", "20"],
    ["verify", "--suite", "chu", "--t", "4", "--order", "20"],
    ["verify", "--suite", "gf", "--t", "1..3", "--order", "14"],
    ["verify", "--suite", "fibers", "--t", "2", "--max-n", "8"],
    ["preimages", "--check", "--t", "3", "--map", "fold", "--format", "text", "3,3,2~,1"],
    ["preimages", "--check", "--t", "3", "--map", "merge", "--format", "json", "3,3,1"],
    ["fold", "--t", "3", "--format", "text", "4000,3998~,3997"],
    ["merge", "--t", "4", "--format", "json", "[4^50 | 4~,3,1]"],
]


def corrupting(mutate):
    """A CLI entry point whose stdout passes through ``mutate``."""

    def entry(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        sys.stdout.write(mutate(argv, buffer.getvalue()))
        return code

    return entry


def bump_one_count(argv, out):
    """Add one to a single table coefficient."""
    if "json" in argv:
        data = json.loads(out)
        row = data["rows"][5]
        if "counts" in row:
            row["counts"][1] = str(int(row["counts"][1]) + 1)
        else:
            row["count"] = str(int(row["count"]) + 1)
        return json.dumps(data, indent=2) + "\n"
    sep = "," if "csv" in argv else "  "
    lines = out.splitlines()
    cells = lines[6].split(sep)
    cells[-1] = str(int(cells[-1]) + 1)
    lines[6] = sep.join(cells)
    return "\n".join(lines) + "\n"


def drop_fiber_member(argv, out):
    if "json" in argv:
        data = json.loads(out)
        data["fiber"].pop()
        return json.dumps(data, indent=2) + "\n"
    lines = out.splitlines()
    del lines[0]
    return "\n".join(lines) + "\n"


def traced_pass(jobs):
    done = run.Pass()
    with spans.Tracer() as tracer:
        for argv in jobs:
            done.run(cli.main, argv, tracer)
    return done, tracer


class ChecksTest(unittest.TestCase):
    def test_closed_form_matches_the_package(self):
        for t in (1, 4, 9):
            tracked = qseries.bounded_gap_overpartition_gf(t, 51)
            one = qseries.bounded_gap_overpartition_gf(t, 51, z_tracked=False)
            zero = qseries.bounded_gap_partition_gf(t, 51)
            rows = checks.closed_form_rows(t, 50, "tracked")
            for n in range(51):
                self.assertEqual(
                    [tracked.zq_coeff(n, m) for m in range(t + 1)],
                    [rows[m][n] for m in range(t + 1)],
                )
            self.assertEqual(checks.closed_form_rows(t, 50, "one")[0],
                             [one.zq_coeff(n, 0) for n in range(51)])
            self.assertEqual(checks.closed_form_rows(t, 50, "zero")[0],
                             [zero.zq_coeff(n, 0) for n in range(51)])

    def test_every_small_job_passes(self):
        done = run.Pass()
        for argv in SMALL_JOBS:
            done.run(cli.main, argv)
        self.assertEqual(done.failures, [])

    def test_one_corrupted_coefficient_fails_the_job(self):
        tables = [
            ["table", "--t", "5", "--max-n", "30", "--z", z, "--format", fmt]
            for z in ("tracked", "one", "zero") for fmt in ("text", "csv", "json")
        ]
        done = run.Pass()
        for argv in tables:
            done.run(corrupting(bump_one_count), argv)
        self.assertEqual(len(done.failures), len(tables), done.failures)

    def test_dropped_fiber_member_fails_the_job(self):
        jobs = [
            ["preimages", "--check", "--t", "3", "--map", which, "--format", fmt, "3,3,2~,1"]
            for which in ("fold", "merge") for fmt in ("text", "json")
        ]
        done = run.Pass()
        for argv in jobs:
            done.run(corrupting(drop_fiber_member), argv)
        self.assertEqual(len(done.failures), len(jobs), done.failures)

    def test_checks_in_a_child_process_agree(self):
        jobs = [
            ["table", "--t", "5", "--max-n", "30", "--z", "tracked", "--format", "csv"],
            ["preimages", "--check", "--t", "3", "--map", "fold", "--format", "json", "3,3,2~,1"],
        ]
        with run.Checker() as check:
            done = run.Pass(check)
            for argv in jobs:
                done.run(cli.main, argv)
            self.assertEqual(done.failures, [])
            done.run(corrupting(bump_one_count), jobs[0])
            done.run(corrupting(drop_fiber_member), jobs[1])
        self.assertEqual(len(done.failures), 2, done.failures)
        self.assertIsNotNone(check.proc.returncode)

    def test_wrong_exit_code_fails_the_job(self):
        done = run.Pass()
        done.run(cli.main, ["fold", "--t", "3", "9,1"])  # gap 8 > 3: exit 1
        self.assertEqual(done.bad_exits, 1)
        self.assertEqual(len(done.failures), 1)


class TracingTest(unittest.TestCase):
    def test_stdout_is_byte_identical_with_wrappers(self):
        plain = run.Pass()
        for argv in SMALL_JOBS:
            plain.run(cli.main, argv)
        traced, _ = traced_pass(SMALL_JOBS)
        self.assertEqual(plain.digests, traced.digests)
        self.assertEqual(traced.failures, [])

    def test_wrappers_are_removed_afterwards(self):
        import overgap
        from overgap import hyper

        originals = (overgap.qs_mul, qseries.qs_mul, hyper.qs_mul, cli.main)
        with spans.Tracer():
            self.assertIsNot(hyper.qs_mul, originals[2])
            self.assertIs(hyper.qs_mul, qseries.qs_mul)
        self.assertEqual((overgap.qs_mul, qseries.qs_mul, hyper.qs_mul, cli.main), originals)

    def test_counts_repeat_exactly(self):
        results = []
        for _ in range(2):
            done, tracer = traced_pass(SMALL_JOBS)
            values = spans.layer_metrics(tracer, SMALL_JOBS, done.bad_exits, done.bytes_out, 1.0)
            metrics = run.pick(values, run.SPEC["per_layer"])
            results.append({
                name: metric["value"] for name, metric in metrics.items()
                if metric["unit"] not in ("s", "1/s") and name != "trace.overhead"
            })
        self.assertEqual(results[0], results[1])
        for name in ("qseries.qs_mul.term_pairs", "qseries.qs_mul_finite.term_pairs",
                     "partitions.members_visited", "maps.fiber_members", "maps.fold.calls"):
            self.assertGreater(results[0][name], 0, name)
        self.assertTrue(0 < results[0]["partitions.census_yield"])
        self.assertTrue(0 < results[0]["maps.brute_fiber_yield"] < 1)

    def test_term_pairs_match_a_direct_count(self):
        rng = random.Random(7)

        def poly():
            return qseries.ZLaurentPoly({z: rng.randint(-3, 3) for z in range(rng.randint(0, 3))})

        def series(lo, width, order):
            terms = {lo + i: poly() for i in range(min(width, order - lo))}
            return qseries.QSeries.from_terms(terms, order)

        for _ in range(30):
            a = series(rng.randint(-2, 3), rng.randint(1, 8), 12)
            b = series(rng.randint(0, 3), rng.randint(1, 8), rng.randint(8, 14))
            product = qseries.qs_mul(a, b)
            width = product.order - (a.min_exp + b.min_exp)
            direct = sum(
                len(ca.items()) * len(cb.items())
                for i, ca in enumerate(a.coeffs) for j, cb in enumerate(b.coeffs)
                if i + j < width
            )
            counted = spans._qs_mul((a, b), product).get("qseries.qs_mul.term_pairs", 0)
            self.assertEqual(counted, direct)

    def test_overpartition_totals(self):
        # 2, 4, 8, 14, 24, 40 overpartitions of weights 1..6
        self.assertEqual(spans.overpartitions_up_to(6), 92)


class JobMixTest(unittest.TestCase):
    def take(self, workload, seed, count):
        return [job for _, jobs in zip(range(count), rounds(workload, seed)) for job in jobs]

    def test_jobs_are_seeded_and_distinct(self):
        for workload, cells in WORKLOADS.items():
            jobs = self.take(workload, 5, 6)
            self.assertEqual(len(jobs), 6 * len(cells()))
            self.assertEqual(len({tuple(job) for job in jobs}), len(jobs), workload)
            self.assertEqual(jobs, self.take(workload, 5, 6))
            self.assertNotEqual(jobs, self.take(workload, 6, 6))

    def test_distinct_jobs_outlast_a_run(self):
        # A 30 s run takes 5 to 9 rounds on a 2-vCPU x86 host; leave room
        # for a faster program before the distinct jobs run out.
        for workload in WORKLOADS:
            for seed in range(1, 6):
                count = sum(1 for _ in zip(range(20), rounds(workload, seed)))
                self.assertGreaterEqual(count, 15, (workload, seed))


class ContractTest(unittest.TestCase):
    def test_every_layer_metric_has_a_prediction(self):
        predictions = json.loads((run.BENCH / "predictions.json").read_text())["predictions"]
        self.assertEqual(set(predictions), {m["name"] for m in run.SPEC["per_layer"]})
        targets = {m["name"] for m in run.SPEC["end_to_end"]} | {"failed_ratio"}
        for pairs in predictions.values():
            for metric, workload in pairs:
                self.assertIn(metric, targets)
                self.assertIn(workload, WORKLOADS)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
