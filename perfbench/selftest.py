"""Self-test of the benchmark itself, on short horizons (about ten seconds).

    python3 perfbench/selftest.py

It records fingerprints at a short horizon into a temporary file, then checks
that one command prints every metric of BENCHMARK.json with its unit, that
traced and plain workers produce the same fingerprints, that a tampered
expected fingerprint is reported as failed_frac = 1 with a non-zero exit, and
that the benchmark refuses to run where the stochfg sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_DIR = BENCH / "_work" / "selftest"
HORIZON = 300


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        TMP_DIR.mkdir(parents=True)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.expected = TMP_DIR / "expected.json"
        proc = run_bench("--record", "--horizon", str(HORIZON), "--expected", str(cls.expected))
        if proc.returncode != 0:
            raise RuntimeError(f"recording fingerprints failed:\n{proc.stderr}")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        try:
            TMP_DIR.parent.rmdir()
        except OSError:
            pass

    def bench(self, *args, expected=None):
        proc = run_bench("--horizon", str(HORIZON), "--seconds", "0",
                         "--expected", str(expected or self.expected), *args)
        lines = proc.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 2, proc.stderr)
        return proc, json.loads(lines[-2]), json.loads(lines[-1])

    def test_one_command_prints_every_metric_with_its_unit(self):
        proc, detail, result = self.bench("--workload", "all", "--seed", "3", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        for workload in self.spec["workloads"]:
            for metric in metrics:
                got = result["metrics"][f"{workload['name']}.{metric['name']}"]
                self.assertEqual(got["unit"], metric["unit"])
            self.assertEqual(result["metrics"][f"{workload['name']}.failed_frac"]["value"], 0)
        env = detail["environment"]
        for key in ("nproc", "python", "git_sha", "loadavg_start", "loadavg_end"):
            self.assertIn(key, env)

    def test_traced_and_plain_fingerprints_agree(self):
        _, detail, _ = self.bench("--workload", "all", "--seed", "5", "--trace", "1")
        for run in detail["runs"]:
            plain, traced = run["samples"]["plain"], run["samples"]["traced"]
            self.assertEqual(len(plain["fingerprints"]), 1, run["workload"])
            self.assertEqual(plain["fingerprints"], traced["fingerprints"], run["workload"])

    def test_single_workload_prints_exactly_its_metric_kind(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, _, result = self.bench("--workload", "exp3g_strong", "--seed", "1",
                                         "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[kind]})

    def test_tampered_fingerprint_counts_as_failed(self):
        data = json.loads(self.expected.read_text())
        for fp in data["otcg_faulty"]["fingerprints"].values():
            fp["csv_sha256"] = "0" * 64
        tampered = TMP_DIR / "tampered.json"
        tampered.write_text(json.dumps(data))
        proc, _, result = self.bench("--workload", "otcg_faulty", "--seed", "2", "--trace", "1",
                                     expected=tampered)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["failed_frac"]["value"], 1.0)

    def test_refuses_to_run_without_the_program(self):
        bare = TMP_DIR / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run_bench("--workload", "otcg_faulty", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
