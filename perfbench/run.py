"""stochfg benchmark: simulated rounds per second of the learners, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload in one result
    python3 perfbench/run.py --record [--workload NAME]

Each workload is an experiment config in ``perfbench/configs/`` that is run
the way ``stochfg simulate --config`` runs it.  ``--seed`` picks which seeds of
a fixed pool the config runs; their expected fingerprints (final regret and
sha256 of the actions and of the CSV bytes) are stored in
``perfbench/expected.json`` and every run is checked against them.

A run starts fresh interpreters (``perfbench/worker.py``, PYTHONPATH=src, one
BLAS thread, ``threads=1``) one after another until ``--seconds`` have passed
and at least three of each kind have finished, and reports medians over them.
``--trace 0`` starts plain workers and prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates plain and traced workers and prints
the per-layer metrics.  ``--workload all`` prints every workload's metrics
as ``<workload>.<metric>``, both kinds when traced.
The last stdout line is the result; the line before it records the machine.
The command exits 1 when an output is wrong and 2 when it cannot run at all.

``--record`` runs every pool seed once and rewrites the expected fingerprints;
use it only when a change is meant to alter the traces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

POOL_SIZE = 32
#: seeds per worker; chosen so one worker runs for 2 to 4 s on a 2-CPU machine
SEEDS_PER_RUN = {"otcg_faulty": 2, "otcg_revealing": 1, "edge_catcher_sweep": 2, "exp3g_strong": 4}
MIN_SAMPLES = 3
WORKER_TIMEOUT_S = 120
RECORD_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchError(f"missing {path.relative_to(ROOT)}") from None


def load_config(workload: str, horizon: int | None) -> dict:
    config = load_json(BENCH / "configs" / f"{workload}.json")
    if horizon:
        config["T"] = horizon
    return config


def pool_seeds(workload: str, seed: int) -> list[int]:
    # a string seed hashes with sha512, so the draw is the same in every process
    rng = random.Random(f"{workload}:{seed}")
    return sorted(rng.sample(range(POOL_SIZE), SEEDS_PER_RUN[workload]))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # bytecode caches fill on the first worker, as they do for a CLI user
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(config: dict, tag: str, traced: bool, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """One fresh interpreter on `config`; its report, or {"error": ...}."""
    work = WORK / f"{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        cmd = [sys.executable, str(BENCH / "worker.py"), str(config_path), str(work / "out"),
               repr(time.monotonic())] + (["--trace"] if traced else [])
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker exceeded {timeout} s"}
        if proc.returncode != 0:
            return {"error": proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"}
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def expected_for(expected: dict, workload: str, T: int) -> dict:
    entry = expected.get(workload)
    if entry is None or entry["T"] != T:
        raise BenchError(f"no expected fingerprints for {workload} at T={T}; run with --record")
    return entry["fingerprints"]


def failed_seeds(report: dict, seeds: list[int], expected: dict) -> int:
    if "error" in report:
        return len(seeds)
    got = report["fingerprints"]
    return sum(got.get(str(s)) != expected[str(s)] for s in seeds)


def fingerprint_digest(report: dict) -> str | None:
    if "error" in report:
        return None
    blob = json.dumps(report["fingerprints"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def rounds_per_s(report: dict) -> float:
    return report["rounds"] / report["wall_s"]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metric(name: str, traced: list[dict], plain_rps: float, failed_frac: float) -> float:
    if name == "failed_frac":
        return failed_frac
    if name == "tracing_overhead_frac":
        return 1.0 - median(map(rounds_per_s, traced)) / plain_rps if plain_rps else 0.0
    if name == "traces.csv_bytes":
        return median(r["csv_bytes"] for r in traced)
    span, stat = name.rsplit(".", 1)
    if stat == "distinct_ratio":
        return median(
            r["spans"][span]["distinct"] / r["spans"][span]["calls"] if r["spans"][span]["calls"] else 0.0
            for r in traced
        )
    return median(r["spans"][span][stat] for r in traced)


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, horizon: int | None) -> tuple[dict, dict]:
    """(result with both metric kinds, detail record) for one workload."""
    config = load_config(workload, horizon)
    seeds = pool_seeds(workload, seed)
    config["seeds"] = seeds
    want = expected_for(expected, workload, config["T"])
    modes = ("plain", "traced") if trace else ("plain",)
    samples: dict[str, list[dict]] = {m: [] for m in modes}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    rounds = 0
    while rounds < MIN_SAMPLES or time.monotonic() < deadline:
        for mode in modes:
            report = run_worker(config, f"{workload}-{mode}", mode == "traced")
            samples[mode].append(report)
            attempted += len(seeds)
            failed += failed_seeds(report, seeds, want)
        rounds += 1
        if failed:
            break  # a wrong or failing run: report it now rather than repeat it

    ok = {m: [r for r in samples[m] if "error" not in r] for m in modes}
    plain_rps = median(map(rounds_per_s, ok["plain"]))
    end_to_end = {
        "rounds_per_s": plain_rps,
        "setup_s": median(r["setup_s"] for r in ok["plain"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok["plain"]),
    }
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"value": end_to_end[m["name"]], "unit": m["unit"]}
    if trace:
        for m in spec["per_layer"]:
            value = layer_metric(m["name"], ok["traced"], plain_rps, failed / attempted)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload,
        "seed": seed,
        "T": config["T"],
        "pool_seeds": seeds,
        "numpy": next((r["numpy"] for r in ok["plain"]), None),
        "samples": {
            m: {
                "rounds_per_s": [rounds_per_s(r) for r in ok[m]],
                "setup_s": [r["setup_s"] for r in ok[m]],
                "fingerprints": sorted({str(fingerprint_digest(r)) for r in samples[m]}),
                "errors": [r["error"] for r in samples[m] if "error" in r],
            }
            for m in modes
        },
    }
    return result, detail


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def select_metrics(result: dict, spec: dict, trace: bool) -> dict:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {**result, "metrics": {n: result["metrics"][n] for n in names}}


def record(workloads: list[str], horizon: int | None, path: Path) -> None:
    expected = load_json(path) if path.exists() else {}
    for workload in workloads:
        config = load_config(workload, horizon)
        config["seeds"] = list(range(POOL_SIZE))
        report = run_worker(config, f"{workload}-record", False, timeout=RECORD_TIMEOUT_S)
        if "error" in report:
            raise BenchError(f"{workload}: {report['error']}")
        expected[workload] = {"T": config["T"], "fingerprints": report["fingerprints"]}
        print(f"recorded {workload} at T={config['T']}", file=sys.stderr)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="expected fingerprints file (default perfbench/expected.json)")
    parser.add_argument("--horizon", type=int, help="override every config's T (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expected fingerprints instead of measuring")
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (ROOT / "src" / "stochfg" / "__init__.py").is_file():
            raise BenchError("no stochfg sources under src/stochfg")
        spec = load_json(spec_path)
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        unknown = [w for w in workloads if w not in names]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; known: {', '.join(names)}")
        if args.record:
            record(workloads, args.horizon, args.expected)
            return 0
        expected = load_json(args.expected)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        env = {**environment(), "loadavg_start": loadavg()}
        results, details = [], []
        for workload in workloads:
            result, detail = measure(spec, workload, args.seed, seconds, bool(args.trace),
                                     expected, args.horizon)
            results.append(result)
            details.append(detail)
        env["loadavg_end"] = loadavg()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results) for k, v in r["metrics"].items()},
        }
    else:
        final = select_metrics(results[0], spec, bool(args.trace))
    print(json.dumps({"environment": env, "runs": details}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
