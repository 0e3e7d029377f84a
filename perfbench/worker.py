"""One measured run in a fresh interpreter, the way `stochfg simulate --config` runs.

    python3 perfbench/worker.py CONFIG OUT_DIR SPAWN_TIME [--trace]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, the numpy and stochfg
imports and config validation.  The timed part runs from the first
``harness.run`` call to the last output file written: one CSV and sidecar
JSON per seed, then the summary.  The report (timings, peak RSS, per-seed
fingerprints and, with --trace, the span summary) is printed as one JSON line.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    config_path, out_arg, spawn_time = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv[3:]

    import numpy
    import stochfg.cli  # noqa: F401  (what a CLI user imports)
    from stochfg.harness import config_from_dict, run, save_summary

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    config = config_from_dict(json.loads(Path(config_path).read_text()))
    out = Path(out_arg)
    out.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - spawn_time

    start = time.perf_counter()
    traces = run(config)
    csv_paths = []
    for tr in traces:
        stem = f"{config.algorithm}_T{config.T}_seed{tr.metadata.get('seed')}"
        tr.to_csv(out / f"{stem}.csv")
        tr.to_sidecar_json(out / f"{stem}.json")
        csv_paths.append(out / f"{stem}.csv")
    save_summary(traces, out / f"{config.algorithm}_T{config.T}_summary.json")
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fingerprints = {}
    csv_bytes = 0
    for tr, path in zip(traces, csv_paths):
        data = path.read_bytes()
        csv_bytes += len(data)
        fingerprints[str(tr.metadata["seed"])] = {
            "final_regret": tr.final_regret(),
            "actions_sha256": hashlib.sha256(tr.actions.astype("<i8").tobytes()).hexdigest(),
            "csv_sha256": hashlib.sha256(data).hexdigest(),
        }
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rounds": config.T * len(traces),
        "peak_rss_mb": peak_rss_mb,
        "csv_bytes": csv_bytes,
        "numpy": numpy.__version__,
        "fingerprints": fingerprints,
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
