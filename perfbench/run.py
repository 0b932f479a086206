#!/usr/bin/env python3
"""Provider-latency benchmark for dualtrack.

    python3 perfbench/run.py --workload chain_hub --seed 1 --seconds 35 --trace 0

Generates the workload from the seed, runs it in a fresh interpreter
between timed fresh-interpreter set-ups, and prints one JSON object on its
last line of output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced pass over the counted questions (spans are written to
``perfbench/.out/``). See README.md for the workloads and metrics.

Exits with status 2 and prints no result when the package sources or the
bundled fixture files are missing, or when any step fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REQUIRED = ["src/dualtrack/__init__.py", "data/movies.triples", "data/questions.jsonl"]

# fresh-interpreter set-ups before and after the workload run; setup_s is
# their median (splitting them keeps one burst of machine load from
# moving all of them)
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "llm_calls_per_q": "count",
    "llm_prompt_kchars_per_q": "kchar",
    "kg_queries_per_q": "count",
    "peak_rss_mb": "MB",
    "answer_em": "ratio",
    "answered_ratio": "ratio",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("ms") or name.endswith("_ms_sum"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _python() -> str:
    return sys.executable or "python3"


def probe_setup(work: Path) -> float:
    """Seconds from launching a fresh interpreter until its Engine is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [_python(), str(WORKER), "setup", str(work)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("set-up probe timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}):\n{err}")
    return elapsed


def run_worker(work: Path, seconds: int, trace: int, spans: Path) -> dict:
    cmd = [_python(), str(WORKER), "run", str(work), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload run timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def end_to_end(raw: dict, setups: list[float]) -> dict:
    counted = raw["counted"]
    latencies = raw["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "throughput_qps": raw["attempted"] / (raw["wall_ms"] / 1000.0),
        "llm_calls_per_q": raw["llm_calls"] / counted,
        "llm_prompt_kchars_per_q": raw["prompt_chars"] / 1000.0 / counted,
        "kg_queries_per_q": raw["kg_queries"] / counted,
        "peak_rss_mb": raw["peak_rss_mb"],
        "answer_em": raw["em"],
        "answered_ratio": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    (HERE / ".out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / ".work"))
    try:
        workloads.generate(args.workload, args.seed, work, ROOT)
        probes = 0 if args.trace else SETUP_PROBES
        setups = [probe_setup(work) for _ in range(probes)]
        raw = run_worker(work, args.seconds, args.trace, HERE / ".out" / f"spans_{args.workload}.jsonl")
        setups += [probe_setup(work) for _ in range(probes)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in raw["problems"]:
        print(f"output check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in raw["layers"].items()}
    else:
        metrics = end_to_end(raw, setups)
    print(
        f"{args.workload} seed={args.seed}: n={raw['attempted']} questions "
        f"({raw['counted']} counted), {raw['workers']} worker(s)"
    )
    result = {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
