"""aym benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload equilibrium --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-test
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json from bench/spec.py

Each run starts fresh worker processes (bench/worker.py) with PYTHONPATH=src,
so aym is built from the checkout's sources.  One worker runs the
workload's fixed pass of ops again and again, one op at a time (closed loop,
no threads); extra workers only set up and exit, so
setup_s is a median of several set-ups.  With --trace 0 the last line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
a separate traced run.  Every metric is printed by name with its unit above
that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

SETUPS = 3            # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 170


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns (process, seconds to READY)."""
    env = dict(os.environ, PYTHONPATH="src")
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
               corrupt: bool = False, setups: int = 1) -> tuple[dict, list[float]]:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    ready_times = []
    for _ in range(setups - 1):
        proc, ready = start_worker(base + ["--setup-only"])
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        ready_times.append(ready)
    proc, ready = start_worker(base + (["--corrupt-reference"] if corrupt else []))
    ready_times.append(ready)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready_times


def environment(seed: int, describe: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    digest = hashlib.sha256(json.dumps(describe, sort_keys=True).encode()).hexdigest()[:16]
    return {"commit": commit, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "instances_sha256": digest}


def end_to_end(result: dict, setups: list[float]) -> dict:
    metrics = dict(result, setup_s=statistics.median(setups))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END if metrics.get(name) is not None}


def per_layer(result: dict) -> dict:
    return {name: {"value": result["layers"][name], "unit": unit}
            for name, unit, _ in spec.PER_LAYER if name in result["layers"]}


def report(workload: str, seed: int, seconds: float, trace: int, result: dict,
           metrics: dict) -> None:
    env = environment(seed, result["describe"])
    print(f"# aym benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# instances: " + json.dumps(result["describe"], sort_keys=True))
    tail_note = (f"  (p{result['tail_percentile']:.2f}: {result['window_size']} samples, "
                 f"10 beyond; median of {result['windows']})")
    for name, entry in metrics.items():
        extra = tail_note if name == "op_tail_cal" else ""
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}{extra}")
    if not trace:
        if "op_tail_cal" not in metrics:
            print(f"{'op_tail_cal':48s} absent ({result['window_size']} samples; "
                  "none has ten beyond it)")
        print(f"# not in the result line: 1 cal = {result['cal_ms']:.6g} ms of CPU here; "
              "the same op metrics in CPU time, and in wall time (steal time included):")
        for name, unit in (("ops_per_cpu_s", "1/s"), ("op_p50_cpu_ms", "ms"),
                           ("op_tail_cpu_ms", "ms"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                           ("op_tail_ms", "ms")):
            if result[name] is not None:
                extra = tail_note if name.startswith("op_tail") else ""
                print(f"{name:48s} {result[name]:.6g} {unit}{extra}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_ratio':48s} {failed / attempted:.6g} ratio  "
          f"({failed} failed / {attempted} ops in the pass, {result['gross']} gross; "
          f"{result['runs']} op runs)")
    for kind, (count, p50, total) in sorted(result["kinds"].items()):
        print(f"#   op {kind:24s} x{count:<6d} CPU p50 {p50:10.3f} ms  total {total:8.3f} s")
    for reason, count in result["reasons"]:
        print(f"#   failed x{count}: {reason}")
    if trace:
        print(f"# spans: {result['spans']}; layer checks [attempted, failed, gross]: "
              f"{result['layer_checks']}")
        for name, ms in result["self_ms"]:
            print(f"#   self time {name:44s} {ms:10.1f} ms")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result, setups = run_worker(workload, seed, seconds, trace, setups=1 if trace else SETUPS)
    metrics = per_layer(result) if trace else end_to_end(result, setups)
    report(workload, seed, seconds, trace, result, metrics)
    attempted = result["attempted"] + (result["layer_checks"][0] if trace else 0)
    failed = result["failed"] + (result["layer_checks"][1] if trace else 0)
    gross = result["gross"] + (result["layer_checks"][2] if trace else 0)
    line = {"correct": gross == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return line


def self_test() -> None:
    """Tiny instances, every workload once per mode; names, units and a failing checker."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        assert handle.read() == spec.benchmark_json(), "BENCHMARK.json differs from bench/spec.py"
    for workload, _ in spec.WORKLOADS:
        seconds = 2.0  # one pass of every tiny workload has the 11 ops op_tail_ms needs
        for trace in (0, 1):
            result, setups = run_worker(workload, 1, seconds, trace, tiny=True, setups=2 - trace)
            metrics = per_layer(result) if trace else end_to_end(result, setups)
            wanted = spec.PER_LAYER if trace else spec.END_TO_END
            for name, unit, *_ in wanted:
                assert metrics.get(name, {}).get("unit") == unit, f"{workload}: {name} missing"
            assert result["gross"] == 0, f"{workload}: gross failures {result['reasons']}"
        result, _ = run_worker(workload, 1, seconds, 0, tiny=True, corrupt=True)
        assert result["failed"] > 0, f"{workload}: a corrupted reference went unnoticed"
        print(f"self-test {workload}: metrics present; corrupted reference fails "
              f"{result['failed']}/{result['attempted']} ops")
    print("self-test: ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "aym", "__init__.py")):
        print("bench/run.py: no src/aym here; run it from the root of an aym checkout",
              file=sys.stderr)
        return 2
    if args.write_spec:
        with open("BENCHMARK.json", "w", encoding="utf-8") as handle:
            handle.write(spec.benchmark_json())
        return 0
    if args.self_test:
        self_test()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
