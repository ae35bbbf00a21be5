"""One benchmark worker: set up a workload, run it closed-loop, check every op.

run.py starts each worker as a fresh process, so import cost and peak memory
are the worker's own.  The worker prints ``READY`` once set up (import aym,
input generation, warm-up), then runs the workload's pass of ops, one op at
a time, again and again for the given seconds, checks every result against
its reference once the clock has stopped, and prints one JSON line with what
it saw.

    PYTHONPATH=src python3 bench/worker.py --workload sampler --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

from reference import Check
from tracing import Recorder, cpu_seconds, self_times

OUT_DIR = ".bench_out"
CAL_EVERY_S = 0.5   # wall seconds between runs of calibration.reference_work


@dataclass
class Record:
    op: Any
    slot: int          # index of the op in the pass
    pass_no: int
    result: Any
    seconds: float     # wall clock
    cpu: float         # CPU seconds (tracing.cpu_seconds)
    traced: bool


def warm_up(name: str) -> None:
    """One small call per layer the workload uses, so lazy set-up is not timed."""
    if name == "cli_cold":
        from workloads import run_cli
        run_cli(["--version"])
        return
    import aym
    if name == "equilibrium":
        params = aym.EconomyParams((1.0, 2.0, 3.0), 10.0, 20.0)
        aym.solve_boltzmann(params)
        aym.solve_generalized(params, c=0.5)
    elif name == "sampler":
        params = aym.EconomyParams((1, 2, 3), 4, 8)
        aym.enumerate_feasible(params)
        aym.run_chain(params, aym.ChainConfig(steps=10))
    elif name == "continuum":
        aym.verify_all(aym.make(135.0, 0.0))
        aym.fit_tail(aym.load_csv(os.path.join("data", "synthetic_worker_tails.csv")))
        aym.compare(10.0)


def peak_rss_mb(children: bool) -> float:
    usage = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024.0


def run_loop(workload, seconds: float, rec: Recorder, children: bool
             ) -> tuple[list[Record], float, dict[int, list[float]]]:
    """Whole passes until ``seconds`` have passed, and one more than the warm-up ones.

    A workload without ``whole_passes`` stops after the op in progress once
    its first pass is done.  In a traced run every other op is traced, and
    the next pass traces the ops the last one did not, so traced and
    untraced throughput come from the same ops of the same run.  Returns the
    records and the peak RSS (MB) when the first measured pass ended: the
    process's own, or its largest child's.  Passes rerun the same ops, yet
    can raise the process's peak (each of the first 16 ladder chains adds
    about 26 MB), so the peak of a whole run would depend on how many passes
    fit in it.  Also returns the CPU seconds of each run of the reference
    work, by pass; it runs at the start of each pass and then after the op
    in progress once CAL_EVERY_S have passed.
    """
    from calibration import reference_work  # imported after READY, not in set-up
    records: list[Record] = []
    cal: dict[int, list[float]] = {}
    start = time.perf_counter()
    warm = workload.warm_passes if workload.whole_passes else 0
    passes = 0
    peak = 0.0
    last_cal = -math.inf
    while True:
        for slot, op in enumerate(workload.ops):
            if slot == 0 or time.perf_counter() - last_cal >= CAL_EVERY_S:
                c = cpu_seconds()
                reference_work()
                cal.setdefault(passes, []).append(cpu_seconds() - c)
                last_cal = time.perf_counter()
            traced = rec.enabled and (slot + passes) % 2 == 0
            op_id = len(records)
            t, c = time.perf_counter(), cpu_seconds()
            if traced:
                with rec.span("op." + op.kind, op_id), rec.span(op.layer, op_id):
                    result = _call(op)
            else:
                result = _call(op)
            records.append(Record(op, slot, passes, result, time.perf_counter() - t,
                                  cpu_seconds() - c, traced))
            if (not workload.whole_passes and passes
                    and time.perf_counter() - start >= seconds):
                return records, peak, cal
        passes += 1
        if passes == warm + 1:
            peak = peak_rss_mb(children)
        if passes > warm and time.perf_counter() - start >= seconds:
            return records, peak, cal


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # the op's check judges the exception
        return exc


def judge(workload, records: list[Record]) -> tuple[int, int, Counter]:
    """Check every record; returns (failed, gross, reasons by op kind), counted per op.

    An op of the pass fails when any of its runs fails; runs of one op that
    disagree on failing are a gross failure, since aym is deterministic.
    """
    extra = workload.finish(records) if workload.finish else {}
    checks: dict[int, list[Check]] = {}
    for record in records:
        chk = Check()
        try:
            record.op.check(record.result, chk)
        except Exception as exc:  # a check that cannot read the result: broken output
            chk.fail(f"check raised {type(exc).__name__}: {exc}", gross=True)
        if record.slot in extra:
            chk.fail(*extra[record.slot])
        checks.setdefault(record.slot, []).append(chk)
    failed = gross = 0
    reasons: Counter = Counter()
    for slot, chks in checks.items():
        bad = [c for c in chks if not c.ok]
        if not bad:
            continue
        failed += 1
        reason = bad[0].failures[0][0]
        if len(bad) < len(chks):
            reason = f"outcome differs between passes: {reason}"
        gross += len(bad) < len(chks) or any(c.gross for c in bad)
        reasons[f"{workload.ops[slot].kind}: {reason.split(':')[0][:60]}"] += 1
    return failed, gross, reasons


def trace_overhead(records: list[Record]) -> float:
    """Traced over untraced throughput, on the ops that ran both ways.

    The mean time of each such op, traced and untraced, summed over the
    ops; when no op ran both ways (a single pass), all traced runs against
    all untraced ones.
    """
    runs: dict[int, dict[bool, list[float]]] = {}
    for r in records:
        runs.setdefault(r.slot, {True: [], False: []})[r.traced].append(r.cpu)
    both = [v for v in runs.values() if v[True] and v[False]] or [
        {t: [r.cpu for r in records if r.traced == t] for t in (True, False)}]
    untraced = sum(statistics.fmean(v[False]) for v in both)
    traced = sum(statistics.fmean(v[True]) for v in both)
    return untraced / traced


def window_stats(windows: list[list[float]]) -> tuple[float, float, float | None]:
    """Ops per second, median and tail of op latency (ms), each a median over windows.

    The tail is the highest percentile with ten samples beyond it in a window.
    """
    rates, p50s, tails = [], [], []
    for window in windows:
        ordered = sorted(window)
        n = len(ordered)
        rates.append(n / math.fsum(ordered) * 1e3)
        p50s.append(statistics.median(ordered))
        if n >= 11:
            tails.append(ordered[n - 11])
    return (statistics.median(rates), statistics.median(p50s),
            statistics.median(tails) if tails else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest instances (self-test)")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="scale every reference value by 1 + 1e-3 (self-test)")
    args = parser.parse_args()

    import workloads
    workload = workloads.BUILDERS[args.workload](args.seed, args.tiny)
    warm_up(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.corrupt_reference:
        Check.scale = 1.0 + 1e-3
    rec = Recorder(bool(args.trace))
    from calibration import reference_work
    reference_work()  # its first run imports and warms what it uses
    loop_start = time.perf_counter()
    records, peak, cal = run_loop(workload, args.seconds, rec, args.workload == "cli_cold")
    elapsed = time.perf_counter() - loop_start

    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.cpu * 1e3)
    # Statistics are medians over the measured passes, every pass being the
    # same ops; a workload that may stop inside a pass is one window of all
    # its op runs.
    windows: dict[int, list[Record]] = {}
    cal_ms: dict[int, list[float]] = {}
    for r in records:
        if not workload.whole_passes:
            windows.setdefault(0, []).append(r)
        elif r.pass_no >= workload.warm_passes:
            windows.setdefault(r.pass_no, []).append(r)
    for pass_no, times in cal.items():
        if pass_no in windows or not workload.whole_passes:
            cal_ms.setdefault(pass_no if workload.whole_passes else 0, []).extend(
                t * 1e3 for t in times)
    cal_unit = {w: statistics.median(cal_ms[w]) for w in windows}
    size = len(next(iter(windows.values())))
    rate_cal, p50_cal, tail_cal = window_stats(
        [[r.cpu * 1e3 / cal_unit[k] for r in w] for k, w in windows.items()])
    rate_cpu, p50_cpu, tail_cpu = window_stats(
        [[r.cpu * 1e3 for r in w] for w in windows.values()])
    rate, p50, tail = window_stats([[r.seconds * 1e3 for r in w] for w in windows.values()])
    out = {"attempted": len(workload.ops), "runs": len(records), "windows": len(windows),
           "window_size": size, "elapsed_s": elapsed,
           "kinds": {k: [len(v), statistics.median(v), sum(v) / 1e3] for k, v in by_kind.items()},
           "ops_per_cal": rate_cal / 1e3, "op_p50_cal": p50_cal, "op_tail_cal": tail_cal,
           "cal_ms": statistics.median(cal_unit.values()),
           "ops_per_cpu_s": rate_cpu, "op_p50_cpu_ms": p50_cpu, "op_tail_cpu_ms": tail_cpu,
           "ops_per_s": rate, "op_p50_ms": p50, "op_tail_ms": tail,
           "tail_percentile": 100.0 * (size - 10) / size, "peak_rss_mb": peak,
           "describe": workload.describe}
    if args.trace:
        import layers
        suite = layers.Layers(args.seed, args.tiny, rec)
        with rec.span("layer.suite"):
            metrics = suite.run_all()
        metrics["trace.overhead"] = trace_overhead(records)
        out["layers"] = metrics
        out["layer_checks"] = [len(suite.checks), sum(not c.ok for c in suite.checks),
                               sum(c.gross for c in suite.checks)]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        rec.write_jsonl(spans_path)
        out["spans"] = spans_path
        out["self_ms"] = sorted(self_times(rec.spans).items(), key=lambda kv: -kv[1])[:15]

    failed, gross, reasons = judge(workload, records)
    out.update(failed=failed, gross=gross, reasons=reasons.most_common(8))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
