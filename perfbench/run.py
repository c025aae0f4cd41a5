"""Closed-loop benchmark of lgraph, one workload per process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
``--workload all`` runs the four workloads one after another, each in its
own process.
One caller issues operations back to back on one thread, each starting
when the previous one returns.  Every output is checked against the
independent computations in ``checks``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Result files and span dumps go to
``perfbench/results``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed
from meter import Meter, Reference
from tracing import Tracer, layer_api
from workloads import WORKLOADS, round_rng

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5


def load_lgraph():
    """Import lgraph from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lgraph" / "__init__.py").is_file():
        raise RuntimeError(f"no lgraph sources under {src}")
    sys.path.insert(0, str(src))
    import lgraph
    import lgraph.cli
    if Path(lgraph.__file__).resolve().parent != src / "lgraph":
        raise RuntimeError(f"imported lgraph from {lgraph.__file__}")
    return lgraph


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values: list[int], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    def __init__(self, workload, seed: int, api, meter, tracer=None):
        self.workload = workload
        self.seed = seed
        self.api = api
        self.meter = meter
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.by_kind: dict[str, list[float]] = {}

    def round(self, index: int, bucket: list, traced: bool = False) -> None:
        """Build one round, run and check each operation; its scaled time
        goes to ``bucket``."""
        w = self.workload
        names = f"r{index % w.name_pool if w.name_pool else index}"
        cases = w.build(round_rng(w.name, self.seed, f"r{index}"), names)
        outs = []
        for case in cases:
            self.attempted += 1
            try:
                if traced:
                    out = self.tracer.call(self.attempted, w.operation,
                                           self.tracer.api, case)
                    raw = self.tracer.last_ns
                else:
                    start = time.thread_time_ns()
                    out = w.operation(self.api, case)
                    raw = time.thread_time_ns() - start
            except Exception as exc:  # an operation that fails is counted
                self.failed += 1
                print(f"failed: {case.kind}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                outs.append(None)
                continue
            self.meter.add(raw, bucket,
                           self.by_kind.setdefault(case.kind, []))
            outs.append(out)
            self._check(w.check, case, out)
        if None not in outs:
            self._check(w.check_round, cases, outs)

    def _check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            if len(self.mismatches) < 20:
                print(f"wrong output: {exc}", file=sys.stderr)
            self.mismatches.append(str(exc))

    def setup(self) -> list[float]:
        """Run fresh set-up rounds several times; the scaled seconds of
        program work in each repetition."""
        w = self.workload
        times: list[float] = []
        for k in range(SETUP_REPEATS):
            spent: list[float] = []
            for j in range(w.setup_rounds):
                tag = f"s{k}x{j}"
                cases = w.build(round_rng(w.name, self.seed, tag), tag)
                outs = []
                for case in cases:
                    start = time.thread_time_ns()
                    outs.append(w.operation(self.api, case))
                    self.meter.add(time.thread_time_ns() - start, spent)
                for case, out in zip(cases, outs):
                    self._check(w.check, case, out)
                self._check(w.check_round, cases, outs)
            self.meter.drain()
            times.append(sum(spent) / 1e9)
        return times

    def measure(self, seconds: float) -> dict[bool, list[float]]:
        """Whole rounds until the time is up; with tracing on, every other
        round is traced so both halves see the same drift."""
        durations: dict[bool, list[float]] = {False: [], True: []}
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            self.round(index, durations[traced], traced)
            index += 1
            if (time.perf_counter() - start >= seconds
                    and (self.tracer is None or index % 2 == 0)):
                self.meter.drain()
                return durations


def run_all(args) -> int:
    """Each workload in its own process, one after another; the last line
    merges their results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
        if not lines or done.returncode == 2:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        lgraph = load_lgraph()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot load lgraph: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    tracer = Tracer(lgraph) if args.trace else None
    meter = Meter(Reference(workload))
    run = Run(workload, args.seed, layer_api(lgraph), meter, tracer)
    setup_times = run.setup()
    gc.collect()
    gc.freeze()
    durations = run.measure(args.seconds)
    plain = durations[False]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tail_p = workload.tail_percentile
    tail_ns = percentile(plain, tail_p)
    if args.trace:
        metrics = tracer.layer_metrics()
        traced = durations[True]
        metrics["trace.overhead"] = (
            statistics.fmean(traced) / statistics.fmean(plain) - 1, "ratio")
    else:
        metrics = {
            "throughput_ops_per_s": (len(plain) / (sum(plain) / 1e9), "ops/s"),
            "latency_p50_ms": (statistics.median(plain) / 1e6, "ms"),
            "latency_tail_ms": (tail_ns / 1e6, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {"cpu": cpu, "python": sys.version.split()[0],
               "operations": len(plain), "tail_percentile": tail_p,
               "beyond_tail": sum(d > tail_ns for d in plain),
               "median_ms_by_kind": {
                   kind: statistics.median(ds) / 1e6
                   for kind, ds in sorted(run.by_kind.items())},
               "setup_times_s": setup_times,
               "reference_ms": {
                   "min": min(meter.references) / 1e6,
                   "median": statistics.median(meter.references) / 1e6,
                   "max": max(meter.references) / 1e6},
               "mismatches": run.mismatches[:20]}
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({**result, "details": details}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}.spans.jsonl")

    print(f"workload {workload.name}, seed {args.seed}: {len(plain)} timed "
          f"operations, tail at p{tail_p:g}, pinned to cpu {cpu}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
