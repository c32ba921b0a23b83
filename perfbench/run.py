"""taucover benchmark: one closed-loop client, one thread, seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Each request starts only after the
previous one finished, and every verdict is checked against a known answer.
With ``--trace 0`` the run warms up, then sends whole passes of requests until
``--seconds`` have elapsed and enough requests were sent to put ten samples
beyond the workload's tail percentile; it prints the end-to-end metrics.
Request times are scaled to the machine speed measured around each request
(see ``calibrate.py``); the raw times are printed on the comment lines.
With ``--trace 1`` it sends the seed's first pass untraced, then the same pass
again with every layer wrapped (see ``tracing.py``), and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fixed tail percentile per workload.  A run sends at least enough requests to
# leave ten samples beyond it, so the percentile does not move with speed.
# Requests cycle through a fixed list of shapes (fixtures), so sorted
# latencies form one cluster per shape.  Each percentile sits in the middle of
# a slow cluster rather than on the edge between two, where noise moves it
# least: the second-slowest of 11 shapes, and the overlapping MIXED and
# ZEROTORSION fixtures of the catalog.
TAIL_PCT = {"catalog-report": 64, "wide-cover-class": 86, "many-chart-glue": 86}
BEYOND = 10
# Fresh interpreters started before and again after the timed loop; setup_s
# is the median of all of them, so one slow spell of the host moves it less.
SETUP_PROBES = 4
# A run stops sending once this many seconds have passed, whatever the floor.
TIME_CAP = 120.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def min_requests(pct: float, pass_size: int) -> int:
    """Fewest whole passes' requests that leave BEYOND samples past pct."""
    count = pass_size
    while len_beyond(count, pct) < BEYOND:
        count += pass_size
    return count


def len_beyond(count: int, pct: float) -> int:
    return count - max(1, math.ceil(pct / 100 * count))


def setup_probes(name: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh interpreters importing taucover and loading inputs.

    Process start-up does not track the calibration kernel, so these times
    are not scaled.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            check=True,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return times


def send(workload, index: int) -> tuple[float, bool]:
    """One request: (latency in seconds, verdict correct)."""
    start = time.perf_counter()
    try:
        ok = workload.request(index)
    except Exception:  # a request that raises is a failed request, not a crash
        traceback.print_exc(file=sys.stderr)
        ok = False
    return time.perf_counter() - start, ok


def closed_loop(workload, seconds: float, floor: int) -> dict:
    """Whole passes until `seconds` elapsed and at least `floor` requests sent.

    The calibration kernel runs once before the loop and after every request,
    outside the latencies.  Request k lies between kernel samples k and k + 1;
    its latency is scaled by the mean of samples k - 1 .. k + 2, the two on
    each side of it: local enough to follow the host's drift, wide enough to
    smooth the kernel's own jitter.
    """
    raw, refs, failed = [], [calibrate.sample()], 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.pass_size):
            latency, ok = send(workload, len(raw))
            refs.append(calibrate.sample())
            raw.append(latency)
            failed += not ok
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(raw) >= floor) or elapsed >= TIME_CAP:
            break
    scaled = [
        latency * calibrate.NOMINAL_S / statistics.mean(refs[max(0, k - 1) : k + 3])
        for k, latency in enumerate(raw)
    ]
    return {"raw": raw, "latencies": scaled, "failed": failed, "elapsed": elapsed}


def end_to_end(name: str, run: dict, setup_s: float, peak_rss_mb: float) -> dict:
    """Throughput is requests per second of (scaled) service time: one client
    that sends the next request as soon as the last one returns."""
    lat = sorted(run["latencies"])
    count = len(lat)
    pct = TAIL_PCT[name]
    print(
        f"# {name}: {count} requests in {run['elapsed']:.2f} s; "
        f"latency_tail_ms is p{pct} over {count} samples with "
        f"{len_beyond(count, pct)} beyond; error_rate {run['failed'] / count:.4f}; "
        f"raw p50 {statistics.median(run['raw']) * 1000:.2f} ms, "
        f"raw time {sum(run['raw']) / sum(run['latencies']):.3f} x scaled"
    )
    return {
        "throughput_rps": (count / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (percentile(lat, pct) * 1000, "ms"),
        "success_rate": (1 - run["failed"] / count, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    import workloads

    setup = setup_probes(name, seed, SETUP_PROBES)
    for _ in range(3):
        calibrate.sample()
    workload = workloads.WORKLOADS[name](seed, OUT / "work")
    workload.load()
    workload.warm_up()
    floor = min_requests(TAIL_PCT[name], workload.pass_size)
    run = closed_loop(workload, seconds, floor)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setup + setup_probes(name, seed, SETUP_PROBES))
    metrics = end_to_end(name, run, setup_s, peak_rss_mb)
    return metrics, len(run["latencies"]), run["failed"]


def traced_run(name: str, seed: int) -> tuple[dict, int, int]:
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](seed, OUT / "work")
    workload.load()
    workload.warm_up()
    failed = 0
    start = time.perf_counter()
    for index in range(workload.pass_size):
        failed += not send(workload, index)[1]
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for index in range(workload.pass_size):
            tracer.request = index
            failed += not send(workload, index)[1]
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    spans_path = OUT / f"trace-{name}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    print(f"# {name}: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics, 2 * workload.pass_size, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description="taucover benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "taucover" / "__init__.py").is_file():
        print(f"perfbench: no taucover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / "work"
    work.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(args.workload, args.seed)
        else:
            metrics, attempted, failed = timed_run(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
