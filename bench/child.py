"""One benchmark round in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SCALE TRACE SPANS_PATH

Module caches (the sequence pools, the lattice cache, the Davenport
lru_cache) start cold here, as they do for a CLI user.  The child prints
"ready" once zerosum is imported and the inputs are built, so the parent can
time set-up, then runs the workload, checks its outputs, and prints one JSON
line with the round's measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports zerosum, so it belongs to set-up)
from tracer import SpanStats, Tracer  # noqa: E402

CALIBRATION_N = 1_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in ("verify.contained_subgroup", "sequences.balanced_setpartition",
                 "setsum.sumset", "setsum.weighted_dilate", "groups.subgroup_generated",
                 "weighted.sigma_n", "weighted.sums_by_count", "verify.coset_condition",
                 "groups.all_subgroups", "groups.quotient_iso_type",
                 "invariants.davenport_report"):
        m[f"{name}.calls"] = stats.calls.get(name, 0)
        m[f"{name}.s"] = stats.inclusive_s.get(name, 0.0)
    attempts, hits = stats.quick_path()
    # 0 on workloads that never try the quick path
    m["verify.quick_path_hit_ratio"] = hits / attempts if attempts else 0.0
    m["verify.sweep.self_s"] = stats.self_s.get("verify.sweep", 0.0)
    m["verify.report_to_json.s"] = stats.inclusive_s.get("verify.report_to_json", 0.0)
    m["cli.main.self_s"] = stats.self_s.get("cli.main", 0.0)
    durations = stats.durations_s.get("verify.check_instance", [])
    m["verify.check_instance.calls"] = len(durations)
    m["verify.check_instance.self_s"] = stats.self_s.get("verify.check_instance", 0.0)
    m["verify.check_instance.p50_us"] = _percentile(durations, 0.50) * 1e6
    m["verify.check_instance.p99_us"] = _percentile(durations, 0.99) * 1e6
    return m


def main(argv: list[str]) -> int:
    name, seed, scale, trace, spans_path = argv
    seed = int(seed)
    build, run = workloads.WORKLOADS[name]
    inputs = build(seed, scale)
    print("ready", flush=True)

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu()
    start = time.perf_counter()
    try:
        out = run(inputs)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu() - cpu0
        if tracer is not None:
            tracer.uninstall()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "calib_s": calibrate(),
        "examined": workloads.examined(out),
        "hyp_not_met": workloads.hyp_not_met(out),
        "undecided": workloads.undecided(out),
        "report_bytes": out["report_bytes"],
        "workers": out["workers"],
        "digests": out["digests"],
        "problems": workloads.check(name, out, seed, scale),
    }
    if tracer is not None:
        tracer.write(Path(spans_path))
        result["layers"] = layer_metrics(SpanStats(tracer))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
