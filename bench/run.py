"""zerosum benchmark: timed sweep workloads with output checks.

    python3 bench/run.py --workload ham_char --seed 0 --seconds 30 --trace 0

Runs rounds of one workload, each in a fresh child interpreter and one at a
time, until --seconds have passed (at least MIN_ROUNDS rounds), and prints as
its last line one JSON object {"correct", "attempted", "failed", "metrics"}.
The line before it records the machine: nproc, Python version, and a fixed
calibration loop timed in every round, so a slow-machine round shows.

--trace 0 reports the end-to-end metrics, each a median over rounds:
  wall_s           seconds of the timed phase (the library calls only)
  instances_per_s  verdicts per second, one census entry per group
  cpu_s            CPU seconds of the timed phase, the round's process plus its children
  peak_rss_mb      peak resident memory of the round's process plus its children
  setup_s          spawn of a fresh interpreter, import of zerosum, input build

The calibration loop is context only: on shared hosts its speed does not
track the library's closely enough to correct the times with it.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics (see tracer.py), medians over the traced rounds:
  <layer>.<function>.calls, .s  calls, and inclusive seconds of the outermost calls
  *.self_s                      seconds not covered by the span's child spans
  verify.quick_path_hit_ratio   quick-path attempts that never fell back to exact
                                sigma_n, over attempts (0 when never tried)
  verify.hyp_not_met_ratio      hypothesis_not_met verdicts over verdicts
  verify.report_bytes           bytes of report JSON produced
  verify.sweep.cpu_util         untraced cpu_s over wall_s times workers
  trace.overhead_ratio          traced over untraced wall_s
  machine.calib_s               the calibration loop's seconds
Spans of the last traced round go to .bench_out/spans-<workload>.tsv.

Any output-check failure, in a traced or an untraced round, or a traced
digest that differs from the untraced one, makes the run exit 1 with
"correct": false.  A round that crashes makes it exit 2 with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
# A run, whatever --seconds says, gives up on a round still going after this.
RUN_LIMIT_S = 170
WORKLOAD_NAMES = ("ham_char", "exact_sums", "group_census")
SCALES = ("full", "smoke")


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, scale: str, trace: bool, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ZEROSUM_"))}
    env["PYTHONHASHSEED"] = "0"
    spans = OUT_DIR / f"spans-{workload}.tsv"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), scale,
           "1" if trace else "0", str(spans)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RoundError(f"{workload} round still running after {RUN_LIMIT_S} s") from None
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RoundError(f"{workload} round exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "wall_s": (_median(rounds, "wall_s"), "s"),
        "instances_per_s": (statistics.median(r["examined"] / r["wall_s"] for r in rounds), "1/s"),
        "cpu_s": (_median(rounds, "cpu_s"), "s"),
        "peak_rss_mb": (_median(rounds, "peak_rss_mb"), "MB"),
        "setup_s": (_median(rounds, "setup_s"), "s"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for key in traced[0]["layers"]:
        unit = ("count" if key.endswith(".calls") else "ratio" if key.endswith("_ratio")
                else "us" if key.endswith("_us") else "s")
        out[key] = (statistics.median(r["layers"][key] for r in traced), unit)
    out["verify.hyp_not_met_ratio"] = (
        statistics.median(r["hyp_not_met"] / r["examined"] for r in traced), "ratio")
    out["verify.report_bytes"] = (_median(traced, "report_bytes"), "bytes")
    out["verify.sweep.cpu_util"] = (
        statistics.median(r["cpu_s"] / (r["wall_s"] * r["workers"]) for r in plain), "ratio")
    out["trace.overhead_ratio"] = (_median(traced, "wall_s") / _median(plain, "wall_s"), "ratio")
    out["machine.calib_s"] = (_median(plain + traced, "calib_s"), "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """Rounds until `seconds` have passed; traced runs alternate plain and traced."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) + len(traced) < (2 if trace else MIN_ROUNDS)):
        use_trace = trace and len(traced) < len(plain)
        left = start + RUN_LIMIT_S - time.perf_counter()
        result = run_round(workload, seed, scale, use_trace, timeout=max(left, 0.1))
        result["traced"] = use_trace
        (traced if use_trace else plain).append(result)
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="input sizes; 'smoke' is a tiny run for the benchmark's own tests")
    args = ap.parse_args(argv)

    try:
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.scale)
    except (RoundError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    if traced:
        want = plain[0]["digests"]
        problems += [f"traced digests {r['digests']} != untraced {want}"
                     for r in rounds if r["digests"] != want]
    for p in sorted(set(problems)):
        print(f"output check failed: {p}", file=sys.stderr)
    correct = not problems
    attempted = sum(r["examined"] for r in rounds)
    failed = attempted if not correct else sum(r["undecided"] for r in rounds)

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "setup_s", "calib_s",
                                      "peak_rss_mb")} for r in rounds],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
