"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
import zerosum  # noqa: E402
import zerosum.verify  # noqa: E402
import zerosum.weighted  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def _run_smoke(workload: str, trace: int, seed: int = 0) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_are_the_declared_ones(workload, trace):
    result = _run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_non_default_seed_checks_sample_count_instead_of_digest():
    result = _run_smoke("exact_sums", 0, seed=7)
    assert result["correct"] is True


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_digest_fails_the_check(workload):
    build, run = workloads.WORKLOADS[workload]
    seed = workloads.DEFAULT_SEED
    out = run(build(seed, "smoke"))
    assert workloads.check(workload, out, seed, "smoke") == []
    for label, digest in workloads.GOLDEN["smoke"][workload].items():
        golden = dict(workloads.GOLDEN["smoke"][workload])
        golden[label] = "0" * len(digest)
        problems = workloads.check(workload, out, seed, "smoke", golden=golden)
        assert any(p.startswith(f"{label}: digest") for p in problems)


def test_wrong_davenport_value_fails_the_check():
    entry = {"group": "c2xc4", "factors": [2, 4], "order": 8, "davenport": 5, "ell": 12}
    assert workloads.check_davenport(entry) == []
    assert workloads.check_davenport({**entry, "davenport": 6, "ell": 13})
    assert workloads.check_davenport({**entry, "ell": 13})


def test_golden_mismatch_exits_nonzero(tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    path = tmp_path / "bench" / "workloads.py"
    want = workloads.GOLDEN["smoke"]["ham_char"]["THM_HAM_CHAR"]
    path.write_text(path.read_text().replace(want, "0" * len(want)))
    proc = _bench("--workload", "ham_char", "--seconds", "0", "--scale", "smoke",
                  cwd=tmp_path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "THM_HAM_CHAR: digest" in proc.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ham_char", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_catches_calls_within_a_module_and_restores_bindings():
    originals = {name: fn for name, fn in tracer.layer_functions().items()}
    t = tracer.Tracer()
    t.install()
    try:
        assert zerosum.verify.sigma_n is zerosum.weighted.sigma_n
        assert zerosum.verify.sigma_n is not originals["weighted.sigma_n"]
        out = workloads.run_ham_char(workloads.build_ham_char(0, "smoke"))
    finally:
        t.uninstall()
    assert zerosum.weighted.sigma_n is originals["weighted.sigma_n"]
    assert zerosum.verify.sigma_n is originals["weighted.sigma_n"]
    assert zerosum.sigma_n is originals["weighted.sigma_n"]
    stats = tracer.SpanStats(t)
    assert stats.calls["verify.sweep"] == 1
    assert stats.calls["verify.check_instance"] == sum(out["reports"]["THM_HAM_CHAR"]["counts"].values())
    # contained_subgroup is called from a private helper inside verify
    assert stats.calls["verify.contained_subgroup"] >= stats.calls["verify.check_instance"]
    attempts, hits = stats.quick_path()
    assert 0 < hits <= attempts
    assert stats.self_s["verify.sweep"] < stats.inclusive_s["verify.sweep"]


def test_self_time_counts_parallel_children_once():
    assert tracer._covered(0, 10, [(1, 4), (2, 6), (8, 12)]) == 7
    assert tracer._covered(0, 10, []) == 0
