"""The three benchmark workloads: inputs, the timed run, and the output checks.

Every call into the library goes through a module attribute looked up at call
time (``verify.sweep``, ``cli.main``), so a Tracer installed between set-up
and the run sees it.

Why these three: ``ham_char`` is per-instance object churn on the
balanced-setpartition quick path (``contained_subgroup``, ``sumset``) with
exact ``sigma_n`` as a rare fallback; ``exact_sums`` puts exact ``sigma_n``
and ``sums_by_count`` on every instance, never calls ``contained_subgroup``,
and is the only workload that uses the thread pool, the CLI and JSON
emission; ``group_census`` spends its time in the subgroup lattice,
``quotient_iso_type`` and the Davenport search, which the other two barely
touch.  Each optimization then has one workload that exercises it and one
that bypasses it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import zerosum.cli as cli
import zerosum.groups as groups
import zerosum.invariants as invariants
import zerosum.verify as verify

DEFAULT_SEED = 0

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is a tiny
# run of the same code for the benchmark's own tests.  c7 at wlen 4 is the
# smallest c7 domain THM_HAM_CHAR admits (it needs 2|W| >= |G|); order 24
# keeps the whole census's Davenport searches under a second.
HAM_CHAR = {"full": ("c7", 4), "smoke": ("c5", 3)}
WEGZ = {"full": (("c8", "c3xc3", "c2xc4"), 2), "smoke": (("c5", "c2xc2"), 2)}
# The small groups make the coset branch (coset_condition) show up in samples.
GAO_DSTAR = {
    "full": (("c3", "c2xc2", "c2xc2xc2", "c2xc4", "c12", "c4xc4", "c16"), 400),
    "smoke": (("c2xc2", "c8"), 20),
}
CENSUS_MAX_ORDER = {"full": 24, "smoke": 8}

# sha256 of report_to_json (and of the CLI's --json bytes) at DEFAULT_SEED,
# taken from the library before any optimization.  An optimization must keep
# every one of them.
GOLDEN = {
    "full": {
        "ham_char": {
            "THM_HAM_CHAR": "92dc6d9d0a1ec4cd3fe69602d76225d17fe5c5f81aa712572a720a6875f43b1d",
        },
        "exact_sums": {
            "cli:THM_WEGZ": "a0c365491a9150e928c2d73571b733765331f37e28455756a68bbf5c133f1497",
            "cli:COR_GAO_DSTAR": "393e680a71999e7a8ef938ddcd4422c86d205f150a9a2fe9fb22198bd61a5610",
        },
        "group_census": {
            "census": "91447a0da01ac2bd4c0ea420400a0ff012430636705787cff54779a65b99292e",
            "PROP_DUAL": "1cd1571a30d85105cd29e880d403c4fb2cd3b408219c5edfbadf989828afc444",
            "LEM_DSTAR_SUBADD": "3891ee32e8eec3a17e32afc1a91c2af1153a2376c07dc0c1735ff3264702dfd9",
        },
    },
    "smoke": {
        "ham_char": {
            "THM_HAM_CHAR": "8150ad1258ad6fa29b1a1d6b281e1ae7a78cd9e87fb659f0cc68790dbb9bb4c5",
        },
        "exact_sums": {
            "cli:THM_WEGZ": "cfe7bf69dd37db744e210465df07ba599d47133141a0a424dd89d79499bd432b",
            "cli:COR_GAO_DSTAR": "1d712995f5854e75a93334407de5320d28f7d15cd284f3c59337285a6a2e43d5",
        },
        "group_census": {
            "census": "543dfef899d7ee98745ff7ab9064272c0ee065ffecde6d086439564f351978f2",
            "PROP_DUAL": "c22015835ad0e9d4dacace8cf536cbd6b1c5bcff9ee347e5f800a4972aaac080",
            "LEM_DSTAR_SUBADD": "1bbf28f99dfe21dd498e20faa73fa4a03a6542153d1a9745a668d629097ad657",
        },
    },
}
# Digests that depend on --seed.  They are checked only at DEFAULT_SEED; at
# other seeds the sample count and zero fails / undecided stand in for them.
SEEDED = {"cli:COR_GAO_DSTAR"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _count_keys(counts: dict) -> dict:
    """Report counts keyed as in report_to_json."""
    return {
        "holds": counts.get("holds", 0),
        "fails": counts.get("fails", 0),
        "hyp_not_met": counts.get("hypothesis_not_met", 0),
        "undecided": counts.get("undecided_capped", 0),
    }


def _sweep_output(label: str, report, out: dict) -> None:
    text = verify.report_to_json(report)
    out["digests"][label] = _sha(text)
    out["reports"][label] = {"counts": _count_keys(report.counts),
                             "flagged": len(report.flagged)}
    out["report_bytes"] += len(text)


def _new_output(workers: int) -> dict:
    return {"digests": {}, "reports": {}, "report_bytes": 0, "workers": workers,
            "entries": 0}


# -- ham_char -------------------------------------------------------------------


def build_ham_char(seed: int, scale: str) -> dict:
    group, wlen = HAM_CHAR[scale]
    dom = verify.SweepDomain(groups=(groups.parse_group(group),), wlens=(wlen,))
    return {"domain": dom}


def run_ham_char(inputs: dict) -> dict:
    out = _new_output(workers=1)
    report = verify.sweep(verify.StatementId.THM_HAM_CHAR, inputs["domain"], threads=1)
    _sweep_output("THM_HAM_CHAR", report, out)
    return out


# -- exact_sums -----------------------------------------------------------------


def build_exact_sums(seed: int, scale: str) -> dict:
    workers = nproc()
    wegz_groups, wlen = WEGZ[scale]
    dstar_groups, samples = GAO_DSTAR[scale]
    runs = {
        "cli:THM_WEGZ": ["sweep", "--statement", "THM_WEGZ", "--wlen", str(wlen)]
        + [arg for g in wegz_groups for arg in ("--group", g)],
        "cli:COR_GAO_DSTAR": ["sweep", "--statement", "COR_GAO_DSTAR",
                              "--samples", str(samples), "--seed", str(seed)]
        + [arg for g in dstar_groups for arg in ("--group", g)],
    }
    for argv in runs.values():
        argv += ["--threads", str(workers), "--json"]
    return {"runs": runs, "samples": samples * len(dstar_groups), "workers": workers}


def run_exact_sums(inputs: dict) -> dict:
    out = _new_output(workers=inputs["workers"])
    out["exit_codes"] = {}
    for label, argv in inputs["runs"].items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        text = buf.getvalue()
        out["exit_codes"][label] = code
        out["digests"][label] = _sha(text)
        doc = json.loads(text)
        out["reports"][label] = {"counts": doc["counts"],
                                 "flagged": len(doc.get("flagged", []))}
        out["report_bytes"] += len(text)
    out["samples"] = inputs["samples"]
    return out


# -- group_census ---------------------------------------------------------------


def build_group_census(seed: int, scale: str) -> dict:
    types = tuple(groups.abelian_group_types(CENSUS_MAX_ORDER[scale]))
    return {"groups": types, "domain": verify.SweepDomain(groups=types)}


def run_group_census(inputs: dict) -> dict:
    out = _new_output(workers=1)
    entries = []
    for g in inputs["groups"]:
        rep = invariants.invariant_report(g)
        subs = groups.all_subgroups(g, cap=verify.DEFAULT_CAPS.subgroups)
        entries.append({
            "group": groups.format_group(g),
            "factors": list(g.invariant_factors),
            "order": g.order,
            "dstar": rep.dstar,
            "davenport": rep.davenport,
            "ell": rep.ell,
            "witness_zsf": verify.to_jsonable(rep.witness_zsf),
            "subgroups": [s.indices() for s in subs],
        })
    for sid in (verify.StatementId.PROP_DUAL, verify.StatementId.LEM_DSTAR_SUBADD):
        _sweep_output(sid.value, verify.sweep(sid, inputs["domain"], threads=1), out)
    out["digests"]["census"] = _sha(json.dumps(entries, sort_keys=True))
    out["census"] = entries
    out["entries"] = len(entries)
    return out


# -- checks ---------------------------------------------------------------------


def _is_prime_power(n: int) -> bool:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def check_davenport(entry: dict) -> list[str]:
    """D(G) against theory, using only the invariant factors.

    d*(G) + 1 <= D(G) <= |G| always, with equality on the left for p-groups
    (Olson 1969) and for rank <= 2 (van Emde Boas & Kruyswijk 1967).
    """
    name, factors, d = entry["group"], entry["factors"], entry["davenport"]
    lower = 1 + sum(n - 1 for n in factors)
    if d is None:
        return [f"{name}: Davenport constant missing"]
    problems = []
    if not lower <= d <= entry["order"]:
        problems.append(f"{name}: D={d} outside [{lower}, {entry['order']}]")
    if (_is_prime_power(entry["order"]) or len(factors) <= 2) and d != lower:
        problems.append(f"{name}: D={d}, theory gives d*+1={lower}")
    if entry["ell"] != entry["order"] + d - 1:
        problems.append(f"{name}: ell={entry['ell']} is not |G|+D-1")
    return problems


def check(workload: str, out: dict, seed: int, scale: str,
          golden: dict | None = None) -> list[str]:
    """Every way the outputs differ from what the library must produce."""
    golden = GOLDEN[scale][workload] if golden is None else golden
    problems = []
    for label, want in golden.items():
        if label in SEEDED and seed != DEFAULT_SEED:
            continue
        got = out["digests"].get(label)
        if got != want:
            problems.append(f"{label}: digest {got} != golden {want}")
    for label, rep in out["reports"].items():
        counts = rep["counts"]
        if counts["fails"] or counts["undecided"]:
            problems.append(f"{label}: {counts['fails']} fails, "
                            f"{counts['undecided']} undecided")
        if rep["flagged"]:
            problems.append(f"{label}: {rep['flagged']} flagged instances")
    for label, code in out.get("exit_codes", {}).items():
        if code != 0:
            problems.append(f"{label}: CLI exit code {code}, expected 0")
    if "samples" in out:
        got = sum(out["reports"]["cli:COR_GAO_DSTAR"]["counts"].values())
        if got != out["samples"]:
            problems.append(f"cli:COR_GAO_DSTAR: {got} instances, expected {out['samples']}")
    for entry in out.get("census", []):
        problems += check_davenport(entry)
    return problems


def examined(out: dict) -> int:
    """Verdicts produced, with one census entry per group."""
    return out["entries"] + sum(sum(r["counts"].values()) for r in out["reports"].values())


def hyp_not_met(out: dict) -> int:
    return sum(r["counts"]["hyp_not_met"] for r in out["reports"].values())


def undecided(out: dict) -> int:
    return sum(r["counts"]["undecided"] for r in out["reports"].values())


WORKLOADS = {
    "ham_char": (build_ham_char, run_ham_char),
    "exact_sums": (build_exact_sums, run_exact_sums),
    "group_census": (build_group_census, run_group_census),
}
