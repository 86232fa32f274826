"""Per-instance verdicts and sweep reports, frozen from a reference run.

Sweep reports list only failures and flagged instances, so a change in which
subgroup a ``holds`` verdict names would not show in their bytes.  For every
instance the planners enumerate on a few small domains, this test serializes
the instance and ``verdict_to_dict(check_instance(...))``, witnesses included,
and compares the sha256 of those lines and a tally of the verdicts with
``tests/golden/witnesses.json``.  The same is done for an explicit grid of
setpartition-witness instances whose terms lie in one proper subgroup, the
only inputs here that reach the coset-aligned disjunct.  Separately, the
``report_to_json`` bytes of every sweepable statement on two small domains
are compared with ``tests/golden/reports.json``.

Regenerate both files only when a witness or report change is intended:

    PYTHONPATH=src python3 tests/test_golden_witnesses.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest

from zerosum import (
    GSequence,
    Instance,
    StatementId,
    SweepDomain,
    all_subgroups,
    check_instance,
    dstar,
    instance_to_dict,
    parse_group,
    report_to_json,
    sweep,
    sweepable_statements,
    verdict_to_dict,
    weight_seq,
    witness_search_setpartition,
)
from zerosum.verify import STATEMENTS
from planned import planned_pairs

WITNESSES = Path(__file__).with_name("golden") / "witnesses.json"
REPORTS = Path(__file__).with_name("golden") / "reports.json"

# (statement, groups, weight lengths); wlens are ignored by the example and
# sampled planners
DOMAINS = [
    (StatementId.THM_HAM_CHAR, ("c4",), (2, 3)),
    (StatementId.THM_HAM_CHAR, ("c5",), (3,)),
    (StatementId.THM_HAM_CHAR, ("c7",), (4,)),
    (StatementId.CONJ_HAMIDOUNE, ("c7",), (3,)),
    # order-2 and order-3 subgroups compete on c6
    (StatementId.CONJ_HAMIDOUNE, ("c6",), (2, 3)),
    # three subgroups of order 2 compete on c2xc2
    (StatementId.COR_HAM_VAR, ("c2xc2",), (2, 3)),
    (StatementId.EX1, ("c7", "c11", "c19"), ()),
    (StatementId.EX2, ("c4", "c8", "c16"), ()),
    # both disjuncts of the cover-or-coset conclusion
    (StatementId.THM_GAO_COSET, ("c4", "c2xc2", "c6", "c2xc4"), ()),
    (StatementId.COR_GAO_DSTAR, ("c4", "c2xc2", "c6", "c2xc4"), ()),
    (StatementId.CONJ_ORDAZ_QUIROZ, ("c4", "c2xc2"), (4,)),
    (StatementId.CONJ_ORDAZ_QUIROZ, ("c6",), (6,)),
    (StatementId.COR_SPECIALCASE, ("c4", "c2xc2"), (4,)),
    (StatementId.COR_SPUD, ("c4", "c2xc2"), (2, 3, 4)),
    (StatementId.THM_SETPART_WITNESS, ("c4", "c2xc2"), (2, 3, 4)),
    (StatementId.THM_SETPART_WITNESS, ("c6",), (5,)),
]

# witness fields that differ from one instance to the next; the digest covers
# them, the tally leaves them out so that it stays readable
PER_INSTANCE = {"partition", "assignment", "prefix_blocks", "achieved", "common_blocks",
                "excess", "size_bound", "outside_terms"}

GRID_GROUPS = ("c4", "c2xc2", "c6", "c2xc4", "c8", "c3xc3")
GRID_KEY = "THM_SETPART_WITNESS|grid|" + ",".join(GRID_GROUPS)

# report domains: (name, groups, wlens), all at samples=50
REPORT_DOMAINS = [
    ("small", ("c4", "c2xc2"), (2, 3, 4)),
    ("cyclic", ("c5", "c6"), (2, 3)),
]


def domain_key(sid: StatementId, groups: tuple[str, ...], wlens: tuple[int, ...]) -> str:
    return f"{sid.value}|{','.join(groups)}|wlen={','.join(map(str, wlens))}"


def summarize(checked) -> dict:
    """Digest and tally of (instance, verdict) pairs in enumeration order."""
    digest = hashlib.sha256()
    tally: Counter = Counter()
    for inst, verdict in checked:
        vdict = verdict_to_dict(verdict)
        line = (json.dumps(instance_to_dict(inst), sort_keys=True) + "\t"
                + json.dumps(vdict, sort_keys=True) + "\n")
        digest.update(line.encode())
        vdict["witness"] = {k: v for k, v in vdict["witness"].items() if k not in PER_INSTANCE}
        tally[json.dumps(vdict, sort_keys=True)] += 1
    return {"instances": sum(tally.values()), "sha256": digest.hexdigest(),
            "verdicts": dict(sorted(tally.items()))}


def domain_summary(sid: StatementId, groups: tuple[str, ...],
                   wlens: tuple[int, ...]) -> dict:
    dom = SweepDomain(groups=tuple(parse_group(g) for g in groups), wlens=wlens)
    return summarize((inst, check_instance(sid, inst))
                     for _, factory in STATEMENTS[sid].planner(dom)
                     for _, inst in sorted(planned_pairs(factory), key=itemgetter(0)))


def grid_instances():
    """Unit weights, n in {d*(G), d*(G) + 1}, and every sequence of length
    n..n+2 with multiplicities at most n supported on one proper nontrivial
    subgroup."""
    for text in GRID_GROUPS:
        group = parse_group(text)
        d = dstar(group)
        for sub in all_subgroups(group):
            if sub.is_trivial() or not sub.is_proper():
                continue
            idx = sub.indices()
            for n in (d, d + 1):
                w = weight_seq(group, [1] * n)
                for length in range(n, n + 3):
                    for v in product(range(n + 1), repeat=len(idx)):
                        if sum(v) != length:
                            continue
                        mult = [0] * group.order
                        for i, m in zip(idx, v):
                            mult[i] = m
                        yield Instance(group, seq=GSequence(group, tuple(mult)),
                                       weights=w, n=n)


def grid_summary() -> dict:
    return summarize((inst, witness_search_setpartition(inst)) for inst in grid_instances())


def report_key(sid: StatementId, name: str) -> str:
    return f"{sid.value}|{name}"


def domain_reports(name: str, groups: tuple[str, ...], wlens: tuple[int, ...]) -> dict:
    dom = SweepDomain(groups=tuple(parse_group(g) for g in groups), wlens=wlens, samples=50)
    return {report_key(sid, name): report_to_json(sweep(sid, dom))
            for sid in sweepable_statements()}


@pytest.mark.parametrize("sid,groups,wlens", DOMAINS,
                         ids=[domain_key(*d) for d in DOMAINS])
def test_witnesses_match_golden(sid, groups, wlens):
    want = json.loads(WITNESSES.read_text())[domain_key(sid, groups, wlens)]
    got = domain_summary(sid, groups, wlens)
    assert got["instances"] == want["instances"]
    assert got["verdicts"] == want["verdicts"]
    assert got["sha256"] == want["sha256"]


def test_setpartition_grid_matches_golden():
    want = json.loads(WITNESSES.read_text())[GRID_KEY]
    got = grid_summary()
    assert got["instances"] == want["instances"]
    assert got["verdicts"] == want["verdicts"]
    assert got["sha256"] == want["sha256"]


@pytest.mark.parametrize("name,groups,wlens", REPORT_DOMAINS,
                         ids=[d[0] for d in REPORT_DOMAINS])
def test_reports_match_golden(name, groups, wlens):
    want = json.loads(REPORTS.read_text())
    got = domain_reports(name, groups, wlens)
    assert len(got) == 19
    for key, text in got.items():
        assert text == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_witnesses.py --write")
    WITNESSES.parent.mkdir(exist_ok=True)
    payload = {domain_key(*d): domain_summary(*d) for d in DOMAINS}
    payload[GRID_KEY] = grid_summary()
    WITNESSES.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    reports: dict[str, str] = {}
    for d in REPORT_DOMAINS:
        reports.update(domain_reports(*d))
    REPORTS.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
