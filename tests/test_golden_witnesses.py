"""Per-instance verdicts of the Hamidoune checkers, frozen from a reference run.

Sweep reports list only failures and flagged instances, so a change in which
subgroup a ``holds`` verdict names would not show in their bytes.  For every
instance the planners enumerate on a few small domains, this test serializes
the instance and ``verdict_to_dict(check_instance(...))``, witnesses included,
and compares the sha256 of those lines and the tally of distinct verdicts with
``tests/golden/hamidoune_witnesses.json``.

Regenerate the file only when a witness change is intended:

    PYTHONPATH=src python3 tests/test_golden_witnesses.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from zerosum import (
    StatementId,
    SweepDomain,
    check_instance,
    instance_to_dict,
    parse_group,
    verdict_to_dict,
)
from zerosum.verify import _PLANNERS

GOLDEN = Path(__file__).with_name("golden") / "hamidoune_witnesses.json"

# (statement, groups, weight lengths); wlens are ignored by the example planners
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
]


def domain_key(sid: StatementId, groups: tuple[str, ...], wlens: tuple[int, ...]) -> str:
    return f"{sid.value}|{','.join(groups)}|wlen={','.join(map(str, wlens))}"


def domain_summary(sid: StatementId, groups: tuple[str, ...],
                   wlens: tuple[int, ...]) -> dict:
    dom = SweepDomain(groups=tuple(parse_group(g) for g in groups), wlens=wlens)
    digest = hashlib.sha256()
    tally: Counter = Counter()
    for _, factory in _PLANNERS[sid](dom).shards:
        for inst in factory():
            verdict = json.dumps(verdict_to_dict(check_instance(sid, inst)), sort_keys=True)
            line = json.dumps(instance_to_dict(inst), sort_keys=True) + "\t" + verdict + "\n"
            digest.update(line.encode())
            tally[verdict] += 1
    return {"instances": sum(tally.values()), "sha256": digest.hexdigest(),
            "verdicts": dict(sorted(tally.items()))}


@pytest.mark.parametrize("sid,groups,wlens", DOMAINS,
                         ids=[domain_key(*d) for d in DOMAINS])
def test_witnesses_match_golden(sid, groups, wlens):
    want = json.loads(GOLDEN.read_text())[domain_key(sid, groups, wlens)]
    got = domain_summary(sid, groups, wlens)
    assert got["instances"] == want["instances"]
    assert got["verdicts"] == want["verdicts"]
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_witnesses.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {domain_key(*d): domain_summary(*d) for d in DOMAINS}
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
