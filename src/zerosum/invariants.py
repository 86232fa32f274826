"""Group invariants: d*, the Davenport constant, and the derived length bound.

d*(G) = sum (n_i - 1) over invariant factors.  D(G) is the least L such that
every length-L sequence over G has a nonempty zero-sum subsequence;
d*(G) + 1 <= D(G) <= |G| always holds.  For p-groups and groups of rank <= 2,
D(G) = d*(G) + 1 is a theorem (Olson 1969; van Emde Boas and Kruyswijk 1967),
and the witness is the basis sequence e_1^(n_1 - 1) ... e_r^(n_r - 1).  For
every other group D(G) is 1 plus the longest zero-sum-free sequence found by
depth-first search.  Either way the pair is kept on the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupTooLarge
from .groups import Group, Subgroup, _factorize
from .sequences import GSequence, seq_from_indices
from .verdict import Status, Verdict

__all__ = [
    "InvariantReport",
    "dstar",
    "dstar_of_factors",
    "davenport",
    "davenport_report",
    "check_davenport_bounds",
    "ell",
]

DAVENPORT_CAP = 64  # default cap on the group order davenport_report accepts


def dstar_of_factors(factors) -> int:
    return sum(n - 1 for n in factors)


def dstar(group: Group | Subgroup) -> int:
    if isinstance(group, Subgroup):
        return dstar_of_factors(group.iso_type)
    return dstar_of_factors(group.invariant_factors)


def _basis_witness(group: Group) -> tuple[int, GSequence]:
    """(d*(G) + 1, e_1^(n_1 - 1) ... e_r^(n_r - 1)), e_i the element at index
    strides[i - 1].  This is D(G) and the witness the search keeps whenever
    D(G) = d*(G) + 1: an index below strides[i] lies in <e_1..e_i>, whose
    nonzero elements are all subsums of the basis prefix, so the search meets
    the basis sequence first among the longest ones.
    """
    basis = [s for n, s in zip(group.invariant_factors, group.strides) for _ in range(n - 1)]
    return dstar(group) + 1, seq_from_indices(group, basis)


def _longest_zero_sum_free(group: Group) -> tuple[int, GSequence]:
    """(D(G), witness): a longest zero-sum-free sequence and 1 + its length.

    DFS over sorted nonzero-index multisets, tracking achievable subsums as a
    mask.  A branch dies as soon as the identity becomes a subsum.
    Additional-length pruning uses |subsums| growing by at least one per
    appended term.  A term g closes a zero sum exactly when -g is already a
    subsum (g itself is never 0), so that is tested before any translate.
    """
    order = group.order
    translate = group.translate_mask
    neg = [group.index_neg(g) for g in range(order)]
    best_len = 0
    best_seq: list[int] = []

    def dfs(min_idx: int, sums: int, seq: list[int]) -> None:
        nonlocal best_len, best_seq
        if len(seq) > best_len:
            best_len = len(seq)
            best_seq = list(seq)
        if len(seq) + (order - 1) - sums.bit_count() <= best_len:
            return
        for g in range(min_idx, order):
            if (sums >> neg[g]) & 1:
                continue
            seq.append(g)
            dfs(g, sums | translate(sums, g) | (1 << g), seq)
            seq.pop()

    dfs(1, 0, [])
    return best_len + 1, seq_from_indices(group, best_seq)


def davenport(group: Group, cap: int = DAVENPORT_CAP) -> int:
    """D(G); see davenport_report."""
    return davenport_report(group, cap=cap)[0]


def davenport_report(group: Group, cap: int = DAVENPORT_CAP) -> tuple[int, GSequence]:
    """(D(G), witness): witness is a longest zero-sum-free sequence.

    Raises GroupTooLarge above the order cap, whether or not the pair is
    already known.  p-groups and groups of rank <= 2 take the closed form
    (_basis_witness); every other group is searched.  The first call keeps
    the pair on the group, so later calls under any cap that admits the
    group read it back.
    """
    if group.order > cap:
        raise GroupTooLarge(f"order {group.order} above Davenport cap {cap}")
    theorem = group.rank <= 2 or len(_factorize(group.order)) <= 1
    build = _basis_witness if theorem else _longest_zero_sum_free
    return group.stored("davenport", lambda: build(group))


def ell(group: Group, cap: int = DAVENPORT_CAP) -> int:
    """|G| + D(G) - 1, the classical threshold length for full-length sums."""
    return group.order + davenport(group, cap=cap) - 1


@dataclass(frozen=True)
class InvariantReport:
    group: Group
    dstar: int
    davenport: int | None
    ell: int | None
    witness_zsf: GSequence | None


def invariant_report(group: Group, cap: int = DAVENPORT_CAP) -> InvariantReport:
    """d*(G), and D(G), ell and the zero-sum-free witness, which are None
    when |G| is above cap."""
    ds = dstar(group)
    try:
        d, witness = davenport_report(group, cap=cap)
    except GroupTooLarge:
        return InvariantReport(group, ds, None, None, None)
    return InvariantReport(group, ds, d, group.order + d - 1, witness)


def check_davenport_bounds(group: Group, cap: int = DAVENPORT_CAP) -> Verdict:
    """d*(G) + 1 <= D(G) <= |G|, with the computed value as witness."""
    rep = invariant_report(group, cap=cap)
    d = rep.davenport
    if d is None:
        return Verdict(Status.UNDECIDED_CAPPED, {"reason": f"order {group.order} above cap {cap}"})
    lo = rep.dstar + 1
    hi = group.order
    return Verdict(
        Status.HOLDS if lo <= d <= hi else Status.FAILS,
        {"davenport": d, "lower": lo, "upper": hi, "witness_zsf": rep.witness_zsf},
    )
