"""Weighted subsequence sums: sigma_n and friends.

sigma_n(W, S, n) is the set of all sums of n terms of S, each multiplied by a
distinct slot of the integer weight sequence W.  Weights act through their
residues mod the group exponent, so they are canonicalized up front (raw
values retained).

The exact evaluator is one 0/1 knapsack over bitmasks, capped at a top
count n.  In the weight-side orientation a state counts the slots used in
each weight-residue class (at most min(m_j, n) each, at most n in all); the
DP walks the terms of S, each support element capped at n copies, and for
each term x and each state c reached so far sets
table[c + e_j] |= (table[c] translated by r_j * x), reading table[c] as it
stood before x.  The sequence-side orientation swaps the roles: it walks the
weight slots and a state counts the copies used of each support element of
S.  The orientation with fewer states of at most n items runs (a choice
made from the input's shape alone); above STATE_CAP states CapExceeded is
raised before any is built.  States that can no longer reach the target
are dropped.  sigma_n joins table[c] over the states with |c| = n;
sigma_table keeps every count, and sums_by_count is its unit-weight case.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd, prod
from operator import or_

from .errors import BadN, CapExceeded, EmptySet, GroupMismatch, LengthMismatch, ParseError
from .sequences import GSequence, Setpartition, _literal_terms
from .setsum import GSet
from .groups import Group

__all__ = [
    "WeightSeq",
    "weight_seq",
    "parse_weights",
    "format_weights",
    "sigma_n",
    "sigma_table",
    "sigma_upto",
    "sigma_from",
    "sigma_all",
    "w_dot",
    "sums_by_count",
    "partition_wsum",
]


@dataclass(frozen=True)
class WeightSeq:
    """An integer weight sequence attached to a group.

    raw keeps the weights as given; residues are reduced mod the group
    exponent (every computation factors through them).
    """

    group: Group
    raw: tuple[int, ...]

    @cached_property
    def residues(self) -> tuple[int, ...]:
        e = self.group.exponent
        return tuple(w % e for w in self.raw)

    @cached_property
    def units(self) -> tuple[bool, ...]:
        e = self.group.exponent
        return tuple(gcd(w, e) == 1 for w in self.raw)

    @cached_property
    def length(self) -> int:
        return len(self.raw)

    def __len__(self) -> int:
        return self.length

    def total(self) -> int:
        """Sum of raw weights, as an integer."""
        return sum(self.raw)

    def residue_counts(self) -> list[tuple[int, int]]:
        """(residue, multiplicity) pairs, ascending by residue."""
        return sorted(Counter(self.residues).items())

    def __repr__(self) -> str:
        return format_weights(self)


def weight_seq(group: Group, weights) -> WeightSeq:
    """Weights taken with operator.index, so that a float or a string is a
    GroupMismatch, as in groups._index_in, and is never truncated."""
    try:
        return WeightSeq(group, tuple(map(operator.index, weights)))
    except TypeError as exc:
        raise GroupMismatch(f"weights must be integers: {exc}") from None


def parse_weights(group: Group, text: str) -> WeightSeq:
    """Parse ``1^2,-1^2,0^1`` into a weight sequence (negatives allowed)."""
    raw: list[int] = []
    for part, val_text, m in _literal_terms(text.strip().split(","), "weight", text):
        try:
            v = int(val_text)
        except ValueError as exc:
            raise ParseError(f"bad weight in {part!r}") from exc
        raw.extend([v] * m)
    return WeightSeq(group, tuple(raw))


def format_weights(w: WeightSeq) -> str:
    parts = []
    for val, m in sorted(Counter(w.raw).items()):
        parts.append(f"{val}^{m}")
    return ",".join(parts)


STATE_CAP = 1 << 18  # the most states the sigma DP builds before CapExceeded


def _check_pair(w: WeightSeq, s: GSequence) -> None:
    if w.group != s.group:
        raise GroupMismatch("weights and sequence over different groups")


@lru_cache(maxsize=4096)
def _state_count(caps: tuple[int, ...], top: int) -> int:
    """#{0 <= c <= caps : sum(c) <= top}, summed from prod_j (1 + ... + x^caps[j])."""
    poly = [1] + [0] * top
    for cap in caps:
        acc, prev, poly = 0, poly, []
        for i in range(top + 1):
            acc += prev[i] - (prev[i - cap - 1] if i > cap else 0)
            poly.append(acc)
    return sum(poly)


def _sums_by_n(group: Group, classes, supp, top: int, need: int = 0,
               side: str | None = None) -> list[int]:
    """Per-count sum masks of weight classes against sequence support.

    classes and supp are (residue mod exp(G), slots) and (element index,
    copies) pairs.  Entry k of the result is the mask of k-term weighted
    sums, k <= top; states that can no longer reach need items are dropped,
    so only entries from need on are exact.  side forces an orientation
    ("weights" or "sequence"); by default the one with fewer states runs.
    """
    wcaps = [m if m < top else top for _, m in classes]
    scaps = [m if m < top else top for _, m in supp]
    counts = {"weights": _state_count(tuple(sorted(wcaps)), top),
              "sequence": _state_count(tuple(sorted(scaps)), top)}
    if side is None:
        side = "weights" if counts["weights"] <= counts["sequence"] else "sequence"
    if counts[side] > STATE_CAP:
        raise CapExceeded(f"sigma DP needs {counts[side]} states, above {STATE_CAP}")
    multiples = group.multiples
    if side == "weights":
        caps = wcaps
        walk = [(c, [multiples[g][r] for r, _ in classes]) for (g, _), c in zip(supp, scaps)]
    else:
        caps = scaps
        walk = [(c, [multiples[g][r] for g, _ in supp]) for (r, _), c in zip(classes, wcaps)]
    # a state is a mixed-radix code of per-class counts; only reached states
    # are kept, with meta[code] = (items used, classes with room left)
    strides = [prod(c + 1 for c in caps[:j]) for j in range(len(caps))]
    table = {0: 1}
    meta = {0: (0, tuple(j for j, cap in enumerate(caps) if cap))}
    translate = group.translate_mask
    left = sum(c for c, _ in walk)
    for copies, shifts in walk:
        for _ in range(copies):
            floor = need - left  # fewer items used than this can no longer reach need
            # 0/1 knapsack: extend a snapshot, so each item is used once
            for c, mask in list(table.items()):
                u, room = meta[c]
                if u < floor:
                    del table[c]
                    continue
                for j in room:
                    t = c + strides[j]
                    if t not in meta:
                        full = (t // strides[j]) % (caps[j] + 1) == caps[j]
                        meta[t] = (u + 1, () if u + 1 == top else
                                   tuple(i for i in room if i != j) if full else room)
                    table[t] = table.get(t, 0) | translate(mask, shifts[j])
            left -= 1
    out = [0] * (top + 1)
    for c, mask in table.items():
        out[meta[c][0]] |= mask
    return out


def _support(s: GSequence) -> list[tuple[int, int]]:
    return [(g, m) for g, m in enumerate(s.mult) if m]


def sigma_table(w: WeightSeq, s: GSequence) -> tuple[int, ...]:
    """Bitmasks of sigma_n for n = 0..min(|W|, |S|) from one DP pass; entry 0 is {0}."""
    _check_pair(w, s)
    return tuple(_sums_by_n(s.group, w.residue_counts(), _support(s), min(w.length, s.length)))


def _sums_in_range(w: WeightSeq, s: GSequence, n: int, top: int, need: int) -> list[int]:
    """_sums_by_n for a pair, once the groups match and 1 <= n <= min(|W|, |S|)."""
    _check_pair(w, s)
    if not 1 <= n <= min(w.length, s.length):
        raise BadN(f"n={n} outside 1..min({w.length}, {s.length})")
    return _sums_by_n(s.group, w.residue_counts(), _support(s), top, need)


def sigma_n(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """All n-term weighted subsequence sums, exact.

    One knapsack pass (module docstring) over states of at most n items,
    pruned of those that can no longer reach n.
    """
    return GSet(s.group, _sums_in_range(w, s, n, n, n)[n])


def sigma_upto(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for 1 <= i <= n."""
    return GSet(s.group, reduce(or_, _sums_in_range(w, s, n, n, 0)[1:]))


def sigma_from(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for n <= i <= min(|W|, |S|)."""
    top = min(w.length, s.length)
    return GSet(s.group, reduce(or_, _sums_in_range(w, s, n, top, n)[n:]))


def sigma_all(w: WeightSeq, s: GSequence) -> GSet:
    """Union of sigma_i over every admissible i."""
    _check_pair(w, s)
    if w.length == 0 or s.length == 0:
        raise EmptySet("sigma_all needs nonempty weights and sequence")
    return GSet(s.group, reduce(or_, sigma_table(w, s)[1:]))


def w_dot(w: WeightSeq, s: GSequence) -> GSet:
    """Full-length weighted sumset: sigma_n at n = min(|W|, |S|)."""
    _check_pair(w, s)
    if w.length == 0 or s.length == 0:
        raise EmptySet("w_dot needs nonempty weights and sequence")
    return sigma_n(w, s, min(w.length, s.length))


def sums_by_count(s: GSequence) -> tuple[int, ...]:
    """Unweighted n-term subsequence sums for every n at once.

    Entry n of the returned bitmasks, n in [0, |S|], is the set of sums of
    n distinct slots of S (entry 0 is {0}): sigma_table with |S| unit weights.
    """
    unit = 1 % s.group.exponent  # a residue, as for any weight class
    return tuple(_sums_by_n(s.group, [(unit, s.length)], _support(s), s.length))


def _positional_wsum_bits(group: Group, pairs, dilate=None) -> int:
    """Bitmask of w_1*A_1 + ... + w_k*A_k over (weight, block bitmask) pairs.

    The one positional weighted sum: partition_wsum and the checkers in
    verify wrap it.  Needs k >= 1 nonempty blocks.  dilate(bits, w) stands
    in for group.dilate_mask, as a Setpartition's memo of it (its dilate)
    does.
    """
    dilate = dilate or group.dilate_mask
    acc = 0
    for w, bits in pairs:
        if not bits:
            raise EmptySet("positional weighted sum needs nonempty blocks")
        term = dilate(bits, w)
        acc = group.sum_masks(acc, term) if acc else term
    return acc


def partition_wsum(w: WeightSeq, partition: Setpartition) -> GSet:
    """w_1*A_1 + ... + w_n*A_n for a setpartition's blocks, positionally."""
    masks = partition.masks
    if w.length != len(masks):
        raise LengthMismatch(f"{w.length} weights vs {len(masks)} blocks")
    if not masks:
        raise EmptySet("partition has no blocks")
    group = partition.group
    return GSet(group, _positional_wsum_bits(group, zip(w.raw, masks)))
