"""Weighted subsequence sums: sigma_n and friends.

sigma_n(W, S, n) is the set of all sums of n terms of S, each multiplied by a
distinct slot of the integer weight sequence W.  Weights act through their
residues mod the group exponent, so they are canonicalized up front (raw
values retained).  The core evaluator is a memoized recursion over distinct
weight residues whose state is the residual multiplicity vector of supp(S).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import BadN, EmptySet, GroupMismatch, LengthMismatch, ParseError
from .sequences import GSequence, Setpartition
from .setsum import GSet
from .groups import Group

__all__ = [
    "WeightSeq",
    "weight_seq",
    "unit_weights",
    "parse_weights",
    "format_weights",
    "sigma_n",
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
    return WeightSeq(group, tuple(int(w) for w in weights))


def unit_weights(group: Group, k: int) -> WeightSeq:
    return WeightSeq(group, (1,) * k)


def parse_weights(group: Group, text: str) -> WeightSeq:
    """Parse ``1^2,-1^2,0^1`` into a weight sequence (negatives allowed)."""
    raw: list[int] = []
    for part in text.strip().split(","):
        part = part.strip()
        if not part:
            raise ParseError(f"empty term in weight literal {text!r}")
        if "^" in part:
            val_text, _, mult_text = part.rpartition("^")
            try:
                m = int(mult_text)
            except ValueError as exc:
                raise ParseError(f"bad multiplicity in {part!r}") from exc
            if m < 0:
                raise ParseError(f"negative multiplicity in {part!r}")
        else:
            val_text, m = part, 1
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


def _check_pair(w: WeightSeq, s: GSequence) -> None:
    if w.group != s.group:
        raise GroupMismatch("weights and sequence over different groups")


def sigma_n(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """All n-term weighted subsequence sums, exact.

    Distinct weight residues are consumed one class at a time; the memo state
    is (class position, residual multiplicities of supp(S)).  The zero residue
    class is processed last so its term choice degenerates to a feasibility
    count.
    """
    _check_pair(w, s)
    if not 1 <= n <= min(w.length, s.length):
        raise BadN(f"n={n} outside 1..min({w.length}, {s.length})")
    group = s.group

    classes = w.residue_counts()
    zero = [c for c in classes if c[0] == 0]
    classes = [c for c in classes if c[0] != 0] + zero
    k = len(classes)

    supp = s.support_indices()
    start = tuple(s.mult[i] for i in supp)
    nsupp = len(supp)

    # suffix_cap[j] = total weight slots available in classes j..k-1
    suffix_cap = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        suffix_cap[j] = suffix_cap[j + 1] + classes[j][1]

    index_add = group.index_add
    index_scalar = group.index_scalar
    translate = group.translate_mask

    memo: dict[tuple, int] = {}

    def rec(j: int, residual: tuple[int, ...], need: int) -> int:
        if need == 0:
            return 1  # the singleton {0}
        if j == k:
            return 0
        key = (j, need, residual)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res, m = classes[j]
        avail = sum(residual)
        lo = max(0, need - suffix_cap[j + 1])
        hi = min(m, need, avail)
        out = 0
        if res == 0:
            # zero class sits last; which terms it eats never matters
            if lo <= need <= hi:
                out = 1
        else:
            # enumerate submultisets of the residual of each admissible size
            def pick(pos: int, left: int, acc_idx: int, partial: list[int]):
                nonlocal out
                if left == 0:
                    child = rec(j + 1, tuple(partial) + residual[pos:], need - a)
                    if child:
                        out |= translate(child, index_scalar(res, acc_idx))
                    return
                if pos == nsupp:
                    return
                tail = sum(residual[pos:])
                if tail < left:
                    return
                g = supp[pos]
                top = min(residual[pos], left)
                for t in range(top + 1):
                    partial.append(residual[pos] - t)
                    pick(
                        pos + 1,
                        left - t,
                        index_add(acc_idx, index_scalar(t, g)) if t else acc_idx,
                        partial,
                    )
                    partial.pop()

            for a in range(lo, hi + 1):
                if a == 0:
                    child = rec(j + 1, residual, need)
                    if child:
                        out |= child
                    continue
                pick(0, a, 0, [])
        memo[key] = out
        return out

    bits = rec(0, start, n)
    return GSet(group, bits)


def sigma_upto(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for 1 <= i <= n."""
    _check_pair(w, s)
    if not 1 <= n <= min(w.length, s.length):
        raise BadN(f"n={n} outside 1..min({w.length}, {s.length})")
    bits = 0
    for i in range(1, n + 1):
        bits |= sigma_n(w, s, i).bits
    return GSet(s.group, bits)


def sigma_from(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for n <= i <= min(|W|, |S|)."""
    _check_pair(w, s)
    top = min(w.length, s.length)
    if not 1 <= n <= top:
        raise BadN(f"n={n} outside 1..{top}")
    bits = 0
    for i in range(n, top + 1):
        bits |= sigma_n(w, s, i).bits
    return GSet(s.group, bits)


def sigma_all(w: WeightSeq, s: GSequence) -> GSet:
    """Union of sigma_i over every admissible i."""
    _check_pair(w, s)
    if w.length == 0 or s.length == 0:
        raise EmptySet("sigma_all needs nonempty weights and sequence")
    return sigma_upto(w, s, min(w.length, s.length))


def w_dot(w: WeightSeq, s: GSequence) -> GSet:
    """Full-length weighted sumset: sigma_n at n = min(|W|, |S|)."""
    _check_pair(w, s)
    if w.length == 0 or s.length == 0:
        raise EmptySet("w_dot needs nonempty weights and sequence")
    return sigma_n(w, s, min(w.length, s.length))


def sums_by_count(s: GSequence) -> tuple[int, ...]:
    """Unweighted n-term subsequence sums for every n at once.

    Returns a tuple of bitmasks indexed by n in [0, |S|]; entry n is the set
    of sums of n distinct slots of S.  Entry 0 is {0}.
    """
    group = s.group
    table = [0] * (s.length + 1)
    table[0] = 1
    filled = 0
    for idx in s.terms():
        for k in range(filled, -1, -1):
            if table[k]:
                table[k + 1] |= group.translate_mask(table[k], idx)
        filled += 1
    return tuple(table)


def _positional_wsum_bits(group: Group, pairs) -> int:
    """Bitmask of w_1*A_1 + ... + w_k*A_k over (weight, block bitmask) pairs.

    The one positional weighted sum: partition_wsum and the checkers in
    verify wrap it.  Needs k >= 1 nonempty blocks.
    """
    acc = 0
    for w, bits in pairs:
        if not bits:
            raise EmptySet("positional weighted sum needs nonempty blocks")
        term = group.dilate_mask(bits, w)
        acc = group.sum_masks(acc, term) if acc else term
    return acc


def partition_wsum(w: WeightSeq, partition: Setpartition) -> GSet:
    """w_1*A_1 + ... + w_n*A_n for a setpartition's blocks, positionally."""
    blocks = partition.blocks
    if w.length != len(blocks):
        raise LengthMismatch(f"{w.length} weights vs {len(blocks)} blocks")
    if not blocks:
        raise EmptySet("partition has no blocks")
    group = blocks[0].group
    return GSet(group, _positional_wsum_bits(
        group, [(wi, block.bits) for wi, block in zip(w.raw, blocks)]))
