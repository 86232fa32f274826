"""Subsets of a group with sumset algebra, stabilizers, progression and periodicity structure.

Sets are bitmasks over the element index space; sumsets are computed by
translating the larger operand by each element of the smaller one (shift-and-or
on whole words), never by element-pair loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import EmptySet, GroupMismatch, KneserViolation
from .groups import (
    SUBGROUP_CAP,
    Element,
    Group,
    Subgroup,
    _index_in,
    all_subgroups,
    format_element,
    mask_to_indices,
    parse_element,
)

__all__ = [
    "GSet",
    "StabilizerReport",
    "KneserReport",
    "ApWitness",
    "gset",
    "sumset",
    "iterated_sumset",
    "weighted_dilate",
    "stabilizer",
    "detect_ap",
    "kneser_audit",
]


@dataclass(frozen=True)
class GSet:
    """A subset of a group, stored as an index bitmask."""

    group: Group
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits > self.group.full_mask:
            raise GroupMismatch("bitmask outside the group's index space")

    @cached_property
    def size(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, g: Element) -> bool:
        return bool((self.bits >> _index_in(self.group, g)) & 1)

    def contains_index(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def indices(self) -> list[int]:
        return mask_to_indices(self.bits)

    def elements(self) -> list[Element]:
        return [self.group.element_from_index(i) for i in self.indices()]

    def translate(self, g: Element) -> "GSet":
        return GSet(self.group, self.group.translate_mask(self.bits, _index_in(self.group, g)))

    def is_empty(self) -> bool:
        return self.bits == 0

    def __or__(self, other: "GSet") -> "GSet":
        _check_same_group(self, other)
        return GSet(self.group, self.bits | other.bits)

    def __and__(self, other: "GSet") -> "GSet":
        _check_same_group(self, other)
        return GSet(self.group, self.bits & other.bits)

    def __repr__(self) -> str:
        inner = ",".join(format_element(g) for g in self.elements())
        return "{" + inner + "}"


def gset(group: Group, elements) -> GSet:
    """Build a GSet from elements, indices, or literal strings."""
    bits = 0
    for g in elements:
        bits |= 1 << _index_in(group, parse_element(group, g) if isinstance(g, str) else g)
    return GSet(group, bits)


def _check_same_group(a: GSet, b: GSet) -> None:
    if a.group != b.group:
        raise GroupMismatch("sets over different groups")


def sumset(a: GSet, b: GSet) -> GSet:
    """A + B = {x + y : x in A, y in B}."""
    _check_same_group(a, b)
    if a.is_empty() or b.is_empty():
        raise EmptySet("sumset needs nonempty operands")
    return GSet(a.group, a.group.sum_masks(a.bits, b.bits))


def iterated_sumset(sets) -> GSet:
    sets = list(sets)
    if not sets:
        raise EmptySet("need at least one set")
    return reduce(sumset, sets)


def weighted_dilate(w: int, a: GSet) -> GSet:
    """w * A = {w*x : x in A}; collapses when w is not a unit mod the exponent."""
    if a.is_empty():
        raise EmptySet("dilate needs a nonempty set")
    return GSet(a.group, a.group.dilate_mask(a.bits, w))


@dataclass(frozen=True)
class StabilizerReport:
    """H(A) together with periodicity structure.

    quasi_period is the smallest nontrivial subgroup H for which A splits as
    A0 u A1 with A0 a nonempty union of full H-cosets and A1 contained in a
    single H-coset (A1 may be empty); None when no such H exists.
    """

    stabilizer: Subgroup
    periodic: bool
    quasi_period: Subgroup | None
    a0: GSet | None
    a1: GSet | None


def _quasi_split(bits: int, sub: Subgroup) -> tuple[int, int] | None:
    """Split bits into (full H-cosets, remainder in one H-coset), or None."""
    full = 0
    partial_cosets = 0
    for _, coset in sub.cosets:
        part = bits & coset
        if part == coset:
            full |= coset
        elif part:
            partial_cosets += 1
            if partial_cosets > 1:
                return None
    if full == 0:
        return None
    return full, bits & ~full


def _period(a: GSet) -> Subgroup:
    """H(A) = {g : g + A = A}, from one translate per element; no lattice."""
    group = a.group
    mask = 0
    for g in range(group.order):
        if group.translate_mask(a.bits, g) == a.bits:
            mask |= 1 << g
    return group.subgroup(mask)


def stabilizer(a: GSet, cap: int = SUBGROUP_CAP) -> StabilizerReport:
    """Compute H(A) = {g : g + A = A} plus quasi-periodicity structure.

    The quasi-period search reads the subgroup lattice under `cap`, raising
    CapExceeded when the lattice is larger.
    """
    if a.is_empty():
        raise EmptySet("stabilizer of the empty set")
    group = a.group
    stab = _period(a)
    periodic = stab.order > 1

    quasi = None
    a0 = a1 = None
    for sub in all_subgroups(group, cap=cap):
        if sub.order == 1:
            continue
        split = _quasi_split(a.bits, sub)
        if split is not None:
            quasi = sub
            a0 = GSet(group, split[0])
            a1 = GSet(group, split[1])
            break
    return StabilizerReport(stabilizer=stab, periodic=periodic, quasi_period=quasi, a0=a0, a1=a1)


@dataclass(frozen=True)
class ApWitness:
    """A = {start + k*diff : 0 <= k < length}."""

    start: Element
    diff: Element
    length: int


def _ap_differences(a: GSet) -> set[int]:
    """Every nonzero d such that A is a progression with difference d.

    A qualifies for d when it sits inside one coset of the cyclic group
    generated by d and its positions along the d-cycle form a contiguous arc.
    A set can qualify for several unrelated differences (wrap-around
    progressions in small groups), so conclusions about a shared difference
    must intersect these sets rather than compare single canonical forms.
    """
    group = a.group
    idxs = a.indices()
    k = len(idxs)
    out: set[int] = set()
    for d in range(1, group.order):
        o = group.index_order(d)
        if k > o:
            continue
        pos = {}
        cur = idxs[0]
        for t in range(o):
            pos[cur] = t
            cur = group.index_add(cur, d)
        if any(i not in pos for i in idxs):
            continue
        ps = sorted(pos[i] for i in idxs)
        breaks = sum(1 for j in range(k) if (ps[(j + 1) % k] - ps[j]) % o != 1)
        if breaks <= 1:
            out.add(d)
    return out


def detect_ap(a: GSet) -> ApWitness | None:
    """Arithmetic-progression recognition with a canonical witness.

    The difference is the least index _ap_differences finds, and the start
    the one element of A outside A + d, from which the progression ascends
    by d; when A is a whole coset of <d> the start is its least index.  A
    single element is the progression of length 1 with difference 0.
    """
    if a.is_empty():
        raise EmptySet("detect_ap on the empty set")
    group = a.group
    if a.size == 1:
        return ApWitness(group.element_from_index(a.indices()[0]), group.zero, 1)
    diffs = _ap_differences(a)
    if not diffs:
        return None
    d = min(diffs)
    head = a.bits & ~group.translate_mask(a.bits, d) or a.bits  # a coset of <d> has no head
    start = (head & -head).bit_length() - 1
    return ApWitness(group.element_from_index(start), group.element_from_index(d), a.size)


@dataclass(frozen=True)
class KneserReport:
    stabilizer: Subgroup
    lhs: int  # |phi_H(A_1) + ... + phi_H(A_n)|
    rhs: int  # sum |phi_H(A_i)| - n + 1


def kneser_audit(sets) -> KneserReport:
    """Sanity oracle: with H = H(sum of the sets), the projected sumset must
    have size >= sum of projected sizes - n + 1.  A violation is a bug.

    H-cosets are counted from masks, with no quotient built: |phi_H(X)| is
    |X + H| / |H|, and the sum is already a union of H-cosets."""
    sets = list(sets)
    if not sets:
        raise EmptySet("kneser_audit needs at least one set")
    total = iterated_sumset(sets)
    group = total.group
    sub = _period(total)
    lhs = total.size // sub.order
    rhs = sum(group.sum_masks(s.bits, sub.mask).bit_count() // sub.order for s in sets)
    rhs -= len(sets) - 1
    if lhs < rhs:
        raise KneserViolation(f"projected sumset size {lhs} below bound {rhs}")
    return KneserReport(stabilizer=sub, lhs=lhs, rhs=rhs)
