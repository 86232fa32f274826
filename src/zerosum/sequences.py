"""Sequences over a group (finite multisets) and their setpartitions.

A sequence is a multiplicity vector over the element index space.  An
n-setpartition splits a sequence into n nonempty blocks each containing no
repeated element; one exists exactly when max-multiplicity <= n <= length,
and then block sizes can always be balanced to differ by at most one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import BadN, GroupMismatch, NoSetpartition, ParseError
from .groups import (
    Element,
    Group,
    _index_in,
    format_element,
    iter_mask,
    mask_to_indices,
    parse_element,
)
from .setsum import GSet

__all__ = [
    "GSequence",
    "Setpartition",
    "SeqStats",
    "sequence",
    "seq_from_indices",
    "parse_sequence",
    "format_sequence",
    "seq_stats",
    "has_setpartition",
    "balanced_setpartition",
    "enum_setpartitions",
]


@dataclass(frozen=True)
class GSequence:
    """A finite multiset of group elements, as a multiplicity vector."""

    group: Group
    mult: tuple[int, ...]
    # balanced_setpartition's partitions of this sequence, by block count
    _dealt: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # top count -> this sequence's side of the sigma DP (weighted._plan)
    _sigma: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.mult) != self.group.order:
            raise GroupMismatch("multiplicity vector length must equal the group order")
        if any(m < 0 for m in self.mult):
            raise ParseError("negative multiplicity")

    @cached_property
    def length(self) -> int:
        return sum(self.mult)

    def __len__(self) -> int:
        return self.length

    def multiplicity(self, g: Element) -> int:
        return self.mult[_index_in(self.group, g)]

    def support_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.mult) if m]

    def terms(self) -> list[int]:
        """All terms as indices, ascending, with multiplicity."""
        out = []
        for i, m in enumerate(self.mult):
            out.extend([i] * m)
        return out

    def translate(self, g: Element) -> "GSequence":
        gidx = _index_in(self.group, g)
        new = [0] * self.group.order
        for i, m in enumerate(self.mult):
            if m:
                new[self.group.index_add(i, gidx)] = m
        return GSequence(self.group, tuple(new))

    def is_subsequence_of(self, other: "GSequence") -> bool:
        return self.group == other.group and all(a <= b for a, b in zip(self.mult, other.mult))

    def __repr__(self) -> str:
        return format_sequence(self)


def sequence(group: Group, items) -> GSequence:
    """Build from (element, mult) pairs, elements, indices, or literal strings."""
    mult = [0] * group.order
    for item in items:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) and (
            isinstance(item[0], (Element, str)) or group.rank == 1
        ):
            g, m = item
        else:
            g, m = item, 1
        mult[_index_in(group, parse_element(group, g) if isinstance(g, str) else g)] += m
    return GSequence(group, tuple(mult))


def seq_from_indices(group: Group, indices) -> GSequence:
    """One term per index; indices are checked as sequence() checks them."""
    mult = [0] * group.order
    for i in indices:
        mult[_index_in(group, i)] += 1
    return GSequence(group, tuple(mult))


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return parts


def _literal_terms(parts, kind: str, text: str):
    """Yield (term, value text, multiplicity) for each ``x`` or ``x^m`` term
    of a literal already split into parts; kind names the literal in errors.
    Lazy, so each term's errors come before the next term is read."""
    for part in parts:
        part = part.strip()
        if not part:
            raise ParseError(f"empty term in {kind} literal {text!r}")
        value, caret, m = part.rpartition("^")
        if not caret:
            yield part, part, 1
            continue
        try:
            m = int(m)
        except ValueError as exc:
            raise ParseError(f"bad multiplicity in {part!r}") from exc
        if m < 0:
            raise ParseError(f"negative multiplicity in {part!r}")
        yield part, value, m


def parse_sequence(group: Group, text: str) -> GSequence:
    """Parse ``0^3,1^3,2^3`` (or ``(0,1)^2,...`` for rank >= 2) into a sequence."""
    mult = [0] * group.order
    for _, elt_text, m in _literal_terms(_split_top_level(text.strip()), "sequence", text):
        mult[parse_element(group, elt_text).index] += m
    return GSequence(group, tuple(mult))


def format_sequence(seq: GSequence) -> str:
    parts = [
        f"{format_element(seq.group.element_from_index(i))}^{m}"
        for i, m in enumerate(seq.mult)
        if m
    ]
    return ",".join(parts)


@dataclass(frozen=True)
class SeqStats:
    length: int
    max_multiplicity: int
    support: GSet
    total: Element  # sum of all terms


def seq_stats(seq: GSequence) -> SeqStats:
    bits = 0
    acc = 0
    group = seq.group
    for i, m in enumerate(seq.mult):
        if m:
            bits |= 1 << i
            acc = group.index_add(acc, group.index_scalar(m, i))
    return SeqStats(
        length=seq.length,
        max_multiplicity=max(seq.mult) if seq.length else 0,
        support=GSet(group, bits),
        total=group.element_from_index(acc),
    )


@dataclass(frozen=True)
class Setpartition:
    """Unordered blocks of distinct elements, each an index bitmask.

    masks are in canonical order, ascending by index list, so equal
    partitions are equal objects; blocks wraps each mask as a GSet on first
    use.
    """

    group: Group
    masks: tuple[int, ...]

    @cached_property
    def blocks(self) -> tuple[GSet, ...]:
        return tuple(GSet(self.group, m) for m in self.masks)

    @cached_property
    def dilate(self):
        """group.dilate_mask, memoized for as long as the partition lives,
        so the weighted block sums of its blocks under many weight tuples
        dilate each block once per weight.  A balanced partition lives on
        its sequence (balanced_setpartition), so its dilates serve every
        weight tuple checked against that sequence."""
        return lru_cache(maxsize=None)(self.group.dilate_mask)

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.masks]

    def as_sequence(self) -> GSequence:
        mult = [0] * self.group.order
        for m in self.masks:
            for i in iter_mask(m):
                mult[i] += 1
        return GSequence(self.group, tuple(mult))

    def __repr__(self) -> str:
        return "[" + " | ".join(repr(b) for b in self.blocks) + "]"


def _canonical_masks(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=mask_to_indices))


def has_setpartition(seq: GSequence, n: int) -> bool:
    """An n-setpartition exists iff max-multiplicity <= n <= |S|."""
    if n < 1:
        raise BadN(f"block count {n} < 1")
    if seq.length == 0:
        return False
    return max(seq.mult) <= n <= seq.length


def balanced_setpartition(seq: GSequence, n: int) -> Setpartition:
    """A deterministic n-setpartition with block sizes differing by at most one.

    The support is sorted by descending multiplicity (ties by element index)
    and its copies are dealt cyclically into n block masks.  A cyclic deal
    keeps the sizes within one, and the copies of one element, at most n
    and consecutive, land in distinct blocks.  The sequence object keeps the
    partitions dealt from it, so checks of many weight tuples against one
    sequence, as a sweep makes them, share one partition.
    """
    part = seq._dealt.get(n)
    if part is not None:
        return part
    if not has_setpartition(seq, n):
        raise NoSetpartition(
            f"no {n}-setpartition: need max multiplicity <= {n} <= length {seq.length}"
        )
    mult = seq.mult
    masks = [0] * n
    pos = 0
    for i in sorted(seq.support_indices(), key=lambda i: (-mult[i], i)):
        for _ in range(mult[i]):
            masks[pos] |= 1 << i
            pos = (pos + 1) % n
    part = seq._dealt[n] = Setpartition(seq.group, _canonical_masks(masks))
    return part


def enum_setpartitions(seq: GSequence, n: int, cap: int = 10_000):
    """Yield distinct n-setpartitions (up to block order), at most cap of them.

    Enumeration is exhaustive when the total count is within cap.  Block labels
    follow first appearance and copies of one element take strictly increasing
    labels; assignments that still collide (blocks tied on their first term)
    are deduplicated on the canonical mask tuple.
    """
    if not has_setpartition(seq, n):
        return
    terms = seq.terms()
    total = len(terms)
    masks = [0] * n

    def rec(pos: int, used: int, min_block_for_same: int):
        remaining = total - pos
        if remaining < n - used:
            return  # not enough terms left to make every block nonempty
        if pos == total:
            yield _canonical_masks(masks)
            return
        idx = terms[pos]
        bit = 1 << idx
        same_as_prev = pos > 0 and terms[pos - 1] == idx
        start = min_block_for_same if same_as_prev else 0
        limit = min(n, used + 1)  # next unused block only, in order
        for b in range(start, limit):
            masks[b] |= bit
            nxt_min = b + 1 if pos + 1 < total and terms[pos + 1] == idx else 0
            yield from rec(pos + 1, max(used, b + 1), nxt_min)
            masks[b] ^= bit

    seen: set[tuple[int, ...]] = set()
    try:
        for key in rec(0, 0, 0):
            if key in seen:
                continue
            if len(seen) >= cap:
                return
            seen.add(key)
            yield Setpartition(seq.group, key)
    finally:
        del rec  # it reaches itself through its closure; emptying the cell frees it at once
