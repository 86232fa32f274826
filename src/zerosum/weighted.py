"""Weighted subsequence sums: sigma_n and friends.

sigma_n(W, S, n) is the set of all sums of n terms of S, each multiplied by a
distinct slot of the integer weight sequence W.  Weights act through their
residues mod the group exponent, so they are canonicalized up front (raw
values retained).

The exact evaluator is one 0/1 knapsack over bitmasks, capped at a top
count n.  Its two orientations are one DP with the roles swapped: one side
gives the classes, the other gives the steps.  On the weight side the
classes are W's residues r (at most min(slots, n) items each) and the steps
are the terms of S; on the sequence side the classes are the support
elements g of S (at most min(copies, n) each) and the steps are W's
residues.  A state counts the items used per class, at most n in all, and a
step may join one class with room, translating the state's sums by r*g.
The side with fewer states of at most n items gives the classes (a choice
made from the input's shape alone); above STATE_CAP states CapExceeded is
raised before any is built.

The table is packed: it is keyed by the counts of every class but the one
with the largest cap, and each value is one int holding a |G|-bit field of
sums for each count d of that packed class.  A walk step translates each
value field-wise (Group.field_translations) and shifts it up one field for
the packed class, and translates it field-wise into the next key for each
other class with room.  No state is pruned, so every count's entry is
exact.  sigma_n reads count n; sigma_table keeps every count, and
sums_by_count is its unit-weight case.

A call's set-up is derived once, on the object it depends on:

- a WeightSeq and a GSequence each keep, per top count, their side of the
  DP (_plan, in their _sigma field): their capped classes, the classes'
  state count, the steps they give the other side, and the last walk in
  which they gave the classes: the steps walked, the table after each and
  their running slot count.  The next call resumes from the longest prefix
  of steps it shares with that walk, which in a sweep (one WeightSeq
  against lex-ascending pooled sequences, or one S against each weight
  tuple) is most of it.  Tables are kept only while they hold at most
  STATE_CAP slots in all.
- a Group keeps the layouts (_Layout: the key codes, field limits and
  per-step rotations), one per side, capped classes and top count, so
  every object of one shape and every sums_by_count call of one length
  share one.

Per-object memos die with their object.  Each layout holds at most one meta
entry per state, and the group starts its layouts over before adding one
when it keeps LAYOUT_CAP of them or they hold more than STATE_CAP states.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import gcd
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
    # top count -> this weight sequence's side of the sigma DP (_plan)
    _sigma: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def _residue_counts(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(Counter(self.residues).items()))

    def residue_counts(self) -> tuple[tuple[int, int], ...]:
        """(residue, multiplicity) pairs, ascending by residue."""
        return self._residue_counts

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
LAYOUT_CAP = 64  # the most sigma DP layouts a group keeps


def _check_pair(w: WeightSeq, s: GSequence) -> None:
    if w.group != s.group:
        raise GroupMismatch("weights and sequence over different groups")


def _check_states(count: int) -> None:
    if count > STATE_CAP:
        raise CapExceeded(f"sigma DP needs {count} states, above {STATE_CAP}")


def _bounded_poly(caps: tuple[int, ...], top: int) -> list[int]:
    """The coefficients of x^0 .. x^top in prod_j (1 + x + ... + x^caps[j]):
    entry t counts the vectors 0 <= c <= caps with sum(c) == t."""
    poly = [1] + [0] * top
    for cap in caps:
        acc, prev, poly = 0, poly, []
        for i in range(top + 1):
            acc += prev[i] - (prev[i - cap - 1] if i > cap else 0)
            poly.append(acc)
    return poly


@lru_cache(maxsize=4096)
def _state_count(caps: tuple[int, ...], top: int) -> int:
    """#{0 <= c <= caps : sum(c) <= top}."""
    return sum(_bounded_poly(caps, top))


class _Layout:
    """The packed table's shape for one side's capped classes and top count.

    The packed class is the first one with the largest cap.  A key is the
    mixed-radix code of the counts of the other classes; meta[key] is (items
    used, the other classes with room left), filled in as keys are reached,
    so it holds at most one entry per state.  A value holds one |G|-bit
    field per count d of the packed class, and lim[u] keeps the fields
    d <= min(cap, top - u) of a key that uses u items.  moves[x] lists, per
    class, the field-wise rotations that translate by step x joining it:
    by multiples[x][r] when x is a term joining residue r (the weight side),
    by multiples[g][x] when x is a residue joining support element g.
    """

    def __init__(self, group: Group, classes: tuple[tuple[int, int], ...], top: int,
                 side: str) -> None:
        multiples, keys = group.multiples, [k for k, _ in classes]
        if side == "weights":
            self.shifts = lambda x: [multiples[x][r] for r in keys]
        else:
            self.shifts = lambda x: [multiples[g][x] for g in keys]
        caps = [c for _, c in classes]
        self.group, self.top = group, top
        self.packed = packed = caps.index(max(caps))
        self.fields = caps[packed] + 1
        self.lim = [(1 << (min(caps[packed], top - u) + 1) * group.order) - 1
                    for u in range(top + 1)]
        rest = [j for j in range(len(caps)) if j != packed]
        self.caps, self.strides, stride = caps, [0] * len(caps), 1
        for j in rest:
            self.strides[j], stride = stride, stride * (caps[j] + 1)
        self.meta = {0: (0, tuple(rest))}
        self.moves: dict = {}
        self.translations = group.field_translations(self.fields)

    def step(self, table: dict, x: int) -> dict:
        """The table after one more item x, which joins at most one class with
        room: the packed class by a field-wise translate and a shift to the
        next field, any other class by a field-wise translate to the next key."""
        moves = self.moves.get(x)
        if moves is None:
            moves = self.moves[x] = [self.translations[g] for g in self.shifts(x)]
        top, order, lim, meta = self.top, self.group.order, self.lim, self.meta
        caps, strides = self.caps, self.strides
        new = dict(table)
        for c, mask in table.items():
            u, room = meta[c]
            if u == top:
                continue
            t = mask
            for low, high, k, back in moves[self.packed]:
                t = ((t & low) << k) | ((t & high) >> back)
            new[c] |= (t << order) & lim[u]
            for j in room:
                t = mask
                for low, high, k, back in moves[j]:
                    t = ((t & low) << k) | ((t & high) >> back)
                key = c + strides[j]
                if key not in meta:
                    full = (key // strides[j]) % (caps[j] + 1) == caps[j]
                    meta[key] = (u + 1, () if u + 1 == top else
                                 tuple(i for i in room if i != j) if full else room)
                new[key] = new.get(key, 0) | (t & lim[u + 1])
        return new

    def by_count(self, table: dict) -> list[int]:
        """The table's sums per count: entry k holds every key's field k - u."""
        order, full = self.group.order, self.group.full_mask
        out = [0] * (self.top + 1)
        for c, mask in table.items():
            u = self.meta[c][0]
            while mask:
                out[u] |= mask & full
                mask >>= order
                u += 1
        return out

    def at_count(self, table: dict, n: int) -> int:
        """by_count(table)[n] alone: field n - u of each key using u <= n items."""
        order, full, fields, meta = self.group.order, self.group.full_mask, self.fields, self.meta
        out = 0
        for c, mask in table.items():
            d = n - meta[c][0]
            if 0 <= d < fields:
                out |= (mask >> d * order) & full
        return out


def _plan(obj, pairs, top: int) -> list:
    """obj's side of the sigma DP at top, kept on obj (its _sigma field) from
    its (key, count) pairs, ascending by key: [classes, state count, steps,
    last walk].  The classes are (key, min(count, top)) for each key with a
    count, the state count is theirs, the steps list each key, ascending,
    min(count, top) times, and the last walk is the one in which obj gave
    the classes (_sums_by_n), None until there is one.  The tuples are built
    from lists: tuple() of a generator left more memory held in a sweep."""
    plan = obj._sigma.get(top)
    if plan is None:
        classes, caps, steps = [], [], []
        for k, m in pairs:
            if m:
                c = m if m < top else top
                classes.append((k, c))
                caps.append(c)
                steps += [k] * c
        caps.sort()
        plan = obj._sigma[top] = [tuple(classes), _state_count(tuple(caps), top),
                                  tuple(steps), None]
    return plan


def _layout(group: Group, classes: tuple[tuple[int, int], ...], top: int, side: str) -> _Layout:
    """The group's one _Layout for these capped classes on this side at top.
    The side is part of the key: step x joins class k by multiples[x][k] on
    the weight side and by multiples[k][x] on the sequence side, which on a
    group of rank >= 2 differ.  The group starts over before it adds a
    layout once it keeps LAYOUT_CAP of them or their states (meta entries)
    pass STATE_CAP in all."""
    layouts = group.stored("sigma_layouts", dict)
    key = (side, classes, top)
    layout = layouts.get(key)
    if layout is None:
        layout = _Layout(group, classes, top, side)
        if (len(layouts) >= LAYOUT_CAP
                or sum(len(kept.meta) for kept in layouts.values()) > STATE_CAP):
            layouts.clear()
        layouts[key] = layout
    return layout


def _orient(w: WeightSeq, s: GSequence, top: int, side: str | None = None) -> tuple[str, list, list]:
    """The orientation of the sigma DP of w against s at top: (side, the
    plan giving the classes, the plan giving the steps) (_plan).  side
    forces it ("weights" or "sequence"); by default the side with fewer
    states gives the classes, the weight side on a tie."""
    wplan, splan = _plan(w, w.residue_counts(), top), _plan(s, enumerate(s.mult), top)
    if side is None:
        side = "weights" if wplan[1] <= splan[1] else "sequence"
    return (side, wplan, splan) if side == "weights" else (side, splan, wplan)


def _within_cap(w: WeightSeq, s: GSequence, top: int) -> bool:
    """Whether _sums_by_n(w, s, top) in its default orientation builds its
    states rather than raise CapExceeded.  That orientation (_orient) takes
    the side with fewer states, so either side within STATE_CAP will do, and
    S's plan is read only when the weight side's is above it."""
    return (_plan(w, w.residue_counts(), top)[1] <= STATE_CAP
            or _plan(s, enumerate(s.mult), top)[1] <= STATE_CAP)


def _walk(w: WeightSeq, s: GSequence, top: int, side: str | None = None) -> tuple[_Layout, dict]:
    """The packed table of the module docstring (_Layout) for w against s at
    top, with its layout: its fields hold the exact k-term weighted sums for
    every k <= top.  w and s are not empty.

    The set-up is read from the plans kept on w and s (_plan), in the
    orientation _orient gives, side forcing it.  The classes side's plan
    gives the classes, their state count and the last walk, and the other
    side's plan gives the steps.  Above STATE_CAP states CapExceeded is
    raised before any state is built.

    A walk is (layout, steps, kept, held), kept[i] being the table after
    steps[:i] and held[i] the key-field slots of kept[:i + 1].  A call
    resumes from the longest prefix of steps it shares with the last walk,
    keeps its own tables while they hold at most STATE_CAP slots in all, and
    publishes its walk as one new tuple, so threads sharing w or s may lose
    each other's walks but never mix them.
    """
    side, plan, other = _orient(w, s, top, side)
    classes, count, _, last = plan
    _check_states(count)
    steps = other[2]
    if last is None:
        layout = _layout(s.group, classes, top, side)
        done, kept, held = (), [{0: 1}], [layout.fields]
    else:
        layout, done, kept, held = last
    p = 0
    for a, b in zip(done, steps):
        if a != b:
            break
        p += 1
    kept, held = kept[:p + 1], held[:p + 1]
    table, total = kept[p], held[p]
    for x in steps[p:]:
        table = layout.step(table, x)
        total += layout.fields * len(table)
        if total <= STATE_CAP:
            kept.append(table)
            held.append(total)
    plan[3] = (layout, steps[:len(kept) - 1], kept, held)
    return layout, table


def _sums_by_n(w: WeightSeq, s: GSequence, top: int, side: str | None = None) -> list[int]:
    """Per-count sum masks of w against s: entry k is the exact mask of
    k-term weighted sums, for every k <= top (_walk)."""
    if not (w.length and s.length):  # the empty sum alone
        return [1] + [0] * top
    layout, table = _walk(w, s, top, side)
    return layout.by_count(table)


def sigma_table(w: WeightSeq, s: GSequence) -> tuple[int, ...]:
    """Bitmasks of sigma_n for n = 0..min(|W|, |S|) from one DP pass; entry 0 is {0}."""
    _check_pair(w, s)
    return tuple(_sums_by_n(w, s, min(w.length, s.length)))


def _check_range(w: WeightSeq, s: GSequence, n: int) -> None:
    """The groups match and 1 <= n <= min(|W|, |S|)."""
    _check_pair(w, s)
    if not 1 <= n <= min(w.length, s.length):
        raise BadN(f"n={n} outside 1..min({w.length}, {s.length})")


def sigma_n(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """All n-term weighted subsequence sums, exact.

    One knapsack pass (module docstring) over states of at most n items,
    resumed from the last walk of w at n where it can be; only count n is
    read from the final table.
    """
    _check_range(w, s, n)
    layout, table = _walk(w, s, n)
    return GSet(s.group, layout.at_count(table, n))


def sigma_upto(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for 1 <= i <= n."""
    _check_range(w, s, n)
    return GSet(s.group, reduce(or_, _sums_by_n(w, s, n)[1:]))


def sigma_from(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for n <= i <= min(|W|, |S|)."""
    _check_range(w, s, n)
    return GSet(s.group, reduce(or_, _sums_by_n(w, s, min(w.length, s.length))[n:]))


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
    Those form one class with |S| + 1 states, and any sequence side has at
    least that many, so the weight side runs, on the group's layout for |S|.
    """
    top = s.length
    _check_states(top + 1)
    layout = _layout(s.group, ((1 % s.group.exponent, top),), top, "weights")
    table = {0: 1}
    for x in s.terms():
        table = layout.step(table, x)
    return tuple(layout.by_count(table))


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
