"""Weighted subsequence sums: sigma_n and friends.

sigma_n(W, S, n) is the set of all sums of n terms of S, each multiplied by a
distinct slot of the integer weight sequence W.  Weights act through their
residues mod the group exponent, so they are canonicalized up front (raw
values retained).

The exact evaluator is one 0/1 knapsack over bitmasks, capped at a top
count n.  In the weight-side orientation a state counts the slots used in
each weight-residue class (at most min(m_j, n) each, at most n in all); the
DP walks the terms of S, each support element capped at n copies, and each
term x may join one class j with room, translating the state's sums by
r_j * x.  The sequence-side orientation swaps the roles: it walks the
weight slots and a state counts the copies used of each support element of
S.  The orientation with fewer states of at most n items runs (a choice
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

- a WeightSeq keeps, per top count, its capped residue classes and their
  state count (_sigma_plans), and its last weight-side walk: the terms it
  walked, the table after each and their running slot count
  (_sigma_walks).  The next call resumes from the longest prefix of terms
  it shares with that walk, which in a sweep (one WeightSeq against
  lex-ascending pooled sequences) is most of it.  Tables are kept only
  while they hold at most STATE_CAP slots in all.
- a GSequence keeps, per top count, its support, capped multiplicities,
  their state count and the weight-side walk of its terms (_sigma_plans).
- a Group keeps the weight-side layouts (_Layout: the key codes, field
  limits and per-term rotations), one per capped classes and top count,
  at most LAYOUT_CAP of them, so every WeightSeq of one shape and every
  sums_by_count call of one length share one.  A layout is never keyed by
  a sequence's support: a sequence-side layout is built for its call.

Per-object memos die with their object; the group's layouts are bounded
in number, and each holds at most one meta entry per state.
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
    # top count -> the weight side of the sigma DP there (_weight_plan)
    _sigma_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # top count -> the last weight-side walk there, which the next resumes
    # from (_sums_by_n): a sweep pairs one WeightSeq with each pooled S in turn
    _sigma_walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
LAYOUT_CAP = 64  # the most weight-side layouts a group keeps


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
    """The packed table's shape for one orientation's caps and top count.

    The packed class is the first one with the largest cap.  A key is the
    mixed-radix code of the counts of the other classes; meta[key] is (items
    used, the other classes with room left), filled in as keys are reached,
    so it holds at most one entry per state.  A value holds one |G|-bit
    field per count d of the packed class, and lim[u] keeps the fields
    d <= min(cap, top - u) of a key that uses u items.  moves[x] lists, per
    class, the field-wise rotations that translate by that class's shift
    for walk step x: at most |G| entries on the weight side, where x is a
    term, and exp(G) on the sequence side, where x is a weight residue.
    """

    def __init__(self, group: Group, caps: tuple[int, ...], top: int, shifts) -> None:
        self.group, self.top, self.shifts = group, top, shifts
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
        order, full = self.group.order, self.group.full_mask
        out = [0] * (self.top + 1)
        for c, mask in table.items():
            u = self.meta[c][0]
            while mask:
                out[u] |= mask & full
                mask >>= order
                u += 1
        return out


def _weight_plan(w: WeightSeq, top: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """w's side of the sigma DP at top, kept on w (WeightSeq._sigma_plans):
    its (residue, min(slots, top)) classes and their number of states."""
    plan = w._sigma_plans.get(top)
    if plan is None:
        classes = tuple((r, m if m < top else top) for r, m in w.residue_counts())
        count = _state_count(tuple(sorted(c for _, c in classes)), top)
        plan = w._sigma_plans[top] = (classes, count)
    return plan


def _seq_plan(s: GSequence, top: int) -> tuple[tuple[int, ...], tuple[int, ...], int,
                                               tuple[int, ...]]:
    """s's side of the sigma DP at top, kept on s (GSequence._sigma_plans):
    its support, each support element's min(copies, top), their number of
    states, and the weight-side walk (each support element, ascending, as
    many times as its capped copies)."""
    plan = s._sigma_plans.get(top)
    if plan is None:
        supp, caps, steps = [], [], []
        for g, m in enumerate(s.mult):
            if m:
                c = m if m < top else top
                supp.append(g)
                caps.append(c)
                steps += [g] * c
        count = _state_count(tuple(sorted(caps)), top)
        plan = s._sigma_plans[top] = (tuple(supp), tuple(caps), count, tuple(steps))
    return plan


def _weight_layout(group: Group, classes: tuple[tuple[int, int], ...], top: int) -> _Layout:
    """The group's one weight-side _Layout for these capped classes at top.
    The group keeps at most LAYOUT_CAP of them and starts over when full."""
    layouts = group.stored("sigma_layouts", dict)
    layout = layouts.get((classes, top))
    if layout is None:
        multiples, residues = group.multiples, [r for r, _ in classes]
        layout = _Layout(group, tuple(c for _, c in classes), top,
                         lambda g: [multiples[g][r] for r in residues])
        if len(layouts) >= LAYOUT_CAP:
            layouts.clear()
        layouts[classes, top] = layout
    return layout


def _sums_by_n(w: WeightSeq, s: GSequence, top: int, side: str | None = None) -> list[int]:
    """Per-count sum masks of w against s: entry k is the exact mask of
    k-term weighted sums, for every k <= top, from the packed table of the
    module docstring (_Layout).

    The set-up is read from the plans kept on w and s (_weight_plan,
    _seq_plan).  side forces an orientation ("weights" or "sequence"); by
    default the one with fewer states runs, the weight side on a tie.  Above
    STATE_CAP states CapExceeded is raised before any state is built.

    The weight side resumes from w's last walk at top (WeightSeq._sigma_walks):
    (layout, steps, kept, held), kept[i] being the table after steps[:i]
    and held[i] the key-field slots of kept[:i + 1].  A call resumes from the
    longest prefix of steps it shares with that walk, keeps its own tables
    while they hold at most STATE_CAP slots in all, and publishes its walk
    as one new tuple, so threads sharing w may lose each other's walks but
    never mix them.  The sequence side has no shared object to keep a walk
    on, so it starts fresh.
    """
    classes, wcount = _weight_plan(w, top)
    supp, scaps, scount, steps = _seq_plan(s, top)
    if side is None:
        side = "weights" if wcount <= scount else "sequence"
    _check_states(wcount if side == "weights" else scount)
    group = s.group
    if side == "sequence":
        if not supp:  # no terms, so top is 0
            return [1] + [0] * top
        multiples = group.multiples
        layout = _Layout(group, scaps, top, lambda r: [multiples[g][r] for g in supp])
        table = {0: 1}
        for r, c in classes:
            for _ in range(c):
                table = layout.step(table, r)
        return layout.by_count(table)
    if not classes:  # no weights, so top is 0
        return [1] + [0] * top
    walks = w._sigma_walks
    last = walks.get(top)
    if last is None:
        layout = _weight_layout(group, classes, top)
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
    walks[top] = (layout, steps[:len(kept) - 1], kept, held)
    return layout.by_count(table)


def sigma_table(w: WeightSeq, s: GSequence) -> tuple[int, ...]:
    """Bitmasks of sigma_n for n = 0..min(|W|, |S|) from one DP pass; entry 0 is {0}."""
    _check_pair(w, s)
    return tuple(_sums_by_n(w, s, min(w.length, s.length)))


def _sums_in_range(w: WeightSeq, s: GSequence, n: int, top: int) -> list[int]:
    """_sums_by_n for a pair, once the groups match and 1 <= n <= min(|W|, |S|)."""
    _check_pair(w, s)
    if not 1 <= n <= min(w.length, s.length):
        raise BadN(f"n={n} outside 1..min({w.length}, {s.length})")
    return _sums_by_n(w, s, top)


def sigma_n(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """All n-term weighted subsequence sums, exact.

    One knapsack pass (module docstring) over states of at most n items,
    resumed from the last walk of w at n where it can be.
    """
    return GSet(s.group, _sums_in_range(w, s, n, n)[n])


def sigma_upto(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for 1 <= i <= n."""
    return GSet(s.group, reduce(or_, _sums_in_range(w, s, n, n)[1:]))


def sigma_from(w: WeightSeq, s: GSequence, n: int) -> GSet:
    """Union of sigma_i for n <= i <= min(|W|, |S|)."""
    top = min(w.length, s.length)
    return GSet(s.group, reduce(or_, _sums_in_range(w, s, n, top)[n:]))


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
    layout = _weight_layout(s.group, ((1 % s.group.exponent, top),), top)
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
