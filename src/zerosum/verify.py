"""Statement registry and verification engine.

Every registered statement is a pair of executable predicates: a hypothesis
and a conclusion over a concrete instance (group, sequence, weights, extras).
STATEMENTS holds one Statement record per StatementId: its checker, the
anchor text its reports carry, its sweep planner (None when it takes explicit
instances only), the predicate that flags verdicts for the report, and
whether its domain is sampled.  A weights-cross-sequences statement
states its hypotheses once, as an ordered tuple of Clause records: its
checker runs them in order and its planner keeps the weight tuples that
meet those not reading S.  check_instance evaluates one instance
exactly; sweep plans a finite instance domain as counted shards, each
factory yielding its keyed instances in check order, and tallies the
verdicts shard by shard, keeping only failures and flagged pairs, with
deterministic output.  Every instance a sweep decides goes through
check_instance.  A sequence row's shard is one (G, |W|), all of its weight
tuples in at most two legs that share their sequence pools, generated as
they are walked, sequence by sequence, so that what the checkers memoize
per S serves every weight tuple checked on it.  On the rows whose verdict
is constant on each orbit of (W, S) -> (uW, phi(S) + t), u a unit and phi
in Aut(G), one pair per orbit is checked, and its verdict counts for the
orbit where it is every member's.

The setpartition searches share one walk over subsequences, setpartitions
and weight assignments, bounded by a Budget built from SearchCaps.  A cap
that runs out never gives a wrong verdict: the walk moves on past it, and a
search that then finds no witness is undecided_capped with a reason naming
the cap; check_instance turns a cap error raised anywhere below it (a
subgroup lattice, the exact sigma_n kernel or D(G) above its cap) into that.
"""

from __future__ import annotations

import enum
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, chain, combinations, combinations_with_replacement, repeat
from math import comb, gcd, prod
from operator import itemgetter, or_
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import (
    CapExceeded,
    DomainTooLarge,
    GroupMismatch,
    GroupTooLarge,
    MissingField,
)
from .groups import (
    SUBGROUP_CAP,
    Element,
    Group,
    Subgroup,
    _index_in,
    _is_prime,
    all_subgroups,
    format_element,
    format_group,
    interned_group,
    mask_to_indices,
    subgroup_generated,
)
from .invariants import DAVENPORT_CAP, davenport, dstar, dstar_of_factors, ell
from .sequences import (
    GSequence,
    Setpartition,
    balanced_setpartition,
    enum_setpartitions,
    format_sequence,
)
from .setsum import GSet, _ap_differences, _period, gset, iterated_sumset, stabilizer, sumset
from .verdict import Status, Verdict
from .weighted import (
    WeightSeq,
    _bounded_poly,
    _positional_wsum_bits,
    _within_cap,
    format_weights,
    sigma_n,
    sigma_table,
    sums_by_count,
    weight_seq,
)

__all__ = [
    "StatementId",
    "Statement",
    "STATEMENTS",
    "Instance",
    "SearchCaps",
    "SetpartitionWitness",
    "SweepDomain",
    "SweepReport",
    "check_instance",
    "sweep",
    "statement_anchor",
    "sweepable_statements",
    "coset_condition",
    "contained_subgroup",
    "example1_instance",
    "example2_instance",
    "witness_search_setpartition",
    "check_max_subgroup_dichotomy",
    "check_self_duality",
    "check_ap_structure",
    "make_setpartition_witness",
    "instance_to_dict",
    "verdict_to_dict",
    "report_to_json",
    "report_to_csv",
]


class StatementId(str, enum.Enum):
    """Identifiers for the registered statements."""

    EX1 = "EX1"
    EX2 = "EX2"
    THM_GAO_COSET = "THM_GAO_COSET"
    THM_WEGZ = "THM_WEGZ"
    CONJ_HAMIDOUNE = "CONJ_HAMIDOUNE"
    CONJ_ORDAZ_QUIROZ = "CONJ_ORDAZ_QUIROZ"
    THM_HAM_CHAR = "THM_HAM_CHAR"
    LEM_DSTAR_SUBADD = "LEM_DSTAR_SUBADD"
    LEM_SPLIT = "LEM_SPLIT"
    PROP_DUAL = "PROP_DUAL"
    PROP_ALIGN = "PROP_ALIGN"
    THM_SETPART_WITNESS = "THM_SETPART_WITNESS"
    THM_SETPART_MAXK = "THM_SETPART_MAXK"
    PROP_PIGEONHOLE = "PROP_PIGEONHOLE"
    COR_GAO_DSTAR = "COR_GAO_DSTAR"
    COR_SPUD = "COR_SPUD"
    LEM_DAVID = "LEM_DAVID"
    COR_SPECIALCASE = "COR_SPECIALCASE"
    COR_HAM_VAR = "COR_HAM_VAR"
    AP_STRUCT = "AP_STRUCT"


@dataclass(frozen=True)
class Instance:
    """One concrete test case for a statement.

    seq/weights/n cover the common shape; anything statement-specific
    (subgroups, subsets, base points, certificates) rides in extra.
    """

    group: Group
    seq: GSequence | None = None
    weights: WeightSeq | None = None
    n: int | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SearchCaps:
    """Budgets for the search-bounded checkers.

    davenport caps the group order davenport_report accepts; subgroups
    caps the subgroup lattice wherever a checker, a stabilizer or a planner
    reads it, and a report's domain shows it as subgroup_cap; subsequences,
    partitions and assignments cap the setpartition walk (see Budget).
    Every cap that runs out in a checker yields an undecided_capped verdict,
    never holds/fails, whether the checker meets it in a budgeted search or
    as a CapExceeded, or davenport's GroupTooLarge, that check_instance
    catches; a planner that meets one raises it, and the CLI exits 3.
    """

    davenport: int = DAVENPORT_CAP
    subgroups: int = SUBGROUP_CAP
    subsequences: int = 512
    partitions: int = 512
    assignments: int = 720


DEFAULT_CAPS = SearchCaps()
# The most entries, |End(G)| |G|, that building Aut(G) may write for the orbit
# rows to reduce S by all of it; it bounds the |Aut(G)| |G| maps
# x -> phi(x) + t the walk carries too.  Above it phi runs over the units.
AFFINE_TABLE_CAP = 1 << 14


# ---------------------------------------------------------------------------
# shared helpers


def _need(inst: Instance, *, seq: bool = False, weights: bool = False, n: bool = False,
          extra: tuple[str, ...] = (), own: tuple[str, ...] = ()) -> None:
    """MissingField for a field the checker needs; GroupMismatch for a
    sequence, a weight sequence or an extra named in own (one object with a
    group, or a tuple of them) over a group other than inst.group."""
    if seq and inst.seq is None:
        raise MissingField("instance needs a sequence")
    if weights and inst.weights is None:
        raise MissingField("instance needs a weight sequence")
    if n and inst.n is None:
        raise MissingField("instance needs n")
    for key in extra:
        if key not in inst.extra:
            raise MissingField(f"instance needs extra[{key!r}]")
    parts = [inst.seq, inst.weights]
    for key in own:
        value = inst.extra.get(key)
        parts.extend(value if isinstance(value, (tuple, list)) else (value,))
    for part in parts:
        if part is not None and part.group is not inst.group and part.group != inst.group:
            raise GroupMismatch("instance parts over different groups")


def _hyp_fail(reason: str) -> Verdict:
    return Verdict(Status.HYPOTHESIS_NOT_MET, {"reason": reason})


@dataclass(frozen=True)
class Clause:
    """One hypothesis clause of a sequence statement: fails(inst, caps) is
    true when the instance does not meet it, and reason is then the
    hypothesis_not_met reason.  reads says what of the instance it reads
    besides G: "seq" for S, with W only through |W| and n; "weights" for
    the weight values and n, not S; "length" for |W| and n alone.  So a
    planner runs the "length" clauses once per |W| and the "weights" ones
    once per weight tuple."""

    reason: str
    fails: Callable[[Instance, SearchCaps], Any]
    reads: str = "seq"


def _unmet(clauses: tuple[Clause, ...], inst: Instance, caps: SearchCaps) -> str | None:
    """The reason of the first clause, in order, that inst does not meet."""
    for clause in clauses:
        if clause.fails(inst, caps):
            return clause.reason
    return None


def _capped(reason: str) -> Verdict:
    return Verdict(Status.UNDECIDED_CAPPED, {"reason": reason})


def contained_subgroup(a: GSet) -> Subgroup | None:
    """Smallest nontrivial subgroup wholly inside A, or None.

    Any nontrivial subgroup contains one of prime order, so scanning the
    group's table of prime-order subgroups (Group.prime_order_subgroups,
    built once per group) is exact.  Ties go to the smallest order, then to
    the least generator index, i.e. the least index of a nonzero element.
    The returned subgroup is the table's shared entry.
    """
    for sub in a.group.prime_order_subgroups:
        if not sub.mask & ~a.bits:
            return sub
    return None


def coset_condition(seq: GSequence, cap: int = SUBGROUP_CAP) -> tuple[int, Subgroup] | None:
    """First coset g+H holding all but at most |G/H|-2 terms of the sequence.

    Subgroups are scanned ascending by order and coset representatives by
    index, so the witness is canonical.  Returns (rep index, H) or None.
    """
    group = seq.group
    for sub in all_subgroups(group, cap=cap):
        allowed = group.order // sub.order - 2
        if allowed < 0:
            continue
        for rep, coset in sub.cosets:
            outside = sum(m for i, m in enumerate(seq.mult) if not (coset >> i) & 1)
            if outside <= allowed:
                return rep, sub
    return None


def _distinct_perms(items: tuple[int, ...], length: int):
    """Distinct arrangements of `length` items of a multiset, lexicographic
    and lazy, so a caller that stops early builds no more of them."""
    counter = Counter(items)
    keys = sorted(counter)
    acc: list[int] = []

    def rec():
        if len(acc) == length:
            yield tuple(acc)
            return
        for k in keys:
            if counter[k]:
                counter[k] -= 1
                acc.append(k)
                yield from rec()
                acc.pop()
                counter[k] += 1

    try:
        yield from rec()
    finally:
        del rec  # it reaches itself through its closure; emptying the cell frees it at once


def _sub_multisets(mult: tuple[int, ...], size: int, hmax: int, tables: tuple = (),
                   fixers: bool = False):
    """Multiplicity vectors m' <= mult with sum(m') == size and every entry
    at most hmax, lex ascending and lazy.  With tables (permutations back
    of the element indices, such as back[x] = x - g for a translate g, which
    with the identity form a group), only the least of each orbit under
    m' -> (x -> m'[back[x]]) is kept, generated orderly (Read 1978; McKay
    1998): a table's image agrees with the prefix up to some position p,
    and once m'[back[p]] and m'[p] are both known, a tie moves p on, a
    larger image entry drops the table for good, and a smaller one drops
    the prefix, so no vector it would lead to is ever built.  The tables
    share those steps along a trie of their entries: a pending edge
    (p, back[p], subtrie) stands for every table below it, all tied before
    p, and waits in wake[max(p, back[p])] until the walk sets that entry.
    With fixers, each vector comes as a pair with the tables still live at
    its leaf, which are those that fix it.
    """
    caps = [min(m, hmax) for m in mult]
    if not caps:
        if size == 0:
            yield ((), ()) if fixers else ()
        return
    room = [*accumulate(reversed(caps), initial=0)][::-1]  # room[i]: what entries i.. hold
    n, trie = len(caps), {}
    acc, last, wake = [0] * n, n - 1, [[] for _ in range(n + 1)]
    for back in tables:
        node = reduce(lambda node, y: node.setdefault(y, {}), back[:-1], trie)
        node[back[-1]] = back

    def advance(i: int, woken: list, pushed: list) -> bool | None:
        """Move the edges woken at entry i on, pushing those left waiting:
        False when an image falls below the prefix, None when it does for
        every larger value of entry i too."""
        ties = []
        for p, y, node in woken:
            if acc[y] < acc[p]:
                return None if p == i else False
            if acc[y] == acc[p]:
                ties.append((p + 1, node))
        for p, node in ties:  # grows as ties on known entries move p on
            # at p = n, node is a table that fixes the vector: it waits at wake[n]
            for y, child in node.items() if p < n else [(n, node)]:
                if max(p, y) > i:
                    wake[max(p, y)].append((p, y, child))
                    pushed.append(max(p, y))
                elif acc[y] < acc[p]:
                    return False
                elif acc[y] == acc[p]:
                    ties.append((p + 1, child))
        return True

    def rec(i: int, left: int):
        woken = wake[i]
        for c in range(max(0, left - room[i + 1]), min(caps[i], left) + 1):
            acc[i] = c
            pushed: list[int] = []
            least = advance(i, woken, pushed) if woken else True
            if least is None:  # c is too large, and so is every larger c
                return
            if least:
                if i < last and (i + 1 < last or wake[last]):
                    yield from rec(i + 1, left - c)
                else:  # the last entry is set, or takes the rest with no table left
                    acc[last] = left - c if i < last else c
                    yield (tuple(acc), tuple(t for *_, t in wake[n])) if fixers else tuple(acc)
            for j in pushed:
                wake[j].pop()

    try:
        if 0 <= size <= room[0]:
            for y, child in trie.items():
                wake[y].append((0, y, child))
            yield from rec(0, size)
    finally:
        del rec  # it reaches itself through its closure; emptying the cell frees it at once


# ---------------------------------------------------------------------------
# example builders


def _twin_weight_instance(m: int, n: int, support: int, **extra: int) -> Instance:
    """Over Z/m: weights 1 and -1 each (n-1)/2 times plus one 0, against n
    copies of each of the first `support` elements."""
    group = interned_group((m,))
    k = (n - 1) // 2
    w = weight_seq(group, [1] * k + [-1] * k + [0])
    s = GSequence(group, (n,) * support + (0,) * (m - support))
    return Instance(group, seq=s, weights=w, extra=extra)


def example1_instance(p: int) -> Instance:
    """Prime-modulus instance: n=(p-1)/2 twin weights against 0^n 1^n 2^n."""
    if p < 3 or not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 3:
        raise ValueError(f"{p} is not congruent to 3 mod 4")
    return _twin_weight_instance(p, (p - 1) // 2, 3, p=p)


def example2_instance(r: int) -> Instance:
    """Power-of-two instance: n=2^r-1 twin weights against 0^n 1^n."""
    if r < 1:
        raise ValueError("r must be positive")
    return _twin_weight_instance(2 ** r, 2 ** r - 1, 2, r=r)


def _ex1_group(group: Group) -> str | None:
    """Why EX1 does not apply on G; None when G is Z/p, p = 3 mod 4, p >= 7."""
    p = group.order
    if group.rank != 1 or not _is_prime(p):
        return "group is not of prime order"
    if p % 4 != 3 or p < 7:
        return "order must be a prime congruent to 3 mod 4, at least 7"
    return None


def _ex2_group(group: Group) -> str | None:
    """Why EX2 does not apply on G; None when G is Z/2^r with r >= 2."""
    m = group.order
    if group.rank != 1 or m & (m - 1) or m < 4:
        return "group must be cyclic of order 2^r with r >= 2"
    return None


# ---------------------------------------------------------------------------
# statement checkers


def _cover_or_coset(s: GSequence, sums: int, caps: SearchCaps) -> Verdict:
    """Gao-type conclusion for the sum-set mask: it is all of G (disjunct i),
    or some coset g+H holds all but at most |G/H| - 2 terms of S (ii)."""
    group = s.group
    if sums == group.full_mask:
        return Verdict(Status.HOLDS, {"disjunct": "i"})
    hit = coset_condition(s, cap=caps.subgroups)
    if hit is not None:
        rep, sub = hit
        return Verdict(Status.HOLDS, {"disjunct": "ii", "coset_rep": rep, "subgroup": sub})
    return Verdict(Status.FAILS, {"sum_set": GSet(group, sums)})


# clauses that several statements share
_W_NONEMPTY = Clause("weights are empty", lambda i, c: i.weights.length < 1, "length")
_W_TOTAL_EXP = Clause("weight total not divisible by the exponent",
                      lambda i, c: sum(i.weights.raw) % i.group.exponent, "weights")
_W_TOTAL_ORDER = Clause("weight total not divisible by the group order",
                        lambda i, c: sum(i.weights.raw) % i.group.order, "weights")
_W_IS_G = Clause("needs |W| = |G|", lambda i, c: i.weights.length != i.group.order, "length")
_W_UNITS_ORDER = Clause("weights must all be coprime to the group order",
                        lambda i, c: not all(i.weights.units), "weights")
_W_UNITS_EXP = Clause("weights must all be coprime to the exponent",
                      lambda i, c: not all(i.weights.units), "weights")
_S_LONG = Clause("sequence shorter than |W| + |G| - 1",
                 lambda i, c: i.seq.length < i.weights.length + i.group.order - 1)
_S_HEIGHT = Clause("maximum multiplicity exceeds |W|",
                   lambda i, c: max(i.seq.mult) > i.weights.length)

_WEGZ_CLAUSES = (_W_NONEMPTY, _W_TOTAL_EXP, _S_LONG)
_HAMIDOUNE_CLAUSES = (
    Clause("needs |W| >= 2 so that |W| + |G| - 1 >= |G| + 1",
           lambda i, c: i.weights.length < 2, "length"),
    _S_LONG, _W_TOTAL_ORDER, _S_HEIGHT,
    Clause("more than one weight shares a factor with the group order",
           lambda i, c: i.weights.units.count(False) > 1, "weights"),
)
_HAM_CHAR_CLAUSES = _HAMIDOUNE_CLAUSES + (
    Clause("needs |W| >= |G| / 2", lambda i, c: 2 * i.weights.length < i.group.order,
           "length"),)
_HAM_VAR_CLAUSES = (
    _W_NONEMPTY, _S_LONG, _W_TOTAL_EXP, _S_HEIGHT,
    Clause("fewer than d*(G) weights coprime to the exponent",
           lambda i, c: sum(i.weights.units) < dstar(i.group), "weights"),
)
_ORDAZ_QUIROZ_CLAUSES = (
    _W_IS_G, _W_UNITS_ORDER, _W_TOTAL_ORDER,
    Clause("needs |S| = |G| + D(G) - 1",
           lambda i, c: i.seq.length != ell(i.group, c.davenport)),
)
_SPECIALCASE_CLAUSES = (
    _W_IS_G, _W_UNITS_ORDER,
    Clause("sequence shorter than |G| + D(G) - 1",
           lambda i, c: i.seq.length < ell(i.group, c.davenport)),
    Clause("needs D(G) - 1 <= h(S) <= |G|",
           lambda i, c: not davenport(i.group, c.davenport) - 1 <= max(i.seq.mult)
           <= i.group.order),
)
# "n below max(h(S), d*(G))" is two clauses, so that planners can filter
# weight tuples by its half that reads only n
_SPUD_CLAUSES = (
    _W_UNITS_EXP,
    Clause("n below max(h(S), d*(G))", lambda i, c: i.n < dstar(i.group), "length"),
    Clause("n below max(h(S), d*(G))", lambda i, c: i.n < max(i.seq.mult)),
    Clause("n above |S| - |G| + 1", lambda i, c: i.n > i.seq.length - i.group.order + 1),
    Clause("fewer weights than n", lambda i, c: i.weights.length < i.n, "length"),
    Clause("a coset holds all but at most |G/H| - 2 terms",
           lambda i, c: coset_condition(i.seq, cap=c.subgroups) is not None),
)


def _zero_in_full_sum(inst: Instance, caps: SearchCaps) -> Verdict:
    """0 lies in the |W|-term weighted sums."""
    full = sigma_n(inst.weights, inst.seq, inst.weights.length)
    if full.contains_index(0):
        return Verdict(Status.HOLDS, {})
    return Verdict(Status.FAILS, {"sum_set": full})


def _twin_weight_pattern(inst: Instance) -> int | None:
    """x such that the weights are x and -x in equal numbers plus one zero,
    with two-point support, |W| = |G| - 1, and G cyclic of 2-power order."""
    group, s, w = inst.group, inst.seq, inst.weights
    m = group.order
    if len(s.support_indices()) != 2 or w.length != m - 1 or group.rank != 1 or m & (m - 1):
        return None
    k = (w.length - 1) // 2
    counts = Counter(x % m for x in w.raw)
    for x in range(1, m):
        want: Counter = Counter({0: 1})
        want[x] += k
        want[(-x) % m] += k
        if counts == want:
            return x
    return None


def _subgroup_in_full_sum(inst: Instance) -> tuple[Subgroup | None, GSet | None]:
    """(subgroup, exact sum set or None) for the |W|-term weighted sums.

    Every positional weighted block sum of an n-setpartition of S with
    n = |W|, under any order of the weights, is a subset of the full sum
    set.  So first the quick mask, one balanced setpartition's block sum
    with the residues sorted: a subgroup there is already conclusive.
    Else the same blocks under the residues rotated by one place join it,
    and where the union holds the first entry of the group's prime-order
    table, that is the subgroup contained_subgroup finds in the full sum set
    too.  Only then does the exact computation run.  Every caller's
    hypotheses give h(S) <= |W| <= |S|, so the partition exists.

    S keeps the partition dealt from it, and the partition keeps its dilates
    (Setpartition.dilate), which both block sums read.  So a sweep, which
    builds each S once per shard and checks it against every weight tuple
    paired with it there, deals S's partition once and dilates each block
    once per residue.
    """
    group, s, w = inst.group, inst.seq, inst.weights
    part = balanced_setpartition(s, w.length)
    residues = sorted(w.residues)
    quick = _positional_wsum_bits(group, zip(residues, part.masks), part.dilate)
    sub = contained_subgroup(GSet(group, quick))
    if sub is not None:
        return sub, None
    quick |= _positional_wsum_bits(group, zip(residues[1:] + residues[:1], part.masks),
                                   part.dilate)
    first = group.prime_order_subgroups[:1]
    if first and not first[0].mask & ~quick:
        return first[0], None
    full = sigma_n(w, s, w.length)
    return contained_subgroup(full), full


@dataclass(frozen=True)
class _SubgroupInSums:
    """Conclusion: a nontrivial subgroup lies in the |W|-term weighted sums
    (_subgroup_in_full_sum); with twin, disjunct i of that or disjunct ii,
    the twin-weight shape."""

    twin: bool = False

    def __call__(self, inst: Instance, caps: SearchCaps) -> Verdict:
        sub, full = _subgroup_in_full_sum(inst)
        if sub is not None:
            return Verdict(Status.HOLDS, {"disjunct": "i", "subgroup": sub} if self.twin
                           else {"subgroup": sub})
        x = _twin_weight_pattern(inst) if self.twin else None
        if x is not None:
            return Verdict(Status.HOLDS, {"disjunct": "ii", "x": x})
        return Verdict(Status.FAILS, {"sum_set": full})


def _full_sum_cover_or_coset(inst: Instance, caps: SearchCaps) -> Verdict:
    """_cover_or_coset on the |G|-term weighted sums."""
    return _cover_or_coset(inst.seq, sigma_n(inst.weights, inst.seq, inst.group.order).bits, caps)


def _n_sums_cover(inst: Instance, caps: SearchCaps) -> Verdict:
    """The n-term weighted sums cover G."""
    full = sigma_n(inst.weights, inst.seq, inst.n)
    if full.bits == inst.group.full_mask:
        return Verdict(Status.HOLDS, {})
    return Verdict(Status.FAILS, {"sum_set": full})


def _check_david(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, seq=True, weights=True)
    group, s, w = inst.group, inst.seq, inst.weights
    d = davenport(group, caps.davenport)
    if w.length < 1 or s.length < 1:
        return _hyp_fail("weights and sequence must be nonempty")
    if s.length < w.length + d - 1:
        return _hyp_fail("sequence shorter than |W| + D(G) - 1")
    h = max(s.mult)
    if s.mult[0] != h or h < d - 1:
        return _hyp_fail("needs multiplicity of 0 equal to h(S) and at least D(G) - 1")
    table = sigma_table(w, s)
    every = reduce(or_, table[1:])
    if every == table[-1]:
        return Verdict(Status.HOLDS, {})
    return Verdict(Status.FAILS, {"all_lengths": GSet(group, every),
                                  "full_length": GSet(group, table[-1])})


def _check_dstar_subadd(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, extra=("subgroup",), own=("subgroup",))
    group = inst.group
    sub: Subgroup = inst.extra["subgroup"]
    lhs = dstar_of_factors(sub.iso_type) + dstar_of_factors(sub.quotient_type)
    rhs = dstar(group)
    if lhs <= rhs:
        return Verdict(Status.HOLDS, {"lhs": lhs, "rhs": rhs})
    return Verdict(Status.FAILS, {"lhs": lhs, "rhs": rhs, "subgroup": sub})


def _check_split(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, weights=True, extra=("set", "base_index"), own=("set",))
    group, w = inst.group, inst.weights
    a: GSet = inst.extra["set"]
    a0 = _index_in(group, inst.extra["base_index"])
    if a.size < 2:
        return _hyp_fail("set must have at least 2 elements")
    if not a.contains_index(a0):
        return _hyp_fail("base point must lie in the set")
    shifted = group.translate_mask(a.bits, group.index_neg(a0))
    sub = subgroup_generated(group, mask_to_indices(shifted))
    d = dstar(sub)
    if w.length != d:
        return _hyp_fail("needs exactly d*(H) weights for H generated by the shifted set")
    if any(gcd(x, sub.exponent) != 1 for x in w.raw):
        return _hyp_fail("weights must all be coprime to exp(H)")
    total = _positional_wsum_bits(group, [(x, a.bits) for x in w.raw])
    shift = group.index_scalar(sum(w.raw), a0)
    target = group.translate_mask(sub.mask, shift)
    if total == target:
        return Verdict(Status.HOLDS, {"subgroup": sub, "coset_rep": shift})
    return Verdict(Status.FAILS, {"subgroup": sub, "got": GSet(group, total),
                                  "expected": GSet(group, target)})


def _check_dual(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, extra=("subgroup",), own=("subgroup",))
    group = inst.group
    sub: Subgroup = inst.extra["subgroup"]
    try:
        lattice = all_subgroups(group, cap=caps.subgroups)
    except CapExceeded:
        return _capped("subgroup lattice above cap")
    for cand in lattice:
        if cand.iso_type == sub.quotient_type and cand.quotient_type == sub.iso_type:
            return Verdict(Status.HOLDS, {"partner": cand})
    return Verdict(Status.FAILS, {"subgroup": sub})


def check_self_duality(group: Group, caps: SearchCaps = DEFAULT_CAPS) -> Verdict:
    """PROP_DUAL's checker on every subgroup H; the first failure decides."""
    try:
        lattice = all_subgroups(group, cap=caps.subgroups)
    except CapExceeded:
        return _capped("subgroup lattice above cap")
    for sub in lattice:
        verdict = _check_dual(Instance(group, extra={"subgroup": sub}), caps)
        if verdict.status is Status.FAILS:
            return verdict
    return Verdict(Status.HOLDS, {"subgroups": len(lattice)})


def _check_align(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, extra=("subgroup",), own=("subgroup",))
    group = inst.group
    sub: Subgroup = inst.extra["subgroup"]
    ambient = group.invariant_factors
    padded = sub.padded_iso_type()
    bad = [i for i, (a, b) in enumerate(zip(padded, ambient)) if b % a]
    if bad:
        return Verdict(Status.FAILS, {"subgroup": sub, "positions": bad})
    # a | b bounds every prime's valuation in a by its valuation in b, so the
    # anchor's per-prime clause follows from the divisibility just checked
    return Verdict(Status.HOLDS, {"padded": list(padded)})


def _check_pigeonhole(inst: Instance, caps: SearchCaps) -> Verdict:
    _need(inst, extra=("set_a", "set_b"), own=("set_a", "set_b"))
    a: GSet = inst.extra["set_a"]
    b: GSet = inst.extra["set_b"]
    group = inst.group
    if a.is_empty() or b.is_empty():
        return _hyp_fail("both sets must be nonempty")
    if a.size + b.size < group.order + 1:
        return _hyp_fail("needs |A| + |B| >= |G| + 1")
    total = sumset(a, b)
    if total.bits == group.full_mask:
        return Verdict(Status.HOLDS, {})
    return Verdict(Status.FAILS, {"sum_set": total})


def check_ap_structure(sets: list[GSet], caps: SearchCaps = DEFAULT_CAPS) -> Verdict:
    """Kneser-equality structure: the sets must be progressions with one
    common difference.

    Two hypothesis routes: n >= 3 spanning aperiodic-sum equality, or n = 2
    with one set of size exactly 2.  Either way every set must contain 0 and
    must not be quasi-periodic.
    """
    if len(sets) < 2:
        return _hyp_fail("needs at least two sets")
    group = sets[0].group
    if any(x.group != group for x in sets):
        return _hyp_fail("sets must share one group")
    if any(not x.contains_index(0) for x in sets):
        return _hyp_fail("every set must contain 0")
    if any(x.size < 2 for x in sets):
        return _hyp_fail("every set must have at least 2 elements")
    if any(stabilizer(x, caps.subgroups).quasi_period is not None for x in sets):
        return _hyp_fail("a set is quasi-periodic")
    n = len(sets)
    total = iterated_sumset(sets)
    equality = total.size == sum(x.size for x in sets) - n + 1
    if n == 2:
        if not any(x.size == 2 for x in sets):
            return _hyp_fail("the two-set route needs a set of size exactly 2")
        if not equality:
            return _hyp_fail("sum size must equal |A| + |B| - 1")
    else:
        if any(subgroup_generated(group, x.indices()).order != group.order for x in sets):
            return _hyp_fail("every set must generate the whole group")
        if _period(total).order > 1:
            return _hyp_fail("the sum of the sets must be aperiodic")
        if not equality:
            return _hyp_fail("sum size must equal the Kneser equality bound")
    diff_sets = [_ap_differences(x) for x in sets]
    missing = [i for i, ds in enumerate(diff_sets) if not ds]
    if missing:
        return Verdict(Status.FAILS, {"not_progressions": missing})
    common = set.intersection(*diff_sets)
    if common:
        return Verdict(Status.HOLDS, {
            "difference": group.element_from_index(min(common))})
    return Verdict(Status.FAILS, {
        "difference_sets": [sorted(ds) for ds in diff_sets]})


def _check_ap_struct(inst: Instance, caps: SearchCaps) -> Verdict:
    """check_ap_structure on extra["sets"]; sets over several groups are a
    hypothesis it reads, but sets none of which lies over G are a
    GroupMismatch, as for the other checkers' extras."""
    _need(inst, extra=("sets",))
    sets = list(inst.extra["sets"])
    if sets and all(x.group != inst.group for x in sets):
        raise GroupMismatch("no set lies over the instance's group")
    return check_ap_structure(sets, caps)


# ---------------------------------------------------------------------------
# setpartition witness machinery


@dataclass(frozen=True)
class SetpartitionWitness:
    """Certificate data for a partition aligned to a subgroup.

    With C the common intersection of the translated blocks A_i + H:
    N = |C| / |H| and e = sum over blocks of |A_j| - |A_j intersect C|; the
    claimed size bound for the weighted block sum is ((N-1)n + e + 1)|H|.
    """

    subgroup: Subgroup
    partition: Setpartition
    n_common: int
    excess: int
    bound: int


def _witness_numbers(group: Group, submask: int, order: int,
                     masks: tuple[int, ...]) -> tuple[int, int, int]:
    """(N, e, bound) of SetpartitionWitness for the subgroup mask of that
    order and the block masks."""
    common = group.full_mask
    for mask in masks:
        common &= group.sum_masks(mask, submask)
    n_common = common.bit_count() // order
    excess = sum((mask & ~common).bit_count() for mask in masks)
    bound = ((n_common - 1) * len(masks) + excess + 1) * order
    return n_common, excess, bound


def make_setpartition_witness(sub: Subgroup, partition: Setpartition) -> SetpartitionWitness:
    numbers = _witness_numbers(sub.group, sub.mask, sub.order, partition.masks)
    return SetpartitionWitness(sub, partition, *numbers)


@dataclass
class Budget:
    """SearchCaps for one search, plus the caps it ran out of, in order.

    The one rule of every setpartition search: a cap that runs out never
    raises or ends the search; its SearchCaps field name is recorded here
    and the walk moves on.  A witness found later still decides; a search
    that ends without one turns a nonempty record into undecided_capped.
    """

    caps: SearchCaps
    ran_out: list[str] = field(default_factory=list)

    def exhaust(self, cap: str) -> None:
        if cap not in self.ran_out:
            self.ran_out.append(cap)


def _budgeted_walk(budget: Budget, group: Group, subseqs: Iterable[tuple[int, ...]],
                   blocks: int, weights: tuple[int, ...], contexts=None):
    """Yield (subsequence, setpartition, context, assignment) under the budget.

    subseqs lists multiplicity vectors; each gets its setpartitions into
    `blocks` blocks, and each of those every distinct arrangement of `blocks`
    of the weights.  contexts(mult, part), when given, lists the contexts a
    partition is tried under (None otherwise); assignments are counted
    afresh for each.  Past caps.subsequences subsequences the walk ends; past
    caps.partitions partitions of one subsequence, or caps.assignments
    assignments of one partition and context, it goes on with the next one.
    Either way the cap is recorded in the budget.
    """
    caps = budget.caps
    for seen_sub, mult in enumerate(subseqs, 1):
        if seen_sub > caps.subsequences:
            budget.exhaust("subsequences")
            return
        parts = enum_setpartitions(GSequence(group, mult), blocks, cap=caps.partitions + 1)
        for seen_part, part in enumerate(parts, 1):
            if seen_part > caps.partitions:
                budget.exhaust("partitions")
                break
            for ctx in (contexts(mult, part) if contexts else (None,)):
                perms = _distinct_perms(weights, blocks)
                for seen_asg, perm in enumerate(perms, 1):
                    if seen_asg > caps.assignments:
                        budget.exhaust("assignments")
                        break
                    yield mult, part, ctx, perm


def _sprime(inst: Instance) -> GSequence:
    """The designated subsequence S' (extra["sub_seq"]), else S itself."""
    return inst.extra.get("sub_seq") or inst.seq


_SETPART_CLAUSES = (
    _W_UNITS_EXP,
    Clause("needs exactly n weights", lambda i, c: i.weights.length != i.n, "length"),
    Clause("needs n >= d*(G)", lambda i, c: i.n < dstar(i.group), "length"),
    Clause("designated subsequence is not contained in the sequence",
           lambda i, c: not _sprime(i).is_subsequence_of(i.seq)),
    Clause("needs h(S') <= n <= |S'|",
           lambda i, c: not max(_sprime(i).mult) <= i.n <= _sprime(i).length),
)


def _same_length_walk(inst: Instance, budget: Budget, contexts=None):
    """The walk over subsequences of S as long as S' with h <= n, their
    n-setpartitions and the arrangements of all n weights."""
    subseqs = _sub_multisets(inst.seq.mult, _sprime(inst).length, inst.n)
    return _budgeted_walk(budget, inst.group, subseqs, inst.n,
                          tuple(sorted(inst.weights.residues)), contexts)


def _large_sums(inst: Instance, budget: Budget, floor: int):
    """Yield (partition, arrangement, size) for each walked n-setpartition
    and arrangement of the weights whose weighted block sum has at least
    floor elements; the callers stop at the first."""
    for _, part, _, perm in _same_length_walk(inst, budget):
        achieved = _positional_wsum_bits(inst.group, zip(perm, part.masks),
                                         part.dilate).bit_count()
        if achieved >= floor:
            yield part, perm, achieved


def _is_coset_sum(group: Group, weights, masks, sub: Subgroup, rep: int) -> bool:
    """w_1A_1 + ... + w_kA_k is exactly (w_1 + ... + w_k)g + H, pairing the
    weights with the block masks in order, for H = sub and g of index rep."""
    shift = group.index_scalar(sum(weights), rep)
    return (_positional_wsum_bits(group, zip(weights, masks))
            == group.translate_mask(sub.mask, shift))


def _check_aligned_conclusion(inst: Instance, sub: Subgroup,
                              budget: Budget) -> Verdict | None:
    """Search S''/partition/assignment/coset satisfying clauses (a)-(d) for
    one fixed proper nontrivial subgroup.  None means nothing found."""
    group, s, n = inst.group, inst.seq, inst.n
    d_h = dstar(sub)
    d_q = dstar_of_factors(sub.quotient_type)
    tail_need = max(0, n - d_h - d_q)
    allowed_out = group.order // sub.order - 2  # >= 0, as H is proper

    def cosets(mult2: tuple[int, ...], part: Setpartition):
        """(rep, terms outside, blocks inside) for each coset g+H that
        holds every dropped term, meets every block, leaves at most
        |G/H| - 2 terms of S outside and wholly holds enough blocks."""
        for rep, coset in sub.cosets:
            if any(a > b and not (coset >> i) & 1
                   for i, (a, b) in enumerate(zip(s.mult, mult2))):
                continue
            if not all(mask & coset for mask in part.masks):
                continue
            e_out = sum(m for i, m in enumerate(s.mult) if not (coset >> i) & 1)
            if e_out > allowed_out:
                continue
            inside = [i for i, mask in enumerate(part.masks) if not mask & ~coset]
            if len(inside) < d_h or len(inside) - d_h < tail_need:
                continue
            yield rep, e_out, inside

    for _, part, (rep, e_out, inside), perm in _same_length_walk(inst, budget, cosets):
        masks = part.masks
        total = _positional_wsum_bits(group, zip(perm, masks), part.dilate)
        if total.bit_count() < (e_out + 1) * sub.order:
            continue
        # prefix: d*(H) blocks inside the coset whose weighted sum is a coset of H
        for prefix in combinations(inside, d_h):
            if _is_coset_sum(group, [perm[i] for i in prefix],
                             [masks[i] for i in prefix], sub, rep):
                break
        else:
            continue
        n_common, excess, bound = _witness_numbers(group, sub.mask, sub.order, masks)
        return Verdict(Status.HOLDS, {
            "disjunct": "ii",
            "subgroup": sub,
            "coset_rep": rep,
            "partition": part,
            "assignment": list(perm),
            "prefix_blocks": list(prefix),
            "outside_terms": e_out,
            "common_blocks": n_common,
            "excess": excess,
            "size_bound": bound,
        })
    return None


def witness_search_setpartition(inst: Instance, caps: SearchCaps = DEFAULT_CAPS) -> Verdict:
    """The THM_SETPART_WITNESS checker: the hypothesis clauses it shares with
    check_max_subgroup_dichotomy, then the bounded witness search."""
    return STATEMENTS[StatementId.THM_SETPART_WITNESS].checker(inst, caps)


def _setpartition_search(inst: Instance, caps: SearchCaps) -> Verdict:
    """Bounded search for the setpartition conclusion: a same-length
    subsequence with an n-setpartition whose weighted block sum is large
    (disjunct i) or aligned to a proper coset with clauses (a)-(d)
    (disjunct ii)."""
    group = inst.group
    floor = min(group.order, _sprime(inst).length - inst.n + 1)
    budget = Budget(caps)
    for part, perm, achieved in _large_sums(inst, budget, floor):
        # the numbers for H = G when the sum covers G, else for H = {0}
        full = achieved == group.order
        n_common, excess, bound = _witness_numbers(
            group, group.full_mask if full else 1, group.order if full else 1,
            part.masks)
        return Verdict(Status.HOLDS, {
            "disjunct": "i",
            "partition": part,
            "assignment": list(perm),
            "achieved": achieved,
            "floor": floor,
            "common_blocks": n_common,
            "excess": excess,
            "size_bound": bound,
        })
    try:
        lattice = all_subgroups(group, cap=caps.subgroups)
    except CapExceeded:
        return _capped("subgroup lattice above cap")
    for sub in lattice:
        if sub.is_trivial() or not sub.is_proper():
            continue
        verdict = _check_aligned_conclusion(inst, sub, budget)
        if verdict is not None:
            return verdict
    if budget.ran_out:
        return _capped("search budget exhausted before a witness was found")
    return Verdict(Status.FAILS, {"floor": floor})


def _certificate_holds(inst: Instance) -> bool:
    """The certificate in inst.extra is valid: its d*(K) blocks partition
    cert_seq, which lies in S and in the coset g + K of coset_rep and leaves
    at least n - d*(K) + |S| - |S'| terms of S there, and the blocks
    weighted by the first d*(K) weights are a coset sum (_is_coset_sum)."""
    group, s, sub = inst.group, inst.seq, inst.extra["subgroup"]
    rep = _index_in(group, inst.extra["coset_rep"])
    t_mult = inst.extra["cert_seq"].mult
    masks = tuple(b.bits for b in inst.extra["cert_blocks"])
    d = dstar(sub)
    if len(masks) != d or Setpartition(group, masks).as_sequence().mult != t_mult:
        return False
    coset = group.translate_mask(sub.mask, rep)
    in_coset = tuple(m if (coset >> i) & 1 else 0 for i, m in enumerate(s.mult))
    if any(a > b for a, b in zip(t_mult, in_coset)):
        return False
    need_left = inst.n - d + s.length - _sprime(inst).length
    return (sum(in_coset) - sum(t_mult) >= need_left
            and _is_coset_sum(group, inst.weights.residues[:d], masks, sub, rep))


def _larger_certificate_exists(inst: Instance, sub: Subgroup, budget: Budget) -> bool:
    """Search any strictly larger subgroup K admitting a certificate.

    Each coset of each such K walks the subsequences T of S in the coset
    that leave enough terms of S there, with their d*(K)-setpartitions and
    weight arrangements, under its own subsequence cap.  Each T meets every
    clause of a certificate but the coset sum, the only one tested.
    """
    group, s = inst.group, inst.seq
    try:
        lattice = all_subgroups(group, cap=budget.caps.subgroups)
    except CapExceeded:
        budget.exhaust("subgroups")
        return False
    weights = tuple(sorted(inst.weights.residues))
    for cand in lattice:
        if cand.mask == sub.mask or (cand.mask & sub.mask) != sub.mask:
            continue
        d = dstar(cand)  # at most d*(G) <= n, by the hypothesis
        need_left = inst.n - d + s.length - _sprime(inst).length
        for rep, coset in cand.cosets:
            in_coset = tuple(m if (coset >> i) & 1 else 0 for i, m in enumerate(s.mult))
            subseqs = chain.from_iterable(_sub_multisets(in_coset, tsize, d)
                                          for tsize in range(d, sum(in_coset) - need_left + 1))
            for _, part, _, perm in _budgeted_walk(budget, group, subseqs, d, weights):
                if _is_coset_sum(group, perm, part.masks, cand, rep):
                    return True
    return False


def check_max_subgroup_dichotomy(inst: Instance, caps: SearchCaps = DEFAULT_CAPS) -> Verdict:
    """Dichotomy for a supplied maximal certified subgroup.

    extra must carry the certificate: subgroup K, coset representative index,
    the partitioned subsequence (mult tuple), and its d*(K) blocks.  The
    certificate and K's maximality are verified first; then K = G demands an
    n-setpartition whose weighted block sum is all of G, and K < G demands
    the aligned conclusion with H = K.
    """
    _need(inst, seq=True, weights=True, n=True,
          extra=("subgroup", "coset_rep", "cert_seq", "cert_blocks"),
          own=("subgroup", "cert_seq", "cert_blocks", "sub_seq"))
    reason = _unmet(_SETPART_CLAUSES, inst, caps)
    if reason:
        return _hyp_fail(reason)
    sub: Subgroup = inst.extra["subgroup"]
    if sub.is_trivial():
        return _hyp_fail("certificate subgroup must be nontrivial")
    if not _certificate_holds(inst):
        return _hyp_fail("certificate does not validate")
    budget = Budget(caps)
    if _larger_certificate_exists(inst, sub, budget):
        return _hyp_fail("a strictly larger subgroup also admits a certificate")
    if budget.ran_out:
        return _capped("maximality search budget exhausted")
    if not sub.is_proper():
        # full group: some equal-length subsequence has an n-setpartition
        # whose weighted block sum covers G
        for part, perm, _ in _large_sums(inst, budget, inst.group.order):
            return Verdict(Status.HOLDS, {
                "branch": "full",
                "partition": part,
                "assignment": list(perm),
            })
        if budget.ran_out:  # "subsequences" -> "subsequence budget exhausted"
            return _capped(f"{budget.ran_out[0][:-1]} budget exhausted")
        return Verdict(Status.FAILS, {"branch": "full"})
    verdict = _check_aligned_conclusion(inst, sub, budget)
    if verdict is not None:
        verdict.witness["branch"] = "proper"
        return verdict
    if budget.ran_out:
        return _capped("aligned-conclusion search budget exhausted")
    return Verdict(Status.FAILS, {"branch": "proper", "subgroup": sub})


def statement_anchor(sid: StatementId) -> str:
    return STATEMENTS[sid].anchor


def check_instance(sid: StatementId, inst: Instance,
                   caps: SearchCaps = DEFAULT_CAPS) -> Verdict:
    """Evaluate one statement on one instance.

    Unmet hypotheses and exhausted budgets are verdict statuses, not errors;
    a CapExceeded from below the checker becomes undecided_capped with the
    exception's message as its reason, and davenport's GroupTooLarge with
    "Davenport constant above cap".  Only malformed instances raise.
    """
    try:
        return STATEMENTS[sid].checker(inst, caps)
    except CapExceeded as exc:
        return _capped(str(exc))
    except GroupTooLarge:
        return _capped("Davenport constant above cap")


# ---------------------------------------------------------------------------
# sweep domains and planning


@dataclass(frozen=True)
class SweepDomain:
    """Finite instance domain for a sweep.

    Exhaustive enumerators run over every group in groups crossed with every
    weight length in wlens; sequence lengths start at each statement's
    hypothesis threshold and stretch slen_extra further.  Sampled enumerators
    draw `samples` sequences per shard from a seeded generator.  When
    reduce_translation is set, sequence domains whose conclusion is
    translation-covariant keep one representative per translation orbit.
    The orbits of (W, S) -> (uW, phi(S) + t) are no field: the rows that admit
    them (_SeqPlanner.orbits) always check one pair per orbit, and their
    reports equal the unreduced ones byte for byte.  max_instances bounds
    the instances the domain stands for, every orbit member included, not
    the ones checked; the report's examined counts the same.
    The subgroup lattice is capped by the sweep's SearchCaps.subgroups, not
    here; the report's domain still carries that cap as subgroup_cap.
    A negative size (a wlen, slen_extra, samples, set_size_max or
    max_instances) is a ValueError naming the field.
    """

    groups: tuple[Group, ...]
    wlens: tuple[int, ...] = ()
    slen_extra: int = 0
    samples: int = 200
    seed: int = 0
    set_size_max: int = 4
    reduce_translation: bool = True
    max_instances: int = 2_000_000

    def __post_init__(self) -> None:
        if any(k < 0 for k in self.wlens):
            raise ValueError(f"wlens must be non-negative, got {list(self.wlens)}")
        for name in ("slen_extra", "samples", "set_size_max", "max_instances"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


# A planned shard: its exact instance count, which includes every pair an
# orbit record stands for, and a factory yielding (key, instance, _Orbit)
# triples in check order; sorted by key, the instances and the members
# their records expand into (_orbit_members) are in enumeration order.
# sweep sums the counts before it checks anything, then checks the shards
# one at a time in the order the planner yields them.
Shard = tuple[int, Callable[[], Iterable[tuple]]]


@dataclass
class SweepReport:
    """Outcome of a sweep: status counts over every instance examined, and
    the failures and flagged (instance, verdict) pairs in enumeration order.
    Only these pairs are kept from the shard tallies; the other instances
    are dropped as each shard finishes."""

    statement: StatementId
    domain: dict[str, Any]
    counts: dict[str, int]
    failures: list[tuple[Instance, Verdict]]
    flagged: list[tuple[Instance, Verdict]]
    anchor: str
    examined: int


def _seq_pool(group: Group, size: int, hcap: int, reduced: bool) -> Iterator[tuple[int, ...]]:
    """The multiplicity vectors of length-`size` sequences with every
    multiplicity at most hcap, lex ascending and lazy; reduced keeps the
    least translate x -> v[x - g] of each orbit (_sub_multisets)."""
    return _sub_multisets((hcap,) * group.order, size, hcap,
                          group.differences[1:] if reduced else ())


def _units(modulus: int) -> list[int]:
    """The units mod modulus, ascending."""
    return [u for u in range(modulus) if gcd(u, modulus) == 1]


def _automorphisms(group: Group) -> tuple[tuple[int, ...], ...]:
    """The automorphisms phi the orbit rows reduce S by, as index tables:
    Aut(G) (Group.automorphisms) while |End(G)| |G| is at most
    AFFINE_TABLE_CAP, checked before any table is built, and else the
    dilates x -> u*x, u a unit mod exp(G), all of Aut(G) on a cyclic group."""
    f = group.invariant_factors
    if prod(gcd(a, b) for a in f for b in f) * group.order <= AFFINE_TABLE_CAP:
        return group.automorphisms()
    return tuple(tuple(row[u] for row in group.multiples) for u in _units(group.exponent))


def _affine_maps(group: Group) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The maps x -> phi(x) + t other than the identity, each as its index
    table with its phi: phi over _automorphisms(G) and t over G, each a
    symmetry of an orbit row's S side (_SeqPlanner)."""
    maps = {}
    for phi in _automorphisms(group):
        for t in range(group.order):
            plus_t = group.differences[group.index_neg(t)]
            maps[tuple(plus_t[y] for y in phi)] = phi
    del maps[tuple(range(group.order))]
    return maps


class _Orbit:
    """What a checked pair (W, S) of a row with symmetry (_SeqPlanner.orbits)
    stands for besides itself: the pairs (uW, phi(S) + t) of its orbit, on
    which the row's verdict is constant.  They are the product of W and
    `weights`, the other tuples of W's unit orbit as (tuple position, weight
    sequence) pairs, with S and the `classes` other vectors of _seq_pool's
    pool in S's orbit under x -> phi(x) + t, raw, or least translates when
    `reduced`.  Its size is the number of those pairs; sweep builds them
    only to check them (_orbit_members), and `seqs`, which the records of
    one leg share, keeps the sequences of the last S expanded, so each is
    built, and its partition dealt, once per leg.  A pair of a row without
    symmetry stands for none (_ALONE)."""

    __slots__ = ("weights", "classes", "reduced", "seqs", "size")

    def __init__(self, weights: tuple, classes: int, reduced: bool, seqs: dict) -> None:
        self.weights, self.classes, self.reduced, self.seqs = weights, classes, reduced, seqs
        self.size = (len(weights) + 1) * (classes + 1) - 1


_ALONE = _Orbit((), 0, False, {})


def _each_alone(instances: Iterable[Instance]) -> Iterator[tuple]:
    """A factory's (key, instance, _Orbit) triples for instances that stand
    for no other, each keyed by its position."""
    return ((i, inst, _ALONE) for i, inst in enumerate(instances))


def _vectors_alone(pool: Callable[..., Iterable]) -> Callable[..., Iterator]:
    """A pool of vectors that stand for no other vector, yielding each as
    _affine_pool does, paired with its count of other vectors, 0."""
    return lambda group, *spec: zip(pool(group, *spec), repeat(0))


def _affine_pool(group: Group, size: int, hcap: int,
                 reduced: bool) -> Iterator[tuple[tuple[int, ...], int]]:
    """_seq_pool's pool up to the maps x -> phi(x) + t (_affine_maps): the
    least vector of each orbit, lex ascending and lazy, from the one
    orderly walk (_sub_multisets) on either leg, each paired with the
    number of the other vectors of _seq_pool's pool in its orbit.  With
    Stab(S) the tables that fix S at its leaf and the identity, an orbit
    holds |Aut| |G| / |Stab(S)| raw vectors, |Aut| the number of phi, and
    |Aut| / |P| translation classes, P the phi of the maps in Stab(S)."""
    maps, identity = _affine_maps(group), tuple(range(group.order))
    phis = len(_automorphisms(group))
    for mult, fixers in _sub_multisets((hcap,) * group.order, size, hcap, tuple(maps),
                                       fixers=True):
        yield mult, (phis // len({identity, *map(maps.get, fixers)}) if reduced
                     else phis * group.order // (len(fixers) + 1)) - 1


def _affine_images(group: Group, mult: tuple[int, ...], reduced: bool) -> list[tuple[int, ...]]:
    """The other vectors of _seq_pool's pool in mult's orbit under
    x -> phi(x) + t (_affine_maps), ascending: every translate of
    x -> mult[phi(x)], the vector of phi^-1(S), for each phi of
    _automorphisms(G), or the least translate of each when reduced."""
    translates = [[tuple(mult[phi[y]] for y in back) for back in group.differences]
                  for phi in _automorphisms(group)]
    images = {min(each) for each in translates} if reduced else {*chain(*translates)}
    images.discard(mult)
    return sorted(images)


def _compositions(parts: int, total: int, cap: int) -> int:
    """#{vectors of `parts` entries in 0..cap with sum total}."""
    return _bounded_poly((cap,) * parts, total)[total]


def _pool_count(group: Group, size: int, hcap: int, reduced: bool) -> int:
    """The length of _seq_pool's pool, in closed form.  Reduced, it is the
    number of translation orbits, by Burnside's lemma (1/|G|) sum_g fix(g):
    a vector fixed by x -> x + g is constant on the cosets of <g>, so for
    o = ord g it is |G|/o entries at most hcap summing to size/o, and there
    is none unless o divides size."""
    if not reduced:
        return _compositions(group.order, size, hcap)
    orders = Counter(map(group.index_order, range(group.order)))
    return sum(n * _compositions(group.order // o, size // o, hcap)
               for o, n in orders.items() if size % o == 0) // group.order


def _david_pool(group: Group, size: int, d: int) -> Iterator[tuple[int, ...]]:
    """LEM_DAVID's pool, lazily: the length-`size` sequences whose height
    h >= D(G) - 1 is the multiplicity of 0."""
    return ((h,) + rest for h in range(d - 1, size + 1)
            for rest in _sub_multisets((h,) * (group.order - 1), size - h, h))


def _david_count(group: Group, size: int, d: int) -> int:
    """The length of _david_pool's pool, in closed form."""
    return sum(_compositions(group.order - 1, size - h, h) for h in range(d - 1, size + 1))


def _domain_dict(dom: SweepDomain, sampled: bool, caps: SearchCaps) -> dict[str, Any]:
    return {
        "groups": [format_group(g) for g in dom.groups],
        "wlens": list(dom.wlens),
        "slen_extra": dom.slen_extra,
        "samples": dom.samples if sampled else 0,
        "seed": dom.seed,
        "set_size_max": dom.set_size_max,
        "reduce_translation": dom.reduce_translation,
        "max_instances": dom.max_instances,
        "subgroup_cap": caps.subgroups,
    }


def _per_group(dom: SweepDomain, size: Callable[[Group], int | None],
               build: Callable[[Group], Iterable[Instance]]) -> Iterator[Shard]:
    """One shard per group: size(G) counts its instances at planning time
    (None leaves G out) and build(G) yields them, keyed by position, one at
    a time as the sweep checks them."""
    for group in dom.groups:
        count = size(group)
        if count is not None:
            yield count, lambda group=group: _each_alone(build(group))


@dataclass(frozen=True)
class _SeqPlanner:
    """Planner row for a weights-cross-sequences statement: one shard per
    (group, |W|) with a weight tuple, holding all of its weight tuples.

    clauses are the row's hypotheses, the tuple its checker runs.
    weight_tuples(G, k) keeps each nondecreasing k-tuple of residues mod
    G.order or G.exponent, as alphabet names, that meets every clause not
    reading S: the "length" clauses decide once for all k-tuples, and only
    the "weights" ones are run per tuple, over the unit residues alone when
    the first of them asks for units.  with_n sets n = |W| there and on
    each planned instance.  slen(G, k, caps) is the base sequence length,
    read before the weights and stretched by dom.slen_extra; a length that
    needs D(G) takes it under caps.davenport.  With cap_h, multiplicities
    are at most k.  A weight tuple's pools are translation reduced when
    translate is set and its weight total is 0 mod exp(G), so that
    translating S leaves every |W|-term weighted sum in place; a reduced
    pool holds the least translate of each orbit and is generated orderly
    (_sub_multisets).  So a shard has at most two legs, reduced and not,
    each with one pool spec (size, hcap, reduced) per sequence length.  Its
    count is exact and in closed form (_pool_count, by Burnside's lemma
    when reduced), so planning builds no pool.  Each factory call generates
    the pools afresh and walks them leg by leg, sequence by sequence
    (_seq_walk), each pooled S built once and paired with every weight
    tuple of the leg in turn, and each weight sequence built once.

    With orbits, the row checks one pair per orbit of the maps
    (W, S) -> (uW, phi(S) + t), u a unit of the alphabet, phi in Aut(G)
    (_automorphisms) and t in G, on both legs: a leg's reduction decides
    only whether a pair stands for translation classes or raw vectors.  A
    row opts in when its hypotheses read W only through |W| (and n, which
    is |W| on COR_SPUD's planned instances), the weight total and which
    weights are units, and S only through |S|, h(S), the multiset of its
    multiplicities and the coset condition, and its verdict is invariant
    under S -> S + t for every planned W.  phi commutes with integer
    weights, so sigma(uW, phi(S)) is psi(sigma(W, S)) for the automorphism
    psi = u*phi, which maps the nontrivial subgroups onto themselves and
    each coset g + H onto psi(g) + psi(H), of the same index: whether sigma
    holds 0, all of G or a nontrivial subgroup, and the coset condition,
    are the same for both.  THM_HAM_CHAR's disjunct ii reads the weights'
    values, but it exists on cyclic groups only, where Aut(G) is the units.
    sigma(W, S + t) is sigma(W, S) + (sum W)*t.  THM_WEGZ, CONJ_HAMIDOUNE,
    THM_HAM_CHAR, COR_HAM_VAR and CONJ_ORDAZ_QUIROZ have a weight-total
    clause, so t leaves sigma in place; COR_SPECIALCASE and COR_SPUD read
    sigma only through "sigma = G" and S through the coset condition, which
    a translate keeps.  The weight tuples are grouped into unit orbits
    (weight_orbits), each within one leg since sum uW = u*sum W, and only
    each orbit's first tuple is paired with S; the pools hold the least
    vector of each orbit of S, from the same orderly walk (_affine_pool).
    Each checked pair carries an _Orbit record of the pairs it stands for,
    and sweep counts its verdict for them or checks each of them
    (_stands_for_orbit).  Keys count tuple positions over all of the
    shard's tuples, so counts, failure order and reports are those of every
    weight tuple against _seq_pool's pools.
    """

    clauses: tuple[Clause, ...]
    alphabet: str = "exponent"
    slen: Callable[[Group, int, SearchCaps], int] = lambda g, k, caps: k + g.order - 1
    cap_h: bool = True
    translate: bool = True
    with_n: bool = False
    orbits: bool = False

    def weight_tuples(self, group: Group, k: int,
                      caps: SearchCaps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
        n = k if self.with_n else None
        # the "length" clauses read no weight value, so k zeros stand for every k-tuple
        probe = Instance(group, weights=WeightSeq(group, (0,) * k), n=n)
        if _unmet(self.reading("length"), probe, caps) is not None:
            return []
        valued = self.reading("weights")
        alphabet = range(getattr(group, self.alphabet))
        if valued and valued[0] in (_W_UNITS_ORDER, _W_UNITS_EXP):
            # only tuples of units pass, and |G| and exp(G) have the same primes
            alphabet = [r for r in alphabet if gcd(r, group.exponent) == 1]
        return [wtuple for wtuple in combinations_with_replacement(alphabet, k)
                if _unmet(valued, Instance(group, weights=weight_seq(group, wtuple), n=n),
                          caps) is None]

    def reading(self, reads: str) -> tuple[Clause, ...]:
        """The clauses, in order, whose reads is `reads`."""
        return tuple(c for c in self.clauses if c.reads == reads)

    def weight_orbits(self, group: Group, wtuples) -> list[list[int]]:
        """The positions in wtuples grouped by unit orbit, each ascending and
        the orbits in order of their first position; each position alone
        unless the row opts in.  A tuple's orbit is named by its least image
        sorted(u*w) over the units u of the alphabet."""
        modulus = getattr(group, self.alphabet)
        units = _units(modulus) if self.orbits else [1]
        orbits: dict[tuple[int, ...], list[int]] = {}
        for i, wt in enumerate(wtuples):
            least = min(tuple(sorted(u * x % modulus for x in wt)) for u in units)
            orbits.setdefault(least, []).append(i)
        return list(orbits.values())

    def __call__(self, dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
        for group in dom.groups:
            pool = _affine_pool if self.orbits else _vectors_alone(_seq_pool)
            for wlen in dom.wlens:
                base = self.slen(group, wlen, caps)
                sizes = range(base, base + dom.slen_extra + 1)
                wtuples = tuple(self.weight_tuples(group, wlen, caps))
                legs: dict[bool, list[list[int]]] = {}
                for orbit in self.weight_orbits(group, wtuples):
                    reduced = (dom.reduce_translation and self.translate
                               and sum(wtuples[orbit[0]]) % group.exponent == 0)
                    legs.setdefault(reduced, []).append(orbit)
                if wtuples:
                    yield _seq_shard(group, wtuples, [
                        (reduced, orbits,
                         tuple((size, wlen if self.cap_h else size, reduced) for size in sizes))
                        for reduced, orbits in legs.items()], pool, _pool_count, self.with_n)


def _seq_walk(group: Group, wtuples: tuple[tuple[int, ...], ...], legs: Iterable[tuple],
              pool: Callable[..., Iterable], with_n: bool = False) -> Iterator[tuple]:
    """The factory of a sequence row's shard (_seq_shard), walking it leg
    by leg: a (key, instance, _Orbit) triple for each pair of a unit orbit's
    first weight tuple and a pooled sequence, keyed (tuple position, pool
    position, multiplicity vector), visited sequence by sequence, with each
    pooled S and each weight sequence built once.  pool(group, *spec) yields
    (vector, other classes) pairs, lex ascending, so a tuple's keys ascend
    as the walk does.  The record carries the orbit's other weight tuples,
    S's count of other classes and the leg's reduction; a leg's records,
    built when a pooled S first has their class count, share the leg's own
    cache of S's orbit, as a vector expands into least translates on a
    reduced leg and into every translate of its images on the other."""
    for reduced, orbits, specs in legs:
        # each orbit's (tuple position, weight sequence) pairs, its first tuple first
        members = [[(wi, weight_seq(group, wtuples[wi])) for wi in orbit] for orbit in orbits]
        seqs: dict = {}  # the leg's records' shared cache of S's orbit (_orbit_members)
        by_classes: dict[int, list[tuple]] = {}
        for pi, spec in enumerate(specs):
            for mult, classes in pool(group, *spec):
                seq = GSequence(group, mult)
                reps = by_classes.get(classes)
                if reps is None:
                    reps = by_classes[classes] = [
                        (*first, _Orbit(tuple(others), classes, reduced, seqs))
                        for first, *others in members]
                for wi, w, record in reps:
                    yield ((wi, pi, mult), Instance(group, seq, w, w.length if with_n else None),
                           record)


def _orbit_members(key: tuple, inst: Instance, orbit: _Orbit) -> list[tuple]:
    """The keyed instances of the pairs a representative stands for, in key
    order: its weights and the orbit's other weights crossed with its S and
    the other vectors of S's orbit (_affine_images), the
    representative itself left out, each keyed by its own tuple position
    and vector and with the representative's n.  S's orbit is built at the
    first expansion against S and kept in orbit.seqs for the others, which
    follow it in the walk."""
    group, (wi, pi, mult) = inst.group, key
    seqs = orbit.seqs.get(mult)
    if seqs is None:
        orbit.seqs.clear()
        seqs = orbit.seqs[mult] = [(mult, inst.seq)] + [
            (image, GSequence(group, image)) for image in _affine_images(group, mult, orbit.reduced)]
    return [((wj, pi, image), Instance(group, seq, w, inst.n))
            for wj, w in ((wi, inst.weights), *orbit.weights) for image, seq in seqs][1:]


def _seq_shard(group: Group, wtuples: tuple[tuple[int, ...], ...], legs: list[tuple],
               pool: Callable[..., Iterable], count: Callable[..., int],
               with_n: bool = False) -> Shard:
    """wtuples against their pools, leg by leg (_seq_walk): a leg (reduced,
    orbits, specs) holds unit orbits of positions in wtuples and one pool
    spec per sequence length.  pool(group, *spec) generates its (vector,
    other classes) pairs and count(group, *spec) gives, in closed form, the
    number of vectors they stand for, so planning builds no pool and each
    factory call walks fresh ones."""
    return (sum(sum(map(len, orbits)) * sum(count(group, *spec) for spec in specs)
                for _, orbits, specs in legs),
            lambda: _seq_walk(group, wtuples, legs, pool, with_n))


def _plan_david(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
    for group in dom.groups:
        d = davenport(group, cap=caps.davenport)
        for wlen in dom.wlens:
            specs = tuple((size, d) for size in range(wlen + d - 1, wlen + d + dom.slen_extra))
            wtuples = tuple(combinations_with_replacement(range(group.exponent), wlen))
            yield _seq_shard(group, wtuples, [(False, [[i] for i in range(len(wtuples))], specs)],
                             _vectors_alone(_david_pool), _david_count)


def _plan_subgroup_instances(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
    return _per_group(
        dom, lambda g: len(all_subgroups(g, caps.subgroups)),
        lambda g: (Instance(g, extra={"subgroup": sub})
                   for sub in all_subgroups(g, caps.subgroups)))


def _plan_split(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
    def build(group: Group, indices: tuple[int, ...], units: list[int], d: int,
              exhaustive: bool) -> Iterator[tuple]:
        a = gset(group, [group.element_from_index(i) for i in indices])
        extra = {"set": a, "base_index": 0}
        if exhaustive:
            wtuples = combinations_with_replacement(units, d)
        else:
            tag = ",".join(map(str, indices))
            rng = random.Random(f"{dom.seed}:{format_group(group)}:{tag}:split")
            wtuples = (tuple(sorted(rng.choices(units, k=d))) for _ in range(dom.samples))
        return _each_alone(Instance(group, weights=weight_seq(group, wt), extra=extra)
                           for wt in wtuples)

    for group in dom.groups:
        for k in range(2, dom.set_size_max + 1):
            if k > group.order:
                continue
            for rest in combinations(range(1, group.order), k - 1):
                indices = (0,) + rest
                sub = subgroup_generated(group, indices)
                d = dstar(sub)
                units = [u for u in range(1, sub.exponent + 1)
                         if gcd(u, sub.exponent) == 1]
                exhaustive = len(units) ** d <= 10_000
                yield (comb(len(units) + d - 1, d) if exhaustive else dom.samples,
                       partial(build, group, indices, units, d, exhaustive))


def _plan_pigeonhole(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
    def build(group: Group) -> Iterator[Instance]:
        m = group.order
        for abits in range(1, 1 << m):
            asize = abits.bit_count()
            for bbits in range(abits, 1 << m):
                if asize + bbits.bit_count() > m:
                    yield Instance(group, extra={
                        "set_a": GSet(group, abits),
                        "set_b": GSet(group, bbits)})

    def size(group: Group) -> int:
        # mask pairs A <= B with |A| + |B| > m: by Vandermonde (4^m - C(2m, m)) / 2
        # ordered pairs, plus the (2^m - [m even] C(m, m/2)) / 2 with A = B, halved
        m = group.order
        ordered = (4 ** m - comb(2 * m, m)) // 2
        diagonal = (2 ** m - (comb(m, m // 2) if m % 2 == 0 else 0)) // 2
        return (ordered + diagonal) // 2

    return _per_group(dom, size, build)


def _plan_ap_struct(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
    def build(group: Group) -> Iterator[Instance]:
        masks = [b for b in range(1, 1 << group.order) if b & 1 and b.bit_count() >= 2]
        for i, abits in enumerate(masks):
            for bbits in masks[i:]:
                yield Instance(group, extra={"sets": (GSet(group, abits), GSet(group, bbits))})

    # 2^(|G|-1) - 1 sets hold 0 and another element; shards list unordered pairs
    return _per_group(dom, lambda g: (1 << (g.order - 1)) * ((1 << (g.order - 1)) - 1) // 2,
                      build)


@dataclass(frozen=True)
class Statement:
    """Registry record of one statement.

    checker evaluates one instance; planner(dom, caps) yields a sweep
    domain's shards in enumeration order, each a Shard (its exact instance
    count and the factory yielding its keyed instances in check order),
    taking D(G) under the sweep's caps.davenport as the checkers do (None:
    the statement takes explicit instances only); anchor is the statement as
    reports quote it; flag picks the verdicts a report lists besides the
    failures (None: reports carry no flagged key); sampled says the planner
    draws dom.samples random instances, so the report's domain shows that
    count.
    A row made by _seq_statement has a _SeqPlanner whose clauses are the one
    statement of its hypotheses (_seq_statement); sweep runs its checker.
    """

    checker: Callable[[Instance, SearchCaps], Verdict]
    planner: Callable[[SweepDomain, SearchCaps], Iterable[Shard]] | None
    anchor: str
    flag: Callable[[Instance, Verdict], bool] | None = None
    sampled: bool = False


def _example_statement(group_test: Callable[[Group], str | None],
                       build: Callable[[Group], Instance], shape: str,
                       anchor: str) -> Statement:
    """Registry row of an example family over Z/m.  Its checker needs G to
    pass group_test and the instance to have the sequence and the weight
    residues, up to order, of the family's instance build(G) (else the
    hypothesis `shape` is not met); then the |W|-term weighted sums are Z/m
    minus its middle, {m/2} for even m and {(m-1)/2, (m+1)/2} for odd m, and
    no nontrivial subgroup fits in them.  Its planner reads the same group
    test and plans build(G) on each group that passes it."""
    def check(inst: Instance, caps: SearchCaps) -> Verdict:
        _need(inst, seq=True, weights=True)
        reason = group_test(inst.group)
        if reason:
            return _hyp_fail(reason)
        ref = build(inst.group)
        if (inst.seq.mult != ref.seq.mult
                or sorted(inst.weights.residues) != sorted(ref.weights.residues)):
            return _hyp_fail(shape)
        m = inst.group.order
        missing = sorted({m // 2, (m + 1) // 2})
        full = sigma_n(inst.weights, inst.seq, inst.weights.length)
        if full.bits != inst.group.full_mask & ~sum(1 << i for i in missing):
            return Verdict(Status.FAILS, {"sum_set": full, "expected_missing": missing})
        if contained_subgroup(full) is not None:
            return Verdict(Status.FAILS, {"sum_set": full, "reason": "a nontrivial subgroup fits"})
        return Verdict(Status.HOLDS, {"sum_set": full, "missing": missing})

    def plan(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
        return _per_group(dom, lambda g: None if group_test(g) else 1, lambda g: map(build, (g,)))

    return Statement(check, plan, anchor)


def _gao_statement(threshold: Callable[[Group, SearchCaps], int], shorter: str,
                   anchor: str) -> Statement:
    """Registry row of a Gao-type statement: |S| >= threshold(G, caps) (else
    the hypothesis `shorter` is not met) forces _cover_or_coset on the
    |G|-term subsums.  Its planner reads the same threshold: per group it
    draws dom.samples sequences of that length plus dom.slen_extra."""
    def check(inst: Instance, caps: SearchCaps) -> Verdict:
        _need(inst, seq=True)
        group, s = inst.group, inst.seq
        if s.length < threshold(group, caps):
            return _hyp_fail(shorter)
        return _cover_or_coset(s, sums_by_count(s)[group.order], caps)

    def plan(dom: SweepDomain, caps: SearchCaps = DEFAULT_CAPS) -> Iterator[Shard]:
        sizes = {group: threshold(group, caps) + dom.slen_extra for group in dom.groups}

        def build(group: Group) -> Iterator[Instance]:
            rng = random.Random(f"{dom.seed}:{format_group(group)}:unweighted")
            for _ in range(dom.samples):
                mult = [0] * group.order
                for idx in rng.choices(range(group.order), k=sizes[group]):
                    mult[idx] += 1
                yield Instance(group, seq=GSequence(group, tuple(mult)))

        return _per_group(dom, lambda g: dom.samples, build)

    return Statement(check, plan, anchor, sampled=True)


def _seq_statement(planner: _SeqPlanner, conclusion: Callable[[Instance, SearchCaps], Verdict],
                   anchor: str, *, davenport_first: bool = False,
                   flag: Callable[[Instance, Verdict], bool] | None = None) -> Statement:
    """Registry row of a weights-cross-sequences statement.  Its checker
    needs S, W and, when the planner sets n, n; with davenport_first it
    reads D(G) under caps.davenport; then it runs planner.clauses in order,
    the first one unmet giving hypothesis_not_met with its reason, and
    otherwise the conclusion.  The planner filters its weight tuples by the
    same clauses."""
    def check(inst: Instance, caps: SearchCaps) -> Verdict:
        _need(inst, seq=True, weights=True, n=planner.with_n)
        if davenport_first:
            davenport(inst.group, caps.davenport)
        reason = _unmet(planner.clauses, inst, caps)
        return conclusion(inst, caps) if reason is None else _hyp_fail(reason)

    return Statement(check, planner, anchor, flag)


STATEMENTS: dict[StatementId, Statement] = {
    StatementId.EX1: _example_statement(
        _ex1_group, lambda g: example1_instance(g.order),
        "not the twin-weight triple-support shape for this prime",
        "over Z/p with p = 3 mod 4 prime, weights 1 and -1 each (n-1)/2 times plus one 0 "
        "against 0^n 1^n 2^n, n = (p-1)/2: the n-term weighted sums are Z/p minus "
        "{(p-1)/2, (p+1)/2}, so no nontrivial subgroup fits"),
    StatementId.EX2: _example_statement(
        _ex2_group, lambda g: example2_instance(g.order.bit_length() - 1),
        "not the twin-weight double-support shape for this order",
        "over Z/2^r, weights 1 and -1 each (n-1)/2 times plus one 0 against 0^n 1^n, "
        "n = 2^r - 1: the n-term weighted sums miss exactly 2^(r-1), the unique "
        "involution, so no nontrivial subgroup fits"),
    StatementId.THM_GAO_COSET: _gao_statement(
        lambda g, caps: ell(g, caps.davenport), "sequence shorter than |G| + D(G) - 1",
        "|S| >= |G| + D(G) - 1 forces: the |G|-term subsums cover G, or some coset g+H "
        "holds all but at most |G/H| - 2 terms of S"),
    StatementId.THM_WEGZ: _seq_statement(
        _SeqPlanner(_WEGZ_CLAUSES, cap_h=False, orbits=True), _zero_in_full_sum,
        "weight total divisible by exp(G) and |S| >= |W| + |G| - 1 force 0 into the "
        "|W|-term weighted sums"),
    StatementId.CONJ_HAMIDOUNE: _seq_statement(
        _SeqPlanner(_HAMIDOUNE_CLAUSES, "order", orbits=True), _SubgroupInSums(),
        "|S| >= |W| + |G| - 1 >= |G| + 1, weight total divisible by |G|, h(S) <= |W|, "
        "all weights but at most one coprime to |G|: claimed to force a nontrivial "
        "subgroup inside the |W|-term weighted sums (false in general)"),
    StatementId.CONJ_ORDAZ_QUIROZ: _seq_statement(
        _SeqPlanner(_ORDAZ_QUIROZ_CLAUSES, "order",
                    slen=lambda g, k, caps: ell(g, caps.davenport), cap_h=False, orbits=True),
        _full_sum_cover_or_coset,
        "all weights coprime to |G|, |W| = |G|, weight total divisible by |G|, "
        "|S| = |G| + D(G) - 1: claimed to force full coverage or the coset condition",
        davenport_first=True),
    StatementId.THM_HAM_CHAR: _seq_statement(
        _SeqPlanner(_HAM_CHAR_CLAUSES, "order", orbits=True), _SubgroupInSums(twin=True),
        "under the subgroup-conjecture hypotheses with 2|W| >= |G|: a nontrivial "
        "subgroup lies in the |W|-term weighted sums, or |supp(S)| = 2, |W| = |G| - 1, "
        "G = Z/2^r, and the weights are x and -x in equal numbers plus one 0 mod |G|",
        flag=lambda inst, v: v.status is Status.HOLDS and v.witness.get("disjunct") == "ii"),
    StatementId.LEM_DSTAR_SUBADD: Statement(
        _check_dstar_subadd, _plan_subgroup_instances,
        "d*(H) + d*(G/H) <= d*(G) for every subgroup H of G"),
    StatementId.LEM_SPLIT: Statement(
        _check_split, _plan_split,
        "for |A| >= 2, H generated by A - a0, and d*(H) weights coprime to exp(H): "
        "the positional weighted sum of A with itself is exactly (weight total)a0 + H",
        sampled=True),
    StatementId.PROP_DUAL: Statement(
        _check_dual, _plan_subgroup_instances,
        "every subgroup H admits a partner K with K of the type of G/H and G/K of the "
        "type of H"),
    StatementId.PROP_ALIGN: Statement(
        _check_align, _plan_subgroup_instances,
        "a subgroup's invariant factors, left-padded with 1s, divide the ambient "
        "factors position by position, and per prime the aligned valuations never "
        "exceed the ambient ones"),
    StatementId.THM_SETPART_WITNESS: _seq_statement(
        _SeqPlanner(_SETPART_CLAUSES, slen=lambda g, k, caps: k, translate=False, with_n=True),
        _setpartition_search,
        "unit weights, n >= d*(G), h(S') <= n <= |S'|: some equal-length subsequence "
        "has an n-setpartition whose weighted block sum reaches min(|G|, |S'| - n + 1) "
        "elements, or one aligned to a coset g+H with the four alignment clauses"),
    StatementId.THM_SETPART_MAXK: Statement(
        check_max_subgroup_dichotomy, None,
        "given a maximal certified subgroup K: K = G yields an n-setpartition whose "
        "weighted block sum is all of G; K < G yields the aligned conclusion with H = K"),
    StatementId.PROP_PIGEONHOLE: Statement(
        _check_pigeonhole, _plan_pigeonhole,
        "|A| + |B| >= |G| + 1 forces A + B = G"),
    StatementId.COR_GAO_DSTAR: _gao_statement(
        lambda g, caps: g.order + dstar(g), "sequence shorter than |G| + d*(G)",
        "|S| >= |G| + d*(G) forces: the |G|-term subsums cover G, or the coset "
        "condition"),
    StatementId.COR_SPUD: _seq_statement(
        _SeqPlanner(_SPUD_CLAUSES, with_n=True, orbits=True), _n_sums_cover,
        "max(h(S), d*(G)) <= n <= |S| - |G| + 1, all weights coprime to exp(G), "
        "|W| >= n, and no coset holding all but at most |G/H| - 2 terms: the n-term "
        "weighted sums cover G"),
    StatementId.LEM_DAVID: Statement(
        _check_david, _plan_david,
        "multiplicity of 0 equal to h(S) and at least D(G) - 1, with "
        "|S| >= |W| + D(G) - 1: weighted sums of every length equal the |W|-term "
        "weighted sums"),
    StatementId.COR_SPECIALCASE: _seq_statement(
        _SeqPlanner(_SPECIALCASE_CLAUSES, "order", slen=lambda g, k, caps: ell(g, caps.davenport),
                    orbits=True),
        _full_sum_cover_or_coset,
        "all weights coprime to |G|, |W| = |G|, |S| >= |G| + D(G) - 1, "
        "D(G) - 1 <= h(S) <= |G|: full coverage or the coset condition",
        davenport_first=True),
    StatementId.COR_HAM_VAR: _seq_statement(
        _SeqPlanner(_HAM_VAR_CLAUSES, orbits=True), _SubgroupInSums(),
        "weight total divisible by exp(G), h(S) <= |W|, |S| >= |W| + |G| - 1, and at "
        "least d*(G) weights coprime to exp(G): a nontrivial subgroup lies in the "
        "|W|-term weighted sums"),
    StatementId.AP_STRUCT: Statement(
        _check_ap_struct, _plan_ap_struct,
        "three or more spanning, non-quasi-periodic sets containing 0 whose sum is "
        "aperiodic and meets the size equality are progressions with one common "
        "difference; likewise two sets when one has exactly 2 elements"),
}


def sweepable_statements() -> list[StatementId]:
    return sorted((sid for sid, st in STATEMENTS.items() if st.planner is not None),
                  key=lambda sid: sid.value)


def _stands_for_orbit(verdict: Verdict, inst: Instance) -> bool:
    """An unflagged verdict of an orbit's representative is every member's
    when it is hypothesis_not_met, or when it holds and the pair's exact
    sigma_n cannot run out of states: a member's sum set is the image of
    the representative's under an automorphism, but the quick path is not
    orbit-invariant, so a member may reach sigma_n where the representative
    did not.  Whether it can (_within_cap) reads only class multiplicities,
    the same across an orbit."""
    return verdict.status is Status.HYPOTHESIS_NOT_MET or (
        verdict.status is Status.HOLDS
        and _within_cap(inst.weights, inst.seq, inst.weights.length))


def sweep(sid: StatementId, dom: SweepDomain, threads: int = 1,
          caps: SearchCaps = DEFAULT_CAPS) -> SweepReport:
    """Run one statement over a whole domain, on the calling thread.

    The planner's shards are all listed first, and DomainTooLarge is raised
    when their counts sum past dom.max_instances, so neither that nor a cap
    error raised while planning lets any instance be checked.  The counts,
    like the report's examined, are of the instances the shards stand for,
    orbit members included.  Then each shard's factory yields its keyed
    instances in check order, and each goes through check_instance, as an
    explicit instance does.  A sequence row's shard is walked leg by leg
    and sequence by sequence (_SeqPlanner), so what the checker memoizes
    per S serves every weight tuple of the leg.  On a row with orbits
    (_SeqPlanner.orbits) an instance is its orbit's representative, and its
    _Orbit record stands for the other pairs (uW, phi(S) + t) of the orbit,
    phi in Aut(G) and t in G.  Where its verdict stands for them (_stands_for_orbit),
    it is counted once per member, and otherwise each member is built and
    checked under its own key, so failures, flagged pairs and their
    witnesses are those of the unreduced sweep.  The verdicts are tallied
    as they go: status counts, failures and flagged pairs are kept, each
    shard's kept pairs sorted by key back into enumeration order, and
    everything else dropped.  So memory holds the failures, the flagged
    pairs and the instance being checked, and the report is deterministic.
    threads is accepted and ignored.
    """
    statement = STATEMENTS[sid]
    if statement.planner is None:
        raise MissingField(f"{sid.value} takes explicit instances, not sweep domains")
    shards = list(statement.planner(dom, caps))
    planned = sum(count for count, _ in shards)
    if planned > dom.max_instances:
        raise DomainTooLarge(
            f"estimated {planned} instances exceed the cap {dom.max_instances}")
    flag = statement.flag
    tally = dict.fromkeys(Status, 0)
    failures: list[tuple[Instance, Verdict]] = []
    flagged: list[tuple[Instance, Verdict]] = []
    kept: list[tuple[Any, Instance, Verdict, bool]] = []

    def check(key: Any, inst: Instance) -> tuple[Verdict, bool]:
        verdict = check_instance(sid, inst, caps)
        tally[verdict.status] += 1
        marked = flag is not None and flag(inst, verdict)
        if marked or verdict.status is Status.FAILS:
            kept.append((key, inst, verdict, marked))
        return verdict, marked

    for _, factory in shards:
        for key, inst, orbit in factory():
            verdict, marked = check(key, inst)
            if orbit.size and (marked or not _stands_for_orbit(verdict, inst)):
                for key, inst in _orbit_members(key, inst, orbit):
                    check(key, inst)
            else:
                tally[verdict.status] += orbit.size
        kept.sort(key=itemgetter(0))
        failures += [(inst, v) for _, inst, v, _ in kept if v.status is Status.FAILS]
        flagged += [(inst, v) for _, inst, v, marked in kept if marked]
        kept.clear()
    counts = {status.value: count for status, count in tally.items()}
    return SweepReport(
        statement=sid,
        domain=_domain_dict(dom, statement.sampled, caps),
        counts=counts,
        failures=failures,
        flagged=flagged,
        anchor=statement.anchor,
        examined=sum(counts.values()),
    )


# ---------------------------------------------------------------------------
# serialization


def to_jsonable(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Status):
        return obj.value
    if isinstance(obj, StatementId):
        return obj.value
    if isinstance(obj, Group):
        return format_group(obj)
    if isinstance(obj, Element):
        return format_element(obj)
    if isinstance(obj, Subgroup):
        return {
            "iso": format_group(interned_group(obj.iso_type)),
            "elements": obj.indices(),
        }
    if isinstance(obj, GSet):
        return obj.indices()
    if isinstance(obj, GSequence):
        return format_sequence(obj)
    if isinstance(obj, WeightSeq):
        return format_weights(obj)
    if isinstance(obj, Setpartition):
        return [mask_to_indices(mask) for mask in obj.masks]
    if isinstance(obj, SetpartitionWitness):
        return {
            "subgroup": to_jsonable(obj.subgroup),
            "partition": to_jsonable(obj.partition),
            "n_common": obj.n_common,
            "excess": obj.excess,
            "bound": obj.bound,
        }
    if isinstance(obj, Verdict):
        return verdict_to_dict(obj)
    if isinstance(obj, Instance):
        return instance_to_dict(obj)
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [to_jsonable(x) for x in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "group": format_group(inst.group),
        "seq": format_sequence(inst.seq) if inst.seq is not None else None,
        "weights": format_weights(inst.weights) if inst.weights is not None else None,
        "n": inst.n,
        "extra": to_jsonable(inst.extra),
    }


def verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    return {"status": verdict.status.value, "witness": to_jsonable(verdict.witness)}


def _pairs_to_dicts(pairs: list[tuple[Instance, Verdict]]) -> list[dict[str, Any]]:
    return [{"instance": instance_to_dict(inst), "verdict": verdict_to_dict(v)}
            for inst, v in pairs]


def report_to_json(report: SweepReport) -> str:
    payload: dict[str, Any] = {
        "statement": report.statement.value,
        "domain": report.domain,
        "counts": {
            "holds": report.counts.get(Status.HOLDS.value, 0),
            "fails": report.counts.get(Status.FAILS.value, 0),
            "hyp_not_met": report.counts.get(Status.HYPOTHESIS_NOT_MET.value, 0),
            "undecided": report.counts.get(Status.UNDECIDED_CAPPED.value, 0),
        },
        "failures": _pairs_to_dicts(report.failures),
        "registry_anchor": report.anchor,
    }
    if STATEMENTS[report.statement].flag is not None:
        payload["flagged"] = _pairs_to_dicts(report.flagged)
    return json.dumps(payload, sort_keys=True, indent=2)


def report_to_csv(report: SweepReport) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "statement", "group", "weights", "seq", "n",
                     "status", "detail"])
    for kind, rows in (("failure", report.failures), ("flagged", report.flagged)):
        for inst, verdict in rows:
            writer.writerow([
                kind,
                report.statement.value,
                format_group(inst.group),
                format_weights(inst.weights) if inst.weights is not None else "",
                format_sequence(inst.seq) if inst.seq is not None else "",
                inst.n if inst.n is not None else "",
                verdict.status.value,
                json.dumps(to_jsonable(verdict.witness), sort_keys=True),
            ])
    return buf.getvalue()
