"""Finite abelian groups in invariant-factor form, with subgroup and quotient machinery.

A group is presented by invariant factors n1 | n2 | ... | nr, so it is
C_n1 + ... + C_nr.  Elements are coordinate vectors; each element also has a
mixed-radix little-endian integer index in [0, order), index 0 being the
identity.  Sets of elements are manipulated as integer bitmasks over the index
space, which keeps sumset-style operations word-parallel.

A subgroup H's own type, G/H's type and the projection G -> G/H, x -> xV
mod d, all come from one Smith normal form diag(d) = UAV of the matrix A
with rows n_i e_i and H's generators, kept on the Subgroup (Subgroup._smith).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property
from math import isqrt, prod

from .errors import (
    CapExceeded,
    EmptyFactors,
    FactorBelowTwo,
    GroupMismatch,
    GroupTooLarge,
    NonDivisibleChain,
    NotASubgroup,
    ParseError,
)

ORDER_CAP = 256
SUBGROUP_CAP = 4096  # default cap on the size of a subgroup lattice

__all__ = [
    "ORDER_CAP",
    "SUBGROUP_CAP",
    "Group",
    "Element",
    "Subgroup",
    "make_group",
    "interned_group",
    "trivial_group",
    "parse_group",
    "format_group",
    "parse_element",
    "format_element",
    "elt_order",
    "subgroup_generated",
    "subgroup_from_elements",
    "all_subgroups",
    "quotient",
    "quotient_iso_type",
    "QuotientMap",
    "abelian_group_types",
    "iter_mask",
    "mask_to_indices",
]


def iter_mask(mask: int):
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_indices(mask: int) -> list[int]:
    return list(iter_mask(mask))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, e) pairs; [] for 1."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class Group:
    """Finite abelian group C_n1 + ... + C_nr with n1 | n2 | ... | nr.

    The empty factor tuple is the trivial group; it arises from quotients and
    degenerate subgroups and is valid everywhere internally, but make_group
    rejects it at the public construction boundary.

    Groups are interned: make_group, parse_group, trivial_group, quotient and
    abelian_group_types return one object per factor tuple.  Derived tables
    (the per-element rotation lists translate_mask walks and their copies
    over packed fields (field_translations, through stored()), multiples,
    the one table of x -> r*x, differences and prime_order_subgroups) are
    built on first use and cached on that object, so every set, sequence
    and instance of the group shares them.  The tables a caller's cap
    bounds, the subgroup lattice (all_subgroups), D(G) with its witness
    (invariants.davenport_report) and the sigma DP's layouts
    (weighted._layout), are kept on it too, through stored().
    So are its subgroups: subgroup(mask) returns one Subgroup per mask, and
    every subgroup builder goes through it.
    """

    invariant_factors: tuple[int, ...]

    @cached_property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @cached_property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @cached_property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for n in self.invariant_factors:
            out.append(s)
            s *= n
        return tuple(out)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @cached_property
    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def __repr__(self) -> str:
        return format_group(self)

    def stored(self, name: str, build):
        """The table `name`, built by build() on first use and kept on the group.

        For tables whose build a caller caps: a build that raises keeps
        nothing, so a later call under a larger cap can still succeed, and
        each caller checks its own cap against what is kept.
        """
        tables = self.__dict__.setdefault("_stored", {})
        if name not in tables:
            tables[name] = build()
        return tables[name]

    def subgroup(self, mask: int) -> "Subgroup":
        """The one Subgroup object for a closed index mask (closure unchecked)."""
        subs = self.stored("subgroups", dict)
        sub = subs.get(mask)
        if sub is None:
            sub = subs[mask] = Subgroup(self, mask)
        return sub

    # -- index arithmetic ---------------------------------------------------

    def index_to_coords(self, idx: int) -> tuple[int, ...]:
        coords = []
        for n in self.invariant_factors:
            coords.append(idx % n)
            idx //= n
        return tuple(coords)

    def coords_to_index(self, coords) -> int:
        idx = 0
        for c, n, s in zip(coords, self.invariant_factors, self.strides):
            idx += (c % n) * s
        return idx

    def index_add(self, a: int, b: int) -> int:
        out = 0
        for n, s in zip(self.invariant_factors, self.strides):
            out += ((a // s + b // s) % n) * s
        return out

    @cached_property
    def multiples(self) -> tuple:
        """multiples[a][r] is the index of r*a, for r < exp(G): the group's
        one table of x -> r*x, which index_scalar, index_neg, index_order
        and dilate_mask read.  Row a adds up the digit rows
        ((r * c) % n_i) * s_i of a's coordinates c."""
        exp = self.exponent
        rows = [(0,) * exp]
        for n, s in zip(self.invariant_factors, self.strides):
            digits = [tuple((r * c % n) * s for r in range(exp)) for c in range(n)]
            rows = [tuple(map(operator.add, row, d)) for d in digits for row in rows]
        return tuple(rows)

    def index_neg(self, a: int) -> int:
        return self.multiples[a][-1 % self.exponent]

    def index_scalar(self, w: int, a: int) -> int:
        return self.multiples[a][w % self.exponent]

    def index_order(self, a: int) -> int:
        """Least r >= 1 with r*a = 0."""
        return (self.multiples[a] + (0,)).index(0, 1)

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise GroupMismatch(f"expected {self.rank} coordinates, got {len(coords)}")
        return Element(self, tuple(int(c) % n for c, n in zip(coords, self.invariant_factors)))

    def element_from_index(self, idx: int) -> "Element":
        return Element(self, self.index_to_coords(idx))

    def elements(self):
        for idx in range(self.order):
            yield self.element_from_index(idx)

    # -- bitmask machinery ----------------------------------------------------
    # Masks are plain ints over the index space.  Translating a whole set by
    # c units in coordinate i is a rotation inside each block of length
    # stride(i) * n_i, which costs O(1) bigint operations per coordinate.

    @cached_property
    def _translations(self) -> tuple:
        # _translations[g] = one (low_rep, high_rep, k, back) per nonzero
        # coordinate c of g: the bits under low_rep move up k = c * s_i, and
        # those under high_rep wrap down back = block - k
        per_coord = []
        for n, s in zip(self.invariant_factors, self.strides):
            block = n * s
            comb = self.full_mask // ((1 << block) - 1)  # bit 0 of every block
            rots = [None]
            for k in range(s, block, s):
                rots.append((((1 << (block - k)) - 1) * comb,
                             (((1 << k) - 1) << (block - k)) * comb, k, block - k))
            per_coord.append(rots)
        return tuple(
            tuple(rots[c] for c, rots in zip(self.index_to_coords(g), per_coord) if c)
            for g in range(self.order))

    def field_translations(self, fields: int) -> tuple:
        """_translations with every mask repeated over `fields` |G|-bit fields,
        so that one pass translates each field of a packed mask by g at once.
        Built once per field count and kept on the group through stored()."""
        tables = self.stored("field_translations", dict)
        table = tables.get(fields)
        if table is None:
            rep = ((1 << self.order * fields) - 1) // self.full_mask  # bit 0 of every field
            table = tables[fields] = tuple(
                tuple((low * rep, high * rep, k, back) for low, high, k, back in rots)
                for rots in self._translations)
        return table

    @cached_property
    def differences(self) -> tuple:
        """differences[g][x] = index_add(x, index_neg(g)), the index of x - g."""
        return tuple(tuple(self.index_add(x, self.index_neg(g)) for x in range(self.order))
                     for g in range(self.order))

    def translate_mask(self, mask: int, gidx: int) -> int:
        """Image of the index set ``mask`` under x -> x + g."""
        for low_rep, high_rep, k, back in self._translations[gidx]:
            mask = ((mask & low_rep) << k) | ((mask & high_rep) >> back)
        return mask

    def dilate_mask(self, mask: int, w: int) -> int:
        """Image of the index set ``mask`` under x -> w*x (not injective for
        non-units): one multiples entry per element."""
        r = w % self.exponent
        if r == 1:
            return mask
        multiples = self.multiples
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << multiples[low.bit_length() - 1][r]
            mask ^= low
        return out

    def sum_masks(self, a: int, b: int) -> int:
        """Index set {x + y : x in a, y in b}: the larger set translated by
        each element of the smaller.  It is most of a positional weighted
        sum, so it walks the smaller set's bits and applies translate_mask's
        rotations in place, with no generator or call per element."""
        if a.bit_count() < b.bit_count():
            a, b = b, a
        translations = self._translations
        out = 0
        while b:
            low = b & -b
            shifted = a
            for low_rep, high_rep, k, back in translations[low.bit_length() - 1]:
                shifted = ((shifted & low_rep) << k) | ((shifted & high_rep) >> back)
            out |= shifted
            b ^= low
        return out

    @cached_property
    def prime_order_subgroups(self) -> tuple["Subgroup", ...]:
        """Every subgroup of prime order, sorted by (order, least generator index).

        Such a subgroup is cyclic and each of its nonzero elements generates
        it; its generator here is the one with the least index.  Every
        nontrivial subgroup contains one of these, so scanning them in this
        order finds the smallest nontrivial subgroup inside a set, ties going
        to the least generator index.
        """
        found = []
        covered = 1
        for idx in range(1, self.order):
            if (covered >> idx) & 1:
                continue
            o = self.index_order(idx)
            if _is_prime(o):
                mask = _span(self, [idx])
                covered |= mask
                found.append((o, idx, mask))
        return tuple(self.subgroup(mask) for _, _, mask in sorted(found))


@dataclass(frozen=True)
class Element:
    group: Group
    coords: tuple[int, ...]

    @cached_property
    def index(self) -> int:
        return self.group.coords_to_index(self.coords)

    @cached_property
    def order(self) -> int:
        return self.group.index_order(self.index)

    def __add__(self, other: "Element") -> "Element":
        if other.group != self.group:
            raise GroupMismatch("elements from different groups")
        return self.group.element_from_index(self.group.index_add(self.index, other.index))

    def __neg__(self) -> "Element":
        return self.group.element_from_index(self.group.index_neg(self.index))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __rmul__(self, w: int) -> "Element":
        return self.group.element_from_index(self.group.index_scalar(w, self.index))

    def __repr__(self) -> str:
        return f"{format_element(self)}@{format_group(self.group)}"


def make_group(factors) -> Group:
    """Build a group from invariant factors; raises unless 2 <= n1 | n2 | ... | nr."""
    factors = tuple(int(n) for n in factors)
    if not factors:
        raise EmptyFactors("need at least one invariant factor")
    for n in factors:
        if n < 2:
            raise FactorBelowTwo(f"invariant factor {n} < 2")
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise NonDivisibleChain(f"{a} does not divide {b}")
    if prod(factors) > ORDER_CAP:
        raise GroupTooLarge(f"order {prod(factors)} exceeds cap {ORDER_CAP}")
    return interned_group(factors)


@cache
def interned_group(factors: tuple[int, ...]) -> Group:
    """The one Group object for an invariant-factor tuple (unchecked)."""
    return Group(factors)


def trivial_group() -> Group:
    return interned_group(())


_GROUP_RE = re.compile(r"^c(\d+)(?:xc(\d+))*$")


def parse_group(text: str) -> Group:
    """Parse a literal like ``c7`` or ``c2xc4`` into a group."""
    s = text.strip().lower()
    if not _GROUP_RE.match(s):
        raise ParseError(f"bad group literal {text!r}; expected e.g. c7 or c2xc4")
    return make_group(int(part[1:]) for part in s.split("x"))


def format_group(group: Group) -> str:
    if not group.invariant_factors:
        return "c1"
    return "x".join(f"c{n}" for n in group.invariant_factors)


def format_element(g: Element) -> str:
    if g.group.rank == 1:
        return str(g.coords[0])
    return "(" + ",".join(str(c) for c in g.coords) + ")"


def parse_element(group: Group, text: str) -> Element:
    s = text.strip()
    if s.startswith("("):
        if not s.endswith(")"):
            raise ParseError(f"unbalanced parentheses in element {text!r}")
        parts = s[1:-1].split(",")
    else:
        parts = [s]
    try:
        coords = [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad element literal {text!r}") from exc
    if len(coords) != group.rank:
        raise ParseError(
            f"element {text!r} has {len(coords)} coordinates, group has rank {group.rank}"
        )
    return group.element(coords)


def elt_order(group: Group, g: Element) -> int:
    """Least k >= 1 with k*g = 0."""
    if g.group != group:
        raise GroupMismatch("element not in this group")
    return group.index_order(g.index)


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of `group`, which is its index bitmask `mask`.

    Equality and hashing read the group and mask only.  Group.subgroup(mask)
    keeps one object per mask, and every builder (subgroup_generated,
    subgroup_from_elements, all_subgroups, prime_order_subgroups,
    setsum.stabilizer) returns that object.  The structure is derived from
    the mask on first use and cached on the object: generators (an
    irredundant generating list), cosets (each coset's least index and
    mask), and one Smith normal form that gives iso_type (H's own
    invariant-factor chain, () when trivial), quotient_type (G/H's chain)
    and the projection quotient() tabulates.  Reading any of those three
    first checks that the mask is a subgroup.
    """

    group: Group
    mask: int

    @cached_property
    def order(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def iso_type(self) -> tuple[int, ...]:
        return self._smith[0]

    @cached_property
    def exponent(self) -> int:
        return self.iso_type[-1] if self.iso_type else 1

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The least nonzero index, then each index outside the span of the
        earlier ones, less any that the others already span."""
        gens = []
        span = 1
        for idx in iter_mask(self.mask):
            if not (span >> idx) & 1:
                gens.append(idx)
                span = _extend_closure(self.group, span, idx)
        for idx in list(gens):
            rest = [g for g in gens if g != idx]
            if _span(self.group, rest) == self.mask:
                gens = rest
        return tuple(self.group.element_from_index(i) for i in gens)

    @cached_property
    def cosets(self) -> tuple[tuple[int, int], ...]:
        """(least index, mask) of each coset g + H, ascending by index."""
        out = []
        seen = 0
        for r in range(self.group.order):
            if not (seen >> r) & 1:
                coset = self.group.translate_mask(self.mask, r)
                seen |= coset
                out.append((r, coset))
        return tuple(out)

    @cached_property
    def quotient_type(self) -> tuple[int, ...]:
        return self._smith[1]

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(iso_type, quotient_type, the projection's columns) from one
        Smith normal form.

        The preimage L of H in Z^r is the row span of n_i e_i and H's
        generators.  _smith_form brings that matrix to diag(d) by a column
        transform V, so LV = d_1 Z + ... + d_r Z and x -> xV mod d maps G
        onto C_d1 + ... + C_dr with kernel H: G/H's type is d less its 1s,
        and V's columns for the other d_j give the projection.  V carries
        n_i e_i to the row X_i = (n_i V[i][j] / d_j)_j over LV's basis
        d_j e_j, so H = L / <n_i e_i> is Z^r / rowspan(X), read off X's
        Smith form.
        """
        _validate_subgroup(self)
        factors = self.group.invariant_factors
        r = len(factors)
        rows = [[n * (i == j) for j in range(r)] for i, n in enumerate(factors)]
        d, v = _smith_form(rows + [list(g.coords) for g in self.generators], r)
        h, _ = _smith_form([[n * v[i][j] // d[j] for j in range(r)]
                            for i, n in enumerate(factors)], r)
        keep = [j for j in range(r) if d[j] > 1]
        return (tuple(e for e in h if e > 1), tuple(d[j] for j in keep),
                tuple(tuple(row[j] for row in v) for j in keep))

    def contains_index(self, idx: int) -> bool:
        return bool((self.mask >> idx) & 1)

    def __contains__(self, g: Element) -> bool:
        return self.contains_index(_index_in(self.group, g))

    def indices(self) -> list[int]:
        return mask_to_indices(self.mask)

    def padded_iso_type(self) -> tuple[int, ...]:
        """iso_type left-padded with 1s to the ambient rank."""
        pad = self.group.rank - len(self.iso_type)
        return (1,) * pad + self.iso_type

    def is_proper(self) -> bool:
        return self.order < self.group.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        gens = ",".join(format_element(g) for g in self.generators) or "0"
        return f"<{gens}>@{format_group(self.group)}"


def _extend_closure(group: Group, submask: int, gidx: int) -> int:
    # union of cosets submask + k*g until it wraps
    mask = submask
    x = gidx
    while not (mask >> x) & 1:
        mask |= group.translate_mask(submask, x)
        x = group.index_add(x, gidx)
    return mask


def _span(group: Group, indices) -> int:
    """Mask of the subgroup generated by element indices in [0, |G|)."""
    mask = 1
    for idx in indices:
        mask = _extend_closure(group, mask, idx)
    return mask


def _chain(prime_exps) -> tuple[int, ...]:
    """The invariant factors n1 | ... | nr, ascending, of the group whose
    p-part is C_{p^e1} + C_{p^e2} + ... for each (p, (e1 >= e2 >= ...)):
    the largest exponents of every prime multiply into nr, and so on down."""
    prime_exps = list(prime_exps)
    r = max(len(exps) for _, exps in prime_exps)
    return tuple(prod(p ** exps[pos] for p, exps in prime_exps if pos < len(exps))
                 for pos in reversed(range(r)))


def _smith_form(rows, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of an integer matrix of full column rank.

    Returns (d, V): integer row operations and the column operations
    collected in the unimodular ncols x ncols matrix V bring `rows` to
    diag(d_1, ..., d_ncols), with 1 <= d_1 | d_2 | ... .  Step t moves the
    least nonzero entry of the block below and right of (t, t) to (t, t)
    and divides it into its row and column; a remainder becomes the next
    pivot, and an entry of the block that the pivot does not divide is
    first added into the pivot's row.
    """
    a = [list(row) for row in rows]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    d = []
    for t in range(ncols):
        while True:
            least = 0
            for k in range(t, len(a)):
                row = a[k]
                for c in range(t, ncols):
                    x = abs(row[c])
                    if x and (x < least or not least):
                        least, i, j = x, k, c
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a + v:
                    row[t], row[j] = row[j], row[t]
            pivot = a[t]
            p = pivot[t]
            done = True
            for k in range(t + 1, len(a)):
                if a[k][t]:
                    q = a[k][t] // p
                    a[k] = [x - q * y for x, y in zip(a[k], pivot)]
                    done = done and not a[k][t]
            for c in range(t + 1, ncols):
                if pivot[c]:
                    q = pivot[c] // p
                    for row in a + v:
                        row[c] -= q * row[t]
                    done = done and not pivot[c]
            if not done:
                continue
            bad = next((row for row in a[t + 1:] if any(x % p for x in row[t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(pivot, bad)]
        d.append(least)
    return d, v


def _index_in(group: Group, g) -> int:
    """The index of an element of `group`, or of an integer index: reduced
    mod |G| on a cyclic group, else required to lie in [0, |G|).  Anything
    else, a float or a coordinate tuple, is a GroupMismatch."""
    if isinstance(g, Element):
        if g.group != group:
            raise GroupMismatch("element from another group")
        return g.index
    try:
        i = operator.index(g)
    except TypeError:
        raise GroupMismatch(f"{g!r} is neither an element nor an integer index") from None
    if group.rank == 1:
        return i % group.order
    if 0 <= i < group.order:
        return i
    raise GroupMismatch(f"index {g} outside the group's index space")


def subgroup_generated(group: Group, gens) -> Subgroup:
    """Subgroup generated by elements or indices (empty list gives the trivial subgroup)."""
    return group.subgroup(_span(group, [_index_in(group, g) for g in gens]))


def subgroup_from_elements(group: Group, elements) -> Subgroup:
    """Wrap an explicit set of elements or indices, verifying closure."""
    mask = 0
    for g in elements:
        mask |= 1 << _index_in(group, g)
    if not mask & 1:
        raise NotASubgroup("subgroup must contain the identity")
    idxs = mask_to_indices(mask)
    for a in idxs:
        for b in idxs:
            if not (mask >> group.index_add(a, b)) & 1:
                raise NotASubgroup("element set not closed under addition")
    return group.subgroup(mask)


def _build_lattice(group: Group, cap: int) -> tuple[Subgroup, ...]:
    seen = {1}
    queue = [1]
    while queue:
        mask = queue.pop(0)
        for g in range(1, group.order):
            if (mask >> g) & 1:
                continue
            bigger = _extend_closure(group, mask, g)
            if bigger not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"more than {cap} subgroups")
                seen.add(bigger)
                queue.append(bigger)
    masks = sorted(seen, key=lambda m: (m.bit_count(), mask_to_indices(m)))
    return tuple(group.subgroup(m) for m in masks)


def all_subgroups(group: Group, cap: int = SUBGROUP_CAP) -> tuple[Subgroup, ...]:
    """Every subgroup, found by breadth-first generator extension.

    Deterministic: output sorted by (order, element list).  Raises CapExceeded
    when the lattice has more than ``cap`` subgroups.  The first call that
    fits under its cap keeps the lattice on the group, and every later call
    returns those same entries after checking its own cap against them.
    """
    lattice = group.stored("subgroup_lattice", lambda: _build_lattice(group, cap))
    if len(lattice) > cap:
        raise CapExceeded(f"more than {cap} subgroups")
    return lattice


# -- quotients ------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Projection G -> G/H with the quotient in invariant-factor form."""

    group: Group
    subgroup: Subgroup
    quotient: Group
    table: tuple[int, ...]  # G index -> quotient index

    def __call__(self, g: Element) -> Element:
        if g.group != self.group:
            raise GroupMismatch("element not in the domain group")
        return self.quotient.element_from_index(self.table[g.index])


def _validate_subgroup(sub: Subgroup) -> None:
    group = sub.group
    if not sub.mask & 1 or sub.mask >> group.order:
        raise NotASubgroup("subgroup lacks the identity or leaves the index space")
    if _span(group, (g.index for g in sub.generators)) != sub.mask:
        raise NotASubgroup("stored mask is not the closure of its generators")


def quotient(group: Group, sub: Subgroup) -> tuple[Group, QuotientMap]:
    """Quotient G/H as a concrete group plus a projection map.

    The projection is x -> xV mod d over the columns with d_j > 1, d and V
    being the Smith normal form that also gives sub.iso_type and
    sub.quotient_type; the trivial subgroup's is the identity.
    """
    if sub.group != group:
        raise GroupMismatch("subgroup of a different group")
    _, factors, columns = sub._smith
    quot = interned_group(factors)
    table = tuple(quot.coords_to_index([sum(c * x for c, x in zip(group.index_to_coords(g), col))
                                        for col in columns])
                  for g in range(group.order))
    return quot, QuotientMap(group=group, subgroup=sub, quotient=quot, table=table)


def quotient_iso_type(group: Group, sub: Subgroup) -> tuple[int, ...]:
    """Invariant factors of G/H, read from the subgroup's quotient_type."""
    if sub.group != group:
        raise GroupMismatch("subgroup of a different group")
    return sub.quotient_type


# -- isomorphism type enumeration ------------------------------------------------


def _partitions_desc(n: int, most: int | None = None):
    """All partitions of n into parts of at most `most` (any size when
    None), each descending, the largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(n if most is None else min(n, most), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def abelian_group_types(max_order: int, min_order: int = 2) -> list[Group]:
    """Every abelian-group isomorphism type with min_order <= order <= max_order."""
    out = []
    for n in range(min_order, max_order + 1):
        if n == 1:
            out.append(trivial_group())
            continue
        combos: list[list[tuple[int, tuple[int, ...]]]] = [[]]
        for p, e in _factorize(n):
            combos = [c + [(p, part)] for c in combos for part in _partitions_desc(e)]
        out += [interned_group(_chain(combo)) for combo in combos]
    out.sort(key=lambda g: (g.order, g.invariant_factors))
    return out
