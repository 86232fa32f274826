"""Independent brute-force reference implementations used only by tests.

Everything here works on plain coordinate tuples with its own modular
arithmetic, sharing no code path with the library internals it checks.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, permutations, product


def coord_add(factors, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def coord_scalar(factors, w, a):
    return tuple((w * x) % n for x, n in zip(a, factors))


def naive_sigma_n(factors, weights, terms, n):
    """All sums of n distinct slots of `terms` paired bijectively with n distinct
    slots of `weights`; straight from the definition, exponential."""
    out = set()
    zero = (0,) * len(factors)
    wsels = set(tuple(sorted(sel)) for sel in combinations(weights, n))
    ssels = set(tuple(sorted(sel)) for sel in combinations(range(len(terms)), n))
    for wsel in wsels:
        for ssel in ssels:
            chosen = [terms[i] for i in ssel]
            for perm in set(permutations(chosen)):
                acc = zero
                for w, t in zip(wsel, perm):
                    acc = coord_add(factors, acc, coord_scalar(factors, w, t))
                out.add(acc)
    return out


def naive_sigma_range(factors, weights, terms, lo, hi):
    out = set()
    for n in range(lo, hi + 1):
        out |= naive_sigma_n(factors, weights, terms, n)
    return out


def subset_sums(factors, terms):
    """All nonempty-subset sums of a list of coordinate tuples."""
    zero = (0,) * len(factors)
    sums: set[tuple] = set()
    for t in terms:
        extra = {coord_add(factors, s, t) for s in sums}
        sums |= extra
        sums.add(t)
    return sums


def is_zero_sum_free(factors, terms):
    zero = (0,) * len(factors)
    return zero not in subset_sums(factors, terms)


def brute_davenport(factors, cap=200_000):
    """Least L such that every length-L sequence has a nonempty zero-sum
    subsequence, by exhaustive multiset search over nonzero elements."""
    elements = list(product(*[range(n) for n in factors]))
    zero = (0,) * len(factors)
    nonzero = [e for e in elements if e != zero]
    best = 0
    visited = 0

    def rec(start, seq):
        nonlocal best, visited
        visited += 1
        if visited > cap:
            raise RuntimeError("brute_davenport cap exceeded")
        if is_zero_sum_free(factors, seq):
            best = max(best, len(seq))
            for i in range(start, len(nonzero)):
                seq.append(nonzero[i])
                rec(i, seq)
                seq.pop()

    rec(0, [])
    return best + 1


def brute_sumset(factors, a, b):
    return {coord_add(factors, x, y) for x in a for y in b}


def all_elements(factors):
    """Every element as a coordinate tuple, listed in index order: mixed radix,
    first coordinate fastest."""
    return [tuple(reversed(t)) for t in product(*[range(n) for n in reversed(factors)])]


def brute_subgroups(factors):
    """Every subgroup as a frozenset of coordinate tuples, found by testing each
    subset that holds zero for closure under addition."""
    elements = all_elements(factors)
    zero, rest = elements[0], elements[1:]
    out = []
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            s = {zero, *combo}
            if all(coord_add(factors, a, b) in s for a in s for b in s):
                out.append(frozenset(s))
    return out


def span(factors, gens):
    """The subgroup generated by coordinate tuples, as a set: {0} closed under
    adding each generator."""
    out = {tuple(0 for _ in factors)}
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = coord_add(factors, x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def _order(factors, x):
    """Least k >= 1 with k*x = 0, by repeated addition."""
    zero = tuple(0 for _ in factors)
    k, acc = 1, x
    while acc != zero:
        acc = coord_add(factors, acc, x)
        k += 1
    return k


def order_histogram(factors, members):
    """How many of the coordinate tuples in `members` have each order.
    Two finite abelian groups are isomorphic iff these counts agree."""
    return Counter(_order(factors, x) for x in members)


def quotient_order_histogram(factors, members):
    """How many cosets x + H of G/H have each order, H being the set
    `members` of coordinate tuples: x + H has order the least k >= 1 with
    kx in H, the same for all |H| elements x of the coset."""
    counts = Counter()
    for x in all_elements(factors):
        k, acc = 1, x
        while acc not in members:
            acc = coord_add(factors, acc, x)
            k += 1
        counts[k] += 1
    return Counter({k: c // len(members) for k, c in counts.items()})


def chain_order_histogram(chain):
    """How many elements of C_n1 + ... + C_nr have each order, for a claimed
    invariant-factor chain (n1, ..., nr); () is the trivial group."""
    return order_histogram(chain, all_elements(chain))


def brute_contained_subgroup(factors, subgroups, members):
    """Smallest nontrivial subgroup inside the element set `members`, ties broken
    by the least index of a nonzero element; None when no nontrivial one fits.
    `subgroups` is brute_subgroups(factors)."""
    index = {e: i for i, e in enumerate(all_elements(factors))}
    fits = [h for h in subgroups if len(h) > 1 and h <= members]
    if not fits:
        return None
    return min(fits, key=lambda h: (len(h), min(index[e] for e in h if index[e])))


@cache
def _translate_positions(factors):
    """positions[g][i] = the position of element i + g, as all_elements lists them."""
    elements = all_elements(factors)
    index = {e: i for i, e in enumerate(elements)}
    return [[index[coord_add(factors, e, g)] for e in elements] for g in elements]


def translates(factors, mult):
    """Every translate of a multiplicity vector, indexed as all_elements
    lists the elements: the vector x -> mult[x - g] for each g, by
    coordinate addition."""
    out = set()
    for positions in _translate_positions(tuple(factors)):
        image = [0] * len(positions)
        for i, m in zip(positions, mult):
            image[i] = m
        out.add(tuple(image))
    return out


def least_translate(factors, mult):
    """Lexicographically least translate of a multiplicity vector."""
    return min(translates(factors, mult))


def is_automorphism(factors, image):
    """Whether x -> image[x], a dict over every element, is an additive
    bijection: image[x + y] = image[x] + image[y] for every x and y, by
    coordinate addition, and no two elements share an image."""
    return all(image[coord_add(factors, x, y)] == coord_add(factors, image[x], image[y])
               for x in image for y in image) and len(set(image.values())) == len(image)


def basis_image_maps(factors):
    """For every choice of images g_i of the unit vectors e_i, the map
    x -> sum x_i g_i as a dict, by coordinate arithmetic; it is an
    endomorphism exactly when each ord(g_i) divides n_i, which
    is_automorphism finds out for itself."""
    elements = all_elements(factors)
    zero = elements[0]
    for images in product(elements, repeat=len(factors)):
        out = {}
        for x in elements:
            acc = zero
            for c, g in zip(x, images):
                acc = coord_add(factors, acc, coord_scalar(factors, c, g))
            out[x] = acc
        yield out


@cache
def automorphisms(factors):
    """Aut(G) as dicts x -> phi(x): the maps is_automorphism accepts, by
    brute force over every bijection of the elements for |G| <= 8, and
    over basis_image_maps above that."""
    elements = all_elements(factors)
    maps = ((dict(zip(elements, perm)) for perm in permutations(elements))
            if len(elements) <= 8 else basis_image_maps(factors))
    return [image for image in maps if is_automorphism(factors, image)]


@cache
def _affine_positions(factors):
    """positions[k][i] = the position of phi(e) + g for element i = e and
    the k-th map (phi, g): phi over automorphisms(factors), g over every
    element."""
    elements = all_elements(factors)
    index = {e: i for i, e in enumerate(elements)}
    return [[index[coord_add(factors, phi[e], g)] for e in elements]
            for phi in automorphisms(factors) for g in elements]


def affine_orbit(factors, mult):
    """Every image of a multiplicity vector under the maps x -> phi(x) + g
    (_affine_positions), by coordinate arithmetic: the vector whose entry
    at phi(x) + g is mult[x]."""
    orbit = set()
    for positions in _affine_positions(tuple(factors)):
        out = [0] * len(positions)
        for i, m in zip(positions, mult):
            out[i] = m
        orbit.add(tuple(out))
    return orbit


def least_affine_image(factors, mult):
    """Lexicographically least image of a multiplicity vector under the maps
    x -> phi(x) + g, phi an automorphism and g any element."""
    return min(affine_orbit(factors, mult))


def unit_orbits(wtuples, modulus):
    """wtuples' positions joined by w ~ w' when some unit u mod `modulus`
    maps the multiset w onto the multiset w' by x -> u*x mod modulus: the
    connected components of that relation over every pair of positions,
    each listed ascending and the components in order of their least
    position."""
    units = [u for u in range(1, modulus + 1) if _gcd(u, modulus) == 1]
    multisets = [tuple(sorted(w)) for w in wtuples]
    label = list(range(len(wtuples)))
    for i, w in enumerate(wtuples):
        images = {tuple(sorted((u * x) % modulus for x in w)) for u in units}
        for j in range(i + 1, len(wtuples)):
            if multisets[j] in images and label[j] != label[i]:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    groups = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return sorted(groups.values())


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def brute_ap(factors, members):
    """Canonical progression witness (start, difference, length) of a set of
    coordinate tuples, or None, from the definition A = {s + k*d : 0 <= k < |A|}
    with |A| distinct terms.  The difference is the least index d for which
    some start s gives A, and the start the least index among those s (the
    only one unless A is a whole coset of <d>).  A single element has d = 0."""
    elements = all_elements(factors)
    k = len(members)
    if k == 1:
        return next(iter(members)), elements[0], 1
    for d in elements[1:]:
        starts = []
        for s in elements:
            terms = [s]
            for _ in range(k - 1):
                terms.append(coord_add(factors, terms[-1], d))
            if len(set(terms)) == k and set(terms) == members:
                starts.append(s)
        if starts:
            return starts[0], d, k  # elements, hence starts, ascend by index
    return None


def reference_deal(mult, n):
    """The list-based balanced deal the library used before it dealt into
    bitmasks: terms sorted by descending multiplicity (ties by index) and
    dealt cyclically into n lists, a block that already holds the term being
    skipped; returns the blocks as sorted index lists, in sorted order."""
    support = sorted((i for i, m in enumerate(mult) if m), key=lambda i: (-mult[i], i))
    dealt = [i for i in support for _ in range(mult[i])]
    blocks = [[] for _ in range(n)]
    pos = 0
    for idx in dealt:
        while idx in blocks[pos % n]:
            pos += 1
        blocks[pos % n].append(idx)
        pos += 1
    return sorted(sorted(b) for b in blocks)
