"""Independent brute-force reference implementations used only by tests.

Everything here works on plain coordinate tuples with its own modular
arithmetic, sharing no code path with the library internals it checks.
"""

from __future__ import annotations

from itertools import combinations, permutations


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
    from itertools import product

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
    from itertools import product

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


def brute_contained_subgroup(factors, subgroups, members):
    """Smallest nontrivial subgroup inside the element set `members`, ties broken
    by the least index of a nonzero element; None when no nontrivial one fits.
    `subgroups` is brute_subgroups(factors)."""
    index = {e: i for i, e in enumerate(all_elements(factors))}
    fits = [h for h in subgroups if len(h) > 1 and h <= members]
    if not fits:
        return None
    return min(fits, key=lambda h: (len(h), min(index[e] for e in h if index[e])))


def least_translate(factors, mult):
    """Lexicographically least translate of a multiplicity vector, indexed as
    all_elements lists the elements: the vector x -> mult[x - g] taken over
    every g, by coordinate addition."""
    elements = all_elements(factors)
    index = {e: i for i, e in enumerate(elements)}
    best = None
    for g in elements:
        out = [0] * len(elements)
        for e, m in zip(elements, mult):
            out[index[coord_add(factors, e, g)]] = m
        if best is None or tuple(out) < best:
            best = tuple(out)
    return best
