"""Sumsets, stabilizers, progression detection, and the Kneser audit."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    EmptySet,
    GSet,
    GroupMismatch,
    abelian_group_types,
    detect_ap,
    gset,
    iterated_sumset,
    kneser_audit,
    make_group,
    parse_group,
    quotient,
    stabilizer,
    sumset,
    weighted_dilate,
)
from oracles import all_elements, brute_ap, brute_sumset

GROUPS = ["c2", "c3", "c4", "c5", "c6", "c7", "c8", "c2xc2", "c2xc4", "c3xc3"]


def coords_of(a):
    return {e.coords for e in a.elements()}


@pytest.mark.parametrize("text", GROUPS)
def test_sumset_matches_brute_force_exhaustively_on_pairs(text):
    g = parse_group(text)
    if g.order > 5:
        masks = [1, 3, g.full_mask, (1 << (g.order // 2)) | 1]
    else:
        masks = list(range(1, g.full_mask + 1))
    from zerosum import GSet

    for am in masks:
        for bm in masks:
            a, b = GSet(g, am), GSet(g, bm)
            got = coords_of(sumset(a, b))
            want = brute_sumset(g.invariant_factors, coords_of(a), coords_of(b))
            assert got == want


def test_sumset_seeded_fuzz_against_oracle():
    rng = random.Random(1759)
    for _ in range(300):
        g = parse_group(rng.choice(GROUPS))
        am = rng.randrange(1, g.full_mask + 1)
        bm = rng.randrange(1, g.full_mask + 1)
        from zerosum import GSet

        a, b = GSet(g, am), GSet(g, bm)
        got = coords_of(sumset(a, b))
        assert got == brute_sumset(g.invariant_factors, coords_of(a), coords_of(b))


def test_gset_builders_and_guards():
    g = make_group((6,))
    a = gset(g, [0, 2, "4"])
    assert a.indices() == [0, 2, 4]
    h = make_group((5,))
    with pytest.raises(GroupMismatch):
        sumset(a, gset(h, [0]))
    with pytest.raises(EmptySet):
        iterated_sumset([])


def test_weighted_dilate():
    g = make_group((5,))
    a = gset(g, [1, 2])
    assert weighted_dilate(2, a).indices() == [2, 4]
    assert weighted_dilate(-1, a).indices() == [3, 4]
    assert weighted_dilate(0, a).indices() == [0]


def test_stabilizer_trivial_and_full():
    g = make_group((6,))
    assert stabilizer(gset(g, [0, 1])).stabilizer.order == 1
    rep = stabilizer(gset(g, range(6)))
    assert rep.stabilizer.order == 6
    assert rep.periodic


def test_stabilizer_detects_coset_unions():
    g = make_group((6,))
    # {0,3} u {1,4} is a union of two cosets of {0,3}
    rep = stabilizer(gset(g, [0, 1, 3, 4]))
    assert rep.periodic
    assert set(rep.stabilizer.indices()) == {0, 3}


def test_quasi_periodic_split():
    g = make_group((6,))
    # one full coset of {0,3} plus a stray element of another coset
    rep = stabilizer(gset(g, [0, 3, 1]))
    assert not rep.periodic
    assert rep.quasi_period is not None
    assert set(rep.quasi_period.indices()) == {0, 3}
    assert rep.a0 is not None and rep.a1 is not None
    assert set(rep.a0.indices()) == {0, 3}
    assert set(rep.a1.indices()) == {1}
    # a generic set admits no such split
    assert stabilizer(gset(make_group((5,)), [0, 1])).quasi_period is None


def test_detect_ap_frozen_cases():
    c5 = make_group((5,))
    w = detect_ap(gset(c5, [0, 1, 2, 3]))
    assert w is not None and w.length == 4
    c7 = make_group((7,))
    w = detect_ap(gset(c7, [0, 2, 4]))
    assert w is not None
    assert w.diff.index in (2, 5)  # either orientation of the same progression
    assert detect_ap(gset(c7, [0, 1, 3])) is None
    # wrap-around progressions count
    assert detect_ap(gset(c7, [5, 6, 0, 1])) is not None


def test_detect_ap_matches_brute_force_on_every_subset():
    for g in abelian_group_types(10):
        elements = all_elements(g.invariant_factors)
        for mask in range(1, 1 << g.order):
            members = {elements[i] for i in range(g.order) if (mask >> i) & 1}
            ap = detect_ap(GSet(g, mask))
            got = None if ap is None else (ap.start.coords, ap.diff.coords, ap.length)
            assert got == brute_ap(g.invariant_factors, members), (g, mask)


def test_detect_ap_small_sets_are_always_progressions():
    g = make_group((7,))
    for i, j in product(range(7), repeat=2):
        if i < j:
            assert detect_ap(gset(g, [i, j])) is not None
        assert detect_ap(gset(g, [i])) is not None


def _projected_counts(sets, sub):
    """(|phi(A_1) + ... + phi(A_n)|, sum |phi(A_i)| - n + 1) through the
    projection table of the quotient G -> G/H."""
    q, proj = quotient(sub.group, sub)
    images = [{proj.table[i] for i in a.indices()} for a in sets]
    acc = {0}
    for img in images:
        acc = {q.index_add(x, y) for x in acc for y in img}
    return len(acc), sum(map(len, images)) - len(sets) + 1


@pytest.mark.parametrize("text", ["c4", "c2xc2"])
def test_kneser_audit_counts_equal_the_quotient_projection(text):
    g = parse_group(text)
    for am, bm in product(range(1, g.full_mask + 1), repeat=2):
        sets = [GSet(g, am), GSet(g, bm)]
        rep = kneser_audit(sets)
        assert (rep.lhs, rep.rhs) == _projected_counts(sets, rep.stabilizer), (am, bm)


def test_kneser_audit_reads_no_subgroup_lattice():
    # c2^7 has more subgroups than the default cap; H(A + B) needs none of them
    g = parse_group("c2xc2xc2xc2xc2xc2xc2")
    sets = [GSet(g, 0b1011), GSet(g, 0b110001)]
    rep = kneser_audit(sets)
    total = iterated_sumset(sets)
    assert rep.stabilizer.mask == 1
    assert (rep.lhs, rep.rhs) == (total.size, 3 + 3 - 1)


@given(st.sampled_from(GROUPS), st.data())
@settings(max_examples=120, deadline=None)
def test_kneser_audit_never_fires_and_bounds(text, data):
    g = parse_group(text)
    nsets = data.draw(st.integers(1, 3))
    from zerosum import GSet

    sets = [GSet(g, data.draw(st.integers(1, g.full_mask))) for _ in range(nsets)]
    rep = kneser_audit(sets)  # raises KneserViolation on a bug
    assert rep.lhs >= rep.rhs
    assert (rep.lhs, rep.rhs) == _projected_counts(sets, rep.stabilizer)
    total = iterated_sumset(sets)
    assert rep.stabilizer.mask == stabilizer(total).stabilizer.mask


def test_pigeonhole_fact_directly():
    # |A| + |B| >= |G| + 1 forces A + B = G
    g = make_group((7,))
    rng = random.Random(7)
    for _ in range(100):
        asz = rng.randint(1, 7)
        bsz = max(1, 8 - asz)
        a = gset(g, rng.sample(range(7), asz))
        b = gset(g, rng.sample(range(7), bsz))
        assert sumset(a, b).size == 7
