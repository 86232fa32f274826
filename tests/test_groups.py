"""Group construction, element arithmetic, subgroup lattices, quotients."""

from __future__ import annotations

import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    CapExceeded,
    EmptyFactors,
    FactorBelowTwo,
    Group,
    GroupMismatch,
    NonDivisibleChain,
    NotASubgroup,
    ParseError,
    Subgroup,
    abelian_group_types,
    all_subgroups,
    elt_order,
    format_element,
    format_group,
    gset,
    make_group,
    parse_element,
    parse_group,
    quotient,
    quotient_iso_type,
    seq_from_indices,
    sequence,
    stabilizer,
    subgroup_from_elements,
    subgroup_generated,
    trivial_group,
)
from oracles import (
    all_elements,
    chain_order_histogram,
    coord_add,
    coord_scalar,
    order_histogram,
    quotient_order_histogram,
    span,
)

SMALL_FACTOR_LISTS = [(2,), (3,), (4,), (5,), (6,), (12,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6),
                      (4, 4), (3, 9), (2, 2, 4)]


def test_constructor_rejects_bad_factor_lists():
    with pytest.raises(EmptyFactors):
        make_group([])
    with pytest.raises(FactorBelowTwo):
        make_group([1, 2])
    with pytest.raises(NonDivisibleChain):
        make_group([2, 3])
    with pytest.raises(NonDivisibleChain):
        make_group([4, 2])


def test_trivial_group_is_the_one_exception():
    t = trivial_group()
    assert t.order == 1 and t.exponent == 1 and t.rank == 0


@pytest.mark.parametrize("factors", SMALL_FACTOR_LISTS)
def test_order_exponent_rank(factors):
    g = make_group(factors)
    expected_order = 1
    for f in factors:
        expected_order *= f
    assert g.order == expected_order
    assert g.exponent == factors[-1]
    assert g.rank == len(factors)


def test_parse_format_round_trip():
    for text in ["c2", "c7", "c2xc4", "c2xc2xc2", "c3xc3"]:
        g = parse_group(text)
        assert format_group(g) == text
    with pytest.raises(ParseError):
        parse_group("d4")
    with pytest.raises(ParseError):
        parse_group("c2x")


@pytest.mark.parametrize("factors", SMALL_FACTOR_LISTS)
def test_index_round_trip_and_coordinates(factors):
    g = make_group(factors)
    seen = set()
    for i in range(g.order):
        e = g.element_from_index(i)
        assert e.index == i
        assert all(0 <= c < f for c, f in zip(e.coords, factors))
        seen.add(e.coords)
    assert len(seen) == g.order


def test_element_checks_the_coordinate_count_before_reducing():
    for factors, coords in (((7,), (1, 2)), ((2, 4), (1, 2, 3)), ((2, 4), (1,))):
        with pytest.raises(GroupMismatch, match="coordinates"):
            make_group(factors).element(coords)
    assert make_group((2, 4)).element(iter((3, 5))).coords == (1, 1)


@pytest.mark.parametrize("factors", [(6,), (2, 4), (3, 3)])
def test_element_arithmetic_matches_coordinate_model(factors):
    g = make_group(factors)
    for a, b in product(range(g.order), repeat=2):
        ea, eb = g.element_from_index(a), g.element_from_index(b)
        s = ea + eb
        assert s.coords == tuple((x + y) % f for x, y, f in zip(ea.coords, eb.coords, factors))
        assert (ea - eb).coords == tuple((x - y) % f for x, y, f in zip(ea.coords, eb.coords, factors))
        assert (-ea + ea).index == 0


@given(st.sampled_from(SMALL_FACTOR_LISTS), st.data())
@settings(max_examples=60, deadline=None)
def test_element_order_divides_exponent(factors, data):
    g = make_group(factors)
    idx = data.draw(st.integers(0, g.order - 1))
    e = g.element_from_index(idx)
    o = elt_order(g, e)
    assert g.exponent % o == 0
    acc = g.zero
    for _ in range(o):
        acc = acc + e
    assert acc.index == 0


def test_parse_element_round_trip():
    g = make_group((2, 4))
    for i in range(g.order):
        e = g.element_from_index(i)
        assert parse_element(g, format_element(e)).index == i
    c6 = make_group((6,))
    assert parse_element(c6, "4").coords == (4,)
    with pytest.raises(ParseError):
        parse_element(c6, "(1,2)")


@pytest.mark.parametrize("factors", SMALL_FACTOR_LISTS)
def test_subgroup_generated_is_a_closure(factors):
    g = make_group(factors)
    for i in range(g.order):
        sub = subgroup_generated(g, [i])
        idxs = set(sub.indices())
        assert 0 in idxs
        # closed under addition and matches the cyclic order of the generator
        for a in idxs:
            for b in idxs:
                assert g.index_add(a, b) in idxs
        assert sub.order == elt_order(g, g.element_from_index(i))
        assert g.order % sub.order == 0


def test_subgroup_from_elements_rejects_non_subgroups():
    g = make_group((4,))
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(g, [g.element_from_index(0), g.element_from_index(1)])


# lattice sizes pinned against hand counts of the classical small cases
@pytest.mark.parametrize(
    "text,count",
    [("c12", 6), ("c2xc2", 5), ("c2xc4", 8), ("c3xc3", 6), ("c2xc2xc2", 16), ("c7", 2)],
)
def test_all_subgroups_counts(text, count):
    g = parse_group(text)
    subs = all_subgroups(g)
    assert len(subs) == count
    masks = {s.mask for s in subs}
    assert len(masks) == count
    orders = [s.order for s in subs]
    assert orders == sorted(orders)


def test_equal_groups_are_one_object():
    assert parse_group("c2xc4") is make_group((2, 4))
    assert parse_group("C2xC4 ") is make_group([2, 4])
    assert abelian_group_types(1, min_order=1)[0] is trivial_group()
    for g in abelian_group_types(16):
        assert g is make_group(g.invariant_factors)
    g = parse_group("c2xc4")
    for sub in all_subgroups(g):
        q, proj = quotient(g, sub)
        assert q is proj.quotient
        assert q is (make_group(q.invariant_factors) if q.order > 1 else trivial_group())


def test_lattice_is_kept_on_the_group_and_every_read_checks_its_cap():
    g = Group((2, 2, 4))  # built directly, so nothing is kept on it yet
    with pytest.raises(CapExceeded, match="^more than 5 subgroups$"):
        all_subgroups(g, cap=5)
    # running out of cap kept nothing, so a larger cap builds the lattice
    lattice = all_subgroups(g, cap=100)
    assert len(lattice) == 27
    assert all_subgroups(g) is lattice
    assert all(a is b for a, b in zip(all_subgroups(g, cap=27), lattice))
    with pytest.raises(CapExceeded, match="^more than 5 subgroups$"):
        all_subgroups(g, cap=5)
    with pytest.raises(CapExceeded, match="^more than 26 subgroups$"):
        all_subgroups(g, cap=26)


def test_subgroups_are_one_object_per_mask():
    for text in ("c6", "c2xc2", "c2xc4", "c3xc3", "c2xc2xc2"):
        g = Group(parse_group(text).invariant_factors)  # nothing kept on it yet
        early = subgroup_generated(g, [g.order - 1])  # built before the lattice
        lattice = {sub.mask: sub for sub in all_subgroups(g)}
        assert lattice[early.mask] is early
        for sub in lattice.values():
            assert subgroup_generated(g, sub.generators) is sub
            assert subgroup_from_elements(g, sub.indices()) is sub
            assert stabilizer(gset(g, sub.indices())).stabilizer is sub
        for sub in g.prime_order_subgroups:
            assert lattice[sub.mask] is sub


def test_subgroup_equality_follows_the_mask():
    klein = parse_group("c2xc2")
    a, b = subgroup_generated(klein, [1, 2]), subgroup_generated(klein, [2, 3])
    assert a == b and len({a, b}) == 1 and a.order == 4
    c6 = parse_group("c6")
    assert subgroup_generated(c6, [2, 3]) == subgroup_generated(c6, [1])
    assert subgroup_generated(c6, [2]) != subgroup_generated(c6, [3])


def test_builders_reject_indices_outside_the_group():
    klein = parse_group("c2xc2")
    for bad in (4, 7, -1):
        for build in (subgroup_generated, subgroup_from_elements, gset):
            with pytest.raises(GroupMismatch):
                build(klein, [0, bad])
    with pytest.raises(GroupMismatch):
        subgroup_from_elements(klein, [parse_group("c4").zero])
    # integers on a cyclic group stay reduced mod |G|
    c6 = parse_group("c6")
    assert subgroup_generated(c6, [7]) is subgroup_generated(c6, [1])
    assert subgroup_generated(c6, [-2]) is subgroup_generated(c6, [4])


def test_builders_take_only_elements_and_integers():
    g = parse_group("c2xc4")
    for build, bad in ((seq_from_indices, 1.5), (sequence, 2.7), (gset, (1, 2)),
                       (sequence, (1, 2)), (subgroup_generated, (1, 0)),
                       (subgroup_from_elements, "1")):
        with pytest.raises(GroupMismatch):
            build(g, [bad])
    assert seq_from_indices(g, [True]).mult == seq_from_indices(g, [1]).mult


def test_generators_span_the_mask_irredundantly():
    for g in abelian_group_types(24):
        for sub in all_subgroups(g):
            members = {g.element_from_index(i).coords for i in sub.indices()}
            gens = [e.coords for e in sub.generators]
            assert span(g.invariant_factors, gens) == members
            for i in range(len(gens)):
                assert span(g.invariant_factors, gens[:i] + gens[i + 1:]) < members


def _is_chain(factors):
    return all(n > 1 for n in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_quotient_type_matches_the_built_quotient():
    seen = 0
    for g in abelian_group_types(24):
        elements = all_elements(g.invariant_factors)
        for sub in all_subgroups(g):
            q, _ = quotient(g, sub)
            members = {elements[i] for i in sub.indices()}
            assert quotient_iso_type(g, sub) == sub.quotient_type == q.invariant_factors
            assert chain_order_histogram(q.invariant_factors) == quotient_order_histogram(
                g.invariant_factors, members)
            seen += 1
    assert seen == 318


def test_iso_and_quotient_types_match_element_order_counts():
    seen = 0
    for g in abelian_group_types(64):
        elements = all_elements(g.invariant_factors)
        for sub in all_subgroups(g):
            members = {elements[i] for i in sub.indices()}
            assert _is_chain(sub.iso_type) and _is_chain(sub.quotient_type)
            assert chain_order_histogram(sub.iso_type) == order_histogram(g.invariant_factors, members)
            assert chain_order_histogram(sub.quotient_type) == quotient_order_histogram(
                g.invariant_factors, members)
            seen += 1
    assert seen == 6021


def test_quotient_by_the_trivial_subgroup_is_the_identity():
    for g in abelian_group_types(64):
        q, proj = quotient(g, subgroup_generated(g, []))
        assert q is g and proj.table == tuple(range(g.order))


def test_iso_type_checks_its_mask():
    g = parse_group("c2xc2xc2")
    not_closed = Subgroup(g, sum(1 << g.coords_to_index(c)
                                 for c in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))))
    for read in ("iso_type", "quotient_type"):
        with pytest.raises(NotASubgroup):
            getattr(not_closed, read)


@pytest.mark.parametrize("read", [
    lambda c4, x: x in gset(c4, [0, 1]),
    lambda c4, x: x in subgroup_generated(c4, [2]),
    lambda c4, x: sequence(c4, [1, 2]).multiplicity(x),
    lambda c4, x: gset(c4, [0, 1]).translate(x),
    lambda c4, x: sequence(c4, [1, 2]).translate(x),
], ids=["GSet.__contains__", "Subgroup.__contains__", "GSequence.multiplicity",
        "GSet.translate", "GSequence.translate"])
@pytest.mark.parametrize("idx", [1, 5])
def test_element_readers_reject_elements_of_another_group(read, idx):
    c4, c8 = parse_group("c4"), parse_group("c8")
    with pytest.raises(GroupMismatch):
        read(c4, c8.element_from_index(idx))


def test_quotient_checks_the_subgroup():
    c4 = parse_group("c4")
    not_closed = Subgroup(c4, 0b11)
    for read in (quotient, quotient_iso_type):
        with pytest.raises(NotASubgroup):
            read(c4, not_closed)
        with pytest.raises(GroupMismatch):
            read(c4, subgroup_generated(parse_group("c2xc2"), [1]))


def test_subgroup_iso_types_in_klein_vs_cyclic():
    g = parse_group("c2xc4")
    subs = all_subgroups(g)
    types = sorted(s.iso_type for s in subs)
    assert types.count((2, 2)) == 1
    assert types.count((4,)) == 2
    assert types.count((2,)) == 3


@pytest.mark.parametrize("factors", SMALL_FACTOR_LISTS)
def test_quotient_order_and_homomorphism(factors):
    g = make_group(factors)
    for sub in all_subgroups(g):
        q, proj = quotient(g, sub)
        assert q.order * sub.order == g.order
        assert quotient_iso_type(g, sub) == q.invariant_factors or q.order == 1
        for a in range(g.order):
            for b in range(g.order):
                lhs = proj.table[g.index_add(a, b)]
                rhs = q.index_add(proj.table[a], proj.table[b])
                assert lhs == rhs
        # the kernel is exactly the subgroup
        kernel = {i for i in range(g.order) if proj.table[i] == 0}
        assert kernel == set(sub.indices())


def test_abelian_group_types_census():
    groups = abelian_group_types(36)
    # sum over 2 <= n <= 36 of prod(partition counts of the prime exponents of n)
    assert len(groups) == 61
    assert len({format_group(g) for g in groups}) == 61
    for g in groups:
        assert 2 <= g.order <= 36
        facs = g.invariant_factors
        assert all(facs[i + 1] % facs[i] == 0 for i in range(len(facs) - 1))


def test_group_census_leaves_no_object_in_a_cycle():
    # a recursive local closure reaches itself through its cell, which only
    # the cyclic collector frees
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        groups = abelian_group_types(24)
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(groups) == 36
    assert not left


def test_translate_mask_matches_coordinate_addition():
    rng = random.Random(9)
    for g in abelian_group_types(16):
        masks = [0, 1, g.full_mask] + [rng.getrandbits(g.order) for _ in range(4)]
        for gidx in range(g.order):
            shift = g.index_to_coords(gidx)
            for mask in masks:
                want = 0
                for x in range(g.order):
                    if mask >> x & 1:
                        want |= 1 << g.coords_to_index(
                            coord_add(g.invariant_factors, g.index_to_coords(x), shift))
                assert g.translate_mask(mask, gidx) == want


def _check_scalar_rows(g, rows, masks):
    """multiples, index_scalar, index_neg, index_order and dilate_mask on
    the given rows and masks against coordinate arithmetic."""
    factors, e = g.invariant_factors, g.exponent
    coords = [g.index_to_coords(x) for x in range(g.order)]
    index = {c: x for x, c in enumerate(coords)}
    zero = (0,) * g.rank
    assert len(g.multiples) == g.order
    for a in rows:
        ca = coords[a]
        assert [coords[m] for m in g.multiples[a]] == [
            coord_scalar(factors, r, ca) for r in range(e)]
        for w in range(-2 * e, 2 * e + 1):
            assert coords[g.index_scalar(w, a)] == coord_scalar(factors, w, ca)
        assert coords[g.index_neg(a)] == coord_scalar(factors, -1, ca)
        assert g.index_order(a) == next(r for r in range(1, e + 1)
                                        if coord_scalar(factors, r, ca) == zero)
    for mask in masks:
        for w in range(-2 * e, 2 * e + 1):
            want = 0
            for x in range(g.order):
                if mask >> x & 1:
                    want |= 1 << index[coord_scalar(factors, w, coords[x])]
            assert g.dilate_mask(mask, w) == want


def test_group_tables_match_coordinate_arithmetic():
    rng = random.Random(22)
    for g in abelian_group_types(32):
        factors = g.invariant_factors
        coords = [g.index_to_coords(x) for x in range(g.order)]
        _check_scalar_rows(g, range(g.order),
                           [0, g.full_mask] + [rng.getrandbits(g.order) for _ in range(3)])
        for gidx, cg in enumerate(coords):
            # entry x of differences[g] is x - g, so x - g + g = x
            assert [coord_add(factors, coords[y], cg) for y in g.differences[gidx]] == coords
        for sub in all_subgroups(g):
            # the cosets partition G, each is rep + H, and rep is its least index
            cosets = sub.cosets
            reps = [rep for rep, _ in cosets]
            assert reps == sorted(reps) and reps[0] == 0
            covered = 0
            for rep, mask in cosets:
                want = {coord_add(factors, coords[rep], coords[h]) for h in sub.indices()}
                assert {coords[x] for x in range(g.order) if mask >> x & 1} == want
                assert mask & -mask == 1 << rep and not covered & mask
                covered |= mask
            assert covered == g.full_mask
    for name in ("c256", "c2xc128"):
        g = parse_group(name)
        rows = [0, 1, 2, 64, 128, g.order - 1] + rng.sample(range(g.order), 6)
        _check_scalar_rows(g, rows, [g.full_mask, rng.getrandbits(g.order)])


def test_translate_and_dilate_masks():
    g = make_group((6,))
    mask = 0b000111  # {0,1,2}
    shifted = g.translate_mask(mask, 2)
    assert sorted(i for i in range(6) if shifted >> i & 1) == [2, 3, 4]
    doubled = g.dilate_mask(mask, 2)
    assert sorted(i for i in range(6) if doubled >> i & 1) == [0, 2, 4]
    # dilation by a unit permutes the group
    u = g.dilate_mask(g.full_mask, 5)
    assert u == g.full_mask
