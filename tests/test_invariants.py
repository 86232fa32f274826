"""Davenport constants, d*, the closed form and the exhaustive zero-sum-free
witness search."""

from __future__ import annotations

import time

import pytest

from zerosum import (
    GroupTooLarge,
    Status,
    check_davenport_bounds,
    davenport,
    davenport_report,
    dstar,
    dstar_of_factors,
    ell,
    invariant_report,
    make_group,
    parse_group,
)
from zerosum.groups import _factorize, abelian_group_types
from zerosum.invariants import _basis_witness, _longest_zero_sum_free
from oracles import brute_davenport, is_zero_sum_free


def test_dstar_formula():
    assert dstar_of_factors((7,)) == 6
    assert dstar_of_factors((2, 4)) == 4
    assert dstar_of_factors((3, 3)) == 4
    assert dstar_of_factors((2, 2, 2)) == 3
    assert dstar(make_group((2, 2))) == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_davenport_cyclic_equals_order(n):
    assert davenport(make_group((n,))) == n


@pytest.mark.parametrize(
    "text,value",
    [("c2xc2", 3), ("c3xc3", 5), ("c2xc4", 5), ("c2xc2xc2", 4), ("c2xc6", 7)],
)
def test_davenport_rank_two_and_p_groups(text, value):
    assert davenport(parse_group(text)) == value


@pytest.mark.parametrize("text", ["c2", "c3", "c4", "c5", "c6", "c2xc2", "c3xc3", "c2xc4"])
def test_davenport_matches_independent_brute_force(text):
    g = parse_group(text)
    assert davenport(g) == brute_davenport(g.invariant_factors)


@pytest.mark.parametrize("text", ["c4", "c7", "c2xc4", "c3xc3", "c2xc2xc2", "c2xc2xc6"])
def test_witness_is_zero_sum_free_and_maximal(text):
    g = parse_group(text)
    d, witness = davenport_report(g)
    assert witness.length == d - 1
    terms = []
    for i, m in enumerate(witness.mult):
        terms.extend([g.element_from_index(i).coords] * m)
    assert is_zero_sum_free(g.invariant_factors, terms)


def test_davenport_of_a_group_outside_the_theorem_is_searched():
    # Rank 3 and order 24: neither a p-group nor rank <= 2.
    assert davenport(parse_group("c2xc2xc6")) == 8


THEOREM_TYPES = [
    g for g in abelian_group_types(32, min_order=1)
    if g.rank <= 2 or len(_factorize(g.order)) <= 1
]


@pytest.mark.parametrize("g", THEOREM_TYPES, ids=str)
def test_closed_form_matches_the_search(g):
    """The theorem path gives the search's D and its witness, term for term."""
    d, witness = _basis_witness(g)
    searched_d, searched = _longest_zero_sum_free(g)
    assert d == searched_d == dstar(g) + 1
    assert witness.mult == searched.mult
    assert davenport_report(g)[1].mult == witness.mult


@pytest.mark.parametrize("text", ["c2", "c5", "c8", "c2xc2", "c3xc3", "c2xc4", "c2xc2xc2"])
def test_bounds_sandwich(text):
    g = parse_group(text)
    v = check_davenport_bounds(g)
    assert v.status is Status.HOLDS
    d = v.witness["davenport"]
    assert dstar(g) + 1 <= d <= g.order


def test_threshold_length():
    g = make_group((5,))
    assert ell(g) == 5 + 5 - 1
    r = invariant_report(parse_group("c2xc4"))
    assert r.dstar == 4 and r.davenport == 5 and r.ell == 12


def test_cap_raises_group_too_large():
    g = make_group((64,))
    with pytest.raises(GroupTooLarge):
        davenport_report(g, cap=32)
    r = invariant_report(g, cap=32)
    assert r.davenport is None and r.ell is None
    v = check_davenport_bounds(g, cap=32)
    assert v.status is Status.UNDECIDED_CAPPED


def test_rank_two_davenport_needs_no_search():
    # test_cap_raises_group_too_large (c64, a p-group) and test_cli's c36
    # test cover the order cap on this path.
    for text, value in [("c4xc12", 15), ("c6xc6", 11)]:
        start = time.perf_counter()
        assert davenport(parse_group(text)) == value
        assert time.perf_counter() - start < 0.5


def test_davenport_cap_is_checked_before_the_stored_value():
    g = parse_group("c3xc3")
    message = "order 9 above Davenport cap 8"
    with pytest.raises(GroupTooLarge, match=message):
        davenport(g, cap=8)
    assert davenport_report(g) is davenport_report(parse_group("c3xc3"))
    assert davenport(g) == 5
    with pytest.raises(GroupTooLarge, match=message):
        davenport(g, cap=8)
    with pytest.raises(GroupTooLarge, match=message):
        davenport_report(g, cap=8)
    assert davenport(g, cap=9) == 5
