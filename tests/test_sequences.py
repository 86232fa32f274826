"""Sequence literals, multiplicity stats, and setpartition enumeration."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    BadN,
    GroupMismatch,
    GSequence,
    NoSetpartition,
    ParseError,
    balanced_setpartition,
    enum_setpartitions,
    format_sequence,
    has_setpartition,
    make_group,
    parse_group,
    parse_sequence,
    parse_weights,
    seq_from_indices,
    seq_stats,
    sequence,
)
from zerosum.groups import mask_to_indices
from oracles import reference_deal


def test_parse_format_round_trip():
    g = make_group((7,))
    s = parse_sequence(g, "0^3,1^3,2^3")
    assert s.length == 9
    assert format_sequence(s) == "0^3,1^3,2^3"
    g2 = make_group((2, 4))
    s2 = parse_sequence(g2, "(0,1)^2,(1,0)")
    assert s2.length == 3
    # formatting is ordered by element index (little-endian mixed radix)
    assert format_sequence(s2) == "(1,0)^1,(0,1)^2"


def test_parse_rejects_malformed_literals():
    g = make_group((5,))
    for bad in ["", "0^", "0^-1", "0,,1", "(0,1)"]:
        with pytest.raises(ParseError):
            parse_sequence(g, bad)


def test_sequence_builders_agree():
    g = make_group((4,))
    a = sequence(g, [g.element_from_index(1), 1, 3])
    b = seq_from_indices(g, [1, 1, 3])
    assert a.mult == b.mult
    assert a.length == 3


def test_sequence_builders_check_indices():
    c2xc2 = parse_group("c2xc2")
    c5 = make_group((5,))
    # on rank >= 2 an index outside [0, |G|) is an error, as in gset
    for bad in (-1, 4, c5.element_from_index(1)):
        with pytest.raises(GroupMismatch):
            sequence(c2xc2, [bad])
        with pytest.raises(GroupMismatch):
            seq_from_indices(c2xc2, [bad])
    # on a cyclic group integers reduce mod |G|
    assert seq_from_indices(c5, [7, -1]).mult == (0, 0, 1, 0, 1)
    assert sequence(c5, [7, -1]).mult == (0, 0, 1, 0, 1)


@pytest.mark.parametrize("parse, text, message", [
    (parse_sequence, "0,,1", "empty term in sequence literal '0,,1'"),
    (parse_sequence, "0^x", "bad multiplicity in '0^x'"),
    (parse_sequence, "1,0^-1", "negative multiplicity in '0^-1'"),
    (parse_sequence, "x^2", "bad element literal 'x'"),
    (parse_weights, "1,,2", "empty term in weight literal '1,,2'"),
    (parse_weights, "1^x", "bad multiplicity in '1^x'"),
    (parse_weights, "2,1^-1", "negative multiplicity in '1^-1'"),
    (parse_weights, "x^2", "bad weight in 'x^2'"),
    # terms are read in order: a bad first term is reported before a bad second
    (parse_weights, "x,1^-1", "bad weight in 'x'"),
    (parse_sequence, "0^-1,x", "negative multiplicity in '0^-1'"),
])
def test_literal_parsers_keep_their_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(make_group((5,)), text)
    assert str(exc.value) == message


def test_seq_stats():
    g = make_group((6,))
    s = parse_sequence(g, "0^4,1^2,5^1")
    st_ = seq_stats(s)
    assert st_.length == 7
    assert st_.max_multiplicity == 4
    assert st_.support.indices() == [0, 1, 5]
    assert st_.total.index == (1 + 1 + 5) % 6


def test_has_setpartition_boundary_is_height_and_length():
    g = make_group((5,))
    s = parse_sequence(g, "0^3,1^2,2^1")  # h = 3, |S| = 6
    for n in range(1, 8):
        assert has_setpartition(s, n) == (3 <= n <= 6)


def test_balanced_setpartition_shape():
    g = make_group((5,))
    s = parse_sequence(g, "0^3,1^2,2^1")
    part = balanced_setpartition(s, 3)
    sizes = part.sizes()
    assert sum(sizes) == 6 and len(sizes) == 3
    assert max(sizes) - min(sizes) <= 1
    for b in part.blocks:
        assert b.size == len(set(b.indices()))  # distinct by construction
    assert part.as_sequence().mult == s.mult
    with pytest.raises(NoSetpartition):
        balanced_setpartition(s, 2)  # below the height
    with pytest.raises(BadN):
        balanced_setpartition(s, 0)


@pytest.mark.parametrize("text", ["c4", "c5", "c6", "c2xc2"])
def test_balanced_setpartition_equals_reference_deal(text):
    g = parse_group(text)
    for mult in product(range(4), repeat=g.order):
        s = GSequence(g, mult)
        for n in range(max(max(mult), 1), s.length + 1):
            part = balanced_setpartition(s, n)
            assert [mask_to_indices(m) for m in part.masks] == reference_deal(mult, n)
            # no two copies of an element share a block, so none is lost
            assert part.as_sequence().mult == mult
            sizes = part.sizes()
            assert len(sizes) == n and max(sizes) - min(sizes) <= 1


def test_enum_setpartitions_small_census():
    g = make_group((4,))
    s = parse_sequence(g, "0^2,1^2")
    parts = list(enum_setpartitions(s, 2))
    # {0,1}|{0,1} is the only way to split 0,0,1,1 into two distinct-element blocks
    assert len(parts) == 1
    assert [sorted(b.indices()) for b in parts[0].blocks] == [[0, 1], [0, 1]]
    s2 = parse_sequence(g, "0^2,1^1,2^1")
    parts2 = list(enum_setpartitions(s2, 2))
    # blocks are unordered, so {0,1}|{0,2} and {0,2}|{0,1} are one partition
    got = {tuple(tuple(sorted(b.indices())) for b in p.blocks) for p in parts2}
    assert got == {((0,), (0, 1, 2)), ((0, 1), (0, 2))}


def test_enum_setpartitions_every_block_partitions_the_sequence():
    rng = random.Random(99)
    g = make_group((5,))
    for _ in range(40):
        mult = [rng.randint(0, 2) for _ in range(5)]
        if sum(mult) == 0:
            continue
        from zerosum import GSequence

        s = GSequence(g, tuple(mult))
        h = max(mult)
        for n in range(h, s.length + 1):
            for part in enum_setpartitions(s, n, cap=200):
                assert len(part.blocks) == n
                assert part.as_sequence().mult == s.mult
                assert all(b.size >= 1 for b in part.blocks)


def test_enum_setpartitions_cap_truncates():
    g = make_group((8,))
    s = parse_sequence(g, "0,1,2,3,4,5,6,7")
    some = list(enum_setpartitions(s, 4, cap=5))
    assert len(some) == 5  # silently truncated at the cap


def test_enum_setpartitions_yields_at_most_cap():
    s = parse_sequence(make_group((4,)), "0^2,1^2")  # exactly one 2-setpartition
    assert list(enum_setpartitions(s, 2, cap=0)) == []
    assert len(list(enum_setpartitions(s, 2, cap=1))) == 1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_setpartition_existence_matches_height_bound(data):
    g = parse_group(data.draw(st.sampled_from(["c3", "c4", "c5", "c2xc2"])))
    mult = tuple(data.draw(st.integers(0, 3)) for _ in range(g.order))
    if sum(mult) == 0:
        return
    from zerosum import GSequence

    s = GSequence(g, mult)
    n = data.draw(st.integers(1, s.length + 1))
    exists = has_setpartition(s, n)
    assert exists == (max(mult) <= n <= s.length)
    if exists:
        part = balanced_setpartition(s, n)
        assert part.as_sequence().mult == s.mult


def test_subsequence_relation():
    g = make_group((6,))
    s = parse_sequence(g, "0^2,3^1")
    t = parse_sequence(g, "0^2,1^1,3^2")
    assert s.is_subsequence_of(t)
    assert not t.is_subsequence_of(s)
