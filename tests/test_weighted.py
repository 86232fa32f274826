"""Weighted n-term subsequence sums against the brute-force oracle."""

from __future__ import annotations

import random
import sys
import threading
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    BadN,
    CapExceeded,
    EmptySet,
    GroupMismatch,
    GSequence,
    LengthMismatch,
    ParseError,
    abelian_group_types,
    gset,
    make_group,
    parse_group,
    parse_sequence,
    parse_weights,
    partition_wsum,
    balanced_setpartition,
    sigma_all,
    sigma_from,
    sigma_n,
    sigma_table,
    sigma_upto,
    sums_by_count,
    w_dot,
    weight_seq,
)
from zerosum import weighted
from zerosum.verify import DEFAULT_CAPS, STATEMENTS, StatementId, SweepDomain
from zerosum.weighted import _Layout, _positional_wsum_bits, _sums_by_n
from oracles import naive_sigma_n, naive_sigma_range

GROUPS = ["c2", "c3", "c4", "c5", "c6", "c2xc2", "c2xc4"]


def as_coords(g, a):
    return {e.coords for e in a.elements()}


def seq_coords(g, s):
    out = []
    for i, m in enumerate(s.mult):
        out.extend([g.element_from_index(i).coords] * m)
    return out


def test_parse_weights_keeps_raw_and_canonicalizes():
    g = make_group((6,))
    w = parse_weights(g, "1^2,-1^2,0^1")
    assert sorted(w.raw) == [-1, -1, 0, 1, 1]
    assert sorted(w.residues) == [0, 1, 1, 5, 5]
    assert w.length == 5
    assert w.total() == 0


def test_weight_seq_takes_integers_only():
    g = parse_group("c5")
    # never truncated to (1, 2) or (3, 1)
    for bad in ([1.5, 2.9], ["3", True]):
        with pytest.raises(GroupMismatch):
            weight_seq(g, bad)
    assert weight_seq(g, [3, -1, 0]).raw == (3, -1, 0)
    with pytest.raises(ParseError):
        parse_weights(g, "1.5^2")


def test_units_classification():
    g = make_group((6,))
    w = weight_seq(g, [1, 5, 2, 3])
    assert w.units == (True, True, False, False)  # 1 and 5 are coprime to 6


def test_units_mod_the_order_are_units_mod_the_exponent():
    # |G| and exp(G) have the same prime divisors, so WeightSeq.units (read
    # mod exp(G)) also says which weights are coprime to |G|: the clauses that
    # ask for weights coprime to the group order read it
    cases = 0
    for g in abelian_group_types(128):
        raw = tuple(range(-2 * g.order, 2 * g.order + 1))
        assert weight_seq(g, raw).units == tuple(gcd(w, g.order) == 1 for w in raw), g
        cases += len(raw)
    assert cases == 68_918


def test_sigma_frozen_example():
    g = make_group((7,))
    w = parse_weights(g, "1^1,-1^1,0^1")
    s = parse_sequence(g, "0^3,1^3,2^3")
    out = sigma_n(w, s, 3)
    assert out.indices() == [0, 1, 2, 5, 6]


def test_sigma_validates_n():
    g = make_group((5,))
    w = weight_seq(g, [1, 2])
    s = parse_sequence(g, "0^1,1^1,2^1")
    with pytest.raises(BadN):
        sigma_n(w, s, 0)
    with pytest.raises(BadN):
        sigma_n(w, s, 3)  # n exceeds |W|


def test_sigma_matches_oracle_exhaustive_tiny():
    g = make_group((4,))
    terms = [(0,), (1,), (1,), (2,)]
    s = parse_sequence(g, "0^1,1^2,2^1")
    for wraw in [(1,), (1, 3), (1, 2, 3), (0, 1, 1, 2)]:
        w = weight_seq(g, list(wraw))
        for n in range(1, min(len(wraw), 4) + 1):
            got = as_coords(g, sigma_n(w, s, n))
            want = naive_sigma_n((4,), list(wraw), terms, n)
            assert got == want


def test_sigma_matches_oracle_seeded():
    rng = random.Random(4242)
    for _ in range(250):
        g = parse_group(rng.choice(GROUPS))
        wlen = rng.randint(1, 4)
        slen = rng.randint(wlen, 6)
        wraw = [rng.randrange(-g.exponent, g.exponent) for _ in range(wlen)]
        mult = [0] * g.order
        for _ in range(slen):
            mult[rng.randrange(g.order)] += 1
        s = GSequence(g, tuple(mult))
        w = weight_seq(g, wraw)
        n = rng.randint(1, wlen)
        got = as_coords(g, sigma_n(w, s, n))
        want = naive_sigma_n(g.invariant_factors, wraw, seq_coords(g, s), n)
        assert got == want


def test_sigma_all_is_union_over_n_seeded():
    rng = random.Random(11)
    g = make_group((6,))
    for _ in range(40):
        wlen = rng.randint(2, 4)
        w = weight_seq(g, [rng.randrange(6) for _ in range(wlen)])
        mult = [0] * 6
        for _ in range(rng.randint(wlen, 7)):
            mult[rng.randrange(6)] += 1
        s = GSequence(g, tuple(mult))
        acc = 0
        for n in range(1, wlen + 1):
            acc |= sigma_n(w, s, n).bits
        assert sigma_all(w, s).bits == acc


def test_sigma_windows_explicitly():
    g = make_group((6,))
    w = weight_seq(g, [1, 2, 3])
    s = parse_sequence(g, "1^2,2^2,4^1")
    by_n = {n: sigma_n(w, s, n).bits for n in (1, 2, 3)}
    assert sigma_upto(w, s, 2).bits == by_n[1] | by_n[2]
    assert sigma_from(w, s, 2).bits == by_n[2] | by_n[3]
    assert sigma_all(w, s).bits == by_n[1] | by_n[2] | by_n[3]


def test_sums_by_count_matches_unit_weight_sigma():
    for factors, mult in [((5,), (2, 2, 0, 1, 0)), ((2, 4), (2, 0, 1, 3, 0, 1, 0, 2))]:
        g = make_group(factors)
        s = GSequence(g, mult)
        w = weight_seq(g, [1] * s.length)
        table = sums_by_count(s)
        assert table == sigma_table(w, s)
        for n in range(1, s.length + 1):
            assert table[n] == sigma_n(w, s, n).bits
        assert table[0] == 1  # the empty sum is {0}


def test_containment_in_longer_sequences():
    g = make_group((6,))
    w = weight_seq(g, [1, 4])
    s = parse_sequence(g, "1^1,2^1")
    t = parse_sequence(g, "1^1,2^1,5^2")
    for n in (1, 2):
        assert sigma_n(w, s, n).bits & ~sigma_n(w, t, n).bits == 0


def test_full_length_translation_covariance():
    # shifting every term by g moves the full-length sum set by total(W) * g
    rng = random.Random(5)
    grp = make_group((8,))
    for _ in range(30):
        wlen = rng.randint(1, 4)
        w = weight_seq(grp, [rng.randrange(8) for _ in range(wlen)])
        mult = [0] * 8
        for _ in range(rng.randint(wlen, 6)):
            mult[rng.randrange(8)] += 1
        s = GSequence(grp, tuple(mult))
        shift = rng.randrange(8)
        shifted = GSequence(grp, tuple(mult[(i - shift) % 8] for i in range(8)))
        lhs = sigma_n(w, shifted, wlen).bits
        rhs = grp.translate_mask(sigma_n(w, s, wlen).bits, (w.total() * shift) % 8)
        assert lhs == rhs


def test_unit_weight_translation_covariance_all_n():
    grp = make_group((5,))
    s = parse_sequence(grp, "0^2,1^1,3^1")
    w = weight_seq(grp, [1] * 4)
    for shift in range(5):
        shifted = GSequence(grp, tuple(s.mult[(i - shift) % 5] for i in range(5)))
        for n in range(1, 5):
            lhs = sigma_n(w, shifted, n).bits
            rhs = grp.translate_mask(sigma_n(w, s, n).bits, (n * shift) % 5)
            assert lhs == rhs


def test_partition_wsum_is_positional():
    g = make_group((7,))
    w = weight_seq(g, [2, 3])
    from zerosum import Setpartition

    part = Setpartition(g, (0b0110, 0b1001))  # blocks {1,2} and {0,3}
    blocks = part.blocks  # canonical order fixes which weight meets which block
    want = {
        (2 * x + 3 * y) % 7
        for x in blocks[0].indices()
        for y in blocks[1].indices()
    }
    assert set(partition_wsum(w, part).indices()) == want


def test_w_dot_is_full_length_sigma():
    g = make_group((7,))
    w = weight_seq(g, [2, 3])
    s = parse_sequence(g, "1^1,2^1,0^1,3^1")
    assert w_dot(w, s).bits == sigma_n(w, s, 2).bits


def test_weight_sequence_length_guard():
    g = make_group((5,))
    w = weight_seq(g, [1, 2, 3])
    s = parse_sequence(g, "0^2")
    with pytest.raises((LengthMismatch, BadN)):
        sigma_n(w, s, 3)


def test_complement_identity_spot():
    # unweighted: the n-term sums are the total minus the (|S|-n)-term sums
    g = make_group((6,))
    s = parse_sequence(g, "0^2,1^2,3^1,4^1")
    table = sums_by_count(s)
    total = seq_total_index(g, s)
    for n in range(0, s.length + 1):
        mirrored = 0
        for i in range(6):
            if table[s.length - n] >> i & 1:
                mirrored |= 1 << g.index_add(total, g.index_neg(i))
        assert table[n] == mirrored


def seq_total_index(g, s):
    acc = 0
    for i, m in enumerate(s.mult):
        acc = g.index_add(acc, g.index_scalar(m, i))
    return acc


def both_orientations(w, s, n=None):
    """The knapsack forced to the weight side and to the sequence side:
    the whole per-n table, or up to a target n."""
    top = min(w.length, s.length) if n is None else n
    return [_sums_by_n(w, s, top, side=side)
            for side in ("weights", "sequence")]


def random_pair(rng, g, wmax=4, smax=7):
    wlen = rng.randint(1, wmax)
    w = weight_seq(g, [rng.randrange(-g.exponent, g.exponent) for _ in range(wlen)])
    mult = [0] * g.order
    for _ in range(rng.randint(1, smax)):
        mult[rng.randrange(g.order)] += 1
    return w, GSequence(g, tuple(mult))


def test_orientations_agree_with_each_other_and_the_oracle():
    rng = random.Random(2024)
    groups = abelian_group_types(16)
    assert len(groups) == 24  # every abelian group of order 2..16
    for g in groups:
        for _ in range(12):
            w, s = random_pair(rng, g)
            top = min(w.length, s.length)
            by_weights, by_sequence = both_orientations(w, s)
            assert by_weights == by_sequence
            for n in range(1, top + 1):
                targeted = both_orientations(w, s, n)
                assert targeted[0][n] == targeted[1][n] == by_weights[n]
                if s.length <= 6:
                    got = {g.element_from_index(i).coords
                           for i in range(g.order) if by_weights[n] >> i & 1}
                    want = naive_sigma_n(g.invariant_factors, list(w.raw), seq_coords(g, s), n)
                    assert got == want, (g, w, s, n)


def test_sigma_table_entries_are_sigma_n():
    rng = random.Random(77)
    for g in abelian_group_types(12):
        for _ in range(6):
            w, s = random_pair(rng, g, wmax=6, smax=10)
            table = sigma_table(w, s)
            assert len(table) == min(w.length, s.length) + 1
            assert table[0] == 1
            for n in range(1, len(table)):
                assert table[n] == sigma_n(w, s, n).bits


# Shapes that the former memoized recursion took long on (about 8 s for c12
# and 66 s for c16 on a 2-vCPU x86 host, Python 3.11), and one (c13) that is
# slow in the weight-side orientation and fast in the sequence-side one.
BLOWUP_CASES = {
    "c12": ((12,), [1] * 6 + [11] * 6, (3, 3, 3, 3, 3, 2, 2, 2, 2, 0, 0, 0)),
    "c16": ((16,), [1] * 8 + [15] * 8, (4,) * 7 + (3,) + (0,) * 8),
    "c13": ((13,), list(range(1, 13)), (12, 12) + (0,) * 11),
}


@pytest.mark.parametrize("name", sorted(BLOWUP_CASES))
def test_blowup_shapes_agree_in_both_orientations(name):
    factors, wraw, mult = BLOWUP_CASES[name]
    g = make_group(factors)
    w, s = weight_seq(g, wraw), GSequence(g, mult)
    n = w.length
    by_weights, by_sequence = both_orientations(w, s, n)
    assert by_weights[n] == by_sequence[n] == sigma_n(w, s, n).bits
    assert by_weights[n] == g.full_mask


def test_small_n_builds_only_states_of_at_most_n_items():
    # 20 distinct weight residues against 20 distinct terms: each orientation
    # has 2^20 states in all, but only 1 + 20 + 190 use at most 2 items
    g = make_group((64,))
    w = weight_seq(g, range(1, 21))
    s = GSequence(g, (1,) * 20 + (0,) * 44)
    by_n = {}
    for n in (1, 2):
        by_weights, by_sequence = both_orientations(w, s, n)
        assert by_weights[n] == by_sequence[n] == sigma_n(w, s, n).bits
        by_n[n] = {g.element_from_index(i).coords for i in range(g.order) if by_weights[n] >> i & 1}
        assert by_n[n] == naive_sigma_n(g.invariant_factors, list(w.raw), seq_coords(g, s), n)
    upto = sigma_upto(w, s, 2)
    assert {e.coords for e in upto.elements()} == by_n[1] | by_n[2]
    # a count with too many states left is refused before any is built
    with pytest.raises(CapExceeded):
        sigma_n(w, s, 12)


def test_the_orientation_with_fewer_states_runs():
    # 30 distinct weights against two support elements at n = 15: the weight
    # side has about 2^29 states and is refused, the sequence side has 136
    g = make_group((64,))
    w = weight_seq(g, range(1, 31))
    s = GSequence(g, (15, 15) + (0,) * 62)
    with pytest.raises(CapExceeded):
        _sums_by_n(w, s, 15, side="weights")
    # sums of a distinct weights in 1..30 for every a <= 15 cover c64
    assert sigma_n(w, s, 15).bits == g.full_mask


def test_every_entry_up_to_top_is_exact():
    # no state is pruned, so a table built for a top count is exact below it too
    rng = random.Random(31)
    for g in abelian_group_types(12):
        for _ in range(8):
            w, s = random_pair(rng, g, wmax=4, smax=6)
            terms = seq_coords(g, s)
            want = [{g.element_from_index(0).coords}] + [
                naive_sigma_n(g.invariant_factors, list(w.raw), terms, k)
                for k in range(1, min(w.length, s.length) + 1)]
            for top in range(1, len(want)):
                for side in ("weights", "sequence"):
                    got = _sums_by_n(w, s, top, side=side)
                    for k in range(top + 1):
                        assert {g.element_from_index(i).coords for i in range(g.order)
                                if got[k] >> i & 1} == want[k], (g, w, s, top, side, k)


def _pooled_pairs(sid, groups, wlens):
    """Each (W, S) pair a sweep of sid plans, in check order, each weight
    tuple's WeightSeq shared across its pool as in the sweep; on an orbit
    row, the representatives the factories yield."""
    dom = SweepDomain(groups=tuple(map(parse_group, groups)), wlens=wlens)
    return [(inst.weights, inst.seq) for _, factory in STATEMENTS[sid].planner(dom, DEFAULT_CAPS)
            for _, inst, _ in factory()]


@pytest.mark.parametrize("sid,groups,wlens,sums", [
    (StatementId.THM_WEGZ, ("c8", "c3xc3"), (2,), lambda w, s: sigma_n(w, s, w.length).bits),
    (StatementId.LEM_DAVID, ("c4", "c2xc2"), (2, 3), sigma_table),
])
def test_resumed_walks_equal_fresh_ones(monkeypatch, sid, groups, wlens, sums):
    pairs = _pooled_pairs(sid, groups, wlens)
    fresh = [sums(weight_seq(w.group, w.raw), s) for w, s in pairs]
    steps = []
    real_step = _Layout.step
    monkeypatch.setattr(_Layout, "step", lambda self, table, x: steps.append(x) or
                        real_step(self, table, x))
    assert [sums(w, s) for w, s in pairs] == fresh
    resumed = len(steps)
    assert [sums(w, s) for w, s in reversed(pairs)] == fresh[::-1]
    # the walks did resume: pool order walks fewer terms than fresh walks do
    steps.clear()
    for w, s in pairs:
        sums(weight_seq(w.group, w.raw), s)
    assert resumed < len(steps) / 2


def test_sequence_side_walks_resume_and_equal_fresh_ones(monkeypatch):
    # one S against every weight 4-tuple over c5 in lex order, as a sweep
    # pairs one pooled S with each weight tuple: S gives the classes, and
    # each walk resumes from the residues it shares with the last one
    g = make_group((5,))
    s = parse_sequence(g, "0^4,1,2")
    wseqs = [weight_seq(g, wraw) for wraw in combinations_with_replacement(range(5), 4)]
    assert len(wseqs) == 70
    fresh = [_sums_by_n(w, GSequence(g, s.mult), 4, side="sequence") for w in wseqs]
    assert fresh == [_sums_by_n(w, s, 4, side="weights") for w in wseqs]
    steps = []
    real_step = _Layout.step
    monkeypatch.setattr(_Layout, "step", lambda self, table, x: steps.append(x) or
                        real_step(self, table, x))
    assert [_sums_by_n(w, s, 4, side="sequence") for w in wseqs] == fresh
    assert len(steps) == 125  # against 70 walks of 4 residues fresh
    assert [_sums_by_n(w, s, 4, side="sequence") for w in reversed(wseqs)] == fresh[::-1]


def test_the_layout_store_is_keyed_by_side():
    # on c2xc4, weight residues 1, 2 and support elements 1, 2 give the same
    # capped classes, but as shifts multiples[x][k] and multiples[k][x] differ
    g = parse_group("c2xc4")
    s1 = GSequence(g, (0, 0, 1, 0, 1, 0, 0, 0))  # indices 2 and 4
    s2 = GSequence(g, (0, 1, 1, 0, 0, 0, 0, 0))  # indices 1 and 2
    _sums_by_n(weight_seq(g, [1, 2]), s1, 2, side="weights")
    got = _sums_by_n(weight_seq(g, [0, 2]), s2, 2, side="sequence")
    assert {g.element_from_index(i).coords for i in range(g.order) if got[2] >> i & 1} == \
        naive_sigma_n(g.invariant_factors, [0, 2], seq_coords(g, s2), 2)


def test_kept_walk_tables_stay_under_the_state_cap(monkeypatch):
    g = make_group((7,))
    w = weight_seq(g, [1, 2, 3])
    s = parse_sequence(g, "0^3,1^3,2^3,3^3,4^3,5^3,6^3")
    t = parse_sequence(g, "0^3,1^3,2^3,3^3,4^3,5^2,6^3")
    want = {seq: sigma_table(weight_seq(g, w.raw), seq) for seq in (s, t)}
    monkeypatch.setattr(weighted, "STATE_CAP", 40)  # a walk of s has 21 steps of 2 fields
    for seq in (s, t, s):
        assert sigma_table(w, seq) == want[seq]
        layout, done, kept, _ = w._sigma[3][3]
        assert layout.fields * sum(map(len, kept)) <= 40
        assert len(kept) == len(done) + 1 < 22


def test_a_refused_shape_builds_no_state_and_keeps_the_memo(monkeypatch):
    g = make_group((64,))
    w = weight_seq(g, range(1, 21))
    s = GSequence(g, (1,) * 20 + (0,) * 44)
    sigma_n(w, s, 2)
    memo = {top: plan[3] for top, plan in w._sigma.items() if plan[3]}
    assert memo

    def no_state(*args):
        raise AssertionError("a refused shape built a state")

    monkeypatch.setattr(_Layout, "step", no_state)
    monkeypatch.setattr(_Layout, "__init__", no_state)
    with pytest.raises(CapExceeded, match="^sigma DP needs 910596 states, above 262144$"):
        sigma_n(w, s, 12)
    assert {top for top, plan in w._sigma.items() if plan[3]} == memo.keys()
    assert all(w._sigma[top][3] is memo[top] for top in memo)


def _run_threads(work, count=4):
    """work(i) on count threads at once, switching every microsecond."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_threads_sharing_a_weight_seq_get_exact_sums():
    # each call reads one published walk and publishes a new one, so threads
    # that share a WeightSeq may lose each other's walks but never mix them
    rng = random.Random(8)
    g = make_group((8,))
    w = weight_seq(g, [1, 3, 4])
    seqs = [random_pair(rng, g, smax=12)[1] for _ in range(60)]
    seqs = [s for s in seqs if s.length >= 3]
    want = [sigma_n(weight_seq(g, w.raw), s, 3).bits for s in seqs]
    got = {}

    def work(i):
        order = seqs if i % 2 else seqs[::-1]
        got[i] = [sigma_n(w, s, 3).bits for s in order * 5]

    _run_threads(work)
    for i in range(4):
        assert got[i] == (want if i % 2 else want[::-1]) * 5


def test_threads_sharing_a_gsequence_get_exact_sums():
    # the sequence side publishes its walks on S, so threads that share S,
    # each with its own weight order, may lose each other's walks but never
    # mix them
    g = parse_group("c2xc4")
    s = parse_sequence(g, "(0,0)^2,(0,1)^2,(1,1),(1,2),(0,3)")
    wseqs = [weight_seq(g, wraw) for wraw in combinations_with_replacement(range(4), 3)]
    want = {w: _sums_by_n(w, GSequence(g, s.mult), 3, side="sequence") for w in wseqs}
    got = {}

    def work(i):
        order = wseqs[:]
        random.Random(i).shuffle(order)
        got[i] = [(w, _sums_by_n(w, s, 3, side="sequence")) for w in order * 5]

    _run_threads(work)
    for i in range(4):
        assert len(got[i]) == 5 * len(wseqs)
        assert all(sums == want[w] for w, sums in got[i])


def _states(caps, top):
    """#{0 <= c <= caps : sum(c) <= top}, one vector at a time."""
    return sum(sum(c) <= top for c in product(*(range(k + 1) for k in caps)))


def test_the_orientation_taken_is_the_two_count_rule():
    rng = random.Random(20)
    taken = set()
    for g in abelian_group_types(16):
        for _ in range(6):
            w, s = random_pair(rng, g)
            for top in range(1, min(w.length, s.length) + 1):
                wcount = _states([min(m, top) for _, m in w.residue_counts()], top)
                scount = _states([min(m, top) for m in s.mult if m], top)
                fresh = weight_seq(g, w.raw)
                sums = _sums_by_n(fresh, s, top)
                # only the weight side leaves a walk on the WeightSeq
                side = "weights" if fresh._sigma[top][3] else "sequence"
                assert side == ("weights" if wcount <= scount else "sequence"), (g, w, s, top)
                assert sums == _sums_by_n(w, s, top, side="sequence")
                taken.add(side)
    assert taken == {"weights", "sequence"}


def test_sums_by_count_reuses_one_stored_layout():
    rng = random.Random(5)
    for g in abelian_group_types(12):
        for _ in range(4):
            s = random_pair(rng, g, smax=9)[1]
            unit = weight_seq(g, [1] * s.length)
            want = tuple(_sums_by_n(unit, s, s.length, side="sequence"))
            assert sums_by_count(s) == want
            layouts = dict(g.stored("sigma_layouts", dict))
            assert sums_by_count(GSequence(g, s.mult)) == want
            assert g.stored("sigma_layouts", dict) == layouts  # the same layout objects


def test_stored_layouts_stay_under_their_bound(monkeypatch):
    g = make_group((64,))
    s = GSequence(g, (2,) * 8 + (0,) * 56)
    layouts = g.stored("sigma_layouts", dict)
    wtuples = list(combinations(range(1, 20), 2))
    assert len(wtuples) > 2 * weighted.LAYOUT_CAP  # distinct weight classes, one layout each
    # under the default STATE_CAP the layout count ends each store; under 100
    # the states held end it first
    for state_cap in (weighted.STATE_CAP, 100):
        monkeypatch.setattr(weighted, "STATE_CAP", state_cap)
        layouts.clear()
        most = 0
        for wraw in wtuples:
            w = weight_seq(g, wraw)
            assert sigma_n(w, s, 2).bits == _sums_by_n(w, s, 2, side="sequence")[2]
            assert 0 < len(layouts) <= weighted.LAYOUT_CAP
            # the store starts over before it adds a layout to more than
            # STATE_CAP states, and a layout holds at most its own state count
            *older, newest = layouts.values()
            assert sum(len(layout.meta) for layout in older) <= state_cap
            assert len(newest.meta) <= state_cap
            most = max(most, len(layouts))
        assert (most == weighted.LAYOUT_CAP) == (state_cap > 100), state_cap


def test_positional_wsum_value_and_empty_block():
    g = make_group((6,))
    # 2*{1,2} + 1*{0,3} = {2,4} + {0,3}
    bits = _positional_wsum_bits(g, [(2, gset(g, [1, 2]).bits), (1, gset(g, [0, 3]).bits)])
    assert bits == gset(g, [1, 2, 4, 5]).bits
    with pytest.raises(EmptySet):
        _positional_wsum_bits(g, [(1, gset(g, [1]).bits), (1, 0)])
