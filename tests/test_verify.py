"""Statement checkers, sweep engine, and report serialization."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import threading
import tracemalloc
from collections import Counter
from functools import cache
from itertools import chain, combinations_with_replacement, count, islice, product, repeat
from math import comb
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    DEFAULT_CAPS,
    CapExceeded,
    DomainTooLarge,
    GroupMismatch,
    GroupTooLarge,
    GSequence,
    GSet,
    Instance,
    MissingField,
    SearchCaps,
    Setpartition,
    StatementId,
    Status,
    SweepDomain,
    abelian_group_types,
    check_ap_structure,
    check_instance,
    check_max_subgroup_dichotomy,
    check_self_duality,
    contained_subgroup,
    coset_condition,
    davenport,
    example1_instance,
    example2_instance,
    format_group,
    gset,
    instance_to_dict,
    make_group,
    make_setpartition_witness,
    parse_group,
    parse_sequence,
    parse_weights,
    report_to_csv,
    report_to_json,
    statement_anchor,
    subgroup_generated,
    sweep,
    sweepable_statements,
    to_jsonable,
    verdict_to_dict,
    weight_seq,
    witness_search_setpartition,
)
from zerosum.groups import Group
from zerosum import sequences, verify, weighted
from zerosum.errors import NoSetpartition
from zerosum.sequences import balanced_setpartition
from zerosum.verify import (STATEMENTS, _affine_images, _affine_pool, _david_count, _david_pool,
                            _pool_count, _SeqPlanner, _seq_pool, _seq_walk, _sub_multisets,
                            _units)
from zerosum.verdict import Verdict
from zerosum.weighted import _positional_wsum_bits, sigma_n
from zerosum.weighted import weight_seq as real_weight_seq
from zerosum.setsum import _ap_differences, detect_ap

from oracles import (affine_orbit, all_elements, brute_contained_subgroup, brute_subgroups,
                     least_affine_image, least_translate, translates, unit_orbits)
from planned import planned_pairs


# ---------------------------------------------------------------------------
# structural helpers


def test_contained_subgroup_finds_smallest():
    g = make_group((6,))
    assert contained_subgroup(gset(g, range(6))).order == 2
    assert contained_subgroup(gset(g, [0, 2, 4])).order == 3
    assert contained_subgroup(gset(g, [0, 1, 2])) is None
    # the missing-pair set from the prime example contains no subgroup
    c7 = make_group((7,))
    assert contained_subgroup(gset(c7, [0, 1, 2, 5, 6])) is None


@pytest.mark.parametrize("text", ["c6", "c2xc4", "c2xc2xc2", "c3xc3", "c2xc6"])
def test_contained_subgroup_matches_brute_force_on_every_subset(text):
    g = parse_group(text)
    factors = g.invariant_factors
    elements = all_elements(factors)
    assert [g.element_from_index(i).coords for i in range(g.order)] == elements
    subgroups = brute_subgroups(factors)
    for bits in range(1 << g.order):
        members = {e for i, e in enumerate(elements) if (bits >> i) & 1}
        want = brute_contained_subgroup(factors, subgroups, members)
        got = contained_subgroup(GSet(g, bits))
        if want is None:
            assert got is None, bits
        else:
            assert got is not None, bits
            assert {elements[i] for i in got.indices()} == want, bits


def test_coset_condition_detection():
    g = make_group((6,))
    # the trivial subgroup allows |G| - 2 = 4 strays, so a 4-heavy value hits it first
    rep0, sub0 = coset_condition(parse_sequence(g, "1^4,0^2,2^1,3^1"))
    assert sub0.order == 1 and rep0 == 1
    # ten terms split 5/5 over {1,4} defeat the trivial subgroup but fit 1 + {0,3}
    hit = coset_condition(parse_sequence(g, "1^5,4^5"))
    assert hit is not None
    rep, sub = hit
    assert set(sub.indices()) == {0, 3}
    assert rep in (1, 4)
    # a spread-out sequence admits no coset concentration at all
    assert coset_condition(parse_sequence(g, "0^2,1^2,2^2,3^1,4^1")) is None


def test_statement_anchor_nonempty_for_all():
    for sid in StatementId:
        text = statement_anchor(sid)
        assert isinstance(text, str) and len(text) > 20


# ---------------------------------------------------------------------------
# the two frozen example families


@pytest.mark.parametrize("p,missing", [(7, [3, 4]), (11, [5, 6])])
def test_prime_example_missing_pair(p, missing):
    inst = example1_instance(p)
    v = check_instance(StatementId.EX1, inst)
    assert v.status is Status.HOLDS
    assert v.witness["missing"] == missing
    assert set(v.witness["sum_set"].indices()) == set(range(p)) - set(missing)


@pytest.mark.parametrize("r,missing", [(2, [2]), (3, [4])])
def test_power_of_two_example_missing_involution(r, missing):
    inst = example2_instance(r)
    v = check_instance(StatementId.EX2, inst)
    assert v.status is Status.HOLDS
    assert v.witness["missing"] == missing


def test_example_builders_reject_bad_parameters():
    with pytest.raises(ValueError):
        example1_instance(5)  # prime but 1 mod 4
    with pytest.raises(ValueError):
        example1_instance(9)  # not prime
    with pytest.raises(ValueError):
        example2_instance(0)


@pytest.mark.parametrize("p,message", [
    (1, "1 is not prime"), (2, "2 is not prime"), (9, "9 is not prime"),
    (5, "5 is not congruent to 3 mod 4"),
])
def test_prime_example_builder_messages(p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        example1_instance(p)


@pytest.mark.parametrize("factors,reason", [
    ((), "group is not of prime order"),  # order 1
    ((9,), "group is not of prime order"),
    ((2, 2), "group is not of prime order"),
    ((2,), "order must be a prime congruent to 3 mod 4, at least 7"),
    ((3,), "order must be a prime congruent to 3 mod 4, at least 7"),
    ((5,), "order must be a prime congruent to 3 mod 4, at least 7"),
    ((11,), "not the twin-weight triple-support shape for this prime"),
])
def test_prime_example_hypothesis_reasons(factors, reason):
    g = Group(factors)
    inst = Instance(g, seq=GSequence(g, (1,) * g.order), weights=weight_seq(g, [1]))
    assert check_instance(StatementId.EX1, inst).witness == {"reason": reason}


def test_prime_example_planner_keeps_primes_three_mod_four():
    groups = tuple(Group(f) for f in ((), (2,), (3,), (7,), (9,), (11,), (15,),
                                      (19,), (2, 2), (23,)))
    report = sweep(StatementId.EX1, SweepDomain(groups=groups))
    assert report.examined == 4
    assert report.counts[Status.HOLDS.value] == 4


def test_example_checkers_guard_hypotheses():
    inst = example1_instance(7)
    small = Instance(make_group((3,)), seq=parse_sequence(make_group((3,)), "0^1,1^1,2^1"),
                     weights=weight_seq(make_group((3,)), [1]), extra={})
    assert check_instance(StatementId.EX1, small).status is Status.HYPOTHESIS_NOT_MET
    # r = 1 gives order 2, below the threshold
    tiny = example2_instance(1)
    assert check_instance(StatementId.EX2, tiny).status is Status.HYPOTHESIS_NOT_MET
    # the prime instance is not the power-of-two shape
    assert check_instance(StatementId.EX2, inst).status is Status.HYPOTHESIS_NOT_MET


def _example_variants(inst: Instance):
    """The instance, one with all-one weights, one with its sequence rotated
    by one place, and one with its weights reversed and shifted by |G|."""
    g, s, w = inst.group, inst.seq, inst.weights
    yield inst
    yield Instance(g, seq=s, weights=weight_seq(g, [1] * w.length))
    yield Instance(g, seq=GSequence(g, s.mult[-1:] + s.mult[:-1]), weights=w)
    yield Instance(g, seq=s, weights=weight_seq(g, [x + g.order for x in reversed(w.raw)]))


def test_example_builders_and_checkers_are_pinned():
    # both builders, and both checkers on both families with three variants
    # each, so every group and shape reason is in the digest
    family = ([example1_instance(p) for p in (3, 7, 11, 19, 23)]
              + [example2_instance(r) for r in range(1, 6)])
    rows = [[instance_to_dict(v), verdict_to_dict(check_instance(sid, v))]
            for sid in (StatementId.EX1, StatementId.EX2)
            for inst in family for v in _example_variants(inst)]
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "2d6ce8c6f50c9fe7e8f4e0cd9d40789b8cbee6e902ef28754c675065443ce776")


# ---------------------------------------------------------------------------
# subgroup conjecture family


def test_subgroup_conjecture_fails_on_the_prime_example():
    inst = example1_instance(7)
    v = check_instance(StatementId.CONJ_HAMIDOUNE, inst)
    assert v.status is Status.FAILS
    assert set(v.witness["sum_set"].indices()) == {0, 1, 2, 5, 6}


@pytest.mark.parametrize("text,wlens", [("c3", (2, 3)), ("c5", (2, 3))])
def test_subgroup_conjecture_clean_below_seven(text, wlens):
    report = sweep(StatementId.CONJ_HAMIDOUNE,
                   SweepDomain(groups=(parse_group(text),), wlens=wlens))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert report.counts.get(Status.UNDECIDED_CAPPED.value, 0) == 0
    assert report.counts.get(Status.HOLDS.value, 0) > 0


def test_subgroup_conjecture_sweep_rediscovers_the_prime_counterexample():
    report = sweep(StatementId.CONJ_HAMIDOUNE,
                   SweepDomain(groups=(parse_group("c7"),), wlens=(3,)))
    fails = report.failures
    assert len(fails) == 9
    weight_classes = Counter(tuple(sorted(inst.weights.residues)) for inst, _ in fails)
    # the twin-weight triple and its two dilation images, three sequences each
    assert weight_classes == {(0, 1, 6): 3, (0, 2, 5): 3, (0, 3, 4): 3}
    canonical = {tuple(inst.seq.mult) for inst, _ in fails if tuple(sorted(inst.weights.residues)) == (0, 1, 6)}
    # 0^3 1^3 2^3 reduced to its lexicographically least translate
    assert (0, 0, 0, 0, 3, 3, 3) in canonical
    assert len(canonical) == 3


def test_sweep_checks_every_instance_on_the_calling_thread(monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return check_instance(*args, **kwargs)

    monkeypatch.setattr("zerosum.verify.check_instance", recording)
    dom = SweepDomain(groups=(parse_group("c5"), parse_group("c2xc2")), wlens=(2, 3))
    report = sweep(StatementId.THM_WEGZ, dom, threads=4)
    # one check per pooled representative: every pair here holds, so none
    # of its affine orbits is expanded
    planned = sum(1 for _, factory in STATEMENTS[StatementId.THM_WEGZ].planner(dom)
                  for _ in factory())
    assert report.counts["holds"] == report.examined > planned == len(seen) > 0
    assert set(seen) == {threading.get_ident()}


def test_failures_across_shards_keep_enumeration_order():
    # the 9 counterexamples sit in three shards (w = 0,1,6 / 0,2,5 / 0,3,4);
    # the digest is of the report the library wrote before shards were
    # tallied one by one
    dom = SweepDomain(groups=(parse_group("c7"),), wlens=(3,))
    r1 = sweep(StatementId.CONJ_HAMIDOUNE, dom, threads=1)
    r4 = sweep(StatementId.CONJ_HAMIDOUNE, dom, threads=4)
    shards = [tuple(sorted(inst.weights.residues)) for inst, _ in r1.failures]
    assert shards == [(0, 1, 6)] * 3 + [(0, 2, 5)] * 3 + [(0, 3, 4)] * 3
    text = report_to_json(r1)
    assert report_to_json(r4) == text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6600da5fc872b51949c5c0cec63edbf2ea015ce3cc218532f7b0c4ca060cc83e")


@pytest.mark.parametrize("g", abelian_group_types(9), ids=format_group)
def test_canonical_translate_matches_least_translate_oracle(g):
    assert [g.element_from_index(i).coords for i in range(g.order)] == all_elements(
        g.invariant_factors)
    for size in range(g.order + 2):
        every = sorted({tuple(combo.count(i) for i in range(g.order))
                        for combo in combinations_with_replacement(range(g.order), size)})
        least = {v for v in every if least_translate(g.invariant_factors, v) == v}
        for hcap in sorted({1, 2, size}):
            capped = tuple(v for v in every if max(v) <= hcap)
            assert tuple(_seq_pool(g, size, hcap, False)) == capped
            assert tuple(_sub_multisets((hcap,) * g.order, size, hcap)) == capped
            # capped is lex ascending, so the filter keeps the reduced pool's order
            assert tuple(_seq_pool(g, size, hcap, True)) == tuple(
                v for v in capped if v in least), (size, hcap)


@pytest.mark.parametrize("g", abelian_group_types(9), ids=format_group)
def test_affine_pool_matches_least_affine_image_oracle(g):
    # the orbit rows' pools: the least vector of each orbit under x -> u*x + t,
    # each standing for the translation classes (reduced) or the vectors
    # (unreduced) in its orbit
    factors = g.invariant_factors
    for size in range(g.order + 2):
        every = sorted({tuple(combo.count(i) for i in range(g.order))
                        for combo in combinations_with_replacement(range(g.order), size)})
        for reduced in (False, True):
            least, classes = {}, {}
            for v in every:
                if v not in least:
                    orbit = affine_orbit(factors, v, reduced)
                    rep = min(orbit)
                    least.update(dict.fromkeys(orbit, rep))
                    # the translation classes in one affine orbit are equally large
                    classes[rep] = len(orbit) // len(translates(factors, v) if reduced else {v})
            for hcap in sorted({1, 2, size}):
                pool = list(_affine_pool(g, size, hcap, reduced))
                assert [mult for mult, _ in pool] == [
                    v for v in every if max(v) <= hcap and least[v] == v], (size, hcap, reduced)
                assert [1 + others for _, others in pool] == [classes[mult] for mult, _ in pool]
                assert sum(1 + others for _, others in pool) == _pool_count(
                    g, size, hcap, reduced)
            for mult, others in pool:  # at hcap = size, every orbit
                assert least_affine_image(factors, mult, reduced) == mult
                # the other classes, each named by its least translate (reduced)
                images = _affine_images(g, mult, reduced)
                assert len(images) == others and images == sorted(set(images))
                assert all(least[x] == mult != x for x in images)
                assert not reduced or all(least_translate(factors, x) == x for x in images)


@pytest.mark.parametrize("g", abelian_group_types(10), ids=format_group)
def test_pool_counts_match_the_generated_pools(g):
    # the planner counts pools in closed form (Burnside for reduced ones)
    for size in range(g.order + 2):
        for hcap in sorted({1, 2, size}):
            for reduced in (False, True):
                assert _pool_count(g, size, hcap, reduced) == len(
                    tuple(_seq_pool(g, size, hcap, reduced))), (size, hcap, reduced)
    if g.order <= 8:
        d = davenport(g)
        for size in range(d - 1, d + g.order):
            assert _david_count(g, size, d) == len(tuple(_david_pool(g, size, d))), size


def test_sweep_translation_symmetry_spot_check():
    dom_on = SweepDomain(groups=(parse_group("c5"),), wlens=(3,))
    dom_off = SweepDomain(groups=(parse_group("c5"),), wlens=(3,), reduce_translation=False)
    on = sweep(StatementId.CONJ_HAMIDOUNE, dom_on)
    off = sweep(StatementId.CONJ_HAMIDOUNE, dom_off)
    assert on.counts.get(Status.FAILS.value, 0) == 0
    assert off.counts.get(Status.FAILS.value, 0) == 0
    # every orbit under translation has full size |G| here, so counts scale by 5
    assert off.counts.get(Status.HOLDS.value, 0) == 5 * on.counts.get(Status.HOLDS.value, 0)


def test_sweep_translation_symmetry_preserves_failure_count():
    dom_off = SweepDomain(groups=(parse_group("c7"),), wlens=(3,), reduce_translation=False)
    off = sweep(StatementId.CONJ_HAMIDOUNE, dom_off)
    # 9 canonical counterexamples, each an orbit of 7 translates
    assert off.counts.get(Status.FAILS.value, 0) == 63


def test_characterization_holds_on_power_of_two_twin():
    inst = example2_instance(2)
    v = check_instance(StatementId.THM_HAM_CHAR, inst)
    assert v.status is Status.HOLDS
    assert v.witness["disjunct"] == "ii"


def test_characterization_sweep_flags_only_twin_shapes():
    report = sweep(StatementId.THM_HAM_CHAR,
                   SweepDomain(groups=(parse_group("c4"),), wlens=(2, 3, 4)))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert len(report.flagged) >= 1
    for inst, verdict in report.flagged:
        assert verdict.witness["disjunct"] == "ii"
        support = [i for i, m in enumerate(inst.seq.mult) if m]
        assert len(support) == 2
        assert inst.weights.length == 3  # |G| - 1


def test_characterization_never_flags_odd_orders():
    report = sweep(StatementId.THM_HAM_CHAR,
                   SweepDomain(groups=(parse_group("c5"),), wlens=(3,)))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert report.flagged == []


def test_ham_variant_single_instance():
    g = make_group((4,))
    w = parse_weights(g, "1^2,3^2")  # four units, total 8 = 0 mod exp
    s = parse_sequence(g, "0^2,1^3,2^2")
    v = check_instance(StatementId.COR_HAM_VAR, Instance(g, seq=s, weights=w, extra={}))
    assert v.status in (Status.HOLDS, Status.HYPOTHESIS_NOT_MET)
    if v.status is Status.HOLDS:
        assert v.witness["subgroup"].order > 1


# ---------------------------------------------------------------------------
# zero-sum theorems


def test_weighted_egz_instance_and_tiny_sweep():
    g = make_group((4,))
    w = parse_weights(g, "1^2,-1^2")
    s = parse_sequence(g, "0^2,1^2,2^2,3^1")
    v = check_instance(StatementId.THM_WEGZ, Instance(g, seq=s, weights=w, extra={}))
    assert v.status is Status.HOLDS
    for text in ("c2", "c3", "c2xc2"):
        report = sweep(StatementId.THM_WEGZ,
                       SweepDomain(groups=(parse_group(text),), wlens=(1, 2, 3)))
        assert report.counts.get(Status.FAILS.value, 0) == 0
        assert report.counts.get(Status.UNDECIDED_CAPPED.value, 0) == 0


def test_gao_coset_sampled_sweep():
    report = sweep(StatementId.THM_GAO_COSET,
                   SweepDomain(groups=(parse_group("c5"),), samples=150, seed=3))
    assert report.examined == 150
    assert report.counts.get(Status.FAILS.value, 0) == 0


def test_gao_dstar_short_sequence_is_hyp_not_met():
    g = make_group((4,))
    s = parse_sequence(g, "0^3,1^2")  # below |G| + d*
    v = check_instance(StatementId.COR_GAO_DSTAR, Instance(g, seq=s, extra={}))
    assert v.status is Status.HYPOTHESIS_NOT_MET


def test_ordaz_quiroz_requires_exact_length():
    g = make_group((3,))
    w = parse_weights(g, "1^3")
    good = parse_sequence(g, "0^2,1^2,2^1")  # |G| + D - 1 = 5
    long_ = parse_sequence(g, "0^3,1^2,2^1")
    assert check_instance(StatementId.CONJ_ORDAZ_QUIROZ,
                          Instance(g, seq=good, weights=w, extra={})).status is Status.HOLDS
    assert check_instance(StatementId.CONJ_ORDAZ_QUIROZ,
                          Instance(g, seq=long_, weights=w, extra={})).status is Status.HYPOTHESIS_NOT_MET


def test_spud_full_coverage_and_coset_escape():
    g = make_group((4,))
    w = parse_weights(g, "1^2,3^1")  # three units, enough for n = d*(Z/4) = 3
    spread = parse_sequence(g, "0^2,1^2,2^1,3^1")
    v = check_instance(StatementId.COR_SPUD,
                       Instance(g, seq=spread, weights=w, n=3, extra={}))
    assert v.status is Status.HOLDS
    packed = parse_sequence(g, "0^3,2^3")  # concentrated on the even coset
    v2 = check_instance(StatementId.COR_SPUD,
                        Instance(g, seq=packed, weights=w, n=3, extra={}))
    assert v2.status is Status.HYPOTHESIS_NOT_MET


def test_david_lemma_sweep_and_instance():
    report = sweep(StatementId.LEM_DAVID,
                   SweepDomain(groups=(parse_group("c4"),), wlens=(1, 2), slen_extra=1))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    g = make_group((3,))
    w = parse_weights(g, "1^2")
    s = parse_sequence(g, "0^2,1^2")  # v0 = h = 2 = D - 1, |S| = |W| + D - 1
    v = check_instance(StatementId.LEM_DAVID, Instance(g, seq=s, weights=w, extra={}))
    assert v.status is Status.HOLDS


def test_david_lemma_sweep_on_the_trivial_group():
    # one sequence per length: all terms 0, with no other element to spread over
    report = sweep(StatementId.LEM_DAVID, SweepDomain(groups=(Group(()),), wlens=(1, 2)))
    assert report.counts[Status.HOLDS.value] == report.examined == 2


def test_specialcase_sweep_is_clean():
    report = sweep(StatementId.COR_SPECIALCASE,
                   SweepDomain(groups=(parse_group("c3"),), wlens=(3,)))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert report.counts.get(Status.HOLDS.value, 0) > 0


# ---------------------------------------------------------------------------
# structure lemmas on the subgroup lattice


def test_dstar_subadditivity_instance_and_sweep():
    g = parse_group("c2xc4")
    sub = subgroup_generated(g, [g.element((0, 2)).index if hasattr(g, "element") else 4])
    for dom_group in ("c12", "c2xc4", "c3xc3", "c2xc2xc2"):
        grp = parse_group(dom_group)
        report = sweep(StatementId.LEM_DSTAR_SUBADD, SweepDomain(groups=(grp,)))
        assert report.counts.get(Status.FAILS.value, 0) == 0
        assert report.examined == len_all_subgroups(grp)


def len_all_subgroups(g):
    from zerosum import all_subgroups

    return len(all_subgroups(g))


def test_split_lemma_instance_and_sweep():
    g = make_group((4,))
    w = weight_seq(g, [1])
    inst = Instance(g, weights=w, extra={"set": gset(g, [0, 2]), "base_index": 0})
    v = check_instance(StatementId.LEM_SPLIT, inst)
    assert v.status is Status.HOLDS
    for text in ("c4", "c2xc2", "c6"):
        report = sweep(StatementId.LEM_SPLIT, SweepDomain(groups=(parse_group(text),)))
        assert report.counts.get(Status.FAILS.value, 0) == 0
        assert report.counts.get(Status.HOLDS.value, 0) > 0


def test_self_duality_over_small_lattices():
    for text in ("c4", "c2xc4", "c2xc2xc2", "c3xc3"):
        g = parse_group(text)
        v = check_self_duality(g)
        assert v.status is Status.HOLDS
    report = sweep(StatementId.PROP_DUAL, SweepDomain(groups=(parse_group("c2xc4"),)))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert report.examined == 8


def test_alignment_sweep_small():
    for text in ("c2xc4", "c12", "c2xc2xc2"):
        report = sweep(StatementId.PROP_ALIGN, SweepDomain(groups=(parse_group(text),)))
        assert report.counts.get(Status.FAILS.value, 0) == 0


# ---------------------------------------------------------------------------
# pigeonhole and progression structure


def test_pigeonhole_statement():
    g = make_group((5,))
    inst = Instance(g, extra={"set_a": gset(g, [0, 1, 2]), "set_b": gset(g, [0, 1, 2])})
    assert check_instance(StatementId.PROP_PIGEONHOLE, inst).status is Status.HOLDS
    small = Instance(g, extra={"set_a": gset(g, [0, 1]), "set_b": gset(g, [0, 1])})
    assert check_instance(StatementId.PROP_PIGEONHOLE, small).status is Status.HYPOTHESIS_NOT_MET
    report = sweep(StatementId.PROP_PIGEONHOLE, SweepDomain(groups=(parse_group("c5"),)))
    assert report.counts.get(Status.FAILS.value, 0) == 0


def test_ap_structure_frozen_cases():
    c7 = make_group((7,))
    pair = [gset(c7, [0, 1]), gset(c7, [0, 1]), gset(c7, [0, 1])]
    v = check_ap_structure(pair)
    assert v.status is Status.HOLDS
    assert v.witness["difference"].index == 1

    c4 = make_group((4,))
    v2 = check_ap_structure([gset(c4, [0, 2]), gset(c4, [0, 1])])
    assert v2.status is Status.HYPOTHESIS_NOT_MET  # {0,2} is quasi-periodic

    c5 = make_group((5,))
    v3 = check_ap_structure([gset(c5, [0, 1]), gset(c5, [0, 2])])
    # |A + B| = 4 > |A| + |B| - 1 = 3: the tightness hypothesis fails
    assert v3.status is Status.HYPOTHESIS_NOT_MET


def test_ap_structure_multi_difference_sets_are_handled():
    # {0,1,2,3} in Z/5 is an AP under every nonzero difference; a naive
    # canonical-witness comparison would miss the shared difference here
    c5 = make_group((5,))
    v = check_ap_structure([gset(c5, [0, 2]), gset(c5, [0, 1, 2, 3])])
    if v.status is Status.HOLDS:
        d = v.witness["difference"].index
        assert d in _ap_differences(gset(c5, [0, 2]))
        assert d in _ap_differences(gset(c5, [0, 1, 2, 3]))


def test_ap_difference_scan_agrees_with_detector():
    for factors in [(5,), (6,), (7,), (8,), (2, 2), (2, 4)]:
        g = make_group(factors)
        for mask in range(1, 1 << g.order):
            a = GSet(g, mask)
            assert bool(_ap_differences(a)) == (detect_ap(a) is not None) or a.size == 1


def test_ap_structure_sweep_has_no_failures():
    for text in ("c5", "c6", "c7", "c2xc2"):
        report = sweep(StatementId.AP_STRUCT, SweepDomain(groups=(parse_group(text),)))
        assert report.counts.get(Status.FAILS.value, 0) == 0


# ---------------------------------------------------------------------------
# setpartition witness machinery


def test_witness_search_direct_size_bound():
    g = make_group((4,))
    w = weight_seq(g, [1, 1, 1])
    s = parse_sequence(g, "0^2,1^2,2^1,3^1")
    v = witness_search_setpartition(Instance(g, seq=s, weights=w, n=3, extra={}))
    assert v.status is Status.HOLDS
    assert v.witness["disjunct"] == "i"
    assert v.witness["achieved"] >= v.witness["floor"] == 4


def test_witness_search_tiny_group():
    g = make_group((2,))
    w = weight_seq(g, [1])
    s = parse_sequence(g, "0^1,1^1")
    v = witness_search_setpartition(Instance(g, seq=s, weights=w, n=1, extra={}))
    assert v.status is Status.HOLDS
    assert v.witness["disjunct"] == "i"


def test_witness_search_coset_aligned_route():
    v = witness_search_setpartition(_coset_aligned_instance())
    assert v.status is Status.HOLDS
    assert v.witness["disjunct"] == "ii"
    assert set(v.witness["subgroup"].indices()) == {0, 1}


def test_witness_search_sweep_small():
    report = sweep(StatementId.THM_SETPART_WITNESS,
                   SweepDomain(groups=(parse_group("c4"),), wlens=(2, 3)))
    assert report.counts.get(Status.FAILS.value, 0) == 0
    assert report.counts.get(Status.UNDECIDED_CAPPED.value, 0) == 0


def test_setpartition_witness_recompute():
    g = make_group((4,))
    sub = subgroup_generated(g, [2])
    part = Setpartition(g, (0b011, 0b110))  # blocks {0,1} and {1,2}
    spw = make_setpartition_witness(sub, part)
    assert spw.subgroup.mask == sub.mask
    # bound formula: ((N - 1) * n + e + 1) * |H|
    assert spw.bound == ((spw.n_common - 1) * len(part.blocks) + spw.excess + 1) * sub.order


def _maxk_full_instance() -> Instance:
    g = make_group((4,))
    w = weight_seq(g, [1, 1, 1])
    s = parse_sequence(g, "0^2,1^2,2^1,3^1")
    full = subgroup_generated(g, [1])
    blocks = (gset(g, [0, 1]), gset(g, [0, 1]), gset(g, [2, 3]))
    return Instance(g, seq=s, weights=w, n=3, extra={
        "subgroup": full,
        "coset_rep": 0,
        "cert_seq": parse_sequence(g, "0^2,1^2,2^1,3^1"),
        "cert_blocks": blocks,
    })


def _maxk_proper_instance() -> Instance:
    g = make_group((4,))
    w = weight_seq(g, [1, 1, 1])
    s = parse_sequence(g, "1^3,3^2")
    k = subgroup_generated(g, [2])
    return Instance(g, seq=s, weights=w, n=3, extra={
        "subgroup": k,
        "coset_rep": 1,
        "cert_seq": parse_sequence(g, "1^1,3^1"),
        "cert_blocks": (gset(g, [1, 3]),),
    })


def _coset_aligned_instance() -> Instance:
    g = make_group((2, 2))
    w = weight_seq(g, [1, 1])
    s = GSequence(g, (2, 2, 0, 0))  # all terms in the subgroup {(0,0),(1,0)}
    return Instance(g, seq=s, weights=w, n=2, extra={})


def test_max_subgroup_dichotomy_full_branch():
    v = check_max_subgroup_dichotomy(_maxk_full_instance())
    assert v.status is Status.HOLDS
    assert v.witness["branch"] == "full"


def test_max_subgroup_dichotomy_proper_branch():
    v = check_max_subgroup_dichotomy(_maxk_proper_instance())
    assert v.status is Status.HOLDS
    assert v.witness["branch"] == "proper"


@pytest.mark.parametrize("check,build,cap,value,reason", [
    (check_max_subgroup_dichotomy, _maxk_full_instance, "subsequences", 0,
     "subsequence budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_full_instance, "partitions", 0,
     "partition budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_full_instance, "assignments", 0,
     "assignment budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_full_instance, "subgroups", 1,
     "maximality search budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_proper_instance, "subsequences", 1,
     "maximality search budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_proper_instance, "partitions", 0,
     "maximality search budget exhausted"),
    (check_max_subgroup_dichotomy, _maxk_proper_instance, "assignments", 0,
     "maximality search budget exhausted"),
    (witness_search_setpartition, _coset_aligned_instance, "subsequences", 0,
     "search budget exhausted before a witness was found"),
    (witness_search_setpartition, _coset_aligned_instance, "partitions", 0,
     "search budget exhausted before a witness was found"),
    (witness_search_setpartition, _coset_aligned_instance, "assignments", 0,
     "search budget exhausted before a witness was found"),
    (witness_search_setpartition, _coset_aligned_instance, "subgroups", 1,
     "subgroup lattice above cap"),
])
def test_setpartition_budgets_name_the_cap(check, build, cap, value, reason):
    v = check(build(), SearchCaps(**{cap: value}))
    assert v.status is Status.UNDECIDED_CAPPED
    assert v.witness == {"reason": reason}


@pytest.mark.parametrize("check,build", [
    (check_max_subgroup_dichotomy, _maxk_full_instance),
    (witness_search_setpartition, _coset_aligned_instance),
])
@pytest.mark.parametrize("cap", ["subsequences", "partitions", "assignments"])
def test_setpartition_budget_of_one_still_decides(check, build, cap):
    assert check(build(), SearchCaps(**{cap: 1})).status is Status.HOLDS


def test_maxk_full_branch_walks_on_past_a_spent_cap():
    # with one arrangement per partition the cap runs out before G is
    # covered; the walk records it and goes on to a partition that covers G
    g = make_group((4,))
    s = parse_sequence(g, "1^1,2^1,3^3")
    inst = Instance(g, seq=s, weights=weight_seq(g, [1, 1, 3]), n=3, extra={
        "subgroup": subgroup_generated(g, [1]),
        "coset_rep": 0,
        "cert_seq": s,
        "cert_blocks": (gset(g, [1, 3]), gset(g, [2, 3]), gset(g, [3])),
    })
    v = check_max_subgroup_dichotomy(inst, SearchCaps(assignments=1))
    assert v.status is Status.HOLDS and v.witness["branch"] == "full"
    v = check_max_subgroup_dichotomy(inst, SearchCaps(partitions=1))
    assert v.witness == {"reason": "partition budget exhausted"}


def test_max_subgroup_dichotomy_rejects_bad_certificates():
    g = make_group((4,))
    w = weight_seq(g, [1, 1, 1])
    s = parse_sequence(g, "1^3,3^2")
    k = subgroup_generated(g, [2])
    bad = Instance(g, seq=s, weights=w, n=3, extra={
        "subgroup": k,
        "coset_rep": 0,  # wrong coset for the block
        "cert_seq": parse_sequence(g, "1^1,3^1"),
        "cert_blocks": (gset(g, [1, 3]),),
    })
    assert check_max_subgroup_dichotomy(bad).status is Status.HYPOTHESIS_NOT_MET
    trivial = Instance(g, seq=s, weights=w, n=3, extra={
        "subgroup": subgroup_generated(g, []),
        "coset_rep": 0,
        "cert_seq": parse_sequence(g, "1^1"),
        "cert_blocks": (gset(g, [1]),),
    })
    assert check_max_subgroup_dichotomy(trivial).status is Status.HYPOTHESIS_NOT_MET


def test_cap_exceeded_below_a_checker_is_an_undecided_verdict():
    # the coset condition's subgroup lattice
    groups = tuple(parse_group(t) for t in ("c2xc2", "c2xc2xc2", "c2xc4"))
    report = sweep(StatementId.COR_GAO_DSTAR, SweepDomain(groups=groups, samples=50),
                   caps=SearchCaps(subgroups=2))
    assert report.counts[Status.UNDECIDED_CAPPED.value] > 0
    assert report.counts[Status.FAILS.value] == 0
    g = parse_group("c2xc2xc2")
    near_zero = Instance(g, seq=GSequence(g, (10, 1, 0, 0, 0, 0, 0, 0)))
    v = check_instance(StatementId.COR_GAO_DSTAR, near_zero, SearchCaps(subgroups=2))
    assert v.witness == {"reason": "more than 2 subgroups"}
    # the Davenport order cap keeps its reason
    v = check_instance(StatementId.THM_GAO_COSET, near_zero, SearchCaps(davenport=4))
    assert v.witness == {"reason": "Davenport constant above cap"}
    # the exact sigma_n kernel's state budget
    c64 = parse_group("c64")
    w = weight_seq(c64, list(range(1, 20)) + [2])
    s = GSequence(c64, tuple(2 if i < 19 else 1 for i in range(64)))
    v = check_instance(StatementId.THM_WEGZ, Instance(c64, seq=s, weights=w))
    assert v.status is Status.UNDECIDED_CAPPED
    assert v.witness["reason"].startswith("sigma DP needs")


def test_maxk_certificate_over_another_group_raises():
    c8 = parse_group("c8")
    own = _maxk_case("c4", "0^2,1^2,2^2,3^2", [1, 1, 1], [2], 0, "0^1,2^1", [[0, 2]])
    foreign = {"subgroup": subgroup_generated(c8, [4]), "coset_rep": 0,
               "cert_seq": parse_sequence(c8, "0^1,4^1"), "cert_blocks": (gset(c8, [0, 4]),)}
    # the whole certificate over c8 once crashed in Setpartition.as_sequence
    # with an IndexError; each part over c8 is a malformed instance too
    swaps = [foreign, {"sub_seq": parse_sequence(c8, "0^3")}] + [
        {key: value} for key, value in foreign.items() if key != "coset_rep"]
    for swap in swaps:
        bad = dataclasses.replace(own, extra={**own.extra, **swap})
        with pytest.raises(GroupMismatch):
            check_instance(StatementId.THM_SETPART_MAXK, bad)
    # over its own group the same certificate is checked, and K = <2> is not maximal
    assert check_instance(StatementId.THM_SETPART_MAXK, own).witness == {
        "reason": "a strictly larger subgroup also admits a certificate"}


def test_maxk_takes_no_sweep_domain():
    with pytest.raises(MissingField):
        sweep(StatementId.THM_SETPART_MAXK, SweepDomain(groups=(parse_group("c4"),)))


# ---------------------------------------------------------------------------
# engine behavior and serialization


def test_instance_parts_over_another_group_raise():
    c4, c5 = parse_group("c4"), parse_group("c5")
    s, w = parse_sequence(c5, "0^2,1^2,2^2,3^1"), weight_seq(c5, [1, 1, -1, -1])
    own_s, own_w = parse_sequence(c4, "0^2,1^2,2^2,3^1"), weight_seq(c4, [1, 1, -1, -1])
    # a c4 verdict must not be read off c5 sums
    for sid in (StatementId.THM_WEGZ, StatementId.CONJ_HAMIDOUNE, StatementId.THM_HAM_CHAR,
                StatementId.COR_HAM_VAR):
        for seq, weights in ((s, w), (own_s, w), (s, own_w)):
            with pytest.raises(GroupMismatch):
                check_instance(sid, Instance(c4, seq=seq, weights=weights))
        assert check_instance(sid, Instance(c4, seq=own_s, weights=own_w)).status is Status.HOLDS


# each extra lies over another group than the instance; each of these once
# gave a verdict read off that group (PROP_PIGEONHOLE, PROP_DUAL and
# LEM_DSTAR_SUBADD fails, PROP_ALIGN, LEM_SPLIT and AP_STRUCT holds)
_FOREIGN_EXTRAS = [
    (StatementId.PROP_PIGEONHOLE, "c2", lambda c7, c8: {
        "set_a": gset(c7, [0, 1]), "set_b": gset(c7, [0, 2])}),
    (StatementId.PROP_DUAL, "c4", lambda c7, c8: {"subgroup": subgroup_generated(c8, [2])}),
    (StatementId.LEM_DSTAR_SUBADD, "c4",
     lambda c7, c8: {"subgroup": subgroup_generated(c8, [2])}),
    (StatementId.PROP_ALIGN, "c4", lambda c7, c8: {"subgroup": subgroup_generated(c8, [2])}),
    (StatementId.LEM_SPLIT, "c2", lambda c7, c8: {"set": gset(c7, [0, 1]), "base_index": 0}),
    # AP_STRUCT's sets over two groups, one of them G, keep their hypothesis
    # reason (_two_group_sets); here no set lies over G
    (StatementId.AP_STRUCT, "c5", lambda c7, c8: {
        "sets": (gset(c7, [0, 1]), gset(c7, [0, 1, 2, 3, 4, 5]))}),
]


@pytest.mark.parametrize("sid,text,extra", _FOREIGN_EXTRAS,
                         ids=[sid.value for sid, _, _ in _FOREIGN_EXTRAS])
def test_extras_over_another_group_raise(sid, text, extra):
    g = parse_group(text)
    inst = Instance(g, weights=weight_seq(g, [1]),
                    extra=extra(parse_group("c7"), parse_group("c8")))
    with pytest.raises(GroupMismatch):
        check_instance(sid, inst)


def test_index_extras_are_read_as_group_indices():
    # coset_rep and base_index are read as every other index is
    # (groups._index_in): reduced mod |G| on a cyclic group, and a
    # GroupMismatch off the index space or when not an integer; at first a
    # negative coset_rep was read as a negative tuple index, and a
    # negative base_index as a negative shift count
    proper = _maxk_proper_instance()  # over c4, certified at coset_rep 1
    want = verdict_to_dict(check_max_subgroup_dichotomy(proper))
    for rep in (-3, 5):
        inst = dataclasses.replace(proper, extra={**proper.extra, "coset_rep": rep})
        assert verdict_to_dict(check_max_subgroup_dichotomy(inst)) == want, rep
    with pytest.raises(GroupMismatch):
        check_max_subgroup_dichotomy(
            dataclasses.replace(proper, extra={**proper.extra, "coset_rep": 1.0}))
    aligned = _coset_aligned_instance()  # over c2xc2, meeting every clause
    g = aligned.group
    for rep in (5, -1):
        inst = dataclasses.replace(aligned, extra={
            "subgroup": subgroup_generated(g, [1]), "coset_rep": rep, "cert_seq": aligned.seq,
            "cert_blocks": (gset(g, [0, 1]), gset(g, [0, 1]))})
        with pytest.raises(GroupMismatch):
            check_max_subgroup_dichotomy(inst)
    c4 = parse_group("c4")

    def split(group, base):
        return check_instance(StatementId.LEM_SPLIT, Instance(
            group, weights=weight_seq(group, [1]),
            extra={"set": gset(group, [0, 2]), "base_index": base}))

    want = verdict_to_dict(split(c4, 2))
    assert want["status"] == "holds"
    for base in (-2, 6):
        assert verdict_to_dict(split(c4, base)) == want, base
    assert split(c4, -1).witness == {"reason": "base point must lie in the set"}
    for group, base in ((c4, 1.5), (parse_group("c2xc2"), -1), (parse_group("c2xc2"), 4)):
        with pytest.raises(GroupMismatch):
            split(group, base)


def test_missing_fields_raise():
    g = make_group((4,))
    with pytest.raises(MissingField):
        check_instance(StatementId.THM_WEGZ, Instance(g, extra={}))
    with pytest.raises(MissingField):
        check_instance(StatementId.LEM_SPLIT, Instance(g, weights=weight_seq(g, [1]), extra={}))


def _reason_case(text, seq=None, weights=None, n=None, **extra):
    """An instance over the group `text` from literals; extra values that are
    index lists become sets, and a list of them a list of sets."""
    g = parse_group(text)

    def value(v):
        if isinstance(v, list) and v and isinstance(v[0], list):
            return [gset(g, x) for x in v]
        if isinstance(v, list):
            return gset(g, v)
        return parse_sequence(g, v) if isinstance(v, str) else v

    return Instance(g, seq=None if seq is None else parse_sequence(g, seq),
                    weights=None if weights is None else weight_seq(g, weights),
                    n=n, extra={k: value(v) for k, v in extra.items()})


def _maxk_case(text, seq, weights, sub_gens, rep, cert_seq, blocks):
    g = parse_group(text)
    return Instance(g, seq=parse_sequence(g, seq), weights=weight_seq(g, weights),
                    n=len(weights), extra={
                        "subgroup": subgroup_generated(g, sub_gens),
                        "coset_rep": rep,
                        "cert_seq": parse_sequence(g, cert_seq),
                        "cert_blocks": tuple(gset(g, b) for b in blocks)})


def _two_group_sets():
    return Instance(parse_group("c4"), extra={"sets": [gset(parse_group("c4"), [0, 1]),
                                                       gset(parse_group("c5"), [0, 1])]})


# every literal hypothesis reason of the registered checkers, each with an
# instance whose first failing clause is that one
_EX1, _EX2 = StatementId.EX1, StatementId.EX2
_HYPOTHESIS_REASONS = [
    (_EX1, lambda: _reason_case("c9", "0^9", [1]), "group is not of prime order"),
    (_EX1, lambda: _reason_case("c5", "0^5", [1]),
     "order must be a prime congruent to 3 mod 4, at least 7"),
    (_EX1, lambda: _reason_case("c11", "0^5,1^5,2^5", [1] * 5),
     "not the twin-weight triple-support shape for this prime"),
    (_EX2, lambda: _reason_case("c6", "0^5,1^5", [0, 1, 1, 5, 5]),
     "group must be cyclic of order 2^r with r >= 2"),
    (_EX2, lambda: _reason_case("c8", "0^7,1^7", [1] * 7),
     "not the twin-weight double-support shape for this order"),
    (StatementId.THM_GAO_COSET, lambda: _reason_case("c4", "0^6"),
     "sequence shorter than |G| + D(G) - 1"),
    (StatementId.COR_GAO_DSTAR, lambda: _reason_case("c4", "0^6"),
     "sequence shorter than |G| + d*(G)"),
    (StatementId.THM_WEGZ, lambda: _reason_case("c4", "0^6", []), "weights are empty"),
    (StatementId.THM_WEGZ, lambda: _reason_case("c4", "0^6", [1]),
     "weight total not divisible by the exponent"),
    (StatementId.THM_WEGZ, lambda: _reason_case("c4", "0^4", [1, 3]),
     "sequence shorter than |W| + |G| - 1"),
    (StatementId.CONJ_HAMIDOUNE, lambda: _reason_case("c5", "0^6", [0]),
     "needs |W| >= 2 so that |W| + |G| - 1 >= |G| + 1"),
    (StatementId.CONJ_HAMIDOUNE, lambda: _reason_case("c5", "0^5", [1, 4]),
     "sequence shorter than |W| + |G| - 1"),
    (StatementId.CONJ_HAMIDOUNE, lambda: _reason_case("c5", "0^1,1^1,2^2,3^2", [1, 1]),
     "weight total not divisible by the group order"),
    (StatementId.CONJ_HAMIDOUNE, lambda: _reason_case("c5", "0^3,1^3", [1, 4]),
     "maximum multiplicity exceeds |W|"),
    (StatementId.CONJ_HAMIDOUNE, lambda: _reason_case("c4", "0^2,1^2,2^2", [0, 2, 2]),
     "more than one weight shares a factor with the group order"),
    (StatementId.THM_HAM_CHAR, lambda: _reason_case("c7", "0^2,1^2,2^2,3^2", [1, 6]),
     "needs |W| >= |G| / 2"),
    (StatementId.COR_HAM_VAR, lambda: _reason_case("c4", "0^6", []), "weights are empty"),
    (StatementId.COR_HAM_VAR, lambda: _reason_case("c4", "0^4", [1, 3]),
     "sequence shorter than |W| + |G| - 1"),
    (StatementId.COR_HAM_VAR, lambda: _reason_case("c4", "0^1,1^1,2^1,3^2", [1, 1]),
     "weight total not divisible by the exponent"),
    (StatementId.COR_HAM_VAR, lambda: _reason_case("c4", "0^3,1^2", [1, 3]),
     "maximum multiplicity exceeds |W|"),
    (StatementId.COR_HAM_VAR, lambda: _reason_case("c4", "0^2,1^2,2^1", [1, 3]),
     "fewer than d*(G) weights coprime to the exponent"),
    (StatementId.CONJ_ORDAZ_QUIROZ, lambda: _reason_case("c4", "0^7", [1, 3]),
     "needs |W| = |G|"),
    (StatementId.CONJ_ORDAZ_QUIROZ, lambda: _reason_case("c4", "0^7", [1, 1, 1, 2]),
     "weights must all be coprime to the group order"),
    (StatementId.CONJ_ORDAZ_QUIROZ, lambda: _reason_case("c4", "0^7", [1, 1, 1, 3]),
     "weight total not divisible by the group order"),
    (StatementId.CONJ_ORDAZ_QUIROZ, lambda: _reason_case("c4", "0^6", [1, 1, 3, 3]),
     "needs |S| = |G| + D(G) - 1"),
    (StatementId.COR_SPECIALCASE, lambda: _reason_case("c4", "0^7", [1, 3]),
     "needs |W| = |G|"),
    (StatementId.COR_SPECIALCASE, lambda: _reason_case("c4", "0^7", [1, 1, 1, 2]),
     "weights must all be coprime to the group order"),
    (StatementId.COR_SPECIALCASE, lambda: _reason_case("c4", "0^6", [1, 1, 1, 1]),
     "sequence shorter than |G| + D(G) - 1"),
    (StatementId.COR_SPECIALCASE, lambda: _reason_case("c4", "0^2,1^2,2^2,3^1", [1, 1, 1, 1]),
     "needs D(G) - 1 <= h(S) <= |G|"),
    (StatementId.COR_SPUD, lambda: _reason_case("c4", "0^6", [1, 2], n=3),
     "weights must all be coprime to the exponent"),
    (StatementId.COR_SPUD, lambda: _reason_case("c4", "0^1,1^1,2^1,3^1", [1, 1, 1], n=2),
     "n below max(h(S), d*(G))"),
    (StatementId.COR_SPUD, lambda: _reason_case("c4", "0^2,1^1,2^1,3^1", [1, 1, 1], n=3),
     "n above |S| - |G| + 1"),
    (StatementId.COR_SPUD, lambda: _reason_case("c4", "0^2,1^2,2^1,3^1", [1, 1], n=3),
     "fewer weights than n"),
    (StatementId.COR_SPUD, lambda: _reason_case("c4", "0^3,2^3", [1, 1, 1], n=3),
     "a coset holds all but at most |G/H| - 2 terms"),
    (StatementId.LEM_DAVID, lambda: _reason_case("c4", "0^1", []),
     "weights and sequence must be nonempty"),
    (StatementId.LEM_DAVID, lambda: _reason_case("c4", "0^3", [1]),
     "sequence shorter than |W| + D(G) - 1"),
    (StatementId.LEM_DAVID, lambda: _reason_case("c4", "0^2,1^3", [1]),
     "needs multiplicity of 0 equal to h(S) and at least D(G) - 1"),
    (StatementId.LEM_SPLIT, lambda: _reason_case("c4", weights=[1], set=[0], base_index=0),
     "set must have at least 2 elements"),
    (StatementId.LEM_SPLIT, lambda: _reason_case("c4", weights=[1], set=[0, 1], base_index=2),
     "base point must lie in the set"),
    (StatementId.LEM_SPLIT, lambda: _reason_case("c4", weights=[1], set=[0, 1], base_index=0),
     "needs exactly d*(H) weights for H generated by the shifted set"),
    (StatementId.LEM_SPLIT,
     lambda: _reason_case("c4", weights=[1, 1, 2], set=[0, 1], base_index=0),
     "weights must all be coprime to exp(H)"),
    (StatementId.PROP_PIGEONHOLE, lambda: _reason_case("c4", set_a=[], set_b=[0, 1]),
     "both sets must be nonempty"),
    (StatementId.PROP_PIGEONHOLE, lambda: _reason_case("c4", set_a=[0], set_b=[0, 1]),
     "needs |A| + |B| >= |G| + 1"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[0, 1]]),
     "needs at least two sets"),
    (StatementId.AP_STRUCT, _two_group_sets, "sets must share one group"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[1, 2], [0, 1]]),
     "every set must contain 0"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[0], [0, 1]]),
     "every set must have at least 2 elements"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c6", sets=[[0, 1, 3], [0, 1]]),
     "a set is quasi-periodic"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[0, 1, 2], [0, 1, 2]]),
     "the two-set route needs a set of size exactly 2"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[0, 1], [0, 2]]),
     "sum size must equal |A| + |B| - 1"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c6", sets=[[0, 2], [0, 1], [0, 1]]),
     "every set must generate the whole group"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c7", sets=[[0, 1], [0, 1], [0, 1, 2, 3, 4]]),
     "the sum of the sets must be aperiodic"),
    (StatementId.AP_STRUCT, lambda: _reason_case("c11", sets=[[0, 1], [0, 2], [0, 3]]),
     "sum size must equal the Kneser equality bound"),
    (StatementId.THM_SETPART_WITNESS, lambda: _reason_case("c4", "0^3", [1, 2], n=2),
     "weights must all be coprime to the exponent"),
    (StatementId.THM_SETPART_WITNESS, lambda: _reason_case("c4", "0^3", [1, 1, 1], n=2),
     "needs exactly n weights"),
    (StatementId.THM_SETPART_WITNESS, lambda: _reason_case("c4", "0^3", [1, 1], n=2),
     "needs n >= d*(G)"),
    (StatementId.THM_SETPART_WITNESS,
     lambda: _reason_case("c4", "0^3", [1, 1, 1], n=3, sub_seq="1^3"),
     "designated subsequence is not contained in the sequence"),
    (StatementId.THM_SETPART_WITNESS, lambda: _reason_case("c4", "0^4", [1, 1, 1], n=3),
     "needs h(S') <= n <= |S'|"),
    (StatementId.THM_SETPART_MAXK,
     lambda: _maxk_case("c4", "0^2,1^1,2^2,3^1", [1, 1, 1], [], 0, "0^1", [[0]]),
     "certificate subgroup must be nontrivial"),
    (StatementId.THM_SETPART_MAXK,
     lambda: _maxk_case("c4", "0^2,1^1,2^2,3^1", [1, 1, 1], [2], 1, "0^1,2^1", [[0, 2]]),
     "certificate does not validate"),
    (StatementId.THM_SETPART_MAXK,
     lambda: _maxk_case("c4", "0^2,1^1,2^2,3^1", [1, 1, 1], [2], 0, "0^1,2^1", [[0, 2]]),
     "a strictly larger subgroup also admits a certificate"),
]


@pytest.mark.parametrize("sid,build,reason", _HYPOTHESIS_REASONS,
                         ids=[f"{sid.value}:{reason}" for sid, _, reason in _HYPOTHESIS_REASONS])
def test_every_hypothesis_reason_is_reached(sid, build, reason):
    v = check_instance(sid, build())
    assert v.status is Status.HYPOTHESIS_NOT_MET
    assert v.witness == {"reason": reason}


def test_sweepable_statements_cover_all_but_the_certificate_checker():
    ids = sweepable_statements()
    assert StatementId.THM_SETPART_MAXK not in ids
    assert len(ids) == len(StatementId) - 1


def test_subgroup_cap_reaches_the_stabilizer_and_the_planners():
    g = parse_group("c2xc2")  # 5 subgroups
    small = SearchCaps(subgroups=2)
    report = sweep(StatementId.AP_STRUCT, SweepDomain(groups=(g,)), caps=small)
    assert report.counts[Status.UNDECIDED_CAPPED.value] > 0
    assert report.domain["subgroup_cap"] == 2
    planner = STATEMENTS[StatementId.AP_STRUCT].planner
    _, factory = next(iter(planner(SweepDomain(groups=(g,)), small)))
    _, inst, _ = next(iter(factory()))
    assert check_instance(StatementId.AP_STRUCT, inst, small).witness == {
        "reason": "more than 2 subgroups"}
    assert check_instance(StatementId.AP_STRUCT, inst).status is not Status.UNDECIDED_CAPPED
    for sid in (StatementId.LEM_DSTAR_SUBADD, StatementId.PROP_DUAL, StatementId.PROP_ALIGN):
        with pytest.raises(CapExceeded, match="^more than 2 subgroups$"):
            list(STATEMENTS[sid].planner(SweepDomain(groups=(g,)), small))
        assert sweep(sid, SweepDomain(groups=(g,)), caps=SearchCaps(subgroups=5)).examined == 5


# sha256 of repr([the weight tuples planned on G at |W| = k for G in
# _WEIGHT_GROUPS for k in 0..6]) per _SeqPlanner statement
_WEIGHT_GROUPS = ("c2", "c4", "c5", "c6", "c2xc2", "c8", "c2xc4", "c3xc3", "c12")
_WEIGHT_LIST_DIGESTS = {
    "CONJ_HAMIDOUNE": "94157dc5303cabd9a143e5605ebcebbbe1bc6d41de4e3db19ea20e7215fdbe19",
    "CONJ_ORDAZ_QUIROZ": "3a33cce15d29878e7e7631a39b036fd8c068261f5c75e3a535abaa6d5fda7032",
    "COR_HAM_VAR": "1d61a044bcd1af0778d51a805359e7d828cc48a7d638a4a933c5659f8e619b95",
    "COR_SPECIALCASE": "bfd27591258530aeececdbfdec2612b2c8291a2918c014b7ef806ff4ae4c1ae3",
    "COR_SPUD": "17a9f1d48b20786eeb8fbbdeb3c234dd5eea028e15fbee2f92d817596ef48558",
    "THM_HAM_CHAR": "1ac176f85d8f2b4a5e69b8db274c0697a6d1b92888b37bb6cbd6280d94ac1592",
    "THM_SETPART_WITNESS": "17a9f1d48b20786eeb8fbbdeb3c234dd5eea028e15fbee2f92d817596ef48558",
    # "weights are empty" reads no sequence, so k = 0 plans no tuple
    "THM_WEGZ": "44a7ea62a01e4f176d6aaeb8a5580768f9a51fc0a7c477532ad567a796d72ec2",
}


def test_sequence_planner_weight_lists_are_pinned():
    rows = {sid.value: st.planner for sid, st in STATEMENTS.items()
            if isinstance(st.planner, _SeqPlanner)}
    assert set(rows) == set(_WEIGHT_LIST_DIGESTS)
    groups = [parse_group(text) for text in _WEIGHT_GROUPS]
    for name, planner in rows.items():
        lists = [planner.weight_tuples(g, k, DEFAULT_CAPS) for g in groups for k in range(7)]
        digest = hashlib.sha256(repr(lists).encode()).hexdigest()
        assert digest == _WEIGHT_LIST_DIGESTS[name], name


def test_length_clauses_decide_before_any_weight_tuple_is_built(monkeypatch):
    built = []

    def counting(group, weights):
        built.append(weights)
        return real_weight_seq(group, weights)

    monkeypatch.setattr("zerosum.verify.weight_seq", counting)
    planner = STATEMENTS[StatementId.CONJ_ORDAZ_QUIROZ].planner
    # "needs |W| = |G|" reads only |W|: C(22, 11) = 705,432 tuples were built here
    assert planner.weight_tuples(parse_group("c12"), 11) == []
    assert built == []
    # at |W| = |G| each tuple of the units 1 and 3 is built once, for the
    # clauses that read its values
    kept = planner.weight_tuples(parse_group("c4"), 4)
    assert kept and len(built) == comb(2 + 4 - 1, 4)


def _filtered_weight_tuples(planner: _SeqPlanner, group: Group, k: int) -> list:
    """weight_tuples as a filter of every k-tuple of the row's alphabet."""
    n = k if planner.with_n else None
    probe = Instance(group, weights=real_weight_seq(group, (0,) * k), n=n)
    if verify._unmet(planner.reading("length"), probe, DEFAULT_CAPS) is not None:
        return []
    return [wt for wt in combinations_with_replacement(range(getattr(group, planner.alphabet)), k)
            if verify._unmet(planner.reading("weights"),
                             Instance(group, weights=real_weight_seq(group, wt), n=n),
                             DEFAULT_CAPS) is None]


# the rows whose first weight clause asks for units
_UNIT_ROWS = (StatementId.CONJ_ORDAZ_QUIROZ, StatementId.COR_SPECIALCASE, StatementId.COR_SPUD,
              StatementId.THM_SETPART_WITNESS)


def test_unit_rows_enumerate_unit_tuples_only():
    rows = {sid: st.planner for sid, st in STATEMENTS.items() if isinstance(st.planner, _SeqPlanner)}
    groups = abelian_group_types(12)
    assert len(groups) == 16  # every abelian group of order 2..12
    for sid, planner in rows.items():
        for g in groups:
            # the units rows also at |W| = |G|, where ORDAZ_QUIROZ and
            # SPECIALCASE plan; C(2|G| - 1, |G|) tuples above order 9 are too
            # many to filter here
            ks = set(range(7)) | ({g.order} if sid in _UNIT_ROWS and g.order <= 9 else set())
            for k in sorted(ks):
                assert planner.weight_tuples(g, k) == _filtered_weight_tuples(planner, g, k), \
                    (sid, g, k)
    # C(19, 10) = 92,378 tuples of residues mod 10 against C(13, 10) = 286 of units
    planner, c10 = rows[StatementId.CONJ_ORDAZ_QUIROZ], parse_group("c10")
    assert planner.weight_tuples(c10, 10) == _filtered_weight_tuples(planner, c10, 10)
    assert len(planner.weight_tuples(c10, 10)) == 58


def _enumerated(shards) -> int:
    """The planned instance count, each shard's count checked against the
    pairs its factory stands for."""
    total = 0
    for count, factory in shards:
        assert count == sum(1 for _ in planned_pairs(factory))
        total += count
    return total


def test_sequence_plan_estimates_are_exact():
    rows = [sid for sid, st in STATEMENTS.items() if isinstance(st.planner, _SeqPlanner)]
    assert len(rows) == 8
    # every sweepable statement, not only the _SeqPlanner rows
    for sid in sweepable_statements():
        for text in ("c4", "c2xc2", "c5"):
            for reduce_translation in (True, False):
                dom = SweepDomain(groups=(parse_group(text),), wlens=(2, 3, 4), samples=3,
                                  slen_extra=int(not reduce_translation),
                                  reduce_translation=reduce_translation)
                _enumerated(STATEMENTS[sid].planner(dom, DEFAULT_CAPS))
    # the former pool estimate gave 35,802 here, so max_instances=30000 refused it
    dom = SweepDomain(groups=(parse_group("c8"),), wlens=(4,), max_instances=30_000)
    assert _enumerated(STATEMENTS[StatementId.THM_HAM_CHAR].planner(dom, DEFAULT_CAPS)) == 20_610
    # the former LEM_DAVID bound gave 340,956 here, so max_instances=100000 refused it
    dom = SweepDomain(groups=(parse_group("c6"),), wlens=(2, 3, 4), max_instances=100_000)
    assert _enumerated(STATEMENTS[StatementId.LEM_DAVID].planner(dom, DEFAULT_CAPS)) == 19_453


def test_weighted_egz_plans_no_empty_weight_tuple():
    # "weights are empty" reads no sequence, so the planner drops the empty tuple
    for text in ("c4", "c2xc2", "c5"):
        dom = SweepDomain(groups=(parse_group(text),), wlens=(0,))
        assert sweep(StatementId.THM_WEGZ, dom).examined == 0, text


@pytest.mark.parametrize("field,value", [
    ("wlens", (2, -1)), ("slen_extra", -1), ("samples", -3), ("set_size_max", -1),
    ("max_instances", -1),
])
def test_sweep_domain_rejects_negative_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        SweepDomain(groups=(parse_group("c5"),), **{field: value})
    zero = (0,) if field == "wlens" else 0
    assert getattr(SweepDomain(groups=(), **{field: zero}), field) == zero


def test_domain_too_large_guard():
    with pytest.raises(DomainTooLarge):
        sweep(StatementId.CONJ_HAMIDOUNE,
              SweepDomain(groups=(parse_group("c7"),), wlens=(3,), max_instances=100))


def test_sweep_thread_counts_agree():
    dom = SweepDomain(groups=(parse_group("c5"),), wlens=(2, 3))
    r1 = sweep(StatementId.CONJ_HAMIDOUNE, dom, threads=1)
    r4 = sweep(StatementId.CONJ_HAMIDOUNE, dom, threads=4)
    assert report_to_json(r1) == report_to_json(r4)
    assert r1.counts == r4.counts


def test_sequence_planning_builds_no_pool(monkeypatch):
    def no_pools(*args):
        raise AssertionError("a pool was built at planning time")

    monkeypatch.setattr(verify, "_sub_multisets", no_pools)
    monkeypatch.setattr(verify, "_seq_walk", no_pools)
    dom = SweepDomain(groups=(parse_group("c9"),), wlens=(5, 6, 7, 8, 9))
    tracemalloc.start()
    try:
        shards = list(STATEMENTS[StatementId.THM_HAM_CHAR].planner(dom, DEFAULT_CAPS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(count for count, _ in shards) == 122_409_160
    # holding every built pool from planning on peaked at 34.4 MiB here
    assert peak < 2 * 2**20
    # a refused domain is refused before any factory runs
    dom = SweepDomain(groups=(parse_group("c10"),), wlens=(10,), max_instances=1000)
    with pytest.raises(DomainTooLarge,
                       match=r"^estimated 67970760 instances exceed the cap 1000$"):
        sweep(StatementId.THM_HAM_CHAR, dom)


def test_sweep_memory_grows_with_failures_not_instances():
    dom = SweepDomain(groups=(parse_group("c7"),), wlens=(4,))
    tracemalloc.start()
    try:
        report = sweep(StatementId.THM_HAM_CHAR, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.examined == 17_810
    assert not report.failures
    # keeping every (instance, verdict) pair until one final merge peaked at
    # 11.5 MiB on this sweep; tallying each shard as it finishes, at 0.5 MiB
    assert peak < 3 * 2**20


def test_setpartition_sweep_leaves_no_recursive_closure_in_a_cycle():
    # enum_setpartitions and _distinct_perms each kept a rec closure that
    # reached itself through its cell, which only the cyclic collector
    # freed: this sweep left 2,090 objects in cycles, 110 of them such closures
    dom = SweepDomain(groups=(parse_group("c4"), parse_group("c2xc2")), wlens=(2, 3))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = sweep(StatementId.THM_SETPART_WITNESS, dom)
        gc.collect()
        left = [obj for obj in gc.garbage
                if getattr(obj, "__qualname__", "").endswith("<locals>.rec")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert report.examined == 110
    assert not left


def test_per_group_planners_stream_their_instances():
    dom = SweepDomain(groups=(parse_group("c8"),))
    tracemalloc.start()
    try:
        report = sweep(StatementId.PROP_PIGEONHOLE, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.examined == 13_213
    assert not report.failures
    # building the group's whole instance list before the first check peaked
    # at 7.7 MiB on this sweep; yielding one instance at a time, near 0
    assert peak < 2**20


def test_planners_take_the_sweeps_davenport_cap():
    c36 = parse_group("c36")
    sampled = SweepDomain(groups=(c36,), samples=2)
    # D(c36) = 36 needs a Davenport cap of at least 36; the default is 64
    report = sweep(StatementId.THM_GAO_COSET, sampled)
    assert report.counts[Status.HOLDS.value] == 2
    for _, factory in STATEMENTS[StatementId.THM_GAO_COSET].planner(sampled, DEFAULT_CAPS):
        for _, inst, _ in factory():
            assert check_instance(StatementId.THM_GAO_COSET, inst).status is Status.HOLDS
    weighted_dom = SweepDomain(groups=(c36,), wlens=(1,))
    for sid in (StatementId.CONJ_ORDAZ_QUIROZ, StatementId.COR_SPECIALCASE):
        assert sweep(sid, weighted_dom).examined == 0  # |W| = |G| only; planning needs D(G)
    assert sum(count for count, _ in STATEMENTS[StatementId.LEM_DAVID].planner(
        weighted_dom, DEFAULT_CAPS)) > 0
    small = SearchCaps(davenport=16)
    for sid, dom in ((StatementId.THM_GAO_COSET, sampled),
                     (StatementId.CONJ_ORDAZ_QUIROZ, weighted_dom),
                     (StatementId.COR_SPECIALCASE, weighted_dom),
                     (StatementId.LEM_DAVID, weighted_dom)):
        with pytest.raises(GroupTooLarge, match="order 36 above Davenport cap 16"):
            sweep(sid, dom, caps=small)


def test_davenport_cap_is_read_before_the_first_clause():
    g = parse_group("c2xc2xc2")
    inst = Instance(g, seq=GSequence(g, (3,) + (0,) * 7), weights=weight_seq(g, [1]))
    for sid in (StatementId.CONJ_ORDAZ_QUIROZ, StatementId.COR_SPECIALCASE,
                StatementId.LEM_DAVID):
        v = check_instance(sid, inst, SearchCaps(davenport=4))
        assert v.status is Status.UNDECIDED_CAPPED, sid
        assert v.witness == {"reason": "Davenport constant above cap"}, sid
        assert check_instance(sid, inst).status is Status.HYPOTHESIS_NOT_MET, sid


def test_report_json_schema_and_determinism():
    dom = SweepDomain(groups=(parse_group("c4"),), wlens=(2,))
    report = sweep(StatementId.THM_WEGZ, dom)
    text = report_to_json(report)
    doc = json.loads(text)
    assert set(doc) == {"statement", "domain", "counts", "failures", "registry_anchor"}
    assert set(doc["counts"]) == {"holds", "fails", "hyp_not_met", "undecided"}
    assert doc["statement"] == "THM_WEGZ"
    assert "elapsed" not in text
    assert report_to_json(sweep(StatementId.THM_WEGZ, dom)) == text


def test_flagged_key_only_for_the_characterization():
    dom = SweepDomain(groups=(parse_group("c4"),), wlens=(3,))
    doc = json.loads(report_to_json(sweep(StatementId.THM_HAM_CHAR, dom)))
    assert "flagged" in doc


def test_report_csv_shape():
    dom = SweepDomain(groups=(parse_group("c7"),), wlens=(3,))
    report = sweep(StatementId.CONJ_HAMIDOUNE, dom)
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == "kind,statement,group,weights,seq,n,status,detail"
    assert len(lines) == 1 + 9  # one row per counterexample
    assert all(line.startswith("failure,CONJ_HAMIDOUNE,c7") for line in lines[1:])


def test_verdict_and_instance_serialization():
    inst = example1_instance(7)
    v = check_instance(StatementId.EX1, inst)
    vd = verdict_to_dict(v)
    assert set(vd) == {"status", "witness"}
    assert "elapsed_ms" not in json.dumps(to_jsonable(vd))
    d = instance_to_dict(inst)
    assert d["group"] == "c7"
    assert d["seq"] == "0^3,1^3,2^3"
    blob = json.dumps(to_jsonable(d), sort_keys=True)
    assert "Instance" not in blob  # everything reduced to plain JSON types


@given(st.sampled_from(["c4", "c5", "c6", "c2xc2"]), st.data())
@settings(max_examples=40, deadline=None)
def test_check_instance_status_is_deterministic(text, data):
    g = parse_group(text)
    wlen = data.draw(st.integers(1, 3))
    w = weight_seq(g, [data.draw(st.integers(0, g.exponent - 1)) for _ in range(wlen)])
    mult = tuple(data.draw(st.integers(0, 2)) for _ in range(g.order))
    if sum(mult) < wlen:
        return
    s = GSequence(g, mult)
    inst = Instance(g, seq=s, weights=w, extra={})
    a = check_instance(StatementId.THM_WEGZ, inst)
    b = check_instance(StatementId.THM_WEGZ, inst)
    assert a.status == b.status and to_jsonable(a.witness) == to_jsonable(b.witness)


# ---------------------------------------------------------------------------
# sequence-major sweeps and the quick path's memos


_SUBGROUP_ROWS = (StatementId.THM_HAM_CHAR, StatementId.CONJ_HAMIDOUNE, StatementId.COR_HAM_VAR)
_ALL_DOMAINS = tuple(product((True, False), (0, 1)))  # (reduce_translation, slen_extra)
_WALK_CASES = [
    (StatementId.THM_HAM_CHAR, "c4", (2, 3, 4), _ALL_DOMAINS),  # flagged twin shapes
    (StatementId.THM_HAM_CHAR, "c2xc2", (2, 3, 4), _ALL_DOMAINS),
    (StatementId.THM_HAM_CHAR, "c5", (3,), _ALL_DOMAINS),
    (StatementId.THM_HAM_CHAR, "c6", (3,), _ALL_DOMAINS),
    (StatementId.CONJ_HAMIDOUNE, "c4", (2, 3), _ALL_DOMAINS),
    (StatementId.CONJ_HAMIDOUNE, "c2xc2", (2, 3), _ALL_DOMAINS),
    (StatementId.CONJ_HAMIDOUNE, "c5", (2, 3), _ALL_DOMAINS),
    (StatementId.CONJ_HAMIDOUNE, "c6", (2, 3), _ALL_DOMAINS),
    # weights 0..7 named mod |G| = 8 act mod exp(G) = 4
    (StatementId.CONJ_HAMIDOUNE, "c2xc4", (2,), _ALL_DOMAINS),
    # 63 failures across three weight tuples
    (StatementId.CONJ_HAMIDOUNE, "c7", (3,), ((True, 0), (False, 0))),
    (StatementId.COR_HAM_VAR, "c4", (4,), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c2xc2", (2, 3, 4), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c5", (4,), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c2xc4", (4,), ((True, 0),)),
    # rows whose conclusion takes no partition walk the same way
    (StatementId.THM_WEGZ, "c5", (2, 3), _ALL_DOMAINS),
    (StatementId.COR_SPUD, "c2xc2", (2, 3), ((True, 0), (False, 1))),
    (StatementId.LEM_DAVID, "c4", (2, 3), ((True, 0), (True, 1))),
    # weight tuples that alternate between reduced and unreduced pools within
    # one (G, |W|): c4 at |W| = 4 plans five runs
    (StatementId.COR_SPECIALCASE, "c3", (3, 4), _ALL_DOMAINS),
    (StatementId.COR_SPECIALCASE, "c4", (3, 4), _ALL_DOMAINS),
    # the unit-orbit rows on the rest of the groups of order <= 8, each at its
    # least admissible |W| and, where the unreduced domain is large, with
    # translation reduction alone.  Left out: COR_HAM_VAR on c7 and c8
    # (144,540 and 842,886 pairs at their least |W|), and the cover rows on
    # c7, c8, c2xc4 and c2xc2xc2 (at least 171,054 pairs at |W| = |G|).
    (StatementId.THM_HAM_CHAR, "c2", (2, 3), _ALL_DOMAINS),
    (StatementId.THM_HAM_CHAR, "c3", (2, 3), _ALL_DOMAINS),
    (StatementId.THM_HAM_CHAR, "c7", (4,), ((True, 0),)),
    (StatementId.THM_HAM_CHAR, "c8", (4,), ((True, 0),)),
    (StatementId.THM_HAM_CHAR, "c2xc4", (4,), ((True, 0),)),
    (StatementId.THM_HAM_CHAR, "c2xc2xc2", (4,), ((True, 0),)),
    (StatementId.CONJ_HAMIDOUNE, "c2", (2, 3), _ALL_DOMAINS),
    (StatementId.CONJ_HAMIDOUNE, "c3", (2, 3), _ALL_DOMAINS),
    # 40 failures: weights {0, 1, 7} or {0, 3, 5}, one unit orbit
    (StatementId.CONJ_HAMIDOUNE, "c8", (3,), ((True, 0),)),
    (StatementId.CONJ_HAMIDOUNE, "c2xc2xc2", (2,), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c2", (2, 3, 4), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c3", (2, 3), _ALL_DOMAINS),
    (StatementId.COR_HAM_VAR, "c6", (6,), ((True, 0),)),
    (StatementId.COR_HAM_VAR, "c2xc2xc2", (4,), ((True, 0),)),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c2", (2,), _ALL_DOMAINS),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c3", (3,), _ALL_DOMAINS),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c4", (4,), _ALL_DOMAINS),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c2xc2", (4,), _ALL_DOMAINS),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c5", (5,), ((True, 0), (False, 0))),
    (StatementId.CONJ_ORDAZ_QUIROZ, "c6", (6,), ((True, 0), (False, 0))),
    (StatementId.COR_SPECIALCASE, "c2", (2,), _ALL_DOMAINS),
    (StatementId.COR_SPECIALCASE, "c2xc2", (4,), _ALL_DOMAINS),
    (StatementId.COR_SPECIALCASE, "c5", (5,), ((True, 0),)),
    # seven weight tuples in four unit orbits, in one shard whose two legs
    # interleave in tuple order: {1^6, 5^6} and {1^3 5^3} (total 0 mod 6)
    # on reduced pools, {1^5 5, 1 5^5} and {1^4 5^2, 1^2 5^4} on unreduced ones
    (StatementId.COR_SPECIALCASE, "c6", (6,), ((True, 0), (False, 0))),
]


def _unreduced(planner):
    """The planner with its orbit reduction off, where it has any."""
    return dataclasses.replace(planner, orbits=False) if isinstance(
        planner, _SeqPlanner) else planner


def _shard_order(sid, dom):
    """The counts, failures and flagged pairs of a sweep that checks every
    planned instance with check_instance in enumeration order (each shard's
    pairs sorted by key), orbits unreduced and each instance with its own
    sequence object: the reference a sequence-major sweep must equal."""
    statement = STATEMENTS[sid]
    counts = {status.value: 0 for status in Status}
    failures, flagged = [], []
    for _, factory in _unreduced(statement.planner)(dom, DEFAULT_CAPS):
        for _, inst, _ in sorted(factory(), key=itemgetter(0)):
            inst = dataclasses.replace(inst, seq=GSequence(inst.group, inst.seq.mult))
            verdict = check_instance(sid, inst)
            counts[verdict.status.value] += 1
            if verdict.status is Status.FAILS:
                failures.append((inst, verdict))
            if statement.flag is not None and statement.flag(inst, verdict):
                flagged.append((inst, verdict))
    return counts, failures, flagged


@pytest.mark.parametrize("sid,text,wlens,domains", _WALK_CASES,
                         ids=[f"{sid.value}:{text}:{w}" for sid, text, w, _ in _WALK_CASES])
def test_sequence_major_sweeps_equal_shard_order_checks(sid, text, wlens, domains, monkeypatch):
    for reduce_translation, slen_extra in domains:
        dom = SweepDomain(groups=(parse_group(text),), wlens=wlens, slen_extra=slen_extra,
                          reduce_translation=reduce_translation)
        report = sweep(sid, dom)
        counts, failures, flagged = _shard_order(sid, dom)
        reference = dataclasses.replace(report, counts=counts, failures=failures,
                                        flagged=flagged, examined=sum(counts.values()))
        assert report.examined > 0
        assert report_to_json(report) == report_to_json(reference), (reduce_translation,
                                                                     slen_extra)
        if (sid, text) == (StatementId.CONJ_HAMIDOUNE, "c7") and not reduce_translation:
            assert len(report.failures) == 63
        if (sid, text) == (StatementId.CONJ_HAMIDOUNE, "c8"):
            assert len(report.failures) == 40
        if (sid, text) == (StatementId.THM_HAM_CHAR, "c4"):
            assert report.flagged
        if (sid, text) == (StatementId.COR_SPECIALCASE, "c6") and reduce_translation:
            planner = STATEMENTS[sid].planner
            assert len(planner.weight_tuples(dom.groups[0], 6)) == 7
            assert len(list(planner(dom, DEFAULT_CAPS))) == 1
            # one pool walk per leg
            walks, real_pool = [], verify._affine_pool
            monkeypatch.setattr(verify, "_affine_pool",
                                lambda *args: walks.append(args) or real_pool(*args))
            again, checked = _counted_checks(monkeypatch, sid, dom)
            assert report_to_json(again) == report_to_json(report)
            assert (len(checked), len(walks)) == (4_340, 2)


_WEGZ = StatementId.THM_WEGZ
_ORBIT_ROWS = (_WEGZ, StatementId.THM_HAM_CHAR, StatementId.CONJ_HAMIDOUNE,
               StatementId.COR_HAM_VAR, StatementId.CONJ_ORDAZ_QUIROZ,
               StatementId.COR_SPECIALCASE, StatementId.COR_SPUD)


def _least_k(sid, g):
    """The least |W| >= 1 at which sid's planner keeps a weight tuple on G."""
    planner = STATEMENTS[sid].planner
    return next(k for k in count(1) if planner.weight_tuples(g, k))


def _cut_pools(monkeypatch, factors, reps):
    """Cut every pool to the affine orbits of S whose least vectors
    reps(size, hcap, reduced) lists: _affine_pool yields those with their
    counts of other vectors, and _seq_pool and _pool_count read the vectors
    of those orbits as the oracle finds them (least translates when
    reduced), as the reference sweep with orbits off takes them."""
    @cache
    def orbits(size, hcap, reduced):
        return {rep: sorted({least_translate(factors, x) if reduced else x
                             for x in affine_orbit(factors, rep, reduced)})
                for rep in sorted(reps(size, hcap, reduced))}

    monkeypatch.setattr(verify, "_affine_pool", lambda group, *spec: iter(
        [(rep, len(vectors) - 1) for rep, vectors in orbits(*spec).items()]))
    monkeypatch.setattr(verify, "_seq_pool", lambda group, *spec: iter(
        sorted(chain.from_iterable(orbits(*spec).values()))))
    monkeypatch.setattr(verify, "_pool_count", lambda group, *spec: sum(
        map(len, orbits(*spec).values())))


@pytest.mark.parametrize("cap,undecided", [(6, 17), (10, 17), (15, 8)])
def test_unit_orbits_expand_where_exact_sigma_may_cap(cap, undecided, monkeypatch):
    # the quick path is not orbit-invariant, so a member may reach sigma_n and
    # run out of states where its representative held on the quick path;
    # without the cap clause the reduced sweep gave 7 undecided at cap 6
    monkeypatch.setattr(weighted, "STATE_CAP", cap)
    sid, dom = StatementId.THM_HAM_CHAR, SweepDomain(groups=(parse_group("c7"),), wlens=(4,))
    report = sweep(sid, dom)
    counts, failures, flagged = _shard_order(sid, dom)
    assert counts == report.counts
    assert report.counts[Status.UNDECIDED_CAPPED.value] == undecided
    assert not failures and not flagged


def test_flagged_representatives_expand_their_orbits(monkeypatch):
    # on c8 at |W| = 7 the twin weights {0, 1^3, 7^3} and {0, 3^3, 5^3} are
    # one unit orbit, flagged together against 0^7 1^7 and the other class
    # of its affine orbit; the full domain is 842,886 pairs, so the pools are
    # cut to the affine orbits of three sequences of length 14
    g = parse_group("c8")
    seeds = ((7, 7, 0, 0, 0, 0, 0, 0), (7, 0, 7, 0, 0, 0, 0, 0), (4, 3, 3, 2, 1, 1, 0, 0))
    _cut_pools(monkeypatch, g.invariant_factors, lambda size, hcap, reduced: {
        least_affine_image(g.invariant_factors, seed, reduced) for seed in seeds})
    sid, dom = StatementId.THM_HAM_CHAR, SweepDomain(groups=(g,), wlens=(7,))
    report = sweep(sid, dom)
    counts, failures, flagged = _shard_order(sid, dom)
    reference = dataclasses.replace(report, counts=counts, failures=failures,
                                    flagged=flagged, examined=sum(counts.values()))
    assert report_to_json(report) == report_to_json(reference)
    # each twin weight tuple against both translation classes of 0^7 u^7,
    # u a unit: 0^7 1^7 and 0^7 3^7
    assert Counter(str(inst.weights) for inst, _ in report.flagged) == {
        "0^1,1^3,7^3": 2, "0^1,3^3,5^3": 2}
    assert len({inst.seq.mult for inst, _ in report.flagged}) == 2


def test_planner_unit_orbits_match_the_oracle():
    # the weight side of the planner's orbits, over every weight tuple of a
    # (G, |W|); with orbits off, each tuple is its own orbit.  A unit orbit
    # never mixes weight totals 0 and nonzero mod exp(G), so it lies in one
    # leg of its shard
    for g in abelian_group_types(12):
        for sid in _ORBIT_ROWS:
            planner = STATEMENTS[sid].planner
            modulus = getattr(g, planner.alphabet)
            for k in range(7):
                wtuples = planner.weight_tuples(g, k)
                orbits = planner.weight_orbits(g, wtuples)
                assert orbits == unit_orbits(wtuples, modulus), (sid, g, k)
                for orbit in orbits:
                    assert len({sum(wtuples[i]) % g.exponent == 0 for i in orbit}) == 1
                assert _unreduced(planner).weight_orbits(g, wtuples) == [
                    [i] for i in range(len(wtuples))]
    # the product: each planned pair is the first tuple of its unit orbit
    # against the least vector of its affine orbit, and stands for that
    # unit orbit crossed with that affine orbit (least translates when its
    # leg is reduced), so that the one shard of a (G, |W|) covers each of
    # its weight tuples against _seq_pool's pool, reduced where that tuple's
    # weight total is 0 mod exp(G), once
    for g in abelian_group_types(6):
        factors = g.invariant_factors
        for sid in _ORBIT_ROWS:
            planner = STATEMENTS[sid].planner
            k = _least_k(sid, g)
            size = planner.slen(g, k, DEFAULT_CAPS)
            wtuples = planner.weight_tuples(g, k)
            worbits = [[wtuples[i] for i in orbit]
                       for orbit in unit_orbits(wtuples, getattr(g, planner.alphabet))]
            for reduce_translation in (True, False):
                dom = SweepDomain(groups=(g,), wlens=(k,), reduce_translation=reduce_translation)
                (_, factory), = planner(dom, DEFAULT_CAPS)
                items = list(factory())
                expanded = [[(inst.weights.raw, inst.seq.mult)] + [
                    (member.weights.raw, member.seq.mult)
                    for _, member in verify._orbit_members(key, inst, orbit)]
                    for key, inst, orbit in items]
                for (_, inst, orbit), pairs in zip(items, expanded):
                    reduced = orbit.reduced
                    assert reduced == (reduce_translation
                                       and sum(inst.weights.raw) % g.exponent == 0)
                    worbit = next(o for o in worbits if inst.weights.raw in o)
                    assert inst.weights.raw == worbit[0]
                    assert least_affine_image(factors, inst.seq.mult, reduced) == inst.seq.mult
                    assert len(pairs) == orbit.size + 1
                    assert set(pairs) == {
                        (w, x) for w in worbit
                        for x in affine_orbit(factors, inst.seq.mult, reduced)
                        if not reduced or least_translate(factors, x) == x}, (sid, g, pairs[0])
                pools = {reduced: list(_seq_pool(g, size, k if planner.cap_h else size, reduced))
                         for reduced in (True, False)}
                assert sorted(chain.from_iterable(expanded)) == sorted(
                    (w, x) for w in wtuples
                    for x in pools[reduce_translation and sum(w) % g.exponent == 0]), (sid, g)


def _orbit_case(sid, text, reduce_translation):
    """The least-|W| domain of sid on the group, and whether the sweep is too
    large to check in full with orbits off (then the pools are cut)."""
    g = parse_group(text)
    dom = SweepDomain(groups=(g,), wlens=(_least_k(sid, g),),
                      reduce_translation=reduce_translation, max_instances=10**9)
    return dom, sum(n for n, _ in STATEMENTS[sid].planner(dom, DEFAULT_CAPS)) > 32_000


_BOTH_SLENS = ((True, 0), (True, 1), (False, 0), (False, 1))
# (row, group, wlens, (reduce_translation, slen_extra) pairs): every orbit
# row on every group of order <= 8 at its least |W|, reduced and unreduced
# (wlens None); CONJ_HAMIDOUNE at |W| = 3 on c7 unreduced (63 failures) and
# on c8 (40 failures reduced, 320 unreduced); and THM_WEGZ beyond its least
# |W|, on c9 and c3xc3 too
_ORBIT_CASES = [
    *(pytest.param(sid, format_group(g), None, ((True, 0), (False, 0)),
                   id=f"{sid.value}:{format_group(g)}:least")
      for sid in _ORBIT_ROWS for g in abelian_group_types(8)),
    pytest.param(StatementId.CONJ_HAMIDOUNE, "c7", (3,), ((False, 0),),
                 id="CONJ_HAMIDOUNE:c7:(3,):1"),
    pytest.param(StatementId.CONJ_HAMIDOUNE, "c8", (3,), ((True, 0), (False, 0)),
                 id="CONJ_HAMIDOUNE:c8:(3,):2"),
    *(pytest.param(_WEGZ, text, wlens, domains, id=f"{text}:{wlens}:{len(domains)}")
      for text, wlens, domains in [
          *((text, (2, 3), _BOTH_SLENS) for text in ("c2", "c3", "c2xc2", "c4", "c5")),
          ("c6", (2, 3), ((True, 0), (True, 1), (False, 0))),
          ("c7", (2, 3), ((True, 0),)),
          ("c7", (2,), ((True, 1), (False, 0))),
          *((text, (2, 3), ((True, 0),)) for text in ("c2xc2xc2", "c2xc4", "c8")),
          *((text, (2,), ((True, 1),)) for text in ("c2xc2xc2", "c2xc4", "c8")),
          ("c9", (2,), ((True, 0),)),
          ("c3xc3", (2,), ((True, 0),)),
      ]),
]


def _without_orbits(statement):
    """The registry row with its planner's orbit reduction off."""
    return dataclasses.replace(statement, planner=_unreduced(statement.planner))


def _orbit_pair(sid, dom, monkeypatch):
    """The report of sid's sweep over dom, and of the same sweep with the
    row's orbits off: the reference it must equal byte for byte."""
    report = sweep(sid, dom)
    with monkeypatch.context() as patch:
        patch.setitem(STATEMENTS, sid, _without_orbits(STATEMENTS[sid]))
        return report, sweep(sid, dom)


@pytest.mark.parametrize("sid,text,wlens,domains", _ORBIT_CASES)
def test_affine_orbit_sweeps_equal_unreduced_ones(sid, text, wlens, domains, monkeypatch):
    # one pair per orbit of (W, S) -> (uW, v*S + t) on exactly these rows
    assert {sid for sid, st in STATEMENTS.items()
            if isinstance(st.planner, _SeqPlanner) and st.planner.orbits} == set(_ORBIT_ROWS)
    g = parse_group(text)
    for reduce_translation, slen_extra in domains:
        dom, cut = _orbit_case(sid, text, reduce_translation)
        if wlens is not None:
            dom, cut = dataclasses.replace(dom, wlens=wlens, slen_extra=slen_extra), False
        with monkeypatch.context() as patch:
            if cut:  # at most eleven orbits of S per pool, spread over the pool
                real, units = verify._affine_pool, len(_units(g.exponent))

                def reps(size, hcap, reduced):
                    step = max(1, _pool_count(g, size, hcap, reduced) // (10 * units))
                    return [mult for mult, _ in islice(real(g, size, hcap, reduced),
                                                       0, 11 * step, step)]

                _cut_pools(patch, g.invariant_factors, reps)
            report, reference = _orbit_pair(sid, dom, patch)
        assert report.examined == reference.examined > 0
        assert report_to_json(report) == report_to_json(reference), (reduce_translation,
                                                                     slen_extra, cut)
        if (sid, text) == (StatementId.CONJ_HAMIDOUNE, "c7") and wlens and not reduce_translation:
            assert len(report.failures) == 63
        if (sid, text) == (StatementId.CONJ_HAMIDOUNE, "c8") and wlens:
            assert len(report.failures) == (40 if reduce_translation else 320)


def _counted_checks(monkeypatch, sid, dom):
    """The sweep's report and the number of instances it checks."""
    checked = []

    def counting_check(*args):
        checked.append(args[1])
        return check_instance(*args)

    monkeypatch.setattr(verify, "check_instance", counting_check)
    return sweep(sid, dom), checked


def test_weighted_egz_checks_one_sequence_per_affine_orbit(monkeypatch):
    # exact_sums' THM_WEGZ sweep: 438 + 2,494 + 806 pooled sequences
    # against the first weight tuple of each unit orbit of c8, c3xc3 and
    # c2xc4 at |W| = 2 (9,596 checks with the sequence side alone)
    dom = SweepDomain(groups=tuple(map(parse_group, ("c8", "c3xc3", "c2xc4"))), wlens=(2,))
    report, checked = _counted_checks(monkeypatch, _WEGZ, dom)
    assert report.counts["holds"] == report.examined == 21_164
    assert len(checked) == 9_158
    assert {text: len({inst.seq.mult for inst in checked if format_group(inst.group) == text})
            for text in ("c8", "c3xc3", "c2xc4")} == {"c8": 438, "c3xc3": 2_494, "c2xc4": 806}


def test_ham_char_checks_one_pair_per_orbit(monkeypatch):
    # ham_char's sweep: THM_HAM_CHAR on c7 at |W| = 4
    dom = SweepDomain(groups=(parse_group("c7"),), wlens=(4,))
    report, checked = _counted_checks(monkeypatch, StatementId.THM_HAM_CHAR, dom)
    assert report.counts["holds"] == report.examined == 17_810
    assert len(checked) == 744


def _support_of_three(inst, caps):
    """A conclusion that fails exactly when |supp(S)| = 3, which every
    affine map keeps, with a witness (the support) that differs from member
    to member; otherwise THM_WEGZ's."""
    support = sum(1 << i for i, m in enumerate(inst.seq.mult) if m)
    if support.bit_count() == 3:
        return Verdict(Status.FAILS, {"support": GSet(inst.group, support)})
    return verify._zero_in_full_sum(inst, caps)


def _check_failing_orbits_expand(sid, text, k, reduce_translation, monkeypatch):
    """Every member of a failing orbit is checked under its own key, in
    enumeration order, on the weight and the sequence side at once."""
    row = verify._seq_statement(STATEMENTS[sid].planner, _support_of_three, "test row")
    with monkeypatch.context() as patch:
        patch.setitem(STATEMENTS, sid, row)
        g = parse_group(text)
        dom = SweepDomain(groups=(g,), wlens=(k,), reduce_translation=reduce_translation)
        report, reference = _orbit_pair(sid, dom, patch)
    assert report_to_json(report) == report_to_json(reference), (sid, text, reduce_translation)
    assert report.failures and report.counts["holds"]
    # failing members whose S is not its affine orbit's least vector and,
    # where the weights have unit orbits of more than one tuple, whose
    # weights are not their orbit's first tuple (c2xc4 at |W| = 2 has none)
    wtuples = STATEMENTS[sid].planner.weight_tuples(g, k)
    orbits = unit_orbits(wtuples, getattr(g, STATEMENTS[sid].planner.alphabet))
    firsts = {wtuples[orbit[0]] for orbit in orbits}
    assert any(least_affine_image(g.invariant_factors, inst.seq.mult, reduce_translation)
               != inst.seq.mult and (inst.weights.raw not in firsts or len(orbits) == len(wtuples))
               for inst, _ in report.failures)


def test_failing_affine_orbits_expand_into_their_members(monkeypatch):
    # THM_WEGZ: the weights run over {0, ..., n-1}^k
    for text, reduce_translation in (("c7", True), ("c7", False), ("c2xc4", True)):
        _check_failing_orbits_expand(_WEGZ, text, 2, reduce_translation, monkeypatch)


@pytest.mark.parametrize("reduce_translation", [True, False])
def test_failing_unit_and_affine_orbits_expand_into_their_members(reduce_translation,
                                                                  monkeypatch):
    # weight tuples in unit orbits of several tuples each; COR_SPUD sets
    # n = |W| on each planned instance, and each member must carry it
    for sid in (StatementId.COR_HAM_VAR, StatementId.COR_SPUD):
        _check_failing_orbits_expand(sid, "c5", 4, reduce_translation, monkeypatch)


def test_failures_of_both_legs_come_in_enumeration_order(monkeypatch):
    # COR_SPECIALCASE on c5 at |W| = 5: the 12 of 56 unit weight tuples with
    # total 0 mod 5 walk reduced pools, the others unreduced ones, in one
    # shard.  The conclusion fails exactly on the orbit of one sequence
    # under x -> u*x + t, whose least vector is pooled on both legs, with a
    # witness (the support) that differs from member to member.  So every
    # weight tuple fails, the failures, sorted by (tuple position, pool
    # position, vector), interleave the legs as the tuples do, and the
    # vector expanded last on the reduced leg, into least translates, is
    # expanded first on the unreduced one, into raw dilates
    g = parse_group("c5")
    failing = affine_orbit(g.invariant_factors, (5, 2, 2, 0, 0), True)

    def fails_on_one_orbit(inst, caps):
        if inst.seq.mult in failing:
            support = sum(1 << i for i, m in enumerate(inst.seq.mult) if m)
            return Verdict(Status.FAILS, {"support": GSet(g, support)})
        return Verdict(Status.HOLDS, {})

    sid = StatementId.COR_SPECIALCASE
    row = verify._seq_statement(STATEMENTS[sid].planner, fails_on_one_orbit, "test row")
    monkeypatch.setitem(STATEMENTS, sid, row)
    dom = SweepDomain(groups=(g,), wlens=(5,))
    assert len(list(STATEMENTS[sid].planner(dom, DEFAULT_CAPS))) == 1
    report = sweep(sid, dom)
    counts, failures, flagged = _shard_order(sid, dom)
    reference = dataclasses.replace(report, counts=counts, failures=failures,
                                    flagged=flagged, examined=sum(counts.values()))
    assert report_to_json(report) == report_to_json(reference)
    legs = [sum(inst.weights.raw) % 5 == 0 for inst, _ in report.failures]
    # 20 vectors in 4 translation classes
    assert len(failing) == 20
    assert (legs.count(True), legs.count(False)) == (12 * 4, 44 * 20)
    assert sum(a != b for a, b in zip(legs, legs[1:])) > 2


def test_capped_affine_representatives_expand_into_their_members(monkeypatch):
    # at STATE_CAP 3 the weights (1, 4) and (2, 3) need 4 states on their
    # side and S needs more on its, so those pairs are undecided_capped and
    # their orbits are expanded, while (0, 0) needs 3 and holds
    monkeypatch.setattr(weighted, "STATE_CAP", 3)
    for reduce_translation in (True, False):
        dom = SweepDomain(groups=(parse_group("c5"),), wlens=(2,),
                          reduce_translation=reduce_translation)
        report, reference = _orbit_pair(_WEGZ, dom, monkeypatch)
        assert report_to_json(report) == report_to_json(reference)
        assert report.counts["undecided_capped"] and report.counts["holds"]


# a one-shard domain per row whose orbits are expanded somewhere:
# CONJ_HAMIDOUNE fails on c7, and on c5 the other two rows have pairs whose
# exact sigma_n could run out of a small STATE_CAP
_ONE_SHARD = {StatementId.THM_HAM_CHAR: ("c5", 4, 10),
              StatementId.CONJ_HAMIDOUNE: ("c7", 3, weighted.STATE_CAP),
              StatementId.COR_HAM_VAR: ("c5", 4, 8)}


@pytest.mark.parametrize("sid", _SUBGROUP_ROWS)
def test_a_sweep_checks_every_pair_and_deals_each_sequence_once(sid, monkeypatch):
    # every represented pair gets a verdict: each orbit's representative is
    # checked once, and each member once where the representative's verdict
    # does not stand for it
    checked, dealt = [], []
    real_check, real_canonical = verify.check_instance, sequences._canonical_masks

    def counting_check(*args):
        checked.append(args[1])
        return real_check(*args)

    def counting_deal(masks):
        dealt.append(masks)
        return real_canonical(masks)

    text, k, cap = _ONE_SHARD[sid]
    monkeypatch.setattr(verify, "check_instance", counting_check)
    monkeypatch.setattr(sequences, "_canonical_masks", counting_deal)
    monkeypatch.setattr(weighted, "STATE_CAP", cap)
    g = parse_group(text)
    factors = g.invariant_factors
    dom = SweepDomain(groups=(g,), wlens=(k,), reduce_translation=False)
    report = sweep(sid, dom)
    # one shard: every weight tuple of the row shares one pool here
    (count, _), = STATEMENTS[sid].planner(dom, DEFAULT_CAPS)
    wtuples = STATEMENTS[sid].planner.weight_tuples(g, k)
    orbits = STATEMENTS[sid].planner.weight_orbits(g, wtuples)
    assert 1 < len(orbits) < len(wtuples)
    assert report.examined == count
    pairs = Counter((inst.weights.raw, inst.seq.mult) for inst in checked)
    assert max(pairs.values()) == 1  # no pair is checked twice
    orbit_of = {wtuples[i]: oi for oi, orbit in enumerate(orbits) for i in orbit}
    by_orbit: dict = {}
    for w, mult in pairs:
        by_orbit.setdefault((orbit_of[w], least_affine_image(factors, mult, False)),
                            set()).add((w, mult))
    expanded = 0
    for (oi, least), seen in by_orbit.items():
        first = (wtuples[orbits[oi][0]], least)
        members = {(wtuples[i], x) for i in orbits[oi] for x in affine_orbit(factors, least, False)}
        assert first in seen and seen in ({first}, members)
        expanded += len(seen) - 1
    # each pooled S is paired with every unit orbit's first tuple; each
    # vector checked, pooled or an orbit member, is built once, though
    # several weight orbits expand against one S here, and its partition is
    # dealt once
    assert len(by_orbit) == len({least for _, least in by_orbit}) * len(orbits)
    assert len(checked) == len(by_orbit) + expanded < count
    assert expanded > 0
    assert report.counts["hypothesis_not_met"] == 0
    expanders = Counter(least for (_, least), seen in by_orbit.items() if len(seen) > 1)
    if sid is not StatementId.CONJ_HAMIDOUNE:  # whose failures on c7 fall one W orbit per S
        assert max(expanders.values()) > 1
    built = {id(inst.seq): inst.seq.mult for inst in checked}
    assert len(built) == len(set(built.values())) == len(dealt)


@pytest.mark.parametrize("sid", _SUBGROUP_ROWS)
def test_sequence_major_walk_gives_each_pair_its_own_verdict(sid):
    g = parse_group("c5")
    statement = STATEMENTS[sid]
    wtuples = statement.planner.weight_tuples(g, 4)
    # |W| = 4, so |S| >= 8 and h(S) <= 4 are the sequence-side clauses; sweeps
    # never pool a sequence that fails them
    pools = (((5, 1, 1, 1, 0), (2, 2, 1, 1, 0), (2, 2, 2, 1, 1)),
             ((3, 2, 2, 1, 1), (0, 0, 0, 4, 6)))
    seen = set()
    reasons = Counter()
    # one unreduced leg whose specs name the pools above
    leg = (False, [[i] for i in range(len(wtuples))], [(0,), (1,)])
    for (wi, pi, mult), inst, orbit in _seq_walk(g, tuple(wtuples), [leg],
                                                 lambda g, i: zip(pools[i], repeat(0))):
        assert mult in pools[pi] and orbit.size == 0
        fresh = Instance(g, seq=GSequence(g, mult), weights=weight_seq(g, wtuples[wi]))
        assert inst == fresh
        verdict = check_instance(sid, inst)
        assert verdict == check_instance(sid, fresh), (wi, pi, mult)
        if verdict.status is Status.HYPOTHESIS_NOT_MET:
            reasons[verdict.witness["reason"]] += 1
        seen.add((wi, pi, mult))
    assert len(seen) == 5 * len(wtuples)
    assert reasons == {"maximum multiplicity exceeds |W|": 2 * len(wtuples),
                       "sequence shorter than |W| + |G| - 1": len(wtuples)}


@pytest.mark.parametrize("sid", [sid for sid, st in STATEMENTS.items()
                                 if isinstance(st.planner, _SeqPlanner)])
def test_sequence_clauses_read_the_weights_only_through_their_length(sid):
    # what Clause.reads says of a "seq" clause, and what lets the planner
    # filter weight tuples without S
    g = parse_group("c5")
    planner = STATEMENTS[sid].planner
    seq_side = planner.reading("seq")
    assert seq_side
    for mult in ((5, 1, 1, 1, 0), (2, 2, 1, 1, 0), (2, 2, 2, 1, 1), (0, 0, 0, 4, 6),
                 (3, 3, 3, 3, 3)):
        s = GSequence(g, mult)
        for clause in seq_side:
            a, b = (bool(clause.fails(Instance(g, seq=s, weights=weight_seq(g, w),
                                               n=4 if planner.with_n else None),
                                      DEFAULT_CAPS))
                    for w in ((0, 0, 0, 0), (1, 2, 3, 4)))
            assert a == b, (clause.reason, mult)


def test_partition_dilates_each_block_once_per_residue():
    g = parse_group("c7")
    s = GSequence(g, (2, 2, 1, 1, 1, 1, 0))
    part = balanced_setpartition(s, 4)
    # the memo lives on the partition, which lives on the sequence
    assert balanced_setpartition(s, 4).dilate is part.dilate
    tuples = list(combinations_with_replacement(range(7), 4))
    for w in tuples + [(6, 5, 4, 3), (0, 0, 0, 0), (1, 1, 1, 2)]:
        for order in (w, w[1:] + w[:1]):
            assert (_positional_wsum_bits(g, zip(order, part.masks), part.dilate)
                    == _positional_wsum_bits(g, zip(order, part.masks))), order
    assert part.dilate.cache_info().currsize <= len(part.masks) * 7


def test_balanced_setpartition_is_kept_on_its_sequence():
    c8, c2xc4 = parse_group("c8"), parse_group("c2xc4")
    mult = (2, 2, 1, 1, 0, 0, 1, 0)
    s = GSequence(c8, mult)
    part = balanced_setpartition(s, 3)
    assert balanced_setpartition(s, 3) is part
    assert balanced_setpartition(GSequence(c8, mult), 3) == part
    assert balanced_setpartition(s, 2) != part
    # the same multiplicities over another group of order 8 deal over that group
    other = balanced_setpartition(GSequence(c2xc4, mult), 3)
    assert other.group is c2xc4 and other.masks == part.masks and other != part
    with pytest.raises(NoSetpartition):
        balanced_setpartition(s, 1)
    with pytest.raises(NoSetpartition):
        balanced_setpartition(s, 1)


def test_subgroup_in_full_sum_equals_the_exact_sum_sets_subgroup():
    # reference: the sorted-residue block sum of the balanced partition, and
    # where it holds no subgroup, contained_subgroup of the exact sum set
    paths = Counter()
    for text, wlens in (("c4", (2, 3, 4)), ("c5", (3, 4)), ("c6", (3, 4)), ("c7", (3,)),
                        ("c2xc2", (2, 3, 4)), ("c8", (3,))):
        g = parse_group(text)
        for sid in _SUBGROUP_ROWS:
            dom = SweepDomain(groups=(g,), wlens=wlens)
            for _, factory in STATEMENTS[sid].planner(dom, DEFAULT_CAPS):
                for _, inst in planned_pairs(factory):
                    if check_instance(sid, inst).status is Status.HYPOTHESIS_NOT_MET:
                        continue
                    s, w = inst.seq, inst.weights
                    part = balanced_setpartition(s, w.length)
                    quick = _positional_wsum_bits(g, zip(sorted(w.residues), part.masks))
                    want = contained_subgroup(GSet(g, quick))
                    full = None
                    if want is None:
                        full = sigma_n(w, s, w.length)
                        want = contained_subgroup(full)
                    got, got_full = verify._subgroup_in_full_sum(inst)
                    assert got == want, (text, sid, s.mult, w.raw)
                    assert got_full is None or got_full == full
                    paths["quick" if full is None else
                          "exact" if got_full is not None else "rotated"] += 1
    # every path is taken, the rotated one and the exact one on several groups
    assert paths["quick"] and paths["rotated"] and paths["exact"], paths
