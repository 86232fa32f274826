"""Command-line front end: parse literals, dispatch to the library, emit text or JSON/CSV."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import reduce
from operator import or_
from pathlib import Path

from .errors import (
    CapExceeded,
    DomainTooLarge,
    EmptySet,
    GroupTooLarge,
    ParseError,
    ZerosumError,
)
from .groups import (
    all_subgroups,
    format_element,
    format_group,
    parse_element,
    parse_group,
    subgroup_generated,
)
from .invariants import check_davenport_bounds, invariant_report
from .sequences import balanced_setpartition, format_sequence, has_setpartition, parse_sequence
from .setsum import GSet, detect_ap, gset, iterated_sumset, stabilizer
from .verdict import Status
from .verify import (
    DEFAULT_CAPS,
    Instance,
    SearchCaps,
    StatementId,
    SweepDomain,
    check_instance,
    example1_instance,
    example2_instance,
    instance_to_dict,
    report_to_csv,
    report_to_json,
    statement_anchor,
    sweep,
    to_jsonable,
    verdict_to_dict,
)
from .weighted import parse_weights, sigma_all, sigma_n, sigma_table

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3

_DOMAIN = SweepDomain(groups=())  # the field defaults the domain flags show


def _parse_set(group, text: str) -> GSet:
    seq = parse_sequence(group, text)
    if any(m > 1 for m in seq.mult):
        raise ParseError(f"set literal {text!r} repeats an element")
    return gset(group, seq.support_indices())


def _parse_set_list(group, text: str) -> list[GSet]:
    # semicolons separate the sets; commas stay inside each set literal
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ParseError(f"no sets in {text!r}")
    return [_parse_set(group, p) for p in parts]


def _statement(text: str) -> StatementId:
    try:
        return StatementId(text.upper())
    except ValueError:
        valid = ", ".join(s.value for s in StatementId)
        raise ParseError(f"unknown statement {text!r}; one of: {valid}") from None


def _caps_from(args: argparse.Namespace) -> SearchCaps:
    return SearchCaps(**{f.name: getattr(args, f"cap_{f.name}") for f in fields(SearchCaps)})


def _emit(payload: str, dest: str) -> None:
    if not payload.endswith("\n"):
        payload += "\n"
    if dest == "-":
        sys.stdout.write(payload)
    else:
        Path(dest).write_text(payload)


def _dump(doc) -> str:
    return json.dumps(to_jsonable(doc), indent=2, sort_keys=True)


def _exit_for(status: Status) -> int:
    if status is Status.FAILS:
        return EXIT_FAILS
    if status is Status.UNDECIDED_CAPPED:
        return EXIT_CAPPED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_group_info(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    inv = invariant_report(group, cap=args.cap_davenport)
    d = inv.davenport
    try:
        subs = all_subgroups(group, cap=args.cap_subgroups)
    except CapExceeded:
        subs = None
    by_order: dict[int, int] = {}
    if subs is not None:
        for sub in subs:
            by_order[sub.order] = by_order.get(sub.order, 0) + 1
    doc = {
        "group": format_group(group),
        "order": group.order,
        "exponent": group.exponent,
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "dstar": inv.dstar,
        "davenport": d,
        "ell": inv.ell,
        "subgroup_count": None if subs is None else len(subs),
        "subgroups_by_order": {str(k): v for k, v in sorted(by_order.items())},
    }
    if args.json is not None:
        _emit(_dump(doc), args.json)
        return EXIT_OK
    print(f"group: {doc['group']}")
    print(f"order: {doc['order']}")
    print(f"exponent: {doc['exponent']}")
    print(f"rank: {doc['rank']}")
    print(f"invariant factors: {', '.join(str(f) for f in group.invariant_factors)}")
    print(f"d*: {doc['dstar']}")
    print(f"davenport: {'above cap' if d is None else d}")
    print(f"ell: {'above cap' if d is None else doc['ell']}")
    if subs is None:
        print("subgroups: above cap")
    else:
        hist = ", ".join(f"order {k}: {v}" for k, v in sorted(by_order.items()))
        print(f"subgroups: {len(subs)} ({hist})")
    return EXIT_OK


def _cmd_sumset(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    sets = _parse_set_list(group, args.sets)
    total = iterated_sumset(sets)
    rep = stabilizer(total)
    ap = detect_ap(total)
    doc = {
        "group": format_group(group),
        "sets": sets,
        "sumset": total,
        "size": total.size,
        "stabilizer": rep.stabilizer,
        "periodic": rep.periodic,
        "quasi_period": rep.quasi_period,
        "ap": None if ap is None else {
            "start": ap.start,
            "difference": ap.diff,
            "length": ap.length,
        },
    }
    if args.json is not None:
        _emit(_dump(doc), args.json)
        return EXIT_OK
    print(f"sets: {' '.join(map(repr, sets))}")
    print(f"sumset: {total!r}")
    print(f"size: {total.size}")
    print(f"stabilizer: order {rep.stabilizer.order}")
    print(f"periodic: {'yes' if rep.periodic else 'no'}")
    if ap is not None:
        print(
            f"arithmetic progression: start {format_element(ap.start)}, "
            f"difference {format_element(ap.diff)}, length {ap.length}"
        )
    return EXIT_OK


def _cmd_sigma(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    w = parse_weights(group, args.weights)
    s = parse_sequence(group, args.seq)
    if args.all:
        masks = sigma_table(w, s)
        if len(masks) == 1:
            raise EmptySet("sigma_all needs nonempty weights and sequence")
        table = {n: GSet(group, masks[n]) for n in range(1, len(masks))}
        union = GSet(group, reduce(or_, masks[1:]))
        doc = {
            "group": format_group(group),
            "weights": w,
            "weights_canonical": list(w.residues),
            "seq": s,
            "sums_by_n": {str(n): a for n, a in table.items()},
            "union": union,
        }
        if args.json is not None:
            _emit(_dump(doc), args.json)
            return EXIT_OK
        for n, a in table.items():
            print(f"n={n}: {a!r}")
        print(f"union: {union!r}")
        return EXIT_OK
    if args.n is not None:
        out = sigma_n(w, s, args.n)
    else:
        out = sigma_all(w, s)
    if args.json is not None:
        doc = {
            "group": format_group(group),
            "weights": w,
            "weights_canonical": list(w.residues),
            "seq": s,
            "n": args.n,
            "sums": out,
        }
        _emit(_dump(doc), args.json)
        return EXIT_OK
    print(repr(out))
    return EXIT_OK


def _cmd_setpartition(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    s = parse_sequence(group, args.seq)
    part = balanced_setpartition(s, args.n) if has_setpartition(s, args.n) else None
    if args.json is not None:
        doc = {"group": format_group(group), "seq": s, "n": args.n, "blocks": part}
        _emit(_dump(doc), args.json)
        return EXIT_OK
    print("none" if part is None else " ".join(map(repr, part.blocks)))
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    verdict = check_davenport_bounds(group, cap=args.cap_davenport)
    inv = invariant_report(group, cap=args.cap_davenport)
    doc = {
        "group": format_group(group),
        "dstar": inv.dstar,
        "davenport": inv.davenport,
        "ell": inv.ell,
        "zero_sum_free_witness": inv.witness_zsf,
        "bounds": verdict_to_dict(verdict),
    }
    if args.json is not None:
        _emit(_dump(doc), args.json)
        return _exit_for(verdict.status)
    print(f"group: {doc['group']}")
    print(f"d*: {inv.dstar}")
    print(f"davenport: {'above cap' if inv.davenport is None else inv.davenport}")
    print(f"ell: {'above cap' if inv.ell is None else inv.ell}")
    if inv.witness_zsf is not None:
        print(f"zero-sum-free witness: {format_sequence(inv.witness_zsf)}")
    print(f"bounds d*+1 <= D <= |G|: {verdict.status.value}")
    return _exit_for(verdict.status)


def _build_instance(args: argparse.Namespace, sid: StatementId):
    if args.p is not None:
        return example1_instance(args.p)
    if args.r is not None:
        return example2_instance(args.r)
    if args.group is None:
        raise ParseError("--group is required unless --p or --r builds the instance")
    group = parse_group(args.group)
    extra: dict = {}
    if args.subgroup is not None:
        gens = [parse_element(group, t) for t in args.subgroup.split(";") if t.strip()]
        extra["subgroup"] = subgroup_generated(group, gens)
    if args.set is not None:
        extra["set"] = _parse_set(group, args.set)
        if args.base is None:
            raise ParseError("--set needs --base (the designated element)")
        extra["base_index"] = parse_element(group, args.base).index
    if args.set_a is not None or args.set_b is not None:
        if args.set_a is None or args.set_b is None:
            raise ParseError("--set-a and --set-b go together")
        extra["set_a"] = _parse_set(group, args.set_a)
        extra["set_b"] = _parse_set(group, args.set_b)
    if args.sets is not None:
        extra["sets"] = _parse_set_list(group, args.sets)
    seq = parse_sequence(group, args.seq) if args.seq is not None else None
    weights = parse_weights(group, args.weights) if args.weights is not None else None
    return Instance(group, seq=seq, weights=weights, n=args.n, extra=extra)


def _domain_from(args: argparse.Namespace, groups) -> SweepDomain:
    kwargs = {}
    if args.wlen:
        kwargs["wlens"] = tuple(args.wlen)
    return SweepDomain(
        groups=tuple(groups),
        slen_extra=args.slen_extra,
        samples=args.samples,
        seed=args.seed,
        set_size_max=args.set_size_max,
        reduce_translation=not args.no_reduce,
        max_instances=args.max_instances,
        **kwargs,
    )


def _sweep_and_report(sid: StatementId, dom: SweepDomain, args: argparse.Namespace) -> int:
    report = sweep(sid, dom, caps=_caps_from(args))
    if args.json is not None:
        _emit(report_to_json(report), args.json)
    if args.csv is not None:
        _emit(report_to_csv(report), args.csv)
    quiet = args.json == "-" or args.csv == "-"
    if not quiet:
        print(f"statement: {sid.value}")
        print(f"anchor: {statement_anchor(sid)}")
        print(f"examined: {report.examined}")
        c = report.counts
        print(
            f"holds: {c.get(Status.HOLDS.value, 0)}  "
            f"fails: {c.get(Status.FAILS.value, 0)}  "
            f"hypothesis_not_met: {c.get(Status.HYPOTHESIS_NOT_MET.value, 0)}  "
            f"undecided: {c.get(Status.UNDECIDED_CAPPED.value, 0)}"
        )
        for inst, verdict in report.failures[:10]:
            print(f"  counterexample: {json.dumps(to_jsonable(instance_to_dict(inst)), sort_keys=True)}")
        if len(report.failures) > 10:
            print(f"  ... {len(report.failures) - 10} more")
        for inst, verdict in report.flagged[:10]:
            print(f"  flagged: {json.dumps(to_jsonable(instance_to_dict(inst)), sort_keys=True)}")
    if report.counts.get(Status.FAILS.value, 0):
        return EXIT_FAILS
    if report.counts.get(Status.UNDECIDED_CAPPED.value, 0):
        return EXIT_CAPPED
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    sid = _statement(args.statement)
    instance_flags = (
        args.seq, args.weights, args.subgroup, args.set, args.set_a, args.set_b,
        args.sets, args.p, args.r,
    )
    if any(f is not None for f in instance_flags):
        inst = _build_instance(args, sid)
        verdict = check_instance(sid, inst, caps=_caps_from(args))
        doc = instance_to_dict(inst)
        if inst.weights is not None:
            doc["weights_canonical"] = list(inst.weights.residues)
        payload = {
            "statement": sid.value,
            "registry_anchor": statement_anchor(sid),
            "instance": doc,
            "verdict": verdict_to_dict(verdict),
        }
        if args.json is not None:
            _emit(_dump(payload), args.json)
        if args.json != "-":
            print(f"statement: {sid.value}")
            print(f"status: {verdict.status.value}")
            if verdict.witness:
                print(f"witness: {json.dumps(to_jsonable(verdict.witness), sort_keys=True)}")
        return _exit_for(verdict.status)
    if args.group is None:
        raise ParseError("verify needs --group (and instance flags or a sweepable statement)")
    dom = _domain_from(args, [parse_group(args.group)])
    return _sweep_and_report(sid, dom, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    sid = _statement(args.statement)
    groups = [parse_group(g) for g in args.group]
    return _sweep_and_report(sid, _domain_from(args, groups), args)


def _cmd_reproduce_examples(args: argparse.Namespace) -> int:
    runs = [
        (StatementId.EX1, example1_instance, "p", (7, 11)),
        (StatementId.EX2, example2_instance, "r", (2, 3)),
    ]
    docs = []
    code = EXIT_OK
    for sid, build, name, values in runs:
        for value in values:
            inst = build(value)
            verdict = check_instance(sid, inst, caps=DEFAULT_CAPS)
            missing = verdict.witness.get("missing") if verdict.witness else None
            docs.append({
                "statement": sid.value,
                name: value,
                "group": format_group(inst.group),
                "missing": missing,
                "status": verdict.status.value,
            })
            if args.json is None:
                shown = "{" + ",".join(str(x) for x in missing) + "}" if missing else "?"
                print(
                    f"{sid.value} {name}={value} ({format_group(inst.group)}): "
                    f"missing {shown}, {verdict.status.value}"
                )
            code = max(code, _exit_for(verdict.status))
    if args.json is not None:
        _emit(_dump(docs), args.json)
    return code


# ---------------------------------------------------------------------------
# parser wiring


def _add_output_flags(p: argparse.ArgumentParser, csv: bool = False) -> None:
    p.add_argument("--json", nargs="?", const="-", metavar="PATH",
                   help="emit JSON (to PATH, or stdout when bare)")
    if csv:
        p.add_argument("--csv", nargs="?", const="-", metavar="PATH",
                       help="emit CSV (to PATH, or stdout when bare)")


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(SearchCaps):
        p.add_argument(f"--cap-{f.name}", type=int, default=f.default, metavar="N")


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wlen", type=int, action="append", metavar="K",
                   help="weight length to sweep (repeatable)")
    p.add_argument("--slen-extra", type=int, default=_DOMAIN.slen_extra, metavar="N")
    p.add_argument("--samples", type=int, default=_DOMAIN.samples, metavar="N")
    p.add_argument("--seed", type=int, default=_DOMAIN.seed, metavar="N")
    p.add_argument("--set-size-max", type=int, default=_DOMAIN.set_size_max, metavar="N")
    p.add_argument("--no-reduce", action="store_true",
                   help="disable reduction to canonical translates")
    p.add_argument("--max-instances", type=int, default=_DOMAIN.max_instances, metavar="N")
    p.add_argument("--threads", type=int, metavar="N",
                   help="accepted and ignored: sweeps run on one thread")


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", metavar="LIT", help='sequence literal, e.g. "0^3,1^3,2^3"')
    p.add_argument("--weights", metavar="LIT", help='weight literal, e.g. "1^2,-1^2,0^1"')
    p.add_argument("--n", type=int, metavar="K")
    p.add_argument("--subgroup", metavar="GENS", help='generators, e.g. "2" or "(1,0);(0,2)"')
    p.add_argument("--set", metavar="LIT", help="element set for the subgroup-splitting check")
    p.add_argument("--base", metavar="ELT", help="designated element paired with --set")
    p.add_argument("--set-a", metavar="LIT")
    p.add_argument("--set-b", metavar="LIT")
    p.add_argument("--sets", metavar="LITS", help='semicolon-separated sets, e.g. "0,1;0,2"')
    p.add_argument("--p", type=int, metavar="P", help="prime-order instance parameter")
    p.add_argument("--r", type=int, metavar="R", help="power-of-two instance parameter")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zerosum",
        description="Weighted subsequence sums and zero-sum statements over finite abelian groups.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("group-info", help="order, exponent, invariants, subgroup lattice size")
    p.add_argument("--group", required=True, metavar="SPEC", help='e.g. "c7" or "c2xc4"')
    _add_cap_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_group_info)

    p = sub.add_parser("sumset", help="iterated sumset with stabilizer and progression structure")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--sets", required=True, metavar="LITS", help='e.g. "0,1;0,2"')
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_sumset)

    p = sub.add_parser("sigma", help="weighted n-term subsequence sums")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--weights", required=True, metavar="LIT")
    p.add_argument("--seq", required=True, metavar="LIT")
    p.add_argument("--n", type=int, metavar="K", help="term count (default: union over all n)")
    p.add_argument("--all", action="store_true", help="print every n and the union")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("setpartition", help="balanced partition into distinct-element blocks")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--seq", required=True, metavar="LIT")
    p.add_argument("--n", type=int, required=True, metavar="K")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_setpartition)

    p = sub.add_parser("invariants", help="d*, Davenport constant, threshold length")
    p.add_argument("--group", required=True, metavar="SPEC")
    _add_cap_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("verify", help="check one statement on an instance or a single-group sweep")
    p.add_argument("--statement", required=True, metavar="ID")
    p.add_argument("--group", metavar="SPEC")
    _add_instance_flags(p)
    _add_domain_flags(p)
    _add_cap_flags(p)
    _add_output_flags(p, csv=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="exhaustive or sampled verification over a domain")
    p.add_argument("--statement", required=True, metavar="ID")
    p.add_argument("--group", action="append", required=True, metavar="SPEC",
                   help="group to include (repeatable)")
    _add_domain_flags(p)
    _add_cap_flags(p)
    _add_output_flags(p, csv=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("reproduce-examples", help="rerun the two frozen counterexample families")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_reproduce_examples)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GroupTooLarge, DomainTooLarge, CapExceeded) as exc:
        print(f"capped: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (ZerosumError, ValueError, OSError) as exc:  # OSError: an unwritable PATH
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
