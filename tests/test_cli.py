"""Front-end behavior: parsing, exit codes, output formats."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from zerosum import DEFAULT_CAPS, SearchCaps, SweepDomain, davenport, invariant_report, parse_group
from zerosum.cli import _caps_from, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sigma_prints_the_frozen_example_set(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "c7", "--weights", "1^1,-1^1,0^1",
                       "--seq", "0^3,1^3,2^3", "--n", "3")
    assert code == 0
    assert out.strip() == "{0,1,2,5,6}"


def test_sigma_json_carries_raw_and_canonical_weights(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "c7", "--weights", "1^1,-1^1,0^1",
                       "--seq", "0^3,1^3,2^3", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == "-1^1,0^1,1^1"
    assert sorted(doc["weights_canonical"]) == [0, 1, 6]
    assert doc["sums"] == [0, 1, 2, 5, 6]


def test_group_info_fields(capsys):
    code, out, _ = run(capsys, "group-info", "--group", "c2xc4")
    assert code == 0
    assert "order: 8" in out
    assert "exponent: 4" in out
    assert "d*: 4" in out
    assert "davenport: 5" in out
    assert "subgroups: 8" in out


def test_group_info_json(capsys):
    code, out, _ = run(capsys, "group-info", "--group", "c3xc3", "--json")
    doc = json.loads(out)
    assert doc["order"] == 9 and doc["dstar"] == 4 and doc["davenport"] == 5
    # four order-3 lines in the plane over F_3
    assert doc["subgroups_by_order"] == {"1": 1, "3": 4, "9": 1}


def test_sumset_and_setpartition(capsys):
    code, out, _ = run(capsys, "sumset", "--group", "c5", "--sets", "0,1;0,2")
    assert code == 0
    assert "sumset: {0,1,2,3}" in out
    code, out, _ = run(capsys, "setpartition", "--group", "c4", "--seq", "0^2,1^2", "--n", "2")
    assert code == 0
    assert out.strip() == "{0,1} {0,1}"
    code, out, _ = run(capsys, "setpartition", "--group", "c4", "--seq", "0^3", "--n", "2")
    assert out.strip() == "none"


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "c2xc2")
    assert code == 0
    assert "davenport: 3" in out


def test_library_and_cli_share_one_davenport_cap(capsys):
    c36 = parse_group("c36")
    assert davenport(c36) == 36
    assert invariant_report(c36).davenport == 36
    code, out, _ = run(capsys, "invariants", "--group", "c36", "--json")
    assert code == 0
    assert json.loads(out)["davenport"] == 36


def test_verify_lattice_statement_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--statement", "PROP_DUAL", "--group", "c2xc4")
    assert code == 0
    assert "fails: 0" in out


def test_verify_sweep_counterexamples_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--statement", "CONJ_HAMIDOUNE",
                       "--group", "c7", "--wlen", "3")
    assert code == 1
    assert "fails: 9" in out


def test_verify_single_instance_modes(capsys):
    code, _, _ = run(capsys, "verify", "--statement", "THM_WEGZ", "--group", "c4",
                     "--weights", "1^2,-1^2", "--seq", "0^2,1^2,2^2,3^1")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--statement", "CONJ_HAMIDOUNE", "--group", "c7",
                       "--weights", "1^1,-1^1,0^1", "--seq", "0^3,1^3,2^3")
    assert code == 1
    assert "status: fails" in out
    code, _, _ = run(capsys, "verify", "--statement", "EX1", "--p", "7")
    assert code == 0


def test_cap_exceeded_exits_three(capsys):
    code, _, err = run(capsys, "sweep", "--statement", "CONJ_HAMIDOUNE", "--group", "c7",
                       "--wlen", "3", "--max-instances", "10")
    assert code == 3
    assert "capped" in err


def test_capped_checker_still_reports_and_exits_three(capsys):
    code, out, _ = run(capsys, "sweep", "--statement", "COR_GAO_DSTAR", "--group", "c2xc2xc2",
                       "--samples", "400", "--cap-subgroups", "2")
    assert code == 3
    assert "examined: 400" in out
    assert int(out.split("undecided: ")[1].split()[0]) > 0


def test_subgroup_planner_over_its_cap_exits_three(capsys):
    code, out, err = run(capsys, "sweep", "--statement", "PROP_DUAL", "--group", "c2xc2",
                         "--cap-subgroups", "2")
    assert code == 3
    assert out == ""
    assert err == "capped: more than 2 subgroups\n"


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--statement", "NOPE", "--group", "c4")
    assert code == 2
    assert "unknown statement" in err
    code, _, err = run(capsys, "sigma", "--group", "c4", "--weights", "1^1", "--seq", "bogus^^")
    assert code == 2
    code, _, err = run(capsys, "verify", "--statement", "LEM_SPLIT", "--group", "c4",
                       "--weights", "1^1", "--set", "0,2")
    assert code == 2
    assert "--base" in err


def test_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    # exit 1 would read as "fails": a sweep would report a counterexample
    # it never found
    missing = tmp_path / "missing"
    code, _, err = run(capsys, "group-info", "--group", "c4", "--json", str(missing / "x.json"))
    assert code == 2
    assert err.startswith("error: ") and "x.json" in err
    code, _, err = run(capsys, "sweep", "--statement", "THM_WEGZ", "--group", "c3",
                       "--wlen", "2", "--csv", str(missing / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and "x.csv" in err
    assert not missing.exists()


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_reproduce_examples(capsys):
    code, out, _ = run(capsys, "reproduce-examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert "missing {3,4}" in lines[0]
    assert "missing {5,6}" in lines[1]
    assert "missing {2}" in lines[2]
    assert "missing {4}" in lines[3]
    assert all("holds" in line for line in lines)


def test_sweep_json_to_file_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "sweep", "--statement", "THM_WEGZ", "--group", "c3",
        "--wlen", "2", "--threads", "1", "--json", str(a))
    run(capsys, "sweep", "--statement", "THM_WEGZ", "--group", "c3",
        "--wlen", "2", "--threads", "8", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["counts"]["fails"] == 0


def test_sweep_csv_lists_failures(capsys):
    code, out, _ = run(capsys, "sweep", "--statement", "CONJ_HAMIDOUNE", "--group", "c7",
                       "--wlen", "3", "--csv")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,statement")
    assert sum(1 for l in lines if l.startswith("failure,")) == 9


def test_threads_env_variable_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_THREADS", "many")
    code, out, err = run(capsys, "verify", "--statement", "PROP_DUAL", "--group", "c2xc4")
    assert code == 0
    assert "fails: 0" in out and not err


def test_domain_flag_defaults_are_the_sweep_domains():
    args = build_parser().parse_args(["sweep", "--statement", "THM_WEGZ", "--group", "c2"])
    defaults = {f.name: f.default for f in fields(SweepDomain)}
    for name in ("slen_extra", "samples", "seed", "set_size_max", "max_instances"):
        assert getattr(args, name) == defaults[name], name
    assert args.no_reduce is not defaults["reduce_translation"]


CAP_FLAGS = ["--cap-davenport", "--cap-subgroups", "--cap-subsequences",
             "--cap-partitions", "--cap-assignments"]


@pytest.mark.parametrize("argv", [
    ["group-info", "--group", "c4"],
    ["invariants", "--group", "c4"],
    ["verify", "--statement", "EX1"],
    ["sweep", "--statement", "THM_WEGZ", "--group", "c4"],
])
def test_cap_flags_follow_the_search_caps(argv, capsys):
    assert CAP_FLAGS == [f"--cap-{f.name}" for f in fields(SearchCaps)]
    parser = build_parser()
    assert _caps_from(parser.parse_args(argv)) == DEFAULT_CAPS
    values = [11, 22, 33, 44, 55]
    flags = [x for flag, v in zip(CAP_FLAGS, values) for x in (flag, str(v))]
    assert _caps_from(parser.parse_args(argv + flags)) == SearchCaps(*values)
    with pytest.raises(SystemExit):
        parser.parse_args([argv[0], "--help"])
    out = capsys.readouterr().out
    assert all(f"{flag} N" in out for flag in CAP_FLAGS)
    assert [out.index(flag) for flag in CAP_FLAGS] == sorted(out.index(flag) for flag in CAP_FLAGS)


def test_quiet_json_mode_emits_only_json(capsys):
    code, out, _ = run(capsys, "verify", "--statement", "EX1", "--p", "7", "--json")
    assert code == 0
    json.loads(out)  # the whole stdout is one JSON document


def test_verify_builds_instances_from_every_instance_flag(capsys):
    code, out, _ = run(capsys, "verify", "--statement", "PROP_DUAL", "--group", "c2xc4",
                       "--subgroup", "(1,0);(0,2)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["extra"]["subgroup"] == {"elements": [0, 1, 4, 5], "iso": "c2xc2"}
    assert doc["verdict"] == {"status": "holds",
                              "witness": {"partner": {"elements": [0, 4], "iso": "c2"}}}
    code, out, _ = run(capsys, "verify", "--statement", "LEM_SPLIT", "--group", "c7",
                       "--set", "0,1", "--base", "0", "--weights", "1^6")
    assert code == 0
    assert "status: holds" in out and '"coset_rep": 0' in out
    code, out, _ = run(capsys, "verify", "--statement", "PROP_PIGEONHOLE", "--group", "c5",
                       "--set-a", "0,1,2", "--set-b", "0,1,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["extra"] == {"set_a": [0, 1, 2], "set_b": [0, 1, 3]}
    assert doc["verdict"]["status"] == "holds"
    code, out, _ = run(capsys, "verify", "--statement", "AP_STRUCT", "--group", "c7",
                       "--sets", "0,1;0,1,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["extra"]["sets"] == [[0, 1], [0, 1, 2]]
    assert doc["verdict"] == {"status": "holds", "witness": {"difference": "1"}}
    code, out, _ = run(capsys, "verify", "--statement", "EX2", "--r", "3")
    assert code == 0
    assert 'witness: {"missing": [4]' in out


def test_verify_rejects_half_a_set_pair_and_repeated_elements(capsys):
    code, out, err = run(capsys, "verify", "--statement", "PROP_PIGEONHOLE", "--group", "c5",
                         "--set-a", "0,1,2")
    assert (code, out, err) == (2, "", "error: --set-a and --set-b go together\n")
    code, out, err = run(capsys, "verify", "--statement", "PROP_PIGEONHOLE", "--group", "c5",
                         "--set-a", "0,1,1", "--set-b", "0,1")
    assert (code, out, err) == (2, "", "error: set literal '0,1,1' repeats an element\n")


def test_sumset_sigma_and_setpartition_json(capsys):
    code, out, _ = run(capsys, "sumset", "--group", "c5", "--sets", "0,1;0,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sumset"] == [0, 1, 2, 3] and doc["size"] == 4
    assert doc["stabilizer"] == {"elements": [0], "iso": "c1"}
    assert doc["periodic"] is False and doc["quasi_period"] is None
    assert doc["ap"] == {"start": "0", "difference": "1", "length": 4}
    sigma = ["sigma", "--group", "c7", "--weights", "1^1,-1^1,0^1", "--seq", "0^3,1^3,2^3",
             "--all"]
    code, out, _ = run(capsys, *sigma)
    assert code == 0
    assert out.splitlines() == [f"n={n}: {{0,1,2,5,6}}" for n in (1, 2, 3)] + [
        "union: {0,1,2,5,6}"]
    code, out, _ = run(capsys, *sigma, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sums_by_n"] == {str(n): [0, 1, 2, 5, 6] for n in (1, 2, 3)}
    assert doc["union"] == [0, 1, 2, 5, 6]
    assert doc["weights"] == "-1^1,0^1,1^1" and doc["weights_canonical"] == [1, 6, 0]
    code, out, _ = run(capsys, "setpartition", "--group", "c8", "--seq", "0^3,1^2,2,4^3",
                       "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[0, 1, 4], [0, 1, 4], [0, 2, 4]]
    assert doc["seq"] == "0^3,1^2,2^1,4^3" and doc["n"] == 3


@pytest.mark.parametrize("flags,field", [
    (["--statement", "COR_GAO_DSTAR", "--samples", "-3"], "samples"),
    (["--statement", "THM_HAM_CHAR", "--wlen", "3", "--slen-extra", "-1"], "slen_extra"),
    (["--statement", "THM_HAM_CHAR", "--wlen", "-1"], "wlens"),
    (["--statement", "LEM_SPLIT", "--set-size-max", "-2"], "set_size_max"),
    (["--statement", "THM_WEGZ", "--wlen", "2", "--max-instances", "-1"], "max_instances"),
])
def test_negative_domain_sizes_exit_two(flags, field, capsys):
    code, out, err = run(capsys, "sweep", "--group", "c5", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err
