import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbprop
from conftest import (
    FIXTURES, MALFORMED_JSON, MALFORMED_PRICE_SYSTEMS, make_instance, pabulib_text,
)
from pbprop import pricing, rules
from pbprop.cli import _make_parser, main
from pbprop.model import Instance, emit_json, parse_json


@pytest.fixture()
def inst_file(tmp_path):
    inst = Instance.create(
        {"p1": 3, "p2": 1, "p3": 1}, [{"p1", "p2"}, {"p1", "p3"}], 3
    )
    path = tmp_path / "inst.json"
    path.write_text(emit_json(inst))
    return str(path)


PB_TEXT = """\
META
key;value
num_projects;2
num_votes;1
budget;2
vote_type;approval
PROJECTS
project_id;cost
a;1
b;1
VOTES
voter_id;vote
1;a,b
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run


def test_run_mes_json_output(capsys, inst_file):
    code, out, err = run_cli(capsys, "run", "--rule", "mes", inst_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "mes" and payload["sat"] == "cost"
    assert payload["outcome"] == ["p1"]
    assert payload["trace"]["delta"] == "1"
    assert "selected 1 project(s)" in err


def test_run_reads_pabulib_without_extension(capsys, tmp_path):
    path = tmp_path / "instance"  # no extension: content sniffing
    path.write_text(PB_TEXT)
    code, out, _ = run_cli(capsys, "run", "--rule", "phragmen", str(path))
    assert code == 0
    assert json.loads(out)["outcome"] == ["a", "b"]


def test_run_refuses_pabulib_with_a_repeated_meta_key(capsys, tmp_path):
    # read as a dict, the file would run with the last budget, 100
    path = tmp_path / "instance.pb"
    path.write_text(PB_TEXT.replace("budget;2\n", "budget;2\nbudget;100\n"))
    code, out, err = run_cli(capsys, "run", "--rule", "mes", str(path))
    assert (code, out, err) == (1, "", "pb: repeated META key budget\n")


def test_run_refuses_pabulib_with_a_repeated_voter(capsys, tmp_path):
    # counted twice, voter 1 would approve a and b alone
    path = tmp_path / "instance.pb"
    path.write_text(PB_TEXT.replace("num_votes;1", "num_votes;2") + "1;a,b\n")
    code, out, err = run_cli(capsys, "run", "--rule", "phragmen", str(path))
    assert (code, out, err) == (1, "", "pb: repeated voter_id '1'\n")


def test_run_reads_pabulib_with_extra_columns(capsys):
    path = FIXTURES / "pabulib_extra_columns.pb"
    code, out, _ = run_cli(capsys, "run", "--rule", "mes", str(path))
    assert code == 0
    assert json.loads(out)["outcome"] == ["1", "3"]


def test_run_gcr_has_no_trace(capsys, inst_file):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "gcr", "--sat", "card", inst_file
    )
    assert code == 0
    payload = json.loads(out)
    # all three singletons tie at value 1; lexicographic tie-break wins
    assert payload["outcome"] == ["p1"]
    assert "trace" not in payload


def test_run_skip_blocked_flag(capsys, inst_file):
    code, out, _ = run_cli(
        capsys, "run", "--rule", "phragmen", "--skip-blocked", inst_file
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert "blocking" not in trace
    assert trace["skipped"] == ["p1"]


def test_skipped_order_ignores_hash_seed(tmp_path):
    inst = Instance.create(
        {"a": 3, "b": 3, "c": 3, "d": 3, "e": 1}, [{"a", "b", "c", "d", "e"}], 2
    )
    path = tmp_path / "inst.json"
    path.write_text(emit_json(inst))
    src = str(Path(pbprop.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-m", "pbprop.cli", "run", "--rule", "phragmen",
             "--skip-blocked", str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
        ).stdout
        for seed in ("0", "5")
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["trace"]["skipped"] == ["a", "b", "c", "d"]


def test_invariant_error_exit_code(capsys, inst_file, monkeypatch):
    pop_ties = rules._pop_ties

    def underpriced(heap, stale, evaluate):
        best, tied = pop_ties(heap, stale, evaluate)
        return (None if best is None else best / 2), tied

    monkeypatch.setattr(rules, "_pop_ties", underpriced)
    code, out, err = run_cli(capsys, "run", "--rule", "mes", inst_file)
    assert code == 70
    assert out == ""
    assert "internal invariant broken" in err


# ---------------------------------------------------------------------------
# audit


def test_audit_pass_and_fail(capsys, inst_file):
    code, out, _ = run_cli(
        capsys, "audit", "--sat", "card", inst_file, "p2,p3"
    )
    assert code == 0
    assert all(v == "pass" for v in json.loads(out)["results"].values())
    code, out, err = run_cli(capsys, "audit", inst_file, "-")
    assert code == 2  # empty outcome starves the grand coalition
    results = json.loads(out)["results"]
    assert results["ejr"]["T"] == ["p1"]
    assert "ejr: FAIL" in err


def test_audit_single_axiom(capsys, inst_file):
    code, out, _ = run_cli(
        capsys, "audit", "--axiom", "pjr", "--sat", "card", inst_file, "p2,p3"
    )
    assert code == 0
    assert list(json.loads(out)["results"]) == ["pjr"]


def test_audit_outcome_file(capsys, inst_file, tmp_path):
    w = tmp_path / "w.json"
    w.write_text('["p2", "p3"]')
    code, _, _ = run_cli(
        capsys, "audit", "--sat", "card", inst_file, str(w)
    )
    assert code == 0


@pytest.mark.parametrize("ids", ['[["p2"]]', '[1, null]', '{"p2": 1}'])
def test_audit_outcome_file_must_list_ids(capsys, inst_file, tmp_path, ids):
    w = tmp_path / "w.json"
    w.write_text(ids)
    code, out, err = run_cli(capsys, "audit", inst_file, str(w))
    assert code == 1 and out == ""
    assert "pb: outcome file must hold a JSON list of project ids" in err


def test_outcome_list_too_long_for_a_file_name(capsys, tmp_path):
    # 40 ids give a 359-byte spec, longer than a file name may be
    ids = [f"proj{j:04d}" for j in range(1, 41)]
    path = tmp_path / "inst.json"
    path.write_text(emit_json(Instance.create(dict.fromkeys(ids, 1), [set(ids)], 40)))
    system = tmp_path / "ps.json"
    system.write_text(json.dumps({"B": "40", "payments": {"1": dict.fromkeys(ids, "1")}}))
    spec = ",".join(ids)
    code, out, err = run_cli(capsys, "audit", "--axiom", "ejr", str(path), spec)
    assert code == 3  # 40 projects exceed the audit's guard, after the outcome is read
    assert json.loads(out)["outcome"] == ids
    code, out, err = run_cli(capsys, "price", "verify", str(path), spec, str(system))
    assert (code, json.loads(out)["verdict"]) == (0, "pass"), err
    code, out, err = run_cli(capsys, "price", "find", str(path), spec)
    assert (code, json.loads(out)["found"]) == (0, True), err


def test_audit_guard_exit_code(capsys, tmp_path):
    big = Instance.create({"a": 1}, [{"a"} for _ in range(13)], 13)
    path = tmp_path / "big.json"
    path.write_text(emit_json(big))
    code, out, _ = run_cli(
        capsys, "audit", "--axiom", "pjr1", str(path), "a"
    )
    assert code == 3
    assert "pjr1" in json.loads(out)["guard_errors"]


# ---------------------------------------------------------------------------
# price


def test_price_extract_and_verify_roundtrip(capsys, inst_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "price", "extract", "--rule", "mes", "--sat", "card",
        "--c6", "--strict-b", inst_file,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    system = tmp_path / "ps.json"
    system.write_text(json.dumps(payload["system"]))
    code, out, _ = run_cli(
        capsys, "price", "verify", "--strict-b", inst_file,
        ",".join(payload["outcome"]), str(system),
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_price_verify_failure_exit_code(capsys, inst_file, tmp_path):
    system = tmp_path / "ps.json"
    system.write_text(json.dumps({"B": "3", "payments": {"1": {}, "2": {}}}))
    code, out, _ = run_cli(
        capsys, "price", "verify", inst_file, "p2", str(system)
    )
    assert code == 2  # nobody funds the chosen project
    assert json.loads(out)["conditions"]["C4"]["pass"] is False


def test_price_verify_strict_b_fails_at_the_real_budget(capsys, inst_file, tmp_path):
    # every condition holds, but B equals the budget b = 3
    system = tmp_path / "ps.json"
    system.write_text('{"B": "3", "payments": {"1": {"p2": "1"}, "2": {"p3": "1"}}}')
    code, out, _ = run_cli(capsys, "price", "verify", inst_file, "p2,p3", str(system))
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "price", "verify", "--strict-b", inst_file, "p2,p3",
                           str(system))
    payload = json.loads(out)
    assert code == 2
    assert (payload["verdict"], payload["b_strict"]) == ("fail", False)
    assert all(c["pass"] for c in payload["conditions"].values())


@pytest.mark.parametrize("case", sorted(MALFORMED_PRICE_SYSTEMS))
def test_price_verify_malformed_system_is_parse_error(capsys, inst_file, tmp_path, case):
    system = tmp_path / "ps.json"
    system.write_text(MALFORMED_PRICE_SYSTEMS[case])
    code, out, err = run_cli(capsys, "price", "verify", inst_file, "p2", str(system))
    assert code == 1 and out == ""
    assert err.startswith("pb: malformed price system")


def test_price_verify_refuses_two_keys_for_one_voter(capsys, tmp_path):
    # read as int keys, "2" and "02" would merge into one voter 2 paying 1/2,
    # and 3/2 of listed payments would pass as a system with B = 3/2
    inst = tmp_path / "inst.json"
    inst.write_text(emit_json(Instance.create({"a": 1}, [{"a"}, {"a"}], 1)))
    system = tmp_path / "ps.json"
    payments = '{"1": {"a": "1/2"}, "2": {"a": "1/2"}, "%s": {"a": "1/2"}}'
    for key in ("02", "2"):
        system.write_text('{"B": "3/2", "payments": %s}' % (payments % key))
        code, out, err = run_cli(capsys, "price", "verify", "--strict-b",
                                 str(inst), "a", str(system))
        assert code == 1 and out == ""
        assert err.startswith("pb: malformed price system")


def test_price_verify_refuses_an_outcome_over_the_budget(capsys, tmp_path):
    # verify, find and audit all refuse the outcome a,b (cost 2, budget 1)
    inst = tmp_path / "inst.json"
    inst.write_text(emit_json(Instance.create({"a": 1, "b": 1}, [{"a", "b"}, {"a", "b"}], 1)))
    system = tmp_path / "ps.json"
    system.write_text('{"B": "2", "payments": {"1": {"a": "1"}, "2": {"b": "1"}}}')
    # n = 15 is past every audit guard, and the outcome is still checked first
    big = tmp_path / "big.json"
    big.write_text(emit_json(Instance.create({"a": 2, "b": 1}, [{"a", "b"}] * 15, 1)))
    for argv in (["price", "verify", "--strict-b", "--c6", str(inst), "a,b", str(system)],
                 ["price", "find", str(inst), "a,b"],
                 ["audit", str(inst), "a,b"],
                 ["audit", str(big), "a"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "pb: outcome exceeds the budget\n"), argv


def test_price_find(capsys, inst_file):
    code, out, _ = run_cli(
        capsys, "price", "find", "--strict-b", inst_file, "p2,p3"
    )
    assert code == 0
    assert json.loads(out)["found"] is True
    code, out, _ = run_cli(
        capsys, "price", "find", "--c6", "--strict-b", inst_file, "p1"
    )
    assert code == 2
    assert json.loads(out)["found"] is False


def test_price_find_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(emit_json(Instance.create({"a": 1}, [{"a"}] * 65, 1)))
    code, out, err = run_cli(capsys, "price", "find", str(path), "a")
    assert (code, out, err) == (
        3, "", "pb: guard exceeded: 65 payment variables exceed guard 64\n")


@pytest.mark.parametrize("rule", ["phragmen", "maximin"])
def test_price_extract_unavailable_is_negative_verdict(capsys, tmp_path, rule):
    # every project fits, so the run never blocks on one
    path = tmp_path / "all.pb"
    path.write_text(pabulib_text({"a": 1, "b": 1}, 10, [{"a"}, {"b"}]))
    code, out, err = run_cli(capsys, "price", "extract", "--rule", rule, str(path))
    assert code == 2 and out == ""
    assert err == "pb: no blocking project: the run exhausted its candidates\n"


def test_price_extract_maximin_repair_failure_is_negative_verdict(
    capsys, tmp_path, monkeypatch
):
    # the balanced loads of this run break a condition, so the extraction
    # re-splits them with the price LP, which is made to fail here
    path = tmp_path / "inst.json"
    path.write_text(emit_json(make_instance(192, max_n=7, max_m=8)))
    solved = []

    def infeasible(*args):
        solved.append(args)
        return "infeasible", None, None

    monkeypatch.setattr(pricing, "solve_lp", infeasible)
    code, out, err = run_cli(capsys, "price", "extract", "--rule", "maximin", str(path))
    assert len(solved) == 1
    assert code == 2 and out == ""
    assert err.startswith("pb: no condition-respecting payments exist")


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic(capsys):
    code, out1, err = run_cli(
        capsys, "gen", "--n", "4", "--m", "5", "--seed", "7"
    )
    assert code == 0 and "n=4 m=5" in err
    code, out2, _ = run_cli(
        capsys, "gen", "--n", "4", "--m", "5", "--seed", "7"
    )
    assert out1 == out2
    inst = parse_json(out1)
    assert inst.n == 4 and inst.m == 5


@pytest.mark.parametrize("flags", [
    ["--density", "0"], ["--density", "-0.5"], ["--density", "nan"],
    ["--denominator", "0"], ["--denominator", "-1"],
])
def test_gen_rejects_bad_parameters(flags):
    # a subprocess, so that a generator that loops forever fails the test
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pbprop.cli", "gen", "--n", "3", "--m", "3", *flags],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("pb: ") and "Traceback" not in proc.stderr
    name = flags[0].lstrip("-")
    assert f"{name} must be" in proc.stderr  # names the bad parameter


def test_gen_pipes_into_run(capsys, tmp_path):
    _, out, _ = run_cli(
        capsys, "gen", "--n", "3", "--m", "4", "--seed", "1", "--unit-cost"
    )
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "run", "--rule", "maximin", str(path))
    assert code == 0
    assert "outcome" in json.loads(out)


# ---------------------------------------------------------------------------
# repro


def test_repro_all_cases_pass(capsys):
    code, out, err = run_cli(capsys, "repro")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cases"]) >= 8
    assert all(case["passed"] for case in payload["cases"])
    assert "PASS best-outcome" in err
    # every check carries a provenance tag
    for case in payload["cases"]:
        for check in case["checks"]:
            assert check["tag"] in ("PAPER", "DERIVED", "TRIVIAL")


def test_repro_selected_case(capsys):
    code, out, _ = run_cli(capsys, "repro", "best-outcome")
    assert code == 0
    assert [c["case"] for c in json.loads(out)["cases"]] == ["best-outcome"]


def test_repro_unknown_case(capsys):
    code, _, err = run_cli(capsys, "repro", "zzz")
    assert code == 64
    assert "zzz" in err


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "run", "--rule", "mes", "/no/such/file")
    assert code == 1 and "pb:" in err


@pytest.mark.parametrize("reader", ["pb", "json", "outcome", "price-system"])
def test_non_utf8_file_is_io_error(capsys, inst_file, tmp_path, reader):
    good, argv = {
        "pb": (PB_TEXT, ["run", "--rule", "mes"]),
        "json": (Path(inst_file).read_text(), ["run", "--rule", "mes"]),
        "outcome": ('["p2"]', ["audit", inst_file]),
        "price-system": ('{"B": "3", "payments": {}}', ["price", "verify", inst_file, "p2"]),
    }[reader]
    path = tmp_path / ("bad.pb" if reader == "pb" else "bad.json")
    path.write_bytes(good[:1].encode() + b"\xff" + good[1:].encode())
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("pb: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("reader", ["pb", "json", "sniffed-json", "outcome", "price-system"])
def test_byte_order_mark_is_read_past(capsys, inst_file, tmp_path, reader):
    text, name, argv = {
        "pb": (PB_TEXT, "inst.pb", ["run", "--rule", "mes"]),
        "json": (Path(inst_file).read_text(), "inst.json", ["run", "--rule", "mes"]),
        "sniffed-json": (Path(inst_file).read_text(), "inst", ["run", "--rule", "phragmen"]),
        "outcome": ('["p2"]', "outcome.json", ["audit", inst_file]),
        "price-system": ('{"B": "3", "payments": {"1": {"p1": "3/2"}, "2": {"p1": "3/2"}}}',
                         "system.json", ["price", "verify", inst_file, "p1"]),
    }[reader]
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / ("bom" if bom else "plain") / name
        path.parent.mkdir()
        path.write_bytes(bom + text.encode())
        results.append(run_cli(capsys, *argv, str(path)))
    assert results[0] == results[1]
    assert results[0][1]  # both wrote a payload



@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_is_parse_error(capsys, tmp_path, case):
    text, fragment = MALFORMED_JSON[case]
    path = tmp_path / "inst.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--rule", "mes", str(path))
    assert code == 1 and out == "" and fragment in err


@pytest.mark.parametrize("verb", [
    ["run", "--rule", "mes"], ["run", "--rule", "gcr"], ["audit"],
    ["price", "extract", "--rule", "mes"],
])
def test_table_missing_a_project_is_usage_error(capsys, inst_file, tmp_path, verb):
    table = tmp_path / "t.json"
    table.write_text('{"p1": 1, "p3": 2}')
    argv = [*verb, "--sat", f"table:{table}", inst_file] + (["p1"] if verb == ["audit"] else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err == "pb: satisfaction table has no value for project 'p2'\n"


def test_cost_map_with_two_keys_for_one_cost_is_parse_error(capsys, inst_file, tmp_path):
    path = tmp_path / "cm.json"
    path.write_text('{"3": "1", "3.0": "5", "1": "1"}')
    code, out, err = run_cli(capsys, "run", "--rule", "mes", "--sat", f"costmap:{path}", inst_file)
    assert (code, out, err) == (1, "", "pb: cost map names cost 3 twice\n")


@pytest.mark.parametrize("selector, values, builtin, kind", [
    ("table", {"p1": 1, "p2": 1, "p3": 1}, "card", "table"),
    ("costmap", {"3": "3", "1": "1"}, "cost", "cost_map"),
])
def test_run_with_a_sat_file(capsys, inst_file, tmp_path, selector, values, builtin, kind):
    # the file's values equal the builtin's, so only the "sat" name differs
    path = tmp_path / "sat.json"
    path.write_text(json.dumps(values))
    code, out, _ = run_cli(capsys, "run", "--rule", "mes", "--sat", f"{selector}:{path}",
                           inst_file)
    _, want, _ = run_cli(capsys, "run", "--rule", "mes", "--sat", builtin, inst_file)
    assert code == 0
    assert json.loads(out)["sat"] == kind
    assert out == want.replace(f'"sat": "{json.loads(want)["sat"]}"', f'"sat": "{kind}"', 1)


@pytest.mark.parametrize("selector", ["table", "costmap"])
@pytest.mark.parametrize("verb", [["run", "--rule", "mes"], ["audit"]])
def test_sat_file_must_hold_an_object(capsys, inst_file, tmp_path, selector, verb):
    path = tmp_path / "sat.json"
    path.write_text("[1]")
    argv = [*verb, "--sat", f"{selector}:{path}", inst_file] + (["p1"] if verb == ["audit"] else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"pb: {path} must hold a JSON object\n"


@pytest.mark.parametrize("case", ["huge-int", "deep-nesting", "repeated-key"])
@pytest.mark.parametrize("reader", ["outcome", "table", "price-system"])
def test_cli_json_readers_reject_bad_json_as_parse_error(capsys, inst_file, tmp_path,
                                                          reader, case):
    path = tmp_path / "f.json"
    path.write_text(MALFORMED_JSON[case][0])
    argv = {
        "outcome": ["audit", inst_file, str(path)],
        "table": ["run", "--rule", "mes", "--sat", f"table:{path}", inst_file],
        "price-system": ["price", "verify", inst_file, "p2", str(path)],
    }[reader]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("pb: ") and "invalid JSON" in err


def test_unknown_sat_selector(capsys, inst_file):
    code, _, _ = run_cli(
        capsys, "run", "--rule", "mes", "--sat", "bogus", inst_file
    )
    assert code == 1


def test_bad_rule_choice_is_usage_error(capsys, inst_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rule", "bogus", inst_file])
    assert exc.value.code == 64
    capsys.readouterr()


def test_one_parser_serves_a_sequence_of_calls(capsys, inst_file):
    """Calls in one process share a parser; each must act as a fresh `pb`."""
    assert _make_parser() is _make_parser()
    src = str(Path(pbprop.__file__).resolve().parents[1])
    sequence = [
        ["run", "--rule", "bogus", inst_file],
        ["run", "--rule", "phragmen", "--skip-blocked", inst_file],
        ["run", "--rule", "phragmen", inst_file],
        ["audit", "--sat", "card", inst_file, "p2,p3"],
        ["gen", "--n", "3", "--m", "4", "--seed", "5"],
    ]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors exit from the parser
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "pbprop.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert code == 0 and json.loads(out)["n"] == 3


def test_unknown_outcome_project(capsys, inst_file):
    code, _, err = run_cli(capsys, "audit", inst_file, "zzz")
    assert code == 1
    assert "unknown projects" in err


def test_non_additive_sat_for_mes_is_usage_error(capsys, inst_file):
    code, _, _ = run_cli(
        capsys, "run", "--rule", "mes", "--sat", "cc", inst_file
    )
    assert code == 64


# ---------------------------------------------------------------------------
# scripts


def test_random_audit_sweep_prints_pass_rate_table():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "random_audit_sweep.py"),
         "--count", "3", "--max-n", "4", "--max-m", "5"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["rule", "sat", "ejr", "ejr1", "ejr1plus", "ejrx",
                                "pjr", "pjr1", "pjrx", "localbpjr"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [rule, sat] for rule in ("mes", "phragmen", "maximin", "gcr")
        for sat in ("cost", "card", "sqrt", "log")
    ]
    assert all(len(row) == 10 and all(cell.endswith("%") for cell in row[2:])
               for row in rows)


def test_random_audit_sweep_imports_its_own_checkout(tmp_path):
    # run as its docstring shows: no PYTHONPATH, from another directory
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "random_audit_sweep.py"),
         "--count", "3", "--max-n", "4", "--max-m", "4"],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split()[:3] == ["rule", "sat", "ejr"]


def test_compare_outputs_finds_no_difference_with_itself(tmp_path):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "compare_outputs.py"), str(root),
         "--seeds", "2"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": 0 differ\n")


def test_ab_rules_times_every_rule_against_itself():
    # one round instead of the script's 15, against this checkout itself
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ab_rules; ab_rules.ROUNDS = 1; sys.exit(ab_rules.main([sys.argv[1]]))",
         str(scripts.parent)],
        cwd=scripts,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()]
    assert rows == [[workload, rule] for workload, rules in
                    [("uniform", ("mes-card", "mes-cost", "phragmen")),
                     ("clustered", ("mes-card", "mes-cost", "phragmen")),
                     ("price", ("maximin",))]
                    for rule in ("parse",) + rules + ("write", "all")]


def test_baseline_rows_writes_bench_json(tmp_path):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "baseline_rows.py"),
         "check", "maximin-100x20", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_check.json").read_text())
    assert bench["label"] == "check" and bench["timeout_s"] > 0
    [row] = bench["rows"]
    assert row["row"] == "maximin-100x20" and row["status"] == "ok"
    assert row["wall_s"] > 0 and row["outcome_size"] > 0
    assert len(row["stdout_sha256"]) == 64


def test_baseline_rows_cold_row_times_a_whole_pb_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "baseline_rows.py"),
         "check", "cold-run-clustered", "--out", str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [row] = json.loads((tmp_path / "BENCH_check.json").read_text())["rows"]
    assert row["status"] == "ok" and row["wall_s"] > 0 and row["outcome_size"] > 0
    assert row["modules"] == ["pbprop", "pbprop.cli", "pbprop.errors", "pbprop.maxflow",
                              "pbprop.model", "pbprop.rules", "pbprop.satisfaction"]


def test_baseline_rows_imports_its_own_checkout(tmp_path):
    # run as its docstring shows: no PYTHONPATH, from another directory
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "baseline_rows.py"),
         "check", "price-8x12", "--out", str(tmp_path)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [row] = json.loads((tmp_path / "BENCH_check.json").read_text())["rows"]
    assert row["row"] == "price-8x12" and row["status"] == "ok", row
