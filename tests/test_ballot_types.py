"""The ballot-type view of the voters on clustered-shaped instances: many
voters in shuffled order, few distinct ballots, and some projects with so
few approvers that their approver sets hash into tables smaller than n."""
import random
from fractions import Fraction

import pytest

from conftest import pabulib_text
from oracles import (
    eager_maximin, eager_mes, eager_phragmen, per_voter_system, reference_verify_price_system,
)
from pbprop.axioms import check_ejr, check_local_bpjr, check_pjr, check_pjr1, demand_sets
from pbprop.cli import main
from pbprop.errors import GuardExceededError
from pbprop.model import Instance, InstanceError, emit_json, parse_pabulib
from pbprop.pricing import (
    extract_from_maximin_trace,
    extract_from_mes_trace,
    extract_from_phragmen_trace,
    verify_price_system,
)
from pbprop.rules import run_gcr, run_maximin_support, run_mes, run_seq_phragmen
from pbprop.satisfaction import cardinality_sat, cost_sat, share_sat
from test_pricing import _perturbed, assert_rebuilt_verify_alike


def clustered_instance(seed):
    """150-400 voters holding at most 8 distinct ballots, Zipf-weighted so
    the last bundles have only a handful of holders."""
    rng = random.Random(seed)
    projects = [f"p{j}" for j in range(1, rng.randint(4, 8) + 1)]
    costs = {p: Fraction(rng.randint(4, 20), rng.choice((1, 2, 4))) for p in projects}
    bundles = {frozenset(rng.sample(projects, rng.randint(1, 3)))
               for _ in range(rng.randint(2, 8))}
    bundles = sorted(bundles, key=sorted)
    weights = [1 / k ** 2 for k in range(1, len(bundles) + 1)]
    n = rng.randint(150, 400)
    ballots = rng.choices(bundles, weights, k=n)
    budget = sum(costs.values()) * Fraction(rng.randint(3, 6), 10)
    return Instance.create(costs, ballots, budget)


@pytest.fixture(scope="module")
def pool():
    insts = [clustered_instance(seed) for seed in range(12)]
    assert all(len(inst.ballot_types()) <= 8 for inst in insts)
    # some approver set is sparse: its hash table is smaller than n
    assert any(0 < 8 * len(inst.approvers(p)) < inst.n
               for inst in insts for p in inst.projects)
    return insts


def smallest(pool, k=3):
    """The k instances with the fewest voters, for the maximin runs, whose
    eager reference rebalances every candidate each round."""
    return sorted(pool, key=lambda inst: inst.n)[:k]


def test_ballot_types_partition_voters_in_first_appearance_order(pool):
    for inst in pool:
        types = inst.ballot_types()
        firsts = [holders[0] for holders in types.values()]
        assert firsts == sorted(firsts)
        for ballot, holders in types.items():
            assert holders == sorted(holders)
            assert all(inst.approval(i) == ballot for i in holders)
        assert sum(len(h) for h in types.values()) == inst.n


def test_approvers_iterate_as_a_voter_scan_builds_them(pool):
    for inst in pool:
        for p in inst.projects:
            scan = frozenset(i for i in inst.voters if p in inst.approval(i))
            assert list(inst.approvers(p)) == list(scan)


@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_rules_match_eager_references(pool, tie):
    for inst in pool:
        for mu in (cost_sat(inst), cardinality_sat(inst)):
            got, trace = run_mes(inst, mu, tie=tie)
            want, ref = eager_mes(inst, mu, tie=tie)
            assert got == want
            for name in ("selections", "payments", "delta"):
                assert getattr(trace, name) == getattr(ref, name), name
        for skip in (False, True):
            got, trace = run_seq_phragmen(inst, tie=tie, skip_blocked=skip)
            want, ref, _ = eager_phragmen(inst, tie=tie, skip_blocked=skip)
            assert got == want
            for name in ("selections", "payments", "blocking", "skipped"):
                assert getattr(trace, name) == getattr(ref, name), name


def test_maximin_matches_eager_reference(pool):
    for inst in smallest(pool):
        got, trace = run_maximin_support(inst)
        want, ref, _ = eager_maximin(inst)
        assert got == want
        for name in ("selections", "payments", "blocking"):
            assert getattr(trace, name) == getattr(ref, name), name


def _reordered(inst, w, ps):
    """Two equal C1-violating rows with opposite item order on the two
    lowest holders of a ballot type, both ways round: the witness must come
    from the lowest holder's own order."""
    for ballot, holders in inst.ballot_types().items():
        outside = sorted(set(inst.projects) - ballot)
        if len(holders) < 2 or len(outside) < 2:
            continue
        a, b = outside[:2]
        for first, second in ((a, b), (b, a)):
            payments = {i: dict(per) for i, per in ps.payments.items()}
            payments[holders[0]] = {first: Fraction(1), second: Fraction(1)}
            payments[holders[1]] = {second: Fraction(1), first: Fraction(1)}
            yield per_voter_system(ps.budget, payments)
        return


def test_verify_matches_reference_per_voter(pool):
    rng = random.Random(6)
    odd_rows = 0
    small = smallest(pool)
    for inst in pool:
        systems = []
        for mu in (cost_sat(inst), cardinality_sat(inst)):
            w, tr = run_mes(inst, mu)
            systems.append((w, extract_from_mes_trace(inst, tr)))
        rules = [(run_seq_phragmen, extract_from_phragmen_trace)]
        if inst in small:
            rules.append((run_maximin_support, extract_from_maximin_trace))
        for rule, extract in rules:
            w, tr = rule(inst)
            if tr.blocking is not None:
                systems.append((w, extract(inst, tr)))
        for w, ps in systems:
            variants = [*_perturbed(inst, w, ps, rng), *_reordered(inst, w, ps)]
            for variant in variants:
                report = verify_price_system(inst, w, variant)
                assert report == reference_verify_price_system(inst, w, variant)
                assert_rebuilt_verify_alike(inst, w, variant, report)
                # a voter whose row differs from another holder of its ballot
                odd_rows += any(
                    variant.payments.get(i, {}) != variant.payments.get(holders[0], {})
                    for holders in inst.ballot_types().values() for i in holders
                )
    assert odd_rows


def test_reordered_rows_keep_the_lowest_holders_witness():
    inst = Instance.create({"a": 1, "b": 1, "c": 1}, [{"a"}, {"a"}, {"a"}], 2)
    for first, second in (("b", "c"), ("c", "b")):
        ps = per_voter_system(Fraction(3), {
            1: {"a": Fraction(1, 3)},
            2: {first: Fraction(1, 3), second: Fraction(1, 3)},
            3: {second: Fraction(1, 3), first: Fraction(1, 3)},
        })
        report = verify_price_system(inst, {"a"}, ps)
        assert report.verdicts["C1"] == (False, (2, first))
        assert report == reference_verify_price_system(inst, {"a"}, ps)


PB_REPEATED = """\
META
key;value
num_projects;3
num_votes;6
budget;4
vote_type;approval
PROJECTS
project_id;cost
a;2
b;1
c;3
VOTES
voter_id;vote
1;a,b
2;c
3;a,b
4;b, a
5;c
6;a,b
"""


def test_parse_pabulib_with_repeated_ballots():
    inst = parse_pabulib(PB_REPEATED)
    ballots = [{"a", "b"}, {"c"}, {"a", "b"}, {"a", "b"}, {"c"}, {"a", "b"}]
    assert inst == Instance.create({"a": 2, "b": 1, "c": 3}, ballots, 4)
    assert inst.approval(1) is inst.approval(3)  # one set per vote string
    assert list(inst.ballot_types().values()) == [[1, 3, 4, 6], [2, 5]]


def test_rules_and_price_verification_leave_approver_sets_unbuilt(pool):
    """MES, Phragmen, MES extraction, price verification and the share
    function read approver counts from the ballot types; the per-voter
    approver sets are built only when a caller asks for one."""
    for ref in pool[:4]:
        inst = parse_pabulib(pabulib_text(ref.costs, ref.budget, ref.approvals))
        for mu in (cost_sat(inst), share_sat(inst)):
            w, trace = run_mes(inst, mu)
            assert set(inst.projects) - w  # C5 has projects to check
            verify_price_system(inst, w, extract_from_mes_trace(inst, trace))
        run_seq_phragmen(inst)
        assert inst._approvers is None
        for p in inst.projects:
            scan = [i for i in inst.voters if p in inst.approval(i)]
            assert list(inst.approvers(p)) == list(frozenset(sorted(scan)))


def test_unknown_project_names_the_lowest_offending_voter(pool):
    for seed, inst in enumerate(pool):
        rng = random.Random(seed)
        ballots = [set(inst.approval(i)) for i in inst.voters]
        for i in rng.sample(range(inst.n), 3):
            ballots[i].add("zz")
        lowest = min(i for i, b in enumerate(ballots, start=1) if "zz" in b)
        with pytest.raises(InstanceError, match=f"^voter {lowest} approves unknown"):
            Instance.create(dict(inst.costs), ballots, inst.budget)


def test_pjr_audits_leave_covered_demands_unenumerated():
    """A demand T inside W cannot fail PJR or Local-BPJR, so neither checker
    builds the group signatures of such a demand."""
    for seed in range(6):
        inst = clustered_instance(seed)
        mu = cardinality_sat(inst)
        w, _ = run_mes(inst, mu)
        covered = [d for d in demand_sets(inst) if d.t <= w]
        assert covered
        for check in (check_pjr, check_local_bpjr):
            check(inst, mu, w, max_m=64, max_n=10**6)
        assert not any("signatures" in d.__dict__ for d in covered)


# ---------------------------------------------------------------------------
# guard message


def _over_guard():
    """13 voters in 9 distinct ballots over 15 projects."""
    projects = [f"p{j}" for j in range(1, 16)]
    ballots = [{projects[k % 9]} for k in range(13)]
    return Instance.create(dict.fromkeys(projects, 1), ballots, 5)


GUARD_TEXT = ("instance size (13 voters in 9 distinct ballots, 15 projects, "
              "up to 2^15 demand sets x 9 ballots) exceeds guard ({n} voters, {m} projects)")


def test_guard_message_names_ballots_and_limits():
    inst = _over_guard()
    with pytest.raises(GuardExceededError) as exc:
        check_ejr(inst, cost_sat(inst), set())
    assert str(exc.value) == GUARD_TEXT.format(n=14, m=14)
    with pytest.raises(GuardExceededError) as exc:
        check_pjr1(inst, cost_sat(inst), set())
    assert str(exc.value) == GUARD_TEXT.format(n=12, m=12)
    with pytest.raises(GuardExceededError) as exc:
        run_gcr(inst, cost_sat(inst), max_m=20)
    assert str(exc.value) == GUARD_TEXT.format(n=12, m=20)


def test_audit_reports_the_guard_message(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(emit_json(_over_guard()))
    assert main(["audit", "--axiom", "ejr", str(path), "p1"]) == 3
    out, err = capsys.readouterr()
    text = GUARD_TEXT.format(n=14, m=14)
    assert f'"ejr": "{text}"' in out
    assert f"ejr: guard exceeded ({text})" in err
