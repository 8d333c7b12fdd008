import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_outcome
from oracles import (
    all_demand_sets,
    cost_of,
    naive_ejr_passes,
    naive_local_bpjr_passes,
    naive_pjr_passes,
    naive_pjrx_passes,
)
import pbprop
from pbprop import axioms
from pbprop.axioms import (
    AXIOM_CHECKERS,
    IMPLICATIONS,
    CohesiveWitness,
    Violation,
    _group_signatures,
    audit_all,
    check_ejr,
    check_ejr1,
    check_ejr1_plus,
    check_ejrx,
    check_local_bpjr,
    check_pjr,
    check_pjr1,
    check_pjrx,
    demand_sets,
    is_cohesive,
)
from pbprop.errors import GuardExceededError, InconsistentAuditError
from pbprop.model import Instance, InstanceError
from pbprop.repro import (
    single_voter_separation_example,
    table_mu_example,
    unit_cost_separation_example,
)
from pbprop.satisfaction import (
    cardinality_sat,
    cost_sat,
    voter_satisfaction,
)


# ---------------------------------------------------------------------------
# cohesiveness


def test_is_cohesive_basics(shared_big_project):
    inst = shared_big_project
    assert is_cohesive(inst, {"p1"}, {1, 2})
    assert not is_cohesive(inst, {"p1"}, {1})  # 3*2 > 1*3
    assert is_cohesive(inst, {"p2"}, {1})
    assert not is_cohesive(inst, {"p2"}, {2})  # voter 2 does not approve p2
    assert not is_cohesive(inst, set(), {1})
    assert not is_cohesive(inst, {"p1"}, set())


# ---------------------------------------------------------------------------
# example outcomes with frozen values


def test_table_example_representation_levels():
    inst, mu = table_mu_example()
    assert check_ejr(inst, mu, {"p1", "p5"}) is None
    assert check_ejr1(inst, mu, {"p2", "p3"}) is None
    v = check_ejrx(inst, mu, {"p2", "p3"})
    assert v is not None and v.lhs == Fraction(3, 10)
    assert check_ejr1(inst, mu, {"p1", "p4"}) is None
    v = check_ejrx(inst, mu, {"p1", "p4"})
    assert v is not None and v.lhs == Fraction(33, 10)


def test_pjr_vs_local_variant_separation():
    inst = unit_cost_separation_example()
    mu = cost_sat(inst)
    v = check_pjr(inst, mu, {"p3", "p4"})
    assert v is not None and v.witness.t == frozenset({"p1", "p2"})
    assert check_local_bpjr(inst, mu, {"p3", "p4"}) is None


def test_pjr1_vs_local_variant_separation():
    inst = single_voter_separation_example()
    mu = cost_sat(inst)
    assert check_pjr1(inst, mu, {"p1"}) is None
    v = check_local_bpjr(inst, mu, {"p1"})
    assert v is not None and dict(v.detail)["best_set"] == ("p1", "p2")


def test_empty_outcome_needs_no_representation_without_cohesion():
    inst = Instance.create({"a": 5}, [{"a"}], 1)  # nothing affordable
    for checker in AXIOM_CHECKERS.values():
        assert checker(inst, cost_sat(inst), set()) is None


def test_outcome_must_be_feasible():
    inst = Instance.create({"a": 2, "b": 2}, [{"a", "b"}], 3)
    with pytest.raises(InstanceError):
        check_ejr(inst, cost_sat(inst), {"a", "b"})


def test_checkers_read_a_one_shot_outcome_once(tiny_instances):
    # an outcome given as an iterator must be read as the set it yields
    inst = unit_cost_separation_example()
    cases = [(inst, cost_sat(inst), {"p1", "p2"})]
    cases += [(inst, mu, random_outcome(inst, k + 2000))
              for k, inst in enumerate(tiny_instances[:30])
              for mu in (cost_sat(inst), cardinality_sat(inst))]
    for inst, mu, w in cases:
        for checker in AXIOM_CHECKERS.values():
            assert checker(inst, mu, iter(w)) == checker(inst, mu, w)
        assert audit_all(inst, mu, iter(w)) == audit_all(inst, mu, w)


# ---------------------------------------------------------------------------
# violations are reproducible witnesses


def _recheck(inst, mu, w, v: Violation):
    t, group = v.witness.t, v.witness.group
    assert is_cohesive(inst, t, group)
    assert v.rhs == mu.value(t) or v.axiom == "localbpjr"
    if v.axiom == "ejr":
        assert all(
            voter_satisfaction(mu, inst, i, w) < v.rhs for i in group
        )
    elif v.axiom == "pjr":
        union = frozenset.union(*(inst.approval(i) for i in group))
        assert mu.value(frozenset(w) & union) == v.lhs < v.rhs
    elif v.axiom == "pjrx":
        union = frozenset.union(*(inst.approval(i) for i in group))
        p = dict(v.detail)["project"]
        assert p in t and p not in w
        assert mu.value((frozenset(w) & union) | {p}) == v.lhs <= v.rhs


def test_violations_reverify_on_random_outcomes(tiny_instances):
    seen = 0
    for k, inst in enumerate(tiny_instances):
        w = random_outcome(inst, k)
        mu = cardinality_sat(inst)
        for name in ("ejr", "pjr", "pjrx"):
            v = AXIOM_CHECKERS[name](inst, mu, w)
            if v is not None:
                seen += 1
                assert v.axiom == name
                _recheck(inst, mu, w, v)
    assert seen > 10  # random outcomes do trip the auditors


# ---------------------------------------------------------------------------
# oracle cross-validation


def test_checkers_agree_with_naive_oracles(tiny_instances):
    for k, inst in enumerate(tiny_instances[:40]):
        w = random_outcome(inst, k + 1000)
        for mu in (cost_sat(inst), cardinality_sat(inst)):
            assert (check_ejr(inst, mu, w) is None) == naive_ejr_passes(
                inst, mu, w
            )
            assert (check_pjr(inst, mu, w) is None) == naive_pjr_passes(
                inst, mu, w
            )
            assert (check_pjrx(inst, mu, w) is None) == naive_pjrx_passes(
                inst, mu, w
            )
            assert (check_local_bpjr(inst, mu, w) is None) == naive_local_bpjr_passes(
                inst, mu, w
            )


def test_demand_sets_match_oracle(tiny_instances, small_instances):
    for inst in tiny_instances + small_instances:
        expected = [
            t
            for t in all_demand_sets(inst)
            if len(frozenset.intersection(*(inst.approvers(p) for p in t)))
            * inst.budget
            >= inst.n * cost_of(inst, t)
        ]
        demands = demand_sets(inst)
        assert [d.t for d in demands] == expected
        for d in demands:
            approvers = [i for i in inst.voters if d.t <= inst.approval(i)]
            assert sorted(i for _, holders in d.types for i in holders) == approvers
            assert d.cost == cost_of(inst, d.t)
            # min_size is the smallest group whose budget share covers c(T)
            assert d.min_size * inst.budget >= inst.n * d.cost
            assert (d.min_size - 1) * inst.budget < inst.n * d.cost
        assert demand_sets(inst) is demands  # memoised on the instance


# Large coprime denominators, so that a money scale missing one of them, or
# an int comparison that drifts from the Fraction one, shows.
DENOMINATORS = (1, 7, 9973, 2**61 - 1)


@st.composite
def money_instances(draw):
    """An instance with costs over products of DENOMINATORS, whose budget is
    a random amount, the cost of a project set W, W's cost less one money
    unit (1/(e·L), e in DENOMINATORS and L the lcm of the cost
    denominators), or n·c(T)/|N_T| for a demanded set T, so that W fits
    exactly, W misses by one unit, or T is affordable with equality."""
    def amount():
        den = draw(st.sampled_from(DENOMINATORS)) * draw(st.sampled_from(DENOMINATORS))
        return Fraction(draw(st.integers(1, 4 * den)), den)

    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    projects = [f"p{j}" for j in range(1, m + 1)]
    costs = {p: amount() for p in projects}
    ballots = [draw(st.sets(st.sampled_from(projects), min_size=1)) for _ in range(n)]
    w = draw(st.sets(st.sampled_from(projects), min_size=1))
    t = draw(st.sets(st.sampled_from(projects), min_size=1))
    spent = sum(costs[p] for p in w)
    e = draw(st.sampled_from(DENOMINATORS[1:]))
    scale = math.lcm(*(c.denominator for c in costs.values()))
    budgets = [amount(), spent, spent - Fraction(1, e * scale)]
    if holders := sum(t <= ballot for ballot in ballots):
        budgets.append(n * sum(costs[p] for p in t) / holders)
    return Instance.create(costs, ballots, draw(st.sampled_from(budgets)))


@settings(max_examples=150, deadline=None)
@given(money_instances())
def test_money_scale_matches_fraction_sums(inst):
    subsets = [frozenset(s) for r in range(inst.m + 1)
               for s in itertools.combinations(sorted(inst.projects), r)]
    for s in subsets:
        cost = cost_of(inst, s)
        assert inst.total_cost(s) == cost
        if cost > inst.budget:
            with pytest.raises(InstanceError, match="^outcome exceeds the budget$"):
                inst.check_outcome(s)
            with pytest.raises(InstanceError, match="^outcome exceeds the budget$"):
                inst.is_exhaustive(s)
        else:
            assert inst.check_outcome(s) == s
            assert inst.is_exhaustive(s) == all(
                inst.costs[p] > inst.budget - cost for p in inst.projects if p not in s)
        if s:
            holders = [i for i in inst.voters if s <= inst.approval(i)]
            for group in (holders, holders[:1], list(inst.voters)):
                assert is_cohesive(inst, s, group) == (
                    bool(group) and set(group) <= set(holders)
                    and len(group) * inst.budget >= inst.n * cost)
    expected = [s for s in subsets if s and sum(s <= ballot for ballot in inst.approvals)
                * inst.budget >= inst.n * cost_of(inst, s)]
    demands = demand_sets(inst)
    assert [d.t for d in demands] == expected
    for d in demands:
        assert d.cost == cost_of(inst, d.t)
        assert d.min_size == math.ceil(inst.n * d.cost / inst.budget)


def test_group_signatures_cover_all_voter_subsets(tiny_instances):
    for inst in tiny_instances[:15]:
        voters = list(inst.voters)
        naive = set()
        for r in range(1, len(voters) + 1):
            for combo in itertools.combinations(voters, r):
                ballots = [inst.approval(i) for i in combo]
                naive.add(
                    (frozenset.intersection(*ballots),
                     frozenset.union(*ballots))
                )
        enumerated = {}
        for types, inter, union in _group_signatures(inst.ballot_types().items(), 1):
            enumerated[(inter, union)] = frozenset(i for _, holders in types for i in holders)
        assert set(enumerated) == naive
        # each representative group holds every voter with a matching ballot
        for (inter, union), group in enumerated.items():
            for i in voters:
                if inter <= inst.approval(i) <= union:
                    a = inst.approval(i)
                    if any(
                        a == inst.approval(j) for j in group
                    ):
                        assert i in group


# ---------------------------------------------------------------------------
# lattice and collapses


def test_audit_all_respects_implication_lattice(small_instances):
    for k, inst in enumerate(small_instances[:25]):
        w = random_outcome(inst, k)
        # audit_all itself asserts that no implication is broken
        report = audit_all(inst, cardinality_sat(inst), w)
        assert set(report.results) == set(AXIOM_CHECKERS)
        assert not report.guard_errors


def test_unit_cost_collapses():
    for seed in range(25):
        inst = make_instance(seed, max_n=5, max_m=6, unit_cost=True)
        w = random_outcome(inst, seed)
        mu = cardinality_sat(inst)
        ejr = check_ejr(inst, mu, w) is None
        assert (check_ejr1(inst, mu, w) is None) == ejr
        assert (check_ejrx(inst, mu, w) is None) == ejr
        pjr = check_pjr(inst, mu, w) is None
        assert (check_pjrx(inst, mu, w) is None) == pjr


# ---------------------------------------------------------------------------
# guards and audit plumbing


def test_guard_errors():
    inst = make_instance(2, max_n=4, max_m=6)
    with pytest.raises(GuardExceededError):
        check_ejr(inst, cost_sat(inst), set(), max_m=2)
    with pytest.raises(GuardExceededError):
        check_pjr1(inst, cost_sat(inst), set(), max_n=1)


def test_audit_all_collects_guard_errors():
    inst = Instance.create(
        {"a": 1}, [{"a"} for _ in range(13)], 13
    )  # 13 voters: over the stricter guards, under the laxer ones
    report = audit_all(inst, cost_sat(inst), {"a"})
    assert set(report.guard_errors) == {"pjr1", "localbpjr"}
    assert report.passed("ejr")


# ejr passing while ejrx fails breaks the implication lattice
_BROKEN_LATTICE = """
from fractions import Fraction
from pbprop.axioms import AXIOM_CHECKERS, CohesiveWitness, Violation, audit_all
from pbprop.model import Instance
from pbprop.satisfaction import cost_sat

inst = Instance.create({"a": 1}, [{"a"}], 1)
fake = Violation("ejrx", CohesiveWitness(frozenset({"a"}), frozenset({1})),
                 Fraction(0), Fraction(1))
AXIOM_CHECKERS["ejr"] = lambda *args, **kwargs: None
AXIOM_CHECKERS["ejrx"] = lambda *args, **kwargs: fake
audit_all(inst, cost_sat(inst), set(), ["ejr", "ejrx"])
"""


def test_audit_all_raises_on_broken_lattice(monkeypatch):
    # the script patches a throwaway copy of the checker table
    monkeypatch.setattr(axioms, "AXIOM_CHECKERS", dict(AXIOM_CHECKERS))
    with pytest.raises(InconsistentAuditError):
        exec(_BROKEN_LATTICE, {})
    # a typed error, not an assert, so the check survives python -O
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_LATTICE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "InconsistentAuditError" in proc.stderr


def test_audit_all_rejects_unknown_axiom(shared_big_project):
    with pytest.raises(ValueError):
        audit_all(
            shared_big_project, cost_sat(shared_big_project), set(), ["zzz"]
        )


def test_implications_mention_known_axioms_only():
    for strong, weak in IMPLICATIONS:
        assert strong in AXIOM_CHECKERS and weak in AXIOM_CHECKERS


def test_cohesive_witness_shape():
    w = CohesiveWitness(t=frozenset({"a"}), group=frozenset({1}))
    assert w.t == frozenset({"a"}) and w.group == frozenset({1})
