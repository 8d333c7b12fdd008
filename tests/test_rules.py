import heapq
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbprop
from conftest import make_instance
from oracles import (
    eager_maximin,
    eager_mes,
    eager_min_rho,
    eager_phragmen,
    fraction_balance_loads,
    max_load_oracle,
)
from pbprop import rules
from pbprop.errors import CapabilityError, GuardExceededError, InvariantError
from pbprop.maxflow import FlowNetwork
from pbprop.model import GenParams, Instance, InstanceError, generate_random
from pbprop.pricing import extract_from_maximin_trace, extract_from_phragmen_trace
from pbprop.repro import best_outcome_example, shared_big_project_example
from pbprop.rules import (
    balance_loads,
    min_rho,
    run_gcr,
    run_maximin_support,
    run_mes,
    run_seq_phragmen,
)
from pbprop.satisfaction import (
    BUILTINS,
    SatisfactionFunction,
    cardinality_sat,
    cc_sat,
    cost_sat,
    table_sat,
)
from test_ballot_types import clustered_instance


# ---------------------------------------------------------------------------
# min_rho


def budget_rho(inst, budgets, mu, p):
    """min_rho on the histogram of p's supporters' budgets, each scaled to
    their least common denominator."""
    held = [budgets[i] for i in inst.approvers(p)]
    den = lcm(*(b.denominator for b in held))
    per = Counter(b.numerator * (den // b.denominator) for b in held)
    return min_rho(per, den, inst.costs[p], mu.per_project[p])


def test_min_rho_shared_project(shared_big_project):
    inst = shared_big_project
    budgets = {1: Fraction(3, 2), 2: Fraction(3, 2)}
    assert budget_rho(inst, budgets, cost_sat(inst), "p1") == Fraction(1, 2)


def test_min_rho_single_supporter_exact_budget():
    inst = Instance.create({"a": 2}, [{"a"}], 2)
    assert budget_rho(inst, {1: Fraction(2)}, cost_sat(inst), "a") == 1


def test_min_rho_unaffordable():
    inst = Instance.create({"a": 5, "b": 1}, [{"a", "b"}], 6)
    assert budget_rho(inst, {1: Fraction(3)}, cost_sat(inst), "a") is None


def test_min_rho_uneven_budgets():
    inst = Instance.create({"a": 4}, [{"a"}, {"a"}, {"a"}], 6)
    budgets = {1: Fraction(1, 2), 2: Fraction(2), 3: Fraction(3)}
    rho = budget_rho(inst, budgets, cost_sat(inst), "a")
    # voter 1 pays 1/2 in full, the others pay 4*rho each
    assert rho == Fraction(7, 16)
    assert sum(min(b, rho * 4) for b in budgets.values()) == 4


def test_min_rho_is_minimal_solution():
    inst = Instance.create({"a": 3}, [{"a"}, {"a"}], 10)
    budgets = {1: Fraction(1), 2: Fraction(4)}
    rho = budget_rho(inst, budgets, cost_sat(inst), "a")
    assert sum(min(b, rho * 3) for b in budgets.values()) == 3
    smaller = rho - Fraction(1, 1000)
    assert sum(min(b, smaller * 3) for b in budgets.values()) < 3


def test_min_rho_capability_errors(shared_big_project):
    # MES reads every candidate's value before its first rho walk and names
    # the first candidate, in project order, whose value is missing or 0
    inst = shared_big_project
    for values, bad in (({"p1": 3, "p3": 1}, "p2"),
                        ({"p1": 0, "p2": 1, "p3": 1}, "p1"),
                        ({"p1": 3, "p3": 0}, "p2")):
        mu = SatisfactionFunction("table", {p: Fraction(v) for p, v in values.items()})
        with pytest.raises(CapabilityError,
                           match=f"no positive satisfaction value for project '{bad}'"):
            run_mes(inst, mu)


@settings(max_examples=60, deadline=None)
@given(
    cost=st.integers(1, 12),
    # units over 31, 37 or 41 share no factor with any budget denominator
    unit=st.one_of(st.fractions(min_value=Fraction(1, 4), max_value=4),
                   st.builds(Fraction, st.integers(8, 160), st.sampled_from((31, 37, 41)))),
    budgets=st.lists(st.fractions(min_value=0, max_value=5, max_denominator=30),
                     min_size=1, max_size=7),
)
def test_min_rho_matches_voter_by_voter_walk(cost, unit, budgets):
    # repeated budget values exercise the grouped ladder levels
    inst = Instance.create({"a": cost}, [{"a"}] * len(budgets), 1)
    by_voter = dict(zip(inst.voters, budgets))
    mu = table_sat({"a": unit})
    assert budget_rho(inst, by_voter, mu, "a") == eager_min_rho(inst, by_voter, mu, "a")


def test_run_mes_evaluates_rho_through_min_rho(cross_check_pool, monkeypatch):
    # profilers patch rules.min_rho by name, so run_mes must look it up there
    # at every evaluation: the first call of a run patches in a second walk,
    # which a run holding the first under a name of its own never reaches
    cases = [(inst, BUILTINS[sat](inst))
             for inst in cross_check_pool[:12] + cross_check_pool[90:96]
             for sat in ("cost", "card")]
    runs = [run_mes(inst, mu) for inst, mu in cases]
    calls = []

    def later(*args):
        calls.append("later")
        return min_rho(*args)

    def first(*args):
        calls.append("first")
        monkeypatch.setattr(rules, "min_rho", later)
        return min_rho(*args)

    patched = []
    for inst, mu in cases:
        monkeypatch.setattr(rules, "min_rho", first)
        patched.append(run_mes(inst, mu))
    assert patched == runs
    assert calls.count("first") == len(cases)
    assert "later" in calls
    assert len(calls) >= sum(len(trace.selections) for _, trace in runs)


# ---------------------------------------------------------------------------
# MES


def test_mes_cost_vs_cardinality(shared_big_project):
    inst = shared_big_project
    w, tr = run_mes(inst, cost_sat(inst))
    assert w == frozenset({"p1"})
    assert tr.selections == [(1, "p1", Fraction(1, 2))]
    assert tr.delta == 1
    w2, tr2 = run_mes(inst, cardinality_sat(inst))
    assert w2 == frozenset({"p2", "p3"})
    assert tr2.delta == 2


def test_mes_single_voter_prefers_value_per_money():
    inst = best_outcome_example()
    w, _ = run_mes(inst, cost_sat(inst))
    assert w == frozenset({"p1"})
    w2, _ = run_mes(inst, cardinality_sat(inst))
    assert w2 == frozenset({"p2", "p3", "p4", "p5"})


def test_mes_trace_invariants():
    for seed in range(25):
        inst = make_instance(seed)
        for mu in (cost_sat(inst), cardinality_sat(inst)):
            w, tr = run_mes(inst, mu)
            assert inst.total_cost(w) <= inst.budget
            assert tr.exhaustive == inst.is_exhaustive(w)
            share = inst.budget / inst.n
            spent = {i: Fraction(0) for i in inst.voters}
            for p, charges in tr.payments.items():
                assert sum(charges.values(), Fraction(0)) == inst.costs[p]
                for i, amount in charges.items():
                    assert amount > 0
                    assert p in inst.approval(i)
                    spent[i] += amount
            assert all(s <= share for s in spent.values())
            if tr.delta is not None:
                assert tr.delta > 0


def test_mes_tie_break():
    inst = Instance.create({"a": 1, "b": 1}, [{"a", "b"}], 1)
    w, _ = run_mes(inst, cost_sat(inst), tie="lex")
    assert w == frozenset({"a"})
    w, _ = run_mes(inst, cost_sat(inst), tie="reverse")
    assert w == frozenset({"b"})


def test_mes_rejects_non_additive(shared_big_project):
    with pytest.raises(CapabilityError):
        run_mes(shared_big_project, cc_sat())


# ---------------------------------------------------------------------------
# Sequential Phragmen


def test_phragmen_blocks_at_shared_project(shared_big_project):
    inst = shared_big_project
    w, tr = run_seq_phragmen(inst)
    assert w == frozenset({"p2", "p3"})
    assert tr.selections == [(1, "p2", Fraction(1)), (2, "p3", Fraction(1))]
    assert tr.blocking == ("p1", Fraction(5, 2))
    assert tr.payments == {"p2": {1: Fraction(1)}, "p3": {2: Fraction(1)}}


def test_phragmen_verbatim_break_vs_skip():
    # the cheap project d would still fit, but the blocking candidate a
    # reaches the minimum load first and ends the verbatim run
    inst = Instance.create(
        {"a": 6, "b": 3, "c": 3, "d": 1},
        [{"a", "b", "d"}, {"a", "c"}, {"a", "b", "c"}],
        7,
    )
    w, tr = run_seq_phragmen(inst)
    assert tr.blocking is not None
    blocked, _ = tr.blocking
    w2, tr2 = run_seq_phragmen(inst, skip_blocked=True)
    assert tr2.blocking is None
    assert blocked in tr2.skipped
    assert w <= w2 and inst.total_cost(w2) <= inst.budget


def test_phragmen_loads_equal_payments():
    for seed in range(25):
        inst = make_instance(seed)
        w, tr = run_seq_phragmen(inst)
        assert inst.total_cost(w) <= inst.budget
        totals = {i: Fraction(0) for i in inst.voters}
        for p, charges in tr.payments.items():
            assert sum(charges.values(), Fraction(0)) == inst.costs[p]
            for i, amount in charges.items():
                assert p in inst.approval(i)
                totals[i] += amount
        assert totals == eager_phragmen(inst)[2]
        # selection loads are nondecreasing round over round
        values = [v for _, _, v in tr.selections]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# Load balancing and maximin support


def test_balance_loads_example(shared_big_project):
    a = balance_loads(shared_big_project, {"p1", "p2", "p3"})
    assert a.max_load == Fraction(5, 2)
    totals = {}
    for per_voter in a.loads.values():
        for i, amount in per_voter.items():
            totals[i] = totals.get(i, 0) + amount
    assert totals == {1: Fraction(5, 2), 2: Fraction(5, 2)}


def test_balance_loads_empty_and_errors(shared_big_project):
    assert balance_loads(shared_big_project, set()).max_load == 0
    inst = Instance.create({"a": 1, "b": 1}, [{"a"}], 2)
    with pytest.raises(InstanceError):
        balance_loads(inst, {"b"})  # no approvers


def test_balance_loads_matches_subset_oracle():
    for seed in range(40):
        inst = make_instance(seed, max_n=5, max_m=6)
        w = [p for p in inst.projects if inst.approvers(p)]
        if not w:
            continue
        a = balance_loads(inst, w)
        assert a.max_load == max_load_oracle(inst, w)
        for p in w:
            per = a.loads.get(p, {})
            assert sum(per.values(), Fraction(0)) == inst.costs[p]
            assert all(p in inst.approval(i) for i in per)


def test_maximin_support_example(shared_big_project):
    inst = shared_big_project
    w, tr = run_maximin_support(inst)
    assert w == frozenset({"p2", "p3"})
    assert tr.blocking == ("p1", Fraction(5, 2))
    blocked = balance_loads(inst, w | {"p1"})
    assert blocked.max_load == Fraction(5, 2)
    # blocked configuration loads cover all three projects exactly
    for p in ("p1", "p2", "p3"):
        paid = sum(blocked.loads[p].values(), Fraction(0))
        assert paid == inst.costs[p]


def test_maximin_round_values_are_balanced_optima():
    for seed in range(15):
        inst = make_instance(seed, max_n=4, max_m=5)
        w, tr = run_maximin_support(inst)
        assert inst.total_cost(w) <= inst.budget
        chosen = []
        for _, p, value in tr.selections:
            chosen.append(p)
            assert balance_loads(inst, chosen).max_load == value


# ---------------------------------------------------------------------------
# Greedy cohesive rule


def test_gcr_single_voter(shared_big_project):
    inst = best_outcome_example()
    assert run_gcr(inst, cost_sat(inst)) == frozenset({"p1"})
    assert run_gcr(inst, cardinality_sat(inst)) == frozenset(
        {"p2", "p3", "p4", "p5"}
    )


def test_gcr_respects_groups():
    # two camps of equal size each deserve their half of the budget
    inst = Instance.create(
        {"a": 2, "b": 2, "c": 1},
        [{"a"}, {"a"}, {"b", "c"}, {"b", "c"}],
        4,
    )
    w = run_gcr(inst, cost_sat(inst))
    assert "a" in w and "b" in w


def test_gcr_supports_cc():
    inst = Instance.create({"a": 1, "b": 1}, [{"a"}, {"b"}], 2)
    w = run_gcr(inst, cc_sat())
    assert w  # coverage value 1 per granted set still drives selection


def test_gcr_tie_breaking():
    # {a} and {b} are both worth 1 and only one fits the budget
    inst = Instance.create({"a": 1, "b": 1}, [{"a", "b"}], 1)
    mu = cardinality_sat(inst)
    assert run_gcr(inst, mu, tie="lex") == frozenset({"a"})
    assert run_gcr(inst, mu, tie="reverse") == frozenset({"b"})


def test_gcr_guard():
    inst = make_instance(0, max_n=3, max_m=5)
    with pytest.raises(GuardExceededError):
        run_gcr(inst, cost_sat(inst), max_m=2)


def test_gcr_outcome_feasible_random():
    for seed in range(20):
        inst = make_instance(seed, max_n=5, max_m=6)
        w = run_gcr(inst, cost_sat(inst))
        assert inst.total_cost(w) <= inst.budget


# ---------------------------------------------------------------------------
# Lazy class-based MES and Phragmen against the eager per-voter references


def tie_heavy_instance(seed):
    """Few distinct costs and a few repeated ballots, so values tie often."""
    rng = random.Random(seed)
    projects = [f"p{j}" for j in range(rng.randint(2, 7))]
    costs = {p: rng.choice((2, 2, 4)) for p in projects}
    bundles = [rng.sample(projects, rng.randint(1, len(projects)))
               for _ in range(rng.randint(1, 3))]
    ballots = [rng.choice(bundles) for _ in range(rng.randint(1, 10))]
    return Instance.create(costs, ballots, rng.randint(2, sum(costs.values())))


@pytest.fixture(scope="module")
def cross_check_pool():
    return (
        [make_instance(seed) for seed in range(60)]
        + [make_instance(seed, unit_cost=True) for seed in range(30)]
        + [tie_heavy_instance(seed) for seed in range(90)]
    )


def _same_run(run, reference, fields):
    assert run[0] == reference[0]
    for name in fields:
        assert getattr(run[1], name) == getattr(reference[1], name), name


@pytest.mark.parametrize("tie", ["lex", "reverse"])
@pytest.mark.parametrize("sat", ["cost", "card", "sqrt", "log", "share"])
def test_mes_matches_eager_reference(cross_check_pool, sat, tie):
    fields = ("selections", "payments", "delta", "exhaustive")
    for inst in cross_check_pool:
        mu = BUILTINS[sat](inst)
        _same_run(run_mes(inst, mu, tie=tie), eager_mes(inst, mu, tie=tie), fields)


@pytest.mark.parametrize("skip_blocked", [False, True])
@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_phragmen_matches_eager_reference(cross_check_pool, tie, skip_blocked):
    fields = ("selections", "payments", "blocking", "skipped", "exhaustive")
    for inst in cross_check_pool:
        _same_run(
            run_seq_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            eager_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            fields,
        )


def growth_instance(seed):
    """Costs over 7, 11 or 13, a budget share with an odd denominator and
    table units like 3/7: the rules' common denominator of the class values
    must grow in many rounds."""
    rng = random.Random(seed)
    projects = [f"p{j}" for j in range(rng.randint(3, 9))]
    costs = {p: Fraction(rng.randint(5, 60), rng.choice((7, 11, 13))) for p in projects}
    bundles = [rng.sample(projects, rng.randint(1, len(projects)))
               for _ in range(rng.randint(2, 6))]
    ballots = [rng.choice(bundles) for _ in range(rng.choice((3, 5, 7, 9, 11, 13)))]
    den = rng.choice((3, 5, 9))
    total = sum(costs.values())
    budget = Fraction(rng.randint(int(total * den * 3 / 10), int(total * den * 8 / 10)), den)
    inst = Instance.create(costs, ballots, budget)
    units = {p: Fraction(rng.randint(1, 9), rng.choice((1, 7, 11, 13))) for p in projects}
    return inst, table_sat(units)


@pytest.fixture(scope="module")
def growth_pool():
    pool = [growth_instance(seed) for seed in range(40)]
    assert all((inst.budget / inst.n).denominator % 2 for inst, _ in pool)
    for seed in range(12):
        inst = clustered_instance(seed)
        units = {p: Fraction(3 + k, (7, 11, 13)[k % 3]) for k, p in enumerate(inst.projects)}
        pool.append((inst, table_sat(units)))
    return pool


@pytest.fixture
def checked_classes(monkeypatch):
    """After every move, the table must hold one scaled int per ballot type,
    each reading over the common denominator as its new value (or as its old
    one, off the selected project), and each project's histogram of scaled
    values and their sum must equal a recount over its approvers, voter by
    voter. A project whose histogram changed from the one before, rescaled
    to the new denominator, must be stale. The denominator must grow only to
    the lcm of the new values' reduced denominators. Records, per move,
    whether it grew."""
    grew = []
    init, move = rules._VoterClasses.__init__, rules._VoterClasses.move

    def keep_instance(classes, inst, start):
        init(classes, inst, start)
        classes.checked_inst = inst

    def checked(classes, p, new_value, scale):
        inst, den, old = classes.checked_inst, classes.den, list(classes.scaled)
        type_of = {ballot: t for t, ballot in enumerate(classes.ballots)}

        def recount(q):
            values = [classes.scaled[type_of[inst.approval(i)]] for i in inst.approvers(q)]
            return dict(Counter(values)), sum(values)

        before = {q: recount(q)[0] for q in inst.projects}
        move(classes, p, new_value, scale)
        # the common denominator grows only to the lcm of the reduced values
        assert classes.den == lcm(den, *(Fraction(v, scale).denominator
                                         for v in new_value.values())), p
        grow = classes.den // den
        assert len(classes.scaled) == len(inst.ballot_types()), p
        for t, s in enumerate(classes.scaled):
            want = (Fraction(new_value[old[t]], scale) if p in classes.ballots[t]
                    else Fraction(old[t], den))
            assert Fraction(s, classes.den) == want, (p, t)
        for q in inst.projects:
            histogram, held = recount(q)
            assert classes.histogram(q) == histogram, (p, q)
            assert classes.held(q) == held, (p, q)
            rescaled = {s * grow: k for s, k in before[q].items()}
            assert histogram == rescaled or q in classes.stale, (p, q)
        grew.append(grow != 1)

    monkeypatch.setattr(rules._VoterClasses, "__init__", keep_instance)
    monkeypatch.setattr(rules._VoterClasses, "move", checked)
    return grew


@pytest.mark.parametrize("tie", ["lex", "reverse"])
@pytest.mark.parametrize("sat", ["cost", "card", "sqrt", "log", "share", "table"])
def test_mes_matches_eager_as_the_denominator_grows(growth_pool, checked_classes,
                                                     sat, tie):
    fields = ("selections", "payments", "delta", "exhaustive")
    for inst, table in growth_pool:
        mu = table if sat == "table" else BUILTINS[sat](inst)
        _same_run(run_mes(inst, mu, tie=tie), eager_mes(inst, mu, tie=tie), fields)
    assert sum(checked_classes) > 80  # moves that grew the denominator


@pytest.mark.parametrize("skip_blocked", [False, True])
@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_phragmen_matches_eager_as_the_denominator_grows(growth_pool, checked_classes,
                                                         tie, skip_blocked):
    fields = ("selections", "payments", "blocking", "skipped", "exhaustive")
    for inst, _ in growth_pool:
        _same_run(
            run_seq_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            eager_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            fields,
        )
    assert sum(checked_classes) > 80  # moves that grew the denominator


def test_balance_loads_matches_fraction_flow_oracle():
    """Integer-scaled flows give the same loads, in the same order, and the
    same max load as Edmonds-Karp on Fraction capacities."""
    pool = (
        [make_instance(seed) for seed in range(60)]
        + [generate_random(GenParams(n, 7, density=0.4, denominator=den), seed)
           for den in (2, 3, 7) for seed in range(10) for n in (4, 12)]
        + [tie_heavy_instance(seed) for seed in range(60)]
    )
    checked = 0
    for k, inst in enumerate(pool):
        rng = random.Random(k)
        approved = [p for p in inst.projects if inst.approvers(p)]
        for size in sorted({1, len(approved) // 2, len(approved)} - {0}):
            w = rng.sample(approved, size)
            got, want = balance_loads(inst, w), fraction_balance_loads(inst, w)
            assert got == want, (k, w)
            assert [list(per.items()) for per in got.loads.values()] == \
                [list(per.items()) for per in want.loads.values()]
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_maximin_matches_eager_reference(cross_check_pool, tie):
    fields = ("selections", "payments", "blocking", "exhaustive")
    for inst in cross_check_pool:
        _same_run(run_maximin_support(inst, tie=tie), eager_maximin(inst, tie=tie),
                  fields)


@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_phragmen_extraction_budget_is_n_times_the_largest_load(cross_check_pool,
                                                                growth_pool, tie):
    # B = n * t: the eager loads, with the blocked project's approvers
    # raised to its load t, peak at t
    blocked = 0
    for inst in cross_check_pool + [inst for inst, _ in growth_pool]:
        _, trace = run_seq_phragmen(inst, tie=tie)
        if trace.blocking is None:
            continue
        _, _, loads = eager_phragmen(inst, tie=tie)
        p, t = trace.blocking
        loads.update(dict.fromkeys(inst.approvers(p), t))
        budget = extract_from_phragmen_trace(inst, trace).budget
        assert budget == inst.n * max(loads.values()), (inst, p)
        blocked += 1
    assert blocked >= 150


@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_maximin_extraction_budget_is_n_times_the_blocked_max_load(cross_check_pool,
                                                                   growth_pool, tie):
    # the eager reference takes seconds on each clustered instance of the
    # growth pool, so only the growth pool's small instances run here
    blocked = 0
    for inst in cross_check_pool + [inst for inst, _ in growth_pool if inst.n < 100]:
        _, trace = run_maximin_support(inst, tie=tie)
        if trace.blocking is None:
            continue
        _, _, blocked_loads = eager_maximin(inst, tie=tie)
        budget = extract_from_maximin_trace(inst, trace).budget
        assert budget == inst.n * blocked_loads.max_load, (inst, trace.blocking)
        blocked += 1
    assert blocked >= 150


@pytest.mark.parametrize("rule", ["phragmen", "phragmen-skip", "maximin"])
def test_trace_payments_are_positive(cross_check_pool, rule):
    # price extraction copies trace payments as they are, zeros included
    for inst in cross_check_pool:
        if rule == "maximin":
            w, tr = run_maximin_support(inst)
        else:
            w, tr = run_seq_phragmen(inst, skip_blocked=rule == "phragmen-skip")
        assert set(tr.payments) == set(w)
        for p, charges in tr.payments.items():
            assert sum(charges.values(), Fraction(0)) == inst.costs[p]
            for i, amount in charges.items():
                assert amount > 0
                assert p in inst.approval(i)


def test_maximin_rebalances_no_more_than_eager(cross_check_pool, monkeypatch):
    # Every score of a candidate set, the lazy rule's and each eager
    # balance_loads call's, is one _max_ratio call. The lazy rule balances
    # loads once, for the configuration that ends the run, at the value it
    # already holds, so that call computes no score.
    scores, balanced = [], []
    score, balance = rules._max_ratio, rules.balance_loads

    def counted_score(*args):
        scores.append(args[1])
        return score(*args)

    def counted_balance(*args, **kwargs):
        balanced.append(args[1])
        return balance(*args, **kwargs)

    monkeypatch.setattr(rules, "_max_ratio", counted_score)
    monkeypatch.setattr(rules, "balance_loads", counted_balance)
    lazy_total = eager_total = 0
    for inst in cross_check_pool:
        scores.clear()
        balanced.clear()
        w, _ = run_maximin_support(inst)
        lazy = len(scores)
        assert len(balanced) == (1 if w else 0)
        scores.clear()
        eager_maximin(inst)
        assert lazy <= len(scores)
        lazy_total += lazy
        eager_total += len(scores)
    assert lazy_total < eager_total / 2


def _ratio(inst, s):
    return sum((inst.costs[p] for p in s), Fraction(0)) / len(
        frozenset().union(*(inst.approvers(p) for p in s)))


def test_max_ratio_matches_subset_oracle_and_balanced_loads(cross_check_pool):
    """The score over ballot types equals the subset oracle and the
    per-voter balanced max load, with or without starting guesses, on
    tie-heavy instances and on instances with many repeated ballots."""
    pool = cross_check_pool + [clustered_instance(seed) for seed in range(8)]
    checked = raised = 0
    for k, inst in enumerate(pool):
        rng = random.Random(k)
        approved = [p for p in inst.projects if inst.approvers(p)]
        for size in sorted({1, 2, len(approved) // 2, len(approved)} - {0}):
            w = sorted(rng.sample(approved, min(size, len(approved))))
            value, dense = rules._max_ratio(inst, w)
            assert value == max_load_oracle(inst, w) == balance_loads(inst, w).max_load
            assert dense and dense <= set(w) and _ratio(inst, dense) == value
            start = frozenset(rng.sample(w, rng.randint(1, len(w))))
            guesses = [frozenset(rng.sample(w, rng.randint(1, len(w)))) for _ in range(2)]
            again, dense = rules._max_ratio(inst, w, (_ratio(inst, start), start), guesses)
            assert again == value and _ratio(inst, dense) == value
            checked += 1
        unapproved = [p for p in inst.projects if not inst.approvers(p)]
        if unapproved and approved:
            w = sorted([approved[0], unapproved[0]])
            with pytest.raises(InstanceError, match=f"project {unapproved[0]!r} in the outcome "
                                                    "has no approvers"):
                rules._max_ratio(inst, w)
            raised += 1
    assert checked > 500 and raised > 5


def test_max_ratio_refuses_a_cut_that_does_not_raise_the_cap(monkeypatch):
    # N({a}) = {1} has ratio 2 above c(w)/|N(w)| = 1, so the greedy fill
    # fails at cap 1; a flow that carries nothing cuts off all of w, whose
    # ratio is the cap itself
    inst = Instance.create({"a": 2, "b": 1}, [{"a"}, {"b"}, {"b"}], 3)
    assert rules._max_ratio(inst, ["a", "b"]) == (2, frozenset({"a"}))

    def no_flow(net, s, t):
        net.labels = [-1] * net.n
        net.labels[s] = -2
        return 0

    monkeypatch.setattr(FlowNetwork, "max_flow", no_flow)
    with pytest.raises(InvariantError, match="the min cut did not raise the load cap"):
        rules._max_ratio(inst, ["a", "b"])
    with pytest.raises(InvariantError, match="balanced loads do not carry the costs"):
        balance_loads(inst, ["a", "b"], max_load=Fraction(2))


# Each consistency check of the rules and the LP, broken on purpose; the
# script prints the name of every check that still raised InvariantError.
_BROKEN_INVARIANTS = """
from fractions import Fraction
from pbprop import lp, rules
from pbprop.errors import InvariantError
from pbprop.maxflow import FlowNetwork
from pbprop.model import Instance
from pbprop.satisfaction import cost_sat

inst = Instance.create({"a": 2, "b": 1}, [{"a", "b"}, {"a"}], 3)
pop_ties = rules._pop_ties


def underpriced(heap, stale, evaluate):
    best, tied = pop_ties(heap, stale, evaluate)
    return (None if best is None else best / 2), tied


def no_flow(net, s, t):
    net.labels = [-1] * net.n  # only the source is reached
    net.labels[s] = -2
    return 0


def broken_checks():
    rules._pop_ties = underpriced
    yield "mes", lambda: rules.run_mes(inst, cost_sat(inst))
    yield "phragmen", lambda: rules.run_seq_phragmen(inst)
    rules._pop_ties = pop_ties
    FlowNetwork.max_flow = no_flow
    yield "balance_loads", lambda: rules.balance_loads(inst, {"a"})
    lp._run = lambda *args: ("unbounded", None)
    yield "lp", lambda: lp.solve_lp(1, {0: Fraction(1)}, [({0: Fraction(1)}, Fraction(1))])


for name, call in broken_checks():
    try:
        call()
    except InvariantError:
        print(name)
"""


def test_invariant_checks_survive_python_O():
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["mes", "phragmen", "balance_loads", "lp"]


# ---------------------------------------------------------------------------
# The selection heap


def tuple_pop_ties(heap, stale, evaluate):
    """``rules._pop_ties`` on a heap of (value, id) tuples, the reference
    for the order of its keys."""
    best, tied = None, []
    while heap and (best is None or heap[0][0] == best):
        key, p = heapq.heappop(heap)
        if p in stale:
            stale.discard(p)
            value = evaluate(p)
            if value is not None:
                heapq.heappush(heap, (value, p))
        else:
            best = key
            tied.append(p)
    return best, tied


HEAP_VALUES = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6)
    | st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_heap_keys_order_as_value_id_tuples(data):
    # few values shared by many ids give ties; the big ones overflow any word
    values = data.draw(HEAP_VALUES)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(values), st.text("abcd", max_size=3)),
                               unique_by=lambda pair: pair[1], max_size=25))
    heap = [rules._Key(v, p) for v, p in pairs]
    heapq.heapify(heap)
    popped = [heapq.heappop(heap) for _ in pairs]
    assert [(key.value, key.p) for key in popped] == sorted(pairs)

    # a stale project rises by its delta when it reaches the top, or drops out
    raised = {}
    for v, p in pairs:
        if data.draw(st.booleans()):
            delta = data.draw(st.sampled_from((None, 0, Fraction(1, 3), 10**30)))
            raised[p] = None if delta is None else v + delta
    keys = [rules._Key(v, p) for v, p in pairs]
    tuples = list(pairs)
    heapq.heapify(keys)
    heapq.heapify(tuples)
    stale_keys, stale_tuples = set(raised), set(raised)
    while True:
        got = rules._pop_ties(keys, stale_keys, raised.get)
        want = tuple_pop_ties(tuples, stale_tuples, raised.get)
        assert got == want
        if not got[1]:
            break
        for p in got[1][1:]:  # as _select pushes back the ties it does not pick
            heapq.heappush(keys, rules._Key(got[0], p))
            heapq.heappush(tuples, (want[0], p))
    assert not keys and not tuples


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 3000))
def test_rules_deterministic(seed):
    inst = make_instance(seed, max_n=4, max_m=6)
    mu = cardinality_sat(inst)
    assert run_mes(inst, mu)[0] == run_mes(inst, mu)[0]
    assert run_seq_phragmen(inst)[0] == run_seq_phragmen(inst)[0]
    assert run_maximin_support(inst)[0] == run_maximin_support(inst)[0]
