import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbprop
from conftest import make_instance
from oracles import eager_mes, eager_min_rho, eager_phragmen, max_load_oracle
from pbprop.errors import CapabilityError, GuardExceededError
from pbprop.model import Instance, InstanceError
from pbprop.repro import best_outcome_example, shared_big_project_example
from pbprop.rules import (
    balance_loads,
    min_rho,
    run_gcr,
    run_maximin_support,
    run_mes,
    run_seq_phragmen,
)
from pbprop.satisfaction import BUILTINS, cardinality_sat, cc_sat, cost_sat, table_sat


# ---------------------------------------------------------------------------
# min_rho


def test_min_rho_shared_project(shared_big_project):
    inst = shared_big_project
    budgets = {1: Fraction(3, 2), 2: Fraction(3, 2)}
    assert min_rho(inst, budgets, cost_sat(inst), "p1") == Fraction(1, 2)


def test_min_rho_single_supporter_exact_budget():
    inst = Instance.create({"a": 2}, [{"a"}], 2)
    assert min_rho(inst, {1: Fraction(2)}, cost_sat(inst), "a") == 1


def test_min_rho_unaffordable():
    inst = Instance.create({"a": 5, "b": 1}, [{"a", "b"}], 6)
    assert min_rho(inst, {1: Fraction(3)}, cost_sat(inst), "a") is None


def test_min_rho_uneven_budgets():
    inst = Instance.create({"a": 4}, [{"a"}, {"a"}, {"a"}], 6)
    budgets = {1: Fraction(1, 2), 2: Fraction(2), 3: Fraction(3)}
    rho = min_rho(inst, budgets, cost_sat(inst), "a")
    # voter 1 pays 1/2 in full, the others pay 4*rho each
    assert rho == Fraction(7, 16)
    assert sum(min(b, rho * 4) for b in budgets.values()) == 4


def test_min_rho_is_minimal_solution():
    inst = Instance.create({"a": 3}, [{"a"}, {"a"}], 10)
    budgets = {1: Fraction(1), 2: Fraction(4)}
    rho = min_rho(inst, budgets, cost_sat(inst), "a")
    assert sum(min(b, rho * 3) for b in budgets.values()) == 3
    smaller = rho - Fraction(1, 1000)
    assert sum(min(b, smaller * 3) for b in budgets.values()) < 3


def test_min_rho_capability_errors(shared_big_project):
    inst = shared_big_project
    budgets = {1: Fraction(1), 2: Fraction(1)}
    with pytest.raises(CapabilityError):
        min_rho(inst, budgets, cc_sat(), "p1")


@settings(max_examples=60, deadline=None)
@given(
    cost=st.integers(1, 12),
    unit=st.fractions(min_value=Fraction(1, 4), max_value=4),
    budgets=st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6),
                     min_size=1, max_size=7),
)
def test_min_rho_matches_voter_by_voter_walk(cost, unit, budgets):
    # repeated budget values exercise the grouped ladder levels
    inst = Instance.create({"a": cost}, [{"a"}] * len(budgets), 1)
    by_voter = dict(zip(inst.voters, budgets))
    mu = table_sat({"a": unit})
    assert min_rho(inst, by_voter, mu, "a") == eager_min_rho(inst, by_voter, mu, "a")


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
            assert inst.is_outcome(w)
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
        assert inst.is_outcome(w)
        totals = {i: Fraction(0) for i in inst.voters}
        for p, charges in tr.payments.items():
            assert sum(charges.values(), Fraction(0)) == inst.costs[p]
            for i, amount in charges.items():
                assert p in inst.approval(i)
                totals[i] += amount
        assert totals == tr.voter_loads
        # selection loads are nondecreasing round over round
        values = [v for _, _, v in tr.selections]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# Load balancing and maximin support


def test_balance_loads_example(shared_big_project):
    a = balance_loads(shared_big_project, {"p1", "p2", "p3"})
    assert a.max_load == Fraction(5, 2)
    totals = a.voter_totals()
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
    assert tr.blocking_loads is not None
    assert tr.blocking_loads.max_load == Fraction(5, 2)
    # blocked configuration loads cover all three projects exactly
    for p in ("p1", "p2", "p3"):
        paid = sum(tr.blocking_loads.loads[p].values(), Fraction(0))
        assert paid == inst.costs[p]


def test_maximin_round_values_are_balanced_optima():
    for seed in range(15):
        inst = make_instance(seed, max_n=4, max_m=5)
        w, tr = run_maximin_support(inst)
        assert inst.is_outcome(w)
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
        assert inst.is_outcome(w)


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
    fields = ("selections", "payments", "voter_budgets", "delta", "exhaustive",
              "mu_kind")
    for inst in cross_check_pool:
        mu = BUILTINS[sat](inst)
        _same_run(run_mes(inst, mu, tie=tie), eager_mes(inst, mu, tie=tie), fields)


@pytest.mark.parametrize("skip_blocked", [False, True])
@pytest.mark.parametrize("tie", ["lex", "reverse"])
def test_phragmen_matches_eager_reference(cross_check_pool, tie, skip_blocked):
    fields = ("selections", "payments", "voter_loads", "blocking", "skipped",
              "exhaustive")
    for inst in cross_check_pool:
        _same_run(
            run_seq_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            eager_phragmen(inst, tie=tie, skip_blocked=skip_blocked),
            fields,
        )


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
    return Fraction(0)


def broken_checks():
    rules._pop_ties = underpriced
    yield "mes", lambda: rules.run_mes(inst, cost_sat(inst))
    yield "phragmen", lambda: rules.run_seq_phragmen(inst)
    rules._pop_ties = pop_ties
    FlowNetwork.max_flow = no_flow
    FlowNetwork.reachable = lambda net, s: {s}
    yield "balance_loads", lambda: rules.balance_loads(inst, {"a"})
    lp._run = lambda *args: ("unbounded", None)
    yield "lp", lambda: lp.solve_lp([Fraction(1)], [[Fraction(1)]], [Fraction(1)])


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 3000))
def test_rules_deterministic(seed):
    inst = make_instance(seed, max_n=4, max_m=6)
    mu = cardinality_sat(inst)
    assert run_mes(inst, mu)[0] == run_mes(inst, mu)[0]
    assert run_seq_phragmen(inst)[0] == run_seq_phragmen(inst)[0]
    assert run_maximin_support(inst)[0] == run_maximin_support(inst)[0]
