"""Voting rules with full execution traces.

Implements the Method of Equal Shares parameterized by an additive
satisfaction function, generalized sequential Phragmen, the maximin support
method (with exact min-max load balancing), and the Greedy Cohesive Rule.
All arithmetic is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .axioms import demand_sets
from .errors import CapabilityError, GuardExceededError
from .maxflow import FlowNetwork
from .model import Instance, InstanceError
from .satisfaction import SatisfactionFunction


def _pick(candidates: Iterable, tie: str):
    """Deterministic tie-breaking among equally good candidates."""
    if tie == "reverse":
        return max(candidates)
    return min(candidates)


@dataclass
class LoadAssignment:
    """Per-voter, per-project loads summing to each project's cost."""

    loads: dict[str, dict[int, Fraction]]  # project -> voter -> load
    max_load: Fraction

    def voter_totals(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for per_voter in self.loads.values():
            for i, amount in per_voter.items():
                totals[i] = totals.get(i, Fraction(0)) + amount
        return totals


@dataclass
class RuleTrace:
    """Execution record of a rule run.

    ``selections`` holds (round, project, value) where the value is the MES
    price-per-satisfaction rho, the Phragmen load t, or the maximin balanced
    max load. ``payments`` maps selected projects to per-voter charges.
    """

    rule: str
    selections: list[tuple[int, str, Fraction]] = field(default_factory=list)
    payments: dict[str, dict[int, Fraction]] = field(default_factory=dict)
    voter_budgets: dict[int, Fraction] | None = None
    budget_history: list[dict[int, Fraction]] = field(default_factory=list)
    voter_loads: dict[int, Fraction] | None = None
    delta: Fraction | None = None
    blocking: tuple[str, Fraction] | None = None
    blocking_loads: LoadAssignment | None = None
    skipped: list[str] = field(default_factory=list)
    exhaustive: bool | None = None
    mu_kind: str | None = None


def _additive_value(mu: SatisfactionFunction, p: str) -> Fraction:
    if not mu.additive or mu.per_project is None:
        raise CapabilityError(f"{mu.kind} is not additive; rule requires per-project values")
    value = mu.per_project.get(p)
    if value is None or value <= 0:
        raise CapabilityError(f"no positive satisfaction value for project {p!r}")
    return value


def min_rho(
    inst: Instance, budgets: Mapping[int, Fraction], mu: SatisfactionFunction, p: str
) -> Fraction | None:
    """Minimal rho at which p is affordable from the given voter budgets,
    i.e. the supporters' capped payments min(b_i, rho*mu(p)) sum to c(p).
    Returns None when the supporters cannot afford p at any rho."""
    unit = _additive_value(mu, p)
    supporters = sorted(inst.approvers(p))
    if not supporters:
        return None
    ladder = sorted(budgets[i] for i in supporters)
    cost = inst.costs[p]
    if sum(ladder) < cost:
        return None
    prefix = Fraction(0)
    count = len(ladder)
    for k in range(count):
        # Voters below the ladder step pay their full budget, the rest rho*unit.
        rho = (cost - prefix) / ((count - k) * unit)
        if (k == 0 or rho * unit >= ladder[k - 1]) and rho * unit <= ladder[k]:
            return rho
        prefix += ladder[k]
    return ladder[-1] / unit  # everyone pays in full; total equals cost


def run_mes(
    inst: Instance, mu: SatisfactionFunction, tie: str = "lex"
) -> tuple[frozenset[str], RuleTrace]:
    """Method of Equal Shares for an additive satisfaction function."""
    if not mu.additive:
        raise CapabilityError("MES requires an additive satisfaction function")
    candidates = [p for p in inst.projects if inst.approvers(p)]
    for p in candidates:
        _additive_value(mu, p)
    budgets = {i: inst.budget / inst.n for i in inst.voters}
    trace = RuleTrace(rule="mes", mu_kind=mu.kind)
    trace.budget_history.append(dict(budgets))
    chosen: list[str] = []
    rnd = 0
    while True:
        offers = {}
        for p in candidates:
            if p in chosen:
                continue
            rho = min_rho(inst, budgets, mu, p)
            if rho is not None:
                offers[p] = rho
        if not offers:
            break
        rnd += 1
        best = min(offers.values())
        p = _pick([q for q, rho in offers.items() if rho == best], tie)
        unit = mu.per_project[p]
        charges = {}
        for i in inst.approvers(p):
            pay = min(budgets[i], best * unit)
            if pay > 0:
                charges[i] = pay
            budgets[i] -= pay
        assert sum(charges.values(), Fraction(0)) == inst.costs[p]
        trace.payments[p] = charges
        trace.selections.append((rnd, p, best))
        trace.budget_history.append(dict(budgets))
        chosen.append(p)
    outcome = frozenset(chosen)
    trace.voter_budgets = budgets
    unselected = [p for p in inst.projects if p not in outcome]
    if unselected:
        trace.delta = min(
            inst.costs[p] - sum((budgets[i] for i in inst.approvers(p)), Fraction(0))
            for p in unselected
        )
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace


def run_seq_phragmen(
    inst: Instance, tie: str = "lex", skip_blocked: bool = False
) -> tuple[frozenset[str], RuleTrace]:
    """Generalized sequential Phragmen.

    Verbatim semantics: the run stops as soon as some minimum-load candidate
    no longer fits the budget, even if cheaper candidates remain; that
    blocking candidate and its load are recorded for price extraction. With
    ``skip_blocked`` the blocked candidate is dropped instead and the run
    continues (possibly yielding a larger outcome, without a blocking entry).
    """
    loads = {i: Fraction(0) for i in inst.voters}
    # Candidates are all approved projects, even those costing more than the
    # whole budget: such a project can still win the load argmin and must then
    # trigger the blocking break for the price-extraction bound to hold.
    pool = {p for p in inst.projects if inst.approvers(p)}
    trace = RuleTrace(rule="phragmen")
    chosen: list[str] = []
    spent = Fraction(0)
    rnd = 0
    while True:
        remaining = [p for p in pool if p not in chosen]
        if not remaining:
            break
        t_vals = {
            p: (inst.costs[p] + sum(loads[i] for i in inst.approvers(p)))
            / len(inst.approvers(p))
            for p in remaining
        }
        t_min = min(t_vals.values())
        argmin = [p for p in remaining if t_vals[p] == t_min]
        over = [p for p in argmin if spent + inst.costs[p] > inst.budget]
        if over:
            if skip_blocked:
                for p in over:
                    pool.discard(p)
                    trace.skipped.append(p)
                continue
            blocked = _pick(over, tie)
            trace.blocking = (blocked, t_min)
            break
        rnd += 1
        p = _pick(argmin, tie)
        charges = {}
        for i in inst.approvers(p):
            charges[i] = t_min - loads[i]
            loads[i] = t_min
        assert sum(charges.values(), Fraction(0)) == inst.costs[p]
        trace.payments[p] = {i: amt for i, amt in charges.items() if amt > 0}
        trace.selections.append((rnd, p, t_min))
        chosen.append(p)
        spent += inst.costs[p]
    outcome = frozenset(chosen)
    trace.voter_loads = loads
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace


# ---------------------------------------------------------------------------
# Min-max load balancing (exact)


def balance_loads(inst: Instance, w: Iterable[str]) -> LoadAssignment:
    """Spread each chosen project's cost over its approvers so that the
    maximum per-voter total load is minimized; exact optimum.

    Feasibility of a load cap is a max-flow question; the cap is raised to
    the ratio c(S)/|N(S)| of the min-cut's violating project set S until
    feasible, which terminates at the optimum max_S c(S)/|N(S)|.
    """
    w = sorted(set(w))
    if not w:
        return LoadAssignment(loads={}, max_load=Fraction(0))
    supporters = {p: inst.approvers(p) for p in w}
    for p, sup in supporters.items():
        if not sup:
            raise InstanceError(f"project {p!r} in the outcome has no approvers")
    voters = sorted(set().union(*supporters.values()))
    v_node = {i: k + 1 for k, i in enumerate(voters)}
    p_node = {p: len(voters) + 1 + k for k, p in enumerate(w)}
    sink = len(voters) + len(w) + 1
    total = sum((inst.costs[p] for p in w), Fraction(0))

    def attempt(lam: Fraction) -> tuple[FlowNetwork, dict, Fraction]:
        net = FlowNetwork(sink + 1)
        for i in voters:
            net.add_edge(0, v_node[i], lam)
        arc = {}
        for p in w:
            for i in supporters[p]:
                # effectively unbounded: must never saturate, so that the
                # min cut consists of source and sink edges only
                arc[(i, p)] = net.add_edge(v_node[i], p_node[p], total + 1)
            net.add_edge(p_node[p], sink, inst.costs[p])
        value = net.max_flow(0, sink)
        return net, arc, value

    lam = total / len(voters)
    while True:
        net, arc, value = attempt(lam)
        if value == total:
            break
        reach = net.reachable(0)
        short = [p for p in w if p_node[p] not in reach]
        group = set().union(*(supporters[p] for p in short))
        better = sum((inst.costs[p] for p in short), Fraction(0)) / len(group)
        assert better > lam
        lam = better
    loads = {
        p: {
            i: net.flow_on(arc[(i, p)])
            for i in supporters[p]
            if net.flow_on(arc[(i, p)]) > 0
        }
        for p in w
    }
    assignment = LoadAssignment(loads=loads, max_load=lam)
    totals = assignment.voter_totals()
    assert max(totals.values()) == lam
    return assignment


def run_maximin_support(
    inst: Instance, tie: str = "lex"
) -> tuple[frozenset[str], RuleTrace]:
    """Maximin support method: each round adds the candidate whose optimally
    rebalanced loads give the smallest maximum voter load; stops when such a
    candidate no longer fits the budget (recorded for price extraction)."""
    # As in the sequential rule, over-budget projects stay in the pool so a
    # winning argmin among them produces a blocking record rather than being
    # silently ignored.
    pool = [p for p in inst.projects if inst.approvers(p)]
    trace = RuleTrace(rule="maximin")
    chosen: list[str] = []
    spent = Fraction(0)
    rnd = 0
    final_assignment: LoadAssignment | None = None
    while True:
        remaining = [p for p in pool if p not in chosen]
        if not remaining:
            break
        scores = {p: balance_loads(inst, chosen + [p]) for p in remaining}
        s_min = min(a.max_load for a in scores.values())
        argmin = [p for p in remaining if scores[p].max_load == s_min]
        over = [p for p in argmin if spent + inst.costs[p] > inst.budget]
        if over:
            blocked = _pick(over, tie)
            trace.blocking = (blocked, s_min)
            trace.blocking_loads = scores[blocked]
            break
        rnd += 1
        p = _pick(argmin, tie)
        chosen.append(p)
        spent += inst.costs[p]
        final_assignment = scores[p]
        trace.selections.append((rnd, p, s_min))
    outcome = frozenset(chosen)
    # Payments come from the balanced loads at termination, restricted to
    # the chosen projects (the blocked candidate itself is not paid for).
    reference = trace.blocking_loads or final_assignment
    if reference is not None:
        trace.payments = {p: dict(reference.loads[p]) for p in chosen}
        trace.voter_loads = {
            i: sum((reference.loads[p].get(i, Fraction(0)) for p in chosen), Fraction(0))
            for i in inst.voters
        }
    else:
        trace.voter_loads = {i: Fraction(0) for i in inst.voters}
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace


def run_gcr(
    inst: Instance,
    mu: SatisfactionFunction,
    tie: str = "lex",
    max_m: int = 12,
    max_n: int = 12,
) -> frozenset[str]:
    """Greedy Cohesive Rule: repeatedly grant the highest-satisfaction
    project set demanded by a cohesive group of not-yet-served voters,
    then retire the maximal such group. Exponential; size-guarded."""
    if inst.m > max_m or inst.n > max_n:
        raise GuardExceededError(
            f"instance size ({inst.n} voters, {inst.m} projects) exceeds guard"
        )
    chosen: set[str] = set()
    active = set(inst.voters)
    while True:
        # demands that the still-active voters can afford, by sorted ids
        grantable = {
            tuple(sorted(d.t)): d
            for d in demand_sets(inst)
            if not d.t & chosen and len(active.intersection(d.approvers)) >= d.min_size
        }
        if not grantable:
            break
        values = {ids: mu.value(d.t) for ids, d in grantable.items()}
        top = max(values.values())
        best = grantable[_pick((ids for ids, v in values.items() if v == top), tie)]
        chosen |= best.t
        active.difference_update(best.approvers)
    return frozenset(chosen)
