"""Voting rules with full execution traces.

Implements the Method of Equal Shares parameterized by an additive
satisfaction function, generalized sequential Phragmen, the maximin support
method (with exact min-max load balancing), and the Greedy Cohesive Rule.
All arithmetic is exact.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .axioms import demand_sets
from .errors import CapabilityError, GuardExceededError, InvariantError
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


def _ladder_rho(
    ladder: list[tuple[Fraction, int]], cost: Fraction, unit: Fraction
) -> Fraction | None:
    """Walk the supporters' budget levels, (budget, voter count) pairs in
    increasing budget order. Voters below the current level pay their whole
    budget and the rest split what is left equally; the first level that
    covers its equal share gives rho. If no level does, the supporters hold
    less money than the cost."""
    left = sum(count for _, count in ladder)
    for budget, count in ladder:
        share = cost / left
        if share <= budget:
            return share / unit
        cost -= budget * count
        left -= count
    return None


def min_rho(
    inst: Instance, budgets: Mapping[int, Fraction], mu: SatisfactionFunction, p: str
) -> Fraction | None:
    """Minimal rho at which p is affordable from the given voter budgets,
    i.e. the supporters' capped payments min(b_i, rho*mu(p)) sum to c(p).
    Returns None when the supporters cannot afford p at any rho."""
    unit = _additive_value(mu, p)
    ladder = sorted(Counter(budgets[i] for i in inst.approvers(p)).items())
    return _ladder_rho(ladder, inst.costs[p], unit)


class _VoterClasses:
    """Voters grouped by an equal running value: the MES budget or the
    Phragmen load.

    ``value[c]`` is class c's value and ``of[i]`` voter i's class;
    ``counts[p]`` maps each class to the number of p's supporters in it, for
    every live candidate p. A rule then evaluates a project on its few
    classes instead of its many voters. Candidates whose counts change are
    added to ``stale``.
    """

    def __init__(self, inst: Instance, candidates: Iterable[str], start: Fraction):
        self.inst = inst
        self.value = [start]
        self._ids = {start: 0}
        self.of = dict.fromkeys(inst.voters, 0)
        self.counts = {p: {0: len(inst.approvers(p))} for p in candidates}
        self.stale: set[str] = set()

    def total(self, voters: Iterable[int]) -> Fraction:
        """Sum of the voters' values."""
        per = Counter(self.of[i] for i in voters)
        return sum((self.value[c] * k for c, k in per.items()), Fraction(0))

    def move(self, p: str, new_value: Mapping[int, Fraction]) -> None:
        """Move each supporter of p in class c to the class holding
        ``new_value[c]``, which is created if no class holds that value."""
        target = {}
        for c, v in new_value.items():
            if v not in self._ids:
                self._ids[v] = len(self.value)
                self.value.append(v)
            target[c] = self._ids[v]
        for i in self.inst.approvers(p):
            old = self.of[i]
            new = target[old]
            if new == old:
                continue
            self.of[i] = new
            for q in self.inst.approval(i):
                per = self.counts.get(q)
                if per is None:
                    continue
                if per[old] == 1:
                    del per[old]
                else:
                    per[old] -= 1
                per[new] = per.get(new, 0) + 1
                self.stale.add(q)


def _pop_ties(
    heap: list[tuple[Fraction, str]],
    stale: set[str],
    evaluate: Callable[[str], Fraction | None],
) -> tuple[Fraction | None, list[str]]:
    """Pop every project whose exact value is the least in the heap.

    Keys are lower bounds, since a project's value only rises during a run.
    A stale key is re-evaluated once it reaches the top, and its project is
    dropped when ``evaluate`` gives None. Returns the least value and the
    projects at it, or (None, []) when the heap runs empty."""
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


def _push_back(
    heap: list[tuple[Fraction, str]], value: Fraction, tied: list[str], chosen: str
) -> None:
    """Return the tied projects that were not chosen to the heap."""
    for q in tied:
        if q != chosen:
            heapq.heappush(heap, (value, q))


def run_mes(
    inst: Instance, mu: SatisfactionFunction, tie: str = "lex"
) -> tuple[frozenset[str], RuleTrace]:
    """Method of Equal Shares for an additive satisfaction function.

    Voters who approve the same chosen projects hold equal budgets, so
    budgets are kept per voter class. Budgets only fall, so a project's rho
    only rises: rho values wait in a heap and are recomputed only when they
    reach the top."""
    if not mu.additive:
        raise CapabilityError("MES requires an additive satisfaction function")
    candidates = [p for p in inst.projects if inst.approvers(p)]
    units = {p: _additive_value(mu, p) for p in candidates}
    classes = _VoterClasses(inst, candidates, inst.budget / inst.n)
    budget, counts = classes.value, classes.counts

    def rho(p: str) -> Fraction | None:
        ladder = sorted((budget[c], k) for c, k in counts[p].items())
        value = _ladder_rho(ladder, inst.costs[p], units[p])
        if value is None:
            del counts[p]  # budgets only fall: p stays unaffordable
        return value

    heap = [(value, p) for p in candidates if (value := rho(p)) is not None]
    heapq.heapify(heap)
    trace = RuleTrace(rule="mes", mu_kind=mu.kind)
    while True:
        best, tied = _pop_ties(heap, classes.stale, rho)
        if not tied:
            break
        p = _pick(tied, tie)
        _push_back(heap, best, tied, p)
        price = best * units[p]
        per = counts.pop(p)
        pay = {c: min(budget[c], price) for c in per}
        if sum((pay[c] * k for c, k in per.items()), Fraction(0)) != inst.costs[p]:
            raise InvariantError(f"MES charges for {p!r} do not sum to its cost")
        trace.payments[p] = {
            i: pay[classes.of[i]] for i in inst.approvers(p) if pay[classes.of[i]] > 0
        }
        trace.selections.append((len(trace.selections) + 1, p, best))
        classes.move(p, {c: budget[c] - pay[c] for c in per})
    outcome = frozenset(p for _, p, _ in trace.selections)
    trace.voter_budgets = {i: budget[classes.of[i]] for i in inst.voters}
    unselected = [p for p in inst.projects if p not in outcome]
    if unselected:
        trace.delta = min(
            inst.costs[p] - classes.total(inst.approvers(p)) for p in unselected
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
    continues (possibly yielding a larger outcome, without a blocking entry);
    ``skipped`` lists the dropped candidates in the order they were dropped,
    those dropped together by id.

    Voters whose last approved chosen project is the same hold equal loads,
    so loads are kept per voter class. Loads only rise, so a project's load
    t only rises: t values wait in a heap and are recomputed only when they
    reach the top.
    """
    # Candidates are all approved projects, even those costing more than the
    # whole budget: such a project can still win the load argmin and must then
    # trigger the blocking break for the price-extraction bound to hold.
    pool = [p for p in inst.projects if inst.approvers(p)]
    size = {p: len(inst.approvers(p)) for p in pool}
    classes = _VoterClasses(inst, pool, Fraction(0))
    load, counts = classes.value, classes.counts

    def t(p: str) -> Fraction:
        paid = sum((load[c] * k for c, k in counts[p].items()), Fraction(0))
        return (inst.costs[p] + paid) / size[p]

    heap = [(t(p), p) for p in pool]
    heapq.heapify(heap)
    trace = RuleTrace(rule="phragmen")
    spent = Fraction(0)
    while True:
        t_min, argmin = _pop_ties(heap, classes.stale, t)
        if not argmin:
            break
        over = sorted(p for p in argmin if spent + inst.costs[p] > inst.budget)
        if over:
            if not skip_blocked:
                trace.blocking = (_pick(over, tie), t_min)
                break
            for p in over:
                del counts[p]
            trace.skipped.extend(over)
            argmin = [p for p in argmin if p not in over]
            if not argmin:
                continue
        p = _pick(argmin, tie)
        _push_back(heap, t_min, argmin, p)
        per = counts.pop(p)
        charge = {c: t_min - load[c] for c in per}
        if sum((charge[c] * k for c, k in per.items()), Fraction(0)) != inst.costs[p]:
            raise InvariantError(f"Phragmen charges for {p!r} do not sum to its cost")
        trace.payments[p] = {
            i: charge[classes.of[i]] for i in inst.approvers(p) if charge[classes.of[i]] > 0
        }
        trace.selections.append((len(trace.selections) + 1, p, t_min))
        classes.move(p, dict.fromkeys(per, t_min))
        spent += inst.costs[p]
    outcome = frozenset(p for _, p, _ in trace.selections)
    trace.voter_loads = {i: load[classes.of[i]] for i in inst.voters}
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
        if better <= lam:
            raise InvariantError("the min cut did not raise the load cap")
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
    if max(totals.values()) != lam:
        raise InvariantError("balanced loads do not reach the optimal cap")
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
