"""Voting rules with full execution traces.

Implements the Method of Equal Shares parameterized by an additive
satisfaction function, generalized sequential Phragmen, the maximin support
method (with exact min-max load balancing), and the Greedy Cohesive Rule.
All arithmetic is exact.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .errors import CapabilityError, InvariantError
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


@dataclass
class RuleTrace:
    """Execution record of a rule run.

    ``selections`` holds (round, project, value) where the value is the MES
    price-per-satisfaction rho, the Phragmen load t, or the maximin balanced
    max load. ``payment_classes`` maps each selected project to (holders,
    amount) pairs: every voter in the ascending list ``holders`` pays
    ``amount`` towards it. MES and Phragmen give one pair per paying ballot
    type, maximin one per paying voter; two holder lists of one trace are
    equal or disjoint. ``payments`` is the per-voter view. No per-voter
    state is kept: a voter's MES budget is b/n less their payments, and
    their Phragmen or maximin load is the sum of their payments.
    ``blocking`` holds the project that stopped the run and its value.
    """

    rule: str
    selections: list[tuple[int, str, Fraction]] = field(default_factory=list)
    payment_classes: dict[str, list[tuple[list[int], Fraction]]] = field(default_factory=dict)
    delta: Fraction | None = None
    blocking: tuple[str, Fraction] | None = None
    skipped: list[str] = field(default_factory=list)
    exhaustive: bool | None = None

    @property
    def payments(self) -> dict[str, dict[int, Fraction]]:
        """Each selected project's charges by voter, in ascending voter order."""
        return {p: dict(sorted((i, a) for holders, a in pairs for i in holders))
                for p, pairs in self.payment_classes.items()}


def min_rho(
    per: Mapping[int, int], den: int, cost: Fraction, unit: Fraction
) -> Fraction | None:
    """rho, the least price per unit of satisfaction at which supporters
    with ``unit`` satisfaction each afford ``cost``: their capped payments
    min(b_i, rho * unit) sum to the cost. ``per`` maps each budget, an int
    over ``den``, to its number of supporters (``_VoterClasses.histogram``).
    Going up the budgets, voters below the level pay all they hold and the
    rest split what is left; the first level covering its share gives rho,
    and None means the supporters hold less than the cost. Money is counted
    in units of 1/(den * cost.denominator), so only rho is a Fraction."""
    cost_den = cost.denominator
    rest = cost.numerator * den
    left = sum(per.values())
    for budget, count in sorted(per.items()):
        budget *= cost_den
        if rest <= budget * left:
            return Fraction(rest * unit.denominator, left * den * cost_den * unit.numerator)
        rest -= budget * count
        left -= count
    return None


class _VoterClasses:
    """The running value of every ballot type: the MES budget or the
    Phragmen load.

    Holders of one ballot type approve the same projects, so every selection
    moves them together and they always share a value. ``scaled[t]`` is
    ballot type t's value times ``den``, an int over one common denominator
    that grows to the lcm with each new value's; t indexes the instance's
    ``ballot_types``. Ballot types with equal values form a class, named by
    that scaled int. A rule evaluates a project on the few classes its
    supporters fall in, counted from ``holding`` when it is evaluated,
    instead of on its many voters. Projects whose supporters change value
    are added to ``stale``.
    """

    def __init__(self, inst: Instance, start: Fraction):
        types = inst.ballot_types()
        self.ballots = list(types)
        self.holders = list(types.values())
        self.den = start.denominator
        self.scaled = [start.numerator] * len(self.ballots)
        self.holding: dict[str, list[int]] = {p: [] for p in inst.projects}
        for t, ballot in enumerate(self.ballots):
            for p in ballot:
                self.holding[p].append(t)
        self.stale: set[str] = set()

    def histogram(self, p: str) -> dict[int, int]:
        """Each scaled value among p's supporters, mapped to their number."""
        scaled, holders = self.scaled, self.holders
        per: dict[int, int] = {}
        for t in self.holding[p]:
            s = scaled[t]
            per[s] = per.get(s, 0) + len(holders[t])
        return per

    def held(self, p: str) -> int:
        """Sum of the values of p's supporters, times ``den``."""
        scaled, holders = self.scaled, self.holders
        return sum(scaled[t] * len(holders[t]) for t in self.holding[p])

    def spread(self, p: str, amount: Mapping[int, Fraction]) -> list[tuple[list[int], Fraction]]:
        """(holders, ``amount`` of their scaled value) for each ballot type
        that supports p and whose scaled value has an amount."""
        scaled, holders = self.scaled, self.holders
        return [(holders[t], a) for t in self.holding[p]
                if (a := amount.get(scaled[t])) is not None]

    def move(self, p: str, new_value: Mapping[int, int], scale: int) -> None:
        """Give each supporter of p whose scaled value is s the value
        ``new_value[s] / scale``."""
        g = gcd(scale, *new_value.values())
        least = scale // g  # the least common denominator of the new values
        den = lcm(self.den, least)
        grow, k = den // self.den, den // least
        # keyed by the old ints as they read once rescaled to the new den
        target = {s * grow: v // g * k for s, v in new_value.items()}
        if grow != 1:
            self.den = den
            self.scaled = [s * grow for s in self.scaled]
        scaled = self.scaled
        for t in self.holding[p]:
            s = target[scaled[t]]
            if s != scaled[t]:
                scaled[t] = s
                self.stale.update(self.ballots[t])


class _Key:
    """A heap entry: project ``p`` at ``value``. Keys order exactly as
    (value, p) tuples do, but compare the value's numerator and denominator
    as ints instead of calling ``Fraction`` comparisons."""

    __slots__ = ("num", "den", "value", "p")

    def __init__(self, value: Fraction, p: str):
        self.num, self.den = value.as_integer_ratio()
        self.value, self.p = value, p

    def __lt__(self, other: _Key) -> bool:
        a, b = self.num * other.den, other.num * self.den
        return a < b or (a == b and self.p < other.p)


def _pop_ties(
    heap: list[_Key],
    stale: set[str],
    evaluate: Callable[[str], Fraction | None],
) -> tuple[Fraction | None, list[str]]:
    """Pop every project whose exact value is the least in the heap.

    Keys are lower bounds, since a project's value only rises during a run.
    A stale key is re-evaluated once it reaches the top, and its project is
    dropped when ``evaluate`` gives None. Returns the least value and the
    projects at it, or (None, []) when the heap runs empty."""
    best, tied = None, []
    # values are in lowest terms, so equal values have equal num and den
    while heap and (best is None or heap[0].num == best.num and heap[0].den == best.den):
        key = heapq.heappop(heap)
        p = key.p
        if p in stale:
            stale.discard(p)
            value = evaluate(p)
            if value is not None:
                heapq.heappush(heap, _Key(value, p))
        else:
            best = key
            tied.append(p)
    return (None if best is None else best.value), tied


def _select(
    inst: Instance,
    pool: Iterable[str],
    evaluate: Callable[[str], Fraction | None],
    stale: set[str],
    tie: str,
    trace: RuleTrace,
    skip_blocked: bool = False,
) -> Iterator[tuple[str, Fraction]]:
    """The greedy loop of MES, Phragmen and maximin support. Values only rise
    as the outcome grows, so they wait in a heap of lower bounds. Projects
    tied at the least value that no longer fit the budget stop the run (the
    pick among them goes to ``trace.blocking``) or, with ``skip_blocked``, go
    to ``trace.skipped`` sorted by id. The pick among the rest is recorded
    and yielded with its value; the caller applies it and adds every project
    whose value changed to ``stale``."""
    heap = [_Key(value, p) for p in pool if (value := evaluate(p)) is not None]
    heapq.heapify(heap)
    left = inst.budget
    while True:
        best, tied = _pop_ties(heap, stale, evaluate)
        if not tied:
            return
        over = sorted(p for p in tied if inst.costs[p] > left)
        if over and not skip_blocked:
            trace.blocking = (_pick(over, tie), best)
            return
        trace.skipped.extend(over)
        tied = [p for p in tied if p not in over]
        if not tied:
            continue
        p = _pick(tied, tie)
        for q in tied:
            if q != p:
                heapq.heappush(heap, _Key(best, q))
        left -= inst.costs[p]
        trace.selections.append((len(trace.selections) + 1, p, best))
        yield p, best


def run_mes(
    inst: Instance, mu: SatisfactionFunction, tie: str = "lex"
) -> tuple[frozenset[str], RuleTrace]:
    """Method of Equal Shares for an additive satisfaction function.

    Voters who approve the same chosen projects hold equal budgets, so
    rho is walked over the classes of equal budgets. Budgets only fall, so a
    project's rho only rises: rho values wait in a heap and are recomputed
    only when they reach the top."""
    if not mu.additive:
        raise CapabilityError("MES requires an additive satisfaction function")
    classes = _VoterClasses(inst, inst.budget / inst.n)
    candidates = [p for p in inst.projects if classes.holding[p]]
    units = {p: mu.per_project.get(p) for p in candidates}
    for p, unit in units.items():
        if not unit:
            raise CapabilityError(f"no positive satisfaction value for project {p!r}")

    def rho(p: str) -> Fraction | None:
        return min_rho(classes.histogram(p), classes.den, inst.costs[p], units[p])

    trace = RuleTrace(rule="mes")
    for p, best in _select(inst, candidates, rho, classes.stale, tie, trace):
        price = best * units[p]
        per = classes.histogram(p)
        den, cost, scale = classes.den, inst.costs[p], classes.den * price.denominator
        # charges in units of 1/scale; a class holding less than the price
        # pays all it holds
        cap = price.numerator * den
        charged = {s: min(s * price.denominator, cap) for s in per}
        paid = sum(charged[s] * k for s, k in per.items())
        if paid * cost.denominator != cost.numerator * scale:
            raise InvariantError(f"MES charges for {p!r} do not sum to its cost")
        pay = {s: price if a == cap else Fraction(s, den) for s, a in charged.items() if a}
        trace.payment_classes[p] = classes.spread(p, pay)
        classes.move(p, {s: s * price.denominator - a for s, a in charged.items()}, scale)
    outcome = frozenset(p for _, p, _ in trace.selections)
    unselected = [p for p in inst.projects if p not in outcome]
    if unselected:
        trace.delta = min(inst.costs[p] - Fraction(classes.held(p), classes.den)
                          for p in unselected)
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
    so loads are kept per ballot type. Loads only rise, so a
    project's load t only rises: t values wait in a heap and are recomputed
    only when they reach the top.
    """
    # Candidates are all approved projects, even those costing more than the
    # whole budget: such a project can still win the load argmin and must then
    # trigger the blocking break for the price-extraction bound to hold.
    classes = _VoterClasses(inst, Fraction(0))
    size = {p: k for p, k in inst.approver_counts().items() if k}
    pool = list(size)

    def t(p: str) -> Fraction:
        den, cost = classes.den, inst.costs[p]
        return Fraction(cost.numerator * den + classes.held(p) * cost.denominator,
                        size[p] * den * cost.denominator)

    trace = RuleTrace(rule="phragmen")
    for p, t_min in _select(inst, pool, t, classes.stale, tie, trace, skip_blocked):
        per = classes.histogram(p)
        cost, scale = inst.costs[p], classes.den * t_min.denominator
        # charges in units of 1/scale
        level = t_min.numerator * classes.den
        charged = {s: level - s * t_min.denominator for s in per}
        paid = sum(charged[s] * k for s, k in per.items())
        if paid * cost.denominator != cost.numerator * scale:
            raise InvariantError(f"Phragmen charges for {p!r} do not sum to its cost")
        charge = {s: Fraction(a, scale) for s, a in charged.items() if a > 0}
        trace.payment_classes[p] = classes.spread(p, charge)
        classes.move(p, dict.fromkeys(per, level), scale)
    outcome = frozenset(p for _, p, _ in trace.selections)
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace


# ---------------------------------------------------------------------------
# Min-max load balancing (exact)


def _load_flow(
    lam: Fraction, w: list[str], unit: int, cost: dict[str, int], weights: list[int],
    members: dict[str, list[int]]) -> tuple[FlowNetwork, list[list[int]], bool, int]:
    """Edmonds-Karp's flow at the load cap lam: source -> node j
    (``weights[j]`` caps) -> each p in w whose ``members[p]`` lists j ->
    sink (``cost[p]`` over ``unit``). Returns the network, each p's arcs,
    whether the costs fit, and the int scale; node j's source edge is edge
    2j. While a path source -> node -> p -> sink has room, a search takes
    the first such node and its first such p in w order, so those paths are
    filled first, in that order."""
    scale = lcm(unit, lam.denominator)
    k, total, cap = scale // unit, sum(cost.values()), lam.numerator * (scale // lam.denominator)
    net = FlowNetwork(len(weights) + len(w) + 2)
    for j, weight in enumerate(weights):
        net.add_edge(0, j + 1, weight * cap)
    # effectively unbounded, so that a min cut has only source and sink edges
    arcs, paths, unbounded = [], [[] for _ in weights], (total + unit) * k
    for node, p in enumerate(w, len(weights) + 1):
        arcs.append([net.add_edge(j + 1, node, unbounded) for j in members[p]])
        out = net.add_edge(node, net.n - 1, cost[p] * k)
        for j, arc in zip(members[p], arcs[-1]):
            paths[j].append((2 * j, arc, out))
    net.paths = [path for by_node in paths for path in by_node]
    return net, arcs, net.max_flow(0, net.n - 1) == total * k, scale


def _scaled_costs(inst: Instance, w: list[str]) -> tuple[int, dict[str, int]]:
    unit = lcm(*(inst.costs[p].denominator for p in w))
    return unit, {p: inst.costs[p].numerator * (unit // inst.costs[p].denominator) for p in w}


def _max_ratio(inst: Instance, w: list[str], start=(Fraction(0), frozenset()),
               guesses: Iterable[frozenset[str]] = ()) -> tuple[Fraction, frozenset[str]]:
    """The largest c(S)/|N(S)| over the nonempty subsets S of the list w, and
    such an S. The cap starts at the best of w, ``start`` (a ratio and its S)
    and the ``guesses``, and rises to a min cut's ratio until a greedy fill
    or a flow, over one node per ballot restricted to w, carries the costs.
    Every maximum flow leaves the same min cut, so the routing is free."""
    wset = frozenset(w)
    weight: dict[frozenset[str], int] = {}
    for ballot, holders in inst.ballot_types().items():
        if r := ballot & wset:
            weight[r] = weight.get(r, 0) + len(holders)
    types = sorted(weight, key=len)  # narrow ballots fill first
    weights = [weight[r] for r in types]
    members: dict[str, list[int]] = {p: [] for p in w}
    for j, r in enumerate(types):
        for p in r:
            members[p].append(j)
    if missing := [p for p in w if not members[p]]:
        raise InstanceError(f"project {missing[0]!r} in the outcome has no approvers")
    unit, cost = _scaled_costs(inst, w)
    size = {p: sum(weights[j] for j in members[p]) for p in w}  # |N(p)|

    def ratio(s: frozenset[str]) -> tuple[int, int]:  # c(S)/|N(S)| as ints
        group = set().union(*(members[p] for p in s))
        return sum(cost[p] for p in s), unit * sum(weights[j] for j in group)

    lam, dense = start
    for s in (wset, *guesses):
        num, den = ratio(s)
        if num * lam.denominator > lam.numerator * den:
            lam, dense = Fraction(num, den), s
    while len(w) > 1:
        k = lcm(unit, lam.denominator) // unit
        cap = lam.numerator * (unit * k // lam.denominator)
        room = [weight * cap for weight in weights]
        order = sorted(w, key=lambda p: cap * size[p] - cost[p] * k)  # least slack first
        for p in order:
            need = cost[p] * k
            for j in members[p]:
                room[j], need = max(room[j] - need, 0), max(need - room[j], 0)
            if need:
                break
        else:
            break  # the greedy fill carries every cost
        net, _, feasible, _ = _load_flow(lam, order, unit, cost, weights, members)
        if feasible:
            break
        dense = frozenset(p for node, p in enumerate(order, len(types) + 1)
                          if net.labels[node] == -1)
        better = Fraction(*ratio(dense))
        if better <= lam:
            raise InvariantError("the min cut did not raise the load cap")
        lam = better
    return lam, dense


def balance_loads(
    inst: Instance, w: Iterable[str], max_load: Fraction | None = None
) -> LoadAssignment:
    """Spread each chosen project's cost over its approvers so that the
    maximum per-voter total load is minimized; exact optimum. The loads are
    the flows over the voters at the optimal cap, ``max_load`` if given.
    Voter arcs are added as ``inst.approvers(p)`` iterates, a set order that
    is not always ascending (10 can precede 9). Which optimal flow is found,
    and so the pinned maximin stdout, depends on it: keep it unsorted. The
    guards are ``test_balance_loads_matches_fraction_flow_oracle`` and
    ``ab_rules.same_instance``."""
    w = sorted(set(w))
    if not w:
        return LoadAssignment(loads={}, max_load=Fraction(0))
    lam = _max_ratio(inst, w)[0] if max_load is None else max_load
    supporters = {p: inst.approvers(p) for p in w}
    index = {i: j for j, i in enumerate(sorted(set().union(*supporters.values())))}
    net, arcs, feasible, scale = _load_flow(
        lam, w, *_scaled_costs(inst, w), [1] * len(index),
        {p: [index[i] for i in sup] for p, sup in supporters.items()})
    if not feasible:
        raise InvariantError("balanced loads do not carry the costs")
    loads = {p: {i: Fraction(flow, scale) for i, idx in zip(supporters[p], arc)
                 if (flow := net.flow_on(idx)) > 0} for p, arc in zip(w, arcs)}
    # a voter's total load is the flow on their source edge
    if Fraction(max(net.flow_on(2 * j) for j in index.values()), scale) != lam:
        raise InvariantError("balanced loads do not reach the optimal cap")
    return LoadAssignment(loads=loads, max_load=lam)


def run_maximin_support(
    inst: Instance, tie: str = "lex"
) -> tuple[frozenset[str], RuleTrace]:
    """Maximin support method: each round adds the candidate whose optimally
    rebalanced loads give the smallest maximum voter load; stops when such a
    candidate no longer fits the budget (recorded for price extraction).

    A candidate's balanced max load is max_S c(S)/|N(S)| over the subsets S
    of the chosen projects plus itself, so it only rises as the outcome
    grows: it waits in a heap and is recomputed only at the top, from the
    sets S behind its last value and the last selection's."""
    # As in the sequential rule, over-budget projects stay in the pool so a
    # winning argmin among them produces a blocking record rather than being
    # silently ignored.
    size = inst.approver_counts()
    pool = [p for p in inst.projects if size[p]]
    trace = RuleTrace(rule="maximin")
    chosen: list[str] = []
    # each candidate's last value, and a set S of that c(S)/|N(S)|
    known = {p: (inst.costs[p] / size[p], frozenset([p])) for p in pool}

    def max_load(p: str) -> Fraction:
        if chosen:
            q = chosen[-1]
            known[p] = _max_ratio(inst, sorted(chosen + [p]), known[p],
                                  (known[p][1] | {q}, known[q][1] | {p}))
        return known[p][0]

    stale: set[str] = set()
    for p, _ in _select(inst, pool, max_load, stale, tie, trace):
        chosen.append(p)
        stale.update(pool)  # each max runs over all of W; extra marks are harmless
    outcome = frozenset(chosen)
    # Payments come from the balanced loads at termination, restricted to
    # the chosen projects (the blocked candidate itself is not paid for).
    if chosen:
        last, value = trace.blocking or trace.selections[-1][1:]
        loads = balance_loads(inst, outcome | {last}, max_load=value).loads
        trace.payment_classes = {p: [([i], a) for i, a in loads[p].items()] for p in chosen}
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
    from .axioms import _guard, demand_sets  # only GCR enumerates demands

    _guard(inst, max_m, max_n)
    chosen: set[str] = set()
    active = set(inst.ballot_types())  # unserved: a group retires whole ballot types
    while True:
        # demands that the holders of unserved ballots can afford, by sorted ids
        grantable = {
            tuple(sorted(d.t)): d
            for d in demand_sets(inst)
            if not d.t & chosen and sum(len(h) for b, h in d.types if b in active) >= d.min_size
        }
        if not grantable:
            break
        values = {ids: mu.value(d.t) for ids, d in grantable.items()}
        top = max(values.values())
        best = grantable[_pick((ids for ids, v in values.items() if v == top), tie)]
        chosen |= best.t
        active.difference_update(b for b, _ in best.types)
    return frozenset(chosen)
