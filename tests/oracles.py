"""Independent brute-force oracles used to cross-validate the library.

Everything here is written as directly off the definitions as possible:
no reductions, no early-size arguments, just full enumeration. Only
usable at desk scale (n, m around 5)."""
import itertools
from fractions import Fraction

from pbprop.axioms import is_cohesive
from pbprop.rules import RuleTrace
from pbprop.satisfaction import voter_satisfaction


def all_demand_sets(inst):
    projects = sorted(inst.projects)
    for r in range(1, inst.m + 1):
        for combo in itertools.combinations(projects, r):
            t = frozenset(combo)
            if inst.total_cost(t) <= inst.budget:
                yield t


def all_groups(inst):
    voters = list(inst.voters)
    for r in range(1, inst.n + 1):
        for combo in itertools.combinations(voters, r):
            yield frozenset(combo)


def naive_ejr_passes(inst, mu, w):
    """Quantifier-literal EJR: every cohesive (T, group) has a member whose
    outcome satisfaction reaches mu(T)."""
    w = frozenset(w)
    for t in all_demand_sets(inst):
        for group in all_groups(inst):
            if not is_cohesive(inst, t, group):
                continue
            target = mu.value(t)
            if all(voter_satisfaction(mu, inst, i, w) < target for i in group):
                return False
    return True


def naive_pjr_passes(inst, mu, w):
    """Quantifier-literal PJR over every cohesive (T, group)."""
    w = frozenset(w)
    for t in all_demand_sets(inst):
        for group in all_groups(inst):
            if not is_cohesive(inst, t, group):
                continue
            union = frozenset.union(*(inst.approval(i) for i in group))
            if mu.value(w & union) < mu.value(t):
                return False
    return True


def naive_pjrx_passes(inst, mu, w):
    """Quantifier-literal PJR up-to-any over every cohesive (T, group)."""
    w = frozenset(w)
    for t in all_demand_sets(inst):
        extra = t - w
        if not extra:
            continue
        for group in all_groups(inst):
            if not is_cohesive(inst, t, group):
                continue
            union = frozenset.union(*(inst.approval(i) for i in group))
            share = w & union
            if any(mu.value(share | {p}) <= mu.value(t) for p in extra):
                return False
    return True


def max_load_oracle(inst, w):
    """Optimal min-max load equals the worst cost-to-supporters ratio over
    subsets of the outcome."""
    w = sorted(set(w))
    best = Fraction(0)
    for r in range(1, len(w) + 1):
        for combo in itertools.combinations(w, r):
            supporters = frozenset.union(*(inst.approvers(p) for p in combo))
            if not supporters:
                continue
            total = sum((inst.costs[p] for p in combo), Fraction(0))
            best = max(best, total / len(supporters))
    return best


# ---------------------------------------------------------------------------
# Eager reference rules: every round re-evaluates every candidate voter by
# voter, exactly as the rules are defined. pbprop.rules must match them.


def eager_min_rho(inst, budgets, mu, p):
    """Minimal rho with sum_i min(b_i, rho*mu(p)) = c(p), walking the sorted
    per-voter budgets; None when the supporters cannot afford p."""
    unit = mu.per_project[p]
    ladder = sorted(budgets[i] for i in inst.approvers(p))
    cost = inst.costs[p]
    if not ladder or sum(ladder) < cost:
        return None
    prefix = Fraction(0)
    for k in range(len(ladder)):
        # voters below the ladder step pay their full budget, the rest rho*unit
        rho = (cost - prefix) / ((len(ladder) - k) * unit)
        if (k == 0 or rho * unit >= ladder[k - 1]) and rho * unit <= ladder[k]:
            return rho
        prefix += ladder[k]
    return ladder[-1] / unit


def _pick(candidates, tie):
    return max(candidates) if tie == "reverse" else min(candidates)


def eager_mes(inst, mu, tie="lex"):
    """Method of Equal Shares with per-voter budgets."""
    candidates = [p for p in inst.projects if inst.approvers(p)]
    budgets = {i: inst.budget / inst.n for i in inst.voters}
    trace = RuleTrace(rule="mes", mu_kind=mu.kind)
    chosen = []
    while True:
        offers = {}
        for p in candidates:
            if p not in chosen:
                rho = eager_min_rho(inst, budgets, mu, p)
                if rho is not None:
                    offers[p] = rho
        if not offers:
            break
        best = min(offers.values())
        p = _pick([q for q, rho in offers.items() if rho == best], tie)
        charges = {}
        for i in inst.approvers(p):
            pay = min(budgets[i], best * mu.per_project[p])
            if pay > 0:
                charges[i] = pay
            budgets[i] -= pay
        assert sum(charges.values(), Fraction(0)) == inst.costs[p]
        trace.payments[p] = charges
        trace.selections.append((len(chosen) + 1, p, best))
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


def eager_phragmen(inst, tie="lex", skip_blocked=False):
    """Sequential Phragmen with per-voter loads; candidates dropped in one
    round are recorded in id order."""
    loads = {i: Fraction(0) for i in inst.voters}
    pool = [p for p in inst.projects if inst.approvers(p)]
    trace = RuleTrace(rule="phragmen")
    chosen = []
    spent = Fraction(0)
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
        over = sorted(p for p in argmin if spent + inst.costs[p] > inst.budget)
        if over:
            if skip_blocked:
                pool = [p for p in pool if p not in over]
                trace.skipped.extend(over)
                continue
            trace.blocking = (_pick(over, tie), t_min)
            break
        p = _pick(argmin, tie)
        charges = {}
        for i in inst.approvers(p):
            charges[i] = t_min - loads[i]
            loads[i] = t_min
        assert sum(charges.values(), Fraction(0)) == inst.costs[p]
        trace.payments[p] = {i: amt for i, amt in charges.items() if amt > 0}
        trace.selections.append((len(chosen) + 1, p, t_min))
        chosen.append(p)
        spent += inst.costs[p]
    outcome = frozenset(chosen)
    trace.voter_loads = loads
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace
