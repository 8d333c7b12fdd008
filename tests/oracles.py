"""Independent brute-force oracles used to cross-validate the library.

Everything here is written as directly off the definitions as possible:
no reductions, no early-size arguments, just full enumeration. Only
usable at desk scale (n, m around 5)."""
import csv
import itertools
from collections import deque
from fractions import Fraction

from pbprop import rules
from pbprop.axioms import is_cohesive
from pbprop.model import Instance, InstanceError, ParseError, _columns, parse_money
from pbprop.rules import LoadAssignment, RuleTrace
from pbprop.satisfaction import DnsViolation, voter_satisfaction


def cost_of(inst, s):
    """c(s) as a plain sum of the instance's ``Fraction`` costs."""
    return sum((inst.costs[p] for p in s), Fraction(0))


def all_demand_sets(inst):
    projects = sorted(inst.projects)
    for r in range(1, inst.m + 1):
        for combo in itertools.combinations(projects, r):
            t = frozenset(combo)
            if cost_of(inst, t) <= inst.budget:
                yield t


def all_groups(inst):
    voters = list(inst.voters)
    for r in range(1, inst.n + 1):
        for combo in itertools.combinations(voters, r):
            yield frozenset(combo)


def all_pairs_dns(mu, inst):
    """DNS off its definition: every pair of valued projects, cheaper first in
    (cost, id) order, must keep mu(a) <= mu(b) and mu(a)/c(a) >= mu(b)/c(b).
    Returns the first violating pair in that pair order, or None."""
    by_cost = sorted((p for p in inst.projects if p in mu.per_project),
                     key=lambda p: (inst.costs[p], p))
    for a, b in itertools.combinations(by_cost, 2):
        va, vb = mu.per_project[a], mu.per_project[b]
        if va > vb:
            return DnsViolation(cheap=a, pricey=b, inequality="value")
        if va / inst.costs[a] < vb / inst.costs[b]:
            return DnsViolation(cheap=a, pricey=b, inequality="ratio")
    return None


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


def naive_local_bpjr_passes(inst, mu, w):
    """Quantifier-literal Local-BPJR: no cohesive (T, group) has a best set,
    among the S inside its common ballot with c(S) <= c(T), that strictly
    extends the group's share of the outcome."""
    w = frozenset(w)
    for t in all_demand_sets(inst):
        for group in all_groups(inst):
            if not is_cohesive(inst, t, group):
                continue
            ballots = [inst.approval(i) for i in group]
            inter = frozenset.intersection(*ballots)
            share = w & frozenset.union(*ballots)
            affordable = [frozenset(s) for r in range(len(inter) + 1)
                          for s in itertools.combinations(sorted(inter), r)
                          if cost_of(inst, s) <= cost_of(inst, t)]
            best = max(mu.value(s) for s in affordable)
            if any(share < s for s in affordable if mu.value(s) == best):
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
    trace = RuleTrace(rule="mes")
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
        trace.payment_classes[p] = [([i], amt) for i, amt in charges.items()]
        trace.selections.append((len(chosen) + 1, p, best))
        chosen.append(p)
    outcome = frozenset(chosen)
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
    round are recorded in id order. Returns the outcome, the trace and every
    voter's final load."""
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
        trace.payment_classes[p] = [([i], amt) for i, amt in charges.items() if amt > 0]
        trace.selections.append((len(chosen) + 1, p, t_min))
        chosen.append(p)
        spent += inst.costs[p]
    outcome = frozenset(chosen)
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace, loads


def eager_maximin(inst, tie="lex"):
    """Maximin support that rebalances every remaining candidate with a fresh
    max-flow each round. It calls ``rules.balance_loads`` through the module
    so that a test can count the calls. Returns the outcome, the trace and
    the blocked configuration's balanced loads (None if nothing blocked)."""
    pool = [p for p in inst.projects if inst.approvers(p)]
    trace = RuleTrace(rule="maximin")
    chosen = []
    spent = Fraction(0)
    rnd = 0
    final_assignment = blocking_loads = None
    while True:
        remaining = [p for p in pool if p not in chosen]
        if not remaining:
            break
        scores = {p: rules.balance_loads(inst, chosen + [p]) for p in remaining}
        s_min = min(a.max_load for a in scores.values())
        argmin = [p for p in remaining if scores[p].max_load == s_min]
        over = [p for p in argmin if spent + inst.costs[p] > inst.budget]
        if over:
            blocked = _pick(over, tie)
            trace.blocking = (blocked, s_min)
            blocking_loads = scores[blocked]
            break
        rnd += 1
        p = _pick(argmin, tie)
        chosen.append(p)
        spent += inst.costs[p]
        final_assignment = scores[p]
        trace.selections.append((rnd, p, s_min))
    outcome = frozenset(chosen)
    reference = blocking_loads or final_assignment
    if reference is not None:
        trace.payment_classes = {p: [([i], amt) for i, amt in reference.loads[p].items()]
                                 for p in chosen}
    trace.exhaustive = inst.is_exhaustive(outcome)
    return outcome, trace, blocking_loads


# ---------------------------------------------------------------------------
# Reference load balancing: Edmonds-Karp on Fraction capacities, as it stood
# before the max-flow moved to integer-scaled capacities.


class FractionFlowNetwork:
    """Directed flow network over integer node ids with Fraction capacities."""

    def __init__(self, n_nodes):
        self.n = n_nodes
        self.adj = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, cap):
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(Fraction(cap))
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(Fraction(0))
        return idx

    def max_flow(self, s, t):
        total = Fraction(0)
        while True:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            queue = deque([s])
            while queue and parent_edge[t] == -1:
                u = queue.popleft()
                for idx in self.adj[u]:
                    v = self.to[idx]
                    if parent_edge[v] == -1 and self.cap[idx] > 0:
                        parent_edge[v] = idx
                        queue.append(v)
            if parent_edge[t] == -1:
                return total
            bottleneck = None
            v = t
            while v != s:
                idx = parent_edge[v]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                v = self.to[idx ^ 1]
            v = t
            while v != s:
                idx = parent_edge[v]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                v = self.to[idx ^ 1]
            total += bottleneck

    def reachable(self, s):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.adj[u]:
                v = self.to[idx]
                if v not in seen and self.cap[idx] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen

    def flow_on(self, idx):
        return self.cap[idx ^ 1]


def fraction_balance_loads(inst, w):
    """rules.balance_loads with every capacity, flow and load a Fraction."""
    w = sorted(set(w))
    if not w:
        return LoadAssignment(loads={}, max_load=Fraction(0))
    supporters = {p: inst.approvers(p) for p in w}
    voters = sorted(set().union(*supporters.values()))
    v_node = {i: k + 1 for k, i in enumerate(voters)}
    p_node = {p: len(voters) + 1 + k for k, p in enumerate(w)}
    sink = len(voters) + len(w) + 1
    total = sum((inst.costs[p] for p in w), Fraction(0))

    def attempt(lam):
        net = FractionFlowNetwork(sink + 1)
        for i in voters:
            net.add_edge(0, v_node[i], lam)
        arc = {}
        for p in w:
            for i in supporters[p]:
                arc[(i, p)] = net.add_edge(v_node[i], p_node[p], total + 1)
            net.add_edge(p_node[p], sink, inst.costs[p])
        return net, arc, net.max_flow(0, sink)

    lam = total / len(voters)
    while True:
        net, arc, value = attempt(lam)
        if value == total:
            break
        reach = net.reachable(0)
        short = [p for p in w if p_node[p] not in reach]
        group = set().union(*(supporters[p] for p in short))
        lam = sum((inst.costs[p] for p in short), Fraction(0)) / len(group)
    loads = {
        p: {
            i: net.flow_on(arc[(i, p)])
            for i in supporters[p]
            if net.flow_on(arc[(i, p)]) > 0
        }
        for p in w
    }
    return LoadAssignment(loads=loads, max_load=lam)


# ---------------------------------------------------------------------------
# Dense reference simplex: recomputes every reduced cost on every pivot over
# a dense Fraction tableau, with the same pivot rules as pbprop.lp.


def dense_solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Maximize objective.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0;
    returns (status, x, value) exactly like pbprop.lp.solve_lp."""
    n = len(objective)
    cost_real = [Fraction(v) for v in objective]
    rows = [[Fraction(v) for v in r] for r in a_ub]
    rows += [[Fraction(v) for v in r] for r in a_eq]
    rhs = [Fraction(v) for v in b_ub] + [Fraction(v) for v in b_eq]
    n_ub = len(rows) - len(list(a_eq))
    m = len(rows)
    total = n + n_ub
    a = []
    for k, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
        full = row + [Fraction(0)] * n_ub
        if k < n_ub:
            full[n + k] = Fraction(1)
        a.append(full)
    for k in range(m):
        if rhs[k] < 0:
            a[k] = [-v for v in a[k]]
            rhs[k] = -rhs[k]
    art0 = total
    for k in range(m):
        for r in range(m):
            a[r].append(Fraction(1) if r == k else Fraction(0))
    basis = [art0 + k for k in range(m)]
    cost1 = [Fraction(0)] * total + [Fraction(-1)] * m
    status, value = _dense_run(a, rhs, basis, cost1, range(total))
    assert status == "optimal"
    if value != 0:
        return "infeasible", None, None
    for r, bvar in enumerate(basis):
        if bvar >= art0:
            piv = next((j for j in range(total) if a[r][j] != 0), None)
            if piv is not None:
                _dense_pivot(a, rhs, basis, r, piv)
    cost2 = cost_real + [Fraction(0)] * (n_ub + m)
    status, value = _dense_run(a, rhs, basis, cost2, range(total))
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = rhs[r]
    return "optimal", x, value


def _dense_pivot(a, rhs, basis, r, c):
    inv = 1 / a[r][c]
    a[r] = [v * inv for v in a[r]]
    rhs[r] *= inv
    row_r = a[r]
    for k in range(len(a)):
        if k != r and a[k][c] != 0:
            f = a[k][c]
            a[k] = [v - f * w for v, w in zip(a[k], row_r)]
            rhs[k] -= f * rhs[r]
    basis[r] = c


def _dense_run(a, rhs, basis, cost, allowed):
    m = len(a)
    while True:
        dual = [cost[b] for b in basis]
        entering = None
        for j in allowed:  # Bland's rule: first improving column
            reduced = cost[j] - sum(dual[r] * a[r][j] for r in range(m))
            if reduced > 0:
                entering = j
                break
        if entering is None:
            return "optimal", sum(dual[r] * rhs[r] for r in range(m))
        leaving = None
        for r in range(m):
            if a[r][entering] > 0:
                ratio = rhs[r] / a[r][entering]
                if leaving is None or ratio < leaving[0] or (
                    ratio == leaving[0] and basis[r] < leaving[1]
                ):
                    leaving = (ratio, basis[r], r)
        if leaving is None:
            return "unbounded", None
        _dense_pivot(a, rhs, basis, leaving[2], entering)


# ---------------------------------------------------------------------------
# Reference price-system verification: every condition re-summed from the
# payment dicts, voter by voter, as the conditions are stated.


def per_voter_system(budget, payments):
    """A price system built voter by voter: one class per voter of
    ``payments`` (voter -> row), by ascending voter."""
    from pbprop.pricing import PriceSystem

    return PriceSystem(budget, [([i], payments[i]) for i in sorted(payments)])


def expanded_system(ps):
    """The JSON object of a price system as written voter by voter."""
    from pbprop.model import money_str

    return {"B": money_str(ps.budget),
            "payments": {str(i): {p: money_str(v) for p, v in sorted(row.items())}
                         for i, row in sorted(ps.payments.items())}}


def reference_verify_price_system(inst, outcome, ps):
    """Verdicts and first witnesses of C1-C6, as pbprop.pricing must give."""
    from pbprop.model import InstanceError
    from pbprop.pricing import CONDITIONS, PriceReport

    w = frozenset(outcome)
    inst.total_cost(w)
    for i, per in ps.payments.items():
        if not 1 <= i <= inst.n:
            raise InstanceError(f"payment from unknown voter {i}")
        for p, amount in per.items():
            if p not in inst.costs:
                raise InstanceError(f"payment on unknown project {p!r}")
            if amount < 0:
                raise InstanceError(f"negative payment by voter {i} on {p!r}")
    verdicts = {}

    def spent(i):
        return sum(ps.payments.get(i, {}).values(), Fraction(0))

    def leftover(i):
        return ps.budget / inst.n - spent(i)

    def fail_first(name, witness):
        if name not in verdicts:
            verdicts[name] = (False, witness)

    for i in inst.voters:
        for p, amount in ps.payments.get(i, {}).items():
            if amount > 0 and p not in inst.approval(i):
                fail_first("C1", (i, p))
            if amount > 0 and p not in w:
                fail_first("C2", (i, p))
        if spent(i) > ps.budget / inst.n:
            fail_first("C3", (i,))
    for p in sorted(w):
        paid = sum((ps.payments.get(i, {}).get(p, Fraction(0)) for i in inst.voters),
                   Fraction(0))
        if paid != inst.costs[p]:
            fail_first("C4", (p,))
    unchosen = [p for p in inst.projects if p not in w]
    for p in unchosen:
        pooled = sum((leftover(i) for i in inst.approvers(p)), Fraction(0))
        if pooled > inst.costs[p]:
            fail_first("C5", (p,))
    for pj in unchosen:
        group = inst.approvers(pj)
        for pk in sorted(w):
            towards = sum(
                (ps.payments.get(i, {}).get(pk, Fraction(0)) for i in group),
                Fraction(0),
            )
            if towards > inst.costs[pj]:
                fail_first("C6", (pj, pk))
    for name in CONDITIONS:
        verdicts.setdefault(name, (True, None))
    return PriceReport(verdicts=verdicts, b_strict=ps.budget > inst.budget)


def reference_parse_pabulib(text):
    """The row-by-row ``.pb`` parser: one pass over every row, one set per
    distinct raw vote string, and the voters grouped by ``Instance``."""
    try:
        rows = list(csv.reader(text.splitlines(), delimiter=";", quotechar='"'))
    except csv.Error as exc:
        raise ParseError(f"unreadable .pb rows: {exc}") from exc
    sections = {}
    current = None
    for row in rows:
        head = row[0].strip().upper() if len(row) == 1 else None
        if not row or head == "":
            continue
        if head in ("META", "PROJECTS", "VOTES"):
            current = sections.setdefault(head, [])
            continue
        if current is None:
            line = ";".join(f.strip() for f in row)
            raise ParseError(f"content before first section header: {line!r}")
        current.append(row)

    for name in ("META", "PROJECTS", "VOTES"):
        if name not in sections:
            raise ParseError(f"missing section {name}")

    meta_rows = [[f.strip() for f in row] for row in sections["META"]]
    if not meta_rows or [c.lower() for c in meta_rows[0]][:2] != ["key", "value"]:
        raise ParseError("META must start with a 'key;value' header")
    meta = {row[0]: row[1] if len(row) > 1 else "" for row in meta_rows[1:]}
    keys = [row[0] for row in meta_rows[1:]]
    for key in ("num_projects", "num_votes", "budget", "vote_type"):
        if key not in meta:
            raise ParseError(f"missing META key {key}")
        if keys.count(key) > 1:
            raise ParseError(f"repeated META key {key}")
    if meta["vote_type"] != "approval":
        raise ParseError(f"unsupported vote type {meta['vote_type']!r}")
    try:
        num_projects = int(meta["num_projects"])
        num_votes = int(meta["num_votes"])
    except ValueError as exc:
        raise ParseError("num_projects/num_votes must be integers") from exc
    budget = parse_money(meta["budget"])

    proj_rows = [[f.strip() for f in row] for row in sections["PROJECTS"]]
    col_id, col_cost = _columns("PROJECTS", proj_rows, ("project_id", "cost"))
    costs = {}
    for row in proj_rows[1:]:
        if len(row) <= max(col_id, col_cost):
            raise ParseError(f"malformed PROJECTS row {row!r}")
        pid = row[col_id]
        if not pid or pid in costs:
            raise ParseError(f"duplicate project id {pid!r}" if pid else "missing project_id")
        costs[pid] = parse_money(row[col_cost])
    if len(costs) != num_projects:
        raise ParseError(f"META says {num_projects} projects, PROJECTS lists {len(costs)}")

    vote_rows = sections["VOTES"]
    col_voter, col_vote = _columns("VOTES", vote_rows, ("voter_id", "vote"))
    approvals = []
    ballots = {}
    voters = set()
    for row in vote_rows[1:]:
        voter = row[col_voter].strip() if len(row) > col_voter else ""
        if not voter or voter in voters:
            raise ParseError(f"repeated voter_id {voter!r}" if voter else "missing voter_id")
        voters.add(voter)
        vote = row[col_vote] if len(row) > col_vote else ""
        ballot = ballots.get(vote)
        if ballot is None:
            ballot = frozenset(p.strip() for p in vote.split(",") if p.strip())
            dangling = ballot.difference(costs)
            if dangling:
                raise ParseError(f"vote references unknown projects {sorted(dangling)}")
            ballots[vote] = ballot
        approvals.append(ballot)
    if len(approvals) != num_votes:
        raise ParseError(f"META says {num_votes} votes, VOTES lists {len(approvals)}")
    try:
        return Instance(n=len(approvals), projects=tuple(costs), costs=costs,
                        approvals=tuple(approvals), budget=budget)
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc
