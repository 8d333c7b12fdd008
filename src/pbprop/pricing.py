"""Price systems: verification, extraction from rule traces, exact search.

A price system gives every voter an equal share B/n of a virtual budget B
and a payment function d_i over projects. The six conditions checked here:

  C1  voters pay only for projects they approve;
  C2  voters pay only for chosen projects;
  C3  no voter spends more than B/n;
  C4  each chosen project is paid for exactly (sum of payments = cost);
  C5  for each unchosen project, its approvers' combined leftover
      B_i* = B/n - sum_p d_i(p) does not cover the cost;
  C6  for each unchosen project p_j and chosen p_k, the approvers of p_j
      jointly pay at most c(p_j) towards p_k.

``b_strict`` additionally records whether B exceeds the real budget b.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import ExtractionUnavailableError, GuardExceededError
from .lp import solve_lp
from .model import (
    Instance, InstanceError, ParseError, VoterMap, dumps, load_json, money_str,
    money_str_memo, parse_money,
)
from .rules import RuleTrace

CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")


Row = Mapping[str, Fraction]  # project -> amount


@dataclass(frozen=True, eq=False)
class PriceSystem:
    """Virtual budget B plus payment functions, kept as classes of voters.

    Each (holders, row) pair of ``classes`` gives every voter in ``holders``
    the payment row ``row``; a voter in no class pays nothing. ``payments``
    is the per-voter view, and two systems are equal when their budgets and
    per-voter payments are."""

    budget: Fraction  # B; each voter holds B/n
    classes: list[tuple[list[int], Row]]

    @cached_property
    def payments(self) -> dict[int, Row]:
        """Each listed voter's row, by ascending voter."""
        rows = {i: row for holders, row in self.classes for i in holders}
        return {i: rows[i] for i in sorted(rows)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSystem):
            return NotImplemented
        return self.budget == other.budget and self.payments == other.payments

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``: exact "p/q" amounts, sorted keys.
        The payments are a ``VoterMap`` holding one sorted row per class."""
        text = money_str_memo()
        return {
            "B": money_str(self.budget),
            "payments": VoterMap([(holders, {p: text(v) for p, v in sorted(row.items())})
                                  for holders, row in self.classes]),
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PriceSystem":
        """Parse ``to_json`` output; anything else raises ``ParseError``.
        Voters whose rows read the same, key order included, form one class,
        and each distinct row is parsed once."""
        try:
            data = load_json(text)
            rows: dict[tuple, tuple[list[int], Row]] = {}
            for key, per in data["payments"].items():
                i = int(key)
                if str(i) != key:  # "02" or " 2" would name voter 2 twice
                    raise ValueError(f"voter key {key!r} is not a plain integer")
                if i < 1:  # voters are numbered from 1
                    raise ValueError(f"voter key {key!r} is below 1")
                same = tuple(per.items())
                if same not in rows:
                    rows[same] = ([], {p: parse_money(v) for p, v in per.items()})
                rows[same][0].append(i)
            return cls(budget=parse_money(data["B"]),
                       classes=[(sorted(holders), row) for holders, row in rows.values()])
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ParseError(f"malformed price system: {exc!r}") from exc


@dataclass
class PriceReport:
    """Per-condition verdicts; each failure carries a small witness tuple."""

    verdicts: dict[str, tuple[bool, tuple | None]]
    b_strict: bool

    def ok(self, require_c6: bool = False, require_b_strict: bool = True) -> bool:
        needed = CONDITIONS if require_c6 else CONDITIONS[:5]
        if require_b_strict and not self.b_strict:
            return False
        return all(self.verdicts[c][0] for c in needed)


def _listed(inst: Instance, classes) -> tuple[set[int], int | None]:
    """The voters the classes list and the lowest of them outside 1..n, or
    None; a voter listed twice is an ``InstanceError``."""
    voters = set().union(*(holders for holders, _ in classes))
    if len(voters) < sum(len(holders) for holders, _ in classes):
        seen: set[int] = set()
        for i in (i for holders, _ in classes for i in holders):
            if i in seen:
                raise InstanceError(f"voter {i} is listed twice")
            seen.add(i)
    if 1 <= min(voters, default=1) and max(voters, default=1) <= inst.n:
        return voters, None
    return voters, min(i for i in voters if not 1 <= i <= inst.n)


def _ballots(inst: Instance, holders: list[int]):
    """(ballot, holder count, lowest holder) for each distinct ballot among
    the holders; a class that is one ballot type is recognised at once."""
    ballot = inst.approvals[holders[0] - 1]
    if len(holders) == 1 or inst.ballot_types().get(ballot) is holders:
        return [(ballot, len(holders), holders[0])]
    groups: dict[frozenset[str], list] = {}
    for i in holders:
        ballot = inst.approvals[i - 1]
        group = groups.get(ballot)
        if group is None:
            groups[ballot] = [ballot, 1, i]
        else:
            group[1] += 1
            group[2] = min(group[2], i)
    return groups.values()


def verify_price_system(
    inst: Instance, outcome, ps: PriceSystem
) -> PriceReport:
    """Re-evaluate all six conditions exactly against a candidate system.

    One scan runs over ballot units, in order of their lowest voter: a unit
    is one distinct ballot among a class's holders, whose voters pass or
    fail C1-C3 together and count alike towards C4-C6, so its lowest voter
    stands for it. When B/n < 0, the lowest unlisted voter is a unit with an
    empty row. Each check keeps its first failure, C1 and C2 at each row
    entry and C3 once the row is summed, so verdicts, first witnesses and
    the order in which conditions first fail are those of a voter-by-voter
    check. A voter outside 1..n is a unit that raises when the scan reaches
    it. The sums run on ints: money is counted in units of 1/den, with den
    the lcm of the denominators of B/n, every amount and ``inst.unit``."""
    w = inst.check_outcome(outcome)
    classes = [(holders, row) for holders, row in ps.classes if holders]
    listed, unknown = _listed(inst, classes)
    if unknown is not None:  # units hold the voters in 1..n
        classes = [(h, row) for holders, row in classes
                   if (h := [i for i in holders if 1 <= i <= inst.n])]
    share = Fraction(ps.budget) / inst.n
    den = lcm(share.denominator, inst.unit,
              *{a.denominator for _, row in classes for a in row.values()})
    grow = den // inst.unit
    cost = {p: c * grow for p, c in inst.cost_units.items()}
    quota = share.numerator * (den // share.denominator)  # B/n
    units = []  # (lowest voter, ballot, holder count, row scaled to ints)
    for holders, row in classes:
        scaled = [(p, a.numerator * (den // a.denominator)) for p, a in row.items()]
        units += [(low, ballot, k, scaled) for ballot, k, low in _ballots(inst, holders)]
    if unknown is not None:
        units.append((unknown, None, 0, []))
    if quota < 0 and len(listed) < inst.n:  # an unlisted voter spends 0 > B/n
        i = next(i for i in inst.voters if i not in listed)
        units.append((i, inst.approvals[i - 1], 1, []))
    units.sort(key=lambda unit: unit[0])
    verdicts: dict[str, tuple[bool, tuple | None]] = {}
    paid = dict.fromkeys(w, 0)
    spends: dict[str, int] = {}  # unchosen project -> what its approvers spend
    towards: dict[str, dict[str, int]] = {}  # unchosen pj -> chosen pk -> paid by N_j
    for low, ballot, k, row in units:
        if ballot is None:
            raise InstanceError(f"payment from unknown voter {low}")
        spent = 0
        for p, a in row:
            if p not in cost:
                raise InstanceError(f"payment on unknown project {p!r}")
            if a < 0:
                raise InstanceError(f"negative payment by voter {low} on {p!r}")
            if a and p not in ballot:
                verdicts.setdefault("C1", (False, (low, p)))
            if p in paid:
                paid[p] += k * a
            elif a:
                verdicts.setdefault("C2", (False, (low, p)))
            spent += a
        if spent > quota:
            verdicts.setdefault("C3", (False, (low,)))
        pay = [(p, a) for p, a in row if a and p in paid]
        for pj in ballot:
            if pj in paid:
                continue
            spends[pj] = spends.get(pj, 0) + k * spent
            if pay:
                sums = towards.setdefault(pj, {})
                for pk, a in pay:
                    sums[pk] = sums.get(pk, 0) + k * a
    chosen = sorted(w)
    short = next((p for p in chosen if paid[p] != cost[p]), None)
    if short is not None:
        verdicts["C4"] = (False, (short,))
    unchosen = [p for p in inst.projects if p not in w]
    size = inst.approver_counts()
    # C5: N_p holds |N_p| B/n and spends some of it; unlisted voters spend 0
    rich = next((p for p in unchosen if size[p] * quota - spends.get(p, 0) > cost[p]), None)
    if rich is not None:
        verdicts["C5"] = (False, (rich,))
    for pj in unchosen:
        sums = towards.get(pj, {})
        over = next((pk for pk in chosen if sums.get(pk, 0) > cost[pj]), None)
        if over is not None:
            verdicts["C6"] = (False, (pj, over))
            break
    for name in CONDITIONS:
        verdicts.setdefault(name, (True, None))
    return PriceReport(verdicts=verdicts, b_strict=ps.budget > inst.budget)


# ---------------------------------------------------------------------------
# Extraction from rule traces


def _trace_classes(trace: RuleTrace) -> list[tuple[list[int], dict[str, Fraction]]]:
    """The trace's payments as price-system classes: each holder list of the
    trace with its amounts in selection order."""
    rows: dict[int, tuple[list[int], dict[str, Fraction]]] = {}
    for p, pairs in trace.payment_classes.items():
        for holders, amount in pairs:
            entry = rows.get(holders[0])  # holder lists are equal or disjoint
            if entry is None:
                entry = rows[holders[0]] = (holders, {})
            entry[1][p] = amount
    return list(rows.values())


def extract_from_mes_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Turn a finished MES run into a price system with B above the real
    budget: each voter's share grows by half the per-voter affordability
    gap delta/n, which keeps every C5 inequality strict."""
    if trace.rule != "mes":
        raise ExtractionUnavailableError("trace does not come from an MES run")
    if trace.delta is None:
        # Everything was selected; C5 is vacuous and any B above b works.
        return PriceSystem(budget=inst.budget + 1, classes=_trace_classes(trace))
    if trace.delta <= 0:
        raise ExtractionUnavailableError(
            f"trace reports a non-positive affordability gap delta={trace.delta}"
        )
    eps = trace.delta / (2 * inst.n)
    budget = inst.n * (inst.budget / inst.n + eps)
    return PriceSystem(budget=budget, classes=_trace_classes(trace))


def _blocked_budget(inst: Instance, trace: RuleTrace, rule: str, name: str) -> Fraction:
    """B = n times the value at which a Phragmen or maximin run stopped.
    Both values only rise during a run, so no voter's load exceeds the
    blocking value, and loading the blocked project would raise its
    approvers to exactly that value: it is the largest voter load."""
    if trace.rule != rule:
        raise ExtractionUnavailableError(f"trace does not come from a {name} run")
    if trace.blocking is None:
        raise ExtractionUnavailableError(
            "no blocking project: the run exhausted its candidates"
        )
    return inst.n * trace.blocking[1]


def extract_from_phragmen_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Price system from a Phragmen run that stopped at a blocking project:
    the trace's payments and B = n times the blocking load t, the largest
    load once the blocked project's approvers were raised to t."""
    budget = _blocked_budget(inst, trace, "phragmen", "Phragmen")
    return PriceSystem(budget=budget, classes=_trace_classes(trace))


def extract_from_maximin_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Price system from a maximin support run that stopped at a blocking
    project: B = n times the blocked configuration's balanced max load. The
    configuration's own loads (restricted to the chosen projects) serve as
    payments when they respect every condition; a balanced optimum is not
    unique, though, and an arbitrary one may overcharge the approvers of a
    cheap unchosen project, so otherwise the payments are re-split by an
    exact feasibility solve at the same budget."""
    budget = _blocked_budget(inst, trace, "maximin", "maximin")
    w = sorted(trace.payment_classes)
    ps = PriceSystem(budget=budget, classes=_trace_classes(trace))
    if verify_price_system(inst, w, ps).ok(require_c6=True, require_b_strict=False):
        return ps
    solved = _solve_price_lp(inst, w, Fraction(0), require_c6=True, pinned_budget=budget)
    if solved is None:
        raise ExtractionUnavailableError(
            "no condition-respecting payments exist at the blocked budget"
        )
    return solved[1]


# ---------------------------------------------------------------------------
# Exact feasibility search


def find_price_system(
    inst: Instance,
    outcome,
    require_c6: bool = False,
    require_b_strict: bool = True,
    max_payment_vars: int = 64,
) -> PriceSystem | None:
    """Search for any price system supporting the outcome, as an exact
    linear feasibility problem in (B, d). Maximizes the slack of B above
    its lower bound; with ``require_b_strict`` success needs positive slack
    (B strictly above the real budget)."""
    w = sorted(inst.check_outcome(outcome))
    counts = inst.approver_counts()
    size = sum(counts[p] for p in w)  # one payment variable per approver of each p
    if size > max_payment_vars:
        raise GuardExceededError(
            f"{size} payment variables exceed guard {max_payment_vars}"
        )
    lower = inst.budget if require_b_strict else Fraction(0)
    solved = _solve_price_lp(inst, w, lower, require_c6)
    if solved is None or (require_b_strict and solved[0] <= 0):
        return None
    return solved[1]


def _solve_price_lp(
    inst: Instance,
    w: list[str],
    lower: Fraction,
    require_c6: bool,
    pinned_budget: Fraction | None = None,
) -> tuple[Fraction, PriceSystem] | None:
    """Solve the price-system LP over x = [t, B, d_(i,p)...] >= 0, with one
    payment d_i(p) per chosen p and approver i, which gives C1 and C2:
    maximize t subject to B >= lower + t, t <= b + 1, C3-C5 (and C6) and,
    when ``pinned_budget`` is given, B = pinned_budget last. Each condition
    is a sparse ({column: coefficient}, rhs) pair, as ``solve_lp`` takes it.
    Returns (t, the system at the optimum, one class per paying voter by
    ascending voter), or None when no system exists."""
    cols: dict[int, dict[str, int]] = {}  # voter -> chosen p -> column of d_i(p)
    width = 2
    for p in w:
        for i in sorted(inst.approvers(p)):
            cols.setdefault(i, {})[p] = width
            width += 1
    ub = [
        ({0: 1, 1: -1}, -lower),  # t - B <= -lower, i.e. B >= lower + t
        ({0: 1}, inst.budget + 1),  # t <= b + 1 keeps the objective bounded
    ]
    for i in sorted(cols):  # C3: sum_p d_i(p) <= B/n
        ub.append(({1: Fraction(-1, inst.n), **dict.fromkeys(cols[i].values(), 1)}, 0))
    eq = [({cols[i][p]: 1 for i in inst.approvers(p)}, inst.costs[p]) for p in w]  # C4
    unchosen = [p for p in inst.projects if p not in w]
    for pj in unchosen:  # C5: |N_j| B/n - sum_{i in N_j} sum_p d_i(p) <= c(p_j)
        group = inst.approvers(pj)
        if group:
            row = {c: -1 for i in group if i in cols for c in cols[i].values()}
            ub.append(({1: Fraction(len(group), inst.n), **row}, inst.costs[pj]))
    if require_c6:
        for pj in unchosen:  # C6: sum_{i in N_j} d_i(p_k) <= c(p_j)
            group = inst.approvers(pj)
            for pk in w:
                payers = group & inst.approvers(pk)
                if payers:
                    ub.append(({cols[i][pk]: 1 for i in payers}, inst.costs[pj]))
    if pinned_budget is not None:
        eq.append(({1: 1}, pinned_budget))
    status, x, t = solve_lp(width, {0: 1}, ub, eq)
    if status != "optimal":
        return None
    rows = {i: {p: x[c] for p, c in mine.items() if x[c] > 0} for i, mine in sorted(cols.items())}
    return t, PriceSystem(budget=x[1], classes=[([i], row) for i, row in rows.items() if row])
