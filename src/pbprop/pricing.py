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
from math import inf, lcm

from .errors import GuardExceededError
from .lp import solve_lp
from .model import (
    Instance, InstanceError, ParseError, VoterMap, dumps, load_json, money_str,
    money_str_memo, parse_money,
)
from .rules import RuleTrace

CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")


class ExtractionUnavailableError(RuntimeError):
    """The trace lacks the data the extraction needs (e.g. no blocking
    project in a Phragmen run that exhausted its candidates)."""


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


def _listed(inst: Instance, classes) -> set[int]:
    """The voters the classes list; a voter outside 1..n or listed twice is
    an ``InstanceError``."""
    voters = set().union(*(holders for holders, _ in classes))
    for i in (min(voters, default=1), max(voters, default=1)):
        if not 1 <= i <= inst.n:
            raise InstanceError(f"payment from unknown voter {i}")
    if len(voters) < sum(len(holders) for holders, _ in classes):
        seen: set[int] = set()
        for i in (i for holders, _ in classes for i in holders):
            if i in seen:
                raise InstanceError(f"voter {i} is listed twice")
            seen.add(i)
    return voters


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

    Holders of one class pay one row, so C2 and C3 are checked and C4
    summed once per class; holders of one class and one ballot also pass or
    fail C1 together and count alike towards C5 and C6, which are taken once
    per distinct ballot within a class. The lowest voter concerned stands
    for them in a witness, and the witness a scan meets first wins, so
    verdicts, first witnesses and the order in which conditions first fail
    are those of a voter-by-voter check. The sums run on ints: money is
    counted in units of 1/den, with den the lcm of the denominators of B/n,
    every cost and every amount."""
    w = inst.check_outcome(outcome)
    classes = [(holders, row) for holders, row in ps.classes if holders]
    listed = _listed(inst, classes)
    share = Fraction(ps.budget) / inst.n
    den = lcm(share.denominator, *(c.denominator for c in inst.costs.values()),
              *{a.denominator for _, row in classes for a in row.values()})
    cost = {p: c.numerator * (den // c.denominator) for p, c in inst.costs.items()}
    quota = share.numerator * (den // share.denominator)  # B/n
    first: dict[str, tuple] = {}  # condition -> (scan position, witness)

    def fail(name: str, witness: tuple, at: tuple = (inf,)) -> None:
        """Keep the witness that a voter-by-voter scan meets first; ``at``
        is where it meets it: (voter, position in the row, check)."""
        if name not in first or at < first[name][0]:
            first[name] = (at, witness)

    paid = dict.fromkeys(w, 0)
    pooled: dict[str, int] = {}  # unchosen project -> its listed approvers' leftover
    counted: dict[str, int] = {}  # unchosen project -> its listed approvers
    towards: dict[str, dict[str, int]] = {}  # unchosen pj -> chosen pk -> paid by N_j
    for holders, row in classes:
        low, k = min(holders), len(holders)
        scaled = [(p, a.numerator * (den // a.denominator)) for p, a in row.items()]
        spent = 0
        for p, a in scaled:
            if p not in cost:
                raise InstanceError(f"payment on unknown project {p!r}")
            if a < 0:
                raise InstanceError(f"negative payment by voter {low} on {p!r}")
            spent += a
            if p in paid:
                paid[p] += k * a
        if spent > quota:
            fail("C3", (low,), (low, len(scaled), 2))
        positive = [(j, p) for j, (p, a) in enumerate(scaled) if a > 0]
        outside = next(((j, p) for j, p in positive if p not in w), None)
        if outside is not None:
            fail("C2", (low, outside[1]), (low, outside[0], 1))
        left = quota - spent
        pay = [(p, a) for p, a in scaled if a and p in w]
        for ballot, count, lowest in _ballots(inst, holders):
            unapproved = next(((j, p) for j, p in positive if p not in ballot), None)
            if unapproved is not None:
                fail("C1", (lowest, unapproved[1]), (lowest, unapproved[0], 0))
            for pj in ballot:
                if pj in w:
                    continue
                pooled[pj] = pooled.get(pj, 0) + count * left
                counted[pj] = counted.get(pj, 0) + count
                if pay:
                    sums = towards.setdefault(pj, {})
                    for pk, a in pay:
                        sums[pk] = sums.get(pk, 0) + count * a
    if quota < 0 and len(listed) < inst.n:  # an unlisted voter spends 0 > B/n
        i = next(i for i in inst.voters if i not in listed)
        fail("C3", (i,), (i, 0, 2))
    chosen = sorted(w)
    short = next((p for p in chosen if paid[p] != cost[p]), None)
    if short is not None:
        fail("C4", (short,))
    unchosen = [p for p in inst.projects if p not in w]
    size = inst.approver_counts()
    for p in unchosen:  # the approvers' pooled leftover; unlisted ones keep B/n
        unlisted = size[p] - counted.get(p, 0)
        if pooled.get(p, 0) + unlisted * quota > cost[p]:
            fail("C5", (p,))
            break
    for pj in unchosen:
        sums = towards.get(pj, {})
        over = next((pk for pk in chosen if sums.get(pk, 0) > cost[pj]), None)
        if over is not None:
            fail("C6", (pj, over))
            break
    # C4-C6 tie at (inf,) and keep the order in which they are checked
    verdicts = {c: (False, first[c][1]) for c in sorted(first, key=lambda c: first[c][0])}
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
    report = verify_price_system(inst, w, ps)
    if all(report.verdicts[c][0] for c in CONDITIONS):
        return ps
    pay_vars = _payment_vars(inst, w)
    status, x, _ = _solve_price_lp(
        inst, w, pay_vars, Fraction(0), require_c6=True, pinned_budget=budget
    )
    if status != "optimal":
        raise ExtractionUnavailableError(
            "no condition-respecting payments exist at the blocked budget"
        )
    return PriceSystem(budget=budget, classes=_payments(pay_vars, x))


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
    pay_vars = _payment_vars(inst, w)
    if len(pay_vars) > max_payment_vars:
        raise GuardExceededError(
            f"{len(pay_vars)} payment variables exceed guard {max_payment_vars}"
        )
    lower = inst.budget if require_b_strict else Fraction(0)
    status, x, value = _solve_price_lp(inst, w, pay_vars, lower, require_c6)
    if status != "optimal" or (require_b_strict and value <= 0):
        return None
    return PriceSystem(budget=x[1], classes=_payments(pay_vars, x))


def _payment_vars(inst: Instance, w: list[str]) -> list[tuple[int, str]]:
    """C1 and C2 by variable choice: one d_i(p) per chosen p and approver i."""
    return [(i, p) for p in w for i in sorted(inst.approvers(p))]


def _payments(pay_vars, x) -> list[tuple[list[int], dict[str, Fraction]]]:
    """The LP's payments as one ([voter], row) class per paying voter, by
    ascending voter."""
    payments: dict[int, dict[str, Fraction]] = {}
    for (i, p), amount in zip(pay_vars, x[2:]):
        if amount > 0:
            payments.setdefault(i, {})[p] = amount
    return [([i], payments[i]) for i in sorted(payments)]


def _solve_price_lp(
    inst: Instance,
    w: list[str],
    pay_vars: list[tuple[int, str]],
    lower: Fraction,
    require_c6: bool,
    pinned_budget: Fraction | None = None,
):
    """Solve the price-system LP over x = [t, B, d_(i,p)...] >= 0: maximize
    t subject to B >= lower + t, t <= b + 1, C3-C5 (and C6) and, when
    ``pinned_budget`` is given, B = pinned_budget last; each condition is a
    sparse ({column: coefficient}, rhs) pair, as ``solve_lp`` takes it."""
    col = {key: 2 + k for k, key in enumerate(pay_vars)}
    ub = [
        ({0: 1, 1: -1}, -lower),  # t - B <= -lower, i.e. B >= lower + t
        ({0: 1}, inst.budget + 1),  # t <= b + 1 keeps the objective bounded
    ]
    for i in inst.voters:  # C3: sum_p d_i(p) <= B/n
        mine = {col[key]: 1 for key in pay_vars if key[0] == i}
        if mine:
            ub.append(({1: Fraction(-1, inst.n), **mine}, 0))
    eq = [({col[(i, p)]: 1 for i in inst.approvers(p)}, inst.costs[p]) for p in w]  # C4
    unchosen = [p for p in inst.projects if p not in w]
    for pj in unchosen:  # C5: |N_j| B/n - sum_{i in N_j} sum_p d_i(p) <= c(p_j)
        group = inst.approvers(pj)
        if group:
            row = {col[(i, p)]: -1 for i, p in pay_vars if i in group}
            ub.append(({1: Fraction(len(group), inst.n), **row}, inst.costs[pj]))
    if require_c6:
        for pj in unchosen:  # C6: sum_{i in N_j} d_i(p_k) <= c(p_j)
            group = inst.approvers(pj)
            for pk in w:
                payers = group & inst.approvers(pk)
                if payers:
                    ub.append(({col[(i, pk)]: 1 for i in payers}, inst.costs[pj]))
    if pinned_budget is not None:
        eq.append(({1: 1}, pinned_budget))
    return solve_lp(2 + len(pay_vars), {0: 1}, ub, eq)
