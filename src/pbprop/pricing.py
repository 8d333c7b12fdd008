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

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import GuardExceededError
from .lp import solve_lp
from .model import (
    Instance, InstanceError, ParseError, dumps, money_str, money_str_memo, parse_money,
)
from .rules import RuleTrace

CONDITIONS = ("C1", "C2", "C3", "C4", "C5", "C6")


class ExtractionUnavailableError(RuntimeError):
    """The trace lacks the data the extraction needs (e.g. no blocking
    project in a Phragmen run that exhausted its candidates)."""


@dataclass(frozen=True)
class PriceSystem:
    """Virtual budget B plus per-voter payment functions."""

    budget: Fraction  # B; each voter holds B/n
    payments: Mapping[int, Mapping[str, Fraction]]  # voter -> project -> amount

    def spent(self, voter: int) -> Fraction:
        return sum(self.payments.get(voter, {}).values(), Fraction(0))

    def leftover(self, voter: int, n: int) -> Fraction:
        return self.budget / n - self.spent(voter)

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``: exact "p/q" amounts, sorted keys."""
        text = money_str_memo()
        return {
            "B": money_str(self.budget),
            "payments": {
                str(i): {p: text(v) for p, v in sorted(per.items())}
                for i, per in sorted(self.payments.items())
            },
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PriceSystem":
        """Parse ``to_json`` output; anything else raises ``ParseError``."""
        try:
            data = json.loads(text)
            return cls(
                budget=parse_money(data["B"]),
                payments={
                    int(i): {p: parse_money(v) for p, v in per.items()}
                    for i, per in data["payments"].items()
                },
            )
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


def verify_price_system(
    inst: Instance, outcome, ps: PriceSystem
) -> PriceReport:
    """Re-evaluate all six conditions exactly against a candidate system."""
    w = frozenset(outcome)
    inst.total_cost(w)  # validates project ids (and implicitly feasibility data)
    for i, per in ps.payments.items():
        if not 1 <= i <= inst.n:
            raise InstanceError(f"payment from unknown voter {i}")
        for p, amount in per.items():
            if p not in inst.costs:
                raise InstanceError(f"payment on unknown project {p!r}")
            if amount < 0:
                raise InstanceError(f"negative payment by voter {i} on {p!r}")
    verdicts: dict[str, tuple[bool, tuple | None]] = {}

    def fail_first(name: str, witness) -> None:
        if name not in verdicts:
            verdicts[name] = (False, witness)

    # Holders of one ballot type with equal payment rows pass or fail every
    # condition together, so each class of them is checked once, as its
    # lowest voter, in ascending order of that voter: the first witness of
    # each condition is then the per-voter one. A holder whose row differs
    # from the previous holder's starts a new class, so grouping stays
    # linear; equal rows split into two classes are merely checked twice.
    # Rows are compared, not hashed: hashing a Fraction is slow.
    classes: list[list] = []  # [lowest voter, ballot, row, holders in class]
    for ballot, holders in inst.ballot_types().items():
        last = None
        for i in holders:
            row = ps.payments.get(i, {})
            if last is not None and row == last[2]:
                last[3] += 1
            else:
                last = [i, ballot, row, 1]
                classes.append(last)
    classes.sort(key=lambda c: c[0])
    share = ps.budget / inst.n
    left = []  # each class's leftover B_i* = B/n - spent
    paid: dict[str, Fraction] = {}
    for i, ballot, row, k in classes:
        for p, amount in row.items():
            if amount > 0 and p not in ballot:
                fail_first("C1", (i, p))
            if amount > 0 and p not in w:
                fail_first("C2", (i, p))
            paid[p] = paid.get(p, Fraction(0)) + k * amount
        left.append(share - sum(row.values(), Fraction(0)))
        if left[-1] < 0:
            fail_first("C3", (i,))
    chosen = sorted(w)
    for p in chosen:
        if paid.get(p, Fraction(0)) != inst.costs[p]:
            fail_first("C4", (p,))
    unchosen = [p for p in inst.projects if p not in w]
    for p in unchosen:  # the approvers' pooled leftover
        pooled = sum((c[3] * b for c, b in zip(classes, left) if p in c[1]), Fraction(0))
        if pooled > inst.costs[p]:
            fail_first("C5", (p,))
    for pj in unchosen:
        rows = [(row, k) for _, ballot, row, k in classes if pj in ballot]
        for pk in chosen:
            towards = sum((k * row[pk] for row, k in rows if pk in row), Fraction(0))
            if towards > inst.costs[pj]:
                fail_first("C6", (pj, pk))
    for name in CONDITIONS:
        verdicts.setdefault(name, (True, None))
    return PriceReport(verdicts=verdicts, b_strict=ps.budget > inst.budget)


# ---------------------------------------------------------------------------
# Extraction from rule traces


def _invert(payments: Mapping[str, Mapping[int, Fraction]]) -> dict[int, dict[str, Fraction]]:
    by_voter: dict[int, dict[str, Fraction]] = {}
    for p, per in payments.items():
        for i, amount in per.items():
            by_voter.setdefault(i, {})[p] = amount
    return by_voter


def extract_from_mes_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Turn a finished MES run into a price system with B above the real
    budget: each voter's share grows by half the per-voter affordability
    gap delta/n, which keeps every C5 inequality strict."""
    if trace.rule != "mes":
        raise ExtractionUnavailableError("trace does not come from an MES run")
    if trace.delta is None:
        # Everything was selected; C5 is vacuous and any B above b works.
        return PriceSystem(budget=inst.budget + 1, payments=_invert(trace.payments))
    if trace.delta <= 0:
        raise ExtractionUnavailableError(
            f"trace reports a non-positive affordability gap delta={trace.delta}"
        )
    eps = trace.delta / (2 * inst.n)
    budget = inst.n * (inst.budget / inst.n + eps)
    return PriceSystem(budget=budget, payments=_invert(trace.payments))


def extract_from_phragmen_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Price system from a Phragmen run that stopped at a blocking project:
    hypothetically apply the blocking load update, then B = n * max load."""
    if trace.rule != "phragmen":
        raise ExtractionUnavailableError("trace does not come from a Phragmen run")
    if trace.blocking is None:
        raise ExtractionUnavailableError(
            "no blocking project: the run exhausted its candidates"
        )
    blocked, t_val = trace.blocking
    loads = dict(trace.voter_loads)
    for i in inst.approvers(blocked):
        loads[i] = t_val
    budget = inst.n * max(loads.values())
    return PriceSystem(budget=budget, payments=_invert(trace.payments))


def extract_from_maximin_trace(inst: Instance, trace: RuleTrace) -> PriceSystem:
    """Price system from a maximin support run that stopped at a blocking
    project: B = n * max load of the blocked balanced configuration. The
    configuration's own loads (restricted to the chosen projects) serve as
    payments when they respect every condition; a balanced optimum is not
    unique, though, and an arbitrary one may overcharge the approvers of a
    cheap unchosen project, so otherwise the payments are re-split by an
    exact feasibility solve at the same budget."""
    if trace.rule != "maximin":
        raise ExtractionUnavailableError("trace does not come from a maximin run")
    if trace.blocking is None or trace.blocking_loads is None:
        raise ExtractionUnavailableError(
            "no blocking project: the run exhausted its candidates"
        )
    w = sorted(trace.payments)
    budget = inst.n * trace.blocking_loads.max_load
    ps = PriceSystem(budget=budget, payments=_invert(trace.payments))
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
    return PriceSystem(budget=budget, payments=_payments(pay_vars, x))


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
    w = sorted(set(outcome))
    if inst.total_cost(w) > inst.budget:
        raise InstanceError("outcome exceeds the budget")
    pay_vars = _payment_vars(inst, w)
    if len(pay_vars) > max_payment_vars:
        raise GuardExceededError(
            f"{len(pay_vars)} payment variables exceed guard {max_payment_vars}"
        )
    lower = inst.budget if require_b_strict else Fraction(0)
    status, x, value = _solve_price_lp(inst, w, pay_vars, lower, require_c6)
    if status != "optimal" or (require_b_strict and value <= 0):
        return None
    return PriceSystem(budget=x[1], payments=_payments(pay_vars, x))


def _payment_vars(inst: Instance, w: list[str]) -> list[tuple[int, str]]:
    """C1 and C2 by variable choice: one d_i(p) per chosen p and approver i."""
    return [(i, p) for p in w for i in sorted(inst.approvers(p))]


def _payments(pay_vars, x) -> dict[int, dict[str, Fraction]]:
    payments: dict[int, dict[str, Fraction]] = {}
    for (i, p), amount in zip(pay_vars, x[2:]):
        if amount > 0:
            payments.setdefault(i, {})[p] = amount
    return payments


def _solve_price_lp(
    inst: Instance,
    w: list[str],
    pay_vars: list[tuple[int, str]],
    lower: Fraction,
    require_c6: bool,
    pinned_budget: Fraction | None = None,
):
    """Solve the price-system LP over x = [t, B, d_(i,p)...] >= 0: maximize
    t subject to B >= lower + t, t <= b + 1, C3-C5 (and C6) as rows, and,
    when ``pinned_budget`` is given, one last equality row B = pinned_budget."""
    col = {key: 2 + k for k, key in enumerate(pay_vars)}
    width = 2 + len(pay_vars)

    def row() -> list[Fraction]:
        return [Fraction(0)] * width

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    r = row()  # t - B <= -lower, i.e. B >= lower + t
    r[0], r[1] = Fraction(1), Fraction(-1)
    a_ub.append(r)
    b_ub.append(-lower)
    r = row()  # t <= b + 1 keeps the objective bounded
    r[0] = Fraction(1)
    a_ub.append(r)
    b_ub.append(inst.budget + 1)
    for i in inst.voters:  # C3: sum_p d_i(p) <= B/n
        mine = [key for key in pay_vars if key[0] == i]
        if not mine:
            continue
        r = row()
        r[1] = Fraction(-1, inst.n)
        for key in mine:
            r[col[key]] = Fraction(1)
        a_ub.append(r)
        b_ub.append(Fraction(0))
    for p in w:  # C4: sum_i d_i(p) = c(p)
        r = row()
        for i in inst.approvers(p):
            r[col[(i, p)]] = Fraction(1)
        a_eq.append(r)
        b_eq.append(inst.costs[p])
    unchosen = [p for p in inst.projects if p not in w]
    for pj in unchosen:  # C5: |N_j| B/n - sum_{i in N_j} sum_p d_i(p) <= c(p_j)
        group = inst.approvers(pj)
        if not group:
            continue
        r = row()
        r[1] = Fraction(len(group), inst.n)
        for i, p in pay_vars:
            if i in group:
                r[col[(i, p)]] -= Fraction(1)
        a_ub.append(r)
        b_ub.append(inst.costs[pj])
    if require_c6:
        for pj in unchosen:  # C6: sum_{i in N_j} d_i(p_k) <= c(p_j)
            group = inst.approvers(pj)
            for pk in w:
                payers = group & inst.approvers(pk)
                if not payers:
                    continue
                r = row()
                for i in payers:
                    r[col[(i, pk)]] = Fraction(1)
                a_ub.append(r)
                b_ub.append(inst.costs[pj])
    if pinned_budget is not None:
        r = row()
        r[1] = Fraction(1)
        a_eq.append(r)
        b_eq.append(pinned_budget)
    objective = row()
    objective[0] = Fraction(1)
    return solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
