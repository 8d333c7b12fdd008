"""Satisfaction functions over project sets, with capabilities read off their values.

Built-ins: cost, cardinality, sqrt-of-cost, log(1+cost), Chamberlin-Courant
style coverage (cc), share, and user tables. Square roots and logarithms are
rationalized once at construction (12 significant decimal digits); all later
arithmetic is exact.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import CapabilityError, GuardExceededError
from .model import Instance, ParseError, parse_money

RATIONALIZE_DIGITS = 12


class UndefinedShareError(ValueError):
    """share evaluated on a project with no approvers."""


def _rationalize(x: Fraction, op: Callable[[Decimal], Decimal]) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = RATIONALIZE_DIGITS
        return Fraction(op(Decimal(x.numerator) / Decimal(x.denominator)))


@dataclass(frozen=True)
class SatisfactionFunction:
    """A monotone set function over projects.

    For additive kinds ``per_project`` holds the exact per-project values;
    ``value`` sums them and keeps each sum per set, while a set it cannot
    value raises again on every call. The cc kind is the only non-additive
    built-in; any other kind without per-project values raises
    ``CapabilityError`` from ``value``. Whether the function is additive or
    strictly increasing is read off ``per_project``, never declared.
    """

    kind: str
    per_project: Mapping[str, Fraction] | None = None
    _values: dict[frozenset[str], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.per_project and any(v < 0 for v in self.per_project.values()):
            raise ValueError(f"{self.kind} values must not be negative (μ must be monotone)")

    @property
    def additive(self) -> bool:
        return self.per_project is not None

    @property
    def strictly_increasing(self) -> bool:
        """Adding a valued project strictly raises the value."""
        return self.additive and all(v > 0 for v in self.per_project.values())

    def value(self, s: Iterable[str]) -> Fraction:
        s = frozenset(s)
        total = self._values.get(s)
        if total is not None:
            return total
        if self.kind == "cc":
            return Fraction(0) if not s else Fraction(1)
        if self.per_project is None:
            raise CapabilityError(f"{self.kind} has no per-project values to sum")
        total = Fraction(0)
        for p in s:
            try:
                total += self.per_project[p]
            except KeyError:
                if self.kind == "share":
                    raise UndefinedShareError(f"project {p!r} has no approvers")
                raise KeyError(f"no satisfaction value for project {p!r}")
        self._values[s] = total
        return total


def voter_satisfaction(
    mu: SatisfactionFunction, inst: Instance, voter: int, outcome: Iterable[str]
) -> Fraction:
    """Satisfaction a voter derives from an outcome: the value of the
    approved chosen projects."""
    return mu.value(inst.approval(voter) & frozenset(outcome))


# ---------------------------------------------------------------------------
# Built-in constructors


def cost_sat(inst: Instance) -> SatisfactionFunction:
    return SatisfactionFunction("cost", {p: inst.costs[p] for p in inst.projects})


def cardinality_sat(inst: Instance) -> SatisfactionFunction:
    return SatisfactionFunction("cardinality", {p: Fraction(1) for p in inst.projects})


def sqrt_cost_sat(inst: Instance) -> SatisfactionFunction:
    return SatisfactionFunction(
        "sqrt_cost", {p: _rationalize(inst.costs[p], Decimal.sqrt) for p in inst.projects}
    )


def log_cost_sat(inst: Instance) -> SatisfactionFunction:
    return SatisfactionFunction(
        "log_cost",
        {p: _rationalize(inst.costs[p], lambda d: (1 + d).ln()) for p in inst.projects},
    )


def cc_sat() -> SatisfactionFunction:
    return SatisfactionFunction("cc")


def share_sat(inst: Instance) -> SatisfactionFunction:
    """Per-project cost divided by approver count; undefined (and omitted)
    for projects nobody approves -- evaluating those raises."""
    counts = inst.approver_counts()
    return SatisfactionFunction("share", {p: inst.costs[p] / k for p, k in counts.items() if k})


def table_sat(values: Mapping[str, object]) -> SatisfactionFunction:
    table = {p: parse_money(v) for p, v in values.items()}
    for p, v in table.items():
        if v <= 0:
            raise ValueError(f"table value for {p!r} must be strictly positive")
    return SatisfactionFunction("table", table)


def _cost_values(cost_map: Mapping[object, object]) -> dict[Fraction, Fraction]:
    """A map from cost to satisfaction value, read as money. Refuses a cost
    named twice and a value that is not strictly positive."""
    parsed: dict[Fraction, Fraction] = {}
    for c, v in cost_map.items():
        cost = parse_money(c)
        if cost in parsed:  # "2" and "2.0" name one cost
            raise ParseError(f"cost map names cost {cost} twice")
        parsed[cost] = parse_money(v)
        if parsed[cost] <= 0:
            raise ValueError(f"cost map value for cost {cost} must be strictly positive")
    return parsed


def cost_map_sat(inst: Instance, cost_map: Mapping[object, object]) -> SatisfactionFunction:
    """Additive function induced by a map from cost to satisfaction value."""
    parsed = _cost_values(cost_map)
    for p in inst.projects:
        if inst.costs[p] not in parsed:
            raise ValueError(f"cost map has no entry for cost {inst.costs[p]}")
    return SatisfactionFunction("cost_map", {p: parsed[inst.costs[p]] for p in inst.projects})


BUILTINS = {
    "cost": cost_sat,
    "card": cardinality_sat,
    "sqrt": sqrt_cost_sat,
    "log": log_cost_sat,
    "share": share_sat,
}


# ---------------------------------------------------------------------------
# DNS classification


@dataclass(frozen=True)
class DnsViolation:
    """Witness that a pair of projects breaks one of the two DNS inequalities."""

    cheap: str
    pricey: str
    inequality: str  # "value" (mu(p) <= mu(p')) or "ratio" (mu(p)/c(p) >= mu(p')/c(p'))


def check_dns(mu: SatisfactionFunction, inst: Instance) -> DnsViolation | None:
    """Return a violating project pair, or None if mu has weakly decreasing
    normalized satisfaction on this instance."""
    if not mu.additive:
        raise CapabilityError("DNS classification requires an additive function")
    projects = [p for p in inst.projects if p in mu.per_project]
    by_cost = sorted(projects, key=lambda p: (inst.costs[p], p))
    for a, b in itertools.combinations(by_cost, 2):
        ca, cb = inst.costs[a], inst.costs[b]
        va, vb = mu.per_project[a], mu.per_project[b]
        if va > vb:
            return DnsViolation(cheap=a, pricey=b, inequality="value")
        if va / ca < vb / cb:
            return DnsViolation(cheap=a, pricey=b, inequality="ratio")
    return None


def is_dns(mu: SatisfactionFunction, inst: Instance) -> bool:
    return check_dns(mu, inst) is None


def is_strictly_cost_responsive(
    mu: SatisfactionFunction, inst: Instance, max_m: int = 16
) -> bool:
    """Exhaustively check that cheaper sets always give strictly less
    satisfaction: c(W) < c(W') implies mu(W) < mu(W')."""
    if inst.m > max_m:
        raise GuardExceededError(f"m={inst.m} exceeds guard {max_m}")
    by_cost: dict[Fraction, list[Fraction]] = {}
    projects = list(inst.projects)
    for bits in range(1 << inst.m):
        s = frozenset(projects[j] for j in range(inst.m) if bits >> j & 1)
        by_cost.setdefault(inst.total_cost(s), []).append(mu.value(s))
    running_max = None
    for cost in sorted(by_cost):
        vals = by_cost[cost]
        if running_max is not None and running_max >= min(vals):
            return False
        high = max(vals)
        if running_max is None or high > running_max:
            running_max = high
    return True


# ---------------------------------------------------------------------------
# DNS-necessity counterexamples


def dns_counterexample_instance(
    cost_values: Mapping[object, object], x: object, x_prime: object
) -> tuple[Instance, SatisfactionFunction]:
    """Build an instance on which MES with cardinality satisfaction violates
    PJR-x for the additive function induced by a non-DNS cost-to-value map.

    The map's values must be positive, and it must break DNS at the pair
    (x, x'): the pricier cost gives strictly less value, or strictly more
    value per unit of cost.
    """
    s = _cost_values(cost_values)
    x = parse_money(x)
    xp = parse_money(x_prime)
    if x > xp:
        raise ValueError("expected x <= x'")
    if x not in s or xp not in s:
        raise ValueError("map must cover both costs")
    # Rescale so the cheap project has cost 1 and value 1.
    xs = xp / x
    vs = s[xp] / s[x]
    if vs < 1:
        return _counterexample_value_drop(s, x, xs, vs)
    if vs / xs > 1:
        return _counterexample_ratio_jump(s, x, xs, vs)
    raise ValueError("map does not violate DNS at the given pair")


def _induced_mu(inst: Instance, s: Mapping[Fraction, Fraction], scale_c: Fraction,
                scale_v: Fraction) -> SatisfactionFunction:
    # Instance costs are rescaled; map values through the original map.
    return SatisfactionFunction(
        "cost_map", {p: s[inst.costs[p] * scale_c] * scale_v for p in inst.projects}
    )


def _counterexample_value_drop(
    s: Mapping[Fraction, Fraction], x: Fraction, xs: Fraction, vs: Fraction
) -> tuple[Instance, SatisfactionFunction]:
    # Pricier projects give less value. A mass of voters cohesive over cheap
    # projects watches MES[cardinality] spend everything on pricey ones.
    beta = 1 // (1 - vs) + 1  # beta > 1/(1-vs), so vs + 1/beta < 1
    eps = Fraction(1, 2 * beta)
    ratio = xs - 1 + eps / 2  # strictly inside (x'-1, x'-1+eps)
    p_cnt, q_cnt = ratio.numerator, ratio.denominator
    budget = beta * (xs + eps)
    cheap = [f"a{j}" for j in range(1, beta + 2)]
    pricey = [f"z{j}" for j in range(1, beta + 2)]
    costs = {p: Fraction(1) for p in cheap}
    costs.update({p: xs for p in pricey})
    everything = frozenset(cheap) | frozenset(pricey)
    approvals = [everything] * q_cnt + [frozenset(pricey)] * p_cnt
    inst = Instance(
        n=p_cnt + q_cnt,
        projects=tuple(cheap + pricey),
        costs=costs,
        approvals=tuple(approvals),
        budget=budget,
    )
    return inst, _induced_mu(inst, s, scale_c=x, scale_v=Fraction(1) / s[x])


def _counterexample_ratio_jump(
    s: Mapping[Fraction, Fraction], x: Fraction, xs: Fraction, vs: Fraction
) -> tuple[Instance, SatisfactionFunction]:
    # Pricier projects give more value per cost. A single voter is cohesive
    # over pricey projects while MES[cardinality] buys cheap ones.
    beta = vs // (vs - xs) + 1  # beta*(vs-xs) > vs, so xs/vs < (beta-1)/beta
    budget = beta * xs
    n_cheap = int(budget)  # floor
    cheap = [f"a{j}" for j in range(1, n_cheap + 1)]
    pricey = [f"z{j}" for j in range(1, beta + 1)]
    costs = {p: Fraction(1) for p in cheap}
    costs.update({p: xs for p in pricey})
    inst = Instance(
        n=1,
        projects=tuple(cheap + pricey),
        costs=costs,
        approvals=(frozenset(cheap + pricey),),
        budget=budget,
    )
    return inst, _induced_mu(inst, s, scale_c=x, scale_v=Fraction(1) / s[x])
