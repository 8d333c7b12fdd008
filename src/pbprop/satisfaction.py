"""Satisfaction functions over project sets, with capabilities read off their values.

Built-ins: cost, cardinality, sqrt-of-cost, log(1+cost), Chamberlin-Courant
style coverage (cc), share, and user tables. Square roots and logarithms are
rationalized once at construction (12 significant decimal digits); all later
arithmetic is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import CapabilityError
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
        # Values are exact, and an int's or a Fraction's sign is its numerator's.
        for p, v in (self.per_project or {}).items():
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"{self.kind} value for {p!r} must be an int or a Fraction")
            if v.numerator < 0:
                raise ValueError(f"{self.kind} values must not be negative (μ must be monotone)")

    @property
    def additive(self) -> bool:
        return self.per_project is not None

    @property
    def strictly_increasing(self) -> bool:
        """Adding a valued project strictly raises the value."""
        return self.additive and all(v.numerator > 0 for v in self.per_project.values())

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


def _by_cost(kind: str, inst: Instance,
             value: Callable[[Fraction], Fraction]) -> SatisfactionFunction:
    """The additive function whose value on p is ``value(c(p))``, valued in
    project order."""
    return SatisfactionFunction(kind, {p: value(inst.costs[p]) for p in inst.projects})


def cost_sat(inst: Instance) -> SatisfactionFunction:
    return _by_cost("cost", inst, lambda c: c)


def cardinality_sat(inst: Instance) -> SatisfactionFunction:
    return _by_cost("cardinality", inst, lambda c: Fraction(1))


def sqrt_cost_sat(inst: Instance) -> SatisfactionFunction:
    return _by_cost("sqrt_cost", inst, lambda c: _rationalize(c, Decimal.sqrt))


def log_cost_sat(inst: Instance) -> SatisfactionFunction:
    return _by_cost("log_cost", inst, lambda c: _rationalize(c, lambda d: (1 + d).ln()))


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
    def value(c: Fraction) -> Fraction:
        if c not in parsed:
            raise ValueError(f"cost map has no entry for cost {c}")
        return parsed[c]

    return _by_cost("cost_map", inst, value)


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
    """Return the first violating pair of neighbours in (cost, id) order, or
    None if mu has weakly decreasing normalized satisfaction on this instance:
    both inequalities chain along that order, so neighbours decide."""
    if not mu.additive:
        raise CapabilityError("DNS classification requires an additive function")
    projects = [p for p in inst.projects if p in mu.per_project]
    by_cost = sorted(projects, key=lambda p: (inst.costs[p], p))
    for a, b in zip(by_cost, by_cost[1:]):
        ca, cb = inst.costs[a], inst.costs[b]
        va, vb = mu.per_project[a], mu.per_project[b]
        if va > vb:
            return DnsViolation(cheap=a, pricey=b, inequality="value")
        if va / ca < vb / cb:
            return DnsViolation(cheap=a, pricey=b, inequality="ratio")
    return None


def is_dns(mu: SatisfactionFunction, inst: Instance) -> bool:
    return check_dns(mu, inst) is None


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
        # Pricier projects give less value. A mass of voters cohesive over cheap
        # projects watches MES[cardinality] spend everything on pricey ones.
        beta = 1 // (1 - vs) + 1  # beta > 1/(1-vs), so vs + 1/beta < 1
        eps = Fraction(1, 2 * beta)
        ratio = xs - 1 + eps / 2  # strictly inside (x'-1, x'-1+eps)
        return _two_tiers(beta + 1, beta + 1, xs, vs, beta * (xs + eps),
                          n_all=ratio.denominator, n_pricey_only=ratio.numerator)
    if vs / xs > 1:
        # Pricier projects give more value per cost. A single voter is cohesive
        # over pricey projects while MES[cardinality] buys cheap ones.
        beta = vs // (vs - xs) + 1  # beta*(vs-xs) > vs, so xs/vs < (beta-1)/beta
        budget = beta * xs
        return _two_tiers(int(budget), beta, xs, vs, budget, n_all=1, n_pricey_only=0)  # int floors
    raise ValueError("map does not violate DNS at the given pair")


def _two_tiers(n_cheap: int, n_pricey: int, xs: Fraction, vs: Fraction, budget: Fraction,
               n_all: int, n_pricey_only: int) -> tuple[Instance, SatisfactionFunction]:
    """Cheap projects a1… at cost and value 1, pricey projects z1… at cost xs
    and value vs (the map's s[c·x]/s[x] on the rescaled costs); ``n_all``
    voters approve every project, then ``n_pricey_only`` the pricey ones."""
    cheap = [f"a{j}" for j in range(1, n_cheap + 1)]
    pricey = [f"z{j}" for j in range(1, n_pricey + 1)]
    costs = {**dict.fromkeys(cheap, Fraction(1)), **dict.fromkeys(pricey, xs)}
    inst = Instance(
        n=n_all + n_pricey_only,
        projects=tuple(costs),
        costs=costs,
        approvals=(frozenset(costs),) * n_all + (frozenset(pricey),) * n_pricey_only,
        budget=budget,
    )
    return inst, _by_cost("cost_map", inst, {Fraction(1): Fraction(1), xs: vs}.__getitem__)
