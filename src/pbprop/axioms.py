"""Exact proportionality auditors with violation witnesses.

Checks a fixed outcome against the EJR family (EJR, up-to-one, up-to-one
restricted to the demanded set, up-to-any) and the PJR family (PJR,
up-to-one, up-to-any, and the local best-affordable-set variant), all by
exhaustive cohesive-group search. Exponential by design; guarded.

Every axiom quantifies over the same objects: a demanded set T and a group
of its approvers N_T that can afford it, |N_T|·b >= n·c(T). `demand_sets`
lists those T once per instance by a depth-first search over the sorted
ids that narrows the ballot types holding T, pruning at the first
unaffordable set (supersets cost more and lose approvers). The list is
memoised on the instance, shared by the eight checkers and by GCR.

Both family loops skip each demand T inside the outcome W before any μ
call: every member's share of W then contains T, so for a monotone μ no
axiom here can fail on T (the README's Guards section says why).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import GuardExceededError, InconsistentAuditError
from .model import Instance
from .satisfaction import SatisfactionFunction


@dataclass(frozen=True)
class CohesiveWitness:
    """A demanded project set together with a group that can afford it."""

    t: frozenset[str]
    group: frozenset[int]


@dataclass(frozen=True)
class Violation:
    """A reproducible axiom failure: re-evaluating lhs vs rhs on the
    witness reproduces the failed comparison exactly."""

    axiom: str
    witness: CohesiveWitness
    lhs: Fraction
    rhs: Fraction
    detail: Mapping[str, object] = field(default_factory=dict)


def is_cohesive(inst: Instance, t: Iterable[str], group: Iterable[int]) -> bool:
    """A group is cohesive over T when everyone in it approves all of T and
    the group's proportional budget share covers c(T)."""
    t = frozenset(t)
    group = frozenset(group)
    if not t or not group:
        return False
    if any(not t <= inst.approval(i) for i in group):
        return False
    cost = sum(inst.cost_units[p] for p in t)  # T lies in a ballot, so its ids are known
    return cost * inst.n <= len(group) * inst.budget_units


def _guard(inst: Instance, max_m: int, max_n: int) -> None:
    """Refuse instances past the size limits. The message estimates the
    work: at most 2^m demand sets, each checked per distinct ballot."""
    if inst.m > max_m or inst.n > max_n:
        ballots = len(inst.ballot_types())
        raise GuardExceededError(
            f"instance size ({inst.n} voters in {ballots} distinct ballots, {inst.m} "
            f"projects, up to 2^{inst.m} demand sets x {ballots} ballots) exceeds guard "
            f"({max_n} voters, {max_m} projects)"
        )


# ---------------------------------------------------------------------------
# Shared demand-set enumeration


# A distinct ballot and its holders, in ascending order
BallotType = tuple[frozenset[str], Sequence[int]]
# (a group's ballot types, intersection of its ballots, union of its ballots)
Signature = tuple[tuple[BallotType, ...], frozenset[str], frozenset[str]]


@dataclass(frozen=True)
class Demand:
    """A nonempty project set T that its approvers can afford together."""

    t: frozenset[str]
    cost: Fraction
    types: tuple[BallotType, ...]  # the ballot types containing T, by lowest holder
    min_size: int  # smallest group size whose budget share covers c(T)

    @cached_property
    def signatures(self) -> tuple[Signature, ...]:
        """`_group_signatures` of the ballot types, computed on first use."""
        return tuple(_group_signatures(self.types, self.min_size))


def demand_sets(inst: Instance) -> tuple[Demand, ...]:
    """Every T with |N_T|·b >= n·c(T), ordered by (|T|, sorted ids) so that
    reported witnesses are deterministic. Memoised on the instance. The
    search carries c(T) as an int over ``inst.unit``."""
    if inst._demands is None:
        projects = sorted(inst.projects)
        n, budget, unit, costs = inst.n, inst.budget_units, inst.unit, inst.cost_units
        found: list[Demand] = []

        def extend(start: int, ids: tuple[str, ...], cost: int, types) -> None:
            for j, p in enumerate(projects[start:], start):
                t_ids = ids + (p,)
                t_cost = cost + costs[p]
                t_types = tuple([bt for bt in types if p in bt[0]])
                if sum([len(h) for _, h in t_types]) * budget < n * t_cost:
                    continue  # no superset is affordable either
                found.append(Demand(frozenset(t_ids), Fraction(t_cost, unit), t_types,
                                    -(-n * t_cost // budget)))
                extend(j + 1, t_ids, t_cost, t_types)

        types = tuple((b, tuple(h)) for b, h in inst.ballot_types().items())
        extend(0, (), 0, types)
        found.sort(key=lambda d: (len(d.t), sorted(d.t)))
        object.__setattr__(inst, "_demands", tuple(found))
    return inst._demands


# ---------------------------------------------------------------------------
# EJR family: a violating group consists only of voters the outcome leaves
# unsatisfied for T, and any such set of sufficient size is itself a
# cohesive witness, so per T it suffices to test the unsatisfied approvers.
# A voter's satisfaction depends only on their ballot, so each ballot type
# containing T is tested once for all its holders.


def _ejr_family(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    axiom: str,
    unmet: Callable[[frozenset[str], frozenset[str], frozenset[str], Fraction], tuple | None],
    max_m: int,
    max_n: int,
) -> Violation | None:
    """`unmet(ballot, W, T, mu(T))` is None when the ballot's holders are
    satisfied, else (lhs, detail); it only sees T outside W."""
    w = inst.check_outcome(outcome)
    _guard(inst, max_m, max_n)
    for d in demand_sets(inst):
        if d.t <= w:
            continue
        target = mu.value(d.t)
        failed = [(h, f) for b, h in d.types if (f := unmet(b, w, d.t, target)) is not None]
        if sum(len(h) for h, _ in failed) >= d.min_size:
            holders, (lhs, detail) = failed[0]  # holds the lowest unsatisfied voter
            group = frozenset(i for h, _ in failed for i in h)
            return Violation(axiom, CohesiveWitness(d.t, group), lhs, target,
                             {"voter": holders[0], **detail})
    return None


def check_ejr(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """Extended justified representation: every cohesive group contains a
    voter whose satisfaction with the outcome matches their demand."""
    def unmet(ballot, w, t, target):
        got = mu.value(ballot & w)
        return None if got >= target else (got, {})

    return _ejr_family(inst, mu, outcome, "ejr", unmet, max_m, max_n)


def check_ejr1(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to one project: some group member would beat the demand if
    any single unchosen project were added."""
    best_with_rescue: dict[frozenset[str], Fraction] = {}

    def unmet(ballot, w, t, target):
        # Adding a project the voter does not approve changes nothing, so
        # the best rescue is independent of T and cached per ballot type.
        if ballot not in best_with_rescue:
            share = ballot & w
            best_with_rescue[ballot] = max(mu.value(share | {p}) for p in ballot - w)
        best = best_with_rescue[ballot]
        return None if best > target else (best, {})

    return _ejr_family(inst, mu, outcome, "ejr1", unmet, max_m, max_n)


def check_ejr1_plus(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to one project drawn from the demanded set itself."""
    def unmet(ballot, w, t, target):
        share = ballot & w
        best = max(mu.value(share | {p}) for p in t - w)
        return None if best > target else (best, {})

    return _ejr_family(inst, mu, outcome, "ejr1plus", unmet, max_m, max_n)


def check_ejrx(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to any project: some group member beats the demand no matter
    which single project from the demanded set is added."""
    def unmet(ballot, w, t, target):
        share = ballot & w
        worst, p = min((mu.value(share | {p}), p) for p in t - w)
        return None if worst > target else (worst, {"project": p})

    return _ejr_family(inst, mu, outcome, "ejrx", unmet, max_m, max_n)


# ---------------------------------------------------------------------------
# PJR family: group satisfaction is measured on the union (and for some
# variants the intersection) of the group's ballots. Those only depend on
# which distinct ballots appear in the group, so it suffices to enumerate
# sets of ballot types and take all their holders as the representative
# group: that group has the extremal size for its signature, and any
# violating group shares its signature with some enumerated representative.


def _group_signatures(types: Iterable[BallotType], min_size: int) -> Iterator[Signature]:
    """Yield (types, intersection, union) for each achievable ballot
    signature among sets of the given ballot types, as (ballot, holders)
    pairs, whose holders number at least min_size; deduplicated,
    deterministic order. A signature's group is every holder of its types."""
    types = sorted(types, key=lambda bt: sorted(bt[0]))
    seen = set()
    for r in range(1, len(types) + 1):
        for combo in itertools.combinations(types, r):
            if sum(len(holders) for _, holders in combo) < min_size:
                continue
            inter = frozenset.intersection(*(b for b, _ in combo))
            union = frozenset.union(*(b for b, _ in combo))
            if (inter, union) in seen:
                continue
            seen.add((inter, union))
            yield combo, inter, union


def _pjr_family(
    inst: Instance,
    outcome,
    axiom: str,
    unmet: Callable[[Demand, frozenset[str], frozenset[str], frozenset[str]], tuple | None],
    max_m: int,
    max_n: int,
) -> Violation | None:
    """`unmet(demand, W, intersection, share)`, for T outside W, is None when
    the representative group passes, else (lhs, rhs, detail); share is W ∩ union."""
    w = inst.check_outcome(outcome)
    _guard(inst, max_m, max_n)
    for d in demand_sets(inst):
        if d.t <= w:
            continue
        for types, inter, union in d.signatures:
            failed = unmet(d, w, inter, w & union)
            if failed is not None:
                group = frozenset(i for _, holders in types for i in holders)
                return Violation(axiom, CohesiveWitness(d.t, group), *failed)
    return None


def check_pjr(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """Proportional justified representation: the outcome restricted to a
    cohesive group's combined ballots is worth at least the demand.

    Any violating group shares its ballot signature with one of the
    enumerated representatives, so the search is exhaustive."""

    def unmet(d, w, inter, share):
        target = mu.value(d.t)
        got = mu.value(share)
        return None if got >= target else (got, target, {})

    return _pjr_family(inst, outcome, "pjr", unmet, max_m, max_n)


def check_pjrx(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """PJR up to any project: adding any single project from the demanded
    set to the group's share must beat the demand."""
    def unmet(d, w, inter, share):
        target = mu.value(d.t)
        for p in sorted(d.t - w):
            got = mu.value(share | {p})
            if got <= target:
                return got, target, {"project": p}
        return None

    return _pjr_family(inst, outcome, "pjrx", unmet, max_m, max_n)


def check_pjr1(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 12,
    max_n: int = 12,
) -> Violation | None:
    """PJR up to one project, with the rescuing project drawn from the
    group's common ballot. The common ballot shrinks as the group grows,
    so every achievable intersection/union signature is examined."""
    def unmet(d, w, inter, share):
        target = mu.value(d.t)
        best = max(mu.value(share | {p}) for p in inter - w)
        return None if best > target else (best, target, {})

    return _pjr_family(inst, outcome, "pjr1", unmet, max_m, max_n)


def check_local_bpjr(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 12,
    max_n: int = 12,
) -> Violation | None:
    """Local variant of best-affordable-set PJR: no cohesive group may
    point to a best set W* inside its common ballot, affordable at the
    demand's cost, that strictly extends the group's share of the outcome.

    Every nonempty S inside the common ballot with c(S) <= c(T) is itself
    a demand (the group approves S and affords it), so the best-set search
    scans the shared demand list; the empty set never extends a share."""

    def unmet(d, w, inter, share):
        if not share <= inter:
            return None  # no subset of the common ballot can extend it
        best_val = mu.value(frozenset())
        best_sets = []
        for s in demand_sets(inst):
            if s.cost > d.cost or not s.t <= inter:
                continue
            val = mu.value(s.t)
            if val > best_val:
                best_val, best_sets = val, [s.t]
            elif val == best_val:
                best_sets.append(s.t)
        for star in best_sets:
            if share < star:
                return mu.value(share), best_val, {"best_set": tuple(sorted(star))}
        return None

    return _pjr_family(inst, outcome, "localbpjr", unmet, max_m, max_n)


# ---------------------------------------------------------------------------
# Combined audit


AXIOM_CHECKERS: dict[str, Callable] = {
    "ejr": check_ejr,
    "ejr1": check_ejr1,
    "ejr1plus": check_ejr1_plus,
    "ejrx": check_ejrx,
    "pjr": check_pjr,
    "pjr1": check_pjr1,
    "pjrx": check_pjrx,
    "localbpjr": check_local_bpjr,
}

# Pairs (stronger, weaker): a pass of the stronger axiom must imply a pass
# of the weaker one whenever both checkers ran.
IMPLICATIONS = (
    ("ejr", "ejrx"),
    ("ejrx", "ejr1plus"),
    ("ejr1plus", "ejr1"),
    ("ejr", "pjr"),
    ("ejrx", "pjrx"),
    ("pjr", "pjrx"),
    ("pjrx", "pjr1"),
    ("pjrx", "localbpjr"),
)

# Crossing from an at-least-the-demand axiom into a beats-the-demand axiom
# needs adding an approved project to strictly raise satisfaction; a flat
# function like pure coverage legitimately breaks these two steps.
STRICT_IMPLICATIONS = frozenset({("ejr", "ejrx"), ("pjr", "pjrx")})


@dataclass
class AuditReport:
    """Outcome of running every axiom checker, plus consistency checks."""

    results: dict[str, Violation | None]
    guard_errors: dict[str, str] = field(default_factory=dict)
    strictly_increasing: bool = True

    def passed(self, axiom: str) -> bool:
        return axiom in self.results and self.results[axiom] is None

    def inconsistencies(self) -> list[tuple[str, str]]:
        bad = []
        for strong, weak in IMPLICATIONS:
            if (strong, weak) in STRICT_IMPLICATIONS and not self.strictly_increasing:
                continue
            if (
                strong in self.results
                and weak in self.results
                and self.results[strong] is None
                and self.results[weak] is not None
            ):
                bad.append((strong, weak))
        return bad


def audit_all(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    axioms: Iterable[str] | None = None,
) -> AuditReport:
    """Run the named checkers (all by default) and verify that their
    verdicts respect the implication lattice."""
    w = inst.check_outcome(outcome)
    report = AuditReport(results={}, strictly_increasing=mu.strictly_increasing)
    names = list(axioms) if axioms is not None else list(AXIOM_CHECKERS)
    for name in names:
        try:
            checker = AXIOM_CHECKERS[name]
        except KeyError:
            raise ValueError(f"unknown axiom {name!r}")
        try:
            report.results[name] = checker(inst, mu, w)
        except GuardExceededError as exc:
            report.guard_errors[name] = str(exc)
    bad = report.inconsistencies()
    if bad:
        raise InconsistentAuditError(f"implication lattice broken: {bad}")
    return report
