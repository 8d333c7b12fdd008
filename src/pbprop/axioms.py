"""Exact proportionality auditors with violation witnesses.

Checks a fixed outcome against the EJR family (EJR, up-to-one, up-to-one
restricted to the demanded set, up-to-any) and the PJR family (PJR,
up-to-one, up-to-any, and the local best-affordable-set variant), all by
exhaustive cohesive-group search. Exponential by design; guarded.

Every axiom quantifies over the same objects: a demanded set T and a group
of its approvers N_T that can afford it, |N_T|·b >= n·c(T). `demand_sets`
lists those T once per instance by a depth-first search over the sorted
project ids that stops a branch at the first unaffordable set (supersets
only cost more and lose approvers). The list is memoised on the instance,
so the eight checkers and the greedy cohesive rule share one enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .errors import GuardExceededError, InconsistentAuditError
from .model import Instance, InstanceError
from .satisfaction import SatisfactionFunction, voter_satisfaction


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
    return inst.total_cost(t) * inst.n <= len(group) * inst.budget


def _guard(inst: Instance, max_m: int, max_n: int) -> None:
    if inst.m > max_m or inst.n > max_n:
        raise GuardExceededError(
            f"instance size ({inst.n} voters in {len(inst.ballot_types())} distinct "
            f"ballots, {inst.m} projects) exceeds guard ({max_n} voters, {max_m} projects)"
        )


def _check_outcome(inst: Instance, outcome) -> frozenset[str]:
    w = frozenset(outcome)
    if inst.total_cost(w) > inst.budget:
        raise InstanceError("outcome exceeds the budget")
    return w


# ---------------------------------------------------------------------------
# Shared demand-set enumeration


# (group, intersection of its ballots, union of its ballots)
Signature = tuple[frozenset[int], frozenset[str], frozenset[str]]


@dataclass(frozen=True)
class Demand:
    """A nonempty project set T that its approvers can afford together."""

    t: frozenset[str]
    cost: Fraction
    approvers: tuple[int, ...]  # N_T, ascending
    min_size: int  # smallest group size whose budget share covers c(T)
    _inst: Instance = field(repr=False, compare=False)

    @cached_property
    def signatures(self) -> tuple[Signature, ...]:
        """`_group_signatures` of the approvers, computed on first use."""
        return tuple(_group_signatures(self._inst, self.approvers, self.min_size))


def demand_sets(inst: Instance) -> tuple[Demand, ...]:
    """Every T with |N_T|·b >= n·c(T), ordered by (|T|, sorted ids) so that
    reported witnesses are deterministic. Memoised on the instance."""
    if inst._demands is None:
        projects = sorted(inst.projects)
        found: list[Demand] = []

        def extend(start: int, ids: tuple[str, ...], cost: Fraction, voters) -> None:
            for j in range(start, len(projects)):
                t_ids = ids + (projects[j],)
                t_cost = cost + inst.costs[projects[j]]
                t_voters = voters & inst.approvers(projects[j])
                if len(t_voters) * inst.budget < inst.n * t_cost:
                    continue  # no superset is affordable either
                approvers = tuple(sorted(t_voters))
                size = math.ceil(inst.n * t_cost / inst.budget)
                found.append(Demand(frozenset(t_ids), t_cost, approvers, size, inst))
                extend(j + 1, t_ids, t_cost, t_voters)

        extend(0, (), Fraction(0), frozenset(inst.voters))
        found.sort(key=lambda d: (len(d.t), sorted(d.t)))
        object.__setattr__(inst, "_demands", tuple(found))
    return inst._demands


# ---------------------------------------------------------------------------
# EJR family: a violating group consists only of voters the outcome leaves
# unsatisfied for T, and any such set of sufficient size is itself a
# cohesive witness, so per T it suffices to test the unsatisfied approvers.


def _ejr_family(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    axiom: str,
    satisfied: Callable[[int, frozenset[str], Fraction], tuple[bool, dict]],
    max_m: int,
    max_n: int,
) -> Violation | None:
    _guard(inst, max_m, max_n)
    _check_outcome(inst, outcome)
    for d in demand_sets(inst):
        target = mu.value(d.t)
        unsatisfied = []
        details = {}
        for i in d.approvers:
            ok, info = satisfied(i, d.t, target)
            if not ok:
                unsatisfied.append(i)
                details[i] = info
        if len(unsatisfied) >= d.min_size:
            rep = min(unsatisfied)
            info = details[rep]
            return Violation(
                axiom=axiom,
                witness=CohesiveWitness(t=d.t, group=frozenset(unsatisfied)),
                lhs=info.pop("lhs"),
                rhs=target,
                detail={"voter": rep, **info},
            )
    return None


def _augmented_satisfaction(
    inst: Instance, mu: SatisfactionFunction, w: frozenset[str]
) -> Callable[[int, str], Fraction]:
    """Memoized evaluator for a voter's satisfaction with w plus one more
    project, with an exact shortcut for additive functions."""
    base: dict[int, Fraction] = {}

    def sat_with(i: int, p: str) -> Fraction:
        if i not in base:
            base[i] = voter_satisfaction(mu, inst, i, w)
        if p in w or p not in inst.approval(i):
            return base[i]
        if mu.additive and mu.per_project is not None:
            return base[i] + mu.per_project[p]
        return voter_satisfaction(mu, inst, i, w | {p})

    return sat_with


def check_ejr(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """Extended justified representation: every cohesive group contains a
    voter whose satisfaction with the outcome matches their demand."""
    w = frozenset(outcome)
    base: dict[int, Fraction] = {}

    def satisfied(i, t, target):
        if i not in base:
            base[i] = voter_satisfaction(mu, inst, i, w)
        return base[i] >= target, {"lhs": base[i]}

    return _ejr_family(inst, mu, outcome, "ejr", satisfied, max_m, max_n)


def check_ejr1(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to one project: some group member would beat the demand if
    any single unchosen project were added."""
    w = frozenset(outcome)
    rescuers = [p for p in inst.projects if p not in w]
    best_with_rescue: dict[int, Fraction] = {}

    def rescue_value(i: int) -> Fraction:
        # Adding a project the voter does not approve changes nothing, so
        # the max over rescuers is independent of T and cached per voter.
        if i not in best_with_rescue:
            best_with_rescue[i] = max(
                (voter_satisfaction(mu, inst, i, w | {p}) for p in rescuers),
                default=voter_satisfaction(mu, inst, i, w),
            )
        return best_with_rescue[i]

    def satisfied(i, t, target):
        if t <= w:
            return True, {}
        best = rescue_value(i)
        return best > target, {"lhs": best}

    return _ejr_family(inst, mu, outcome, "ejr1", satisfied, max_m, max_n)


def check_ejr1_plus(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to one project drawn from the demanded set itself."""
    w = frozenset(outcome)
    sat_with = _augmented_satisfaction(inst, mu, w)

    def satisfied(i, t, target):
        extra = t - w
        if not extra:
            return True, {}
        best = max(sat_with(i, p) for p in extra)
        return best > target, {"lhs": best}

    return _ejr_family(inst, mu, outcome, "ejr1plus", satisfied, max_m, max_n)


def check_ejrx(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """EJR up to any project: some group member beats the demand no matter
    which single project from the demanded set is added."""
    w = frozenset(outcome)
    sat_with = _augmented_satisfaction(inst, mu, w)

    def satisfied(i, t, target):
        extra = t - w
        if not extra:
            return True, {}
        worst_p = min(extra, key=lambda p: (sat_with(i, p), p))
        worst = sat_with(i, worst_p)
        return worst > target, {"lhs": worst, "project": worst_p}

    return _ejr_family(inst, mu, outcome, "ejrx", satisfied, max_m, max_n)


# ---------------------------------------------------------------------------
# PJR family: group satisfaction is measured on the union (and for some
# variants the intersection) of the group's ballots. Those only depend on
# which distinct ballots appear in the group, so it suffices to enumerate
# sets of ballot types and take all their holders as the representative
# group: that group has the extremal size for its signature, and any
# violating group shares its signature with some enumerated representative.


def _group_signatures(
    inst: Instance, approvers: Iterable[int], min_size: int
) -> Iterator[Signature]:
    """Yield (group, intersection, union) for each achievable ballot
    signature among subgroups of the approvers with at least min_size
    members; deduplicated, deterministic order. The approvers are whole
    ballot types, such as N_T: every holder of each ballot containing T."""
    members = set(approvers)
    by_ballot = {b: v for b, v in inst.ballot_types().items() if v[0] in members}
    types = sorted(by_ballot, key=sorted)
    seen = set()
    for r in range(1, len(types) + 1):
        for combo in itertools.combinations(types, r):
            members = sorted(i for t in combo for i in by_ballot[t])
            if len(members) < min_size:
                continue
            inter = frozenset.intersection(*combo)
            union = frozenset.union(*combo)
            if (inter, union) in seen:
                continue
            seen.add((inter, union))
            yield frozenset(members), inter, union


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
    _guard(inst, max_m, max_n)
    w = _check_outcome(inst, outcome)
    for d in demand_sets(inst):
        target = mu.value(d.t)
        for group, _, union in d.signatures:
            got = mu.value(w & union)
            if got < target:
                return Violation(
                    axiom="pjr",
                    witness=CohesiveWitness(t=d.t, group=group),
                    lhs=got,
                    rhs=target,
                )
    return None


def check_pjrx(
    inst: Instance,
    mu: SatisfactionFunction,
    outcome,
    max_m: int = 14,
    max_n: int = 14,
) -> Violation | None:
    """PJR up to any project: adding any single project from the demanded
    set to the group's share must beat the demand."""
    _guard(inst, max_m, max_n)
    w = _check_outcome(inst, outcome)
    for d in demand_sets(inst):
        extra = sorted(d.t - w)
        if not extra:
            continue
        target = mu.value(d.t)
        for group, _, union in d.signatures:
            share = w & union
            for p in extra:
                got = mu.value(share | {p})
                if got <= target:
                    return Violation(
                        axiom="pjrx",
                        witness=CohesiveWitness(t=d.t, group=group),
                        lhs=got,
                        rhs=target,
                        detail={"project": p},
                    )
    return None


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
    _guard(inst, max_m, max_n)
    w = _check_outcome(inst, outcome)
    for d in demand_sets(inst):
        if d.t <= w:
            continue
        target = mu.value(d.t)
        for group, inter, union in d.signatures:
            share = w & union
            options = sorted(inter - w)
            if any(mu.value(share | {p}) > target for p in options):
                continue
            best = max(
                (mu.value(share | {p}) for p in options), default=mu.value(share)
            )
            return Violation(
                axiom="pjr1",
                witness=CohesiveWitness(t=d.t, group=group),
                lhs=best,
                rhs=target,
            )
    return None


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
    _guard(inst, max_m, max_n)
    w = _check_outcome(inst, outcome)
    demands = demand_sets(inst)
    for d in demands:
        for group, inter, union in d.signatures:
            base = w & union
            if not base <= inter:
                continue  # no subset of the common ballot can extend it
            best_val = mu.value(frozenset())
            best_sets = []
            for s in demands:
                if s.cost > d.cost or not s.t <= inter:
                    continue
                val = mu.value(s.t)
                if val > best_val:
                    best_val, best_sets = val, [s.t]
                elif val == best_val:
                    best_sets.append(s.t)
            for star in best_sets:
                if base < star:
                    return Violation(
                        axiom="localbpjr",
                        witness=CohesiveWitness(t=d.t, group=group),
                        lhs=mu.value(base),
                        rhs=best_val,
                        detail={"best_set": tuple(sorted(star))},
                    )
    return None


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
    report = AuditReport(results={}, strictly_increasing=mu.strictly_increasing)
    names = list(axioms) if axioms is not None else list(AXIOM_CHECKERS)
    for name in names:
        try:
            checker = AXIOM_CHECKERS[name]
        except KeyError:
            raise ValueError(f"unknown axiom {name!r}")
        try:
            report.results[name] = checker(inst, mu, outcome)
        except GuardExceededError as exc:
            report.guard_errors[name] = str(exc)
    bad = report.inconsistencies()
    if bad:
        raise InconsistentAuditError(f"implication lattice broken: {bad}")
    return report
