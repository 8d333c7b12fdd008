"""Reproduction registry: canonical worked examples and counterexamples.

Each case rebuilds a small instance, re-runs the relevant rules/auditors,
and compares against frozen expected values. Every expectation carries a
provenance tag: [PAPER] for values quoted from the source material,
[DERIVED] for values recomputed independently, [TRIVIAL] for definitional
facts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .axioms import (
    check_ejr,
    check_ejr1,
    check_ejr1_plus,
    check_ejrx,
    check_local_bpjr,
    check_pjr,
    check_pjr1,
    check_pjrx,
)
from .model import Instance
from .pricing import (
    PriceSystem,
    extract_from_mes_trace,
    find_price_system,
    verify_price_system,
)
from .rules import run_mes
from .satisfaction import (
    SatisfactionFunction,
    cardinality_sat,
    cost_sat,
    dns_counterexample_instance,
    is_dns,
    table_sat,
)


# ---------------------------------------------------------------------------
# Canonical instances


def best_outcome_example() -> Instance:
    """One voter, one expensive project vs. four cheap ones, budget 5."""
    return Instance.create(
        {"p1": 5, "p2": 1, "p3": 1, "p4": 1, "p5": 1},
        [{"p1", "p2", "p3", "p4", "p5"}],
        5,
    )


def table_mu_example() -> tuple[Instance, SatisfactionFunction]:
    """One voter, budget 7, and a deliberately non-DNS value table that
    separates the exact/up-to-one/up-to-any representation axioms."""
    inst = Instance.create(
        {"p1": "2.5", "p2": "2.5", "p3": "2.5", "p4": "3", "p5": "4.5"},
        [{"p1", "p2", "p3", "p4", "p5"}],
        7,
    )
    mu = table_sat({"p1": "0.1", "p2": "0.1", "p3": "0.1", "p4": "3.1", "p5": "4"})
    return inst, mu


def incompatibility_example() -> Instance:
    """Two voters sharing two expensive projects plus five cheap ones each;
    no outcome satisfies EJR-1 under cost and cardinality simultaneously."""
    costs = {f"p{j}": Fraction(5 if j <= 2 else 1) for j in range(1, 13)}
    a1 = {f"p{j}" for j in (1, 2, 3, 4, 5, 6, 7)}
    a2 = {f"p{j}" for j in (1, 2, 8, 9, 10, 11, 12)}
    return Instance.create(costs, [a1, a2], 10)


def priceable_not_pjrx_example() -> Instance:
    """Two voters, one shared expensive project and four private cheap
    ones; {p1} is priceable with B above the budget yet fails the
    cardinality up-to-any proportionality test."""
    return Instance.create(
        {"p1": 4, "p2": 1, "p3": 1, "p4": 1, "p5": 1},
        [{"p1", "p2", "p3"}, {"p1", "p4", "p5"}],
        4,
    )


def shared_big_project_example() -> Instance:
    """Two voters, budget 3: a shared cost-3 project against two privately
    approved unit projects; separates cost-MES from cardinality-MES."""
    return Instance.create(
        {"p1": 3, "p2": 1, "p3": 1}, [{"p1", "p2"}, {"p1", "p3"}], 3
    )


def unit_cost_separation_example() -> Instance:
    """Three voters, four unit-cost projects, budget 2; {p3,p4} fails PJR
    but passes the local best-affordable-set variant."""
    return Instance.create(
        {"p1": 1, "p2": 1, "p3": 1, "p4": 1},
        [{"p1", "p2", "p3"}, {"p1", "p2", "p3"}, {"p1", "p2"}],
        2,
    )


def single_voter_separation_example() -> Instance:
    """One voter, costs 2/2/3, budget 4; {p1} passes PJR up-to-one but
    fails the local best-affordable-set variant."""
    return Instance.create({"p1": 2, "p2": 2, "p3": 3}, [{"p1", "p2", "p3"}], 4)


# ---------------------------------------------------------------------------
# Case machinery


@dataclass
class CheckResult:
    label: str
    tag: str  # PAPER | DERIVED | TRIVIAL
    ok: bool
    observed: str


@dataclass
class CaseResult:
    case_id: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _check(label: str, tag: str, ok: bool, observed) -> CheckResult:
    return CheckResult(label=label, tag=tag, ok=bool(ok), observed=str(observed))


def _feasible_outcomes(inst: Instance) -> Iterable[frozenset[str]]:
    projects = sorted(inst.projects)
    for bits in range(1 << inst.m):
        w = frozenset(projects[j] for j in range(inst.m) if bits >> j & 1)
        if inst.total_cost(w) <= inst.budget:
            yield w


# ---------------------------------------------------------------------------
# Cases


def _case_best_outcome() -> Iterator[CheckResult]:
    inst = best_outcome_example()
    for mu, expect_w, expect_val, tag in (
        (cost_sat(inst), {"p1"}, Fraction(5), "PAPER"),
        (cardinality_sat(inst), {"p2", "p3", "p4", "p5"}, Fraction(4), "PAPER"),
    ):
        best = max(_feasible_outcomes(inst), key=lambda w: (mu.value(w), sorted(w)))
        yield _check(
            f"unique best outcome under {mu.kind} is {sorted(expect_w)}",
            tag,
            best == frozenset(expect_w) and mu.value(best) == expect_val,
            f"{sorted(best)} value {mu.value(best)}",
        )


def _case_ejrx_separation() -> Iterator[CheckResult]:
    inst, mu = table_mu_example()
    yield _check("{p1,p5} satisfies exact representation", "PAPER",
                 check_ejr(inst, mu, {"p1", "p5"}) is None, "no violation")
    rescue = mu.value({"p2", "p3", "p5"})
    yield _check("{p2,p3} passes up-to-one via p5 (value 4.2)", "PAPER",
                 check_ejr1(inst, mu, {"p2", "p3"}) is None and rescue == Fraction(21, 5),
                 f"rescue value {rescue}")
    v = check_ejrx(inst, mu, {"p2", "p3"})
    yield _check("{p2,p3} fails up-to-any (worst addition worth 0.3)", "PAPER",
                 v is not None and v.lhs == Fraction(3, 10),
                 "no violation" if v is None else f"lhs {v.lhs}")
    yield _check("{p1,p4} passes up-to-one", "PAPER",
                 check_ejr1(inst, mu, {"p1", "p4"}) is None, "no violation")
    yield _check("{p1,p4} fails up-to-any", "PAPER",
                 check_ejrx(inst, mu, {"p1", "p4"}) is not None, "violation found")
    yield _check("the value table is not DNS", "DERIVED",
                 not is_dns(mu, inst), "DNS check false")


def _case_ejr1_incompatibility() -> Iterator[CheckResult]:
    inst = incompatibility_example()
    mu_c, mu_k = cost_sat(inst), cardinality_sat(inst)
    good = frozenset(f"p{j}" for j in range(3, 13))
    yield _check("all-cheap outcome passes up-to-one under cardinality", "PAPER",
                 check_ejr1(inst, mu_k, good) is None, "no violation")
    v = check_ejr1(inst, mu_c, good)
    yield _check("all-cheap outcome fails up-to-one under cost at {p1,p2}", "PAPER",
                 v is not None and v.witness.t == frozenset({"p1", "p2"}),
                 "no violation" if v is None else f"T={sorted(v.witness.t)}")
    both = [
        w
        for w in _feasible_outcomes(inst)
        if check_ejr1(inst, mu_c, w) is None and check_ejr1(inst, mu_k, w) is None
    ]
    yield _check("no feasible outcome passes up-to-one under both functions",
                 "PAPER", not both, f"{len(both)} outcomes pass both")


def _case_priceable_not_pjrx() -> Iterator[CheckResult]:
    inst = priceable_not_pjrx_example()
    ps = PriceSystem(budget=Fraction(9, 2), classes=[([1, 2], {"p1": Fraction(2)})])
    report = verify_price_system(inst, {"p1"}, ps)
    yield _check("B=4.5 system passes the five core conditions with B > b",
                 "PAPER", report.ok(require_b_strict=True), report.verdicts)
    yield _check("B=4.5 system fails the cross-payment condition", "PAPER",
                 not report.verdicts["C6"][0], report.verdicts["C6"])
    found = find_price_system(inst, {"p1"}, require_c6=False, require_b_strict=True)
    yield _check("search finds a system with B above the budget", "PAPER",
                 found is not None and found.budget > inst.budget,
                 "none" if found is None else f"B={found.budget}")
    v = check_pjrx(inst, cardinality_sat(inst), {"p1"})
    yield _check("{p1} fails cardinality PJR up-to-any", "PAPER",
                 v is not None, "violation found" if v else "no violation")


def _case_mes_c6_failure() -> Iterator[CheckResult]:
    inst = shared_big_project_example()
    w_cost, tr_cost = run_mes(inst, cost_sat(inst))
    yield _check("cost-MES selects the shared expensive project", "PAPER",
                 w_cost == frozenset({"p1"}), sorted(w_cost))
    yield _check("no cross-payment-compliant system exists for {p1}", "PAPER",
                 find_price_system(inst, {"p1"}, require_c6=True) is None, "search empty")
    ps = extract_from_mes_trace(inst, tr_cost)
    rep = verify_price_system(inst, w_cost, ps)
    yield _check("extracted cost-MES system passes the core conditions "
                 "but fails the cross-payment one", "PAPER",
                 rep.ok(require_b_strict=True) and not rep.verdicts["C6"][0],
                 rep.verdicts)
    w_card, tr_card = run_mes(inst, cardinality_sat(inst))
    ps2 = extract_from_mes_trace(inst, tr_card)
    rep2 = verify_price_system(inst, w_card, ps2)
    yield _check("cardinality-MES extraction passes all six with B > b",
                 "DERIVED",
                 w_card == frozenset({"p2", "p3"})
                 and rep2.ok(require_c6=True, require_b_strict=True),
                 f"W={sorted(w_card)} B={ps2.budget}")


def _case_localbpjr_vs_pjr() -> Iterator[CheckResult]:
    inst = unit_cost_separation_example()
    mu = cost_sat(inst)
    v = check_pjr(inst, mu, {"p3", "p4"})
    yield _check("{p3,p4} fails PJR at T={p1,p2} with all three voters",
                 "PAPER",
                 v is not None
                 and v.witness.t == frozenset({"p1", "p2"})
                 and v.witness.group == frozenset({1, 2, 3}),
                 "no violation" if v is None else
                 f"T={sorted(v.witness.t)} group={sorted(v.witness.group)}")
    yield _check("{p3,p4} passes the local best-affordable-set variant",
                 "PAPER", check_local_bpjr(inst, mu, {"p3", "p4"}) is None, "no violation")


def _case_localbpjr_vs_pjr1() -> Iterator[CheckResult]:
    inst = single_voter_separation_example()
    mu = cost_sat(inst)
    yield _check("{p1} passes PJR up-to-one (p3 rescues: 5 > 4)", "PAPER",
                 check_pjr1(inst, mu, {"p1"}) is None, "no violation")
    v = check_local_bpjr(inst, mu, {"p1"})
    yield _check("{p1} fails the local variant with best set {p1,p2}",
                 "PAPER",
                 v is not None and dict(v.detail).get("best_set") == ("p1", "p2"),
                 "no violation" if v is None else str(dict(v.detail)))


def _case_dns_necessity() -> Iterator[CheckResult]:
    for label, cost_map in (
        ("value-drop map (pricier is worth less)", {"1": "1", "2": "0.5"}),
        ("ratio-jump map (pricier is worth more per unit)", {"1": "1", "2": "3"}),
    ):
        inst, mu = dns_counterexample_instance(cost_map, "1", "2")
        w, _ = run_mes(inst, cardinality_sat(inst))
        v = check_pjrx(inst, mu, w, max_m=20, max_n=200)
        yield _check(f"{label}: cardinality-MES outcome fails PJR up-to-any",
                     "DERIVED", v is not None,
                     f"n={inst.n} m={inst.m} W={sorted(w)} violation={v is not None}")
    try:
        dns_counterexample_instance({"1": "1", "2": "2"}, "1", "2")
        ok, observed = False, "no error raised"
    except ValueError as exc:
        ok, observed = True, str(exc)
    yield _check("DNS-compliant map is rejected", "TRIVIAL", ok, observed)


CASES: dict[str, Callable[[], Iterator[CheckResult]]] = {
    "best-outcome": _case_best_outcome,
    "ejrx-separation": _case_ejrx_separation,
    "ejr1-incompatibility": _case_ejr1_incompatibility,
    "priceable-not-pjrx": _case_priceable_not_pjrx,
    "mes-c6-failure": _case_mes_c6_failure,
    "localbpjr-vs-pjr": _case_localbpjr_vs_pjr,
    "localbpjr-vs-pjr1": _case_localbpjr_vs_pjr1,
    "dns-necessity": _case_dns_necessity,
}


def run_case(case_id: str) -> CaseResult:
    try:
        fn = CASES[case_id]
    except KeyError:
        raise ValueError(f"unknown case {case_id!r}")
    return CaseResult(case_id=case_id, checks=list(fn()))


def run_all(case_ids: Iterable[str] | None = None) -> list[CaseResult]:
    ids = list(case_ids) if case_ids is not None else list(CASES)
    return [run_case(cid) for cid in ids]
