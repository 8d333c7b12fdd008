import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
import pbprop
from pbprop.axioms import audit_all
from pbprop.errors import CapabilityError, GuardExceededError
from pbprop.model import Instance, ParseError
from pbprop.repro import priceable_not_pjrx_example, table_mu_example
from pbprop.satisfaction import (
    SatisfactionFunction,
    UndefinedShareError,
    cardinality_sat,
    cc_sat,
    check_dns,
    cost_map_sat,
    cost_sat,
    dns_counterexample_instance,
    is_dns,
    is_strictly_cost_responsive,
    log_cost_sat,
    share_sat,
    sqrt_cost_sat,
    table_sat,
    voter_satisfaction,
)


@pytest.fixture()
def inst():
    return Instance.create(
        {"a": 4, "b": 1, "c": "9/4"}, [{"a", "b"}, {"b", "c"}], 6
    )


def test_cost_and_cardinality_values(inst):
    assert cost_sat(inst).value({"a", "c"}) == Fraction(25, 4)
    assert cardinality_sat(inst).value({"a", "c"}) == 2
    assert cost_sat(inst).value(set()) == 0


def test_sqrt_and_log_are_rationalized_once(inst):
    mu = sqrt_cost_sat(inst)
    assert mu.per_project["a"] == 2  # exact square
    assert mu.per_project["c"] == Fraction(3, 2)
    assert mu.value({"a", "c"}) == Fraction(7, 2)
    # 12 significant digits of sqrt(1) is exactly 1
    assert mu.per_project["b"] == 1
    lg = log_cost_sat(inst)
    # log(1+1) to 12 digits
    assert abs(float(lg.per_project["b"]) - 0.6931471805599453) < 1e-11


def test_cc_and_share(inst):
    assert cc_sat().value(set()) == 0
    assert cc_sat().value({"a", "b"}) == 1
    mu = share_sat(inst)
    assert mu.per_project["a"] == 4  # single approver
    assert mu.per_project["b"] == Fraction(1, 2)


def test_share_undefined_on_unapproved_project():
    inst = Instance.create({"a": 1, "b": 1}, [{"a"}], 2)
    mu = share_sat(inst)
    with pytest.raises(UndefinedShareError):
        mu.value({"b"})


def test_value_keeps_sums_but_not_failures():
    inst = Instance.create({"a": 1, "b": 1}, [{"a"}], 2)
    mu = share_sat(inst)
    assert mu.value(["a"]) == mu.value({"a"}) == 1
    assert mu.value(set()) == 0
    for _ in range(2):  # a failed evaluation raises on every call
        with pytest.raises(UndefinedShareError):
            mu.value({"a", "b"})
        with pytest.raises(KeyError):
            cost_sat(inst).value({"zz"})
    table = table_sat({"a": 2})
    assert table.value({"a"}) == 2
    with pytest.raises(KeyError):
        table.value({"a", "b"})
    assert table.value({"a"}) == 2


_NO_TABLE = """
from pbprop.satisfaction import SatisfactionFunction
SatisfactionFunction("custom").value({"a"})
"""


def test_value_without_table_raises_capability_error():
    mu = SatisfactionFunction("custom")
    with pytest.raises(CapabilityError):
        mu.value({"a"})
    assert cc_sat().value({"a"}) == 1  # cc needs no table
    # a typed error, not an assert, so the check survives python -O
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NO_TABLE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "CapabilityError" in proc.stderr


def test_capabilities_are_read_off_the_values():
    for seed in range(6):
        inst = make_instance(seed, max_n=5, max_m=6)
        table = {p: Fraction(k + 1, 3) for k, p in enumerate(inst.projects)}
        cost_map = {c: c * 2 for c in inst.costs.values()}
        for mu in (cost_sat(inst), cardinality_sat(inst), sqrt_cost_sat(inst),
                   log_cost_sat(inst), share_sat(inst), table_sat(table),
                   cost_map_sat(inst, cost_map)):
            assert mu.additive and mu.strictly_increasing, mu.kind
    assert not cc_sat().additive and not cc_sat().strictly_increasing
    flat = SatisfactionFunction("x", {"a": Fraction(0)})
    assert flat.additive and not flat.strictly_increasing
    with pytest.raises(ValueError, match="negative"):
        SatisfactionFunction("x", {"a": Fraction(1), "b": Fraction(-1)})
    inst = Instance.create({"a": 1}, [{"a"}], 1)
    assert audit_all(inst, flat, set()).strictly_increasing is False
    for name in ("additive", "strictly_increasing"):
        with pytest.raises(TypeError):
            SatisfactionFunction("x", {"a": Fraction(1)}, **{name: True})


def test_share_value_on_priceable_example():
    inst = priceable_not_pjrx_example()
    assert share_sat(inst).value({"p1"}) == 2  # cost 4, two approvers


def test_table_and_cost_map(inst):
    mu = table_sat({"a": "1/2", "b": 2, "c": "0.25"})
    assert mu.value({"a", "c"}) == Fraction(3, 4)
    with pytest.raises(ValueError):
        table_sat({"a": 0})
    cm = cost_map_sat(inst, {"4": 1, "1": "1/8", "9/4": "2"})
    assert cm.value({"a", "b"}) == Fraction(9, 8)
    with pytest.raises(ValueError):
        cost_map_sat(inst, {"4": 1})  # costs 1 and 9/4 unmapped
    with pytest.raises(ValueError, match="^cost map value for cost 7 must be strictly"):
        cost_map_sat(inst, {"4": 1, "1": "1/8", "9/4": "2", "7": 0})  # no project costs 7


def test_cost_map_refuses_two_keys_for_one_cost(inst):
    with pytest.raises(ParseError, match="^cost map names cost 4 twice$"):
        cost_map_sat(inst, {"4": 1, "1": "1/8", "9/4": "2", "4.0": 5})


def test_voter_satisfaction_restricts_to_ballot():
    inst, mu = table_mu_example()
    assert voter_satisfaction(mu, inst, 1, {"p2", "p3"}) == Fraction(1, 5)
    assert voter_satisfaction(mu, inst, 1, set()) == 0


def test_builtin_monotonicity_random():
    for seed in range(10):
        inst = make_instance(seed, max_n=4, max_m=6)
        for mu in (cost_sat(inst), cardinality_sat(inst), sqrt_cost_sat(inst),
                   log_cost_sat(inst), cc_sat()):
            rng = random.Random(seed)
            sub = frozenset(p for p in inst.projects if rng.random() < 0.5)
            sup = sub | frozenset(
                p for p in inst.projects if rng.random() < 0.5
            )
            assert mu.value(sub) <= mu.value(sup)
            assert (mu.value(sub) == 0) == (len(sub) == 0)


def test_dns_builtins(inst):
    for mu in (cost_sat(inst), cardinality_sat(inst), sqrt_cost_sat(inst),
               log_cost_sat(inst)):
        assert is_dns(mu, inst)


def test_dns_requires_additive(inst):
    with pytest.raises(CapabilityError):
        check_dns(cc_sat(), inst)


def test_dns_violation_witness():
    inst, mu = table_mu_example()
    v = check_dns(mu, inst)
    assert v is not None
    assert v.inequality == "ratio"
    assert inst.costs[v.cheap] <= inst.costs[v.pricey]
    # the witness really breaks the per-cost inequality
    assert (mu.per_project[v.cheap] / inst.costs[v.cheap]
            < mu.per_project[v.pricey] / inst.costs[v.pricey])


def test_strict_cost_responsiveness():
    inst = Instance.create({"a": 3, "b": 1, "c": 1}, [{"a", "b", "c"}], 4)
    assert is_strictly_cost_responsive(cost_sat(inst), inst)
    # cheaper {b,c} (cost 2) beats pricier {a} (cost 3) under cardinality
    assert not is_strictly_cost_responsive(cardinality_sat(inst), inst)
    single = Instance.create({"a": 2}, [{"a"}], 2)
    assert is_strictly_cost_responsive(cardinality_sat(single), single)


def test_strict_cost_responsiveness_guard():
    inst = Instance.create(
        {f"p{j}": 1 for j in range(1, 19)}, [{"p1"}], 5
    )
    with pytest.raises(GuardExceededError):
        is_strictly_cost_responsive(cost_sat(inst), inst)


def test_builtins_invariant_under_project_renaming():
    inst = make_instance(3, max_n=3, max_m=5)
    renamed = {p: f"q{k}" for k, p in enumerate(sorted(inst.projects))}
    other = Instance.create(
        {renamed[p]: inst.costs[p] for p in inst.projects},
        [{renamed[p] for p in a} for a in inst.approvals],
        inst.budget,
    )
    for make in (cost_sat, cardinality_sat, sqrt_cost_sat, log_cost_sat):
        mu, nu = make(inst), make(other)
        for p in inst.projects:
            assert mu.per_project[p] == nu.per_project[renamed[p]]


def test_counterexample_requires_dns_break():
    with pytest.raises(ValueError):
        dns_counterexample_instance({"1": 1, "2": 2}, "1", "2")
    with pytest.raises(ValueError):
        dns_counterexample_instance({"1": 1, "2": "0.5"}, "2", "1")  # x > x'
    for bad in ({"2": "1", "3": "-1"}, {"2": "1", "3": "0"}):  # values must be positive
        with pytest.raises(ValueError, match="^cost map value for cost 3 must be strictly"):
            dns_counterexample_instance(bad, "2", "3")
    with pytest.raises(ParseError, match="^cost map names cost 2 twice$"):
        dns_counterexample_instance({"1": "1", "2": "0.5", "2.0": "3"}, "1", "2")
    with pytest.raises(ValueError, match="^map must cover both costs$"):
        dns_counterexample_instance({"1": "1", "2": "0.5"}, "1", "3")


def test_counterexample_instances_are_valid():
    for cost_map, x, xp in (
        ({"1": "1", "2": "0.5"}, "1", "2"),
        ({"1": "1", "2": "3"}, "1", "2"),
    ):
        inst, mu = dns_counterexample_instance(cost_map, x, xp)
        assert mu.additive
        assert check_dns(mu, inst) is not None
        assert set(mu.per_project) == set(inst.projects)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000))
def test_additive_increment_property(seed):
    inst = make_instance(seed, max_n=3, max_m=6)
    for mu in (cost_sat(inst), sqrt_cost_sat(inst), log_cost_sat(inst)):
        projects = sorted(inst.projects)
        base = frozenset(projects[::2])
        for p in projects:
            if p not in base:
                assert mu.value(base | {p}) - mu.value(base) == mu.per_project[p]
