import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import MALFORMED_PRICE_SYSTEMS, make_instance
from oracles import expanded_system, per_voter_system, reference_verify_price_system
from pbprop.errors import GuardExceededError
from pbprop.model import Instance, InstanceError, ParseError, dumps
from pbprop.pricing import (
    ExtractionUnavailableError,
    PriceSystem,
    _trace_classes,
    extract_from_maximin_trace,
    extract_from_mes_trace,
    extract_from_phragmen_trace,
    find_price_system,
    verify_price_system,
)
from pbprop.rules import balance_loads, run_maximin_support, run_mes, run_seq_phragmen
from pbprop.satisfaction import cardinality_sat, cost_sat


# ---------------------------------------------------------------------------
# price-system files


@pytest.mark.parametrize("case", sorted(MALFORMED_PRICE_SYSTEMS))
def test_from_json_rejects_malformed(case):
    with pytest.raises(ParseError, match="malformed price system"):
        PriceSystem.from_json(MALFORMED_PRICE_SYSTEMS[case])


def test_to_dict_is_the_json_object(priceable_example):
    inst = priceable_example
    ps = extract_from_mes_trace(inst, run_mes(inst, cost_sat(inst))[1])
    assert json.loads(dumps(ps.to_dict())) == expanded_system(ps)
    assert PriceSystem.from_json(ps.to_json()) == ps
    assert ps.__eq__(ps.to_dict()) is NotImplemented and ps != ps.to_dict()


# ---------------------------------------------------------------------------
# verify


def test_verify_reference_system(priceable_example):
    inst = priceable_example
    ps = per_voter_system(Fraction(9, 2), {1: {"p1": Fraction(2)}, 2: {"p1": Fraction(2)}})
    report = verify_price_system(inst, {"p1"}, ps)
    for name in ("C1", "C2", "C3", "C4", "C5"):
        assert report.verdicts[name] == (True, None)
    assert report.b_strict
    assert report.ok(require_b_strict=True)
    # voter 1 pays 2 towards p1 while their unchosen p2 costs only 1
    assert report.verdicts["C6"] == (False, ("p2", "p1"))
    assert not report.ok(require_c6=True)


def test_verify_condition_witnesses():
    inst = Instance.create({"a": 2, "b": 1}, [{"a"}, {"b"}], 3)
    # voter 2 pays for a project they do not approve
    ps = per_voter_system(Fraction(3), {1: {"a": Fraction(1)}, 2: {"a": Fraction(1)}})
    rep = verify_price_system(inst, {"a"}, ps)
    assert rep.verdicts["C1"] == (False, (2, "a"))
    # paying for an unchosen project
    ps = per_voter_system(Fraction(3), {1: {"a": Fraction(2)}, 2: {"b": Fraction(1)}})
    rep = verify_price_system(inst, {"a"}, ps)
    assert rep.verdicts["C2"] == (False, (2, "b"))
    # overspending the per-voter share
    ps = per_voter_system(Fraction(2), {1: {"a": Fraction(2)}})
    rep = verify_price_system(inst, {"a"}, ps)
    assert rep.verdicts["C3"] == (False, (1,))
    # underfunded chosen project
    ps = per_voter_system(Fraction(3), {1: {"a": Fraction(1)}})
    rep = verify_price_system(inst, {"a"}, ps)
    assert rep.verdicts["C4"] == (False, ("a",))
    # leftover money covers the unchosen project
    ps = per_voter_system(Fraction(4), {1: {"a": Fraction(2)}})
    rep = verify_price_system(inst, {"a"}, ps)
    assert rep.verdicts["C5"] == (False, ("b",))


def test_verify_rejects_malformed():
    inst = Instance.create({"a": 1}, [{"a"}], 1)
    with pytest.raises(InstanceError):
        verify_price_system(
            inst, {"a"}, per_voter_system(Fraction(1), {1: {"zzz": Fraction(1)}})
        )
    with pytest.raises(InstanceError):
        verify_price_system(
            inst, {"a"}, per_voter_system(Fraction(1), {1: {"a": Fraction(-1)}})
        )
    # a file lists voter 5 first, but the lowest offending voter is named
    five = Instance.create({"a": 1}, [{"a"}] * 5, 1)
    for five_pays in ('{"a": "-1"}', '{"zz": "1"}'):
        ps = PriceSystem.from_json(
            f'{{"B": "1", "payments": {{"5": {five_pays}, "2": {{"a": "-1/2"}}}}}}')
        with pytest.raises(InstanceError) as want:
            reference_verify_price_system(five, {"a"}, ps)
        assert str(want.value) == "negative payment by voter 2 on 'a'"
        with pytest.raises(InstanceError, match=f"^{want.value}$"):
            verify_price_system(five, {"a"}, ps)
    # a voter outside 1..n is named only once every lower voter's row is checked
    two = Instance.create({"a": 1, "b": 1}, [{"a"}, {"b"}], 2)
    for classes, message in [
        ([([1], {"a": -1}), ([3], {})], "negative payment by voter 1 on 'a'"),
        ([([1, 3], {"a": 1}), ([2], {"b": -1})], "negative payment by voter 2 on 'b'"),
        ([([1], {"a": -1}), ([0, 2], {})], "payment from unknown voter 0"),
    ]:
        ps = PriceSystem(Fraction(2), [(h, {p: Fraction(a) for p, a in row.items()})
                                       for h, row in classes])
        with pytest.raises(InstanceError) as want:
            reference_verify_price_system(two, ["a"], ps)
        assert str(want.value) == message
        with pytest.raises(InstanceError, match=f"^{message}$"):
            verify_price_system(two, ["a"], ps)


def test_verify_refuses_an_outcome_over_the_budget():
    # the payments alone would pass every condition at B = 2
    inst = Instance.create({"a": 1, "b": 1}, [{"a", "b"}, {"a", "b"}], 1)
    ps = per_voter_system(Fraction(2), {1: {"a": Fraction(1)}, 2: {"b": Fraction(1)}})
    with pytest.raises(InstanceError, match="^outcome exceeds the budget$"):
        verify_price_system(inst, {"a", "b"}, ps)


def _perturbed(inst, w, ps, rng):
    """The system itself, then copies with one payment moved to a project
    the payer does not approve or that is not chosen, B lowered, and one
    payment short by 1/7."""
    yield ps
    paying = sorted((i, p) for i, per in ps.payments.items() for p in per)
    if not paying:
        return
    i, p = rng.choice(paying)
    for q in sorted(inst.projects):
        if q not in inst.approval(i) or q not in w:
            moved = {v: dict(per) for v, per in ps.payments.items()}
            amount = moved[i].pop(p)
            moved[i][q] = moved[i].get(q, Fraction(0)) + amount
            yield per_voter_system(ps.budget, moved)
    yield per_voter_system(ps.budget * Fraction(3, 4), ps.payments)
    short = {v: dict(per) for v, per in ps.payments.items()}
    short[i][p] = max(short[i][p] - Fraction(1, 7), Fraction(0))
    yield per_voter_system(ps.budget, short)


def _rebuilt(inst, ps):
    """``ps`` built again three ways: one class per voter, and classes by
    ballot type and across ballots. By ballot type, a type whose
    holders all pay one row, key order included, is one class holding the
    instance's own holder list, and the holders of any other type are one
    class each. Across ballots, the voters paying one row are one class,
    whatever their ballots, listed in descending order."""
    rows = ps.payments

    def same(i, j):
        return rows[i] == rows[j] and list(rows[i]) == list(rows[j])

    by_type = []
    for holders in inst.ballot_types().values():
        listed = [i for i in holders if i in rows]
        if listed == holders and all(same(i, holders[0]) for i in holders):
            by_type.append((holders, rows[holders[0]]))
        else:
            by_type += [([i], rows[i]) for i in listed]
    by_row: dict[tuple, list[int]] = {}
    for i, row in rows.items():
        by_row.setdefault(tuple(row.items()), []).append(i)
    across = [(sorted(h, reverse=True), dict(key)) for key, h in by_row.items()]
    return [per_voter_system(ps.budget, rows), PriceSystem(ps.budget, classes=by_type),
            PriceSystem(ps.budget, classes=across)]


def assert_rebuilt_verify_alike(inst, w, ps, report):
    """Per-voter-built and class-built copies of ``ps`` equal it and get
    its report: verdicts, first witnesses and verdict order."""
    for built in _rebuilt(inst, ps):
        assert built == ps
        got = verify_price_system(inst, w, built)
        assert list(got.verdicts.items()) == list(report.verdicts.items())
        assert got == report


def test_verify_matches_reference_on_extracted_and_perturbed_systems():
    rng = random.Random(4)
    compared = Counter()
    for seed in range(120):
        inst = make_instance(seed)
        runs = [run_mes(inst, cost_sat(inst)), run_mes(inst, cardinality_sat(inst))]
        systems = [(w, extract_from_mes_trace(inst, tr)) for w, tr in runs]
        for rule, extract in ((run_seq_phragmen, extract_from_phragmen_trace),
                              (run_maximin_support, extract_from_maximin_trace)):
            w, tr = rule(inst)
            if tr.blocking is not None:
                systems.append((w, extract(inst, tr)))
        for w, ps in systems:
            for variant in _perturbed(inst, w, ps, rng):
                report = verify_price_system(inst, w, variant)
                assert report == reference_verify_price_system(inst, w, variant)
                assert_rebuilt_verify_alike(inst, w, variant, report)
                for name, (passed, _) in report.verdicts.items():
                    compared[name, passed] += 1
    for name in ("C1", "C2", "C3", "C4", "C5", "C6"):
        assert compared[name, True] and compared[name, False], name


# ---------------------------------------------------------------------------
# extraction


def test_mes_extraction_inflates_half_delta(shared_big_project):
    inst = shared_big_project
    w, tr = run_mes(inst, cost_sat(inst))
    ps = extract_from_mes_trace(inst, tr)
    assert ps.budget == inst.budget + tr.delta / 2 == Fraction(7, 2)
    rep = verify_price_system(inst, w, ps)
    assert rep.ok(require_b_strict=True)
    assert not rep.verdicts["C6"][0]


def test_mes_cardinality_extraction_passes_c6(shared_big_project):
    inst = shared_big_project
    w, tr = run_mes(inst, cardinality_sat(inst))
    ps = extract_from_mes_trace(inst, tr)
    rep = verify_price_system(inst, w, ps)
    assert rep.ok(require_c6=True, require_b_strict=True)
    assert ps.budget > 3


def test_mes_extraction_c5_strict_slack():
    # the inflated leftovers stay strictly below every unchosen cost
    for seed in range(30):
        inst = make_instance(seed)
        w, tr = run_mes(inst, cardinality_sat(inst))
        if tr.delta is None:
            continue
        ps = extract_from_mes_trace(inst, tr)
        for p in inst.projects:
            if p not in w:
                pooled = sum((ps.budget / inst.n - sum(ps.payments.get(i, {}).values())
                              for i in inst.approvers(p)), Fraction(0))
                assert pooled < inst.costs[p]


def test_mes_extraction_everything_selected():
    inst = Instance.create({"a": 1}, [{"a"}], 2)
    w, tr = run_mes(inst, cost_sat(inst))
    assert w == frozenset({"a"}) and tr.delta is None
    ps = extract_from_mes_trace(inst, tr)
    assert ps.budget > inst.budget
    assert verify_price_system(inst, w, ps).ok(
        require_c6=True, require_b_strict=True
    )


def test_phragmen_extraction_example(shared_big_project):
    inst = shared_big_project
    w, tr = run_seq_phragmen(inst)
    ps = extract_from_phragmen_trace(inst, tr)
    assert ps.budget == 5
    assert ps.payments == {1: {"p2": Fraction(1)}, 2: {"p3": Fraction(1)}}
    assert verify_price_system(inst, w, ps).ok(
        require_c6=True, require_b_strict=True
    )


def test_maximin_extraction_example(shared_big_project):
    inst = shared_big_project
    w, tr = run_maximin_support(inst)
    ps = extract_from_maximin_trace(inst, tr)
    assert ps.budget == 5
    assert verify_price_system(inst, w, ps).ok(
        require_c6=True, require_b_strict=True
    )


def test_maximin_extraction_repairs_payments_at_blocked_budget():
    inst = make_instance(192)
    assert (inst.n, inst.m) == (6, 3)
    w, tr = run_maximin_support(inst)
    budget = inst.n * balance_loads(inst, w | {tr.blocking[0]}).max_load
    own = PriceSystem(budget=budget, classes=_trace_classes(tr))
    assert not verify_price_system(inst, w, own).ok(require_c6=True)
    ps = extract_from_maximin_trace(inst, tr)
    assert ps.budget == budget > inst.budget
    assert verify_price_system(inst, w, ps).ok(require_c6=True, require_b_strict=True)


def test_extraction_requires_blocking():
    inst = Instance.create({"a": 1}, [{"a"}], 5)  # nothing ever blocks
    _, tr = run_seq_phragmen(inst)
    with pytest.raises(ExtractionUnavailableError):
        extract_from_phragmen_trace(inst, tr)
    _, trm = run_maximin_support(inst)
    with pytest.raises(ExtractionUnavailableError):
        extract_from_maximin_trace(inst, trm)


def test_extraction_checks_trace_origin(shared_big_project):
    _, tr = run_mes(shared_big_project, cost_sat(shared_big_project))
    with pytest.raises(ExtractionUnavailableError):
        extract_from_phragmen_trace(shared_big_project, tr)
    with pytest.raises(ExtractionUnavailableError, match="^trace reports a non-positive"):
        extract_from_mes_trace(shared_big_project, replace(tr, delta=Fraction(0)))
    _, tr = run_seq_phragmen(shared_big_project)
    with pytest.raises(ExtractionUnavailableError, match="^trace does not come from an MES"):
        extract_from_mes_trace(shared_big_project, tr)


def test_extracted_systems_verify_on_random_instances():
    for seed in range(30):
        inst = make_instance(seed)
        w, tr = run_seq_phragmen(inst)
        if tr.blocking is not None:
            ps = extract_from_phragmen_trace(inst, tr)
            rep = verify_price_system(inst, w, ps)
            assert rep.ok(require_c6=True, require_b_strict=True)
        w, tr = run_maximin_support(inst)
        if tr.blocking is not None:
            ps = extract_from_maximin_trace(inst, tr)
            rep = verify_price_system(inst, w, ps)
            assert rep.ok(require_c6=True, require_b_strict=True)


# ---------------------------------------------------------------------------
# exact search


def test_find_reference_values(priceable_example):
    inst = priceable_example
    found = find_price_system(inst, {"p1"}, require_c6=False)
    assert found is not None and found.budget > 4
    assert verify_price_system(inst, {"p1"}, found).ok(require_b_strict=True)
    assert find_price_system(inst, {"p1"}, require_c6=True) is None


def test_find_without_strictness():
    inst = Instance.create({"a": 2, "b": 1}, [{"a"}, {"a"}, {"b"}], 3)
    # any B above the budget hands voter 3 a leftover above c(b), breaking
    # C5; dropping strictness admits the system with B equal to the budget
    assert find_price_system(inst, {"a"}, require_b_strict=True) is None
    ps = find_price_system(inst, {"a"}, require_b_strict=False)
    assert ps is not None
    assert ps.budget == 3
    assert verify_price_system(inst, {"a"}, ps).ok(require_b_strict=False)


def test_find_agrees_with_verify_on_random_instances():
    for seed in range(25):
        inst = make_instance(seed, max_n=4, max_m=5)
        w, _ = run_mes(inst, cost_sat(inst))
        for c6 in (False, True):
            ps = find_price_system(inst, w, require_c6=c6)
            if ps is not None:
                rep = verify_price_system(inst, w, ps)
                assert rep.ok(require_c6=c6, require_b_strict=True)


def test_find_guard():
    inst = Instance.create({"a": 1, "b": 1}, [{"a", "b"}], 2)
    with pytest.raises(GuardExceededError):
        find_price_system(inst, {"a"}, max_payment_vars=0)
    # one payment variable per approver of each chosen project: 3 + 3 here
    inst = Instance.create({"a": 1, "b": 1, "c": 1},
                           [{"a", "b"}, {"a", "b"}, {"a"}, {"b", "c"}], 2)
    with pytest.raises(GuardExceededError, match="^6 payment variables exceed guard 5$"):
        find_price_system(inst, {"a", "b"}, max_payment_vars=5)
    ps = find_price_system(inst, {"a", "b"}, require_b_strict=False, max_payment_vars=6)
    assert verify_price_system(inst, {"a", "b"}, ps).ok(require_b_strict=False)


def test_find_rejects_infeasible_outcome():
    inst = Instance.create({"a": 5}, [{"a"}], 1)
    with pytest.raises(InstanceError):
        find_price_system(inst, {"a"})


# ---------------------------------------------------------------------------
# serialization


def test_price_system_json_roundtrip():
    ps = per_voter_system(Fraction(9, 2), {1: {"p1": Fraction(2)}, 2: {"p1": Fraction(1, 3)}})
    again = PriceSystem.from_json(ps.to_json())
    assert again.budget == ps.budget
    assert again.payments == {1: {"p1": Fraction(2)}, 2: {"p1": Fraction(1, 3)}}
