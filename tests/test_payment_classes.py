"""Payments kept per class of voters, from the rules to stdout: the class
shape of traces and price systems, their per-voter views, the writer of
class-form voter maps, and verification of class input."""
import json
import random
from fractions import Fraction

import pytest

from conftest import make_instance
from oracles import expanded_system, per_voter_system, reference_verify_price_system
from pbprop.cli import _trace_json
from pbprop.model import (
    GenParams, Instance, InstanceError, VoterMap, dumps, generate_random, money_str,
)
from pbprop.pricing import (
    PriceSystem,
    _trace_classes,
    extract_from_maximin_trace,
    extract_from_mes_trace,
    extract_from_phragmen_trace,
    find_price_system,
    verify_price_system,
)
from pbprop.rules import run_maximin_support, run_mes, run_seq_phragmen
from pbprop.satisfaction import cardinality_sat, cost_sat
from test_ballot_types import clustered_instance


def uniform_pool():
    """Random ballots, nearly all distinct, one voter included."""
    sizes = [(1, 3), (1, 6), (7, 5), (40, 8), (120, 10)]
    return [generate_random(GenParams(n, m, density=0.4), seed)
            for seed, (n, m) in enumerate(sizes)] + [make_instance(seed) for seed in range(20)]


def clustered_pool():
    return [clustered_instance(seed) for seed in range(6)]


def runs(inst, maximin=True):
    """(outcome, trace) of every rule run on the instance."""
    out = [run_mes(inst, cost_sat(inst)), run_mes(inst, cardinality_sat(inst)),
           run_seq_phragmen(inst), run_seq_phragmen(inst, skip_blocked=True)]
    if maximin:
        out.append(run_maximin_support(inst))
    return out


def systems(inst, maximin=True):
    """(outcome, price system) of every extraction that applies, and of the
    exact search on small instances."""
    extract = {"mes": extract_from_mes_trace, "phragmen": extract_from_phragmen_trace,
               "maximin": extract_from_maximin_trace}
    out = []
    for w, tr in runs(inst, maximin):
        if tr.rule == "mes" or tr.blocking is not None:
            out.append((w, extract[tr.rule](inst, tr)))
    if inst.n * inst.m <= 40:
        w = runs(inst, maximin=False)[1][0]
        for c6 in (False, True):
            ps = find_price_system(inst, w, require_c6=c6, require_b_strict=False)
            if ps is not None:
                out.append((w, ps))
    return out


def pools():
    return [(inst, True) for inst in uniform_pool()] + [
        (inst, inst.n < 200) for inst in clustered_pool()]


# ---------------------------------------------------------------------------
# the writer


@pytest.mark.parametrize("inst, maximin", pools())
def test_trace_payload_writes_as_its_expanded_object(inst, maximin):
    for _, trace in runs(inst, maximin):
        payload = _trace_json(trace)
        expanded = dict(payload, payments={
            p: {str(i): money_str(a) for i, a in sorted(per.items())}
            for p, per in sorted(trace.payments.items())})
        assert dumps(payload) == json.dumps(expanded, indent=2)
        assert json.loads(dumps(payload)) == expanded


@pytest.mark.parametrize("inst, maximin", pools())
def test_price_system_writes_as_its_expanded_object(inst, maximin):
    found = systems(inst, maximin)
    assert found
    for _, ps in found:
        assert ps.to_json() == json.dumps(expanded_system(ps), indent=2)
        assert json.loads(dumps(ps.to_dict())) == expanded_system(ps)
        assert PriceSystem.from_json(ps.to_json()) == ps


def test_empty_rows_and_one_voter_write_as_expanded():
    one = per_voter_system(Fraction(2), {1: {}})
    assert one.to_json() == json.dumps({"B": "2", "payments": {"1": {}}}, indent=2)
    row = {"b": Fraction(1, 3), "a": Fraction(2)}
    by_voter = per_voter_system(Fraction(7), {4: {}, 1: row, 3: {}, 2: dict(row)})
    by_class = PriceSystem(Fraction(7), classes=[([3, 4], {}), ([1, 2], row), ([], {"c": 1})])
    want = json.dumps(expanded_system(by_voter), indent=2)
    assert by_voter.to_json() == by_class.to_json() == want
    assert by_voter == by_class
    assert PriceSystem(Fraction(1), []).to_json() == '{\n  "B": "1",\n  "payments": {}\n}'


def test_voter_map_value_recurring_at_two_depths():
    row = {"a": "1/2"}
    payload = {"x": VoterMap([([2], row), ([1], "t")]),
               "y": [{"z": VoterMap([([5, 9], row)])}, VoterMap([])]}
    expanded = {"x": {"1": "t", "2": row}, "y": [{"z": {"5": row, "9": row}}, {}]}
    assert dumps(payload) == json.dumps(expanded, indent=2)
    assert json.loads(dumps(payload)) == expanded


# ---------------------------------------------------------------------------
# the class shape and the per-voter views


def test_rule_classes_are_ballot_types_and_views_are_sorted():
    for inst in clustered_pool():
        types = [id(h) for h in inst.ballot_types().values()]
        for _, trace in runs(inst, maximin=inst.n < 200):
            for p, pairs in trace.payment_classes.items():
                for holders, amount in pairs:
                    assert holders == sorted(holders)
                    if trace.rule == "maximin":
                        assert len(holders) == 1
                    else:
                        assert id(holders) in types
                voters = list(trace.payments[p])
                assert voters == sorted(voters)
                assert len(voters) == sum(len(h) for h, _ in pairs)


def test_lp_payments_are_one_class_per_paying_voter_by_ascending_voter():
    # voters 2, 4 and 6 pay alike below; in make_instance(180) voter 3 pays
    # for the first chosen project and voter 2 only for a later one
    equal_rows = Instance.create(
        {"p1": Fraction(15, 4), "p2": Fraction(13, 4), "p3": Fraction(3, 2)},
        [{"p1", "p2"}, {"p1", "p2", "p3"}, {"p1", "p2"}, {"p1", "p2"}, {"p1", "p3"}, {"p1", "p2"}],
        5)
    for inst in (equal_rows, make_instance(180)):
        w, trace = run_maximin_support(inst)
        # the blocked configuration's own loads fail, so maximin re-splits them
        own = PriceSystem(inst.n * trace.blocking[1], _trace_classes(trace))
        assert not verify_price_system(inst, w, own).ok(require_c6=True, require_b_strict=False)
        resplit = extract_from_maximin_trace(inst, trace)
        found = [resplit] + [find_price_system(inst, w, require_c6=c6, require_b_strict=False)
                             for c6 in (False, True)]
        for ps in found:
            assert ps.classes == [([i], row) for i, row in ps.payments.items()]
        if inst is equal_rows:
            assert [holders for holders, _ in resplit.classes] == [[1], [2], [4], [5], [6]]
            assert resplit.payments[2] == resplit.payments[4] == resplit.payments[6]


def test_from_json_groups_voters_whose_rows_read_the_same():
    ps = PriceSystem.from_json(
        '{"B": "3", "payments": {"3": {"a": "1/2", "b": "1"}, "2": {"b": "1"},'
        ' "1": {"a": "1/2", "b": "1"}, "4": {"b": "1", "a": "1/2"}, "5": {}}}')
    assert [holders for holders, _ in ps.classes] == [[1, 3], [2], [4], [5]]
    assert list(ps.payments[4]) == ["b", "a"]
    assert ps.payments[1] is ps.payments[3] == {"a": Fraction(1, 2), "b": Fraction(1)}


# ---------------------------------------------------------------------------
# verification of class input


def test_verify_refuses_a_voter_listed_twice():
    inst = Instance.create({"a": 1}, [{"a"}, {"a"}], 1)
    for classes in ([([1, 1], {"a": Fraction(1, 2)})],
                    [([1], {"a": Fraction(1, 2)}), ([2, 1], {})]):
        with pytest.raises(InstanceError, match="^voter 1 is listed twice$"):
            verify_price_system(inst, {"a"}, PriceSystem(Fraction(2), classes=classes))


@pytest.mark.parametrize("voter", [0, -1, 3])
def test_verify_refuses_a_voter_outside_the_instance(voter):
    inst = Instance.create({"a": 1}, [{"a"}, {"a"}], 1)
    ps = PriceSystem(Fraction(2), classes=[([1], {"a": Fraction(1, 2)}), ([voter], {})])
    with pytest.raises(InstanceError, match=f"^payment from unknown voter {voter}$"):
        verify_price_system(inst, {"a"}, ps)


def test_a_class_mixing_ballots_is_judged_voter_by_voter():
    inst = Instance.create({"a": 1, "b": 1, "c": 2},
                           [{"a", "c"}, {"b"}, {"a"}, {"b", "c"}], 2)
    row = {"b": Fraction(1, 4), "a": Fraction(1, 4)}
    ps = PriceSystem(Fraction(3), classes=[([4, 3, 1, 2], row)])
    report = verify_price_system(inst, {"a", "b"}, ps)
    assert report.verdicts["C1"] == (False, (1, "b"))
    per_voter = per_voter_system(Fraction(3), dict.fromkeys(range(1, 5), row))
    want = reference_verify_price_system(inst, {"a", "b"}, per_voter)
    assert report == want
    assert list(report.verdicts.items()) == list(want.verdicts.items())
    # C5 and C6 pool only the holders who approve the unchosen project
    assert report.verdicts["C5"] == (True, None)
    cheap = Instance.create({"a": 1, "b": 1, "c": Fraction(1, 3)},
                            [{"a", "c"}, {"b"}, {"a"}, {"b", "c"}], 2)
    report = verify_price_system(cheap, {"a", "b"}, ps)
    assert report == reference_verify_price_system(cheap, {"a", "b"}, per_voter)
    assert report.verdicts["C6"] == (False, ("c", "a"))


def test_negative_budget_fails_c3_at_the_lowest_unlisted_voter():
    inst = Instance.create({"a": 1, "b": 1}, [{"a"}, {"a"}, {"b"}, {"a"}], 2)
    ps = PriceSystem(Fraction(-4), classes=[([1, 2], {"a": Fraction(1, 2)})])
    report = verify_price_system(inst, {"a"}, ps)
    assert report.verdicts["C3"] == (False, (1,))
    ps = PriceSystem(Fraction(-4), classes=[([1, 2], {})])
    report = verify_price_system(inst, {"a"}, ps)
    assert report.verdicts["C3"] == (False, (1,))
    ps = PriceSystem(Fraction(-4), classes=[([2, 4], {"a": Fraction(1, 2)})])
    report = verify_price_system(inst, {"a"}, ps)
    assert report.verdicts["C3"] == (False, (1,))
    assert report == reference_verify_price_system(inst, {"a"}, ps)


def regrouped(rng, budget, rows) -> PriceSystem:
    """``rows`` (voter -> row) as classes that mix ballots and come in any
    order: voters whose rows are equal, key order included, share a class,
    split at random; holders and classes are shuffled, and about 10% of the
    payers are left unlisted."""
    same: dict[tuple, list[int]] = {}
    for i, row in rows.items():
        if rng.random() >= 0.1:
            same.setdefault(tuple(row.items()), []).append(i)
    classes = []
    for key, voters in same.items():
        rng.shuffle(voters)
        while voters:
            cut = rng.randint(1, len(voters))
            classes.append((voters[:cut], dict(key)))
            voters = voters[cut:]
    rng.shuffle(classes)
    return PriceSystem(budget, classes=classes)


def test_verdict_order_is_that_of_a_voter_by_voter_check():
    rng = random.Random(9)
    for seed in range(80):
        inst = make_instance(seed)
        for w, ps in systems(inst):
            rows = {i: dict(row) for i, row in ps.payments.items()}
            if rows:  # one payer overspends and pays an unchosen project
                i = rng.choice(sorted(rows))
                rows[i][rng.choice(inst.projects)] = inst.budget
            budget = ps.budget * rng.choice((1, Fraction(1, 2)))
            variants = [per_voter_system(budget, rows)]
            variants += [regrouped(rng, b, rows) for b in (budget, -budget)]
            for variant in variants:
                got = verify_price_system(inst, w, variant)
                want = reference_verify_price_system(inst, w, variant)
                assert list(got.verdicts.items()) == list(want.verdicts.items())
                assert got.b_strict == want.b_strict
