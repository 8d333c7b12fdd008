import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, MALFORMED_JSON, pabulib_text
from pbprop.model import (
    GenParams,
    Instance,
    InstanceError,
    ParseError,
    dumps,
    emit_json,
    generate_random,
    money_str,
    money_str_memo,
    parse_json,
    parse_money,
    parse_pabulib,
)


def test_parse_money_forms():
    assert parse_money("3/4") == Fraction(3, 4)
    assert parse_money("2.5") == Fraction(5, 2)
    assert parse_money(3) == Fraction(3)
    assert parse_money(Fraction(1, 7)) == Fraction(1, 7)


def test_parse_money_rejects_garbage():
    with pytest.raises(ParseError):
        parse_money("abc")
    with pytest.raises(ParseError):
        parse_money("1/0")


def test_instance_create_and_accessors():
    inst = Instance.create({"a": 2, "b": "1/2"}, [{"a"}, {"a", "b"}], 3)
    assert inst.n == 2
    assert inst.m == 2
    assert inst.costs["b"] == Fraction(1, 2)
    assert inst.approvers("a") == frozenset({1, 2})
    assert inst.approvers("b") == frozenset({2})
    assert inst.approval(1) == frozenset({"a"})
    assert inst.total_cost({"a", "b"}) == Fraction(5, 2)
    assert inst.is_outcome({"a", "b"})
    assert not inst.is_unit_cost()


def test_instance_validation():
    with pytest.raises(InstanceError):
        Instance.create({"a": 0}, [{"a"}], 1)  # non-positive cost
    with pytest.raises(InstanceError):
        Instance.create({"a": 1}, [{"a"}], 0)  # non-positive budget
    with pytest.raises(InstanceError):
        Instance.create({"a": 1}, [{"zzz"}], 1)  # unknown project on ballot
    with pytest.raises(InstanceError):
        Instance.create({}, [set()], 1)  # no projects


def test_exhaustive():
    inst = Instance.create({"a": 2, "b": 2, "c": 3}, [{"a", "b", "c"}], 4)
    assert inst.is_exhaustive({"a", "b"})
    assert not inst.is_exhaustive({"a"})  # b still fits
    with pytest.raises(InstanceError):
        inst.is_exhaustive({"a", "b", "c"})  # infeasible


PB_TEXT = """\
META
key;value
num_projects;2
num_votes;2
budget;7/2
vote_type;approval
PROJECTS
project_id;cost
p1;2.5
p2;1
VOTES
voter_id;vote
1;p1,p2
2;p2
"""


def test_parse_pabulib_roundtrip_values():
    inst = parse_pabulib(PB_TEXT)
    assert inst.n == 2
    assert inst.budget == Fraction(7, 2)
    assert inst.costs["p1"] == Fraction(5, 2)
    assert inst.approval(1) == frozenset({"p1", "p2"})
    assert inst.approval(2) == frozenset({"p2"})


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("VOTES\n", ""), "missing section VOTES"),
        (lambda s: s.replace("approval", "ordinal"), "vote type"),
        (lambda s: s.replace("num_projects;2", "num_projects;3"), "3 projects"),
        (lambda s: s.replace("num_votes;2", "num_votes;5"), "5 votes"),
        (lambda s: s.replace("1;p1,p2", "1;p9"), "unknown projects"),
        (lambda s: s.replace("budget;7/2\n", ""), "missing META key budget"),
        (lambda s: "junk\n" + s, "before first section"),
    ],
)
def test_parse_pabulib_errors(mangle, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_pabulib(mangle(PB_TEXT))


@pytest.mark.parametrize(
    "name, costs, approvals, budget",
    [
        ("pabulib_extra_columns.pb",
         {"1": 60000, "2": 30000, "3": 25000},
         [{"1", "2"}, {"1"}, {"1", "3"}, {"2", "3"}], 100000),
        ("pabulib_reordered.pb",
         {"p1": Fraction(5, 2), "p2": 1}, [{"p1", "p2"}, {"p2"}, {"p1"}],
         Fraction(7, 2)),
    ],
)
def test_parse_pabulib_finds_columns_by_name(name, costs, approvals, budget):
    # extra columns, named columns out of place, quoted names holding ';'
    inst = parse_pabulib((FIXTURES / name).read_text())
    assert inst == Instance.create(costs, approvals, budget)


@pytest.mark.parametrize(
    "header, fragment",
    [
        ("project_id;cost", "project_id;price"),
        ("voter_id;vote", "voter;vote"),
        ("voter_id;vote", "voter_id;ballot"),
    ],
)
def test_parse_pabulib_requires_named_columns(header, fragment):
    with pytest.raises(ParseError, match="header lacks column"):
        parse_pabulib(PB_TEXT.replace(header, fragment))


def test_parse_pabulib_stray_quote_is_parse_error():
    votes = "".join(f"{i};p2\n" for i in range(3, 20000))
    text = PB_TEXT.replace("num_votes;2", "num_votes;19999").replace(
        "1;p1,p2", '1;"p1,p2') + votes
    with pytest.raises(ParseError):
        parse_pabulib(text)


def test_json_roundtrip_lossless():
    inst = Instance.create(
        {"x": "1/3", "y": "22/7"}, [{"x", "y"}, {"y"}, {"x"}], "10/3"
    )
    again = parse_json(emit_json(inst))
    assert again == inst
    payload = json.loads(emit_json(inst))
    assert payload["budget"] == "10/3"
    assert {e["cost"] for e in payload["projects"]} == {"1/3", "22/7"}


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_json("not json")
    with pytest.raises(ParseError):
        parse_json('{"n": 1, "budget": "1"}')  # missing fields
    with pytest.raises(ParseError):
        parse_json(
            '{"n": 1, "budget": "1", "projects": [{"id": "a", "cost": "1"}],'
            ' "approvals": [["b"]]}'
        )



@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_parse_json_rejects_malformed(case):
    text, fragment = MALFORMED_JSON[case]
    with pytest.raises(ParseError, match=fragment):
        parse_json(text)

def test_money_str_exact():
    assert money_str(Fraction(5, 2)) == "5/2"
    assert money_str(Fraction(4)) == "4"


def test_generator_deterministic_and_valid():
    params = GenParams(n=5, m=6)
    a = generate_random(params, 42)
    b = generate_random(params, 42)
    assert a == b
    assert generate_random(params, 43) != a
    assert all(ballot for ballot in a.approvals)  # nobody abstains entirely
    assert Fraction(3) <= a.budget <= Fraction(12)  # default [m/2, 2m]


def test_generator_unit_cost():
    inst = generate_random(GenParams(n=3, m=4, unit_cost=True), 1)
    assert inst.is_unit_cost()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), m=st.integers(1, 7))
def test_generator_json_roundtrip(seed, n, m):
    inst = generate_random(GenParams(n=n, m=m), seed)
    assert parse_json(emit_json(inst)) == inst


# ---------------------------------------------------------------------------
# The JSON writer and the parsers under generated input

JSON_TEXT = st.text(st.one_of(
    st.characters(),  # every code point but surrogates, non-ASCII included
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\ufeff'),
))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dumps_is_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [(1, 2), Fraction(1, 2), 0.5, {1: "a"}, {"a": [("nested",)]}, [{"a": 1.0}], {None: 1}],
    ids=["tuple", "fraction", "float", "int-key", "nested-tuple", "nested-float", "none-key"],
)
def test_dumps_rejects_what_payloads_do_not_hold(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_money_str_memo_formats_each_object_once():
    class Counted(Fraction):
        strs = 0

        def __str__(self):
            Counted.strs += 1
            return super().__str__()

    half, also_half = Counted(1, 2), Counted(2, 4)
    text = money_str_memo()
    assert [text(half), text(also_half), text(half), text(Fraction(3))] == ["1/2", "1/2", "1/2", "3"]
    assert Counted.strs == 2  # once per object, not per call or per value


PROJECT_IDS = st.lists(JSON_TEXT, min_size=1, max_size=6, unique=True)
AMOUNTS = st.fractions(min_value=Fraction(1, 10**6), max_value=10**9)


@st.composite
def instances(draw, ids=PROJECT_IDS):
    projects = draw(ids)
    costs = {p: draw(AMOUNTS) for p in projects}
    ballots = draw(st.lists(st.sets(st.sampled_from(projects)), min_size=1, max_size=8))
    return Instance.create(costs, ballots, draw(AMOUNTS))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_json_roundtrip_on_generated_instances(inst):
    assert parse_json(emit_json(inst)) == inst


@settings(max_examples=150, deadline=None)
@given(instances(ids=st.lists(st.from_regex(r"[\w\-.]{1,8}", fullmatch=True),
                              min_size=1, max_size=6, unique=True)))
def test_pabulib_roundtrip_on_generated_instances(inst):
    text = pabulib_text(inst.costs, inst.budget, inst.approvals)
    assert parse_pabulib(text) == inst


EDIT_TOKENS = st.sampled_from([
    ";", ",", '"', "\n", "\r", "\x00", "{", "}", "[", "]", ":", "-", "/", ".", "0", "7",
    " ", "e", "\u017c", "META", "PROJECTS", "VOTES", "true", "null", "1e400",
    "NaN", "Infinity", "1/0", "-3", "[[[[", '{"n": ', "9" * 5000,
])
EDITS = st.lists(st.tuples(st.integers(0, 3), st.floats(0, 1), st.floats(0, 1), EDIT_TOKENS),
                 min_size=1, max_size=6)


def _mutate(text: str, edits) -> str:
    """Deletions, insertions, replacements and duplicated stretches at
    relative positions."""
    for op, x, y, token in edits:
        i, j = sorted((int(x * len(text)), int(y * len(text))))
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + token + text[i:]
        elif op == 2:
            text = text[:i] + token + text[i + 1:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


FUZZ_BASES = {
    "pabulib": (parse_pabulib, PB_TEXT),
    "pabulib-extra-columns": (parse_pabulib, (FIXTURES / "pabulib_extra_columns.pb").read_text()),
    "json": (parse_json, emit_json(Instance.create(
        {"p1": "5/2", "p2": 1, "p3": "1/3"}, [{"p1", "p2"}, {"p2"}, {"p3"}], "7/2"))),
}


@pytest.mark.parametrize("base", sorted(FUZZ_BASES))
@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
def test_parsers_raise_only_parse_error_on_mutated_text(base, edits):
    parse, text = FUZZ_BASES[base]
    try:
        parse(_mutate(text, edits))
    except ParseError:
        pass


@pytest.mark.parametrize("amount", ["1e400", "1E3", "2.5e-1", "inf", "nan"])
def test_parse_money_refuses_exponents_and_non_finite(amount):
    with pytest.raises(ParseError, match="not a rational number"):
        parse_pabulib(PB_TEXT.replace("budget;7/2", f"budget;{amount}"))
    with pytest.raises(ParseError, match="not a rational number"):
        parse_money(amount)
