import random
from pathlib import Path

import pytest

from pbprop.model import GenParams, generate_random
from pbprop.repro import (
    priceable_not_pjrx_example,
    shared_big_project_example,
    table_mu_example,
)


def make_instance(seed, max_n=6, max_m=8, unit_cost=False):
    """Deterministic random instance with size drawn from the seed."""
    rng = random.Random(seed * 7919 + 13)
    params = GenParams(
        n=rng.randint(1, max_n),
        m=rng.randint(1, max_m),
        density=rng.choice([0.3, 0.5, 0.7]),
        unit_cost=unit_cost,
    )
    return generate_random(params, seed)


def pabulib_text(costs, budget, ballots) -> str:
    """A Pabulib ``.pb`` file with only the columns pbprop reads."""
    rows = ["META", "key;value", f"num_projects;{len(costs)}", f"num_votes;{len(ballots)}",
            f"budget;{budget}", "vote_type;approval", "PROJECTS", "project_id;cost"]
    rows += [f"{p};{c}" for p, c in costs.items()]
    rows += ["VOTES", "voter_id;vote"]
    rows += [f"{i};{','.join(sorted(b))}" for i, b in enumerate(ballots, start=1)]
    return "\n".join(rows) + "\n"


def random_outcome(inst, seed):
    """A random feasible outcome: shuffle projects, add greedily."""
    rng = random.Random(seed * 104729 + 1)
    order = sorted(inst.projects)
    rng.shuffle(order)
    chosen = []
    spent = 0
    for p in order:
        if rng.random() < 0.6 and spent + inst.costs[p] <= inst.budget:
            chosen.append(p)
            spent += inst.costs[p]
    return frozenset(chosen)


# JSON instances that parse_json must reject, each with a fragment of the error
MALFORMED_JSON = {
    "duplicate-id": ('{"n": 1, "budget": "2", "projects": [{"id": "a", "cost": "1"},'
                     ' {"id": "a", "cost": "2"}], "approvals": [["a"]]}',
                     "duplicate project id 'a'"),
    "bool-n": ('{"n": true, "budget": "2", "projects": [{"id": "a", "cost": "1"}],'
               ' "approvals": [["a"]]}', "'n' must be an integer"),
    "string-ballot": ('{"n": 1, "budget": "2", "projects": [{"id": "a", "cost": "1"},'
                      ' {"id": "b", "cost": "1"}], "approvals": ["ab"]}',
                      "must be a list of project ids"),
    "bool-cost": ('{"n": 1, "budget": "2", "projects": [{"id": "a", "cost": true}],'
                  ' "approvals": [["a"]]}', "not a rational number: True"),
    "bool-budget": ('{"n": 1, "budget": true, "projects": [{"id": "a", "cost": "1"}],'
                    ' "approvals": [["a"]]}', "not a rational number: True"),
    "int-id": ('{"n": 1, "budget": "2", "projects": [{"id": 1, "cost": "1"}],'
               ' "approvals": [[1]]}', "project id must be a string, not 1"),
    "null-id": ('{"n": 1, "budget": "2", "projects": [{"id": null, "cost": "1"}],'
                ' "approvals": [[null]]}', "project id must be a string, not None"),
    "mixed-ids": ('{"n": 2, "budget": "2", "projects": [{"id": "a", "cost": "1"},'
                  ' {"id": 1, "cost": "1"}], "approvals": [["a"], [1]]}',
                  "project id must be a string, not 1"),
    "repeated-key": ('{"n": 1, "budget": "2", "budget": "9", "projects":'
                     ' [{"id": "a", "cost": "1"}], "approvals": [["a"]]}',
                     "invalid JSON: key 'budget' repeated in one object"),
    "projects-not-list": ('{"n": 1, "budget": "2", "projects": 5, "approvals": [["a"]]}',
                          "'projects' and 'approvals' must be lists"),
    "project-without-cost": ('{"n": 1, "budget": "2", "projects": [{"id": "a"}],'
                             ' "approvals": [["a"]]}', "malformed project entry"),
    "too-few-ballots": ('{"n": 2, "budget": "2", "projects": [{"id": "a", "cost": "1"}],'
                        ' "approvals": [["a"]]}', "need one approval set per voter"),
    "huge-int": ('{"n": ' + "9" * 5000 + "}", "invalid JSON"),
    "deep-nesting": ("[" * 100_000, "invalid JSON"),
}


# Price-system files that PriceSystem.from_json must reject with ParseError
MALFORMED_PRICE_SYSTEMS = {
    "empty-object": "{}",
    "payments-list": '{"B": "3", "payments": []}',
    "voter-key": '{"B": "3", "payments": {"x": {"p1": "1"}}}',
    "bool-budget": '{"B": true, "payments": {"1": {"p1": "1"}}}',
    "bool-payment": '{"B": "3", "payments": {"1": {"p1": true}}}',
    # voter keys must be written as str(int) does, so one voter has one key
    "voter-key-zero-padded": '{"B": "3", "payments": {"1": {"p1": "1"}, "01": {"p1": "1"}}}',
    "voter-key-spaced": '{"B": "3", "payments": {" 1": {"p1": "1"}}}',
    "voter-key-underscore": '{"B": "3", "payments": {"1_0": {"p1": "1"}}}',
    "voter-key-repeated": '{"B": "3", "payments": {"1": {"p1": "1"}, "1": {"p1": "2"}}}',
    # voters are numbered from 1
    "voter-key-zero": '{"B": "3", "payments": {"0": {"p1": "1"}}}',
    "voter-key-negative": '{"B": "3", "payments": {"-1": {"p1": "1"}}}',
}

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def small_instances():
    return [make_instance(seed) for seed in range(60)]


@pytest.fixture(scope="session")
def tiny_instances():
    return [make_instance(seed, max_n=5, max_m=5) for seed in range(80)]


@pytest.fixture()
def shared_big_project():
    return shared_big_project_example()


@pytest.fixture()
def priceable_example():
    return priceable_not_pjrx_example()


@pytest.fixture()
def table_example():
    return table_mu_example()
