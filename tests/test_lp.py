import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from conftest import make_instance, random_outcome
from oracles import dense_solve_lp
from pbprop import lp, pricing
from pbprop.lp import solve_lp
from pbprop.rules import run_mes
from pbprop.satisfaction import cardinality_sat


def random_lp(seed):
    """A small LP with mixed signs; every fourth one is degenerate (zero
    right-hand sides) and every fourth one repeats an equality row."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)

    def value():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    def rows(count):
        return [[value() for _ in range(n)] for _ in range(count)]

    objective = [value() for _ in range(n)]
    a_ub, a_eq = rows(rng.randint(0, 4)), rows(rng.randint(0, 3))
    b_ub = [value() for _ in a_ub]
    b_eq = [value() for _ in a_eq]
    if seed % 4 == 1:
        b_ub = [abs(b) * rng.randint(0, 1) for b in b_ub]
        b_eq = [Fraction(0) for _ in b_eq]
    if seed % 4 == 2 and a_eq:
        k = Fraction(rng.choice([1, 2, -3]))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    return objective, a_ub, b_ub, a_eq, b_eq


def to_sparse(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """The arguments of solve_lp for a dense LP, zero entries included."""
    return (
        len(objective),
        dict(enumerate(objective)),
        [(dict(enumerate(row)), b) for row, b in zip(a_ub, b_ub)],
        [(dict(enumerate(row)), b) for row, b in zip(a_eq, b_eq)],
    )


def to_dense(n, objective, ub=(), eq=()):
    """The arguments of dense_solve_lp for solve_lp's sparse ones."""
    def dense(row):
        return [row.get(j, 0) for j in range(n)]

    return (
        dense(objective),
        [dense(row) for row, _ in ub],
        [b for _, b in ub],
        [dense(row) for row, _ in eq],
        [b for _, b in eq],
    )


HAND_MADE = [
    # the second equality repeats the first: its artificial stays basic at 0
    ([1, 1], [], [], [[1, 1], [2, 2]], [1, 2]),
    ([1, 0, 0], [[1, 1, 1]], [3], [[1, -1, 0], [2, -2, 0], [0, 0, 1]], [0, 0, 1]),
    ([1], [[1], [-1]], [1, -2], [], []),  # infeasible
    ([1, 1], [[1, -1]], [1], [], []),  # unbounded
    ([0, 1], [[1, 1], [1, 1], [-1, 0]], [0, 0, 0], [], []),  # degenerate
    ([-1, -1], [], [], [], []),  # no rows
]


def test_solve_lp_matches_dense_reference_on_random_lps():
    statuses = Counter()
    for seed in range(1500):
        lp = random_lp(seed)
        got = solve_lp(*to_sparse(*lp))
        assert got == dense_solve_lp(*lp), seed
        statuses[got[0]] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 50


@pytest.mark.parametrize("lp", HAND_MADE)
def test_solve_lp_matches_dense_reference_on_hand_made_lps(lp):
    assert solve_lp(*to_sparse(*lp)) == dense_solve_lp(*lp)


def test_redundant_equality_keeps_value():
    status, x, value = solve_lp(2, {0: 1, 1: 1}, eq=[({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 2)])
    assert status == "optimal" and value == 1 and sum(x) == 1


def test_solve_lp_rejects_columns_out_of_range():
    with pytest.raises(ValueError):
        solve_lp(2, {2: 1})
    with pytest.raises(ValueError):
        solve_lp(2, {0: 1}, [({2: 1}, 1)])
    with pytest.raises(ValueError):
        solve_lp(2, {0: 1}, eq=[({-1: 1}, 1)])


@pytest.fixture(scope="module")
def price_lps():
    """The arguments and results of every LP find_price_system builds, with
    C6 off and on."""
    built = []

    def recording(*args):
        result = solve_lp(*args)
        built.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pricing, "solve_lp", recording)
        for seed in range(40):
            inst = make_instance(seed, max_n=5, max_m=6)
            outcomes = {run_mes(inst, cardinality_sat(inst))[0], random_outcome(inst, seed)}
            for w in sorted(outcomes, key=sorted):
                for c6 in (False, True):
                    pricing.find_price_system(inst, w, require_c6=c6)
    return built


def test_price_lps_match_dense_reference(price_lps):
    """The LPs find_price_system builds solve to the same (status, x, value)
    as the dense reference."""
    assert len(price_lps) >= 120
    for args, result in price_lps:
        assert result == dense_solve_lp(*to_dense(*args))


def _record_pivots(monkeypatch, module, name):
    """Wrap a pivot function to record the (row, column) of every pivot."""
    seen = []
    pivot = getattr(module, name)

    def recording(*args):
        seen.append(args[-2:])
        pivot(*args)

    monkeypatch.setattr(module, name, recording)
    return seen


def test_pivot_sequences_match_dense_reference(monkeypatch, price_lps):
    """Bland's path itself, not just the result: the fraction-free simplex
    pivots on the same (row, column) in the same order as the dense one."""
    sparse = _record_pivots(monkeypatch, lp, "_pivot")
    dense = _record_pivots(monkeypatch, oracles, "_dense_pivot")
    lps = [(to_sparse(*lp), lp) for lp in map(random_lp, range(1500))]
    lps += [(args, to_dense(*args)) for args, _ in price_lps]
    pivots = 0
    for k, (sparse_args, dense_args) in enumerate(lps):
        sparse.clear()
        dense.clear()
        solve_lp(*sparse_args)
        dense_solve_lp(*dense_args)
        assert sparse == dense, k
        pivots += len(sparse)
    assert pivots > 3000
