"""Frozen audit witnesses.

Runs every axiom checker, and GCR with both tie rules, on seeded instances
under six satisfaction functions and three outcomes each (random, MES[card]
and empty). The full result of each call goes into one SHA-256 per instance
seed: the axiom, T, group, lhs, rhs and detail items of a violation, the
exception type and message of a failure, and the GCR outcomes. The digests
in ``fixtures/audit_witnesses.json`` were computed before the axiom
checkers were rewritten per ballot type; the test names every seed whose
results moved since.

Regenerate the fixture, only for an intended change of results, with

    PYTHONPATH=src:tests python tests/test_witnesses.py
"""
import hashlib
import json

from conftest import FIXTURES, make_instance, random_outcome
from pbprop.axioms import AXIOM_CHECKERS
from pbprop.rules import run_gcr, run_mes
from pbprop.satisfaction import (
    cardinality_sat,
    cc_sat,
    cost_sat,
    log_cost_sat,
    share_sat,
    sqrt_cost_sat,
)

FIXTURE = FIXTURES / "audit_witnesses.json"
SEEDS = range(100)
SATS = {
    "cost": cost_sat,
    "card": cardinality_sat,
    "sqrt": sqrt_cost_sat,
    "log": log_cost_sat,
    "cc": lambda inst: cc_sat(),
    "share": share_sat,
}


def _result(call) -> str:
    try:
        v = call()
    except Exception as exc:  # the failure itself is part of the result
        return repr((type(exc).__name__, str(exc)))
    if v is None or isinstance(v, frozenset):
        return repr(v if v is None else sorted(v))
    return repr((
        v.axiom, sorted(v.witness.t), sorted(v.witness.group),
        v.lhs, v.rhs, list(dict(v.detail).items()),
    ))


def seed_digest(seed: int) -> str:
    inst = make_instance(seed, max_n=8, max_m=9)
    outcomes = {
        "random": random_outcome(inst, seed),
        "mes_card": run_mes(inst, cardinality_sat(inst))[0],
        "empty": frozenset(),
    }
    lines = []
    for sat, build in SATS.items():
        mu = build(inst)
        for label, w in outcomes.items():
            for name, check in AXIOM_CHECKERS.items():
                lines.append(f"{sat} {label} {name} {_result(lambda: check(inst, mu, w))}")
        for tie in ("lex", "reverse"):
            lines.append(f"{sat} gcr {tie} {_result(lambda: run_gcr(inst, mu, tie))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_audit_witnesses_match_frozen_digests():
    frozen = json.loads(FIXTURE.read_text())
    assert sorted(map(int, frozen)) == list(SEEDS)
    moved = [seed for seed in SEEDS if seed_digest(seed) != frozen[str(seed)]]
    assert not moved, f"audit results changed for seeds {moved}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({str(seed): seed_digest(seed) for seed in SEEDS}, indent=1) + "\n"
    )
