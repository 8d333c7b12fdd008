"""Frozen price systems.

Runs ``find_price_system`` with C6 off and on and with a strict and a
non-strict budget on three outcomes per seeded instance (MES[card],
MES[cost] and a random feasible outcome), plus the maximin extraction,
whose LP repair solves the price LP at a pinned budget. The full result
of each call goes into one SHA-256 per instance seed: the price system's
JSON, ``None`` when no system exists, or the exception type and message.
The digests in ``fixtures/price_digests.json`` were computed before the
price LP was built as sparse rows; the test names every seed whose
results moved since.

Regenerate the fixture, only for an intended change of results, with

    PYTHONPATH=src:tests python tests/test_price_digests.py
"""
import hashlib
import json

from conftest import FIXTURES, make_instance, random_outcome
from pbprop.pricing import extract_from_maximin_trace, find_price_system
from pbprop.rules import run_maximin_support, run_mes
from pbprop.satisfaction import cardinality_sat, cost_sat

FIXTURE = FIXTURES / "price_digests.json"
SEEDS = range(200)


def _result(call) -> str:
    try:
        ps = call()
    except Exception as exc:  # the failure itself is part of the result
        return repr((type(exc).__name__, str(exc)))
    return "None" if ps is None else ps.to_json()


def seed_digest(seed: int) -> str:
    inst = make_instance(seed, max_n=7, max_m=8)
    outcomes = {
        "mes_card": run_mes(inst, cardinality_sat(inst))[0],
        "mes_cost": run_mes(inst, cost_sat(inst))[0],
        "random": random_outcome(inst, seed),
    }
    lines = []
    for label, w in outcomes.items():
        for c6 in (False, True):
            for strict in (True, False):
                found = _result(lambda: find_price_system(
                    inst, w, require_c6=c6, require_b_strict=strict
                ))
                lines.append(f"{label} c6={c6} strict={strict} {found}")
    trace = run_maximin_support(inst)[1]
    lines.append(f"maximin {_result(lambda: extract_from_maximin_trace(inst, trace))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_price_systems_match_frozen_digests():
    frozen = json.loads(FIXTURE.read_text())
    assert sorted(map(int, frozen)) == list(SEEDS)
    moved = [seed for seed in SEEDS if seed_digest(seed) != frozen[str(seed)]]
    assert not moved, f"price systems changed for seeds {moved}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({str(seed): seed_digest(seed) for seed in SEEDS}, indent=1) + "\n"
    )
