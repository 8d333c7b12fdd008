#!/usr/bin/env python3
"""Sweep random instances, run every rule, and audit the outcomes.

Prints a per-(rule, satisfaction) table of axiom pass rates, which is a
quick way to eyeball which guarantees each rule does and does not give.

Example:
    python scripts/random_audit_sweep.py --count 200 --max-n 5 --max-m 7
"""
import argparse
import random
import sys
from collections import Counter
from pathlib import Path

# import pbprop from this checkout's src/, whatever PYTHONPATH says
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbprop.axioms import AXIOM_CHECKERS, audit_all
from pbprop.model import GenParams, generate_random
from pbprop.rules import run_gcr, run_maximin_support, run_mes, run_seq_phragmen
from pbprop.satisfaction import (
    cardinality_sat,
    cost_sat,
    log_cost_sat,
    sqrt_cost_sat,
)

SAT_BUILDERS = {
    "cost": cost_sat,
    "card": cardinality_sat,
    "sqrt": sqrt_cost_sat,
    "log": log_cost_sat,
}


def make_instance(seed, max_n, max_m):
    rng = random.Random(seed * 7919 + 13)
    params = GenParams(
        n=rng.randint(1, max_n),
        m=rng.randint(1, max_m),
        density=rng.choice([0.3, 0.5, 0.7]),
    )
    return generate_random(params, seed)


def outcomes_for(inst, mu):
    yield "mes", run_mes(inst, mu)[0]
    yield "phragmen", run_seq_phragmen(inst)[0]
    yield "maximin", run_maximin_support(inst)[0]
    yield "gcr", run_gcr(inst, mu)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-m", type=int, default=8)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--sat", choices=[*SAT_BUILDERS, "all"], default="all")
    args = parser.parse_args(argv)

    sat_keys = list(SAT_BUILDERS) if args.sat == "all" else [args.sat]
    passes = Counter()
    runs = Counter()
    for k in range(args.count):
        inst = make_instance(args.seed0 + k, args.max_n, args.max_m)
        for key in sat_keys:
            mu = SAT_BUILDERS[key](inst)
            for rule, w in outcomes_for(inst, mu):
                report = audit_all(inst, mu, w)
                for axiom in AXIOM_CHECKERS:
                    if axiom in report.results:
                        runs[(rule, key, axiom)] += 1
                        passes[(rule, key, axiom)] += report.passed(axiom)

    header = f"{'rule':<9} {'sat':<5}" + "".join(
        f"{a:>11}" for a in AXIOM_CHECKERS
    )
    print(header)
    print("-" * len(header))
    for rule in ("mes", "phragmen", "maximin", "gcr"):
        for key in sat_keys:
            cells = []
            for axiom in AXIOM_CHECKERS:
                total = runs[(rule, key, axiom)]
                if not total:
                    cells.append(f"{'-':>11}")
                else:
                    rate = 100 * passes[(rule, key, axiom)] / total
                    cells.append(f"{rate:>10.1f}%")
            print(f"{rule:<9} {key:<5}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
