#!/usr/bin/env python3
"""Re-time the ROADMAP baseline rows and write BENCH_<label>.json.

Each row runs in a fresh Python process under one fixed timeout. The child
times only the library call (instance generation and start-up are left
out) and prints the result as JSON; the file records, per row, the status
("ok", "timeout" or "error"), the wall seconds of the call, the outcome
size and the SHA-256 of the child's stdout, so two labels can be compared
for both speed and output.

Rows, all on seed 1:
  mes-*, phragmen-*, maximin-*: MES[card], sequential Phragmen and maximin
      support on GenParams(n, m, density=0.2, budget in [3m/4, m]);
  price-*: find_price_system with C6 and B above the budget, on the
      MES[card] outcome of GenParams(n, m) with its default density 0.5;
  pjr-clustered-*: check_pjr with card, guards raised to 64 projects and
      10**6 voters, on the MES[card] outcome of the benchmark's clustered
      election generator (perfbench/elections.py, imported read-only) drawn
      with random.Random("baseline:1").

Example:
    python scripts/baseline_rows.py after maximin-100x20 price-8x12
"""
import argparse
import hashlib
import json
import platform
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

TIMEOUT_S = 600
SRC = Path(__file__).resolve().parents[1] / "src"
ROWS = {
    "mes-1000x40": ("mes", 1000, 40),
    "mes-5000x60": ("mes", 5000, 60),
    "mes-20000x100": ("mes", 20000, 100),
    "phragmen-1000x40": ("phragmen", 1000, 40),
    "phragmen-5000x60": ("phragmen", 5000, 60),
    "maximin-100x20": ("maximin", 100, 20),
    "maximin-300x20": ("maximin", 300, 20),
    "maximin-300x40": ("maximin", 300, 40),
    "maximin-1000x40": ("maximin", 1000, 40),
    "price-8x12": ("price", 8, 12),
    "price-16x16": ("price", 16, 16),
    "pjr-clustered-1200x40": ("pjr", 1200, 40),
}


def canonical(trace) -> dict:
    """A rule trace as its fields, with the payments expanded per voter and
    sorted by voter, so that a trace that keeps its payments per class of
    voters reads the same as one that keeps them per voter."""
    skip = ("payments", "payment_classes")
    view = {k: v for k, v in vars(trace).items() if k not in skip}
    view["payments"] = {p: dict(sorted(per.items())) for p, per in trace.payments.items()}
    return view


def trace_sha256(trace) -> str:
    """SHA-256 of the canonical trace, amounts as exact "p/q" strings."""
    return hashlib.sha256(json.dumps(canonical(trace), default=str).encode()).hexdigest()


def run_row(name: str) -> None:
    """Child side: run one row, print its result on stdout and the seconds
    of the timed call on stderr. It imports pbprop from this checkout's
    ``src/``, whatever PYTHONPATH says."""
    sys.path.insert(0, str(SRC))
    from pbprop.axioms import check_pjr
    from pbprop.model import GenParams, Instance, generate_random
    from pbprop.pricing import find_price_system
    from pbprop.rules import run_maximin_support, run_mes, run_seq_phragmen
    from pbprop.satisfaction import cardinality_sat

    kind, n, m = ROWS[name]
    if kind == "price":
        inst = generate_random(GenParams(n, m), seed=1)
        outcome, _ = run_mes(inst, cardinality_sat(inst))
        start = perf_counter()
        ps = find_price_system(inst, outcome, require_c6=True)
        wall = perf_counter() - start
        result = {"outcome": sorted(outcome), "system": ps and json.loads(ps.to_json())}
    elif kind == "pjr":
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        import elections

        election = elections.clustered(random.Random("baseline:1"), n, m)
        inst = Instance.create(election.costs, election.ballots, election.budget)
        mu = cardinality_sat(inst)
        outcome, _ = run_mes(inst, mu)
        start = perf_counter()
        v = check_pjr(inst, mu, outcome, max_m=64, max_n=10**6)
        wall = perf_counter() - start
        result = {"outcome": sorted(outcome), "violation": v and {
            "t": sorted(v.witness.t), "group": sorted(v.witness.group),
            "lhs": str(v.lhs), "rhs": str(v.rhs)}}
    else:
        params = GenParams(n, m, density=0.2, budget_min=Fraction(3 * m, 4),
                           budget_max=Fraction(m))
        inst = generate_random(params, seed=1)
        mu = cardinality_sat(inst)
        call = {"mes": lambda: run_mes(inst, mu),
                "phragmen": lambda: run_seq_phragmen(inst),
                "maximin": lambda: run_maximin_support(inst)}[kind]
        start = perf_counter()
        outcome, trace = call()
        wall = perf_counter() - start
        result = {"outcome": sorted(outcome),
                  "selections": [[r, p, str(v)] for r, p, v in trace.selections],
                  "trace_sha256": trace_sha256(trace)}
    print(json.dumps(result))
    print(wall, file=sys.stderr)


def time_row(name: str) -> dict:
    """Parent side: run one row in a fresh process."""
    row = {"row": name, "status": "ok", "wall_s": None, "outcome_size": None,
           "stdout_sha256": None}
    try:
        proc = subprocess.run([sys.executable, __file__, "--row", name],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        row["status"] = "timeout"
        return row
    if proc.returncode != 0:
        row["status"] = "error"
        row["error"] = proc.stderr.strip().splitlines()[-1:]
        return row
    row["wall_s"] = float(proc.stderr.split()[-1])
    row["outcome_size"] = len(json.loads(proc.stdout)["outcome"])
    row["stdout_sha256"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="names the output file BENCH_<label>.json")
    parser.add_argument("rows", nargs="*", help=f"rows to time (default: all of {list(ROWS)})")
    parser.add_argument("--out", default=".", help="directory for the output file")
    parser.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)  # child mode
    args = parser.parse_args(argv)
    if args.row:
        run_row(args.row)
        return 0
    if args.label is None:
        parser.error("a label is required")
    unknown = [r for r in args.rows if r not in ROWS]
    if unknown:
        parser.error(f"unknown rows {unknown}")
    results = []
    for name in args.rows or ROWS:
        results.append(time_row(name))
        print(json.dumps(results[-1]), file=sys.stderr)
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label,
        "python": platform.python_version(),
        "timeout_s": TIMEOUT_S,
        "rows": results,
    }, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
