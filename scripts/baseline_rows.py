#!/usr/bin/env python3
"""Re-time the ROADMAP baseline rows and write BENCH_<label>.json.

Each row runs in a fresh Python process under one fixed timeout. The child
times only the library call (instance generation and start-up are left
out) and prints the result as JSON; the file records, per row, the status
("ok", "timeout" or "error"), the wall seconds of the call, the outcome
size and the SHA-256 of the child's stdout, so two labels can be compared
for both speed and output. The cold-* row is the exception: it times a
whole ``pb`` process, start-up included.

Rows, all on seed 1:
  mes-*, phragmen-*, maximin-*: MES[card], sequential Phragmen and maximin
      support on GenParams(n, m, density=0.2, budget in [3m/4, m]);
  price-*: find_price_system with C6 and B above the budget, on the
      MES[card] outcome of GenParams(n, m) with its default density 0.5;
  pjr-clustered-*: check_pjr with card, guards raised to 64 projects and
      10**6 voters, on the MES[card] outcome of the benchmark's clustered
      election generator (perfbench/elections.py, imported read-only) drawn
      with random.Random("baseline:1");
  maximin-extract-clustered-800x30: extract_from_maximin_trace on the
      benchmark's seed-1 clustered file c01, drawn by that generator with
      random.Random("elect-clustered:1:1"); run_maximin_support runs
      untimed first. The configuration's own loads fail the check, so the
      extraction re-splits the payments with the price LP (2,636 payment
      variables, no size guard). Prints the outcome and the system. It
      runs for minutes; past TIMEOUT_S it is recorded as "timeout";
  cold-run-clustered: one fresh process, timed from its start to its exit,
      running ``pb run --rule mes --sat card`` on that generator's 1200x40
      .pb file. Its stdout is that process's stdout, so the digest is the
      one of ``pb``'s JSON, and the row also records the pbprop modules the
      process loaded. Its time includes compiling pbprop only where no
      __pycache__ holds it: time it from a fresh copy of the checkout with
      PYTHONDONTWRITEBYTECODE=1 to count compiling on every run.

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
import tempfile
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
    "maximin-extract-clustered-800x30": ("maximin-extract", 800, 30),
    "cold-run-clustered": ("cold", 1200, 40),
}
# The cold row's process: pb run on argv[2], with pbprop from argv[1]; it
# lists the pbprop modules it loaded as its last stderr line.
COLD_RUN = """import sys
sys.path.insert(0, sys.argv[1])
from pbprop.cli import main
code = main(["run", "--rule", "mes", "--sat", "card", sys.argv[2]])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "pbprop"), file=sys.stderr)
sys.exit(code)
"""


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


def cold_run(n: int, m: int) -> tuple[float, str, list[str]]:
    """Time one fresh ``pb run`` process on the clustered election; returns
    its wall seconds, its stdout and the pbprop modules it loaded."""
    sys.path.insert(0, str(SRC.parent / "perfbench"))
    import elections

    election = elections.clustered(random.Random("baseline:1"), n, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clustered.pb"
        path.write_text(election.to_pabulib())
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(SRC), str(path)],
                              capture_output=True, text=True, check=True)
        wall = perf_counter() - start
    return wall, proc.stdout, proc.stderr.splitlines()[-1].split()


def run_row(name: str) -> None:
    """Child side: run one row, print its result on stdout and, as the last
    stderr line, a JSON object with the seconds of the timed call
    (``wall_s``) and any other figures of the row. It imports pbprop from
    this checkout's ``src/``, whatever PYTHONPATH says."""
    sys.path.insert(0, str(SRC))
    kind, n, m = ROWS[name]
    if kind == "cold":  # the timed process is a fresh one, not this one
        wall, stdout, modules = cold_run(n, m)
        sys.stdout.write(stdout)
        print(json.dumps({"wall_s": wall, "modules": modules}), file=sys.stderr)
        return
    from pbprop.axioms import check_pjr
    from pbprop.model import GenParams, Instance, generate_random
    from pbprop.pricing import extract_from_maximin_trace, find_price_system
    from pbprop.rules import run_maximin_support, run_mes, run_seq_phragmen
    from pbprop.satisfaction import cardinality_sat

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
    elif kind == "maximin-extract":
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        import elections

        election = elections.clustered(random.Random("elect-clustered:1:1"), n, m)
        inst = Instance.create(election.costs, election.ballots, election.budget)
        outcome, trace = run_maximin_support(inst)
        start = perf_counter()
        ps = extract_from_maximin_trace(inst, trace)
        wall = perf_counter() - start
        result = {"outcome": sorted(outcome), "system": json.loads(ps.to_json())}
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
    print(json.dumps({"wall_s": wall}), file=sys.stderr)


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
    row["outcome_size"] = len(json.loads(proc.stdout)["outcome"])
    row["stdout_sha256"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
    row.update(json.loads(proc.stderr.splitlines()[-1]))
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
