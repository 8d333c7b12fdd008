#!/usr/bin/env python3
"""Time parsing, MES[card], MES[cost], Phragmen, maximin support, the
writing of their traces and the axiom audits here against another checkout.

Both checkouts' ``src/pbprop`` are imported in one process under their own
package names, ``pbprop_this`` and ``pbprop_other``, so the two codes share
one interpreter and one machine state and compare more steadily than
separate benchmark runs. The instances are those of the benchmark's
``elect-uniform`` and ``elect-clustered`` parts on seed 1, drawn by this
checkout's ``perfbench/`` and parsed by each code from the same JSON or
``.pb`` text; MES and Phragmen run on them. Maximin support runs on the
instances of the benchmark's ``price`` part on seed 1, as its maximin jobs
do. In each of 15 rounds every rule runs on every instance of its workload
in both codes, back to back, in an order that alternates from one instance
and one round to the next. Each pair of runs must give the same outcome and
equal traces, compared as ``baseline_rows.canonical`` reads them: payments
expanded per voter and sorted by voter, every other field as it is. Each
code then makes its trace into the stdout payload with its own
``cli._trace_json`` and writes it with its own ``model.dumps``, alternating
alike; the two texts must be equal, and the ``write`` row times the writes.
Each round also parses every text in both codes, alternating alike, and the
two parses of a text must give equal instance fields, the same
``ballot_types()`` order and the same ``approvers(p)`` order for every
project. Prints, per workload, the median seconds of a round in each code
and the rounds in which this checkout was faster, for the parse, for each
rule, for ``write`` and for ``all``. The per-rule rows time the rule alone
on instances parsed before the timed loop, so they leave instance
construction out: work that moves between building an ``Instance`` and
running a rule shows there as a change in the rule. The ``all`` row sums
the parse, the rules and the writes of each round, and is the one to read
for such a move.

The ``audit`` block runs the benchmark's ``audit`` part on seed 1: its
instances, outcomes and satisfaction functions as ``workloads._audit``
builds them. For each of its jobs, in each round, both codes parse the
instance afresh (the ``parse`` row), since an instance memoises its demand
sets, and then build the satisfaction function with their own
``cli._build_sat`` and run ``audit_all`` over all eight axioms (the
``audit`` row), alternating as above. The two reports must give equal
``cli._violation_json`` payloads and guard errors, or the script stops with
"audit reports differ".

Example:
    python scripts/ab_rules.py ../pbprop-parent
"""
import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from baseline_rows import canonical

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 15
SEED = 1
RULES = {"uniform": ("mes-card", "mes-cost", "phragmen"),
         "clustered": ("mes-card", "mes-cost", "phragmen"),
         "price": ("maximin",)}


def load(name: str, checkout: Path):
    """The checkout's ``src/pbprop`` imported as package ``name``."""
    package = checkout / "src" / "pbprop"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def texts() -> dict[str, list[tuple[str, str]]]:
    """Each workload's instances as (format, text), from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import elections
    import workloads
    from pbprop.model import emit_json

    uniform = [("json", emit_json(elections.uniform(workloads._rng("elect-uniform", SEED, k),
                                                    n, m)))
               for k, (n, m) in enumerate(workloads.GRIDS["elect-uniform"])]
    clustered = [("pb", elections.clustered(workloads._rng("elect-clustered", SEED, k),
                                            n, m).to_pabulib())
                 for k, (n, m) in enumerate(workloads.GRIDS["elect-clustered"])]
    with tempfile.TemporaryDirectory() as tmp:
        jobs, _ = workloads._price("price", SEED, Path(tmp), workloads.GRIDS["price"])
        price = [("json", Path(path).read_text())
                 for path in dict.fromkeys(job.instance for job in jobs)]
    return {"uniform": uniform, "clustered": clustered, "price": price}


def parse_in(pkg, fmt: str):
    model = importlib.import_module(f"{pkg.__name__}.model")
    return model.parse_json if fmt == "json" else model.parse_pabulib


def same_instance(a, b) -> bool:
    """Equal fields, ballot types in the same order and approver sets that
    iterate alike; the two codes' ``Instance`` classes never compare equal."""
    return (all(getattr(a, f) == getattr(b, f)
                for f in ("n", "projects", "costs", "approvals", "budget"))
            and list(a.ballot_types().items()) == list(b.ballot_types().items())
            and all(list(a.approvers(p)) == list(b.approvers(p)) for p in a.projects))


def audits() -> list[tuple[str, str, frozenset[str]]]:
    """The ``audit`` part's jobs as (instance JSON, satisfaction selector,
    outcome); call after ``texts``, which puts ``perfbench/`` on the path."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        jobs, _ = workloads._audit("audit", SEED, Path(tmp), workloads.GRIDS["audit"])
        return [(Path(path).read_text(), sat, frozenset(ids.split(",")) - {"-"})  # "-": none
                for _, _, sat, path, ids in (job.argv for job in jobs)]


def auditor(pkg):
    """The code's audit of one job as ``pb audit`` runs it, and the stdout
    payload of a report's verdicts and guard errors."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    axioms = importlib.import_module(f"{pkg.__name__}.axioms")

    def audit(inst, sat: str, outcome):
        return axioms.audit_all(inst, cli._build_sat(sat, inst), outcome)

    def payload(report) -> tuple:
        return ({name: "pass" if v is None else cli._violation_json(v)
                 for name, v in report.results.items()}, report.guard_errors)

    return audit, payload


def summary(workload: str, rows: tuple[str, ...], seconds: dict) -> None:
    """Print each row's median round in both codes, then ``all``."""
    for rule in rows + ("all",):
        rounds = (seconds[rule] if rule != "all" else
                  [[sum(seconds[q][r][s] for q in rows) for s in (0, 1)]
                   for r in range(ROUNDS)])
        this, that = (statistics.median(t[s] for t in rounds) for s in (0, 1))
        wins = sum(t[0] < t[1] for t in rounds)
        print(f"{workload:9} {rule:8} other {that:.4f} s  this {this:.4f} s  "
              f"({this / that - 1:+.1%}), this faster in {wins}/{ROUNDS} rounds")


def time_audits(codes) -> None:
    """The ``audit`` block: parse, then build the function and audit, per job."""
    audit, payload = zip(*(auditor(pkg) for pkg in codes))
    jobs = audits()
    rows = ("parse", "audit")
    seconds = {row: [[0.0, 0.0] for _ in range(ROUNDS)] for row in rows}
    for r in range(ROUNDS):
        for k, (text, sat, outcome) in enumerate(jobs):
            order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
            parsed, reports = [None, None], [None, None]
            for side in order:
                parse = parse_in(codes[side], "json")
                start = perf_counter()
                parsed[side] = parse(text)
                seconds["parse"][r][side] += perf_counter() - start
            for side in order:
                start = perf_counter()
                reports[side] = audit[side](parsed[side], sat, outcome)
                seconds["audit"][r][side] += perf_counter() - start
            if payload[0](reports[0]) != payload[1](reports[1]):
                raise SystemExit(f"audit job {k} ({sat}): audit reports differ")
    summary("audit", rows, seconds)


def writer(pkg):
    """The code's stdout payload of a trace, and its JSON writer."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    model = importlib.import_module(f"{pkg.__name__}.model")
    return cli._trace_json, model.dumps


def calls(pkg, fmt: str, text: str) -> dict:
    """The rule runs of one instance in one code, as thunks."""
    rules = importlib.import_module(f"{pkg.__name__}.rules")
    sat = importlib.import_module(f"{pkg.__name__}.satisfaction")
    inst = parse_in(pkg, fmt)(text)
    card, cost = sat.cardinality_sat(inst), sat.cost_sat(inst)
    return {"mes-card": lambda: rules.run_mes(inst, card),
            "mes-cost": lambda: rules.run_mes(inst, cost),
            "phragmen": lambda: rules.run_seq_phragmen(inst),
            "maximin": lambda: rules.run_maximin_support(inst)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other pbprop checkout")
    other = parser.parse_args(argv).other.resolve()
    codes = (load("pbprop_this", ROOT), load("pbprop_other", other))
    writers = [writer(pkg) for pkg in codes]
    for workload, instances in texts().items():
        rules = RULES[workload]
        runs = [[calls(pkg, fmt, text) for pkg in codes] for fmt, text in instances]
        rows = ("parse",) + rules + ("write",)
        seconds = {row: [[0.0, 0.0] for _ in range(ROUNDS)] for row in rows}
        for r in range(ROUNDS):
            for k, pair in enumerate(runs):
                order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
                fmt, text = instances[k]
                parsed = [None, None]
                for side in order:
                    parse = parse_in(codes[side], fmt)
                    start = perf_counter()
                    parsed[side] = parse(text)
                    seconds["parse"][r][side] += perf_counter() - start
                if r == 0 and not same_instance(*parsed):
                    raise SystemExit(f"{workload} instance {k}: parsed instances differ")
                for rule in rules:
                    results = [None, None]
                    for side in order:
                        start = perf_counter()
                        results[side] = pair[side][rule]()
                        seconds[rule][r][side] += perf_counter() - start
                    (w_this, t_this), (w_other, t_other) = results
                    if w_this != w_other or canonical(t_this) != canonical(t_other):
                        raise SystemExit(f"{workload} instance {k} {rule}: traces differ")
                    payloads = [writers[side][0](results[side][1]) for side in (0, 1)]
                    written = [None, None]
                    for side in order:
                        start = perf_counter()
                        written[side] = writers[side][1](payloads[side])
                        seconds["write"][r][side] += perf_counter() - start
                    if written[0] != written[1]:
                        raise SystemExit(f"{workload} instance {k} {rule}: written traces differ")
        summary(workload, rows, seconds)
    time_audits(codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
