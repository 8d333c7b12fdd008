"""The benchmark's workloads: seeded instances and the `pb` jobs on them.

A workload is made of parts, each a kind of job on its own instances:

- ``elect-uniform``: ``pb run`` with MES[card], MES[cost] and Phragmen on
  uniform elections, where nearly every ballot is distinct;
- ``elect-clustered``: the same three runs plus ``pb price extract --rule
  mes`` on Pabulib-style ``.pb`` files with few distinct ballots;
- ``audit``: ``pb audit`` with all eight axioms on small uniform instances,
  for MES, Phragmen and random feasible outcomes;
- ``price``: ``pb run --rule maximin``, ``pb price extract --rule maximin``
  and ``pb price find --c6 --strict-b`` on the MES[card] outcome.

Instance sizes sit on a fixed grid and the seed only draws their contents,
so every seed gives the same mix of job sizes and runs compare across seeds.
pbprop receives only the files written here.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import elections
from pbprop.model import Instance, emit_json
from pbprop.rules import run_mes, run_seq_phragmen
from pbprop.satisfaction import cardinality_sat, cost_sat

# The parts of each workload. ``uniform`` holds every job whose instances have
# nearly all-distinct ballots, so voter-class merging cannot help it, and it
# is the only workload that reaches the axioms, maxflow and lp layers.
WORKLOADS = {
    "uniform": ("elect-uniform", "audit", "price"),
    "clustered": ("elect-clustered",),
}
AUDIT_SATS = ("cost", "card", "sqrt", "log", "cc")
# The price search runs on the MES[card] outcome, from whose trace pbprop
# extracts a price system with C6 and B above the budget, so the search must
# succeed. An MES[cost] outcome can rightly have none: its payers may all
# approve an unchosen project that costs less. The outcome's payment
# variables set the size of the exact LP. The band keeps every search near
# the same size, so the tail of the job times does not hinge on a few
# outliers. Each price instance is the first of DRAWS candidates that lands
# in the band (else the nearest), so set-up runs the same number of MES
# elections on every seed.
PAYMENT_VARS = (4, 10)
DRAWS = 8


@dataclass(frozen=True)
class Job:
    """One `pb` invocation; ``check`` names the re-check its output gets."""

    id: str
    argv: tuple[str, ...]
    check: str
    instance: str


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    provenance: dict = field(default_factory=dict)


def _rng(workload: str, seed: int | str, k: int) -> random.Random:
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{k}")


def _outcome_arg(outcome) -> str:
    return ",".join(sorted(outcome)) or "-"


def _random_feasible(inst: Instance, rng: random.Random) -> frozenset[str]:
    projects = list(inst.projects)
    rng.shuffle(projects)
    chosen, spent = [], Fraction(0)
    for p in projects:
        if rng.random() < 0.5 and spent + inst.costs[p] <= inst.budget:
            chosen.append(p)
            spent += inst.costs[p]
    return frozenset(chosen)


def _span(values) -> list:
    return [min(values), max(values)]


def _grid(pairs, copies: int) -> list[tuple[int, int]]:
    """``copies`` instances per (n, m) pair, in one fixed shuffled order that
    mixes sizes, so the seed changes contents and never the mix of sizes."""
    pairs = list(pairs) * copies
    random.Random(len(pairs)).shuffle(pairs)
    return pairs


def _product(ns, ms) -> list[tuple[int, int]]:
    return [(n, m) for n in ns for m in ms]


# Size grids of each part, (n, m) per instance, chosen so that one pass over
# a workload's jobs takes well under a run of the seed code. ``tiny`` grids
# serve the smoke tests.
GRIDS = {
    "elect-uniform": _grid(_product((200, 350, 500), (20, 28, 36)), 2),
    "elect-clustered": _grid(_product((800, 1000, 1200), (30, 40)), 3),
    # Audit time doubles with each project and drops when a checker finds an
    # early violation, so job times spread over orders of magnitude. Three
    # adjacent m keep them dense enough for a median that holds from seed to
    # seed; m = 11 gives the tail.
    "audit": _grid(_product(range(6, 13), (9, 10, 11)), 2),
    # Sizes whose MES outcome usually lands in the PAYMENT_VARS band.
    "price": _grid([(16, 12), (20, 10), (24, 10), (28, 8), (32, 8), (36, 8), (40, 8)], 4),
}
TINY_GRIDS = {
    "elect-uniform": [(30, 8)],
    "elect-clustered": [(60, 10), (80, 12)],
    "audit": [(5, 5)],
    "price": [(20, 10)],
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Generate the workload's instances into ``workdir`` and list its jobs.

    The parts' jobs are interleaved in proportion, so any stretch of the
    list holds a similar mix.
    """
    grids = TINY_GRIDS if tiny else GRIDS
    workdir.mkdir(parents=True, exist_ok=True)
    keyed, provenance = [], {}
    for part in WORKLOADS[name]:
        grid = grids[part]
        jobs, facts = _BUILDERS[part](part, seed, workdir, grid)
        keyed += [((k + 0.5) / len(jobs), part, replace(job, id=f"{part}/{job.id}"))
                  for k, job in enumerate(jobs)]
        provenance[part] = {
            "n": _span([n for n, _ in grid]),
            "m": _span([m for _, m in grid]),
            **facts,
            "jobs_per_verb": jobs_per_verb(jobs),
        }
    keyed.sort(key=lambda t: t[:2])
    return Workload(name, [job for _, _, job in keyed], provenance)


def warm_up_job(name: str, workdir: Path, tiny: bool = False) -> Job:
    """The workload's first kind of job on an instance of the first grid size
    drawn from a fixed seed, so the warm-up does the same work on every seed."""
    part = WORKLOADS[name][0]
    grid = (TINY_GRIDS if tiny else GRIDS)[part][:1]
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, _ = _BUILDERS[part](part, "warm-up", workdir, grid)
    return jobs[0]


def _elect_uniform(name, seed, workdir, grid) -> tuple[list[Job], dict]:
    jobs, distinct = [], []
    for k, (n, m) in enumerate(grid):
        inst = elections.uniform(_rng(name, seed, k), n, m)
        path = str(workdir / f"u{k:02d}.json")
        Path(path).write_text(emit_json(inst))
        jobs += _election_jobs(k, path)
        distinct.append(len(set(inst.approvals)))
    return jobs, {
        "distinct_ballots": _span(distinct),
    }


def _election_jobs(k: int, path: str) -> list[Job]:
    return [
        Job(f"{k:02d}/run-mes-card", ("run", "--rule", "mes", "--sat", "card", path), "run", path),
        Job(f"{k:02d}/run-mes-cost", ("run", "--rule", "mes", "--sat", "cost", path), "run", path),
        Job(f"{k:02d}/run-phragmen", ("run", "--rule", "phragmen", path), "run", path),
    ]


def _elect_clustered(name, seed, workdir, grid) -> tuple[list[Job], dict]:
    jobs, distinct = [], []
    for k, (n, m) in enumerate(grid):
        election = elections.clustered(_rng(name, seed, k), n, m)
        distinct.append(election.distinct_ballots)
        path = str(workdir / f"c{k:02d}.pb")
        Path(path).write_text(election.to_pabulib())
        jobs += _election_jobs(k, path)
        jobs.append(Job(f"{k:02d}/extract-mes",
                        ("price", "extract", "--rule", "mes", path), "extract", path))
    return jobs, {
        "distinct_ballots": distinct,
    }


def _audit(name, seed, workdir, grid) -> tuple[list[Job], dict]:
    jobs = []
    for k, (n, m) in enumerate(grid):
        rng = _rng(name, seed, k)
        inst = elections.uniform(rng, n, m)
        path = str(workdir / f"a{k:02d}.json")
        Path(path).write_text(emit_json(inst))
        outcomes = {
            "mes": run_mes(inst, cost_sat(inst))[0],
            "phragmen": run_seq_phragmen(inst)[0],
            "random": _random_feasible(inst, rng),
        }
        for j, (source, outcome) in enumerate(outcomes.items()):
            sat = AUDIT_SATS[(k + j) % len(AUDIT_SATS)]
            jobs.append(Job(f"{k:02d}/audit-{source}-{sat}",
                            ("audit", "--sat", sat, path, _outcome_arg(outcome)),
                            "audit", path))
    return jobs, {}


def _price(name, seed, workdir, grid) -> tuple[list[Job], dict]:
    jobs, pay_vars = [], []
    for k, (n, m) in enumerate(grid):
        rng = _rng(name, seed, k)
        draws = []
        for _ in range(DRAWS):
            inst = elections.uniform(rng, n, m)
            outcome = run_mes(inst, cardinality_sat(inst))[0]
            count = sum(len(inst.approvers(p)) for p in outcome)
            draws.append((max(PAYMENT_VARS[0] - count, 0, count - PAYMENT_VARS[1]),
                          inst, outcome, count))
        _, inst, outcome, count = min(draws, key=lambda d: d[0])
        pay_vars.append(count)
        path = str(workdir / f"p{k:02d}.json")
        Path(path).write_text(emit_json(inst))
        jobs += [
            Job(f"{k:02d}/run-maximin", ("run", "--rule", "maximin", path), "run", path),
            Job(f"{k:02d}/extract-maximin",
                ("price", "extract", "--rule", "maximin", path), "extract", path),
            Job(f"{k:02d}/find-c6",
                ("price", "find", "--c6", "--strict-b", path, _outcome_arg(outcome)),
                "find", path),
        ]
    return jobs, {
        "payment_vars": pay_vars,
    }


def jobs_per_verb(jobs: list[Job]) -> dict[str, int]:
    verbs = Counter(" ".join(j.argv[:2] if j.argv[0] == "price" else j.argv[:1])
                    for j in jobs)
    return dict(sorted(verbs.items()))


_BUILDERS = {
    "elect-uniform": _elect_uniform,
    "elect-clustered": _elect_clustered,
    "audit": _audit,
    "price": _price,
}
