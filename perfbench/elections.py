"""Seeded election generators for the benchmark.

Both generators fix the quantities that set how much work a rule does -- the
multiset of project costs, the budget and the ballot structure -- and let the
seed choose everything else: which project costs what, and who approves what.
Runs on different seeds then differ in content but not in size, which keeps
the benchmark's figures steady from seed to seed.

``uniform`` gives every project the same number of approvers, drawn at
random, so nearly every ballot is distinct. ``clustered`` follows the shape of real participatory-budgeting
data (Faliszewski et al., "Participatory Budgeting: Data, Tools, and
Analysis", IJCAI 2023): short ballots, most of them one of a few popular
bundles, so there are many voters but few distinct ballots.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from pbprop.model import Instance


def cost_ladder(m: int, unit: Fraction) -> list[Fraction]:
    """m costs spread evenly over [4, 20] units, in steps of one unit."""
    return [unit * (4 + (16 * j) // max(m - 1, 1)) for j in range(m)]


def budget_for(m: int, unit: Fraction) -> Fraction:
    """3.5 m units, enough for about 30% of the projects at the mean cost,
    so every rule stops well before the last project."""
    return unit * (7 * m // 2)


DENSITY = 0.2  # share of voters who approve each project in a uniform election


def uniform(rng: random.Random, n: int, m: int) -> Instance:
    """Each project is approved by ``DENSITY`` n voters drawn uniformly at
    random, so ballots are independent of each other and nearly all distinct.
    Costs are the ladder with unit 1/4, so they lie in [1, 5]."""
    unit = Fraction(1, 4)
    projects = [f"p{j}" for j in range(1, m + 1)]
    costs = cost_ladder(m, unit)
    rng.shuffle(costs)
    ballots: list[set[str]] = [set() for _ in range(n)]
    for p in projects:
        for i in rng.sample(range(n), max(1, round(DENSITY * n))):
            ballots[i].add(p)
    return Instance(
        n=n,
        projects=tuple(projects),
        costs=dict(zip(projects, costs)),
        approvals=tuple(frozenset(b) for b in ballots),
        budget=budget_for(m, unit),
    )


@dataclass(frozen=True)
class ClusteredElection:
    """A generated election, kept as plain data until it is written out."""

    costs: dict[str, int]
    budget: int
    ballots: list[tuple[str, ...]]

    @property
    def distinct_ballots(self) -> int:
        return len(set(self.ballots))

    def to_pabulib(self) -> str:
        """The election as a Pabulib ``.pb`` file, with only the columns the
        pbprop parser reads: ``project_id;cost`` and ``voter_id;vote``."""
        lines = [
            "META",
            "key;value",
            "description;clustered synthetic election",
            "country;synthetic",
            f"num_projects;{len(self.costs)}",
            f"num_votes;{len(self.ballots)}",
            f"budget;{self.budget}",
            "vote_type;approval",
            "rule;greedy",
            "PROJECTS",
            "project_id;cost",
        ]
        lines += [f"{p};{c}" for p, c in self.costs.items()]
        lines += ["VOTES", "voter_id;vote"]
        lines += [f"{i};{','.join(b)}" for i, b in enumerate(self.ballots, start=1)]
        return "\n".join(lines) + "\n"


BUNDLE_SIZES = (3, 5, 4, 6, 3, 5)  # ballot length of each popular bundle
PERTURBED_SHARE = 0.05


def clustered(rng: random.Random, n: int, m: int) -> ClusteredElection:
    """n ballots over m projects, from ``len(BUNDLE_SIZES)`` bundles.

    Bundle k holds a share of voters proportional to 1/k (Zipf-like). A
    ``PERTURBED_SHARE`` of voters, chosen by the seed, adds or drops one
    project. Costs are the ladder with unit 250, so they lie in [1000, 5000].
    """
    projects = [f"p{j}" for j in range(1, m + 1)]
    costs = [int(c) for c in cost_ladder(m, Fraction(250))]
    rng.shuffle(costs)
    bundles = [sorted(rng.sample(range(m), size)) for size in BUNDLE_SIZES]
    weights = [1 / k for k in range(1, len(bundles) + 1)]
    counts = [round(n * w / sum(weights)) for w in weights]
    counts[0] += n - sum(counts)
    ballots = [set(b) for b, count in zip(bundles, counts) for _ in range(count)]
    rng.shuffle(ballots)
    for ballot in rng.sample(ballots, round(n * PERTURBED_SHARE)):
        if len(ballot) > 1 and rng.random() < 0.5:
            ballot.discard(rng.choice(sorted(ballot)))
        else:
            ballot.add(rng.randrange(m))
    return ClusteredElection(
        costs=dict(zip(projects, costs)),
        budget=int(budget_for(m, Fraction(250))),
        ballots=[tuple(projects[j] for j in sorted(b)) for b in ballots],
    )
