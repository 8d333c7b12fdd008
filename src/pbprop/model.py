"""Core data model: approval-based budgeting instances and outcomes.

All money amounts (costs, budgets, payments) are `fractions.Fraction`
values so that every comparison made by the voting rules and the axiom
checkers is exact.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Mapping, Sequence

Money = Fraction


class InstanceError(ValueError):
    """Instance data violates a structural invariant."""


class ParseError(InstanceError):
    """Input text cannot be parsed into a valid instance."""


def parse_money(value: str | int | Fraction) -> Fraction:
    """Parse an exact rational from "p/q", decimal, or integer notation.

    Exponent notation is refused: ``Fraction("1e400100000")`` would build
    a 400-million-digit integer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # a JSON true/false, not an amount
        raise ParseError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    text = str(value).strip()
    if "e" in text or "E" in text:
        raise ParseError(f"not a rational number: {value!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {value!r}") from exc


def money_str(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def money_str_memo() -> Callable[[Fraction], str]:
    """``money_str`` that formats each amount object once.

    Rule traces and price systems share one ``Fraction`` object among all
    voters of a class, so a payload of thousands of payments holds a few
    hundred objects. The memo is keyed by ``id()``, which is far cheaper
    than hashing a ``Fraction``, and keeps every amount it has seen alive,
    so an id cannot be reused while the memo is in use."""
    texts: dict[int, str] = {}
    seen: list[Fraction] = []

    def text(value: Fraction) -> str:
        s = texts.get(id(value))
        if s is None:
            s = texts[id(value)] = money_str(value)
            seen.append(value)
        return s

    return text


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte.

    Every JSON document pbprop writes goes through here. It takes only the
    types payloads hold: dicts with str keys, lists, str, int, bool and
    None; anything else raises ``TypeError``. Strings are quoted by the C
    ``encode_basestring_ascii`` and each container is one ``join``, because
    with ``indent`` the standard library falls back to its pure-Python
    encoder."""
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else _dumps(v, inner))
            for k, v in obj.items()  # _quote raises TypeError on a non-str key
        ]) + nl + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else _dumps(v, inner) for v in obj
        ]) + nl + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as a JSON payload value")


@dataclass(frozen=True)
class Instance:
    """An approval-based budgeting instance: voters, projects, costs, budget.

    Voters are numbered 1..n; projects carry stable string ids. Instances
    are immutable after construction and safe to share between threads.
    Voters with the same ballot form a ballot type (see ``ballot_types``);
    rules, audits and price verification work per type where they can.
    """

    n: int
    projects: tuple[str, ...]
    costs: Mapping[str, Fraction]
    approvals: tuple[frozenset[str], ...]
    budget: Fraction
    _types: Mapping[frozenset[str], list[int]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _approvers: Mapping[str, frozenset[int]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _demands: tuple | None = field(  # memo of axioms.demand_sets
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceError("need at least one voter")
        if len(self.projects) < 1:
            raise InstanceError("need at least one project")
        if len(set(self.projects)) != len(self.projects):
            raise InstanceError("project ids must be unique")
        if set(self.costs) != set(self.projects):
            raise InstanceError("costs must cover exactly the project list")
        for p, c in self.costs.items():
            if not isinstance(c, Fraction) or c <= 0:
                raise InstanceError(f"cost of {p!r} must be a positive rational")
        if not isinstance(self.budget, Fraction) or self.budget <= 0:
            raise InstanceError("budget must be a positive rational")
        if len(self.approvals) != self.n:
            raise InstanceError("need one approval set per voter")
        types: dict[frozenset[str], list[int]] = {}
        for i, ballot in enumerate(self.approvals, start=1):
            types.setdefault(ballot, []).append(i)
        approvers: dict[str, list[int]] = {p: [] for p in self.projects}
        for ballot, holders in types.items():  # by lowest holder
            unknown = sorted(ballot.difference(approvers))
            if unknown:
                raise InstanceError(f"voter {holders[0]} approves unknown projects {unknown}")
            for p in ballot:
                approvers[p] += holders
        # Built in ascending voter order, so a set iterates as one built by
        # scanning the voters 1..n (balance_loads adds flow edges in it).
        object.__setattr__(self, "_types", types)
        object.__setattr__(
            self, "_approvers", {p: frozenset(sorted(v)) for p, v in approvers.items()}
        )

    @classmethod
    def create(
        cls,
        costs: Mapping[str, object],
        approvals: Sequence[Iterable[str]],
        budget: object,
    ) -> "Instance":
        """Convenience constructor coercing costs/budget to Fractions."""
        cost_map = {p: parse_money(c) for p, c in costs.items()}
        return cls(
            n=len(approvals),
            projects=tuple(costs),
            costs=cost_map,
            approvals=tuple(frozenset(a) for a in approvals),
            budget=parse_money(budget),
        )

    @property
    def m(self) -> int:
        return len(self.projects)

    @property
    def voters(self) -> range:
        return range(1, self.n + 1)

    def approval(self, voter: int) -> frozenset[str]:
        if not 1 <= voter <= self.n:
            raise InstanceError(f"unknown voter {voter}")
        return self.approvals[voter - 1]

    def _check_known(self, s: Iterable[str]) -> None:
        unknown = {p for p in s if p not in self.costs}
        if unknown:
            raise InstanceError(f"unknown project ids {sorted(unknown)}")

    def total_cost(self, s: Iterable[str]) -> Fraction:
        s = set(s)
        self._check_known(s)
        return sum((self.costs[p] for p in s), Fraction(0))

    def is_outcome(self, s: Iterable[str]) -> bool:
        return self.total_cost(s) <= self.budget

    def is_exhaustive(self, s: Iterable[str]) -> bool:
        s = set(s)
        spent = self.total_cost(s)
        if spent > self.budget:
            raise InstanceError("is_exhaustive requires a feasible outcome")
        residual = self.budget - spent
        return all(self.costs[p] > residual for p in self.projects if p not in s)

    def approvers(self, p: str) -> frozenset[int]:
        self._check_known([p])
        return self._approvers[p]

    def ballot_types(self) -> Mapping[frozenset[str], list[int]]:
        """Distinct ballots in order of first appearance, each mapped to its
        holders in ascending order. Shared by every caller: do not mutate."""
        return self._types

    def is_unit_cost(self) -> bool:
        return all(c == 1 for c in self.costs.values())


# ---------------------------------------------------------------------------
# Pabulib-style ingestion


def _columns(section: str, rows: list[list[str]], names: tuple[str, ...]) -> list[int]:
    """Positions of the named columns in the section's header row."""
    header = [c.lower() for c in rows[0]] if rows else []
    missing = [name for name in names if name not in header]
    if missing:
        raise ParseError(f"{section} header lacks column(s) {missing}")
    return [header.index(name) for name in names]


def parse_pabulib(text: str) -> Instance:
    """Parse a Pabulib-style ``.pb`` file (META/PROJECTS/VOTES sections).

    Rows are ``;``-separated with ``"`` quoting. PROJECTS and VOTES columns
    are found by header name (``project_id``, ``cost``; ``voter_id``,
    ``vote``); other columns are ignored."""
    try:
        rows = list(csv.reader(text.splitlines(), delimiter=";", quotechar='"'))
    except csv.Error as exc:  # e.g. a stray quote that swallows the file
        raise ParseError(f"unreadable .pb rows: {exc}") from exc
    sections: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for raw in rows:
        row = [f.strip() for f in raw]
        if not row or row == [""]:
            continue
        if len(row) == 1 and row[0].upper() in ("META", "PROJECTS", "VOTES"):
            current = sections.setdefault(row[0].upper(), [])
            continue
        if current is None:
            raise ParseError(f"content before first section header: {';'.join(row)!r}")
        current.append(row)

    for name in ("META", "PROJECTS", "VOTES"):
        if name not in sections:
            raise ParseError(f"missing section {name}")

    meta_rows = sections["META"]
    if not meta_rows or [c.lower() for c in meta_rows[0]][:2] != ["key", "value"]:
        raise ParseError("META must start with a 'key;value' header")
    meta = {row[0]: row[1] if len(row) > 1 else "" for row in meta_rows[1:]}
    for key in ("num_projects", "num_votes", "budget", "vote_type"):
        if key not in meta:
            raise ParseError(f"missing META key {key}")
    if meta["vote_type"] != "approval":
        raise ParseError(f"unsupported vote type {meta['vote_type']!r}")
    try:
        num_projects = int(meta["num_projects"])
        num_votes = int(meta["num_votes"])
    except ValueError as exc:
        raise ParseError("num_projects/num_votes must be integers") from exc
    budget = parse_money(meta["budget"])

    proj_rows = sections["PROJECTS"]
    col_id, col_cost = _columns("PROJECTS", proj_rows, ("project_id", "cost"))
    costs: dict[str, Fraction] = {}
    for row in proj_rows[1:]:
        if len(row) <= max(col_id, col_cost):
            raise ParseError(f"malformed PROJECTS row {row!r}")
        pid = row[col_id]
        if pid in costs:
            raise ParseError(f"duplicate project id {pid!r}")
        costs[pid] = parse_money(row[col_cost])
    if len(costs) != num_projects:
        raise ParseError(
            f"META says {num_projects} projects, PROJECTS lists {len(costs)}"
        )

    vote_rows = sections["VOTES"]
    _, col_vote = _columns("VOTES", vote_rows, ("voter_id", "vote"))
    approvals: list[frozenset[str]] = []
    ballots: dict[str, frozenset[str]] = {}  # one set per distinct vote string
    for row in vote_rows[1:]:
        vote = row[col_vote] if len(row) > col_vote else ""
        ballot = ballots.get(vote)
        if ballot is None:
            ballot = frozenset(p.strip() for p in vote.split(",") if p.strip())
            dangling = ballot.difference(costs)
            if dangling:
                raise ParseError(f"vote references unknown projects {sorted(dangling)}")
            ballots[vote] = ballot
        approvals.append(ballot)
    if len(approvals) != num_votes:
        raise ParseError(f"META says {num_votes} votes, VOTES lists {len(approvals)}")

    try:
        return Instance(
            n=len(approvals),
            projects=tuple(costs),
            costs=costs,
            approvals=tuple(approvals),
            budget=budget,
        )
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON round trip


def parse_json(text: str) -> Instance:
    """Parse the canonical JSON instance encoding (exact "p/q" rationals)."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: too many digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        n = data["n"]
        budget = parse_money(data["budget"])
        projects = data["projects"]
        approvals = data["approvals"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"'n' must be an integer, not {n!r}")
    if not isinstance(projects, list) or not isinstance(approvals, list):
        raise ParseError("'projects' and 'approvals' must be lists")
    if not all(isinstance(ballot, list) for ballot in approvals):
        raise ParseError("each ballot in 'approvals' must be a list of project ids")
    costs: dict[str, Fraction] = {}
    for entry in projects:
        try:
            pid = entry["id"]
            if not isinstance(pid, str):
                raise ParseError(f"project id must be a string, not {pid!r}")
            if pid in costs:
                raise ParseError(f"duplicate project id {pid!r}")
            costs[pid] = parse_money(entry["cost"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed project entry {entry!r}") from exc
    try:
        return Instance(
            n=n,
            projects=tuple(costs),
            costs=costs,
            approvals=tuple(frozenset(a) for a in approvals),
            budget=budget,
        )
    except (InstanceError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def emit_json(inst: Instance) -> str:
    data = {
        "n": inst.n,
        "budget": money_str(inst.budget),
        "projects": [{"id": p, "cost": money_str(inst.costs[p])} for p in inst.projects],
        "approvals": [sorted(ballot) for ballot in inst.approvals],
    }
    return dumps(data)


# ---------------------------------------------------------------------------
# Random instance generation


@dataclass(frozen=True)
class GenParams:
    """Parameters for the random instance generator.

    Costs are drawn as k/denominator with k uniform over the allowed range;
    the budget is drawn uniformly (same grid) from [budget_min, budget_max],
    defaulting to [m/2, 2m].
    """

    n: int
    m: int
    cost_min: Fraction = Fraction(1)
    cost_max: Fraction = Fraction(5)
    density: float = 0.5
    budget_min: Fraction | None = None
    budget_max: Fraction | None = None
    unit_cost: bool = False
    denominator: int = 4


def _rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    lo_k = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
    hi_k = hi.numerator * den // hi.denominator  # floor(hi*den)
    if hi_k < lo_k:
        raise InstanceError(f"empty range [{lo}, {hi}] at denominator {den}")
    return Fraction(rng.randint(lo_k, hi_k), den)


def generate_random(params: GenParams, seed: int) -> Instance:
    """Deterministically generate a valid random instance for a seed.

    Every voter approves at least one project (ballots are redrawn
    otherwise); all Instance invariants hold by construction.
    """
    if params.n < 1 or params.m < 1:
        raise InstanceError("n and m must be at least 1")
    rng = random.Random(seed)
    projects = tuple(f"p{j}" for j in range(1, params.m + 1))
    if params.unit_cost:
        costs = {p: Fraction(1) for p in projects}
    else:
        costs = {
            p: _rand_fraction(rng, params.cost_min, params.cost_max, params.denominator)
            for p in projects
        }
    lo = params.budget_min if params.budget_min is not None else Fraction(params.m, 2)
    hi = params.budget_max if params.budget_max is not None else Fraction(2 * params.m)
    budget = _rand_fraction(rng, lo, hi, params.denominator)
    approvals = []
    for _ in range(params.n):
        while True:
            ballot = frozenset(p for p in projects if rng.random() < params.density)
            if ballot:
                break
        approvals.append(ballot)
    return Instance(
        n=params.n,
        projects=projects,
        costs=costs,
        approvals=tuple(approvals),
        budget=budget,
    )
