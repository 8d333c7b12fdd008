"""Core data model: approval-based budgeting instances and outcomes.

All money amounts (costs, budgets, payments) are `fractions.Fraction`
values so that every comparison made by the voting rules and the axiom
checkers is exact.
"""
from __future__ import annotations

import csv
import json
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

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


class VoterMap:
    """A JSON object keyed by voter, kept as classes of voters.

    Each (holders, value) pair of ``classes`` gives every voter in
    ``holders`` (ints; no voter in two pairs) the same value. ``dumps``
    writes it as the object keyed by ``str(voter)`` in ascending voter
    order, building the text of each value once."""

    __slots__ = ("classes",)

    def __init__(self, classes: Sequence[tuple[Sequence[int], object]]):
        self.classes = classes


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte, with each
    ``VoterMap`` written as the object it stands for.

    Every JSON document pbprop writes goes through here. It takes only the
    types payloads hold: dicts with str keys, voter maps, lists, str, int,
    bool and None; anything else raises ``TypeError``. Strings are quoted by
    the C ``encode_basestring_ascii`` and each container is one ``join``,
    because with ``indent`` the standard library falls back to its
    pure-Python encoder."""
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
    if type(obj) is VoterMap:
        return _voter_map(obj.classes, nl)
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


# Per indent, the key texts '<indent>"i": ' of voters 0, 1, 2, ..., kept for
# the life of the process up to the largest voter id written below the cap.
_VOTER_KEYS: dict[str, list[str]] = {}
_VOTER_KEYS_MAX = 1 << 15  # a map holding a larger id formats its own keys


def _voter_map(classes, nl: str) -> str:
    """One voter map's text, each class value written once."""
    inner = nl + "  "
    text: dict[int, str] = {}
    for holders, value in classes:
        t = _quote(value) if type(value) is str else _dumps(value, inner)
        if len(holders) == 1:
            text[holders[0]] = t
        else:
            for i in holders:
                text[i] = t
    if not text:
        return "{}"
    order = sorted(text)
    if order[0] < 1:  # would index the key list from its end
        raise TypeError(f"voter id {order[0]} is below 1")
    keys = _VOTER_KEYS.get(inner, [])
    top = order[-1]
    if top >= _VOTER_KEYS_MAX:
        keys = {i: f'{inner}"{i}": ' for i in order}
    elif top >= len(keys):  # a stored list is never changed, so threads may share it
        keys = _VOTER_KEYS[inner] = keys + [f'{inner}"{i}": ' for i in range(len(keys), top + 1)]
    return "{" + ",".join([keys[i] + text[i] for i in order]) + nl + "}"


@dataclass(frozen=True)
class Instance:
    """An approval-based budgeting instance: voters, projects, costs, budget.

    Voters are numbered 1..n; projects carry stable string ids. Instances
    are immutable after construction and safe to share between threads.
    Voters with the same ballot form a ballot type (see ``ballot_types``);
    rules, audits and price verification work per type where they can.
    Each project's approver set is built on the first ``approvers`` call.
    Money is also held as ints: ``unit`` is the lcm of the budget's and the
    costs' denominators, and ``cost_units`` and ``budget_units`` are the
    costs and the budget times ``unit``.
    """

    n: int
    projects: tuple[str, ...]
    costs: Mapping[str, Fraction]
    approvals: tuple[frozenset[str], ...]
    budget: Fraction
    _types: Mapping[frozenset[str], list[int]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _approvers: Mapping[str, frozenset[int]] | None = field(  # built on first use
        init=False, repr=False, compare=False, default=None
    )
    _demands: tuple | None = field(  # memo of axioms.demand_sets
        init=False, repr=False, compare=False, default=None
    )
    unit: int = field(init=False, repr=False, compare=False, default=1)
    cost_units: Mapping[str, int] = field(init=False, repr=False, compare=False, default=None)
    budget_units: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceError("need at least one voter")
        if len(self.projects) < 1:
            raise InstanceError("need at least one project")
        if len(set(self.projects)) != len(self.projects):
            raise InstanceError("project ids must be unique")
        if set(self.costs) != set(self.projects):
            raise InstanceError("costs must cover exactly the project list")
        for p, c in self.costs.items():  # a Fraction has the sign of its numerator
            if not isinstance(c, Fraction) or c.numerator <= 0:
                raise InstanceError(f"cost of {p!r} must be a positive rational")
        if not isinstance(self.budget, Fraction) or self.budget.numerator <= 0:
            raise InstanceError("budget must be a positive rational")
        if len(self.approvals) != self.n:
            raise InstanceError("need one approval set per voter")
        types: dict[frozenset[str], list[int]] = {}
        for i, ballot in enumerate(self.approvals, start=1):
            types.setdefault(ballot, []).append(i)
        if not self.costs.keys() >= frozenset().union(*types):
            for ballot, holders in types.items():  # by lowest holder
                if unknown := sorted(ballot.difference(self.costs)):
                    raise InstanceError(f"voter {holders[0]} approves unknown projects {unknown}")
        object.__setattr__(self, "_types", types)
        costs, b = self.costs, self.budget
        unit = lcm(b.denominator, *{c.denominator for c in costs.values()})
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "cost_units", {
            p: c.numerator * (unit // c.denominator) for p, c in costs.items()})
        object.__setattr__(self, "budget_units", b.numerator * (unit // b.denominator))

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
        return Fraction(sum([self.cost_units[p] for p in s]), self.unit)

    def _spent(self, outcome: Iterable[str]) -> tuple[frozenset[str], int]:
        """The outcome as a set and its cost in units, refused unless its ids
        are known and it fits the budget."""
        w = frozenset(outcome)
        self._check_known(w)
        cost = sum([self.cost_units[p] for p in w])
        if cost > self.budget_units:
            raise InstanceError("outcome exceeds the budget")
        return w, cost

    def check_outcome(self, outcome: Iterable[str]) -> frozenset[str]:
        return self._spent(outcome)[0]

    def is_exhaustive(self, outcome: Iterable[str]) -> bool:
        w, cost = self._spent(outcome)
        residual = self.budget_units - cost
        return all(self.cost_units[p] > residual for p in self.projects if p not in w)

    def approvers(self, p: str) -> frozenset[int]:
        self._check_known([p])
        if self._approvers is None:
            approvers: dict[str, list[int]] = {q: [] for q in self.projects}
            for ballot, holders in self._types.items():
                for q in ballot:
                    approvers[q] += holders
            # Built in ascending voter order, so a set iterates as one built
            # by scanning the voters 1..n (balance_loads adds flow edges in it).
            # Threads that race here build equal maps, and the last one stays.
            object.__setattr__(
                self, "_approvers", {q: frozenset(sorted(v)) for q, v in approvers.items()}
            )
        return self._approvers[p]

    def approver_counts(self) -> dict[str, int]:
        """|N(p)| for every project, counted over the ballot types."""
        counts = dict.fromkeys(self.projects, 0)
        for ballot, holders in self._types.items():
            k = len(holders)
            for p in ballot:
                counts[p] += k
        return counts

    def ballot_types(self) -> Mapping[frozenset[str], list[int]]:
        """Distinct ballots in order of first appearance, each mapped to its
        holders in ascending order. Shared by every caller: do not mutate."""
        return self._types


# ---------------------------------------------------------------------------
# Pabulib-style ingestion


def _columns(section: str, rows: list[list[str]], names: tuple[str, ...]) -> list[int]:
    """Positions of the named columns in the section's header row."""
    header = [c.strip().lower() for c in rows[0]] if rows else []
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
    # Headers and blank rows have fewer than two fields; the rows between
    # them are data rows, added a run at a time.
    short = [(k, row[0].strip().upper() if row else "")
             for k, row in enumerate(rows) if len(row) < 2]
    breaks = [(k, head) for k, head in short if head in ("", "META", "PROJECTS", "VOTES")]
    start = 0
    for k, head in [*breaks, (len(rows), "")]:
        if start < k:
            if current is None:
                line = ";".join(f.strip() for f in rows[start])
                raise ParseError(f"content before first section header: {line!r}")
            current += rows[start:k]
        if head:
            current = sections.setdefault(head, [])
        start = k + 1

    for name in ("META", "PROJECTS", "VOTES"):
        if name not in sections:
            raise ParseError(f"missing section {name}")

    meta_rows = [[f.strip() for f in row] for row in sections["META"]]
    if not meta_rows or [c.lower() for c in meta_rows[0]][:2] != ["key", "value"]:
        raise ParseError("META must start with a 'key;value' header")
    meta = {row[0]: row[1] if len(row) > 1 else "" for row in meta_rows[1:]}
    keys = [row[0] for row in meta_rows[1:]]
    for key in ("num_projects", "num_votes", "budget", "vote_type"):
        if key not in meta:
            raise ParseError(f"missing META key {key}")
        if keys.count(key) > 1:  # else the last value would silently win
            raise ParseError(f"repeated META key {key}")
    if meta["vote_type"] != "approval":
        raise ParseError(f"unsupported vote type {meta['vote_type']!r}")
    try:
        num_projects = int(meta["num_projects"])
        num_votes = int(meta["num_votes"])
    except ValueError as exc:
        raise ParseError("num_projects/num_votes must be integers") from exc
    budget = parse_money(meta["budget"])

    proj_rows = [[f.strip() for f in row] for row in sections["PROJECTS"]]
    col_id, col_cost = _columns("PROJECTS", proj_rows, ("project_id", "cost"))
    costs: dict[str, Fraction] = {}
    for row in proj_rows[1:]:
        if len(row) <= max(col_id, col_cost):
            raise ParseError(f"malformed PROJECTS row {row!r}")
        pid = row[col_id]
        if not pid or pid in costs:
            raise ParseError(f"duplicate project id {pid!r}" if pid else "missing project_id")
        costs[pid] = parse_money(row[col_cost])
    if len(costs) != num_projects:
        raise ParseError(
            f"META says {num_projects} projects, PROJECTS lists {len(costs)}"
        )

    vote_rows = sections["VOTES"]
    col_voter, col_vote = _columns("VOTES", vote_rows, ("voter_id", "vote"))
    ids = [v.strip() for v in _column(vote_rows[1:], col_voter)]
    votes = _column(vote_rows[1:], col_vote)
    bad_voter = None  # index of the first row whose voter_id is missing or repeated
    if "" in ids or len(set(ids)) < len(ids):
        seen: set[str] = set()
        for i, voter in enumerate(ids):
            if not voter or voter in seen:
                bad_voter = i
                break
            seen.add(voter)
    # One set per distinct raw vote string, by first row. A row's voter_id
    # error comes before its vote's, so votes are read up to the bad row.
    ballots: dict[str, frozenset[str]] = {}
    for vote in dict.fromkeys(votes[:bad_voter]):
        ballot = ballots[vote] = frozenset(p.strip() for p in vote.split(",") if p.strip())
        dangling = ballot.difference(costs)
        if dangling:
            raise ParseError(f"vote references unknown projects {sorted(dangling)}")
    if bad_voter is not None:
        voter = ids[bad_voter]
        raise ParseError(f"repeated voter_id {voter!r}" if voter else "missing voter_id")
    if len(votes) != num_votes:
        raise ParseError(f"META says {num_votes} votes, VOTES lists {len(votes)}")

    try:
        return Instance(
            n=len(votes),
            projects=tuple(costs),
            costs=costs,
            approvals=tuple(map(ballots.__getitem__, votes)),
            budget=budget,
        )
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


def _column(rows: list[list[str]], k: int) -> list[str]:
    """Field k of every row, "" where a row is shorter."""
    try:
        return [row[k] for row in rows]
    except IndexError:
        return [row[k] if len(row) > k else "" for row in rows]


# ---------------------------------------------------------------------------
# JSON round trip


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for j, k in enumerate(keys) if k in keys[:j])
        raise ParseError(f"key {repeated!r} repeated in one object")
    return obj


def load_json(text: str):
    """``json.loads`` for every JSON file pbprop reads: malformed text, a
    key repeated in one object, integers past the digit limit and deep
    nesting are all ``ParseError``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # ValueError: too many digits
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_json(text: str) -> Instance:
    """Parse the canonical JSON instance encoding (exact "p/q" rationals)."""
    data = load_json(text)
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


def _grid_range(name: str, lo: Fraction, hi: Fraction, den: int) -> tuple[int, int]:
    """The least and greatest k with lo <= k/den <= hi, for a positive lo."""
    if lo <= 0:
        raise InstanceError(f"{name}_min must be positive")
    lo_k = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
    hi_k = hi.numerator * den // hi.denominator  # floor(hi*den)
    if hi_k < lo_k:
        raise InstanceError(f"{name} range [{lo}, {hi}] holds no multiple of 1/{den}")
    return lo_k, hi_k


def generate_random(params: GenParams, seed: int) -> Instance:
    """Deterministically generate a valid random instance for a seed.

    Every voter approves at least one project (ballots are redrawn
    otherwise); all Instance invariants hold by construction. Each range
    drawn from must start above 0 and hold a multiple of 1/denominator.
    """
    if params.n < 1 or params.m < 1 or params.denominator < 1:
        raise InstanceError("n, m and denominator must be at least 1")
    if not params.density > 0:  # else ballots are redrawn forever
        raise InstanceError(f"density must be positive, got {params.density}")
    den = params.denominator
    cost_k = None if params.unit_cost else _grid_range(
        "cost", params.cost_min, params.cost_max, den)
    lo = params.budget_min if params.budget_min is not None else Fraction(params.m, 2)
    hi = params.budget_max if params.budget_max is not None else Fraction(2 * params.m)
    budget_k = _grid_range("budget", lo, hi, den)
    rng = random.Random(seed)
    projects = tuple(f"p{j}" for j in range(1, params.m + 1))
    if cost_k is None:
        costs = {p: Fraction(1) for p in projects}
    else:
        costs = {p: Fraction(rng.randint(*cost_k), den) for p in projects}
    budget = Fraction(rng.randint(*budget_k), den)
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
