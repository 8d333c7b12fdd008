"""Exact output gate for benchmark jobs.

Two kinds of check. On the default seed each job's exit code and stdout
digest must equal the frozen values in ``expected.json``. On every seed each
output also gets seed-independent re-checks against the instance, recomputed
with pbprop's own exact primitives:

- every outcome fits the budget;
- rule payments sum to each chosen project's cost;
- every price system passes ``verify_price_system`` under the job's flags;
- every audit witness is cohesive and its lhs/rhs recompute exactly.
"""
from __future__ import annotations

import ast
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from pbprop.axioms import is_cohesive
from pbprop.model import Instance, parse_json, parse_pabulib
from pbprop.pricing import PriceSystem, verify_price_system
from pbprop.satisfaction import BUILTINS, cc_sat, voter_satisfaction

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class CheckFailed(Exception):
    """A job's output disagrees with what the gate expects."""


def digest(stdout: str) -> str:
    """SHA-256 of the stdout JSON in canonical form."""
    canonical = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_expected(workload: str) -> dict[str, list]:
    """Frozen {job id: [exit code, digest]} for the default seed."""
    return json.loads(EXPECTED_PATH.read_text())[workload]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def load_instance(path: str) -> Instance:
    text = Path(path).read_text()
    return parse_pabulib(text) if path.endswith(".pb") else parse_json(text)


def recheck(job, code: int, stdout: str, inst: Instance) -> None:
    """Raise CheckFailed unless the output passes the seed-independent checks."""
    out = json.loads(stdout)
    _RECHECKS[job.check](job, code, out, inst)


def _fits(inst: Instance, outcome) -> frozenset[str]:
    w = frozenset(outcome)
    _require(inst.total_cost(w) <= inst.budget, "outcome exceeds the budget")
    return w


def _recheck_run(job, code, out, inst) -> None:
    _require(code == 0, f"exit code {code}")
    w = _fits(inst, out["outcome"])
    payments = out["trace"]["payments"]
    _require(set(payments) == w, "payments do not cover exactly the outcome")
    for p, per in payments.items():
        paid = sum((Fraction(v) for v in per.values()), Fraction(0))
        _require(paid == inst.costs[p], f"payments for {p} sum to {paid}")


def _price_system(inst, w, system, c6: bool, strict_b: bool) -> None:
    ps = PriceSystem.from_json(json.dumps(system))
    report = verify_price_system(inst, w, ps)
    _require(report.ok(require_c6=c6, require_b_strict=strict_b),
             "price system fails verify_price_system")


def _recheck_extract(job, code, out, inst) -> None:
    _require(code == 0 and out["verdict"] == "pass", f"exit code {code}")
    w = _fits(inst, out["outcome"])
    _price_system(inst, w, out["system"], "--c6" in job.argv, "--strict-b" in job.argv)


def _recheck_find(job, code, out, inst) -> None:
    _require(code == 0 and out["found"], f"exit code {code}")
    w = _fits(inst, _outcome_ids(job.argv[-1]))
    _price_system(inst, w, out["system"], True, True)


def _outcome_ids(arg: str) -> list[str]:
    return [] if arg == "-" else arg.split(",")


def _recheck_audit(job, code, out, inst) -> None:
    sat = job.argv[job.argv.index("--sat") + 1]
    mu = cc_sat() if sat == "cc" else BUILTINS[sat](inst)
    w = _fits(inst, _outcome_ids(job.argv[-1]))
    _require(not out["guard_errors"], "guard exceeded")
    violations = {k: v for k, v in out["results"].items() if v != "pass"}
    _require(code == (2 if violations else 0), f"exit code {code}")
    for name, v in violations.items():
        t, group = frozenset(v["T"]), frozenset(v["group"])
        _require(is_cohesive(inst, t, group), f"{name} witness is not cohesive")
        lhs, rhs = _AXIOM_SIDES[name](inst, mu, w, t, group, v["detail"])
        _require(
            (lhs, rhs) == (Fraction(v["lhs"]), Fraction(v["rhs"])),
            f"{name} lhs/rhs do not recompute",
        )
        _require(_VIOLATES.get(name, lambda a, b: True)(lhs, rhs),
                 f"{name} witness does not violate the axiom")


def _union(inst, group) -> frozenset[str]:
    return frozenset().union(*(inst.approval(i) for i in group))


def _common(inst, group) -> frozenset[str]:
    return frozenset.intersection(*(inst.approval(i) for i in group))


def _ejr(inst, mu, w, t, group, d):
    return voter_satisfaction(mu, inst, int(d["voter"]), w), mu.value(t)


def _ejr1(inst, mu, w, t, group, d):
    i = int(d["voter"])
    rescued = [voter_satisfaction(mu, inst, i, w | {p}) for p in inst.projects if p not in w]
    return max(rescued, default=voter_satisfaction(mu, inst, i, w)), mu.value(t)


def _ejr1_plus(inst, mu, w, t, group, d):
    i = int(d["voter"])
    return max(voter_satisfaction(mu, inst, i, w | {p}) for p in t - w), mu.value(t)


def _ejrx(inst, mu, w, t, group, d):
    _require(d["project"] in t - w, "ejrx project is not in T minus W")
    return voter_satisfaction(mu, inst, int(d["voter"]), w | {d["project"]}), mu.value(t)


def _pjr(inst, mu, w, t, group, d):
    return mu.value(w & _union(inst, group)), mu.value(t)


def _pjrx(inst, mu, w, t, group, d):
    _require(d["project"] in t - w, "pjrx project is not in T minus W")
    return mu.value((w & _union(inst, group)) | {d["project"]}), mu.value(t)


def _pjr1(inst, mu, w, t, group, d):
    share = w & _union(inst, group)
    options = _common(inst, group) - w
    return max((mu.value(share | {p}) for p in options),
               default=mu.value(share)), mu.value(t)


def _local_bpjr(inst, mu, w, t, group, d):
    star = frozenset(ast.literal_eval(d["best_set"]))
    base = w & _union(inst, group)
    _require(star <= _common(inst, group), "best set is outside the common ballot")
    _require(inst.total_cost(star) <= inst.total_cost(t), "best set costs more than T")
    _require(base < star, "best set does not extend the group's share")
    return mu.value(base), mu.value(star)


_AXIOM_SIDES = {
    "ejr": _ejr,
    "ejr1": _ejr1,
    "ejr1plus": _ejr1_plus,
    "ejrx": _ejrx,
    "pjr": _pjr,
    "pjr1": _pjr1,
    "pjrx": _pjrx,
    "localbpjr": _local_bpjr,
}
# How lhs and rhs compare in a violation. EJR and PJR ask to meet the demand,
# their up-to-one/any variants to beat it; Local-BPJR is violated by the
# strict extension checked in _local_bpjr, whatever the two values.
_VIOLATES = {
    "ejr": lambda lhs, rhs: lhs < rhs,
    "pjr": lambda lhs, rhs: lhs < rhs,
    **{name: (lambda lhs, rhs: lhs <= rhs)
       for name in ("ejr1", "ejr1plus", "ejrx", "pjr1", "pjrx")},
}

_RECHECKS = {
    "run": _recheck_run,
    "extract": _recheck_extract,
    "find": _recheck_find,
    "audit": _recheck_audit,
}
