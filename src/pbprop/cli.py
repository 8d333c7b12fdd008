"""Command-line front end.

Subcommands: run (execute a rule), audit (axiom checks), price (price-system
verify/extract/find), gen (random instances), repro (worked-example suite).
Machine-readable JSON goes to stdout, a human summary to stderr.

Exit codes: 0 success, 1 parse/IO error, 2 violation/negative verdict or
unavailable price extraction, 3 exponential-search guard exceeded, 64 usage
error, 70 internal invariant broken (a bug in pbprop, never a property of
the input).

Each verb imports only the modules it runs: ``gen`` and ``run`` load no
price machinery or worked examples, nor, but for GCR, the axiom checkers.
"""
from __future__ import annotations

import argparse
import errno
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import rules
from .errors import (
    CapabilityError, ExtractionUnavailableError, GuardExceededError, InvariantError,
)
from .model import (
    GenParams,
    Instance,
    InstanceError,
    ParseError,
    VoterMap,
    dumps,
    emit_json,
    generate_random,
    load_json,
    money_str,
    money_str_memo,
    parse_json,
    parse_money,
    parse_pabulib,
)
from .satisfaction import BUILTINS, SatisfactionFunction, cc_sat, cost_map_sat, table_sat

if TYPE_CHECKING:  # the verbs that use these import them
    from . import axioms, pricing

EXIT_OK = 0
EXIT_IO = 1
EXIT_VIOLATION = 2
EXIT_GUARD = 3
EXIT_USAGE = 64
EXIT_INVARIANT = 70

# the keys of axioms.AXIOM_CHECKERS, kept here so the parser needs no axioms import
AXIOM_NAMES = ("ejr", "ejr1", "ejr1plus", "ejrx", "pjr", "pjr1", "pjrx", "localbpjr")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors get their own exit code
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_instance(path: str) -> Instance:
    """JSON by a ``.json`` name, or by a leading ``{`` under any name but ``.pb``."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if path.endswith(".json") or not path.endswith(".pb") and text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_pabulib(text)


def _load_outcome(spec: str, inst: Instance) -> frozenset[str]:
    """An outcome is a comma-separated id list, or a path to a JSON list."""
    try:
        is_file = Path(spec).is_file()
    except OSError as exc:  # a spec too long to name a file is an id list
        if exc.errno != errno.ENAMETOOLONG:
            raise
        is_file = False
    if is_file:
        ids = load_json(Path(spec).read_text(encoding="utf-8-sig"))
        if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
            raise ParseError("outcome file must hold a JSON list of project ids")
    elif spec in ("", "-"):
        ids = []
    else:
        ids = [s.strip() for s in spec.split(",") if s.strip()]
    unknown = set(ids) - set(inst.projects)
    if unknown:
        raise ParseError(f"outcome references unknown projects {sorted(unknown)}")
    return frozenset(ids)


def _load_object(path: str) -> dict:
    data = load_json(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return data


def _build_sat(selector: str, inst: Instance) -> SatisfactionFunction:
    if selector in BUILTINS:
        return BUILTINS[selector](inst)
    if selector == "cc":
        return cc_sat()
    if selector.startswith("table:"):
        table = _load_object(selector[len("table:"):])
        for p in inst.projects:
            if p not in table:
                raise CapabilityError(f"satisfaction table has no value for project {p!r}")
        return table_sat(table)
    if selector.startswith("costmap:"):
        return cost_map_sat(inst, _load_object(selector[len("costmap:"):]))
    raise ParseError(f"unknown satisfaction selector {selector!r}")


def _emit(payload: dict) -> None:
    sys.stdout.write(dumps(payload) + "\n")


def _trace_json(trace: rules.RuleTrace) -> dict:
    text = money_str_memo()
    data: dict = {
        "selections": [[r, p, money_str(v)] for r, p, v in trace.selections],
        "payments": {
            p: VoterMap([(holders, text(a)) for holders, a in pairs])
            for p, pairs in sorted(trace.payment_classes.items())
        },
        "exhaustive": trace.exhaustive,
    }
    if trace.delta is not None:
        data["delta"] = money_str(trace.delta)
    if trace.blocking is not None:
        data["blocking"] = [trace.blocking[0], money_str(trace.blocking[1])]
    if trace.skipped:
        data["skipped"] = list(trace.skipped)
    return data


def _violation_json(v: axioms.Violation) -> dict:
    return {
        "axiom": v.axiom,
        "T": sorted(v.witness.t),
        "group": sorted(v.witness.group),
        "lhs": money_str(v.lhs),
        "rhs": money_str(v.rhs),
        "detail": {k: str(val) for k, val in dict(v.detail).items()},
    }


SAT_HELP = "cost|card|sqrt|log|cc|share|table:<file>|costmap:<file>"


@functools.cache  # argparse keeps no state between parse_args calls
def _make_parser() -> _Parser:
    parser = _Parser(prog="pb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a voting rule")
    p_run.add_argument("--rule", required=True,
                       choices=["mes", "phragmen", "maximin", "gcr"])
    p_run.add_argument("--sat", default="cost", help=SAT_HELP)
    p_run.add_argument("--tie", default="lex", choices=["lex", "reverse"])
    p_run.add_argument("--skip-blocked", action="store_true",
                       help="Phragmen variant that drops blocked candidates")
    p_run.add_argument("instance")

    p_audit = sub.add_parser("audit", help="check an outcome against axioms")
    p_audit.add_argument("--axiom", default="all",
                         choices=[*AXIOM_NAMES, "all"])
    p_audit.add_argument("--sat", default="cost", help=SAT_HELP)
    p_audit.add_argument("instance")
    p_audit.add_argument("outcome",
                         help="comma-separated project ids or a JSON list file")

    p_price = sub.add_parser("price", help="price-system tooling")
    price_sub = p_price.add_subparsers(dest="price_command", required=True)
    p_verify = price_sub.add_parser("verify", help="check a stored system")
    p_verify.add_argument("--c6", action="store_true")
    p_verify.add_argument("--strict-b", action="store_true")
    p_verify.add_argument("instance")
    p_verify.add_argument("outcome")
    p_verify.add_argument("system", help="price-system JSON file")
    p_extract = price_sub.add_parser("extract",
                                     help="run a rule and extract a system")
    p_extract.add_argument("--rule", required=True,
                           choices=["mes", "phragmen", "maximin"])
    p_extract.add_argument("--sat", default="cost", help=SAT_HELP)
    p_extract.add_argument("--c6", action="store_true")
    p_extract.add_argument("--strict-b", action="store_true")
    p_extract.add_argument("instance")
    p_find = price_sub.add_parser("find", help="exact feasibility search")
    p_find.add_argument("--c6", action="store_true")
    p_find.add_argument("--strict-b", action="store_true")
    p_find.add_argument("instance")
    p_find.add_argument("outcome")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--cost-min", default="1")
    p_gen.add_argument("--cost-max", default="5")
    p_gen.add_argument("--budget-min", default=None)
    p_gen.add_argument("--budget-max", default=None)
    p_gen.add_argument("--unit-cost", action="store_true")
    p_gen.add_argument("--denominator", type=int, default=4)

    p_repro = sub.add_parser("repro", help="re-derive the worked examples")
    p_repro.add_argument("cases", nargs="*", help="case ids (default: all)")
    return parser


def _run_rule(
    rule: str, inst: Instance, mu: SatisfactionFunction, tie: str = "lex",
    skip_blocked: bool = False,
) -> tuple[frozenset[str], rules.RuleTrace | None]:
    """Run the named rule; GCR keeps no trace."""
    if rule == "mes":
        return rules.run_mes(inst, mu, tie=tie)
    if rule == "phragmen":
        return rules.run_seq_phragmen(inst, tie=tie, skip_blocked=skip_blocked)
    if rule == "maximin":
        return rules.run_maximin_support(inst, tie=tie)
    return rules.run_gcr(inst, mu, tie=tie), None


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    mu = _build_sat(args.sat, inst)
    outcome, trace = _run_rule(args.rule, inst, mu, args.tie, args.skip_blocked)
    payload = {"rule": args.rule, "sat": mu.kind, "outcome": sorted(outcome)}
    if trace is not None:
        payload["trace"] = _trace_json(trace)
    _emit(payload)
    spent = inst.total_cost(outcome)
    print(
        f"{args.rule}[{mu.kind}] selected {len(outcome)} project(s), "
        f"spending {money_str(spent)} of {money_str(inst.budget)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_audit(args) -> int:
    from . import axioms

    inst = _load_instance(args.instance)
    mu = _build_sat(args.sat, inst)
    outcome = _load_outcome(args.outcome, inst)
    names = list(AXIOM_NAMES) if args.axiom == "all" else [args.axiom]
    report = axioms.audit_all(inst, mu, outcome, axioms=names)
    payload = {
        "sat": mu.kind,
        "outcome": sorted(outcome),
        "results": {
            name: ("pass" if v is None else _violation_json(v))
            for name, v in report.results.items()
        },
        "guard_errors": report.guard_errors,
    }
    _emit(payload)
    failed = [name for name, v in report.results.items() if v is not None]
    for name in report.results:
        verdict = "FAIL" if name in failed else "pass"
        print(f"{name}: {verdict}", file=sys.stderr)
    for name, msg in report.guard_errors.items():
        print(f"{name}: guard exceeded ({msg})", file=sys.stderr)
    if failed:
        return EXIT_VIOLATION
    if report.guard_errors:
        return EXIT_GUARD
    return EXIT_OK


def _emit_verdict(args, report: pricing.PriceReport, payload: dict) -> bool:
    """Write ``payload`` followed by the report's verdict under the requested
    conditions, each condition's result and ``b_strict``; True on a pass."""
    ok = report.ok(require_c6=args.c6, require_b_strict=args.strict_b)
    payload["verdict"] = "pass" if ok else "fail"
    payload["conditions"] = {
        name: {"pass": passed, "witness": witness and [str(x) for x in witness]}
        for name, (passed, witness) in sorted(report.verdicts.items())
    }
    payload["b_strict"] = report.b_strict
    _emit(payload)
    return ok


def _cmd_price(args) -> int:
    from . import pricing

    inst = _load_instance(args.instance)
    if args.price_command == "find":
        outcome = _load_outcome(args.outcome, inst)
        ps = pricing.find_price_system(
            inst, outcome, require_c6=args.c6, require_b_strict=args.strict_b
        )
        if ps is None:
            _emit({"found": False})
            print("no price system exists under the requested conditions",
                  file=sys.stderr)
            return EXIT_VIOLATION
        _emit({"found": True, "system": ps.to_dict()})
        print(f"found price system with B={money_str(ps.budget)}", file=sys.stderr)
        return EXIT_OK
    if args.price_command == "verify":
        outcome = _load_outcome(args.outcome, inst)
        ps = pricing.PriceSystem.from_json(Path(args.system).read_text(encoding="utf-8-sig"))
        ok = _emit_verdict(args, pricing.verify_price_system(inst, outcome, ps), {})
        print(f"price system {'passes' if ok else 'fails'}", file=sys.stderr)
    else:  # extract
        mu = _build_sat(args.sat, inst)
        outcome, trace = _run_rule(args.rule, inst, mu)
        ps = getattr(pricing, f"extract_from_{args.rule}_trace")(inst, trace)
        ok = _emit_verdict(args, pricing.verify_price_system(inst, outcome, ps),
                           {"outcome": sorted(outcome), "system": ps.to_dict()})
        print(f"extracted B={money_str(ps.budget)}; "
              f"verification {'passes' if ok else 'fails'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_gen(args) -> int:
    params = GenParams(
        n=args.n,
        m=args.m,
        cost_min=parse_money(args.cost_min),
        cost_max=parse_money(args.cost_max),
        density=args.density,
        budget_min=None if args.budget_min is None else parse_money(args.budget_min),
        budget_max=None if args.budget_max is None else parse_money(args.budget_max),
        unit_cost=args.unit_cost,
        denominator=args.denominator,
    )
    inst = generate_random(params, args.seed)
    sys.stdout.write(emit_json(inst) + "\n")
    print(f"generated instance: n={inst.n} m={inst.m} "
          f"budget={money_str(inst.budget)} seed={args.seed}", file=sys.stderr)
    return EXIT_OK


def _cmd_repro(args) -> int:
    from . import repro

    try:
        results = repro.run_all(args.cases or None)
    except ValueError as exc:
        print(f"pb repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = []
    all_ok = True
    for res in results:
        all_ok &= res.passed
        payload.append({
            "case": res.case_id,
            "passed": res.passed,
            "checks": [
                {"label": c.label, "tag": c.tag, "ok": c.ok, "observed": c.observed}
                for c in res.checks
            ],
        })
        print(f"{'PASS' if res.passed else 'FAIL'} {res.case_id}", file=sys.stderr)
        for c in res.checks:
            mark = "ok" if c.ok else "FAIL"
            print(f"  {mark} [{c.tag}] {c.label}", file=sys.stderr)
    _emit({"cases": payload})
    return EXIT_OK if all_ok else EXIT_VIOLATION


_VERBS = {"run": _cmd_run, "audit": _cmd_audit, "price": _cmd_price, "gen": _cmd_gen,
          "repro": _cmd_repro}


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return _VERBS[args.command](args)
    except GuardExceededError as exc:
        print(f"pb: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"pb: internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ExtractionUnavailableError as exc:  # no system to report
        print(f"pb: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ParseError, InstanceError, OSError, UnicodeDecodeError) as exc:
        print(f"pb: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CapabilityError, ValueError) as exc:
        print(f"pb: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
