"""Exact-arithmetic toolkit for approval-based participatory budgeting:
voting rules with traces, satisfaction functions, proportionality audits,
and price-system machinery.

The names below resolve on first use (PEP 562), so ``import pbprop`` loads
no submodule and each one loads only when a name from it is asked for."""

import importlib

_EXPORTS = {
    "axioms": (
        "AuditReport", "CohesiveWitness", "Violation", "audit_all", "check_ejr",
        "check_ejr1", "check_ejr1_plus", "check_ejrx", "check_local_bpjr",
        "check_pjr", "check_pjr1", "check_pjrx", "is_cohesive",
    ),
    "errors": (
        "CapabilityError", "ExtractionUnavailableError", "GuardExceededError",
        "InvariantError",
    ),
    "model": (
        "GenParams", "Instance", "InstanceError", "Money", "ParseError",
        "emit_json", "generate_random", "money_str", "parse_json", "parse_money",
        "parse_pabulib",
    ),
    "pricing": (
        "PriceReport", "PriceSystem", "extract_from_maximin_trace",
        "extract_from_mes_trace", "extract_from_phragmen_trace",
        "find_price_system", "verify_price_system",
    ),
    "rules": (
        "LoadAssignment", "RuleTrace", "balance_loads", "min_rho", "run_gcr",
        "run_maximin_support", "run_mes", "run_seq_phragmen",
    ),
    "satisfaction": (
        "DnsViolation", "SatisfactionFunction", "cardinality_sat", "cc_sat",
        "check_dns", "cost_map_sat", "cost_sat", "dns_counterexample_instance",
        "is_dns", "log_cost_sat", "share_sat", "sqrt_cost_sat", "table_sat",
        "voter_satisfaction",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
