"""Exact-arithmetic toolkit for approval-based participatory budgeting:
voting rules with traces, satisfaction functions, proportionality audits,
and price-system machinery."""

from .axioms import (
    AuditReport,
    CohesiveWitness,
    Violation,
    audit_all,
    check_ejr,
    check_ejr1,
    check_ejr1_plus,
    check_ejrx,
    check_local_bpjr,
    check_pjr,
    check_pjr1,
    check_pjrx,
    is_cohesive,
)
from .errors import CapabilityError, GuardExceededError, InvariantError
from .model import (
    GenParams,
    Instance,
    InstanceError,
    Money,
    ParseError,
    emit_json,
    generate_random,
    money_str,
    parse_json,
    parse_money,
    parse_pabulib,
)
from .pricing import (
    ExtractionUnavailableError,
    PriceReport,
    PriceSystem,
    extract_from_maximin_trace,
    extract_from_mes_trace,
    extract_from_phragmen_trace,
    find_price_system,
    verify_price_system,
)
from .rules import (
    LoadAssignment,
    RuleTrace,
    balance_loads,
    min_rho,
    run_gcr,
    run_maximin_support,
    run_mes,
    run_seq_phragmen,
)
from .satisfaction import (
    DnsViolation,
    SatisfactionFunction,
    cardinality_sat,
    cc_sat,
    check_dns,
    cost_map_sat,
    cost_sat,
    dns_counterexample_instance,
    is_dns,
    is_strictly_cost_responsive,
    log_cost_sat,
    share_sat,
    sqrt_cost_sat,
    table_sat,
    voter_satisfaction,
)

__version__ = "0.1.0"
