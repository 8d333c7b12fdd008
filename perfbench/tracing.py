"""Spans around pbprop's public functions, installed from outside ``src/``.

``Tracer.install`` swaps each layer's entry points for wrappers that record
one span per call (name, start, end, parent span, job id) and ``uninstall``
puts the originals back. Spans stay in memory until the run ends. A span's
self time is its duration minus the durations of its direct children, which
never overlap because the program is single-threaded.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from pbprop import axioms, cli, maxflow, pricing, rules, satisfaction


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.names: set[str] = set()
        self.job = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, 0.0, 0.0, parent, self.job)
            self.spans.append(span)
            self._stack.append(span_id)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        self.names.add(name)
        wrapped = self.wrap(name, original)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary at the name its caller looks up."""
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "parse_json", "model.parse")
        self._patch(cli, "parse_pabulib", "model.parse")
        for key in list(satisfaction.BUILTINS):  # the dict cli._build_sat reads
            self._patch(satisfaction.BUILTINS, key, "satisfaction.build")
        self._patch(cli, "cc_sat", "satisfaction.build")
        for fn in ("run_mes", "min_rho", "run_seq_phragmen",
                   "run_maximin_support", "balance_loads"):
            self._patch(rules, fn, f"rules.{fn}")
        self._patch(maxflow.FlowNetwork, "max_flow", "maxflow.max_flow")
        self._patch(axioms, "audit_all", "axioms.audit_all")
        for key in list(axioms.AXIOM_CHECKERS):  # the dict audit_all reads
            self._patch(axioms.AXIOM_CHECKERS, key, f"axioms.{key}")
        for fn in ("verify_price_system", "find_price_system"):
            self._patch(pricing, fn, f"pricing.{fn}")
        for fn in ("extract_from_mes_trace", "extract_from_phragmen_trace",
                   "extract_from_maximin_trace"):
            self._patch(pricing, fn, "pricing.extract")
        self._patch(pricing, "solve_lp", "lp.solve_lp")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like ``spans``."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            calls[s.name] += 1
            self_s[s.name] += own
        return calls, self_s

    def self_by_job(self) -> dict[str, float]:
        per_job: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            per_job[s.job] += own
        return per_job

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
