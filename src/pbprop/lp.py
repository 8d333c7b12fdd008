"""Exact linear programming over rationals (two-phase simplex, Bland's rule).

Every pivot is exact, so every feasibility decision is sound. The tableau
is sparse and fraction-free: row k is a dict of the integer numerators of
its nonzero entries over one positive integer denominator ``dens[k]``,
which its right-hand side shares, and each pivot is an integer row
operation followed by division by the row's gcd. The reduced-cost row of
the current objective, with minus the objective value as its right-hand
side, is kept as the last row and updated by each pivot like any other
row. Artificial columns are never stored, since an artificial never
re-enters the basis once it leaves. The input is sparse too, a
{column: coefficient} dict per row, and Fractions are built only from it
and for the returned x and value.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import InvariantError


def solve_lp(
    n: int,
    objective: Mapping[int, Fraction],
    ub: Sequence[tuple[Mapping[int, Fraction], Fraction]] = (),
    eq: Sequence[tuple[Mapping[int, Fraction], Fraction]] = (),
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective.x over x in Q^n subject to row.x <= rhs for each
    (row, rhs) in ``ub``, row.x = rhs for each in ``eq``, and x >= 0. The
    objective and every row map a column in 0..n-1 to its coefficient.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded"; x and value are None unless optimal.
    """
    if any(not 0 <= j < n for row, _ in [(objective, 0), *ub, *eq] for j in row):
        raise ValueError(f"an LP row has a column outside 0..{n - 1}")
    n_ub = len(ub)
    total = n + n_ub  # structural and slack columns; artificials come after
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    dens: list[int] = []
    for k, (sparse, b) in enumerate([*ub, *eq]):
        row = {j: v for j, v in sparse.items() if v}
        if k < n_ub:
            row[n + k] = 1
        row[total] = b  # the right-hand side, split off below
        row, den = _over_common_denominator(row)
        b = row.pop(total)
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
        rows.append(row)
        rhs.append(b)
        dens.append(den)
    # Phase 1: one artificial variable per row, minimize their total.
    basis = [total + k for k in range(len(rows))]
    _append_objective(rows, rhs, dens, basis, {b: -1 for b in basis}, 1, total)
    if _run(rows, rhs, dens, basis) != "optimal":
        raise InvariantError("phase 1 ended unbounded, but it is always bounded")
    if rhs.pop() != 0:
        return "infeasible", None, None
    rows.pop()
    dens.pop()
    for r, b in enumerate(basis):
        if b >= total and rows[r]:
            _pivot(rows, rhs, dens, basis, r, min(rows[r]))
        # else: redundant 0=0 row; the artificial stays basic at zero.
    cost, cost_den = _over_common_denominator({j: v for j, v in objective.items() if v})
    _append_objective(rows, rhs, dens, basis, cost, cost_den, total)
    status = _run(rows, rhs, dens, basis)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rhs[r], dens[r])
    return "optimal", x, Fraction(-rhs[-1], dens[-1])


def _over_common_denominator(values: dict) -> tuple[dict[int, int], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = {j: Fraction(v) for j, v in values.items()}
    den = lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in values.items()}, den


def _append_objective(rows, rhs, dens, basis, cost, cost_den, total) -> None:
    """Append the reduced costs of ``cost`` (column -> numerator over
    ``cost_den``) in the current basis as the last row, with minus its value
    as right-hand side."""
    used = [k for k, b in enumerate(basis) if b in cost]
    den = lcm(*(dens[k] for k in used))
    # every entry below is a numerator over cost_den * den
    z = {j: c * den for j, c in cost.items() if j < total}
    neg_value = 0
    for k in used:
        f = cost[basis[k]] * (den // dens[k])
        neg_value -= f * rhs[k]
        for j, v in rows[k].items():
            z[j] = z.get(j, 0) - f * v
    rows.append({j: v for j, v in z.items() if v})
    rhs.append(neg_value)
    dens.append(cost_den * den)
    _reduce(rows, rhs, dens, len(rows) - 1)


def _pivot(rows, rhs, dens, basis, r, c) -> None:
    """Divide row r by its entry in column c, then eliminate column c from
    every other row, all with integer row operations. Each eliminated row is
    built once, already divided by its gcd."""
    if rows[r][c] < 0:
        rows[r] = {j: -v for j, v in rows[r].items()}
        rhs[r] = -rhs[r]
    dens[r] = rows[r][c]  # the pivot entry becomes 1
    _reduce(rows, rhs, dens, r)
    pivot_row, pivot_rhs, d = rows[r], rhs[r], dens[r]
    for k, row in enumerate(rows):
        f = row.get(c)
        if f is None or k == r:
            continue
        # row / den_k - (f / den_k) * (pivot_row / d), over den_k * scale
        g = gcd(f, d)
        scale, f = d // g, f // g
        # eliminate into row, whose entries off the pivot row stay unscaled
        for j, v in pivot_row.items():
            new = row.get(j, 0) * scale - f * v
            if new:
                row[j] = new
            else:
                del row[j]
        b = rhs[k] * scale - f * pivot_rhs
        # The pivot row is reduced and gcd(scale, f) = 1, so no prime factor
        # of scale divides the new row's gcd: the unscaled entries give it.
        g = gcd(dens[k], b, *row.values())
        if g != 1 or scale != 1:
            rows[k] = {j: v // g if j in pivot_row else v // g * scale
                       for j, v in row.items()}
        rhs[k] = b // g
        dens[k] = dens[k] // g * scale
    basis[r] = c


def _reduce(rows, rhs, dens, k) -> None:
    """Divide row k, its right-hand side and its denominator by their gcd."""
    g = gcd(dens[k], rhs[k], *rows[k].values())
    if g != 1:
        rows[k] = {j: v // g for j, v in rows[k].items()}
        rhs[k] //= g
        dens[k] //= g


def _run(rows, rhs, dens, basis) -> str:
    """Pivot on the objective row ``rows[-1]`` until it is optimal. Bland's
    rule: the lowest column with a positive reduced cost enters; the row of
    minimum ratio leaves, ties going to the lowest basic index. A row's
    ratio rhs / entry needs no denominator, and only rows with a positive
    entry compete, so ratios compare by cross-multiplication."""
    while True:
        entering = min((j for j, v in rows[-1].items() if v > 0), default=None)
        if entering is None:
            return "optimal"
        leave = None
        for r, row in enumerate(rows[:-1]):
            a = row.get(entering, 0)
            if a > 0:
                if leave is not None:
                    lhs, best = rhs[r] * leave_a, rhs[leave] * a
                    if lhs > best or (lhs == best and basis[r] > basis[leave]):
                        continue
                leave, leave_a = r, a
        if leave is None:
            return "unbounded"
        _pivot(rows, rhs, dens, basis, leave, entering)
