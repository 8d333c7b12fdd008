"""Exact linear programming over rationals (two-phase simplex, Bland's rule).

Every pivot is an exact Fraction pivot, so every feasibility decision is
sound. The tableau is sparse: each row is a dict of its nonzero entries,
and the reduced-cost row of the current objective, with minus the
objective value as its right-hand side, is kept as the last row and
updated by each pivot like any other row. Artificial columns are never
stored, since an artificial never re-enters the basis once it leaves.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantError


def solve_lp(
    objective: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded"; x and value are None unless optimal.
    """
    n, n_ub = len(objective), len(a_ub)
    total = n + n_ub  # structural and slack columns; artificials come after
    rhs = [Fraction(v) for v in b_ub] + [Fraction(v) for v in b_eq]
    rows: list[dict[int, Fraction]] = []
    for k, dense in enumerate([*a_ub, *a_eq]):
        if len(dense) != n:
            raise ValueError("constraint row length does not match objective")
        row = {j: Fraction(v) for j, v in enumerate(dense) if v}
        if k < n_ub:
            row[n + k] = Fraction(1)
        if rhs[k] < 0:
            row = {j: -v for j, v in row.items()}
            rhs[k] = -rhs[k]
        rows.append(row)
    # Phase 1: one artificial variable per row, minimize their total.
    basis = [total + k for k in range(len(rows))]
    _append_objective(rows, rhs, basis, {b: Fraction(-1) for b in basis}, total)
    if _run(rows, rhs, basis) != "optimal":
        raise InvariantError("phase 1 ended unbounded, but it is always bounded")
    if rhs.pop() != 0:
        return "infeasible", None, None
    rows.pop()
    for r, b in enumerate(basis):
        if b >= total and rows[r]:
            _pivot(rows, rhs, basis, r, min(rows[r]))
        # else: redundant 0=0 row; the artificial stays basic at zero.
    cost = {j: Fraction(v) for j, v in enumerate(objective) if v}
    _append_objective(rows, rhs, basis, cost, total)
    status = _run(rows, rhs, basis)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = rhs[r]
    return "optimal", x, -rhs[-1]


def _append_objective(rows, rhs, basis, cost, total) -> None:
    """Append the reduced costs of ``cost`` (column -> coefficient) in the
    current basis as the last row, with minus its value as right-hand side."""
    z = {j: c for j, c in cost.items() if j < total}
    neg_value = Fraction(0)
    for row, b, value in zip(rows, basis, rhs):
        f = cost.get(b)
        if f:
            neg_value -= f * value
            for j, v in row.items():
                z[j] = z.get(j, 0) - f * v
    rows.append({j: v for j, v in z.items() if v})
    rhs.append(neg_value)


def _pivot(rows, rhs, basis, r, c) -> None:
    pivot_row = rows[r]
    inv = 1 / pivot_row[c]
    for j in pivot_row:
        pivot_row[j] *= inv
    rhs[r] *= inv
    for k, row in enumerate(rows):
        f = row.get(c)
        if f is None or k == r:
            continue
        for j, v in pivot_row.items():
            new = row.get(j, 0) - f * v
            if new:
                row[j] = new
            else:
                del row[j]
        rhs[k] -= f * rhs[r]
    basis[r] = c


def _run(rows, rhs, basis) -> str:
    """Pivot on the objective row ``rows[-1]`` until it is optimal. Bland's
    rule: the lowest column with a positive reduced cost enters; the row of
    minimum ratio leaves, ties going to the lowest basic index."""
    while True:
        entering = min((j for j, v in rows[-1].items() if v > 0), default=None)
        if entering is None:
            return "optimal"
        ratios = [
            (rhs[r] / row[entering], basis[r], r)
            for r, row in enumerate(rows[:-1])
            if row.get(entering, 0) > 0
        ]
        if not ratios:
            return "unbounded"
        _pivot(rows, rhs, basis, min(ratios)[2], entering)
