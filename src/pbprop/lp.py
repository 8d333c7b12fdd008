"""Exact linear programming over rationals (two-phase simplex, Bland's rule).

Small and dense on purpose: the price-system searches produce LPs with at
most a few hundred variables, and exact Fraction pivots keep every
feasibility decision sound.
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
    n = len(objective)
    cost_real = [Fraction(v) for v in objective]
    rows = [[Fraction(v) for v in r] for r in a_ub]
    rows += [[Fraction(v) for v in r] for r in a_eq]
    rhs = [Fraction(v) for v in b_ub] + [Fraction(v) for v in b_eq]
    n_ub = len(rows) - len(list(a_eq))
    m = len(rows)
    total = n + n_ub
    a = []
    for k, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
        full = row + [Fraction(0)] * n_ub
        if k < n_ub:
            full[n + k] = Fraction(1)
        a.append(full)
    for k in range(m):
        if rhs[k] < 0:
            a[k] = [-v for v in a[k]]
            rhs[k] = -rhs[k]
    # Phase 1: one artificial variable per row, minimize their total.
    art0 = total
    for k in range(m):
        for r in range(m):
            a[r].append(Fraction(1) if r == k else Fraction(0))
    basis = [art0 + k for k in range(m)]
    cost1 = [Fraction(0)] * total + [Fraction(-1)] * m
    status, value = _run(a, rhs, basis, cost1, range(total))
    if status != "optimal":
        raise InvariantError(f"phase 1 ended {status}, but it is always bounded")
    if value != 0:
        return "infeasible", None, None
    for r, bvar in enumerate(basis):
        if bvar >= art0:
            piv = next((j for j in range(total) if a[r][j] != 0), None)
            if piv is not None:
                _pivot(a, rhs, basis, r, piv)
            # else: redundant 0=0 row; the artificial stays basic at zero.
    cost2 = cost_real + [Fraction(0)] * (n_ub + m)
    status, value = _run(a, rhs, basis, cost2, range(total))
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = rhs[r]
    return "optimal", x, value


def _pivot(a, rhs, basis, r, c) -> None:
    inv = 1 / a[r][c]
    a[r] = [v * inv for v in a[r]]
    rhs[r] *= inv
    row_r = a[r]
    for k in range(len(a)):
        if k != r and a[k][c] != 0:
            f = a[k][c]
            a[k] = [v - f * w for v, w in zip(a[k], row_r)]
            rhs[k] -= f * rhs[r]
    basis[r] = c


def _run(a, rhs, basis, cost, allowed) -> tuple[str, Fraction | None]:
    m = len(a)
    while True:
        dual = [cost[b] for b in basis]
        entering = None
        for j in allowed:  # Bland's rule: first improving column
            reduced = cost[j] - sum(dual[r] * a[r][j] for r in range(m))
            if reduced > 0:
                entering = j
                break
        if entering is None:
            return "optimal", sum(dual[r] * rhs[r] for r in range(m))
        leaving = None
        for r in range(m):
            if a[r][entering] > 0:
                ratio = rhs[r] / a[r][entering]
                if leaving is None or ratio < leaving[0] or (
                    ratio == leaving[0] and basis[r] < leaving[1]
                ):
                    leaving = (ratio, basis[r], r)
        if leaving is None:
            return "unbounded", None
        _pivot(a, rhs, basis, leaving[2], entering)
