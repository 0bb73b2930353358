"""Exact feasibility of {x >= 0 : A x = b} for integer A and rational b.

Phase-1 simplex in fraction-free (Bareiss/Montante) form: the tableau
stays integer throughout, with one shared positive divisor from the
previous pivot, and every division in the update rule is exact. Bland's
rule picks pivots, which rules out cycling, and since the phase-1
objective is bounded below by zero the method always terminates. Sizes
here are tiny (16 structural columns, 9 rows), so there is no need for
anything fancier. ``jointprob.jp_feasible`` builds its witness in closed
form; this solver is the independent route that the tests and demo 05
check its verdicts against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

_PIVOT_LIMIT = 10_000


def solve_equality_feasibility(
    a_matrix: Sequence[Sequence[int]], b: Sequence[Fraction | int]
) -> tuple[bool, list[Fraction] | None]:
    """Decide whether A x = b has a nonnegative solution; if so, return
    one exactly (a basic feasible point of the phase-1 optimum)."""
    m = len(a_matrix)
    if m == 0:
        return True, []
    n = len(a_matrix[0])

    fracs = [Fraction(v) for v in b]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    b_int = [int(f * scale) for f in fracs]

    # rows carry the rhs in the last slot; flip signs so every rhs >= 0
    rows: list[list[int]] = []
    for i in range(m):
        coeffs = list(a_matrix[i])
        if len(coeffs) != n:
            raise ValueError("ragged constraint matrix")
        if b_int[i] < 0:
            rows.append([-v for v in coeffs] + [-b_int[i]])
        else:
            rows.append(coeffs + [b_int[i]])
    width = n + 1

    # phase-1 objective: minimize the sum of one artificial per row. With
    # the artificial basis, the reduced-cost row is minus the column sums.
    obj = [0] * width
    for r in rows:
        for j in range(width):
            obj[j] -= r[j]

    basis = [n + i for i in range(m)]  # labels >= n denote artificials
    divisor = 1  # previous pivot element; positive by the ratio test

    for _ in range(_PIVOT_LIMIT):
        enter = -1
        for j in range(n):  # Bland: lowest-index negative reduced cost
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break

        leave = -1
        for i in range(m):
            piv = rows[i][enter]
            if piv <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            # compare rhs_i/piv_i against the incumbent by cross-multiplying
            lhs = rows[i][width - 1] * rows[leave][enter]
            rhs = rows[leave][width - 1] * piv
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; input is inconsistent")

        pivot = rows[leave][enter]
        pivot_row = rows[leave]
        for i in range(m):
            if i == leave:
                continue
            row = rows[i]
            factor = row[enter]
            rows[i] = [(pivot * row[j] - factor * pivot_row[j]) // divisor for j in range(width)]
        factor = obj[enter]
        obj = [(pivot * obj[j] - factor * pivot_row[j]) // divisor for j in range(width)]
        basis[leave] = enter
        divisor = pivot
    else:
        raise RuntimeError("pivot limit exceeded")

    # optimum of the artificial sum is -obj[rhs] / divisor
    if obj[width - 1] != 0:
        return False, None

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rows[i][width - 1], divisor * scale)
    return True, x
