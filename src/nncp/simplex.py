"""Equality-form LPs with bounded variables, solved by HiGHS.

    min c·x   s.t.   A x = b,   lb <= x <= ub   (ub entries may be +inf)

`solve` hands the problem to scipy's `linprog` with HiGHS's dual simplex
(``method="highs-ds"``).  scipy is imported when `solve` is called, so
importing :mod:`nncp` never loads it; it comes with the ``test`` extra.  The
model/solution wrappers live in :mod:`nncp.lp`.
"""

from __future__ import annotations

import math

from .errors import SolverError

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
ITER_LIMIT = "ITER_LIMIT"

# linprog's status codes; any other (4: numerical difficulties) is an error
_STATUS = {0: OPTIMAL, 1: ITER_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}
_NO_POINT = {ITER_LIMIT: math.nan, INFEASIBLE: math.inf, UNBOUNDED: -math.inf}


def solve(c, cols, b, lb, ub):
    """Solve the LP.  ``cols[j]`` is the sparse column [(row, coef), ...];
    ``ub`` entries may be ``math.inf``.  Returns (status, x, objective) with
    x a list of floats (NaN where HiGHS reports no point)."""
    import scipy.optimize
    from scipy.sparse import csc_array

    data, rows, starts = [], [], [0]
    for col in cols:
        for r, a in col:
            rows.append(r)
            data.append(a)
        starts.append(len(data))
    a_eq = csc_array((data, rows, starts), shape=(len(b), len(c)))
    res = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b, bounds=list(zip(lb, ub)),
                                 method="highs-ds")
    if res.status not in _STATUS:
        raise SolverError(f"LP solver failed: {res.message}")
    status = _STATUS[res.status]
    if status != OPTIMAL:
        return status, [math.nan] * len(c), _NO_POINT[status]
    return status, res.x.tolist(), float(res.fun)
