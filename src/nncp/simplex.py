"""Bounded-variable primal simplex on equality-form problems.

    min c·x   s.t.   A x = b,   lb <= x <= ub   (ub entries may be +inf)

Two phases: artificial variables carry an initial basis; once their sum is
driven to zero they are frozen at [0, 0] and the true objective takes over.
Pricing is Dantzig (most negative reduced cost) with a deterministic,
permanent switch to Bland's smallest-index rule after a streak of degenerate
pivots, which guarantees termination.  The basis inverse is kept explicitly
(dense) and refactorized periodically.

The engine works on plain arrays and sparse columns; the model/solution
wrappers live in :mod:`nncp.lp`.  It is the one numpy user in the package:
`solve` imports numpy when called, so importing :mod:`nncp` never loads it.
A singular basis raises `SolverError`.
"""

from __future__ import annotations

import math

from .errors import SolverError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
DEGENERATE_STREAK = 30   # consecutive zero-step pivots before Bland kicks in
REFACTOR_EVERY = 100

AT_LB, AT_UB, BASIC = 0, 1, 2

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"
ITER_LIMIT = "ITER_LIMIT"


def solve(c, cols, b, lb, ub):
    """Run the simplex.  ``cols[j]`` is the sparse column [(row, coef), ...];
    ``ub`` entries may be ``math.inf``.  Returns (status, x, objective) with
    x covering the structural variables only."""
    import numpy as np

    nrows = len(b)
    nstruct = len(c)
    b = np.asarray(b, dtype=float).copy()
    cols = [list(col) for col in cols]

    # orient rows so the artificial basis starts feasible (b >= 0)
    flip = b < 0
    if flip.any():
        b = np.where(flip, -b, b)
        for col in cols:
            for idx, (r, a) in enumerate(col):
                if flip[r]:
                    col[idx] = (r, -a)

    ntot = nstruct + nrows
    lb = np.concatenate([np.asarray(lb, dtype=float), np.zeros(nrows)])
    ub = np.concatenate([np.asarray(ub, dtype=float), np.full(nrows, math.inf)])
    for i in range(nrows):
        cols.append([(i, 1.0)])

    status = np.full(ntot, AT_LB, dtype=np.int8)
    basis = list(range(nstruct, ntot))
    for v in basis:
        status[v] = BASIC

    binv = np.eye(nrows)
    xval = np.array(lb[:ntot], dtype=float)   # nonbasic values; basics overwritten
    xval[np.isinf(xval)] = 0.0

    def recompute_basics():
        rhs = b.copy()
        for j in range(ntot):
            if status[j] != BASIC and xval[j] != 0.0:
                for r, a in cols[j]:
                    rhs[r] -= a * xval[j]
        xb = binv @ rhs
        for i, v in enumerate(basis):
            xval[v] = xb[i]

    def refactor():
        bmat = np.zeros((nrows, nrows))
        for i, v in enumerate(basis):
            for r, a in cols[v]:
                bmat[r, i] = a
        nonlocal binv
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"basis factorization failed: {exc}") from exc
        recompute_basics()

    recompute_basics()

    phase_cost = np.zeros(ntot)
    phase_cost[nstruct:] = 1.0
    true_cost = np.concatenate([np.asarray(c, dtype=float), np.zeros(nrows)])

    max_iters = 200 * (nrows + ntot)
    iters = 0
    bland = False
    degen_streak = 0

    for phase in (1, 2):
        cost = phase_cost if phase == 1 else true_cost
        while True:
            iters += 1
            if iters > max_iters:
                return ITER_LIMIT, xval[:nstruct].copy(), float(true_cost[:nstruct] @ xval[:nstruct])

            cb = cost[basis]
            y = binv.T @ cb

            enter = -1
            enter_sign = 0.0
            best = OPT_TOL
            for j in range(ntot):
                if status[j] == BASIC or lb[j] == ub[j]:
                    continue
                dj = cost[j]
                for r, a in cols[j]:
                    dj -= y[r] * a
                if status[j] == AT_LB and dj < -OPT_TOL:
                    score = -dj
                    sign = 1.0
                elif status[j] == AT_UB and dj > OPT_TOL:
                    score = dj
                    sign = -1.0
                else:
                    continue
                if bland:
                    enter, enter_sign = j, sign
                    break
                if score > best:
                    best, enter, enter_sign = score, j, sign
            if enter < 0:
                break   # phase optimal

            w = np.zeros(nrows)
            for r, a in cols[enter]:
                w[r] = a
            w = binv @ w

            # ratio test: entering moves by step >= 0 in direction enter_sign
            step = ub[enter] - lb[enter]     # bound flip distance (may be inf)
            leave = -1
            leave_to = AT_LB
            for i in range(nrows):
                rate = w[i] * enter_sign
                v = basis[i]
                if rate > PIVOT_TOL:
                    room = (xval[v] - lb[v]) / rate
                    cand_to = AT_LB
                elif rate < -PIVOT_TOL:
                    if math.isinf(ub[v]):
                        continue
                    room = (ub[v] - xval[v]) / (-rate)
                    cand_to = AT_UB
                else:
                    continue
                if room < step - 1e-12 or (room < step + 1e-12 and leave >= 0
                                           and _prefer(i, leave, w, basis, bland)):
                    step = room
                    leave, leave_to = i, cand_to
            if math.isinf(step):
                return UNBOUNDED, xval[:nstruct].copy(), -math.inf

            step = max(step, 0.0)
            degen_streak = degen_streak + 1 if step <= 1e-12 else 0
            if degen_streak >= DEGENERATE_STREAK:
                bland = True

            # apply the move
            xval[basis] = np.array([xval[v] for v in basis]) - step * enter_sign * w
            xval[enter] = xval[enter] + step * enter_sign
            if leave < 0:
                # bound flip, basis unchanged
                status[enter] = AT_UB if status[enter] == AT_LB else AT_LB
                continue

            out = basis[leave]
            status[out] = leave_to
            xval[out] = lb[out] if leave_to == AT_LB else ub[out]
            status[enter] = BASIC
            basis[leave] = enter

            piv = w[leave]
            if abs(piv) < PIVOT_TOL:
                refactor()
                continue
            # eta update of the inverse
            binv[leave] /= piv
            wcol = w.copy()
            wcol[leave] = 0.0
            binv -= np.outer(wcol, binv[leave])

            if iters % REFACTOR_EVERY == 0:
                refactor()

        if phase == 1:
            art_sum = float(xval[nstruct:].sum())
            if art_sum > FEAS_TOL:
                return INFEASIBLE, xval[:nstruct].copy(), math.inf
            # freeze artificials; basic ones stay (at value ~0) but can
            # never move again
            ub[nstruct:] = 0.0
            xval[nstruct:] = np.maximum(xval[nstruct:], 0.0)
            bland = False
            degen_streak = 0

    refactor()   # clean residual drift before reporting
    obj = float(true_cost[:nstruct] @ xval[:nstruct])
    return OPTIMAL, xval[:nstruct].copy(), obj


def _prefer(i, leave, w, basis, bland) -> bool:
    """Tie-break for the leaving row: Bland wants the smallest variable
    index, otherwise take the larger pivot magnitude for stability."""
    if bland:
        return basis[i] < basis[leave]
    return abs(w[i]) > abs(w[leave])
