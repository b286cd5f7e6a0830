"""Levenberg-Marquardt (damped Gauss-Newton) nonlinear least squares.

The one solver behind output-error fitting (:mod:`twindisc.sysid`) and
behavioral matching (:mod:`twindisc.matching`).  Damping scales the
diagonal of J^T J (Marquardt, SIAM J. Appl. Math. 11(2), 1963).  Box
bounds are handled with an active set, as in the projected method of
Kanzow, Yamashita & Fukushima (J. Comput. Appl. Math. 172, 2004).
"""

from __future__ import annotations

import numpy as np

MAX_LAMBDA = 1e12

#: Stop reasons that mean the search reached a (local) optimum.  The others
#: are "barrier" (the stopping iteration rejected a disallowed candidate, so
#: the steps may have shrunk against it rather than at an optimum) and
#: "iteration_cap".
CONVERGED_REASONS = frozenset({"zero_cost", "rel_drop", "no_descent"})


def levenberg_marquardt(residual, jacobian, theta0, max_iter: int, tol: float, bounds=None):
    """Minimize ``||residual(theta)||^2`` from ``theta0``.

    ``residual(theta)`` returns None for a theta that is not allowed, and
    ``jacobian(theta, r)`` gives dr/dtheta at theta.  ``bounds``, when
    given, is a pair of arrays ``(lo, hi)``: ``theta0`` and every candidate
    are clipped into that box, and a component that sits on a bound while
    its step points outward is held there, the step being solved again on
    the free components.  A step is taken only when it lowers the cost.

    The search stops with one of these reasons: ``"zero_cost"``;
    ``"rel_drop"``, a relative cost drop below ``tol``; ``"no_descent"``,
    no damping up to ``MAX_LAMBDA`` improves; ``"barrier"``, either of the
    last two in an iteration that also met a candidate ``residual``
    disallowed; and ``"iteration_cap"`` after ``max_iter`` iterations.

    Returns ``(theta, cost, iterations, reason, cost_trace, r)``, the trace
    holding the start's cost and each accepted one and ``r`` being
    ``residual(theta)``, or None when ``theta0`` is not allowed.
    """
    theta = np.asarray(theta0, dtype=float)
    if bounds is None:
        theta = theta.copy()
    else:
        lo, hi = bounds
        theta = np.minimum(np.maximum(theta, lo), hi)
    r = residual(theta)
    if r is None:
        return None
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    iterations = 0
    reason = "iteration_cap"
    for iterations in range(1, max_iter + 1):
        if cost == 0.0:
            reason = "zero_cost"
            break
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        scale = np.clip(np.diag(jtj), 1e-12, None)
        stepped = False
        disallowed = False
        while lam <= MAX_LAMBDA:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(scale), -jtr)
                if bounds is None:
                    cand = theta + delta
                else:
                    active = ((theta <= lo) & (delta < 0.0)) | ((theta >= hi) & (delta > 0.0))
                    if active.any():
                        free = ~active
                        delta = np.zeros_like(theta)
                        sub = np.ix_(free, free)
                        delta[free] = np.linalg.solve(
                            jtj[sub] + lam * np.diag(scale[free]), -jtr[free]
                        )
                    cand = np.minimum(np.maximum(theta + delta, lo), hi)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rc = residual(cand)
            if rc is None:
                disallowed = True
            else:
                new_cost = float(rc @ rc)
                if new_cost < cost:
                    rel_drop = (cost - new_cost) / cost
                    theta, r, cost = cand, rc, new_cost
                    trace.append(cost)
                    lam = max(lam / 10.0, 1e-12)
                    stepped = True
                    break
            lam *= 10.0
        if not stepped:
            reason = "barrier" if disallowed else "no_descent"
            break
        if rel_drop < tol:
            reason = "barrier" if disallowed else "rel_drop"
            break
    return theta, cost, iterations, reason, trace, r


def multistart(residual, jacobian, starts, max_iter: int, tol: float, bounds=None):
    """Run :func:`levenberg_marquardt` from each start in order; the lowest cost wins.

    A start ``residual`` rejects has no outcome and never wins; ties go to
    the lowest index.  Returns ``(winner, outcomes)``, with None in
    ``outcomes`` for each rejected start, or None when every start is.
    """
    outcomes = [
        levenberg_marquardt(residual, jacobian, start, max_iter, tol, bounds)
        for start in starts
    ]
    allowed = [i for i, outcome in enumerate(outcomes) if outcome is not None]
    if not allowed:
        return None
    return min(allowed, key=lambda i: outcomes[i][1]), outcomes
