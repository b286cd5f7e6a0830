"""Levenberg-Marquardt (damped Gauss-Newton) nonlinear least squares.

The one solver behind output-error fitting (:mod:`twindisc.sysid`) and
behavioral matching (:mod:`twindisc.matching`).  Damping scales the
diagonal of J^T J (Marquardt, SIAM J. Appl. Math. 11(2), 1963).
"""

from __future__ import annotations

import numpy as np

MAX_LAMBDA = 1e12


def levenberg_marquardt(residual, jacobian, theta0, max_iter: int, tol: float, project=None):
    """Minimize ``||residual(theta)||^2`` from ``theta0``.

    ``residual(theta)`` returns None for a theta that is not allowed, and
    ``jacobian(theta, r)`` gives dr/dtheta at theta.  ``project`` clips
    ``theta0`` and every candidate into the feasible set.  A step is taken
    only when it lowers the cost.  The search converges on a relative drop
    below ``tol``, a zero cost or a point no damping up to ``MAX_LAMBDA``
    improves, and stops unconverged after ``max_iter`` iterations.

    Returns ``(theta, cost, iterations, converged, cost_trace)``, the trace
    holding the start's cost and each accepted one, or None when ``theta0``
    is not allowed.
    """
    theta = np.asarray(theta0, dtype=float)
    theta = theta.copy() if project is None else project(theta)
    r = residual(theta)
    if r is None:
        return None
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        if cost == 0.0:
            converged = True
            break
        jac = jacobian(theta, r)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        scale = np.clip(np.diag(jtj), 1e-12, None)
        stepped = False
        while lam <= MAX_LAMBDA:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(scale), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + delta
            if project is not None:
                cand = project(cand)
            rc = residual(cand)
            if rc is not None:
                new_cost = float(rc @ rc)
                if new_cost < cost:
                    rel_drop = (cost - new_cost) / cost
                    theta, r, cost = cand, rc, new_cost
                    trace.append(cost)
                    lam = max(lam / 10.0, 1e-12)
                    stepped = True
                    if rel_drop < tol:
                        converged = True
                    break
            lam *= 10.0
        if not stepped:
            converged = True  # no damping level improves: at a (local) optimum
            break
        if converged:
            break
    return theta, cost, iterations, converged, trace
