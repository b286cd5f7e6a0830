"""Levenberg-Marquardt (damped Gauss-Newton) nonlinear least squares.

The one solver behind output-error and noise-model fitting
(:mod:`twindisc.sysid`) and behavioral matching (:mod:`twindisc.matching`).  Damping scales the
diagonal of J^T J (Marquardt, SIAM J. Appl. Math. 11(2), 1963).  Box
bounds are handled with an active set, as in the projected method of
Kanzow, Yamashita & Fukushima (J. Comput. Appl. Math. 172, 2004).
Geodesic acceleration, optional, adds a second-order correction to each
step along curved valleys (Transtrum & Sethna, arXiv:1201.5885, 2012).
"""

from __future__ import annotations

import numpy as np

MAX_LAMBDA = 1e12
TOL = 1e-10  # relative cost drop that counts as converged
#: Geodesic acceleration: the relative finite-difference step of the probe
#: along the damped step, and the largest ratio 2||a|| / ||delta|| that is
#: still trusted (Transtrum & Sethna's values).
ACCEL_PROBE_STEP = 0.1
ACCEL_MAX_RATIO = 0.75

#: Stop reasons that mean the search reached a (local) optimum.  The others
#: are "barrier" (the stopping iteration rejected a disallowed candidate, so
#: the steps may have shrunk against it rather than at an optimum) and
#: "iteration_cap".
CONVERGED_REASONS = frozenset({"zero_cost", "rel_drop", "no_descent"})


def _solve_free(matrix, rhs, free):
    """Solve ``matrix @ x = rhs`` on the ``free`` components (all when None).

    The other components of ``x`` stay zero.
    """
    if free is None:
        return np.linalg.solve(matrix, rhs)
    x = np.zeros_like(rhs)
    x[free] = np.linalg.solve(matrix[np.ix_(free, free)], rhs[free])
    return x


# an overflow is an outcome the search handles, not a numerical fault worth a
# warning: a sum of squares that overflows is an infinite cost, and a JᵀJ that
# overflows gives a non-finite step, whose candidate the residual disallows
@np.errstate(over="ignore", invalid="ignore")
def levenberg_marquardt(residual, jacobian, theta0, max_iter: int, bounds=None, accelerate=False):
    """Minimize ``||residual(theta)||^2`` from ``theta0``.

    ``residual(theta)`` returns None for a theta that is not allowed, and
    ``jacobian(theta, r)`` gives dr/dtheta at theta.  ``bounds``, when
    given, is a pair of arrays ``(lo, hi)``: ``theta0`` and every candidate
    are clipped into that box, and a component that sits on a bound while
    its step points outward is held there, the step being solved again on
    the free components.  A step is taken only when it lowers the cost, and
    a candidate that rounds back to theta is not evaluated.

    With ``accelerate``, each damped step delta costs one more ``residual``
    call, at theta + h delta (h = ``ACCEL_PROBE_STEP``, clipped), which gives
    the second directional derivative r_vv = (2/h)((r_h - r)/h - J delta).
    The acceleration a solves the same damped system on the same free
    components with J^T r_vv in place of J^T r, and the candidate is
    theta + delta + a/2 when 2||a|| <= ``ACCEL_MAX_RATIO`` ||delta||, else
    theta + delta.  A probe ``residual`` disallows falls back to the plain
    step and is no barrier.

    The search stops with one of these reasons: ``"zero_cost"``;
    ``"rel_drop"``, a relative cost drop below ``TOL``; ``"no_descent"``,
    no damping up to ``MAX_LAMBDA`` improves; ``"barrier"``, either of the
    last two in an iteration that also met a candidate ``residual``
    disallowed; and ``"iteration_cap"`` after ``max_iter`` iterations.

    Returns ``(theta, cost, iterations, reason)``, or None when ``theta0``
    is not allowed.
    """
    if bounds is None:
        def clip(x):
            return x
    else:
        lo, hi = bounds

        def clip(x):
            return np.minimum(np.maximum(x, lo), hi)
    theta = clip(np.array(theta0, dtype=float))
    r = residual(theta)
    if r is None:
        return None
    cost = float(r @ r)
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
            damped = jtj + lam * np.diag(scale)
            delta = np.linalg.solve(damped, -jtr)
            free = None
            if bounds is not None:
                active = ((theta <= lo) & (delta < 0.0)) | ((theta >= hi) & (delta > 0.0))
                if active.any():
                    free = ~active
                    delta = _solve_free(damped, -jtr, free)
            step = delta
            if accelerate:
                h = ACCEL_PROBE_STEP
                probe = clip(theta + h * delta)
                r_h = None if probe.tobytes() == theta.tobytes() else residual(probe)
                if r_h is not None:
                    r_vv = (2.0 / h) * ((r_h - r) / h - jac @ delta)
                    accel = _solve_free(damped, -(jac.T @ r_vv), free)
                    if 2.0 * np.linalg.norm(accel) <= ACCEL_MAX_RATIO * np.linalg.norm(delta):
                        step = delta + 0.5 * accel
            cand = clip(theta + step)
            if cand.tobytes() == theta.tobytes():
                # a step below theta's resolution costs what theta does: no descent
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
                    lam = max(lam / 10.0, 1e-12)
                    stepped = True
                    break
            lam *= 10.0
        if not stepped:
            reason = "barrier" if disallowed else "no_descent"
            break
        if rel_drop < TOL:
            reason = "barrier" if disallowed else "rel_drop"
            break
    return theta, cost, iterations, reason


def multistart(residual, jacobian, starts, max_iter: int, bounds=None, accelerate=False):
    """Run :func:`levenberg_marquardt` from each start in order; the lowest cost wins.

    A start ``residual`` rejects has no outcome (None) and never wins; ties
    go to the lowest index.  Returns ``(winner, outcomes)``, each outcome a
    ``(theta, cost, iterations, reason)``, or None when every start is rejected.
    """
    outcomes = [
        levenberg_marquardt(residual, jacobian, start, max_iter, bounds, accelerate)
        for start in starts
    ]
    allowed = [i for i, outcome in enumerate(outcomes) if outcome is not None]
    if not allowed:
        return None
    return min(allowed, key=lambda i: outcomes[i][1]), outcomes
