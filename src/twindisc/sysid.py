"""Box-Jenkins model identification from recorded step tests.

The deterministic part B/F of each channel is fitted by simulation-error
(output-error) minimization.  The residual y - (B/F)u is linear in B, so
for each F the B coefficients are solved by least squares on the filtered
regressors (1/F)u, and Levenberg-Marquardt searches over F alone on
Kaufman's Jacobian (variable projection: Golub & Pereyra, SIAM J. Numer.
Anal. 10, 1973; Kaufman, BIT 15, 1975).  Steps that put a root of F within
``lti.STABILITY_MARGIN`` of the unit circle (Schur-Cohn: ``lti.is_stable``)
are rejected.  Each fit starts from a matching-order ARX estimate plus seeded
perturbations; the radii 0.99 and 0.95 only place those estimates.  The noise
part C/D is fitted only to score one-step prediction errors, by the same
Levenberg-Marquardt kernel on a fit's simulation residuals, under the same
stability rule (the prediction-error method: Ljung, System Identification,
2nd ed., 1999, ch. 7), so the two stages never need a joint search.

This is the one module of the package that imports scipy (its BLAS and
LAPACK wrappers), so only model fitting pays for loading it.  The import
stays at module level: a caller that imports this module up front pays for
scipy there, not inside its first fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgeqrf, dorgqr

from .lm import CONVERGED_REASONS, levenberg_marquardt, multistart
from .lti import (
    DEFAULT_ORDER_LABELS,
    FIT_FAILURES,
    DiscreteTransferFunction,
    FitFailureError,
    OrderSpec,
    coefficients,
    is_integer,
    is_stable,
)

MAX_ITER = 200  # LM iterations per start
N_STARTS = 5  # the ARX initializer plus seeded perturbations of it
PERTURBATION = 0.2  # perturbation scale, relative to 1 + |theta|


def denominator_band(f, n: int) -> np.ndarray:
    """Monic F as the band of its n x n lower-triangular Toeplitz matrix.

    Row d holds the z^-d tap in every column, the BLAS band layout.  The
    array is Fortran-ordered so that BLAS reads it without a copy.
    """
    return np.repeat(np.asarray(f, dtype=float)[None, :], n, 0).T


def forward_solve(band: np.ndarray, w) -> np.ndarray:
    """Zero-state response of 1/F to ``w``: forward substitution F y = w.

    ``band`` comes from :func:`denominator_band`; its z^0 row is taken as 1.
    """
    return dtbsv(band.shape[0] - 1, band, w, lower=1, diag=1)


def lfilter(b, f, x) -> np.ndarray:
    """Zero-state response (B/F)x for a monic F; ``f[0]`` is taken as 1."""
    x = np.asarray(x, dtype=float)
    return forward_solve(denominator_band(f, x.size), np.convolve(x, b)[: x.size])


def _coerce_order(order) -> OrderSpec:
    return order if isinstance(order, OrderSpec) else OrderSpec.from_label(order)


@dataclass(frozen=True, eq=False)
class BoxJenkinsModel:
    """y = (B/F) u + (C/D) e in samples: monic C, D, F and nk leading zeros in B."""

    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    f: np.ndarray
    delay: int

    def __post_init__(self):
        for name in ("b", "c", "d", "f"):
            object.__setattr__(self, name, coefficients(getattr(self, name)))
        for name in ("c", "d", "f"):
            if getattr(self, name)[0] != 1.0:
                raise ValueError(f"{name} polynomial must be monic at z^0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.b.size <= self.delay:
            raise ValueError("b must have coefficients beyond the delay zeros")
        if np.any(self.b[: self.delay] != 0.0):
            raise ValueError(f"b must start with {self.delay} zero coefficients")

    @property
    def n_params(self) -> int:
        """Estimated coefficients: all of B, C, D, F minus fixed 1s and delay zeros."""
        return self.b.size - self.delay + self.c.size + self.d.size + self.f.size - 3

    def deterministic_tf(self, sample_time: float) -> DiscreteTransferFunction:
        return DiscreteTransferFunction(self.b, self.f, sample_time)


@dataclass(frozen=True, eq=False)
class FitResult:
    model: BoxJenkinsModel
    sim_residuals: np.ndarray
    converged: bool
    iterations: int


def _project_stable(monic: np.ndarray, radius: float) -> np.ndarray:
    """Radially contract the roots of a monic polynomial into the disk of ``radius``."""
    roots = np.roots(monic)
    rho = float(np.max(np.abs(roots)))
    if rho < radius:
        return monic
    out = np.real(np.poly(roots * (radius / rho)))
    out[0] = 1.0
    return out


def _delayed(x: np.ndarray, first: int, count: int) -> np.ndarray:
    """Columns of ``x`` delayed by first, first + 1, .., first + count - 1 samples."""
    out = np.zeros((x.size, count))
    for i, d in enumerate(range(first, first + count)):
        out[d:, i] = x[: x.size - d]
    return out


def _oe_problem(u: np.ndarray, y: np.ndarray, nk: int, nb: int):
    """Residual and Kaufman Jacobian of the fit over F's tail, B projected out.

    ``residual(f)`` is y - Phi b for the least-squares b on the regressors
    Phi, (1/F)u at delays nk..nk+nb-1, or None when F is unstable or the run
    blew up.  ``jacobian(f, r)`` projects the F columns (1/F)(y - r) at delays
    1..nf off range(Phi), with the F band and the Q of the last ``residual``
    call: the LM kernel always makes that call at the point it
    differentiates next.
    """
    last = {}

    def residual(f_tail):
        f = np.concatenate([[1.0], f_tail])
        if not is_stable(f):
            return None
        band = denominator_band(f, u.size)
        qr, tau, _, _ = dgeqrf(_delayed(forward_solve(band, u), nk, nb))
        q = dorgqr(qr, tau)[0]
        r = y - q @ (q.T @ y)
        if not np.all(np.isfinite(r)):
            return None
        last["band"], last["q"] = band, q
        return r

    def jacobian(f_tail, r):
        jac = _delayed(forward_solve(last["band"], y - r), 1, f_tail.size)
        return jac - last["q"] @ (last["q"].T @ jac)

    return residual, jacobian


def _arx_start(u: np.ndarray, y: np.ndarray, order: OrderSpec) -> np.ndarray:
    nb, nf, nk = order.nb, order.nf, order.nk
    t0 = max(nb + nk - 1, nf)
    phi = np.hstack([_delayed(u, nk, nb), -_delayed(y, 1, nf)])[t0:]
    theta, *_ = np.linalg.lstsq(phi, y[t0:], rcond=None)
    f = _project_stable(np.concatenate([[1.0], theta[nb:]]), radius=0.99)
    return np.concatenate([theta[:nb], f[1:]])


def fit_output_error(input, output, order, seed: int = 0, warm_start=None) -> FitResult:
    """Fit the deterministic channel B/F by simulation-error minimization.

    The search runs over F alone, B being the least-squares solution for
    each F (variable projection).  It is a seeded multistart around the ARX
    initializer, plus ``warm_start`` (F's tail ``[f_1, .., f_nf]``) when
    given, and returns the best iterate even when not converged.  C and D
    come back as 1 with nc and nd zero taps; :func:`innovations` fits them.
    """
    order = _coerce_order(order)
    u = np.asarray(input, dtype=float).ravel()
    y = np.asarray(output, dtype=float).ravel()
    if u.size != y.size:
        raise ValueError("input and output must have the same length")
    min_len = 10 * (order.nb + order.nf)
    if y.size < min_len:
        raise ValueError(
            f"need at least {min_len} samples for orders nb={order.nb}, nf={order.nf}, "
            f"got {y.size}"
        )

    theta0 = _arx_start(u, y, order)
    rng = np.random.default_rng(seed)
    starts = [theta0[order.nb :]]
    scale = PERTURBATION * (1.0 + np.abs(theta0))
    for _ in range(N_STARTS - 1):
        cand = theta0 + scale * rng.standard_normal(theta0.size)
        f = _project_stable(np.concatenate([[1.0], cand[order.nb:]]), radius=0.95)
        starts.append(f[1:])
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float).ravel()
        if warm_start.size != order.nf:
            raise ValueError(
                f"warm_start must have nf = {order.nf} entries, got {warm_start.size}"
            )
        starts.append(warm_start)

    residual, jacobian = _oe_problem(u, y, order.nk, order.nb)
    search = multistart(residual, jacobian, starts, MAX_ITER)
    if search is None:
        raise FitFailureError(
            f"no stable iterate found for order {order.label} on {y.size} samples"
        )
    winner, outcomes = search
    f_tail, _, iterations, reason = outcomes[winner]
    f = np.concatenate([[1.0], f_tail])
    phi = _delayed(lfilter([1.0], f, u), order.nk, order.nb)
    b = np.concatenate([np.zeros(order.nk), np.linalg.lstsq(phi, y, rcond=None)[0]])
    residuals = y - lfilter(b, f, u)
    residuals.setflags(write=False)
    c, d = (np.concatenate([[1.0], np.zeros(n)]) for n in (order.nc, order.nd))
    return FitResult(
        model=BoxJenkinsModel(b=b, c=c, d=d, f=f, delay=order.nk),
        sim_residuals=residuals,
        converged=reason in CONVERGED_REASONS,
        iterations=iterations,
    )


def fit_noise_model(residuals, nc: int, nd: int):
    """Fit monic noise polynomials (C, D) to a residual sequence v.

    One Levenberg-Marquardt search over [c_1..c_nc, d_1..d_nd] minimizes the
    one-step errors e = (D/C)v from C = D = 1, where e = v.  The kernel takes
    only steps that lower the cost, so the fitted noise model never predicts
    worse than none, and a candidate whose C or D fails ``lti.is_stable`` is
    refused, as F's are.
    """
    if nc < 1 or nd < 1:
        raise ValueError("nc and nd must be >= 1")
    v = np.asarray(residuals, dtype=float).ravel()
    if v.size < 10 * (nc + nd):
        raise ValueError(
            f"need at least {10 * (nc + nd)} residuals for nc={nc}, nd={nd}, got {v.size}"
        )

    def monic(theta):
        return np.concatenate([[1.0], theta[:nc]]), np.concatenate([[1.0], theta[nc:]])

    def residual(theta):
        c, d = monic(theta)
        return lfilter(d, c, v) if is_stable(c) and is_stable(d) else None

    def jacobian(theta, e):
        band = denominator_band(monic(theta)[0], v.size)
        return np.hstack(
            [-_delayed(forward_solve(band, e), 1, nc), _delayed(forward_solve(band, v), 1, nd)]
        )

    return monic(levenberg_marquardt(residual, jacobian, np.zeros(nc + nd), MAX_ITER)[0])


def one_step_residuals(model: BoxJenkinsModel, u, y) -> np.ndarray:
    """One-step prediction errors of the full BJ model: e = (D/C)(y - (B/F)u)."""
    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    v = y - lfilter(model.b, model.f, u)
    return lfilter(model.d, model.c, v)


def innovations(fit: FitResult, u, y) -> np.ndarray:
    """One-step prediction errors of ``fit`` with its C/D fitted to its residuals."""
    c, d = fit_noise_model(fit.sim_residuals, fit.model.c.size - 1, fit.model.d.size - 1)
    return one_step_residuals(replace(fit.model, c=c, d=d), u, y)


def fitting_order(order_labels) -> list:
    """The orders as :func:`identify_family` fits them: ascending nb + nf, then label."""
    return sorted(map(_coerce_order, order_labels), key=lambda s: (s.nb + s.nf, s.label))


@dataclass(frozen=True)
class FamilyResult:
    """Identified family: the fit of each (order label, channel), and the failures."""

    fits: dict
    errors: tuple


def identify_family(dataset, order_labels=DEFAULT_ORDER_LABELS, seed: int = 0) -> FamilyResult:
    """Fit the deterministic part B/F of both channels (r -> y, r -> u) for every order.

    Orders are processed in :func:`fitting_order` and each fit warm-starts
    from the previous order's zero-padded solution, which makes the best
    simulation cost non-increasing with order.  A fit that ends in one of
    ``FIT_FAILURES`` is recorded without aborting the remaining orders; others propagate.
    """
    # checked once here: numpy's refusal inside a fit would read as a fit failure
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be >= 0 and an integer, not {seed!r}")
    r = np.asarray(dataset.r, dtype=float)
    channels = {"y": np.asarray(dataset.y, dtype=float), "u": np.asarray(dataset.u, dtype=float)}

    fits: dict = {}
    errors: list = []
    prev: dict = {}  # channel -> (order, F tail) of its last successful fit

    for order in fitting_order(order_labels):
        for ch, signal_out in channels.items():
            warm = None
            if ch in prev:
                ps, pf = prev[ch]
                if ps.nk == order.nk and ps.nb <= order.nb and ps.nf <= order.nf:
                    warm = np.concatenate([pf, np.zeros(order.nf - ps.nf)])
            try:
                fit = fit_output_error(r, signal_out, order, seed, warm)
            except FIT_FAILURES as exc:
                errors.append((order.label, ch, f"{type(exc).__name__}: {exc}"))
                continue
            fits[(order.label, ch)] = fit
            prev[ch] = (order, fit.model.f[1:])
    return FamilyResult(fits=fits, errors=tuple(errors))
