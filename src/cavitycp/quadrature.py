"""Adaptive Gauss-Kronrod quadrature for real or complex, scalar- or
vector-valued integrands.

The integrator uses the embedded 7-point Gauss / 15-point Kronrod rule pair
with adaptive bisection.  Integrands accept a 1-D numpy array of abscissae
and return one value per abscissa, or an array of shape (nodes, m) holding m
components per abscissa, or a function that applies given rules to those
values per panel: QUADPACK needs only each panel's rule sums, so such an
integrand never forms its (node x m) values.  Semi-infinite integrals are
mapped to finite intervals by exponential cutoffs set by the caller.

Each panel carries QUADPACK's error estimate |Kronrod - Gauss| per component
(Piessens et al., QUADPACK, 1983), and every component k must meet its own
tolerance max(rel_tol |I_k|, 50 eps sum_panels |value_k|, 1e-300); the middle
term, QUADPACK's rounding floor, lets a zero integral converge.  On request
|I_k| becomes max_j |I_j|, so that every component meets rel_tol of the
largest (scipy quad_vec's norm="max").  As in scipy's
quad_vec, each round bisects a batch of panels and evaluates all their halves
in one integrand call: for every component still above tolerance, the fewest
largest-error panels whose errors together cover its excess.  When a single
panel carries most of the error this is the one-panel-at-a-time scheme; when
the error is spread it saves one integrand call per panel.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "adaptive_integrate",
]


# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-node arrays ordered from lo to hi.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
# Gauss weights sit on nodes 1, 3, 5, ... 13.
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))
# Kronrod rule and Kronrod-minus-Gauss error rule, applied in one product.
_RULES = np.stack((_WK, _WK - _WGFULL))
# Tolerance floors, at the rounding level of sum_panels |value| (QUADPACK's
# 50 epmach resabs) and above the rounding noise of estimates near underflow.
_ROUNDING = 50.0 * np.finfo(float).eps
_TINY = 1e-300
_MAX_SUBDIVISIONS = 2000  # bisections per adaptive_integrate call


class QuadratureSpec:
    """Relative tolerance every component of an integral must meet."""

    __slots__ = ("rel_tol",)

    def __init__(self, rel_tol: float = 1e-9):
        if not 0 < rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")
        self.rel_tol = rel_tol


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate, its error
    and tolerance (per component for a vector integrand), the bisections
    used, and the worst component's error over tolerance, or error_ratio
    if given (that of an integral whose components these entries were
    mapped from).  The message is one line on that worst component."""

    def __init__(self, estimate, error, tolerance, splits, error_ratio=None):
        ratio = np.ravel(error / tolerance)
        worst = int(np.argmax(ratio))
        if error_ratio is None:
            error_ratio = ratio[worst]
        where = "" if np.ndim(estimate) == 0 \
            else f"component {worst} of {ratio.size}, "
        super().__init__(
            f"quadrature failed to converge: {where}estimate "
            f"{np.ravel(estimate)[worst]:.6g}, error "
            f"{np.ravel(error)[worst]:.3e}; {splits} of {_MAX_SUBDIVISIONS} "
            f"subdivisions used, worst error/tolerance {error_ratio:.3g}")
        self.estimate, self.error, self.tolerance = estimate, error, tolerance
        self.splits, self.error_ratio = splits, error_ratio


def _panels(f: Callable, lo, hi):
    """Kronrod values and |Kronrod - Gauss| errors of the panels
    [lo_i, hi_i] from one integrand call, both of shape (panels, m), and
    whether f returned a single value per node.  f returns its values, or a
    function that takes rules of shape (k, 15) to their (panels, k, m) sums."""
    n, half = len(lo), 0.5 * (hi - lo)[:, None]
    y = f((0.5 * (hi + lo)[:, None] + half * _NODES).ravel())
    scalar = not callable(y) and np.ndim(y) == 1
    sums = y(_RULES) if callable(y) else _RULES @ np.reshape(y, (n, 15, -1))
    return half * sums[:, 0], half * np.abs(sums[:, 1]), scalar


def _to_split(err, excess, tol):
    """Panels to bisect: for each component with positive excess (error
    above tolerance), the fewest largest-error panels whose errors sum to at
    least that excess.  Returned worst first, by error over tolerance."""
    chosen = np.zeros(len(err), dtype=bool)
    order = np.argsort(-err, axis=0)
    ranked = np.take_along_axis(err, order, axis=0)
    before = np.cumsum(ranked, axis=0) - ranked
    chosen[order[before < excess]] = True
    chosen = np.flatnonzero(chosen)
    return chosen[np.argsort(-(err[chosen] / tol).max(axis=1), kind="stable")]


def _ladder(origin, start, stop, ratio):
    """Panel edges origin + start ratio^k, k = 0, 1, ..., until |start|
    ratio^k passes |stop|: they resolve every scale from |start| to |stop|
    off origin (ratio < 1 descends)."""
    n = int(max(np.log(stop / start) / np.log(ratio), -1.0)) + 2
    steps = start * ratio ** np.arange(n)
    return (origin + steps)[(abs(stop) - np.abs(steps)) * (ratio - 1.0) >= 0]


def adaptive_integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Sequence[float] = (),
    relative_to_max: bool = False,
):
    """Integrate a vectorized integrand over [lo, hi].

    f maps an array of nodes to values of shape (nodes,), giving a scalar
    integral, or (nodes, m), giving m integrals at once, or to a function
    that maps rules of shape (k, 15) to the (panels, k, m) sums they take of
    those (nodes, m) values, 15 nodes per panel in order.  Returns
    (value, error_estimate); for a vector integrand both are arrays of
    length m.  Optional interior breakpoints seed the initial panel list
    (useful when the caller knows where sharp features sit).  With
    relative_to_max, rel_tol applies to the largest |component| rather than
    to each one's own.  Raises QuadratureError if _MAX_SUBDIVISIONS
    bisections are used before every component meets its tolerance.
    """
    if not lo < hi:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    edges = np.array([lo] + sorted(p for p in set(breakpoints) if lo < p < hi)
                     + [hi], dtype=float)
    a, b = edges[:-1], edges[1:].copy()
    val, err, scalar = _panels(f, a, b)

    splits = 0
    while True:
        total = val.sum(axis=0)
        total_err = err.sum(axis=0)
        scale = np.abs(total).max() if relative_to_max else np.abs(total)
        tol = np.maximum(spec.rel_tol * scale, np.maximum(
            _ROUNDING * np.abs(val).sum(axis=0), _TINY))
        converged = (total_err <= tol).all()
        if converged or splits >= _MAX_SUBDIVISIONS or \
                not np.isfinite(total_err).all():
            break
        split = _to_split(err, total_err - tol, tol)
        split = split[:_MAX_SUBDIVISIONS - splits]
        # each split panel keeps its slot for its left half; the right
        # halves are appended
        left, right = a[split], b[split]
        mid = 0.5 * (left + right)
        new_val, new_err, _ = _panels(f, np.concatenate((left, mid)),
                                      np.concatenate((mid, right)))
        n = len(split)
        b[split] = mid
        val[split], err[split] = new_val[:n], new_err[:n]
        a = np.concatenate((a, mid))
        b = np.concatenate((b, right))
        val = np.concatenate((val, new_val[n:]))
        err = np.concatenate((err, new_err[n:]))
        splits += n

    if scalar:
        total, total_err = total[0], total_err[0]
    if not converged:
        raise QuadratureError(total, total_err, tol, splits)
    return total, total_err
