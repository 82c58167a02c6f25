"""Adaptive Gauss-Kronrod quadrature for real or complex, scalar- or
vector-valued integrands.

The integrator uses the embedded 7-point Gauss / 15-point Kronrod rule pair
with adaptive bisection.  Integrands accept a 1-D numpy array of abscissae
and return one value per abscissa, or an array of shape (nodes, m) holding m
components per abscissa; semi-infinite integrals are mapped to finite
intervals by explicit exponential cutoffs chosen at the call site.

Each panel carries QUADPACK's error estimate |Kronrod - Gauss| per component
(Piessens et al., QUADPACK, 1983), and every component k must meet its own
tolerance max(rel_tol |I_k|, abs_tol).  As in scipy's quad_vec, each round
bisects a batch of panels and evaluates all their halves in one integrand
call: for every component still above tolerance, the fewest largest-error
panels whose errors together cover its excess.  When a single panel carries
most of the error this is the one-panel-at-a-time scheme; when the error is
spread it saves one integrand call per panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "QuadratureResult",
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/budget policy for adaptive integration."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-300
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be non-negative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best estimate found (one
    entry per component for a vector-valued integrand)."""

    def __init__(self, estimate, error):
        super().__init__(
            f"quadrature failed to converge: estimate {estimate}, "
            f"error {np.max(error):.3e}")
        self.estimate = estimate
        self.error = error


class QuadratureResult(tuple):
    """What adaptive_integrate returns: unpacks as (value, error).

    It also keeps the final panels, so that a caller holding the integrand's
    samples can apply the converged rule to a related integrand without a
    new adaptive pass (see rule()).
    """

    def __new__(cls, value, error, lo, hi):
        self = super().__new__(cls, (value, error))
        self.panels = (lo, hi)
        return self

    def rule(self):
        """(nodes, weights) of the composite Kronrod rule on the final
        panels; the nodes are exactly those the integrand was called with."""
        lo, hi = self.panels
        return _nodes(lo, hi), (0.5 * (hi - lo)[:, None] * _WK).ravel()


def _nodes(lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return (mid[:, None] + half[:, None] * _NODES).ravel()


def _panels(f: Callable, lo, hi):
    """Kronrod values and |Kronrod - Gauss| errors of the panels
    [lo_i, hi_i] from one integrand call, both of shape (panels, m), and
    whether f returned a single value per node."""
    y = np.asarray(f(_nodes(lo, hi)))
    scalar = y.ndim == 1
    half = 0.5 * (hi - lo)[:, None]
    rules = _RULES @ y.reshape(len(lo), 15, -1)
    return half * rules[:, 0], np.abs(half * rules[:, 1]), scalar


def _to_split(err, excess, tol):
    """Panels to bisect: for each component with positive excess (error
    above tolerance), the fewest largest-error panels whose errors sum to at
    least that excess.  Returned worst first, by error over tolerance."""
    chosen = np.zeros(len(err), dtype=bool)
    if (err.max(axis=0) >= excess).all():
        # one panel per component covers its excess
        chosen[err.argmax(axis=0)[excess > 0]] = True
    else:
        order = np.argsort(-err, axis=0)
        ranked = np.take_along_axis(err, order, axis=0)
        before = np.cumsum(ranked, axis=0) - ranked
        chosen[order[before < excess]] = True
    chosen = np.flatnonzero(chosen)
    if len(chosen) == 1:
        return chosen
    return chosen[np.argsort(-(err[chosen] / tol).max(axis=1), kind="stable")]


def adaptive_integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Sequence[float] = (),
):
    """Integrate a vectorized integrand over [lo, hi].

    f maps an array of nodes to values of shape (nodes,), giving a scalar
    integral, or (nodes, m), giving m integrals at once.  Returns
    (value, error_estimate) as a QuadratureResult; for a vector integrand
    both are arrays of length m.  Optional interior breakpoints seed the
    initial panel list (useful when the caller knows where sharp features
    sit).  Raises QuadratureError if max_subdivisions bisections are used
    before every component meets its tolerance.
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
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_tol)
        converged = (total_err <= tol).all()
        if converged or splits >= spec.max_subdivisions or \
                not np.isfinite(total_err).all():
            break
        split = _to_split(err, total_err - tol, tol)
        split = split[:spec.max_subdivisions - splits]
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
        raise QuadratureError(total, total_err)
    return QuadratureResult(total, total_err, a, b)
