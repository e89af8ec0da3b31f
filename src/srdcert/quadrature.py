"""Quadrature plumbing shared by the analytic modules.

Wraps :func:`scipy.integrate.quad_vec` so that callers describe *where* an
integrand lives (linear segments near the origin, log-mapped segments for
slowly decaying tails) and get back a vector of integral values plus an
additive error estimate.  Vector-valued integrands are the norm here: one
adaptive pass evaluates a whole grid of frequencies at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad_vec

from .errors import QuadratureError

# Default tolerances for the inner adaptive passes.  Callers that need the
# error bookkeeping tighter (certification) pass their own.
DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10

# Hard ceiling on log-mapped tail range: exp(80) ~ 5.5e34.
_MAX_LOG_RANGE = 80.0


@dataclass(frozen=True)
class Segment:
    """One integration piece on the real line.

    ``lo < hi`` always refers to linear coordinates.  When ``log`` is true
    the segment must not straddle 0; integration runs in u = log|x| to keep
    slowly decaying tails cheap.
    """

    lo: float
    hi: float
    log: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty segment [{self.lo}, {self.hi}]")
        if self.log and self.lo < 0.0 < self.hi:
            raise ValueError("log segment must not contain 0")


def merge_intervals(intervals: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals, merged and sorted."""
    pairs = sorted((lo, hi) for lo, hi in intervals if lo < hi)
    merged: list[tuple[float, float]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def integrate_segments(
    func: Callable[[float], np.ndarray],
    segments: Sequence[Segment],
    breakpoints: Sequence[float] = (),
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[np.ndarray, float]:
    """Integrate a vector-valued ``func`` over a union of segments.

    ``func(x)`` takes a scalar and returns a 1-D array (real or complex).
    Returns the summed values and the summed error estimate.  Raises
    :class:`QuadratureError` if any adaptive pass fails to converge.
    """
    total = None
    err_total = 0.0
    for seg in segments:
        if seg.log:
            g, a, b = _log_mapped(func, seg)
            pts = None
        else:
            g, a, b = func, seg.lo, seg.hi
            pts = sorted(p for p in set(breakpoints) if a < p < b) or None
        val, err, info = quad_vec(
            g, a, b, epsabs=abs_tol, epsrel=rel_tol, points=pts,
            limit=2000, full_output=True,
        )
        if not info.success:
            raise QuadratureError(
                f"quad_vec did not converge on [{a}, {b}]"
                + (" (log-mapped)" if seg.log else ""),
                partial=complex(np.sum(val)) if np.iscomplexobj(val) else float(np.sum(val)),
                residual=float(err),
            )
        total = val if total is None else total + val
        err_total += float(err)
    if total is None:
        raise ValueError("no segments to integrate")
    return total, err_total


def _log_mapped(func, seg: Segment):
    """Substitute u = log|x| on a sign-definite segment."""
    if seg.lo > 0:
        a, b = np.log(seg.lo), np.log(seg.hi)
        return (lambda u: func(np.exp(u)) * np.exp(u)), a, b
    a, b = np.log(-seg.hi), np.log(-seg.lo)
    return (lambda u: func(-np.exp(u)) * np.exp(u)), a, b


def tail_segments(
    core_radius: float,
    decay_exponent: float,
    decay_coef: float,
    abs_tol: float,
) -> tuple[list[Segment], float]:
    """Log-mapped two-sided tail segments for a 1-D integrand bounded by
    ``decay_coef * |x|**(-decay_exponent)`` beyond ``core_radius``.

    Returns the segments plus the analytic residual beyond their reach; the
    residual is what the caller should add to its error estimate.
    """
    p = decay_exponent
    if p <= 1.0:
        raise QuadratureError(
            f"tail decay exponent {p} <= 1: integral diverges", residual=np.inf)
    # radius where the analytic remainder 2*coef*R^(1-p)/(p-1) drops below tol
    if decay_coef <= 0.0:
        return [], 0.0
    r_needed = (2.0 * decay_coef / ((p - 1.0) * max(abs_tol, 1e-300))) ** (1.0 / (p - 1.0))
    r_max = min(max(r_needed, 2.0 * core_radius),
                core_radius * np.exp(_MAX_LOG_RANGE))
    residual = 2.0 * decay_coef * r_max ** (1.0 - p) / (p - 1.0)
    if r_max <= core_radius * (1 + 1e-12):
        return [], residual
    return (
        [Segment(core_radius, r_max, log=True), Segment(-r_max, -core_radius, log=True)],
        residual,
    )


def integrate_box(
    func: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Vector-valued integral over an axis-aligned box in d <= 3 dimensions.

    ``func`` maps a point of shape (d,) to a 1-D array.  Dimensions are
    peeled off recursively with quad_vec; error estimates are summed across
    levels, which is pessimistic but safe.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not 1 <= lo.size <= 3:
        raise ValueError("integrate_box supports boxes in 1..3 dimensions")
    inner_err = 0.0

    def level(prefix: tuple[float, ...], k: int):
        nonlocal inner_err
        if k == lo.size - 1:
            return lambda x: func(np.array(prefix + (x,)))

        def g(x):
            nonlocal inner_err
            val, err, info = quad_vec(
                level(prefix + (x,), k + 1), lo[k + 1], hi[k + 1],
                epsabs=abs_tol, epsrel=rel_tol, limit=500, full_output=True)
            if not info.success:
                raise QuadratureError(
                    f"inner quad_vec failed at depth {k + 1}", residual=float(err))
            inner_err = max(inner_err, float(err))
            return val

        return g

    val, err, info = quad_vec(level((), 0), lo[0], hi[0], epsabs=abs_tol,
                              epsrel=rel_tol, limit=500, full_output=True)
    if not info.success:
        raise QuadratureError("outer quad_vec failed", residual=float(err))
    return val, float(err) + inner_err


def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit y ~ amp * x**expo on positive data.

    Returns (amp, expo, max_log_residual).  Points with y <= 0 are dropped;
    fitting needs at least two surviving points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    if keep.sum() < 2:
        raise ValueError("power-law fit needs at least two positive points")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    expo, logc = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (logc + expo * lx))))
    return float(np.exp(logc)), float(expo), resid
