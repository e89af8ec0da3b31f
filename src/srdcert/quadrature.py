"""Batched adaptive quadrature shared by the analytic modules.

One global-adaptive Gauss-Kronrod engine (10-point Gauss, 21-point
Kronrod) does every integral.  It follows the scheme of
:func:`scipy.integrate.quad_vec` and the QUADPACK error estimate
(Piessens et al., *QUADPACK*, 1983), with one difference: each round
bisects the worst intervals and evaluates all nodes of all their halves in
one vectorized integrand call, so the Python cost is per round, not per
node.  Rounds are evaluated in chunks of at most ``_CHUNK_ELEMENTS``
integrand values to bound memory.

Integrand contract: ``func`` takes n nodes, shape (n,) on segments and
(n, d) in boxes, and returns an (n, k) array, real or complex.  Callers
describe *where* the integrand lives (linear segments near the origin,
log-mapped segments for slowly decaying tails, boxes in d <= 3) and get
back the k integral values plus an additive error estimate.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

# Default tolerances for the inner adaptive passes.  Callers that need the
# error bookkeeping tighter (certification) pass their own.
DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10

# Hard ceiling on log-mapped tail range: exp(80) ~ 5.5e34.
_MAX_LOG_RANGE = 80.0

# Interval limits of one adaptive pass on a segment and on a box axis.
_SEGMENT_LIMIT = 2000
_BOX_LIMIT = 500
# Most intervals bisected in one round.
_ROUND_INTERVALS = 128
# Most integrand values (nodes x k) requested in one call; a single
# interval is evaluated whole even when its 21 nodes exceed this.
_CHUNK_ELEMENTS = 2 ** 16

# Gauss-Kronrod 21-point nodes on [-1, 1], descending; the 10 Gauss nodes
# sit at the odd indices.
_K21_HALF = (0.995657163025808080735527280689003,
             0.973906528517171720077964012084452,
             0.930157491355708226001207180059508,
             0.865063366688984510732096688423493,
             0.780817726586416897063717578345042,
             0.679409568299024406234327365114874,
             0.562757134668604683339000099272694,
             0.433395394129247190799265943165784,
             0.294392862701460198131126603103866,
             0.148874338981631210884826001129720)
_K21_NODES = np.array(_K21_HALF + (0.0,) + tuple(-x for x in reversed(_K21_HALF)))
_G10_HALF = (0.066671344308688137593568809893332,
             0.149451349150580593145776339657697,
             0.219086362515982043995534934228163,
             0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
_G10_WEIGHTS = np.array(_G10_HALF + tuple(reversed(_G10_HALF)))
_K21_HALF_WEIGHTS = (0.011694638867371874278064396062192,
                     0.032558162307964727478818972459390,
                     0.054755896574351996031381300244580,
                     0.075039674810919952767043140916190,
                     0.093125454583697605535065465083366,
                     0.109387158802297641899210590325805,
                     0.123491976262065851077958109831074,
                     0.134709217311473325928054001771707,
                     0.142775938577060080797094273138717,
                     0.147739104901338491374841515972068)
_K21_WEIGHTS = np.array(_K21_HALF_WEIGHTS + (0.149445554002916905664936468389821,)
                        + tuple(reversed(_K21_HALF_WEIGHTS)))


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


# ---------------------------------------------------------------------------
# the engine


def _gk21(func, lo: np.ndarray, hi: np.ndarray, width: int | None):
    """The GK21 rule on the intervals [lo_i, hi_i].

    Returns (integrals (m, k), errors (m,), rounding errors (m,), k).  The
    error is QUADPACK's dabs * min(1, (200 err / dabs)**1.5), never below
    the rounding term 50 eps h integral |f|; both are 2-norms over the k
    components.  Intervals go to ``func`` in chunks of at most
    ``_CHUNK_ELEMENTS`` values; ``width`` is k when known, else the first
    chunk holds one interval.
    """
    parts = []
    start, m = 0, len(lo)
    while start < m:
        step = 1 if width is None else max(1, _CHUNK_ELEMENTS // (21 * width))
        a, b = lo[start:start + step], hi[start:start + step]
        start += step
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        nodes = c[:, None] + h[:, None] * _K21_NODES
        fv = np.asarray(func(nodes.ravel()))
        fv = fv.reshape(len(a), 21, fv.shape[-1])
        width = fv.shape[-1]
        s_k = _K21_WEIGHTS @ fv
        s_g = _G10_WEIGHTS @ fv[:, 1::2]
        s_k_abs = _K21_WEIGHTS @ np.abs(fv)
        s_k_dabs = _K21_WEIGHTS @ np.abs(fv - 0.5 * s_k[:, None])
        hc = h[:, None]
        err = np.linalg.norm((s_k - s_g) * hc, axis=1)
        dabs = np.linalg.norm(s_k_dabs * hc, axis=1)
        scaled = (dabs != 0) & (err != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(scaled,
                           dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5), err)
        rnd = np.linalg.norm(50.0 * sys.float_info.epsilon * hc * s_k_abs, axis=1)
        err = np.where(rnd > sys.float_info.min, np.maximum(err, rnd), err)
        parts.append((hc * s_k, err, rnd))
    ig, err, rnd = (np.concatenate(p) for p in zip(*parts))
    return ig, err, rnd, width


def _adaptive(func, a: float, b: float, points: Sequence[float], abs_tol: float,
              rel_tol: float, limit: int) -> tuple[np.ndarray, float, str | None]:
    """Global-adaptive GK21 over [a, b], first split at ``points``.

    Each round pops the worst intervals, at most ``_ROUND_INTERVALS``, until
    the popped error exceeds global error - tol/8, bisects them and
    evaluates the halves together.  The pass stops once it holds at least
    two intervals and the global error drops below tol/8 (converged) or
    below the summed rounding error, when the error turns non-finite, or
    when it holds ``limit`` intervals; tol = max(abs_tol, rel_tol * |I|)
    in the 2-norm.  Returns (values, error, failure message or None); the
    error includes the summed rounding error.
    """
    edges = [a] + sorted(p for p in set(points) if a < p < b) + [b]
    ig, err, rnd, width = _gk21(func, np.array(edges[:-1]), np.array(edges[1:]), None)
    total = ig.sum(axis=0)
    global_error = float(err.sum())
    rounding_error = float(rnd.sum())
    values = list(ig)
    heap = [(-e, lo, hi, i) for i, (e, lo, hi) in
            enumerate(zip(err.tolist(), edges[:-1], edges[1:]))]
    heapq.heapify(heap)
    failure = "target precision not reached"
    while heap and len(heap) < limit:
        tol = max(abs_tol, rel_tol * float(np.linalg.norm(total)))
        picked, err_sum = [], 0.0
        while heap and len(picked) < _ROUND_INTERVALS:
            if picked and err_sum > global_error - tol / 8:
                break
            picked.append(heapq.heappop(heap))
            err_sum -= picked[-1][0]
        neg_err, lo, hi, idx = (np.array(col) for col in zip(*picked))
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        ig, err, rnd, width = _gk21(func, left, right, width)
        m = len(picked)
        old = np.stack([values[i] for i in idx.tolist()])
        total = total + (ig[:m] + ig[m:] - old).sum(axis=0)
        global_error += float((err[:m] + err[m:] + neg_err).sum())
        rounding_error += float((rnd[:m] + rnd[m:]).sum())
        n = len(values)
        values.extend(ig)
        for j, (e, x1, x2) in enumerate(zip(err.tolist(), left.tolist(), right.tolist())):
            heapq.heappush(heap, (-e, x1, x2, n + j))
        if len(heap) >= 2:
            tol = max(abs_tol, rel_tol * float(np.linalg.norm(total)))
            if global_error < tol / 8:
                failure = None
                break
            if global_error < rounding_error:
                failure = "rounding error dominates the target precision"
                break
        if not (np.isfinite(global_error) and np.isfinite(rounding_error)):
            failure = "non-finite values encountered"
            break
    return total, global_error + rounding_error, failure


def integrate_segments(
    func: Callable[[np.ndarray], np.ndarray],
    segments: Sequence[Segment],
    breakpoints: Sequence[float] = (),
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[np.ndarray, float]:
    """Integrate a vector-valued ``func`` over a union of segments.

    ``func`` maps an (n,) array of points to an (n, k) array, real or
    complex.  Each segment gets its own adaptive pass, split at the
    ``breakpoints`` inside it (log-mapped segments ignore them).  Returns
    the k summed values and the summed error estimate.  Raises
    :class:`QuadratureError` if any pass fails to converge.
    """
    total = None
    err_total = 0.0
    for seg in segments:
        if seg.log:
            g, a, b = _log_mapped(func, seg)
            pts = ()
        else:
            g, a, b = func, seg.lo, seg.hi
            pts = breakpoints
        val, err, failure = _adaptive(g, a, b, pts, abs_tol, rel_tol, _SEGMENT_LIMIT)
        if failure:
            raise QuadratureError(
                f"adaptive quadrature failed on [{a}, {b}]"
                + (" (log-mapped)" if seg.log else "") + f": {failure}",
                partial=complex(np.sum(val)) if np.iscomplexobj(val) else float(np.sum(val)),
                residual=float(err))
        total = val if total is None else total + val
        err_total += float(err)
    if total is None:
        raise ValueError("no segments to integrate")
    return total, err_total


def _log_mapped(func, seg: Segment):
    """Substitute u = log|x| on a sign-definite segment."""
    if seg.lo > 0:
        a, b = np.log(seg.lo), np.log(seg.hi)
        return (lambda u: func(np.exp(u)) * np.exp(u)[:, None]), a, b
    a, b = np.log(-seg.hi), np.log(-seg.lo)
    return (lambda u: func(-np.exp(u)) * np.exp(u)[:, None]), a, b


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

    ``func`` maps an (n, d) array of points to an (n, k) array.  The last
    axis is integrated with batched nodes; each outer axis runs the same
    engine over a function that computes one inner integral per node.  The
    error is the outer estimate plus the largest inner one, which is
    pessimistic but safe.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not 1 <= lo.size <= 3:
        raise ValueError("integrate_box supports boxes in 1..3 dimensions")
    d = lo.size
    inner_err = 0.0

    def level(prefix: tuple[float, ...]):
        k = len(prefix)
        if k == d - 1:
            def innermost(x):
                pts = np.empty((len(x), d))
                pts[:, :k] = prefix
                pts[:, k] = x
                return func(pts)

            return innermost

        def g(x):
            nonlocal inner_err
            rows = []
            for xv in x.tolist():
                val, err, failure = _adaptive(level(prefix + (xv,)), lo[k + 1], hi[k + 1],
                                              (), abs_tol, rel_tol, _BOX_LIMIT)
                if failure:
                    raise QuadratureError(
                        f"inner quadrature failed at depth {k + 1}: {failure}",
                        residual=float(err))
                inner_err = max(inner_err, float(err))
                rows.append(val)
            return np.array(rows)

        return g

    val, err, failure = _adaptive(level(()), lo[0], hi[0], (), abs_tol, rel_tol, _BOX_LIMIT)
    if failure:
        raise QuadratureError(f"outer quadrature failed: {failure}", residual=float(err))
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
