"""Batched adaptive quadrature shared by the analytic modules.

One global-adaptive Gauss-Kronrod engine (10-point Gauss, 21-point
Kronrod) does every integral.  It follows the scheme of
:func:`scipy.integrate.quad_vec` and the QUADPACK error estimate
(Piessens et al., *QUADPACK*, 1983), with one difference: each round
bisects the worst intervals and evaluates all nodes of all their halves in
one vectorized integrand call, so the Python cost is per round, not per
node.  Memory is bounded by ``_CHUNK_ELEMENTS`` twice over: a round's
picked intervals are evaluated and folded in groups of whole problems,
whose halves return at most that many values (a problem that alone
returns more is a group of its own), and each group reaches the
integrand in chunks of at most that many elements.

Integrand contract: ``func`` takes n nodes, shape (n, d), with the
integral of each, and returns an (n, k) array, real or complex, or a
:class:`Factored` value: two nonnegative factor tables A (n, n1) and
B (n, n2), the k column pairs (i, j) it wants, and whether each column is
the product a_i b_j or the symmetrised a_i b_j + a_j b_i (``mirror``).
The engine never forms a factored value's columns at the nodes: each
interval's Kronrod and Gauss sums are the batched matrix products
A^T diag(kappa_K) B and A^T diag(kappa_G) B, so a node costs n1 + n2
values instead of k.  Its error estimate replaces QUADPACK's dispersion
sum kappa |f - I/2|, which needs the columns, by the rule-weighted L2
dispersion sqrt(2 sum kappa (f - I/2)**2), read off the product of the
squared factors; by Cauchy-Schwarz (sum kappa = 2) it is never smaller,
and nonnegative factors make the Kronrod sum itself integral |f|.
:func:`integrate_box` is the one entry point, in every dimension 1..3:
callers describe *where* the integrand lives as boxes, each the bounding
box of a set of corner points, and *where it jumps* by further corner
points inside it (shifted faces, kernel knots, breakpoints), at whose
coordinates every axis is cut; they get back the k integral values plus
an additive error estimate.  The whole bounding box is integrated, so a
domain that is a union of boxes needs an integrand that vanishes in the
gaps between them.  Unbounded or slowly decaying ranges, and algebraic
endpoint singularities, are the caller's: it integrates in its own
coordinates, u = log|x| for a power-law tail or a graded u with
x - a ~ u**2 toward a face where the integrand behaves like
(x - a)**(1/2) (Sidi, 1993), and bounds what its boxes leave out.

Problem axis: one pass integrates many independent problems.  Each keeps
its own intervals, tolerance, error, interval limit and failure, and its
bisection decisions read only its own intervals, so it gets the values
and error of its solo pass; only the integrand calls are shared, each
round sending the nodes of every running problem together with the
problem each node belongs to.  ``integrate_box`` takes only batches of P
integrals and returns values (P, k) and errors (P,); a single integral
is a batch of one.  In 1-D each integral is one problem of one pass; in
d >= 2 the inner integrals of each outer round, of every box, are the
problems of one pass on the next axis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

# Default tolerances for the inner adaptive passes.  Callers that need the
# error bookkeeping tighter (certification) pass their own.
DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-10

# Interval limits of one adaptive pass on a line (d = 1) and on each axis
# of a nested box (d >= 2).
_LINE_LIMIT = 2000
_BOX_LIMIT = 500
# Most intervals bisected in one round.
_ROUND_INTERVALS = 128
# Most elements one integrand call allocates: nodes x k values, or a
# factored value's node tables and the working set of its sums
# (``_factored_sums``, which reports it per interval); a single interval is
# evaluated whole even when it exceeds this.  Also the most values (halves
# x k) that one group of a round's problems returns.
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
# the Kronrod weights, and the Gauss weights on the 21 Kronrod nodes
_RULE_WEIGHTS = np.stack((_K21_WEIGHTS, np.zeros(21)))
_RULE_WEIGHTS[1, 1::2] = _G10_WEIGHTS


# ---------------------------------------------------------------------------
# the engine


def _row_norm(a: np.ndarray) -> np.ndarray:
    """2-norm of each row of a real or complex (m, k) array."""
    return np.sqrt(np.add.reduce(np.square(np.abs(a) if a.dtype.kind == "c" else a), axis=1))


def _add_by_problem(out: np.ndarray, p: np.ndarray, x: np.ndarray) -> None:
    """out[p_i] += x_i for the rows of x, p sorted.  Each problem's rows are
    summed on their own, one ``reduceat`` segment each, so its total does
    not depend on the rows of other problems beside it."""
    first = np.ones(len(p), dtype=bool)
    np.not_equal(p[1:], p[:-1], out=first[1:])
    first = first.nonzero()[0]
    out[p[first]] += np.add.reduceat(x, first, axis=0)


def _pick(err: np.ndarray, p: np.ndarray, threshold: np.ndarray):
    """Which of the sorted intervals a round bisects, as an index.

    ``err`` is sorted by (problem, -error) and ``p`` holds the problems.
    Each problem takes its first interval, then the next ones while the
    error it has taken stays within its ``threshold``, at most
    ``_ROUND_INTERVALS``.  The running sums restart at each problem, so a
    large problem does not swamp the sums of a small one.
    """
    if p[0] == p[-1]:
        taken = err[:_ROUND_INTERVALS - 1].cumsum()
        return slice(0, 1 + int(taken.searchsorted(threshold[p[0]], side="right")))
    rank = np.arange(len(p)) - p.searchsorted(p)
    row = (rank == 0).cumsum() - 1
    table = np.zeros((row[-1] + 1, rank.max() + 1))
    table[row, rank] = err
    taken = table.cumsum(axis=1)[row, rank]
    pick = rank < _ROUND_INTERVALS
    pick[1:] &= (rank[1:] == 0) | (taken[:-1] <= threshold[p[1:]])
    return pick


def _groups(p: np.ndarray, cap: int) -> list[slice]:
    """The sorted problems p cut into runs of whole problems, each at most
    ``cap`` long unless one problem alone is longer."""
    if len(p) <= cap:
        return [slice(0, len(p))]
    ends = np.append((p[1:] != p[:-1]).nonzero()[0] + 1, len(p))
    groups, start = [], 0
    while start < len(p):
        # the last problem end within the cap, else the end of the first problem
        i = max(ends.searchsorted(start + cap, side="right") - 1,
                ends.searchsorted(start, side="right"))
        groups.append(slice(start, int(ends[i])))
        start = int(ends[i])
    return groups


@dataclass(frozen=True, eq=False)
class Factored:
    """An integrand value held as two factors instead of its (n, k) columns.

    ``a`` (n, n1) and ``b`` (n, n2) are nonnegative, and ``cols`` names the
    k wanted pairs (i, j) as flat indices i n2 + j of the n1 x n2 grid.
    Column c at node x is a_i(x) b_j(x), or, when ``mirror`` (n1 = n2), the
    symmetrised a_i(x) b_j(x) + a_j(x) b_i(x).  ``np.asarray`` expands it.
    """

    a: np.ndarray
    b: np.ndarray
    cols: np.ndarray
    mirror: bool

    def __array__(self, dtype=None, copy=None):
        i, j = np.divmod(self.cols, self.b.shape[1])
        out = self.a[:, i] * self.b[:, j]
        if self.mirror:
            out += self.a[:, j] * self.b[:, i]
        return out

    def scaled(self, w: np.ndarray) -> "Factored":
        """The value times w (n,) >= 0 at each node, carried by ``a``."""
        return replace(self, a=self.a * w[:, None])


def _expanded_sums(fv: np.ndarray, m: int):
    """Kronrod sums, Gauss sums, QUADPACK dispersions sum kappa |f - s_k/2|
    and Kronrod sums of |f| of an (m 21, k) value, each (m, k), and the
    elements one interval allocates."""
    fv = fv.reshape(m, 21, fv.shape[-1])
    s_k = _K21_WEIGHTS @ fv
    s_g = _G10_WEIGHTS @ fv[:, 1::2]
    s_abs = _K21_WEIGHTS @ np.abs(fv)
    disp = _K21_WEIGHTS @ np.abs(fv - 0.5 * s_k[:, None])
    return s_k, s_g, disp, s_abs, fv[0].size


def _factored_sums(fv: Factored, m: int):
    """The sums of ``_expanded_sums`` for a factored value, as batched matrix
    products of the factor tables A and B at each interval's nodes: the
    Kronrod sums K = A^T diag(kappa_K) B, the Gauss sums likewise, and
    sum kappa f**2 from the squared factors.  A mirror value
    f = a_i b_j + a_j b_i symmetrises each product, and its square adds the
    cross term 2 (a_i b_i)(a_j b_j), which rides in the squares' product as
    21 further nodes.  The dispersion is the L2 one,
    sqrt(2 sum kappa (f - s_k/2)**2) = sqrt(2 sum kappa f**2 - s_k**2),
    clamped at 0, and f >= 0 makes sum kappa |f| the Kronrod sum itself.
    The reported size is what one interval allocates at the peak: its
    factor tables, three n1 x n2 sums and the largest table beside them,
    or the taken sums beside the dispersion's temporaries.  A call adds
    at most one numpy buffer (8192 elements) for its strided products."""
    n1, n2 = fv.a.shape[1], fv.b.shape[1]
    a, b = fv.a.reshape(m, 21, n1), fv.b.reshape(m, 21, n2)
    nodes, k = 42 if fv.mirror else 21, len(fv.cols)
    # (m, 3, n1, n2): the Kronrod, Gauss and squared Kronrod sums
    mats = np.empty((m, 3, n1, n2))
    weighted = np.empty((2, m, 21, n2))
    for rule in (0, 1):
        np.multiply(b, _RULE_WEIGHTS[rule, :, None], out=weighted[rule])
    np.matmul(a.transpose(0, 2, 1)[:, None], weighted.swapaxes(0, 1), out=mats[:, :2])
    del weighted
    left, right = np.empty((m, nodes, n1)), np.empty((m, nodes, n2))
    np.multiply(a, a, out=left[:, :21])
    np.multiply(b, b, out=right[:, :21])
    if fv.mirror:
        np.multiply(a, b, out=left[:, 21:])
        right[:, 21:] = left[:, 21:]
    right *= np.tile(_K21_WEIGHTS, nodes // 21)[:, None]
    np.matmul(left.transpose(0, 2, 1), right, out=mats[:, 2])
    del left, right
    mats = mats.reshape(m, 3, n1 * n2)
    sums = mats.take(fv.cols, axis=2)
    if fv.mirror:
        i, j = np.divmod(fv.cols, n2)
        sums += mats.take(j * n2 + i, axis=2)
    del mats
    s_k, s_g, sq = sums.transpose(1, 0, 2)
    disp = np.sqrt(np.maximum(2.0 * sq - s_k * s_k, 0.0))
    stage = max(42 * n2, nodes * (n1 + n2), 3 * k * (1 + fv.mirror))
    size = 21 * (n1 + n2) + max(3 * n1 * n2 + stage, 6 * k)
    return s_k, s_g, disp, s_k, size


def _gk21(func, prob: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int | None):
    """The GK21 rule on the intervals [lo_i, hi_i] of problems prob_i.

    Returns (integrals (m, k), errors (m,), rounding errors (m,), size).
    The error is QUADPACK's dabs * min(1, (200 err / dabs)**1.5), never
    below the rounding term 50 eps h integral |f|; both are 2-norms over
    the k components.  dabs is h times QUADPACK's dispersion
    sum kappa |f - s_k/2| of an (n, k) value, or the L2 dispersion
    sqrt(2 sum kappa (f - s_k/2)**2) of a :class:`Factored` one, whose
    sums are matrix products of its factors: by Cauchy-Schwarz
    (sum kappa = 2) that is at least QUADPACK's, so where QUADPACK caps
    the error at dabs the cap rises, and elsewhere the estimate shrinks by
    sqrt(L1/L2).  Intervals go to ``func(nodes, problems)`` in chunks of
    at most ``_CHUNK_ELEMENTS`` elements; ``size`` is what one interval
    allocates, when known, else the first chunk holds one interval.
    """
    parts = []
    start, m = 0, len(lo)
    while start < m:
        step = 1 if size is None else max(1, _CHUNK_ELEMENTS // size)
        a, b = lo[start:start + step], hi[start:start + step]
        p = prob[start:start + step]
        start += step
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        nodes = c[:, None] + h[:, None] * _K21_NODES
        fv = func(nodes.ravel(), p.repeat(21))
        if isinstance(fv, Factored):
            s_k, s_g, disp, s_abs, size = _factored_sums(fv, len(a))
        else:
            s_k, s_g, disp, s_abs, size = _expanded_sums(np.asarray(fv), len(a))
        hc = h[:, None]
        err = _row_norm((s_k - s_g) * hc)
        dabs = _row_norm(disp * hc)
        scaled = (dabs != 0) & (err != 0)
        ratio = 200.0 * err / np.where(scaled, dabs, 1.0)
        err = np.where(scaled, dabs * np.minimum(1.0, ratio ** 1.5), err)
        rnd = _row_norm(50.0 * sys.float_info.epsilon * hc * s_abs)
        err = np.where(rnd > sys.float_info.min, np.maximum(err, rnd), err)
        parts.append((hc * s_k, err, rnd))
    if len(parts) == 1:
        return (*parts[0], size)
    ig, err, rnd = (np.concatenate(p) for p in zip(*parts))
    return ig, err, rnd, size


def _adaptive(func, prob: np.ndarray, lo: np.ndarray, hi: np.ndarray, abs_tol: float,
              rel_tol: float, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global-adaptive GK21 over P independent problems in one pass.

    Problem j starts from the intervals [lo_i, hi_i] with prob_i = j;
    ``prob`` is sorted and names every problem 0..P-1.  ``func(x, p)``
    gets the nodes of a round and the problem of each.  In every round
    each running problem picks its worst intervals, at most
    ``_ROUND_INTERVALS``, until the picked error exceeds its global error
    - tol/8, and the halves of the picked intervals are evaluated and
    folded in groups of whole problems (``_groups``), one group when the
    halves' k values fit in ``_CHUNK_ELEMENTS``.  A problem stops once it
    holds at least two intervals and its global error drops below tol/8
    (converged) or below its summed rounding error, when its error turns
    non-finite, or when it holds ``limit`` intervals; tol =
    max(abs_tol, rel_tol * |I|) in the 2-norm.  The decisions of a problem
    read only its own intervals, and its sums only its own rows (one
    ``reduceat`` segment; ``bincount`` adds exact zeros to the problems
    outside a group), so it gets the values and error of its solo pass.
    Returns (values (P, k), errors (P,), failures (P,)): a failure is a
    message, or None where the problem converged; the error includes the
    summed rounding error.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    val, err, rnd, size = _gk21(func, prob, lo, hi, None)
    n_prob = int(prob[-1]) + 1
    total = np.zeros((n_prob, val.shape[1]), dtype=val.dtype)
    _add_by_problem(total, prob, val)
    global_error = np.bincount(prob, err, n_prob)
    rounding_error = np.bincount(prob, rnd, n_prob)
    count = np.bincount(prob, minlength=n_prob)
    tol8 = np.maximum(abs_tol / 8, rel_tol / 8 * _row_norm(total))
    stopped = count >= limit
    n_stopped = 0
    while True:
        if np.count_nonzero(stopped) > n_stopped:
            n_stopped = np.count_nonzero(stopped)
            if n_stopped == n_prob:
                break
            # the interval arrays hold only the intervals of running problems
            keep = ~stopped[prob]
            prob, lo, hi, err = prob[keep], lo[keep], hi[keep], err[keep]
            val = val[:len(keep)][keep]
        order = np.lexsort((lo, -err, prob))
        cp = prob[order]
        pick = _pick(err[order], cp, global_error - tol8)
        picked, pp = order[pick], cp[pick]
        a, b = lo[picked], hi[picked]
        mid = 0.5 * (a + b)
        n, m = len(prob), len(picked)
        if n + m > len(val):
            # the values, k per interval, grow in place by doubling
            val = np.concatenate((val[:n], np.empty((n + m, val.shape[1]), dtype=val.dtype)))
        right_err = []
        for g in _groups(pp, _CHUNK_ELEMENTS // (2 * val.shape[1])):
            at, gp, gm = picked[g], pp[g], mid[g]
            ig, e, r, size = _gk21(func, np.concatenate((gp, gp)), np.concatenate((a[g], gm)),
                                   np.concatenate((gm, b[g])), size)
            h = len(gp)
            _add_by_problem(total, gp, ig[:h] + ig[h:] - val[at])
            global_error += np.bincount(gp, e[:h] + e[h:] - err[at], n_prob)
            rounding_error += np.bincount(gp, r[:h] + r[h:], n_prob)
            # the left half takes the picked interval's place, the right is new
            hi[at], val[at], err[at] = gm, ig[:h], e[:h]
            val[n + g.start:n + g.stop] = ig[h:]
            right_err.append(e[h:])
        count += np.bincount(pp, minlength=n_prob)
        prob, lo, hi = (np.concatenate(pair) for pair in ((prob, pp), (lo, mid), (hi, b)))
        err = np.concatenate((err, *right_err))
        tol8 = np.maximum(abs_tol / 8, rel_tol / 8 * _row_norm(total))
        # every problem has two intervals after its first round
        stopped = ((global_error < np.maximum(tol8, rounding_error))
                   | ~(global_error + rounding_error < np.inf) | (count >= limit))
    # a stopped problem keeps the state it stopped in, so the reason reads off
    # it: converged, else rounding, else non-finite, else the interval limit
    failure = np.full(n_prob, None, dtype=object)
    failed = ~(global_error < tol8)
    if failed.any():
        failure[failed] = "target precision not reached"
        failure[failed & ~(global_error + rounding_error < np.inf)] = \
            "non-finite values encountered"
        failure[failed & (global_error < rounding_error)] = \
            "rounding error dominates the target precision"
    return total, global_error + rounding_error, failure


def integrate_box(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    corners: Sequence[np.ndarray],
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float | None = None,
    name: Callable[[int], str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate P independent vector-valued integrals over boxes in d <= 3.

    Integral p runs over the bounding box of the points ``corners[p]``, a
    (P, c, d) array, each axis cut at every corner coordinate on it as at
    breakpoints.  ``func(x, p)`` maps (n, d) points and the integral of
    each to an (n, k) array or a :class:`Factored` value.  The axes nest:
    the nodes of one round on an outer axis, of every integral, fix the
    leading coordinates of the inner integrals that make up one engine
    pass on the next axis; only that innermost pass sees ``func``'s
    values, and the outer axes integrate its (n, k) results.  A pass holds
    at most ``_LINE_LIMIT`` intervals per problem in 1-D and ``_BOX_LIMIT``
    on a nested axis; ``rel_tol`` defaults to ``DEFAULT_REL_TOL`` in 1-D
    and to 1e-8 in d >= 2.  Returns the values (P, k) and errors (P,): the
    outer estimate plus the integral's largest inner one.  Raises
    :class:`QuadratureError` with the failing problem's value and error;
    on the outer axis it names the integral and its extent on that axis,
    deeper the failing depth.  ``name(p)`` names integral p, by default
    "integral p of P" when there are several; a caller whose integrals
    span several boxes names its own.
    """
    edges = np.sort(np.asarray(corners, dtype=float), axis=1)
    if edges.ndim != 3 or not 1 <= edges.shape[2] <= 3:
        raise ValueError("integrate_box supports boxes in 1..3 dimensions")
    n_int, _, d = edges.shape
    cut = edges[:, :-1] < edges[:, 1:]
    if not cut.any(axis=1).all():
        raise ValueError("empty box")
    if rel_tol is None:
        rel_tol = DEFAULT_REL_TOL if d == 1 else 1e-8
    limit = _LINE_LIMIT if d == 1 else _BOX_LIMIT
    inner_err = np.zeros(n_int)
    if name is None:
        name = lambda p: f"integral {p} of {n_int}" if n_int > 1 else ""

    def axis_pass(prefix: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrals over axes j..d-1, one problem per row of the (n, j) prefix,
        row r in integral top[r] and starting from its pieces on axis j."""
        j = prefix.shape[1]
        rows, piece = cut[top, :, j].nonzero()

        def f(x: np.ndarray, p: np.ndarray) -> np.ndarray:
            # on the outer axis the problems are the integrals themselves
            pts, q = (np.column_stack([prefix[p], x]), top[p]) if j else (x[:, None], p)
            return func(pts, q) if j == d - 1 else axis_pass(pts, q)[0]

        owner = top[rows]
        vals, errs, failure = _adaptive(f, rows, edges[owner, piece, j],
                                        edges[owner, piece + 1, j], abs_tol, rel_tol, limit)
        bad = failure.nonzero()[0]
        if bad.size:
            i = bad[0]
            label = name(int(top[i]))
            if j:
                where = f"inner quadrature failed at depth {j}" + (f" on {label}" if label else "")
            else:
                where = (f"adaptive quadrature failed on {label + ', ' if label else ''}"
                         f"[{float(edges[i, 0, 0])}, {float(edges[i, -1, 0])}]")
            val = vals[i]
            raise QuadratureError(
                f"{where}: {failure[i]}",
                partial=complex(np.sum(val)) if np.iscomplexobj(val) else float(np.sum(val)),
                residual=float(errs[i]))
        if j:
            np.maximum.at(inner_err, top, errs)
        return vals, errs

    vals, errs = axis_pass(np.empty((n_int, 0)), np.arange(n_int))
    return vals, errs + inner_err


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
