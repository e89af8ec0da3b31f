"""Moving-average kernels: evaluation, supports, norms, compatibility.

A kernel is a deterministic function f on R^d whose shifts weight the
integrator.  Everything the analytic layer needs is carried as metadata:
where f lives (a bounded box or a power-decay envelope), its radial
profile, closed-form norms when available, and breakpoints that keep
quadrature sharp.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import levy
from .errors import DivergentNormError, QuadratureError, RejectionError
from .names import number
from .quadrature import DEFAULT_ABS_TOL, Factored, integrate_box

# Hard ceiling on the reach of a 1-D tail in u = log|x|: exp(80) ~ 5.5e34.
_MAX_LOG_RANGE = 80.0


@dataclass(frozen=True)
class BoundedBox:
    """Axis-aligned box outside which the kernel vanishes identically."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise RejectionError("support-box", "box bounds must align")
        if any(not (a < b) for a, b in zip(lo, hi)):
            raise RejectionError("support-box", f"empty box {lo}..{hi}")
        if any(not math.isfinite(v) for v in lo + hi):
            raise RejectionError("support-box", "box bounds must be finite")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        """Largest per-axis extent; shifts farther apart cannot overlap."""
        return max(b - a for a, b in zip(self.lo, self.hi))

    def volume(self) -> float:
        out = 1.0
        for a, b in zip(self.lo, self.hi):
            out *= b - a
        return out


@dataclass(frozen=True)
class DecayEnvelope:
    """Power-decay bound |f(x)| <= amplitude * |x|**(-exponent) for |x| >= radius."""

    radius: float
    exponent: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise RejectionError("support-envelope", f"radius={self.radius} must be positive")
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise RejectionError("support-envelope", f"exponent={self.exponent} must be positive")
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise RejectionError("support-envelope", "amplitude must be positive")


Support = Union[BoundedBox, DecayEnvelope]


@dataclass(frozen=True)
class Profile:
    """f(x) = phi(||x - center||) with phi non-increasing in the radius.

    ``phi`` maps an array of radii to values; the single-point integrals
    take it to end at ``reach`` (inf under a decay envelope).  ``norm`` is
    2, or inf for the l-infinity norm whose balls are boxes; in d = 1 both
    are |x - c|.  ``step`` promises phi = 1 below ``reach``: f is then the
    indicator of a ball.  Such an f is symmetric unimodal about its center,
    so by Anderson's theorem (Proc. AMS 6, 1955) every overlap
    integral |f(t-x) f(-x)|**q dx is non-increasing along rays t = rho e,
    and its level sets are balls, so an integral of g(f(x)) is one
    integral in the radius.  ``radius`` inverts phi: it maps levels
    0 < y < ``peak`` to the radius where phi falls through y, the radius of
    the ball {f > y}; a step has none, since its only level is its face.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    reach: float
    center: tuple[float, ...]
    norm: float = 2.0
    step: bool = False
    radius: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def peak(self) -> float:
        """phi(0), the kernel's largest value."""
        return float(self.phi(np.zeros(1))[0])

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """phi(||x - center||) at the (n, d) points."""
        if pts.shape[1] == 1:
            return self.phi(np.abs(pts[:, 0] - self.center[0]))
        return self.phi(np.linalg.norm(pts - self.center, ord=self.norm, axis=1))

    def volume(self, dim: int, radius: float = 1.0) -> float:
        """Measure of the ball of ``radius`` in R^dim: (2 radius)**dim for a
        box, else 2 pi**(dim/2) / (dim Gamma(dim/2)) radius**dim."""
        if self.norm == math.inf:
            return (2.0 * radius) ** dim
        return 2.0 * math.pi ** (dim / 2.0) / (dim * math.gamma(dim / 2.0)) * radius ** dim


@dataclass(frozen=True, eq=False)
class Kernel:
    """Kernel function plus the metadata the analytic layer consumes.

    ``func`` maps an (n, dim) array of points to n values, by default the
    ``profile``; evaluation goes through ``__call__`` which masks box
    supports to exact zeros outside.  Every built-in kernel is its
    :class:`Profile`, and a decay envelope needs one; tabulated kernels
    have none.  ``closed_norms`` maps an order p to the exact L^p norm,
    asked only where the norm is finite.  ``closed_overlap(lags, gamma)``
    maps (L, dim) lags to the exact integral
    |f(t-x) f(-x)|**(gamma/2) dx / ||f||_gamma^gamma at each, and
    ``closed_exceedance(r, gamma)`` is the measure of {t: overlap > r}.
    ``knots`` lists interior breakpoints (kinks, jumps) passed on to
    quadrature: points on the line in d = 1, radii of a profile's
    single-point integrals in d >= 2.
    """

    dim: int
    support: Support
    func: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""
    closed_norms: Callable[[float], float] | None = None
    closed_overlap: Callable[[np.ndarray, float], np.ndarray] | None = None
    closed_exceedance: Callable[[float, float], float] | None = None
    knots: tuple[float, ...] = ()
    profile: Profile | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise RejectionError("kernel-dim", f"dim={self.dim} unsupported")
        if isinstance(self.support, BoundedBox) and self.support.dim != self.dim:
            raise RejectionError("kernel-dim", "support box dimension mismatch")
        if isinstance(self.support, DecayEnvelope) and self.dim != 1:
            raise RejectionError("kernel-dim", f"a decay envelope needs dim 1, got {self.dim}")
        if isinstance(self.support, DecayEnvelope) and self.profile is None:
            raise RejectionError("kernel-profile", "a decay envelope needs a profile")
        if self.func is None:
            object.__setattr__(self, "func", self.profile)

    @property
    def even(self) -> bool:
        """f(-x) = f(x) bit for bit: a profile centred at 0.  It makes every
        dependence numerator symmetric in its two frequencies."""
        return self.profile is not None and not any(self.profile.center)

    def __call__(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts.reshape(1, -1) if self.dim > 1 else pts.reshape(-1, 1)
            squeeze = self.dim > 1
        elif pts.ndim == 2 and pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, kernel has {self.dim}")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        vals = np.asarray(self.func(pts), dtype=float).reshape(pts.shape[0])
        if isinstance(self.support, BoundedBox):
            lo = np.asarray(self.support.lo)
            hi = np.asarray(self.support.hi)
            inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            vals = np.where(inside, vals, 0.0)
        return vals[0] if squeeze else vals


# ---------------------------------------------------------------------------
# built-in kernels


def box_kernel(lo: float = 0.0, hi: float = 1.0, dim: int = 1) -> Kernel:
    """Indicator of the box [lo, hi]^dim: a step profile in the l-infinity norm.

    The overlap at lag t is prod(1 - |t_i|/L)+, L = hi - lo, for every
    gamma: a product of d uniform variables on the lags' 2L-cube, so it
    exceeds r on the measure (2L)^d (1 - r sum_{k<d} ln(1/r)**k / k!).
    """
    if not lo < hi:
        raise RejectionError("kernel-box", f"need lo < hi, got {lo} >= {hi}")
    length = float(hi) - float(lo)

    def overlap(lags: np.ndarray, gamma: float) -> np.ndarray:
        return np.prod(np.maximum(1.0 - np.abs(lags) / length, 0.0), axis=1)

    def exceedance(r: float, gamma: float) -> float:
        below = r * sum(math.log(1.0 / r) ** k / math.factorial(k) for k in range(dim))
        return (2.0 * length) ** dim * (1.0 - below)

    return Kernel(
        dim=dim,
        support=BoundedBox((lo,) * dim, (hi,) * dim),
        name=f"box[{number(lo)},{number(hi)}]^{dim}",
        closed_overlap=overlap,
        closed_exceedance=exceedance,
        profile=Profile(np.ones_like, length / 2.0, ((lo + hi) / 2.0,) * dim, math.inf,
                        step=True),
    )


def tent_kernel(half_width: float = 1.0) -> Kernel:
    """(1 - |x|/w)+ on [-w, w], one-dimensional."""
    if not half_width > 0:
        raise RejectionError("kernel-tent", "half_width must be positive")
    w = float(half_width)
    return Kernel(
        dim=1,
        support=BoundedBox((-w,), (w,)),
        name=f"tent(w={number(w)})",
        closed_norms=lambda p: (2.0 * w / (p + 1.0)) ** (1.0 / p),
        knots=(0.0,),
        profile=Profile(lambda r: np.maximum(1.0 - r / w, 0.0), w, (0.0,),
                        radius=lambda y: w * (1.0 - y)),
    )


def gaussian_kernel(dim: int = 1, width: float = 1.0) -> Kernel:
    """exp(-|x/width|^2), truncated to exact zero where it is < 5e-32.

    |f(t-x) f(-x)|**(gamma/2) = exp(-gamma |t|^2 / (4 w^2)) |f(x - t/2)|**gamma
    makes that factor the overlap, above r on the ball of radius
    w sqrt(4 ln(1/r) / gamma); the cut changes either by < 1e-30.
    """
    if not width > 0:
        raise RejectionError("kernel-gaussian", "width must be positive")
    w = float(width)
    cut = 8.5 * w
    profile = Profile(lambda r: np.exp(-(r / w) ** 2), cut, (0.0,) * dim,
                      radius=lambda y: w * np.sqrt(-np.log(y)))

    def norm(p: float) -> float:
        return (w * math.sqrt(math.pi / p)) ** (dim / p)

    def overlap(lags: np.ndarray, gamma: float) -> np.ndarray:
        return np.exp(-gamma * np.sum(lags ** 2, axis=1) / (4.0 * w * w))

    def exceedance(r: float, gamma: float) -> float:
        return profile.volume(dim, w * math.sqrt(4.0 * math.log(1.0 / r) / gamma))

    return Kernel(
        dim=dim,
        support=BoundedBox((-cut,) * dim, (cut,) * dim),
        name=f"gaussian(w={number(w)})^{dim}",
        closed_norms=norm,
        closed_overlap=overlap,
        closed_exceedance=exceedance,
        profile=profile,
    )


def powerlaw_kernel(exponent: float, radius: float = 1.0) -> Kernel:
    """min(1, (|x|/radius)**(-exponent)) on the line; heavy algebraic tails."""
    if not exponent > 0:
        raise RejectionError("kernel-powerlaw", "exponent must be positive")
    r0 = float(radius)
    beta = float(exponent)

    def norm(p: float) -> float:
        pb = p * beta
        return (2.0 * r0 * pb / (pb - 1.0)) ** (1.0 / p)

    return Kernel(
        dim=1,
        support=DecayEnvelope(radius=r0, exponent=beta, amplitude=r0 ** beta),
        name=f"powerlaw(beta={number(beta)},r0={number(r0)})",
        closed_norms=norm,
        knots=(-r0, r0),
        profile=Profile(lambda r: np.maximum(r / r0, 1.0) ** -beta, math.inf, (0.0,),
                        radius=lambda y: r0 * y ** (-1.0 / beta)),
    )


def tabulated_kernel(axes: tuple[np.ndarray, ...], values: np.ndarray,
                     name: str = "table") -> Kernel:
    """Multilinear interpolation of sampled values on a rectangular grid,
    zero outside the grid's bounding box."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    values = np.asarray(values, dtype=float)
    dim = len(axes)
    if values.shape != tuple(len(a) for a in axes):
        raise RejectionError("kernel-table", "value grid does not match axes")
    if not np.all(np.isfinite(values)):
        raise RejectionError("kernel-table", "values must be finite")
    for a in axes:
        if len(a) < 2 or np.any(np.diff(a) <= 0):
            raise RejectionError("kernel-table", "axes must be strictly increasing")

    def f(pts: np.ndarray) -> np.ndarray:
        # the cell of each point along each axis and its offset there;
        # Kernel.__call__ sets zero outside the grid
        cells = [np.clip(np.searchsorted(a, x, side="right") - 1, 0, len(a) - 2)
                 for a, x in zip(axes, pts.T)]
        frac = [(x - a[i]) / (a[i + 1] - a[i]) for a, x, i in zip(axes, pts.T, cells)]
        out = np.zeros(len(pts))
        for corner in itertools.product((0, 1), repeat=dim):
            weight = np.prod([t if c else 1.0 - t for c, t in zip(corner, frac)], axis=0)
            out += weight * values[tuple(i + c for i, c in zip(cells, corner))]
        return out

    knots = tuple(float(v) for v in axes[0][1:-1][:200]) if dim == 1 else ()
    return Kernel(
        dim=dim,
        func=f,
        support=BoundedBox(tuple(float(a[0]) for a in axes),
                           tuple(float(a[-1]) for a in axes)),
        name=name,
        knots=knots,
    )


# ---------------------------------------------------------------------------
# norms


@lru_cache(maxsize=4096)
def _lp_power_integral(kernel: Kernel, p: float) -> tuple[float, float]:
    """(integral of |f|^p, error estimate), p > 0: a registered closed norm,
    else ``integrate_over_support``.  Raises DivergentNormError when the
    decay envelope says p * exponent <= dim."""
    sup = kernel.support
    if isinstance(sup, DecayEnvelope) and p * sup.exponent <= kernel.dim:
        raise DivergentNormError(
            f"L^{p:g} norm diverges: decay exponent {sup.exponent:g} * {p:g}"
            f" <= dim {kernel.dim}")
    if kernel.closed_norms is not None:
        return float(kernel.closed_norms(p)) ** p, 0.0
    val, err = integrate_over_support(kernel, lambda fv, _: np.abs(fv.T) ** p,
                                      np.zeros((1, 1, kernel.dim)), [(p, 1.0)])
    return float(val[0, 0]), float(err[0])


# ---------------------------------------------------------------------------
# integrals over the support


def integrate_over_support(kernel: Kernel, integrand, shifts: np.ndarray, growth=(),
                           half: bool = False, levels=None) -> tuple[np.ndarray, np.ndarray]:
    """P integrals, problem p giving integral g_p(f(t_1 - x), ..., f(t_m - x)) dx.

    ``shifts`` is a (P, m, d) array holding the shifts t_1..t_m of each
    problem.  ``integrand(fv, p)`` maps an (m, n) array of kernel values,
    column j holding f(t_1 - x_j), ..., f(t_m - x_j), and the problem of
    each point to the (n, k) values of g, or to a
    :class:`~srdcert.quadrature.Factored` value of those columns, whose
    first factor carries the Jacobian of a log tail or a graded piece;
    each batch of points costs one kernel call.  g must vanish wherever
    any kernel value does, so a
    box support is integrated over the intersection of the shifted boxes,
    and an empty intersection gives exact zeros.  The faces of the
    intersection, and the shifted 1-D knots inside it, cut every axis, so
    no interval straddles a face or knot where f may jump.

    ``levels`` (P, L) holds positive kernel values of each problem where g
    kinks or completes a period as a function of the kernel values, such
    as the periods of 1 - cos(a s v) in v.  On a profile with a
    ``radius`` the domain is cut wherever a shifted kernel crosses one of
    them: at x = t_j - c +- radius(y) on the line (d = 1), c the center,
    and at r = radius(y) in a radial pass; levels at or above the peak cut
    nothing, and two-point problems in d >= 2 take no level cuts.

    ``growth`` states how g grows in the kernel values: terms
    (gamma_k, C_k), C_k a number or one value per problem, promising
    |g| <= sum_k C_k v**gamma_k wherever every |f(t_j - x)| <= v.  Under a
    decay envelope |f(x)| <= amp |x|**(-beta) this alone sets the tail:
    beyond the core |x| >= 4, every |t_j - x| >= |x|/2, so g is bounded by
    sum_k C_k (amp 2**beta)**gamma_k |x|**(-beta min gamma), the minimum
    over terms with a nonzero C_k, and the bound on what the domain leaves
    out is added to the error.  The domain is the core, cut at the
    shifted faces +-radius and knots, and two tails in u = log|x|, the
    three summed per problem (an envelope is 1-D).

    On a box support in d = 1 ``growth`` also says where g is smooth.  A
    face of the intersection is soft where the shifted kernel value that
    ends there is 0 (f at the support's face is 0, as for the tent); near
    it g behaves like that value to a power, (x - a)**(gamma/2) for a
    dependence numerator.  A problem whose growth terms with a nonzero C_k
    are all below v**2 (a stable part; the linear term that bounds an
    imaginary part rides along) integrates each piece that ends on a soft
    face in a graded coordinate (``_graded``): x = a + h v**2 toward one
    soft end, a + h v**2 (3 - 2 v) when both ends are soft, whose
    derivatives vanish there, so (x - a)**(1/2) becomes smooth in v and a
    pass converges in a few rounds instead of one bisection toward the
    face per round.  The map reads only the problem's own faces and cuts.
    Step, Gaussian and power-law kernels have no soft face, and a v**2
    term (Gaussian, Poisson or tabulated parts, smooth in v) keeps plain
    coordinates.

    ``half`` keeps only the half-space x_1 >= c, c the mean of a problem's
    shifts on axis 0 (t/2 for the shifts (t, 0)): a box intersection's
    lower face on axis 0 moves up to c, and an envelope keeps its core
    from c and the right-hand tail.  It serves an integrand whose integral
    over the other half is folded into it, and ``growth`` bounds that
    folded integrand.

    A problem with one shift on a profiled kernel is the integral of
    g(f(x)) over R^d, whatever the shift, and f's level sets are balls.  A
    step profile gives g(1) times the ball's measure, with error 0 and no
    engine pass, in every dimension.  A profile of finite reach makes it
    one integral in the radius, over [0, reach] with the weight
    d V r**(d-1), V the unit ball's measure (2 on the line, where a knot
    at x is the radius |x - c|); the power law, of infinite reach, stays
    on the line with its log tails.

    All problems share one ``integrate_box`` call in every dimension, at
    its default tolerances.  Returns the values (P, k) and errors (P,); a
    failure names the failing problem p, "integral p of P" when P > 1,
    whichever of its boxes failed.
    """
    sup = kernel.support
    d = kernel.dim
    sh = np.asarray(shifts, dtype=float)
    n_prob, m = sh.shape[:2]

    prof = kernel.profile
    # the radius of each problem's levels, inf where a level cuts nothing
    rho = np.zeros((n_prob, 0))
    if levels is not None and prof is not None and prof.radius is not None:
        y, peak = np.asarray(levels, dtype=float).reshape(n_prob, -1), prof.peak
        rho = np.where(y < peak, prof.radius(np.minimum(y, peak)), np.inf)
    terms = [(gamma, np.zeros(n_prob) + c) for gamma, c in growth]
    terms = [(gamma, c) for gamma, c in terms if np.any(c != 0.0)]
    # rough where every growth term is nonzero and below v**2
    rough = np.full(n_prob, bool(terms))
    for gamma, c in terms:
        rough &= (c != 0.0) & (gamma < 2.0)

    if prof is not None and m == 1 and not half and math.isfinite(prof.reach):
        if prof.step:
            vals = integrand(np.ones((1, n_prob)), np.arange(n_prob))
            return vals * prof.volume(d, prof.reach), np.zeros(n_prob)
        shell = d * prof.volume(d)
        knots = np.abs(np.subtract(kernel.knots, prof.center[0])) if d == 1 else kernel.knots
        ends = np.tile(np.append([0.0, prof.reach], knots), (n_prob, 1))
        radii = np.concatenate((ends, rho), axis=1).clip(0.0, prof.reach)
        # the reach is a soft face where phi ends at 0, as on the line
        soft = np.zeros((n_prob, 2), dtype=bool)
        soft[:, 1] = rough & (prof.phi(np.array([prof.reach]))[0] == 0.0)
        to_radius = _graded(radii, soft) if soft.any() else lambda u, p: (u, 1.0)

        def shells(u: np.ndarray, p: np.ndarray) -> np.ndarray:
            r, jac = to_radius(u[:, 0], p)
            return integrand(prof.phi(r)[None], p) * (shell * r ** (d - 1) * jac)[:, None]

        return integrate_box(shells, radii[:, :, None])

    # Each problem becomes boxes, given as corner sets: the intersection of
    # the shifted boxes, or under an envelope a core with two tails
    # in u = log|x| that sign = +-1 maps to x = sign e^u.  The shifted knots
    # inside a box cut it.  owner is the problem of each box; residual bounds
    # what a problem's boxes leave out.
    knots = np.subtract.outer(sh, kernel.knots).reshape(n_prob, -1, d)
    if d == 1 and rho.size:
        # f(t_j - x) = phi(|t_j - c - x|) crosses level y at x = t_j - c +- rho(y)
        at, ring = sh - prof.center[0], rho[:, None]
        cuts = np.stack((at - ring, at + ring), axis=1).reshape(n_prob, -1, 1)
        knots = np.concatenate((knots, cuts), axis=1)
    residual = np.zeros(n_prob)
    mid = sh[:, :, 0].mean(axis=1)
    to_line = None
    if isinstance(sup, BoundedBox):
        lo = (sh - np.asarray(sup.hi)).max(axis=1, keepdims=True)
        hi = (sh - np.asarray(sup.lo)).min(axis=1, keepdims=True)
        # at lo some f(t_j - x) is f(sup.hi), at hi some is f(sup.lo)
        soft = np.zeros((n_prob, 2), dtype=bool)
        if d == 1:
            soft[:] = rough[:, None] & (kernel(np.array([sup.hi[0], sup.lo[0]])) == 0.0)
        if half:
            soft[:, 0] &= lo[:, 0, 0] >= mid
            lo[..., 0] = np.maximum(lo[..., 0], mid[:, None])
        # an empty intersection makes the integral exactly zero
        owner = (lo < hi).all(axis=(1, 2)).nonzero()[0]
        boxes = np.concatenate((lo, hi, knots.clip(lo, hi)), axis=1)[owner]
        if soft[owner].any():
            to_line = _graded(boxes[:, :, 0], soft[owner])
    else:
        tail_exponent = sup.exponent * min((gamma for gamma, _ in terms), default=math.inf)
        reach = sup.amplitude * 2.0 ** sup.exponent
        coefs = sum((c * reach ** gamma for gamma, c in terms), np.zeros(n_prob)).tolist()
        if tail_exponent <= d:
            raise QuadratureError(
                f"spatial tail exponent {tail_exponent:g} <= dim {d}: integral diverges",
                residual=math.inf)
        # the tail signs, +1 mapping to x = e^u and -1 to x = -e^u
        signs = [1.0] if half else [1.0, -1.0]
        boxes, owner, sign = [], [], []
        for i, t in enumerate(sh):
            core = max(4.0 * sup.radius, 4.0, 2.0 * float(np.max(np.abs(t))) + 2.0 * sup.radius)
            start = mid[i] if half else -core
            owner.append(i)
            sign.append(0.0)
            cuts = np.concatenate((t - sup.radius, t + sup.radius, knots[i]))
            boxes.append(np.concatenate(([[start], [core]], cuts.clip(start, core))))
            if coefs[i] > 0.0:
                # the n tails reach where the remainder n C R**(1-p) / (p-1)
                # drops below the tolerance, or exp(_MAX_LOG_RANGE) times the core
                q = tail_exponent - 1.0
                n_coef = len(signs) * coefs[i]
                r_needed = (n_coef / (q * DEFAULT_ABS_TOL)) ** (1.0 / q)
                r_max = min(max(r_needed, 2.0 * core), core * np.exp(_MAX_LOG_RANGE))
                residual[i] = n_coef * r_max ** (1.0 - tail_exponent) / q
                tail = np.full_like(boxes[-1], np.log(r_max))
                tail[0] = np.log(core)
                boxes += [tail] * len(signs)
                owner += [i] * len(signs)
                sign += signs
        owner, sign = np.array(owner), np.array(sign)
        if sign.any():
            def to_line(u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                """A tail node u at x = sign e^u, with the Jacobian e^u."""
                s = sign[b]
                log_nodes = s != 0.0
                jac = np.ones(len(u))
                jac[log_nodes] = np.exp(u[log_nodes])
                return np.where(log_nodes, s * jac, u), jac

    if not owner.size:
        # a factored integrand value expands to its columns
        zero = np.zeros_like(np.asarray(integrand(np.zeros((m, 1)), np.zeros(1, dtype=int)))[0])
        return np.zeros((n_prob,) + zero.shape, zero.dtype), np.zeros(n_prob)

    def g(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """g at the nodes x of the boxes b, in the boxes' own coordinates."""
        p = owner[b]
        if to_line is not None:
            x, jac = to_line(x[:, 0], b)
        pts = sh[p].swapaxes(0, 1) - np.reshape(x, (1, -1, d))
        vals = integrand(kernel(pts.reshape(-1, d)).reshape(m, -1), p)
        if to_line is None:
            return vals
        return vals.scaled(jac) if isinstance(vals, Factored) else vals * jac[:, None]

    # one engine call in every dimension; a failing box is named by its problem
    vals, errs = integrate_box(
        g, boxes, name=lambda b: f"integral {owner[b]} of {n_prob}" if n_prob > 1 else "")
    # each problem's boxes summed in order: the core, then its tails
    out = np.zeros((n_prob,) + vals.shape[1:], vals.dtype)
    np.add.at(out, owner, vals)
    return out, np.bincount(owner, errs, n_prob) + residual


def _graded(edges: np.ndarray, soft: np.ndarray):
    """The map from the engine's coordinate u to x of 1-D boxes whose ends may be soft.

    Box i spans its corner coordinates ``edges[i]``; ``soft[i]`` flags its
    lower and upper face.  A piece [a, c] between a soft face and the next
    cut keeps its ends, but inside it x is graded in v = (u - a)/(c - a):
    x = a + h v**2 toward a soft a, c - h (1 - v)**2 toward a soft c, and
    the cubic a + h v**2 (3 - 2 v) when both ends are soft, h = c - a.
    Each map's derivative vanishes at the soft end, so (x - a)**(1/2)
    becomes smooth in v.  Every other node keeps x = u.  Returns
    ``to_line(u, b)``, giving x and dx/du at the nodes u of boxes b.
    """
    edges = np.sort(edges, axis=1)
    lo, hi = edges[:, 0], edges[:, -1]
    # the end pieces run to the first cut above lo and the last below hi
    first = np.where(edges > lo[:, None], edges, hi[:, None]).min(axis=1)
    last = np.where(edges < hi[:, None], edges, lo[:, None]).max(axis=1)

    def to_line(u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        left, right = soft[b, 0] & (u < first[b]), soft[b, 1] & (u > last[b])
        x, jac = u.copy(), np.ones(len(u))
        i = (left | right).nonzero()[0]
        left, right, u, b = left[i], right[i], u[i], b[i]
        a, c = np.where(left, lo[b], last[b]), np.where(right, hi[b], first[b])
        v, w = (u - a) / (c - a), (c - u) / (c - a)
        # the shape is taken from the nearer end, so 1 - v never cancels
        from_a = left & (~right | (v <= w))
        r = np.where(from_a, v, w)
        both = left & right
        shape = np.where(both, r * r * (3.0 - 2.0 * r), r * r)
        x[i] = np.where(from_a, a + (c - a) * shape, c - (c - a) * shape)
        jac[i] = np.where(both, 6.0 * v * w, 2.0 * r)
        return x, jac

    return to_line


# ---------------------------------------------------------------------------
# integrator compatibility


@dataclass(frozen=True)
class IntegrabilityCondition:
    """One of the three moment conditions for the kernel-integrator pair."""

    key: str
    finite: bool | None
    value: float
    error: float = 0.0
    note: str = ""


@dataclass(frozen=True)
class IntegrabilityReport:
    kernel_name: str
    triplet_name: str
    conditions: tuple[IntegrabilityCondition, ...]

    @property
    def all_finite(self) -> bool:
        return all(c.finite is True for c in self.conditions)


def check_integrability(kernel: Kernel, triplet: levy.LevyTriplet) -> IntegrabilityReport:
    """Verify the three moment conditions that make the field well defined
    (Rajput & Rosinski, PTRF 82, 1989): the rescaled drift is absolutely
    integrable, the Gaussian part sees a square-integrable kernel, and the
    clipped second jump moment of the rescaled measure integrates over space.

    With no jumps or stable ones (``levy.power_terms``) these are closed
    norms: |a0| integral |f| and, the clipped moment being
    clipped_second_moment(1) |v|**alpha, that constant times integral
    |f|**alpha.  Other jumps integrate their conditions over the support.
    """
    if levy.power_terms(triplet) is not None:
        drift = _norm_condition("drift", kernel, abs(triplet.a0), 1.0, "no drift")
        # no jumps: coefficient 0
        jumps = _norm_condition("jumps", kernel, levy.clipped_second_moment(triplet, 1.0),
                                getattr(triplet.measure, "alpha", 2.0), "no jump part")
    else:
        drift, jumps = _drift_condition(kernel, triplet), _jump_condition(kernel, triplet)
    gaussian = _norm_condition("gaussian", kernel, triplet.b0, 2.0, "no gaussian part")
    return IntegrabilityReport(kernel_name=kernel.name, triplet_name=triplet.name,
                               conditions=(drift, gaussian, jumps))


def _norm_condition(key: str, kernel: Kernel, coef: float, p: float,
                    absent: str) -> IntegrabilityCondition:
    """coef * integral |f|**p, divergent with the L^p norm; the note
    ``absent`` where coef is 0."""
    if coef == 0.0:
        return IntegrabilityCondition(key, True, 0.0, note=absent)
    try:
        return IntegrabilityCondition(key, True, coef * _lp_power_integral(kernel, p)[0])
    except DivergentNormError as exc:
        return IntegrabilityCondition(key, False, math.inf, note=str(exc))


def _drift_condition(kernel: Kernel, triplet: levy.LevyTriplet) -> IntegrabilityCondition:
    key = "drift"
    asympt = abs(triplet.a0 + levy.truncated_mean_shift(triplet, 0.0))
    sup = kernel.support
    if isinstance(sup, DecayEnvelope):
        beta = sup.exponent
        if asympt > 0.0 and beta <= kernel.dim:
            return IntegrabilityCondition(
                key, False, math.inf,
                note=f"drift density ~ {asympt:.3g}*|f|, decay {beta:g} <= dim")
        if asympt == 0.0:
            # beyond r_lock, |f| <= lock so the shift sits at its limit and
            # the integrand is identically zero
            lock = levy.mean_shift_lock_radius(triplet)
            reach = 1.5 * max((sup.amplitude / lock) ** (1.0 / beta), sup.radius)
            kernel = dataclasses.replace(kernel, support=BoundedBox(
                (-reach,) * kernel.dim, (reach,) * kernel.dim))
    # |a0 + shift(v)| <= |a0 + shift(0)| + sup |shift(v) - shift(0)|, the
    # supremum at most the first absolute moment
    shifted = lambda v: np.abs(v) * np.abs(triplet.a0 + levy.truncated_mean_shift(triplet, v))
    return _support_condition(key, kernel, triplet, shifted,
                              asympt + levy.abs_moment(triplet.measure, 1), 1.0)


def _jump_condition(kernel: Kernel, triplet: levy.LevyTriplet) -> IntegrabilityCondition:
    sup = kernel.support
    if isinstance(sup, DecayEnvelope) and 2.0 * sup.exponent <= kernel.dim:
        return IntegrabilityCondition(
            "jumps", False, math.inf, note=f"clipped moment ~ |f|^2, 2*{sup.exponent:g} <= dim")
    # min(1, (yv)**2) <= (yv)**2
    return _support_condition("jumps", kernel, triplet,
                              lambda v: levy.clipped_second_moment(triplet, v),
                              levy.abs_moment(triplet.measure, 2), 2.0)


def _support_condition(key: str, kernel: Kernel, triplet: levy.LevyTriplet, density,
                       coef: float, gamma: float) -> IntegrabilityCondition:
    """integral density(f(x)) dx over the support, density(0) taken as 0,
    given |density(v)| <= coef |v|**gamma.

    A Poisson atom a enters the truncation |a v| <= 1 at the kernel value
    v = 1/|a|, where the drift density jumps and the clipped moment kinks;
    those are the integral's ``levels``.
    """
    m = triplet.measure
    levels = [[1.0 / abs(a) for a in m.atoms]] if isinstance(m, levy.CompoundPoisson) else None
    val, err = integrate_over_support(
        kernel, lambda fv, _: np.where(fv.T == 0.0, 0.0, density(fv.T)),
        np.zeros((1, 1, kernel.dim)), [(gamma, coef)], levels=levels)
    return IntegrabilityCondition(key, True, float(val[0, 0]), float(err[0]))
