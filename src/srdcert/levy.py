"""Integrator triplets and their cumulant function.

An independently scattered, stationary integrator is described by a triplet
``(a0, b0, nu0)``: drift, Gaussian variance density, and jump measure.  Its
cumulant is

    K(s) = -i*s*a0 + 0.5*s**2*b0 - integral(exp(i*s*y) - 1 - i*s*y*1[|y|<=1], nu0(dy))

with Re K >= 0, whose Gaussian and stable parts are the terms c |v|**gamma
of :func:`power_terms`.  Everything downstream (marginal exponents,
dependence ratios, certification) consumes K through the evaluators here.
Each jump type states its moments once, in the law :func:`_moment`; the
absolute moments, the truncated mean shift, the clipped second moment and
the sampler's Poisson compensator all read that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import QuadratureError, RejectionError
from .quadrature import integrate_box

# Jump sizes below this are treated as absent in tabulated measures; the
# compensated integrand scales like y**2 there so the truncation error is
# bounded by density * 3e-25 per unit of tabulated density.
TABLE_INNER_CUTOFF = 1e-8

# Integration-by-parts terms K of the tabulated cumulant's high-phase
# closed form (see _tabulated_jump_cumulant).
_IBP_TERMS = 30
# Most frequencies in one engine pass of the tabulated cumulant.
_TABLE_BLOCK = 1024
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# measure variants


@dataclass(frozen=True)
class NoJumps:
    """Empty jump measure."""

    name = ""


NO_JUMPS = NoJumps()


@dataclass(frozen=True)
class SymmetricStable:
    """Jump density scale * |y|**(-1-alpha) on both half-lines, 0 < alpha < 2."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise RejectionError("stable-alpha", f"alpha={self.alpha} outside (0, 2)")
        if not self.scale > 0.0 or not math.isfinite(self.scale):
            raise RejectionError("stable-scale", f"scale={self.scale} must be positive")

    @property
    def name(self) -> str:
        return f"stable(alpha={self.alpha:g})"


@dataclass(frozen=True)
class CompoundPoisson:
    """Finite jump measure rate * sum_i weights[i] * delta(atoms[i]); the
    weights default to equal."""

    rate: float
    atoms: tuple[float, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.rate > 0.0 or not math.isfinite(self.rate):
            raise RejectionError("poisson-rate", f"rate={self.rate} must be positive")
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights) if self.weights is not None \
            else tuple(1.0 / len(atoms) for _ in atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if len(atoms) == 0 or len(atoms) != len(weights):
            raise RejectionError("poisson-atoms", "atoms and weights must align and be nonempty")
        if any(not math.isfinite(a) or a == 0.0 for a in atoms):
            raise RejectionError("poisson-atoms", "atoms must be finite and nonzero")
        if any(w <= 0.0 for w in weights):
            raise RejectionError("poisson-weights", "weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise RejectionError("poisson-weights", f"weights sum to {sum(weights)}, not 1")

    @property
    def name(self) -> str:
        return f"poisson(rate={self.rate:g})"


@dataclass(frozen=True)
class TabulatedMeasure:
    """Jump density given on a finite grid of jump sizes.

    The grid must be strictly increasing, stay outside (-cutoff, cutoff),
    and carry both signs or be explicitly one-sided; the density drops to
    zero outside the tabulated range.  Between two adjacent knots of like
    sign it interpolates linearly in log |y|: in log density where both
    knot densities are positive, which makes the piece an exact power law
    c |y|**p, and in the density itself where one of them is zero, which
    makes the piece c0 + c1 log |y|.
    """

    grid: tuple[float, ...]
    density: tuple[float, ...]
    name = "tabulated"
    # one _Side per sign with two knots or more (a lone knot bounds no piece)
    pieces: tuple[_Side, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = tuple(float(g) for g in self.grid)
        dens = tuple(float(d) for d in self.density)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        if len(grid) < 2 or len(grid) != len(dens):
            raise RejectionError("table-shape", "need matching grid/density with >= 2 rows")
        if any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
            raise RejectionError("table-grid", "jump-size grid must be strictly increasing")
        if any(abs(g) < TABLE_INNER_CUTOFF for g in grid):
            raise RejectionError(
                "table-grid", f"jump sizes inside (+-{TABLE_INNER_CUTOFF}) are not resolvable")
        if any(d < 0.0 or not math.isfinite(d) for d in dens):
            raise RejectionError("table-density", "densities must be finite and >= 0")
        if not any(d > 0.0 for d in dens):
            raise RejectionError("table-density", "density is identically zero")
        g, d = np.array(grid), np.array(dens)
        pieces = []
        for sign in (-1.0, 1.0):
            knots, vals = sign * g[sign * g > 0], d[sign * g > 0]
            if len(knots) > 1:
                order = knots.argsort()
                pieces.append(_side(sign, knots[order], vals[order]))
        object.__setattr__(self, "pieces", tuple(pieces))


LevyMeasure = Union[NoJumps, SymmetricStable, CompoundPoisson, TabulatedMeasure]


def _moment(measure: LevyMeasure, q: int, lo, hi, signed: bool = False, c=1.0):
    """integral |c y|**q, times sign(y) if ``signed``, over lo < |c y| <= hi
    against nu0(dy): a moment of the jumps scaled by c >= 0, vectorised over
    lo, hi and c.

    The one moment law of each jump type.  Stable with density scale
    |y|**(-1-alpha): 2 scale c**alpha (hi**e - lo**e) / e, e = q - alpha,
    finite where 1/c overflows, and 0 if signed.  Poisson: the atoms with
    |c a| inside, compared as such.  Tabulated: c**q times the closed
    forms on lo/c < |y| <= hi/c, 0 where that region holds no mass (also
    where c**q overflows).
    """
    lo, hi, c = (np.asarray(x, dtype=float) for x in (lo, hi, c))
    if isinstance(measure, NoJumps) or (signed and isinstance(measure, SymmetricStable)):
        return np.zeros(np.broadcast(lo, hi, c).shape)
    # overflow to inf and 1/0 give the right limits; 0 * inf is masked out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(measure, SymmetricStable):
            e = q - measure.alpha
            span = np.log(hi / lo) if e == 0.0 else (hi ** e - lo ** e) / e
            return 2.0 * measure.scale * c ** measure.alpha * span
        if isinstance(measure, CompoundPoisson):
            atoms = np.asarray(measure.atoms)
            y = np.abs(c[..., None] * atoms)
            inside = (y > lo[..., None]) & (y <= hi[..., None])
            values = y ** q * np.sign(atoms) if signed else y ** q
            return measure.rate * (np.where(inside, values, 0.0) @ np.asarray(measure.weights))
        # 0 and inf are their own images for every c
        lo_y, hi_y = (np.where((b == 0.0) | (b == math.inf), b, b / c) for b in (lo, hi))
        total = sum((side.sign if signed else 1.0) * _side_integral(side, q, lo_y, hi_y)
                    for side in measure.pieces)
        return np.where(total == 0.0, 0.0, c ** q * total)


def abs_moment(measure: LevyMeasure, k: int) -> float:
    """integral |y|**k nu0(dy); inf for stable densities.

    k = 0 is the total mass.  Finite mass means the real cumulant part is
    globally bounded by twice the mass, which downstream turns
    bounded-support kernels into bounded marginal exponents.
    """
    return float(_moment(measure, k, 0.0, math.inf))


# ---------------------------------------------------------------------------
# triplet


@dataclass(frozen=True)
class LevyTriplet:
    """Drift, Gaussian variance density, and jump measure of the integrator.

    Degenerate triplets (zero drift, zero variance, no jumps) are rejected:
    the resulting field is a.s. constant and nothing downstream is defined.
    Without a name the triplet is named by its nonzero parts,
    drift(a0=...)+gaussian(b0=...)+ the jump measure's name.
    """

    a0: float = 0.0
    b0: float = 0.0
    measure: LevyMeasure = NO_JUMPS
    name: str = ""

    def __post_init__(self):
        if not math.isfinite(self.a0):
            raise RejectionError("drift", f"a0={self.a0} must be finite")
        if self.b0 < 0.0 or not math.isfinite(self.b0):
            raise RejectionError("variance", f"b0={self.b0} must be finite and >= 0")
        if self.a0 == 0.0 and self.b0 == 0.0 and isinstance(self.measure, NoJumps):
            raise RejectionError("degenerate-triplet", "a0 = b0 = 0 with no jumps")
        if not self.name:
            parts = (f"drift(a0={self.a0:g})" if self.a0 else "",
                     f"gaussian(b0={self.b0:g})" if self.b0 else "", self.measure.name)
            object.__setattr__(self, "name", "+".join(filter(None, parts)))


def gaussian_triplet(b0: float = 1.0, a0: float = 0.0) -> LevyTriplet:
    return LevyTriplet(a0=a0, b0=b0)


def stable_re_constant(alpha: float) -> float:
    """2 * integral_0^inf (1 - cos u) u**(-1-alpha) du.

    With jump density |y|**(-1-alpha) the real part of the cumulant is
    exactly this constant times |s|**alpha.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha={alpha} outside (0, 2)")
    return math.pi / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def calibrated_stable(alpha: float) -> SymmetricStable:
    """Stable measure scaled so that Re K(s) = |s|**alpha exactly."""
    return SymmetricStable(alpha=alpha, scale=1.0 / stable_re_constant(alpha))


def stable_triplet(alpha: float, scale: float | None = None, a0: float = 0.0) -> LevyTriplet:
    """Pure-jump symmetric stable triplet, calibrated unless a scale is given."""
    measure = SymmetricStable(alpha, scale) if scale is not None else calibrated_stable(alpha)
    return LevyTriplet(a0=a0, measure=measure)


def poisson_triplet(rate: float = 1.0,
                    atoms: tuple[float, ...] = (1.0,),
                    weights: tuple[float, ...] | None = None,
                    a0: float = 0.0, b0: float = 0.0) -> LevyTriplet:
    return LevyTriplet(a0=a0, b0=b0, measure=CompoundPoisson(rate, atoms, weights))


def default_validation_triplets() -> list[LevyTriplet]:
    """Triplet battery used by the validation command and the test suite."""
    return [
        gaussian_triplet(1.0),
        stable_triplet(0.7),
        stable_triplet(1.5),
        poisson_triplet(1.0, atoms=(1.0,)),
        poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
    ]


# ---------------------------------------------------------------------------
# cumulant evaluation


def _power_parts(triplet: LevyTriplet) -> list[tuple[float, float]]:
    """(c, gamma) of the Gaussian and stable parts: Re K(v) = c |v|**gamma each."""
    parts = [(0.5 * triplet.b0, 2.0)] if triplet.b0 > 0.0 else []
    m = triplet.measure
    if isinstance(m, SymmetricStable):
        parts.append((m.scale * stable_re_constant(m.alpha), m.alpha))
    return parts


def power_terms(triplet: LevyTriplet) -> tuple[tuple[float, float], ...] | None:
    """((c_k, gamma_k), ...) when Re K(v) = sum_k c_k |v|**gamma_k exactly (Gaussian,
    stable, or both), else None."""
    known = isinstance(triplet.measure, (NoJumps, SymmetricStable))
    return tuple(_power_parts(triplet)) if known else None


def cumulant(triplet: LevyTriplet, s) -> np.ndarray | complex:
    """K(s), vectorised over ``s``.

    Array in, complex array out; scalar in, complex out.  Tabulated jump
    measures take one :func:`_tabulated_jump_cumulant` call for all of
    ``s`` (one adaptive pass per side up to the phase Phi, closed forms
    beyond); all other variants are closed-form.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = (-1j * triplet.a0) * s_arr + sum(
        (c * np.abs(s_arr) ** gamma for c, gamma in _power_parts(triplet)), 0.0)
    m = triplet.measure
    if isinstance(m, CompoundPoisson):
        # z 1[|a| <= 1] - sin z without cancellation near 0
        q = sum((w * (_z_minus_sin(a * s_arr) if abs(a) <= 1.0 else -_sin(a * s_arr))
                 for a, w in zip(m.atoms, m.weights)), np.zeros_like(s_arr))
        out += _poisson_re(m, s_arr) + 1j * (m.rate * q)
    elif isinstance(m, TabulatedMeasure):
        out += _tabulated_jump_cumulant(m, s_arr)[0]
    return out if np.ndim(s) else complex(out[0])


def cumulant_re(triplet: LevyTriplet, s) -> np.ndarray | float:
    """Re K(s) >= 0, computed through |s| so evenness holds exactly."""
    s_arr = np.abs(np.atleast_1d(np.asarray(s, dtype=float)))
    out = sum((c * s_arr ** gamma for c, gamma in _power_parts(triplet)), np.zeros_like(s_arr))
    m = triplet.measure
    if isinstance(m, CompoundPoisson):
        out = out + _poisson_re(m, s_arr)
    elif isinstance(m, TabulatedMeasure):
        out = out + _tabulated_jump_cumulant(m, s_arr)[0].real
    result = np.maximum(out, 0.0)
    return result if np.ndim(s) else float(result[0])


def _poisson_re(m: CompoundPoisson, s: np.ndarray) -> np.ndarray:
    """Re K of the jumps, rate sum_a w_a (1 - cos(a s)), one atom at a time."""
    out = np.zeros_like(s)
    for a, w in zip(m.atoms, m.weights):
        out += w * _one_minus_cos(a * s)
    return m.rate * out


def _sin(x: np.ndarray) -> np.ndarray:
    """sin x = 2 tau / (1 + tau**2), tau = tan(x/2), on an array x.

    numpy's vector tangent is several times faster than its sine.  The sum
    1 + tau**2 cannot cancel, tau = +-0 gives +-0, and |tau| stays below
    about 1e19 at the poles x = (2k+1) pi, so tau**2 cannot overflow.
    Unlike 2 / (tau + 1/tau), whose 1/tau overflows there, subnormal x
    lose at most the bit that halving drops.  Within 2 ulp of sin x.
    """
    tau = np.multiply(x, 0.5, dtype=float)
    np.tan(tau, out=tau)
    out = np.multiply(tau, tau)
    out += 1.0
    tau += tau
    return np.divide(tau, out, out=out)


def _one_minus_cos(z: np.ndarray) -> np.ndarray:
    """1 - cos z = 2 sin(z/2)**2 = 2 tau**2 / (1 + tau**2), tau = tan(z/2).

    The same half-angle tangent as :func:`_sin`, with no cancellation, so
    relative accuracy holds as z -> 0; even in z bit for bit.
    """
    tau = np.multiply(z, 0.5, dtype=float)
    np.tan(tau, out=tau)
    tau *= tau
    out = tau + 1.0
    tau += tau
    return np.divide(tau, out, out=out)


def _z_minus_sin(z: np.ndarray) -> np.ndarray:
    """z - sin z, series-stable for small |z|."""
    z = np.asarray(z, dtype=float)
    out = z - _sin(z)
    small = np.abs(z) < 1e-4
    out[small] = z[small] ** 3 / 6.0 - z[small] ** 5 / 120.0
    return out


def _tabulated_jump_cumulant(m: TabulatedMeasure, s) -> tuple[np.ndarray, np.ndarray]:
    """-integral(exp(isy) - 1 - isy 1[|y|<=1]) over the tabulated density.

    Vectorised over the frequencies ``s``: returns (values, error bounds),
    arrays of the shape of ``s``.  With z = |s| r each side of the measure
    contributes integral (1 - cos z) g(r) dr to the real part and
    integral q(z) g(r) dr, q = z - sin z for r <= 1 and -sin z beyond, to
    the odd imaginary part.  Both integrals split at the phase z = Phi:

    * z <= Phi: adaptive quadrature in u = log r, from the innermost knot
      to min(outermost knot, Phi/|s|), split at the log knots and at
      u = 0; per side the frequencies that reach it are the problems of
      one engine pass.
    * z > Phi: closed forms on each density piece.  Mass and first moment
      come from :func:`_side_integral`; integral g(r) exp(i|s|r) dr is the
      integration-by-parts sum of K terms
      sum_k (-1)**k g^(k)(r) exp(i|s|r) / (i|s|)**(k+1) at both ends of
      each piece (Iserles & Norsett, Proc. R. Soc. A 461:1383, 2005), whose
      remainder is at most integral |g^(K)| dr / |s|**K; that bound joins
      the error (:func:`_oscillatory_tail`).

    K = 30 and Phi = 2 (max|p| + K) over the table's power-law exponents
    p.  On a piece g^(k) / g^(k-1) = (p - k + 1) / r (log pieces take
    p = 0 from k = 2), so past Phi each term is at most half the one
    before.  Frequencies go in blocks of at most ``_TABLE_BLOCK``, which
    bounds the memory of a call; s = 0 gives exactly 0.  An error above
    1e-6 (1 + |Re| + |Im|) raises QuadratureError at the first such s.
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    sa = np.abs(flat)
    re, im, err = np.zeros((3, flat.size))
    p_max = max((np.abs(side.p).max() for side in m.pieces), default=0.0)
    with np.errstate(divide="ignore"):
        r_cut = 2.0 * (p_max + _IBP_TERMS) / sa
    for start in range(0, flat.size, _TABLE_BLOCK):
        block = np.arange(start, min(start + _TABLE_BLOCK, flat.size))
        for side in m.pieces:
            knots = side.knots
            head = block[(r_cut[block] > knots[0]) & (sa[block] > 0.0)]
            if head.size:
                def f(x, p, side=side, w=sa[head]):
                    u = x[:, 0]
                    r = np.exp(u)
                    z = w[p] * r
                    g = side.density(r) * r
                    q = np.where(u <= 0.0, _z_minus_sin(z), -_sin(z))
                    return np.stack([_one_minus_cos(z) * g, q * g], axis=1)

                b = np.log(np.minimum(knots[-1], r_cut[head]))
                cuts = np.clip(np.append(0.0, np.log(knots)), math.log(knots[0]), b[:, None])
                val, e = integrate_box(f, cuts[:, :, None], abs_tol=1e-14, rel_tol=1e-11,
                                       name=lambda p: f"s={flat[head[p]]}")
                re[head] += val[:, 0]
                im[head] += side.sign * val[:, 1]
                err[head] += e
            tail = block[r_cut[block] < knots[-1]]
            if tail.size:
                mass = _side_integral(side, 0, r_cut[tail], knots[-1])
                first = _side_integral(side, 1, r_cut[tail], 1.0)
                osc, e = _oscillatory_tail(side, r_cut[tail], sa[tail])
                re[tail] += mass - osc.real
                im[tail] += side.sign * (sa[tail] * first - osc.imag)
                err[tail] += e
    value = re + 1j * np.where(flat < 0.0, -im, im)
    bad = np.flatnonzero(err > 1e-6 * (1.0 + np.abs(re) + np.abs(im)))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"tabulated cumulant quadrature error {err[i]:.3e} too large at s={flat[i]}",
            partial=complex(value[i]), residual=float(err[i]))
    return value.reshape(s.shape), err.reshape(s.shape)


class _Side(NamedTuple):
    """One sign-definite side of a tabulated measure, piece by piece.

    Piece i is g(r) = (v0[i] + slope[i] log(r/k)) (r/k)**p[i] on
    [k, k'] = knots[i:i+2]: a power law (slope 0) between positive knots,
    linear in log r (p 0) next to a zero knot.
    """

    sign: float
    knots: np.ndarray
    v0: np.ndarray
    p: np.ndarray
    slope: np.ndarray

    def at(self, idx, r):
        """Piece ``idx`` evaluated at radii r inside it."""
        t = np.log(r / self.knots[idx])
        return (self.v0[idx] + self.slope[idx] * t) * np.exp(self.p[idx] * t)

    def density(self, r):
        """The density at radii r within the tabulated range."""
        idx = np.clip(np.searchsorted(self.knots, r, side="right") - 1, 0, len(self.p) - 1)
        return self.at(idx, r)


def _side(sign: float, knots: np.ndarray, vals: np.ndarray) -> _Side:
    """The pieces between the knots of one side (at least two knots)."""
    v0, v1 = vals[:-1], vals[1:]
    width = np.log(knots[1:] / knots[:-1])
    power = (v0 > 0.0) & (v1 > 0.0)
    ratio = np.where(power, v1, 1.0) / np.where(power, v0, 1.0)
    return _Side(sign, knots, v0, np.log(ratio) / width, np.where(power, 0.0, (v1 - v0) / width))


def _piece_moment(a, slope, p, lo, hi, q):
    """integral_lo^hi (r/lo)**q (a + slope log(r/lo)) (r/lo)**p dr.

    In t = log(r/lo) this is lo L (a E1(eL) + slope L E2(eL)) with L = log(hi/lo),
    e = p + q + 1, E1(x) = integral_0^1 exp(xu) du = expm1(x)/x (1 at x = 0) and
    E2(x) = integral_0^1 u exp(xu) du = (exp(x) - E1(x))/x.  Vectorized; zero
    where lo == hi, +inf where E1 overflows (x > 709.78).
    """
    L = np.log(hi / lo)
    x = (p + q + 1.0) * L
    small = np.abs(x) < 0.5
    xs = np.where(small, x, 0.0)
    series = sum(xs ** n / (math.factorial(n) * (n + 2)) for n in range(18))
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.where(x == 0.0, 1.0, np.expm1(x) / x)
        e2 = np.where(small, series, (np.exp(x) - e1) / x)
        return np.where(np.isinf(e1), np.inf, lo * L * (a * e1 + slope * L * e2))


def _piece_integral(side: _Side, idx, lo, hi, q: int):
    """integral_lo^hi r**q g(r) dr on piece ``idx``, with lo <= hi inside it."""
    a = side.at(idx, lo)
    return lo ** q * _piece_moment(a, side.slope[idx], side.p[idx], lo, hi, q)


def _side_integral(side: _Side, q: int, lo, hi):
    """integral_lo^hi r**q g(r) dr on one side, vectorized over the limits.

    Limits are clipped to the tabulated range.  The whole pieces between
    the end pieces are summed slice by slice, never as a difference of
    cumulative sums, so no cancellation creeps in.
    """
    knots = side.knots
    n = len(side.p)
    lo = np.clip(lo, knots[0], knots[-1])
    hi = np.clip(hi, lo, knots[-1])
    i = np.clip(np.searchsorted(knots, lo, side="right") - 1, 0, n - 1)
    j = np.maximum(np.clip(np.searchsorted(knots, hi, side="left") - 1, 0, n - 1), i)
    whole = np.append(_piece_integral(side, np.arange(n), knots[:-1], knots[1:], q), 0.0)
    bounds = np.stack(np.broadcast_arrays(i + 1, j), axis=-1)
    middle = np.add.reduceat(whole, bounds.ravel())[::2].reshape(np.shape(bounds)[:-1])
    within = _piece_integral(side, i, lo, hi, q)
    across = (_piece_integral(side, i, lo, knots[i + 1], q) + np.where(j > i + 1, middle, 0.0)
              + _piece_integral(side, j, knots[j], hi, q))
    return np.where(i == j, within, across)


def _oscillatory_tail(side: _Side, r_cut: np.ndarray, sa: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """integral_{r_cut}^{r_max} g(r) exp(i sa r) dr and its error bound.

    Vectorised over the pairs (r_cut, sa), each with r_cut below the
    outermost knot.  The K-term integration-by-parts sum at both ends of
    every piece, or of its part beyond r_cut, where sa r >= Phi; one row
    per (pair, piece).  The error is the remainder bound
    integral |g^(K)| dr / sa**K, in closed form because |g^(K)| is
    (|p| g + |slope|) r**-K prod_{j=1}^{K-1} |p - j|, taken as a product
    of ratios below 1 so it cannot overflow, plus the rounding of the
    phase sa r.
    """
    row, idx = np.nonzero(side.knots[1:] > r_cut[:, None])
    # every pair has rows, in order: each pair's sum starts at its first row
    per_pair = lambda v: np.add.reduceat(v, np.searchsorted(row, np.arange(len(r_cut))))
    w = sa[row]
    p, slope = side.p[idx], side.slope[idx]
    lo = np.maximum(side.knots[idx], r_cut[row])
    hi = side.knots[idx + 1]
    # both ends at once: sum_k i**k g^(k) / sa**k at r, with x = sa r, is
    # g + i (r g' / x) sum_{k=1}^{K-1} prod_{j=1}^{k-1} i (p - j) / x,
    # the sum nested from its last term
    n = len(idx)
    r = np.concatenate([lo, hi])
    pp = np.concatenate([p, p])
    ww = np.concatenate([w, w])
    g = side.at(np.concatenate([idx, idx]), r)
    x = ww * r
    series = np.zeros(len(x), dtype=complex)
    for j in range(_IBP_TERMS - 2, 0, -1):
        series = 1j * (pp - j) / x * (1.0 + series)
    total = g + 1j * ((pp * g + np.concatenate([slope, slope])) / x) * (1.0 + series)
    ends = -1j * np.exp(1j * x) * total / ww
    value = per_pair(ends[n:]) - per_pair(ends[:n])
    shrink = np.prod(np.abs(p[:, None] - np.arange(1, _IBP_TERMS)) / (w * lo)[:, None],
                     axis=1) / (w * lo)
    a = np.abs(p) * side.at(idx, lo) + np.abs(slope)
    remainder = per_pair(shrink * _piece_moment(a, 0.0, p, lo, hi, -_IBP_TERMS))
    rounding = _EPS * (x + 2 * _IBP_TERMS) * np.abs(total)
    return value, remainder + (per_pair(rounding[:n]) + per_pair(rounding[n:])) / sa


# ---------------------------------------------------------------------------
# small-signal growth and related moments


def small_signal_bound(triplet: LevyTriplet) -> tuple[float, float]:
    """(gamma, coef) with Re K(v) <= coef * |v|**gamma for |v| <= 1.

    Used to truncate tail integrals where the kernel has already decayed.
    The terms are the power terms and, for other jumps, (1/2) integral
    y**2 nu0(dy) |v|**2 (1 - cos z <= z**2 / 2); gamma is the slowest.
    """
    parts = _power_parts(triplet)
    if power_terms(triplet) is None:
        parts.append((0.5 * abs_moment(triplet.measure, 2), 2.0))
    if not parts:
        raise RejectionError("degenerate-triplet", "no growing cumulant part")
    return min(g for _, g in parts), sum(c for c, _ in parts)


def im_linear_coef(triplet: LevyTriplet) -> float:
    """C with |Im K(v)| <= C * |v| for all v.

    Uses |sin z| <= |z|; symmetric measures contribute nothing beyond the
    drift, so pure stable triplets get exactly |a0|.
    """
    if isinstance(triplet.measure, SymmetricStable):
        return abs(triplet.a0)
    return abs(triplet.a0) + 2.0 * abs_moment(triplet.measure, 1)


def truncated_mean_shift(triplet: LevyTriplet, v) -> np.ndarray | float:
    """integral y * (1[|yv|<=1] - 1[|y|<=1]) nu0(dy), vectorised over v.

    The drift correction that appears when the integrator is scaled by a
    kernel value v: the signed first moment between 1 and 1/|v|, negated
    where 1/|v| < 1.  Zero for symmetric measures.
    """
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        r = 1.0 / np.abs(v_arr)
    part = _moment(triplet.measure, 1, np.minimum(1.0, r), np.maximum(1.0, r), signed=True)
    out = np.where(r >= 1.0, part, -part)
    return out if np.ndim(v) else float(out[0])


def mean_shift_lock_radius(triplet: LevyTriplet) -> float:
    """Largest v* with truncated_mean_shift constant on [0, v*].

    Below 1/max|y| every jump satisfies |y*v| <= 1, so the shift equals its
    v=0 value exactly.  Measures with unbounded support that are symmetric
    have shift identically zero, hence lock radius infinity.
    """
    m = triplet.measure
    if isinstance(m, (NoJumps, SymmetricStable)):
        return math.inf
    if isinstance(m, CompoundPoisson):
        return 1.0 / max(abs(a) for a in m.atoms)
    return 1.0 / max(abs(g) for g in m.grid)


def clipped_second_moment(triplet: LevyTriplet, v) -> np.ndarray | float:
    """integral min(1, (y*v)**2) nu0(dy), vectorised over v: the second
    moment of the jumps scaled by |v| up to 1 plus their mass beyond."""
    c = np.abs(np.atleast_1d(np.asarray(v, dtype=float)))
    m = triplet.measure
    out = _moment(m, 2, 0.0, 1.0, c=c) + _moment(m, 0, 1.0, math.inf, c=c)
    return out if np.ndim(v) else float(out[0])


# ---------------------------------------------------------------------------
# negative-definiteness validation


@dataclass(frozen=True)
class NegDefReport:
    """Sampled inequality check results for one triplet."""

    triplet_name: str
    n_samples: int
    violations: dict[str, int] = field(default_factory=dict)
    max_excess: float = 0.0

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


# relative slack of each inequality, per pair
NEGDEF_TOL = 1e-9


def check_negdef_inequalities(triplet: LevyTriplet, n_samples: int = 100_000,
                              seed: int = 0) -> NegDefReport:
    """Sample heavy-tailed frequency pairs and test the cumulant inequalities.

    Checked, with slack NEGDEF_TOL * (1 + |lhs| + |rhs|) per pair:
      * Re K >= 0 and K(-x) = conj(K(x));
      * |K(x) + K(y) - K(x + y)| <= 2 sqrt(Re K(x) Re K(y)), its difference
        form |K(x) + conj(K(y)) - K(x - y)| <= same (conjugation is what the
        symmetry K(-y) = conj(K(y)) demands; without it any drift component
        falsifies the bound), and both sign variants on real parts;
      * min(Re K(x +- y), Re K(x) + Re K(y)) >= (sqrt(Re K(x)) - sqrt(Re K(y)))**2.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_cauchy(n_samples)
    y = rng.standard_cauchy(n_samples)

    kx = cumulant(triplet, x)
    ky = cumulant(triplet, y)
    kxpy = cumulant(triplet, x + y)
    kxmy = cumulant(triplet, x - y)
    kmx = cumulant(triplet, -x)

    rex = np.maximum(kx.real, 0.0)
    rey = np.maximum(ky.real, 0.0)
    cross = 2.0 * np.sqrt(rex * rey)

    violations: dict[str, int] = {}
    max_excess = 0.0

    def record(check: str, excess: np.ndarray):
        nonlocal max_excess
        bad = excess > 0.0
        violations[check] = int(bad.sum())
        if bad.any():
            max_excess = max(max_excess, float(excess[bad].max()))

    slack = lambda lhs, rhs: NEGDEF_TOL * (1.0 + np.abs(lhs) + np.abs(rhs))

    record("re-nonneg", np.maximum(-kx.real, -ky.real) - slack(kx, ky))
    record("conjugate-symmetry", np.abs(kx - np.conj(kmx)) - slack(kx, kmx))
    record("subadditive-complex-sum", np.abs(kx + ky - kxpy) - cross - slack(kx + ky, kxpy))
    record("subadditive-complex-diff",
           np.abs(kx + np.conj(ky) - kxmy) - cross - slack(kx + np.conj(ky), kxmy))
    record("subadditive-real-sum",
           np.abs(kx.real + ky.real - kxpy.real) - cross - slack(kx.real + ky.real, kxpy.real))
    record("subadditive-real-diff",
           np.abs(kx.real + ky.real - kxmy.real) - cross - slack(kx.real + ky.real, kxmy.real))
    gap = (np.sqrt(rex) - np.sqrt(rey)) ** 2
    lower = np.minimum.reduce([kxpy.real, kxmy.real, rex + rey])
    record("sqrt-lower-bound", gap - lower - slack(gap, lower))

    return NegDefReport(triplet_name=triplet.name,
                        n_samples=n_samples, violations=violations,
                        max_excess=max_excess)
