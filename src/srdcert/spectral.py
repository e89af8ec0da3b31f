"""Marginal exponents, joint characteristic functionals, dependence ratios.

The marginal exponent sigma^2(s) = integral Re K(s f(-x)) dx equals
-log|char_marginal(s)| and measures how much randomness a single frequency
sees.  The dependence ratio at lag t,

    ratio_t(s1, s2) = integral sqrt(Re K(s1 f(t-x)) Re K(s2 f(-x))) dx
                      / (sigma(s1) sigma(s2)),

always lands in [0, 1]; its supremum over frequencies drives certification.
A spectral profile bundles both quantities on explicit grids together with
error estimates and method provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import levy
from .errors import QuadratureError, RejectionError
from .kernels import Kernel, _lp_power_integral, integrate_over_support

RATIO_CLAMP_TOL = 1e-9
DEFAULT_S_BOX = (1e-3, 1e3)
DEFAULT_S_POINTS = 25
REFINE_ROUNDS = 3


# ---------------------------------------------------------------------------
# integrals over the kernel support


def _growth(triplet: levy.LevyTriplet, scale, re: float = 1.0, im: float = 0.0) -> list:
    """Growth terms of re * Re K(s v) + im * |Im K(s v)| in v, for |s| <= scale."""
    gamma, coef = levy.small_signal_bound(triplet)
    return [(gamma, re * coef * scale ** gamma),
            (1.0, im * levy.im_linear_coef(triplet) * scale)]


def _shifts(kernel: Kernel, t) -> np.ndarray:
    """The shifts (t, 0) as a batch of one problem."""
    return np.array([[np.atleast_1d(np.asarray(t, dtype=float)), np.zeros(kernel.dim)]])


def separable_exponent(kernel: Kernel, triplet: levy.LevyTriplet) -> float | None:
    """gamma with Re K(s f(x)) = Re K(s) |f(x)|**gamma for all s and x, else None:
    a one-term ``levy.power_terms`` exponent, or 2 for an indicator (values 0, 1)."""
    terms = levy.power_terms(triplet) or ()
    return terms[0][1] if len(terms) == 1 else (2.0 if kernel.indicator else None)


def _marginal_pass(kernel: Kernel, triplet: levy.LevyTriplet, s: np.ndarray, cumulant,
                   im: float) -> tuple[np.ndarray, np.ndarray]:
    """integral cumulant(triplet, s_p f(-x)) dx, frequency p as problem p of one pass."""
    return integrate_over_support(
        kernel, lambda fv, p: cumulant(triplet, (fv[0] * s[p])[:, None]),
        np.zeros((len(s), 1, kernel.dim)), _growth(triplet, np.abs(s), im=im))


def marginal_exponent_grid(kernel: Kernel, triplet: levy.LevyTriplet,
                           s_values: np.ndarray) -> tuple[np.ndarray, float]:
    """sigma^2 on a frequency grid, and the largest error over the grid.

    Where ``levy.power_terms`` gives Re K(v) = sum_k c_k |v|**gamma_k, sigma^2 is
    sum_k c_k |s|**gamma_k ||f||_gamma_k^gamma_k, with the norms' errors, and on an
    indicator |B| Re K(s); otherwise one engine pass, one problem per frequency.
    """
    s_values = np.asarray(s_values, dtype=float)
    terms = levy.power_terms(triplet)
    if terms is None and not kernel.indicator:
        vals, err = _marginal_pass(kernel, triplet, s_values, levy.cumulant_re, 0.0)
        return np.maximum(vals[:, 0], 0.0), float(np.max(err, initial=0.0))
    parts = [(levy.cumulant_re(triplet, s_values), 2.0)] if kernel.indicator \
        else [(c * np.abs(s_values) ** gamma, gamma) for c, gamma in terms]
    vals = errs = np.zeros_like(s_values)
    for re_k, gamma in parts:
        norm, norm_err = _lp_power_integral(kernel, gamma)
        vals, errs = vals + re_k * norm, errs + re_k * norm_err
    return vals, float(np.max(errs, initial=0.0))


@lru_cache(maxsize=200_000)
def _mexp_scalar(kernel: Kernel, triplet: levy.LevyTriplet, s: float) -> float:
    return float(marginal_exponent_grid(kernel, triplet, np.array([s]))[0][0])


def marginal_exponent_sq(kernel: Kernel, triplet: levy.LevyTriplet, s: float) -> float:
    """sigma^2(s) = integral Re K(s f(-x)) dx, cached per (kernel, triplet, s)."""
    return _mexp_scalar(kernel, triplet, float(s))


def marginal_cumulant(kernel: Kernel, triplet: levy.LevyTriplet,
                      u_values: np.ndarray) -> np.ndarray:
    """integral K(u f(-x)) dx for each frequency u, in one engine pass.

    exp(-value) is the characteristic function of the field at one point,
    and the real part is sigma^2(u).
    """
    return _marginal_pass(kernel, triplet, np.asarray(u_values, dtype=float),
                          levy.cumulant, 1.0)[0][:, 0]


def char_marginal(kernel: Kernel, triplet: levy.LevyTriplet, u):
    """Characteristic function of the field at one point.

    Scalar in, complex out; array in, one engine pass over all frequencies
    and a complex array out.
    """
    phi = np.exp(-marginal_cumulant(kernel, triplet, np.atleast_1d(u)))
    return phi if np.ndim(u) else complex(phi[0])


def char_joint(kernel: Kernel, triplet: levy.LevyTriplet, t, s1: float,
               s2: float) -> complex:
    """Joint characteristic function E exp(i(s1 X(t) + s2 X(0)))."""
    joint, _ = joint_integrals(kernel, triplet, t, np.array([s1]), np.array([s2]))
    return complex(np.exp(-joint[0]))


def dependence_numerator_grid(kernel: Kernel, triplet: levy.LevyTriplet, t,
                              s1_values: np.ndarray, s2_values: np.ndarray
                              ) -> tuple[np.ndarray, float]:
    """integral sqrt(Re K(s1 f(t-x)) Re K(s2 f(-x))) dx on a product grid.

    The integrand factorises pointwise, so a grid of n1 x n2 pairs costs
    n1 + n2 cumulant evaluations per x.
    """
    s1_values = np.asarray(s1_values, dtype=float)
    s2_values = np.asarray(s2_values, dtype=float)
    s_scale = float(max(np.max(np.abs(s1_values)), np.max(np.abs(s2_values))))

    def integrand(fv: np.ndarray, _) -> np.ndarray:
        u = np.sqrt(levy.cumulant_re(triplet, np.multiply.outer(fv[0], s1_values)))
        w = np.sqrt(levy.cumulant_re(triplet, np.multiply.outer(fv[1], s2_values)))
        return (u[:, :, None] * w[:, None, :]).reshape(len(u), -1)

    vals, err = integrate_over_support(kernel, integrand, _shifts(kernel, t),
                                       _growth(triplet, s_scale), overlap=True)
    return vals.reshape(len(s1_values), len(s2_values)), float(err[0])


def _sigma_for(kernel: Kernel, triplet: levy.LevyTriplet, s_values: np.ndarray
               ) -> np.ndarray:
    out = np.array([marginal_exponent_sq(kernel, triplet, float(s)) for s in s_values])
    if np.any(out <= 0.0):
        bad = float(s_values[np.argmin(out)])
        raise RejectionError("degenerate-profile",
                             f"marginal exponent vanishes at s={bad:g}")
    return np.sqrt(out)


def joint_integrals(kernel: Kernel, triplet: levy.LevyTriplet, lags: np.ndarray,
                    s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint cumulant and dependence numerator of many (lag, s1, s2) triples.

    Triple i gives integral K(s1_i f(t_i - x) + s2_i f(-x)) dx, whose exp(-)
    is the joint characteristic function, and the numerator integral
    sqrt(Re K(s1_i f(t_i - x)) Re K(s2_i f(-x))) dx.  Each triple is one
    problem of a single engine call, with its own shifts (t_i, 0), domain
    and cut points; the numerator runs over the same shifted supports,
    where it vanishes outside their intersection.
    """
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    lags = np.asarray(lags, dtype=float).reshape(len(s1), kernel.dim)
    # |K(a+b)| <= 2**gamma C (sv)**gamma + 2 C_im sv; the numerator <= C (sv)**gamma
    gamma = levy.small_signal_bound(triplet)[0]
    growth = _growth(triplet, np.maximum(np.abs(s1), np.abs(s2)), re=2.0 ** gamma + 1.0,
                     im=2.0)

    def integrand(fv: np.ndarray, p: np.ndarray) -> np.ndarray:
        a, b = fv[0] * s1[p], fv[1] * s2[p]
        joint = levy.cumulant(triplet, a + b)
        num = np.sqrt(levy.cumulant_re(triplet, a)) * np.sqrt(levy.cumulant_re(triplet, b))
        return np.stack([joint, num], axis=1)

    shifts = np.stack([lags, np.zeros_like(lags)], axis=1)
    vals, _ = integrate_over_support(kernel, integrand, shifts, growth)
    return vals[:, 0], vals[:, 1].real


def _clamp_ratio(values: np.ndarray) -> np.ndarray:
    worst = float(np.max(values)) if values.size else 0.0
    if worst > 1.0 + RATIO_CLAMP_TOL:
        raise QuadratureError(
            f"dependence ratio overshoots 1 by {worst - 1.0:.3e}",
            partial=worst, residual=worst - 1.0)
    return np.clip(values, 0.0, 1.0)


def dependence_ratio_grid(kernel: Kernel, triplet: levy.LevyTriplet, t,
                          s1_values: np.ndarray, s2_values: np.ndarray
                          ) -> tuple[np.ndarray, float]:
    """Normalised dependence ratio on a frequency product grid, clamped to [0, 1]."""
    s1_values = np.asarray(s1_values, dtype=float)
    s2_values = np.asarray(s2_values, dtype=float)
    num, err = dependence_numerator_grid(kernel, triplet, t, s1_values, s2_values)
    den = np.outer(_sigma_for(kernel, triplet, s1_values),
                   _sigma_for(kernel, triplet, s2_values))
    return _clamp_ratio(num / den), err


def dependence_ratio(kernel: Kernel, triplet: levy.LevyTriplet, t, s1: float,
                     s2: float) -> float:
    grid, _ = dependence_ratio_grid(kernel, triplet, t, np.array([s1]), np.array([s2]))
    return float(grid[0, 0])


@dataclass(frozen=True)
class RatioMax:
    """Supremum of the dependence ratio over frequencies at one lag."""

    value: float
    method: str
    error: float


@lru_cache(maxsize=4096)
def _gamma_norm_pow(kernel: Kernel, gamma: float) -> float:
    return _lp_power_integral(kernel, gamma)[0]


def max_dependence_ratio(kernel: Kernel, triplet: levy.LevyTriplet, t,
                         s_box: tuple[float, float] = DEFAULT_S_BOX) -> RatioMax:
    """sup over (s1, s2) of the dependence ratio at lag t.

    Where ``separable_exponent`` finds gamma the ratio is the same at every
    frequency: integral |f(t-x) f(-x)|**(gamma/2) dx / ||f||_gamma^gamma,
    which for a box indicator is the overlap fraction prod(1 - |t_i|/L_i)+,
    exactly.  Either is tagged "analytic-homogeneous" and uses no frequency
    grid.  Everything else runs a log-grid search of DEFAULT_S_POINTS per
    axis over ``s_box`` squared, then REFINE_ROUNDS 5 x 5 refinements around
    the argmax; the result is tagged "grid-approximate" and is exact only up
    to that search.
    """
    if kernel.indicator:
        widths = np.subtract(kernel.support.hi, kernel.support.lo)
        overlap = np.maximum(1.0 - np.abs(np.atleast_1d(t)) / widths, 0.0)
        return RatioMax(value=float(np.prod(overlap)), method="analytic-homogeneous",
                        error=0.0)
    gamma = separable_exponent(kernel, triplet)
    if gamma is not None:
        value, err = _homogeneous_ratio(kernel, t, gamma)
        return RatioMax(value=value, method="analytic-homogeneous", error=err)

    s_vals = np.geomspace(s_box[0], s_box[1], DEFAULT_S_POINTS)
    ratios, err = dependence_ratio_grid(kernel, triplet, t, s_vals, s_vals)
    idx = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    best = float(ratios[idx])
    b1, b2 = float(s_vals[idx[0]]), float(s_vals[idx[1]])

    spacing = (s_box[1] / s_box[0]) ** (1.0 / (DEFAULT_S_POINTS - 1))
    for _ in range(REFINE_ROUNDS):
        spacing = spacing ** 0.5
        g1 = np.geomspace(b1 / spacing, b1 * spacing, 5)
        g2 = np.geomspace(b2 / spacing, b2 * spacing, 5)
        g1 = np.clip(g1, s_box[0], s_box[1])
        g2 = np.clip(g2, s_box[0], s_box[1])
        sub, sub_err = dependence_ratio_grid(kernel, triplet, t, g1, g2)
        sidx = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if float(sub[sidx]) >= best:
            best = float(sub[sidx])
            b1, b2 = float(g1[sidx[0]]), float(g2[sidx[1]])
        err = max(err, sub_err)

    return RatioMax(value=best, method="grid-approximate", error=err)


def _homogeneous_ratio(kernel: Kernel, t, gamma: float) -> tuple[float, float]:
    def integrand(fv: np.ndarray, _) -> np.ndarray:
        return (np.abs(fv[0] * fv[1]) ** (gamma / 2.0))[:, None]

    vals, err = integrate_over_support(kernel, integrand, _shifts(kernel, t),
                                       [(gamma, 1.0)], overlap=True)
    den = _gamma_norm_pow(kernel, gamma)
    if den <= 0.0:
        raise RejectionError("degenerate-profile", "kernel gamma-norm vanishes")
    return float(_clamp_ratio(vals[0, 0] / den)), float(err[0]) / den


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Gridded view of one kernel-integrator pair.

    Frequencies carry the marginal exponent; lags carry the maximal
    dependence ratio.  ``ratio_method`` records whether ratios are exact
    (homogeneous collapse) or a grid search, and ``s_box`` what was searched.
    """

    kernel: Kernel
    triplet: levy.LevyTriplet
    window: float
    t_step: float
    s_grid: np.ndarray
    sigma_sq: np.ndarray
    sigma_err: float
    t_grid: np.ndarray
    ratio_values: np.ndarray
    ratio_error: float
    ratio_method: str
    s_box: tuple[float, float]
    s_points: int

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def cell_volume(self) -> float:
        return self.t_step ** self.dim

    def ratio_at(self, t) -> RatioMax:
        return max_dependence_ratio(self.kernel, self.triplet, t, s_box=self.s_box)


def t_lattice(window: float, step: float, dim: int) -> np.ndarray:
    """Symmetric lattice over [-window, window]^dim, always containing 0.

    Row order is point-symmetric: ``t_lattice(...)[::-1] == -t_lattice(...)``.
    """
    n = int(round(window / step))
    axis = step * np.arange(-n, n + 1)
    if dim == 1:
        return axis.reshape(-1, 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def build_profile(kernel: Kernel, triplet: levy.LevyTriplet, window: float,
                  t_step: float, s_box: tuple[float, float] = DEFAULT_S_BOX,
                  s_points: int = 40) -> SpectralProfile:
    """Compute a spectral profile over [-window, window]^d.

    Rejects degenerate pairs (vanishing marginal exponent) and a window,
    step or frequency box that is not finite, exploits the lag symmetry
    ratio(-t) = ratio(t), and tags ratio provenance.
    """
    if not (0 < t_step <= window < math.inf):
        raise RejectionError("profile-window",
                             f"need finite 0 < t_step <= window, got {t_step}, {window}")
    if not (0 < s_box[0] < s_box[1] < math.inf) or s_points < 4:
        raise RejectionError("profile-sbox", "bad frequency box or point count")

    s_grid = np.geomspace(s_box[0], s_box[1], s_points)
    sigma_sq, sigma_err = marginal_exponent_grid(kernel, triplet, s_grid)
    if not np.max(sigma_sq) > 1e-14:
        raise RejectionError("degenerate-profile",
                             "marginal exponent vanishes on the frequency grid")

    lattice = t_lattice(window, t_step, kernel.dim)
    # ratio(-t) = ratio(t) and the lattice is point-symmetric, so evaluate
    # the first half up to the origin and mirror it
    half = [max_dependence_ratio(kernel, triplet, t, s_box=s_box)
            for t in lattice[:len(lattice) // 2 + 1]]
    values = np.array([rm.value for rm in half])

    return SpectralProfile(
        kernel=kernel, triplet=triplet, window=float(window), t_step=float(t_step),
        s_grid=s_grid, sigma_sq=np.asarray(sigma_sq), sigma_err=sigma_err,
        t_grid=lattice, ratio_values=np.concatenate([values, values[-2::-1]]),
        ratio_error=max(rm.error for rm in half),
        ratio_method=half[-1].method, s_box=(float(s_box[0]), float(s_box[1])),
        s_points=int(s_points),
    )
