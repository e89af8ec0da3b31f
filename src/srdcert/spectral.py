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
from .quadrature import Factored

RATIO_CLAMP_TOL = 1e-9
DEFAULT_S_BOX = (1e-3, 1e3)
DEFAULT_S_POINTS = 25
REFINE_ROUNDS = 3
# Most lags whose refine rounds share one engine pass; bounds the memory of
# a long (2-D) lag lattice.
RATIO_BLOCK = 32
# Lags whose full DEFAULT_S_POINTS**2 grids share one engine pass.  Each
# interval of such a pass keeps its 325 (or 625) values until the pass
# ends, so the pass's intervals, not its rounds, set the peak memory:
# on the mixed benchmark 4 lags cost +5.6 % peak RSS, 16 lags +12 %.
GRID_LAGS = 4


# ---------------------------------------------------------------------------
# integrals over the kernel support


def _growth(triplet: levy.LevyTriplet, scale, re: float = 1.0, im: float = 0.0) -> list:
    """Growth terms of re * Re K(s v) + im * |Im K(s v)| in v, for |s| <= scale."""
    gamma, coef = levy.small_signal_bound(triplet)
    return [(gamma, re * coef * scale ** gamma),
            (1.0, im * levy.im_linear_coef(triplet) * scale)]


def separable_exponent(kernel: Kernel, triplet: levy.LevyTriplet) -> float | None:
    """gamma with Re K(s f(x)) = Re K(s) |f(x)|**gamma for all s and x, else None:
    a one-term ``levy.power_terms`` exponent, or 2 for a step profile (values 0, 1)."""
    terms = levy.power_terms(triplet) or ()
    step = kernel.profile is not None and kernel.profile.step
    return terms[0][1] if len(terms) == 1 else (2.0 if step else None)


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
    sum_k c_k |s|**gamma_k ||f||_gamma_k^gamma_k, with the norms' errors; otherwise
    one ``integrate_over_support`` call, one problem per frequency (a step
    profile's |B| Re K(s) makes no engine pass).
    """
    s_values = np.asarray(s_values, dtype=float)
    terms = levy.power_terms(triplet)
    if terms is None:
        vals, err = _marginal_pass(kernel, triplet, s_values, levy.cumulant_re, 0.0)
        return np.maximum(vals[:, 0], 0.0), float(np.max(err, initial=0.0))
    vals = errs = np.zeros_like(s_values)
    for c, gamma in terms:
        re_k = c * np.abs(s_values) ** gamma
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


def _numerators(kernel: Kernel, triplet: levy.LevyTriplet, lags: np.ndarray,
                s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dependence numerators of L lags in one engine pass, lag l on the grid
    s1[l] x s2[l], as values (L, n1, n2) and errors (L,).

    Each lag is one problem whose columns are (i, j) pairs of the grid,
    N_ij = integral u_i(t-x) w_j(-x) dx with u_i = sqrt(Re K(s1_i f)) and
    w_j = sqrt(Re K(s2_j f)).  The integrand is the factored value
    (u(t-x), w(-x)) with the wanted pairs, so the engine forms each
    interval's sums as matrix products of the two 21 x n tables and no
    node ever holds the columns.  For an even kernel on a square grid
    (s1 = s2, so u = w) the point reflection x -> t - x swaps f(t-x) and
    f(-x) and maps the overlap onto itself, so
    N_ij = integral over x_1 >= t_1/2 of u_i(t-x) u_j(-x) + u_j(t-x) u_i(-x),
    symmetric in (i, j): the pairs are then the upper triangle i <= j of
    that symmetrised (mirror) value over the half overlap, mirrored.  A
    lag's error is the 2-norm over its integrated columns, with the
    engine's L2 dispersion of a factored value in place of QUADPACK's.
    """
    n1, n2 = s1.shape[1], s2.shape[1]
    mirror = kernel.even and np.array_equal(s1, s2)
    ii, jj = np.triu_indices(n1) if mirror else np.indices((n1, n2)).reshape(2, -1)
    cols = ii * n2 + jj
    s = np.concatenate((s1, s2), axis=1)

    def integrand(fv: np.ndarray, p: np.ndarray) -> Factored:
        # one cumulant call for both factors
        v = np.sqrt(levy.cumulant_re(triplet, np.repeat(fv, (n1, n2), axis=0).T * s[p]))
        return Factored(v[:, :n1], v[:, n1:], cols, mirror)

    shifts = np.stack([lags, np.zeros_like(lags)], axis=1)
    scale = np.max(np.abs(s), axis=1)
    # the symmetrised integrand is a sum of two products
    vals, err = integrate_over_support(kernel, integrand, shifts,
                                       _growth(triplet, scale, re=2.0 if mirror else 1.0),
                                       half=mirror)
    out = np.empty((len(lags), n1, n2))
    out[:, ii, jj] = vals
    if mirror:
        out[:, jj, ii] = vals
    return out, err


def _sigma(kernel: Kernel, triplet: levy.LevyTriplet, s: np.ndarray) -> np.ndarray:
    """sigma at the frequencies s, any shape, from one ``marginal_exponent_grid``
    call over the distinct ones."""
    distinct, where = np.unique(s, return_inverse=True)
    sq = marginal_exponent_grid(kernel, triplet, distinct)[0]
    if np.any(sq <= 0.0):
        raise RejectionError("degenerate-profile",
                             f"marginal exponent vanishes at s={distinct[np.argmin(sq)]:g}")
    return np.sqrt(sq)[where].reshape(np.shape(s))


def cross_integrals(kernel: Kernel, triplet: levy.LevyTriplet, lags: np.ndarray,
                    s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross cumulant and dependence numerator of many (lag, s1, s2) triples.

    With a = s1_i f(t_i - x) and b = s2_i f(-x), triple i gives the cross
    cumulant C = integral K(a + b) - K(a) - K(b) dx, so that the joint
    characteristic function is phi(s1_i) phi(s2_i) exp(-C), and the
    numerator integral sqrt(Re K(a) Re K(b)) dx.  K(0) = 0 makes both
    vanish wherever either kernel value does, so each triple is one
    overlap problem of a single engine call, with its own shifts (t_i, 0).
    """
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    lags = np.asarray(lags, dtype=float).reshape(len(s1), kernel.dim)

    def integrand(fv: np.ndarray, p: np.ndarray) -> np.ndarray:
        a, b = fv[0] * s1[p], fv[1] * s2[p]
        k = levy.cumulant(triplet, np.concatenate((a + b, a, b))).reshape(3, -1)
        num = np.sqrt(levy.cumulant_re(triplet, a)) * np.sqrt(levy.cumulant_re(triplet, b))
        return np.stack([k[0] - k[1] - k[2], num], axis=1)

    shifts = np.stack([lags, np.zeros_like(lags)], axis=1)
    # |K(a + b) - K(a) - K(b)| <= 2 sqrt(Re K(a) Re K(b)), twice the numerator
    growth = _growth(triplet, np.maximum(np.abs(s1), np.abs(s2)), re=3.0)
    vals, _ = integrate_over_support(kernel, integrand, shifts, growth)
    return vals[:, 0], vals[:, 1].real


def _clamp_ratio(values: np.ndarray) -> np.ndarray:
    worst = float(np.max(values)) if values.size else 0.0
    if worst > 1.0 + RATIO_CLAMP_TOL:
        raise QuadratureError(
            f"dependence ratio overshoots 1 by {worst - 1.0:.3e}",
            partial=worst, residual=worst - 1.0)
    return np.clip(values, 0.0, 1.0)


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
    """sup over (s1, s2) of the dependence ratio at lag t, from ``_ratio_maxima``."""
    lag = np.asarray(t, dtype=float).reshape(1, kernel.dim)
    values, errors, method = _ratio_maxima(kernel, triplet, lag, s_box)
    return RatioMax(value=float(values[0]), method=method, error=float(errors[0]))


def _ratio_maxima(kernel: Kernel, triplet: levy.LevyTriplet, lags: np.ndarray,
                  s_box: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, str]:
    """The ratio maximum at each of the (L, d) lags: values, errors, method.

    Where ``separable_exponent`` finds gamma the ratio is the same at every
    frequency: integral |f(t-x) f(-x)|**(gamma/2) dx / ||f||_gamma^gamma,
    from the kernel's ``closed_overlap`` (error 0), else one
    ``_homogeneous_ratio`` engine pass per lag, tagged
    "analytic-homogeneous".  Everything else is the frequency search of
    ``_ratio_search``, tagged "grid-approximate": exact only up to it.
    """
    gamma = separable_exponent(kernel, triplet)
    if gamma is None:
        return *_ratio_search(kernel, triplet, lags, s_box), "grid-approximate"
    if kernel.closed_overlap is not None:
        return kernel.closed_overlap(lags, gamma), np.zeros(len(lags)), "analytic-homogeneous"
    values, errors = np.array([_homogeneous_ratio(kernel, t, gamma) for t in lags]).T
    return values, errors, "analytic-homogeneous"


def _ratio_search(kernel: Kernel, triplet: levy.LevyTriplet, lags: np.ndarray,
                  s_box: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The grid-approximate ratio maximum at each of the (L, d) lags, as
    values (L,) and errors (L,).

    Each lag gets a log grid of DEFAULT_S_POINTS per axis over ``s_box``
    squared, then REFINE_ROUNDS 5 x 5 grids around its argmax, each
    narrower.  Lags go in blocks of at most RATIO_BLOCK, one problem per
    lag in every engine pass: the full grids of a block in passes of
    GRID_LAGS lags, then each refine round the grids of all its lags in
    one pass.  Each stage takes sigma from one ``marginal_exponent_grid``
    call over its distinct frequencies.  At lag 0 the ratio is at most 1 by
    Cauchy-Schwarz, with equality at s1 = s2: a zero lag gets 1 with error
    0 and makes no pass.
    """
    s_vals = np.geomspace(s_box[0], s_box[1], DEFAULT_S_POINTS)
    sig = _sigma(kernel, triplet, s_vals)
    den = np.outer(sig, sig)
    grid = np.tile(s_vals, (GRID_LAGS, 1))
    values, errors = np.ones(len(lags)), np.zeros(len(lags))
    moving = lags.any(axis=1).nonzero()[0]
    for start in range(0, len(moving), RATIO_BLOCK):
        at = moving[start:start + RATIO_BLOCK]
        block = lags[at]
        rows = np.arange(len(block))
        # the full grids go GRID_LAGS lags per pass, which bounds the peak memory
        nums, errs = zip(*(_numerators(kernel, triplet, part, grid[:len(part)], grid[:len(part)])
                           for part in np.split(block, range(GRID_LAGS, len(block), GRID_LAGS))))
        err = np.concatenate(errs)
        best, i, j = _argmax(_clamp_ratio(np.concatenate(nums) / den))
        b1, b2 = s_vals[i], s_vals[j]

        spacing = (s_box[1] / s_box[0]) ** (1.0 / (DEFAULT_S_POINTS - 1))
        for _ in range(REFINE_ROUNDS):
            spacing = spacing ** 0.5
            g1 = np.clip(np.geomspace(b1 / spacing, b1 * spacing, 5, axis=1), *s_box)
            g2 = np.clip(np.geomspace(b2 / spacing, b2 * spacing, 5, axis=1), *s_box)
            sig = _sigma(kernel, triplet, np.stack((g1, g2)))
            num, sub_err = _numerators(kernel, triplet, block, g1, g2)
            sub, i, j = _argmax(_clamp_ratio(num / (sig[0][:, :, None] * sig[1][:, None, :])))
            take = sub >= best
            best = np.where(take, sub, best)
            b1, b2 = np.where(take, g1[rows, i], b1), np.where(take, g2[rows, j], b2)
            err = np.maximum(err, sub_err)
        values[at], errors[at] = best, err
    return values, errors


def _argmax(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The largest value of each (n1, n2) grid of an (L, n1, n2) array, at (i, j)."""
    i, j = np.unravel_index(ratios.reshape(len(ratios), -1).argmax(axis=1), ratios.shape[1:])
    return ratios[np.arange(len(ratios)), i, j], i, j


def _homogeneous_ratio(kernel: Kernel, t, gamma: float) -> tuple[float, float]:
    def integrand(fv: np.ndarray, _) -> np.ndarray:
        return (np.abs(fv[0] * fv[1]) ** (gamma / 2.0))[:, None]

    vals, err = integrate_over_support(kernel, integrand, np.array([[t, np.zeros_like(t)]]),
                                       [(gamma, 1.0)])
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
    ratio(-t) = ratio(t), and tags ratio provenance.  One
    ``_ratio_maxima`` call takes every lag of the half lattice.
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
    values, errors, method = _ratio_maxima(kernel, triplet,
                                           lattice[:len(lattice) // 2 + 1], s_box)

    return SpectralProfile(
        kernel=kernel, triplet=triplet, window=float(window), t_step=float(t_step),
        s_grid=s_grid, sigma_sq=np.asarray(sigma_sq), sigma_err=sigma_err,
        t_grid=lattice, ratio_values=np.concatenate([values, values[-2::-1]]),
        ratio_error=float(np.max(errors)),
        ratio_method=method, s_box=(float(s_box[0]), float(s_box[1])),
        s_points=int(s_points),
    )
