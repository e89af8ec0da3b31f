"""Monte Carlo validation: lattice sampling and empirical bound checks.

The field is approximated on a lattice of mesh ``h``: each cell carries an
independent increment of the integrator with cell volume ``h**d``, and the
field value at a lag is the kernel-weighted sum of increments.  All lags of
one sample share the same increments, so joint dependence is reproduced.
Checks cover the empirical characteristic function, the factorization gap
of the joint characteristic function, and the smoothed indicator-covariance
bound on the low-dependence region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import levy
from .certify import frequency_integral
from .errors import RejectionError
from .kernels import BoundedBox, Kernel
from .spectral import (
    SpectralProfile,
    cross_integrals,
    marginal_cumulant,
)

# rows of a sampler chunk, fewer where one rows x cells array would hold
# more than _CHUNK_ELEMENTS values
CHUNK = 1024
_CHUNK_ELEMENTS = CHUNK * 1024
MAX_CELLS = 200_000
# envelope kernels are truncated where the decay bound falls below this
# fraction of the peak; the neglected cumulant mass is orders of magnitude
# below Monte Carlo resolution
TRUNCATION_FRACTION = 1e-9
# frequency moduli of the factorization check's triples
FACTORIZATION_S_RANGE = (0.1, 10.0)


# ---------------------------------------------------------------------------
# probe measures


@dataclass(frozen=True)
class ProbeMeasure:
    """Finite probability measure smoothing the exceedance indicators."""

    points: tuple[float, ...]
    weights: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        wts = tuple(float(w) for w in self.weights)
        if len(pts) == 0 or len(pts) != len(wts):
            raise RejectionError("probe-measure", "points and weights must align")
        if any(not math.isfinite(p) for p in pts):
            raise RejectionError("probe-measure", "points must be finite")
        if any(w <= 0.0 for w in wts):
            raise RejectionError("probe-measure", "weights must be positive")
        if abs(sum(wts) - 1.0) > 1e-9:
            raise RejectionError("probe-measure", f"weights sum to {sum(wts)}")
        order = sorted(range(len(pts)), key=lambda i: pts[i])
        object.__setattr__(self, "points", tuple(pts[i] for i in order))
        object.__setattr__(self, "weights", tuple(wts[i] for i in order))

    def char(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        p = np.asarray(self.points)
        w = np.asarray(self.weights)
        return np.exp(1j * np.multiply.outer(s, p)) @ w


def point_mass(u: float = 0.0) -> ProbeMeasure:
    return ProbeMeasure((u,), (1.0,), name=f"point({u:g})")


def finite_discrete(points: tuple[float, ...]) -> ProbeMeasure:
    """Equal-weight atoms at ``points``."""
    return ProbeMeasure(tuple(points), tuple(1.0 / len(points) for _ in points),
                        name=f"discrete({len(points)})")


def gaussian_quantiles(n: int = 512) -> ProbeMeasure:
    """Equal-weight atoms at the midpoint quantiles of a standard normal."""
    if n < 1:
        raise RejectionError("probe-measure", "need at least one quantile")
    qs = [NormalDist().inv_cdf((k + 0.5) / n) for k in range(n)]
    return ProbeMeasure(tuple(qs), tuple(1.0 / n for _ in range(n)),
                        name=f"gaussian-quantiles({n})")


# ---------------------------------------------------------------------------
# lattice sampler


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    lattice_step: float
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise RejectionError("sim-config", "n_samples must be positive")
        if not (self.lattice_step > 0 and math.isfinite(self.lattice_step)):
            raise RejectionError("sim-config", "lattice_step must be positive")
        if self.seed < 0:
            raise RejectionError("sim-config", "seed must be >= 0")


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Joint samples of the field at fixed lags; values has shape (n, lags)."""

    lags: tuple
    values: np.ndarray
    n_cells: int
    config: SimConfig
    kernel_name: str
    triplet_name: str

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]


def _as_lag_array(lags, dim: int) -> np.ndarray:
    arr = np.asarray(lags, dtype=float)
    if arr.ndim == 1 and dim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise RejectionError("sim-lags", f"lags must be ({len(arr)}, {dim})-shaped")
    return arr


def _cell_centers(kernel: Kernel, lags: np.ndarray, h: float
                  ) -> tuple[np.ndarray, float]:
    """Midpoint lattice covering every shifted copy of the support."""
    sup = kernel.support
    if isinstance(sup, BoundedBox):
        lo = [float(lags[:, a].min()) - sup.hi[a] for a in range(kernel.dim)]
        hi = [float(lags[:, a].max()) - sup.lo[a] for a in range(kernel.dim)]
    else:
        radius = sup.radius * max(
            (1.0 / TRUNCATION_FRACTION) ** (1.0 / sup.exponent), 4.0)
        lo = [float(lags[:, a].min()) - radius for a in range(kernel.dim)]
        hi = [float(lags[:, a].max()) + radius for a in range(kernel.dim)]
    counts = [max(1, int(math.ceil((hi[a] - lo[a]) / h - 1e-12)))
              for a in range(kernel.dim)]
    total = math.prod(counts)
    if total > MAX_CELLS:
        raise RejectionError(
            "lattice-too-large",
            f"{total} cells exceed the {MAX_CELLS} cap; increase the step")
    axes = [lo[a] + (np.arange(counts[a]) + 0.5) * h
            for a in range(kernel.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    return centers, h ** kernel.dim


def _standard_symmetric_stable(u: np.ndarray, e: np.ndarray | None,
                               alpha: float) -> np.ndarray:
    """Symmetric stable variates with char exp(-|s|^alpha).

    ``u`` uniform on (-pi/2, pi/2), ``e`` standard exponential
    (Chambers, Mallows & Stuck 1976).  At alpha = 1 the tilt exponent
    (1-alpha)/alpha vanishes and the value is tan(u) (Cauchy), one vector
    tangent: ``e`` is not read there and may be None.
    """
    if alpha == 1.0:
        return np.tan(u)
    with np.errstate(divide="ignore", over="ignore"):
        core = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        return core * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)


def sample_field(kernel: Kernel, triplet: levy.LevyTriplet, lags,
                 config: SimConfig) -> FieldSample:
    """Draw joint field samples at the given lags.

    Chunked with a counter-based generator: sample i is byte-identical for
    every n_samples >= i+1 under the same seed, because each chunk draws
    full-size arrays from its own jumped stream, multiplies them by the
    weights whole (BLAS rounds a row differently in products of different
    row counts) and slices.  A chunk has CHUNK rows, fewer where one
    rows x width array (width the cells, or the factor rows of a Gaussian
    field) would exceed _CHUNK_ELEMENTS values: the rows depend on the
    lattice alone, never on n_samples.  With jumps a
    chunk draws per cell the Gaussian part, then the stable uniforms and
    exponentials (none at alpha = 1, which does not read them) or the
    Poisson counts and their split.  A purely Gaussian field draws Z R
    sqrt(b0 h^d) + drift, one normal per lag and sample, with R^T R = W^T W
    for the cells' kernel weights W: the lattice covariance, so the lattice
    law.  R comes from QR, as Cholesky fails where W^T W is singular.
    """
    measure = triplet.measure
    if isinstance(measure, levy.TabulatedMeasure):
        raise RejectionError("unsupported-measure",
                             "tabulated jump measures have no exact sampler")
    lag_arr = _as_lag_array(lags, kernel.dim)
    centers, vol = _cell_centers(kernel, lag_arr, config.lattice_step)
    n_cells = len(centers)
    weights = np.stack([kernel(lag_arr[i] - centers)
                        for i in range(len(lag_arr))], axis=1)

    drift_term = triplet.a0 * vol * weights.sum(axis=0)
    if isinstance(measure, levy.NoJumps):
        factor = np.linalg.qr(weights, mode="r") * math.sqrt(triplet.b0 * vol)
    elif isinstance(measure, levy.SymmetricStable):
        cell_scale = (vol * measure.scale * levy.stable_re_constant(measure.alpha)
                      ) ** (1.0 / measure.alpha)
    else:
        atoms = np.asarray(measure.atoms)
        pvals = np.asarray(measure.weights)
        comp = float(levy._moment(measure, 1, 0.0, 1.0, signed=True))

    width = len(factor) if isinstance(measure, levy.NoJumps) else n_cells
    rows = max(1, min(CHUNK, _CHUNK_ELEMENTS // width))
    shape = (rows, width)
    out = np.empty((config.n_samples, len(lag_arr)))
    base = np.random.Philox(key=config.seed)
    for chunk_idx in range(0, (config.n_samples + rows - 1) // rows):
        rng = np.random.Generator(base.jumped(chunk_idx))
        take = min(rows, config.n_samples - chunk_idx * rows)
        if isinstance(measure, levy.NoJumps):
            block = rng.standard_normal(shape) @ factor
        else:
            normal = (rng.normal(scale=math.sqrt(triplet.b0 * vol), size=shape)
                      if triplet.b0 > 0.0 else None)
            if isinstance(measure, levy.SymmetricStable):
                u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=shape)
                # the chunk's last draw, so leaving it out moves no other
                e = None if measure.alpha == 1.0 else rng.standard_exponential(size=shape)
                incr = _standard_symmetric_stable(u, e, measure.alpha)
                incr *= cell_scale
            else:
                counts = rng.poisson(lam=measure.rate * vol, size=shape)
                if len(atoms) == 1:
                    incr = counts * measure.atoms[0]
                else:
                    incr = (rng.multinomial(counts.ravel(), pvals) @ atoms).reshape(shape)
                incr -= comp * vol
            if normal is not None:
                incr += normal
            block = incr @ weights
        out[chunk_idx * rows:chunk_idx * rows + take] = block[:take] + drift_term
    lag_tuples = tuple(tuple(float(v) for v in row) for row in lag_arr)
    return FieldSample(lags=lag_tuples, values=out,
                       n_cells=n_cells, config=config,
                       kernel_name=kernel.name,
                       triplet_name=triplet.name)


# ---------------------------------------------------------------------------
# empirical statistics


def empirical_char(values: np.ndarray, s_grid: np.ndarray
                   ) -> tuple[np.ndarray, float]:
    """Empirical characteristic function and a uniform standard error.

    One real pass over the sample per distinct |s| takes C = mean cos(|s|x)
    and S = mean sin(|s|x); +s and -s share it through
    phi(s) = C + i sign(s) S, so phi(-s) = conj(phi(s)) and phi(0) = 1
    exactly.  Both means come from one vector tangent tau = tan(|s|x/2):
    with r = 1/(1 + tau**2), cos = 2r - 1 and sin = 2 tau r, so
    C = 2 mean(r) - 1 and S = 2 mean(tau r).  Two sample-sized buffers are
    reused for every |s|, so memory is linear in the sample count, whatever
    the grid.  Real and imaginary parts each have variance at most 1/n, so
    the complex deviation has standard error at most sqrt(2/n).
    """
    values = np.asarray(values, dtype=float).ravel()
    s_grid = np.asarray(s_grid, dtype=float)
    moduli, which = np.unique(np.abs(s_grid), return_inverse=True)
    cos_mean = np.empty(len(moduli))
    sin_mean = np.empty(len(moduli))
    tau = np.empty_like(values)
    r = np.empty_like(values)
    for k, m in enumerate(moduli):
        np.tan(np.multiply(values, 0.5 * m, out=tau), out=tau)
        np.multiply(tau, tau, out=r)
        r += 1.0
        np.reciprocal(r, out=r)
        cos_mean[k] = 2.0 * r.mean() - 1.0
        sin_mean[k] = 2.0 * np.multiply(tau, r, out=tau).mean()
    phi = cos_mean[which] + 1j * np.sign(s_grid) * sin_mean[which]
    return phi, math.sqrt(2.0 / len(values))


def exceedance_cov(x0: np.ndarray, xt: np.ndarray, u_levels: np.ndarray,
                   v_levels: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cov(1{x0 > u_k}, 1{xt > v_l}) on the full level grid.

    Counting runs through a 2-D histogram of level ranks and a reverse
    double cumulative sum, so cost is O(n + K*L) rather than O(n*K*L).
    Returns (cov, se, p_u, p_v) with the delta-method standard error.
    The K x L arrays are updated in place: at most three are held at once.
    """
    x0 = np.asarray(x0, dtype=float)
    xt = np.asarray(xt, dtype=float)
    u_levels = np.asarray(u_levels, dtype=float)
    v_levels = np.asarray(v_levels, dtype=float)
    n = len(x0)
    cols = len(v_levels) + 1
    rank = np.searchsorted(u_levels, x0, side="left") * cols
    rank += np.searchsorted(v_levels, xt, side="left")
    hist = np.bincount(rank, minlength=(len(u_levels) + 1) * cols).reshape(-1, cols)
    suffix = hist[::-1, ::-1]
    np.cumsum(suffix, axis=0, out=suffix)
    np.cumsum(suffix, axis=1, out=suffix)
    p11 = hist[1:, 1:] / n
    p1 = hist[1:, 0] / n
    p2 = hist[0, 1:] / n
    del hist, suffix
    cov = p11 - np.outer(p1, p2)
    m1 = 1.0 - 2.0 * p1
    m2 = 1.0 - 2.0 * p2
    # second = p11 m1 m2 + p1^2 p2 m2 + p1 m1 p2^2 + p1^2 p2^2, summed in
    # that order; p11's buffer takes each outer product once p11 is read
    second = np.outer(m1, m2)
    second *= p11
    for a, b in ((p1 ** 2, p2 * m2), (p1 * m1, p2 ** 2), (p1 ** 2, p2 ** 2)):
        second += np.outer(a, b, out=p11)
    second -= np.square(cov, out=p11)
    np.clip(second, 0.0, None, out=second)
    second /= n
    return cov, np.sqrt(second, out=second), p1, p2


def probe_smoothed_cov(x0: np.ndarray, xt: np.ndarray, probe: ProbeMeasure,
                       signed: bool = False) -> tuple[float, float]:
    """Probe-averaged indicator covariance and a conservative standard error.

    With ``signed`` the covariances are averaged as they are; otherwise
    their absolute values are (the quantity the covariance bound controls).
    """
    cov, se, _, _ = exceedance_cov(x0, xt, np.asarray(probe.points),
                                   np.asarray(probe.points))
    w = np.asarray(probe.weights)
    body = cov if signed else np.abs(cov)
    value = float(w @ body @ w)
    return value, float(w @ se @ w)


# ---------------------------------------------------------------------------
# bound checks


@dataclass(frozen=True)
class FactorizationReport:
    """Joint-vs-product characteristic gap against its analytic bound."""

    kernel_name: str
    triplet_name: str
    n_triples: int
    violations: int
    max_excess: float
    max_gap: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def factorization_check(kernel: Kernel, triplet: levy.LevyTriplet,
                        n_triples: int = 200, seed: int = 0,
                        tol: float = 1e-8) -> FactorizationReport:
    """Verify |phi_t(s1,s2) - phi(s1) phi(s2)| <= exp(-D) * 2 * N.

    N is the mixed square-root integral and D = sigma^2(s1) + sigma^2(s2)
    - 2N its complement.  The joint characteristic function is
    phi(s1) phi(s2) exp(-C), C the cross cumulant (``cross_integrals``), so
    the gap is |phi(s1) phi(s2)| |exp(-C) - 1| and no two exponentials are
    subtracted.  Both sides are deterministic quadratures, so any
    excess beyond ``tol`` is a genuine inequality failure.  Lags are
    uniform up to 1.5 support diameters (6 envelope radii), and frequency
    moduli log-uniform over FACTORIZATION_S_RANGE.
    """
    sup = kernel.support
    lag_max = sup.diameter * 1.5 if isinstance(sup, BoundedBox) else sup.radius * 6.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    lags = rng.uniform(0.0, lag_max, size=(n_triples, kernel.dim))
    log_lo, log_hi = (math.log(s) for s in FACTORIZATION_S_RANGE)
    s_pairs = np.exp(rng.uniform(log_lo, log_hi, size=(n_triples, 2)))
    s_pairs *= rng.choice([-1.0, 1.0], size=(n_triples, 2))

    marginal = marginal_cumulant(kernel, triplet, s_pairs.ravel()).reshape(n_triples, 2)
    cross, mixed = cross_integrals(kernel, triplet, lags, s_pairs[:, 0], s_pairs[:, 1])
    lhs = np.exp(-marginal.real.sum(axis=1)) * np.abs(np.expm1(-cross))
    dsq = np.maximum(marginal.real, 0.0).sum(axis=1) - 2.0 * mixed
    rhs = np.exp(-np.maximum(dsq, 0.0)) * 2.0 * mixed
    excess = lhs - rhs
    failed = excess > tol * (1.0 + np.abs(rhs))
    return FactorizationReport(
        kernel_name=kernel.name,
        triplet_name=triplet.name,
        n_triples=n_triples, violations=int(failed.sum()),
        max_excess=float(excess[failed].max(initial=0.0)),
        max_gap=float(lhs.max(initial=0.0)))


@dataclass(frozen=True)
class CovarianceBoundReport:
    """Monte Carlo check of the smoothed covariance bound at one lag."""

    lag: tuple
    probe_name: str
    threshold: float
    ratio_at_lag: float
    freq_integral: float
    rhs: float
    lhs: float
    se: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.se


def covariance_bound_check(profile: SpectralProfile, t, probe: ProbeMeasure,
                           threshold: float, config: SimConfig,
                           sample: FieldSample | None = None
                           ) -> CovarianceBoundReport:
    """Check the probe-smoothed covariance bound at lag t.

    The bound (2/pi^2) * I(threshold)^2 * ratio(t) only holds where the
    maximal ratio plus its error stays below the threshold, so lags outside
    that region are rejected.  ``sample`` lets callers reuse one set of field draws
    across several probes.
    """
    kernel, triplet = profile.kernel, profile.triplet
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ratio = profile.ratio_at(tuple(t_arr))
    if ratio.value + ratio.error > threshold + 1e-12:
        raise RejectionError(
            "lag-outside-low-dependence",
            f"ratio {ratio.value:.6g} + error {ratio.error:.3g} at lag {t}"
            f" exceeds threshold {threshold}")
    freq = frequency_integral(profile, threshold)
    if freq.divergent:
        raise RejectionError("frequency-divergent",
                             f"bound constant is infinite: {freq.note}")
    rhs = 2.0 / math.pi ** 2 * freq.value ** 2 * ratio.value
    if sample is None:
        zero = tuple(0.0 for _ in t_arr)
        sample = sample_field(kernel, triplet, [zero, tuple(t_arr)], config)
    lhs, se = probe_smoothed_cov(sample.column(0), sample.column(1), probe)
    return CovarianceBoundReport(
        lag=tuple(t_arr), probe_name=probe.name, threshold=threshold,
        ratio_at_lag=ratio.value, freq_integral=freq.value, rhs=rhs,
        lhs=lhs, se=se, n_samples=config.n_samples)
