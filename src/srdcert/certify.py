"""Certification pipeline: threshold choice, convergence integrals, verdict.

A pair (kernel, triplet) earns "certified-SRD" when a dependence threshold
r < 1 exists whose exceedance region has finite measure inside the profiled
window, the frequency integral

    integral_0^inf (sigma(s)/s) * exp(-(1 - r) * sigma^2(s)) ds

converges, and the lagwise integral of the maximal dependence ratio
converges.  Anything short of that is "inconclusive"; the pipeline never
claims long-range dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import levy
from .errors import DivergentNormError, QuadratureError, RejectionError
from .kernels import (
    BoundedBox,
    IntegrabilityReport,
    Kernel,
    _lp_power_integral,
    check_integrability,
)
from .quadrature import fit_power_law, integrate_box
from .spectral import (
    DEFAULT_S_BOX,
    SpectralProfile,
    build_profile,
    marginal_exponent_grid,
    separable_exponent,
)

DEFAULT_CANDIDATES = (0.25, 0.5, 0.75, 0.9)
TAIL_CAP_FRACTION = 0.05
FREQ_ERROR_BUDGET = 1e-3
# fitted growth below this reads as saturation: sigma^2 stops growing and
# the frequency integral diverges logarithmically
SATURATION_EXPONENT = 0.05


def default_window(kernel: Kernel, window: float | None = None,
                   t_step: float | None = None) -> tuple[float, float]:
    """(window, t_step), each filled in where missing by heuristics sized to
    the kernel's footprint."""
    sup = kernel.support
    if isinstance(sup, BoundedBox):
        w = max(3.0 * sup.diameter, 1.0)
    else:
        w = max(40.0 * sup.radius, 20.0)
    return (w if window is None else window,
            w / 120.0 if t_step is None else t_step)


# ---------------------------------------------------------------------------
# threshold choice


@dataclass(frozen=True)
class ThresholdChoice:
    """Outcome of scanning candidate thresholds against the profile."""

    threshold: float
    exceedance_measure: float
    method: str
    feasible: tuple[float, ...]
    rejected: tuple[tuple[float, str], ...] = ()

    @property
    def found(self) -> bool:
        return not math.isnan(self.threshold)


def choose_threshold(profile: SpectralProfile,
                     candidates: tuple[float, ...] = DEFAULT_CANDIDATES
                     ) -> ThresholdChoice:
    """Smallest candidate whose exceedance region is safely contained.

    A lag counts toward the exceedance region of a candidate r when its
    ratio plus the ratio error exceeds r: containment uses the upper end of
    each ratio's error interval.  A candidate r is feasible when no such lag
    lies at or beyond the margin (strict containment, two lattice cells
    inside the window) and
    the outermost shell does not grow versus the next one.  On a profiled
    kernel a separable ratio does not increase along rays (Anderson's
    theorem, see ``kernels.Profile``), so the margin check bounds every lag
    beyond the window too; the shell check serves ratios that need not be
    monotone, such as those of Poisson and tabulated jumps.  Smaller feasible
    thresholds are preferred: they shrink the covariance-bound constant.
    Where the pair is separable and the kernel registers
    ``closed_exceedance``, the exceedance measure is that closed form,
    tagged "analytic-overlap"; otherwise it is the cell count times cell
    volume, tagged "grid-count".
    """
    if not candidates:
        raise RejectionError("threshold-candidates", "no candidates supplied")
    cands = tuple(sorted(set(float(c) for c in candidates)))
    if any(not (0.0 < c < 1.0) for c in cands):
        raise RejectionError("threshold-candidates",
                             f"candidates must lie in (0, 1): {cands}")

    radii = np.max(np.abs(profile.t_grid), axis=1)
    ratios = profile.ratio_values
    window = profile.window
    step = profile.t_step
    margin = window - 2.0 * step

    outer_shell = radii >= window - step * 0.5
    inner_shell = (radii >= window - 1.5 * step) & ~outer_shell
    shell_ok = True
    if outer_shell.any() and inner_shell.any():
        shell_ok = float(ratios[outer_shell].max()) <= \
            float(ratios[inner_shell].max()) + 1e-12

    rejected: list[tuple[float, str]] = []
    feasible: list[float] = []
    for cand in cands:
        exceed = ratios + profile.ratio_error > cand
        if exceed.any() and float(radii[exceed].max()) > margin:
            rejected.append((cand, "exceedance region touches the window margin"))
            continue
        if not shell_ok:
            rejected.append((cand, "ratio not decreasing at the window boundary"))
            continue
        feasible.append(cand)

    if not feasible:
        return ThresholdChoice(threshold=math.nan, exceedance_measure=math.nan,
                               method="none", feasible=(),
                               rejected=tuple(rejected))

    best = feasible[0]
    gamma = separable_exponent(profile.kernel, profile.triplet)
    if gamma is not None and profile.kernel.closed_exceedance is not None:
        measure = profile.kernel.closed_exceedance(best, gamma)
        method = "analytic-overlap"
    else:
        exceed = ratios + profile.ratio_error > best
        measure = profile.cell_volume * float(exceed.sum())
        method = "grid-count"
    return ThresholdChoice(threshold=best, exceedance_measure=measure,
                           method=method, feasible=tuple(feasible),
                           rejected=tuple(rejected))


# ---------------------------------------------------------------------------
# frequency integral


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    error: float
    divergent: bool
    note: str = ""
    head: float = 0.0
    middle: float = 0.0
    tail: float = 0.0


def frequency_integral(profile: SpectralProfile, threshold: float
                       ) -> IntegralEstimate:
    """integral_0^inf (sigma(s)/s) exp(-(1-threshold) sigma^2(s)) ds.

    A one-term ``levy.power_terms`` gives sigma^2 = C s**gamma for any kernel
    and the value sqrt(pi / (1-threshold)) / gamma, its rounding the error.
    Other pairs fit power-law ends to the profiled grid (erf and erfc closed
    forms below s_min and above s_max) and integrate the middle in one
    engine pass in u = log s, one ``marginal_exponent_grid`` call per round.
    A middle that does not converge makes the error infinite, its message
    in ``note``; a failed sigma^2 call raises.  The budget leaves out the
    error of those sigma^2 values, each held to its own tolerance.
    Saturating growth at the top of the grid (fitted exponent <= 0.05) or
    flat behaviour at the bottom is flagged divergent.
    """
    if not 0.0 <= threshold < 1.0:
        raise RejectionError("threshold", f"threshold={threshold} outside [0, 1)")
    lam = 1.0 - threshold
    s = profile.s_grid
    sig = profile.sigma_sq
    kernel, triplet = profile.kernel, profile.triplet

    terms = levy.power_terms(triplet) or ()
    if len(terms) == 1:
        value = math.sqrt(math.pi / lam) / terms[0][1]
        return IntegralEstimate(value=value, error=4.0 * math.ulp(value), divergent=False)

    if (triplet.b0 == 0.0 and isinstance(kernel.support, BoundedBox)
            and math.isfinite(levy.abs_moment(triplet.measure, 0))):
        mass = levy.abs_moment(triplet.measure, 0)
        bound = 2.0 * mass * kernel.support.volume()
        return IntegralEstimate(
            value=math.inf, error=math.inf, divergent=True,
            note=f"marginal exponent bounded by {bound:g} (finite jump mass,"
                 " no Gaussian part, bounded support): integrand decays like 1/s")

    amp_lo, q_lo, resid_lo = fit_power_law(s[:4], sig[:4])
    amp_hi, q_hi, resid_hi = fit_power_law(s[-4:], sig[-4:])

    if q_lo <= 1e-6:
        return IntegralEstimate(
            value=math.inf, error=math.inf, divergent=True,
            note=f"low-frequency growth exponent {q_lo:.3g} <= 0:"
                 " integrand ~ 1/s at the origin")
    if q_hi <= SATURATION_EXPONENT:
        return IntegralEstimate(
            value=math.inf, error=math.inf, divergent=True,
            note=f"high-frequency growth exponent {q_hi:.3g} <= "
                 f"{SATURATION_EXPONENT}: marginal exponent saturates and the"
                 " integrand decays like 1/s")

    u_min = lam * float(sig[0])
    head = math.sqrt(math.pi) * math.erf(math.sqrt(u_min)) / (q_lo * math.sqrt(lam))

    grid_failures = []

    def integrand(u: np.ndarray, _) -> np.ndarray:
        try:
            s2 = marginal_exponent_grid(kernel, triplet, np.exp(u[:, 0]))[0]
        except QuadratureError as exc:
            grid_failures.append(exc)
            raise
        return (np.sqrt(s2) * np.exp(-lam * s2))[:, None]

    try:
        a, b = math.log(s[0]), math.log(s[-1])
        (middle,), (mid_err,) = integrate_box(
            integrand, np.clip([a, b, 0.0], a, b)[None, :, None], abs_tol=1e-12, rel_tol=1e-9)
        middle, mid_err, note = float(middle[0]), float(mid_err), ""
    except QuadratureError as exc:
        if grid_failures:
            raise  # a failed sigma^2 pass is no verdict: it propagates
        # no convergence: the error estimate is no bound
        middle, mid_err, note = exc.partial, math.inf, f"middle quadrature: {exc}"

    u_max = lam * float(sig[-1])
    tail = math.sqrt(math.pi) * math.erfc(math.sqrt(u_max)) / (q_hi * math.sqrt(lam))

    value = head + middle + tail
    error = mid_err + 2.0 * resid_lo * head + 2.0 * resid_hi * tail \
        + profile.sigma_err
    return IntegralEstimate(value=value, error=error, divergent=False, note=note,
                            head=head, middle=middle, tail=tail)


# ---------------------------------------------------------------------------
# SRD integral


@dataclass(frozen=True)
class SrdEstimate:
    value: float
    window_part: float
    tail: float
    error: float
    divergent: bool
    method: str
    note: str = ""


def srd_integral(profile: SpectralProfile) -> SrdEstimate:
    """integral of the maximal dependence ratio over all lags.

    Where Re K(s f) = Re K(s) |f|**gamma (``separable_exponent``) the ratio
    is integral |f(t-x) f(-x)|**(gamma/2) dx / ||f||_gamma^gamma at every
    frequency, so Fubini gives ||f||_{gamma/2}^gamma / ||f||_gamma^gamma,
    finite exactly when f is in L^{gamma/2} (|B| for a box indicator).
    Non-factorising pairs sum the lattice times the cell volume and add the
    tail beyond the window: exact zero for box supports once the window
    covers the overlap diameter, otherwise a fitted power law over the
    outermost quarter of the profile.
    """
    sup = profile.kernel.support
    window_part = profile.cell_volume * float(np.sum(profile.ratio_values))
    gamma = separable_exponent(profile.kernel, profile.triplet)
    if gamma is not None:
        try:
            half, half_err = _lp_power_integral(profile.kernel, gamma / 2.0)
        except DivergentNormError:
            return SrdEstimate(
                value=math.inf, window_part=window_part, tail=math.inf,
                error=math.inf, divergent=True, method="closed-form-fubini",
                note=f"kernel power {gamma / 2.0:g} not integrable:"
                     f" decay {sup.exponent:g}*{gamma:g}/2 <= dim {profile.dim}")
        full, full_err = _lp_power_integral(profile.kernel, gamma)
        value = half * half / full
        return SrdEstimate(value=value, window_part=value, tail=0.0,
                           error=value * (2.0 * half_err / half + full_err / full),
                           divergent=False, method="closed-form-fubini")

    base_err = profile.ratio_error * len(profile.ratio_values) * profile.cell_volume
    if isinstance(sup, BoundedBox) and profile.window >= sup.diameter:
        return SrdEstimate(value=window_part, window_part=window_part,
                           tail=0.0, error=base_err, divergent=False,
                           method="exact-zero-tail",
                           note="ratios vanish beyond the overlap diameter")

    d = profile.dim
    radii = np.max(np.abs(profile.t_grid), axis=1)
    outer = radii >= 0.75 * profile.window
    vals = profile.ratio_values[outer]
    rads = radii[outer]
    if float(np.max(vals, initial=0.0)) < 1e-15:
        return SrdEstimate(value=window_part, window_part=window_part, tail=0.0,
                           error=base_err, divergent=False,
                           method="vanishing-boundary",
                           note="outer quarter of the profile is zero")
    try:
        amp, expo, resid = fit_power_law(rads, vals)
    except ValueError:
        return SrdEstimate(value=math.inf, window_part=window_part,
                           tail=math.inf, error=math.inf, divergent=True,
                           method="fitted-tail", note="tail fit failed")
    decay = -expo
    if decay <= d + 1e-9:
        return SrdEstimate(
            value=math.inf, window_part=window_part, tail=math.inf,
            error=math.inf, divergent=True, method="fitted-tail",
            note=f"fitted decay exponent {decay:.4g} <= dim {d}")
    # the fit reads l-infinity radii, whose sphere of radius rho has measure d 2^d rho^(d-1)
    tail = amp * d * 2.0 ** d * profile.window ** (d - decay) / (decay - d)
    return SrdEstimate(value=window_part + tail, window_part=window_part,
                       tail=tail, error=base_err + tail * min(1.0, 2.0 * resid),
                       divergent=False, method="fitted-tail",
                       note=f"fit residual {resid:.2g}")


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class CertificateReport:
    """Full audit trail of one certification run."""

    kernel_name: str
    triplet_name: str
    dim: int
    window: float
    t_step: float
    s_box: tuple[float, float]
    s_points: int
    ratio_method: str
    integrability: IntegrabilityReport
    threshold: float
    threshold_method: str
    exceedance_measure: float
    feasible_thresholds: tuple[float, ...]
    freq_value: float
    freq_error: float
    freq_divergent: bool
    srd_value: float
    srd_window_part: float
    srd_tail: float
    srd_error: float
    srd_divergent: bool
    srd_method: str
    verdict: str
    reasons: tuple[str, ...]

    def __post_init__(self):
        if self.verdict not in ("certified-SRD", "inconclusive"):
            raise ValueError(f"illegal verdict {self.verdict!r}")

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-SRD"

    def to_text(self) -> str:
        lines = [
            f"pair: kernel={self.kernel_name}  integrator={self.triplet_name}  dim={self.dim}",
            f"profile: window={self.window:g} step={self.t_step:g}"
            f" s-box=[{self.s_box[0]:g}, {self.s_box[1]:g}] ({self.s_points} pts)"
            f" ratio-method={self.ratio_method}",
            "integrability: " + "; ".join(
                f"{c.key}={'finite' if c.finite else 'divergent'}"
                f" ({c.value:.6g})" for c in self.integrability.conditions),
        ]
        if math.isnan(self.threshold):
            lines.append("threshold: none feasible")
        else:
            lines.append(
                f"threshold: {self.threshold:g} ({self.threshold_method},"
                f" exceedance measure {self.exceedance_measure:.6g},"
                f" feasible {list(self.feasible_thresholds)})")
        lines.append(
            "frequency integral: " + (
                "divergent" if self.freq_divergent
                else f"{self.freq_value:.12g} +- {self.freq_error:.3g}"))
        lines.append(
            "srd integral: " + (
                "divergent" if self.srd_divergent
                else f"{self.srd_value:.12g}"
                     f" (window {self.srd_window_part:.12g},"
                     f" tail {self.srd_tail:.6g}, {self.srd_method})"))
        lines.append(f"verdict: {self.verdict}")
        for r in self.reasons:
            lines.append(f"  reason: {r}")
        if self.ratio_method == "grid-approximate":
            lines.append(
                "  note: ratio maxima searched on the recorded frequency box;"
                " values are lower bounds of the true suprema")
        return "\n".join(lines)

    CSV_FIELDS = (
        "kernel", "integrator", "dim", "window", "t_step", "s_lo", "s_hi",
        "s_points", "ratio_method", "threshold", "threshold_method",
        "exceedance_measure", "freq_value", "freq_error", "freq_divergent",
        "srd_value", "srd_tail", "srd_error", "srd_divergent", "srd_method",
        "verdict", "reasons",
    )

    def csv_row(self) -> list[str]:
        def num(x: float) -> str:
            return f"{x:.17g}"

        return [
            self.kernel_name, self.triplet_name, str(self.dim),
            num(self.window), num(self.t_step), num(self.s_box[0]),
            num(self.s_box[1]), str(self.s_points), self.ratio_method,
            num(self.threshold), self.threshold_method,
            num(self.exceedance_measure), num(self.freq_value),
            num(self.freq_error), str(int(self.freq_divergent)),
            num(self.srd_value), num(self.srd_tail), num(self.srd_error),
            str(int(self.srd_divergent)), self.srd_method, self.verdict,
            "|".join(self.reasons),
        ]


def certify(kernel: Kernel, triplet: levy.LevyTriplet,
            window: float | None = None, t_step: float | None = None,
            s_box: tuple[float, float] = DEFAULT_S_BOX, s_points: int = 40,
            candidates: tuple[float, ...] = DEFAULT_CANDIDATES
            ) -> CertificateReport:
    """Run the full pipeline; raises RejectionError on ill-posed input.

    The verdict is "certified-SRD" exactly when a feasible threshold exists,
    both integrals converge inside their error budgets, and the SRD tail
    extrapolation stays under the cap; otherwise "inconclusive" with reasons.
    """
    integ = check_integrability(kernel, triplet)
    if not integ.all_finite:
        bad = ", ".join(c.key for c in integ.conditions if c.finite is not True)
        raise RejectionError("integrability",
                             f"integrator-kernel moment conditions fail: {bad}")

    window, t_step = default_window(kernel, window, t_step)
    reasons: list[str] = []
    ratio_method = "none"
    choice = ThresholdChoice(math.nan, math.nan, "none", ())
    freq = IntegralEstimate(math.nan, math.nan, False, note="skipped")
    srd = SrdEstimate(math.nan, math.nan, math.nan, math.nan, False, "skipped")
    try:
        profile = build_profile(kernel, triplet, window=window, t_step=t_step,
                                s_box=s_box, s_points=s_points)
    except QuadratureError as exc:
        reasons.append(f"profile: {exc}")
    else:
        ratio_method = profile.ratio_method
        choice = choose_threshold(profile, candidates)
        if not choice.found:
            why = "; ".join(f"{c:g}: {msg}" for c, msg in choice.rejected)
            reasons.append(f"no feasible threshold ({why})")
        else:
            try:
                freq = frequency_integral(profile, choice.threshold)
            except QuadratureError as exc:
                reasons.append(f"frequency integral: {exc}")
            else:
                if freq.divergent:
                    reasons.append(f"frequency integral divergent: {freq.note}")
                elif not freq.error <= FREQ_ERROR_BUDGET * freq.value:  # nan fails too
                    reasons.append(
                        f"frequency integral error {freq.error:.3g} exceeds"
                        f" {FREQ_ERROR_BUDGET:g} relative budget"
                        + (f" ({freq.note})" if freq.note else ""))

        try:
            srd = srd_integral(profile)
        except QuadratureError as exc:
            reasons.append(f"srd: {exc}")
        else:
            if srd.divergent:
                reasons.append(f"srd integral divergent: {srd.note or srd.method}")
            elif srd.tail > TAIL_CAP_FRACTION * srd.value:
                reasons.append(
                    f"srd tail {srd.tail:.3g} exceeds {TAIL_CAP_FRACTION:.0%}"
                    " of the total: window too small to trust extrapolation")

    verdict = "certified-SRD" if not reasons else "inconclusive"
    return CertificateReport(
        kernel_name=kernel.name, triplet_name=triplet.name,
        dim=kernel.dim, window=float(window), t_step=float(t_step),
        s_box=(float(s_box[0]), float(s_box[1])), s_points=int(s_points),
        ratio_method=ratio_method, integrability=integ,
        threshold=choice.threshold, threshold_method=choice.method,
        exceedance_measure=choice.exceedance_measure,
        feasible_thresholds=choice.feasible,
        freq_value=freq.value, freq_error=freq.error,
        freq_divergent=freq.divergent,
        srd_value=srd.value, srd_window_part=srd.window_part,
        srd_tail=srd.tail, srd_error=srd.error, srd_divergent=srd.divergent,
        srd_method=srd.method, verdict=verdict, reasons=tuple(reasons),
    )
