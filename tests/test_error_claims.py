"""Reported errors against references.

Each row takes one field of one certificate and asserts
|value - reference| <= reported error + reference error.  A row that fails
today is ``xfail(strict=True)`` with a reason that names what mends it, so
the fix flips the row.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad  # reference only
from scipy.special import sici  # reference only

from srdcert import kernels, levy, spectral
from srdcert.certify import certify
from srdcert.spectral import (
    DEFAULT_S_BOX,
    DEFAULT_S_POINTS,
    marginal_exponent_grid,
    max_dependence_ratio,
)

from reference import dependence_numerator_grid


def frequency_reference(sigma_sq, lam: float, gamma_lo: float, c_lo: float
                        ) -> tuple[float, float]:
    """integral_0^inf (sigma(s)/s) exp(-lam sigma^2(s)) ds and its error.

    scipy ``quad`` in u = log s over [-60, 8], split every 4 units.  Below
    s0 = e^-60, where sigma^2 ~ c_lo s**gamma_lo, the head is about
    2 sqrt(c_lo) s0**(gamma_lo/2) / gamma_lo; twice that joins the error.
    Above e^8 the integrand is below exp(-lam sigma^2(e^8)), zero here.
    """
    def integrand(u: float) -> float:
        s2 = sigma_sq(math.exp(u))
        return math.sqrt(s2) * math.exp(-lam * s2)

    value = err = 0.0
    for lo in range(-60, 8, 4):
        v, e = quad(integrand, lo, lo + 4, epsabs=1e-15, epsrel=1e-13, limit=200)
        value, err = value + v, err + e
    head = 2.0 * math.sqrt(c_lo) * math.exp(-30.0 * gamma_lo) / gamma_lo
    return value, err + 2.0 * head


@pytest.mark.parametrize("sigma_sq,lam,gamma_lo,c_lo,exact", [
    (lambda s: 2.0 * s ** 0.5, 0.75, 0.5, 2.0, math.sqrt(math.pi / 0.75) / 0.5),
    (lambda s: 0.5 * s * s, 0.5, 2.0, 0.5, math.sqrt(math.pi / 0.5) / 2.0),
    (lambda s: s + s * s / 3.0, 0.75, 1.0, 1.0, 1.8447220304128866),
], ids=["stable-0.5", "gaussian", "tent-gaussian+stable"])
def test_frequency_reference(sigma_sq, lam, gamma_lo, c_lo, exact):
    """The reference reproduces sqrt(pi / lam) / gamma for one power term,
    and the recorded value of the tent Gaussian + stable row."""
    value, err = frequency_reference(sigma_sq, lam, gamma_lo, c_lo)
    assert abs(value - exact) <= err + 1e-14 * exact


@pytest.fixture(scope="module")
def tent_gaussian_stable():
    """The mixed benchmark model: tent kernel, b0 = 1 plus calibrated stable(1)."""
    trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
    return certify(kernels.tent_kernel(1.0), trip, window=3.0, t_step=0.2)


@pytest.mark.xfail(strict=True, reason=(
    "the fitted frequency ends of a Gaussian + stable pair understate their"
    " error; sound closed-form brackets move the value off the benchmark's"
    " recorded mixed reference, so the row waits for a benchmark change that"
    " records that reference again"))
def test_tent_gaussian_stable_freq_value(tent_gaussian_stable):
    # sigma^2(s) = s ||f||_1 + s**2 ||f||_2^2 / 2 = s + s**2 / 3 on the tent
    rep = tent_gaussian_stable
    ref, ref_err = frequency_reference(lambda s: s + s * s / 3.0, 1.0 - rep.threshold,
                                       gamma_lo=1.0, c_lo=1.0)
    assert abs(rep.freq_value - ref) <= rep.freq_error + ref_err


def one_minus_sinc(z: float) -> float:
    """1 - sin(z)/z, from its series below |z| < 0.1 where the difference
    cancels; either branch is within about 1e-13 of it, relative."""
    if abs(z) < 0.1:
        z2 = z * z
        return z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0 * (1.0 - z2 / 72.0)))
    return 1.0 - math.sin(z) / z


POISSON_RATE, POISSON_ATOMS, POISSON_WEIGHTS = 2.0, (-0.5, 2.0), (0.6, 0.4)


def tent_gaussian_poisson_sigma_sq(s: float) -> float:
    """s**2 ||f||_2^2 / 2 + rate sum_i w_i int (1 - cos(s a_i f)) on the tent
    f = (1 - |x|)+, whose jump integral is 2 (1 - sin(s a)/(s a))."""
    jumps = sum(w * one_minus_sinc(s * a) for a, w in zip(POISSON_ATOMS, POISSON_WEIGHTS))
    return s * s / 3.0 + 2.0 * POISSON_RATE * jumps


def test_tent_gaussian_poisson_freq_value():
    """The other mixed benchmark model: tent kernel, b0 = 1 plus
    Poisson(2) with atoms -0.5, 2.  Near 0, sigma^2 ~ 1.5 s**2."""
    trip = levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(
        POISSON_RATE, POISSON_ATOMS, POISSON_WEIGHTS))
    rep = certify(kernels.tent_kernel(1.0), trip, window=3.0, t_step=0.2)
    ref, ref_err = frequency_reference(tent_gaussian_poisson_sigma_sq,
                                       1.0 - rep.threshold, gamma_lo=2.0, c_lo=1.5)
    assert abs(rep.freq_value - ref) <= rep.freq_error + ref_err


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
def test_tent_gaussian_poisson_sigma_sq(s):
    """sigma^2 of the same model at one frequency, one engine pass, against
    the closed form; the reference's error is its rounding."""
    trip = levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(
        POISSON_RATE, POISSON_ATOMS, POISSON_WEIGHTS))
    vals, err = marginal_exponent_grid(kernels.tent_kernel(1.0), trip, np.array([s]))
    ref = tent_gaussian_poisson_sigma_sq(s)
    assert abs(vals[0] - ref) <= err + 1e-15 * ref


def cin(x: float) -> float:
    """Cin(x) = integral_0^x (1 - cos u) du / u = gamma + ln x - Ci(x): its
    power series below 1, where the sici form cancels, and sici above."""
    if x < 1.0:
        # sum_k (-1)**(k+1) x**(2k) / (2k (2k)!), past k = 11 below 1e-40
        return sum((-1) ** (k + 1) * x ** (2 * k) / (2 * k * math.factorial(2 * k))
                   for k in range(1, 12))
    return np.euler_gamma + math.log(x) - sici(x)[1]


def gaussian_2d_poisson_sigma_sq(s: float) -> float:
    """b0 = 1 plus the Poisson above on the 2-D Gaussian exp(-|x|^2): its
    level set {f > y} is the disc of area pi ln(1/y), so integral h(f) dx is
    pi integral_0^1 h(y) dy / y, which gives pi [s**2 / 4 + rate sum_k w_k Cin(|a_k| s)]."""
    jumps = sum(w * cin(abs(a) * s) for a, w in zip(POISSON_ATOMS, POISSON_WEIGHTS))
    return math.pi * (s * s / 4.0 + POISSON_RATE * jumps)


GAUSS_POISSON = levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(
    POISSON_RATE, POISSON_ATOMS, POISSON_WEIGHTS))


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
def test_gaussian_2d_poisson_sigma_sq(s):
    """sigma^2 of 2-D Gaussian + b0 = 1 + Poisson, one pass in the radius,
    against the Cin form; the reference's error is its rounding."""
    vals, err = marginal_exponent_grid(kernels.gaussian_kernel(dim=2), GAUSS_POISSON,
                                       np.array([s]))
    ref = gaussian_2d_poisson_sigma_sq(s)
    assert abs(vals[0] - ref) <= err + 1e-14 * ref


def test_gaussian_2d_poisson_sigma_sq_grid():
    """The 40-frequency grid on [1e-3, 1e3], each value within its own error
    of the Cin form."""
    s = np.geomspace(1e-3, 1e3, 40)
    vals, errs = spectral._marginal_pass(kernels.gaussian_kernel(dim=2), GAUSS_POISSON, s,
                                         levy.cumulant_re, 0.0)
    ref = np.array([gaussian_2d_poisson_sigma_sq(x) for x in s])
    assert np.all(np.abs(vals[:, 0] - ref) <= errs + 1e-14 * ref)


@pytest.mark.parametrize("s", [10.0, 1e3])
def test_gaussian_3d_poisson_sigma_sq(s):
    """The 3-D model against scipy's quad of 4 pi r^2 Re K(s exp(-r^2)) over
    the reach [0, 8.5], cut where the faster atom's phase 2 s exp(-r^2)
    passes a multiple of pi; its stated error joins the comparison."""
    def re_k(v):
        return 0.5 * v * v + POISSON_RATE * sum(
            w * (1.0 - math.cos(a * v)) for a, w in zip(POISSON_ATOMS, POISSON_WEIGHTS))

    cuts = [math.sqrt(math.log(2.0 * s / (k * math.pi)))
            for k in range(1, int(2.0 * s / math.pi) + 1)]
    ref, ref_err = quad(lambda r: 4.0 * math.pi * r * r * re_k(s * math.exp(-r * r)), 0.0, 8.5,
                        points=cuts, limit=20 * len(cuts) + 50, epsabs=1e-10, epsrel=1e-13)
    vals, err = marginal_exponent_grid(kernels.gaussian_kernel(dim=3), GAUSS_POISSON,
                                       np.array([s]))
    assert abs(vals[0] - ref) <= err + ref_err


@pytest.mark.parametrize("kernel, triplet, reference", [
    # 4 (1 - r (1 + ln(1/r))); the profile's lattice count reads 1.605625
    (kernels.box_kernel(dim=2), levy.stable_triplet(1.0), 1.6137056388801092),
    # the disc pi 4 ln(1/r) / 1.5; the profile's lattice count reads 12.463125
    (kernels.gaussian_kernel(dim=2), levy.stable_triplet(1.5), 11.613792481619212),
], ids=["box-2d-stable-1", "gaussian-2d-stable-1.5"])
def test_exceedance_measure(kernel, triplet, reference):
    """The exceedance region of threshold r = 0.25 at the default window is
    the closed measure; it reports no error, and the reference's is its
    rounding."""
    rep = certify(kernel, triplet)
    assert (rep.threshold, rep.threshold_method) == (0.25, "analytic-overlap")
    assert abs(rep.exceedance_measure - reference) <= 1e-12 * reference


# ---------------------------------------------------------------------------
# dependence numerators and ratios of the two mixed tent models

MIXED = {
    "stable": (levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)),
               lambda v: abs(v) + 0.5 * v * v, lambda s: s + s * s / 3.0),
    "poisson": (levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(
        POISSON_RATE, POISSON_ATOMS, POISSON_WEIGHTS)),
                lambda v: 0.5 * v * v + POISSON_RATE * sum(
                    w * 2.0 * math.sin(0.5 * a * v) ** 2
                    for a, w in zip(POISSON_ATOMS, POISSON_WEIGHTS)),
                tent_gaussian_poisson_sigma_sq),
}


def tent_numerator_reference(re_k, t: float, s1: float, s2: float) -> tuple[float, float]:
    """integral sqrt(Re K(s1 f(t - x)) Re K(s2 f(-x))) dx on the tent
    f = (1 - |x|)+ for 0 < t < 2: scipy ``quad`` over the overlap
    [t - 1, 1], cut at the kinks x = 0 and x = t inside it and into 16
    pieces between them, and its error."""
    def integrand(x: float) -> float:
        return math.sqrt(re_k(s1 * max(0.0, 1.0 - abs(t - x))) * re_k(s2 * max(0.0, 1.0 - abs(x))))

    kinks = sorted({t - 1.0, 1.0, *(k for k in (0.0, t) if t - 1.0 < k < 1.0)})
    edges = np.concatenate([np.linspace(lo, hi, 17)[:-1] for lo, hi in zip(kinks, kinks[1:])]
                           + [[1.0]])
    value = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=200)
        value, err = value + v, err + e
    return value, err


@pytest.mark.parametrize("lag", [0.4, 1.3])
@pytest.mark.parametrize("model", sorted(MIXED))
def test_tent_numerator_columns(model, lag):
    """The 25 x 25 numerator grid of the ratio search: its s-box corners and
    the column of its largest ratio lie within the grid's stated error of
    the reference."""
    trip, re_k, sigma_sq = MIXED[model]
    s = np.geomspace(*DEFAULT_S_BOX, DEFAULT_S_POINTS)
    num, err = dependence_numerator_grid(kernels.tent_kernel(1.0), trip, lag, s, s)
    sigma = np.sqrt([sigma_sq(v) for v in s])
    best = np.unravel_index(np.argmax(num / np.outer(sigma, sigma)), num.shape)
    last = len(s) - 1
    for i, j in {(0, 0), (0, last), (last, 0), (last, last), best}:
        ref, ref_err = tent_numerator_reference(re_k, lag, s[i], s[j])
        assert abs(num[i, j] - ref) <= err + ref_err, (i, j)


@pytest.mark.xfail(strict=True, reason=(
    "the grid-approximate ratio maximum is a lower bound of the supremum and"
    " its error is the numerator pass's, so value + error stays below the"
    " supremum; sound suprema are ROADMAP item 8"))
def test_tent_gaussian_stable_ratio_reaches_supremum_at_lag_1():
    """At tent lag 1 the supremum of the Gaussian + stable(1) ratio is at
    least its corner value 0.39269908 (ROADMAP item 8)."""
    trip = MIXED["stable"][0]
    rm = max_dependence_ratio(kernels.tent_kernel(1.0), trip, 1.0)
    assert rm.value + rm.error >= 0.39269908
