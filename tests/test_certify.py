"""Certification pipeline: thresholds, the two integrals, verdicts."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srdcert import kernels, levy
from srdcert.certify import (
    TAIL_CAP_FRACTION,
    CertificateReport,
    certify,
    choose_threshold,
    default_window,
    frequency_integral,
    srd_integral,
)
from srdcert.errors import QuadratureError, RejectionError
from srdcert.quadrature import fit_power_law
from srdcert.spectral import SpectralProfile, build_profile, t_lattice

SQRT_2PI = 2.5066282746310002
HALF_SQRT_2PI = 1.2533141373155001


@pytest.fixture(scope="module")
def box_stable_profile():
    return build_profile(kernels.box_kernel(), levy.stable_triplet(1.0),
                         window=3.0, t_step=0.025)


# Re K = s**2/2 + 1 - cos s is no power sum, so this pair takes the fitted
# ends and the middle pass of the frequency integral
BOX_POISSON = (kernels.box_kernel(), levy.poisson_triplet(1.0, atoms=(1.0,), b0=1.0))


@pytest.fixture(scope="module")
def box_poisson_profile():
    return build_profile(*BOX_POISSON, window=3.0, t_step=0.025)


@pytest.fixture(scope="module")
def box_gaussian_profile():
    return build_profile(kernels.box_kernel(), levy.gaussian_triplet(1.0),
                         window=3.0, t_step=0.025)


# ---------------------------------------------------------------------------
# frequency integral


def test_frequency_integral_stable_alpha_one(box_stable_profile):
    est = frequency_integral(box_stable_profile, 0.5)
    assert not est.divergent
    assert est.value == pytest.approx(SQRT_2PI, rel=1e-10)
    assert est.value == pytest.approx(2.5066282746310002, rel=1e-12)
    assert est.error < 1e-6 * est.value


def test_frequency_integral_gaussian(box_gaussian_profile):
    est = frequency_integral(box_gaussian_profile, 0.5)
    assert est.value == pytest.approx(HALF_SQRT_2PI, rel=1e-10)


@pytest.mark.parametrize("scale", [None, 2.0, 0.3])
def test_frequency_integral_scale_invariant(scale):
    """For pure power growth c*s^a the integral depends only on a, not c."""
    prof = build_profile(kernels.box_kernel(),
                         levy.stable_triplet(0.5, scale=scale),
                         window=3.0, t_step=0.025)
    est = frequency_integral(prof, 0.5)
    target = math.sqrt(math.pi) / (0.5 * math.sqrt(0.5))
    assert est.value == pytest.approx(target, rel=1e-10)
    assert est.value == pytest.approx(5.0132565492620005, rel=1e-12)


def test_frequency_integral_ends_match_scipy_incomplete_gamma(box_poisson_profile):
    """The power-law ends are sqrt(pi) P(1/2, u) / (q sqrt(lam)) and the same with
    Q(1/2, u): erf and erfc of sqrt(u)."""
    from scipy.special import gammainc, gammaincc  # reference only
    tiny = np.finfo(float).tiny
    for u in np.concatenate([[0.0], np.geomspace(1e-12, 800.0, 400)]):
        assert math.erf(math.sqrt(u)) == pytest.approx(gammainc(0.5, u), rel=1e-14, abs=0.0)
        if gammaincc(0.5, u) >= tiny:
            assert math.erfc(math.sqrt(u)) == pytest.approx(gammaincc(0.5, u), rel=1e-12,
                                                            abs=0.0)
        else:
            assert math.erfc(math.sqrt(u)) < tiny
    s, lam = box_poisson_profile.s_grid, 0.5
    for c in np.geomspace(2e-9, 1.6, 12):
        prof = dataclasses.replace(box_poisson_profile,
                                   sigma_sq=c * box_poisson_profile.sigma_sq)
        sig = prof.sigma_sq
        est = frequency_integral(prof, 1.0 - lam)
        q_lo, q_hi = fit_power_law(s[:4], sig[:4])[1], fit_power_law(s[-4:], sig[-4:])[1]
        head = math.sqrt(math.pi) * gammainc(0.5, lam * sig[0]) / (q_lo * math.sqrt(lam))
        tail = math.sqrt(math.pi) * gammaincc(0.5, lam * sig[-1]) / (q_hi * math.sqrt(lam))
        assert est.head == pytest.approx(head, rel=1e-14, abs=0.0)
        assert est.tail == pytest.approx(tail, rel=1e-12, abs=tiny)


def test_frequency_integral_one_term_closed_form(monkeypatch):
    """stable(0.04) on a box: sigma^2 = s**0.04 grows too slowly for the fitted
    ends, which read saturation; the one-term closed form certifies with
    sqrt(pi / 0.75) / 0.04, making no fit and no middle pass."""
    certify_module = sys.modules["srdcert.certify"]

    def unused(*args):
        raise AssertionError("fit or middle pass")

    monkeypatch.setattr(certify_module, "fit_power_law", unused)
    monkeypatch.setattr(certify_module, "marginal_exponent_grid", unused)
    rep = certify(kernels.box_kernel(), levy.stable_triplet(0.04), window=3.0, t_step=0.025)
    assert rep.verdict == "certified-SRD" and rep.threshold == 0.25
    assert rep.freq_value == math.sqrt(math.pi / 0.75) / 0.04
    assert rep.freq_value == pytest.approx(51.1663353973, rel=1e-11)
    assert 0.0 < rep.freq_error <= 8.0 * np.finfo(float).eps * rep.freq_value


def test_frequency_integral_threshold_validation(box_stable_profile):
    with pytest.raises(RejectionError):
        frequency_integral(box_stable_profile, 1.0)
    with pytest.raises(RejectionError):
        frequency_integral(box_stable_profile, -0.1)


def test_frequency_integral_bounded_exponent_diverges():
    prof = build_profile(kernels.box_kernel(),
                         levy.poisson_triplet(1.0, atoms=(1.0,)),
                         window=2.0, t_step=0.25)
    est = frequency_integral(prof, 0.5)
    assert est.divergent
    assert "finite jump mass" in est.note


def test_frequency_integral_flat_profile_diverges(box_poisson_profile):
    flat = dataclasses.replace(box_poisson_profile,
                               sigma_sq=np.ones_like(box_poisson_profile.sigma_sq))
    est = frequency_integral(flat, 0.25)
    assert est.divergent
    assert "low-frequency" in est.note


# ---------------------------------------------------------------------------
# SRD integral


def test_srd_integral_box_exact(box_stable_profile):
    est = srd_integral(box_stable_profile)
    assert est.method == "closed-form-fubini"
    assert est.tail == 0.0
    assert est.value == 1.0


def test_srd_integral_tent_stable():
    prof = build_profile(kernels.tent_kernel(), levy.stable_triplet(1.0),
                         window=6.0, t_step=0.05)
    lattice_sum = prof.cell_volume * prof.ratio_values.sum()
    assert lattice_sum == pytest.approx(1.7777794355713503, rel=1e-12)
    assert abs(lattice_sum - 16.0 / 9.0) < 5e-6
    assert srd_integral(prof).value == pytest.approx(16.0 / 9.0, rel=1e-12)


def test_srd_integral_tent_gaussian():
    prof = build_profile(kernels.tent_kernel(), levy.gaussian_triplet(1.0),
                         window=6.0, t_step=0.05)
    est = srd_integral(prof)
    assert est.value == pytest.approx(1.5, rel=1e-12)


def test_srd_integral_envelope_analytic_tail():
    prof = build_profile(kernels.powerlaw_kernel(3.0, 1.0),
                         levy.gaussian_triplet(1.0),
                         window=40.0, t_step=1.0 / 3.0)
    est = srd_integral(prof)
    assert est.method == "closed-form-fubini"
    assert not est.divergent
    assert est.tail == 0.0
    # ||f||_1^2 / ||f||_2^2 = 3^2 / 2.4
    assert est.value == pytest.approx(3.75, rel=1e-12)


@pytest.mark.parametrize("beta, alpha, exact", [
    (2.0, 1.5, 12.0), (1.6, 1.5, 42.0), (2.5, 1.0, 30.0), (3.0, 0.8, 42.0)])
def test_certify_powerlaw_stable_closed_form(beta, alpha, exact):
    """Pairs with f in L^{alpha/2} certify at ||f||_{alpha/2}^alpha / ||f||_alpha^alpha."""
    rep = certify(kernels.powerlaw_kernel(beta, 1.0), levy.stable_triplet(alpha))
    assert rep.verdict == "certified-SRD", rep.reasons
    assert rep.srd_method == "closed-form-fubini"
    assert rep.srd_value == pytest.approx(exact, rel=1e-12)
    assert rep.srd_tail == 0.0


@given(gamma=st.floats(min_value=0.2, max_value=2.0, exclude_min=True),
       width=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_srd_integral_tent_closed_form(gamma, width):
    """tent(w): (2w/(gamma/2+1))^2 / (2w/(gamma+1)) for every homogeneity gamma."""
    triplet = levy.gaussian_triplet(1.0) if gamma == 2.0 else levy.stable_triplet(gamma)
    prof = build_profile(kernels.tent_kernel(width), triplet, window=width, t_step=width)
    est = srd_integral(prof)
    assert est.value == pytest.approx(
        2.0 * width * (gamma + 1.0) / (gamma / 2.0 + 1.0) ** 2, rel=1e-12)
    assert est.error == 0.0


@pytest.mark.parametrize("kernel, alpha, window, t_step, gap", [
    (kernels.gaussian_kernel(1), 0.7, 20.0, 0.05, 1e-10),
    (kernels.powerlaw_kernel(3.0, 1.0), 1.5, 40.0, 1.0 / 3.0, 0.05),
])
def test_srd_integral_lattice_below_closed_form(kernel, alpha, window, t_step, gap):
    """The lattice sum approaches the closed form from below; for the power
    law the gap is the ratio mass past the window.  On the Gaussian the
    lattice sum of the closed overlap meets the Fubini value to rounding
    (a gap of 0.0), so there ``0 <=`` holds only to rounding."""
    prof = build_profile(kernel, levy.stable_triplet(alpha), window=window, t_step=t_step)
    closed = srd_integral(prof).value
    lattice_sum = prof.cell_volume * float(prof.ratio_values.sum())
    assert 0.0 <= closed - lattice_sum < gap


def test_srd_integral_envelope_divergent():
    prof = build_profile(kernels.powerlaw_kernel(1.5, 1.0),
                         levy.stable_triplet(1.0),
                         window=20.0, t_step=0.5)
    est = srd_integral(prof)
    assert est.divergent
    assert math.isinf(est.value)
    assert "not integrable" in est.note


# ---------------------------------------------------------------------------
# threshold choice


def test_choose_threshold_box(box_stable_profile):
    ch = choose_threshold(box_stable_profile)
    assert ch.found
    assert ch.threshold == 0.25
    assert ch.method == "analytic-overlap"
    assert ch.exceedance_measure == pytest.approx(1.5, rel=1e-12)
    assert ch.feasible == (0.25, 0.5, 0.75, 0.9)


def test_choose_threshold_smallest_feasible(box_stable_profile):
    ch = choose_threshold(box_stable_profile, candidates=(0.9, 0.4))
    assert ch.threshold == 0.4
    assert ch.feasible[0] == ch.threshold
    assert list(ch.feasible) == sorted(ch.feasible)


def test_choose_threshold_window_too_small():
    prof = build_profile(kernels.tent_kernel(), levy.gaussian_triplet(1.0),
                         window=0.5, t_step=0.25)
    ch = choose_threshold(prof, (0.25, 0.5))
    assert not ch.found
    assert math.isnan(ch.threshold)
    assert len(ch.rejected) == 2
    assert all("margin" in msg for _, msg in ch.rejected)


def test_choose_threshold_containment_uses_ratio_upper_bound():
    # lags +-2.75 sit in the inner shell, beyond the margin 2.5; their ratio
    # is below 0.25 but ratio + error is not, so 0.25 is not contained
    prof = build_profile(kernels.box_kernel(), levy.stable_triplet(1.0),
                         window=3.0, t_step=0.25)
    ratios = prof.ratio_values.copy()
    ratios[np.isclose(np.abs(prof.t_grid[:, 0]), 2.75)] = 0.2495
    prof = dataclasses.replace(prof, ratio_values=ratios, ratio_error=1e-3)
    ch = choose_threshold(prof)
    assert ch.threshold == 0.5
    assert (0.25, "exceedance region touches the window margin") in ch.rejected


def test_choose_threshold_rejects_bad_candidates(box_stable_profile):
    with pytest.raises(RejectionError):
        choose_threshold(box_stable_profile, candidates=(0.5, 1.0))
    with pytest.raises(RejectionError):
        choose_threshold(box_stable_profile, candidates=())


def test_powerlaw_margin_alone_bounds_the_lags_beyond_the_window():
    """Power law beta = 1.5 + stable(1.5) at the default window (40, step
    1/3): its ratio falls along |t|, so the margin's ratios (about 0.07 plus
    an error near 1e-11) clear 0.25 for every lag beyond the window too."""
    kern = kernels.powerlaw_kernel(1.5)
    prof = build_profile(kern, levy.stable_triplet(1.5), *default_window(kern))
    ch = choose_threshold(prof)
    assert ch.threshold == 0.25 and ch.rejected == ()
    assert ch.feasible == (0.25, 0.5, 0.75, 0.9)


@pytest.mark.parametrize("kernel, triplet, window, t_step", [
    (kernels.tent_kernel(), levy.stable_triplet(1.5), 3.0, 0.05),
    (kernels.powerlaw_kernel(1.5), levy.stable_triplet(1.5), 20.0, 0.25),
    (kernels.powerlaw_kernel(2.0), levy.stable_triplet(1.2), 20.0, 0.25),
    (kernels.powerlaw_kernel(3.0), levy.gaussian_triplet(1.0), 20.0, 0.25),
    (kernels.gaussian_kernel(1), levy.stable_triplet(0.8), 10.0, 0.1),
], ids=["tent", "powerlaw-1.5", "powerlaw-2", "powerlaw-3", "gaussian"])
def test_separable_ratios_never_rise_along_the_lag(kernel, triplet, window, t_step):
    """A profiled kernel is symmetric unimodal, so by Anderson's theorem a
    separable ratio does not increase with |t|: no lattice step rises by
    more than the two ratios' errors."""
    prof = build_profile(kernel, triplet, window, t_step)
    assert prof.ratio_method == "analytic-homogeneous"
    right = prof.ratio_values[len(prof.t_grid) // 2:]
    assert np.max(np.diff(right)) <= 2.0 * prof.ratio_error


@pytest.mark.parametrize("dim, shell", [(2, 8.0), (3, 24.0)])
def test_fitted_tail_takes_the_cube_shell(dim, shell):
    """The tail fit reads l-infinity radii rho = max |t_i|.  A ratio
    c rho**(-q) then has the tail integral over rho > W of
    shell W**(dim - q) / (q - dim): by the symmetries t_i -> -t_i and the
    orderings of the axes, 8 integral_W^inf x**(1-q) dx in 2-D and
    48 integral_W^inf x**(2-q) / 2 dx in 3-D."""
    kern = kernels.gaussian_kernel(dim)
    trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
    window, step, c, q = 3.0, 0.5, 0.5, dim + 1.5
    lattice = t_lattice(window, step, dim)
    radii = np.maximum(np.max(np.abs(lattice), axis=1), step)
    s = np.geomspace(1e-3, 1e3, 4)
    prof = SpectralProfile(
        kernel=kern, triplet=trip, window=window, t_step=step, s_grid=s, sigma_sq=s,
        sigma_err=0.0, t_grid=lattice, ratio_values=np.minimum(1.0, c * radii ** -q),
        ratio_error=0.0, ratio_method="grid-approximate", s_box=(1e-3, 1e3), s_points=4)
    est = srd_integral(prof)
    assert est.method == "fitted-tail"
    assert est.tail == pytest.approx(c * shell * window ** (dim - q) / (q - dim), rel=1e-12)


# ---------------------------------------------------------------------------
# end-to-end certify


def test_certify_box_stable_certified():
    rep = certify(kernels.box_kernel(), levy.stable_triplet(1.0))
    assert rep.verdict == "certified-SRD"
    assert rep.certified
    assert rep.reasons == ()
    assert rep.threshold == 0.25
    assert rep.srd_value == 1.0
    assert rep.srd_tail == 0.0
    assert rep.freq_value == pytest.approx(math.sqrt(math.pi / 0.75), rel=1e-9)
    assert rep.ratio_method == "analytic-homogeneous"


def test_certify_envelope_gaussian_certified():
    rep = certify(kernels.powerlaw_kernel(3.0, 1.0), levy.gaussian_triplet(1.0))
    assert rep.verdict == "certified-SRD"
    assert rep.srd_method == "closed-form-fubini"
    assert rep.srd_tail <= TAIL_CAP_FRACTION * rep.srd_value


def test_certify_counter_scenario_inconclusive():
    rep = certify(kernels.powerlaw_kernel(1.5, 1.0), levy.stable_triplet(1.0))
    assert rep.verdict == "inconclusive"
    assert rep.srd_divergent
    assert not rep.freq_divergent
    assert rep.freq_value == pytest.approx(SQRT_2PI, rel=1e-9)
    assert any("srd integral divergent" in r for r in rep.reasons)
    assert rep.threshold == 0.5


def test_certify_pure_jump_saturation_inconclusive():
    rep = certify(kernels.box_kernel(), levy.poisson_triplet(1.0, atoms=(1.0,)))
    assert rep.verdict == "inconclusive"
    assert rep.freq_divergent
    assert not rep.srd_divergent
    assert rep.srd_value == pytest.approx(1.0, rel=1e-12)
    assert any("frequency integral divergent" in r for r in rep.reasons)


def test_certify_tail_cap_inconclusive():
    triplet = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.5))
    rep = certify(kernels.powerlaw_kernel(2.0, 1.0), triplet, window=20.0, t_step=0.5)
    assert rep.verdict == "inconclusive"
    assert not rep.srd_divergent
    assert any(r.startswith("srd tail") for r in rep.reasons)


def test_certify_rejects_nonintegrable_pair():
    with pytest.raises(RejectionError) as exc:
        certify(kernels.powerlaw_kernel(1.5, 1.0),
                  levy.stable_triplet(0.5, scale=1.0))
    assert exc.value.condition == "integrability"


def test_certify_report_text_and_csv():
    rep = certify(kernels.box_kernel(), levy.stable_triplet(1.0))
    text = rep.to_text()
    assert "verdict: certified-SRD" in text
    assert "threshold: 0.25" in text
    row = rep.csv_row()
    assert len(row) == len(CertificateReport.CSV_FIELDS)
    assert row[CertificateReport.CSV_FIELDS.index("verdict")] == "certified-SRD"


def test_certificate_verdict_invariant():
    rep = certify(kernels.box_kernel(), levy.stable_triplet(1.0))
    with pytest.raises(ValueError):
        dataclasses.replace(rep, verdict="LRD")
    with pytest.raises(ValueError):
        dataclasses.replace(rep, verdict="certified-LRD")


# ---------------------------------------------------------------------------
# jump-mass helper


def test_total_jump_mass_variants():
    assert levy.abs_moment(levy.NO_JUMPS, 0) == 0.0
    assert math.isinf(levy.abs_moment(levy.SymmetricStable(1.0), 0))
    assert levy.abs_moment(
        levy.CompoundPoisson(2.5, (1.0,), (1.0,)), 0) == 2.5


def test_total_jump_mass_tabulated_power_law():
    grid = (0.1, 1.0, 10.0)
    dens = tuple(g ** -2.5 for g in grid)
    mass = levy.abs_moment(levy.TabulatedMeasure(grid, dens), 0)
    assert mass == pytest.approx((0.1 ** -1.5 - 10.0 ** -1.5) / 1.5, rel=1e-12)


def test_total_jump_mass_tabulated_trapezoid_fallback():
    # a piece with a zero knot is linear in log r: 2 (1 - log2(r)) on [1, 2]
    mass = levy.abs_moment(levy.TabulatedMeasure((1.0, 2.0), (2.0, 0.0)), 0)
    assert mass == pytest.approx(2.0 * (1.0 / math.log(2.0) - 1.0), rel=1e-12)


def test_total_jump_mass_rising_ramp_bounds_real_cumulant():
    """2 * mass bounds Re K, as frequency_integral's divergence note states."""
    measure = levy.TabulatedMeasure((1.0, 2.0), (0.0, 2.0))
    mass = levy.abs_moment(measure, 0)
    assert mass == pytest.approx(2.0 - 2.0 * (1.0 / math.log(2.0) - 1.0), rel=1e-12)
    re_k = levy.cumulant_re(levy.LevyTriplet(measure=measure), np.linspace(0.1, 20.0, 400))
    assert re_k.max() > 2.1
    assert 2.0 * mass >= re_k.max()


@pytest.mark.parametrize("dim", [1, 2])
def test_box_indicator_srd_is_fubini_for_any_triplet(dim):
    """Re K(s 1_B) = Re K(s) 1_B for every triplet, so the SRD integral is
    ||1_B||_1^2 / ||1_B||_2^2 = |B| with no lattice sum."""
    trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
    rep = certify(kernels.box_kernel(dim=dim), trip, window=3.0, t_step=0.3)
    assert rep.verdict == "certified-SRD"
    assert rep.srd_method == "closed-form-fubini"
    assert rep.srd_value == 1.0 and rep.srd_error == 0.0 and rep.srd_tail == 0.0


def test_frequency_integral_nonconvergence_blows_budget(monkeypatch):
    """A middle quadrature that does not converge must not pass silently."""
    certify_module = sys.modules["srdcert.certify"]  # the package exports the function

    def wild_sigma_sq_grid(kernel, triplet, s):
        return 1.0 + np.sin(1e4 * s) ** 2, 0.0

    monkeypatch.setattr(certify_module, "marginal_exponent_grid", wild_sigma_sq_grid)
    rep = certify(*BOX_POISSON)
    assert rep.verdict == "inconclusive"
    assert math.isinf(rep.freq_error) and not rep.freq_divergent
    (reason,) = rep.reasons
    assert reason.startswith("frequency integral error inf exceeds 0.001 relative budget")
    assert "middle quadrature: " in reason and "target precision not reached" in reason


def test_frequency_integral_nan_middle_is_inconclusive(monkeypatch):
    """A middle that fails on non-finite values gives no certificate."""
    certify_module = sys.modules["srdcert.certify"]

    def nan_sigma_sq_grid(kernel, triplet, s):
        return np.full(len(s), np.nan), 0.0

    monkeypatch.setattr(certify_module, "marginal_exponent_grid", nan_sigma_sq_grid)
    rep = certify(*BOX_POISSON)
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.freq_value) and math.isinf(rep.freq_error)
    (reason,) = rep.reasons
    assert "middle quadrature: " in reason and "non-finite values encountered" in reason


def failing_grid(kernel, triplet, s):
    raise QuadratureError("sigma^2 pass failed")


def test_frequency_integral_sigma_sq_failure_propagates(monkeypatch, box_poisson_profile):
    """A failed sigma^2 grid call is not the middle's non-convergence."""
    monkeypatch.setattr(sys.modules["srdcert.certify"], "marginal_exponent_grid", failing_grid)
    with pytest.raises(QuadratureError, match=r"sigma\^2 pass failed"):
        frequency_integral(box_poisson_profile, 0.5)


def test_certify_sigma_sq_failure_inconclusive(monkeypatch):
    """certify turns the raise of a failed sigma^2 call into a reason."""
    monkeypatch.setattr(sys.modules["srdcert.certify"], "marginal_exponent_grid", failing_grid)
    trip = levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4), b0=1.0)
    rep = certify(kernels.tent_kernel(), trip, window=3.0, t_step=0.2)
    assert rep.verdict == "inconclusive"
    (reason,) = rep.reasons
    assert reason.startswith("frequency integral: sigma^2 pass failed")
    assert math.isnan(rep.freq_value)


def test_certify_tabulated_table_pin():
    """Box + b0 = 1 + the 31-knot bench table at the default window: the
    frequency middle evaluates the tabulated cumulant one array per round."""
    pos = np.geomspace(1e-3, 1e3, 31)
    grid = np.concatenate([-pos[::-1], pos])
    table = levy.TabulatedMeasure(tuple(grid), tuple(0.1 * np.abs(grid) ** -2.0))
    rep = certify(kernels.box_kernel(), levy.LevyTriplet(b0=1.0, measure=table))
    assert rep.verdict == "certified-SRD"
    assert rep.threshold == 0.25
    assert abs(rep.freq_value - 1.4505889876698472) <= rep.freq_error
    assert rep.srd_value == 1.0


def test_frequency_integral_batches_sigma_sq(monkeypatch, box_poisson_profile):
    """The middle makes one sigma^2 grid call per subdivision round."""
    unpatched = frequency_integral(box_poisson_profile, 0.5).value
    certify_module = sys.modules["srdcert.certify"]
    grid = certify_module.marginal_exponent_grid
    sizes = []

    def counting_grid(kernel, triplet, s):
        sizes.append(len(s))
        return grid(kernel, triplet, s)

    monkeypatch.setattr(certify_module, "marginal_exponent_grid", counting_grid)
    est = frequency_integral(box_poisson_profile, 0.5)
    assert est.value == pytest.approx(unpatched, rel=1e-9)
    assert 1 <= len(sizes) <= 10, sizes
    assert all(n > 0 and n % 21 == 0 for n in sizes), sizes
