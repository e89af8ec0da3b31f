"""Marginal exponents, joint characteristic functions, dependence ratios.

Frozen oracle notes: tent-pair literals are closed forms (overlap algebra);
the powerlaw ratio literal 0.9130791975880924 comes from 2e6-point
trapezoid integration with log-mapped tails out to 1e30 (5e-11 agreement);
the compound-Poisson joint characteristic literal is the exact three-region
sum 0.5*(K(1)+K(2)+K(3)) exponentiated.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srdcert import kernels, levy, quadrature, spectral
from srdcert.certify import choose_threshold, default_window, srd_integral
from srdcert.errors import QuadratureError, RejectionError
from srdcert.kernels import (
    box_kernel,
    gaussian_kernel,
    integrate_over_support,
    powerlaw_kernel,
    tabulated_kernel,
    tent_kernel,
)
from srdcert.levy import gaussian_triplet, poisson_triplet, stable_triplet
from srdcert.spectral import (
    DEFAULT_S_BOX,
    DEFAULT_S_POINTS,
    _clamp_ratio,
    build_profile,
    char_marginal,
    marginal_exponent_grid,
    marginal_exponent_sq,
    max_dependence_ratio,
    t_lattice,
)

from reference import dependence_numerator_grid, dependence_ratio_grid


class TestMarginalExponent:
    def test_gaussian_box(self):
        # 0.5 * s^2 * ||f||_2^2 on the unit box
        assert marginal_exponent_sq(box_kernel(), gaussian_triplet(1.0), 2.0) == \
            pytest.approx(2.0, rel=1e-12)

    def test_stable_scaling_identity(self):
        # |s|^alpha * ||f||_alpha^alpha for calibrated stable integrators
        for alpha in (0.5, 1.0, 1.5):
            trip = stable_triplet(alpha)
            got = marginal_exponent_sq(box_kernel(), trip, 2.0)
            assert got == pytest.approx(2.0 ** alpha, rel=1e-12)

    def test_stable_tent(self):
        # ||tent||_1 = 1, so sigma^2(s) = |s| for alpha = 1
        assert marginal_exponent_sq(tent_kernel(), stable_triplet(1.0), 3.0) == \
            pytest.approx(3.0, rel=1e-11)

    def test_envelope_support(self):
        got = marginal_exponent_sq(powerlaw_kernel(1.5), stable_triplet(1.0), 1.0)
        assert got == pytest.approx(6.0, rel=1e-10)

    def test_grid_matches_scalar(self):
        s = np.array([0.1, 1.0, 10.0])
        grid, err = marginal_exponent_grid(box_kernel(), stable_triplet(1.5), s)
        scalars = [marginal_exponent_sq(box_kernel(), stable_triplet(1.5), v) for v in s]
        assert np.allclose(grid, scalars, rtol=1e-11)
        assert err < 1e-8

    def test_two_dimensional_box(self):
        k = box_kernel(0.0, 1.0, dim=2)
        assert marginal_exponent_sq(k, gaussian_triplet(1.0), 2.0) == \
            pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("trip,re_k", [
        (stable_triplet(1.3), lambda s: np.abs(s) ** 1.3),
        (gaussian_triplet(0.7), lambda s: 0.35 * s * s),
        (poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
         lambda s: 2.0 * (0.6 * (1.0 - np.cos(0.5 * s)) + 0.4 * (1.0 - np.cos(2.0 * s)))),
    ], ids=["stable", "gaussian", "poisson"])
    def test_indicator_closed_form(self, trip, re_k):
        # f = 1 on B, so sigma^2(s) = |B| Re K(s), exactly and with error 0
        s = np.array([-7.0, -1.5, 0.8, 2.0, 3.3, 11.0])
        for kern, vol in ((box_kernel(0.0, 2.5), 2.5), (box_kernel(-1.0, 1.0, dim=2), 4.0)):
            grid, err = marginal_exponent_grid(kern, trip, s)
            np.testing.assert_allclose(grid, vol * re_k(s), rtol=1e-15, atol=0.0)
            assert err == 0.0

    def test_indicator_single_cumulant_call(self, monkeypatch):
        """A box's step profile gives |B| Re K(s) from one cumulant call over
        the grid and no engine pass, for a triplet with no power-sum form."""
        calls = []
        cumulant_re = levy.cumulant_re

        def counting(triplet, s):
            calls.append(np.shape(s))
            return cumulant_re(triplet, s)

        def no_pass(*args, **kwargs):
            raise AssertionError("engine pass")

        monkeypatch.setattr(levy, "cumulant_re", counting)
        monkeypatch.setattr(kernels, "integrate_box", no_pass)
        s = np.geomspace(1e-3, 1e3, 21)
        for dim in (1, 2, 3):
            marginal_exponent_grid(box_kernel(dim=dim), poisson_triplet(1.0, atoms=(1.0,)), s)
        assert calls == [(21, 1)] * 3

    def test_grid_is_one_problem_per_frequency(self):
        """Each frequency of a non-factorising pair gets its solo value, so the
        grid agrees with one-frequency calls across six decades."""
        kern = powerlaw_kernel(3.0)
        trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.5))
        s = np.geomspace(1e-3, 1e3, 40)
        grid, _ = marginal_exponent_grid(kern, trip, s)
        solo = np.array([marginal_exponent_grid(kern, trip, [v])[0][0] for v in s])
        np.testing.assert_allclose(grid, solo, rtol=1e-14, atol=0.0)
        assert np.array_equal(grid, [marginal_exponent_sq(kern, trip, v) for v in s])
        assert spectral.separable_exponent(kern, trip) is None

    @pytest.mark.parametrize("kern,trip,exact", [
        (powerlaw_kernel(1.5), stable_triplet(1.0), lambda s: 6.0 * np.abs(s)),
        (tent_kernel(), stable_triplet(1.0), np.abs),
        (gaussian_kernel(), gaussian_triplet(0.7),
         lambda s: 0.7 * s * s / 2.0 * math.sqrt(math.pi / 2.0)),
    ], ids=["powerlaw-stable", "tent-stable", "gaussian-gaussian"])
    def test_factorising_closed_form(self, kern, trip, exact):
        # Re K(s f) = Re K(s) |f|**gamma, so sigma^2 = Re K(s) ||f||_gamma^gamma
        s = np.array([-7.0, 1e-3, 0.8, 2.0, 1e3])
        grid, err = marginal_exponent_grid(kern, trip, s)
        np.testing.assert_allclose(grid, exact(s), rtol=1e-14, atol=0.0)
        assert err == 0.0

    @pytest.mark.parametrize("kern,trip,gamma", [
        (box_kernel(), levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)), 2.0),
        (box_kernel(), stable_triplet(0.7), 0.7),
        (tent_kernel(), gaussian_triplet(), 2.0),
        (tent_kernel(), levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)), None),
        (powerlaw_kernel(1.5), poisson_triplet(), None),
    ], ids=["box-mixed", "box-stable", "tent-gaussian", "tent-mixed", "powerlaw-poisson"])
    def test_separable_exponent(self, kern, trip, gamma):
        assert spectral.separable_exponent(kern, trip) == gamma

    @pytest.mark.parametrize("kern,alpha", [
        (tent_kernel(), 1.0),
        (powerlaw_kernel(3.0), 1.5),
        (gaussian_kernel(dim=2), 1.5),
    ], ids=["tent-1", "powerlaw3-1.5", "gaussian2d-1.5"])
    def test_power_sum_closed_form_matches_engine(self, kern, alpha):
        """b0 = 1 plus stable: sigma^2 = s**2/2 ||f||_2^2 + s**alpha ||f||_alpha^alpha
        agrees with one engine problem per frequency within that problem's error."""
        trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(alpha))
        s = np.geomspace(1e-3, 1e3, 40)
        grid, err = marginal_exponent_grid(kern, trip, s)
        engine, engine_err = spectral._marginal_pass(kern, trip, s, levy.cumulant_re, 0.0)
        assert np.all(np.abs(grid - engine[:, 0]) <= engine_err + err)

    def test_power_sum_makes_no_engine_pass(self, monkeypatch):
        """A 3-D Gaussian kernel with b0 = 1 plus stable 1.5 takes closed-form norms."""
        def no_pass(*args, **kwargs):
            raise AssertionError("engine pass")

        monkeypatch.setattr(spectral, "_marginal_pass", no_pass)
        kern = gaussian_kernel(dim=3)
        trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.5))
        s = np.geomspace(1e-3, 1e3, 40)
        grid, err = marginal_exponent_grid(kern, trip, s)
        exact = 0.5 * s * s * (math.pi / 2.0) ** 1.5 + s ** 1.5 * (math.pi / 1.5) ** 1.5
        np.testing.assert_allclose(grid, exact, rtol=1e-14, atol=0.0)
        assert err == 0.0

    @given(s=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=20, deadline=None)
    def test_evenness(self, s):
        k = box_kernel()
        trip = stable_triplet(1.3)
        assert marginal_exponent_sq(k, trip, s) == marginal_exponent_sq(k, trip, -s)


def char_joint(kernel, triplet, t, s1: float, s2: float) -> complex:
    """E exp(i(s1 X(t) + s2 X(0))) = exp(-(m1 + m2 + C)), the marginal cumulants
    m1, m2 and the cross cumulant C of one ``cross_integrals`` triple."""
    cross, _ = spectral.cross_integrals(kernel, triplet, np.array([t]), np.array([s1]),
                                        np.array([s2]))
    m1, m2 = spectral.marginal_cumulant(kernel, triplet, np.array([s1, s2]))
    return complex(np.exp(-(m1 + m2 + cross[0])))


class TestCharacteristicFunctions:
    def test_marginal_gaussian_box(self):
        got = char_marginal(box_kernel(), gaussian_triplet(1.0), 1.0)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_marginal_consistency_with_exponent(self):
        # -log|char| must reproduce sigma^2 for every variant
        t = tent_kernel()
        for k, trip in ((t, gaussian_triplet(0.7)), (t, stable_triplet(1.2)),
                        (t, poisson_triplet(1.0, atoms=(1.0,))),
                        (box_kernel(), stable_triplet(1.0))):
            for s in (0.5, 2.0):
                sig = marginal_exponent_sq(k, trip, s)
                mod = abs(char_marginal(k, trip, s))
                assert -math.log(mod) == pytest.approx(sig, rel=1e-10, abs=1e-12)

    def test_joint_box_stable_overlap_oracle(self):
        # t=0.5 on the unit box: exponent = 0.5*(|s1+s2| + |s1| + |s2|)
        got = char_joint(box_kernel(), stable_triplet(1.0), 0.5, 1.0, 1.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-11)

    def test_joint_factorises_beyond_diameter(self):
        k = box_kernel()
        trip = stable_triplet(1.5)
        joint = char_joint(k, trip, 1.7, 1.0, 2.0)
        product = char_marginal(k, trip, 1.0) * char_marginal(k, trip, 2.0)
        assert joint == pytest.approx(product, rel=1e-11)

    def test_joint_poisson_oracle(self):
        got = char_joint(box_kernel(), poisson_triplet(1.0, atoms=(1.0,)), 0.5, 1.0, 2.0)
        assert got.real == pytest.approx(-0.06724914634312716, rel=1e-10)
        assert got.imag == pytest.approx(-0.12815200176607697, rel=1e-10)

    def test_joint_grid_shape_and_symmetry(self):
        # symmetric kernel overlap: swapping (s1, s2) conjugate-symmetric in
        # the symmetric-measure case means equal moduli
        a = char_joint(box_kernel(), stable_triplet(1.0), 0.3, 0.5, 2.0)
        b = char_joint(box_kernel(), stable_triplet(1.0), 0.3, 2.0, 0.5)
        assert abs(a) == pytest.approx(abs(b), rel=1e-11)

    def test_zero_frequency_is_one(self):
        got = char_joint(box_kernel(), stable_triplet(1.0), 0.5, 0.0, 0.0)
        assert got == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("trip", [
        gaussian_triplet(1.0),
        levy.LevyTriplet(measure=levy.calibrated_stable(1.5)),
        levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)),
        poisson_triplet(2.0, atoms=(1.0,)),
    ], ids=["gaussian", "stable-1.5", "mixed-stable-1", "poisson"])
    def test_joint_growth_bounds_the_integrand(self, monkeypatch, trip):
        """The growth handed to the engine bounds the cross cumulant's integrand
        plus the numerator's, |K(a + b) - K(a) - K(b)| + sqrt(Re K(a) Re K(b)),
        wherever |a|, |b| <= S v, for v up to 1/(2S); checked at a = S v and
        b = +-S v, +-S v / 2."""
        captured = []

        def capture(kernel, integrand, shifts, growth=(), **kw):
            captured.append(growth)
            return integrate_over_support(kernel, integrand, shifts, growth, **kw)

        monkeypatch.setattr(spectral, "integrate_over_support", capture)
        s1, s2 = np.array([0.7]), np.array([-1.3])
        spectral.cross_integrals(powerlaw_kernel(3.0), trip, np.array([0.4]), s1, s2)
        v = np.geomspace(1e-6, 1.0 / (2.0 * 1.3), 200)
        bound = sum(np.asarray(c, dtype=float)[0] * v ** g for g, c in captured[0])
        a = 1.3 * v
        for b in (a, -a, 0.5 * a, -0.5 * a):
            cross = levy.cumulant(trip, a + b) - levy.cumulant(trip, a) - levy.cumulant(trip, b)
            worst = np.abs(cross) + np.sqrt(levy.cumulant_re(trip, a) * levy.cumulant_re(trip, b))
            assert np.all(worst <= bound * (1.0 + 1e-12))

    @pytest.mark.parametrize("trip", [
        stable_triplet(1.0),
        levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4))),
    ], ids=["stable-1", "gaussian+poisson"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_joint_integrals_2d_box_closed_form(self, trip, d):
        """On the unit cube the shifted boxes overlap on volume A = prod(1 - |t_i|)+,
        where both kernel values are 1: the cross cumulant is
        A (K(s1 + s2) - K(s1) - K(s2)) and the numerator A sqrt(Re K(s1) Re K(s2)).
        In 1-D the lags past 1 leave no overlap and give exact zeros."""
        rng = np.random.default_rng(5)
        lags = rng.uniform(0.0, 1.5, (12, d))
        s1, s2 = (rng.uniform(0.1, 10.0, 12) * rng.choice([-1.0, 1.0], 12) for _ in range(2))
        cross, num = spectral.cross_integrals(box_kernel(dim=d), trip, lags, s1, s2)
        area = np.prod(np.maximum(1.0 - lags, 0.0), axis=1)
        k1, k2 = levy.cumulant(trip, s1), levy.cumulant(trip, s2)
        exact = area * (levy.cumulant(trip, s1 + s2) - k1 - k2)
        exact_num = area * np.sqrt(k1.real * k2.real)
        assert np.all(np.abs(cross - exact) <= 1e-12 * (1.0 + np.abs(exact)))
        assert np.all(np.abs(num - exact_num) <= 1e-12 * (1.0 + exact_num))
        assert np.all(cross[area == 0.0] == 0.0) and np.all(num[area == 0.0] == 0.0)

    def test_cross_integrals_reach_the_engine_only_where_supports_overlap(self, monkeypatch):
        """Box lags half inside and half beyond the diameter: only the
        overlapping triples become engine problems, one box each, and the
        rest are exact zeros."""
        seen, engine = [], kernels.integrate_box

        def spy(func, corners, **opts):
            seen.append(np.asarray(corners))
            return engine(func, corners, **opts)

        monkeypatch.setattr(kernels, "integrate_box", spy)
        lags = np.array([0.2, 0.5, -0.9, 1.1, 1.6, -2.0])
        s = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
        trip = levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4)))
        cross, num = spectral.cross_integrals(box_kernel(), trip, lags, s, -s)
        (corners,) = seen
        # [t - 1, t] meets [-1, 0] on [max(t - 1, -1), min(t, 0)]
        np.testing.assert_array_equal(np.sort(corners, axis=1)[:, [0, -1], 0],
                                      [[-0.8, 0.0], [-0.5, 0.0], [-1.0, -0.9]])
        assert np.all(cross[3:] == 0.0) and np.all(num[3:] == 0.0)
        assert np.all(cross[:3] != 0.0) and np.all(num[:3] > 0.0)


class TestDependenceRatio:
    def test_stable_box_equals_tent(self):
        trip = stable_triplet(1.0)
        for t, expect in ((0.0, 1.0), (0.25, 0.75), (0.4, 0.6), (0.9, 0.1), (1.5, 0.0)):
            got, _ = dependence_ratio_grid(box_kernel(), trip, t, [1.0], [3.0])
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(expect, abs=1e-11)

    def test_numerator_zero_past_diameter(self):
        s = np.array([0.1, 1.0, 10.0])
        for trip in (stable_triplet(1.0), poisson_triplet(1.0, atoms=(1.0,))):
            num, err = dependence_numerator_grid(box_kernel(), trip, 1.5, s, s)
            assert num.shape == (3, 3)
            assert np.all(num == 0.0) and err == 0.0

    def test_two_dimensional_box_stable(self):
        # the overlap of [0, 1]^2 with its shift is a box of area (1-0.3)(1-0.2)
        rm = max_dependence_ratio(box_kernel(dim=2), stable_triplet(1.0), (0.3, 0.2))
        assert rm.method == "analytic-homogeneous"
        assert rm.value == pytest.approx(0.56, abs=1e-9)

    def test_stable_frequency_independence(self):
        s = np.geomspace(1e-3, 1e3, 9)
        grid, _ = dependence_ratio_grid(box_kernel(), stable_triplet(1.5), 0.3, s, s)
        assert float(grid.max() - grid.min()) < 1e-10

    def test_lag_must_match_kernel_dim(self):
        for kern in (box_kernel(dim=2), gaussian_kernel(dim=3)):
            with pytest.raises(ValueError):
                max_dependence_ratio(kern, stable_triplet(1.0), 0.3)

    def test_tent_gaussian_oracle(self):
        # gamma = 2 collapse: overlap integral / ||tent||_2^2 = 23/32 at t = 0.5
        rm = max_dependence_ratio(tent_kernel(), gaussian_triplet(1.0), 0.5)
        assert rm.method == "analytic-homogeneous"
        assert rm.value == pytest.approx(23.0 / 32.0, rel=1e-11)

    def test_powerlaw_oracle(self):
        rm = max_dependence_ratio(powerlaw_kernel(1.5), stable_triplet(1.0), 2.0)
        assert rm.value == pytest.approx(0.9130791975880924, rel=1e-8)

    def test_grid_agrees_with_homogeneous(self):
        # an indicator's ratio is the overlap fraction for every triplet
        trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
        s = np.geomspace(*DEFAULT_S_BOX, DEFAULT_S_POINTS)
        grid, _ = dependence_ratio_grid(box_kernel(), trip, 0.4, s, s)
        assert float(grid.max()) == pytest.approx(0.6, abs=1e-9)

    def test_lag_symmetry(self):
        trip = poisson_triplet(1.0, atoms=(1.0,))
        a = max_dependence_ratio(box_kernel(), trip, 0.35)
        b = max_dependence_ratio(box_kernel(), trip, -0.35)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_ratio_at_zero_lag_is_one(self):
        for kern in (box_kernel(), tent_kernel(), powerlaw_kernel(1.5)):
            rm = max_dependence_ratio(kern, stable_triplet(1.0), 0.0)
            assert rm.value == pytest.approx(1.0, abs=1e-10)

    def test_clamp_accepts_tiny_overshoot(self):
        vals = np.array([0.3, 1.0 + 5e-10])
        out = _clamp_ratio(vals)
        assert out[1] == 1.0

    def test_clamp_rejects_large_overshoot(self):
        with pytest.raises(QuadratureError):
            _clamp_ratio(np.array([1.0 + 1e-6]))

    @given(t=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_ratio_in_unit_interval(self, t):
        rm = max_dependence_ratio(box_kernel(), stable_triplet(0.8), t)
        assert 0.0 <= rm.value <= 1.0


class TestProfile:
    def test_build_stable_box(self):
        prof = build_profile(box_kernel(), stable_triplet(1.0), window=3.0,
                             t_step=0.25, s_points=12)
        assert prof.ratio_method == "analytic-homogeneous"
        assert len(prof.s_grid) == 12
        assert prof.t_grid.shape == (25, 1)
        mid = np.argmin(np.abs(prof.t_grid[:, 0]))
        assert prof.ratio_values[mid] == pytest.approx(1.0, abs=1e-10)
        # tent shape on the lattice
        idx = np.argmin(np.abs(prof.t_grid[:, 0] - 0.5))
        assert prof.ratio_values[idx] == pytest.approx(0.5, abs=1e-10)
        outer = np.abs(prof.t_grid[:, 0]) >= 1.0
        assert np.all(prof.ratio_values[outer] < 1e-12)

    def test_profile_symmetry(self):
        trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
        prof = build_profile(tent_kernel(), trip,
                             window=1.5, t_step=0.5, s_points=8)
        vals = prof.ratio_values
        assert np.allclose(vals, vals[::-1], atol=1e-12)
        assert prof.ratio_method == "grid-approximate"

    def test_sigma_grid_positive_and_increasing_for_stable(self):
        prof = build_profile(box_kernel(), stable_triplet(1.0), window=2.0,
                             t_step=0.5, s_points=16)
        assert np.all(prof.sigma_sq > 0)
        assert np.all(np.diff(prof.sigma_sq) > 0)

    def test_degenerate_kernel_rejected(self):
        zero = kernels.Kernel(dim=1, func=lambda pts: np.zeros(pts.shape[0]),
                              support=kernels.BoundedBox((0.0,), (1.0,)), name="zero")
        with pytest.raises(RejectionError) as exc:
            build_profile(zero, gaussian_triplet(1.0), window=2.0, t_step=0.5)
        assert exc.value.condition == "degenerate-profile"

    def test_bad_window_rejected(self):
        with pytest.raises(RejectionError):
            build_profile(box_kernel(), gaussian_triplet(), window=1.0, t_step=2.0)
        with pytest.raises(RejectionError):
            build_profile(box_kernel(), gaussian_triplet(), window=-1.0, t_step=0.5)

    def test_lattice_contains_origin(self):
        lat = t_lattice(2.0, 0.3, 1)
        assert np.any(np.all(lat == 0.0, axis=1))
        lat2 = t_lattice(1.0, 0.5, 2)
        assert lat2.shape == (25, 2)
        assert np.any(np.all(lat2 == 0.0, axis=1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("step", [0.3, 0.25, 1.0 / 3.0])
    def test_lattice_is_point_symmetric(self, dim, step):
        lat = t_lattice(1.0, step, dim)
        assert np.array_equal(lat[::-1], -lat)

    def test_two_dimensional_profile_is_point_symmetric(self):
        prof = build_profile(box_kernel(dim=2), poisson_triplet(1.0, atoms=(1.0,)),
                             window=0.5, t_step=0.25, s_points=8)
        grid = prof.ratio_values.reshape(5, 5)
        assert np.array_equal(grid, grid[::-1, ::-1])
        assert np.array_equal(prof.t_grid.reshape(5, 5, 2)[::-1, ::-1],
                              -prof.t_grid.reshape(5, 5, 2))

    def test_two_dimensional_box_default_window(self):
        # the indicator-box ratio is the closed form prod(1 - |t_i|)+, so the
        # 241^2 lags of the default window cost no quadrature
        kern = box_kernel(dim=2)
        window, t_step = default_window(kern)
        start = time.perf_counter()
        prof = build_profile(kern, stable_triplet(1.0), window=window, t_step=t_step)
        assert time.perf_counter() - start < 30.0
        assert prof.t_grid.shape == (241 ** 2, 2)
        exact = np.prod(np.maximum(1.0 - np.abs(prof.t_grid), 0.0), axis=1)
        np.testing.assert_allclose(prof.ratio_values, exact, rtol=0, atol=1e-12)
        assert prof.ratio_error == 0.0
        assert srd_integral(prof).window_part == pytest.approx(1.0, abs=1e-9)


def strip_hooks(kern: kernels.Kernel) -> kernels.Kernel:
    """The kernel without its overlap hooks, so every separable ratio is one
    ``_homogeneous_ratio`` engine pass."""
    return dataclasses.replace(kern, closed_overlap=None, closed_exceedance=None)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [lambda d: box_kernel(-0.5, 1.5, dim=d),
                                  lambda d: gaussian_kernel(d, 0.8)], ids=["box", "gaussian"])
def test_overlap_hook_matches_engine(make, dim, gamma):
    """Each closed overlap agrees with quadrature of
    integral |f(t-x) f(-x)|**(gamma/2) dx / ||f||_gamma^gamma within its error."""
    kern = make(dim)
    lags = np.array([[0.3, -0.7, 1.1][:dim], [1.4, 0.2, -0.5][:dim]])[:1 if dim == 3 else 2]
    hook = kern.closed_overlap(lags, gamma)
    assert hook.shape == (len(lags),)
    for t, value in zip(lags, hook):
        quad, err = spectral._homogeneous_ratio(strip_hooks(kern), t, gamma)
        assert abs(value - quad) <= err
        assert 0.0 < value < 1.0


def test_indicator_without_hook_takes_quadrature():
    """A step profile promises values in {0, 1} only.  1{|x| <= 1/4} on the
    support box [-1, 1] overlaps its shift by 0.4 on 0.1 of its length 0.5,
    not on the box's fraction 1 - 0.4/2 = 0.8, and its exceedance region
    {1 - 2|t| > 1/4} is a lattice count."""
    step = kernels.Profile(lambda r: (r <= 0.25) * 1.0, 0.25, (0.0,), step=True)
    kern = kernels.Kernel(dim=1, support=kernels.BoundedBox((-1.0,), (1.0,)), profile=step,
                          knots=(-0.25, 0.25))
    rm = max_dependence_ratio(kern, stable_triplet(1.0), 0.4)
    assert rm.method == "analytic-homogeneous"
    assert abs(rm.value - 0.2) <= rm.error + 1e-12
    prof = build_profile(kern, stable_triplet(1.0), window=1.5, t_step=0.05)
    choice = choose_threshold(prof)
    assert (choice.threshold, choice.method) == (0.25, "grid-count")
    assert choice.exceedance_measure == pytest.approx(0.75, rel=1e-12)


def test_hooked_profile_makes_no_engine_pass(monkeypatch):
    """2-D Gaussian + stable(1.5) at the default window: sigma^2 is a power
    sum and every ratio the closed overlap exp(-1.5 |t|^2 / 4)."""
    def no_pass(*args, **kwargs):
        raise AssertionError("engine pass")

    monkeypatch.setattr(spectral, "integrate_over_support", no_pass)
    kern = gaussian_kernel(dim=2)
    prof = build_profile(kern, stable_triplet(1.5), *default_window(kern))
    assert prof.ratio_method == "analytic-homogeneous" and prof.ratio_error == 0.0
    np.testing.assert_array_equal(
        prof.ratio_values, np.exp(-1.5 * np.sum(prof.t_grid ** 2, axis=1) / 4.0))


@pytest.mark.parametrize("dim, lag", [(1, (0.35,)), (1, (1.2,)), (2, (0.3, -0.6))])
def test_indicator_ratio_closed_form_matches_quadrature(dim, lag):
    kern = box_kernel(-0.5, 1.5, dim=dim)
    by_quadrature = strip_hooks(kern)
    for trip in (stable_triplet(1.0), gaussian_triplet(1.0)):
        exact = max_dependence_ratio(kern, trip, lag)
        quad = max_dependence_ratio(by_quadrature, trip, lag)
        assert exact.error == 0.0
        assert exact.value == pytest.approx(
            np.prod(np.maximum(1.0 - np.abs(lag) / 2.0, 0.0)), abs=1e-15)
        assert exact.value == pytest.approx(quad.value, abs=1e-12)


def _bench_table() -> levy.TabulatedMeasure:
    pos = np.geomspace(1e-3, 1e3, 31)
    grid = np.concatenate([-pos[::-1], pos])
    return levy.TabulatedMeasure(tuple(grid), tuple(0.1 * np.abs(grid) ** -2.0))


@pytest.mark.parametrize("dim, lags", [(1, ((0.3,), (-0.75,))), (2, ((0.3, -0.6), (0.5, 0.5)))])
def test_indicator_ratio_is_overlap_for_every_triplet(monkeypatch, dim, lags):
    """f = 1_B makes the ratio the overlap fraction at every frequency, so no
    triplet needs a cumulant value."""
    def no_cumulant(triplet, s):
        raise AssertionError("levy.cumulant_re called")

    monkeypatch.setattr(levy, "cumulant_re", no_cumulant)
    poisson = levy.CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4))
    triplets = (levy.LevyTriplet(b0=1.0, measure=poisson), levy.LevyTriplet(measure=poisson),
                levy.LevyTriplet(b0=1.0, measure=_bench_table()))
    for trip in triplets:
        for lag in lags:
            rm = max_dependence_ratio(box_kernel(dim=dim), trip, lag)
            assert rm.method == "analytic-homogeneous" and rm.error == 0.0
            assert rm.value == np.prod(np.maximum(1.0 - np.abs(lag), 0.0))


# ---------------------------------------------------------------------------
# the grid-approximate ratio search

_POISSON = levy.CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4))
# the two mixed benchmark models on the tent kernel
_MIXED = {"stable": levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)),
          "poisson": levy.LevyTriplet(b0=1.0, measure=_POISSON)}


_GRID = np.geomspace(*DEFAULT_S_BOX, DEFAULT_S_POINTS)
_B0_STABLE_15 = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.5))


@pytest.mark.parametrize("kern, trip, lag, s", [
    (tent_kernel(), _MIXED["poisson"], 0.4, _GRID),
    (gaussian_kernel(dim=2), _MIXED["poisson"], (0.5, -0.3), np.geomspace(0.1, 10.0, 4)),
    (tent_kernel(), _MIXED["stable"], 1.3, _GRID),
    (powerlaw_kernel(4.0), _B0_STABLE_15, -0.7, _GRID),
    (gaussian_kernel(dim=2), _MIXED["stable"], (-0.8, 0.6), np.geomspace(0.1, 10.0, 4)),
], ids=["tent", "gaussian-2d", "tent-lag-1.3", "powerlaw-envelope", "gaussian-2d-stable"])
def test_even_numerator_triangle_matches_full_grid(monkeypatch, kern, trip, lag, s):
    """An even kernel integrates the symmetrised upper triangle of a square
    grid over the half overlap x_1 >= t_1/2 (an envelope: the core from t/2
    and the right tail) and mirrors it; the full grid, whose pass integrates
    all n x n pairs, agrees within the two error estimates."""
    columns = []
    engine = spectral.integrate_over_support

    def counted(kernel, integrand, *args, **kwargs):
        def recorded(fv, p):
            value = integrand(fv, p)
            columns.append((len(value.cols), value.mirror))
            return value

        return engine(kernel, recorded, *args, **kwargs)

    monkeypatch.setattr(spectral, "integrate_over_support", counted)
    half, half_err = dependence_numerator_grid(kern, trip, lag, s, s)
    n = len(s)
    assert set(columns) == {(n * (n + 1) // 2, True)}
    columns.clear()
    monkeypatch.setattr(kernels.Kernel, "even", False)
    full, full_err = dependence_numerator_grid(kern, trip, lag, s, s)
    assert set(columns) == {(n * n, False)}
    assert np.array_equal(half, half.T)
    assert np.all(np.abs(half - full) <= half_err + full_err)


def test_even_numerator_halves_the_nodes(monkeypatch):
    """The tent's 25 x 25 grid at lag -0.4 integrates over half the overlap:
    at most 0.55 of the integrand nodes of the full grid (4 116 of 8 379)."""
    nodes = []
    gk21 = quadrature._gk21

    def counted(func, prob, lo, hi, width):
        nodes[-1] += 21 * len(lo)
        return gk21(func, prob, lo, hi, width)

    monkeypatch.setattr(quadrature, "_gk21", counted)
    for even in (True, False):
        nodes.append(0)
        monkeypatch.setattr(kernels.Kernel, "even", even)
        dependence_numerator_grid(tent_kernel(), _MIXED["poisson"], -0.4, _GRID, _GRID)
    assert 0 < nodes[0] <= 0.55 * nodes[1]


def test_poisson_levels_sit_four_periods_of_the_fastest_atom_apart():
    """At the top frequency s the mixed Poisson model's fastest atom 2 makes
    1 - cos(2 s v) complete a period every pi / s in v, so the levels are
    4 pi / s apart below the tent's peak 1; at s = 1e6 that would be
    318 310 levels, and the spacing widens to 1 / MAX_LEVELS.  Slow
    problems, stable triplets and kernels without a profile get none."""
    tent, trip = tent_kernel(), _MIXED["poisson"]
    levels = spectral._levels(tent, trip, np.array([1e3, 1e6, 1.0]))
    assert levels.shape == (3, spectral.MAX_LEVELS - 1)
    np.testing.assert_allclose(levels[0, :79], 4e-3 * math.pi * np.arange(1, 80), rtol=1e-15)
    np.testing.assert_allclose(levels[1], np.arange(1, spectral.MAX_LEVELS) / spectral.MAX_LEVELS,
                               rtol=1e-15)
    assert levels[0, 79:].min() > 1.0 and levels[2].min() > 1.0
    assert spectral._levels(tent, trip, np.array([1.0])) is None
    assert spectral._levels(tent, _MIXED["stable"], np.array([1e3])) is None
    table = tabulated_kernel((np.linspace(-1.0, 1.0, 5),), np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    assert spectral._levels(table, trip, np.array([1e3])) is None


def test_level_cuts_shorten_a_poisson_numerator_pass(monkeypatch):
    """The full 25 x 25 grids of the mixed Poisson model at lags -1.4 to
    -0.8, one engine pass: cut at its levels, the pass evaluates at most
    350 GK21 intervals (337 when written), against 553 uncut, and the
    values agree within the summed errors."""
    intervals = []
    gk21 = quadrature._gk21

    def counted(func, prob, lo, hi, size):
        intervals[-1] += len(lo)
        return gk21(func, prob, lo, hi, size)

    monkeypatch.setattr(quadrature, "_gk21", counted)
    lags = np.array([[-1.4], [-1.2], [-1.0], [-0.8]])
    grid = np.tile(_GRID, (len(lags), 1))
    passes = []
    for cut in (True, False):
        if not cut:
            monkeypatch.setattr(spectral, "_levels", lambda *args: None)
        intervals.append(0)
        passes.append(spectral._numerators(tent_kernel(), _MIXED["poisson"], lags, grid, grid))
    assert intervals[0] <= 350 and 1.5 * intervals[0] <= intervals[1]
    (vals, errs), (uncut, uncut_errs) = passes
    assert np.all(np.abs(vals - uncut).reshape(len(lags), -1).max(axis=1) <= errs + uncut_errs)


@pytest.mark.parametrize("model", sorted(_MIXED))
def test_mixed_ratio_is_symmetric_in_the_lag(model):
    """ratio(-t) = ratio(t): the searches at t and -t, whose half overlaps lie
    on opposite sides of 0, agree within their summed errors, inside [0, 1]."""
    for lag in (0.2, 0.6, 1.4):
        plus, minus = (max_dependence_ratio(tent_kernel(), _MIXED[model], t) for t in (lag, -lag))
        assert abs(plus.value - minus.value) <= plus.error + minus.error, lag
        assert 0.0 <= min(plus.value, minus.value) <= max(plus.value, minus.value) <= 1.0


@pytest.mark.parametrize("model", sorted(_MIXED))
def test_profile_search_matches_per_lag_ratio(monkeypatch, model):
    """build_profile searches all lags at once, and each lag's maximum is the
    one max_dependence_ratio finds alone."""
    kern, trip = tent_kernel(), _MIXED[model]
    per_lag = {tuple(t): max_dependence_ratio(kern, trip, t) for t in t_lattice(3.0, 0.2, 1)}

    def no_per_lag(*args, **kwargs):
        raise AssertionError("build_profile searched one lag at a time")

    monkeypatch.setattr(spectral, "max_dependence_ratio", no_per_lag)
    prof = build_profile(kern, trip, window=3.0, t_step=0.2)
    expect = [per_lag[tuple(t)].value for t in prof.t_grid]
    np.testing.assert_allclose(prof.ratio_values, expect, rtol=1e-12, atol=0.0)
    assert prof.ratio_error == pytest.approx(max(rm.error for rm in per_lag.values()),
                                             rel=1e-6)
    assert prof.ratio_method == "grid-approximate"


@pytest.mark.parametrize("kern, trip, method", [
    (box_kernel(dim=2), stable_triplet(1.0), "analytic-homogeneous"),
    (tent_kernel(), stable_triplet(1.0), "analytic-homogeneous"),
    (tent_kernel(), _MIXED["poisson"], "grid-approximate"),
], ids=["hook", "engine-per-lag", "search"])
def test_profile_makes_one_ratio_call(monkeypatch, kern, trip, method):
    calls = []
    ratio_maxima = spectral._ratio_maxima

    def counted(kernel, triplet, lags, s_box):
        calls.append(len(lags))
        return ratio_maxima(kernel, triplet, lags, s_box)

    monkeypatch.setattr(spectral, "_ratio_maxima", counted)
    prof = build_profile(kern, trip, window=1.5, t_step=0.5)
    assert calls == [len(prof.t_grid) // 2 + 1]
    assert prof.ratio_method == method


@pytest.mark.parametrize("n_lags", [1, 7, spectral.RATIO_BLOCK, spectral.RATIO_BLOCK + 1])
def test_refine_rounds_share_one_pass_per_block(monkeypatch, n_lags):
    """Per block of up to RATIO_BLOCK lags, the full grids in passes of up to
    GRID_LAGS lags, then REFINE_ROUNDS passes of the whole block; sigma^2
    here is a closed form.  Lag 0 makes no pass and reads exactly 1."""
    problems = []
    engine = kernels.integrate_box

    def counted(func, corners, *args, **kwargs):
        problems.append(len(corners))  # every lag overlaps the tent: one box each
        return engine(func, corners, *args, **kwargs)

    monkeypatch.setattr(kernels, "integrate_box", counted)
    # lag 0 and n_lags others
    lags = np.linspace(0.0, 1.5, n_lags + 1).reshape(-1, 1)
    values, errors = spectral._ratio_search(tent_kernel(), _MIXED["stable"], lags, DEFAULT_S_BOX)
    expect = []
    for start in range(0, n_lags, spectral.RATIO_BLOCK):
        block = min(spectral.RATIO_BLOCK, n_lags - start)
        full = [min(spectral.GRID_LAGS, block - g) for g in range(0, block, spectral.GRID_LAGS)]
        assert len(full) == -(-block // spectral.GRID_LAGS)
        expect += full + [block] * spectral.REFINE_ROUNDS
    assert problems == expect
    assert values.shape == errors.shape == (n_lags + 1,)
    assert values[0] == 1.0 and errors[0] == 0.0


@pytest.mark.parametrize("kern, trip, lags", [
    (tent_kernel(), _MIXED["stable"], [[-0.4], [0.3], [1.3], [2.5]]),
    (tent_kernel(), _MIXED["poisson"], [[-0.4], [0.3], [1.3], [2.5]]),
    (gaussian_kernel(dim=2), _MIXED["stable"], [[0.5, 0.5], [0.0, 0.0], [-1.0, 0.5], [2.0, -1.0]]),
], ids=["tent-stable", "tent-poisson", "gaussian2d-stable"])
def test_grid_pass_of_four_lags_equals_one_lag_passes(kern, trip, lags):
    """The full 25 x 25 grids of GRID_LAGS lags in one engine pass, one
    problem per lag, equal the grids of one-lag passes bit for bit; lag 2.5
    does not overlap the tent."""
    lags = np.array(lags)
    assert len(lags) == spectral.GRID_LAGS
    grid = np.tile(_GRID, (len(lags), 1))
    vals, errs = spectral._numerators(kern, trip, lags, grid, grid)
    for n, t in enumerate(lags):
        solo, solo_err = spectral._numerators(kern, trip, t[None], _GRID[None], _GRID[None])
        assert np.array_equal(vals[n], solo[0]) and errs[n] == solo_err[0], t


def test_tent_stable_numerator_passes_take_at_most_four_rounds(monkeypatch):
    """With a stable part the numerator behaves like (x - a)**(1/2) at each
    soft face of a tent overlap.  In the graded coordinate every one-lag
    pass of the mixed benchmark's overlapping lags, on the 25 x 25 grid and
    on a 5 x 5 refine grid, makes its first GK21 call and at most 4 rounds."""
    calls = []
    gk21 = quadrature._gk21

    def counted(*args):
        calls[-1] += 1
        return gk21(*args)

    monkeypatch.setattr(quadrature, "_gk21", counted)
    for t in -0.2 * np.arange(1, 10):
        for grid in (_GRID, np.geomspace(0.5, 2.0, 5)):
            calls.append(0)
            spectral._numerators(tent_kernel(), _MIXED["stable"], np.array([[t]]),
                                 grid[None], grid[None])
    assert 0 < max(calls) <= 5, calls


@pytest.mark.parametrize("kern, trip, graded", [
    (tent_kernel(), _MIXED["stable"], True),
    (tent_kernel(), _B0_STABLE_15, True),
    (tent_kernel(), _MIXED["poisson"], False),
    (tent_kernel(), gaussian_triplet(1.0), False),
    (box_kernel(), _MIXED["stable"], False),
    (gaussian_kernel(), _MIXED["stable"], False),
    (powerlaw_kernel(3.0), _MIXED["stable"], False),
], ids=["tent-stable", "tent-stable-1.5", "tent-poisson", "tent-gaussian", "box-stable",
        "gaussian-stable", "powerlaw-stable"])
def test_only_soft_faces_under_a_stable_part_are_graded(monkeypatch, kern, trip, graded):
    """The tent's faces are soft; box, Gaussian and power-law kernels have
    none, and Poisson and Gaussian triplets (growth v**2) keep plain
    coordinates even on the tent."""
    maps, grade = [], kernels._graded
    monkeypatch.setattr(kernels, "_graded", lambda *a: maps.append(a) or grade(*a))
    spectral._numerators(kern, trip, np.array([[0.4]]), _GRID[None], _GRID[None])
    assert bool(maps) == graded


def test_numerator_failure_names_the_caller_problem(monkeypatch):
    """Three engine boxes (a core and two log tails) make one integral, and so
    do an even kernel's two (the half core from t/2 and the right tail)."""
    for even, core in ((False, r"\[-4\.0, 4\.0\]"), (True, r"\[0\.5, 4\.0\]")):
        monkeypatch.setattr(kernels.Kernel, "even", even)
        with pytest.raises(QuadratureError, match=r"failed on " + core) as info:
            max_dependence_ratio(powerlaw_kernel(3.0), poisson_triplet(1.0), 1.0)
        assert "integral" not in str(info.value)


def test_refine_failure_names_the_lag_in_its_block(monkeypatch):
    """Lag 3 does not overlap the tent, so the failing engine box 0 is lag 1."""
    cumulant_re = levy.cumulant_re
    rng = np.random.default_rng(5)

    def noisy_refine(triplet, v):
        out = cumulant_re(triplet, v)
        # refine rounds evaluate 5 + 5 frequencies per node, the full grid 25 + 25
        return out * (1.0 + 0.1 * rng.random(out.shape)) if out.shape[-1] == 10 else out

    monkeypatch.setattr(levy, "cumulant_re", noisy_refine)
    with pytest.raises(QuadratureError, match=r"failed on integral 1 of 2, "):
        spectral._ratio_search(tent_kernel(), _MIXED["stable"], np.array([[3.0], [0.5]]),
                               DEFAULT_S_BOX)
