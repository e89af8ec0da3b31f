"""Cumulant evaluation and inequality checks for integrator triplets.

Frozen oracle notes: the stable growth constants below were cross-checked
against split quadrature of 2*int_0^inf (1-cos u) u**(-1-alpha) du (core on
[0, 10] plus a Fourier-weighted tail), agreeing to 2e-11 relative.  The
clipped second moment literal comes from direct quadrature of
min(1, (yv)^2) against the jump density (1.3e-15 relative agreement).
The tabulated moment literals were computed by scalar adaptive quadrature
(scipy.integrate.quad, epsrel 1e-10) of the interpolated density split at
its knots, and agree with the closed forms to 4e-16 relative.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from srdcert import levy
from srdcert.errors import QuadratureError, RejectionError
from srdcert.levy import (
    CompoundPoisson,
    LevyTriplet,
    NO_JUMPS,
    SymmetricStable,
    TabulatedMeasure,
    abs_moment,
    calibrated_stable,
    check_negdef_inequalities,
    clipped_second_moment,
    cumulant,
    cumulant_re,
    default_validation_triplets,
    gaussian_triplet,
    im_linear_coef,
    poisson_triplet,
    power_terms,
    small_signal_bound,
    stable_re_constant,
    stable_triplet,
    truncated_mean_shift,
)

import reference

# pi / (Gamma(1 + alpha) sin(pi alpha / 2)) at alpha = 1.3 and 0.04
STABLE_CONST_1_3 = math.pi / (math.gamma(2.3) * math.sin(0.65 * math.pi))
STABLE_CONST_0_04 = math.pi / (math.gamma(1.04) * math.sin(0.02 * math.pi))

# quadrature oracle values for 2*int_0^inf (1-cos u) u**(-1-alpha) du
STABLE_CONST_ORACLE = {
    0.5: 5.013256549293769,
    0.7: 3.880411142000617,
    1.0: 3.1415926535600085,
    1.5: 3.3421710328940155,
}


class TestStableConstant:
    @pytest.mark.parametrize("alpha,expected", sorted(STABLE_CONST_ORACLE.items()))
    def test_matches_quadrature_oracle(self, alpha, expected):
        assert stable_re_constant(alpha) == pytest.approx(expected, rel=1e-9)

    def test_matches_scipy_gamma_form(self):
        from scipy.special import gamma  # reference only
        for alpha in np.linspace(0.0, 2.0, 401)[1:-1]:
            expect = math.pi / (gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))
            assert stable_re_constant(alpha) == pytest.approx(expect, rel=2e-15, abs=0.0)

    def test_alpha_one_is_pi(self):
        assert stable_re_constant(1.0) == pytest.approx(math.pi, rel=1e-14)

    def test_calibration_unit_growth(self):
        # calibrated measure: Re K(s) = |s|**alpha exactly
        for alpha in (0.5, 1.0, 1.5):
            trip = stable_triplet(alpha)
            assert cumulant_re(trip, 2.0) == pytest.approx(2.0 ** alpha, rel=1e-13)
            assert cumulant_re(trip, -2.0) == pytest.approx(2.0 ** alpha, rel=1e-13)

    def test_calibrated_value_frozen(self):
        assert stable_triplet(1.5).measure.scale * stable_re_constant(1.5) == pytest.approx(1.0)
        assert cumulant_re(stable_triplet(1.5), 2.0) == pytest.approx(2.8284271247461903, rel=1e-13)


class TestCumulantClosedForms:
    def test_gaussian(self):
        trip = gaussian_triplet(1.0)
        assert cumulant(trip, 2.0) == pytest.approx(2.0)
        trip2 = LevyTriplet(a0=0.5, b0=1.0)
        assert cumulant(trip2, 2.0) == pytest.approx(2.0 - 1.0j)

    def test_poisson_single_atom(self):
        trip = poisson_triplet(1.0, atoms=(1.0,))
        k = cumulant(trip, math.pi)
        # real part 1 - cos(pi) = 2; imaginary part s - sin(s)
        assert k.real == pytest.approx(2.0, abs=1e-14)
        assert k.imag == pytest.approx(math.pi, abs=1e-14)
        assert cumulant_re(trip, math.pi) == pytest.approx(2.0, abs=1e-14)

    def test_poisson_two_atoms_vectorised(self):
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        s = np.array([0.0, 0.3, -0.3, 4.0])
        k = cumulant(trip, s)
        assert k.shape == (4,)
        assert k[0] == 0.0
        # evenness of the real part, oddness of the imaginary part
        assert k[1].real == pytest.approx(k[2].real, rel=1e-14)
        assert k[1].imag == pytest.approx(-k[2].imag, rel=1e-14)
        expect_re = 2.0 * (0.6 * (1 - math.cos(-0.5 * 0.3)) + 0.4 * (1 - math.cos(2.0 * 0.3)))
        assert k[1].real == pytest.approx(expect_re, rel=1e-13)

    def test_poisson_real_part_is_cumulant_re(self):
        """1 - cos z in the half-angle form: no cancellation at small s, and
        Re K equals cumulant_re bit for bit; at s = 1e-9 it is
        rate sum_a w_a (s a)**2 / 2 = 1.75e-18."""
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        s = np.geomspace(1e-12, 1e3, 61)
        for v in (s, -s):
            assert np.array_equal(cumulant(trip, v).real, cumulant_re(trip, v))
        assert cumulant(trip, 1e-9).real == pytest.approx(1.75e-18, rel=1e-9)
        # Im K = rate sum_a w_a (s a 1[|a| <= 1] - sin(s a)) = -1.6 s + O(s**3)
        assert cumulant(trip, 1e-9).imag == pytest.approx(-1.6e-9, rel=1e-12)

    def test_zero_frequency(self):
        for trip in default_validation_triplets():
            assert cumulant(trip, 0.0) == 0.0
            assert cumulant_re(trip, 0.0) == 0.0


class TestHalfAngleTangent:
    """levy._sin and levy._one_minus_cos, both from tau = tan(x/2)."""

    @staticmethod
    def grid():
        """Both signs of: zeros, the poles (2k+1) pi of tau, +-1e15, 1e-300,
        subnormals, and random values over [0, 20] and 1e-300..1e15."""
        rng = np.random.Generator(np.random.Philox(key=41))
        special = [0.0, 1e15, 1e20, 1e-300, 5e-324, 3 * 5e-324, 1e-310,
                   2.225073858507201e-308, math.pi / 2]
        x = np.concatenate([special, (2 * np.arange(200) + 1) * math.pi,
                            rng.uniform(0.0, 20.0, 20_000),
                            np.exp(rng.uniform(math.log(1e-300), math.log(1e15), 20_000))])
        return np.concatenate([x, -x])

    def test_odd_and_even_bit_for_bit(self):
        x = self.grid()
        bits = lambda v: v.view(np.int64)
        assert np.array_equal(bits(levy._sin(-x)), bits(-levy._sin(x)))
        assert np.array_equal(bits(levy._one_minus_cos(-x)), bits(levy._one_minus_cos(x)))
        assert np.array_equal(np.signbit(levy._sin(np.array([0.0, -0.0]))), [False, True])

    def test_sin_within_two_ulp_of_libm(self):
        """Measured 2 ulp (x near 273.3), with numpy's AVX-512 tangent and
        with libm's; a subnormal x is off by at most 1 ulp, from halving."""
        x = self.grid()
        expect = np.array([math.sin(v) for v in x])
        assert reference.ulp_distance(levy._sin(x), expect).max() <= 2

    def test_one_minus_cos_keeps_relative_accuracy_near_zero(self):
        """Within 2 ulp of z**2/2 - z**4/24 for 1e-150 <= |z| < 1e-4
        (measured 2), where 1 - cos z itself would cancel to 0."""
        z = np.geomspace(1e-150, 1e-4, 4001)[:-1]
        z = np.concatenate([z, -z])
        series = z * z / 2.0 - z ** 4 / 24.0
        assert reference.ulp_distance(levy._one_minus_cos(z), series).max() <= 2


def test_z_minus_sin_keeps_relative_accuracy():
    """Within 5e-15 relative of its fsum Taylor reference on [1e-6, 3] and
    both signs (measured 3.4e-15, just above the series cutoff 0.5), where
    z - sin z above |z| = 1e-4 lost up to 1.2e-8 to cancellation."""
    z = np.concatenate([np.geomspace(1e-6, 3.0, 3001), [1.0001e-4, 2e-4, 1e-3, 0.5, 0.5001]])
    z = np.concatenate([z, -z])
    expect = np.array([reference.z_minus_sin(v) for v in z])
    assert np.max(np.abs(levy._z_minus_sin(z) - expect) / np.abs(expect)) <= 5e-15


@pytest.mark.parametrize("b0", [0.0, 1.0])
def test_poisson_re_in_place_is_bit_identical(b0):
    """cumulant_re fills its arrays in place in the order of the expression
    it replaced, so 25 000 Cauchy-scaled frequencies read the same bits."""
    rng = np.random.Generator(np.random.Philox(key=35))
    s = rng.standard_cauchy(25_000) * np.exp(rng.uniform(-7.0, 7.0, 25_000))
    for measure in (CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4)),
                    CompoundPoisson(3.0, (0.1, -7.0, 1e3), (0.2, 0.3, 0.5))):
        trip = LevyTriplet(b0=b0, measure=measure)
        expect = reference.cumulant_re(trip, s)
        assert np.array_equal(cumulant_re(trip, s).view(np.int64), expect.view(np.int64))
        assert cumulant_re(trip, s[7]) == expect[7]


def bench_table():
    """31 knots per side of 0.1 |y|**-2 on 1e-3 <= |y| <= 1e3."""
    pos = np.geomspace(1e-3, 1e3, 31)
    grid = np.concatenate([-pos[::-1], pos])
    return TabulatedMeasure(tuple(grid), tuple(0.1 * np.abs(grid) ** -2.0))


def zero_knot_table():
    """One-sided, every other knot zero: each piece is linear in log r."""
    return TabulatedMeasure((0.2, 0.5, 1.0, 2.0, 5.0), (0.0, 1.5, 0.0, 2.0, 0.0))


def steep_table():
    """Two-sided; the piece on [1, 1.1] is a power law with exponent -145."""
    return TabulatedMeasure((-2.0, -0.5, 0.5, 1.0, 1.1, 2.0), (0.3, 1.0, 2.0, 1.0, 1e-6, 1e-7))


def quad_cumulant(m, s):
    """Jump cumulant and an error bound by scalar QUADPACK on the interpolated density.

    Piece by piece between knots (split at r = 1): direct quadrature while
    the phase |s| r stays below 50, else the mass minus cosine- and
    sine-weighted quadrature (QAWO).
    """
    w = abs(s)
    re = im = err = 0.0
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for side in m.pieces:
            sign, knots = side.sign, side.knots

            def g(r, side=side):
                return float(side.density(r))

            edges = sorted(set(knots.tolist()) | ({1.0} if knots[0] < 1.0 < knots[-1] else set()))
            for a, b in zip(edges, edges[1:]):
                if w * b <= 50.0:
                    p, e1 = quad(lambda r: 2.0 * math.sin(0.5 * w * r) ** 2 * g(r), a, b, **opts)
                    odd = (lambda z: z - math.sin(z)) if b <= 1.0 else (lambda z: -math.sin(z))
                    q, e2 = quad(lambda r: odd(w * r) * g(r), a, b, **opts)
                    e = e1 + e2
                else:
                    mass, e1 = quad(g, a, b, **opts)
                    c, e2 = quad(g, a, b, weight="cos", wvar=w, maxp1=200, **opts)
                    sn, e3 = quad(g, a, b, weight="sin", wvar=w, maxp1=200, **opts)
                    p, q, e = mass - c, -sn, e1 + e2 + e3
                    if b <= 1.0:
                        first, e4 = quad(lambda r: r * g(r), a, b, **opts)
                        q += w * first
                        e += w * e4
                re += p
                im += sign * q
                err += e
    return complex(re, im if s > 0 else -im), err


def truncated_stable_re(alpha, lo, hi, s):
    """Re K of the calibrated stable density kept on lo <= |y| <= hi.

    |s|**alpha minus the two cut-off parts 2 scale integral (1 - cos sr)
    r**(-1-alpha) dr: below lo by its power series, above hi as
    hi**-alpha / alpha minus a cosine-weighted (QAWF) tail.
    """
    scale = 1.0 / stable_re_constant(alpha)
    inner = sum((-1) ** (n + 1) * s ** (2 * n) * lo ** (2 * n - alpha)
                / (math.factorial(2 * n) * (2 * n - alpha)) for n in range(1, 12))
    cos_tail, _ = quad(lambda r: r ** (-1.0 - alpha), hi, np.inf, weight="cos", wvar=abs(s),
                       epsabs=1e-16)
    outer = hi ** -alpha / alpha - cos_tail
    return abs(s) ** alpha - 2.0 * scale * (inner + outer)


class TestTabulatedMeasure:
    def symmetric_powerlaw_table(self, alpha=0.7, lo=1e-6, hi=1e6, n=121):
        scale = 1.0 / stable_re_constant(alpha)
        pos = np.geomspace(lo, hi, n)
        grid = np.concatenate([-pos[::-1], pos])
        dens = scale * np.abs(grid) ** (-1.0 - alpha)
        return TabulatedMeasure(tuple(grid), tuple(dens))

    def test_matches_stable_closed_form(self):
        # log-linear interpolation is exact on a power law, so the only gap
        # to |s|**0.7 is the truncation to 1e-6 <= |y| <= 1e6, which
        # truncated_stable_re subtracts
        trip = LevyTriplet(b0=0.0, measure=self.symmetric_powerlaw_table(), name="table")
        for s in (0.5, 2.0, 50.0, 1e3, 1e5):
            expect = truncated_stable_re(0.7, 1e-6, 1e6, s)
            assert cumulant_re(trip, s) == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("table", [steep_table, zero_knot_table],
                             ids=["steep", "zero-knot"])
    @pytest.mark.parametrize("s", [1e-2, 1.0, 50.0, 1e3, 1e5, 1e6])
    def test_matches_oscillatory_quadrature(self, table, s):
        m = table()
        value, err = levy._tabulated_jump_cumulant(m, s)
        expect, expect_err = quad_cumulant(m, s)
        assert abs(value - expect) <= err + expect_err
        assert err <= 1e-9 * (1.0 + abs(value))

    @pytest.mark.parametrize("table", [bench_table, steep_table, zero_knot_table],
                             ids=["bench", "steep", "zero-knot"])
    def test_conjugate_symmetry_exact(self, table):
        trip = LevyTriplet(measure=table())
        s = np.array([1e-2, 0.7, 3.0, 64.0, 2e3, 1e6])
        assert np.array_equal(cumulant(trip, -s), np.conj(cumulant(trip, s)))

    def test_one_call_spans_blocks(self, monkeypatch):
        """One call on more than two blocks of frequencies: each side's passes
        hold at most a block, the values are the one-frequency values within
        4 ulp, and conjugate symmetry holds exactly.

        The ulp is of |K| or of the positive side's |K|, whichever is larger:
        the sides' imaginary parts cancel on this symmetric table, and the
        engine sums a lone problem in another order than a batch."""
        pos = np.geomspace(1e-4, 1e7, 1250)
        s = np.concatenate([-pos[::-1], [0.0], pos])
        m = bench_table()
        engine = levy.integrate_box
        passes = []

        def counting(func, corners, **kwargs):
            passes.append(len(corners))
            return engine(func, corners, **kwargs)

        monkeypatch.setattr(levy, "integrate_box", counting)
        value, err = levy._tabulated_jump_cumulant(m, s)
        monkeypatch.undo()
        assert len(passes) > 2 * len(m.pieces) and max(passes) <= levy._TABLE_BLOCK
        edges = np.arange(0, len(s), levy._TABLE_BLOCK)
        picks = np.unique(np.concatenate([np.arange(0, len(s), 20), edges, edges[1:] - 1]))
        half = TabulatedMeasure(m.grid[31:], m.density[31:])
        solo, scale = np.array([[complex(levy._tabulated_jump_cumulant(t, s[i])[0])
                                 for t in (m, half)] for i in picks]).T
        ulp = np.spacing(np.maximum(np.abs(solo), np.abs(scale)))
        assert np.all(np.abs(value[picks] - solo) <= 4 * ulp)
        assert value[len(pos)] == 0.0 and err[len(pos)] == 0.0
        trip = LevyTriplet(measure=m)
        assert np.array_equal(cumulant(trip, -s), np.conj(cumulant(trip, s)))

    def test_imaginary_part_vanishes_for_symmetric_table(self):
        trip = LevyTriplet(b0=0.0, measure=self.symmetric_powerlaw_table(n=41), name="table")
        k = cumulant(trip, 1.7)
        assert abs(k.imag) < 1e-7 * (1 + abs(k.real))

    def test_one_sided_table_has_drift_component(self):
        grid = (0.5, 1.0, 2.0)
        dens = (1.0, 1.0, 1.0)
        trip = LevyTriplet(b0=0.0, measure=TabulatedMeasure(grid, dens), name="one-sided")
        k = cumulant(trip, 1.0)
        assert k.real > 0
        assert k.imag != pytest.approx(0.0, abs=1e-6)

    def test_single_knot_side_carries_no_mass(self):
        lone = LevyTriplet(measure=TabulatedMeasure((-1.0, 0.5, 2.0), (3.0, 1.0, 0.5)))
        pair = LevyTriplet(measure=TabulatedMeasure((0.5, 2.0), (1.0, 0.5)))
        s = np.array([-40.0, 0.3, 2.0, 1e4])
        assert np.array_equal(cumulant(lone, s), cumulant(pair, s))
        assert abs_moment(lone.measure, 0) == abs_moment(pair.measure, 0)
        assert np.array_equal(truncated_mean_shift(lone, s), truncated_mean_shift(pair, s))
        assert [side.sign for side in lone.measure.pieces] == [1.0]

    def test_error_check_names_first_failing_frequency(self, monkeypatch):
        engine = levy.integrate_box

        def inflated(func, corners, **kwargs):
            val, err = engine(func, corners, **kwargs)
            return val, err + 1.0

        monkeypatch.setattr(levy, "integrate_box", inflated)
        with pytest.raises(QuadratureError, match=r"too large at s=-2\.0") as info:
            levy._tabulated_jump_cumulant(bench_table(), np.array([0.0, -2.0, 3.0]))
        assert info.value.residual >= 2.0

    def test_pieces_stay_out_of_eq_hash_repr(self):
        a, b = bench_table(), bench_table()
        assert a.pieces is not b.pieces and a == b
        assert hash(LevyTriplet(measure=a)) == hash(LevyTriplet(measure=b))
        assert "pieces" not in repr(a)
        lone_knots = TabulatedMeasure((-1.0, 1.0), (2.0, 3.0))
        assert lone_knots.pieces == ()
        assert np.array_equal(cumulant(LevyTriplet(measure=lone_knots), [-3.0, 0.0, 5.0]),
                              np.zeros(3))

    def test_piece_moment_e1_matches_scipy_exprel(self):
        """With lo = 1 and slope 0 the piece moment is L E1((p + 1) L), L = log hi;
        p = -1 and its neighbours put x at 0 and at +-1e-16 (+-1e-28 for the
        short piece)."""
        from scipy.special import exprel  # reference only
        p = np.concatenate([[-1.0, -1.0 + 2.0 ** -52, -1.0 - 2.0 ** -53],
                            np.linspace(-51.0, 49.0, 20001)])
        for hi in (math.e, 1.0 + 1e-12):
            L = math.log(hi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = levy._piece_moment(1.0, 0.0, p, 1.0, hi, 0)
            np.testing.assert_allclose(got, L * exprel((p + 1.0) * L), rtol=1e-15, atol=0.0)

    def test_piece_moment_zero_slope_overflow(self):
        """A zero-slope piece is finite wherever E1(x) is (x <= 709), +inf
        beyond, never NaN, and warns of no overflow while finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = levy._piece_moment(1.0, 0.0, np.array([700.0, 705.0, 708.0]), 1.0,
                                        math.e, 0)
        assert np.all(np.isfinite(finite)) and np.all(np.diff(finite) > 0)
        beyond = levy._piece_moment(1.0, 0.0, np.array([709.0, 720.0, 1e4]), 1.0, math.e, 0)
        assert np.all(beyond == np.inf)
        sloped = levy._piece_moment(1.0, -0.5, np.array([705.0, 720.0]), 1.0, math.e, 1)
        assert not np.any(np.isnan(sloped))

    def test_rejects_grid_inside_cutoff(self):
        with pytest.raises(RejectionError):
            TabulatedMeasure((1e-12, 1.0), (1.0, 1.0))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(RejectionError):
            TabulatedMeasure((1.0, 0.5), (1.0, 1.0))

    def test_rejects_negative_density(self):
        with pytest.raises(RejectionError):
            TabulatedMeasure((0.5, 1.0), (1.0, -1.0))


class TestTripletValidation:
    def test_degenerate_rejected(self):
        with pytest.raises(RejectionError) as exc:
            LevyTriplet(a0=0.0, b0=0.0, measure=NO_JUMPS)
        assert exc.value.condition == "degenerate-triplet"

    def test_negative_variance_rejected(self):
        with pytest.raises(RejectionError):
            LevyTriplet(b0=-1.0)

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 2.0, -0.3, 2.5):
            with pytest.raises(RejectionError):
                SymmetricStable(alpha=alpha)

    def test_poisson_weights_must_sum_to_one(self):
        with pytest.raises(RejectionError):
            CompoundPoisson(1.0, (1.0, 2.0), (0.5, 0.6))

    def test_poisson_zero_atom_rejected(self):
        with pytest.raises(RejectionError):
            CompoundPoisson(1.0, (0.0,), (1.0,))

    def test_poisson_weights_default_to_equal(self):
        assert CompoundPoisson(2.0, (1.0, -3.0, 0.5)) == \
            CompoundPoisson(2.0, (1.0, -3.0, 0.5), (1.0 / 3.0,) * 3)

    @pytest.mark.parametrize("trip,name", [
        (gaussian_triplet(1.0), "gaussian(b0=1)"),
        (gaussian_triplet(1.0, a0=0.5), "drift(a0=0.5)+gaussian(b0=1)"),
        (stable_triplet(1.2, a0=0.3), "drift(a0=0.3)+stable(alpha=1.2)"),
        (poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4), b0=1.0),
         "gaussian(b0=1)+poisson(rate=2)"),
        (LevyTriplet(a0=-1.0), "drift(a0=-1)"),
        (LevyTriplet(b0=2.0, measure=zero_knot_table()), "gaussian(b0=2)+tabulated"),
        (LevyTriplet(b0=2.0, measure=zero_knot_table(), name="mine"), "mine"),
    ])
    def test_named_by_nonzero_parts(self, trip, name):
        assert trip.name == name


def moment_law_measures():
    """The measures on which the moment law is pinned to the per-type formulas."""
    return {
        "none": NO_JUMPS,
        **{f"stable-{a:g}": calibrated_stable(a) for a in (0.5, 1.0, 1.5)},
        "poisson-1": CompoundPoisson(1.0, (1.0,)),
        "poisson-2": CompoundPoisson(2.0, (-0.5, 2.0), (0.6, 0.4)),
        "poisson-thirds": CompoundPoisson(1.0, (1.0 / 3.0, 0.1)),
        "table-one-sided": zero_knot_table(),
        "table-two-sided": bench_table(),
    }


def moment_law_points(measure):
    """2e4 Cauchy draws plus 0, +-1e-310, +-5e-324, +-1, +-1/a for each
    atom a, +-1e300 and +-inf: 1/|v| overflows at the subnormal v and
    (yv)**2 at the large ones."""
    rng = np.random.Generator(np.random.Philox(key=30))
    edge = [0.0, 1e-310, 5e-324, 1.0, 1e300, math.inf]
    edge += [1.0 / a for a in getattr(measure, "atoms", ())]
    return np.concatenate([rng.standard_cauchy(20_000), edge, -np.array(edge)])


class TestMomentLaw:
    """abs_moment, truncated_mean_shift and clipped_second_moment read the one
    moment law levy._moment; each agrees with the per-type formulas it
    replaced (tests/reference.py) within 2 ulp wherever those are finite."""

    @pytest.mark.parametrize("name", list(moment_law_measures()))
    def test_matches_per_type_formulas(self, name):
        m = moment_law_measures()[name]
        trip = LevyTriplet(a0=1.0, measure=m)
        v = moment_law_points(m)
        for k in (0, 1, 2):
            want, got = reference.abs_moment(m, k), abs_moment(m, k)
            assert got == want or reference.ulp_distance(got, want) <= 2, k
        for new, old in ((truncated_mean_shift, reference.truncated_mean_shift),
                         (clipped_second_moment, reference.clipped_second_moment)):
            got = new(trip, v)
            with np.errstate(all="ignore"):
                want = old(m, v)
            assert not np.isnan(got).any(), new.__name__
            finite = np.isfinite(want)
            ulps = reference.ulp_distance(got[finite], want[finite])
            assert ulps.max() <= 2, (new.__name__, v[finite][ulps.argmax()])
            # the reference's nan (tables at huge v) is pinned below
            np.testing.assert_array_equal(got[np.isinf(want)], want[np.isinf(want)])

    @pytest.mark.parametrize("table", [bench_table, zero_knot_table])
    def test_table_clipped_moment_is_the_mass_at_large_v(self, table):
        # (yv)**2 overflows there: the formulas before the law returned
        # inf * 0 = nan, while min(1, (yv)**2) = 1 on the whole table
        m = table()
        v = np.array([1.3e154, 1e200, -1e300, 1e308, math.inf, -math.inf])
        with np.errstate(all="ignore"):
            assert np.isnan(reference.clipped_second_moment(m, v[-4:])).all()
        got = clipped_second_moment(LevyTriplet(measure=m), v)
        np.testing.assert_array_equal(got, abs_moment(m, 0))

    def test_poisson_compensator(self):
        m = CompoundPoisson(2.0, (-0.5, 2.0, 0.25), (0.5, 0.3, 0.2))
        assert float(levy._moment(m, 1, 0.0, 1.0, signed=True)) == \
            pytest.approx(2.0 * (0.5 * -0.5 + 0.2 * 0.25), rel=1e-15)


class TestMomentHelpers:
    def test_mean_shift_zero_for_symmetric(self):
        assert truncated_mean_shift(stable_triplet(1.2), 0.7) == 0.0
        assert truncated_mean_shift(gaussian_triplet(), 0.7) == 0.0

    def test_mean_shift_poisson_steps(self):
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        assert truncated_mean_shift(trip, 0.25) == pytest.approx(1.6)
        assert truncated_mean_shift(trip, 1.0) == pytest.approx(0.0)
        assert truncated_mean_shift(trip, 3.0) == pytest.approx(0.6)

    def test_clipped_second_moment_stable_oracle(self):
        trip = stable_triplet(0.7)
        assert clipped_second_moment(trip, 2.0) == pytest.approx(1.8401865539722853, rel=1e-12)

    def test_clipped_second_moment_poisson(self):
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        v = 0.4
        expect = 2.0 * (0.6 * min(1.0, (0.5 * v) ** 2) + 0.4 * min(1.0, (2.0 * v) ** 2))
        assert clipped_second_moment(trip, v) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("table,moments,shift,clipped", [
        (bench_table, (199.9998, 2.7631021115928545, 199.99979999999994),
         (0.0,) * 8,
         (0.0, 0.003799979999999999, 0.11978200000000001, 0.35963800000000007,
          0.3996000000000001, 0.5993500000000003, 1.198, 37.9998)),
        (zero_knot_table, (4.253660705940763, 9.615016094658076, 26.320192652313835),
         (9.295202452008116, 9.295202452008116, 6.633081695218702, 0.018453166124195647,
          0.0, -0.10557396661148202, -0.302458741240767, -0.31981364264995926),
         (0.0, 0.002632019265231384, 2.1199955781661592, 3.814803538498998,
          3.8518614976173513, 4.038912290949776, 4.2385664099968725, 4.253660705940763)),
    ], ids=["bench", "zero-knot"])
    def test_tabulated_moments_frozen(self, table, moments, shift, clipped):
        trip = LevyTriplet(measure=table())
        v = np.array([0.0, 0.01, 0.3, 0.9, 1.0, 1.5, 3.0, 100.0])
        assert abs_moment(trip.measure, 0) == pytest.approx(moments[0], rel=1e-12)
        assert abs_moment(trip.measure, 1) == pytest.approx(moments[1], rel=1e-12)
        assert im_linear_coef(trip) == pytest.approx(2.0 * moments[1], rel=1e-12)
        assert abs_moment(trip.measure, 2) == pytest.approx(moments[2], rel=1e-12)
        assert small_signal_bound(trip) == (2.0, pytest.approx(0.5 * moments[2], rel=1e-12))
        np.testing.assert_allclose(truncated_mean_shift(trip, v), shift, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(clipped_second_moment(trip, v), clipped, rtol=1e-12, atol=0.0)
        assert truncated_mean_shift(trip, 0.3) == pytest.approx(shift[2], rel=1e-12)
        assert clipped_second_moment(trip, -0.3) == pytest.approx(clipped[2], rel=1e-12)

    def test_small_signal_bound_dominates(self):
        vs = np.linspace(-1.0, 1.0, 201)
        for trip in default_validation_triplets():
            gamma, coef = small_signal_bound(trip)
            bound = coef * np.abs(vs) ** gamma
            re = cumulant_re(trip, vs)
            assert np.all(re <= bound * (1 + 1e-12) + 1e-15)

    @pytest.mark.parametrize("trip,expect", [
        (gaussian_triplet(0.7), ((0.35, 2.0),)),
        (stable_triplet(0.8), ((1.0, 0.8),)),
        (stable_triplet(1.3, scale=2.5), ((2.5 * STABLE_CONST_1_3, 1.3),)),
        (LevyTriplet(b0=1.0, measure=calibrated_stable(1.0)), ((0.5, 2.0), (1.0, 1.0))),
        (LevyTriplet(a0=0.3, b0=0.4, measure=SymmetricStable(0.04, 3.0)),
         ((0.2, 2.0), (3.0 * STABLE_CONST_0_04, 0.04))),
    ], ids=["gaussian", "stable", "stable-scaled", "gaussian+stable", "drift+gaussian+stable"])
    def test_power_terms(self, trip, expect):
        """Re K(v) = sum_k c_k |v|**gamma_k at random v, signs and decades."""
        terms = power_terms(trip)
        assert [g for _, g in terms] == [g for _, g in expect]
        assert [c for c, _ in terms] == pytest.approx([c for c, _ in expect], rel=1e-14)
        rng = np.random.default_rng(17)
        v = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-6.0, 6.0, 200)
        expect = sum(c * np.abs(v) ** gamma for c, gamma in terms)
        np.testing.assert_allclose(cumulant_re(trip, v), expect, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("trip", [
        poisson_triplet(),
        LevyTriplet(measure=bench_table()),
        poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4), b0=1.0),
    ], ids=["poisson", "table", "gaussian+poisson"])
    def test_power_terms_none_for_other_jumps(self, trip):
        assert power_terms(trip) is None


finite_s = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


class TestCumulantProperties:
    @given(s=finite_s)
    @settings(max_examples=60, deadline=None)
    def test_re_even_and_nonnegative(self, s):
        for trip in (gaussian_triplet(0.5), stable_triplet(1.3), poisson_triplet()):
            r1 = cumulant_re(trip, s)
            r2 = cumulant_re(trip, -s)
            assert r1 >= 0.0
            assert r1 == r2  # computed through |s|, equal bit for bit

    @given(s=finite_s)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, s):
        trip = LevyTriplet(a0=0.3, b0=0.2,
                           measure=CompoundPoisson(1.5, (-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)))
        k1 = cumulant(trip, s)
        k2 = cumulant(trip, -s)
        assert k1.real == pytest.approx(k2.real, rel=1e-12, abs=1e-12)
        assert k1.imag == pytest.approx(-k2.imag, rel=1e-12, abs=1e-12)

    @given(s=st.floats(min_value=1e-3, max_value=1e3),
           lam=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=60, deadline=None)
    def test_stable_homogeneity(self, s, lam):
        trip = stable_triplet(1.5)
        lhs = cumulant_re(trip, lam * s)
        rhs = lam ** 1.5 * cumulant_re(trip, s)
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestNegDefInequalities:
    @pytest.mark.parametrize("trip", default_validation_triplets(),
                             ids=lambda t: t.name)
    def test_no_violations_at_moderate_sample_size(self, trip):
        report = check_negdef_inequalities(trip, n_samples=20_000, seed=11)
        assert report.passed, report.violations
        assert report.max_excess == 0.0

    def test_report_covers_all_checks(self):
        report = check_negdef_inequalities(gaussian_triplet(), n_samples=100, seed=0)
        assert len(report.violations) == 7
        assert report.n_samples == 100

    def test_seed_reproducibility(self):
        a = check_negdef_inequalities(stable_triplet(0.7), n_samples=500, seed=3)
        b = check_negdef_inequalities(stable_triplet(0.7), n_samples=500, seed=3)
        assert a == b

    def test_tabulated_measure_accepted(self):
        pos = np.geomspace(1e-3, 1e3, 31)
        grid = tuple(np.concatenate([-pos[::-1], pos]))
        dens = tuple(0.1 * np.abs(np.asarray(grid)) ** (-2.0))
        trip = LevyTriplet(b0=0.0, measure=TabulatedMeasure(grid, dens), name="table")
        report = check_negdef_inequalities(trip, n_samples=40, seed=5)
        assert report.passed, report.violations
