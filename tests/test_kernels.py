"""Kernel evaluation, norms, and integrator-compatibility checks.

Frozen oracle notes: the drift-condition literal 5.079683366298239 is the
closed form 2 * 1.6 * 2 * (2**(2/3))**(-1/2) for the step-shift integrand
(cross-checked by quadrature to 1e-12); the jump-condition literal is
(4/pi) * 6 since the clipped moment of a calibrated alpha=1 measure is
exactly (4/pi)*|v|.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from srdcert import kernels
from srdcert.errors import DivergentNormError, RejectionError
from srdcert.kernels import (
    BoundedBox,
    DecayEnvelope,
    Kernel,
    box_kernel,
    check_integrability,
    gaussian_kernel,
    integrate_over_support,
    powerlaw_kernel,
    tabulated_kernel,
    tent_kernel,
)
from srdcert.levy import (
    LevyTriplet,
    TabulatedMeasure,
    calibrated_stable,
    gaussian_triplet,
    poisson_triplet,
    stable_re_constant,
    stable_triplet,
    truncated_mean_shift,
)


def lp_norm(kernel: Kernel, p: float) -> float:
    """L^p norm of the kernel from its cached power integral."""
    return kernels._lp_power_integral(kernel, float(p))[0] ** (1.0 / p)


def at(kernel: Kernel, *coords: float) -> float:
    """The kernel's value at one point."""
    return float(kernel(np.array([coords]))[0])


def strip_closed_norms(kernel: Kernel) -> Kernel:
    """Clone without registered norms, and without the profile where the
    support allows, forcing the nested quadrature path."""
    profile = kernel.profile if isinstance(kernel.support, DecayEnvelope) else None
    return Kernel(dim=kernel.dim, func=kernel.func, support=kernel.support,
                  name=kernel.name + "-noclosed", closed_norms=None,
                  knots=kernel.knots, profile=profile)


# identically zero: exercises the degenerate paths
ZERO = Kernel(dim=1, func=lambda pts: np.zeros(pts.shape[0]),
              support=BoundedBox((0.0,), (1.0,)), name="zero")


class TestEvaluation:
    def test_box_masks_outside_exactly(self):
        k = box_kernel(0.0, 1.0)
        x = np.array([[-0.5], [0.0], [0.5], [1.0], [1.5]])
        assert k(x).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_tent_shape(self):
        k = tent_kernel()
        assert at(k, 0.0) == 1.0
        assert at(k, 0.5) == 0.5
        assert at(k, -0.25) == 0.75
        assert at(k, 1.5) == 0.0

    def test_powerlaw_plateau_and_tail(self):
        k = powerlaw_kernel(1.5)
        assert at(k, 0.0) == 1.0
        assert at(k, 0.5) == 1.0
        assert at(k, 4.0) == pytest.approx(4.0 ** -1.5, rel=1e-15)

    def test_gaussian_2d(self):
        k = gaussian_kernel(dim=2)
        assert at(k, 0.0, 0.0) == 1.0
        assert at(k, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert at(k, 10.0, 0.0) == 0.0  # beyond the truncation box

    def test_scalar_convenience_1d(self):
        k = tent_kernel()
        vals = k(np.array([0.0, 0.5, 2.0]))
        assert vals.tolist() == [1.0, 0.5, 0.0]

    def test_dimension_mismatch(self):
        k = box_kernel(dim=2)
        with pytest.raises(ValueError):
            k(np.zeros((3, 1)))

    def test_tabulated_matches_tent(self):
        grid = np.linspace(-1.0, 1.0, 401)
        vals = np.maximum(1.0 - np.abs(grid), 0.0)
        k = tabulated_kernel((grid,), vals)
        for x in (-0.7, -0.2, 0.0, 0.413, 0.95):
            assert at(k, x) == pytest.approx(1.0 - abs(x), abs=1e-12)
        assert at(k, 1.2) == 0.0

    def test_tabulated_2d(self):
        gx = np.linspace(0.0, 1.0, 11)
        gy = np.linspace(0.0, 2.0, 21)
        vals = np.add.outer(gx, gy)
        k = tabulated_kernel((gx, gy), vals)
        assert at(k, 0.35, 1.15) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tabulated_matches_regular_grid_interpolator(self, dim):
        """The numpy interpolant against scipy's, on random points, on the knots
        and outside the grid, within 1e-15 of the largest table value."""
        from scipy.interpolate import RegularGridInterpolator  # reference only
        rng = np.random.default_rng(11 + dim)
        axes = tuple(np.sort(rng.uniform(-2.0, 3.0, n)) for n in (9, 6)[:dim])
        vals = rng.uniform(-1.0, 4.0, tuple(len(a) for a in axes))
        ref = RegularGridInterpolator(axes, vals, bounds_error=False, fill_value=0.0)
        k = tabulated_kernel(axes, vals)
        inside = np.stack([rng.uniform(a[0], a[-1], 500) for a in axes], axis=1)
        knots = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        outside = np.stack([rng.uniform(-6.0, 7.0, 500) for _ in axes], axis=1)
        assert (~np.all((outside >= [a[0] for a in axes])
                        & (outside <= [a[-1] for a in axes]), axis=1)).sum() > 100
        for pts in (inside, knots, outside):
            np.testing.assert_allclose(k(pts), ref(pts), rtol=0.0,
                                       atol=1e-15 * np.abs(vals).max())
        np.testing.assert_array_equal(k(knots), vals.ravel())

    def test_support_validation(self):
        with pytest.raises(RejectionError):
            BoundedBox((0.0,), (0.0,))
        with pytest.raises(RejectionError):
            DecayEnvelope(radius=1.0, exponent=-2.0)
        with pytest.raises(RejectionError):
            box_kernel(1.0, 0.0)


    def test_envelope_needs_profile(self):
        with pytest.raises(RejectionError) as exc:
            Kernel(dim=1, func=lambda pts: np.minimum(1.0, np.abs(pts[:, 0]) ** -2.0),
                   support=DecayEnvelope(radius=1.0, exponent=2.0))
        assert exc.value.condition == "kernel-profile"

    def test_envelope_needs_dim_one(self):
        for dim in (2, 3):
            with pytest.raises(RejectionError) as exc:
                Kernel(dim=dim, func=lambda pts: np.ones(pts.shape[0]),
                       support=DecayEnvelope(radius=1.0, exponent=4.0))
            assert exc.value.condition == "kernel-dim"

    def test_even_kernels_are_symmetric_bit_for_bit(self):
        even = [box_kernel(-1.0, 1.0, dim=d) for d in (1, 2, 3)] + [
            box_kernel(-0.3, 0.3), tent_kernel(), tent_kernel(0.7),
            powerlaw_kernel(1.5), powerlaw_kernel(3.0, radius=0.4)] + [
            gaussian_kernel(dim=d, width=w) for d in (1, 2, 3) for w in (1.0, 0.3)]
        rng = np.random.default_rng(11)
        for k in even:
            assert k.even, k.name
            reach = 1.5 * (k.support.hi[0] if isinstance(k.support, BoundedBox) else 4.0)
            x = rng.uniform(-reach, reach, (2000, k.dim))
            # faces and the origin, where a sign slip would show first
            x[:2] = reach / 1.5
            x[2:4] = 0.0
            assert np.array_equal(k(-x), k(x)), k.name
        table = tabulated_kernel((np.linspace(-1.0, 1.0, 5),), np.array([0, 1, 2, 1, 0.0]))
        for k in (box_kernel(), box_kernel(0.0, 1.0, dim=2), box_kernel(-1.0, 2.0), table,
                  tabulated_kernel((np.linspace(-1, 1, 3),) * 2, np.ones((3, 3))),
                  ZERO):
            assert not k.even, k.name


class TestNorms:
    def test_box_all_orders(self):
        k = box_kernel(0.0, 2.0)
        for p in (0.5, 1.0, 2.0, 3.7):
            assert lp_norm(k, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-14)

    def test_tent_closed_forms(self):
        k = tent_kernel()
        assert lp_norm(k, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert lp_norm(k, 0.5) == pytest.approx((4.0 / 3.0) ** 2, rel=1e-14)
        assert lp_norm(k, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)

    def test_gaussian_closed_form(self):
        assert lp_norm(gaussian_kernel(), 2.0) == pytest.approx(1.1195151349202477, rel=1e-13)

    def test_powerlaw_closed_forms(self):
        k = powerlaw_kernel(1.5)
        assert lp_norm(k, 1.0) == pytest.approx(6.0, rel=1e-14)
        assert lp_norm(k, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    @pytest.mark.parametrize("make,p", [
        (lambda: tent_kernel(), 1.0),
        (lambda: tent_kernel(), 2.0),
        (lambda: gaussian_kernel(), 2.0),
        (lambda: powerlaw_kernel(1.5), 1.0),
        (lambda: powerlaw_kernel(1.5), 2.0),
        (lambda: powerlaw_kernel(0.8), 3.0),
        (lambda: box_kernel(0.0, 1.5, dim=2), 4.0),
    ])
    def test_quadrature_matches_closed(self, make, p):
        k = make()
        closed = lp_norm(k, p)
        quad_only = lp_norm(strip_closed_norms(k), p)
        assert quad_only == pytest.approx(closed, rel=1e-9)

    def test_divergent_norm_raises(self):
        k = powerlaw_kernel(1.5)
        with pytest.raises(DivergentNormError):
            lp_norm(k, 0.5)  # p*beta = 0.75 <= 1
        with pytest.raises(DivergentNormError):
            lp_norm(powerlaw_kernel(0.8), 1.0)

    def test_gaussian_2d_quadrature(self):
        k = strip_closed_norms(gaussian_kernel(dim=2))
        assert lp_norm(k, 2.0) == pytest.approx((math.pi / 2.0) ** 0.5, rel=1e-8)

    def test_zero_kernel_norm(self):
        assert lp_norm(ZERO, 2.0) == 0.0

    @given(p=st.floats(min_value=0.7, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_norm_scaling_property(self, p):
        # stretching the tent by w multiplies the L^p norm by w**(1/p)
        base = lp_norm(tent_kernel(1.0), p)
        wide = lp_norm(tent_kernel(2.0), p)
        assert wide == pytest.approx(2.0 ** (1.0 / p) * base, rel=1e-12)


@pytest.mark.parametrize("dim, cells, rel", [(1, 100_000, 1e-4), (2, 1000, 1e-3), (3, 100, 2e-2)])
@pytest.mark.parametrize("make, reach", [(lambda d: box_kernel(-0.5, 1.5, dim=d), 2.0),
                                         (lambda d: gaussian_kernel(d, 0.8), 3.0)],
                         ids=["box", "gaussian"])
def test_exceedance_hook_matches_lattice_count(make, reach, dim, cells, rel):
    """The measure of {closed_overlap > r} agrees with the count of the
    cells of a fine midpoint lattice on [-reach, reach]^d where it holds."""
    kern = make(dim)
    h = 2.0 * reach / cells
    axis = -reach + h * (np.arange(cells) + 0.5)
    lattice = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    for gamma in (1.0, 1.5, 2.0):
        overlap = kern.closed_overlap(lattice, gamma)
        for r in (0.25, 0.6):
            count = h ** dim * np.count_nonzero(overlap > r)
            assert count == pytest.approx(kern.closed_exceedance(r, gamma), rel=rel)


class TestIntegrateOverSupport:
    """Every support reaches the engine as boxes of one ``integrate_box`` call."""

    @staticmethod
    def boxes(monkeypatch, *args, **kw):
        """(values, errors, the corner sets handed to the engine)."""
        seen, engine = [], kernels.integrate_box

        def spy(func, corners, **opts):
            seen.append(np.sort(np.asarray(corners), axis=1))
            return engine(func, corners, **opts)

        monkeypatch.setattr(kernels, "integrate_box", spy)
        vals, errs = integrate_over_support(*args, **kw)
        (corners,) = seen
        return vals, errs, corners

    def test_knots_outside_the_overlap_do_not_widen_it(self, monkeypatch):
        # tent shifts 1.5 apart overlap on [0.5, 1]; their knots 0 and 1.5 lie outside
        vals, errs, corners = self.boxes(
            monkeypatch, tent_kernel(), lambda fv, _: (fv[0] * fv[1])[:, None],
            np.array([[[1.5], [0.0]]]))
        assert (corners[0, 0, 0], corners[0, -1, 0]) == (0.5, 1.0)
        assert vals[0, 0] == pytest.approx(1.0 / 48.0, rel=1e-14) and errs[0] < 1e-14

    def test_disjoint_supports_give_exact_zeros(self, monkeypatch):
        # boxes [1, 2]^d and [-1, 0]^d, or ones apart on a single axis: g
        # vanishes wherever one kernel value does, so each integral is 0
        calls = count_engine_passes(monkeypatch)
        for dim in (1, 2):
            shifts = np.zeros((2, 2, dim))
            shifts[0, 0] = 2.0
            shifts[1, 0, -1] = -1.5
            vals, errs = integrate_over_support(
                box_kernel(dim=dim), lambda fv, _: (fv[0] * fv[1])[:, None], shifts)
            assert vals.shape == (2, 1) and not vals.any() and not errs.any()
        assert calls == []

    def test_1d_envelope_is_a_core_and_two_log_tails(self, monkeypatch):
        k = powerlaw_kernel(1.5)
        vals, errs, corners = self.boxes(
            monkeypatch, k, lambda fv, _: fv.T ** 2, np.zeros((2, 1, 1)), [(2.0, 1.0)])
        # per problem the core [-4, 4] cut at the faces and knots +-1, then the
        # tails from log 4 in u = log|x|
        assert corners.shape[0] == 6
        np.testing.assert_array_equal(corners[0, :, 0], [-4.0, -1.0, -1.0, 1.0, 1.0, 4.0])
        assert corners[1, 0, 0] == corners[2, 0, 0] == math.log(4.0)
        assert np.all(np.abs(vals[:, 0] - lp_norm(k, 2.0) ** 2) <= errs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radial_profile_is_one_pass_in_the_radius(self, monkeypatch, dim):
        # two problems, each the interval [0, reach] in r, with weight d V r**(d-1)
        k = gaussian_kernel(dim, 0.8)
        vals, errs, corners = self.boxes(
            monkeypatch, k, lambda fv, _: fv.T ** 2, np.zeros((2, 1, dim)))
        np.testing.assert_array_equal(corners, np.tile([[0.0], [8.5 * 0.8]], (2, 1, 1)))
        assert np.all(np.abs(vals[:, 0] - (0.8 * math.sqrt(math.pi / 2.0)) ** dim) <= errs)

    @pytest.mark.parametrize("kern, square", [
        (tent_kernel(), 2.0 / 3.0),
        (gaussian_kernel(1, 0.8), 0.8 * math.sqrt(math.pi / 2.0)),
    ], ids=["tent", "gaussian"])
    def test_one_dimensional_profile_is_one_pass_in_the_radius(self, monkeypatch, kern, square):
        # 2 integral_0^reach g(phi(r)) dr; the tent's knot 0 is its center, radius 0
        vals, errs, corners = self.boxes(
            monkeypatch, kern, lambda fv, _: fv.T ** 2, np.zeros((2, 1, 1)))
        np.testing.assert_array_equal(np.unique(corners), [0.0, kern.profile.reach])
        assert np.all(np.abs(vals[:, 0] - square) <= errs)

    def test_radial_pass_grades_a_soft_reach(self, monkeypatch):
        """The tent's phi ends at 0 on its reach: under a stable part the
        single-point pass grades the piece toward it, and the integral of
        f**0.7 agrees with 2 / 1.7."""
        graded, grade = [], kernels._graded
        monkeypatch.setattr(kernels, "_graded", lambda *a: graded.append(a) or grade(*a))
        vals, errs = integrate_over_support(
            tent_kernel(), lambda fv, _: fv.T ** 0.7, np.zeros((1, 1, 1)), [(0.7, 1.0)])
        (edges, soft), = graded
        assert soft.tolist() == [[False, True]]
        assert abs(vals[0, 0] - 2.0 / 1.7) <= errs[0] + 1e-15

    @pytest.mark.parametrize("make", [
        tent_kernel, lambda: gaussian_kernel(1, 0.8), lambda: gaussian_kernel(2, 0.8),
        lambda: powerlaw_kernel(3.0, 0.5),
    ], ids=["tent", "gaussian", "gaussian-2d", "powerlaw"])
    def test_profile_radius_inverts_phi(self, make):
        prof = make().profile
        y = np.linspace(0.01, 0.99, 99)
        assert prof.peak == 1.0
        np.testing.assert_allclose(prof.phi(prof.radius(y)), y, rtol=1e-13)

    def test_levels_cut_the_line_where_a_shifted_kernel_crosses_them(self, monkeypatch):
        # the tent's shifts 0.4 and 0 overlap on [-0.6, 1]; f(t - x) crosses
        # level y at x = t +- (1 - y), and level 2 lies above the peak
        integrand = lambda fv, _: (fv[0] * fv[1])[:, None]
        shifts = np.array([[[0.4], [0.0]]])
        vals, errs, corners = self.boxes(monkeypatch, tent_kernel(), integrand, shifts,
                                         levels=[[0.25, 0.5, 2.0]])
        np.testing.assert_allclose(
            np.unique(corners), [-0.6, -0.5, -0.35, -0.1, 0.0, 0.4, 0.5, 0.75, 0.9, 1.0],
            rtol=0.0, atol=1e-15)
        plain, plain_err = integrate_over_support(tent_kernel(), integrand, shifts)
        assert abs(vals[0, 0] - plain[0, 0]) <= errs[0] + plain_err[0]

    def test_levels_cut_a_radial_pass_at_their_radii(self, monkeypatch):
        # the 2-D Gaussian exp(-|x/w|^2) falls through y at w sqrt(ln 1/y)
        w = 0.8
        vals, errs, corners = self.boxes(
            monkeypatch, gaussian_kernel(2, w), lambda fv, _: fv.T ** 2, np.zeros((1, 1, 2)),
            levels=[[0.5, 0.1, 1.5]])
        np.testing.assert_allclose(
            np.unique(corners),
            [0.0, w * math.sqrt(math.log(2.0)), w * math.sqrt(math.log(10.0)), 8.5 * w],
            rtol=1e-15)
        assert abs(vals[0, 0] - math.pi * w * w / 2.0) <= errs[0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("lag", [0.0, 0.7, 1.3])
    def test_soft_face_integrand_matches_quad(self, monkeypatch, alpha, lag):
        """Every face of a tent overlap is soft, and (f(t-x) f(-x))**(alpha/2)
        behaves like (x - a)**(alpha/2) there: the graded pass agrees with
        scipy quad within the summed stated errors."""
        graded, grade = [], kernels._graded
        monkeypatch.setattr(kernels, "_graded", lambda *a: graded.append(a) or grade(*a))
        k = tent_kernel()
        vals, errs = integrate_over_support(
            k, lambda fv, _: (fv[0] * fv[1])[:, None] ** (alpha / 2.0),
            np.array([[[lag], [0.0]]]), [(alpha, 1.0)])
        assert len(graded) == 1 and graded[0][1].all()
        ref, ref_err = quad(lambda x: (at(k, lag - x) * at(k, -x)) ** (alpha / 2.0),
                            lag - 1.0, 1.0, points=[p for p in (0.0, lag) if lag - 1.0 < p < 1.0],
                            epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(vals[0, 0] - ref) <= errs[0] + ref_err

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_step_profile_makes_no_engine_pass(self, monkeypatch, dim):
        """The box is a step profile: each single-point integral is g(1) |B|,
        with error 0 and no integrate_box call."""
        calls = count_engine_passes(monkeypatch)
        k = box_kernel(-0.5, 1.0, dim=dim)
        s = np.array([0.5, 2.0, 7.0])
        vals, errs = integrate_over_support(
            k, lambda fv, p: 1.0 - np.cos(fv.T * s[p, None]), np.zeros((3, 1, dim)))
        np.testing.assert_array_equal(vals[:, 0], (1.0 - np.cos(s)) * 1.5 ** dim)
        assert kernels._lp_power_integral(k, 2.5) == (1.5 ** dim, 0.0)
        report = check_integrability(k, poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)))
        assert report.all_finite
        assert calls == [] and not errs.any()


def count_engine_passes(monkeypatch) -> list:
    """The corner sets passed to the engine from now on, with the norm cache
    emptied."""
    calls = []
    engine = kernels.integrate_box

    def counted(func, corners, **kwargs):
        calls.append(corners)
        return engine(func, corners, **kwargs)

    monkeypatch.setattr(kernels, "integrate_box", counted)
    kernels._lp_power_integral.cache_clear()
    return calls


def stable_clip(alpha, scale=None):
    """clipped_second_moment(1) of a stable measure, calibrated unless scaled."""
    scale = 1.0 / stable_re_constant(alpha) if scale is None else scale
    return 2.0 * scale * (1.0 / alpha + 1.0 / (2.0 - alpha))


class TestIntegrability:
    def test_stable_powerlaw_pair(self):
        # the long-tail pair: field exists even though dependence is long
        report = check_integrability(powerlaw_kernel(1.5), stable_triplet(1.0))
        assert report.all_finite
        by_key = {c.key: c for c in report.conditions}
        assert by_key["drift"].value == 0.0
        assert by_key["gaussian"].value == 0.0
        assert by_key["jumps"].value == pytest.approx((4.0 / math.pi) * 6.0, rel=1e-9)

    def test_gaussian_box_pair(self):
        report = check_integrability(box_kernel(0.0, 1.0), gaussian_triplet(2.0))
        assert report.all_finite
        by_key = {c.key: c for c in report.conditions}
        assert by_key["gaussian"].value == pytest.approx(2.0, rel=1e-12)
        assert by_key["jumps"].value == 0.0

    def test_poisson_drift_step_oracle(self):
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        report = check_integrability(powerlaw_kernel(1.5), trip)
        assert report.all_finite
        by_key = {c.key: c for c in report.conditions}
        assert by_key["drift"].value == pytest.approx(5.079683366298239, rel=1e-6)

    def test_drift_locked_shift_matches_quad(self):
        # a0 = -shift(0) cancels the drift's limit, so the integrand
        # |f| |a0 + shift(f)| vanishes wherever |f| is below the lock radius
        trip0 = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        a0 = -truncated_mean_shift(trip0, 0.0)
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4), a0=a0)
        kern = powerlaw_kernel(1.5)
        report = check_integrability(kern, trip)
        drift = {c.key: c for c in report.conditions}["drift"]
        assert drift.finite is True

        def integrand(x):
            v = at(kern, x)
            return v * abs(a0 + truncated_mean_shift(trip, v))

        half, _ = quad(integrand, 0.0, 3.0, points=[1.0, 2.0 ** (2.0 / 3.0)],
                       epsabs=1e-13, epsrel=1e-12)
        assert drift.value == pytest.approx(2.0 * half, rel=1e-9)
        assert drift.value > 0.0

    def test_locked_drift_jumps_are_cut_for_every_atom(self):
        """The locked drift density |f| |a0 + shift(f)| jumps where f = 1/a.
        Cut at that level, 41 atoms a in [1.2, 4] agree with scipy quad,
        which has the jump as its end point, within the summed errors."""
        kern = powerlaw_kernel(1.5)
        for a in np.linspace(1.2, 4.0, 41):
            a0 = -truncated_mean_shift(poisson_triplet(2.0, atoms=(-0.5, a),
                                                       weights=(0.6, 0.4)), 0.0)
            trip = poisson_triplet(2.0, atoms=(-0.5, a), weights=(0.6, 0.4), a0=a0)
            drift = {c.key: c for c in check_integrability(kern, trip).conditions}["drift"]
            density = lambda x: at(kern, x) * abs(a0 + truncated_mean_shift(trip, at(kern, x)))
            half, half_err = quad(density, 0.0, a ** (1.0 / 1.5), points=[1.0],
                                  epsabs=1e-14, epsrel=1e-13)
            assert abs(drift.value - 2.0 * half) <= drift.error + 2.0 * half_err, a

    def test_drift_jump_in_the_radius_is_cut(self):
        """On the 2-D Gaussian the drift density 1.6 f 1[f < 1/2] of the
        Poisson atoms -0.5, 2 integrates to pi w**2 int_0^(1/2) 1.6 dy = 0.8 pi;
        the radial pass is cut where f = 1/2."""
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        report = check_integrability(gaussian_kernel(dim=2), trip)
        drift = {c.key: c for c in report.conditions}["drift"]
        assert abs(drift.value - 0.8 * math.pi) <= drift.error < 1e-11

    def test_truncation_levels_cut_the_tent_in_the_radius(self, monkeypatch):
        """Atom 2 enters the truncation where f = 1/2, at radius 1/2, and
        atom -0.5 where f = 2, above the peak.  The clipped moment
        2 (0.6 int (f/2)**2 + 0.4 int min(1, (2 f)**2)) is 19/15."""
        calls = count_engine_passes(monkeypatch)
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4), a0=0.5)
        report = check_integrability(tent_kernel(), trip)
        assert [np.unique(c).tolist() for c in calls] == [[0.0, 0.5, 1.0]] * 2
        jumps = {c.key: c for c in report.conditions}["jumps"]
        assert abs(jumps.value - 19.0 / 15.0) <= jumps.error + 1e-15

    def test_drift_divergence_flagged(self):
        trip = stable_triplet(1.0, a0=1.0)
        report = check_integrability(powerlaw_kernel(0.8), trip)
        by_key = {c.key: c for c in report.conditions}
        assert by_key["drift"].finite is False
        assert not report.all_finite

    def test_gaussian_divergence_flagged(self):
        report = check_integrability(powerlaw_kernel(0.4), gaussian_triplet(1.0))
        by_key = {c.key: c for c in report.conditions}
        assert by_key["gaussian"].finite is False

    def test_jump_divergence_flagged(self):
        # alpha * beta = 0.5*1.5 <= 1: the clipped moment does not integrate
        report = check_integrability(powerlaw_kernel(1.5), stable_triplet(0.5))
        by_key = {c.key: c for c in report.conditions}
        assert by_key["jumps"].finite is False

    def test_poisson_box_drift_zero(self):
        trip = poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
        report = check_integrability(box_kernel(0.0, 1.0), trip)
        by_key = {c.key: c for c in report.conditions}
        # on the box f = 1 and the shift at v=1 vanishes for these atoms
        assert by_key["drift"].value == pytest.approx(0.0, abs=1e-12)
        assert report.all_finite

    @pytest.mark.parametrize("kernel,trip,drift,gaussian,jumps", [
        (powerlaw_kernel(1.5), stable_triplet(1.0), 0.0, 0.0, (4.0 / math.pi) * 6.0),
        # integral |f|**p of the power law is 2 p beta / (p beta - 1)
        (powerlaw_kernel(3.0), stable_triplet(1.2, a0=0.3), 0.3 * 3.0, 0.0,
         stable_clip(1.2) * 2.0 * 3.6 / 2.6),
        (powerlaw_kernel(0.8), stable_triplet(1.5), 0.0, 0.0, stable_clip(1.5) * 12.0),
        (box_kernel(), stable_triplet(0.7, a0=-2.0), 2.0, 0.0, stable_clip(0.7)),
        (tent_kernel(2.0), stable_triplet(1.5, scale=2.5), 0.0, 0.0,
         stable_clip(1.5, 2.5) * 4.0 / 2.5),
        (tent_kernel(), gaussian_triplet(1.0, a0=0.5), 0.5, 2.0 / 3.0, 0.0),
        (gaussian_kernel(dim=2), stable_triplet(0.8), 0.0, 0.0, stable_clip(0.8) * math.pi / 0.8),
        (box_kernel(dim=2), LevyTriplet(a0=1.0, b0=1.0, measure=calibrated_stable(1.5)),
         1.0, 1.0, stable_clip(1.5)),
    ], ids=["powerlaw1.5-stable1", "powerlaw3-drift-stable1.2", "powerlaw0.8-stable1.5",
            "box-drift-stable0.7", "tent-scaled-stable1.5", "tent-drift-gaussian",
            "gauss2d-stable0.8", "box2d-drift-gaussian-stable1.5"])
    def test_power_term_pairs_in_closed_form(self, monkeypatch, kernel, trip, drift, gaussian,
                                             jumps):
        """No jumps or stable jumps: |a0| ||f||_1, b0 ||f||_2^2 and
        clipped_second_moment(1) ||f||_alpha^alpha from the closed norms,
        with no engine pass."""
        calls = count_engine_passes(monkeypatch)
        report = check_integrability(kernel, trip)
        assert calls == []
        assert report.all_finite
        values = [c.value for c in report.conditions]
        np.testing.assert_allclose(values, [drift, gaussian, jumps], rtol=1e-12, atol=0.0)

    def test_power_term_divergence_without_engine_passes(self, monkeypatch):
        calls = count_engine_passes(monkeypatch)
        report = check_integrability(powerlaw_kernel(0.8), stable_triplet(1.0, a0=1.0))
        assert [c.finite for c in report.conditions] == [False, True, False]
        assert all("diverges" in c.note for c in report.conditions if not c.finite)
        # a zero drift needs no norm, so an L^1-divergent kernel is fine there
        report = check_integrability(powerlaw_kernel(0.8), stable_triplet(1.5))
        assert report.all_finite
        assert calls == []

    @pytest.mark.parametrize("trip", [
        poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
        LevyTriplet(measure=TabulatedMeasure((0.5, 1.0, 2.0), (1.0, 2.0, 1.0))),
    ], ids=["poisson", "table"])
    def test_finite_jump_measures_integrate_over_the_support(self, monkeypatch, trip):
        calls = count_engine_passes(monkeypatch)
        report = check_integrability(tent_kernel(), trip)
        assert report.all_finite
        assert len(calls) == 2

    def test_report_conditions(self):
        report = check_integrability(box_kernel(), gaussian_triplet())
        assert [c.key for c in report.conditions] == ["drift", "gaussian", "jumps"]
        assert all(c.finite is True for c in report.conditions)
