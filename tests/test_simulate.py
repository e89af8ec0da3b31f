"""Lattice sampler and Monte Carlo bound checks."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from srdcert import kernels, levy, quadrature, simulate as S
from srdcert.cli import main
from srdcert.errors import RejectionError
from srdcert.spectral import build_profile, char_marginal

import reference

S_GRID = np.array([-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0])


@pytest.fixture(scope="module")
def box():
    return kernels.box_kernel()


# ---------------------------------------------------------------------------
# probe measures


def test_probe_measure_factories():
    pm = S.point_mass(1.5)
    assert pm.points == (1.5,) and pm.weights == (1.0,)
    fd = S.finite_discrete((2.0, -1.0, 0.0))
    assert fd.points == (-1.0, 0.0, 2.0)
    assert sum(fd.weights) == pytest.approx(1.0)
    gq = S.gaussian_quantiles(512)
    assert len(gq.points) == 512
    assert gq.points[0] == -gq.points[-1]
    assert abs(sum(p * w for p, w in zip(gq.points, gq.weights))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 512, 4096])
def test_gaussian_quantiles_match_scipy_ndtri(n):
    from scipy.special import ndtri  # reference only
    expect = ndtri((np.arange(n) + 0.5) / n)
    np.testing.assert_allclose(S.gaussian_quantiles(n).points, expect, rtol=0.0, atol=3e-15)


def test_probe_measure_char_bounded():
    s = np.linspace(-20.0, 20.0, 101)
    for probe in (S.point_mass(0.3), S.finite_discrete((-1.0, 0.5, 2.0)),
                  S.gaussian_quantiles(64)):
        vals = probe.char(s)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert probe.char(np.array([0.0]))[0] == pytest.approx(1.0)


def test_probe_measure_validation():
    with pytest.raises(RejectionError):
        S.ProbeMeasure((), ())
    with pytest.raises(RejectionError):
        S.ProbeMeasure((0.0,), (-1.0,))
    with pytest.raises(RejectionError):
        S.ProbeMeasure((0.0, 1.0), (0.7, 0.7))
    with pytest.raises(RejectionError):
        S.gaussian_quantiles(0)


def test_sim_config_validation():
    with pytest.raises(RejectionError):
        S.SimConfig(n_samples=0, lattice_step=0.1)
    with pytest.raises(RejectionError):
        S.SimConfig(n_samples=10, lattice_step=0.0)
    with pytest.raises(RejectionError):
        S.SimConfig(n_samples=10, lattice_step=0.1, seed=-1)


# ---------------------------------------------------------------------------
# sampler mechanics


def test_sample_rejects_tabulated(box):
    table = levy.LevyTriplet(measure=levy.TabulatedMeasure(
        (0.5, 1.0, 2.0), (1.0, 0.5, 0.25)))
    with pytest.raises(RejectionError) as exc:
        S.sample_field(box, table, [(0.0,)],
                       S.SimConfig(n_samples=10, lattice_step=0.5))
    assert exc.value.condition == "unsupported-measure"


def test_sample_reproducible(box):
    cfg = S.SimConfig(n_samples=256, lattice_step=0.25, seed=9)
    tri = levy.stable_triplet(1.5)
    a = S.sample_field(box, tri, [(0.0,), (0.5,)], cfg)
    b = S.sample_field(box, tri, [(0.0,), (0.5,)], cfg)
    assert np.array_equal(a.values, b.values)
    c = S.sample_field(box, tri, [(0.0,), (0.5,)],
                       S.SimConfig(n_samples=256, lattice_step=0.25, seed=10))
    assert not np.array_equal(a.values, c.values)


def test_sample_prefix_stable_across_chunks(box):
    """Sample i is identical no matter how many samples follow it, drawn
    cell by cell or, for a purely Gaussian field, lag by lag."""
    for kern, tri in ((box, levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))),
                      (kernels.powerlaw_kernel(3.0), levy.LevyTriplet(a0=0.3, b0=1.0))):
        big = S.sample_field(kern, tri, [(0.0,), (0.5,)],
                             S.SimConfig(n_samples=1500, lattice_step=0.25, seed=3))
        small = S.sample_field(kern, tri, [(0.0,), (0.5,)],
                               S.SimConfig(n_samples=700, lattice_step=0.25, seed=3))
        assert np.array_equal(big.values[:700], small.values)


def test_large_lattice_chunks_are_capped_and_prefix_stable():
    """Power law beta = 3 + b0 = 1 + Poisson on 8 002 cells: a chunk has
    2**20 // 8002 = 131 rows, so sample i still does not depend on
    n_samples, the reference sampler (same rule) agrees bit for bit, and
    the draw stays in bounded memory (measured 25 MB; 1024-row chunks
    held 251 MB at 100 samples)."""
    kern = kernels.powerlaw_kernel(3.0)
    tri = levy.poisson_triplet(1.0, atoms=(1.0,), b0=1.0)
    lags = [(0.0,), (0.5,)]
    small = S.sample_field(kern, tri, lags, S.SimConfig(n_samples=140, lattice_step=0.25))
    tracemalloc.start()
    try:
        big = S.sample_field(kern, tri, lags, S.SimConfig(n_samples=300, lattice_step=0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert big.n_cells == 8002 > S._CHUNK_ELEMENTS // S.CHUNK
    assert np.array_equal(big.values[:140], small.values)
    ref = reference.sample_field(kern, tri, lags, big.config)
    assert big.values.tobytes() == ref.values.tobytes()
    assert peak < 40 * 2 ** 20


def test_lattice_cell_cap():
    slow = kernels.powerlaw_kernel(1.5, 1.0)
    with pytest.raises(RejectionError) as exc:
        S.sample_field(slow, levy.gaussian_triplet(1.0), [(0.0,)],
                       S.SimConfig(n_samples=10, lattice_step=0.01))
    assert exc.value.condition == "lattice-too-large"


def test_drift_only_field_is_deterministic(box):
    tri = levy.LevyTriplet(a0=0.7, name="drift-only")
    cfg = S.SimConfig(n_samples=50, lattice_step=0.125, seed=0)
    smp = S.sample_field(box, tri, [(0.0,)], cfg)
    assert np.allclose(smp.values, 0.7, atol=1e-12)


# integrators with jumps, each sampled cell by cell; a single Poisson atom
# inside [-1, 1] is compensated, like the -0.5 of the two-atom measure
JUMP_TRIPLETS = {
    "stable-1": levy.stable_triplet(1.0),
    "stable-1.5": levy.stable_triplet(1.5),
    "gauss+stable-1": levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)),
    "poisson-1-atom": levy.poisson_triplet(2.0, atoms=(0.5,)),
    "poisson-2-atoms": levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
}


@pytest.mark.parametrize("a0", [0.0, 0.7])
@pytest.mark.parametrize("kern", ["box", "powerlaw"])
@pytest.mark.parametrize("name", sorted(JUMP_TRIPLETS))
def test_cell_sampler_matches_reference(name, kern, a0):
    """Bit for bit the reference sampler, which builds each chunk's stream
    afresh, fills and adds, and draws and applies the stable exponential
    also at alpha = 1.  1100 samples span a full and a partial chunk; the
    power law (beta = 6) is truncated to 132 cells."""
    tri = dataclasses.replace(JUMP_TRIPLETS[name], a0=a0)
    kernel = kernels.box_kernel() if kern == "box" else kernels.powerlaw_kernel(6.0)
    cfg = S.SimConfig(n_samples=1100, lattice_step=0.5, seed=19)
    lags = [(0.0,), (0.6,), (2.5,)]
    got = S.sample_field(kernel, tri, lags, cfg)
    ref = reference.sample_field(kernel, tri, lags, cfg)
    assert got.n_cells == ref.n_cells == (7 if kern == "box" else 132)
    assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("kern,step,lags", [
    ("powerlaw", 0.25, [(0.0,), (0.5,), (2.0,)]),
    # a repeated lag: W^T W is singular, where a Cholesky factor fails
    ("box", 0.125, [(0.0,), (0.5,), (0.5,)]),
    # one cell for three lags: W^T W has rank 1, and R is 1 x 3
    ("box", 2.0, [(0.0,), (0.3,), (0.6,)]),
], ids=["powerlaw", "repeated-lag", "one-cell"])
def test_gaussian_lag_factor_has_lattice_gram(kern, step, lags):
    """A purely Gaussian field is Z F + drift, Z the first chunk's standard
    normals; F, solved from the samples, has F^T F = b0 h W^T W, the
    lattice covariance, within 1e-12 relative."""
    kernel = kernels.box_kernel() if kern == "box" else kernels.powerlaw_kernel(3.0)
    tri = levy.LevyTriplet(a0=0.3, b0=2.0)
    cfg = S.SimConfig(n_samples=S.CHUNK, lattice_step=step, seed=4)
    smp = S.sample_field(kernel, tri, lags, cfg)
    w, vol = reference.lattice_weights(kernel, lags, step)
    drift = tri.a0 * vol * w.sum(axis=0)
    z = np.random.Generator(np.random.Philox(key=4)).standard_normal((S.CHUNK, min(w.shape)))
    factor = np.linalg.lstsq(z, smp.values - drift, rcond=None)[0]
    gram = tri.b0 * vol * (w.T @ w)
    assert np.abs(factor.T @ factor - gram).max() <= 1e-12 * np.abs(gram).max()


def test_gaussian_lag_moments():
    """Mean and covariance of the lag values on the envelope lattice are the
    drift and b0 h W^T W, each within 5 standard errors of its estimate."""
    kern = kernels.powerlaw_kernel(3.0)
    tri = levy.LevyTriplet(a0=0.3, b0=2.0)
    lags = [(0.0,), (0.5,), (2.0,)]
    cfg = S.SimConfig(n_samples=100_000, lattice_step=0.25, seed=6)
    vals = S.sample_field(kern, tri, lags, cfg).values
    w, vol = reference.lattice_weights(kern, lags, cfg.lattice_step)
    cov = tri.b0 * vol * (w.T @ w)
    n = cfg.n_samples
    var = np.diag(cov)
    assert np.all(np.abs(vals.mean(axis=0) - tri.a0 * vol * w.sum(axis=0))
                  <= 5.0 * np.sqrt(var / n))
    # a normal sample covariance has variance (S_ii S_jj + S_ij**2) / n
    assert np.all(np.abs(np.cov(vals, rowvar=False) - cov)
                  <= 5.0 * np.sqrt((np.outer(var, var) + cov ** 2) / n))


# ---------------------------------------------------------------------------
# distributional correctness


@pytest.mark.parametrize("triplet", [
    levy.gaussian_triplet(1.0),
    levy.stable_triplet(1.0),
    levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
    levy.LevyTriplet(a0=0.7, b0=0.5, name="drifted"),
], ids=lambda t: t.name)
def test_empirical_char_matches_quadrature(box, triplet):
    cfg = S.SimConfig(n_samples=60_000, lattice_step=0.125, seed=11)
    smp = S.sample_field(box, triplet, [(0.0,)], cfg)
    phi, _ = S.empirical_char(smp.values, S_GRID)
    target = np.array([char_marginal(box, triplet, float(s)) for s in S_GRID])
    assert np.abs(phi - target).max() < 4.0 / math.sqrt(cfg.n_samples)


def test_standard_stable_sampler_char():
    rng = np.random.Generator(np.random.Philox(key=17))
    n = 200_000
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=n)
    e = rng.standard_exponential(size=n)
    for alpha in (0.7, 1.0, 1.6):
        x = S._standard_symmetric_stable(u, e, alpha)
        phi, _ = S.empirical_char(x, S_GRID)
        target = np.exp(-np.abs(S_GRID) ** alpha)
        assert np.abs(phi - target).max() < 4.0 / math.sqrt(n)


def test_standard_stable_alpha_one_is_tangent():
    """At alpha = 1 the draws are tan(u) bit for bit, also where cos(u) is
    within 1e-12 of 0, and so are the tilted reference's.  They stay within
    2 ulp of sin(u) / cos(u), the edge points included (measured: 2 ulp,
    with numpy's AVX-512 tangent and with libm's)."""
    rng = np.random.Generator(np.random.Philox(key=23))
    edge = math.pi / 2.0 - np.array([0.0, 1e-16, 1e-14, 1e-13, 1e-12])
    u = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, size=4096),
                        edge, -edge])
    e = np.concatenate([rng.standard_exponential(size=4096),
                        np.zeros(len(edge)), np.full(len(edge), 1e-300)])
    x = S._standard_symmetric_stable(u, e, 1.0)
    assert x.tobytes() == np.tan(u).tobytes()
    assert reference.ulp_distance(x, np.sin(u) / np.cos(u)).max() <= 2
    np.testing.assert_array_equal(x, reference.stable_with_tilt(u, e, 1.0))
    np.testing.assert_array_equal(S._standard_symmetric_stable(u, None, 1.0), x)


def test_example_samples_unchanged_by_alpha_one_shortcut(tmp_path, monkeypatch):
    """The example config (stable alpha = 1) writes the same samples.csv as
    the reference sampler, which draws the exponential and applies the tilt."""
    config = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    assert main(["simulate", str(config), "--output", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(S, "sample_field", reference.sample_field)
    assert main(["simulate", str(config), "--output", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "samples.csv").read_bytes()
            == (tmp_path / "b" / "samples.csv").read_bytes())


def test_gaussian_sample_moments(box):
    tri = levy.LevyTriplet(a0=0.3, b0=2.0, name="gauss-drift")
    cfg = S.SimConfig(n_samples=100_000, lattice_step=0.125, seed=5)
    vals = S.sample_field(box, tri, [(0.0,)], cfg).values[:, 0]
    assert vals.mean() == pytest.approx(0.3, abs=5 * math.sqrt(2.0 / cfg.n_samples))
    assert vals.var() == pytest.approx(2.0, rel=0.03)


def test_refinement_invariance(box):
    """Halving the mesh must not move the empirical law beyond noise."""
    tri = levy.gaussian_triplet(1.0)
    phis = []
    for h in (0.25, 0.125):
        cfg = S.SimConfig(n_samples=40_000, lattice_step=h, seed=20)
        smp = S.sample_field(box, tri, [(0.0,)], cfg)
        phi, _ = S.empirical_char(smp.values, S_GRID)
        phis.append(phi)
    assert np.abs(phis[0] - phis[1]).max() < 8.0 / math.sqrt(40_000)


def test_envelope_kernel_sampling():
    kern = kernels.powerlaw_kernel(3.0, 1.0)
    tri = levy.gaussian_triplet(1.0)
    cfg = S.SimConfig(n_samples=50_000, lattice_step=0.25, seed=13)
    smp = S.sample_field(kern, tri, [(0.0,)], cfg)
    assert smp.n_cells <= S.MAX_CELLS
    phi, _ = S.empirical_char(smp.values, S_GRID)
    target = np.array([char_marginal(kern, tri, float(s)) for s in S_GRID])
    assert np.abs(phi - target).max() < 4.0 / math.sqrt(cfg.n_samples)


def test_envelope_truncation_on_cell_sampler():
    """Power law beta = 3 with a Poisson integrator samples cell by cell on
    the lattice truncated 1e9**(1/3) = 1000 radii from the lag."""
    kern = kernels.powerlaw_kernel(3.0, 1.0)
    tri = levy.poisson_triplet(1.0, atoms=(1.0,))
    cfg = S.SimConfig(n_samples=2048, lattice_step=1.0, seed=13)
    smp = S.sample_field(kern, tri, [(0.0,)], cfg)
    assert smp.n_cells == 2000
    phi, _ = S.empirical_char(smp.values, S_GRID)
    target = np.array([char_marginal(kern, tri, float(s)) for s in S_GRID])
    assert np.abs(phi - target).max() < 4.0 / math.sqrt(cfg.n_samples)


# ---------------------------------------------------------------------------
# empirical characteristic function

# unsorted, with a repeated value, 0 and both signs of each modulus
S_MIXED = np.array([2.0, -0.5, 0.0, 5.0, -2.0, 1.0, 2.0, -5.0, 0.5, -1.0])


@pytest.fixture(scope="module")
def cauchy_values():
    return np.random.Generator(np.random.Philox(key=29)).standard_cauchy(20_000)


def test_empirical_char_matches_complex_mean(cauchy_values):
    phi, se = S.empirical_char(cauchy_values, S_MIXED)
    expect = np.exp(1j * np.multiply.outer(S_MIXED, cauchy_values)).mean(axis=1)
    assert np.abs(phi - expect).max() <= 1e-15
    assert se == math.sqrt(2.0 / len(cauchy_values))


def test_empirical_char_conjugate_symmetry_exact(cauchy_values):
    phi, _ = S.empirical_char(cauchy_values, S_MIXED)
    at = {s: p for s, p in zip(S_MIXED, phi)}
    for s, p in zip(S_MIXED, phi):
        assert at[-s] == np.conj(p)
    assert phi[0] == phi[6]
    assert phi[S_MIXED == 0.0][0] == 1.0


def test_empirical_char_memory_linear_in_samples():
    """10**6 values at 8 frequencies: a few sample-sized arrays of 8 MB,
    far under one frequency-by-sample complex array (128 MB)."""
    values = np.random.Generator(np.random.Philox(key=31)).normal(size=1_000_000)
    tracemalloc.start()
    try:
        S.empirical_char(values, S_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# exceedance covariance


def test_exceedance_cov_matches_bruteforce():
    rng = np.random.Generator(np.random.Philox(key=1))
    x0 = rng.normal(size=500)
    xt = 0.6 * x0 + 0.8 * rng.normal(size=500)
    u = np.array([-1.0, 0.0, 0.5, 1.5])
    v = np.array([-0.5, 0.3, 1.0])
    cov, se, p1, p2 = S.exceedance_cov(x0, xt, u, v)
    for k, uu in enumerate(u):
        assert p1[k] == pytest.approx(np.mean(x0 > uu), abs=1e-12)
        for l, vv in enumerate(v):
            direct = np.mean((x0 > uu) & (xt > vv)) \
                - np.mean(x0 > uu) * np.mean(xt > vv)
            assert cov[k, l] == pytest.approx(direct, abs=1e-12)
    assert np.all(se >= 0.0)


def test_arcsin_orthant_oracle(box):
    """Jointly normal X(0), X(0.5) with correlation 1/2: the median
    indicator covariance is arcsin(1/2)/(2 pi) = 1/12 exactly."""
    cfg = S.SimConfig(n_samples=200_000, lattice_step=0.125, seed=7)
    smp = S.sample_field(box, levy.gaussian_triplet(1.0), [(0.0,), (0.5,)], cfg)
    lhs, se = S.probe_smoothed_cov(smp.column(0), smp.column(1),
                                   S.point_mass(0.0), signed=True)
    assert lhs == pytest.approx(1.0 / 12.0, abs=4 * se)
    assert se < 1e-3


def test_independent_lags_have_zero_cov(box):
    cfg = S.SimConfig(n_samples=100_000, lattice_step=0.125, seed=7)
    smp = S.sample_field(box, levy.stable_triplet(1.0), [(0.0,), (2.0,)], cfg)
    lhs, _ = S.probe_smoothed_cov(smp.column(0), smp.column(1),
                                  S.point_mass(0.0), signed=True)
    assert abs(lhs) < 3.0 / math.sqrt(cfg.n_samples)


def test_probe_smoothed_abs_dominates_signed(box):
    cfg = S.SimConfig(n_samples=20_000, lattice_step=0.25, seed=2)
    smp = S.sample_field(box, levy.gaussian_triplet(1.0), [(0.0,), (0.5,)], cfg)
    probe = S.finite_discrete((-1.0, 0.0, 1.0))
    abs_val, _ = S.probe_smoothed_cov(smp.column(0), smp.column(1), probe)
    signed, _ = S.probe_smoothed_cov(smp.column(0), smp.column(1), probe,
                                     signed=True)
    assert abs_val >= abs(signed) - 1e-15


# ---------------------------------------------------------------------------
# analytic bound checks


@pytest.mark.parametrize("kern,triplet", [
    ("box", levy.gaussian_triplet(1.0)),
    ("box", levy.LevyTriplet(a0=0.7, b0=0.5, name="drifted")),
    ("tent", levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))),
], ids=["gauss", "drifted", "poisson"])
def test_factorization_bound_holds(kern, triplet):
    kernel = kernels.box_kernel() if kern == "box" else kernels.tent_kernel()
    rep = S.factorization_check(kernel, triplet, n_triples=60, seed=5)
    assert rep.passed
    assert rep.violations == 0
    assert rep.max_gap > 0.05


@pytest.mark.parametrize("kernel", [
    kernels.box_kernel(),
    kernels.gaussian_kernel(),
    pytest.param(kernels.gaussian_kernel(dim=2), marks=pytest.mark.xfail(strict=True, reason=(
        "CHANGES.md FOUND: factorization_check draws lags up to 1.5 diameters"
        " of the support box, the 8.5w cut box of the Gaussian kernel, so in"
        " 2-D almost no triple tests anything (max_gap 1.6e-11)"))),
], ids=["box", "gaussian", "gaussian-2d"])
def test_factorization_lags_informative(kernel):
    """Enough triples fall where the kernel is not negligible for the check's
    largest gap to be far from zero."""
    rep = S.factorization_check(kernel, levy.stable_triplet(1.5), n_triples=100, seed=7)
    assert rep.max_gap >= 0.1


def _engine_passes(monkeypatch):
    passes = []
    adaptive = quadrature._adaptive

    def counting(*args):
        passes.append(args)
        return adaptive(*args)

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    return passes


def test_factorization_passes_do_not_grow_with_triples(monkeypatch):
    """All marginal integrals share one pass, all joint integrals another."""
    kern = kernels.tent_kernel()
    tri = levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))
    counts = []
    for n in (10, 200):
        passes = _engine_passes(monkeypatch)
        assert S.factorization_check(kern, tri, n_triples=n, seed=3).passed
        counts.append(len(passes))
        monkeypatch.undo()
    assert counts[0] == counts[1]


# (violations, max_gap) at n_triples=40, seed=11, tol=1e-8, as computed one
# triple at a time before the integrals shared engine passes
FACTORIZATION_REFERENCE = {
    "box_stable": (kernels.box_kernel(), levy.stable_triplet(1.0), 0.09151976240151603),
    "box_gaussian": (kernels.box_kernel(), levy.gaussian_triplet(1.0), 0.20460700086571232),
    "tent_poisson": (kernels.tent_kernel(),
                     levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4)),
                     0.2138791819109195),
}


@pytest.mark.parametrize("case", sorted(FACTORIZATION_REFERENCE))
def test_factorization_matches_reference(case):
    kern, tri, max_gap = FACTORIZATION_REFERENCE[case]
    rep = S.factorization_check(kern, tri, n_triples=40, seed=11, tol=1e-8)
    assert rep.violations == 0 and rep.max_excess == 0.0
    assert rep.max_gap == pytest.approx(max_gap, rel=1e-12)


def test_factorization_3d_box_matches_reference():
    """3-D box + stable(1): every cross cumulant is an integral of a constant
    over the intersection of two cubes.  max_gap at n_triples=20, seed=11, as
    computed from the joint cumulant over the union of the cubes."""
    rep = S.factorization_check(kernels.box_kernel(dim=3), levy.stable_triplet(1.0),
                                n_triples=20, seed=11, tol=1e-8)
    assert rep.violations == 0 and rep.max_excess == 0.0
    assert rep.max_gap == pytest.approx(0.009394168914622802, rel=1e-12)


def test_covariance_bound_check(box):
    tri = levy.stable_triplet(1.0)
    prof = build_profile(box, tri, window=3.0, t_step=0.025)
    cfg = S.SimConfig(n_samples=50_000, lattice_step=0.1, seed=42)
    smp = S.sample_field(box, tri, [(0.0,), (0.8,)], cfg)
    rep = S.covariance_bound_check(prof, (0.8,), S.point_mass(0.0), 0.5, cfg,
                                   sample=smp)
    assert rep.passed
    assert rep.rhs == pytest.approx(0.8 / math.pi, rel=1e-9)
    assert rep.ratio_at_lag == pytest.approx(0.2, abs=1e-9)
    assert rep.lhs < rep.rhs
    assert rep.freq_integral == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)


def test_covariance_bound_rejects_high_dependence_lag(box):
    tri = levy.stable_triplet(1.0)
    prof = build_profile(box, tri, window=3.0, t_step=0.025)
    cfg = S.SimConfig(n_samples=100, lattice_step=0.25, seed=1)
    with pytest.raises(RejectionError) as exc:
        S.covariance_bound_check(prof, (0.2,), S.point_mass(0.0), 0.5, cfg)
    assert exc.value.condition == "lag-outside-low-dependence"


def test_covariance_bound_rejects_lag_on_ratio_upper_bound():
    # the ratio itself is below the threshold, its upper bound is not
    tent = kernels.tent_kernel()
    tri = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0))
    prof = build_profile(tent, tri, window=3.0, t_step=0.2)
    rm = prof.ratio_at((1.0,))
    assert rm.value == pytest.approx(0.39266636, abs=1e-8)
    assert rm.error > 0.0
    cfg = S.SimConfig(n_samples=100, lattice_step=0.25, seed=1)
    with pytest.raises(RejectionError) as exc:
        S.covariance_bound_check(prof, (1.0,), S.point_mass(0.0),
                                 rm.value + rm.error / 2.0, cfg)
    assert exc.value.condition == "lag-outside-low-dependence"
