"""Acceptance gate: seven end-to-end criteria, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines;
each criterion is a single test so the pytest verdict line doubles as the
pass/fail record.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from srdcert import kernels, levy, simulate as S
from srdcert.certify import frequency_integral
from srdcert.cli import main
from srdcert.spectral import (
    build_profile,
    char_marginal,
    marginal_exponent_sq,
    max_dependence_ratio,
)

from reference import dependence_ratio_grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_acceptance_1_stable_spectral_identity():
    """Calibrated stable + unit box: marginal exponent equals |s|^alpha."""
    box = kernels.box_kernel()
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        tri = levy.stable_triplet(alpha)
        for s in (0.1, 1.0, 10.0):
            got = marginal_exponent_sq(box, tri, s)
            want = s ** alpha
            worst = max(worst, abs(got - want) / want)
            assert abs(got - want) <= 1e-4 * want
    print(f"\n[PASS] 1 stable spectral identity: max relative deviation"
          f" {worst:.3e} <= 1e-4")


def test_acceptance_2_ratio_constancy_and_tent_shape():
    """Stable/box dependence ratio: frequency-free, tent-shaped in the lag."""
    box = kernels.box_kernel()
    tri = levy.stable_triplet(1.0)
    s_grid = np.logspace(-2.0, 2.0, 9)
    worst_spread = 0.0
    worst_shape = 0.0
    for t in (0.0, 0.25, 0.5, 0.9, 1.5):
        grid, _ = dependence_ratio_grid(box, tri, (t,), s_grid, s_grid)
        spread = float(grid.max() - grid.min())
        worst_spread = max(worst_spread, spread)
        assert spread <= 1e-8
        ratio = max_dependence_ratio(box, tri, (t,))
        want = max(0.0, 1.0 - abs(t))
        worst_shape = max(worst_shape, abs(ratio.value - want))
        assert abs(ratio.value - want) <= 1e-4
    print(f"\n[PASS] 2 ratio constancy and tent shape: max grid spread"
          f" {worst_spread:.3e} <= 1e-8, max shape deviation"
          f" {worst_shape:.3e} <= 1e-4")


def test_acceptance_3_frequency_integral_closed_forms():
    """Threshold 0.5: stable alpha=1 gives sqrt(2 pi), Gaussian gives half."""
    box = kernels.box_kernel()
    prof_s = build_profile(box, levy.stable_triplet(1.0),
                           window=3.0, t_step=0.025)
    est_s = frequency_integral(prof_s, 0.5)
    dev_s = abs(est_s.value - math.sqrt(2 * math.pi)) / math.sqrt(2 * math.pi)
    assert dev_s <= 1e-4
    prof_g = build_profile(box, levy.gaussian_triplet(1.0),
                           window=3.0, t_step=0.025)
    est_g = frequency_integral(prof_g, 0.5)
    target_g = 0.5 * math.sqrt(2 * math.pi)
    dev_g = abs(est_g.value - target_g) / target_g
    assert dev_g <= 1e-4
    print(f"\n[PASS] 3 frequency integral closed forms: stable deviation"
          f" {dev_s:.3e}, gaussian deviation {dev_g:.3e} (both <= 1e-4 rel)")


def test_acceptance_4_end_to_end_certification(tmp_path):
    """Example config certifies; slow-decay counter-config is flagged."""
    out_ok = tmp_path / "ok"
    code_ok = main(["certify", str(CONFIG_DIR / "example.cfg"),
                    "--output", str(out_ok)])
    assert code_ok == 0
    with open(out_ok / "certificate.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["verdict"] == "certified-SRD"

    out_bad = tmp_path / "bad"
    code_bad = main(["certify", str(CONFIG_DIR / "counter.cfg"),
                     "--output", str(out_bad)])
    assert code_bad == 2
    with open(out_bad / "certificate.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["verdict"] == "inconclusive"
    assert row["srd_divergent"] == "1"
    print("\n[PASS] 4 end-to-end certification: example config exits 0"
          " certified-SRD, counter config exits 2 with divergent lag integral")


def test_acceptance_5_inequality_suites():
    """Cumulant inequalities at 1e5 pairs; factorization gap at 1e3 triples."""
    total_pairs = 0
    for tri in levy.default_validation_triplets():
        rep = levy.check_negdef_inequalities(tri, n_samples=100_000, seed=7)
        total_pairs += rep.n_samples
        assert rep.passed, f"{tri.name}: {rep.violations}"
    scenarios = [
        (kernels.box_kernel(), levy.stable_triplet(1.0)),
        (kernels.box_kernel(), levy.gaussian_triplet(1.0)),
        (kernels.tent_kernel(),
         levy.poisson_triplet(2.0, atoms=(-0.5, 2.0), weights=(0.6, 0.4))),
    ]
    total_triples = 0
    for kern, tri in scenarios:
        rep = S.factorization_check(kern, tri, n_triples=1000, seed=7,
                                    tol=1e-8)
        total_triples += rep.n_triples
        assert rep.violations == 0, f"{kern.name}/{tri.name}"
    print(f"\n[PASS] 5 inequality suites: {total_pairs} cumulant pairs at"
          f" 1e-9 and {total_triples} factorization triples at 1e-8,"
          " zero violations")


def test_acceptance_6_simulation_fidelity():
    """Empirical characteristic function and independent-lag covariance."""
    box = kernels.box_kernel()
    n = 100_000
    cfg = S.SimConfig(n_samples=n, lattice_step=0.125, seed=11)
    s_grid = np.array([-5.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 5.0])
    tol = 4.0 / math.sqrt(n)
    worst = 0.0
    for tri in (levy.gaussian_triplet(1.0), levy.stable_triplet(1.0),
                levy.poisson_triplet(2.0, atoms=(-0.5, 2.0),
                                     weights=(0.6, 0.4))):
        smp = S.sample_field(box, tri, [(0.0,)], cfg)
        phi, _ = S.empirical_char(smp.values, s_grid)
        target = np.array([char_marginal(box, tri, float(s)) for s in s_grid])
        dev = float(np.abs(phi - target).max())
        worst = max(worst, dev)
        assert dev < tol, tri.name
    smp = S.sample_field(box, levy.stable_triplet(1.0), [(0.0,), (2.0,)], cfg)
    ind_cov, _ = S.probe_smoothed_cov(smp.column(0), smp.column(1),
                                      S.point_mass(0.0), signed=True)
    assert abs(ind_cov) < 3.0 / math.sqrt(n)
    print(f"\n[PASS] 6 simulation fidelity: max characteristic deviation"
          f" {worst:.4f} < {tol:.4f}, independent-lag covariance"
          f" {abs(ind_cov):.5f} < {3.0 / math.sqrt(n):.5f}")


def test_acceptance_7_covariance_bound():
    """Smoothed indicator covariance stays under the analytic constant."""
    box = kernels.box_kernel()
    tri = levy.stable_triplet(1.0)
    prof = build_profile(box, tri, window=3.0, t_step=0.025)
    cfg = S.SimConfig(n_samples=100_000, lattice_step=0.1, seed=42)
    probes = (S.point_mass(0.0), S.finite_discrete((-1.0, 0.0, 2.0)),
              S.gaussian_quantiles(512))
    checked = 0
    for t in (0.6, 0.8):
        smp = S.sample_field(box, tri, [(0.0,), (t,)], cfg)
        for probe in probes:
            rep = S.covariance_bound_check(prof, (t,), probe, 0.5, cfg,
                                           sample=smp)
            assert rep.passed, f"t={t} {probe.name}: lhs {rep.lhs}" \
                               f" rhs {rep.rhs} se {rep.se}"
            assert rep.lhs <= rep.rhs + 3.0 * rep.se
            checked += 1
    print(f"\n[PASS] 7 covariance bound: {checked} lag/probe combinations"
          " under the analytic constant plus 3 standard errors")
