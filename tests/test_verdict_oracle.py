"""Verdicts with a known answer, at the default window.

Under a power law f(x) = min(1, |x|**-beta) and symmetric alpha-stable
jumps the dependence ratio at lag t decays like |t|**(-alpha beta / 2),
so the field is short-range dependent exactly when alpha beta / 2 > 1.
Bounded and Gaussian kernels in 2-D give short-range dependence for every
alpha.  Each row also passes the closed-norm integrability check.

With a Gaussian part b0 = 1 beside the stable jumps, small kernel values
see |v|**alpha, and the same inequality decides.  One row of each outcome
runs here: a pair that fails it is never certified (soundness), one that
meets it certifies (completeness), or it is a strict xfail that names what
mends it.
"""

import pytest

from srdcert.certify import certify
from srdcert.kernels import box_kernel, gaussian_kernel, powerlaw_kernel
from srdcert.levy import LevyTriplet, calibrated_stable, stable_triplet

POWERLAW_ROWS = [(beta, alpha) for beta in (1.5, 2.0, 3.0) for alpha in (0.8, 1.2, 1.5)]


@pytest.mark.parametrize("beta,alpha", POWERLAW_ROWS,
                         ids=[f"beta{b:g}-alpha{a:g}" for b, a in POWERLAW_ROWS])
def test_powerlaw_stable_certified_exactly_when_alpha_beta_over_two_exceeds_one(beta, alpha):
    rep = certify(powerlaw_kernel(beta), stable_triplet(alpha))
    assert rep.integrability.all_finite
    assert rep.certified == (alpha * beta / 2.0 > 1.0), rep.reasons


@pytest.mark.parametrize("kernel", [box_kernel(dim=2), gaussian_kernel(dim=2)],
                         ids=["box2d", "gaussian2d"])
@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_2d_stable_certified(kernel, alpha):
    rep = certify(kernel, stable_triplet(alpha))
    assert rep.integrability.all_finite
    assert rep.certified, rep.reasons


@pytest.mark.parametrize("beta,alpha", [
    (1.5, 0.8),
    (3.0, 1.5),
    pytest.param(2.0, 1.2, marks=pytest.mark.xfail(strict=True, reason=(
        "the fitted SRD tail reads 70.1, beyond the 5 % cap; sound SRD tails"
        " are ROADMAP item 9"))),
], ids=["beta1.5-alpha0.8", "beta3-alpha1.5", "beta2-alpha1.2"])
def test_powerlaw_gaussian_stable_certified_exactly_when_alpha_beta_over_two_exceeds_one(
        beta, alpha):
    rep = certify(powerlaw_kernel(beta), LevyTriplet(b0=1.0, measure=calibrated_stable(alpha)))
    assert rep.integrability.all_finite
    assert rep.certified == (alpha * beta / 2.0 > 1.0), rep.reasons
