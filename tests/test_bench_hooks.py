"""The package names the benchmark scripts under ``bench/`` reach into.

``bench/workloads.py`` empties the memo caches before every job,
``bench/run.py`` reads the sigma^2 cache statistics, ``bench/spans.py``
traces the tabulated cumulant and wraps the integrand handed to the
quadrature engine, and the workloads call the sampler, the factorization
check and the ratio search by keyword.
"""

import inspect

from srdcert import kernels, levy, quadrature, simulate, spectral
from srdcert.kernels import box_kernel
from srdcert.levy import stable_triplet


def test_memo_caches_clear_and_report():
    for cached in (spectral._mexp_scalar, spectral._gamma_norm_pow,
                   kernels._lp_power_integral):
        cached.cache_clear()
    info = spectral._mexp_scalar.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_traced_and_called_names_keep_their_shape():
    assert callable(levy._tabulated_jump_cumulant)
    assert next(iter(inspect.signature(quadrature.integrate_box).parameters)) == "func"
    assert "config" in inspect.signature(simulate.sample_field).parameters
    assert "n_triples" in inspect.signature(simulate.factorization_check).parameters
    rm = spectral.max_dependence_ratio(box_kernel(), stable_triplet(1.0), 0.25)
    assert (rm.value, rm.error, rm.method) == (0.75, 0.0, "analytic-homogeneous")
