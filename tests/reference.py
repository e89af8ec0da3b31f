"""Reference helpers shared by the tests; not part of the package."""

import numpy as np

from srdcert.spectral import _clamp_ratio, _sigma, dependence_numerator_grid


def dependence_ratio_grid(kernel, triplet, t, s1_values, s2_values):
    """The normalised dependence ratio on a frequency product grid, clamped
    to [0, 1], and the numerator grid's error."""
    s1_values = np.asarray(s1_values, dtype=float)
    s2_values = np.asarray(s2_values, dtype=float)
    num, err = dependence_numerator_grid(kernel, triplet, t, s1_values, s2_values)
    sig = _sigma(kernel, triplet, np.concatenate((s1_values, s2_values)))
    return _clamp_ratio(num / np.outer(sig[:len(s1_values)], sig[len(s1_values):])), err
