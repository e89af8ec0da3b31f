"""Reference helpers shared by the tests; not part of the package."""

import csv
import io
import math

import numpy as np

from srdcert import cli, levy, simulate
from srdcert.spectral import _clamp_ratio, _numerators, _sigma


def dependence_numerator_grid(kernel, triplet, t, s1_values, s2_values):
    """integral sqrt(Re K(s1 f(t-x)) Re K(s2 f(-x))) dx on a product grid, one
    lag's ``spectral._numerators`` pass, and the 2-norm error over its
    integrated columns."""
    s1, s2 = (np.asarray(s, dtype=float)[None] for s in (s1_values, s2_values))
    vals, err = _numerators(kernel, triplet, np.atleast_1d(np.asarray(t, dtype=float))[None],
                            s1, s2)
    return vals[0], float(err[0])


def dependence_ratio_grid(kernel, triplet, t, s1_values, s2_values):
    """The normalised dependence ratio on a frequency product grid, clamped
    to [0, 1], and the numerator grid's error."""
    s1_values = np.asarray(s1_values, dtype=float)
    s2_values = np.asarray(s2_values, dtype=float)
    num, err = dependence_numerator_grid(kernel, triplet, t, s1_values, s2_values)
    sig = _sigma(kernel, triplet, np.concatenate((s1_values, s2_values)))
    return _clamp_ratio(num / np.outer(sig[:len(s1_values)], sig[len(s1_values):])), err


def lattice_weights(kernel, lags, step):
    """Kernel weights f(t_i - c) of the sampler's lattice cells c (cells x
    lags), and the cell volume."""
    lag_arr = simulate._as_lag_array(lags, kernel.dim)
    centers, vol = simulate._cell_centers(kernel, lag_arr, step)
    return np.stack([kernel(t - centers) for t in lag_arr], axis=1), vol


def stable_with_tilt(u, e, alpha):
    """Standard symmetric stable variates with the tilt always applied; the
    alpha = 1 core sin(u) / cos(u) is taken as tan(u)."""
    with np.errstate(divide="ignore", over="ignore"):
        core = np.tan(u) if alpha == 1.0 else np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        tilt = (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
    return core * tilt


def sample_field(kernel, triplet, lags, config):
    """The per-cell lattice sampler for every integrator: each chunk's fresh
    ``Philox(key=seed).jumped(chunk)`` stream draws per cell the Gaussian
    part, then the stable uniforms and exponentials (also at alpha = 1) or
    the Poisson counts and their split, into a zero-filled increment array,
    and multiplies the whole array by the weights.  A chunk has ``CHUNK``
    rows, fewer where rows x cells would exceed ``_CHUNK_ELEMENTS``."""
    measure = triplet.measure
    lag_arr = simulate._as_lag_array(lags, kernel.dim)
    weights, vol = lattice_weights(kernel, lag_arr, config.lattice_step)
    n_cells = len(weights)
    drift_term = triplet.a0 * vol * weights.sum(axis=0)
    comp = 0.0
    if isinstance(measure, levy.CompoundPoisson):
        atoms = np.asarray(measure.atoms)
        pvals = np.asarray(measure.weights)
        comp = measure.rate * float(np.sum(pvals * atoms * (np.abs(atoms) <= 1.0)))
    chunk = max(1, min(simulate.CHUNK, simulate._CHUNK_ELEMENTS // n_cells))
    out = np.empty((config.n_samples, len(lag_arr)))
    for chunk_idx in range(0, (config.n_samples + chunk - 1) // chunk):
        rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(chunk_idx))
        take = min(chunk, config.n_samples - chunk_idx * chunk)
        incr = np.zeros((chunk, n_cells))
        if triplet.b0 > 0.0:
            incr += rng.normal(scale=math.sqrt(triplet.b0 * vol), size=(chunk, n_cells))
        if isinstance(measure, levy.SymmetricStable):
            u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(chunk, n_cells))
            e = rng.standard_exponential(size=(chunk, n_cells))
            cell_scale = (vol * measure.scale * levy.stable_re_constant(measure.alpha)
                          ) ** (1.0 / measure.alpha)
            incr += cell_scale * stable_with_tilt(u, e, measure.alpha)
        elif isinstance(measure, levy.CompoundPoisson):
            counts = rng.poisson(lam=measure.rate * vol, size=(chunk, n_cells))
            if len(measure.atoms) == 1:
                jumps = counts * measure.atoms[0]
            else:
                split = rng.multinomial(counts.ravel(), pvals)
                jumps = (split @ atoms).reshape(chunk, n_cells)
            incr += jumps - comp * vol
        out[chunk_idx * chunk:chunk_idx * chunk + take] = (incr @ weights)[:take] + drift_term
    return simulate.FieldSample(
        lags=tuple(tuple(float(v) for v in row) for row in lag_arr), values=out,
        n_cells=n_cells, config=config, kernel_name=kernel.name,
        triplet_name=triplet.name or repr(triplet))


def ulp_distance(a, b):
    """Elementwise number of doubles between a and b (0 when equal, +-0
    included), by their order-preserving integer images."""
    ia, ib = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    ia, ib = (np.where(i < 0, np.iinfo(np.int64).min - i, i) for i in (ia, ib))
    return np.abs(ia - ib)


def cumulant_re(triplet, s):
    """Re K(s) of a compound-Poisson triplet as levy.cumulant_re wrote it
    before it filled its arrays in place: each sum a fresh array."""
    s_arr = np.abs(np.atleast_1d(np.asarray(s, dtype=float)))
    out = sum((c * s_arr ** gamma for c, gamma in levy._power_parts(triplet)),
              np.zeros_like(s_arr))
    m = triplet.measure
    jumps = np.zeros_like(s_arr)
    for a, w in zip(m.atoms, m.weights):
        jumps += w * levy._one_minus_cos(a * s_arr)
    return np.maximum(out + m.rate * jumps, 0.0)


def z_minus_sin(z):
    """z - sin z as math.fsum of its first 30 Taylor terms
    (-1)**k z**(2k+3) / (2k+3)!, each rounded once; for |z| <= 3 the
    omitted terms are below 1e-60."""
    return math.fsum((-1) ** k * z ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(30))


# The per-type moment formulas of levy before they were stated once as
# levy._moment; the tests pin the moment law against them.


def abs_moment(measure, k):
    """integral |y|**k nu0(dy), one branch per jump type."""
    if isinstance(measure, levy.NoJumps):
        return 0.0
    if isinstance(measure, levy.SymmetricStable):
        return math.inf
    if isinstance(measure, levy.CompoundPoisson):
        return measure.rate * float(np.asarray(measure.weights) @ np.abs(measure.atoms) ** k)
    return float(sum(levy._side_integral(side, k, side.knots[0], side.knots[-1])
                     for side in measure.pieces))


def truncated_mean_shift(measure, v):
    """integral y (1[|yv| <= 1] - 1[|y| <= 1]) nu0(dy) on an array v."""
    v_arr = np.asarray(v, dtype=float)
    if isinstance(measure, (levy.NoJumps, levy.SymmetricStable)):
        return np.zeros_like(v_arr)
    if isinstance(measure, levy.CompoundPoisson):
        atoms = np.asarray(measure.atoms)
        weights = np.asarray(measure.weights)
        ind_v = (np.abs(v_arr[..., None] * atoms) <= 1.0).astype(float)
        ind_1 = (np.abs(atoms) <= 1.0).astype(float)
        return measure.rate * ((ind_v - ind_1) * atoms) @ weights
    with np.errstate(divide="ignore"):
        r_hi = 1.0 / np.abs(v_arr)
    out = np.zeros_like(v_arr)
    for side in measure.pieces:
        part = levy._side_integral(side, 1, np.minimum(1.0, r_hi), np.maximum(1.0, r_hi))
        out = out + side.sign * np.where(r_hi >= 1.0, part, -part)
    return out


def clipped_second_moment(measure, v):
    """integral min(1, (yv)**2) nu0(dy) on an array v."""
    v_arr = np.abs(np.asarray(v, dtype=float))
    if isinstance(measure, levy.NoJumps):
        return np.zeros_like(v_arr)
    if isinstance(measure, levy.SymmetricStable):
        a = measure.alpha
        return 2.0 * measure.scale * (1.0 / a + 1.0 / (2.0 - a)) * v_arr ** a
    if isinstance(measure, levy.CompoundPoisson):
        atoms = np.asarray(measure.atoms)
        weights = np.asarray(measure.weights)
        return measure.rate * np.minimum(1.0, (v_arr[..., None] * atoms) ** 2) @ weights
    with np.errstate(divide="ignore", invalid="ignore"):
        r_clip = 1.0 / v_arr
        out = np.zeros_like(v_arr)
        for side in measure.pieces:
            out = out + (v_arr * v_arr * levy._side_integral(side, 2, side.knots[0], r_clip)
                         + levy._side_integral(side, 0, r_clip, side.knots[-1]))
    return out


def samples_csv(sample):
    """samples.csv as csv.writer writes it with every value as "%.17g", built
    by Python's bulk % formatting 4096 rows at a time."""
    out = io.StringIO(newline="")
    csv.writer(out).writerow([f"lag={cli._lag_label(lag)}" for lag in sample.lags])
    values = sample.values
    row = ",".join(["%.17g"] * values.shape[1]) + "\r\n"
    for start in range(0, len(values), 4096):
        block = values[start:start + 4096]
        out.write((row * len(block)) % tuple(block.ravel().tolist()))
    return out.getvalue().encode()
