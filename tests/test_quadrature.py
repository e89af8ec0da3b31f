"""The batched Gauss-Kronrod engine against scipy's quad_vec and closed forms.

The engine runs quad_vec's GK21 scheme with all nodes of a round in one
integrand call, so its values must agree with quad_vec to rounding; only
the summation order differs.  Problems that share a pass must each agree
with their own solo pass in the same way.  ``integrate_box`` is the one
entry point: a 1-D integral is an interval cut at its breakpoints, and a
slowly decaying tail is integrated in u = log|x| by the integrand.
"""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.special import erf

from srdcert import kernels, levy, quadrature, spectral
from srdcert.errors import QuadratureError
from srdcert.quadrature import integrate_box

from reference import dependence_numerator_grid

SRC = Path(__file__).resolve().parents[1] / "src" / "srdcert"


def line_corners(problems):
    """(P, c, 1) corners of 1-D problems (func, lo, hi, breakpoints): the
    ends, then the breakpoints clipped to them, padded with hi."""
    c = 2 + max(len(pts) for *_, pts in problems)
    return np.array([np.clip([lo, hi, *pts, *[hi] * (c - 2 - len(pts))], lo, hi)
                     for _, lo, hi, pts in problems])[:, :, None]


def one(func, lo, hi, breakpoints=(), **kw):
    """A single integral of ``func(x)`` over [lo, hi], cut at the breakpoints
    inside, as a batch of one: (values, error)."""
    vals, errs = integrate_box(lambda x, p: func(x[:, 0]),
                               line_corners([(func, lo, hi, breakpoints)]), **kw)
    return vals[0], errs[0]


def log_tail(func, sign):
    """``func`` on the tail x = sign e^u, in u = log|x| with the Jacobian e^u."""
    return lambda u: func(sign * np.exp(u)) * np.exp(u)[:, None]


def box(func, lo, hi, **kw):
    """A single box integral of ``func(pts)`` as a batch of one: (values, error)."""
    vals, errs = integrate_box(lambda x, p: func(x), [[lo, hi]], **kw)
    return vals[0], errs[0]


def scalar_form(func):
    """quad_vec's view of a batched integrand: one point in, k values out."""
    return lambda x: func(np.array([x]))[0]


def kinks(x):
    return np.stack([np.abs(x - 0.3), np.sqrt(np.abs(x + 0.2)), np.exp(-x * x)], axis=1)


def phases(x):
    return np.exp(1j * np.multiply.outer(x, np.array([0.5, 3.0, 11.0])))


def power_tail(x):
    return (1.0 + np.abs(x)[:, None]) ** -np.array([1.5, 2.0, 3.5])


def gaussian_bumps(x):
    return np.exp(-np.multiply.outer(x * x, np.geomspace(0.1, 50.0, 625)))


def single(x):
    return (np.cos(7.0 * x) / (1.0 + x * x))[:, None]


# (integrand, lo, hi, breakpoints); a log tail runs in u = log|x| on the
# mapped integrand func(+-e^u) e^u, for the engine and quad_vec alike
BATTERY = {
    "breakpoints": (kinks, -1.0, 1.0, (0.3, -0.2, 5.0)),
    "complex": (phases, 0.0, 5.0, ()),
    "log-tail": (log_tail(power_tail, 1.0), 0.0, math.log(1e8), ()),
    "log-tail-negative": (log_tail(power_tail, -1.0), math.log(2.0), math.log(1e6), ()),
    "k=1": (single, -3.0, 4.0, (0.0,)),
    "k=625": (gaussian_bumps, -4.0, 4.0, (0.0,)),
}


def reference(func, lo, hi, breakpoints, abs_tol, rel_tol):
    pts = sorted(p for p in breakpoints if lo < p < hi) or None
    return quad_vec(scalar_form(func), lo, hi, epsabs=abs_tol, epsrel=rel_tol,
                    points=pts, limit=2000)


@pytest.mark.parametrize("case", sorted(BATTERY))
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
def test_matches_quad_vec(case, rel_tol):
    func, lo, hi, breakpoints = BATTERY[case]
    val, err = one(func, lo, hi, breakpoints, abs_tol=1e-12, rel_tol=rel_tol)
    ref, ref_err = reference(func, lo, hi, breakpoints, 1e-12, rel_tol)
    assert val.shape == ref.shape and val.dtype == ref.dtype
    np.testing.assert_allclose(val, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
    assert err == pytest.approx(ref_err, rel=1e-6)


def test_box_matches_nested_quad_vec():
    def func(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.exp(-x * x - 2.0 * y * y), np.cos(3.0 * x * y)], axis=1)

    val, _ = box(func, (-1.0, -0.5), (1.5, 1.0))
    ref, _ = quad_vec(
        lambda x: quad_vec(lambda y: func(np.array([[x, y]]))[0], -0.5, 1.0,
                           epsabs=1e-12, epsrel=1e-8, limit=500)[0],
        -1.0, 1.5, epsabs=1e-12, epsrel=1e-8, limit=500)
    np.testing.assert_allclose(val, ref, rtol=1e-13)


# ---------------------------------------------------------------------------
# closed-form oracles: the estimated error bounds the actual one


def _line_case(func, lo, hi, exact, rel_tol=1e-10):
    val, err = one(func, lo, hi, rel_tol=rel_tol)
    return np.linalg.norm(val - np.asarray(exact)), err


def _box_case(func, lo, hi, exact):
    val, err = box(func, lo, hi)
    return np.linalg.norm(val - np.asarray(exact)), err


ORACLES = {
    "inverse-sqrt endpoint": lambda: _line_case(
        lambda x: (1.0 / np.sqrt(x))[:, None], 0.0, 1.0, [2.0]),
    "log endpoint": lambda: _line_case(
        lambda x: np.log(x)[:, None], 0.0, 1.0, [-1.0]),
    "polynomials": lambda: _line_case(
        lambda x: np.stack([x ** 2, x ** 7, x ** 20], axis=1), -1.0, 2.0,
        [3.0, (2.0 ** 8 - 1.0) / 8.0, (2.0 ** 21 + 1.0) / 21.0]),
    "oscillation": lambda: _line_case(
        lambda x: np.cos(np.multiply.outer(x, [1.0, 10.0, 40.0])), 0.0, 1.0,
        [math.sin(1.0), math.sin(10.0) / 10.0, math.sin(40.0) / 40.0]),
    "complex phases": lambda: _line_case(
        lambda x: np.exp(1j * np.multiply.outer(x, [2.0, 9.0])), 0.0, 3.0,
        [(np.exp(6j) - 1.0) / 2j, (np.exp(27j) - 1.0) / 9j]),
    "log-mapped power tail": lambda: _line_case(
        # both tails, 1 <= |x| <= 1e10, in u = log|x|
        lambda u: sum(log_tail(lambda x: np.abs(x)[:, None] ** -np.array([1.5, 3.0]), sign)(u)
                      for sign in (1.0, -1.0)), 0.0, math.log(1e10),
        [2.0 * 2.0 * (1.0 - 1e-5), 2.0 * 0.5 * (1.0 - 1e-20)]),
    "loose tolerance": lambda: _line_case(
        lambda x: np.sqrt(np.abs(np.sin(5.0 * x)))[:, None], 0.0, math.pi / 5.0,
        [2.0 / 5.0 * 1.1981402347355923], rel_tol=1e-4),
    "gaussian box": lambda: _box_case(
        lambda p: np.exp(-np.sum(p * p, axis=1))[:, None], (0.0, 0.0), (1.0, 1.0),
        [(math.sqrt(math.pi) / 2.0 * erf(1.0)) ** 2]),
    "3-d box": lambda: _box_case(
        lambda p: np.stack([np.prod(p, axis=1), np.exp(-np.sum(p, axis=1))], axis=1),
        (0.0, 0.0, 0.0), (1.0, 2.0, 1.0),
        [0.5, (1.0 - math.exp(-1.0)) ** 2 * (1.0 - math.exp(-2.0))]),
}


@pytest.mark.parametrize("case", sorted(ORACLES))
def test_error_estimate_bounds_actual_error(case):
    actual, estimate = ORACLES[case]()
    assert actual <= estimate


# ---------------------------------------------------------------------------
# failure and budgets


def test_limit_raises():
    with pytest.raises(QuadratureError, match="target precision not reached"):
        one(lambda x: np.sin(1e5 * x)[:, None], 0.0, 1.0)


def test_box_limit_raises():
    with pytest.raises(QuadratureError):
        box(lambda p: np.sin(1e5 * p[:, 0] * p[:, 1])[:, None], (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("d", [1, 2])
def test_failure_carries_partial_and_residual(d):
    """A failure keeps the failing problem's value and error estimate, and
    on the outer axis names its extent there."""
    with pytest.raises(QuadratureError, match=r"failed on \[0\.0, 1\.0\]|at depth 1") as info:
        box(lambda p: np.sin(1e5 * np.prod(p, axis=1))[:, None], (0.0,) * d, (1.0,) * d)
    assert math.isfinite(info.value.partial) and 0.0 < info.value.residual < math.inf


def test_engine_has_one_entry_point():
    """The adaptive pass is called from integrate_box alone."""
    tree = ast.parse((SRC / "quadrature.py").read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and fn.col_offset == 0 and any(
                   isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_adaptive"
                   for n in ast.walk(fn))}
    assert callers == {"integrate_box"}
    for path in sorted(SRC.glob("*.py")):
        assert "_adaptive(" not in path.read_text() or path.name == "quadrature.py", path


def test_non_finite_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        one(lambda x: np.where(x > 0.5, np.nan, x)[:, None], 0.0, 1.0)


@pytest.mark.parametrize("k", [1, 40, 625, 4000])
def test_integrand_calls_respect_element_budget(k):
    sizes = []
    rates = np.geomspace(0.5, 400.0, k)

    def func(x):
        sizes.append(len(x) * k)
        return np.exp(-np.multiply.outer(np.abs(x - 0.1), rates))

    one(func, -1.0, 1.0, breakpoints=(0.1,))
    assert len(sizes) > 1
    # one interval's 21 nodes is the smallest batch the rule can take
    assert max(sizes) <= max(quadrature._CHUNK_ELEMENTS, 21 * k)


def test_round_is_one_call_per_chunk():
    """Each round evaluates all nodes of its bisected intervals together."""
    calls = []

    def func(x):
        calls.append(len(x))
        return np.sqrt(np.abs(x))[:, None]

    one(func, -1.0, 1.0)
    assert calls[0] == 21
    assert all(n % 21 == 0 for n in calls)
    assert max(calls) > 21


def test_no_module_imports_quad_vec():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            if "quad_vec" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_levy_imports_nothing_from_scipy_integrate():
    """Every integral in the package runs on the engine or a closed form."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_src_imports_no_scipy():
    """No module under src/ imports scipy, at module level or lazily inside a function."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    """A certify run, Gaussian quantiles, tabulated moments and a tabulated
    kernel's norm load no scipy module."""
    config = SRC.parents[1] / "configs" / "example.cfg"
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from srdcert import cli, kernels, levy, simulate",
        f"assert cli.main(['certify', {str(config)!r}, '--output', {str(tmp_path)!r}]) == 0",
        "simulate.gaussian_quantiles(16)",
        "levy.abs_moment(levy.TabulatedMeasure((-2.0, -0.5, 0.5, 2.0), (0.1, 1.0, 1.0, 0.1)), 2)",
        "axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3))",
        "table = kernels.tabulated_kernel(axes, np.add.outer(1.0 - np.abs(axes[0]), axes[1]))",
        "assert abs(kernels._lp_power_integral(table, 1.0)[0] - 6.0) < 1e-9",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# the problem axis: many integrals in one pass


def _poly(x):
    return np.stack([x ** 3 + 1.0, x ** 5 - x], axis=1)


def _kinks2(x):
    return np.stack([np.abs(x - 0.3), np.sqrt(np.abs(x + 0.2))], axis=1)


def _waves(x):
    return np.stack([np.cos(40.0 * x), np.sin(40.0 * x) + 0.5], axis=1)


def _tails(v):
    """(1 + |x|)**-[1.5, 2] in v: x = v on the core |v| <= 2, beyond it the
    tails x = sign(v) 2 e^(|v| - 2), in log|x| with the Jacobian |x|."""
    core = np.abs(v) <= 2.0
    x = np.where(core, v, np.sign(v) * 2.0 * np.exp(np.abs(v) - 2.0))
    jac = np.where(core, 1.0, np.abs(x))
    return (1.0 + np.abs(x)[:, None]) ** -np.array([1.5, 2.0]) * jac[:, None]


def _peak(x):
    return np.stack([1.0 / (1e-4 + x * x), np.exp(-x * x)], axis=1)


def _edge(x):
    return np.stack([1.0 / np.sqrt(x), np.log(x)], axis=1)


# (integrand, lo, hi, breakpoints) of independent problems: exact after the
# first rule, kinks at breakpoints, oscillation, log-mapped tails out to 1e8
# and -1e6 on both sides of a linear core, a sharp peak and endpoint
# singularities
PROBLEMS = [
    (_poly, -1.0, 2.0, ()),
    (_kinks2, -1.0, 1.0, (0.3, -0.2, 5.0)),
    (_waves, 0.0, 3.0, ()),
    (_tails, -2.0 - math.log(5e5), 2.0 + math.log(5e7), (-2.0, 0.0, 2.0)),
    (_peak, -1.0, 1.0, (0.0,)),
    (_edge, 0.0, 1.0, ()),
]


def _batched(funcs):
    def func(x, p):
        out = np.empty((len(x), 2))
        for j, f in enumerate(funcs):
            at = p == j
            if at.any():
                out[at] = f(x[at])
        return out

    return func


def _batched_line(problems):
    return _batched([lambda x, f=f: f(x[:, 0]) for f, *_ in problems])


def test_batch_matches_solo_passes():
    vals, errs = integrate_box(_batched_line(PROBLEMS), line_corners(PROBLEMS))
    assert vals.shape == (len(PROBLEMS), 2) and errs.shape == (len(PROBLEMS),)
    for j, (f, lo, hi, pts) in enumerate(PROBLEMS):
        solo, solo_err = one(f, lo, hi, pts)
        assert np.linalg.norm(vals[j] - solo) <= 1e-14 * np.linalg.norm(solo), j
        assert errs[j] == pytest.approx(solo_err, rel=1e-12), j


@pytest.mark.parametrize("k", [1, 2])
def test_batch_equals_solo_bit_for_bit(k):
    """A problem's interval sums are its own: batched with others it gets its
    solo values and error bit for bit, with one component or several."""
    func = _batched_line(PROBLEMS)
    vals, errs = integrate_box(lambda x, p: func(x, p)[:, :k], line_corners(PROBLEMS))
    for j, (f, lo, hi, pts) in enumerate(PROBLEMS):
        solo, solo_err = one(lambda x, f=f: f(x)[:, :k], lo, hi, pts)
        assert np.array_equal(vals[j], solo) and errs[j] == solo_err, j


def test_batch_failure_names_the_problem():
    problems = list(PROBLEMS)
    problems.insert(2, (lambda x: np.stack([np.sin(1e5 * x)] * 2, axis=1), 0.0, 1.0, ()))
    with pytest.raises(QuadratureError, match=r"integral 2 of 7, \[0\.0, 1\.0\]: target precision"):
        integrate_box(_batched_line(problems), line_corners(problems))


def _box_gauss(p):
    return np.stack([np.exp(-np.sum(p * p, axis=1)), np.cos(p[:, 0])], axis=1)


def _box_kink(p):
    return np.stack([np.prod(np.abs(p - 0.3), axis=1), np.abs(p[:, -1] + 0.2)], axis=1)


def _box_waves(p):
    return np.stack([np.cos(20.0 * np.prod(p, axis=1)), np.sin(5.0 * p[:, 0]) + 0.5], axis=1)


def _box_union(p):
    """1 on [0, 1]^d plus 2 on [0.4, 1.4]^d: jumps on the faces of both boxes."""
    return np.stack([np.all((p >= 0.0) & (p <= 1.0), axis=1)
                     + 2.0 * np.all((p >= 0.4) & (p <= 1.4), axis=1), p[:, 0]], axis=1)


def _box_peak(p):
    return np.stack([1.0 / (0.1 + np.sum(p * p, axis=1)), np.ones(len(p))], axis=1)


def _box_problems(d):
    """(integrand, corners) of independent boxes in d dimensions, 4 corners
    each: a smooth box, kinks cut at the corner coordinates 0.3 and -0.2,
    oscillation, the union of two boxes cut at all their faces and a peak."""
    def cube(*values):
        return np.array([[v] * d for v in values], dtype=float)

    return [(_box_gauss, cube(-1.0, 1.5, -1.0, 1.5)),
            (_box_kink, cube(-1.0, 1.0, 0.3, -0.2)),
            (_box_waves, cube(0.0, 1.0, 0.0, 1.0)),
            (_box_union, cube(0.0, 1.0, 0.4, 1.4)),
            (_box_peak, cube(-1.0, 1.0, 0.0, 0.0))]


def _batched_box(problems):
    return _batched([f for f, _ in problems])


@pytest.mark.parametrize("d", [2, 3])
def test_box_batch_matches_solo_boxes(d):
    problems = _box_problems(d)
    vals, errs = integrate_box(_batched_box(problems), [c for _, c in problems])
    assert vals.shape == (len(problems), 2) and errs.shape == (len(problems),)
    for j, (f, corners) in enumerate(problems):
        solo, solo_err = integrate_box(lambda x, p: f(x), [corners])
        assert np.linalg.norm(vals[j] - solo[0]) <= 1e-14 * np.linalg.norm(solo[0]), j
        assert errs[j] == pytest.approx(solo_err[0], rel=1e-12), j


def test_box_cuts_at_corner_coordinates():
    """The union of two squares integrates its jumps exactly once cut at their faces."""
    val, err = integrate_box(lambda x, p: _box_union(x), [_box_problems(2)[3][1]])
    assert val[0, 0] == pytest.approx(1.0 + 2.0, abs=1e-13) and err[0] < 1e-10


def test_box_batch_failure_names_the_integral():
    problems = _box_problems(2)
    problems.insert(2, (lambda p: np.stack([np.sin(1e5 * p[:, 0] * p[:, 1])] * 2, axis=1),
                        np.array([[0.0, 0.0], [1.0, 1.0]] * 2)))
    with pytest.raises(QuadratureError,
                       match=r"at depth 1 on integral 2 of 6: target precision not reached"):
        integrate_box(_batched_box(problems), [c for _, c in problems])


def test_batch_calls_respect_element_budget():
    k = 300
    rates = np.geomspace(0.5, 400.0, k)
    sizes = []

    def func(x, p):
        sizes.append(len(x) * k)
        return np.exp(-np.multiply.outer(np.abs(x - 0.1 * p), rates))

    n = 40
    vals, _ = integrate_box(lambda x, p: func(x[:, 0], p),
                            line_corners([(func, -1.0, 1.0, (0.1 * j,)) for j in range(n)]))
    assert vals.shape == (n, k) and len(sizes) > 1
    assert max(sizes) <= max(quadrature._CHUNK_ELEMENTS, 21 * k)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(quadrature, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, name, counting)
    return calls


@pytest.mark.parametrize("sharpness", [0.0, 1e4])
def test_box_passes_do_not_follow_outer_nodes(monkeypatch, sharpness):
    """All inner integrals of an outer round share one engine pass."""
    outer_nodes = set()

    def func(pts):
        outer_nodes.update(pts[:, 0].tolist())
        return (np.exp(-sharpness * pts[:, 0] ** 2) * np.cos(pts[:, 1]))[:, None]

    passes = _count_calls(monkeypatch, "_adaptive")
    box(func, (-1.0, 0.0), (1.0, 1.0))
    if sharpness == 0.0:
        # a constant in x: two outer rounds (21 and 42 nodes), one pass each
        assert len(outer_nodes) == 63 and len(passes) == 3
    else:
        assert len(outer_nodes) >= 300
        assert len(passes) - 1 < len(outer_nodes) / 21


# ---------------------------------------------------------------------------
# factored integrand values


def _factors(x):
    """Nonnegative factor tables (n, 25) at the points x: decaying and growing
    columns with a kink at 0.3, as a numerator grid has."""
    rates = np.geomspace(0.01, 100.0, 25)
    a = np.sqrt(np.multiply.outer(np.abs(x - 0.3), rates) + 1e-3)
    b = np.exp(-np.multiply.outer(x * x, rates))
    return a, b


def _factored(mirror):
    n = 25
    i, j = np.triu_indices(n) if mirror else np.indices((n, n)).reshape(2, -1)
    return lambda x, p: quadrature.Factored(*_factors(x), i * n + j, mirror)


def _rule_pair(func, edges, expand=None):
    """The GK21 integrals of the factored ``func`` on the intervals between
    the edges, and of ``expand`` (by default ``func``) expanded to its
    columns."""
    lo, hi = edges[:-1], edges[1:]
    prob = np.zeros(len(lo), dtype=int)
    expand = expand or func
    return (quadrature._gk21(func, prob, lo, hi, None)[0],
            quadrature._gk21(lambda x, p: np.asarray(expand(x, p)), prob, lo, hi, None)[0])


@pytest.mark.parametrize("mirror", [False, True], ids=["full-grid", "mirror"])
def test_factored_values_match_expanded_columns(mirror):
    """Kronrod sums as matrix products of the factors equal the sums of the
    expanded columns within 1e-14 relative, column by column."""
    fac, exp = _rule_pair(_factored(mirror), np.linspace(-1.0, 2.0, 8))
    assert fac.shape == exp.shape == (7, 325 if mirror else 625)
    assert np.all(np.abs(fac - exp) <= 1e-14 * np.abs(exp))


def test_factored_round_spans_several_chunks():
    """A round of 60 factored intervals takes several integrand calls, each
    within the element budget, and still matches the expanded columns."""
    func, calls = _factored(False), []
    size = 21 * (25 + 25) + 3 * 25 * 25

    def counted(x, p):
        calls.append(len(x) // 21)
        return func(x, p)

    fac, exp = _rule_pair(counted, np.linspace(-1.0, 2.0, 61), expand=func)
    assert len(calls) > 2 and sum(calls) == 60
    assert max(calls) * size <= quadrature._CHUNK_ELEMENTS
    assert np.all(np.abs(fac - exp) <= 1e-14 * np.abs(exp))


@pytest.mark.parametrize("n, mirror", [(25, True), (25, False), (5, True), (5, False)],
                         ids=["25-mirror", "25-full", "5-mirror", "5-full"])
def test_factored_size_is_what_an_interval_allocates(n, mirror):
    """The size _factored_sums reports for one interval, times 40 intervals,
    bounds the traced peak of building the factor tables and the sums,
    beyond one numpy buffer of 8192 elements and the array headers, and
    overstates it by at most a tenth."""
    m, (i, j) = 40, np.triu_indices(n) if mirror else np.indices((n, n)).reshape(2, -1)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        fv = quadrature.Factored(rng.random((21 * m, n)), rng.random((21 * m, n)),
                                 i * n + j, mirror)
        size = quadrature._factored_sums(fv, m)[-1]
        peak = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert 0.9 * size * m <= peak <= size * m + 8192 + 2048, (peak, size * m)


@pytest.mark.parametrize("dtype", [float, complex])
def test_expanded_size_is_what_an_interval_allocates(dtype):
    """The size _expanded_sums reports for one interval of 2000 columns
    bounds the traced peak of building the value and its sums, beyond one
    numpy buffer of 8192 values and the array headers, and overstates it
    by at most a tenth.  |f| and then |f - s_k/2| share one buffer."""
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        fv = rng.random((21, 2000)).astype(dtype)
        size = quadrature._expanded_sums(fv, 1)[-1]
        peak = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    width = np.dtype(dtype).itemsize // 8
    assert 0.9 * size <= peak <= size + 8192 * width + 2048, (peak, size)


def test_factored_dispersion_is_never_below_quadpacks():
    """By Cauchy-Schwarz (the Kronrod weights sum to 2) the L2 dispersion of a
    factored value is at least QUADPACK's dispersion of its columns."""
    x = 0.5 + 1.5 * quadrature._K21_NODES
    for mirror in (False, True):
        fv = _factored(mirror)(x, None)
        l2 = quadrature._factored_sums(fv, 1)[2]
        l1 = quadrature._expanded_sums(np.asarray(fv), 1)[2]
        assert np.all(l2 >= l1 * (1.0 - 1e-12))


@pytest.mark.parametrize("even", [True, False], ids=["mirror-right-tail", "full-two-tails"])
def test_factored_log_tail_matches_expanded_columns(monkeypatch, even):
    """Under a decay envelope the numerator's log-mapped tails carry the
    Jacobian e^u on the first factor: the tail boxes' rule sums equal those
    of the expanded columns within 1e-14 relative."""
    captured = []
    engine = kernels.integrate_box

    def capture(func, corners, *args, **kwargs):
        captured.append((func, np.asarray(corners)))
        return engine(func, corners, *args, **kwargs)

    monkeypatch.setattr(kernels, "integrate_box", capture)
    monkeypatch.setattr(kernels.Kernel, "even", even)
    kern = kernels.powerlaw_kernel(4.0)
    trip = levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.5))
    s = np.geomspace(0.1, 10.0, 4)
    dependence_numerator_grid(kern, trip, -0.7, s, s)
    (g, corners), = captured
    tails = range(1, len(corners))
    assert len(tails) == (1 if even else 2)
    for box in tails:
        edges = np.linspace(corners[box].min(), corners[box].max(), 6)
        func = lambda x, p: g(x[:, None], np.full(len(x), box))
        assert isinstance(func(edges[:1], None), quadrature.Factored)
        fac, exp = _rule_pair(func, edges)
        assert np.all(np.abs(fac - exp) <= 1e-14 * np.abs(exp))


def test_numerator_errors_match_the_expanded_path(monkeypatch):
    """The two mixed tent models' 25 x 25 grids at lags 0.4 and 1.3: each
    lag's stated error with the L2 dispersion of the factored value lies
    within a factor 1.5 of the error of the same pass on expanded columns."""
    models = (levy.LevyTriplet(b0=1.0, measure=levy.calibrated_stable(1.0)),
              levy.LevyTriplet(b0=1.0, measure=levy.CompoundPoisson(2.0, (-0.5, 2.0),
                                                                    (0.6, 0.4))))
    lags = np.array([[0.4], [1.3]])
    s = np.tile(np.geomspace(*spectral.DEFAULT_S_BOX, spectral.DEFAULT_S_POINTS), (2, 1))
    engine = spectral.integrate_over_support

    def expanded(kernel, integrand, *args, **kwargs):
        return engine(kernel, lambda fv, p: np.asarray(integrand(fv, p)), *args, **kwargs)

    for trip in models:
        vals, errs = spectral._numerators(kernels.tent_kernel(), trip, lags, s, s)
        with monkeypatch.context() as m:
            m.setattr(spectral, "integrate_over_support", expanded)
            ref_vals, ref_errs = spectral._numerators(kernels.tent_kernel(), trip, lags, s, s)
        assert np.all(errs <= 1.5 * ref_errs) and np.all(ref_errs <= 1.5 * errs), (errs, ref_errs)
        assert np.all(np.abs(vals - ref_vals) <= (errs + ref_errs)[:, None, None])


# ---------------------------------------------------------------------------
# rounds folded in groups of whole problems

_N_WAVES = 16


def _waves_factored(x, p):
    """Mirror values of 325 columns from 25 + 25 nonnegative factors whose
    oscillations spread the error over the whole line, so that later rounds
    bisect many intervals of every problem; problem p shifts the phase."""
    w = np.linspace(1.0, 60.0, 25)
    a = 1.0 + np.sin(np.multiply.outer(x[:, 0] + 0.1 * p, w)) ** 2
    b = np.exp(-np.multiply.outer(np.abs(x[:, 0]), w / 60.0))
    i, j = np.triu_indices(25)
    return quadrature.Factored(a, b, i * 25 + j, True)


def _waves_corners():
    return line_corners([(None, -1.0, 2.0, ())] * _N_WAVES)


def test_groups_cut_whole_problems():
    p = np.repeat([0, 1, 2, 3], [3, 150, 40, 70])
    assert quadrature._groups(p, 263) == [slice(0, 263)]
    # problem 1 alone exceeds the cap of 100 and is a group of its own
    assert quadrature._groups(p, 100) == [slice(0, 3), slice(3, 153), slice(153, 193),
                                          slice(193, 263)]
    assert quadrature._groups(p, 0) == [slice(0, 3), slice(3, 153), slice(153, 193),
                                        slice(193, 263)]
    assert quadrature._groups(p, 190) == [slice(0, 153), slice(153, 263)]


def test_grouped_rounds_equal_solo_passes(monkeypatch):
    """16 factored problems of 325 columns: their later rounds return more
    values than one group holds, and each problem still gets the values and
    error of its solo pass bit for bit."""
    groups = []
    cut = quadrature._groups

    def counted(p, cap):
        groups.append(cut(p, cap))
        return groups[-1]

    monkeypatch.setattr(quadrature, "_groups", counted)
    corners = _waves_corners()
    vals, errs = integrate_box(_waves_factored, corners)
    assert max(len(g) for g in groups) >= 3
    for q in range(_N_WAVES):
        solo, solo_err = integrate_box(lambda x, p: _waves_factored(x, np.full(len(x), q)),
                                       corners[:1])
        assert np.array_equal(vals[q], solo[0]) and errs[q] == solo_err[0], q


def test_rule_calls_take_whole_problems_within_the_group_limit(monkeypatch):
    """Each GK21 call of a round gets the left then the right halves of whole
    problems' picked intervals, at most _CHUNK_ELEMENTS values (325 per half)
    unless it holds one problem, and the round's calls cover its picks."""
    rounds = []
    pick, gk21 = quadrature._pick, quadrature._gk21

    def picking(err, p, threshold):
        chosen = pick(err, p, threshold)
        rounds.append((np.bincount(p[chosen], minlength=_N_WAVES), []))
        return chosen

    def evaluating(func, prob, lo, hi, size):
        if rounds:
            rounds[-1][1].append(prob)
        return gk21(func, prob, lo, hi, size)

    monkeypatch.setattr(quadrature, "_pick", picking)
    monkeypatch.setattr(quadrature, "_gk21", evaluating)
    integrate_box(_waves_factored, _waves_corners())
    for picked, calls in rounds:
        covered = np.zeros(_N_WAVES, dtype=int)
        for prob in calls:
            half = prob[:len(prob) // 2]
            assert np.array_equal(prob[len(half):], half)
            counts = np.bincount(half, minlength=_N_WAVES)
            assert np.array_equal(counts[counts > 0], picked[counts > 0])
            assert len(prob) * 325 <= quadrature._CHUNK_ELEMENTS or np.ptp(half) == 0
            covered += counts
        assert np.array_equal(covered, picked)
    assert max(len(calls) for _, calls in rounds) >= 3
