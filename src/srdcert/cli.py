"""Command line interface.

Commands:
    certify   run the certification pipeline for one kernel/integrator pair
    sweep     certify across a list of parameter values
    simulate  draw field samples and compare the empirical law
    validate  run the inequality battery (deterministic and Monte Carlo)

Exit codes: 0 success (certified / all checks passed), 2 inconclusive or
failed checks, 3 invalid configuration or ill-posed pair, 1 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels, levy, simulate as sim
from .certify import (
    DEFAULT_CANDIDATES,
    CertificateReport,
    certify,
    default_window,
)
from .errors import ConfigError, RejectionError, SrdcertError
from .kernels import Kernel
from .spectral import DEFAULT_S_BOX, build_profile, char_marginal

_FMT = "%.17g"
# rows of samples.csv formatted in one call: whole blocks keep the Python
# work per row small without holding the text of every row at once
_SAMPLE_BLOCK = 4096
# the keys each section accepts; any other key is a configuration error.
# A key that the chosen kernel type, jump type or probe does not read is
# rejected when its section is built (``_Section.reject_unread``).
_KEYS = {
    "kernel": {"type", "lo", "hi", "dim", "half_width", "width", "exponent", "radius"},
    "triplet": {"a0", "b0", "jumps", "alpha", "scale", "rate", "atoms", "weights",
                "grid", "density"},
    "numerics": {"window", "t_step", "s_lo", "s_hi", "s_points", "thresholds"},
    "simulate": {"n_samples", "lattice_step", "seed", "lags", "threshold", "s_grid",
                 "probe", "probe_level", "probe_points", "probe_size", "n_triples",
                 "negdef_samples"},
    "sweep": {"parameter", "values"},
}


def _fmt(x: float) -> str:
    return _FMT % x


# ---------------------------------------------------------------------------
# config access


class _Section:
    """Typed access to one config section with located error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self._data = parser[name] if parser.has_section(name) else {}
        self._read: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self._data

    def raw(self, key: str, default: str | None = None) -> str | None:
        self._read.add(key)
        val = self._data.get(key, default)
        return val.strip() if isinstance(val, str) else val

    def require(self, key: str) -> str:
        if key not in self._data:
            raise ConfigError(f"[{self.name}] is missing required key '{key}'")
        return self.raw(key)

    def reject_unread(self, selector: str, value: str):
        """Raise ConfigError if the section holds a key no accessor read."""
        unread = [key for key in self._data if key not in self._read]
        if unread:
            raise ConfigError(f"[{self.name}] {selector} = {value}"
                              f" does not read key '{unread[0]}'")

    def text(self, key: str, default: str) -> str:
        return self.raw(key, default)

    def floatval(self, key: str, default: float | None = None) -> float | None:
        raw = self.raw(key)
        if raw is None or raw == "":
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a number")

    def intval(self, key: str, default: int | None = None) -> int | None:
        raw = self.raw(key)
        if raw is None or raw == "":
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not an integer")

    def floatlist(self, key: str, default: tuple[float, ...] | None = None
                  ) -> tuple[float, ...] | None:
        raw = self.raw(key)
        if raw is None or raw == "":
            return default
        try:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a"
                              " comma-separated number list")


def load_config(path: Path) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    for section, known in _KEYS.items():
        for key in parser[section] if parser.has_section(section) else ():
            if key not in known:
                raise ConfigError(f"[{section}] unknown key '{key}'")
    target = parser.get("sweep", "parameter", fallback="").strip()
    section, dot, key = target.partition(".")
    if dot and section in _KEYS and key not in _KEYS[section]:
        raise ConfigError(f"[sweep] parameter {target!r}: [{section}] unknown key '{key}'")
    return parser


def build_kernel(parser: configparser.ConfigParser) -> Kernel:
    sec = _Section(parser, "kernel")
    kind = sec.raw("type")
    if kind is None:
        raise ConfigError("[kernel] is missing required key 'type'")
    if kind == "box":
        kernel = kernels.box_kernel(lo=sec.floatval("lo", 0.0),
                                    hi=sec.floatval("hi", 1.0),
                                    dim=sec.intval("dim", 1))
    elif kind == "tent":
        kernel = kernels.tent_kernel(sec.floatval("half_width", 1.0))
    elif kind == "gaussian":
        kernel = kernels.gaussian_kernel(dim=sec.intval("dim", 1),
                                         width=sec.floatval("width", 1.0))
    elif kind == "powerlaw":
        if not sec.has("exponent"):
            raise ConfigError("[kernel] powerlaw needs 'exponent'")
        kernel = kernels.powerlaw_kernel(sec.floatval("exponent"),
                                         sec.floatval("radius", 1.0))
    else:
        raise ConfigError(f"[kernel] unknown type {kind!r}"
                          " (expected box, tent, gaussian, or powerlaw)")
    sec.reject_unread("type", kind)
    return kernel


def build_triplet(parser: configparser.ConfigParser) -> levy.LevyTriplet:
    sec = _Section(parser, "triplet")
    a0 = sec.floatval("a0", 0.0)
    b0 = sec.floatval("b0", 0.0)
    jumps = sec.text("jumps", "none")
    if jumps == "none":
        if b0 == 0.0 and a0 == 0.0:
            raise ConfigError("[triplet] is degenerate: a0 = b0 = 0, no jumps")
        measure = levy.NO_JUMPS
        name = f"gaussian(b0={b0:g})" if a0 == 0.0 else f"diffusion(a0={a0:g},b0={b0:g})"
    elif jumps == "stable":
        if not sec.has("alpha"):
            raise ConfigError("[triplet] stable jumps need 'alpha'")
        alpha = sec.floatval("alpha")
        scale = sec.floatval("scale", None)
        measure = levy.SymmetricStable(alpha, scale) if scale is not None \
            else levy.calibrated_stable(alpha)
        name = f"stable(alpha={alpha:g})"
    elif jumps == "poisson":
        atoms = sec.floatlist("atoms")
        if atoms is None:
            raise ConfigError("[triplet] poisson jumps need 'atoms'")
        rate = sec.floatval("rate", 1.0)
        weights = sec.floatlist("weights")
        if weights is None:
            weights = tuple(1.0 / len(atoms) for _ in atoms)
        measure = levy.CompoundPoisson(rate, atoms, weights)
        name = f"poisson(rate={rate:g})"
    elif jumps == "table":
        grid = sec.floatlist("grid")
        density = sec.floatlist("density")
        if grid is None or density is None:
            raise ConfigError("[triplet] tabulated jumps need 'grid' and 'density'")
        measure = levy.TabulatedMeasure(grid, density)
        name = "tabulated"
    else:
        raise ConfigError(f"[triplet] unknown jumps {jumps!r}"
                          " (expected none, stable, poisson, or table)")
    sec.reject_unread("jumps", jumps)
    return levy.LevyTriplet(a0=a0, b0=b0, measure=measure, name=name)


def _numerics(parser: configparser.ConfigParser) -> dict:
    sec = _Section(parser, "numerics")
    s_lo = sec.floatval("s_lo", DEFAULT_S_BOX[0])
    s_hi = sec.floatval("s_hi", DEFAULT_S_BOX[1])
    return dict(
        window=sec.floatval("window", None),
        t_step=sec.floatval("t_step", None),
        s_box=(s_lo, s_hi),
        s_points=sec.intval("s_points", 40),
        candidates=sec.floatlist("thresholds", DEFAULT_CANDIDATES),
    )


def _sim_settings(parser: configparser.ConfigParser) -> dict:
    sec = _Section(parser, "simulate")
    probe_kind = sec.text("probe", "point")
    if probe_kind == "point":
        probe = sim.point_mass(sec.floatval("probe_level", 0.0))
    elif probe_kind == "discrete":
        pts = sec.floatlist("probe_points")
        if pts is None:
            raise ConfigError("[simulate] discrete probe needs 'probe_points'")
        probe = sim.finite_discrete(pts)
    elif probe_kind == "gaussian":
        probe = sim.gaussian_quantiles(sec.intval("probe_size", 512))
    else:
        raise ConfigError(f"[simulate] unknown probe {probe_kind!r}")
    settings = dict(
        config=sim.SimConfig(n_samples=sec.intval("n_samples", 100_000),
                             lattice_step=sec.floatval("lattice_step", 0.1),
                             seed=sec.intval("seed", 0)),
        lags=sec.floatlist("lags", (0.6, 0.8)),
        threshold=sec.floatval("threshold", 0.5),
        s_grid=sec.floatlist("s_grid", (-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0)),
        probe=probe,
        n_triples=sec.intval("n_triples", 200),
        negdef_samples=sec.intval("negdef_samples", 20_000),
    )
    sec.reject_unread("probe", probe_kind)
    return settings


# ---------------------------------------------------------------------------
# artifact writers


def _write_certificates(out_dir: Path, reports: list[CertificateReport]):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(
        "\n\n".join(rep.to_text() for rep in reports) + "\n")
    with open(out_dir / "certificate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CertificateReport.CSV_FIELDS)
        for rep in reports:
            writer.writerow(rep.csv_row())


def _lag_label(lag: tuple) -> str:
    return f"{lag[0]:g}" if len(lag) == 1 else "/".join(f"{v:g}" for v in lag)


def _write_samples(out_dir: Path, sample: sim.FieldSample):
    out_dir.mkdir(parents=True, exist_ok=True)
    values = sample.values
    # the rows csv.writer would write: numbers need no quoting, CRLF ends
    row = ",".join([_FMT] * values.shape[1]) + "\r\n"
    with open(out_dir / "samples.csv", "w", newline="") as fh:
        csv.writer(fh).writerow([f"lag={_lag_label(lag)}" for lag in sample.lags])
        for start in range(0, len(values), _SAMPLE_BLOCK):
            block = values[start:start + _SAMPLE_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_validation(out_dir: Path, rows: list[tuple]):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "validation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "scenario", "statistic", "value",
                         "limit", "passed"])
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# commands


def cmd_certify(parser: configparser.ConfigParser, out_dir: Path,
                verbose: bool) -> int:
    kernel = build_kernel(parser)
    triplet = build_triplet(parser)
    rep = certify(kernel, triplet, **_numerics(parser))
    _write_certificates(out_dir, [rep])
    print(rep.to_text())
    return 0 if rep.certified else 2


def cmd_sweep(parser: configparser.ConfigParser, out_dir: Path,
              verbose: bool) -> int:
    sec = _Section(parser, "sweep")
    target = sec.raw("parameter")
    values = sec.floatlist("values")
    if target is None or values is None:
        raise ConfigError("[sweep] needs 'parameter' and 'values'")
    if "." not in target:
        raise ConfigError(f"[sweep] parameter {target!r} must be"
                          " 'section.key', e.g. triplet.alpha")
    section, key = target.split(".", 1)
    if section not in ("triplet", "kernel"):
        raise ConfigError(f"[sweep] can only sweep triplet or kernel keys,"
                          f" not [{section}]")
    reports = []
    for value in values:
        patched = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        patched.read_dict({s: dict(parser[s]) for s in parser.sections()})
        if not patched.has_section(section):
            patched.add_section(section)
        patched[section][key] = repr(value)
        kernel = build_kernel(patched)
        triplet = build_triplet(patched)
        rep = certify(kernel, triplet, **_numerics(patched))
        reports.append(rep)
        print(f"{target}={value:g}: {rep.verdict}")
    _write_certificates(out_dir, reports)
    return 0 if all(r.certified for r in reports) else 2


def cmd_simulate(parser: configparser.ConfigParser, out_dir: Path,
                 verbose: bool) -> int:
    kernel = build_kernel(parser)
    triplet = build_triplet(parser)
    settings = _sim_settings(parser)
    lags = [(lag,) * kernel.dim for lag in settings["lags"]]
    lags = [(0.0,) * kernel.dim] + [l for l in lags if any(v != 0 for v in l)]
    sample = sim.sample_field(kernel, triplet, lags, settings["config"])
    _write_samples(out_dir, sample)

    s_grid = np.asarray(settings["s_grid"])
    tol = 4.0 / math.sqrt(settings["config"].n_samples)
    target = char_marginal(kernel, triplet, s_grid)
    worst = 0.0
    print(f"lattice: {sample.n_cells} cells, step"
          f" {settings['config'].lattice_step:g},"
          f" {settings['config'].n_samples} samples")
    for i, lag in enumerate(sample.lags):
        phi, _ = sim.empirical_char(sample.values[:, i], s_grid)
        dev = float(np.abs(phi - target).max())
        worst = max(worst, dev)
        print(f"lag {_lag_label(lag)}: max |empirical - analytic|"
              f" characteristic deviation = {dev:.6f} (tolerance {tol:.6f})")
    return 0 if worst <= tol else 2


def cmd_validate(parser: configparser.ConfigParser, out_dir: Path,
                 verbose: bool) -> int:
    kernel = build_kernel(parser)
    triplet = build_triplet(parser)
    settings = _sim_settings(parser)
    seed = settings["config"].seed
    rows: list[tuple] = []

    for tri in levy.default_validation_triplets():
        rep = levy.check_negdef_inequalities(
            tri, n_samples=settings["negdef_samples"], seed=seed)
        rows.append(("negative-definite", tri.name, "max_excess",
                     _fmt(rep.max_excess), _fmt(0.0), rep.passed))
        if verbose:
            print(f"negative-definite {tri.name}:"
                  f" {rep.total_violations} violations")

    fact = sim.factorization_check(kernel, triplet,
                                   n_triples=settings["n_triples"], seed=seed)
    rows.append(("factorization", f"{kernel.name}/{triplet.name}",
                 "max_excess", _fmt(fact.max_excess), _fmt(0.0), fact.passed))
    if verbose:
        print(f"factorization {kernel.name}/{triplet.name}:"
              f" {fact.violations} violations, max gap {fact.max_gap:.4g}")

    num = _numerics(parser)
    window, t_step = default_window(kernel, num["window"], num["t_step"])
    profile = build_profile(kernel, triplet, window=window, t_step=t_step,
                            s_box=num["s_box"], s_points=num["s_points"])
    for lag in settings["lags"]:
        t = (lag,) * kernel.dim
        sample = sim.sample_field(kernel, triplet,
                                  [(0.0,) * kernel.dim, t],
                                  settings["config"])
        rep = sim.covariance_bound_check(profile, t, settings["probe"],
                                         settings["threshold"],
                                         settings["config"], sample=sample)
        rows.append(("covariance-bound",
                     f"lag={lag:g}/{settings['probe'].name}",
                     "lhs", _fmt(rep.lhs), _fmt(rep.rhs + 3.0 * rep.se),
                     rep.passed))
        if verbose:
            print(f"covariance bound lag={lag:g} {settings['probe'].name}:"
                  f" lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} se={rep.se:.6f}")

    _write_validation(out_dir, rows)
    failed = [r for r in rows if not r[-1]]
    print(f"validation: {len(rows) - len(failed)}/{len(rows)} checks passed")
    for row in failed:
        print(f"  FAILED {row[0]} ({row[1]}): {row[2]}={row[3]} limit {row[4]}")
    return 0 if not failed else 2


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="srdcert",
        description="Short-range-dependence certification for stationary"
                    " infinitely divisible moving-average fields.")
    parser.add_argument("command",
                        choices=("certify", "sweep", "simulate", "validate"))
    parser.add_argument("config", type=Path, help="INI configuration file")
    parser.add_argument("--output", type=Path, default=None,
                        help="artifact directory (default: alongside config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [simulate] seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not cfg.has_section("simulate"):
                cfg.add_section("simulate")
            cfg["simulate"]["seed"] = str(args.seed)
        out_dir = args.output if args.output is not None \
            else args.config.resolve().parent / "out"
        handler = {"certify": cmd_certify, "sweep": cmd_sweep,
                   "simulate": cmd_simulate, "validate": cmd_validate}
        return handler[args.command](cfg, out_dir, args.verbose)
    except (ConfigError, RejectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SrdcertError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
