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
import io
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
from .errors import ConfigError, QuadratureError, RejectionError, SrdcertError
from .kernels import Kernel
from .names import number
from .spectral import DEFAULT_S_BOX, build_profile, char_marginal

_FMT = "%.17g"
# rows of samples.csv formatted in one call: the numpy work per row stays
# small, and a block's temporaries (about 1 MB) stay small enough for glibc
# malloc to reuse; 4096-row blocks got fresh pages every block (28 000 page
# faults, a third of the writer's time, on 100 000 rows x 3 lags)
_SAMPLE_BLOCK = 1024
REQUIRED = object()  # schema default of a key that must be given


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


# a value its key's parser rejects "is not" one of these
_NOT = {float: "a number", int: "an integer", _floats: "a comma-separated number list"}


# The config grammar: each section maps key -> (parser, default or REQUIRED),
# a selector key -> (choices, default). A choice is (builder, the keys only it
# reads); the builder takes those keys as keyword arguments. Any other key is
# an error.
# README's grammar block lists the same keys and choices, checked by a test.
_SCHEMA = {
    "kernel": {
        "type": ({
            "box": (kernels.box_kernel,
                    {"lo": (float, 0.0), "hi": (float, 1.0), "dim": (int, 1)}),
            "tent": (kernels.tent_kernel, {"half_width": (float, 1.0)}),
            "gaussian": (kernels.gaussian_kernel,
                         {"dim": (int, 1), "width": (float, 1.0)}),
            "powerlaw": (kernels.powerlaw_kernel,
                         {"exponent": (float, REQUIRED), "radius": (float, 1.0)}),
        }, REQUIRED),
    },
    "triplet": {
        "a0": (float, 0.0),
        "b0": (float, 0.0),
        "jumps": ({
            "none": (lambda: levy.NO_JUMPS, {}),
            "stable": (lambda alpha, scale: levy.stable_triplet(alpha, scale).measure,
                       {"alpha": (float, REQUIRED), "scale": (float, None)}),
            "poisson": (levy.CompoundPoisson, {"rate": (float, 1.0), "atoms": (_floats, REQUIRED),
                                               "weights": (_floats, None)}),
            "table": (levy.TabulatedMeasure,
                      {"grid": (_floats, REQUIRED), "density": (_floats, REQUIRED)}),
        }, "none"),
    },
    "numerics": {
        "window": (float, None), "t_step": (float, None),
        "s_lo": (float, DEFAULT_S_BOX[0]), "s_hi": (float, DEFAULT_S_BOX[1]),
        "s_points": (int, 40), "thresholds": (_floats, DEFAULT_CANDIDATES),
    },
    "simulate": {
        "n_samples": (int, 100_000), "lattice_step": (float, 0.1), "seed": (int, 0),
        "lags": (_floats, (0.6, 0.8)), "threshold": (float, 0.5),
        "s_grid": (_floats, (-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0)),
        "n_triples": (int, 200), "negdef_samples": (int, 20_000),
        "probe": ({
            "point": (lambda probe_level: sim.point_mass(probe_level),
                      {"probe_level": (float, 0.0)}),
            "discrete": (lambda probe_points: sim.finite_discrete(probe_points),
                         {"probe_points": (_floats, REQUIRED)}),
            "gaussian": (lambda probe_size: sim.gaussian_quantiles(probe_size),
                         {"probe_size": (int, 512)}),
        }, "point"),
    },
    "sweep": {"parameter": (str, REQUIRED), "values": (_floats, REQUIRED)},
}


def _selectors(schema: dict) -> dict:
    return {key: entry for key, entry in schema.items() if isinstance(entry[0], dict)}


# the keys each section accepts: its own and those of every choice
_KEYS = {name: set(schema).union(*(keys for sel, _ in _selectors(schema).values()
                                   for _, keys in sel.values()))
         for name, schema in _SCHEMA.items()}


# ---------------------------------------------------------------------------
# config access


def _raw(parser: configparser.ConfigParser, name: str) -> dict[str, str]:
    return {key: val.strip() for key, val in parser[name].items()} \
        if parser.has_section(name) else {}


def _parse(name: str, raw: dict[str, str], schema: dict, where: str = "") -> dict:
    """Parse the schema's keys of one section; an empty value is unset."""
    values = {}
    for key, (kind, default) in schema.items():
        text = raw.get(key, "")
        if text == "":
            if default is REQUIRED:
                raise ConfigError(f"[{name}] {where} needs '{key}'" if where
                                  else f"[{name}] is missing required key '{key}'")
            values[key] = default
        elif isinstance(kind, dict):
            if text not in kind:
                raise ConfigError(f"[{name}] unknown {key} {text!r}"
                                  f" (expected {', '.join(kind)})")
            values[key] = text
        else:
            try:
                values[key] = kind(text)
            except ValueError:
                raise ConfigError(f"[{name}] {key} = {text!r} is not {_NOT[kind]}")
    return values


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    """The values of one section by key; a selector key holds what the
    chosen value's builder returns."""
    raw = _raw(parser, name)
    schema = _SCHEMA[name]
    values = _parse(name, raw, schema)
    for key, (choices, _) in _selectors(schema).items():
        where = f"{key} = {values[key]}"
        build, keys = choices[values[key]]
        unread = [k for k in raw if k not in schema and k not in keys]
        if unread:
            raise ConfigError(f"[{name}] {where} does not read key '{unread[0]}'")
        values[key] = build(**_parse(name, raw, keys, where))
    return values


def load_config(path: Path) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    for name, known in _KEYS.items():
        raw = _raw(parser, name)
        for key in raw:
            if key not in known:
                raise ConfigError(f"[{name}] unknown key '{key}'")
        _parse(name, raw, _selectors(_SCHEMA[name]))
    target = parser.get("sweep", "parameter", fallback="").strip()
    section, dot, key = target.partition(".")
    if dot and section in _KEYS and key not in _KEYS[section]:
        raise ConfigError(f"[sweep] parameter {target!r}: [{section}] unknown key '{key}'")
    return parser


def build_kernel(parser: configparser.ConfigParser) -> Kernel:
    return _section(parser, "kernel")["type"]


def build_triplet(parser: configparser.ConfigParser) -> levy.LevyTriplet:
    sec = _section(parser, "triplet")
    return levy.LevyTriplet(a0=sec["a0"], b0=sec["b0"], measure=sec["jumps"])


def _numerics(parser: configparser.ConfigParser) -> dict:
    sec = _section(parser, "numerics")
    return dict(window=sec["window"], t_step=sec["t_step"],
                s_box=(sec["s_lo"], sec["s_hi"]), s_points=sec["s_points"],
                candidates=sec["thresholds"])


def _sim_settings(parser: configparser.ConfigParser) -> dict:
    sec = _section(parser, "simulate")
    sec["config"] = sim.SimConfig(**{key: sec.pop(key) for key in
                                     ("n_samples", "lattice_step", "seed")})
    return sec


# ---------------------------------------------------------------------------
# artifact writers


def _write_certificates(out_dir: Path, reports: list[CertificateReport]):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(
        "\n\n".join(rep.to_text() for rep in reports) + "\n")
    with open(out_dir / "certificate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CertificateReport.CSV_FIELDS)
        writer.writerows(rep.csv_row() for rep in reports)


def _lag_label(lag: tuple) -> str:
    return "/".join(map(number, lag))


# samples.csv spells each value as _FMT does.  Where 1e-4 <= |x| < 1e16 that is
# fixed notation of the 17-digit integer nearest |x| 10^(16-k), k = floor(log10
# |x|), which numpy finds exactly; every other value, and an exact tie, which
# rounds half to even, goes through _FMT itself.
_FIELD = 24  # widest _FMT text: "-1.2345678901234567e-308"
_POW10 = np.array([float(10 ** n) for n in range(21)])  # exact doubles


def _digit_words() -> np.ndarray:
    """uint32 words whose bytes spell 0000 to 9999, then for each leading
    digit d the word (d, '0', '.', NUL)."""
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48
    heads = np.zeros((10, 4), np.uint8)
    heads[:, 0], heads[:, 1], heads[:, 2] = np.arange(48, 58), 48, 46
    return np.concatenate((quads, heads)).view(np.uint32).ravel()


def _layouts() -> np.ndarray:
    """For k in [-4, 15] and 0..16 trailing zero digits, row 17 (k + 4) + zeros
    holds the source byte of each field byte: the 17 digits in fixed notation,
    trailing zeros and a bare '.' stripped.  Source bytes are the leading word
    (d, '0', '.', NUL), then the other 16 digits; byte 0 is left for the sign
    and NUL pads."""
    digits = [0, *range(4, 20)]
    table = np.full((20, 17, _FIELD + 2), 3, np.uint8)
    for k in range(-4, 16):
        body = (digits[:k + 1] + [2] + digits[k + 1:] if k >= 0
                else [1, 2] + [1] * (-k - 1) + digits)
        for zeros in range(17):
            frac = max(16 - k - zeros, 0)
            size = max(k + 1, 1) + (frac + 1 if frac else 0)
            table[k + 4, zeros, 1:1 + size] = body[:size]
    return table.reshape(-1, _FIELD + 2)


_DIGIT_WORDS, _LAYOUTS = _digit_words(), _layouts()


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: v = hi + lo with at most 26 significant bits in each."""
    c = v * 134217729.0  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _csv_rows(block: np.ndarray) -> bytes:
    """The rows csv.writer writes for ``block`` with each value as _FMT."""
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    # |x| 10^(16-k) = h + e exactly (Dekker's two-product); where k is right,
    # h >= 2^53 is an integer
    p = _POW10[16 - k]
    h = a * p
    (ah, al), (ph, pl) = _split(a), _split(p)
    e = ((ah * ph - h) + ah * pl + al * ph) + al * pl
    floor_e = np.floor(e)
    frac = e - floor_e
    digits = h.astype(np.int64) + floor_e.astype(np.int64) + (frac > 0.5)
    # Next to a power of ten log10 can be one off, which puts the digits out
    # of range: no double lies within 5e-17 (relative) below a power of ten,
    # so they neither round to 10^16 from below nor up to 10^17.  An exact
    # tie rounds half to even.  Both go through _FMT; their digits here are
    # only placeholders.
    fast &= (frac != 0.5) & (digits >= 10 ** 16) & (digits < 10 ** 17)
    digits[~fast] = 10 ** 16
    hi, lo = digits // 10 ** 8, digits % 10 ** 8
    src = _DIGIT_WORDS[np.stack((hi // 10 ** 8 + 10000, hi // 10 ** 4 % 10 ** 4,
                                 hi % 10 ** 4, lo // 10 ** 4, lo % 10 ** 4), axis=1)]
    src = src.view(np.uint8)
    # trailing zero digits; byte 3 is NUL, so the search stops at 16
    zeros = (src[:, :2:-1] != 48).argmax(axis=1)
    layout = _LAYOUTS[(k + 4) * 17 + zeros] + np.arange(0, src.size, src.shape[1])[:, None]
    field = src.ravel().take(layout)
    field[:, 0] = (x < 0) * ord("-")
    slow = np.flatnonzero(~fast)
    text = (f"%-{_FIELD}.17g" * len(slow)) % tuple(x[slow].tolist())  # _FMT, space-padded
    field[slow, :_FIELD] = np.frombuffer(text.encode().replace(b" ", b"\0"),
                                         np.uint8).reshape(-1, _FIELD)
    rows = field.reshape(*block.shape, _FIELD + 2)
    rows[:, :-1, _FIELD] = ord(",")
    rows[:, -1, _FIELD:] = (13, 10)  # \r\n
    return rows.tobytes().translate(None, b"\0")


def _write_samples(out_dir: Path, sample: sim.FieldSample):
    out_dir.mkdir(parents=True, exist_ok=True)
    header = io.StringIO()
    csv.writer(header).writerow([f"lag={_lag_label(lag)}" for lag in sample.lags])
    with open(out_dir / "samples.csv", "wb") as fh:
        fh.write(header.getvalue().encode())
        for start in range(0, len(sample.values), _SAMPLE_BLOCK):
            fh.write(_csv_rows(sample.values[start:start + _SAMPLE_BLOCK]))


def _write_validation(out_dir: Path, rows: list[tuple]):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "validation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "scenario", "statistic", "value",
                         "limit", "passed"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def cmd_certify(parser: configparser.ConfigParser, out_dir: Path,
                verbose: bool) -> int:
    rep = certify(build_kernel(parser), build_triplet(parser), **_numerics(parser))
    _write_certificates(out_dir, [rep])
    print(rep.to_text())
    return 0 if rep.certified else 2


def cmd_sweep(parser: configparser.ConfigParser, out_dir: Path,
              verbose: bool) -> int:
    sec = _section(parser, "sweep")
    target, values = sec["parameter"], sec["values"]
    if "." not in target:
        raise ConfigError(f"[sweep] parameter {target!r} must be"
                          " 'section.key', e.g. triplet.alpha")
    section, key = target.split(".", 1)
    if section not in ("triplet", "kernel"):
        raise ConfigError(f"[sweep] can only sweep triplet or kernel keys,"
                          f" not [{section}]")
    reports = []
    sections = {s: dict(parser[s]) for s in parser.sections()}
    for value in values:
        sections.setdefault(section, {})[key] = repr(value)
        patched = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        patched.read_dict(sections)
        rep = certify(build_kernel(patched), build_triplet(patched),
                      **_numerics(patched))
        reports.append(rep)
        print(f"{target}={number(value)}: {rep.verdict}")
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
                     _FMT % rep.max_excess, _FMT % 0.0, rep.passed))
        if verbose:
            print(f"negative-definite {tri.name}:"
                  f" {rep.total_violations} violations")

    def failed_check(check: str, scenario: str, error: str) -> None:
        # a check whose quadrature fails is a failed check, not a crash
        rows.append((check, scenario, "quadrature-error", error, "", False))
        if verbose:
            print(f"{check} {scenario}: {error}")

    try:
        fact = sim.factorization_check(kernel, triplet,
                                       n_triples=settings["n_triples"], seed=seed)
    except QuadratureError as exc:
        failed_check("factorization", f"{kernel.name}/{triplet.name}", str(exc))
    else:
        rows.append(("factorization", f"{kernel.name}/{triplet.name}",
                     "max_excess", _FMT % fact.max_excess, _FMT % 0.0, fact.passed))
        if verbose:
            print(f"factorization {kernel.name}/{triplet.name}:"
                  f" {fact.violations} violations, max gap {fact.max_gap:.4g}")

    num = _numerics(parser)
    window, t_step = default_window(kernel, num["window"], num["t_step"])
    profile_error = None
    try:
        profile = build_profile(kernel, triplet, window=window, t_step=t_step,
                                s_box=num["s_box"], s_points=num["s_points"])
    except QuadratureError as exc:
        profile_error = f"profile: {exc}"
    for lag in settings["lags"]:
        t = (lag,) * kernel.dim
        scenario = f"lag={number(lag)}/{settings['probe'].name}"
        if profile_error:
            failed_check("covariance-bound", scenario, profile_error)
            continue
        sample = sim.sample_field(kernel, triplet,
                                  [(0.0,) * kernel.dim, t],
                                  settings["config"])
        try:
            rep = sim.covariance_bound_check(profile, t, settings["probe"],
                                             settings["threshold"],
                                             settings["config"], sample=sample)
        except QuadratureError as exc:
            failed_check("covariance-bound", scenario, str(exc))
            continue
        rows.append(("covariance-bound", scenario,
                     "lhs", _FMT % rep.lhs, _FMT % (rep.rhs + 3.0 * rep.se),
                     rep.passed))
        if verbose:
            print(f"covariance bound lag={number(lag)} {settings['probe'].name}:"
                  f" lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} se={rep.se:.6f}")

    _write_validation(out_dir, rows)
    failed = [r for r in rows if not r[-1]]
    print(f"validation: {len(rows) - len(failed)}/{len(rows)} checks passed")
    for row in failed:
        print(f"  FAILED {row[0]} ({row[1]}): {row[2]}={row[3]}"
              + (f" limit {row[4]}" if row[4] else ""))
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
            cfg.read_dict({"simulate": {"seed": str(args.seed)}})
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
