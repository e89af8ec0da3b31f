"""Command line interface: config parsing, artifacts, exit codes."""

import configparser
import csv
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from srdcert import cli
from srdcert.cli import main
from srdcert.errors import QuadratureError
from srdcert.simulate import FieldSample, SimConfig

import reference

EXAMPLE = """
[kernel]
type = box

[triplet]
jumps = stable
alpha = 1.0

[numerics]
window = 3.0
t_step = 0.025
"""

COUNTER = """
[kernel]
type = powerlaw
exponent = 1.5

[triplet]
jumps = stable
alpha = 1.0

[numerics]
window = 20.0
t_step = 0.5
"""


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def read_certificate(out_dir):
    with open(out_dir / "certificate.csv") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# certify


def test_certify_example_certified(tmp_path, capsys):
    cfg = write_cfg(tmp_path, EXAMPLE)
    out = tmp_path / "out"
    assert main(["certify", str(cfg), "--output", str(out)]) == 0
    assert "verdict: certified-SRD" in capsys.readouterr().out
    assert "certified-SRD" in (out / "report.txt").read_text()
    rows = read_certificate(out)
    assert len(rows) == 1
    assert rows[0]["verdict"] == "certified-SRD"
    assert float(rows[0]["threshold"]) == 0.25
    assert float(rows[0]["srd_value"]) == 1.0
    assert rows[0]["srd_divergent"] == "0"


def test_certify_counter_inconclusive(tmp_path):
    cfg = write_cfg(tmp_path, COUNTER)
    out = tmp_path / "out"
    assert main(["certify", str(cfg), "--output", str(out)]) == 2
    rows = read_certificate(out)
    assert rows[0]["verdict"] == "inconclusive"
    assert rows[0]["srd_divergent"] == "1"
    assert rows[0]["freq_divergent"] == "0"
    assert "divergent" in rows[0]["reasons"]


def test_certify_missing_file(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.cfg")]) == 3
    assert "not found" in capsys.readouterr().err


def test_certify_malformed_config_names_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[kernel]\ntype = box\nbroken line\n")
    assert main(["certify", str(cfg)]) == 3
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("body,fragment", [
    ("[triplet]\njumps = stable\nalpha = 1.0\n", "missing required key 'type'"),
    ("[kernel]\ntype = pyramid\n[triplet]\nb0 = 1\n", "unknown type"),
    ("[kernel]\ntype = powerlaw\n[triplet]\nb0 = 1\n", "needs 'exponent'"),
    ("[kernel]\ntype = box\nhi = wide\n[triplet]\nb0 = 1\n", "not a number"),
    ("[kernel]\ntype = box\n[triplet]\njumps = fractal\n", "unknown jumps"),
    ("[kernel]\ntype = box\n[triplet]\na0 = 0\nb0 = 0\n", "degenerate"),
    ("[kernel]\ntype = box\n[triplet]\njumps = stable\n", "needs 'alpha'"),
    ("[kernel]\ntype = box\n[triplet]\njumps = poisson\n", "needs 'atoms'"),
    ("[kernel]\ntype = box\n[triplet]\njumps = stable\nalpha =\n",
     "[triplet] jumps = stable needs 'alpha'"),
    ("[kernel]\ntype = powerlaw\nexponent =\n[triplet]\nb0 = 1\n",
     "[kernel] type = powerlaw needs 'exponent'"),
    ("[kernel]\ntype = box\n[triplet]\njumps = table\ngrid = 0.5, 1.0\n",
     "[triplet] jumps = table needs 'density'"),
    ("[kernel]\ntype = tent\nlo = 0\n[triplet]\nb0 = 1\n",
     "[kernel] type = tent does not read key 'lo'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[simulate]\nprobe = bogus\n",
     "[simulate] unknown probe 'bogus'"),
    ("[kernel]\ntype = box\ndim = 1.5\n[triplet]\nb0 = 1\n",
     "[kernel] dim = '1.5' is not an integer"),
    ("[kernel]\ntype = box\n[triplet]\njumps = stable\nalpha = 1.0\ngaussian = 4.0\n",
     "[triplet] unknown key 'gaussian'"),
    ("[kernel]\ntype = box\nlength = 2\n[triplet]\nb0 = 1\n",
     "[kernel] unknown key 'length'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[numerics]\nwindw = 3\n",
     "[numerics] unknown key 'windw'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[simulate]\nsamples = 10\n",
     "[simulate] unknown key 'samples'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[sweep]\nparameter = triplet.b0\n"
     "values = 1\nsteps = 3\n", "[sweep] unknown key 'steps'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[sweep]\nparameter = triplet.drift\n"
     "values = 1\n", "[triplet] unknown key 'drift'"),
    ("[kernel]\ntype = box\nwidth = 5.0\n[triplet]\nb0 = 1\n",
     "[kernel] type = box does not read key 'width'"),
    ("[kernel]\ntype = box\n[triplet]\njumps = stable\nalpha = 1.0\nrate = 7\n",
     "[triplet] jumps = stable does not read key 'rate'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\nalpha = 1.0\n",
     "[triplet] jumps = none does not read key 'alpha'"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[numerics]\nwindow = inf\n",
     "profile-window"),
    ("[kernel]\ntype = box\n[triplet]\nb0 = 1\n[numerics]\ns_hi = inf\n",
     "profile-sbox"),
], ids=["no-type", "bad-type", "no-exponent", "bad-float", "bad-jumps",
        "degenerate", "no-alpha", "no-atoms", "empty-alpha", "empty-exponent",
        "no-density", "unread-tent-key", "bad-probe", "fractional-dim",
        "unknown-triplet-key",
        "unknown-kernel-key", "unknown-numerics-key", "unknown-simulate-key",
        "unknown-sweep-key", "unknown-sweep-parameter", "unread-kernel-key",
        "unread-triplet-key", "unread-gaussian-triplet-key", "infinite-window",
        "infinite-s-hi"])
def test_config_validation_exit3(tmp_path, capsys, body, fragment):
    cfg = write_cfg(tmp_path, body)
    assert main(["certify", str(cfg)]) == 3
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command, body, fragment", [
    ("simulate", "[kernel]\ntype = box\n[triplet]\nb0 = 1\n[simulate]\nprobe_size = 64\n",
     "[simulate] probe = point does not read key 'probe_size'"),
    ("sweep", "[kernel]\ntype = box\n[triplet]\nb0 = 1\n[sweep]\nparameter = kernel.width\n"
     "values = 2\n", "[kernel] type = box does not read key 'width'"),
], ids=["unread-probe-key", "unread-sweep-parameter"])
def test_unread_key_exit3(tmp_path, capsys, command, body, fragment):
    """A section is checked for unread keys when the command builds it."""
    cfg = write_cfg(tmp_path, body)
    assert main([command, str(cfg), "--output", str(tmp_path / "out")]) == 3
    assert fragment in capsys.readouterr().err


def test_certify_profile_failure_inconclusive(tmp_path, monkeypatch):
    """A quadrature failure while building the profile is a verdict, not a crash."""
    def failing_profile(*args, **kwargs):
        raise QuadratureError("profile pass failed")

    monkeypatch.setattr(sys.modules["srdcert.certify"], "build_profile", failing_profile)
    out = tmp_path / "out"
    assert main(["certify", str(write_cfg(tmp_path, EXAMPLE)), "--output", str(out)]) == 2
    assert "reason: profile: profile pass failed" in (out / "report.txt").read_text()
    assert read_certificate(out)[0]["verdict"] == "inconclusive"


def test_certify_srd_failure_inconclusive(tmp_path, monkeypatch):
    """A failed norm pass of the SRD closed form is a verdict, not a crash."""
    def failing_norm(*args, **kwargs):
        raise QuadratureError("norm pass failed")

    monkeypatch.setattr(sys.modules["srdcert.certify"], "_lp_power_integral", failing_norm)
    out = tmp_path / "out"
    assert main(["certify", str(write_cfg(tmp_path, EXAMPLE)), "--output", str(out)]) == 2
    assert "reason: srd: norm pass failed" in (out / "report.txt").read_text()
    assert read_certificate(out)[0]["verdict"] == "inconclusive"


def test_certify_sigma_sq_failure_inconclusive(tmp_path, monkeypatch):
    """A failed sigma^2 call in the frequency integral is a verdict, not a crash."""
    def failing_grid(*args, **kwargs):
        raise QuadratureError("sigma^2 pass failed")

    monkeypatch.setattr(sys.modules["srdcert.certify"], "marginal_exponent_grid", failing_grid)
    body = """
[kernel]
type = tent

[triplet]
b0 = 1
jumps = poisson
rate = 2
atoms = -0.5, 2
weights = 0.6, 0.4

[numerics]
window = 3
t_step = 0.2
"""
    out = tmp_path / "out"
    assert main(["certify", str(write_cfg(tmp_path, body)), "--output", str(out)]) == 2
    assert "reason: frequency integral: sigma^2 pass failed" in (out / "report.txt").read_text()
    assert read_certificate(out)[0]["verdict"] == "inconclusive"


def test_readme_grammar_matches_schema():
    """README's ```ini grammar block lists each section's keys and the
    values of each selector key exactly as the schema has them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1]
    keys, choices, section = {}, {}, None
    for line in block.split("```", 1)[0].splitlines():
        header = re.match(r"\[(\w+)\]", line)
        entry = re.match(r"#?\s*(\w+)\s*=", line)
        if header:
            section = header.group(1)
            keys[section] = set()
        elif entry:
            keys[section].add(entry.group(1))
            comment = line.split("#")[-1]
            if "|" in comment:
                choices[entry.group(1)] = [v.strip() for v in comment.split("|")]
    assert keys == cli._KEYS
    assert choices == {key: list(sel) for schema in cli._SCHEMA.values()
                       for key, (sel, _) in cli._selectors(schema).items()}


@pytest.mark.parametrize("triplet, name", [
    ("b0 = 1\njumps = poisson\nrate = 2\natoms = -0.5, 2", "gaussian(b0=1)+poisson(rate=2)"),
    ("a0 = 0.5\njumps = stable\nalpha = 1", "drift(a0=0.5)+stable(alpha=1)"),
    ("a0 = -1\nb0 = 2", "drift(a0=-1)+gaussian(b0=2)"),
    ("b0 = 2", "gaussian(b0=2)"),
    ("jumps = stable\nalpha = 1", "stable(alpha=1)"),
], ids=["gaussian+poisson", "drift+stable", "drift+gaussian", "gaussian", "stable"])
def test_triplet_named_by_every_part(triplet, name):
    parser = configparser.ConfigParser()
    parser.read_string(f"[triplet]\n{triplet}\n")
    assert cli.build_triplet(parser).name == name


def test_certify_nonintegrable_pair_exit3(tmp_path, capsys):
    body = """
[kernel]
type = powerlaw
exponent = 1.5

[triplet]
jumps = stable
alpha = 0.5
scale = 1.0
"""
    assert main(["certify", str(write_cfg(tmp_path, body))]) == 3
    assert "integrability" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_all_certified(tmp_path):
    body = EXAMPLE + "\n[sweep]\nparameter = triplet.alpha\nvalues = 0.8, 1.2\n"
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--output", str(out)]) == 0
    rows = read_certificate(out)
    assert [r["integrator"] for r in rows] == ["stable(alpha=0.8)",
                                               "stable(alpha=1.2)"]
    assert all(r["verdict"] == "certified-SRD" for r in rows)


def test_sweep_spells_close_values_apart(tmp_path, capsys):
    """alpha = 1.0000001 and 1.0000002 both read 1 under ``:g``: the printed
    lines and the certificate rows spell each value so that it reads back."""
    body = EXAMPLE + "\n[sweep]\nparameter = triplet.alpha\nvalues = 1.0000001, 1.0000002\n"
    out = tmp_path / "out"
    assert main(["sweep", str(write_cfg(tmp_path, body)), "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "triplet.alpha=1.0000001: certified-SRD", "triplet.alpha=1.0000002: certified-SRD"]
    assert [r["integrator"] for r in read_certificate(out)] == [
        "stable(alpha=1.0000001)", "stable(alpha=1.0000002)"]


def test_sweep_mixed_verdicts_exit2(tmp_path):
    body = COUNTER + "\n[sweep]\nparameter = kernel.exponent\nvalues = 1.5, 3.0\n"
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--output", str(out)]) == 2
    rows = read_certificate(out)
    verdicts = {r["kernel"]: r["verdict"] for r in rows}
    assert verdicts["powerlaw(beta=1.5,r0=1)"] == "inconclusive"


def test_sweep_bad_parameter_exit3(tmp_path, capsys):
    body = EXAMPLE + "\n[sweep]\nparameter = alpha\nvalues = 1.0\n"
    assert main(["sweep", str(write_cfg(tmp_path, body))]) == 3
    assert "section.key" in capsys.readouterr().err
    body = EXAMPLE + "\n[sweep]\nparameter = numerics.window\nvalues = 1.0\n"
    assert main(["sweep", str(write_cfg(tmp_path, body))]) == 3


# ---------------------------------------------------------------------------
# simulate


SIM = EXAMPLE + """
[simulate]
n_samples = 4000
lattice_step = 0.125
seed = 5
lags = 0.5
"""


def test_simulate_writes_samples(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--output", str(out)]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "lag=0,lag=0.5"
    assert len(lines) == 4001
    assert "deviation" in capsys.readouterr().out


def test_sample_file_bytes(tmp_path):
    """samples.csv is what csv.writer writes with "%.17g", across blocks."""
    rng = np.random.default_rng(3)
    n = cli._SAMPLE_BLOCK + 3
    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    values[:4] = [[0.0, -0.0, 1.0], [-2.5, 1e-320, 123456789012345678.0],
                  [0.1, -1.0 / 3.0, 5e300], [7.0, -7.0, 2.0 ** -1074]]
    sample = FieldSample(lags=((0.0,), (0.5,), (1.25,)), values=values, n_cells=1,
                         config=SimConfig(n_samples=n, lattice_step=0.1),
                         kernel_name="k", triplet_name="t")
    cli._write_samples(tmp_path, sample)
    data = (tmp_path / "samples.csv").read_bytes()

    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["lag=0", "lag=0.5", "lag=1.25"])
    for row in values:
        writer.writerow(["%.17g" % v for v in row])
    assert data == ref.getvalue().encode()
    lines = data.split(b"\n")
    assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1])
    parsed = np.array([[float(v) for v in line.split(b",")] for line in lines[1:-1]])
    assert np.array_equal(parsed, values)
    assert np.array_equal(np.signbit(parsed), np.signbit(values))


def _sample(values):
    lags = tuple((0.5 * i,) for i in range(values.shape[1]))
    return FieldSample(lags=lags, values=values, n_cells=1,
                       config=SimConfig(n_samples=len(values), lattice_step=0.1),
                       kernel_name="k", triplet_name="t")


def _adversarial_values():
    """Float64 values where a fixed-notation %.17g formatter can go wrong."""
    rng = np.random.default_rng(34)
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{j}") for j in range(-6, 19)])
    edges = np.array([1e-4, 1e16])
    for _ in range(3):
        edges = np.concatenate((np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)))
    # dyadic ties: the exact decimal of m/8 near 1e15 and of n + j/1024 near
    # 1e12 ends in a 5 right after the 17th digit for some m and j
    ties = np.concatenate((
        (8e15 + np.arange(-500, 500)) / 8,
        np.floor(rng.uniform(1e12, 4e12, 1024)) + np.arange(1024) / 1024,
        np.arange(1, 4001) / 8, np.arange(1, 4001) / 1024,
        np.floor(rng.uniform(1e15, 2.0 ** 52, 1000)) + 0.5,
        np.floor(rng.uniform(0, 1e16, 1000))))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308, -1e-310])
    values = np.concatenate((np.nextafter(powers, 0.0), powers,
                             np.nextafter(powers, np.inf), edges, ties, special))
    values = np.concatenate((values, -values, bits))
    return values[rng.permutation(len(values))]


def test_sample_writer_matches_reference(tmp_path):
    """The vectorized writer spells every value as "%.17g" does, in 1-, 2- and
    3-column files whose rows end inside a block."""
    parts = np.array_split(_adversarial_values(), 3)
    for columns, part in enumerate(parts, start=1):
        rows = len(part) // columns
        rows -= rows % cli._SAMPLE_BLOCK == 0
        sample = _sample(part[:rows * columns].reshape(rows, columns))
        cli._write_samples(tmp_path, sample)
        assert (tmp_path / "samples.csv").read_bytes() == reference.samples_csv(sample)


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_sample_writer_exact_when_log10_is_off(tmp_path, monkeypatch, shift):
    """Next to a power of ten a log10 one off either way puts the digits out
    of range, and those values go through "%.17g"."""
    near = np.array([float(f"1e{j}") for j in range(-4, 16)])
    for _ in range(3):
        near = np.concatenate((np.nextafter(near, 0.0), near, np.nextafter(near, np.inf)))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    sample = _sample(np.concatenate((near, -near))[:, None])
    cli._write_samples(tmp_path, sample)
    assert (tmp_path / "samples.csv").read_bytes() == reference.samples_csv(sample)


def test_sample_writer_ties_round_half_even(tmp_path):
    values = np.array([[1000000000000000.25, 1000000000000000.75, 1000000000000.03125]])
    cli._write_samples(tmp_path, _sample(values))
    assert (tmp_path / "samples.csv").read_bytes().split(b"\r\n")[1] == (
        b"1000000000000000.2,1000000000000000.8,1000000000000.0312")


def test_close_lags_get_distinct_labels(tmp_path, capsys):
    """Lags that :g rounds to one label keep their repr in every label."""
    body = EXAMPLE + """
[simulate]
n_samples = 500
lattice_step = 0.125
seed = 5
lags = 1.0000001, 1.0000002, 0.6
threshold = 0.5
probe = gaussian
n_triples = 4
negdef_samples = 200
"""
    cfg = write_cfg(tmp_path, body)
    main(["simulate", str(cfg), "--output", str(tmp_path / "sim")])
    header = (tmp_path / "sim" / "samples.csv").read_text().splitlines()[0]
    assert header == "lag=0,lag=1.0000001,lag=1.0000002,lag=0.6"
    out = capsys.readouterr().out
    assert "lag 1.0000001:" in out and "lag 1.0000002:" in out
    main(["validate", str(cfg), "--output", str(tmp_path / "val")])
    with open(tmp_path / "val" / "validation.csv") as fh:
        scenarios = [r["scenario"].split("/")[0] for r in csv.DictReader(fh)
                     if r["check"] == "covariance-bound"]
    assert scenarios == ["lag=1.0000001", "lag=1.0000002", "lag=0.6"]


def test_simulate_deterministic_and_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, SIM)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    main(["simulate", str(cfg), "--output", str(out_a)])
    main(["simulate", str(cfg), "--output", str(out_b)])
    main(["simulate", str(cfg), "--output", str(out_c), "--seed", "9"])
    bytes_a = (out_a / "samples.csv").read_bytes()
    assert bytes_a == (out_b / "samples.csv").read_bytes()
    assert bytes_a != (out_c / "samples.csv").read_bytes()


def test_simulate_tabulated_measure_exit3(tmp_path, capsys):
    body = """
[kernel]
type = box

[triplet]
jumps = table
grid = 0.5, 1.0, 2.0
density = 1.0, 0.5, 0.25

[simulate]
n_samples = 100
lattice_step = 0.25
"""
    assert main(["simulate", str(write_cfg(tmp_path, body))]) == 3
    assert "unsupported-measure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_battery(tmp_path, capsys):
    body = EXAMPLE + """
[simulate]
n_samples = 5000
lattice_step = 0.125
seed = 7
lags = 0.8
threshold = 0.5
probe = discrete
probe_points = -1.0, 0.0, 2.0
n_triples = 10
negdef_samples = 2000
"""
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main(["validate", str(cfg), "--output", str(out)]) == 0
    with open(out / "validation.csv") as fh:
        rows = list(csv.DictReader(fh))
    checks = [r["check"] for r in rows]
    assert checks.count("negative-definite") == 5
    assert checks.count("factorization") == 1
    assert checks.count("covariance-bound") == 1
    assert all(r["passed"] == "True" for r in rows)
    assert "7/7 checks passed" in capsys.readouterr().out


def test_validate_bad_probe_exit3(tmp_path, capsys):
    body = EXAMPLE + "\n[simulate]\nprobe = discrete\n"
    assert main(["validate", str(write_cfg(tmp_path, body))]) == 3
    assert "probe_points" in capsys.readouterr().err


def test_validate_quadrature_failure_is_failed_check(tmp_path, capsys):
    # the profile fails to converge on this pair; the factorization check
    # converges since the Poisson cumulant no longer cancels in the far tails
    body = """
[kernel]
type = powerlaw
exponent = 1.5

[triplet]
jumps = poisson
atoms = 1.0

[simulate]
n_samples = 500
lags = 0.6
n_triples = 4
negdef_samples = 200
"""
    out = tmp_path / "out"
    assert main(["validate", str(write_cfg(tmp_path, body)), "--output", str(out)]) == 2
    with open(out / "validation.csv") as fh:
        rows = {r["check"]: r for r in csv.DictReader(fh)}
    assert rows["factorization"]["passed"] == "True"
    assert rows["covariance-bound"]["passed"] == "False"
    assert rows["covariance-bound"]["statistic"] == "quadrature-error"
    assert "target precision not reached" in rows["covariance-bound"]["value"]
    assert rows["covariance-bound"]["value"].startswith("profile: ")
    assert "6/7 checks passed" in capsys.readouterr().out
