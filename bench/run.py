"""Benchmark of srdcert: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload homogeneous --seed 0 --seconds 40 --trace 0

``--trace 0`` times passes over the workload's jobs with tracing off until
``--seconds`` is used, and reports the end-to-end metrics: median pass time
(``wall_s``), median slowest job (``job_max_s``), the median of three
fresh-interpreter set-ups (``setup_s``), peak resident memory
(``peak_rss_mb``) and the share of jobs whose output passed its oracle
(``pass_frac``, which is 1 - fail_frac).  The three times are scaled to a
nominal CPU speed sampled while they run (see ``speed``), because the speed
of a shared machine drifts by half from one minute to the next; the
measured seconds are printed as ``measured.*`` and kept in the results.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts (see ``spans``), in measured seconds.  Every job
starts with cold memo caches and runs alone in this process, with BLAS and
OpenMP capped at one thread.

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The computed outputs of every job, the
timings, the environment and, when traced, the spans are written under
``bench/out/``.  Exit status: 0 when every output passed its oracle, 1 when
one did not, 2 when the package or its configs are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_SAMPLE_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# seconds between speed samples: while measuring, and in a set-up probe
SAMPLE_INTERVAL = 0.2
PROBE_SAMPLE_INTERVAL = 0.02


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("homogeneous", "mixed", "montecarlo"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the smallest inputs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs, then exit")
    return ap.parse_args(argv)


def _load_package() -> str | None:
    """Import srdcert from this checkout; return an error message if absent."""
    src = ROOT / "src"
    if not (src / "srdcert" / "__init__.py").is_file():
        return f"{src / 'srdcert'} not found: run from a srdcert checkout"
    if not (ROOT / "configs").is_dir():
        return f"{ROOT / 'configs'} not found: run from a srdcert checkout"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import srdcert

    if Path(srdcert.__file__).resolve().parent != (src / "srdcert").resolve():
        return f"imported srdcert from {srdcert.__file__}, not from {src}"
    return None


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, cpu=cpu, platform=platform.platform(),
                nproc=len(os.sched_getaffinity(0)),
                threads={v: os.environ[v] for v in THREAD_VARS})


def _setup_probes(args) -> list[dict]:
    """Seconds from a fresh interpreter to built inputs, once per probe,
    measured and at the nominal speed the probe sampled for itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    probes = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=120)
        seconds = perf_counter() - start
        sample = float(proc.stdout.split()[-1])
        probes.append(dict(seconds=seconds,
                           nominal_s=seconds * NOMINAL_SAMPLE_S / sample))
    return probes


def _run_pass(jobs, tracer=None) -> dict:
    """Run every job once, each from cold caches, and check its output."""
    import workloads
    from srdcert import spectral

    records = []
    t0 = perf_counter()
    for j, job in enumerate(jobs):
        workloads.clear_caches()
        if tracer is not None:
            tracer.job_id = j
        start = perf_counter()
        try:
            outputs, problems = job.run(), None
        except Exception:
            outputs, problems = {}, [traceback.format_exc()]
        end = perf_counter()
        cache = spectral._mexp_scalar.cache_info()
        if problems is None:
            try:
                problems = job.check(outputs)
            except Exception:
                problems = [traceback.format_exc()]
        records.append(dict(name=job.name, start=start, end=end,
                            seconds=end - start, outputs=outputs,
                            problems=problems, mexp_hits=cache.hits,
                            mexp_misses=cache.misses))
    t1 = perf_counter()
    return dict(start=t0, end=t1, wall_s=t1 - t0,
                job_max_s=max(r["seconds"] for r in records), jobs=records)


def _measure(jobs, seconds: float, traced: bool):
    """Passes until ``seconds`` would be exceeded by one more round.

    A round is one untraced pass, followed by one traced pass when
    ``traced``.  Returns (untraced passes, traced passes, tracers, the
    speed samples taken meanwhile).
    """
    from spans import Tracer

    plain, traced_passes, tracers = [], [], []
    t0 = perf_counter()
    with Speedometer(SAMPLE_INTERVAL) as meter:
        while True:
            plain.append(_run_pass(jobs))
            if traced:
                tracer = Tracer()
                tracer.install()
                try:
                    traced_passes.append(_run_pass(jobs, tracer))
                finally:
                    tracer.uninstall()
                traced_passes[-1]["trace"] = tracer.summary()
                tracers.append(tracer)
            rounds = len(plain)
            if (perf_counter() - t0) * (rounds + 1) / rounds > seconds:
                break
    for p in plain + traced_passes:
        p["nominal_wall_s"] = meter.nominal(p["start"], p["end"])
        for r in p["jobs"]:
            r["nominal_s"] = meter.nominal(r["start"], r["end"])
        p["nominal_job_max_s"] = max(r["nominal_s"] for r in p["jobs"])
    return plain, traced_passes, tracers, meter.durations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(p: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    from spans import LAYERS

    tr = p["trace"]
    own, calls, incl, counts = (tr["layer_self"], tr["calls"], tr["inclusive"],
                                tr["counts"])
    n = lambda name: calls.get(name, 0)
    t = lambda name: incl.get(name, 0.0)
    hits = sum(r["mexp_hits"] for r in p["jobs"])
    lookups = hits + sum(r["mexp_misses"] for r in p["jobs"])
    quad_calls = n("quadrature.integrate_segments") + n("quadrature.integrate_box")
    evals = sum(c for name, c in calls.items() if name.endswith(".integrand"))
    cumulant_calls = n("levy.cumulant") + n("levy.cumulant_re")
    samples_s, fact_s = t("simulate.sample_field"), t("simulate.factorization_check")
    m = {f"{layer}.self_s": (own.get(layer, 0.0), "s") for layer in LAYERS}
    m.update({
        "certify.frequency_integral_s": (t("certify.frequency_integral"), "s"),
        "certify.frequency_integral.calls": (n("certify.frequency_integral"), "count"),
        "spectral.build_profile_s": (t("spectral.build_profile"), "s"),
        "spectral.ratio.calls": (n("spectral.max_dependence_ratio"), "count"),
        "spectral.mexp.calls": (n("spectral.marginal_exponent_sq"), "count"),
        "spectral.mexp_cache.hit_ratio": (_ratio(hits, lookups), "ratio"),
        "spectral.mexp_cache.lookups": (lookups, "count"),
        "spectral.char.calls": (n("spectral.char_marginal")
                                + n("spectral.char_joint_grid"), "count"),
        "quadrature.calls": (quad_calls, "count"),
        "quadrature.integrand_evals": (evals, "count"),
        "quadrature.evals_per_call": (_ratio(evals, quad_calls), "evals/call"),
        "kernels.calls": (n("kernels.Kernel.__call__"), "count"),
        "kernels.points_per_call": (_ratio(counts.get("kernels.points", 0),
                                           n("kernels.Kernel.__call__")),
                                    "points/call"),
        "kernels.lp_norm.calls": (n("kernels.lp_norm"), "count"),
        "levy.cumulant.calls": (cumulant_calls, "count"),
        "levy.cumulant.points_per_call": (_ratio(counts.get("levy.cumulant.points", 0),
                                                 cumulant_calls), "points/call"),
        "levy.tabulated_values": (n("levy._tabulated_jump_cumulant"), "count"),
        "levy.negdef_s": (t("levy.check_negdef_inequalities"), "s"),
        "simulate.sample_field_s": (samples_s, "s"),
        "simulate.samples_per_s": (_ratio(counts.get("simulate.samples", 0),
                                          samples_s), "1/s"),
        "simulate.factorization_s": (fact_s, "s"),
        "simulate.triples_per_s": (_ratio(counts.get("simulate.triples", 0),
                                          fact_s), "1/s"),
    })
    m["trace.coverage"] = (_ratio(sum(own.get(layer, 0.0) for layer in LAYERS),
                                  p["wall_s"]), "ratio")
    return m


def _median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    return {k: (statistics.median(m[k][0] for m in per_pass), unit)
            for k, (_, unit) in per_pass[0].items()}


def _to_json(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def main(argv=None) -> int:
    args = _parse(argv)
    with Speedometer(PROBE_SAMPLE_INTERVAL) as setup_meter:
        error = _load_package()
        if error is None:
            import workloads

            jobs = workloads.build(args.workload, args.seed, args.size, ROOT,
                                   OUT / args.workload)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_meter.mean_sample()))
        return 0

    env = _environment()
    setup = [] if args.trace else _setup_probes(args)
    plain, traced, tracers, samples = _measure(jobs, args.seconds,
                                               bool(args.trace))
    done = plain + traced
    attempted = sum(len(p["jobs"]) for p in done)
    failed = sum(1 for p in done for r in p["jobs"] if r["problems"])

    if args.trace:
        metrics = _median_metrics([_layer_metrics(p) for p in traced])
        overhead = statistics.median(p["wall_s"] for p in traced) \
            - statistics.median(p["wall_s"] for p in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "wall_s": (statistics.median(p["nominal_wall_s"] for p in plain), "s"),
            "job_max_s": (statistics.median(p["nominal_job_max_s"] for p in plain),
                          "s"),
            "setup_s": (statistics.median(p["nominal_s"] for p in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
        }

    reported = {k: dict(value=v, unit=u) for k, (v, u) in metrics.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  setup_probes_s=setup, speed_samples_s=samples,
                  passes=plain, traced_passes=traced,
                  metrics=reported)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=_to_json)
    if tracers:
        from spans import write_spans
        # one file per workload, replaced by each traced run: spans are large
        write_spans(OUT / f"{args.workload}-spans.csv.gz", tracers)

    for p in done:
        for r in p["jobs"]:
            for problem in r["problems"]:
                print(f"FAILED {r['name']}: {problem}", file=sys.stderr)
    last = (traced or plain)[-1]
    for j, r in enumerate(last["jobs"]):
        calls = last["trace"]["job_calls"].get(j, {}) if traced else {}
        evals = sum(c for name, c in calls.items() if name.endswith(".integrand"))
        print(f"job {r['name']} {r['seconds']:.3f} s" + (
            f" kernels.calls {calls.get('kernels.Kernel.__call__', 0)}"
            f" quadrature.integrand_evals {evals}" if traced else ""))
    if not args.trace:
        for key in ("wall_s", "job_max_s"):
            print(f"measured.{key} {statistics.median(p[key] for p in plain)!r} s")
        print(f"measured.setup_s"
              f" {statistics.median(p['seconds'] for p in setup)!r} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
    correct = failed == 0 and not bad
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed,
                          metrics=reported)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
